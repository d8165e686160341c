"""Machine-speed normalization for the end-to-end timings.

On a shared two-CPU container the same command's wall time swings by up
to 1.7x within seconds, because co-tenants contend for caches, memory
bandwidth and the kernel's page-fault path; a run's median then depends
on how much of it fell into a slow stretch.  A fixed probe — a fresh
interpreter that builds, sorts and drops a dict of tuples, the
allocation-heavy start-up-and-build mix the system's own commands are
made of — runs (through the same launcher) between operations.  Each
operation's wall time is scaled by ``REFERENCE_S / probe``, ``probe``
being the mean of the two probes bracketing it: the result is the
operation's time at the reference machine speed.  The probe does not
touch the system under test, so the scaling is the same for any two
versions of it; the unscaled wall times are reported next to it.
"""

from __future__ import annotations

import sys
from pathlib import Path
from typing import List, Optional

#: The probe's wall time at the reference speed: its 10th percentile over
#: 278 probes on the two-CPU container the benchmark was built on, so
#: scaled times read like wall times on that box when it is quiet.
REFERENCE_S = 0.12
PROBE = (
    "d = {}\n"
    "for i in range(40000):\n"
    "    d['k%d' % (i * 7919 % 40000)] = (i, [i])\n"
    "s = sorted(d.items())\n"
)


class SpeedProbe:
    """Bracket timed operations with probes and scale their times."""

    def __init__(self, launcher, workdir: Path) -> None:
        self.launcher = launcher
        self.workdir = workdir
        self.last: Optional[float] = None
        self.history: List[float] = []

    def measure(self) -> float:
        done = self.launcher.spawn([sys.executable, "-c", PROBE], self.workdir, system=False)
        if done.code != 0:
            raise RuntimeError(f"the speed probe failed: {done.stderr[-300:]}")
        self.last = done.seconds
        self.history.append(self.last)
        return self.last

    def before(self) -> float:
        return self.last if self.last is not None else self.measure()

    def factor(self, before: float) -> float:
        """Probe again; the scale for what ran since ``before`` was taken."""
        return REFERENCE_S * 2.0 / (before + self.measure())

"""Whole-system benchmark: four seeded workloads, timed from outside.

Usage, from the repository root::

    python3 perfbench/run.py --workload gate-doc --seed 2 --seconds 12 --trace 0

``--trace 0`` runs the workload's user-facing commands as subprocesses
(or over TCP) with tracing off, checks every answer and reports the
end-to-end metrics.  ``--trace 1`` runs the per-layer ledger instead:
each layer's public functions on pre-materialized inputs, one span per
call, reported as per-layer metrics plus a span file.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (each ``{"value", "unit"}``).

See ``perfbench/WORKLOADS.md`` for what each workload runs and why.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", required=True,
        choices=["gate-doc", "mondial-doc", "edit-stream", "schema-design"],
    )
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed (default: 2 for gate-doc and edit-stream, 0 otherwise)")
    parser.add_argument("--seconds", type=float, default=12.0,
                        help="how long the timed loop runs")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="scaled-down inputs (the benchmark's own tests)")
    parser.add_argument("--corrupt-reference", action="store_true",
                        help="deliberately wrong references; every run must then fail")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        print(f"error: no system under test at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    for name in [name for name in os.environ if name.startswith("REPRO_")]:
        del os.environ[name]  # the system runs with its defaults

    from system import Context, Launcher

    # Started before anything large is loaded here (see launcher.py).
    launcher = Launcher()
    sys.path.insert(0, str(ROOT / "src"))
    from inputs import DEFAULT_SEEDS

    seed = DEFAULT_SEEDS[args.workload] if args.seed is None else args.seed
    workdir = HERE / ".work" / f"{args.workload}-{seed}-{os.getpid()}"
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    ctx = Context(seed, args.seconds, workdir, args.smoke, args.corrupt_reference, launcher)
    try:
        if args.trace:
            from ledger import run_ledger

            out = HERE / "out"
            out.mkdir(exist_ok=True)
            result = run_ledger(ctx, args.workload, out / f"spans-{args.workload}-{seed}.jsonl")
        else:
            from workloads import WORKLOADS

            result = WORKLOADS[args.workload](ctx)
    finally:
        launcher.close()
        shutil.rmtree(workdir, ignore_errors=True)

    outcome = result.outcome
    print(f"workload {args.workload}, seed {seed}, trace {args.trace}")
    for name, value, unit, samples, wall in result.report:
        print(f"  {name:<24} {value:10.4f} {unit:<3} n={samples:<5} (wall {wall:.4f} {unit})")
    print(f"  fail_ratio {outcome.failed}/{outcome.attempted}")
    for reason in outcome.reasons:
        print(f"  FAILED: {reason}")
    for note in result.provenance.get("notes", ()):
        print(f"  {note}")
    provenance = dict(
        result.provenance,
        workload=args.workload,
        seed=seed,
        nproc=os.cpu_count(),
        python=platform.python_version(),
    )
    print("provenance " + json.dumps(provenance, sort_keys=True))
    metrics = {
        name: {"value": value, "unit": result.units[name]}
        for name, value in result.metrics.items()
    }
    print(
        json.dumps(
            {
                "correct": outcome.failed == 0,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

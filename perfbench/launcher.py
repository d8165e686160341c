"""Spawns one-shot commands for the benchmark and reports their wait4 usage.

A child's peak RSS as the kernel reports it includes the memory of the
process it was forked from (the pre-exec address space counts).  The
benchmark process grows large while it builds reference answers, so it
starts this small helper first and has it spawn every one-shot system
command: the peak RSS then belongs to the command alone.

Protocol: one JSON request per stdin line (``argv``, ``cwd``, ``env``,
``stdout``, ``stderr``, ``timeout``); one JSON reply per stdout line
(``code``, ``seconds``, ``maxrss_kb``).  ``code`` is ``null`` when the
command was killed for running past its timeout.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time


def serve(requests, replies) -> None:
    for line in requests:
        request = json.loads(line)
        with open(request["stdout"], "wb") as out, open(request["stderr"], "wb") as err:
            begin = time.perf_counter()
            proc = subprocess.Popen(
                request["argv"], cwd=request["cwd"], env=request["env"],
                stdin=subprocess.DEVNULL, stdout=out, stderr=err,
            )
            timer = threading.Timer(request["timeout"], proc.kill)
            timer.start()
            _, status, usage = os.wait4(proc.pid, 0)
            seconds = time.perf_counter() - begin
            timed_out = not timer.is_alive()
            timer.cancel()
            proc.returncode = os.waitstatus_to_exitcode(status)
        replies.write(
            json.dumps(
                {
                    "code": None if timed_out else proc.returncode,
                    "seconds": seconds,
                    "maxrss_kb": usage.ru_maxrss,
                }
            )
            + "\n"
        )
        replies.flush()


if __name__ == "__main__":
    serve(sys.stdin, sys.stdout)

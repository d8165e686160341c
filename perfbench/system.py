"""Driving the system under test from outside: one-shot CLI commands
(spawned by :mod:`launcher`), the ``apply-delta --repl`` loop over pipes,
and ``serve`` over TCP.

Every process started here is reaped with ``wait4``; the largest peak
RSS among them is the ``peak_rss_mb`` metric.
"""

from __future__ import annotations

import json
import os
import select
import signal
import socket
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REPRO = [sys.executable, "-m", "repro"]
#: Hard limit on any single reply from the system.
REPLY_TIMEOUT = 60.0


def system_env(unbuffered: bool = False) -> Dict[str, str]:
    """The caller's environment minus ``REPRO_*`` switches, with ``src``
    importable.  ``unbuffered`` makes a long-lived process answer each
    line as soon as it prints it."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return env


def command_line(args: List[str]) -> str:
    return " ".join(["python", "-m", "repro"] + args)


@dataclass
class Completed:
    args: List[str]
    code: Optional[int]
    stdout: str
    stderr: str
    seconds: float

    @property
    def traceback(self) -> bool:
        return "Traceback (most recent call last)" in self.stderr


def reap(proc: subprocess.Popen, timeout: float = 30.0) -> Tuple[Optional[int], int]:
    """Wait for ``proc`` with ``wait4``; returns (exit code, peak RSS KiB).
    The exit code is ``None`` when the process had to be killed."""
    deadline = time.monotonic() + timeout
    killed = False
    while True:
        try:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        except ChildProcessError:  # already reaped elsewhere
            return proc.returncode, 0
        if pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            return (None if killed else proc.returncode), usage.ru_maxrss
        if time.monotonic() > deadline and not killed:
            proc.kill()
            killed = True
        time.sleep(0.01)


class Launcher:
    """Client of :mod:`launcher`; start it while this process is small."""

    def __init__(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "launcher.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, bufsize=1,
        )
        self.peak_kb = 0

    def note_rss(self, maxrss_kb: int) -> None:
        self.peak_kb = max(self.peak_kb, maxrss_kb)

    @property
    def peak_rss_mb(self) -> float:
        return self.peak_kb / 1024.0

    def spawn(
        self, argv: List[str], cwd: Path, timeout: float = 170.0, system: bool = True
    ) -> Completed:
        """Run ``argv`` to completion; wall time includes start-up.  Only
        ``system`` processes count towards the peak RSS."""
        out, err = cwd / ".launch.out", cwd / ".launch.err"
        request = {"argv": argv, "cwd": str(cwd), "env": system_env(), "stdout": str(out),
                   "stderr": str(err), "timeout": timeout}
        self.proc.stdin.write(json.dumps(request) + "\n")
        reply = json.loads(self.proc.stdout.readline())
        if system:
            self.note_rss(reply["maxrss_kb"])
        completed = Completed(
            argv, reply["code"], out.read_text("utf-8", "replace"),
            err.read_text("utf-8", "replace"), reply["seconds"],
        )
        out.unlink()
        err.unlink()
        return completed

    def run(self, args: List[str], cwd: Path) -> Completed:
        """One ``repro`` command (``args`` after ``python -m repro``)."""
        completed = self.spawn(REPRO + args, cwd)
        completed.args = args
        return completed

    def close(self) -> None:
        self.proc.stdin.close()
        reap(self.proc)
        self.proc.stdout.close()


@dataclass
class Context:
    """Everything one benchmark run needs."""

    seed: int
    seconds: float
    workdir: Path
    smoke: bool
    corrupt: bool
    launcher: Launcher


class ReplyTimeout(RuntimeError):
    pass


class LineReader:
    """Line reads with a deadline from a pipe (no buffered-reader games)."""

    def __init__(self, fd: int) -> None:
        self.fd = fd
        self.buffer = bytearray()

    def readline(self, timeout: float = REPLY_TIMEOUT) -> str:
        deadline = time.monotonic() + timeout
        while True:
            cut = self.buffer.find(b"\n")
            if cut >= 0:
                line = bytes(self.buffer[:cut])
                del self.buffer[: cut + 1]
                return line.decode("utf-8", "replace")
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise ReplyTimeout("no reply line within the deadline")
            ready, _, _ = select.select([self.fd], [], [], remaining)
            if ready:
                chunk = os.read(self.fd, 1 << 16)
                if not chunk:
                    raise EOFError("the process closed its output")
                self.buffer += chunk


class Repl:
    """``repro apply-delta … --repl``: one delta per stdin line."""

    def __init__(self, args: List[str], cwd: Path, stderr_path: Path) -> None:
        self.stderr_path = stderr_path
        self._stderr = open(stderr_path, "wb")
        self.proc = subprocess.Popen(
            REPRO + args,
            cwd=cwd,
            env=system_env(unbuffered=True),
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=self._stderr,
            bufsize=0,
        )
        self.reader = LineReader(self.proc.stdout.fileno())

    def send(self, line: str) -> None:
        self.proc.stdin.write(line.encode("utf-8") + b"\n")

    def readline(self) -> str:
        return self.reader.readline()

    def close(self, launcher: Launcher) -> Optional[int]:
        """Quit the loop and wait; returns the exit code (None: killed)."""
        try:
            self.send("quit")
            self.proc.stdin.close()
        except OSError:
            pass
        code, maxrss_kb = reap(self.proc)
        launcher.note_rss(maxrss_kb)
        self.proc.stdout.close()
        self._stderr.close()
        return code

    def stderr_text(self) -> str:
        return self.stderr_path.read_text(encoding="utf-8", errors="replace")


def free_port() -> int:
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


class Server:
    """``repro serve`` plus one NDJSON client connection."""

    def __init__(self, args: List[str], cwd: Path, log_path: Path) -> None:
        self.port = free_port()
        self.log_path = log_path
        self._log = open(log_path, "wb")
        self.proc = subprocess.Popen(
            REPRO + args + ["--port", str(self.port)],
            cwd=cwd,
            env=system_env(),
            stdin=subprocess.DEVNULL,
            stdout=self._log,
            stderr=subprocess.STDOUT,
        )
        self.sock: Optional[socket.socket] = None
        self.reader = None

    def connect(self, timeout: float = 60.0) -> None:
        deadline = time.monotonic() + timeout
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError(f"serve exited with {self.proc.returncode}")
            try:
                self.sock = socket.create_connection(("127.0.0.1", self.port), timeout=1.0)
                break
            except OSError:
                if time.monotonic() > deadline:
                    raise
                time.sleep(0.02)
        self.sock.settimeout(REPLY_TIMEOUT)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.reader = self.sock.makefile("rb")

    def request(self, payload: Dict) -> Dict:
        self.sock.sendall(json.dumps(payload).encode("utf-8") + b"\n")
        line = self.reader.readline()
        if not line:
            raise EOFError("the server dropped the connection")
        return json.loads(line)

    def close(self, launcher: Launcher) -> Optional[int]:
        """SIGINT the server (a clean stop exits 130) and wait."""
        if self.reader is not None:
            self.reader.close()
        if self.sock is not None:
            self.sock.close()
        if self.proc.returncode is None:
            os.kill(self.proc.pid, signal.SIGINT)
        code, maxrss_kb = reap(self.proc)
        launcher.note_rss(maxrss_kb)
        self._log.close()
        return code

    def log_text(self) -> str:
        return self.log_path.read_text(encoding="utf-8", errors="replace")

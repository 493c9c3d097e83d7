"""Starts the cold CLI processes from a small helper interpreter.

The ``ru_maxrss`` that ``os.wait4`` reports for a child includes the
peak resident size of the address space the child replaced at exec.
For a process started with fork or vfork that is its parent's, so a
child started straight from the benchmark (numpy, mpmath and the warm
outputs loaded) would report at least the benchmark's own peak. This
helper is a fresh interpreter that imports only the standard library;
the floor it puts under its children's ``ru_maxrss`` is its own few MB.

Run as a script, it reads one JSON request per line on stdin, runs the
command, and answers one JSON line on stdout with the exit code, wall
and CPU seconds and ``ru_maxrss`` (KiB) of the child.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
from time import perf_counter
from typing import Dict, List


def serve() -> None:
    for line in sys.stdin:
        req = json.loads(line)
        with open(req["stdout"], "wb") as out, open(req["stderr"], "wb") as err:
            t0 = perf_counter()
            proc = subprocess.Popen(req["argv"], stdout=out, stderr=err, cwd=req["cwd"], env=req["env"])
            timer = threading.Timer(req["timeout"], proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        print(json.dumps({"rc": proc.returncode, "wall": wall,
                          "cpu": usage.ru_utime + usage.ru_stime,
                          "maxrss_kb": usage.ru_maxrss}), flush=True)


class Launcher:
    """Client of one helper process; use as a context manager so the
    helper is stopped and waited for."""

    def __init__(self) -> None:
        self._proc = subprocess.Popen(
            [sys.executable, "-I", "-S", os.path.abspath(__file__)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def run(self, argv: List[str], cwd: str, env: Dict[str, str],
            stdout: str, stderr: str, timeout: float) -> dict:
        request = {"argv": argv, "cwd": cwd, "env": env, "stdout": stdout,
                   "stderr": stderr, "timeout": timeout}
        self._proc.stdin.write(json.dumps(request) + "\n")
        self._proc.stdin.flush()
        answer = self._proc.stdout.readline()
        if not answer:
            raise RuntimeError(f"launcher exited with code {self._proc.wait()}")
        return json.loads(answer)

    def close(self) -> None:
        try:
            self._proc.stdin.close()
            self._proc.wait(timeout=10)
        except (OSError, subprocess.TimeoutExpired):
            self._proc.kill()
            self._proc.wait()
        finally:
            self._proc.stdout.close()

    def __enter__(self) -> "Launcher":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


if __name__ == "__main__":
    serve()

"""Spawning the program as a child process and measuring it.

Children are started and reaped by ``bench/launcher.py``, a slim process
the harness keeps open for the length of a workload.  It reaps each child
with ``os.wait4`` on its own pid, so CPU time and peak RSS are the
child's own: ``RUSAGE_CHILDREN`` would keep a running maximum over every
child, and a child forked by the harness itself would inherit the
harness's high-water RSS (see the launcher's docstring).  Stdout and
stderr go to files in the work directory, never to a pipe the harness has
to drain.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

CHILD_TIMEOUT_S = 120.0
LAUNCHER = Path(__file__).resolve().parent / "launcher.py"


def child_env(src: Path) -> dict[str, str]:
    """A fixed environment, so runs measure the program, not the caller's shell."""
    return {
        "PATH": os.environ.get("PATH", "/usr/bin:/bin"),
        "PYTHONPATH": str(src),
        "PYTHONHASHSEED": "0",
        "SOURCE_DATE_EPOCH": "1700000000",
        "OPENBLAS_NUM_THREADS": "1",
        "OMP_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
    }


@dataclass(frozen=True)
class ChildRun:
    returncode: int
    wall_s: float
    cpu_s: float
    peak_rss_mib: float
    floor_rss_mib: float  # the launcher's high-water RSS, below which peak_rss_mib says nothing
    stderr: str


class Launcher:
    """Runs ``python <args>`` children one at a time through ``bench/launcher.py``."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, "-S", str(LAUNCHER)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env={"PATH": os.environ.get("PATH", "/usr/bin:/bin")},
            text=True,
        )

    def run(self, args: list[str], cwd: Path, env: dict[str, str], stdout_name: str = "stdout.txt") -> ChildRun:
        """Run ``python <args>`` in ``cwd``; wall time runs from spawn to exit."""
        err_path = cwd / "stderr.txt"
        request = {
            "argv": [sys.executable, *args],
            "env": env,
            "cwd": str(cwd),
            "stdout": str(cwd / stdout_name),
            "stderr": str(err_path),
            "timeout_s": CHILD_TIMEOUT_S,
        }
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"launcher exited with code {self.proc.wait()}")
        reply = json.loads(line)
        return ChildRun(
            returncode=reply["returncode"],
            wall_s=reply["wall_s"],
            cpu_s=reply["cpu_s"],
            peak_rss_mib=reply["maxrss_kib"] / 1024.0,  # ru_maxrss is in KiB on Linux
            floor_rss_mib=reply["launcher_hwm_kib"] / 1024.0,
            stderr=err_path.read_text(encoding="utf-8", errors="replace"),
        )

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.stdout.close()
        self.proc.wait()

    def __enter__(self) -> Launcher:
        return self

    def __exit__(self, *exc) -> None:
        self.close()

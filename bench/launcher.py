"""Slim process that starts and reaps the benchmark's children.

Usage: python -S bench/launcher.py   (requests on stdin, replies on stdout)

Each stdin line is a JSON request ``{"argv", "env", "cwd", "stdout",
"stderr", "timeout_s"}``; the launcher forks, the child execs ``argv``
with stdout and stderr sent to the named files, and ``os.wait4`` on its
pid gives its rusage.  The reply is one JSON line with the exit code,
the wall time from fork to reap and the user plus sys time in seconds,
and the child's ``ru_maxrss`` and this launcher's own RSS high-water mark
in KiB.

Linux folds the high-water RSS of the memory a child had before ``exec``
into that child's ``ru_maxrss``.  Children forked by the harness (which
holds numpy, mpmath and the generated inputs) would therefore never read
lower than the harness; forked from here, the floor is this process's
high-water mark, which is why it imports nothing beyond the standard
library's core and is reported with every reply.  EOF on stdin ends it.
"""

import json
import os
import signal
import sys
import time


def hiwater_kib() -> int:
    with open("/proc/self/status", "rb") as fh:
        for line in fh:
            if line.startswith(b"VmHWM:"):
                return int(line.split()[1])
    return 0


def kill_quietly(pid: int) -> None:
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def spawn(req: dict) -> dict:
    t0 = time.perf_counter()
    pid = os.fork()
    if pid == 0:
        try:
            os.chdir(req["cwd"])
            stdin = os.open(os.devnull, os.O_RDONLY)
            out = os.open(req["stdout"], os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
            err = os.open(req["stderr"], os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
            os.dup2(stdin, 0)
            os.dup2(out, 1)
            os.dup2(err, 2)
            os.execve(req["argv"][0], req["argv"], req["env"])
        except BaseException as exc:  # noqa: BLE001 - report any failure to exec
            os.write(2, f"launcher: cannot start {req['argv'][0]}: {exc}\n".encode())
        finally:
            os._exit(127)
    signal.signal(signal.SIGALRM, lambda *_: kill_quietly(pid))
    signal.setitimer(signal.ITIMER_REAL, req["timeout_s"])
    try:
        _, status, usage = os.wait4(pid, 0)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    wall = time.perf_counter() - t0
    return {
        "returncode": os.waitstatus_to_exitcode(status),
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "maxrss_kib": usage.ru_maxrss,
        "launcher_hwm_kib": hiwater_kib(),
    }


def main() -> None:
    for line in sys.stdin:
        sys.stdout.write(json.dumps(spawn(json.loads(line))) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()

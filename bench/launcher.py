"""Start, time and reap ops on behalf of run.py.

Linux carries the memory high-water mark of the process that forks over
into the ru_maxrss of the child it execs, so ops started straight from
run.py, which holds the reference tables and op outputs, would all report
run.py's peak. This process stays small and starts every op instead.

Protocol: one JSON request per stdin line,
``{"cmd": [...], "stdout": path, "stderr": path, "timeout": seconds}``,
answered by one JSON line ``{"rc", "wall_s", "cpu_s", "rss_kb"}``. The op
runs with this process's working directory and environment.
"""

from __future__ import annotations

import json
import os
import select
import signal
import subprocess
import sys
import time


def run_op(cmd: list[str], stdout: str, stderr: str, timeout: float) -> dict:
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        pidfd = os.pidfd_open(proc.pid)
        try:
            if not select.select([pidfd], [], [], timeout)[0]:
                proc.kill()
        except BaseException:
            proc.kill()
            raise
        finally:
            os.close(pidfd)
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        wall = time.perf_counter() - start
    return {
        "rc": proc.returncode,
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "rss_kb": usage.ru_maxrss,
    }


def main() -> int:
    # SIGTERM from run.py unwinds through run_op, which kills the op first.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    for line in sys.stdin:
        request = json.loads(line)
        reply = run_op(request["cmd"], request["stdout"], request["stderr"], request["timeout"])
        print(json.dumps(reply), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

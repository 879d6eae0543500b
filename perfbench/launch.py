"""Spawns the benchmark's jobs and reports wall time, exit status and peak RSS.

    python3 perfbench/launch.py

Reads one JSON request per line on stdin, ``{"argv", "stderr", "timeout"}``,
runs it to completion in the launcher's own directory and environment,
and answers with one JSON line ``{"wall_s", "status", "rss_mb"}``; exits
at end of input.  SIGINT kills the running job before the launcher exits.

On Linux a child's ``ru_maxrss`` starts from the RSS high-water mark of the
process that spawned it, which exec carries over.  ``run.py`` grows as it
checks outputs (a snapshot CSV alone is 47 MB), so jobs are spawned from
this small process, whose own high-water mark stays below any job's.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time


def run(argv, stderr, timeout) -> dict:
    """Run one job; the child is killed once ``timeout`` seconds have passed."""
    with open(stderr, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                                stderr=err)
        timer = threading.Timer(max(timeout, 0.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": wall, "status": proc.returncode, "rss_mb": usage.ru_maxrss / 1024.0}


def main() -> int:
    for line in sys.stdin:
        print(json.dumps(run(**json.loads(line))), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Starts the benchmark's measured processes from a small process of its own.

Linux charges a child's peak resident set (``ru_maxrss``) with the resident
size of the process it was forked from, up to the moment it calls exec.  The
benchmark itself holds numpy, scipy and parsed outputs, so the processes it
measures are started from this process instead, which imports nothing heavy.

Protocol: one JSON request per line on stdin,
``{"cmd": [...], "env": {...}, "cwd": ..., "log": ..., "timeout": seconds}``;
one JSON answer per line on stdout,
``{"exit_code": ..., "wall_s": ..., "peak_rss_mb": ...}``.  The process ends
when stdin closes.
"""

import json
import os
import subprocess
import sys
import threading
import time


def run(request) -> dict:
    with open(request["log"], "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(request["cmd"], env=request["env"], cwd=request["cwd"],
                                stdout=log, stderr=subprocess.STDOUT)
        timer = threading.Timer(request["timeout"], proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"exit_code": proc.returncode, "wall_s": wall, "peak_rss_mb": usage.ru_maxrss / 1024.0}


def main():
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)


if __name__ == "__main__":
    main()

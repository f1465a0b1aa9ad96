"""Run one command and write its wall time, exit status and peak RSS as JSON.

    python3 perfbench/launch.py RESULT.json TIMEOUT_S CMD...

The benchmark starts every measured process through this small launcher.
Linux carries the high-water RSS of the process that calls exec into the
new program's peak RSS, so a process started straight from the benchmark
would report the benchmark's own peak memory as its own.
"""

import json
import os
import subprocess
import sys
import threading
import time


def main(argv) -> int:
    result, timeout, cmd = argv[0], float(argv[1]), argv[2:]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd)
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    wall = time.perf_counter() - start
    with open(result, "w", encoding="utf-8") as f:
        json.dump({"rc": os.waitstatus_to_exitcode(status), "wall_s": wall,
                   "rss_mb": usage.ru_maxrss / 1024}, f)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Runs the benchmark's child processes and reports their usage.

A child's ``ru_maxrss`` starts from the RSS of the process it was
forked from, so children are started from this small process instead
of the benchmark process, which grows while it checks corpora and
keeps spans.  Reads one JSON request per line on stdin (``argv``, ``cwd``,
``env``, ``log``, ``timeout``) and answers each with one JSON line:
``wall`` (s, spawn to exit), ``rss_mb`` and ``status``.  A child still
running after ``timeout`` seconds is killed.  Exits at end of input.
"""

import json
import os
import subprocess
import sys
import threading
import time


def run(req: dict) -> dict:
    with open(req["log"], "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(req["argv"], cwd=req["cwd"], env=req["env"],
                                stdin=subprocess.DEVNULL, stdout=log,
                                stderr=log)
        timer = threading.Timer(req["timeout"], proc.kill)
        timer.start()
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "wall": wall,
        "rss_mb": usage.ru_maxrss / 1024,
        "status": proc.returncode,
    }


def main() -> None:
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run(json.loads(line))) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()

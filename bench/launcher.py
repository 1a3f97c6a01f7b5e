"""Starts CLI children on behalf of the benchmark and reports their exit
code, wall time and peak RSS.

On Linux a child's ``ru_maxrss`` starts at the peak RSS of the process
that forked it, so children are forked from this small process rather
than from the benchmark, whose memory grows with the inputs it checks.

Protocol: one JSON request per stdin line,
``{"argv": [...], "cwd": ..., "stdout": path, "stderr": path, "timeout": s}``;
one JSON reply per stdout line,
``{"exit": code, "wall_s": s, "rss_kb": kb, "timed_out": bool}``.
Children inherit this process's environment.  The process exits when
stdin closes.
"""

import json
import os
import subprocess
import sys
import threading
import time


def run(req: dict) -> dict:
    with open(req["stdout"], "wb") as fo, open(req["stderr"], "wb") as fe:
        start = time.perf_counter()
        proc = subprocess.Popen(req["argv"], cwd=req["cwd"], stdin=subprocess.DEVNULL,
                                stdout=fo, stderr=fe)
        killed = threading.Event()

        def kill():
            killed.set()
            proc.kill()

        timer = threading.Timer(req["timeout"], kill)
        timer.start()
        try:
            # wait without reaping, so the timer can never signal a reused pid
            os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
            wall = time.perf_counter() - start
        finally:
            timer.cancel()
            timer.join()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return {"exit": proc.returncode, "wall_s": wall, "rss_kb": usage.ru_maxrss,
            "timed_out": killed.is_set()}


def main():
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run(json.loads(line))) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()

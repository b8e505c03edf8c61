"""A lean process that starts the benchmark's jobs and reaps them.

    python perfbench/launcher.py < requests > replies

Each request is a JSON line ``{"argv": [...], "timeout": seconds}``; each
reply is a JSON line with the job's wall seconds (fork to reap), max RSS
in MB, exit code, stdout and stderr.  It exits at end of input.

Jobs are started from here rather than from run.py because Linux counts
the RSS of the process that forks into the child's max RSS: a child
forked from run.py, which holds the Hecke tables for its checks, would
report run.py's size.  This process imports nothing beyond the standard
library, so its own size stays below that of any job.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time


def spawn(argv: list[str], timeout: float) -> dict:
    """Run one process and reap it with wait4, so its own max RSS is known."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    killer = threading.Timer(timeout, proc.kill)
    killer.start()
    err: list[bytes] = []
    reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    reader.start()
    out = proc.stdout.read()
    reader.join()
    _, status, usage = os.wait4(proc.pid, 0)
    seconds = time.perf_counter() - start
    killer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    return {
        "seconds": seconds,
        "rss_mb": usage.ru_maxrss / 1024,
        "code": proc.returncode,
        "out": out.decode(),
        "err": err[0].decode(),
    }


def main() -> int:
    for line in sys.stdin:
        request = json.loads(line)
        sys.stdout.write(json.dumps(spawn(request["argv"], request["timeout"])) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())

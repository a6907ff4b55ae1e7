"""Run one command and report its exit code, wall time, CPU time and max RSS.

    python3 -S wpbench/spawn.py RESULT STDOUT STDERR COMMAND...

A child's max RSS counts the memory of the process it was forked from, so
jobs are forked from this small interpreter (started with -S) rather than
from the benchmark: a job's `peak_rss_mb` is then its own.  An argument
"spawn time" in COMMAND is replaced by `time.monotonic()` just before the
fork.  RESULT receives one line: "exit wall_s cpu_s maxrss_kb".
"""

import os
import sys
import time


def main(argv):
    result, out_path, err_path, cmd = argv[0], argv[1], argv[2], argv[3:]
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    out = os.open(out_path, flags, 0o644)
    err = os.open(err_path, flags, 0o644)
    t0 = time.monotonic()
    cmd = [repr(t0) if a == "spawn time" else a for a in cmd]
    pid = os.fork()
    if pid == 0:
        try:
            os.dup2(out, 1)
            os.dup2(err, 2)
            os.execv(cmd[0], cmd)
        finally:
            os._exit(127)
    _, status, usage = os.wait4(pid, 0)
    wall = time.monotonic() - t0
    with open(result, "w") as fh:
        fh.write(f"{os.waitstatus_to_exitcode(status)} {wall!r} "
                 f"{usage.ru_utime + usage.ru_stime!r} {usage.ru_maxrss}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

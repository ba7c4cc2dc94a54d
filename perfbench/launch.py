"""Launch one program in a fresh process and report what it used.

Usage: python3 -S perfbench/launch.py REPORT.json LOG PROGRAM [ARG ...]

Linux starts a spawned child's peak-RSS reading from the memory of the
process that spawned it, so the benchmark spawns through this small
interpreter instead of from its own, larger one.  REPORT.json receives the
``time.monotonic()`` reading taken just before the launch, the exit code,
and the ``os.wait4`` usage of the program together with the pool workers it
reaped.  The program's standard output and error go to LOG.
"""

import json
import os
import sys
import time


def main(report: str, log: str, argv: list[str]) -> int:
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, log, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        (os.POSIX_SPAWN_DUP2, 1, 2),
    ]
    launched = time.monotonic()
    pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
    _, status, usage = os.wait4(pid, 0)
    with open(report, "w") as fh:
        json.dump({"launched": launched,
                   "exit_code": os.waitstatus_to_exitcode(status),
                   "cpu_s": usage.ru_utime + usage.ru_stime,
                   "peak_rss_kb": usage.ru_maxrss}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2], sys.argv[3:]))

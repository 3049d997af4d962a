"""Run a command; append its wall time, peak RSS and exit status to stderr.

Usage: python -S bench/launch.py <program> <arguments>

Linux carries the old memory's high-water mark across exec, so a process
started straight from bench/run.py would report that process's resident
set as its own ``ru_maxrss``.  bench/run.py therefore starts each
measured program through this small process, which also times it without
its own start-up.  The last line of stderr is LAUNCH_MARKER followed by
"<wall seconds> <peak RSS KiB> <exit code>".
"""

import os
import sys
import time

LAUNCH_MARKER = "#matula-launch "

if __name__ == "__main__":
    start = time.perf_counter()
    pid = os.posix_spawn(sys.argv[1], sys.argv[1:], os.environ)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    code = os.waitstatus_to_exitcode(status)
    os.write(2, f"\n{LAUNCH_MARKER}{wall!r} {usage.ru_maxrss} {code}\n".encode())

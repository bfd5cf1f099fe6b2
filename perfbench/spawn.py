"""Start one command, reap it, and record its exit code, wall time and RSS.

    python3 -I -S perfbench/spawn.py RESULT TIMEOUT STDOUT STDERR -- ARGV...

Linux carries the peak RSS of the process that starts a child into the
child's ru_maxrss, because the child runs in its parent's address space
until it execs.  A command started by the benchmark itself would report at
least the benchmark's own peak.  This process sits between the two; it
imports almost nothing, so its peak stays below that of any command
measured here, and the command's ru_maxrss is its own.

The wall time runs from just before the spawn to the reap.  The command
gets PERFBENCH_SPAWNED, the `time.monotonic()` of its spawn, in its
environment.  It is killed after TIMEOUT seconds.  RESULT gets one line:
"exit-code wall-seconds maxrss-KiB".
"""

import os
import signal
import sys
import time


def main() -> int:
    result, timeout, out, err, sep, *argv = sys.argv[1:]
    if sep != "--" or not argv:
        print(__doc__, file=sys.stderr)
        return 2
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [(os.POSIX_SPAWN_OPEN, 1, out, flags, 0o644),
               (os.POSIX_SPAWN_OPEN, 2, err, flags, 0o644)]
    env = dict(os.environ)
    t0 = time.perf_counter()
    env["PERFBENCH_SPAWNED"] = repr(time.monotonic())
    pid = os.posix_spawn(argv[0], argv, env, file_actions=actions)
    signal.signal(signal.SIGALRM, lambda *_: os.kill(pid, signal.SIGKILL))
    signal.signal(signal.SIGTERM, lambda *_: os.kill(pid, signal.SIGKILL))
    signal.alarm(int(timeout))
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - t0
    with open(result, "w") as fh:
        fh.write(f"{os.waitstatus_to_exitcode(status)} {wall!r} "
                 f"{usage.ru_maxrss}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Child-process launcher: runs one command at a time and reports its cost.

Reads one JSON request per line on stdin, ``{"argv": [...], "env": {...},
"stdout": path, "stderr": path}``, runs the command to completion and writes
one JSON reply per line: exit code, wall seconds and the child's peak RSS
from ``wait4``.

Linux carries a parent's peak RSS into a child it forks, so a child forked
from the benchmark process, which holds the generated graph, would report
at least that much. This launcher is started while the benchmark process is
still small and imports nothing heavy, so the peaks it reports belong to the
children. It needs only the standard library.
"""

import json
import os
import sys
import time


def run(request: dict) -> dict:
    with open(request["stdout"], "wb") as out, open(request["stderr"], "wb") as err:
        start = time.perf_counter()
        pid = os.posix_spawn(request["argv"][0], request["argv"], request["env"],
                             file_actions=[(os.POSIX_SPAWN_DUP2, out.fileno(), 1),
                                           (os.POSIX_SPAWN_DUP2, err.fileno(), 2)])
        _, status, usage = os.wait4(pid, 0)
        wall = time.perf_counter() - start
    return {"rc": os.waitstatus_to_exitcode(status), "wall_s": wall,
            "maxrss_kib": usage.ru_maxrss}


def main() -> None:
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)


if __name__ == "__main__":
    main()

"""Forked fan-out: run tasks side by side, one per allowed CPU.

``regress --x0``'s direction grid and the sweep's angular chunks both
run here.  The parent runs the first task itself; each further task runs
in a forked child that pickles its result back through a pipe.  A child
leaves only through os._exit in a finally, and every child is killed
(SIGKILL) and reaped on every way out, so a failure in the parent's own
task leaves no process behind.  os, pickle and threading are already
loaded by numpy, and signal is imported only when a fan-out runs, so
importing this module costs nothing at start-up.
"""

from __future__ import annotations

import os
import pickle
import threading

# stands in for the result of a child that failed or could not be forked
FAILED = object()


def workers() -> int:
    """Processes a fan-out may use: the CPUs this process may run on.

    One without os.fork, and while another Python thread is alive: a
    forked child would inherit that thread's locks in whatever state
    they were, without the thread that releases them.
    """
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def fork_map(tasks) -> list:
    """``[task() for task in tasks]``, every task after the first in a forked child.

    The results come back in task order.  A child that fails, or a task
    for which no pipe or process could be had, gives FAILED in its place;
    the caller redoes that work or falls back to its serial path.  An
    exception in the first task propagates once every child is killed
    and reaped.
    """
    import signal

    children = []  # [pid, read end]; None once reaped, closed or not forked
    try:
        for task in tasks[1:]:
            r = w = None
            try:
                r, w = os.pipe()
                pid = os.fork()
            except OSError:  # no descriptor or process to spare
                for fd in (r, w):
                    if fd is not None:
                        os.close(fd)
                children.append([None, None])
                continue
            if pid == 0:
                status = 1
                try:
                    os.close(r)
                    with open(w, "wb") as pipe:
                        pickle.dump(task(), pipe, pickle.HIGHEST_PROTOCOL)
                    status = 0
                finally:
                    os._exit(status)
            os.close(w)
            children.append([pid, r])
        results = [tasks[0]()]
        for child in children:
            pid, r = child
            status = 1
            if pid is not None:
                with open(r, "rb") as pipe:
                    child[1] = None
                    data = pipe.read()
                status = os.waitpid(pid, 0)[1]
                child[0] = None
            results.append(pickle.loads(data) if status == 0 else FAILED)
        return results
    finally:
        for pid, r in children:
            if r is not None:
                os.close(r)
            if pid is not None:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)

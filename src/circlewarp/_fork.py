"""A second CPU through one forked child process.

_fork_call(child, parent) runs child() in a forked child while parent()
runs in the caller, and returns both results. Callers split work whose
result does not depend on which process computes which share, so the
forked path is bitwise the serial one. Two modules use it: derand for its
quadrature profile and its Monte-Carlo guard, and fourier for long
partial-sum sweeps. Each caller sets its own work floor below which a fork
does not pay.

The work runs serially when os.fork is missing, when fewer than two CPUs are
in os.sched_getaffinity(0) (_can_fork), and when the fork fails (_fork_call
then runs both shares in the caller). On Python 3.12 and later, os.fork warns
(DeprecationWarning) in a process that runs other OS threads, such as a
multithreaded BLAS.
"""

from __future__ import annotations

import os
import pickle
import signal


def _usable_cpus() -> int | None:
    """The number of CPUs this process may run on (os.cpu_count(), possibly
    None, where the affinity mask cannot be read)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count()


def _can_fork() -> bool:
    """Whether a forked child could run beside this process: os.fork
    exists and this process may run on at least two CPUs."""
    return hasattr(os, "fork") and (_usable_cpus() or 1) >= 2


def _fork_call(child, parent):
    """(child(), parent()), child running in a forked child process while
    parent runs here. The child pickles its result, or the exception it
    raised, into a pipe and leaves by os._exit, so it flushes no buffer it
    inherited and runs no exit handler; the child's exception is raised
    here. The child is always reaped, and killed first if parent raises.
    If the fork fails, both run here."""
    rfd, wfd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(rfd)
        os.close(wfd)
        return child(), parent()
    if pid == 0:
        status = 1
        try:
            os.close(rfd)
            try:
                reply = (True, child())
            except BaseException as exc:  # raised in the parent instead
                reply = (False, exc)
            with open(wfd, "wb") as pipe:
                pickle.dump(reply, pipe)
            status = 0
        finally:
            os._exit(status)
    os.close(wfd)
    try:
        with open(rfd, "rb") as pipe:
            mine = parent()
            data = pipe.read()
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        raise
    finally:
        _, wait_status = os.waitpid(pid, 0)
    if not data:
        raise RuntimeError(f"forked child left no result (wait status {wait_status})")
    ok, theirs = pickle.loads(data)
    if not ok:
        raise theirs
    return theirs, mine

"""A second CPU through one forked child process.

_fork_map(jobs) runs a list of independent jobs on the caller and one forked
child and returns their results in job order: the child runs job 0 first,
then each process takes the next job from one shared queue. It is the only
way the package forks. Callers split work whose result does not depend on
which process computes which share, so the forked path is bitwise the serial
one. derand builds its job list in _certify, for run and its public steps
alike: each rank's sampler (_sampler._mc_profile) and the two halves, from
_quadrature._profile_jobs, of each profile that a record or a guard report
reads; expected_composition hands over one profile's two halves. fourier
hands over the two halves of a long sweep. _fork_call is its engine.

The work runs serially when os.fork is missing, when fewer than two CPUs are
in os.sched_getaffinity(0) (_can_fork), and when the fork fails (_fork_call
then runs both shares in the caller). On Python 3.12 and later, os.fork warns
(DeprecationWarning) in a process that runs other OS threads, such as a
multithreaded BLAS.
"""

from __future__ import annotations

import os
import pickle
import select
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


# Jobs per queue. Writing at most PIPE_BUF bytes into an empty pipe never
# blocks, so the queue is filled whole before the fork; a longer job list
# runs as consecutive queues.
_QUEUE = select.PIPE_BUF // 4


def _fork_map(jobs) -> list:
    """[job() for job in jobs], the jobs shared between this process and one
    forked child (see _fork_call): the child runs job 0 first, then each
    process takes the next job index from one pipe, in list order, and runs
    that job whole, until the pipe is empty. So list the biggest jobs first,
    and first the job that should leave this process's memory alone. A
    process whose job raises takes the remaining indices out of the pipe and
    stops; the child's exception is raised here, after this process's job in
    hand. Without a second CPU, or when the fork fails, every job runs here,
    in list order."""
    if len(jobs) < 2 or not _can_fork():
        return [job() for job in jobs]
    out = []
    for start in range(0, len(jobs), _QUEUE):
        out += _queue_map(jobs[start : start + _QUEUE])
    return out


def _queue_map(jobs) -> list:
    """_fork_map on one queue of at most _QUEUE jobs."""

    def worker(first):
        done = {}
        try:
            if first:
                done[0] = jobs[0]()
            # a 4-byte read from a pipe of whole 4-byte records takes one
            # record; no process writes to it any more, so empty reads b""
            while index := os.read(rfd, 4):
                i = int.from_bytes(index, "little")
                done[i] = jobs[i]()
        except BaseException:
            while os.read(rfd, select.PIPE_BUF):
                pass
            raise
        return done

    rfd, wfd = os.pipe()
    try:
        try:
            os.write(wfd, b"".join(i.to_bytes(4, "little") for i in range(1, len(jobs))))
        finally:
            os.close(wfd)
        theirs, mine = _fork_call(lambda: worker(True), lambda: worker(False))
    finally:
        os.close(rfd)
    theirs.update(mine)
    return [theirs[i] for i in range(len(jobs))]

"""The job pool of the _fork module: _fork_map runs independent jobs on this
process and one forked child and returns their results in job order."""

import functools
import os
import time

import pytest

from circlewarp import _fork


class JobFailed(Exception):
    pass


@pytest.fixture
def two_cpus(monkeypatch):
    """Let the pool fork on any host, and log every fork it makes."""
    calls = []
    inner = _fork._fork_call

    def counted(child, parent):
        calls.append(1)
        return inner(child, parent)

    monkeypatch.setattr(_fork, "_can_fork", lambda: True)
    monkeypatch.setattr(_fork, "_fork_call", counted)
    return calls


def wait_for(path, timeout=20.0):
    """Block until path exists (another process made it), at most timeout s."""
    end = time.monotonic() + timeout
    while not path.exists():
        if time.monotonic() > end:
            raise TimeoutError(path)
        time.sleep(0.01)


def no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_results_come_back_in_job_order(two_cpus, tmp_path):
    # the caller's first job waits until the child has run one, so both
    # processes run jobs whatever the scheduler does
    me = os.getpid()
    flag = tmp_path / "child-ran"

    def job(i):
        if os.getpid() != me:
            flag.touch()
        else:
            wait_for(flag)
        time.sleep(0.01)
        return i, os.getpid()

    got = _fork._fork_map([functools.partial(job, i) for i in range(20)])
    assert [i for i, _ in got] == list(range(20))
    pids = {pid for _, pid in got}
    assert me in pids and len(pids) == 2
    assert len(two_cpus) == 1
    no_child_left()


def test_a_long_job_list_runs_as_consecutive_queues(two_cpus, monkeypatch):
    monkeypatch.setattr(_fork, "_QUEUE", 3)
    assert _fork._fork_map([functools.partial(int, i) for i in range(8)]) == list(range(8))
    assert len(two_cpus) == 3
    no_child_left()


@pytest.mark.parametrize("where", ["child", "caller"])
def test_a_failed_job_raises_here_and_leaves_no_child(where, two_cpus, tmp_path, capfd):
    # the caller's job waits until the child has taken one, so the failure
    # meets the other process mid-job; a child stalled in its job must be
    # killed, not awaited
    me = os.getpid()
    took = tmp_path / "child-took"

    def job():
        if os.getpid() != me:
            took.touch()
            if where == "child":
                raise JobFailed(where)
            time.sleep(60)
        else:
            wait_for(took)
            if where == "caller":
                raise JobFailed(where)

    start = time.monotonic()
    with pytest.raises(JobFailed, match=where):
        _fork._fork_map([job] * 4)
    assert time.monotonic() - start < 30
    assert len(two_cpus) == 1
    no_child_left()
    assert capfd.readouterr() == ("", "")


def test_a_failed_fork_runs_every_job_here(two_cpus, monkeypatch):
    # a fork refused for want of processes or memory leaves every job to
    # this process, in list order, and closes the pipes the pool made
    me = os.getpid()
    ran = []

    def job(i):
        ran.append(i)
        return i, os.getpid()

    def no_fork():
        raise OSError("fork refused")

    monkeypatch.setattr(os, "fork", no_fork)
    fds = len(os.listdir("/proc/self/fd"))
    got = _fork._fork_map([functools.partial(job, i) for i in range(5)])
    assert got == [(i, me) for i in range(5)]
    assert ran == list(range(5))
    assert len(two_cpus) == 1
    assert len(os.listdir("/proc/self/fd")) == fds


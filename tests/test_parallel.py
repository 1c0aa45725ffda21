"""The fork helper's contract beyond what the backtest and change-point
tests exercise: chunks are contiguous, a child's failure reaches the caller
and every child is reaped and every file closed however a call ends,
OpenBLAS runs one thread while chunks run, and the package forks in two
places only, neither inside the other's chunk."""

import ast
import os
import pickle
import signal
from pathlib import Path

import pytest

from flunowcast import parallel


def test_chunks_are_contiguous(monkeypatch):
    monkeypatch.setattr(parallel, "cpus", lambda: 3)
    assert parallel.chunks(100) == [range(0, 33), range(33, 66), range(66, 100)]
    assert parallel.chunks(2) == [range(0, 1), range(1, 2)]  # never more chunks than items
    assert parallel.chunks(0) == [range(0)]
    monkeypatch.setattr(parallel, "cpus", lambda: 1)
    assert parallel.chunks(100) == [range(100)]


def failing_in(where, fail=None):
    """Work that fails in the calling process or in a forked child, and
    otherwise returns its chunk's items. The failure raises ``ValueError``
    unless ``fail`` is given."""
    parent = os.getpid()

    def work(chunk):
        if (os.getpid() == parent) == (where == "parent"):
            if fail:
                fail()
            raise ValueError(f"injected in the {where}")
        return list(chunk)

    return work


def test_child_failure_raises_in_parent(monkeypatch, capfd):
    # the child's own exception, as a serial run would raise it
    monkeypatch.setattr(parallel, "cpus", lambda: 2)
    with pytest.raises(ValueError, match="injected in the child"):
        parallel.run_chunks(failing_in("child"), 4)
    err = capfd.readouterr().err
    assert "Traceback" in err and "ValueError: injected in the child" in err
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_child_without_result_raises_runtime_error(monkeypatch):
    monkeypatch.setattr(parallel, "cpus", lambda: 2)
    with pytest.raises(RuntimeError, match=r"chunk 2\.\.3 exited with status 3"):
        parallel.run_chunks(failing_in("child", fail=lambda: os._exit(3)), 4)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_parent_failure_reaps_child(monkeypatch):
    # the child's result takes over 64 KiB, and writing it must not block it
    big = [b"x" * (1 << 17)]
    assert len(pickle.dumps(big, pickle.HIGHEST_PROTOCOL)) > 1 << 16
    parent = os.getpid()

    def work(chunk):
        if os.getpid() == parent:
            raise ValueError("injected in the parent")
        return big

    def deadlocked(*_):
        raise TimeoutError("the parent waited for a child that cannot exit")

    monkeypatch.setattr(parallel, "cpus", lambda: 2)
    previous = signal.signal(signal.SIGALRM, deadlocked)
    signal.alarm(60)
    try:
        with pytest.raises(ValueError, match="injected in the parent"):
            parallel.run_chunks(work, 4)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_failed_fork_closes_its_file(monkeypatch):
    # the suite's nothing_left_behind fixture fails the test if the
    # in-memory file made for the child stays open
    def no_fork():
        raise OSError("injected fork failure")

    monkeypatch.setattr(parallel, "cpus", lambda: 2)
    monkeypatch.setattr(os, "fork", no_fork)
    with pytest.raises(OSError, match="injected fork failure"):
        parallel.run_chunks(lambda chunk: list(chunk), 4)


def test_without_memfd_runs_serially(monkeypatch, fork_log):
    monkeypatch.delattr(os, "memfd_create", raising=False)
    assert parallel.cpus() == 1
    assert parallel.run_chunks(lambda chunk: list(chunk), 4) == [0, 1, 2, 3]
    assert fork_log.read_bytes() == b""


class Unrebuildable(Exception):
    """Pickles, but unpickling calls ``__init__`` with its one message."""

    def __init__(self, a, b):
        super().__init__(f"{a} {b}")


@pytest.mark.parametrize("exc", [Unrebuildable("a", "b"), ValueError(lambda: None)],
                         ids=["does-not-unpickle", "does-not-pickle"])
def test_child_exception_that_cannot_come_back_raises_runtime_error(monkeypatch, capfd, exc):
    monkeypatch.setattr(parallel, "cpus", lambda: 2)

    def work(chunk):
        if chunk.start:
            raise exc
        return list(chunk)

    with pytest.raises(RuntimeError, match=r"chunk 2\.\.3 exited with status 1"):
        parallel.run_chunks(work, 4)
    assert type(exc).__name__ in capfd.readouterr().err


BLAS = parallel._openblas_threads()


@pytest.mark.skipif(BLAS is None, reason="numpy links no OpenBLAS")
@pytest.mark.parametrize("failing", [None, 0, 2], ids=["none", "caller", "child"])
def test_blas_runs_one_thread_while_chunks_run(monkeypatch, failing):
    get, put = BLAS
    monkeypatch.setattr(parallel, "cpus", lambda: 2)

    def work(chunk):
        if chunk.start == failing:
            raise ValueError("injected")
        return [get()]

    before = get()
    put(3)
    try:
        assert parallel.run_chunks(lambda chunk: [get()], 1) == [3]  # one chunk changes nothing
        if failing is None:
            assert parallel.run_chunks(work, 4) == [1, 1]
        else:
            with pytest.raises(ValueError, match="injected"):
                parallel.run_chunks(work, 4)
        assert get() == 3
        assert len(parallel.chunks(4)) == 2
    finally:
        put(before)


PACKAGE = Path(parallel.__file__).parent
FORK_SITES = [("changepoint.py", "score_resource"), ("evaluation.py", "backtest")]


def calls_of(names):
    """(module path under the package, enclosing top-level function) of
    every call of a function named in ``names``, as ``parallel.name(...)``
    or ``name(...)``, in the package's modules."""
    sites = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call):
                    func = node.func
                    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                    if name in names:
                        sites.append((path.relative_to(PACKAGE).as_posix(),
                                      getattr(top, "name", None)))
    return sorted(sites)


def test_the_package_forks_in_two_places_none_inside_a_chunk():
    # a new fork site, in a model fit or anywhere else a chunk's work
    # reaches, would fork again inside a chunk
    assert calls_of({"run_chunks"}) == FORK_SITES
    assert [site for site in calls_of({"run_chunks", "chunks"})
            if site[0].startswith("models/")] == []
    assert [site for site in calls_of({"fork"}) if site[0] != "parallel.py"] == []

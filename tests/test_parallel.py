"""The fork helper's contract beyond what the backtest, forest and
change-point tests exercise: a child exception that cannot come back whole
is reported by chunk and status, only the outermost call forks, and OpenBLAS
runs one thread while chunks run."""

import pytest

from flunowcast import parallel


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
        parallel.run_chunks(work, parallel.chunks(4))
    assert type(exc).__name__ in capfd.readouterr().err


def test_only_the_outermost_call_forks(monkeypatch):
    monkeypatch.setattr(parallel, "cpus", lambda: 3)

    def nested(chunk):
        return [len(parallel.chunks(6))]

    assert parallel.run_chunks(nested, parallel.chunks(3)) == [1, 1, 1]
    # one chunk forks nothing, so it marks nothing either
    assert parallel.run_chunks(nested, [range(3)]) == [3]
    assert len(parallel.chunks(6)) == 3


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
        assert parallel.run_chunks(work, [range(1, 3)]) == [3]  # one chunk changes nothing
        if failing is None:
            assert parallel.run_chunks(work, parallel.chunks(4)) == [1, 1]
        else:
            with pytest.raises(ValueError, match="injected"):
                parallel.run_chunks(work, parallel.chunks(4))
        assert get() == 3
        assert len(parallel.chunks(4)) == 2
    finally:
        put(before)

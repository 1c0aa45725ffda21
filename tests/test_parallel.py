"""The fork helper's failure contract beyond what the forest and
change-point tests exercise: a child exception that cannot come back
whole is reported by chunk and status."""

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

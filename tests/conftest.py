"""Suite-wide checks."""

import os

import pytest

FD_DIR = "/proc/self/fd"


def open_files() -> dict[int, str]:
    """Each open file descriptor of this process, with its link target.
    The descriptor that lists the directory is closed by the time its link
    is read, so it is left out."""
    files = {}
    for name in os.listdir(FD_DIR):
        try:
            files[int(name)] = os.readlink(f"{FD_DIR}/{name}")
        except FileNotFoundError:
            pass
    return files


@pytest.fixture(autouse=True)
def nothing_left_behind():
    """Fail a test that leaves a child process behind, running or unreaped,
    or a file descriptor open that was not open before it: every caller of
    ``parallel.run_chunks`` (a backtest's rows, the change-point
    posteriors) must reap every child it forks and close every
    file it makes, however it ends."""
    before = open_files() if os.path.isdir(FD_DIR) else None
    yield
    if hasattr(os, "WNOHANG"):
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            pass
        else:
            pytest.fail("the test left a running child process" if pid == 0 else
                        f"the test left child process {pid} unreaped")
    if before is not None:
        leaked = [f"{fd} -> {target}" for fd, target in sorted(open_files().items())
                  if before.get(fd) != target]
        if leaked:
            pytest.fail(f"the test left file descriptor(s) open: {leaked}")


@pytest.fixture()
def fork_log(tmp_path, monkeypatch):
    """A file that gets one byte for each ``os.fork`` call, made in this
    process or in any child it forks."""
    path = tmp_path / "forks"
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND)
    fork = os.fork

    def logged():
        os.write(fd, b"f")
        return fork()

    monkeypatch.setattr(os, "fork", logged)
    yield path
    os.close(fd)

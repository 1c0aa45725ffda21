"""The package's one fork: independent work cut into contiguous chunks, one
per CPU, with the results joined in chunk order.

``run_chunks(work, count)`` cuts ``range(count)`` into ``chunks(count)``,
runs ``work`` on the first chunk in the calling process and on each other
chunk in a forked child. Before each fork it makes one anonymous in-memory
file (``os.memfd_create``); the child pickles its list of results into that
file and leaves through ``os._exit``. The caller reads every file once its
child has exited and concatenates the lists in chunk order. A file never
blocks its writer, so however the call ends, every child is reaped and
every file closed.

A failure reads the same at any CPU count. A child whose work raises writes
its traceback to standard error, pickles the exception into its file and
exits with status 1; the caller raises that exception once every child is
reaped, as if the chunk had run in the calling process. Children are
checked in chunk order, so the exception raised is the one a serial run
meets first. A child that leaves no exception (killed, another exit status,
or an exception that does not pickle) raises ``RuntimeError`` naming its
chunk and status.

The package calls it in two places, and neither runs inside the other's
chunk: a backtest's rows (``evaluation.backtest``) and the change-point
posteriors (``changepoint.score_resource``). So the work of a chunk (a
model fit, a posterior) never forks, and a call over one chunk forks
nothing.

While chunks run, the BLAS runs one thread. Forked workers already use
every CPU, and a BLAS pool of one thread per CPU in each of them would
have its threads spin against each other. So before it forks,
``run_chunks`` sets the thread count of the OpenBLAS that numpy's LAPACK
module links to 1 (through its ``openblas_set_num_threads`` symbol, by
``ctypes``), the children inherit it, and the caller restores the old
count once every child is reaped, however the call ends. Where numpy links
another BLAS, nothing changes. ``one_blas_thread()`` is that setting alone,
as a context: the SVR fit forms its Gram matrix under it, and a Huber fit
runs under it whole, because OpenBLAS rounds their products differently
with its thread count.

Where ``fork``, ``sched_getaffinity`` or ``memfd_create`` is missing,
``cpus()`` is 1, so ``chunks`` gives one chunk and nothing forks. The CPUs
are those of the process's affinity mask; ``taskset`` restricts them.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import itertools
import os
import pickle
import sys


def cpus() -> int:
    """The CPUs this process may run on, or 1 where it cannot fork or make
    an anonymous in-memory file."""
    if not all(hasattr(os, name) for name in ("fork", "sched_getaffinity", "memfd_create")):
        return 1
    return len(os.sched_getaffinity(0))


def chunks(n: int) -> list[range]:
    """``range(n)`` cut into contiguous chunks, one per CPU (so at least one
    chunk, and never more chunks than items)."""
    count = max(1, min(cpus(), n))
    return [range(n * i // count, n * (i + 1) // count) for i in range(count)]


def run_chunks(work, count: int) -> list:
    """The lists ``work(chunk)`` returns for each of ``chunks(count)``,
    concatenated in chunk order: chunk 0 runs here and each other chunk in a
    forked child. A child's exception is raised here once every child is
    reaped and every file closed. A single chunk runs here, and the BLAS
    keeps its threads."""
    parts = chunks(count)
    if len(parts) == 1:
        return work(parts[0])
    files, pids = [], []  # a file's descriptor, and the pid of the child writing it
    with one_blas_thread():
        try:
            for chunk in parts[1:]:
                files.append(os.memfd_create("chunk"))
                pid = os.fork()
                if not pid:
                    _run_child(work, chunk, files[-1])
                pids.append(pid)
            results = work(parts[0])
        finally:
            codes = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid in pids]
            try:
                sent = [os.pread(fd, os.fstat(fd).st_size, 0) for fd in files[:len(pids)]]
            finally:
                for fd in files:
                    os.close(fd)
    for chunk, code, data in zip(parts[1:], codes, sent):
        if code:
            raise _child_failure(chunk, code, data)
        results += pickle.loads(data)
    return results


@functools.cache
def _openblas_threads():
    """The (get, set) thread-count functions of the OpenBLAS that numpy's
    LAPACK module links, found once per process, or None where it links
    none."""
    try:
        from numpy.linalg import _umath_linalg
        lib = ctypes.CDLL(_umath_linalg.__file__)  # its symbols and those it links
    except (ImportError, OSError):
        return None
    for prefix, suffix in itertools.product(("", "scipy_"), ("", "64_", "_64_")):
        get = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}", None)
        put = getattr(lib, f"{prefix}openblas_set_num_threads{suffix}", None)
        if get and put:
            get.argtypes, get.restype = [], ctypes.c_int
            put.argtypes, put.restype = [ctypes.c_int], None
            return get, put
    return None


@contextlib.contextmanager
def one_blas_thread():
    """Run OpenBLAS on one thread, and restore its thread count on the way
    out; where numpy links another BLAS, change nothing."""
    blas = _openblas_threads()
    if not blas:
        yield
        return
    threads = blas[0]()
    blas[1](1)
    try:
        yield
    finally:
        blas[1](threads)


def _run_child(work, chunk: range, fd: int) -> None:
    """Run one chunk in a forked child and leave through ``os._exit``:
    status 0 once the pickled results are in the file, 1 after a failure,
    with the traceback on standard error and the pickled exception in the
    file where it pickles."""
    status = 1
    try:
        try:
            data, done = pickle.dumps(work(chunk), pickle.HIGHEST_PROTOCOL), True
        except BaseException as exc:
            sys.excepthook(type(exc), exc, exc.__traceback__)
            sys.stderr.flush()
            data, done = pickle.dumps(exc, pickle.HIGHEST_PROTOCOL), False
        with open(fd, "wb") as file:
            file.write(data)
        status = 0 if done else 1
    finally:
        os._exit(status)


def _child_failure(chunk: range, code: int, data: bytes) -> BaseException:
    """The exception a child that exited with ``code`` left in its file, or
    a ``RuntimeError`` naming its chunk and status where it left none."""
    if code == 1:
        try:
            exc = pickle.loads(data)
        except Exception:  # empty, cut short, or not rebuildable from its pickle
            exc = None
        if isinstance(exc, BaseException):
            return exc
    return RuntimeError(f"the child running chunk {chunk.start}..{chunk.stop - 1} "
                        f"exited with status {code} and left no exception")

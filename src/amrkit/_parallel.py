"""The one parallel map behind every ``jobs`` argument: this process and
forked copies of it each compute an interleaved share of the items."""

from __future__ import annotations

import os
from typing import Callable, Optional, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")


def parallel_map(fn: Callable[[T], R], items: Sequence[T], jobs: int) -> list[R]:
    """Apply ``fn`` to every item and return the results in input order.

    The work runs in ``min(jobs, len(items), os.cpu_count())`` processes:
    this one and forked copies of it, process ``k`` taking
    ``items[k::processes]``.  With one process, or where ``os.fork`` is
    missing, the calls run here.  ``fn`` and the items reach the copies
    through the fork, so only results and exceptions must pickle; call
    with ``jobs > 1`` only from a single-threaded program.  If calls raise,
    the exception of the first failing item in input order is re-raised,
    as with one process, and the result never depends on the process
    count.
    """
    workers = min(jobs, len(items), os.cpu_count() or 1)
    if workers <= 1 or not hasattr(os, "fork"):
        return [fn(item) for item in items]
    # imported here so a single-process run never loads it
    import pickle

    children: list[tuple[int, int]] = []
    try:
        for k in range(1, workers):
            children.append(_fork_share(fn, items, k, workers, pickle.dumps))
        parts = [_share(fn, items, 0, workers)]
    finally:
        # reap every child, even when forking or this process's share failed
        received = [_receive(pid, read_fd) for pid, read_fd in children]
    for k, (pid, code, data) in enumerate(received, 1):
        if code != 0 or not data:
            raise RuntimeError(f"worker {k} (pid {pid}) exited with status {code} without a result")
        parts.append(pickle.loads(data))
    # share k stopped at its item k + len(done) * workers
    failed = [k for k, (_, error) in enumerate(parts) if error is not None]
    if failed:
        raise parts[min(failed, key=lambda k: k + len(parts[k][0]) * workers)][1]
    results: list = [None] * len(items)
    for k, (done, _) in enumerate(parts):
        results[k::workers] = done
    return results


def _share(
    fn: Callable, items: Sequence, k: int, workers: int
) -> tuple[list, Optional[Exception]]:
    """Process ``k``'s results, and the exception that stopped them."""
    done = []
    try:
        for item in items[k::workers]:
            done.append(fn(item))
    except Exception as error:  # re-raised by parallel_map once every child is reaped
        return done, error
    return done, None


def _fork_share(
    fn: Callable, items: Sequence, k: int, workers: int, dumps: Callable
) -> tuple[int, int]:
    """Fork a child that pickles share ``k`` into a pipe; return its pid
    and the pipe's read end."""
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:
        status = 1
        try:
            with open(write_fd, "wb") as pipe:
                pipe.write(dumps(_share(fn, items, k, workers)))
            status = 0
        finally:
            # never return into the caller's code, atexit hooks or stdio buffers
            os._exit(status)
    # closed at once, so the next child does not inherit it and the read sees EOF
    os.close(write_fd)
    return pid, read_fd


def _receive(pid: int, read_fd: int) -> tuple[int, int, bytes]:
    """Read a child's whole pipe, then reap it: (pid, exit code, bytes)."""
    with open(read_fd, "rb") as pipe:
        data = pipe.read()
    return pid, os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]), data

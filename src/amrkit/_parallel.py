"""The one process-pool map behind every ``jobs`` argument."""

from __future__ import annotations

from typing import Callable, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")


def parallel_map(fn: Callable[[T], R], items: Sequence[T], jobs: int) -> list[R]:
    """Apply ``fn`` to every item and return the results in input order.

    With ``jobs > 1`` and more than one item the calls run in ``jobs``
    worker processes, never more than there are items, in chunks of about
    an eighth of each worker's share; otherwise they run in this process.
    ``fn`` and the items must pickle, and the result never depends on the
    worker count.
    """
    if jobs > 1 and len(items) > 1:
        # imported here so a single-process run never pays for it
        from concurrent.futures import ProcessPoolExecutor
        chunk = max(1, len(items) // (jobs * 8))
        # under the fork start method a pool starts every worker at its first task
        with ProcessPoolExecutor(max_workers=min(jobs, len(items))) as pool:
            return list(pool.map(fn, items, chunksize=chunk))
    return [fn(item) for item in items]

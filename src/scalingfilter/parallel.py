"""One way to run work on forked processes, shared by scoring and embedding."""

from __future__ import annotations

import multiprocessing
from typing import Callable, Optional, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")

# Module global read by forked workers: set right before the pool is
# created so children inherit the task and all it refers to (models, texts,
# a sign matrix) without pickling it. Only items and results cross the pipes.
_TASK: Optional[Callable] = None


def _run_task(item):
    return _TASK(item)


def fork_map(task: Callable[[T], R], items: Sequence[T], workers: int) -> list[R]:
    """``[task(item) for item in items]``, on up to ``workers`` forked processes.

    Results come back in input order, and so does an exception: the one
    raised is that of the first failing item, as in a serial run. Runs
    serially in this process for one worker or one item, where the
    platform cannot fork, and inside a daemonic process (which may not
    have children).
    """
    if (workers <= 1 or len(items) <= 1 or "fork" not in multiprocessing.get_all_start_methods()
            or multiprocessing.current_process().daemon):
        return [task(item) for item in items]
    global _TASK
    _TASK = task
    try:
        chunk = max(1, len(items) // (workers * 8))
        with multiprocessing.get_context("fork").Pool(processes=min(workers, len(items))) as pool:
            return list(pool.imap(_run_task, items, chunksize=chunk))
    finally:
        _TASK = None

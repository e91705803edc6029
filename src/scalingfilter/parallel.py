"""One way to run work on forked processes, shared by scoring and embedding."""

from __future__ import annotations

from typing import Callable, Optional, Sequence, TypeVar

from .errors import WorkerDiedError

T = TypeVar("T")
R = TypeVar("R")

# The task of a forked worker, set by the executor's initializer: a fork-context
# worker inherits it and all it refers to (models, texts, a sign matrix) without
# pickling it. Only items and results cross the pipes. None outside a worker.
_TASK: Optional[Callable] = None


def _set_task(task: Callable) -> None:
    global _TASK
    _TASK = task


def _run_task(item):
    return _TASK(item)


def fork_map(task: Callable[[T], R], items: Sequence[T], workers: int) -> list[R]:
    """``[task(item) for item in items]``, on up to ``workers`` forked processes.

    Results come back in input order, and so does an exception: the one raised is that of the first
    failing item, as in a serial run. A worker that dies fails the map with ``WorkerDiedError``. Runs
    serially in this process for one worker or one item, inside a worker of another map, where the
    platform cannot fork, and inside a daemonic process (which may not have children).
    """
    if workers > 1 and len(items) > 1 and _TASK is None:
        import multiprocessing  # and the executor: loaded only by maps that may fork
        from concurrent.futures import BrokenExecutor, ProcessPoolExecutor

        if "fork" in multiprocessing.get_all_start_methods() and not multiprocessing.current_process().daemon:
            chunk = max(1, len(items) // (workers * 8))
            try:
                with ProcessPoolExecutor(min(workers, len(items)), mp_context=multiprocessing.get_context("fork"),
                                         initializer=_set_task, initargs=(task,)) as pool:
                    return list(pool.map(_run_task, items, chunksize=chunk))
            except BrokenExecutor as exc:
                raise WorkerDiedError(f"a forked worker died: {exc}") from None
    return [task(item) for item in items]

"""fork_map: the one way work runs on forked processes."""

import os
import time

from procs import run_in_session
from scalingfilter.parallel import fork_map

# item 3 kills its own worker: the map must fail, not wait for the item forever
DEAD_WORKER = """
import os, signal
from scalingfilter.parallel import fork_map

def task(item):
    if item == 3:
        os.kill(os.getpid(), signal.SIGKILL)
    return item

try:
    fork_map(task, range(8), 2)
except Exception as exc:
    raise SystemExit(getattr(exc, "code", repr(exc)))  # to stderr, with exit code 1
"""


def test_worker_that_dies_fails_the_map_quickly():
    start = time.perf_counter()
    code, err, left = run_in_session(["-c", DEAD_WORKER], 30)
    assert code == 1 and err.strip() == "worker-died", err
    assert not left
    assert time.perf_counter() - start < 10


class _Unpicklable:
    """A task that fails if it is ever pickled: workers must inherit it through the fork."""

    def __reduce__(self):
        raise AssertionError("the task was pickled")

    def __call__(self, item):
        return item * 2, os.getpid()


def test_task_reaches_workers_without_pickling():
    results = fork_map(_Unpicklable(), list(range(8)), 2)
    assert [value for value, _ in results] == [item * 2 for item in range(8)]
    assert os.getpid() not in {pid for _, pid in results}


def test_map_inside_a_worker_runs_in_that_worker():
    def task(item):
        return os.getpid(), fork_map(lambda _: os.getpid(), [1, 2], 2)

    for pid, inner in fork_map(task, [1, 2, 3], 2):
        assert pid != os.getpid() and inner == [pid, pid]

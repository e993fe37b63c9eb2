"""One map over task indices, shared by this process and forked workers."""

from __future__ import annotations

import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from typing import Callable

# the task and the workers' start barrier; set only inside forked pool workers
_task = None
_barrier = None


def _init_worker(task: Callable, barrier) -> None:
    global _task, _barrier
    _task = task
    _barrier = barrier


def _run_chunk(indices: range) -> list:
    # a worker that has taken a chunk waits until every chunk is taken, so no
    # worker takes two while another idles
    _barrier.wait()
    return [_task(i) for i in indices]


def fork_map(task: Callable, n: int, workers: int) -> list:
    """[task(0), ..., task(n - 1)]; up to min(workers, n) processes compute them.

    The indices are cut into contiguous chunks at `n*w // workers`; this
    process runs the first and each forked worker one of the rest, and the
    results are joined in index order, so they do not depend on `workers`
    when `task(i)` is a pure function of i.  Under `fork` the task is
    inherited rather than pickled, so it may be a closure; only index ranges
    and results cross process boundaries.  Where the platform cannot fork,
    everything runs serially.  A worker that dies raises `BrokenProcessPool`,
    a `RuntimeError`.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    workers = min(workers, n)
    if workers <= 1 or "fork" not in multiprocessing.get_all_start_methods():
        return [task(i) for i in range(n)]
    bounds = [n * w // workers for w in range(workers + 1)]
    context = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(
        workers - 1,
        mp_context=context,
        initializer=_init_worker,
        initargs=(task, context.Barrier(workers - 1)),
    ) as pool:
        futures = [
            pool.submit(_run_chunk, range(bounds[w], bounds[w + 1]))
            for w in range(1, workers)
        ]
        results = [task(i) for i in range(bounds[1])]
        for future in futures:
            results.extend(future.result())
    return results

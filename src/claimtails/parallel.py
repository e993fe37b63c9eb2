"""One map over task indices, shared by this process and forked workers."""

from __future__ import annotations

import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from typing import Callable

# the chunk task and the workers' start barrier; set only inside forked pool workers
_chunk_task = None
_chunk_barrier = None


def _init_worker(task: Callable, barrier) -> None:
    global _chunk_task, _chunk_barrier
    _chunk_task = task
    _chunk_barrier = barrier


def _run_chunk(indices: range) -> list:
    # a worker that has taken a chunk waits until every chunk is taken, so no
    # worker takes two while another idles
    _chunk_barrier.wait()
    return _chunk_task(indices)


def fork_chunks(task: Callable, n: int, workers: int) -> list:
    """task(range(0, b1)) + task(range(b1, b2)) + ..., the lists that `task`
    returns for contiguous chunks of range(n), joined in index order; up to
    min(workers, n) processes compute them.

    The chunks are cut at `n*w // workers`; this process runs the first and
    each forked worker one of the rest, so the result does not depend on
    `workers` when `task` returns, for each index of its chunk, a pure
    function of that index.  Under `fork` the task is inherited rather than
    pickled, so it may be a closure; only index ranges and results cross
    process boundaries.  Where the platform cannot fork, one chunk runs
    serially.  A worker that dies raises `BrokenProcessPool`, a
    `RuntimeError`.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    workers = min(workers, n)
    if workers <= 1 or "fork" not in multiprocessing.get_all_start_methods():
        return task(range(n))
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
        results = task(range(bounds[1]))
        for future in futures:
            results.extend(future.result())
    return results


def fork_map(task: Callable, n: int, workers: int) -> list:
    """[task(0), ..., task(n - 1)], with the chunks of `fork_chunks`."""
    return fork_chunks(lambda indices: [task(i) for i in indices], n, workers)

import os

import pytest

from claimtails.parallel import fork_map


class TestForkMapWorkers:
    @pytest.mark.parametrize("n,workers", [(0, 3), (1, 4), (5, 2), (7, 3), (4, 9)])
    def test_results_in_index_order(self, n, workers):
        # a lambda cannot be pickled: the workers inherit it
        assert fork_map(lambda i: (i, i * i), n, workers) == [(i, i * i) for i in range(n)]

    def test_caller_runs_the_first_chunk(self):
        # 7 tasks on 3 processes: chunks 0..1, 2..3 and 4..6
        pids = fork_map(lambda i: os.getpid(), 7, 3)
        assert pids[:2] == [os.getpid()] * 2
        assert len(set(pids[2:4])) == 1 and len(set(pids[4:])) == 1
        assert len(set(pids)) == 3

    def test_task_error_reaches_the_caller(self):
        def fails_in_last_chunk(i):
            if i == 3:
                raise KeyError(i)
            return i

        with pytest.raises(KeyError):
            fork_map(fails_in_last_chunk, 4, 2)

    def test_invalid_workers(self):
        with pytest.raises(ValueError, match="^workers must be >= 1$"):
            fork_map(lambda i: i, 3, 0)

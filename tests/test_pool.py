"""The shared fork-pool runner and contiguous splitter."""

from __future__ import annotations

import os

import pytest

from repro.harness.pool import fork_map, split_contiguous


def _tagged(plan, item):
    return plan["tag"], item * item


def _pid(plan, item):
    return os.getpid()


class TestForkMap:
    def test_pooled_results_in_item_order_equal_serial(self):
        plan = {"tag": "t"}
        items = list(range(12))
        serial = fork_map(_tagged, plan, items, workers=None)
        pooled = fork_map(_tagged, plan, items, workers=3)
        assert pooled == serial == [("t", item * item) for item in items]

    def test_plan_and_function_are_inherited_not_pickled(self):
        unpicklable = {"tag": lambda: None}
        results = fork_map(lambda plan, item: callable(plan["tag"]) and item,
                           unpicklable, [1, 2], workers=2)
        assert results == [1, 2]

    def test_pool_runs_in_other_processes(self):
        assert os.getpid() not in fork_map(_pid, None, [0, 1], workers=2)

    @pytest.mark.parametrize("workers", [None, 0, 1])
    def test_small_worker_counts_run_in_process(self, workers):
        assert fork_map(_pid, None, [0, 1], workers=workers) == [os.getpid()] * 2

    def test_single_item_runs_in_process(self):
        assert fork_map(_pid, None, [0], workers=4) == [os.getpid()]


class TestSplitContiguous:
    def test_empty_input_is_one_empty_chunk(self):
        assert split_contiguous([], 3) == [[]]

    @pytest.mark.parametrize("shards", [0, -1])
    def test_rejects_nonpositive_shards(self, shards):
        with pytest.raises(ValueError):
            split_contiguous([1, 2, 3], shards)

"""The one fork-pool runner shared by every harness that fans work out.

The engine's :meth:`~repro.harness.engine.ExperimentEngine.run_many`, the
sharded soak, and the fleet scheduler all map a function over a list of
items, with a *plan* — the engine, the booted images, the timelines — that
every call needs.  :func:`fork_map` does that once for all of them:

* the plan is inherited across ``fork``, never pickled, so state registered
  at runtime (engine workload shapes, profiles, shared images) is visible in
  every worker;
* results come back in item order;
* ``workers`` of None/0/1, a single item, or a platform without ``fork``
  runs the *same* function serially in-process.

:func:`split_contiguous` is the deterministic partition the soak (request
streams) and the fleet (instances) shard with: boundaries depend only on the
shard count, never on the worker count, which is what keeps pooled tallies
identical to serial ones.
"""

from __future__ import annotations

import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, List, Optional, Sequence, Tuple, TypeVar

__all__ = ["fork_map", "split_contiguous"]

P = TypeVar("P")
T = TypeVar("T")
R = TypeVar("R")

#: ``(fn, plan)`` of the running :func:`fork_map`, inherited by its forked
#: workers.  Set immediately before the pool is created and restored after,
#: so a pooled call nested inside a worker leaves the outer one intact.
_PLAN: Optional[Tuple[Callable[[object, object], object], object]] = None


def _call_with_plan(item: object) -> object:
    fn, plan = _PLAN
    return fn(plan, item)


def fork_map(
    fn: Callable[[P, T], R], plan: P, items: Sequence[T], workers: Optional[int]
) -> List[R]:
    """``[fn(plan, item) for item in items]``, over a forked pool when asked.

    ``fn`` and ``plan`` travel to the workers through the fork; only the
    items and the results are pickled.
    """
    global _PLAN
    items = list(items)
    count = 0 if workers is None else int(workers)
    if count > 1 and len(items) > 1:
        try:
            context = multiprocessing.get_context("fork")
        except ValueError:
            context = None
        if context is not None:
            previous = _PLAN
            _PLAN = (fn, plan)
            try:
                with ProcessPoolExecutor(
                    max_workers=min(count, len(items)), mp_context=context
                ) as pool:
                    return list(pool.map(_call_with_plan, items))
            finally:
                _PLAN = previous
    return [fn(plan, item) for item in items]


def split_contiguous(items: Sequence[T], shards: int) -> List[List[T]]:
    """Split ``items`` into ``shards`` contiguous, near-equal chunks.

    Earlier chunks take the remainder, one extra item each.  There are never
    more chunks than items (but always at least one, possibly empty).
    """
    if shards <= 0:
        raise ValueError("shards must be positive")
    items = list(items)
    shards = min(shards, max(len(items), 1))
    base, extra = divmod(len(items), shards)
    chunks: List[List[T]] = []
    position = 0
    for index in range(shards):
        size = base + (1 if index < extra else 0)
        chunks.append(items[position:position + size])
        position += size
    return chunks

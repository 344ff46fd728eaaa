"""Worker counts, and the threads that run a stage's independent pieces.

The worker count comes from an explicit argument, the EFFORTUD_WORKERS
environment variable, or the CPU count, in that order. ``run_experiment``
runs replicates in that many processes. Within a process, a stage that
splits into independent pieces (summed-effort stencil rows, blocks of
exceedance draws) runs them on as many threads through ``ordered_map``;
the caller reduces the results in submission order, so no output depends
on the count. Replicate worker processes set EFFORTUD_WORKERS to 1, so
they run their stages on one thread and processes do not multiply threads.

A thread pool lives for one ``ordered_map`` call, never from import: a
forked process inherits a pool's bookkeeping but none of its threads.
"""

from __future__ import annotations

import os
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Callable, Iterable, Iterator, TypeVar

from .errors import ConfigError

WORKERS_ENV = "EFFORTUD_WORKERS"

T = TypeVar("T")
R = TypeVar("R")


def resolve_workers(workers: int | None = None) -> int:
    """``workers`` if given, else EFFORTUD_WORKERS, else the CPU count; at least 1."""
    if workers is not None:
        return max(1, workers)
    env = os.environ.get(WORKERS_ENV)
    if env:
        try:
            return max(1, int(env))
        except ValueError as exc:
            raise ConfigError(f"{WORKERS_ENV} must be an integer, got {env!r}") from exc
    return os.cpu_count() or 1


def ordered_map(fn: Callable[[T], R], items: Iterable[T]) -> Iterator[R]:
    """``map(fn, items)`` with the calls on ``resolve_workers()`` threads.

    Results come in the order of ``items``, which is drawn on the calling
    thread as results are taken; at most threads + 1 calls are submitted
    and not yet taken. With one thread it is a plain loop.
    """
    n = resolve_workers()
    if n == 1:
        yield from map(fn, items)
        return
    pool = ThreadPoolExecutor(n)
    pending: deque[Future] = deque()
    try:
        for item in items:
            pending.append(pool.submit(fn, item))
            if len(pending) > n:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()
    finally:
        pool.shutdown(cancel_futures=True)

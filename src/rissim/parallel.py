"""The process pool behind every runner's ``--parallel``."""

from __future__ import annotations


def parallel_map(fn, items, parallel: int = 1):
    """Yield ``fn(item)`` for each item, in input order.

    Results come out lazily, so a caller that stops at the first failing item
    has already taken every result before it; jobs not yet started are then
    cancelled. With more than one worker, ``fn`` must be a module-level
    function and items and results must pickle. No more workers start than
    there are items, and one worker means everything runs in this process.
    """
    items = list(items)
    workers = min(parallel, len(items))
    if workers <= 1:
        for item in items:
            yield fn(item)
        return
    # imported here so serial runs never load multiprocessing (about 25 ms
    # and 1.3 MB of peak RSS per process)
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        yield from pool.map(fn, items)

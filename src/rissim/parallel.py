"""The process pool behind every runner's ``--parallel``."""

from __future__ import annotations


def parallel_map(fn, items, parallel: int = 1) -> list:
    """``[fn(item) for item in items]``, on up to ``parallel`` processes.

    An exception raised by ``fn`` reaches the caller with its own type, and
    jobs not yet started are then cancelled. With more than one worker,
    ``fn`` must be a module-level function and items, results and
    exceptions must pickle. No more workers start than there are items, and
    one worker means everything runs in this process.
    """
    items = list(items)
    workers = min(parallel, len(items))
    if workers <= 1:
        return [fn(item) for item in items]
    # imported here so serial runs never load multiprocessing (about 25 ms
    # and 1.3 MB of peak RSS per process)
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))

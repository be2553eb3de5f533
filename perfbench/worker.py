"""Runs one workload's runner calls in a process of their own and prints a JSON
report of them as its last line of output.

run.py starts it with `src/` on PYTHONPATH, so that `peak_rss_mb` covers the
workload and nothing of the harness that starts it:

    python3 perfbench/worker.py --workload sweep --config CONFIG --workdir DIR \
        --seconds 40 --trace 0

One round is one untraced call, plus one traced call at `--parallel 1` with
`--trace 1`, because spans recorded in pool workers would be lost. Rounds
repeat while the next one fits in `--seconds`; there is always one.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy
from rissim import cli

import tracing
from workloads import WORKLOADS, CheckFailed


def _cpu_s() -> float:
    """CPU time of this process and of its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def outputs_digest(out: Path) -> tuple[str, int]:
    """sha256 over every file under `out` (relative path and bytes, in path
    order) and the files' total size."""
    digest = hashlib.sha256()
    size = 0
    files = sorted(p for p in out.rglob("*") if p.is_file()) if out.is_dir() else []
    for path in files:
        data = path.read_bytes()
        size += len(data)
        digest.update(path.relative_to(out).as_posix().encode() + b"\0")
        digest.update(len(data).to_bytes(8, "little") + data)
    return digest.hexdigest(), size


def call_runner(workload, config: Path, out: Path, parallel: int, tracer=None) -> dict:
    """One `rissim.cli.main` call, timed, then checked; a runner that raises,
    exits non-zero or writes wrong files gives a record with an `error`."""
    shutil.rmtree(out, ignore_errors=True)
    argv = [workload.command, "--config", str(config), "--out", str(out), "--parallel", str(parallel)]
    chatter = io.StringIO()
    error = None
    trace = tracing.patched(tracer) if tracer is not None else contextlib.nullcontext()
    with contextlib.redirect_stdout(chatter), contextlib.redirect_stderr(chatter), trace:
        cpu = _cpu_s()
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except Exception:  # a crashing runner is a failed call, not a crashed benchmark
            code, error = None, traceback.format_exc(limit=-3)
        wall = time.perf_counter() - start
        cpu = _cpu_s() - cpu
    if error is None and code != 0:
        error = f"runner exited with {code}: {chatter.getvalue()[-400:]}"
    if error is None:
        try:
            workload.check(out)
        except CheckFailed as exc:
            error = f"output check failed: {exc}"
    digest, size = outputs_digest(out)
    record = {"wall_s": wall, "cpu_s": cpu, "error": error, "outputs_sha256": digest, "output_bytes": size}
    if tracer is not None:
        record["layers"] = tracer.metrics()
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--config", required=True, type=Path)
    parser.add_argument("--workdir", required=True, type=Path)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--parallel", type=int, help="override the workload's --parallel")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    parallel = args.parallel or workload.parallel
    out = args.workdir / "out"
    untraced, traced, rounds = [], [], []
    deadline = time.perf_counter() + args.seconds
    while not rounds or time.perf_counter() + statistics.median(rounds) <= deadline:
        start = time.perf_counter()
        untraced.append(call_runner(workload, args.config, out, parallel))
        if args.trace:
            traced.append(call_runner(workload, args.config, out, 1, tracing.Tracer()))
        rounds.append(time.perf_counter() - start)
    shutil.rmtree(out, ignore_errors=True)

    rss_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    report = {
        "untraced": untraced,
        "traced": traced,
        "peak_rss_kb": rss_kb,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())

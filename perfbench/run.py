"""rissim benchmark: times the CLI runners end to end and, traced, layer by layer.

    python3 perfbench/run.py --workload sweep [--seed 7] [--seconds 40] [--trace 0]

Workloads are listed in perfbench/workloads.py and explained in
perfbench/README.md. The load is a closed loop with one client: one runner
call at a time, in a worker process of its own (perfbench/worker.py).

`--trace 0` reports the end-to-end metrics: `wall_s` (median over the run's
runner calls), `setup_s` (median over fresh interpreters that import rissim
and load the workload's config) and `peak_rss_mb`. `--trace 1` reports the
per-layer metrics of perfbench/tracing.py, the output size, the untraced
calls' CPU use and the tracing overhead. Either way the last line of output
is one JSON object: {"correct", "attempted", "failed", "metrics"}. Lines
before it name every metric with its unit, `failed_fraction`, the
`outputs_sha256` digest of the runner's files and the environment.

Everything the run writes goes under `.perfbench_work/` in the checkout and is
removed at the end. The run needs the rissim sources under `src/`.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import tracing
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEFAULT_SECONDS = 40
SETUP_REPEATS = 9
RUN_LIMIT_S = 170  # a run must end within 180 s

SETUP_SCRIPT = "import sys, rissim; from rissim.experiments import load_config; load_config(sys.argv[1])"

# per-layer metrics that must repeat exactly between traced calls
EXACT = tuple(f"{name}.{word}" for name, word in tracing.COUNTED.items()) + (
    "channel.adc.clipped_calls",
    "optimizer.greedy.improve_ratio",
    "experiments.output_bytes",
)


def layer_units() -> dict[str, str]:
    """Unit of every per-layer metric, in report order."""
    units = {f"{name}.self_s": "s" for name in tracing.SELF_TIMED}
    units.update({f"{name}.{word}": "count" for name, word in tracing.COUNTED.items()})
    units.update(
        {
            "channel.tone_meter.us_per_call": "us",
            "channel.adc.clipped_calls": "count",
            "optimizer.greedy.improve_ratio": "ratio",
            "experiments.output_bytes": "bytes",
            "experiments.cpu_s": "s",
            "experiments.cpu_over_wall": "ratio",
            "tracing_overhead_s": "s",
        }
    )
    return units


def child_env(workdir: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env["TMPDIR"] = str(workdir)  # keep every temporary file inside the checkout
    return env


def time_setup(config: Path, env: dict) -> float:
    """Wall time of a fresh interpreter that imports rissim and loads `config`."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", SETUP_SCRIPT, str(config)], env=env, check=True, timeout=60)
    return time.perf_counter() - start


def run_worker(workload: str, seed: int, seconds: float, trace: int, parallel: int | None = None) -> dict:
    """Write the workload's config and run worker.py on it; its report, plus
    the set-up times when untraced."""
    work_root = ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=work_root))
    started = time.perf_counter()
    try:
        config = workdir / "config.json"
        config.write_text(json.dumps(WORKLOADS[workload].config(seed)))
        env = child_env(workdir)
        setup = [] if trace else [time_setup(config, env) for _ in range(SETUP_REPEATS)]
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--config", str(config)]
        cmd += ["--workdir", str(workdir), "--seconds", str(seconds), "--trace", str(trace)]
        if parallel is not None:
            cmd += ["--parallel", str(parallel)]
        budget = RUN_LIMIT_S - (time.perf_counter() - started)
        done = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True, check=True, timeout=budget)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            work_root.rmdir()
    report = json.loads(done.stdout.splitlines()[-1])
    report["setup_s"] = setup
    return report


def git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            env=env,
            capture_output=True,
            text=True,
            timeout=30,
        )
    except OSError:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def summarize(report: dict, trace: int) -> tuple[dict, list[str]]:
    """Metrics of one run as {name: (value, unit)}, and what makes it incorrect."""
    untraced, traced = report["untraced"], report["traced"]
    calls = untraced + traced
    problems = [f"call {i}: {c['error']}" for i, c in enumerate(calls) if c["error"]]
    if len({c["outputs_sha256"] for c in calls}) != 1:
        problems.append("runner calls wrote different files")
    wall = statistics.median(c["wall_s"] for c in untraced)
    if not trace:
        return {
            "wall_s": (wall, "s"),
            "setup_s": (statistics.median(report["setup_s"]), "s"),
            "peak_rss_mb": (report["peak_rss_kb"] / 1024.0, "MB"),
        }, problems

    layers = [dict(c["layers"], **{"experiments.output_bytes": c["output_bytes"]}) for c in traced]
    for name in EXACT:
        if len({layer[name] for layer in layers}) != 1:
            problems.append(f"{name} differs between traced calls")
    derived = {
        "experiments.cpu_s": statistics.median(c["cpu_s"] for c in untraced),
        "experiments.cpu_over_wall": statistics.median(c["cpu_s"] / c["wall_s"] for c in untraced),
        "tracing_overhead_s": statistics.median(c["wall_s"] for c in traced) - wall,
    }
    metrics = {}
    for name, unit in layer_units().items():
        if name in derived:
            value = derived[name]
        elif name in EXACT:
            value = layers[0][name]
        else:
            value = statistics.median(layer[name] for layer in layers)
        metrics[name] = (value, unit)
    return metrics, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=7, help="workload seed (default 7, the config default)")
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS, help="measuring time of one run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer metrics")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "rissim" / "__init__.py").is_file():
        print(f"error: no rissim sources in {ROOT / 'src'}", file=sys.stderr)
        return 2

    report = run_worker(args.workload, args.seed, args.seconds, args.trace)
    metrics, problems = summarize(report, args.trace)
    calls = report["untraced"] + report["traced"]
    failed = sum(1 for c in calls if c["error"])
    environment = {
        "workload": args.workload,
        "seed": args.seed,
        "cpu_count": os.cpu_count(),
        "python": report["python"],
        "numpy": report["numpy"],
        "git_commit": git_commit(),
    }

    print(f"environment: {json.dumps(environment)}")
    print(f"outputs_sha256: {calls[0]['outputs_sha256']}")
    print(f"runner calls: {len(report['untraced'])} untraced, {len(report['traced'])} traced")
    for name, (value, unit) in metrics.items():
        print(f"  {name:36s} {value:.6g} {unit}")
    print(f"  {'failed_fraction':36s} {failed / len(calls):.6g} fraction")
    for problem in problems:
        print(f"problem: {problem}")
    result = {
        "correct": not problems,
        "attempted": len(calls),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

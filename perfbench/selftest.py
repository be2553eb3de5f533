"""Self-test of the benchmark.

    python3 perfbench/selftest.py [--seed 7]

Checks that
- `sweep` and `codebook-par2` write the same files (equal `outputs_sha256`)
  at `--parallel 1` and `--parallel 2`, as the README promises;
- every count metric repeats exactly between two traced runs of each workload;
- BENCHMARK.json names exactly the metrics that run.py reports.

Prints one line per finding and exits 1 if there is any. Takes about two
minutes on two cores.
"""

from __future__ import annotations

import argparse
import json
import sys

from run import EXACT, ROOT, layer_units, run_worker, summarize
from workloads import WORKLOADS


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=7)
    seed = parser.parse_args(argv).seed
    problems = []

    end_to_end = set()
    for workload, parallel in (("sweep", 2), ("codebook-par2", 1)):
        report = run_worker(workload, seed, 0, 0)
        other = run_worker(workload, seed, 0, 0, parallel=parallel)["untraced"][0]
        end_to_end |= {(name, unit) for name, (_, unit) in summarize(report, 0)[0].items()}
        mine = report["untraced"][0]
        for record in (mine, other):
            if record["error"]:
                problems.append(f"{workload}: {record['error']}")
        if mine["outputs_sha256"] != other["outputs_sha256"]:
            problems.append(f"{workload}: --parallel {parallel} writes other files")

    for workload in WORKLOADS:
        first, second = (summarize(run_worker(workload, seed, 0, 1), 1) for _ in range(2))
        problems += [f"{workload}: {p}" for p in first[1] + second[1]]
        for name in EXACT:
            if first[0][name] != second[0][name]:
                problems.append(f"{workload}: {name} {first[0][name]} then {second[0][name]}")

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    if {(m["name"], m["unit"]) for m in declared["end_to_end"]} != end_to_end:
        problems.append("BENCHMARK.json end_to_end differs from what run.py reports")
    if [(m["name"], m["unit"]) for m in declared["per_layer"]] != list(layer_units().items()):
        problems.append("BENCHMARK.json per_layer differs from what run.py reports")
    if sorted(w["name"] for w in declared["workloads"]) != sorted(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from perfbench/workloads.py")

    for problem in problems:
        print(f"FAIL {problem}")
    print("self-test", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

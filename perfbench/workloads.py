"""The benchmark's workloads: which CLI runner each one calls, its config, and
the check its output files must pass.

Every workload is one `rissim.cli.main([...])` call on a config written from
the workload seed. The checks read only the files the runner wrote.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# Raised from the default 20 so that one oracle call lasts about as long as
# one sweep call; each instance makes 256 exhaustive + 16 greedy gain calls.
ORACLE_INSTANCES = 600
SWEEP_POINTS = 13  # default sweep.points
GREEDY_MEASUREMENTS = 304  # 76 elements x 4 states
CODEWORDS = 6  # default codebook.reference_angles_deg
PATH_POINTS = 10  # default codebook.path
# The runner's own assertion and the test suite accept oracle gaps down to
# -1e-9 dB. Instances where greedy finds the optimum read about -9e-16 dB
# in a few percent of cases, because oracle_db and greedy_db go through
# math.log10 and np.log10 respectively; a strict ">= 0" would fail every run.
GAP_TOLERANCE_DB = 1e-9


class CheckFailed(ValueError):
    """The runner's output files do not hold what the workload expects."""


def strict_json(path: Path):
    """Parse a JSON file, rejecting NaN and Infinity."""

    def reject(token):
        raise CheckFailed(f"{path.name}: non-finite number {token}")

    return json.loads(path.read_text(), parse_constant=reject)


def csv_rows(path: Path) -> list[dict]:
    """Rows of a runner CSV, after its leading `# config_hash=...` line."""
    lines = path.read_text().splitlines()
    if not lines or not lines[0].startswith("# config_hash="):
        raise CheckFailed(f"{path.name}: missing the config_hash header")
    return list(csv.DictReader(lines[1:]))


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _check_sweep(out: Path) -> None:
    summary = strict_json(out / "summary.json")
    _expect(summary["errors"] == [], f"sweep recorded errors: {summary['errors']}")
    rows = csv_rows(out / "results.csv")
    _expect(len(rows) == SWEEP_POINTS, f"results.csv has {len(rows)} rows, want {SWEEP_POINTS}")
    counts = sorted({r["measurements"] for r in rows})
    _expect(counts == [str(GREEDY_MEASUREMENTS)], f"measurements per point {counts}")


def _check_codebook(out: Path) -> None:
    entries = strict_json(out / "codebook.json")["entries"]
    _expect(len(entries) == CODEWORDS, f"codebook.json has {len(entries)} codewords")
    rows = csv_rows(out / "path.csv")
    _expect(len(rows) == PATH_POINTS, f"path.csv has {len(rows)} rows, want {PATH_POINTS}")


def _check_oracle(out: Path) -> None:
    summary = strict_json(out / "summary.json")
    _expect(summary["instances"] == ORACLE_INSTANCES, f"{summary['instances']} instances")
    _expect(
        summary["min_gap_db"] >= -GAP_TOLERANCE_DB,
        f"min_gap_db {summary['min_gap_db']!r}: greedy beat the exhaustive optimum",
    )
    rows = csv_rows(out / "gaps.csv")
    _expect(len(rows) == ORACLE_INSTANCES, f"gaps.csv has {len(rows)} rows")


@dataclass(frozen=True)
class Workload:
    command: str  # CLI subcommand
    parallel: int  # --parallel of the untraced calls
    sections: dict  # config sections the workload sets besides the seed
    check_files: Callable[[Path], None]

    def config(self, seed: int) -> dict:
        return {"seed": seed, **self.sections}

    def check(self, out: Path) -> None:
        """Raise CheckFailed unless every JSON file is strict and the
        workload's own files hold what it expects."""
        try:
            _expect(out.is_dir(), "the runner wrote no output directory")
            for path in sorted(out.rglob("*.json")):
                strict_json(path)
            self.check_files(out)
        except (OSError, KeyError, TypeError, csv.Error, json.JSONDecodeError) as exc:
            raise CheckFailed(f"{type(exc).__name__}: {exc}") from exc


WORKLOADS = {
    "sweep": Workload("sweep", 1, {}, _check_sweep),
    "codebook-par2": Workload("codebook", 2, {}, _check_codebook),
    "oracle": Workload("oracle-check", 1, {"oracle": {"instances": ORACLE_INSTANCES}}, _check_oracle),
}

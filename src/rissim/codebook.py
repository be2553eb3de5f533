"""Offline codeword generation, nearest-reference lookup, and path replay."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from .geometry import check_spot, grid_point
from .parallel import parallel_map
from .ris import RisConfig, RisLayout, from_bit_array, to_bit_array

CODEBOOK_SCHEMA_VERSION = 2
SWITCH_TIME_MS = 1.0  # nominal controller latency per codeword swap


def _json(value, kind: type, what: str):
    """value if JSON wrote it as kind, as a float for a number (integers
    too); a boolean is neither an integer nor a number."""
    accepted = (int, float) if kind is float else kind
    if isinstance(value, bool) != (kind is bool) or not isinstance(value, accepted):
        raise ValueError(f"codebook {what} must be {kind.__name__}, got {type(value).__name__}")
    return float(value) if kind is float else value


@dataclass(frozen=True)
class CodebookEntry:
    angle_deg: float
    distance_cm: float
    config: RisConfig


@dataclass(frozen=True, eq=False)
class Codebook:
    """Codewords keyed by the reference point they were trained at.

    metadata is the training run's config_hash and seed, and its config's
    layout section, which a loading config must match.
    """

    entries: tuple[CodebookEntry, ...]
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(self.entries))
        if not self.entries:
            raise ValueError("a codebook needs at least one codeword")
        seen = set()
        for e in self.entries:
            key = check_spot(e.angle_deg, e.distance_cm)
            if key in seen:
                raise ValueError(f"duplicate reference point {key}")
            seen.add(key)
            if e.config.layout != self.layout:
                raise ValueError("codewords must share one layout")

    @property
    def layout(self) -> RisLayout:
        return self.entries[0].config.layout

    def to_json_dict(self) -> dict:
        return {
            "schema_version": CODEBOOK_SCHEMA_VERSION,
            "metadata": self.metadata,
            "entries": [
                {
                    "angle_deg": e.angle_deg,
                    "distance_cm": e.distance_cm,
                    "bits": to_bit_array(e.config),
                }
                for e in self.entries
            ],
        }

    @classmethod
    def from_json_dict(cls, data, config) -> "Codebook":
        """A codebook from parsed JSON, its bits decoded on config.layout;
        ValueError unless the file was built for that layout and each field
        has its JSON type."""
        if _json(data, dict, "root").get("schema_version") != CODEBOOK_SCHEMA_VERSION:
            raise ValueError(f"unsupported codebook schema: {data.get('schema_version')!r}")
        meta = _json(data.get("metadata", {}), dict, "metadata")
        layout = config.to_dict()["layout"]
        if meta.get("layout") != layout:
            raise ValueError("codebook was built for a different layout")
        meta = {
            "config_hash": _json(meta.get("config_hash"), str, "config_hash"),
            "seed": _json(meta.get("seed"), int, "seed"),
            "layout": layout,
        }
        entries = []
        for e in _json(data.get("entries", []), list, "entries"):
            e = _json(e, dict, "entry")
            bits = [_json(b, bool, "bit") for b in _json(e["bits"], list, "entry bits")]
            angle_deg = _json(e["angle_deg"], float, "entry angle_deg")
            distance_cm = _json(e["distance_cm"], float, "entry distance_cm")
            entries.append(CodebookEntry(angle_deg, distance_cm, from_bit_array(config.layout, bits)))
        return cls(entries, meta)

    def save(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_json_dict(), sort_keys=True, indent=2) + "\n")

    @classmethod
    def load(cls, path, config) -> "Codebook":
        """The codebook saved at path, for config's layout (see from_json_dict)."""
        return cls.from_json_dict(json.loads(Path(path).read_text()), config)


def _train_codeword(job) -> RisConfig:
    config, index, angle_deg, distance_cm = job
    meter = config.meter(config.channel_at(angle_deg, distance_cm), "codebook", index)
    codeword, _ = config.greedy(meter)
    return codeword


def generate_codebook(config, reference_points, parallel: int = 1) -> Codebook:
    """Train one codeword per reference point with the scenario config's
    greedy sweep.

    Each point gets its own channel realization and measurement noise
    stream, both keyed on the scenario seed, so regeneration is exact and
    the points can train on ``parallel`` worker processes.
    """
    points = [(float(a), float(d)) for a, d in reference_points]
    meta = {"config_hash": config.config_hash(), "seed": config.seed, "layout": config.to_dict()["layout"]}
    jobs = [(config, i, a, d) for i, (a, d) in enumerate(points)]
    codewords = parallel_map(_train_codeword, jobs, parallel)
    entries = tuple(CodebookEntry(a, d, c) for (a, d), c in zip(points, codewords))
    return Codebook(entries, meta)


def _planar_cm(angle_deg: float, distance_cm: float) -> tuple[float, float]:
    p = grid_point(angle_deg, distance_cm)
    return float(100.0 * p[0]), float(100.0 * p[1])


def lookup_nearest(book: Codebook, rx_angle_deg: float, rx_distance_cm: float) -> CodebookEntry:
    """Pick the codeword for a query point: smallest angular offset first,
    then planar distance, then the smaller reference angle."""
    qx, qy = _planar_cm(rx_angle_deg, rx_distance_cm)

    def key(e: CodebookEntry):
        ex, ey = _planar_cm(e.angle_deg, e.distance_cm)
        return (
            abs(e.angle_deg - rx_angle_deg),
            math.hypot(ex - qx, ey - qy),
            e.angle_deg,
        )

    return min(book.entries, key=key)


def _replay_point(job) -> dict:
    """The path.csv row of one path point: all-off and codeword powers on
    one meter, then online greedy on a fresh meter over the same channel."""
    config, index, angle_deg, distance_cm, entry = job
    chan = config.channel_at(angle_deg, distance_cm)
    meter = config.meter(chan, "path", index)
    p_off = meter(RisConfig.all_off(config.layout))
    p_codebook = meter(entry.config)
    _, trace = config.greedy(config.meter(chan, "path-online", index))
    x_cm, y_cm = _planar_cm(angle_deg, distance_cm)
    return {
        "x_cm": x_cm,
        "y_cm": y_cm,
        "angle_deg": angle_deg,
        "distance_cm": distance_cm,
        "p_off": p_off,
        "p_codebook": p_codebook,
        "p_online": trace.final_power,
        "codeword_angle": entry.angle_deg,
    }


def evaluate_path(book: Codebook, path, config, parallel: int = 1) -> tuple[list[dict], int]:
    """Walk the path; at each point measure all-off, codeword, and online
    greedy power on one shared channel realization. Points are independent,
    so they replay on ``parallel`` worker processes. Returns the path.csv
    rows and the number of codeword loads, the first one included."""
    points = [(float(a), float(d)) for a, d in path]
    entries = [lookup_nearest(book, a, d) for a, d in points]
    jobs = [(config, i, a, d, e) for i, ((a, d), e) in enumerate(zip(points, entries))]
    loads = [(e.angle_deg, e.distance_cm) for e in entries]
    switches = sum(prev != cur for prev, cur in zip([None] + loads, loads))
    return parallel_map(_replay_point, jobs, parallel), switches

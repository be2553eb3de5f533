"""Offline codeword generation, nearest-reference lookup, and path replay."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from .channel import ChannelModelParams, TonePowerMeter, ToneParams, synthesize_channels
from .geometry import Scene, check_spot, grid_point
from .optimizer import greedy_iterative
from .parallel import parallel_map
from .ris import GroupingScheme, RisConfig, RisLayout, from_bit_array, to_bit_array

CODEBOOK_SCHEMA_VERSION = 1
SWITCH_TIME_MS = 1.0  # nominal controller latency per codeword swap


@dataclass(frozen=True)
class CodebookEntry:
    angle_deg: float
    distance_cm: float
    config: RisConfig


@dataclass(frozen=True, eq=False)
class Codebook:
    """Codewords keyed by the reference point they were trained at."""

    entries: tuple[CodebookEntry, ...]
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(self.entries))
        seen = set()
        layout = None
        for e in self.entries:
            key = check_spot(e.angle_deg, e.distance_cm)
            if key in seen:
                raise ValueError(f"duplicate reference point {key}")
            seen.add(key)
            if layout is None:
                layout = e.config.layout
            elif e.config.layout != layout:
                raise ValueError("codewords must share one layout")

    @property
    def layout(self) -> RisLayout | None:
        return self.entries[0].config.layout if self.entries else None

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
    def from_json_dict(cls, data: dict) -> "Codebook":
        if data.get("schema_version") != CODEBOOK_SCHEMA_VERSION:
            raise ValueError(f"unsupported codebook schema: {data.get('schema_version')!r}")
        meta = data.get("metadata", {})
        lay = meta.get("layout")
        if lay is None:
            raise ValueError("codebook metadata is missing the layout")
        layout = RisLayout(
            nx=lay["nx"],
            ny=lay["ny"],
            spacing=lay["spacing"],
            disabled=frozenset(tuple(cell) for cell in lay["disabled"]),
            carrier_hz=lay["carrier_hz"],
        )
        entries = tuple(
            CodebookEntry(
                float(e["angle_deg"]),
                float(e["distance_cm"]),
                from_bit_array(layout, e["bits"]),
            )
            for e in data.get("entries", [])
        )
        return cls(entries, meta)

    def save(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_json_dict(), sort_keys=True, indent=2) + "\n")

    @classmethod
    def load(cls, path) -> "Codebook":
        return cls.from_json_dict(json.loads(Path(path).read_text()))


def _layout_meta(layout: RisLayout) -> dict:
    return {
        "nx": layout.nx,
        "ny": layout.ny,
        "spacing": layout.spacing,
        "disabled": sorted([list(cell) for cell in layout.disabled]),
        "carrier_hz": layout.carrier_hz,
    }


class CodebookGenerationError(RuntimeError):
    """Generation failed part-way; the completed codewords ride along."""

    def __init__(self, message: str, partial: Codebook):
        super().__init__(message)
        self.partial = partial


@dataclass(frozen=True)
class Campaign:
    """The settings of a greedy measurement campaign, shared by every
    receiver spot it visits; sent to pool workers."""

    scene: Scene
    layout: RisLayout
    channel_params: ChannelModelParams
    tone: ToneParams
    full_scale: float
    element_amplitude: float
    num_states: int
    grouping: GroupingScheme

    def channel(self, angle_deg: float, distance_cm: float):
        placed = self.scene.with_rx_at(angle_deg, distance_cm)
        return synthesize_channels(placed, self.layout, self.channel_params)

    def meter(self, chan, stream: str, *index) -> TonePowerMeter:
        """Tone meter whose noise is keyed (seed, stream, *index)."""
        return TonePowerMeter(
            chan,
            self.tone,
            full_scale=self.full_scale,
            amplitude=self.element_amplitude,
            noise_seed=(self.channel_params.seed, stream, *index),
        )

    def greedy(self, meter):
        return greedy_iterative(meter, self.layout, self.num_states, self.grouping)

    def measure_spot(self, angle_deg: float, distance_cm: float, stream: str, *index):
        """All-off baseline, then one greedy sweep, on one meter at one
        receiver spot; returns (baseline dBFS, trace)."""
        meter = self.meter(self.channel(angle_deg, distance_cm), stream, *index)
        baseline = meter(RisConfig.all_off(self.layout))
        _, trace = self.greedy(meter)
        return baseline, trace


def _train_codeword(job) -> RisConfig:
    campaign, index, angle_deg, distance_cm = job
    meter = campaign.meter(campaign.channel(angle_deg, distance_cm), "codebook", index)
    config, _ = campaign.greedy(meter)
    return config


def generate_codebook(campaign: Campaign, reference_points, parallel: int = 1) -> Codebook:
    """Train one codeword per reference point with the campaign's greedy
    sweep.

    Each point gets its own channel realization and measurement noise
    stream, both keyed on the scenario seed, so regeneration is exact and
    the points can train on ``parallel`` worker processes.
    """
    params = campaign.channel_params
    points = [(float(a), float(d)) for a, d in reference_points]
    k_db = params.rician_k_db
    meta = {
        "seed": params.seed,
        "layout": _layout_meta(campaign.layout),
        "channel": {
            "path_loss_exponent": params.path_loss_exponent,
            # strict JSON has no Infinity; "inf" is how configs spell it
            "rician_k_db": k_db if math.isfinite(k_db) else str(k_db),
            "noise_variance": params.noise_variance,
            "cross_pol_coupling": params.cross_pol_coupling,
        },
        "optimizer": {"num_states": campaign.num_states, "group_size": campaign.grouping.group_size},
        "full_scale": campaign.full_scale,
        "element_amplitude": campaign.element_amplitude,
    }
    jobs = [(campaign, i, a, d) for i, (a, d) in enumerate(points)]
    configs = parallel_map(_train_codeword, jobs, parallel)
    entries: list[CodebookEntry] = []
    try:
        for (angle_deg, distance_cm), config in zip(points, configs):
            entries.append(CodebookEntry(angle_deg, distance_cm, config))
    except Exception as exc:
        angle_deg, distance_cm = points[len(entries)]
        raise CodebookGenerationError(
            f"codeword for ({angle_deg}, {distance_cm}) failed",
            Codebook(tuple(entries), meta),
        ) from exc
    return Codebook(tuple(entries), meta)


def _planar_cm(angle_deg: float, distance_cm: float) -> tuple[float, float]:
    p = grid_point(angle_deg, distance_cm)
    return float(100.0 * p[0]), float(100.0 * p[1])


def lookup_nearest(book: Codebook, rx_angle_deg: float, rx_distance_cm: float) -> CodebookEntry:
    """Pick the codeword for a query point: smallest angular offset first,
    then planar distance, then the smaller reference angle."""
    if not book.entries:
        raise ValueError("codebook is empty")
    qx, qy = _planar_cm(rx_angle_deg, rx_distance_cm)

    def key(e: CodebookEntry):
        ex, ey = _planar_cm(e.angle_deg, e.distance_cm)
        return (
            abs(e.angle_deg - rx_angle_deg),
            math.hypot(ex - qx, ey - qy),
            e.angle_deg,
        )

    return min(book.entries, key=key)


@dataclass(frozen=True)
class PathPointRecord:
    angle_deg: float
    distance_cm: float
    x_cm: float
    y_cm: float
    p_off_dbfs: float
    p_codebook_dbfs: float
    p_online_dbfs: float
    codeword_angle_deg: float
    codeword_distance_cm: float


@dataclass(frozen=True, eq=False)
class PathEvaluation:
    """Replay of a receiver path under three strategies per point: all-off,
    the looked-up codeword, and a fresh online greedy run on the same
    channel realization."""

    records: tuple[PathPointRecord, ...]
    switch_count: int

    @property
    def reconfiguration_time_ms(self) -> float:
        return self.switch_count * SWITCH_TIME_MS

    def csv_rows(self):
        for r in self.records:
            yield {
                "x_cm": r.x_cm,
                "y_cm": r.y_cm,
                "angle_deg": r.angle_deg,
                "distance_cm": r.distance_cm,
                "p_off": r.p_off_dbfs,
                "p_codebook": r.p_codebook_dbfs,
                "p_online": r.p_online_dbfs,
                "codeword_angle": r.codeword_angle_deg,
            }


class PathEvaluationError(RuntimeError):
    """Path replay failed part-way; completed point records ride along."""

    def __init__(self, message: str, partial):
        super().__init__(message)
        self.partial_records = tuple(partial)


def _replay_point(job) -> tuple[float, float, float]:
    campaign, index, angle_deg, distance_cm, codeword = job
    chan = campaign.channel(angle_deg, distance_cm)
    meter = campaign.meter(chan, "path", index)
    p_off = meter(RisConfig.all_off(campaign.layout))
    p_codebook = meter(codeword)
    _, trace = campaign.greedy(campaign.meter(chan, "path-online", index))
    return p_off, p_codebook, trace.final_power


def evaluate_path(book: Codebook, path, campaign: Campaign, parallel: int = 1) -> PathEvaluation:
    """Walk the path; at each point measure all-off, codeword, and online
    greedy power on one shared channel realization. Points are independent,
    so they replay on ``parallel`` worker processes."""
    if not book.entries:
        raise ValueError("codebook is empty")
    points = [(float(a), float(d)) for a, d in path]
    entries = [lookup_nearest(book, a, d) for a, d in points]
    jobs = [(campaign, i, a, d, e.config) for i, ((a, d), e) in enumerate(zip(points, entries))]
    replays = parallel_map(_replay_point, jobs, parallel)
    records: list[PathPointRecord] = []
    try:
        for (a, d), entry, powers in zip(points, entries, replays):
            records.append(
                PathPointRecord(
                    a, d, *_planar_cm(a, d), *powers, entry.angle_deg, entry.distance_cm
                )
            )
    except Exception as exc:
        raise PathEvaluationError(f"path point {len(records)} failed", records) from exc
    loads = [(r.codeword_angle_deg, r.codeword_distance_cm) for r in records]
    switches = sum(prev != cur for prev, cur in zip([None] + loads, loads))
    return PathEvaluation(tuple(records), switches)

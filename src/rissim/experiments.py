"""Scenario configuration and the experiment runners behind the CLI.

Every runner is a pure function of its config: channel draws are keyed on
the master seed plus structural indices, output files embed the config hash
and seed in a leading comment, and nothing reads the clock, so reruns are
byte-identical.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

from .channel import (
    ChannelModelParams,
    DEFAULT_FULL_SCALE,
    GainMeter,
    TonePowerMeter,
    ToneParams,
    derive_seed,
    synthesize_channels,
)
from .codebook import Codebook, evaluate_path, generate_codebook
from .geometry import (
    DEFAULT_GRID_ANGLES_DEG,
    DEFAULT_HALF_BEAMWIDTH_DEG,
    DEFAULT_TX_ANGLE_DEG,
    DEFAULT_TX_DISTANCE_CM,
    MeasurementGrid,
    Scene,
    make_scene,
)
from .optimizer import PowerTrace, TraceEntry, exhaustive_search, greedy_gap, greedy_iterative
from .parallel import parallel_map
from .ris import (
    DEFAULT_ELEMENT_AMPLITUDE,
    GROUP_SIZES,
    RisConfig,
    RisLayout,
    controller_corner,
    make_grouping,
)

CONFIG_SCHEMA_VERSION = 1

# Thirteen bench points spread over the grid: three ranges per main angle
# plus one broadside reference spot.
DEFAULT_SWEEP_POINTS = (
    (50.0, 120.0),
    (50.0, 220.0),
    (50.0, 320.0),
    (70.0, 120.0),
    (70.0, 220.0),
    (70.0, 320.0),
    (90.0, 170.0),
    (110.0, 120.0),
    (110.0, 220.0),
    (110.0, 320.0),
    (130.0, 120.0),
    (130.0, 220.0),
    (130.0, 320.0),
)

# Walking path through grid-interior coordinates, out and back at two
# ranges. The bench codebook covers one reference ring, so the path stays
# a few degrees off the reference angles the way a covered walk would.
DEFAULT_PATH = (
    (52.0, 150.0),
    (68.0, 150.0),
    (88.0, 150.0),
    (108.0, 150.0),
    (128.0, 150.0),
    (132.0, 190.0),
    (112.0, 190.0),
    (92.0, 190.0),
    (72.0, 190.0),
    (54.0, 190.0),
)

DEFAULT_CODEBOOK_DISTANCE_CM = 170.0
DEFAULT_GROUPING_ANGLES_DEG = (70.0, 90.0, 130.0, 145.0)
DEFAULT_GROUPING_DISTANCE_CM = 170.0


class ConfigError(ValueError):
    """Bad scenario input (file, JSON, or field values)."""


class ExperimentAssertionError(RuntimeError):
    """An experiment-level sanity assertion failed."""


@dataclass(frozen=True)
class ScenarioConfig:
    seed: int = 7
    layout: RisLayout = RisLayout.default()
    tx_angle_deg: float = DEFAULT_TX_ANGLE_DEG
    tx_distance_cm: float = DEFAULT_TX_DISTANCE_CM
    half_beamwidth_deg: float = DEFAULT_HALF_BEAMWIDTH_DEG
    polarization: float = 0.5
    grid: MeasurementGrid = MeasurementGrid()
    channel: ChannelModelParams = ChannelModelParams()
    tone: ToneParams = ToneParams()
    full_scale: float = DEFAULT_FULL_SCALE
    element_amplitude: float = DEFAULT_ELEMENT_AMPLITUDE
    num_states: int = 4
    group_size: int = 1
    sweep_points: tuple = DEFAULT_SWEEP_POINTS
    codebook_angles_deg: tuple = DEFAULT_GRID_ANGLES_DEG
    codebook_distance_cm: float = DEFAULT_CODEBOOK_DISTANCE_CM
    path: tuple = DEFAULT_PATH
    grouping_sizes: tuple = GROUP_SIZES
    grouping_angles_deg: tuple = DEFAULT_GROUPING_ANGLES_DEG
    grouping_distance_cm: float = DEFAULT_GROUPING_DISTANCE_CM
    oracle_nx: int = 2
    oracle_ny: int = 2
    oracle_num_states: int = 4
    oracle_instances: int = 20
    oracle_cap: int = 2**20

    def __post_init__(self):
        # the channel draw is keyed on the master seed
        object.__setattr__(
            self, "channel", dataclasses.replace(self.channel, seed=int(self.seed))
        )
        if self.num_states not in (2, 3, 4) or self.oracle_num_states not in (2, 3, 4):
            raise ConfigError("num_states must be 2, 3, or 4")
        if self.group_size not in GROUP_SIZES:
            raise ConfigError(f"group_size must be one of {GROUP_SIZES}")
        if any(g not in GROUP_SIZES for g in self.grouping_sizes):
            raise ConfigError(f"grouping sizes must come from {GROUP_SIZES}")
        if self.oracle_instances < 1:
            raise ConfigError("oracle_instances must be positive")

    def with_seed(self, seed: int) -> "ScenarioConfig":
        return dataclasses.replace(self, seed=int(seed))

    def base_scene(self) -> Scene:
        return make_scene(
            tx_angle_deg=self.tx_angle_deg,
            tx_distance_cm=self.tx_distance_cm,
            half_beamwidth_deg=self.half_beamwidth_deg,
            polarization=self.polarization,
            grid=self.grid,
        )

    def to_dict(self) -> dict:
        return {
            "version": CONFIG_SCHEMA_VERSION,
            "seed": self.seed,
            "layout": {
                "nx": self.layout.nx,
                "ny": self.layout.ny,
                "spacing_m": self.layout.spacing,
                "disabled": sorted([list(c) for c in self.layout.disabled]),
                "carrier_hz": self.layout.carrier_hz,
            },
            "scene": {
                "tx_angle_deg": self.tx_angle_deg,
                "tx_distance_cm": self.tx_distance_cm,
                "half_beamwidth_deg": self.half_beamwidth_deg,
                "polarization": self.polarization,
                "grid_angles_deg": list(self.grid.angles_deg),
                "grid_distances_cm": list(self.grid.distances_cm),
            },
            "channel": {
                "path_loss_exponent": self.channel.path_loss_exponent,
                "rician_k_db": self.channel.rician_k_db,
                "noise_variance": self.channel.noise_variance,
                "cross_pol_coupling": self.channel.cross_pol_coupling,
            },
            "tone": {
                "tone_hz": self.tone.tone_hz,
                "sample_rate_hz": self.tone.sample_rate_hz,
                "buffer_len": self.tone.buffer_len,
                "tx_amplitude": self.tone.tx_amplitude,
            },
            "receiver": {"full_scale": self.full_scale},
            "ris": {"element_amplitude": self.element_amplitude},
            "optimizer": {"num_states": self.num_states, "group_size": self.group_size},
            "sweep": {"points": [list(p) for p in self.sweep_points]},
            "codebook": {
                "reference_angles_deg": list(self.codebook_angles_deg),
                "reference_distance_cm": self.codebook_distance_cm,
                "path": [list(p) for p in self.path],
            },
            "grouping": {
                "group_sizes": list(self.grouping_sizes),
                "angles_deg": list(self.grouping_angles_deg),
                "distance_cm": self.grouping_distance_cm,
            },
            "oracle": {
                "nx": self.oracle_nx,
                "ny": self.oracle_ny,
                "num_states": self.oracle_num_states,
                "instances": self.oracle_instances,
                "cap": self.oracle_cap,
            },
        }

    def config_hash(self) -> str:
        blob = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def _require_keys(section: dict, allowed, where: str) -> None:
    unknown = set(section) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")


def _section(data: dict, name: str, schema: dict) -> dict:
    """data[name] as a dict, checked against the keys to_dict writes there."""
    section = dict(data.get(name, {}))
    _require_keys(section, schema[name], name)
    return section


def config_from_dict(data: dict) -> ScenarioConfig:
    """Build a config from parsed JSON; unknown keys are rejected, missing
    ones fall back to the defaults, and "rician_k_db": "inf" is accepted."""
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    defaults = ScenarioConfig()
    # to_dict writes every accepted key, so it is the schema
    schema = defaults.to_dict()
    _require_keys(data, schema, "config")
    if data.get("version", CONFIG_SCHEMA_VERSION) != CONFIG_SCHEMA_VERSION:
        raise ConfigError(f"unsupported config version {data.get('version')!r}")
    try:
        kw: dict = {"seed": int(data.get("seed", defaults.seed))}

        lay = _section(data, "layout", schema)
        nx = int(lay.get("nx", 10))
        ny = int(lay.get("ny", 8))
        disabled = lay.get("disabled", "controller-corner")
        if disabled == "controller-corner":
            disabled = controller_corner(nx, ny)
        else:
            disabled = frozenset((int(r), int(c)) for r, c in disabled)
        kw["layout"] = RisLayout(
            nx=nx,
            ny=ny,
            spacing=lay.get("spacing_m"),
            disabled=disabled,
            carrier_hz=float(lay.get("carrier_hz", defaults.layout.carrier_hz)),
        )

        sc = _section(data, "scene", schema)
        kw["tx_angle_deg"] = float(sc.get("tx_angle_deg", defaults.tx_angle_deg))
        kw["tx_distance_cm"] = float(sc.get("tx_distance_cm", defaults.tx_distance_cm))
        kw["half_beamwidth_deg"] = float(sc.get("half_beamwidth_deg", defaults.half_beamwidth_deg))
        kw["polarization"] = float(sc.get("polarization", defaults.polarization))
        kw["grid"] = MeasurementGrid(
            tuple(sc.get("grid_angles_deg", defaults.grid.angles_deg)),
            tuple(sc.get("grid_distances_cm", defaults.grid.distances_cm)),
        )

        ch = _section(data, "channel", schema)
        k_db = ch.get("rician_k_db", defaults.channel.rician_k_db)
        if isinstance(k_db, str):
            k_db = float(k_db)
        noise = ch.get("noise_variance")
        kw["channel"] = ChannelModelParams(
            path_loss_exponent=float(ch.get("path_loss_exponent", defaults.channel.path_loss_exponent)),
            rician_k_db=float(k_db),
            noise_variance=defaults.channel.noise_variance if noise is None else float(noise),
            cross_pol_coupling=float(ch.get("cross_pol_coupling", 0.0)),
        )

        tn = _section(data, "tone", schema)
        kw["tone"] = ToneParams(
            tone_hz=float(tn.get("tone_hz", defaults.tone.tone_hz)),
            sample_rate_hz=float(tn.get("sample_rate_hz", defaults.tone.sample_rate_hz)),
            buffer_len=int(tn.get("buffer_len", defaults.tone.buffer_len)),
            tx_amplitude=float(tn.get("tx_amplitude", defaults.tone.tx_amplitude)),
        )

        rc = _section(data, "receiver", schema)
        fs = rc.get("full_scale")
        kw["full_scale"] = defaults.full_scale if fs is None else float(fs)

        ris = _section(data, "ris", schema)
        kw["element_amplitude"] = float(ris.get("element_amplitude", defaults.element_amplitude))

        op = _section(data, "optimizer", schema)
        kw["num_states"] = int(op.get("num_states", defaults.num_states))
        kw["group_size"] = int(op.get("group_size", defaults.group_size))

        sw = _section(data, "sweep", schema)
        pts = sw.get("points")
        if pts is not None:
            kw["sweep_points"] = tuple((float(a), float(d)) for a, d in pts)

        cb = _section(data, "codebook", schema)
        kw["codebook_angles_deg"] = tuple(
            float(a) for a in cb.get("reference_angles_deg", defaults.codebook_angles_deg)
        )
        kw["codebook_distance_cm"] = float(
            cb.get("reference_distance_cm", defaults.codebook_distance_cm)
        )
        path = cb.get("path")
        if path is not None:
            kw["path"] = tuple((float(a), float(d)) for a, d in path)

        gp = _section(data, "grouping", schema)
        kw["grouping_sizes"] = tuple(int(g) for g in gp.get("group_sizes", defaults.grouping_sizes))
        kw["grouping_angles_deg"] = tuple(
            float(a) for a in gp.get("angles_deg", defaults.grouping_angles_deg)
        )
        kw["grouping_distance_cm"] = float(gp.get("distance_cm", defaults.grouping_distance_cm))

        orc = _section(data, "oracle", schema)
        kw["oracle_nx"] = int(orc.get("nx", defaults.oracle_nx))
        kw["oracle_ny"] = int(orc.get("ny", defaults.oracle_ny))
        kw["oracle_num_states"] = int(orc.get("num_states", defaults.oracle_num_states))
        kw["oracle_instances"] = int(orc.get("instances", defaults.oracle_instances))
        kw["oracle_cap"] = int(orc.get("cap", defaults.oracle_cap))

        return ScenarioConfig(**kw)
    except ConfigError:
        raise
    except (TypeError, ValueError, KeyError) as exc:
        raise ConfigError(str(exc)) from exc


def load_config(path) -> ScenarioConfig:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return config_from_dict(data)


# ---------------------------------------------------------------------------
# output helpers


def _header_line(config: ScenarioConfig) -> str:
    return f"# config_hash={config.config_hash()} seed={config.seed}"


def _write_csv(path: Path, config: ScenarioConfig, fieldnames, rows) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as f:
        f.write(_header_line(config) + "\n")
        writer = csv.DictWriter(f, fieldnames=fieldnames)
        writer.writeheader()
        for row in rows:
            writer.writerow({k: _fmt(row[k]) for k in fieldnames})


def _fmt(value):
    if isinstance(value, float):
        return repr(float(value))  # full precision; plain even for numpy scalars
    return value


def _write_json(path: Path, config: ScenarioConfig, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    body = {"config_hash": config.config_hash(), "seed": config.seed, **payload}
    path.write_text(json.dumps(body, sort_keys=True, indent=2) + "\n")


def _trace_rows(baseline: float | None, trace: PowerTrace):
    if baseline is not None:
        yield TraceEntry(0, -1, 0, baseline, baseline)._asdict()
    yield from trace.csv_rows()


_TRACE_FIELDS = ["measurement_index", "group_index", "candidate_state", "p_r_dbfs", "p_max_dbfs"]


def _slug(angle_deg: float, distance_cm: float) -> str:
    def num(x):
        return f"{x:g}".replace(".", "p").replace("-", "m")

    return f"a{num(angle_deg)}_d{num(distance_cm)}"


# ---------------------------------------------------------------------------
# sweep


@dataclass(frozen=True)
class PointResult:
    angle_deg: float
    distance_cm: float
    p_baseline_dbfs: float
    p_final_dbfs: float
    gain_db: float
    measurements: int
    trace: PowerTrace


def sweep_point(config: ScenarioConfig, angle_deg: float, distance_cm: float, point_index: int = 0) -> PointResult:
    """Baseline measurement plus one greedy sweep at a single Rx spot."""
    scene = config.base_scene().with_rx_at(float(angle_deg), float(distance_cm))
    chan = synthesize_channels(scene, config.layout, config.channel)
    meter = TonePowerMeter(
        chan,
        config.tone,
        full_scale=config.full_scale,
        amplitude=config.element_amplitude,
        noise_seed=(config.seed, "sweep", point_index),
    )
    baseline = meter(RisConfig.all_off(config.layout))
    grouping = make_grouping(config.layout, config.group_size)
    _, trace = greedy_iterative(meter, config.layout, config.num_states, grouping)
    final = trace.final_power
    return PointResult(
        float(angle_deg),
        float(distance_cm),
        baseline,
        final,
        final - baseline,
        trace.measurement_count,
        trace,
    )


def _sweep_job(args):
    config, index, angle_deg, distance_cm = args
    return sweep_point(config, angle_deg, distance_cm, index)


def run_sweep(config: ScenarioConfig, out_dir, parallel: int = 1) -> dict:
    """Greedy sweep over every configured point; per-point traces, a results
    table, and a JSON summary with per-angle median gains."""
    out = Path(out_dir)
    jobs = []
    errors = []
    for i, point in enumerate(config.sweep_points):
        try:
            angle_deg, distance_cm = (float(point[0]), float(point[1]))
            if not 0.0 < angle_deg < 180.0 or distance_cm <= 0:
                raise ConfigError(f"point ({angle_deg}, {distance_cm}) is outside the scene")
            jobs.append((config, i, angle_deg, distance_cm))
        except (ConfigError, TypeError, ValueError, IndexError) as exc:
            errors.append({"point": list(point), "error": str(exc)})

    results: list[PointResult] = list(parallel_map(_sweep_job, jobs, parallel))

    rows = [
        {
            "angle_deg": r.angle_deg,
            "distance_cm": r.distance_cm,
            "p_baseline_dbfs": r.p_baseline_dbfs,
            "p_final_dbfs": r.p_final_dbfs,
            "gain_db": r.gain_db,
            "measurements": r.measurements,
        }
        for r in results
    ]
    _write_csv(
        out / "results.csv",
        config,
        ["angle_deg", "distance_cm", "p_baseline_dbfs", "p_final_dbfs", "gain_db", "measurements"],
        rows,
    )
    for r in results:
        _write_csv(
            out / "traces" / f"sweep_{_slug(r.angle_deg, r.distance_cm)}.csv",
            config,
            _TRACE_FIELDS,
            _trace_rows(r.p_baseline_dbfs, r.trace),
        )

    by_angle: dict[float, list[float]] = {}
    for r in results:
        by_angle.setdefault(r.angle_deg, []).append(r.gain_db)
    summary = {
        "points": len(results),
        "median_gain_db_by_angle": {f"{a:g}": _median(v) for a, v in sorted(by_angle.items())},
        "errors": errors,
    }
    _write_json(out / "summary.json", config, summary)
    return summary


def _median(values) -> float:
    vals = sorted(values)
    n = len(vals)
    if n == 0:
        raise ValueError("median of empty list")
    mid = n // 2
    return float(vals[mid]) if n % 2 else float((vals[mid - 1] + vals[mid]) / 2.0)


# ---------------------------------------------------------------------------
# grouping


def _grouping_job(args):
    config, angle_index, angle_deg, size = args
    scene = config.base_scene().with_rx_at(angle_deg, config.grouping_distance_cm)
    chan = synthesize_channels(scene, config.layout, config.channel)
    meter = TonePowerMeter(
        chan,
        config.tone,
        full_scale=config.full_scale,
        amplitude=config.element_amplitude,
        noise_seed=(config.seed, "grouping", angle_index, size),
    )
    baseline = meter(RisConfig.all_off(config.layout))
    grouping = make_grouping(config.layout, size)
    _, trace = greedy_iterative(meter, config.layout, config.num_states, grouping)
    return angle_deg, size, baseline, trace


def run_grouping_experiment(config: ScenarioConfig, out_dir, parallel: int = 1) -> dict:
    """Repeat the greedy sweep under each grouping size at each configured
    angle, on one shared channel realization per angle."""
    out = Path(out_dir)
    jobs = [
        (config, ai, angle, size)
        for ai, angle in enumerate(config.grouping_angles_deg)
        for size in config.grouping_sizes
    ]
    results = parallel_map(_grouping_job, jobs, parallel)

    per_angle: dict[float, dict[int, dict]] = {}
    for angle_deg, size, baseline, trace in results:
        _write_csv(
            out / "traces" / f"grouping_{_slug(angle_deg, config.grouping_distance_cm)}_g{size}.csv",
            config,
            _TRACE_FIELDS,
            _trace_rows(baseline, trace),
        )
        per_angle.setdefault(angle_deg, {})[size] = {
            "p_baseline_dbfs": baseline,
            "p_final_dbfs": trace.final_power,
            "gain_db": trace.final_power - baseline,
            "measurements": trace.measurement_count,
        }

    rows = []
    summary_angles = {}
    for angle_deg, by_size in sorted(per_angle.items()):
        ref = by_size.get(1)
        angle_summary = {}
        for size, rec in sorted(by_size.items()):
            # no size-1 run to compare with: null in JSON, an empty CSV field
            delta = rec["gain_db"] - ref["gain_db"] if ref else None
            ratio = rec["measurements"] / by_size[min(by_size)]["measurements"]
            rows.append(
                {
                    "angle_deg": angle_deg,
                    "group_size": size,
                    "p_baseline_dbfs": rec["p_baseline_dbfs"],
                    "p_final_dbfs": rec["p_final_dbfs"],
                    "gain_db": rec["gain_db"],
                    "measurements": rec["measurements"],
                    "gain_delta_vs_size1_db": delta,
                }
            )
            angle_summary[str(size)] = {
                "gain_db": rec["gain_db"],
                "gain_delta_vs_size1_db": delta,
                "measurements": rec["measurements"],
                "measurement_ratio": ratio,
            }
        summary_angles[f"{angle_deg:g}"] = angle_summary

    _write_csv(
        out / "grouping.csv",
        config,
        [
            "angle_deg",
            "group_size",
            "p_baseline_dbfs",
            "p_final_dbfs",
            "gain_db",
            "measurements",
            "gain_delta_vs_size1_db",
        ],
        rows,
    )
    summary = {"angles": summary_angles, "group_sizes": list(config.grouping_sizes)}
    _write_json(out / "summary.json", config, summary)
    return summary


# ---------------------------------------------------------------------------
# codebook


def run_codebook_experiment(
    config: ScenarioConfig, out_dir, parallel: int = 1, load_codebook=None
) -> dict:
    """Generate (or load) the reference codebook, then replay the configured
    path comparing all-off, codeword, and online greedy powers."""
    out = Path(out_dir)
    scene = config.base_scene()
    refs = [(a, config.codebook_distance_cm) for a in config.codebook_angles_deg]
    if load_codebook is not None:
        try:
            book = Codebook.load(load_codebook)
        except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot load codebook: {exc}") from exc
        if book.layout is not None and book.layout != config.layout:
            raise ConfigError("loaded codebook was built for a different layout")
    else:
        book = generate_codebook(
            scene,
            config.layout,
            refs,
            config.channel,
            tone=config.tone,
            full_scale=config.full_scale,
            element_amplitude=config.element_amplitude,
            num_states=config.num_states,
            group_size=config.group_size,
            parallel=parallel,
        )
    out.mkdir(parents=True, exist_ok=True)
    book.save(out / "codebook.json")

    evaluation = evaluate_path(
        book,
        config.path,
        scene,
        config.layout,
        config.channel,
        tone=config.tone,
        full_scale=config.full_scale,
        element_amplitude=config.element_amplitude,
        num_states=config.num_states,
        group_size=config.group_size,
        parallel=parallel,
    )
    _write_csv(
        out / "path.csv",
        config,
        ["x_cm", "y_cm", "angle_deg", "distance_cm", "p_off", "p_codebook", "p_online", "codeword_angle"],
        evaluation.csv_rows(),
    )
    diffs = [r.p_online_dbfs - r.p_codebook_dbfs for r in evaluation.records]
    beats = [r.p_codebook_dbfs > r.p_off_dbfs for r in evaluation.records]
    summary = {
        "codewords": len(book.entries),
        "path_points": len(evaluation.records),
        "median_online_minus_codebook_db": _median(diffs) if diffs else None,
        "codebook_beats_off_fraction": (sum(beats) / len(beats)) if beats else None,
        "switch_count": evaluation.switch_count,
        "reconfiguration_time_ms": evaluation.reconfiguration_time_ms,
        "loaded_from": str(load_codebook) if load_codebook else None,
    }
    _write_json(out / "summary.json", config, summary)
    return summary


# ---------------------------------------------------------------------------
# oracle check


def _oracle_layout(config: ScenarioConfig) -> RisLayout:
    """The small panel the oracle enumerates, checked against oracle.cap."""
    try:
        layout = RisLayout(
            config.oracle_nx, config.oracle_ny, config.layout.spacing, carrier_hz=config.layout.carrier_hz
        )
    except ValueError as exc:
        raise ConfigError(f"oracle layout: {exc}") from exc
    budget = config.oracle_num_states**layout.n_active
    if budget > config.oracle_cap:
        raise ConfigError(
            f"oracle enumeration needs {budget} measurements, above oracle.cap {config.oracle_cap}"
        )
    return layout


def _oracle_job(args):
    config, layout, scene, grouping, instance = args
    params = dataclasses.replace(
        config.channel,
        seed=derive_seed(config.seed, "oracle", instance),
        noise_variance=0.0,
    )
    chan = synthesize_channels(scene, layout, params)
    meter = GainMeter(chan, config.element_amplitude)
    best, _ = exhaustive_search(meter, layout, config.oracle_num_states, config.oracle_cap)
    oracle_measurements = meter.calls
    _, trace = greedy_iterative(meter, layout, config.oracle_num_states, grouping)
    oracle_db = 10.0 * math.log10(max(meter.power(best), 1e-300))
    greedy_db = trace.final_power
    return {
        "instance": instance,
        "oracle_db": oracle_db,
        "greedy_db": greedy_db,
        "gap_db": greedy_gap(oracle_db, greedy_db),
        "oracle_measurements": oracle_measurements,
        "greedy_measurements": meter.calls - oracle_measurements,
    }


def run_oracle_check(config: ScenarioConfig, out_dir, parallel: int = 1) -> dict:
    """Exhaustive-vs-greedy gap over seeded noiseless instances on a small
    layout. A negative gap fails the run."""
    out = Path(out_dir)
    layout = _oracle_layout(config)
    shared = (config, layout, config.base_scene(), make_grouping(layout, 1))
    jobs = [(*shared, i) for i in range(config.oracle_instances)]
    rows = list(parallel_map(_oracle_job, jobs, parallel))
    _write_csv(
        out / "gaps.csv",
        config,
        ["instance", "oracle_db", "greedy_db", "gap_db", "oracle_measurements", "greedy_measurements"],
        rows,
    )
    gaps = [r["gap_db"] for r in rows]
    summary = {
        "instances": len(rows),
        "elements": layout.n_active,
        "num_states": config.oracle_num_states,
        "min_gap_db": min(gaps),
        "median_gap_db": _median(gaps),
        "max_gap_db": max(gaps),
    }
    _write_json(out / "summary.json", config, summary)
    if any(g < -1e-9 for g in gaps):
        raise ExperimentAssertionError(
            f"greedy exceeded the exhaustive maximum (min gap {min(gaps):.3e} dB)"
        )
    return summary

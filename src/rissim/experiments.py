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
from dataclasses import dataclass
from operator import attrgetter
from pathlib import Path

from .channel import (
    ChannelModelParams,
    DEFAULT_FULL_SCALE,
    GainMeter,
    MeasurementFloorError,
    ToneParams,
    code_scale,
    derive_seed,
    synthesize_channels,
)
from .codebook import Campaign, Codebook, evaluate_path, generate_codebook
from .geometry import (
    DEFAULT_GRID_ANGLES_DEG,
    DEFAULT_HALF_BEAMWIDTH_DEG,
    DEFAULT_TX_ANGLE_DEG,
    DEFAULT_TX_DISTANCE_CM,
    Scene,
    check_spot,
    make_scene,
)
from .optimizer import ENUMERATION_CAP, PowerTrace, TraceEntry, exhaustive_search, greedy_iterative
from .parallel import parallel_map
from .ris import (
    DEFAULT_ELEMENT_AMPLITUDE,
    GROUP_SIZES,
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


def _distinct(values, what: str) -> None:
    if len(set(values)) != len(values):
        raise ConfigError(f"{what} must not repeat: {list(values)}")


@dataclass(frozen=True)
class ScenarioConfig:
    seed: int = 7
    layout: RisLayout = RisLayout.default()
    tx_angle_deg: float = DEFAULT_TX_ANGLE_DEG
    tx_distance_cm: float = DEFAULT_TX_DISTANCE_CM
    half_beamwidth_deg: float = DEFAULT_HALF_BEAMWIDTH_DEG
    polarization: float = 0.5
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
        if not 0.0 < self.element_amplitude <= 1.0:
            raise ConfigError("element_amplitude must be in (0, 1]")
        _distinct(self.grouping_sizes, "grouping sizes")
        _distinct(self.grouping_angles_deg, "grouping angles")
        if not self.codebook_angles_deg:
            raise ConfigError("codebook reference angles must not be empty")
        _distinct(self.codebook_angles_deg, "codebook reference angles")
        # sweep points are checked per point by run_sweep, which still
        # writes the good points' files
        spots = [(self.tx_angle_deg, self.tx_distance_cm)]
        spots += [(a, self.codebook_distance_cm) for a in self.codebook_angles_deg]
        spots += self.path
        spots += [(a, self.grouping_distance_cm) for a in self.grouping_angles_deg]
        try:
            for angle_deg, distance_cm in spots:
                check_spot(angle_deg, distance_cm)
            self.base_scene()  # the terminals check beamwidth and polarization
            code_scale(self.full_scale)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def with_seed(self, seed: int) -> "ScenarioConfig":
        return dataclasses.replace(self, seed=int(seed))

    def base_scene(self) -> Scene:
        return make_scene(
            tx_angle_deg=self.tx_angle_deg,
            tx_distance_cm=self.tx_distance_cm,
            half_beamwidth_deg=self.half_beamwidth_deg,
            polarization=self.polarization,
        )

    def campaign(self, group_size: int) -> Campaign:
        """The greedy measurement campaign this config runs at every
        receiver spot, with elements grouped by ``group_size``."""
        return Campaign(
            self.base_scene(),
            self.layout,
            self.channel,
            self.tone,
            self.full_scale,
            self.element_amplitude,
            self.num_states,
            make_grouping(self.layout, group_size),
        )

    def to_dict(self) -> dict:
        out: dict = {"version": CONFIG_SCHEMA_VERSION}
        for section, key, field, _, dump in _SCHEMA:
            target = out if section is None else out.setdefault(section, {})
            target[key] = dump(attrgetter(field)(self))
        return out

    def config_hash(self) -> str:
        blob = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


# ---------------------------------------------------------------------------
# config schema


def _same(value):
    return value


def _int(value) -> int:
    """An integer key: integral floats such as 4.0 pass, booleans and
    fractions do not."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ConfigError(f"expected an integer, got {value!r}")
    return int(value)


def _not_bool(value):
    """value itself, unless it is a boolean, which Python would read as 0 or 1."""
    if isinstance(value, bool):
        raise ConfigError(f"expected a number, got {value!r}")
    return value


def _float(value) -> float:
    """A float key: numbers and numeric strings such as "inf"; no booleans."""
    return float(_not_bool(value))


def _optional(parse):
    """parse, except that null keeps the default."""
    return lambda value: None if value is None else parse(value)


def _floats(values) -> tuple:
    return tuple(_float(v) for v in values)


def _ints(values) -> tuple:
    return tuple(_int(v) for v in values)


def _points(values) -> tuple:
    return tuple((_float(a), _float(d)) for a, d in values)


def _point_lists(points) -> list:
    return [list(p) for p in points]


_CONTROLLER_CORNER = "controller-corner"


def _cells(values):
    if values == _CONTROLLER_CORNER:
        return values
    return frozenset((_int(r), _int(c)) for r, c in values)


def _cell_lists(cells) -> list:
    return sorted([list(c) for c in cells])


def _layout(disabled=_CONTROLLER_CORNER, **fields) -> RisLayout:
    """RisLayout from its config fields. "controller-corner", also the
    default, disables the top-right 2x2 block of the final nx x ny grid."""
    if disabled == _CONTROLLER_CORNER:
        shape = RisLayout(**fields)
        disabled = controller_corner(shape.nx, shape.ny)
    return RisLayout(disabled=disabled, **fields)


# (section, key, ScenarioConfig field, parse, dump), one row per config key.
# section None is the top level; a dotted field names a field of a nested
# parameter object, built from its collected fields. A missing key, or a
# parse result of None (null where _optional allows it), keeps the default.
_SCHEMA = (
    (None, "seed", "seed", _int, _same),
    ("layout", "nx", "layout.nx", _int, _same),
    ("layout", "ny", "layout.ny", _int, _same),
    # passed as written, so an integer spacing keeps its config_hash;
    # RisLayout checks it, and null means lambda/2
    ("layout", "spacing_m", "layout.spacing", _not_bool, _same),
    ("layout", "disabled", "layout.disabled", _cells, _cell_lists),
    ("layout", "carrier_hz", "layout.carrier_hz", _float, _same),
    ("scene", "tx_angle_deg", "tx_angle_deg", _float, _same),
    ("scene", "tx_distance_cm", "tx_distance_cm", _float, _same),
    ("scene", "half_beamwidth_deg", "half_beamwidth_deg", _float, _same),
    ("scene", "polarization", "polarization", _float, _same),
    ("channel", "path_loss_exponent", "channel.path_loss_exponent", _float, _same),
    # _float also reads the string "inf"
    ("channel", "rician_k_db", "channel.rician_k_db", _float, _same),
    ("channel", "noise_variance", "channel.noise_variance", _optional(_float), _same),
    ("channel", "cross_pol_coupling", "channel.cross_pol_coupling", _float, _same),
    ("tone", "tone_hz", "tone.tone_hz", _float, _same),
    ("tone", "sample_rate_hz", "tone.sample_rate_hz", _float, _same),
    ("tone", "buffer_len", "tone.buffer_len", _int, _same),
    ("tone", "tx_amplitude", "tone.tx_amplitude", _float, _same),
    ("receiver", "full_scale", "full_scale", _optional(_float), _same),
    ("ris", "element_amplitude", "element_amplitude", _float, _same),
    ("optimizer", "num_states", "num_states", _int, _same),
    ("optimizer", "group_size", "group_size", _int, _same),
    ("sweep", "points", "sweep_points", _optional(_points), _point_lists),
    ("codebook", "reference_angles_deg", "codebook_angles_deg", _floats, list),
    ("codebook", "reference_distance_cm", "codebook_distance_cm", _float, _same),
    ("codebook", "path", "path", _optional(_points), _point_lists),
    ("grouping", "group_sizes", "grouping_sizes", _ints, list),
    ("grouping", "angles_deg", "grouping_angles_deg", _floats, list),
    ("grouping", "distance_cm", "grouping_distance_cm", _float, _same),
    ("oracle", "nx", "oracle_nx", _int, _same),
    ("oracle", "ny", "oracle_ny", _int, _same),
    ("oracle", "num_states", "oracle_num_states", _int, _same),
    ("oracle", "instances", "oracle_instances", _int, _same),
)


def _require_keys(section: dict, allowed, where: str) -> None:
    unknown = set(section) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")


def config_from_dict(data: dict) -> ScenarioConfig:
    """Build a config from parsed JSON through _SCHEMA; unknown keys are
    rejected and missing ones keep the ScenarioConfig defaults."""
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    keys: dict = {}
    for section, key, *_ in _SCHEMA:
        keys.setdefault(section, []).append(key)
    _require_keys(data, ["version", *(s or k for s, k, *_ in _SCHEMA)], "config")
    if data.get("version", CONFIG_SCHEMA_VERSION) != CONFIG_SCHEMA_VERSION:
        raise ConfigError(f"unsupported config version {data.get('version')!r}")
    try:
        sections = {None: data}
        kw: dict = {}
        nested: dict = {}
        for section, key, field, parse, _ in _SCHEMA:
            if section not in sections:
                sections[section] = dict(data.get(section, {}))
                _require_keys(sections[section], keys[section], section)
            head, _, attr = field.partition(".")
            fields = nested.setdefault(head, {}) if attr else kw
            if key in sections[section]:
                value = parse(sections[section][key])
                if value is not None:
                    fields[attr or field] = value
        for head, fields in nested.items():
            cls = type(getattr(ScenarioConfig, head))
            kw[head] = (_layout if cls is RisLayout else cls)(**fields)
        return ScenarioConfig(**kw)
    except ConfigError:
        raise
    except (TypeError, ValueError, KeyError, OverflowError) as exc:
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
    campaign = config.campaign(config.group_size)
    baseline, trace = campaign.measure_spot(float(angle_deg), float(distance_cm), "sweep", point_index)
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
            angle_deg, distance_cm = check_spot(point[0], point[1])
            jobs.append((config, i, angle_deg, distance_cm))
        except (TypeError, ValueError, IndexError) as exc:
            errors.append({"point": list(point), "error": str(exc)})

    results: list[PointResult] = parallel_map(_sweep_job, jobs, parallel)

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
    baseline, trace = config.campaign(size).measure_spot(
        angle_deg, config.grouping_distance_cm, "grouping", angle_index, size
    )
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
    campaign = config.campaign(config.group_size)
    if load_codebook is not None:
        try:
            book = Codebook.load(load_codebook)
        except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot load codebook: {exc}") from exc
        if book.layout != config.layout:
            raise ConfigError("loaded codebook was built for a different layout")
    else:
        refs = [(a, config.codebook_distance_cm) for a in config.codebook_angles_deg]
        book = generate_codebook(campaign, refs, parallel)
    evaluation = evaluate_path(book, config.path, campaign, parallel)
    out.mkdir(parents=True, exist_ok=True)
    book.save(out / "codebook.json")
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
    """The small panel the oracle enumerates, checked against the
    enumeration cap."""
    try:
        layout = RisLayout(
            config.oracle_nx, config.oracle_ny, config.layout.spacing, carrier_hz=config.layout.carrier_hz
        )
    except ValueError as exc:
        raise ConfigError(f"oracle layout: {exc}") from exc
    budget = config.oracle_num_states**layout.n_active
    if budget > ENUMERATION_CAP:
        raise ConfigError(
            f"oracle enumeration needs {budget} measurements, above the cap of {ENUMERATION_CAP}"
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
    # one meter reads both searches, and greedy's configurations are a
    # subset of the enumeration's, so the gap is exactly >= 0
    _, etrace = exhaustive_search(meter, layout, config.oracle_num_states)
    if etrace.final_power == float("-inf"):
        raise MeasurementFloorError(f"oracle instance {instance}: every configuration has zero gain")
    _, gtrace = greedy_iterative(meter, layout, config.oracle_num_states, grouping)
    return {
        "instance": instance,
        "oracle_db": etrace.final_power,
        "greedy_db": gtrace.final_power,
        "gap_db": etrace.final_power - gtrace.final_power,
        "oracle_measurements": etrace.measurement_count,
        "greedy_measurements": gtrace.measurement_count,
    }


def run_oracle_check(config: ScenarioConfig, out_dir, parallel: int = 1) -> dict:
    """Exhaustive-vs-greedy gap over seeded noiseless instances on a small
    layout. A negative gap fails the run."""
    out = Path(out_dir)
    layout = _oracle_layout(config)
    shared = (config, layout, config.base_scene(), make_grouping(layout, 1))
    jobs = [(*shared, i) for i in range(config.oracle_instances)]
    rows = parallel_map(_oracle_job, jobs, parallel)
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
    if min(gaps) < 0.0:
        raise ExperimentAssertionError(
            f"greedy exceeded the exhaustive maximum (min gap {min(gaps):.3e} dB)"
        )
    return summary

"""Scenario configuration and the experiment runners behind the CLI.

Every runner is a pure function of its config: channel draws are keyed on
the master seed plus structural indices, output files embed the config hash
and seed in a leading comment, and nothing reads the clock, so reruns are
byte-identical.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import statistics
from dataclasses import dataclass
from itertools import groupby
from operator import attrgetter, itemgetter
from pathlib import Path

from .channel import (
    ChannelModelParams,
    DEFAULT_FULL_SCALE,
    DEFAULT_NOISE_VARIANCE,
    GainMeter,
    MeasurementFloorError,
    TonePowerMeter,
    ToneParams,
    _check_noise_variance,
    code_scale,
    derive_seed,
    link,
    synthesize_channels,
)
from .codebook import SWITCH_TIME_MS, Codebook, evaluate_path, generate_codebook
from .geometry import (
    DEFAULT_GRID_ANGLES_DEG,
    DEFAULT_HALF_BEAMWIDTH_DEG,
    DEFAULT_TX_ANGLE_DEG,
    DEFAULT_TX_DISTANCE_CM,
    BoresightError,
    Scene,
    SettingError,
    make_scene,
)
from .optimizer import READ_BUDGET, TraceEntry, enumerate_readings, enumeration_size, greedy_iterative, table_reader
from .parallel import parallel_map
from .ris import (
    DEFAULT_ELEMENT_AMPLITUDE,
    GROUP_SIZES,
    RisConfig,
    RisLayout,
    controller_corner,
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


def _distinct(values, field: str) -> None:
    """A config list must hold something to run, each item once."""
    if not values:
        raise ConfigError(f"{_KEYS[field]}: must not be empty")
    if len(set(values)) != len(values):
        raise ConfigError(f"{_KEYS[field]}: must not repeat: {list(values)}")


def _placement_key(exc: ValueError, angle_field: str, distance_field: str) -> str:
    """The config key an error in placing a spot names: the section for a
    rule that spans keys (tx and rx coincide), the distance key when the
    distance is out of range or its horn cannot be aimed, the beamwidth or
    polarization key when a horn refuses those, else the angle (or list) key."""
    name = getattr(exc, "name", "")
    if name is None:
        return _SECTIONS[angle_field]
    if isinstance(exc, BoresightError) or name == "distance_cm":
        return _KEYS[distance_field]
    return _KEYS[name if name in ("half_beamwidth_deg", "polarization") else angle_field]


@dataclass(frozen=True)
class ScenarioConfig:
    seed: int = 7
    layout: RisLayout = RisLayout.default()
    tx_angle_deg: float = DEFAULT_TX_ANGLE_DEG
    tx_distance_cm: float = DEFAULT_TX_DISTANCE_CM
    half_beamwidth_deg: float = DEFAULT_HALF_BEAMWIDTH_DEG
    polarization: float = 0.5
    channel: ChannelModelParams = ChannelModelParams()
    noise_variance: float = DEFAULT_NOISE_VARIANCE
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
    oracle_instances: int = 20

    def __post_init__(self):
        # every random stream keys the seed as one 64-bit word, so a seed
        # outside [0, 2**64) would rerun another seed under its own hash
        rules = (
            ("seed", 0 <= self.seed < 2**64, f"must be in [0, 2**64), got {self.seed}"),
            ("num_states", self.num_states in (2, 3, 4), "must be 2, 3, or 4"),
            ("group_size", self.group_size in GROUP_SIZES, f"must be one of {GROUP_SIZES}"),
            ("grouping_sizes", all(g in GROUP_SIZES for g in self.grouping_sizes), f"must come from {GROUP_SIZES}"),
            ("oracle_instances", self.oracle_instances >= 1, "must be positive"),
            ("element_amplitude", 0.0 < self.element_amplitude <= 1.0, "must be in (0, 1]"),
        )
        for field, holds, rule in rules:
            if not holds:
                raise ConfigError(f"{_KEYS[field]}: {rule}")
        _distinct(self.grouping_sizes, "grouping_sizes")
        _distinct(self.grouping_angles_deg, "grouping_angles_deg")
        _distinct(self.codebook_angles_deg, "codebook_angles_deg")
        # run_sweep checks each sweep point and still writes the good points'
        # files; an empty codebook.path is fine, since training needs no replay
        if not self.sweep_points:
            raise ConfigError(f"{_KEYS['sweep_points']}: must not be empty")
        for field, check in (("full_scale", code_scale), ("noise_variance", _check_noise_variance)):
            try:
                check(getattr(self, field))
            except ValueError as exc:
                raise ConfigError(f"{_KEYS[field]}: {exc}") from exc
        # each spot with the fields of its angle (or list) and distance
        spots = [("codebook_angles_deg", "codebook_distance_cm", a, self.codebook_distance_cm)
                 for a in self.codebook_angles_deg]
        spots += [("path", "path", a, d) for a, d in self.path]
        spots += [("grouping_angles_deg", "grouping_distance_cm", a, self.grouping_distance_cm)
                  for a in self.grouping_angles_deg]
        where = "tx_angle_deg", "tx_distance_cm"
        try:
            # the terminals check the tx spot, beamwidth and polarization, and
            # a scene refuses a receiver outside it or on the tx spot
            scene = self.base_scene()
            for *where, angle_deg, distance_cm in spots:
                scene.with_rx_at(angle_deg, distance_cm)
        except ValueError as exc:
            raise ConfigError(f"{_placement_key(exc, *where)}: {exc}") from exc

    def base_scene(self) -> Scene:
        return make_scene(
            tx_angle_deg=self.tx_angle_deg,
            tx_distance_cm=self.tx_distance_cm,
            half_beamwidth_deg=self.half_beamwidth_deg,
            polarization=self.polarization,
        )

    def channel_at(self, angle_deg: float, distance_cm: float):
        """The channel realization at the master seed, with the receiver at one spot."""
        placed = self.base_scene().with_rx_at(angle_deg, distance_cm)
        return synthesize_channels(placed, self.layout, self.channel, self.seed)

    def meter(self, chan, stream: str, *index) -> TonePowerMeter:
        """Tone meter with the receiver's noise, keyed (seed, stream, *index)."""
        return TonePowerMeter(
            chan,
            self.tone,
            full_scale=self.full_scale,
            amplitude=self.element_amplitude,
            noise_variance=self.noise_variance,
            noise_seed=(self.seed, stream, *index),
        )

    def greedy(self, meter, group_size: int | None = None):
        """Greedy sweep through meter.readings, elements grouped by
        group_size (default: the optimizer's)."""
        size = self.group_size if group_size is None else group_size
        return greedy_iterative(meter.readings, self.layout, self.num_states, size)

    def measure_spot(self, group_size: int, angle_deg: float, distance_cm: float, stream: str, *index):
        """All-off baseline, then one greedy sweep with elements grouped by
        group_size, on one meter at one receiver spot; returns (baseline
        dBFS, trace)."""
        meter = self.meter(self.channel_at(angle_deg, distance_cm), stream, *index)
        baseline = meter(RisConfig.all_off(self.layout))
        _, trace = self.greedy(meter, group_size)
        return baseline, trace

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


def _number(value):
    """A number key kept as written, so an integer keeps its config_hash; no
    booleans, strings or lists."""
    if not isinstance(_not_bool(value), (int, float)):
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
    if disabled != _CONTROLLER_CORNER:
        return RisLayout(disabled=disabled, **fields)
    shape = RisLayout(**fields)
    try:
        return RisLayout(disabled=controller_corner(shape.nx, shape.ny), **fields)
    except SettingError as exc:
        # the corner is built from nx and ny, so its rule spans them
        raise SettingError(str(exc)) from exc


# (section, key, ScenarioConfig field, parse, dump), one row per config key.
# section None is the top level; a dotted field names a field of a nested
# parameter object, built from its collected fields. A missing key, or a
# parse result of None (null where _optional allows it), keeps the default.
_SCHEMA = (
    (None, "seed", "seed", _int, _same),
    ("layout", "nx", "layout.nx", _int, _same),
    ("layout", "ny", "layout.ny", _int, _same),
    # RisLayout checks its range, and null means lambda/2
    ("layout", "spacing_m", "layout.spacing", _optional(_number), _same),
    ("layout", "disabled", "layout.disabled", _cells, _cell_lists),
    ("layout", "carrier_hz", "layout.carrier_hz", _float, _same),
    ("scene", "tx_angle_deg", "tx_angle_deg", _float, _same),
    ("scene", "tx_distance_cm", "tx_distance_cm", _float, _same),
    ("scene", "half_beamwidth_deg", "half_beamwidth_deg", _float, _same),
    ("scene", "polarization", "polarization", _float, _same),
    ("channel", "path_loss_exponent", "channel.path_loss_exponent", _float, _same),
    # _float also reads the string "inf"
    ("channel", "rician_k_db", "channel.rician_k_db", _float, _same),
    # the receiver's noise, which meter() hands to TonePowerMeter
    ("channel", "noise_variance", "noise_variance", _optional(_float), _same),
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
    ("oracle", "instances", "oracle_instances", _int, _same),
)
# the config key of each ScenarioConfig field (a nested object's dotted),
# and the section of each field or nested object
_KEYS = {field: key if section is None else f"{section}.{key}" for section, key, field, *_ in _SCHEMA}
_SECTIONS = {field.partition(".")[0]: section for section, _, field, *_ in _SCHEMA}


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
    sections = {None: data}
    kw: dict = {}
    nested: dict = {}
    for section, key, field, parse, _ in _SCHEMA:
        if section not in sections:
            sections[section] = data.get(section, {})
            if not isinstance(sections[section], dict):
                raise ConfigError(f"{section} must be a JSON object")
            _require_keys(sections[section], keys[section], section)
        head, _, attr = field.partition(".")
        fields = nested.setdefault(head, {}) if attr else kw
        if key in sections[section]:
            try:
                value = parse(sections[section][key])
            except (TypeError, ValueError, KeyError, OverflowError) as exc:
                raise ConfigError(f"{key if section is None else f'{section}.{key}'}: {exc}") from exc
            if value is not None:
                fields[attr or field] = value
    for head, fields in nested.items():
        cls = type(getattr(ScenarioConfig, head))
        try:
            kw[head] = (_layout if cls is RisLayout else cls)(**fields)
        except (TypeError, ValueError, OverflowError) as exc:
            # a rule that spans keys, or names none, names the section
            name = getattr(exc, "name", None)
            raise ConfigError(f"{_KEYS[f'{head}.{name}'] if name else _SECTIONS[head]}: {exc}") from exc
    return ScenarioConfig(**kw)


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


def _write_csv(path: Path, config: ScenarioConfig, fieldnames, rows) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as f:
        f.write(f"# config_hash={config.config_hash()} seed={config.seed}\n")
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
    path.write_text(json.dumps(body, sort_keys=True, indent=2, allow_nan=False) + "\n")


def _write_traces(out: Path, config: ScenarioConfig, prefix: str, traces: dict) -> None:
    """Write traces/<prefix>_<name>.csv for each name -> (spot row, trace),
    the all-off baseline as measurement 0, and delete the other
    traces/<prefix>_*.csv, which an earlier run left."""
    paths = {out / "traces" / f"{prefix}_{name}.csv": job for name, job in traces.items()}
    for path, (row, trace) in paths.items():
        baseline = row["p_baseline_dbfs"]
        entries = (TraceEntry(0, -1, 0, baseline, baseline), *trace.entries)
        _write_csv(path, config, TraceEntry._fields, (e._asdict() for e in entries))
    for stale in set((out / "traces").glob(f"{prefix}_*.csv")) - set(paths):
        stale.unlink()


def _spot_key(x: float) -> str:
    """x as short as it reads back exactly: f"{x:g}" (70.0 -> "70") when
    that parses to x, else repr(x), so distinct spots get distinct keys."""
    short = f"{x:g}"
    return short if float(short) == x else repr(x)


def _slug(angle_deg: float, distance_cm: float) -> str:
    def num(x):
        return _spot_key(x).replace(".", "p").replace("-", "m")

    return f"a{num(angle_deg)}_d{num(distance_cm)}"


# ---------------------------------------------------------------------------
# sweep and grouping

_SPOT_FIELDS = ["p_baseline_dbfs", "p_final_dbfs", "gain_db", "measurements"]


def _spot_job(args):
    """The results row and the trace of config.measure_spot at one spot."""
    config, size, angle_deg, distance_cm, stream, *index = args
    baseline, trace = config.measure_spot(size, angle_deg, distance_cm, stream, *index)
    final = trace.final_power
    row = {
        "angle_deg": angle_deg,
        "distance_cm": distance_cm,
        "group_size": size,
        "p_baseline_dbfs": baseline,
        "p_final_dbfs": final,
        "gain_db": final - baseline,
        "measurements": trace.measurement_count,
    }
    return row, trace


def run_sweep(config: ScenarioConfig, out_dir, parallel: int = 1) -> dict:
    """Greedy sweep over every configured point; per-point traces, a results
    table, and a JSON summary with per-angle median gains."""
    out = Path(out_dir)
    scene = config.base_scene()
    jobs, errors = {}, []
    for i, point in enumerate(config.sweep_points):
        try:
            spot = float(point[0]), float(point[1])
            scene.with_rx_at(*spot)  # outside the scene, or on the tx spot
            if spot in jobs:  # its trace would overwrite the first one's
                raise ValueError("repeats an earlier sweep point")
        except (TypeError, ValueError, IndexError) as exc:
            # strict JSON has no inf or nan; the config reads back "inf" and "nan"
            errors.append({"point": [x if math.isfinite(x) else repr(x) for x in point], "error": str(exc)})
        else:
            jobs[spot] = (config, config.group_size, *spot, "sweep", i)

    results = parallel_map(_spot_job, jobs.values(), parallel)
    rows = [row for row, _ in results]
    _write_csv(out / "results.csv", config, ["angle_deg", "distance_cm", *_SPOT_FIELDS], rows)
    _write_traces(out, config, "sweep", {_slug(r["angle_deg"], r["distance_cm"]): (r, t) for r, t in results})

    angle = itemgetter("angle_deg")
    by_angle = groupby(sorted(rows, key=angle), angle)
    medians = {_spot_key(a): statistics.median(r["gain_db"] for r in group) for a, group in by_angle}
    summary = {"points": len(rows), "median_gain_db_by_angle": medians, "errors": errors}
    _write_json(out / "summary.json", config, summary)
    return summary


def run_grouping_experiment(config: ScenarioConfig, out_dir, parallel: int = 1) -> dict:
    """Repeat the greedy sweep under each grouping size at each configured
    angle, on one shared channel realization per angle."""
    out = Path(out_dir)
    distance_cm = config.grouping_distance_cm
    jobs = [
        (config, size, angle, distance_cm, "grouping", ai, size)
        for ai, angle in enumerate(config.grouping_angles_deg)
        for size in config.grouping_sizes
    ]
    results = parallel_map(_spot_job, jobs, parallel)
    names = {f"{_slug(r['angle_deg'], distance_cm)}_g{r['group_size']}": (r, t) for r, t in results}
    _write_traces(out, config, "grouping", names)

    rows = sorted((row for row, _ in results), key=itemgetter("angle_deg", "group_size"))
    summary_angles = {}
    for angle_deg, group in groupby(rows, itemgetter("angle_deg")):
        group = list(group)
        # ratios are against the smallest size; with no size-1 run to compare
        # with, the delta is null in JSON and an empty CSV field
        ref = group[0]
        for row in group:
            delta = row["gain_db"] - ref["gain_db"] if ref["group_size"] == 1 else None
            row["gain_delta_vs_size1_db"] = delta
            summary_angles.setdefault(_spot_key(angle_deg), {})[str(row["group_size"])] = {
                "gain_db": row["gain_db"],
                "gain_delta_vs_size1_db": delta,
                "measurements": row["measurements"],
                "measurement_ratio": row["measurements"] / ref["measurements"],
            }

    fields = ["angle_deg", "group_size", *_SPOT_FIELDS, "gain_delta_vs_size1_db"]
    _write_csv(out / "grouping.csv", config, fields, rows)
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
    if load_codebook is not None:
        try:
            book = Codebook.load(load_codebook, config)
        except (OSError, ValueError, KeyError, OverflowError) as exc:
            raise ConfigError(f"cannot load codebook: {exc}") from exc
    else:
        refs = [(a, config.codebook_distance_cm) for a in config.codebook_angles_deg]
        book = generate_codebook(config, refs, parallel)
    rows, switches = evaluate_path(book, config.path, config, parallel)
    out.mkdir(parents=True, exist_ok=True)
    book.save(out / "codebook.json")
    _write_csv(
        out / "path.csv",
        config,
        ["x_cm", "y_cm", "angle_deg", "distance_cm", "p_off", "p_codebook", "p_online", "codeword_angle"],
        rows,
    )
    diffs = [r["p_online"] - r["p_codebook"] for r in rows]
    beats = [r["p_codebook"] > r["p_off"] for r in rows]
    summary = {
        "codewords": len(book.entries),
        "path_points": len(rows),
        "median_online_minus_codebook_db": statistics.median(diffs) if diffs else None,
        "codebook_beats_off_fraction": (sum(beats) / len(beats)) if beats else None,
        "switch_count": switches,
        "reconfiguration_time_ms": switches * SWITCH_TIME_MS,
        "loaded_from": str(load_codebook) if load_codebook else None,
    }
    _write_json(out / "summary.json", config, summary)
    return summary


# ---------------------------------------------------------------------------
# oracle check


def _oracle_job(args):
    """The gaps.csv rows of a range of instances drawn at derive_seed(seed,
    "oracle", instance): one stack, enumerated through one GainMeter in one
    read of at most READ_BUDGET readings, then replayed one by one by greedy."""
    config, layout, chan_link, instances = args
    seeds = [derive_seed(config.seed, "oracle", i) for i in instances]
    try:
        meter = GainMeter(chan_link.draw_stack(seeds), config.element_amplitude)
    except MeasurementFloorError:
        if len(instances) > 1:
            # read one at a time, the first instance that fails raises its own error
            for i in instances:
                _oracle_job((config, layout, chan_link, range(i, i + 1)))
        raise
    tables = enumerate_readings(meter.readings, layout, config.num_states)
    # readings are finite or -inf, so a maximum is the first maximum's reading
    best = tables.max(axis=-1).tolist()
    rows = []
    for instance, table, oracle_db in zip(instances, tables, best):
        if oracle_db == float("-inf"):
            raise MeasurementFloorError(f"oracle instance {instance}: every configuration has zero gain")
        # greedy replays the enumeration's readings, so the gap is exactly >= 0
        read = table_reader(table, layout, config.num_states)
        _, gtrace = greedy_iterative(read, layout, config.num_states)
        rows.append(
            {
                "instance": instance,
                "oracle_db": oracle_db,
                "greedy_db": gtrace.final_power,
                "gap_db": oracle_db - gtrace.final_power,
                "oracle_measurements": len(table),
                "greedy_measurements": gtrace.measurement_count,
            }
        )
    return rows


def run_oracle_check(config: ScenarioConfig, out_dir, parallel: int = 1) -> dict:
    """Exhaustive-vs-greedy gap over seeded noiseless instances on a 2x2
    panel at the layout's spacing and carrier and optimizer.num_states: one
    Link for the placement, and jobs of consecutive instances, each one
    stack of as many as READ_BUDGET readings hold. A negative gap fails the
    run."""
    out = Path(out_dir)
    layout = RisLayout(2, 2, config.layout.spacing, carrier_hz=config.layout.carrier_hz)
    chan_link = link(config.base_scene(), layout, config.channel)
    count = config.oracle_instances
    size = READ_BUDGET // enumeration_size(layout.n_active, config.num_states)
    jobs = [(config, layout, chan_link, range(i, min(i + size, count))) for i in range(0, count, size)]
    rows = [row for stack in parallel_map(_oracle_job, jobs, parallel) for row in stack]
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
        "num_states": config.num_states,
        "min_gap_db": min(gaps),
        "median_gap_db": statistics.median(gaps),
        "max_gap_db": max(gaps),
    }
    _write_json(out / "summary.json", config, summary)
    if min(gaps) < 0.0:
        raise ExperimentAssertionError(
            f"greedy exceeded the exhaustive maximum (min gap {min(gaps):.3e} dB)"
        )
    return summary

import csv
import dataclasses
import itertools
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from rissim.channel import GainMeter, channel_gain, derive_seed, link, synthesize_channels
from rissim.codebook import Codebook, CodebookEntry
from rissim.experiments import (
    ConfigError,
    ScenarioConfig,
    _SCHEMA,
    _oracle_job,
    _write_json,
    config_from_dict,
    load_config,
    run_codebook_experiment,
    run_grouping_experiment,
    run_oracle_check,
    run_sweep,
)
from rissim.optimizer import READ_BUDGET, exhaustive_search, greedy_iterative
from rissim.ris import SPEED_OF_LIGHT, RisConfig, RisLayout

SMALL = {
    "seed": 3,
    "layout": {"nx": 4, "ny": 2, "disabled": []},
    "channel": {"noise_variance": 0.0},
    "sweep": {"points": [[70.0, 170.0], [110.0, 170.0]]},
    "codebook": {
        "reference_angles_deg": [70.0, 110.0],
        "reference_distance_cm": 170.0,
        "path": [[72.0, 165.0], [108.0, 175.0]],
    },
    "grouping": {"group_sizes": [1, 8], "angles_deg": [70.0], "distance_cm": 170.0},
    "oracle": {"instances": 3},
}


def _small_config():
    return config_from_dict(json.loads(json.dumps(SMALL)))


def _channel_bytes(chan) -> bytes:
    return b"".join(v.tobytes() for v in (chan.h_h, chan.h_v, chan.g_h, chan.g_v, np.complex128(chan.h_los)))


def test_master_seed_drives_the_channel_draw():
    cfg = ScenarioConfig(seed=9)
    scene = cfg.base_scene().with_rx_at(70.0, 170.0)
    at = {seed: _channel_bytes(synthesize_channels(scene, cfg.layout, cfg.channel, seed)) for seed in (9, 3)}
    assert at[9] != at[3]
    assert _channel_bytes(cfg.channel_at(70.0, 170.0)) == at[9]
    assert _channel_bytes(dataclasses.replace(cfg, seed=3).channel_at(70.0, 170.0)) == at[3]


def test_config_round_trip_and_hash():
    cfg = _small_config()
    again = config_from_dict(cfg.to_dict())
    assert again == cfg
    assert again.config_hash() == cfg.config_hash()
    assert dataclasses.replace(cfg, seed=4).config_hash() != cfg.config_hash()
    assert len(cfg.config_hash()) == 16


def test_unknown_keys_rejected():
    with pytest.raises(ConfigError):
        config_from_dict({"seeed": 3})
    with pytest.raises(ConfigError):
        config_from_dict({"channel": {"noise": 0.0}})
    with pytest.raises(ConfigError):
        config_from_dict({"version": 99})
    with pytest.raises(ConfigError, match="grid_angles_deg"):
        config_from_dict({"scene": {"grid_angles_deg": [90.0]}})
    with pytest.raises(ConfigError, match="cap"):
        config_from_dict({"oracle": {"cap": 1 << 20}})


def test_field_validation_maps_to_config_error():
    with pytest.raises(ConfigError):
        config_from_dict({"optimizer": {"num_states": 5}})
    with pytest.raises(ConfigError):
        config_from_dict({"optimizer": {"group_size": 3}})
    with pytest.raises(ConfigError):
        config_from_dict({"channel": {"noise_variance": -1.0}})


def test_rician_inf_accepted():
    cfg = config_from_dict({"channel": {"rician_k_db": "inf"}})
    assert cfg.channel.rician_k_db == float("inf")


@pytest.mark.parametrize(
    "data",
    [
        {"seed": 7.9},
        {"oracle": {"instances": 2.5}},
        {"layout": {"nx": 4.7}},
        {"tone": {"buffer_len": True}},
    ],
)
def test_integer_keys_reject_fractions_and_booleans(data):
    with pytest.raises(ConfigError, match="expected an integer"):
        config_from_dict(data)


@pytest.mark.parametrize(
    "data",
    [
        {"scene": {"polarization": True}},
        {"channel": {"rician_k_db": False}},
        {"layout": {"spacing_m": True}},
        {"receiver": {"full_scale": True}},
        {"codebook": {"reference_angles_deg": [70.0, True]}},
        {"sweep": {"points": [[True, 170.0]]}},
    ],
)
def test_float_keys_reject_booleans(data):
    with pytest.raises(ConfigError, match="expected a number, got (True|False)"):
        config_from_dict(data)


def test_spacing_is_kept_as_written():
    # an integer spacing is written back as an integer, so its config_hash
    # does not move
    for spacing in (1, 0.03):
        cfg = config_from_dict({"layout": {"spacing_m": spacing}})
        assert type(cfg.to_dict()["layout"]["spacing_m"]) is type(spacing)
        assert config_from_dict(cfg.to_dict()).config_hash() == cfg.config_hash()


@pytest.mark.parametrize(
    "channel",
    [
        {"noise_variance": float("nan")},
        {"noise_variance": float("inf")},
        {"path_loss_exponent": float("nan")},
        {"path_loss_exponent": float("inf")},
        {"rician_k_db": float("nan")},
    ],
)
def test_non_finite_channel_keys_are_config_errors(channel):
    with pytest.raises(ConfigError, match=next(iter(channel))):
        config_from_dict({"channel": channel})


def test_integer_keys_accept_integral_floats():
    cfg = config_from_dict({"seed": 3.0, "layout": {"nx": 4.0, "ny": 2, "disabled": [[0.0, 1]]}})
    assert cfg == config_from_dict({"seed": 3, "layout": {"nx": 4, "ny": 2, "disabled": [[0, 1]]}})
    assert type(cfg.seed) is int and type(cfg.layout.nx) is int


@pytest.mark.parametrize(
    "data, message",
    [
        ({"grouping": {"group_sizes": [8, 8]}}, "grouping.group_sizes: must not repeat: [8, 8]"),
        ({"grouping": {"angles_deg": [70, 90, 70]}}, "grouping.angles_deg: must not repeat"),
        (
            {"codebook": {"reference_angles_deg": [70, 70.0]}},
            "codebook.reference_angles_deg: must not repeat",
        ),
    ],
)
def test_repeated_sizes_and_angles_rejected(data, message):
    with pytest.raises(ConfigError) as exc:
        config_from_dict(data)
    assert str(exc.value).startswith(message)


# Every schema key set away from its default, in the form to_dict writes.
EVERY_KEY = {
    "version": 1,
    "seed": 11,
    "layout": {"nx": 6, "ny": 4, "spacing_m": 0.03, "disabled": [[0, 0], [3, 5]], "carrier_hz": 2.4e9},
    "scene": {
        "tx_angle_deg": 60.0,
        "tx_distance_cm": 120.0,
        "half_beamwidth_deg": 30.0,
        "polarization": 0.25,
    },
    "channel": {"path_loss_exponent": 2.2, "rician_k_db": 6.0, "noise_variance": 0.02, "cross_pol_coupling": 0.1},
    "tone": {"tone_hz": 2e5, "sample_rate_hz": 2e6, "buffer_len": 4096, "tx_amplitude": 0.5},
    "receiver": {"full_scale": 500.0},
    "ris": {"element_amplitude": 0.8},
    "optimizer": {"num_states": 2, "group_size": 2},
    "sweep": {"points": [[60.0, 150.0]]},
    "codebook": {"reference_angles_deg": [60.0, 120.0], "reference_distance_cm": 150.0, "path": [[65.0, 150.0]]},
    "grouping": {"group_sizes": [2, 4], "angles_deg": [80.0], "distance_cm": 150.0},
    "oracle": {"instances": 5},
}


def test_every_key_serializes_as_pinned():
    defaults = ScenarioConfig().to_dict()
    for section, body in EVERY_KEY.items():
        if isinstance(body, dict):
            assert set(body) == set(defaults[section])
            assert all(body[key] != defaults[section][key] for key in body)
    assert set(EVERY_KEY) == set(defaults)
    cfg = config_from_dict(EVERY_KEY)
    assert cfg.to_dict() == EVERY_KEY
    assert config_from_dict(cfg.to_dict()) == cfg
    # sha256 of the sorted compact JSON of EVERY_KEY
    assert cfg.config_hash() == "38197ca9df71a295"


def _readme_config_keys():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## Configuration", 1)[1].split("```jsonc", 1)[1].split("```", 1)[0]
    block = re.sub(r"//[^\n]*", "", block)
    keys = set()
    for section, body in re.findall(r'"(\w+)":\s*\{([^}]*)\}', block):
        keys.update((section, key) for key in re.findall(r'"(\w+)":', body))
    top = re.sub(r'"\w+":\s*\{[^}]*\}', "", block)
    keys.update((None, key) for key in re.findall(r'"(\w+)":', top))
    return keys


def test_readme_config_block_lists_the_schema_keys():
    schema = {(section, key) for section, key, *_ in _SCHEMA}
    assert _readme_config_keys() == schema | {(None, "version"), (None, "seed")}


def test_load_config_errors(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(bad)


def _read_lines(path):
    return path.read_text().splitlines()


def test_run_sweep_outputs(tmp_path):
    cfg = _small_config()
    out = tmp_path / "sweep"
    summary = run_sweep(cfg, out)
    assert summary["points"] == 2
    assert summary["errors"] == []

    lines = _read_lines(out / "results.csv")
    assert lines[0] == f"# config_hash={cfg.config_hash()} seed=3"
    assert lines[1].startswith("angle_deg,")
    assert len(lines) == 4  # comment + header + 2 points

    trace = _read_lines(out / "traces" / "sweep_a70_d170.csv")
    # comment + header + baseline row + 8 active elements * 4 states
    assert len(trace) == 2 + 1 + 32
    assert trace[2].startswith("0,-1,0,")

    summary_json = json.loads((out / "summary.json").read_text())
    assert summary_json["seed"] == 3
    assert summary_json["config_hash"] == cfg.config_hash()
    assert "70" in summary_json["median_gain_db_by_angle"]


def test_run_sweep_collects_bad_points(tmp_path):
    cfg = config_from_dict({**SMALL, "sweep": {"points": [[70.0, 170.0], [200.0, 50.0]]}})
    summary = run_sweep(cfg, tmp_path / "sweep")
    assert summary["points"] == 1
    assert len(summary["errors"]) == 1
    assert "200" in summary["errors"][0]["error"]


def test_run_sweep_is_byte_deterministic(tmp_path):
    cfg = _small_config()
    run_sweep(cfg, tmp_path / "a")
    run_sweep(cfg, tmp_path / "b")
    for rel in ("results.csv", "summary.json", "traces/sweep_a110_d170.csv"):
        assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes()


def test_run_sweep_parallel_matches_serial(tmp_path):
    cfg = _small_config()
    run_sweep(cfg, tmp_path / "serial", parallel=1)
    run_sweep(cfg, tmp_path / "par", parallel=2)
    assert (tmp_path / "serial" / "results.csv").read_bytes() == (
        tmp_path / "par" / "results.csv"
    ).read_bytes()


def _tree_bytes(root):
    return {p.relative_to(root): p.read_bytes() for p in root.rglob("*") if p.is_file()}


def test_run_codebook_parallel_matches_serial(tmp_path):
    cfg = _small_config()
    run_codebook_experiment(cfg, tmp_path / "serial", parallel=1)
    run_codebook_experiment(cfg, tmp_path / "par", parallel=2)
    serial = _tree_bytes(tmp_path / "serial")
    assert set(serial) == {Path("codebook.json"), Path("path.csv"), Path("summary.json")}
    assert _tree_bytes(tmp_path / "par") == serial

    book = tmp_path / "serial" / "codebook.json"
    run_codebook_experiment(cfg, tmp_path / "serial-load", parallel=1, load_codebook=book)
    run_codebook_experiment(cfg, tmp_path / "par-load", parallel=2, load_codebook=book)
    assert _tree_bytes(tmp_path / "par-load") == _tree_bytes(tmp_path / "serial-load")


# 6 instances make one stack, 37 three of 16, 16 and 5
@pytest.mark.parametrize("instances", [6, 37])
def test_run_oracle_parallel_matches_serial(tmp_path, instances):
    # the workers get the run's Link pickled in their job args
    cfg = config_from_dict({**SMALL, "oracle": {"instances": instances}})
    run_oracle_check(cfg, tmp_path / "serial", parallel=1)
    run_oracle_check(cfg, tmp_path / "par", parallel=2)
    serial = _tree_bytes(tmp_path / "serial")
    assert set(serial) == {Path("gaps.csv"), Path("summary.json")}
    assert _tree_bytes(tmp_path / "par") == serial


def test_run_grouping_outputs(tmp_path):
    cfg = _small_config()
    out = tmp_path / "grp"
    summary = run_grouping_experiment(cfg, out)
    rows = _read_lines(out / "grouping.csv")
    assert len(rows) == 2 + 2  # comment + header + one row per size
    angle = summary["angles"]["70"]
    assert angle["1"]["gain_delta_vs_size1_db"] == 0.0
    assert angle["8"]["measurements"] < angle["1"]["measurements"]
    assert (out / "traces" / "grouping_a70_d170_g8.csv").exists()


def test_run_codebook_outputs_and_reload(tmp_path):
    cfg = _small_config()
    out1 = tmp_path / "book1"
    summary = run_codebook_experiment(cfg, out1)
    assert summary["codewords"] == 2
    assert summary["path_points"] == 2
    assert summary["switch_count"] >= 1
    assert (out1 / "codebook.json").exists()

    out2 = tmp_path / "book2"
    reused = run_codebook_experiment(cfg, out2, load_codebook=out1 / "codebook.json")
    assert reused["loaded_from"] == str(out1 / "codebook.json")
    assert (out1 / "path.csv").read_bytes() == (out2 / "path.csv").read_bytes()

    with pytest.raises(ConfigError):
        run_codebook_experiment(cfg, tmp_path / "book3", load_codebook=tmp_path / "nope.json")


def test_run_oracle_check_outputs(tmp_path):
    cfg = _small_config()
    out = tmp_path / "oracle"
    summary = run_oracle_check(cfg, out)
    assert summary["instances"] == 3
    assert summary["elements"] == 4
    assert summary["min_gap_db"] >= 0.0
    rows = _read_lines(out / "gaps.csv")
    assert len(rows) == 2 + 3


@pytest.mark.parametrize("seed", [3, 7])
def test_single_element_oracle_gaps_are_exactly_zero(tmp_path, seed):
    # greedy tries every configuration of one element, so it reads the optimum
    cfg = config_from_dict({**SMALL, "seed": seed})
    layout = RisLayout(1, 1, spacing=cfg.layout.spacing, carrier_hz=cfg.layout.carrier_hz)
    rows = _oracle_job((cfg, layout, link(cfg.base_scene(), layout, cfg.channel), range(40)))
    assert len(rows) == 40
    assert all(r["gap_db"] == 0.0 for r in rows)
    assert all(r["oracle_db"] == r["greedy_db"] for r in rows)


def _strict_json(path):
    def reject(token):
        raise ValueError(f"non-strict JSON token {token}")

    return json.loads(path.read_text(), parse_constant=reject)


def test_grouping_without_size1_writes_null_delta(tmp_path):
    cfg = config_from_dict({**SMALL, "grouping": {"group_sizes": [4, 8], "angles_deg": [70.0]}})
    out = tmp_path / "grp"
    run_grouping_experiment(cfg, out)
    angle = _strict_json(out / "summary.json")["angles"]["70"]
    assert angle["4"]["gain_delta_vs_size1_db"] is None
    assert angle["8"]["gain_delta_vs_size1_db"] is None
    rows = list(csv.DictReader(_read_lines(out / "grouping.csv")[1:]))
    assert [r["gain_delta_vs_size1_db"] for r in rows] == ["", ""]


def test_spots_that_print_alike_keep_their_own_traces_and_keys(tmp_path):
    # 70.0000001 prints as "70" under :g; it must neither overwrite the 70
    # trace nor share its summary key
    near = 70.0000001
    sweep = {"points": [[70.0, 170.0], [near, 170.0]]}
    grouping = {**SMALL["grouping"], "angles_deg": [70.0, near]}
    cfg = config_from_dict({**SMALL, "sweep": sweep, "grouping": grouping})
    summary = run_sweep(cfg, tmp_path / "sweep")
    traces = sorted(p.name for p in (tmp_path / "sweep" / "traces").iterdir())
    assert traces == ["sweep_a70_d170.csv", "sweep_a70p0000001_d170.csv"]
    assert set(summary["median_gain_db_by_angle"]) == {"70", "70.0000001"}
    rows = list(csv.DictReader(_read_lines(tmp_path / "sweep" / "results.csv")[1:]))
    for row, name in zip(rows, traces):
        baseline = list(csv.DictReader(_read_lines(tmp_path / "sweep" / "traces" / name)[1:]))[0]
        assert baseline["p_r_dbfs"] == row["p_baseline_dbfs"]

    summary = run_grouping_experiment(cfg, tmp_path / "grp")
    assert set(summary["angles"]) == {"70", "70.0000001"}
    assert sorted(p.name for p in (tmp_path / "grp" / "traces").iterdir()) == [
        f"grouping_a{a}_d170_g{g}.csv" for a in ("70", "70p0000001") for g in (1, 8)
    ]


def test_spot_rows_follow_the_configured_noise_keys(tmp_path):
    # sizes and angles out of order, no size 1, and a rejected sweep point in
    # the middle: every row is measure_spot at its configured-order index
    cfg = config_from_dict(
        {
            **SMALL,
            "channel": {},  # noise on, so a wrong noise key moves the readings
            "sweep": {"points": [[70.0, 170.0], [200.0, 50.0], [110.0, 220.0]]},
            "grouping": {"group_sizes": [8, 2, 4], "angles_deg": [130.0, 70.0, 90.0], "distance_cm": 150.0},
        }
    )

    def measured(size, angle, dist, *key):
        baseline, trace = cfg.measure_spot(size, angle, dist, *key)
        return [baseline, trace.final_power, trace.final_power - baseline, trace.measurement_count]

    def read(row, fields):
        return [float(row[f]) for f in fields[:-1]] + [int(row[fields[-1]])]

    sweep = run_sweep(cfg, tmp_path / "sweep")
    assert sweep["errors"] == [{"point": [200.0, 50.0], "error": "point (200.0, 50.0) is outside the scene"}]
    rows = list(csv.DictReader(_read_lines(tmp_path / "sweep" / "results.csv")[1:]))
    fields = ["angle_deg", "distance_cm", "p_baseline_dbfs", "p_final_dbfs", "gain_db", "measurements"]
    assert [read(r, fields) for r in rows] == [
        [70.0, 170.0, *measured(1, 70.0, 170.0, "sweep", 0)],
        [110.0, 220.0, *measured(1, 110.0, 220.0, "sweep", 2)],
    ]

    summary = run_grouping_experiment(cfg, tmp_path / "grp")
    assert _strict_json(tmp_path / "grp" / "summary.json") == {
        "config_hash": cfg.config_hash(),
        "seed": 3,
        **summary,
    }
    assert summary["group_sizes"] == [8, 2, 4]
    rows = list(csv.DictReader(_read_lines(tmp_path / "grp" / "grouping.csv")[1:]))
    fields = ["angle_deg", "group_size", "p_baseline_dbfs", "p_final_dbfs", "gain_db", "measurements"]
    expected = []
    # rows sort by angle, then size; noise keys keep the configured order
    for angle, ai in ((70.0, 1), (90.0, 2), (130.0, 0)):
        smallest = measured(2, angle, 150.0, "grouping", ai, 2)[-1]
        for size in (2, 4, 8):
            reading = measured(size, angle, 150.0, "grouping", ai, size)
            expected.append([angle, size, *reading])
            assert summary["angles"][f"{angle:g}"][str(size)] == {
                "gain_db": reading[2],
                "gain_delta_vs_size1_db": None,
                "measurements": reading[3],
                "measurement_ratio": reading[3] / smallest,
            }
    assert [[float(r["angle_deg"]), int(r["group_size"])] + read(r, fields[2:]) for r in rows] == expected
    assert [r["gain_delta_vs_size1_db"] for r in rows] == [""] * 9
    # 4x2 panel: 4 groups at size 2, 2 at sizes 4 and 8 (a 4-row tile is cut to 2 rows)
    assert [summary["angles"]["90"][s]["measurement_ratio"] for s in ("2", "4", "8")] == [1.0, 0.5, 0.5]


def test_oracle_layout_follows_configured_carrier(tmp_path):
    carrier = 2.4e9
    cfg = config_from_dict(
        {
            **SMALL,
            "layout": {**SMALL["layout"], "carrier_hz": carrier},
            "oracle": {"instances": 2},
        }
    )
    out = tmp_path / "oracle"
    summary = run_oracle_check(cfg, out)
    assert summary["elements"] == 4
    rows = list(csv.DictReader(_read_lines(out / "gaps.csv")[1:]))
    layout = RisLayout(2, 2, spacing=SPEED_OF_LIGHT / carrier / 2.0, carrier_hz=carrier)
    for row in rows:
        seed = derive_seed(cfg.seed, "oracle", int(row["instance"]))
        chan = synthesize_channels(cfg.base_scene(), layout, cfg.channel, seed)
        best = max(
            abs(channel_gain(RisConfig(layout, states), chan, cfg.element_amplitude)) ** 2
            for states in itertools.product(range(4), repeat=4)
        )
        assert float(row["oracle_db"]) == pytest.approx(10.0 * math.log10(best), rel=1e-12)


@pytest.mark.parametrize("nx,ny", [(2, 2), (3, 1)])
def test_oracle_job_reads_both_searches_on_one_meter(nx, ny):
    cfg = _small_config()
    layout = RisLayout(nx, ny, spacing=cfg.layout.spacing, carrier_hz=cfg.layout.carrier_hz)
    scene = cfg.base_scene()
    n = layout.n_active
    chan_link = link(scene, layout, cfg.channel)
    rows = _oracle_job((cfg, layout, chan_link, range(6)))
    assert len(rows) == 6
    for instance, row in enumerate(rows):
        chan = synthesize_channels(scene, layout, cfg.channel, derive_seed(cfg.seed, "oracle", instance))
        meter = GainMeter(chan, cfg.element_amplitude)
        _, oracle_db = exhaustive_search(meter.readings, layout, 4)
        _, gtrace = greedy_iterative(meter.readings, layout, 4)
        assert row == {
            "instance": instance,
            "oracle_db": oracle_db,
            "greedy_db": gtrace.final_power,
            "gap_db": oracle_db - gtrace.final_power,
            "oracle_measurements": 4**n,
            "greedy_measurements": 4 * n,
        }
        assert row["gap_db"] >= 0.0
        assert meter.calls == 4**n + 4 * n




@pytest.mark.parametrize("seed", [7, 31])
def test_oracle_rows_equal_a_first_maximum_of_per_configuration_reads(seed):
    cfg = config_from_dict({"seed": seed})
    layout = RisLayout(2, 2, spacing=cfg.layout.spacing, carrier_hz=cfg.layout.carrier_hz)
    assert cfg.num_states == 4
    scene = cfg.base_scene()
    chan_link = link(scene, layout, cfg.channel)
    rows = _oracle_job((cfg, layout, chan_link, range(40)))
    assert [row["instance"] for row in rows] == list(range(40))
    for instance, row in enumerate(rows):
        chan = synthesize_channels(scene, layout, cfg.channel, derive_seed(seed, "oracle", instance))
        meter = GainMeter(chan, cfg.element_amplitude)
        best = float("-inf")
        for states in itertools.product(range(4), repeat=4):
            best = max(best, meter(RisConfig(layout, states)))
        _, gtrace = greedy_iterative(meter.readings, layout, 4)
        assert row["oracle_db"] == best
        assert row["greedy_db"] == gtrace.final_power
        assert row["oracle_measurements"] == 256

_STACK = READ_BUDGET // 4**4  # default 2x2 oracle instances per stack


@pytest.mark.parametrize("instances", [1, _STACK - 1, _STACK + 1, 600])
def test_oracle_rows_of_stacks_equal_per_instance_references(tmp_path, instances):
    cfg = config_from_dict({"oracle": {"instances": instances}})
    run_oracle_check(cfg, tmp_path)
    rows = list(csv.DictReader(_read_lines(tmp_path / "gaps.csv")[1:]))
    assert [int(r["instance"]) for r in rows] == list(range(instances))
    layout = RisLayout(2, 2, spacing=cfg.layout.spacing, carrier_hz=cfg.layout.carrier_hz)
    scene = cfg.base_scene()
    for instance, row in enumerate(rows):
        chan = synthesize_channels(scene, layout, cfg.channel, derive_seed(cfg.seed, "oracle", instance))
        meter = GainMeter(chan, cfg.element_amplitude)
        _, oracle_db = exhaustive_search(meter.readings, layout, 4)
        _, gtrace = greedy_iterative(meter.readings, layout, 4)
        assert float(row["oracle_db"]) == oracle_db
        assert float(row["greedy_db"]) == gtrace.final_power
        assert float(row["gap_db"]) == oracle_db - gtrace.final_power


def _spy_reads(monkeypatch) -> list:
    """The (meter, shape) of every GainMeter.readings call from now on."""
    reads = []
    readings = GainMeter.readings

    def spy(meter, states):
        out = readings(meter, states)
        reads.append((meter, out.shape))
        return out

    monkeypatch.setattr(GainMeter, "readings", spy)
    return reads


# the oracle's 2x2 panel runs at optimizer.num_states: 16, 81 or 256
# configurations, so stacks of 256, 50 or 16 instances
@pytest.mark.parametrize("num_states, instances, stack", [(2, 300, 256), (3, 51, 50), (4, 20, 16)])
def test_oracle_check_follows_the_optimizer_state_count(tmp_path, monkeypatch, num_states, instances, stack):
    cfg = config_from_dict({"optimizer": {"num_states": num_states}, "oracle": {"instances": instances}})
    reads = _spy_reads(monkeypatch)
    summary = run_oracle_check(cfg, tmp_path)
    assert READ_BUDGET == 4096
    assert max(math.prod(shape) for _, shape in reads) <= READ_BUDGET
    # one meter per stack: full stacks of `stack` instances, the rest last,
    # each read once, every configuration of the stack in one read
    sizes = [min(stack, instances - start) for start in range(0, instances, stack)]
    assert [shape for _, shape in reads] == [(size, num_states**4) for size in sizes]
    assert len({id(meter) for meter, _ in reads}) == len(sizes)
    assert summary["num_states"] == num_states
    assert json.loads((tmp_path / "summary.json").read_text())["num_states"] == num_states
    rows = list(csv.DictReader(_read_lines(tmp_path / "gaps.csv")[1:]))
    assert [int(r["instance"]) for r in rows] == list(range(instances))
    assert {(int(r["oracle_measurements"]), int(r["greedy_measurements"])) for r in rows} == {
        (num_states**4, num_states * 4)
    }
    layout = RisLayout(2, 2, spacing=cfg.layout.spacing, carrier_hz=cfg.layout.carrier_hz)
    for instance, row in enumerate(rows):
        chan = synthesize_channels(cfg.base_scene(), layout, cfg.channel, derive_seed(cfg.seed, "oracle", instance))
        meter = GainMeter(chan, cfg.element_amplitude)
        _, oracle_db = exhaustive_search(meter.readings, layout, num_states)
        _, gtrace = greedy_iterative(meter.readings, layout, num_states)
        assert float(row["oracle_db"]) == oracle_db
        assert float(row["greedy_db"]) == gtrace.final_power


# a stack of another panel fills the budget as far as whole instances do
@pytest.mark.parametrize("nx, ny, num_states, stack", [(2, 3, 3, 5), (3, 2, 4, 1)])
def test_oracle_reads_stay_within_the_read_budget(monkeypatch, nx, ny, num_states, stack):
    cfg = config_from_dict({"optimizer": {"num_states": num_states}})
    layout = RisLayout(nx, ny, spacing=cfg.layout.spacing, carrier_hz=cfg.layout.carrier_hz)
    chan_link = link(cfg.base_scene(), layout, cfg.channel)
    reads = _spy_reads(monkeypatch)
    rows = _oracle_job((cfg, layout, chan_link, range(stack)))
    assert [shape for _, shape in reads] == [(stack, num_states ** (nx * ny))]
    assert stack * num_states ** (nx * ny) <= READ_BUDGET < (stack + 1) * num_states ** (nx * ny)
    for instance, row in enumerate(rows):
        chan = synthesize_channels(cfg.base_scene(), layout, cfg.channel, derive_seed(cfg.seed, "oracle", instance))
        meter = GainMeter(chan, cfg.element_amplitude)
        _, oracle_db = exhaustive_search(meter.readings, layout, num_states)
        _, gtrace = greedy_iterative(meter.readings, layout, num_states)
        assert row["oracle_db"] == oracle_db
        assert row["greedy_db"] == gtrace.final_power
        assert row["oracle_measurements"] == num_states ** (nx * ny)


def test_codebook_json_is_strict_with_infinite_k(tmp_path):
    cfg = config_from_dict({**SMALL, "channel": {"noise_variance": 0.0, "rician_k_db": "inf"}})
    run_codebook_experiment(cfg, tmp_path / "book")
    meta = _strict_json(tmp_path / "book" / "codebook.json")["metadata"]
    # the infinite K reaches the file only through the config hash
    assert meta == {"config_hash": cfg.config_hash(), "seed": 3, "layout": cfg.to_dict()["layout"]}
    assert meta["config_hash"] == _strict_json(tmp_path / "book" / "summary.json")["config_hash"]


def test_json_writers_refuse_nan_and_leave_no_file(tmp_path):
    cfg = config_from_dict(SMALL)
    with pytest.raises(ValueError, match="not JSON compliant"):
        _write_json(tmp_path / "summary.json", cfg, {"median_gain_db": float("nan")})
    book = Codebook([CodebookEntry(70.0, 170.0, RisConfig.all_off(cfg.layout))], {"seed": float("nan")})
    with pytest.raises(ValueError, match="not JSON compliant"):
        book.save(tmp_path / "codebook.json")
    assert list(tmp_path.iterdir()) == []

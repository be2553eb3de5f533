import argparse
import contextlib
import copy
import dataclasses
import importlib
import importlib.util
import io
import json
import math
import re
import shutil
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import rissim.cli as cli
from rissim import experiments
from rissim.experiments import ExperimentAssertionError
from rissim.ris import RisLayout

SMALL = {
    "seed": 3,
    "layout": {"nx": 4, "ny": 2, "disabled": []},
    "channel": {"noise_variance": 0.0},
    "sweep": {"points": [[70.0, 170.0]]},
    "codebook": {
        "reference_angles_deg": [70.0, 110.0],
        "reference_distance_cm": 170.0,
        "path": [[72.0, 165.0]],
    },
    "grouping": {"group_sizes": [1, 8], "angles_deg": [70.0], "distance_cm": 170.0},
    "oracle": {"instances": 2},
}


@pytest.fixture
def config_path(tmp_path):
    p = tmp_path / "scenario.json"
    p.write_text(json.dumps(SMALL))
    return p


def _refused_at_load(tmp_path, capsys, config: dict, message: str, parallel: int = 1) -> None:
    """Every runner exits 2 on config with the one line error: message, and writes nothing."""
    p = tmp_path / "refused.json"
    # json writes NaN and Infinity, which load_config reads back
    p.write_text(json.dumps(config))
    out = tmp_path / "out"
    for command in _COMMANDS:
        assert cli.main([command, "--config", str(p), "--out", str(out), "--parallel", str(parallel)]) == 2
        captured = capsys.readouterr()
        assert (captured.err, captured.out) == (f"error: {message}\n", ""), command
        assert not out.exists()


def test_sweep_exits_zero_and_writes(tmp_path, config_path, capsys):
    rc = cli.main(["sweep", "--config", str(config_path), "--out", str(tmp_path / "out")])
    assert rc == 0
    assert (tmp_path / "out" / "results.csv").exists()
    assert "points: 1" in capsys.readouterr().out


def test_seed_flag_overrides_config(tmp_path, config_path):
    rc = cli.main(
        ["sweep", "--config", str(config_path), "--seed", "123", "--out", str(tmp_path / "out")]
    )
    assert rc == 0
    header = (tmp_path / "out" / "results.csv").read_text().splitlines()[0]
    assert header.endswith("seed=123")


def test_bad_config_exits_two(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"unexpected": 1}))
    rc = cli.main(["sweep", "--config", str(p), "--out", str(tmp_path / "out")])
    assert rc == 2


def test_bad_sweep_point_exits_two(tmp_path, capsys):
    # a sweep point is checked at load, with the other spots, by every runner
    config = {**SMALL, "sweep": {"points": [[70.0, 170.0], [200.0, 50.0]]}}
    _refused_at_load(tmp_path, capsys, config, "sweep.points: point (200.0, 50.0) is outside the scene")


def test_missing_codebook_exits_two(tmp_path, config_path):
    rc = cli.main(
        [
            "codebook",
            "--config",
            str(config_path),
            "--out",
            str(tmp_path / "out"),
            "--load-codebook",
            str(tmp_path / "absent.json"),
        ]
    )
    assert rc == 2


def test_codebook_and_grouping_and_oracle_run(tmp_path, config_path):
    assert cli.main(["codebook", "--config", str(config_path), "--out", str(tmp_path / "b")]) == 0
    assert (tmp_path / "b" / "codebook.json").exists()
    assert (tmp_path / "b" / "path.csv").exists()
    assert cli.main(["grouping", "--config", str(config_path), "--out", str(tmp_path / "g")]) == 0
    assert (tmp_path / "g" / "grouping.csv").exists()
    assert cli.main(["oracle-check", "--config", str(config_path), "--out", str(tmp_path / "o")]) == 0
    assert (tmp_path / "o" / "gaps.csv").exists()


def test_group_sizes_key_picks_the_grouping_rows(tmp_path):
    p = tmp_path / "sizes.json"
    p.write_text(json.dumps({**SMALL, "grouping": {**SMALL["grouping"], "group_sizes": [1, 4]}}))
    assert cli.main(["grouping", "--config", str(p), "--out", str(tmp_path / "g")]) == 0
    lines = (tmp_path / "g" / "grouping.csv").read_text().splitlines()
    sizes = [row.split(",")[1] for row in lines[2:]]
    assert sizes == ["1", "4"]


def test_group_sizes_flag_is_refused(tmp_path, capsys):
    # grouping.group_sizes is the one way to pick sizes
    out = tmp_path / "g"
    with pytest.raises(SystemExit) as exc:
        cli.main(["grouping", "--group-sizes", "1", "--out", str(out)])
    assert exc.value.code == 2
    assert "unrecognized arguments: --group-sizes 1" in capsys.readouterr().err
    assert not out.exists()


def test_assertion_failure_exits_three(tmp_path, config_path, monkeypatch):
    def boom(config, out, parallel=1):
        raise ExperimentAssertionError("forced")

    monkeypatch.setattr(cli, "run_oracle_check", boom)
    rc = cli.main(["oracle-check", "--config", str(config_path), "--out", str(tmp_path / "o")])
    assert rc == 3


def test_parser_requires_subcommand():
    with pytest.raises(SystemExit):
        cli.main([])


# the oracle's panel is a fixed 2x2 at optimizer.num_states, so every
# runner refuses oracle.nx, oracle.ny and oracle.num_states as unknown keys
@pytest.mark.parametrize("command", ["sweep", "grouping", "codebook", "oracle-check"])
@pytest.mark.parametrize(
    "oracle, message",
    [
        ({"nx": 2}, "error: unknown keys in oracle: ['nx']\n"),
        ({"ny": 1}, "error: unknown keys in oracle: ['ny']\n"),
        ({"num_states": 4}, "error: unknown keys in oracle: ['num_states']\n"),
        ({"nx": 2, "ny": 1, "num_states": 2}, "error: unknown keys in oracle: ['num_states', 'nx', 'ny']\n"),
    ],
)
def test_removed_oracle_panel_keys_exit_two(tmp_path, capsys, command, oracle, message):
    p = tmp_path / "old_oracle.json"
    p.write_text(json.dumps({**SMALL, "oracle": {**SMALL["oracle"], **oracle}}))
    rc = cli.main([command, "--config", str(p), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert capsys.readouterr().err == message
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("value", ["0", "-3", "two"])
def test_parallel_below_one_is_rejected(tmp_path, capsys, value):
    with pytest.raises(SystemExit) as exc:
        cli.main(["sweep", "--parallel", value, "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert "--parallel" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "command, section, message",
    [
        (
            "codebook",
            {"codebook": {**SMALL["codebook"], "path": [[200.0, 50.0]]}},
            "codebook.path: point (200.0, 50.0)",
        ),
        (
            "codebook",
            {"codebook": {**SMALL["codebook"], "reference_distance_cm": -5}},
            "codebook.reference_distance_cm: point (70.0, -5.0)",
        ),
        (
            "grouping",
            {"grouping": {**SMALL["grouping"], "angles_deg": [200]}},
            "grouping.angles_deg: point (200.0, 170.0)",
        ),
        ("sweep", {"scene": {"tx_angle_deg": 200.0}}, "scene.tx_angle_deg: point (200.0, 100.0)"),
        ("sweep", {"scene": {"tx_angle_deg": float("nan")}}, "scene.tx_angle_deg: point (nan, 100.0)"),
        ("sweep", {"scene": {"tx_distance_cm": float("inf")}}, "scene.tx_distance_cm: point (78.0, inf)"),
        (
            "codebook",
            {"codebook": {**SMALL["codebook"], "reference_distance_cm": float("inf")}},
            "codebook.reference_distance_cm: point (70.0, inf)",
        ),
        ("sweep", {"sweep": {"points": [[70.0, 170.0], [200.0, 50.0]]}}, "sweep.points: point (200.0, 50.0)"),
    ],
)
def test_point_outside_scene_exits_two(tmp_path, capsys, command, section, message):
    p = tmp_path / "bad_point.json"
    p.write_text(json.dumps({**SMALL, **section}))
    rc = cli.main([command, "--config", str(p), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {message} is outside the scene\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "section, key, value",
    [
        ("sweep", "points", 5),
        ("codebook", "path", 5),
        ("codebook", "reference_angles_deg", 5),
        ("grouping", "angles_deg", 5),
        ("grouping", "group_sizes", 5),
        ("layout", "disabled", 5),
        # a horn this far from, or this near to, the panel cannot be aimed at it
        ("scene", "tx_distance_cm", 1e300),
        ("scene", "tx_distance_cm", 5e-324),
        ("codebook", "reference_distance_cm", 1e300),
        ("codebook", "reference_distance_cm", 5e-324),
        ("grouping", "distance_cm", 1e300),
        ("grouping", "distance_cm", 5e-324),
    ],
)
def test_config_error_names_its_key(tmp_path, capsys, section, key, value):
    p = tmp_path / "bad_key.json"
    p.write_text(json.dumps({**SMALL, section: {**SMALL.get(section, {}), key: value}}))
    out = tmp_path / "out"
    assert cli.main(["oracle-check", "--config", str(p), "--out", str(out)]) == 2
    message = "'int' object is not iterable" if value == 5 else "boresight must be finite and non-zero"
    assert capsys.readouterr().err == f"error: {section}.{key}: {message}\n"
    assert not out.exists()


# a grouping spot 1e-10 m in front of the center element of a 3x3 panel
_NEAR_ELEMENT = {
    "layout": {"nx": 3, "ny": 3, "disabled": []},
    "grouping": {"group_sizes": [1], "angles_deg": [90], "distance_cm": 1e-8},
}


def test_spot_within_1e_9_m_of_the_panel_exits_two(tmp_path, capsys):
    message = "grouping: rx must sit on the reflective side of the surface, at least 1e-9 m in front"
    _refused_at_load(tmp_path, capsys, _NEAR_ELEMENT, message)


# A value a key cannot take, or a flag's value, is reported under that key;
# a rule that spans keys (Nyquist, nx/ny, tx/rx coincidence) under its
# section; a spot under its distance key when the distance is out, else
# under its list key.
@pytest.mark.parametrize(
    "settings, flags, key",
    [
        ({"optimizer": {"num_states": 5}}, [], "optimizer.num_states"),
        ({"oracle": {**SMALL["oracle"], "instances": 0}}, [], "oracle.instances"),
        ({"ris": {"element_amplitude": 0.0}}, [], "ris.element_amplitude"),
        ({"optimizer": {"group_size": 3}}, [], "optimizer.group_size"),
        ({"grouping": {**SMALL["grouping"], "group_sizes": [3]}}, [], "grouping.group_sizes"),
        ({"grouping": {**SMALL["grouping"], "group_sizes": [8, 8]}}, [], "grouping.group_sizes"),
        ({"grouping": {**SMALL["grouping"], "group_sizes": [1, "x"]}}, [], "grouping.group_sizes"),
        ({}, ["--seed", "-1"], "seed"),
        ({"channel": {"noise_variance": -1.0}}, [], "channel.noise_variance"),
        ({"receiver": {"full_scale": -1.0}}, [], "receiver.full_scale"),
        ({"codebook": {**SMALL["codebook"], "reference_angles_deg": [190]}}, [], "codebook.reference_angles_deg"),
        ({"codebook": {**SMALL["codebook"], "reference_distance_cm": -5}}, [], "codebook.reference_distance_cm"),
        ({"codebook": {**SMALL["codebook"], "path": [[72.0, -5.0]]}}, [], "codebook.path"),
        ({"grouping": {**SMALL["grouping"], "angles_deg": [190]}}, [], "grouping.angles_deg"),
        ({"grouping": {**SMALL["grouping"], "distance_cm": -5}}, [], "grouping.distance_cm"),
        ({"scene": {"tx_angle_deg": 190}}, [], "scene.tx_angle_deg"),
        ({"scene": {"tx_angle_deg": 190, "tx_distance_cm": -5}}, [], "scene.tx_distance_cm"),
        ({"scene": {"polarization": -0.5}}, [], "scene.polarization"),
        ({"scene": {"tx_angle_deg": 90, "tx_distance_cm": 170}}, [], "scene"),
        ({"tone": {"tone_hz": 0.0}}, [], "tone"),
        ({"tone": {"sample_rate_hz": -1.0}}, [], "tone.sample_rate_hz"),
        ({"tone": {"buffer_len": 0}}, [], "tone.buffer_len"),
        ({"layout": {**SMALL["layout"], "spacing_m": -0.01}}, [], "layout.spacing_m"),
        ({"layout": {**SMALL["layout"], "spacing_m": "abc"}}, [], "layout.spacing_m"),
        ({"layout": {**SMALL["layout"], "spacing_m": [1]}}, [], "layout.spacing_m"),
        ({"layout": {**SMALL["layout"], "spacing_m": True}}, [], "layout.spacing_m"),
        ({"layout": {**SMALL["layout"], "nx": 0}}, [], "layout"),
        # the default controller corner does not fit a one-column grid
        ({"layout": {"nx": 1, "ny": 2}}, [], "layout"),
        ({"layout": {**SMALL["layout"], "disabled": [[5, 0]]}}, [], "layout.disabled"),
        ({"channel": {"cross_pol_coupling": 1.5}}, [], "channel.cross_pol_coupling"),
        ({"channel": {"path_loss_exponent": 0.5}}, [], "channel.path_loss_exponent"),
        ({"sweep": {"points": [[190, 170]]}}, [], "sweep.points"),
        ({"sweep": {"points": [[90, -5]]}}, [], "sweep.points"),
        ({"sweep": {"points": [[78, 100]]}}, [], "sweep"),
        # less than 1e-9 m in front of the panel: y spans the angle and the distance
        (_NEAR_ELEMENT, [], "grouping"),
    ],
)
def test_every_config_error_names_its_key(tmp_path, capsys, settings, flags, key):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({**SMALL, **settings}))
    out = tmp_path / "out"
    assert cli.main(["grouping", "--config", str(p), *flags, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {key}: ") and err.count("\n") == 1, err
    assert not out.exists()


# a list of key-value pairs is not an object either
@pytest.mark.parametrize("value", [5, None, [["points", [[70.0, 170.0]]]]])
def test_section_that_is_not_an_object_exits_two(tmp_path, capsys, value):
    p = tmp_path / "bad_section.json"
    p.write_text(json.dumps({**SMALL, "sweep": value}))
    out = tmp_path / "out"
    assert cli.main(["sweep", "--config", str(p), "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: sweep must be a JSON object\n"
    assert not out.exists()


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_non_finite_noise_variance_exits_two(tmp_path, capsys, value):
    p = tmp_path / "bad_noise.json"
    # json writes these as NaN and Infinity, which json.loads reads back
    p.write_text(json.dumps({**SMALL, "channel": {"noise_variance": value}}))
    rc = cli.main(["sweep", "--config", str(p), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert capsys.readouterr().err == "error: channel.noise_variance: noise_variance must be finite and non-negative\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "section, message",
    [
        (
            {"scene": {"half_beamwidth_deg": 95.0}},
            "scene.half_beamwidth_deg: half_beamwidth_deg must be in (0, 90) for the directional pattern",
        ),
        ({"scene": {"polarization": 2.0}}, "scene.polarization: polarization must be in [0, 1]"),
        ({"ris": {"element_amplitude": 2.0}}, "ris.element_amplitude: must be in (0, 1]"),
        (
            {"layout": {**SMALL["layout"], "carrier_hz": float("nan")}},
            "layout.carrier_hz: carrier_hz must be finite and positive",
        ),
        ({"tone": {"tx_amplitude": float("inf")}}, "tone.tx_amplitude: tx_amplitude must be finite and positive"),
        ({"receiver": {"full_scale": 0.0}}, "receiver.full_scale: full_scale must be positive"),
        (
            {"receiver": {"full_scale": float("nan")}},
            "receiver.full_scale: full_scale nan gives no finite ADC code scale",
        ),
        (
            {"scene": {"half_beamwidth_deg": 1e-320}},
            "scene.half_beamwidth_deg: half_beamwidth_deg 1e-320 is too narrow: its cosine rounds to 1",
        ),
    ],
)
def test_bad_setting_exits_two(tmp_path, capsys, section, message):
    p = tmp_path / "bad_setting.json"
    p.write_text(json.dumps({**SMALL, **section}))
    for command in ("sweep", "codebook"):
        rc = cli.main([command, "--config", str(p), "--out", str(tmp_path / "out")])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "out").exists()


_NO_POWER = "ADC buffer is identically zero: no measurable power"
# noiseless settings whose tone rounds to all-zero ADC codes
_FLOORS = (
    {"channel": {"noise_variance": 0.0, "path_loss_exponent": 200}},
    {"receiver": {"full_scale": 1e300}},
)


@pytest.mark.parametrize("parallel", [1, 2])
@pytest.mark.parametrize(
    "command, section, message",
    [(command, floor, _NO_POWER) for floor in _FLOORS for command in ("sweep", "grouping", "codebook")]
    + [
        # the codebook trains at 170 cm, then the replay floors
        ("codebook", {"codebook": {**SMALL["codebook"], "path": [[72.0, 1e7]]}}, _NO_POWER),
        (
            "oracle-check",
            {"ris": {"element_amplitude": 1e-320}},
            "oracle instance 0: every configuration has zero gain",
        ),
        # a gain past float64's range
        (
            "oracle-check",
            {"scene": {"tx_distance_cm": 10}, "channel": {"path_loss_exponent": 600}, "oracle": {"instances": 2}},
            "a configuration's gain can pass float64's range: no finite reading",
        ),
    ],
)
def test_no_measurable_power_exits_two(tmp_path, capsys, command, section, message, parallel):
    p = tmp_path / "floor.json"
    p.write_text(json.dumps({**SMALL, **section}))
    out = tmp_path / "out"
    rc = cli.main([command, "--config", str(p), "--out", str(out), "--parallel", str(parallel)])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


# 10**15 int64 samples are 7.1 PiB, past any x86-64 address space, so the
# allocation fails at once; a pool hands the MemoryError back unpickled
@pytest.mark.parametrize("parallel", [1, 2])
@pytest.mark.parametrize("command", ["sweep", "grouping", "codebook"])
def test_buffer_that_cannot_be_allocated_exits_two(tmp_path, capsys, command, parallel):
    p = tmp_path / "huge.json"
    p.write_text(json.dumps({**SMALL, "tone": {"buffer_len": 10**15}}))
    out = tmp_path / "out"
    rc = cli.main([command, "--config", str(p), "--out", str(out), "--parallel", str(parallel)])
    assert rc == 2
    assert capsys.readouterr().err == "error: not enough memory for this configuration\n"
    assert not out.exists()


# tx 10 cm from the panel: at path-loss exponent 650 the envelope passes
# float64's range, at 614 the scattered part drawn on it does
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("parallel", [1, 2])
@pytest.mark.parametrize("exponent", [650, 614])
@pytest.mark.parametrize("command", ["sweep", "grouping", "codebook", "oracle-check"])
def test_channel_past_float64_exits_two(tmp_path, capsys, command, exponent, parallel):
    p = tmp_path / "overflow.json"
    section = {"scene": {"tx_distance_cm": 10}, "channel": {"path_loss_exponent": exponent}}
    p.write_text(json.dumps({**SMALL, **section}))
    out = tmp_path / "out"
    rc = cli.main([command, "--config", str(p), "--out", str(out), "--parallel", str(parallel)])
    assert rc == 2
    assert capsys.readouterr().err == "error: channel is not a finite float64\n"
    assert not out.exists()


# at exponent 613.6 the oracle instances of one stack fail in turn: at seed
# 7 instances 0 and 1 fail the gain bound and instance 2 the draw, at seed 3
# instances 0 and 1 the draw and instance 2 the bound; the run names the
# first instance's failure, as a run of one instance at a time does
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("parallel", [1, 2])
@pytest.mark.parametrize(
    "seed, message",
    [
        (7, "a configuration's gain can pass float64's range: no finite reading"),
        (3, "channel is not a finite float64"),
    ],
)
def test_a_stack_reports_its_first_failing_instance(tmp_path, capsys, seed, message, parallel):
    p = tmp_path / "mixed.json"
    section = {"scene": {"tx_distance_cm": 10}, "channel": {"noise_variance": 0.0, "path_loss_exponent": 613.6}}
    p.write_text(json.dumps({**SMALL, **section, "seed": seed, "oracle": {**SMALL["oracle"], "instances": 3}}))
    out = tmp_path / "out"
    rc = cli.main(["oracle-check", "--config", str(p), "--out", str(out), "--parallel", str(parallel)])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


_COMMANDS = ("sweep", "codebook", "grouping", "oracle-check")


def _data_rows(out: Path) -> dict:
    """Every output file under out without its config_hash header line or key."""
    rows = {}
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        text = path.read_text()
        if path.suffix == ".json":
            body = json.loads(text)
            body.pop("config_hash", None)
            body.get("metadata", {}).pop("config_hash", None)
            rows[path.relative_to(out).as_posix()] = body
        else:
            rows[path.relative_to(out).as_posix()] = text.splitlines()[1:]
    return rows


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("k_db", [4000, 1e300])
def test_rician_k_whose_power_overflows_is_the_deterministic_channel(tmp_path, capsys, k_db):
    # 10 ** (K / 10) overflows float64 from K of about 3,083 dB on
    outputs = {}
    for k in (k_db, "inf"):
        p = tmp_path / f"k_{k}.json"
        p.write_text(json.dumps({**SMALL, "channel": {"noise_variance": 0.0, "rician_k_db": k}}))
        for command in _COMMANDS:
            out = tmp_path / f"{command}-{k}"
            assert cli.main([command, "--config", str(p), "--out", str(out)]) == 0
            assert capsys.readouterr().err == ""
            outputs[command, k] = _data_rows(out)
    for command in _COMMANDS:
        assert outputs[command, k_db] == outputs[command, "inf"], command


# The config fuzzer: a small valid config, and one or two of its schema keys
# set to values from a fixed pool. Every key of experiments._SCHEMA is
# fuzzed, so a new key needs no test edit; integer keys, which size arrays,
# draw from small integers so that no example allocates more than a few MB.
_FUZZ_BASE = {
    "layout": {"nx": 2, "ny": 2, "disabled": []},
    "tone": {"buffer_len": 64},
    "sweep": {"points": [[70.0, 170.0]]},
    "codebook": {"reference_angles_deg": [70.0], "reference_distance_cm": 170.0, "path": [[72.0, 165.0]]},
    "grouping": {"group_sizes": [1], "angles_deg": [70.0], "distance_cm": 170.0},
    "oracle": {"instances": 2},
}
_TX_SPOT = [78.0, 100.0]  # the default tx placement
_VALUE_POOL = [
    0,
    -1.0,
    5e-324,
    1e-8,  # as a distance in cm, or an angle in degrees, less than 1e-9 m in front of the panel
    1e300,
    math.inf,
    -math.inf,
    math.nan,
    True,
    False,
    None,
    "x",
    [],
    [1, 2],
    [_TX_SPOT],
    [[70.0, 170.0], [70.0, 170.0]],
]
_SMALL_INT_POOL = [-1, 0, 1, 2, 3, True, None, "2", 1.5]
_MUTATIONS = [
    (section, key, value)
    for section, key, _, parse in experiments._SCHEMA
    for value in (_SMALL_INT_POOL if parse is experiments._int else _VALUE_POOL)
]


def _strict_json(text: str):
    def refuse(token):
        raise ValueError(f"non-strict JSON token {token}")

    return json.loads(text, parse_constant=refuse)


def _fuzz_config(mutations, base=_FUZZ_BASE):
    config = copy.deepcopy(base)
    for section, key, value in mutations:
        (config if section is None else config.setdefault(section, {}))[key] = value
    return config


def _check_runners_on(config, root: Path):
    """Every runner exits 0 or 2; a 2 prints one error: line and nothing else
    on stderr, and every JSON file written is strict JSON."""
    path = root / "fuzz.json"
    # json writes NaN and Infinity, which load_config reads back
    path.write_text(json.dumps(config))
    for command in _COMMANDS:
        out = root / command
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = cli.main([command, "--config", str(path), "--out", str(out)])
        lines = err.getvalue().splitlines()
        assert rc in (0, 2), (command, rc)
        assert (rc == 2) == bool(lines), (command, lines)
        assert all(line.startswith("error: ") for line in lines), (command, lines)
        assert len(lines) <= 1, (command, lines)
        for written in out.rglob("*.json"):
            _strict_json(written.read_text())
        shutil.rmtree(out, ignore_errors=True)


def _every_single_mutation(test):
    """test, with each single-key mutation as an explicit example."""
    for mutation in _MUTATIONS:
        test = example(mutations=[mutation])(test)
    return test


@pytest.mark.filterwarnings("error")
@settings(max_examples=40, deadline=None)
@_every_single_mutation
@given(mutations=st.lists(st.sampled_from(_MUTATIONS), min_size=2, max_size=2))
def test_no_config_makes_a_runner_crash(tmp_path_factory, mutations):
    _check_runners_on(_fuzz_config(mutations), tmp_path_factory.mktemp("fuzz"))


@settings(max_examples=200, deadline=None)
@_every_single_mutation
@given(mutations=st.lists(st.sampled_from(_MUTATIONS), min_size=2, max_size=2))
def test_every_accepted_config_reads_back_from_its_dump(mutations):
    """to_dict writes every key in the form config_from_dict reads: a config
    that loads comes back equal, under the same config_hash."""
    # one disabled cell, so that the cell set is written too
    base = {**_FUZZ_BASE, "layout": {**_FUZZ_BASE["layout"], "disabled": [[1, 0]]}}
    try:
        config = experiments.config_from_dict(_fuzz_config(mutations, base))
    except experiments.ConfigError:
        return
    # json writes infinities as Infinity, which json.loads reads back
    again = experiments.config_from_dict(json.loads(json.dumps(config.to_dict())))
    assert again == config
    assert again.config_hash() == config.config_hash()


# Leaving a key out keeps its default; null, and the old "controller-corner"
# spelling of the default disabled cells, are errors under their key.
@pytest.mark.parametrize(
    "section, key, value, rule",
    [
        ("layout", "spacing_m", None, "expected a number, got None"),
        ("channel", "noise_variance", None, "expected a number, got None"),
        ("receiver", "full_scale", None, "expected a number, got None"),
        ("sweep", "points", None, "'NoneType' object is not iterable"),
        ("codebook", "path", None, "'NoneType' object is not iterable"),
        ("layout", "disabled", "controller-corner", "not enough values to unpack (expected 2, got 1)"),
    ],
)
def test_null_and_controller_corner_are_config_errors(tmp_path, capsys, section, key, value, rule):
    config = {**SMALL, section: {**SMALL.get(section, {}), key: value}}
    _refused_at_load(tmp_path, capsys, config, f"{section}.{key}: {rule}")


# bytes that are not UTF-8, an integer past int()'s 4300-digit limit, and
# arrays nested past the recursion limit
_MALFORMED_FILES = [
    b'{"seed": 7, "x": "\xff"}',
    b'{"seed": ' + b"1" * 5000 + b"}",
    b"[" * 100_000,
]


@pytest.mark.parametrize("content", _MALFORMED_FILES, ids=["not-utf8", "long-integer", "deep-nesting"])
def test_malformed_input_file_exits_two(tmp_path, capsys, config_path, content):
    bad = tmp_path / "malformed.json"
    bad.write_bytes(content)
    out = tmp_path / "out"
    for command in _COMMANDS:
        assert cli.main([command, "--config", str(bad), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: config ") and err.count("\n") == 1, (command, err)
        assert not out.exists()
    args = ["codebook", "--config", str(config_path), "--load-codebook", str(bad), "--out", str(out)]
    assert cli.main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot load codebook: ") and err.count("\n") == 1, err
    assert not out.exists()


# the codebook.json metadata of a SMALL training run
_SMALL_CONFIG = experiments.config_from_dict(SMALL)
_BOOK_METADATA = {
    "config_hash": _SMALL_CONFIG.config_hash(),
    "seed": 3,
    "layout": _SMALL_CONFIG.to_dict()["layout"],
}
_EMPTY_BOOK = {"schema_version": 2, "metadata": _BOOK_METADATA, "entries": []}


@pytest.mark.parametrize(
    "section, book, message",
    [
        (
            {"codebook": {**SMALL["codebook"], "reference_angles_deg": []}},
            None,
            "codebook.reference_angles_deg: must not be empty",
        ),
        ({}, _EMPTY_BOOK, "cannot load codebook: a codebook needs at least one codeword"),
    ],
)
def test_empty_codebook_exits_two(tmp_path, capsys, section, book, message):
    p = tmp_path / "empty_book.json"
    p.write_text(json.dumps({**SMALL, **section}))
    out = tmp_path / "out"
    args = ["codebook", "--config", str(p), "--out", str(out)]
    if book is not None:
        (tmp_path / "book.json").write_text(json.dumps(book))
        args += ["--load-codebook", str(tmp_path / "book.json")]
    assert cli.main(args) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_infinite_sweep_point_is_a_config_error(tmp_path, capsys):
    points = [[70.0, 170.0], [90.0, float("inf")]]
    message = "sweep.points: point (90.0, inf) is outside the scene"
    _refused_at_load(tmp_path, capsys, {**SMALL, "sweep": {"points": points}}, message)


@pytest.mark.parametrize("parallel", [1, 2])
def test_repeated_sweep_point_is_a_config_error(tmp_path, capsys, parallel):
    # an integer coordinate repeats its float spelling too
    for points, listed in (
        ([[70.0, 170.0], [70.0, 170.0]], "[(70.0, 170.0), (70.0, 170.0)]"),
        ([[110.0, 220.0], [50.0, 220.0], [110, 220.0]], "[(110.0, 220.0), (50.0, 220.0), (110.0, 220.0)]"),
    ):
        config = {**SMALL, "sweep": {"points": points}}
        _refused_at_load(tmp_path, capsys, config, f"sweep.points: must not repeat: {listed}", parallel)


@pytest.mark.parametrize(
    "section, key",
    [
        ({"grouping": {**SMALL["grouping"], "group_sizes": []}}, "grouping.group_sizes"),
        ({"grouping": {**SMALL["grouping"], "angles_deg": []}}, "grouping.angles_deg"),
        ({"sweep": {"points": []}}, "sweep.points"),
    ],
)
def test_empty_list_is_a_config_error(tmp_path, capsys, section, key):
    p = tmp_path / "empty.json"
    p.write_text(json.dumps({**SMALL, **section}))
    out = tmp_path / "out"
    for command in _COMMANDS:
        assert cli.main([command, "--config", str(p), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {key}: must not be empty\n"
        assert not out.exists()


def test_empty_codebook_path_trains_a_codebook(tmp_path):
    p = tmp_path / "no_path.json"
    p.write_text(json.dumps({**SMALL, "codebook": {**SMALL["codebook"], "path": []}}))
    out = tmp_path / "out"
    assert cli.main(["codebook", "--config", str(p), "--out", str(out)]) == 0
    assert len(json.loads((out / "codebook.json").read_text())["entries"]) == 2
    assert len((out / "path.csv").read_text().splitlines()) == 2


# SMALL's tx sits at 78 deg, 100 cm; the rule spans the spot's keys and the
# tx's, so the error names the section of the spot
@pytest.mark.parametrize(
    "commands, section",
    [
        (["grouping"], {"grouping": {**SMALL["grouping"], "angles_deg": [78.0], "distance_cm": 100.0}}),
        (["codebook"], {"codebook": {**SMALL["codebook"], "path": [[72.0, 165.0], [78.0, 100.0]]}}),
        (
            ["codebook"],
            {"codebook": {**SMALL["codebook"], "reference_distance_cm": 100, "reference_angles_deg": [78]}},
        ),
        # every runner builds the base scene, whose rx sits at 90 deg, 170 cm
        (["sweep", "codebook", "grouping", "oracle-check"], {"scene": {"tx_angle_deg": 90, "tx_distance_cm": 170}}),
    ],
)
def test_receiver_on_the_tx_spot_exits_two(tmp_path, capsys, commands, section):
    p = tmp_path / "on_tx.json"
    p.write_text(json.dumps({**SMALL, **section}))
    out = tmp_path / "out"
    for command in commands:
        assert cli.main([command, "--config", str(p), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {next(iter(section))}: tx and rx coincide\n"
        assert not out.exists()


@pytest.mark.parametrize("parallel", [1, 2])
def test_sweep_point_on_the_tx_spot_is_a_config_error(tmp_path, capsys, parallel):
    # SMALL's tx sits at 78 deg, 100 cm; the rule spans keys, so it names the section
    config = {**SMALL, "sweep": {"points": [[78.0, 100.0], [70.0, 170.0]]}}
    _refused_at_load(tmp_path, capsys, config, "sweep: tx and rx coincide", parallel)


# a codebook for SMALL's layout that loads
_BOOK = {
    "schema_version": 2,
    "metadata": _BOOK_METADATA,
    "entries": [{"angle_deg": 70.0, "distance_cm": 170.0, "bits": [True, False] * 8}],
}
# _BOOK as schema 1 wrote it, with its own layout spelling; it no longer loads
_BOOK_V1 = {
    "schema_version": 1,
    "metadata": {
        "layout": {"nx": 4, "ny": 2, "spacing": RisLayout(4, 2).spacing, "disabled": [], "carrier_hz": 5.2e9}
    },
    "entries": _BOOK["entries"],
}
_OTHER_LAYOUT = "codebook was built for a different layout"


@pytest.mark.parametrize(
    "where, value, message",
    [
        (("metadata", "layout", "nx"), "10", _OTHER_LAYOUT),
        (("metadata", "layout", "nx"), 10.5, _OTHER_LAYOUT),
        (("metadata", "layout", "carrier_hz"), None, _OTHER_LAYOUT),
        (("metadata", "layout", "disabled"), 5, _OTHER_LAYOUT),
        (("metadata", "layout", "disabled"), [[0, True]], _OTHER_LAYOUT),
        (("metadata", "config_hash"), None, "codebook config_hash must be str, got NoneType"),
        (("metadata", "seed"), True, "codebook seed must be int, got bool"),
        (("metadata", "seed"), float("nan"), "codebook seed must be int, got float"),
        (("entries", 0, "angle_deg"), None, "codebook entry angle_deg must be float, got NoneType"),
        (("entries", 0, "distance_cm"), True, "codebook entry distance_cm must be float, got bool"),
        (("entries", 0, "distance_cm"), 10**400, "int too large to convert to float"),
        (("entries",), {"0": _BOOK["entries"][0]}, "codebook entries must be list, got dict"),
        (("entries",), [[70.0, 170.0]], "codebook entry must be dict, got list"),
        (("metadata",), [_BOOK["metadata"]], "codebook metadata must be dict, got list"),
        (("metadata",), {}, _OTHER_LAYOUT),
        ((), [_BOOK], "codebook root must be dict, got list"),
        (("entries", 0, "bits"), [2] * 16, "codebook bit must be bool, got int"),
        (("entries", 0, "bits"), "1" * 16, "codebook entry bits must be list, got str"),
        (("entries", 0, "bits"), [1, 0] * 8, "codebook bit must be bool, got int"),
    ],
)
def test_malformed_codebook_file_exits_two(tmp_path, capsys, config_path, where, value, message):
    book = copy.deepcopy(_BOOK)
    if where:
        *parents, last = where
        target = book
        for key in parents:
            target = target[key]
        target[last] = value
    else:
        book = value
    path = tmp_path / "book.json"
    path.write_text(json.dumps(book))
    out = tmp_path / "out"
    args = ["codebook", "--config", str(config_path), "--out", str(out), "--load-codebook", str(path)]
    assert cli.main(args) == 2
    assert capsys.readouterr().err == f"error: cannot load codebook: {message}\n"
    assert not out.exists()
    # the unchanged book loads
    path.write_text(json.dumps(_BOOK))
    assert cli.main(args) == 0


def _train_small_codebook(tmp_path, config_path) -> Path:
    """codebook.json of a SMALL training run, trained under seed 3."""
    assert cli.main(["codebook", "--config", str(config_path), "--out", str(tmp_path / "trained")]) == 0
    return tmp_path / "trained" / "codebook.json"


def test_codebook_replays_under_another_seed_with_its_provenance(tmp_path):
    # with noise: SMALL's noiseless tone reads no power on the seed-4 path
    noisy = tmp_path / "noisy.json"
    noisy.write_text(json.dumps({**SMALL, "channel": {}}))
    book = _train_small_codebook(tmp_path, noisy)
    out = tmp_path / "seed4"
    args = ["codebook", "--config", str(noisy), "--seed", "4", "--out", str(out), "--load-codebook", str(book)]
    assert cli.main(args) == 0
    # the replay's files carry seed 4; the codebook keeps its training run's
    config = experiments.load_config(noisy)
    header = (out / "path.csv").read_text().splitlines()[0]
    assert header == f"# config_hash={dataclasses.replace(config, seed=4).config_hash()} seed=4"
    assert (out / "codebook.json").read_bytes() == book.read_bytes()
    assert json.loads(book.read_text())["metadata"] == {**_BOOK_METADATA, "config_hash": config.config_hash()}


def test_reloaded_codebook_writes_the_training_run_bytes(tmp_path, config_path):
    book = _train_small_codebook(tmp_path, config_path)
    out = tmp_path / "reloaded"
    assert cli.main(["codebook", "--config", str(config_path), "--out", str(out), "--load-codebook", str(book)]) == 0
    for name in ("codebook.json", "path.csv"):
        assert (out / name).read_bytes() == (tmp_path / "trained" / name).read_bytes(), name


@pytest.mark.parametrize("layout", [{"nx": 5}, {"carrier_hz": 2.4e9}])
def test_codebook_for_another_layout_exits_two(tmp_path, capsys, config_path, layout):
    book = _train_small_codebook(tmp_path, config_path)
    other = tmp_path / "other.json"
    other.write_text(json.dumps({**SMALL, "layout": {**SMALL["layout"], **layout}}))
    capsys.readouterr()
    out = tmp_path / "out"
    assert cli.main(["codebook", "--config", str(other), "--out", str(out), "--load-codebook", str(book)]) == 2
    assert capsys.readouterr().err == f"error: cannot load codebook: {_OTHER_LAYOUT}\n"
    assert not out.exists()


def test_schema_1_codebook_exits_two(tmp_path, capsys, config_path):
    path = tmp_path / "v1.json"
    path.write_text(json.dumps(_BOOK_V1))
    out = tmp_path / "out"
    assert cli.main(["codebook", "--config", str(config_path), "--out", str(out), "--load-codebook", str(path)]) == 2
    assert capsys.readouterr().err == "error: cannot load codebook: unsupported codebook schema: 1\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "command, first, second, kept",
    [
        ("sweep", {"sweep": {"points": [[70, 170], [110, 220]]}}, {"sweep": {"points": [[70, 170]]}}, "sweep_a70_d170"),
        ("grouping", {}, {"grouping": {**SMALL["grouping"], "group_sizes": [1]}}, "grouping_a70_d170_g1"),
    ],
)
def test_rerun_into_one_out_deletes_its_runners_stale_traces(tmp_path, command, first, second, kept):
    out, config = tmp_path / "out", tmp_path / "scenario.json"
    other = "grouping" if command == "sweep" else "sweep"

    def traces(prefix):
        return sorted(t.stem for t in (out / "traces").glob(f"{prefix}_*"))

    def run(runner, section):
        config.write_text(json.dumps({**SMALL, **section}))
        assert cli.main([runner, "--config", str(config), "--out", str(out)]) == 0
        return traces(runner)

    others = run(other, {})
    assert len(run(command, first)) == 2
    assert run(command, second) == [kept]
    assert traces(other) == others  # another runner's traces stay
    header = f"# config_hash={experiments.config_from_dict({**SMALL, **second}).config_hash()} seed=3"
    assert (out / "traces" / f"{kept}.csv").read_text().splitlines()[0] == header


@pytest.mark.parametrize(
    "key, value", [("distance_cm", -5.0), ("angle_deg", float("nan")), ("angle_deg", 200.0)]
)
def test_loaded_codebook_point_outside_scene_exits_two(tmp_path, capsys, config_path, key, value):
    assert cli.main(["codebook", "--config", str(config_path), "--out", str(tmp_path / "a")]) == 0
    book = json.loads((tmp_path / "a" / "codebook.json").read_text())
    book["entries"][0][key] = value
    bad = tmp_path / "bad_book.json"
    bad.write_text(json.dumps(book))
    capsys.readouterr()
    out = tmp_path / "b"
    rc = cli.main(
        ["codebook", "--config", str(config_path), "--out", str(out), "--load-codebook", str(bad)]
    )
    assert rc == 2
    assert "is outside the scene" in capsys.readouterr().err
    assert not out.exists()


def _tracing():
    """perfbench/tracing.py, loaded from its path."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("command, spans", [
    ("codebook", ("codebook.generate", "codebook.evaluate_path", "codebook.lookup")),
    ("sweep", ("channel.tone_meter", "optimizer.greedy")),
    ("oracle-check", ("channel.derive_rng", "optimizer.greedy")),
], ids=["codebook", "sweep", "oracle-check"])
def test_traced_targets_resolve_and_runner_spans_fire(tmp_path, config_path, command, spans):
    # the benchmark tracer patches rissim by module and attribute name, so a
    # renamed or moved target would silently drop its spans; each runner the
    # benchmark traces must still run under it
    tracing = _tracing()
    for _, module, attr in tracing.FUNCTIONS:
        assert callable(getattr(importlib.import_module(module), attr)), (module, attr)
    for _, module, cls, attr in tracing.METHODS:
        assert attr in vars(getattr(importlib.import_module(module), cls)), (module, cls, attr)
    tracer = tracing.Tracer()
    with tracing.patched(tracer):
        rc = cli.main([command, "--config", str(config_path), "--out", str(tmp_path / "out")])
    assert rc == 0
    assert tracer.spans["experiments.runner"].calls == 1
    for name in spans:
        assert tracer.spans[name].calls > 0, name


@pytest.mark.parametrize("command", _COMMANDS)
def test_seed_outside_64_bits_exits_two(tmp_path, capsys, command):
    # every random stream keys the seed as one 64-bit word: -1 would rerun
    # 2**64 - 1, and 2**64 would rerun 0
    noisy = tmp_path / "noisy.json"  # SMALL's noiseless tone reads no power at 2**64 - 1
    noisy.write_text(json.dumps({**SMALL, "channel": {}}))
    out = tmp_path / "out"
    for seed in (-1, 2**64):
        keyed = tmp_path / "seed.json"
        keyed.write_text(json.dumps({**SMALL, "channel": {}, "seed": seed}))
        for args in (["--config", str(noisy), "--seed", str(seed)], ["--config", str(keyed)]):
            assert cli.main([command, *args, "--out", str(out)]) == 2
            assert capsys.readouterr().err == f"error: seed: must be in [0, 2**64), got {seed}\n"
            assert not out.exists()
    assert cli.main([command, "--config", str(noisy), "--seed", str(2**64 - 1), "--out", str(out)]) == 0
    assert f"seed={2**64 - 1}" in next(out.glob("*.csv")).read_text().splitlines()[0]


@pytest.mark.parametrize("command", _COMMANDS)
def test_out_that_cannot_be_a_directory_exits_two(tmp_path, capsys, config_path, command):
    blocker = tmp_path / "file"
    blocker.write_text("kept")
    for out in (blocker, blocker / "sub"):
        assert cli.main([command, "--config", str(config_path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: --out: {blocker} is not a directory\n"
    assert blocker.read_text() == "kept"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["file", "scenario.json"]
    # any other OSError while writing is one error: line too; every runner
    # writes a summary.json
    busy = tmp_path / "busy"
    (busy / "summary.json").mkdir(parents=True)
    assert cli.main([command, "--config", str(config_path), "--out", str(busy)]) == 2
    assert capsys.readouterr().err == f"error: [Errno 21] Is a directory: '{busy / 'summary.json'}'\n"


def _subcommands() -> dict:
    """build_parser()'s subparsers by name."""
    (sub,) = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return sub.choices


def test_readme_flags_name_the_parser_options():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    assert re.findall(r"^rissim ([\w-]+)", readme, re.M) == list(_subcommands())
    _, table, extra, *_ = readme.split("Common flags:", 1)[1].split("\n\n")
    common = set(re.findall(r"^\| `(--[\w-]+)", table, re.M))
    extras = re.findall(r"`([\w-]+)`\s+(?:additionally\s+)?takes\s+`(--[\w-]+)", extra)
    assert extras == [("codebook", "--load-codebook")]
    for name, parser in _subcommands().items():
        options = {o for a in parser._actions for o in a.option_strings if o.startswith("--") and o != "--help"}
        assert options == common | {flag for command, flag in extras if command == name}, name

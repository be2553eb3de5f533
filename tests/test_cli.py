import importlib
import importlib.util
import json
from pathlib import Path

import pytest

import rissim.cli as cli
from rissim.experiments import ExperimentAssertionError

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
    "oracle": {"nx": 2, "ny": 1, "num_states": 2, "instances": 2},
}


@pytest.fixture
def config_path(tmp_path):
    p = tmp_path / "scenario.json"
    p.write_text(json.dumps(SMALL))
    return p


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
    p = tmp_path / "bad_point.json"
    p.write_text(json.dumps({**SMALL, "sweep": {"points": [[200.0, 50.0]]}}))
    rc = cli.main(["sweep", "--config", str(p), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert (tmp_path / "out" / "results.csv").exists()
    captured = capsys.readouterr()
    assert "outside the scene" in captured.err
    assert "wrote" not in captured.out


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


def test_group_sizes_flag(tmp_path, config_path):
    rc = cli.main(
        [
            "grouping",
            "--config",
            str(config_path),
            "--group-sizes",
            "1,4",
            "--out",
            str(tmp_path / "g"),
        ]
    )
    assert rc == 0
    lines = (tmp_path / "g" / "grouping.csv").read_text().splitlines()
    sizes = [row.split(",")[1] for row in lines[2:]]
    assert sizes == ["1", "4"]
    assert cli.main(["grouping", "--group-sizes", "1,x", "--out", str(tmp_path / "g2")]) == 2
    assert cli.main(["grouping", "--group-sizes", "1,3", "--out", str(tmp_path / "g3")]) == 2


def test_assertion_failure_exits_three(tmp_path, config_path, monkeypatch):
    def boom(config, out, parallel=1):
        raise ExperimentAssertionError("forced")

    monkeypatch.setattr(cli, "run_oracle_check", boom)
    rc = cli.main(["oracle-check", "--config", str(config_path), "--out", str(tmp_path / "o")])
    assert rc == 3


def test_parser_requires_subcommand():
    with pytest.raises(SystemExit):
        cli.main([])


@pytest.mark.parametrize(
    "oracle, message",
    [
        ({"nx": 0}, "error: oracle layout: grid dimensions must be positive\n"),
        (
            {"nx": 4, "ny": 3},
            "error: oracle enumeration needs 16777216 measurements, above the cap of 1048576\n",
        ),
    ],
)
def test_bad_oracle_panel_exits_two(tmp_path, capsys, oracle, message):
    p = tmp_path / "bad_oracle.json"
    p.write_text(json.dumps({**SMALL, "oracle": oracle}))
    rc = cli.main(["oracle-check", "--config", str(p), "--out", str(tmp_path / "out")])
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
        ("codebook", {"codebook": {**SMALL["codebook"], "path": [[200.0, 50.0]]}}, "(200.0, 50.0)"),
        (
            "codebook",
            {"codebook": {**SMALL["codebook"], "reference_distance_cm": -5}},
            "(70.0, -5.0)",
        ),
        ("grouping", {"grouping": {**SMALL["grouping"], "angles_deg": [200]}}, "(200.0, 170.0)"),
        ("sweep", {"scene": {"tx_angle_deg": 200.0}}, "(200.0, 100.0)"),
        ("sweep", {"scene": {"tx_angle_deg": float("nan")}}, "(nan, 100.0)"),
        ("sweep", {"scene": {"tx_distance_cm": float("inf")}}, "(78.0, inf)"),
        (
            "codebook",
            {"codebook": {**SMALL["codebook"], "reference_distance_cm": float("inf")}},
            "(70.0, inf)",
        ),
    ],
)
def test_point_outside_scene_exits_two(tmp_path, capsys, command, section, message):
    p = tmp_path / "bad_point.json"
    p.write_text(json.dumps({**SMALL, **section}))
    rc = cli.main([command, "--config", str(p), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert capsys.readouterr().err == f"error: point {message} is outside the scene\n"
    assert not (tmp_path / "out").exists()


def test_repeated_group_sizes_flag_exits_two(tmp_path, capsys, config_path):
    rc = cli.main(
        ["grouping", "--config", str(config_path), "--group-sizes", "8,8", "--out", str(tmp_path / "g")]
    )
    assert rc == 2
    assert capsys.readouterr().err == "error: grouping sizes must not repeat: [8, 8]\n"
    assert not (tmp_path / "g").exists()


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_non_finite_noise_variance_exits_two(tmp_path, capsys, value):
    p = tmp_path / "bad_noise.json"
    # json writes these as NaN and Infinity, which json.loads reads back
    p.write_text(json.dumps({**SMALL, "channel": {"noise_variance": value}}))
    rc = cli.main(["sweep", "--config", str(p), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert capsys.readouterr().err == "error: noise_variance must be finite and non-negative\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "section, message",
    [
        (
            {"scene": {"half_beamwidth_deg": 95.0}},
            "half_beamwidth_deg must be in (0, 90) for the directional pattern",
        ),
        ({"scene": {"polarization": 2.0}}, "polarization must be in [0, 1]"),
        ({"ris": {"element_amplitude": 2.0}}, "element_amplitude must be in (0, 1]"),
        (
            {"layout": {**SMALL["layout"], "carrier_hz": float("nan")}},
            "carrier_hz must be finite and positive",
        ),
        ({"tone": {"tx_amplitude": float("inf")}}, "tx_amplitude must be finite and positive"),
        ({"receiver": {"full_scale": 0.0}}, "full_scale must be positive"),
        ({"receiver": {"full_scale": float("nan")}}, "full_scale nan gives no finite ADC code scale"),
        (
            {"scene": {"half_beamwidth_deg": 1e-320}},
            "half_beamwidth_deg 1e-320 is too narrow: its cosine rounds to 1",
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


_EMPTY_BOOK = {
    "schema_version": 1,
    "metadata": {"layout": {"nx": 4, "ny": 2, "spacing": 0.03, "disabled": [], "carrier_hz": 5.2e9}},
    "entries": [],
}


@pytest.mark.parametrize(
    "section, book, message",
    [
        (
            {"codebook": {**SMALL["codebook"], "reference_angles_deg": []}},
            None,
            "codebook reference angles must not be empty",
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


def test_infinite_sweep_point_is_a_per_point_error(tmp_path, capsys):
    p = tmp_path / "mixed_points.json"
    p.write_text(json.dumps({**SMALL, "sweep": {"points": [[70.0, 170.0], [90.0, float("inf")]]}}))
    rc = cli.main(["sweep", "--config", str(p), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "error: point [90.0, inf]: point (90.0, inf) is outside the scene" in capsys.readouterr().err
    assert len((tmp_path / "out" / "results.csv").read_text().splitlines()) == 3
    assert (tmp_path / "out" / "traces" / "sweep_a70_d170.csv").exists()


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


def test_traced_targets_resolve_and_codebook_spans_fire(tmp_path, config_path):
    # the benchmark tracer patches rissim by module and attribute name, so a
    # renamed or moved target would silently drop its spans
    tracing = _tracing()
    for _, module, attr in tracing.FUNCTIONS:
        assert callable(getattr(importlib.import_module(module), attr)), (module, attr)
    for _, module, cls, attr in tracing.METHODS:
        assert attr in vars(getattr(importlib.import_module(module), cls)), (module, cls, attr)
    tracer = tracing.Tracer()
    with tracing.patched(tracer):
        rc = cli.main(["codebook", "--config", str(config_path), "--out", str(tmp_path / "out")])
    assert rc == 0
    for name in ("codebook.generate", "codebook.evaluate_path", "codebook.lookup"):
        assert tracer.spans[name].calls > 0, name

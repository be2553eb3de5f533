import json

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
    "oracle": {"nx": 2, "ny": 1, "num_states": 2, "instances": 2, "cap": 1 << 20},
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
            {"nx": 3, "ny": 3, "cap": 1000},
            "error: oracle enumeration needs 262144 measurements, above oracle.cap 1000\n",
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

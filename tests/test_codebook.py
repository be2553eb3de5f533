import json

import numpy as np
import pytest

from rissim.channel import ChannelModelParams, ToneParams, synthesize_channels, TonePowerMeter
from rissim.codebook import (
    Codebook,
    CodebookEntry,
    SWITCH_TIME_MS,
    evaluate_path,
    generate_codebook,
    lookup_nearest,
)
from rissim.experiments import ScenarioConfig
from rissim.geometry import make_scene
from rissim.optimizer import greedy_iterative
from rissim.ris import RisConfig, RisLayout

LAY = RisLayout(nx=3, ny=2)
TONE = ToneParams(buffer_len=1000)
FS = 1.0


def _config(seed=2):
    """Noiseless on LAY with the default scene, 4 states and single-element groups."""
    return ScenarioConfig(seed=seed, layout=LAY, noise_variance=0.0, tone=TONE, full_scale=FS)


def _book(refs, seed=2):
    return generate_codebook(_config(seed), refs)


def test_generation_one_codeword_per_reference():
    refs = [(70.0, 170.0), (110.0, 170.0)]
    book = _book(refs)
    assert [(e.angle_deg, e.distance_cm) for e in book.entries] == refs
    assert book.layout == LAY
    config = _config()
    assert book.metadata == {"config_hash": config.config_hash(), "seed": 2, "layout": config.to_dict()["layout"]}


def test_codeword_matches_online_rerun_at_reference():
    # noiseless: replaying the greedy sweep at the training point must land
    # on the identical configuration and power
    book = _book([(70.0, 170.0)])
    scene = make_scene().with_rx_at(70.0, 170.0)
    chan = synthesize_channels(scene, LAY, ChannelModelParams(), 2)
    meter = TonePowerMeter(chan, TONE, full_scale=FS, noise_variance=0.0)
    online, trace = greedy_iterative(meter.readings, LAY)
    assert online == book.entries[0].config
    check = TonePowerMeter(chan, TONE, full_scale=FS, noise_variance=0.0)
    assert check(book.entries[0].config) == trace.final_power


def test_duplicate_references_rejected():
    cfg = RisConfig.all_off(LAY)
    with pytest.raises(ValueError):
        Codebook(
            (CodebookEntry(70.0, 170.0, cfg), CodebookEntry(70.0, 170.0, cfg))
        )


def test_mixed_layouts_rejected():
    a = RisConfig.all_off(LAY)
    b = RisConfig.all_off(RisLayout(nx=2, ny=2))
    with pytest.raises(ValueError):
        Codebook((CodebookEntry(70.0, 170.0, a), CodebookEntry(90.0, 170.0, b)))


def test_lookup_prefers_angle_then_distance_then_lower_angle():
    cfg = RisConfig.all_off(LAY)
    book = Codebook(
        tuple(CodebookEntry(a, 170.0, cfg) for a in (50.0, 70.0, 90.0, 110.0, 130.0, 145.0))
    )
    # equidistant in angle and in the plane: the lower reference angle wins
    assert lookup_nearest(book, 60.0, 170.0).angle_deg == 50.0
    assert lookup_nearest(book, 95.0, 220.0).angle_deg == 90.0
    # distance branch: same angle at two ranges
    book2 = Codebook(
        (CodebookEntry(90.0, 120.0, cfg), CodebookEntry(90.0, 220.0, cfg))
    )
    assert lookup_nearest(book2, 90.0, 200.0).distance_cm == 220.0


def test_lookup_empty_book():
    # an empty book cannot be built, so lookup never sees one
    with pytest.raises(ValueError, match="at least one codeword"):
        Codebook(())


def test_json_round_trip_is_byte_identical(tmp_path):
    book = _book([(70.0, 170.0), (110.0, 170.0)])
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    book.save(p1)
    Codebook.load(p1, _config()).save(p2)
    assert p1.read_bytes() == p2.read_bytes()
    reloaded = Codebook.load(p1, _config())
    assert reloaded.entries == book.entries
    assert reloaded.layout == LAY


def test_unknown_schema_rejected():
    with pytest.raises(ValueError):
        Codebook.from_json_dict({"schema_version": 99, "entries": []}, _config())


def test_path_evaluation_counts_switches_including_first_load():
    refs = [(70.0, 170.0), (110.0, 170.0)]
    book = _book(refs)
    # near A, near A again, over to B, back to A: three loads
    path = [(68.0, 165.0), (72.0, 175.0), (112.0, 170.0), (70.0, 180.0)]
    rows, switches = evaluate_path(book, path, _config())
    assert switches == 3
    assert switches * SWITCH_TIME_MS == pytest.approx(3.0)
    assert [r["codeword_angle"] for r in rows] == [70.0, 70.0, 110.0, 70.0]
    assert set(rows[0]) == {
        "x_cm", "y_cm", "angle_deg", "distance_cm",
        "p_off", "p_codebook", "p_online", "codeword_angle",
    }
    # planar coordinates follow the polar placement
    assert rows[0]["y_cm"] == pytest.approx(165.0 * np.sin(np.radians(68.0)))

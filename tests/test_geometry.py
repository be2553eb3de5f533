import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rissim.geometry import (
    UP,
    Scene,
    _frame,
    Terminal,
    antenna_gain,
    grid_point,
    los_blocked,
    make_scene,
)
from rissim.ris import RisLayout


def test_grid_point_trig():
    p = grid_point(90.0, 100.0)
    assert np.allclose(p, [0.0, 1.0, 0.0], atol=1e-12)
    p = grid_point(50.0, 200.0)
    assert p[0] == pytest.approx(2.0 * math.cos(math.radians(50.0)))
    assert p[1] == pytest.approx(2.0 * math.sin(math.radians(50.0)))
    assert p[2] == 0.0


@given(
    st.floats(1.0, 179.0),
    st.floats(10.0, 500.0),
)
@settings(max_examples=60, deadline=None)
def test_grid_point_distance_and_mirror(angle_deg, distance_cm):
    p = grid_point(angle_deg, distance_cm)
    assert np.linalg.norm(p) == pytest.approx(distance_cm / 100.0, rel=1e-12)
    q = grid_point(180.0 - angle_deg, distance_cm)
    assert q[0] == pytest.approx(-p[0], abs=1e-9)
    assert q[1] == pytest.approx(p[1], abs=1e-12)


def test_grid_point_rejects_nonpositive_distance():
    with pytest.raises(ValueError):
        grid_point(90.0, 0.0)


def test_antenna_gain_anchors():
    term = Terminal(np.array([0.0, 1.0, 0.0]), np.array([0.0, -1.0, 0.0]), 40.0)
    # boresight
    assert antenna_gain(term, np.array([0.0, -1.0, 0.0])) == pytest.approx(1.0)
    # half beamwidth off: -3 dB by construction
    d = np.array([math.sin(math.radians(40.0)), -math.cos(math.radians(40.0)), 0.0])
    assert antenna_gain(term, d) == pytest.approx(0.5, abs=1e-9)
    # side direction floors out
    assert antenna_gain(term, np.array([1.0, 0.0, 0.0])) <= 1e-3


def test_antenna_gain_monotone_off_boresight():
    term = Terminal(np.zeros(3), np.array([0.0, 1.0, 0.0]), 40.0)
    last = 2.0
    for deg in range(0, 91, 5):
        d = np.array([math.sin(math.radians(deg)), math.cos(math.radians(deg)), 0.0])
        g = antenna_gain(term, d)
        assert g <= last + 1e-12
        last = g


def test_terminal_validation():
    with pytest.raises(ValueError):
        Terminal(np.zeros(3), np.zeros(3))  # zero boresight
    with pytest.raises(ValueError):
        Terminal(np.zeros(3), np.array([0.0, 1.0, 0.0]), half_beamwidth_deg=90.0)
    with pytest.raises(ValueError):
        Terminal(np.zeros(3), np.array([0.0, 1.0, 0.0]), polarization=1.5)


def test_scene_terminals_face_the_surface():
    scene = make_scene(rx_angle_deg=70.0, rx_distance_cm=170.0)
    # both terminals on the reflective side (y > 0) and aimed at the center
    assert scene.tx.position[1] > 0 and scene.rx.position[1] > 0
    for term in (scene.tx, scene.rx):
        aim = -term.position / np.linalg.norm(term.position)
        assert np.allclose(term.boresight, aim, atol=1e-12)


def test_with_rx_at_keeps_beamwidth_and_polarization():
    scene = make_scene(half_beamwidth_deg=25.0, polarization=0.7)
    moved = scene.with_rx_at(130.0, 220.0)
    assert moved.rx.half_beamwidth_deg == 25.0
    assert moved.rx.polarization == 0.7
    assert np.allclose(moved.rx.position, grid_point(130.0, 220.0))
    assert np.allclose(moved.tx.position, scene.tx.position)


def test_element_positions_lie_in_surface_plane():
    scene = make_scene()
    lay = RisLayout.default()
    pos = scene.element_positions(lay)
    assert pos.shape == (76, 3)
    assert np.allclose(pos[:, 1], 0.0, atol=1e-12)  # surface plane y = 0
    span = pos[:, 0].max() - pos[:, 0].min()
    assert span == pytest.approx(9 * lay.spacing)


def test_los_blocked_cases():
    # default geometry: receiver well outside the transmit cone at 50 deg
    assert los_blocked(make_scene(rx_angle_deg=50.0, rx_distance_cm=170.0))
    # at 145 deg the direct path clears both cones
    assert not los_blocked(make_scene(rx_angle_deg=145.0, rx_distance_cm=170.0))
    # narrow beams kill the direct product even when geometry lines up
    assert los_blocked(
        make_scene(rx_angle_deg=145.0, rx_distance_cm=170.0, half_beamwidth_deg=5.0)
    )



def test_stored_frame_matches_recomputed_frame():
    # point_at and element_positions reuse the frame taken at construction;
    # it must equal _frame of the stored normal, which they used to
    # recompute. Re-normalizing a unit vector often moves its last bit, so
    # random tilted normals tell the two apart where round ones cannot.
    rng = np.random.default_rng(5)
    layout = RisLayout(nx=3, ny=2)
    off = layout.element_offsets()
    for _ in range(40):
        normal = rng.uniform(-1.0, 1.0, 3) * (3.0, 3.0, 0.3)
        bench = make_scene(ris_normal=normal)
        raw = Scene(bench.ris_center, normal, bench.tx, bench.rx)
        for scene in (raw, raw.with_rx_at(70.0, 170.0)):
            u, n = _frame(scene.ris_normal)
            angle, dist = rng.uniform(1.0, 179.0), rng.uniform(10.0, 500.0)
            a = math.radians(angle)
            expected = scene.ris_center + dist / 100.0 * (math.cos(a) * u + math.sin(a) * n)
            assert np.array_equal(scene.point_at(angle, dist), expected)
            expected = scene.ris_center + off[:, :1] * u + off[:, 1:] * UP
            assert np.array_equal(scene.element_positions(layout), expected)

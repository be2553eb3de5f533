import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rissim.geometry import (
    Scene,
    Terminal,
    direct_path,
    gains_toward,
    grid_point,
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


@pytest.mark.parametrize(
    "angle_deg,distance_cm",
    [(90.0, math.nan), (math.nan, 170.0), (90.0, math.inf), (90.0, 0.0), (0.0, 170.0), (180.0, 170.0)],
)
def test_out_of_scene_spot_raises_where_placed(angle_deg, distance_cm):
    # a spot outside the scene must fail when a horn is placed there, not
    # later as non-finite channel entries or a terminal behind the surface
    for place in (
        grid_point,
        make_scene,
        make_scene().with_rx_at,
        lambda a, d: make_scene(tx_angle_deg=a, tx_distance_cm=d),
    ):
        with pytest.raises(ValueError, match="outside the scene"):
            place(angle_deg, distance_cm)


@given(st.floats(0.5, 179.5), st.floats(1.0, 1000.0))
@settings(max_examples=100, deadline=None)
def test_make_scene_and_with_rx_at_place_rx_alike(angle_deg, distance_cm):
    built = make_scene(angle_deg, distance_cm).rx
    moved = make_scene().with_rx_at(angle_deg, distance_cm).rx
    assert built.position.tobytes() == moved.position.tobytes()
    assert built.boresight.tobytes() == moved.boresight.tobytes()
    assert built.position.tobytes() == grid_point(angle_deg, distance_cm).tobytes()


def test_antenna_gain_anchors():
    term = Terminal(np.array([0.0, 1.0, 0.0]), np.array([0.0, -1.0, 0.0]), 40.0)
    half = math.radians(40.0)
    # boresight; half beamwidth off, -3 dB by construction; a side direction, floored
    directions = np.array([[0.0, -1.0, 0.0], [math.sin(half), -math.cos(half), 0.0], [1.0, 0.0, 0.0]])
    on, edge, side = gains_toward(term, directions).tolist()
    assert on == pytest.approx(1.0)
    assert edge == pytest.approx(0.5, abs=1e-9)
    assert side <= 1e-3


def test_antenna_gain_monotone_off_boresight():
    term = Terminal(np.zeros(3), np.array([0.0, 1.0, 0.0]), 40.0)
    last = 2.0
    for deg in range(0, 91, 5):
        d = np.array([[math.sin(math.radians(deg)), math.cos(math.radians(deg)), 0.0]])
        g = float(gains_toward(term, d)[0])
        assert g <= last + 1e-12
        last = g


def test_terminal_validation():
    with pytest.raises(ValueError):
        Terminal(np.zeros(3), np.zeros(3))  # zero boresight
    with pytest.raises(ValueError):
        Terminal(np.zeros(3), np.array([0.0, 1.0, 0.0]), half_beamwidth_deg=90.0)
    with pytest.raises(ValueError):
        Terminal(np.zeros(3), np.array([0.0, 1.0, 0.0]), polarization=1.5)


@pytest.mark.parametrize(
    "position",
    [[math.nan, 1.0, 0.0], [0.0, math.inf, 0.0], [0.3, math.nan, 0.0], [0.0, 1.0], [[0.0, 1.0, 0.0]]],
)
def test_terminal_rejects_a_position_that_is_not_a_finite_3_vector(position):
    with pytest.raises(ValueError, match="position must be a finite 3-vector"):
        Terminal(np.array(position), np.array([0.0, -1.0, 0.0]))


@pytest.mark.parametrize("boresight", [[math.nan, 1.0, 0.0], [math.inf, 0.0, 0.0], [0.0, -math.inf, 0.0]])
def test_terminal_rejects_a_non_finite_boresight_without_warning(boresight):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="boresight must be finite and non-zero"):
            Terminal(np.array([0.0, 1.0, 0.0]), np.array(boresight))


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
    lay = RisLayout.default()
    pos = lay.element_positions()
    assert pos.shape == (76, 3)
    assert np.all(pos[:, 1] == 0.0)  # surface plane y = 0
    span = pos[:, 0].max() - pos[:, 0].min()
    assert span == pytest.approx(9 * lay.spacing)


def test_scene_rejects_terminal_off_the_reflective_side():
    scene = make_scene()
    for y in (-0.5, 0.0, 5e-10):
        rx = Terminal(np.array([0.3, y, 0.0]), scene.rx.boresight)
        with pytest.raises(ValueError, match="reflective side"):
            Scene(scene.tx, rx)


def test_scene_rejects_coinciding_terminals():
    with pytest.raises(ValueError, match="tx and rx coincide"):
        make_scene(78.0, 100.0, tx_angle_deg=78.0, tx_distance_cm=100.0)
    scene = make_scene()
    near = Terminal(scene.tx.position + np.array([1e-13, 0.0, 0.0]), scene.rx.boresight)
    with pytest.raises(ValueError, match="tx and rx coincide"):
        Scene(scene.tx, near)
    with pytest.raises(ValueError, match="tx and rx coincide"):
        scene.with_rx_at(78.0, 100.0)
    Scene(scene.tx, Terminal(scene.tx.position + np.array([1e-11, 0.0, 0.0]), scene.rx.boresight))


def test_direct_path_cases():
    # default geometry: receiver well outside the transmit cone at 50 deg
    assert direct_path(make_scene(rx_angle_deg=50.0, rx_distance_cm=170.0)) is None
    # at 145 deg the direct path clears both cones
    scene = make_scene(rx_angle_deg=145.0, rx_distance_cm=170.0)
    dist, product = direct_path(scene)
    assert dist == pytest.approx(np.linalg.norm(scene.rx.position - scene.tx.position))
    assert 1e-4 <= product <= 1.0
    # narrow beams kill the direct product even when geometry lines up
    assert (
        direct_path(make_scene(rx_angle_deg=145.0, rx_distance_cm=170.0, half_beamwidth_deg=5.0))
        is None
    )


import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rissim.ris import (
    GROUP_SIZES,
    RisConfig,
    RisLayout,
    controller_corner,
    from_bit_array,
    make_grouping,
    theta_diag,
    to_bit_array,
)


def test_default_layout_active_count():
    lay = RisLayout.default()
    assert lay.nx == 10 and lay.ny == 8
    assert lay.n_active == 76
    assert len(lay.disabled) == 4


def test_controller_corner_is_top_right():
    assert controller_corner(10, 8) == frozenset({(0, 8), (0, 9), (1, 8), (1, 9)})


def _cells_at_positions(lay):
    """(row, col) of each active element in state order, read back from its
    position: x grows with the column index, z falls with the row index."""
    pos = lay.element_positions()
    cols = np.rint(pos[:, 0] / lay.spacing + (lay.nx - 1) / 2.0).astype(int)
    rows = np.rint((lay.ny - 1) / 2.0 - pos[:, 2] / lay.spacing).astype(int)
    return tuple(zip(rows.tolist(), cols.tolist()))


def test_active_elements_row_major_skips_disabled():
    lay = RisLayout(nx=3, ny=2, disabled=frozenset({(0, 0)}))
    assert _cells_at_positions(lay) == ((0, 1), (0, 2), (1, 0), (1, 1), (1, 2))
    assert lay.n_active == 5


def test_default_spacing_is_half_wavelength():
    lay = RisLayout.default()
    assert lay.spacing == pytest.approx(lay.wavelength / 2.0)
    assert lay.wavelength == pytest.approx(0.0576523958, rel=1e-6)


def test_element_positions_centered_and_oriented():
    lay = RisLayout(nx=3, ny=3)
    pos = lay.element_positions()
    assert pos.shape == (9, 3)
    # grid centroid at the origin, every element in the y = 0 plane
    assert np.allclose(pos.mean(axis=0), 0.0)
    assert np.all(pos[:, 1] == 0.0)
    cells = [(r, c) for r in range(3) for c in range(3)]  # state order: row-major
    i_tl = cells.index((0, 0))  # top-left: leftmost column, highest row
    assert pos[i_tl, 0] < 0 and pos[i_tl, 2] > 0
    with pytest.raises(ValueError):
        pos[0, 0] = 1.0  # read-only


def test_layout_rejects_bad_disabled_cell():
    with pytest.raises(ValueError):
        RisLayout(nx=2, ny=2, disabled=frozenset({(5, 0)}))


def test_config_all_off_and_validation():
    lay = RisLayout.default()
    off = RisConfig.all_off(lay)
    assert off.states == (0,) * 76
    with pytest.raises(ValueError):
        RisConfig(lay, (0,) * 75)
    with pytest.raises(ValueError):
        RisConfig(lay, (0,) * 75 + (4,))


def test_config_stores_python_ints_from_numpy_states():
    lay = RisLayout(nx=4, ny=1)
    for states in (np.array([0, 1, 2, 3]), tuple(np.arange(4, dtype=np.int8))):
        config = RisConfig(lay, states)
        assert config.states == (0, 1, 2, 3)
        assert all(type(s) is int for s in config.states)


@pytest.mark.parametrize("bad", [-1, 4])
def test_config_rejects_out_of_range_state(bad):
    with pytest.raises(ValueError, match=r"^element states must be in 0\.\.3$"):
        RisConfig(RisLayout(nx=4, ny=1), (0, bad, 1, 2))


def test_config_rejects_wrong_length():
    with pytest.raises(ValueError, match=r"^expected 4 element states, got 3$"):
        RisConfig(RisLayout(nx=4, ny=1), (0, 1, 2))


def test_theta_diag_signs_follow_diode_bits():
    lay = RisLayout(nx=4, ny=1)
    config = RisConfig(lay, (0, 1, 2, 3))
    th = theta_diag(config, "H", 0.8)
    tv = theta_diag(config, "V", 0.8)
    # bit 0 flips H, bit 1 flips V
    assert np.allclose(th, [0.8, -0.8, 0.8, -0.8])
    assert np.allclose(tv, [0.8, 0.8, -0.8, -0.8])
    assert th.dtype == np.complex128
    with pytest.raises(ValueError):
        theta_diag(config, "X")
    with pytest.raises(ValueError):
        theta_diag(config, "H", 0.0)


def test_bit_array_layout_h_block_then_v_block():
    lay = RisLayout(nx=2, ny=1)
    config = RisConfig(lay, (1, 2))
    assert to_bit_array(config) == [True, False, False, True]


@given(st.lists(st.integers(0, 3), min_size=76, max_size=76))
@settings(max_examples=50, deadline=None)
def test_bit_array_round_trip(states):
    lay = RisLayout.default()
    config = RisConfig(lay, tuple(states))
    bits = to_bit_array(config)
    assert len(bits) == 152
    assert from_bit_array(lay, bits) == config


def test_from_bit_array_length_check():
    with pytest.raises(ValueError):
        from_bit_array(RisLayout.default(), [False] * 151)


@pytest.mark.parametrize("size,n_groups", [(1, 76), (2, 38), (4, 19), (8, 10)])
def test_grouping_counts_on_default_layout(size, n_groups):
    lay = RisLayout.default()
    groups = make_grouping(lay, size)
    assert len(groups) == n_groups
    # a partition: every active index exactly once
    flat = sorted(i for g in groups for i in g)
    assert flat == list(range(76))
    assert all(len(g) <= size for g in groups)
    assert all(list(g) == sorted(g) for g in groups)


def test_grouping_tiles_are_contiguous():
    lay = RisLayout(nx=4, ny=4)
    groups = make_grouping(lay, 4)  # 2x2 tiles
    cells = [(r, c) for r in range(4) for c in range(4)]  # state order: row-major
    for g in groups:
        rows = {cells[i][0] for i in g}
        cols = {cells[i][1] for i in g}
        assert len(rows) <= 2 and len(cols) <= 2


def test_grouping_rejects_unsupported_size():
    with pytest.raises(ValueError):
        make_grouping(RisLayout.default(), 3)
    assert GROUP_SIZES == (1, 2, 4, 8)


def test_grouping_is_built_once_per_layout_and_size():
    groups = make_grouping(RisLayout.default(), 4)
    assert make_grouping(RisLayout.default(), 4) is groups
    # keyed on the whole layout: the same grid with another disabled set or
    # pitch gets its own grouping, equal to one built afresh
    for lay in (RisLayout(), RisLayout(disabled=frozenset({(7, 0)})), RisLayout.default(), RisLayout(spacing=0.02)):
        for size in GROUP_SIZES:
            assert make_grouping(lay, size) == make_grouping.__wrapped__(lay, size)
    assert make_grouping(RisLayout(), 4) != groups

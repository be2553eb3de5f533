import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rissim import optimizer
from rissim.channel import ChannelModelParams, GainMeter, synthesize_channels
from rissim.geometry import make_scene
from rissim.optimizer import (
    BLOCK_ROWS,
    PowerTrace,
    TraceEntry,
    enumerate_readings,
    exhaustive_search,
    greedy_iterative,
    table_measure,
)
from rissim.ris import RisConfig, RisLayout, make_grouping


def _scripted(values):
    """Measurement stub returning the scripted values in call order."""
    it = iter(values)

    def measure(config):
        return next(it)

    return measure


def _per_row(measure, lay):
    """Block reader that measures each state row as a RisConfig."""

    def read(block):
        return [measure(RisConfig(lay, tuple(row))) for row in block.tolist()]

    return read


def _noiseless_meter(lay, seed):
    scene = make_scene(rx_angle_deg=70.0, rx_distance_cm=170.0)
    params = ChannelModelParams(noise_variance=0.0, seed=seed)
    return GainMeter(synthesize_channels(scene, lay, params))


# --- budgets and trace shape ------------------------------------------


@pytest.mark.parametrize("size,budget", [(1, 304), (2, 152), (4, 76), (8, 40)])
def test_measurement_budget_is_groups_times_states(size, budget):
    lay = RisLayout.default()
    measure = _scripted(range(budget))
    _, trace = greedy_iterative(measure, lay, 4, size)
    assert trace.measurement_count == budget


def test_two_state_budget_halves():
    lay = RisLayout(nx=3, ny=2)
    seen = []

    def measure(config):
        seen.append(config.states)
        return float(len(seen))

    _, trace = greedy_iterative(measure, lay, num_states=2)
    assert trace.measurement_count == 12
    assert all(s in (0, 1) for states in seen for s in states)


def test_single_element_keeps_argmax_state():
    lay = RisLayout(nx=1, ny=1)
    final, trace = greedy_iterative(_scripted([5.0, 3.0, 9.0, 4.0]), lay)
    assert final.states == (2,)
    assert [e.p_r_dbfs for e in trace.entries] == [5.0, 3.0, 9.0, 4.0]
    assert [e.p_max_dbfs for e in trace.entries] == [5.0, 5.0, 9.0, 9.0]
    assert trace.final_power == 9.0


def test_ties_keep_the_earlier_state():
    lay = RisLayout(nx=1, ny=1)
    final, trace = greedy_iterative(_scripted([5.0, 5.0, 5.0, 5.0]), lay)
    assert final.states == (0,)
    assert trace.final_power == 5.0


def test_first_measurement_is_all_off():
    lay = RisLayout(nx=2, ny=2)
    seen = []

    def measure(config):
        seen.append(config.states)
        return float(-len(seen))

    final, _ = greedy_iterative(measure, lay)
    assert seen[0] == (0, 0, 0, 0)
    # every later value is lower, so nothing ever beats the first one
    assert final.states == (0, 0, 0, 0)


def test_group_members_move_together():
    lay = RisLayout.default()
    groups = make_grouping(lay, 4)
    cells = {}

    def measure(config):
        for g in groups:
            states = {config.states[i] for i in g}
            assert len(states) == 1  # whole tile shares one state
        cells[len(cells)] = config.states
        return float(len(cells))

    greedy_iterative(measure, lay, 4, 4)


def test_unsupported_group_size_rejected_before_any_measurement():
    lay = RisLayout(nx=2, ny=1)
    seen = []

    def measure(config):
        seen.append(config)
        return 0.0

    with pytest.raises(ValueError, match="group_size"):
        greedy_iterative(measure, lay, group_size=3)
    assert seen == []


def test_trace_rejects_decreasing_running_max():
    with pytest.raises(ValueError):
        PowerTrace((TraceEntry(1, 0, 0, 5.0, 5.0), TraceEntry(2, 0, 1, 3.0, 3.0)))
    with pytest.raises(ValueError):
        PowerTrace(()).final_power


# --- exhaustive search -------------------------------------------------


def test_exhaustive_enumerates_lexicographically():
    lay = RisLayout(nx=2, ny=1)
    seen = []

    def measure(config):
        seen.append(config.states)
        return 0.0

    best, reading = exhaustive_search(_per_row(measure, lay), lay)
    assert seen == list(itertools.product(range(4), repeat=2))
    assert best.states == (0, 0)  # all tie, lowest tuple wins
    assert reading == 0.0


def test_exhaustive_cap_message():
    lay = RisLayout(nx=4, ny=3)
    with pytest.raises(ValueError, match=r"16777216 measurements, above the cap of 1048576"):
        exhaustive_search(_per_row(_scripted([]), lay), lay)


def test_exhaustive_keeps_first_config_when_all_readings_are_minus_inf():
    lay = RisLayout(nx=2, ny=1)
    rows = []

    def read(block):
        rows.extend(block.tolist())
        return [float("-inf")] * len(block)

    best, reading = exhaustive_search(read, lay)
    assert best == RisConfig.all_off(lay)
    assert len(rows) == 16
    assert reading == float("-inf")


def test_exhaustive_reads_blocks_in_order_across_block_boundaries():
    lay = RisLayout(nx=3, ny=3)  # 4**9 = 262,144 rows, four blocks
    blocks = []

    def read(block):
        blocks.append(block.copy())
        # 2 first at (1, 0, ..., 0, 3) in the second block, again in later ones
        return np.minimum(block[:, 0], 1) + (block[:, 8] == 3)

    best, reading = exhaustive_search(read, lay)
    assert all(len(b) <= BLOCK_ROWS == 65_536 for b in blocks)
    assert len(blocks) == 4
    rows = np.concatenate(blocks)
    assert np.array_equal(rows, np.indices((4,) * 9).reshape(9, -1).T)
    assert [tuple(b[0]) for b in blocks] == [(k,) + (0,) * 8 for k in range(4)]
    # the first maximum is row 65,536 + 3; later blocks tie it
    assert best.states == (1, 0, 0, 0, 0, 0, 0, 0, 3)
    assert reading == 2.0


@pytest.mark.parametrize("short", [1, -1])
def test_exhaustive_rejects_a_reader_with_the_wrong_reading_count(short):
    lay = RisLayout(nx=2, ny=1)

    def read(block):
        return [0.0] * (len(block) - short)

    with pytest.raises(ValueError, match="readings for 16 configurations"):
        exhaustive_search(read, lay)


# few distinct values, so ties are common; -inf first, so shrinking finds
# the all -inf case
_READING_VALUES = [float("-inf"), float("nan"), -3.5, -0.0, 0.0, 1.25, 7.0]


def _first_max(values):
    """The exhaustive search's contract written as one loop: the index and
    value of the first strict running maximum, row 0 if none beats -inf."""
    best, p_max = 0, float("-inf")
    for i, p in enumerate(values):
        if p > p_max:
            best, p_max = i, p
    return best, p_max


@given(
    shape=st.sampled_from([(1, 1), (2, 1), (3, 1), (2, 2)]),
    num_states=st.integers(2, 4),
    block_rows=st.integers(1, 40),
    as_list=st.booleans(),
    data=st.data(),
)
@settings(max_examples=150, deadline=None)
def test_exhaustive_keeps_the_first_maximum_across_blocks(shape, num_states, block_rows, as_list, data):
    lay = RisLayout(*shape)
    n = lay.n_active
    budget = num_states**n
    values = data.draw(st.lists(st.sampled_from(_READING_VALUES), min_size=budget, max_size=budget))
    weights = num_states ** np.arange(n - 1, -1, -1)
    blocks = []

    def read(block):
        blocks.append(len(block))
        readings = np.array(values)[block @ weights]
        return readings.tolist() if as_list else readings

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(optimizer, "BLOCK_ROWS", block_rows)
        best, reading = exhaustive_search(read, lay, num_states)
    index, expected = _first_max(values)
    assert sum(blocks) == budget and max(blocks) <= block_rows
    assert best.states == list(itertools.product(range(num_states), repeat=n))[index]
    assert type(reading) is float
    assert not math.isnan(reading)
    # bit for bit, so -0.0 and 0.0 stay apart
    assert np.float64(reading).tobytes() == np.float64(expected).tobytes()


# --- the readings table and greedy's replay ----------------------------


@given(
    shape=st.sampled_from([(1, 1), (2, 1), (3, 1), (2, 2)]),
    num_states=st.integers(2, 4),
    block_rows=st.integers(1, 40),
    as_list=st.booleans(),
    seed=st.integers(0, 2**31),
)
@settings(max_examples=60, deadline=None)
def test_enumerate_readings_equals_per_row_reads_in_lexicographic_order(
    shape, num_states, block_rows, as_list, seed
):
    lay = RisLayout(*shape)
    rng = np.random.default_rng(seed)
    values = {}

    def measure(config):
        return values.setdefault(config.states, float(rng.normal()))

    def read(block):
        readings = np.array(_per_row(measure, lay)(block))
        return readings.tolist() if as_list else readings

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(optimizer, "BLOCK_ROWS", block_rows)
        table = enumerate_readings(read, lay, num_states)
    rows = list(itertools.product(range(num_states), repeat=lay.n_active))
    assert table.dtype == np.float64
    assert list(values) == rows
    assert table.tolist() == [values[row] for row in rows]


@pytest.mark.parametrize("nx,ny", [(1, 1), (2, 1), (3, 1), (2, 2), (3, 2)])
@pytest.mark.parametrize("num_states", [2, 3, 4])
@pytest.mark.parametrize("size", [1, 2, 4])
def test_greedy_replayed_from_the_table_equals_greedy_on_the_meter(nx, ny, num_states, size):
    lay = RisLayout(nx=nx, ny=ny)
    for seed in range(3):
        meter = _noiseless_meter(lay, seed)
        table = enumerate_readings(meter.readings, lay, num_states)
        replayed = greedy_iterative(table_measure(table, lay, num_states), lay, num_states, size)
        assert replayed == greedy_iterative(meter, lay, num_states, size)


def test_table_measure_refuses_a_table_or_configuration_of_another_shape():
    lay = RisLayout(nx=2, ny=1)
    with pytest.raises(ValueError, match="one reading per configuration"):
        table_measure(np.zeros(16), lay, 3)
    measure = table_measure(np.arange(9.0), lay, 3)
    assert measure(RisConfig(lay, (2, 1))) == 7.0
    for config in (RisConfig(lay, (0, 3)), RisConfig(RisLayout(nx=1, ny=1), (2,))):
        with pytest.raises(ValueError, match="no row in the table"):
            measure(config)


# --- dominance on real channels ----------------------------------------


@pytest.mark.parametrize("nx,ny", [(1, 1), (2, 1), (2, 2), (3, 2)])
def test_exhaustive_dominates_greedy(nx, ny):
    lay = RisLayout(nx=nx, ny=ny)
    for seed in range(8):
        m1, m2 = _noiseless_meter(lay, seed), _noiseless_meter(lay, seed)
        _, oracle_db = exhaustive_search(m1.readings, lay)
        _, gtrace = greedy_iterative(m2, lay)
        gap = oracle_db - gtrace.final_power
        assert gap >= 0.0
        if lay.n_active == 1:
            assert gap == 0.0


@given(st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_greedy_never_beats_exhaustive_on_random_quadratics(seed):
    # synthetic separable-ish objective: |w . theta|^2 with random complex w
    rng = np.random.default_rng(seed)
    lay = RisLayout(nx=3, ny=1)
    w = rng.standard_normal(3) + 1j * rng.standard_normal(3)

    def measure(config):
        signs = np.array([1 - 2 * (s & 1) for s in config.states])
        return float(np.abs(np.sum(w * signs)) ** 2)

    _, oracle_db = exhaustive_search(_per_row(measure, lay), lay, num_states=2)
    _, gtrace = greedy_iterative(measure, lay, num_states=2)
    assert oracle_db >= gtrace.final_power - 1e-12


# --- search candidates built without RisConfig's checks ----------------


@given(
    st.integers(1, 3),
    st.integers(1, 2),
    st.integers(2, 4),
    st.sampled_from([1, 2, 4, 8]),
    st.integers(0, 2**31),
)
@settings(max_examples=60, deadline=None)
def test_search_candidates_pass_risconfig_validation(nx, ny, num_states, size, seed):
    lay = RisLayout(nx=nx, ny=ny)
    rng = np.random.default_rng(seed)
    seen = []

    def measure(config):
        rebuilt = RisConfig(lay, config.states)
        assert rebuilt == config
        assert type(config.states) is tuple
        assert all(type(s) is int for s in config.states)
        seen.append(config)
        return float(rng.normal())

    _, trace = greedy_iterative(measure, lay, num_states, size)
    assert len(seen) == trace.measurement_count
    seen.clear()
    best, _ = exhaustive_search(_per_row(measure, lay), lay, num_states)
    assert len(seen) == num_states**lay.n_active
    assert best in seen
    # the winner is built without RisConfig's checks
    assert RisConfig(lay, best.states) == best
    assert type(best.states) is tuple
    assert all(type(s) is int for s in best.states)


def test_trace_entry_fields_are_fixed_and_read_only():
    e = TraceEntry(3, 1, 2, -4.5, -4.0)
    assert TraceEntry._fields == (
        "measurement_index",
        "group_index",
        "candidate_state",
        "p_r_dbfs",
        "p_max_dbfs",
    )
    assert tuple(e) == (3, 1, 2, -4.5, -4.0)
    with pytest.raises(AttributeError):
        e.p_max_dbfs = 0.0

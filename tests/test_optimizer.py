import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rissim import optimizer
from rissim.channel import ChannelModelParams, GainMeter, derive_seed, link, synthesize_channels
from rissim.experiments import ScenarioConfig
from rissim.geometry import make_scene
from rissim.optimizer import (
    READ_BUDGET,
    PowerTrace,
    TraceEntry,
    enumerate_readings,
    enumeration_size,
    exhaustive_search,
    greedy_iterative,
    table_reader,
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
    return GainMeter(synthesize_channels(scene, lay, ChannelModelParams(), seed))


# --- budgets and trace shape ------------------------------------------


@pytest.mark.parametrize("size,budget", [(1, 304), (2, 152), (4, 76), (8, 40)])
def test_measurement_budget_is_groups_times_states(size, budget):
    lay = RisLayout.default()
    measure = _scripted(range(budget))
    _, trace = greedy_iterative(_per_row(measure, lay), lay, 4, size)
    assert trace.measurement_count == budget


def test_two_state_budget_halves():
    lay = RisLayout(nx=3, ny=2)
    seen = []

    def measure(config):
        seen.append(config.states)
        return float(len(seen))

    _, trace = greedy_iterative(_per_row(measure, lay), lay, num_states=2)
    assert trace.measurement_count == 12
    assert all(s in (0, 1) for states in seen for s in states)


def test_single_element_keeps_argmax_state():
    lay = RisLayout(nx=1, ny=1)
    final, trace = greedy_iterative(_per_row(_scripted([5.0, 3.0, 9.0, 4.0]), lay), lay)
    assert final.states == (2,)
    assert [e.p_r_dbfs for e in trace.entries] == [5.0, 3.0, 9.0, 4.0]
    assert [e.p_max_dbfs for e in trace.entries] == [5.0, 5.0, 9.0, 9.0]
    assert trace.final_power == 9.0


def test_ties_keep_the_earlier_state():
    lay = RisLayout(nx=1, ny=1)
    final, trace = greedy_iterative(_per_row(_scripted([5.0, 5.0, 5.0, 5.0]), lay), lay)
    assert final.states == (0,)
    assert trace.final_power == 5.0


def test_first_measurement_is_all_off():
    lay = RisLayout(nx=2, ny=2)
    seen = []

    def measure(config):
        seen.append(config.states)
        return float(-len(seen))

    final, _ = greedy_iterative(_per_row(measure, lay), lay)
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

    greedy_iterative(_per_row(measure, lay), lay, 4, 4)


def test_unsupported_group_size_rejected_before_any_measurement():
    lay = RisLayout(nx=2, ny=1)
    seen = []

    def measure(config):
        seen.append(config)
        return 0.0

    with pytest.raises(ValueError, match="group_size"):
        greedy_iterative(_per_row(measure, lay), lay, group_size=3)
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
    with pytest.raises(ValueError, match=r"enumeration needs 4\*\*12 measurements, above the cap of 4096$"):
        exhaustive_search(_per_row(_scripted([]), lay), lay)


def test_enumeration_size_is_the_one_cap_rule():
    assert READ_BUDGET == 4096
    assert enumeration_size(4, 4) == 256
    assert enumeration_size(6, 3) == 729
    assert enumeration_size(6, 4) == enumeration_size(12, 2) == READ_BUDGET
    # 16,384, 6,561 and 8,192 configurations
    for n, num_states in [(7, 4), (8, 3), (13, 2)]:
        message = rf"^enumeration needs {num_states}\*\*{n} measurements, above the cap of 4096$"
        with pytest.raises(ValueError, match=message):
            enumeration_size(n, num_states)
    # an exponent past the cap's bit length fails before the power is taken
    with pytest.raises(ValueError, match=r"^enumeration needs 2\*\*1000000000000000000 measurements"):
        enumeration_size(10**18, 2)
    for num_states in (1, 5):
        with pytest.raises(ValueError, match=r"num_states must be in 2\.\.4"):
            enumeration_size(2, num_states)


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
    as_list=st.booleans(),
    data=st.data(),
)
@settings(max_examples=150, deadline=None)
def test_exhaustive_keeps_the_first_maximum(shape, num_states, as_list, data):
    lay = RisLayout(*shape)
    n = lay.n_active
    budget = num_states**n
    values = data.draw(st.lists(st.sampled_from(_READING_VALUES), min_size=budget, max_size=budget))
    weights = num_states ** np.arange(n - 1, -1, -1)
    reads = []

    def read(block):
        reads.append(len(block))
        readings = np.array(values)[block @ weights]
        return readings.tolist() if as_list else readings

    best, reading = exhaustive_search(read, lay, num_states)
    index, expected = _first_max(values)
    assert reads == [budget]
    assert best.states == list(itertools.product(range(num_states), repeat=n))[index]
    assert type(reading) is float
    assert not math.isnan(reading)
    # bit for bit, so -0.0 and 0.0 stay apart
    assert np.float64(reading).tobytes() == np.float64(expected).tobytes()


def test_exhaustive_leaves_a_nan_in_the_readers_own_array():
    lay = RisLayout(nx=2, ny=1)
    stored = np.arange(16.0)
    stored[[0, 15]] = np.nan

    best, reading = exhaustive_search(lambda states: stored, lay)
    assert best.states == (3, 2)
    assert reading == 14.0
    assert np.isnan(stored[[0, 15]]).all()
    assert np.array_equal(stored[1:15], np.arange(1.0, 15.0))


# --- the readings table and greedy's replay ----------------------------


def test_enumerate_readings_reads_the_default_stack_and_the_3x2_panel_at_once():
    # the default oracle's first stack of 16 2x2 instances, and criterion 2's
    # largest panel, 4**6 = READ_BUDGET configurations
    cfg = ScenarioConfig()
    oracle = cfg.oracle_layout()
    stack = READ_BUDGET // 4**oracle.n_active
    seeds = [derive_seed(cfg.seed, "oracle", i) for i in range(stack)]
    for lay, meter, shape in [
        (oracle, GainMeter(link(cfg.base_scene(), oracle, cfg.channel).draw_stack(seeds)), (stack, 4**4)),
        (RisLayout(nx=3, ny=2), _noiseless_meter(RisLayout(nx=3, ny=2), 0), (READ_BUDGET,)),
    ]:
        reads = []

        def read(states):
            reads.append(states.shape)
            return meter.readings(states)

        table = enumerate_readings(read, lay)
        assert reads == [(shape[-1], lay.n_active)]
        assert table.shape == shape


@given(
    shape=st.sampled_from([(1, 1), (2, 1), (3, 1), (2, 2)]),
    num_states=st.integers(2, 4),
    as_list=st.booleans(),
    seed=st.integers(0, 2**31),
)
@settings(max_examples=60, deadline=None)
def test_enumerate_readings_equals_per_row_reads_in_lexicographic_order(shape, num_states, as_list, seed):
    lay = RisLayout(*shape)
    rng = np.random.default_rng(seed)
    values = {}

    def measure(config):
        return values.setdefault(config.states, float(rng.normal()))

    def read(block):
        readings = np.array(_per_row(measure, lay)(block))
        return readings.tolist() if as_list else readings

    table = enumerate_readings(read, lay, num_states)
    rows = list(itertools.product(range(num_states), repeat=lay.n_active))
    assert table.dtype == np.float64
    assert list(values) == rows
    assert table.tolist() == [values[row] for row in rows]


def test_state_blocks_are_built_once_read_only_and_keyed_on_their_shape():
    block = optimizer._product_block(2, 4)
    assert optimizer._product_block(2, 4) is block
    with pytest.raises(ValueError, match="read-only"):
        block[0, 0] = 1
    # enumerations of interleaved (n, num_states) pairs read the blocks the
    # cache holds, which must equal blocks built afresh, and the readings of
    # state matrices built without the cache
    for nx, ny, num_states in [(2, 1, 4), (3, 1, 2), (2, 1, 3), (3, 1, 2), (2, 1, 4), (2, 2, 3), (2, 1, 3)]:
        lay = RisLayout(nx=nx, ny=ny)
        n = lay.n_active
        fresh = optimizer._product_block.__wrapped__(n, num_states)
        assert np.array_equal(optimizer._product_block(n, num_states), fresh)
        meter = _noiseless_meter(lay, nx + num_states)
        rows = np.array(list(itertools.product(range(num_states), repeat=n)))
        table = enumerate_readings(meter.readings, lay, num_states)
        assert table.tobytes() == meter.readings(rows).tobytes()


@pytest.mark.parametrize("nx,ny", [(1, 1), (2, 1), (3, 1), (2, 2), (3, 2)])
@pytest.mark.parametrize("num_states", [2, 3, 4])
@pytest.mark.parametrize("size", [1, 2, 4])
def test_greedy_replayed_from_the_table_equals_greedy_on_the_meter(nx, ny, num_states, size):
    lay = RisLayout(nx=nx, ny=ny)
    for seed in range(3):
        meter = _noiseless_meter(lay, seed)
        table = enumerate_readings(meter.readings, lay, num_states)
        replayed = greedy_iterative(table_reader(table, lay, num_states), lay, num_states, size)
        assert replayed == greedy_iterative(meter.readings, lay, num_states, size)


def test_table_reader_refuses_a_table_or_state_row_of_another_shape():
    lay = RisLayout(nx=2, ny=1)
    with pytest.raises(ValueError, match="one reading per configuration"):
        table_reader(np.zeros(16), lay, 3)
    read = table_reader(np.arange(9.0), lay, 3)
    assert read(np.array([[2, 1], [0, 2]])).tolist() == [7.0, 2.0]
    # a state past num_states, a row of another width or a negative state
    # would read a neighbouring row
    for rows in ([[0, 3]], [[2]], [[0, 1, 2]], [[1, -1]]):
        with pytest.raises(ValueError):
            read(np.array(rows))


@pytest.mark.parametrize("short", [1, -1])
def test_greedy_rejects_a_reader_with_the_wrong_reading_count(short):
    lay = RisLayout(nx=2, ny=1)

    def read(block):
        return [0.0] * (len(block) - short)

    with pytest.raises(ValueError, match="readings for 4 configurations"):
        greedy_iterative(read, lay)


# --- block greedy against the per-configuration loop ---------------------


def _greedy_per_configuration(measure, layout, num_states, group_size):
    """The greedy sweep as one measure(RisConfig) call per candidate, the
    loop greedy_iterative's block reads must reproduce reading for reading."""
    states = [0] * layout.n_active
    entries, p_max = [], float("-inf")
    for gi, group in enumerate(make_grouping(layout, group_size)):
        best_state = states[group[0]]
        for s in range(num_states):
            for i in group:
                states[i] = s
            p = float(measure(RisConfig(layout, tuple(states))))
            if p > p_max:
                p_max, best_state = p, s
            entries.append(TraceEntry(len(entries) + 1, gi, s, p, p_max))
        for i in group:
            states[i] = best_state
    return RisConfig(layout, tuple(states)), PowerTrace(tuple(entries))


def _assert_same_sweep(block, reference):
    (final, trace), (ref_final, ref_trace) = block, reference
    assert final == ref_final
    assert trace.entries == ref_trace.entries
    # bit for bit, so -0.0 and 0.0 would stay apart
    assert np.array(trace.entries).tobytes() == np.array(ref_trace.entries).tobytes()


@given(
    angle=st.floats(20.0, 160.0),
    seed=st.integers(0, 2**31),
    size=st.sampled_from([1, 2, 4, 8]),
    num_states=st.integers(2, 4),
)
@settings(max_examples=40, deadline=None)
def test_block_greedy_equals_the_per_configuration_loop_on_gain_meters(angle, seed, size, num_states):
    lay = RisLayout.default()
    chan = synthesize_channels(make_scene(rx_angle_deg=angle, rx_distance_cm=170.0), lay, ChannelModelParams(), seed)
    meter, twin = GainMeter(chan), GainMeter(chan)
    block = greedy_iterative(meter.readings, lay, num_states, size)
    _assert_same_sweep(block, _greedy_per_configuration(twin, lay, num_states, size))
    assert meter.calls == twin.calls == block[1].measurement_count


@pytest.mark.parametrize("size", [1, 2, 4, 8])
def test_block_greedy_equals_the_per_configuration_loop_on_noisy_tone_meters(size):
    cfg = ScenarioConfig(seed=3)
    chan = cfg.channel_at(70.0, 170.0)
    meter, twin = cfg.meter(chan, "sweep", 0), cfg.meter(chan, "sweep", 0)
    assert meter(RisConfig.all_off(cfg.layout)) == twin(RisConfig.all_off(cfg.layout))
    block = greedy_iterative(meter.readings, cfg.layout, 4, size)
    _assert_same_sweep(block, _greedy_per_configuration(twin, cfg.layout, 4, size))
    assert meter.calls == twin.calls == 1 + block[1].measurement_count


# --- dominance on real channels ----------------------------------------


@pytest.mark.parametrize("nx,ny", [(1, 1), (2, 1), (2, 2), (3, 2)])
def test_exhaustive_dominates_greedy(nx, ny):
    lay = RisLayout(nx=nx, ny=ny)
    for seed in range(8):
        m1, m2 = _noiseless_meter(lay, seed), _noiseless_meter(lay, seed)
        _, oracle_db = exhaustive_search(m1.readings, lay)
        _, gtrace = greedy_iterative(m2.readings, lay)
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
    _, gtrace = greedy_iterative(_per_row(measure, lay), lay, num_states=2)
    assert oracle_db >= gtrace.final_power - 1e-12


# --- search candidates and results are valid RisConfigs ----------------


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

    _, trace = greedy_iterative(_per_row(measure, lay), lay, num_states, size)
    assert len(seen) == trace.measurement_count
    seen.clear()
    best, _ = exhaustive_search(_per_row(measure, lay), lay, num_states)
    assert len(seen) == num_states**lay.n_active
    assert best in seen
    # the winner is a RisConfig of Python ints
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

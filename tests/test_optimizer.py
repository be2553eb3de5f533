import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rissim.channel import ChannelModelParams, GainMeter, synthesize_channels
from rissim.geometry import make_scene
from rissim.optimizer import (
    PowerTrace,
    TraceEntry,
    exhaustive_search,
    greedy_iterative,
)
from rissim.ris import GroupingScheme, RisConfig, RisLayout, make_grouping


def _scripted(values):
    """Measurement stub returning the scripted values in call order."""
    it = iter(values)

    def measure(config):
        return next(it)

    return measure


def _noiseless_meter(lay, seed):
    scene = make_scene(rx_angle_deg=70.0, rx_distance_cm=170.0)
    params = ChannelModelParams(noise_variance=0.0, seed=seed)
    return GainMeter(synthesize_channels(scene, lay, params))


# --- budgets and trace shape ------------------------------------------


@pytest.mark.parametrize("size,budget", [(1, 304), (2, 152), (4, 76), (8, 40)])
def test_measurement_budget_is_groups_times_states(size, budget):
    lay = RisLayout.default()
    measure = _scripted(range(budget))
    _, trace = greedy_iterative(measure, lay, 4, make_grouping(lay, size))
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
    assert trace.final_config == final


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
    grouping = make_grouping(lay, 4)
    cells = {}

    def measure(config):
        for g in grouping.groups:
            states = {config.states[i] for i in g}
            assert len(states) == 1  # whole tile shares one state
        cells[len(cells)] = config.states
        return float(len(cells))

    greedy_iterative(measure, lay, 4, grouping)


def test_non_partition_grouping_rejected():
    lay = RisLayout(nx=2, ny=1)
    partial = GroupingScheme(1, ((0,),))
    with pytest.raises(ValueError):
        greedy_iterative(_scripted(range(4)), lay, grouping=partial)


def test_trace_rejects_decreasing_running_max():
    lay = RisLayout(nx=1, ny=1)
    cfg = RisConfig.all_off(lay)
    with pytest.raises(ValueError):
        PowerTrace(
            (TraceEntry(1, 0, 0, 5.0, 5.0), TraceEntry(2, 0, 1, 3.0, 3.0)), cfg
        )
    with pytest.raises(ValueError):
        PowerTrace((), cfg).final_power


# --- exhaustive search -------------------------------------------------


def test_exhaustive_enumerates_lexicographically():
    lay = RisLayout(nx=2, ny=1)
    seen = []

    def measure(config):
        seen.append(config.states)
        return 0.0

    best, trace = exhaustive_search(measure, lay)
    assert seen == list(itertools.product(range(4), repeat=2))
    assert trace.measurement_count == 16
    assert best.states == (0, 0)  # all tie, lowest tuple wins


def test_exhaustive_cap_message():
    lay = RisLayout(nx=4, ny=3)
    with pytest.raises(ValueError, match=r"16777216 measurements, above the cap of 1048576"):
        exhaustive_search(_scripted([]), lay)


def test_exhaustive_keeps_first_config_when_all_readings_are_minus_inf():
    lay = RisLayout(nx=2, ny=1)
    best, trace = exhaustive_search(lambda config: float("-inf"), lay)
    assert best == RisConfig.all_off(lay)
    assert trace.final_config == best
    assert trace.measurement_count == 16
    assert trace.final_power == float("-inf")


# --- dominance on real channels ----------------------------------------


@pytest.mark.parametrize("nx,ny", [(1, 1), (2, 1), (2, 2), (3, 2)])
def test_exhaustive_dominates_greedy(nx, ny):
    lay = RisLayout(nx=nx, ny=ny)
    for seed in range(8):
        m1, m2 = _noiseless_meter(lay, seed), _noiseless_meter(lay, seed)
        _, etrace = exhaustive_search(m1, lay)
        _, gtrace = greedy_iterative(m2, lay)
        gap = etrace.final_power - gtrace.final_power
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

    _, etrace = exhaustive_search(measure, lay, num_states=2)
    _, gtrace = greedy_iterative(measure, lay, num_states=2)
    assert etrace.final_power >= gtrace.final_power - 1e-12


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

    _, trace = greedy_iterative(measure, lay, num_states, make_grouping(lay, size))
    assert len(seen) == trace.measurement_count
    seen.clear()
    best, trace = exhaustive_search(measure, lay, num_states)
    assert len(seen) == num_states**lay.n_active == trace.measurement_count
    assert best in seen


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

"""Greedy per-group state search, the exhaustive oracle, and power traces.

Both searches only see an abstract measurement function (configuration in,
dB power out), so the same code drives analytic gains, the full simulated
receiver chain, or test stubs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, NamedTuple

from .ris import GroupingScheme, NUM_ELEMENT_STATES, RisConfig, RisLayout, _unchecked_config, make_grouping

MeasureFn = Callable[[RisConfig], float]

DEFAULT_ENUMERATION_CAP = 2**20


class TraceEntry(NamedTuple):
    measurement_index: int
    group_index: int
    candidate_state: int
    p_r_dbfs: float
    p_max_dbfs: float


@dataclass(frozen=True)
class PowerTrace:
    """Chronological measurement log; p_max_dbfs is the running maximum."""

    entries: tuple[TraceEntry, ...]
    final_config: RisConfig

    def __post_init__(self):
        last = float("-inf")
        for e in self.entries:
            if e.p_max_dbfs < last:
                raise ValueError("running maximum must be non-decreasing")
            last = e.p_max_dbfs

    @property
    def measurement_count(self) -> int:
        return len(self.entries)

    @property
    def final_power(self) -> float:
        if not self.entries:
            raise ValueError("empty trace has no final power")
        return self.entries[-1].p_max_dbfs

    def csv_rows(self):
        for e in self.entries:
            yield e._asdict()


class MeasurementFailure(RuntimeError):
    """A measurement raised mid-run; entries gathered so far ride along."""

    def __init__(self, message: str, entries):
        super().__init__(message)
        self.partial_entries = tuple(entries)

    def __reduce__(self):
        # a pool worker sends it back pickled; unpickling calls __init__
        return type(self), (self.args[0], self.partial_entries)


def _check_partition(grouping: GroupingScheme, layout: RisLayout) -> None:
    flat = sorted(i for g in grouping.groups for i in g)
    if flat != list(range(layout.n_active)):
        raise ValueError("grouping must partition the layout's active elements")


def greedy_iterative(
    measure: MeasureFn,
    layout: RisLayout,
    num_states: int = NUM_ELEMENT_STATES,
    grouping: GroupingScheme | None = None,
) -> tuple[RisConfig, PowerTrace]:
    """One greedy sweep: per group, try every state and keep the argmax.

    Starts all-off with the running maximum at -inf, so the very first
    measurement (the all-off configuration itself) always registers. A group
    only moves off its current state when a candidate measures strictly
    higher than everything seen so far; ties keep the earlier state. The
    budget is exactly n_groups * num_states measurements.
    """
    if not 2 <= num_states <= NUM_ELEMENT_STATES:
        raise ValueError(f"num_states must be in 2..{NUM_ELEMENT_STATES}")
    if grouping is None:
        grouping = make_grouping(layout, 1)
    _check_partition(grouping, layout)

    states = [0] * layout.n_active
    entries: list[TraceEntry] = []
    p_max = float("-inf")
    index = 0
    for gi, group in enumerate(grouping.groups):
        best_state = states[group[0]]
        for s in range(num_states):
            for i in group:
                states[i] = s
            # states from range(num_states), num_states checked above
            config = _unchecked_config(layout, tuple(states))
            index += 1
            try:
                p = float(measure(config))
            except Exception as exc:
                raise MeasurementFailure(
                    f"measurement {index} (group {gi}, state {s}) failed", entries
                ) from exc
            if p > p_max:
                p_max = p
                best_state = s
            entries.append(TraceEntry(index, gi, s, p, p_max))
        for i in group:
            states[i] = best_state

    final = RisConfig(layout, tuple(states))
    return final, PowerTrace(tuple(entries), final)


def exhaustive_search(
    measure: MeasureFn,
    layout: RisLayout,
    num_states: int = NUM_ELEMENT_STATES,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> tuple[RisConfig, PowerTrace]:
    """Measure every configuration in lexicographic order; ties keep the
    first (lowest) state tuple. Refuses layouts whose enumeration would
    exceed ``cap`` measurements."""
    if not 2 <= num_states <= NUM_ELEMENT_STATES:
        raise ValueError(f"num_states must be in 2..{NUM_ELEMENT_STATES}")
    n = layout.n_active
    budget = num_states**n
    if budget > cap:
        raise ValueError(f"enumeration needs {budget} measurements, above the cap of {cap}")
    entries: list[TraceEntry] = []
    best_config = None
    p_max = float("-inf")
    index = 0
    for states in itertools.product(range(num_states), repeat=n):
        config = _unchecked_config(layout, states)
        index += 1
        try:
            p = float(measure(config))
        except Exception as exc:
            raise MeasurementFailure(f"measurement {index} failed", entries) from exc
        if p > p_max:
            p_max = p
            best_config = config
        entries.append(TraceEntry(index, -1, -1, p, p_max))
    return best_config, PowerTrace(tuple(entries), best_config)


def greedy_gap(oracle_db: float, greedy_db: float) -> float:
    """Oracle power minus greedy power, in dB. Negative would mean the
    greedy beat a true exhaustive maximum on the same measure."""
    return float(oracle_db) - float(greedy_db)

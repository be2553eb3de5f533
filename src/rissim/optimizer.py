"""Greedy per-group state search, the exhaustive oracle, and power traces.

Both searches see only an abstract measurement, so the same code drives
analytic gains, the full simulated receiver chain, or test stubs. Greedy logs
every reading of a per-configuration measure (configuration in, dB power out)
in a PowerTrace. enumerate_readings fills a table from a block reader (an
(M, n) state matrix in, M dB readings out) such as GainMeter.readings; the
exhaustive search keeps its first maximum, and greedy can replay it. A block
reader of a stack of channels returns an (S, M) matrix and fills one table
row per channel. enumeration_size holds the one cap rule; READ_BUDGET bounds a
read, to READ_BUDGET // size stacked channels or READ_BUDGET rows of one.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .ris import NUM_ELEMENT_STATES, RisConfig, RisLayout, _unchecked_config, make_grouping

MeasureFn = Callable[[RisConfig], float]
ReadFn = Callable[[np.ndarray], Sequence[float]]

ENUMERATION_CAP = 2**20  # most measurements one enumeration makes
READ_BUDGET = 4096  # most readings one read returns, and so the state rows of a block


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


def greedy_iterative(
    measure: MeasureFn,
    layout: RisLayout,
    num_states: int = NUM_ELEMENT_STATES,
    group_size: int = 1,
) -> tuple[RisConfig, PowerTrace]:
    """One greedy sweep: per tile of make_grouping(layout, group_size), try
    every state and keep the argmax.

    Starts all-off with the running maximum at -inf, so the very first
    measurement (the all-off configuration itself) always registers. A group
    only moves off its current state when a candidate measures strictly
    higher than everything seen so far; ties keep the earlier state. The
    budget is exactly len(make_grouping(layout, group_size)) * num_states
    measurements.
    """
    if not 2 <= num_states <= NUM_ELEMENT_STATES:
        raise ValueError(f"num_states must be in 2..{NUM_ELEMENT_STATES}")
    groups = make_grouping(layout, group_size)

    states = [0] * layout.n_active
    entries: list[TraceEntry] = []
    p_max = float("-inf")
    index = 0
    for gi, group in enumerate(groups):
        best_state = states[group[0]]
        for s in range(num_states):
            for i in group:
                states[i] = s
            # states from range(num_states), num_states checked above
            config = _unchecked_config(layout, tuple(states))
            index += 1
            p = float(measure(config))
            if p > p_max:
                p_max = p
                best_state = s
            entries.append(TraceEntry(index, gi, s, p, p_max))
        for i in group:
            states[i] = best_state

    final = RisConfig(layout, tuple(states))
    return final, PowerTrace(tuple(entries))


def enumeration_size(n: int, num_states: int) -> int:
    """num_states ** n, the configurations of n elements; ValueError unless
    num_states is in 2..4 and that count is within ENUMERATION_CAP, checked
    on n first, since cap.bit_length() elements pass the cap at 2 states."""
    if not 2 <= num_states <= NUM_ELEMENT_STATES:
        raise ValueError(f"num_states must be in 2..{NUM_ELEMENT_STATES}")
    if n >= ENUMERATION_CAP.bit_length() or num_states**n > ENUMERATION_CAP:
        raise ValueError(f"enumeration needs {num_states}**{n} measurements, above the cap of {ENUMERATION_CAP}")
    return num_states**n


@lru_cache(maxsize=ENUMERATION_CAP // READ_BUDGET)
def _product_block(start: int, stop: int, n: int, num_states: int) -> np.ndarray:
    """Rows start..stop-1 of the lexicographic product range(num_states)**n
    as a read-only (M, n) int8 matrix, built once per argument tuple and
    shared: the cache holds every block of an enumeration at the cap, 256
    blocks of READ_BUDGET rows, at most 21 MB for n = 20."""
    weights = num_states ** np.arange(n - 1, -1, -1, dtype=np.int64)
    block = (np.arange(start, stop, dtype=np.int64)[:, None] // weights % num_states).astype(np.int8)
    block.setflags(write=False)
    return block


def enumerate_readings(read: ReadFn, layout: RisLayout, num_states: int = NUM_ELEMENT_STATES) -> np.ndarray:
    """Every configuration's reading, read READ_BUDGET state rows at a time,
    as one float64 array of enumeration_size(n, num_states) in lexicographic
    order: states s sit at row sum s_i * num_states**(n-1-i). A reader of a
    stack of S channels returns (S, M) readings per block and fills an
    (S, size) table, row j channel j's."""
    n = layout.n_active
    size = enumeration_size(n, num_states)
    table = None
    for start in range(0, size, READ_BUDGET):
        stop = min(start + READ_BUDGET, size)
        readings = np.asarray(read(_product_block(start, stop, n, num_states)), dtype=np.float64)
        if table is None:
            # the first block sets the stack's shape, (S,) or none
            table = np.empty(readings.shape[:-1] + (size,))
        if readings.shape != table.shape[:-1] + (stop - start,):
            raise ValueError(f"read returned {readings.size} readings for {stop - start} configurations")
        table[..., start:stop] = readings
    return table


def table_measure(table: np.ndarray, layout: RisLayout, num_states: int = NUM_ELEMENT_STATES) -> MeasureFn:
    """A measure that reads each configuration of the layout off an
    enumerate_readings table, at row sum s_i * num_states**(n-1-i)."""
    n = layout.n_active
    if len(table) != num_states**n:
        raise ValueError("table does not hold one reading per configuration")

    readings = table.tolist()

    def measure(config: RisConfig) -> float:
        if len(config.states) != n or max(config.states) >= num_states:
            raise ValueError("configuration has no row in the table")
        row = 0
        for s in config.states:
            row = row * num_states + s
        return readings[row]

    return measure


def exhaustive_search(read: ReadFn, layout: RisLayout, num_states: int = NUM_ELEMENT_STATES) -> tuple[RisConfig, float]:
    """The first (lowest) state tuple with the highest reading of
    enumerate_readings, and that reading; a NaN reading never wins, and if
    every reading is -inf the all-off tuple does."""
    readings = enumerate_readings(read, layout, num_states)
    if readings.ndim != 1:
        raise ValueError("an exhaustive search reads one channel, not a stack")
    readings[np.isnan(readings)] = -np.inf
    best = int(np.argmax(readings))  # the first maximum; row 0 if every reading is -inf
    # the digits of best in base num_states, each in 0..num_states-1
    states = tuple(map(int, np.unravel_index(best, (num_states,) * layout.n_active)))
    return _unchecked_config(layout, states), float(readings[best])

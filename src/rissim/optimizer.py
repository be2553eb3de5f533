"""Greedy per-group state search, the exhaustive oracle, and power traces.

Both searches see only a block reader (an (M, n) state matrix in, M dB
readings out) such as a meter's readings, so the same code drives analytic
gains, the full simulated receiver chain, or test stubs. Greedy reads each
group's candidates as one block and logs every reading in a PowerTrace.
enumerate_readings fills a table; the exhaustive search keeps its first
maximum, and greedy can replay it via table_reader. A reader of a stack of S
channels returns (S, M) readings, one table row per channel. enumeration_size
holds the one cap rule; READ_BUDGET bounds a read, to READ_BUDGET // size
stacked channels or READ_BUDGET rows of one.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .ris import NUM_ELEMENT_STATES, RisConfig, RisLayout, make_grouping

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
    read: ReadFn,
    layout: RisLayout,
    num_states: int = NUM_ELEMENT_STATES,
    group_size: int = 1,
) -> tuple[RisConfig, PowerTrace]:
    """One greedy sweep: per tile of make_grouping(layout, group_size), read
    one block, row s the running states with the tile at s; keep the argmax.

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

    states = np.zeros(layout.n_active, dtype=np.intp)
    candidates = np.arange(num_states)
    entries: list[TraceEntry] = []
    p_max = float("-inf")
    for gi, group in enumerate(groups):
        block = np.empty((num_states, layout.n_active), dtype=np.intp)
        block[:] = states
        for i in group:
            block[:, i] = candidates
        readings = np.asarray(read(block), dtype=np.float64)
        if readings.shape != (num_states,):
            raise ValueError(f"read returned {readings.size} readings for {num_states} configurations")
        best_state = states[group[0]]
        for s, p in enumerate(readings.tolist()):
            if p > p_max:
                p_max = p
                best_state = s
            entries.append(TraceEntry(len(entries) + 1, gi, s, p, p_max))
        states = block[best_state]

    return RisConfig(layout, states.tolist()), PowerTrace(tuple(entries))


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


def table_reader(table: np.ndarray, layout: RisLayout, num_states: int = NUM_ELEMENT_STATES) -> ReadFn:
    """A reader of the layout's state rows off an enumerate_readings table, at
    row sum s_i * num_states**(n-1-i); ValueError for a state row of another
    width or a state outside 0..num_states-1."""
    shape = (num_states,) * layout.n_active
    if len(table) != num_states**layout.n_active:
        raise ValueError("table does not hold one reading per configuration")

    def read(states) -> np.ndarray:
        return table[np.ravel_multi_index(np.asarray(states).T, shape)]

    return read


def exhaustive_search(read: ReadFn, layout: RisLayout, num_states: int = NUM_ELEMENT_STATES) -> tuple[RisConfig, float]:
    """The first (lowest) state tuple with the highest reading of
    enumerate_readings, and that reading; a NaN reading never wins, and if
    every reading is -inf the all-off tuple does."""
    readings = enumerate_readings(read, layout, num_states)
    if readings.ndim != 1:
        raise ValueError("an exhaustive search reads one channel, not a stack")
    readings[np.isnan(readings)] = -np.inf
    best = int(np.argmax(readings))  # the first maximum; row 0 if every reading is -inf
    states = np.unravel_index(best, (num_states,) * layout.n_active)
    return RisConfig(layout, states), float(readings[best])

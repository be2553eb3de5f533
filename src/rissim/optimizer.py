"""Greedy per-group state search, the exhaustive oracle, and power traces.

Both searches see only a block reader (an (M, n) state matrix in, M dB
readings out) such as a meter's readings, so the same code drives analytic
gains, the full simulated receiver chain, or test stubs. Greedy reads each
group's candidates as one block and logs every reading in a PowerTrace.
enumerate_readings reads a table in one read; the exhaustive search keeps its
first maximum, and greedy can replay it via table_reader. A reader of a stack
of S channels returns (S, M) readings, one table row per channel.
enumeration_size holds the one cap rule: READ_BUDGET bounds a read, so an
enumeration is at most READ_BUDGET rows, and a stack READ_BUDGET // size
channels.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .ris import NUM_ELEMENT_STATES, RisConfig, RisLayout, make_grouping

ReadFn = Callable[[np.ndarray], Sequence[float]]

READ_BUDGET = 4096  # most readings one read returns, and so the configurations of an enumeration


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
    num_states is in 2..4 and that count is within READ_BUDGET, checked on n
    first, since READ_BUDGET.bit_length() elements pass it at 2 states."""
    if not 2 <= num_states <= NUM_ELEMENT_STATES:
        raise ValueError(f"num_states must be in 2..{NUM_ELEMENT_STATES}")
    if n >= READ_BUDGET.bit_length() or num_states**n > READ_BUDGET:
        raise ValueError(f"enumeration needs {num_states}**{n} measurements, above the cap of {READ_BUDGET}")
    return num_states**n


@lru_cache(maxsize=None)
def _product_block(n: int, num_states: int) -> np.ndarray:
    """The lexicographic product range(num_states)**n as a read-only (M, n)
    int8 matrix, built once per shape and shared; only the 25 shapes that
    pass enumeration_size are built, the largest 48 KB."""
    weights = num_states ** np.arange(n - 1, -1, -1, dtype=np.int64)
    block = (np.arange(num_states**n, dtype=np.int64)[:, None] // weights % num_states).astype(np.int8)
    block.setflags(write=False)
    return block


def enumerate_readings(read: ReadFn, layout: RisLayout, num_states: int = NUM_ELEMENT_STATES) -> np.ndarray:
    """Every configuration's reading from one read of every state row, as a
    float64 array of enumeration_size(n, num_states) in lexicographic order:
    states s sit at row sum s_i * num_states**(n-1-i). A reader of a stack of
    S channels returns the (S, size) table, row j channel j's. The array may
    be the reader's own."""
    n = layout.n_active
    size = enumeration_size(n, num_states)
    readings = np.asarray(read(_product_block(n, num_states)), dtype=np.float64)
    if readings.shape[-1:] != (size,):
        raise ValueError(f"read returned {readings.size} readings for {size} configurations")
    return readings


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
    readings = np.where(np.isnan(readings), -np.inf, readings)  # a new array: the reader's stays as read
    best = int(np.argmax(readings))  # the first maximum; row 0 if every reading is -inf
    states = np.unravel_index(best, (num_states,) * layout.n_active)
    return RisConfig(layout, states), float(readings[best])

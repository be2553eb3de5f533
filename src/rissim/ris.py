"""Reflecting-surface layout, element states, and grouping partitions.

Elements sit on a uniform planar grid. Each element carries two PIN diodes,
one per polarization, so its state is an integer in 0..3: bit 0 switches the
horizontal phase between 0 and 180 degrees, bit 1 does the same for the
vertical phase. A state of 0 means both diodes off (no phase shift).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .geometry import SettingError

SPEED_OF_LIGHT = 299_792_458.0
DEFAULT_CARRIER_HZ = 5.2e9

# Reflection amplitude of one element. Constant across states, so it scales
# every configuration's gain equally and never changes the argmax.
DEFAULT_ELEMENT_AMPLITUDE = 0.9

NUM_ELEMENT_STATES = 4
_POL_BIT = {"H": 0, "V": 1}

GROUP_SIZES = (1, 2, 4, 8)
# Tile shape (rows, cols) per group size. Tiles are laid out row-major from
# the top-left cell; a tile overlapping disabled cells keeps its active
# subset only.
_TILE_SHAPES = {1: (1, 1), 2: (2, 1), 4: (2, 2), 8: (4, 2)}


def controller_corner(nx: int, ny: int) -> frozenset[tuple[int, int]]:
    """Top-right 2x2 block of (row, col) cells, reserved for the controller."""
    return frozenset((r, c) for r in (0, 1) for c in (nx - 2, nx - 1))


@dataclass(frozen=True)
class RisLayout:
    """Element grid geometry. Cells listed in ``disabled`` reflect nothing."""

    nx: int = 10  # columns
    ny: int = 8  # rows
    spacing: float | None = None  # element pitch in meters; None means lambda/2
    disabled: frozenset[tuple[int, int]] = frozenset()
    carrier_hz: float = DEFAULT_CARRIER_HZ

    def __post_init__(self):
        if self.nx < 1 or self.ny < 1:
            raise SettingError("grid dimensions must be positive")
        # chained comparisons are false for NaN, so NaN fails each check
        if not 0.0 < self.carrier_hz < math.inf:
            raise SettingError("carrier_hz must be finite and positive", "carrier_hz")
        disabled = frozenset((int(r), int(c)) for r, c in self.disabled)
        object.__setattr__(self, "disabled", disabled)
        for r, c in disabled:
            if not (0 <= r < self.ny and 0 <= c < self.nx):
                raise SettingError(f"disabled cell {(r, c)} outside the {self.ny}x{self.nx} grid", "disabled")
        if len(disabled) >= self.nx * self.ny:
            raise SettingError("layout has no active elements")
        if self.spacing is None:
            object.__setattr__(self, "spacing", self.wavelength / 2.0)
        if not 0.0 < self.spacing < math.inf:
            raise SettingError("spacing must be finite and positive", "spacing")

    @classmethod
    def default(cls) -> "RisLayout":
        """The 10x8 surface minus the controller corner: 76 active elements."""
        return cls(disabled=controller_corner(10, 8))

    @property
    def wavelength(self) -> float:
        return SPEED_OF_LIGHT / self.carrier_hz

    @cached_property
    def _actives(self) -> tuple[tuple[int, int], ...]:
        return tuple(
            (r, c)
            for r in range(self.ny)
            for c in range(self.nx)
            if (r, c) not in self.disabled
        )

    @cached_property
    def _index_by_cell(self) -> dict[tuple[int, int], int]:
        return {cell: i for i, cell in enumerate(self._actives)}

    @property
    def n_active(self) -> int:
        return len(self._actives)

    @cached_property
    def _positions(self) -> np.ndarray:
        cells = np.array(self._actives, dtype=np.float64)
        x = (cells[:, 1] - (self.nx - 1) / 2.0) * self.spacing
        z = ((self.ny - 1) / 2.0 - cells[:, 0]) * self.spacing
        out = np.column_stack([x, np.zeros_like(x), z])
        out.setflags(write=False)
        return out

    def element_positions(self) -> np.ndarray:
        """(N, 3) read-only positions in meters of the active elements, the
        grid centered at the origin in the y = 0 plane.

        x grows with the column index, z with height (row 0 on top).
        """
        return self._positions


@dataclass(frozen=True)
class RisConfig:
    """States of a layout's active elements, its (row, col) cells in row-major
    order with the disabled cells skipped."""

    layout: RisLayout
    states: tuple[int, ...]

    def __post_init__(self):
        states = tuple(map(int, self.states))
        object.__setattr__(self, "states", states)
        if len(states) != self.layout.n_active:
            raise ValueError(
                f"expected {self.layout.n_active} element states, got {len(states)}"
            )
        # a layout has at least one active element, so states is not empty
        if min(states) < 0 or max(states) >= NUM_ELEMENT_STATES:
            raise ValueError("element states must be in 0..3")

    @classmethod
    def all_off(cls, layout: RisLayout) -> "RisConfig":
        return cls(layout, (0,) * layout.n_active)


def theta_diag(config: RisConfig, polarization: str, amplitude: float = DEFAULT_ELEMENT_AMPLITUDE) -> np.ndarray:
    """Diagonal of the reflection matrix for one polarization.

    Binary phases make every entry purely real: +amplitude for no phase
    shift, -amplitude for the 180 degree state.
    """
    if not 0.0 < amplitude <= 1.0:
        raise ValueError("amplitude must be in (0, 1]")
    if polarization not in _POL_BIT:
        raise ValueError(f"polarization must be 'H' or 'V', got {polarization!r}")
    bit = _POL_BIT[polarization]
    s = np.asarray(config.states, dtype=np.int64)
    signs = 1.0 - 2.0 * ((s >> bit) & 1)
    return (amplitude * signs).astype(np.complex128)


def to_bit_array(config: RisConfig) -> list[bool]:
    """Controller wire format: H diode bits for every element, then V bits.

    True means the 180 degree shift is engaged. Length is twice the active
    element count (152 for the default layout).
    """
    s = config.states
    return [bool(x & 1) for x in s] + [bool(x & 2) for x in s]


def from_bit_array(layout: RisLayout, bits) -> RisConfig:
    n = layout.n_active
    bits = list(bits)
    if len(bits) != 2 * n:
        raise ValueError(f"expected {2 * n} bits, got {len(bits)}")
    h, v = bits[:n], bits[n:]
    return RisConfig(
        layout, tuple(int(bool(a)) | (int(bool(b)) << 1) for a, b in zip(h, v))
    )


@lru_cache(maxsize=64)
def make_grouping(layout: RisLayout, group_size: int) -> tuple[tuple[int, ...], ...]:
    """Tile the grid row-major into groups of up to ``group_size`` elements,
    each a tuple of active-element indices in ascending order.

    Tiles that overlap the disabled corner come out partial, so every active
    element belongs to exactly one group.
    """
    if group_size not in GROUP_SIZES:
        raise ValueError(f"group_size must be one of {GROUP_SIZES}")
    tr, tc = _TILE_SHAPES[group_size]
    index = layout._index_by_cell
    groups = []
    for r0 in range(0, layout.ny, tr):
        for c0 in range(0, layout.nx, tc):
            members = [
                index[(r, c)]
                for r in range(r0, min(r0 + tr, layout.ny))
                for c in range(c0, min(c0 + tc, layout.nx))
                if (r, c) in index
            ]
            if members:
                groups.append(tuple(members))
    return tuple(groups)

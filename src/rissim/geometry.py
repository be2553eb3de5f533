"""Terminal placement, the polar measurement grid, and antenna gains.

Positions are meters in a fixed world frame; the surface center sits at the
origin by default with its normal along +y. Grid coordinates are an angle
measured from the surface line (90 degrees is broadside) and a range in cm,
both at the surface's height.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .ris import RisLayout

UP = np.array([0.0, 0.0, 1.0])

DEFAULT_HALF_BEAMWIDTH_DEG = 40.0
GAIN_FLOOR = 1e-3  # -30 dB side/backlobe floor
LOS_GAIN_PRODUCT_THRESHOLD = 1e-4

DEFAULT_GRID_ANGLES_DEG = (50.0, 70.0, 90.0, 110.0, 130.0, 145.0)

DEFAULT_TX_ANGLE_DEG = 78.0
DEFAULT_TX_DISTANCE_CM = 100.0


def _normalized(v, what: str) -> np.ndarray:
    v = np.asarray(v, dtype=np.float64)
    n = float(np.linalg.norm(v))
    if n < 1e-12:
        raise ValueError(f"{what} must be non-zero")
    out = v / n
    out.setflags(write=False)
    return out


def _frame(normal) -> tuple[np.ndarray, np.ndarray]:
    """In-plane horizontal axis and unit normal for a surface orientation."""
    n = _normalized(normal, "surface normal")
    if abs(float(n @ UP)) > 0.99:
        raise ValueError("surface normal must be roughly horizontal")
    u = np.cross(n, UP)
    return _normalized(u, "surface axis"), n


@dataclass(frozen=True, eq=False)
class Terminal:
    """A horn antenna: position, aim, beamwidth, polarization mix.

    ``polarization`` is the fraction of power radiated (or accepted) on the
    vertical port; 0 is pure horizontal, 1 pure vertical.
    """

    position: np.ndarray
    boresight: np.ndarray
    half_beamwidth_deg: float = DEFAULT_HALF_BEAMWIDTH_DEG
    polarization: float = 0.5

    def __post_init__(self):
        pos = np.asarray(self.position, dtype=np.float64).copy()
        pos.setflags(write=False)
        object.__setattr__(self, "position", pos)
        object.__setattr__(self, "boresight", _normalized(self.boresight, "boresight"))
        if not 0.0 < self.half_beamwidth_deg < 90.0:
            raise ValueError("half_beamwidth_deg must be in (0, 90) for the directional pattern")
        if math.cos(math.radians(self.half_beamwidth_deg)) == 1.0:
            # _gain_exponent divides by log(cos(half_beamwidth))
            raise ValueError(
                f"half_beamwidth_deg {self.half_beamwidth_deg!r} is too narrow: its cosine rounds to 1"
            )
        if not 0.0 <= self.polarization <= 1.0:
            raise ValueError("polarization must be in [0, 1]")


def _gain_exponent(half_beamwidth_deg: float) -> float:
    # cos(hb)^q = 0.5 puts the -3 dB point at the half beamwidth
    return math.log(0.5) / math.log(math.cos(math.radians(half_beamwidth_deg)))


def antenna_gain(term: Terminal, direction, floor: float = GAIN_FLOOR) -> float:
    """Linear power gain toward a unit direction: 1 at boresight, floored
    at -30 dB off the pattern."""
    d = np.asarray(direction, dtype=np.float64)
    if abs(float(np.linalg.norm(d)) - 1.0) > 1e-6:
        raise ValueError("direction must be a unit vector")
    c = max(float(term.boresight @ d), 0.0)
    return max(c ** _gain_exponent(term.half_beamwidth_deg), floor)


def gains_toward(term: Terminal, directions: np.ndarray, floor: float = GAIN_FLOOR) -> np.ndarray:
    """Vectorized antenna_gain over an (N, 3) stack of unit directions."""
    c = np.clip(np.asarray(directions, dtype=np.float64) @ term.boresight, 0.0, None)
    return np.maximum(c ** _gain_exponent(term.half_beamwidth_deg), floor)


def check_spot(angle_deg, distance_cm) -> tuple[float, float]:
    """A receiver spot as floats; ValueError unless it is in the scene:
    0 < angle < 180 degrees and a finite positive range."""
    angle_deg, distance_cm = float(angle_deg), float(distance_cm)
    # chained comparisons are false for NaN, so NaN fails the check
    if not (0.0 < angle_deg < 180.0 and 0.0 < distance_cm < math.inf):
        raise ValueError(f"point ({angle_deg}, {distance_cm}) is outside the scene")
    return angle_deg, distance_cm


def grid_point(angle_deg: float, distance_cm: float) -> np.ndarray:
    """World position of a polar grid coordinate, surface at the origin
    facing +y."""
    if distance_cm <= 0:
        raise ValueError("distance must be positive")
    a = math.radians(angle_deg)
    d = distance_cm / 100.0
    return np.array([d * math.cos(a), d * math.sin(a), 0.0])


def _polar(center, axes, angle_deg: float, distance_cm: float) -> np.ndarray:
    """World position of a grid coordinate around center; axes is the
    surface's (in-plane axis, normal) pair."""
    if distance_cm <= 0:
        raise ValueError("distance must be positive")
    a = math.radians(angle_deg)
    u, n = axes
    return center + (distance_cm / 100.0) * (math.cos(a) * u + math.sin(a) * n)


@dataclass(frozen=True, eq=False)
class Scene:
    """One bench placement: surface pose and both terminals."""

    ris_center: np.ndarray
    ris_normal: np.ndarray
    tx: Terminal
    rx: Terminal
    # (in-plane axis, normal) from _frame(ris_normal), for point_at and
    # element_positions
    _axes: tuple = field(init=False, repr=False)

    def __post_init__(self):
        center = np.asarray(self.ris_center, dtype=np.float64).copy()
        center.setflags(write=False)
        object.__setattr__(self, "ris_center", center)
        _, n = _frame(self.ris_normal)
        object.__setattr__(self, "ris_normal", n)
        object.__setattr__(self, "_axes", _frame(n))
        for name, term in (("tx", self.tx), ("rx", self.rx)):
            if float((term.position - center) @ n) <= 0:
                raise ValueError(f"{name} must sit on the reflective side of the surface")

    def point_at(self, angle_deg: float, distance_cm: float) -> np.ndarray:
        """Grid coordinate to world position in this scene's frame."""
        return _polar(self.ris_center, self._axes, angle_deg, distance_cm)

    def element_positions(self, layout: RisLayout) -> np.ndarray:
        """(N, 3) world positions of the layout's active elements."""
        u, _ = self._axes
        off = layout.element_offsets()
        return self.ris_center + off[:, :1] * u + off[:, 1:] * UP

    def with_rx_at(self, angle_deg: float, distance_cm: float) -> "Scene":
        """Same scene with the receiver moved to a grid coordinate, re-aimed
        at the surface center."""
        pos = self.point_at(angle_deg, distance_cm)
        bore = _normalized(self.ris_center - pos, "boresight")
        return replace(self, rx=replace(self.rx, position=pos, boresight=bore))


def make_scene(
    rx_angle_deg: float = 90.0,
    rx_distance_cm: float = 170.0,
    *,
    tx_angle_deg: float = DEFAULT_TX_ANGLE_DEG,
    tx_distance_cm: float = DEFAULT_TX_DISTANCE_CM,
    half_beamwidth_deg: float = DEFAULT_HALF_BEAMWIDTH_DEG,
    polarization: float = 0.5,
    ris_center=(0.0, 0.0, 0.0),
    ris_normal=(0.0, 1.0, 0.0),
) -> Scene:
    """L-shaped bench scene with both horns aimed at the surface center."""
    center = np.asarray(ris_center, dtype=np.float64)
    u, n = _frame(ris_normal)

    def place(angle_deg, distance_cm):
        pos = _polar(center, (u, n), angle_deg, distance_cm)
        return Terminal(pos, _normalized(center - pos, "boresight"), half_beamwidth_deg, polarization)

    return Scene(
        center,
        n,
        place(tx_angle_deg, tx_distance_cm),
        place(rx_angle_deg, rx_distance_cm),
    )


def los_blocked(scene: Scene) -> bool:
    """Whether the direct Tx-Rx path falls outside the antennas' beams.

    The path counts as blocked unless each terminal sees the other inside
    twice its half beamwidth and the two-way gain product clears a -40 dB
    threshold.
    """
    sep = scene.rx.position - scene.tx.position
    dist = float(np.linalg.norm(sep))
    if dist < 1e-12:
        raise ValueError("tx and rx coincide")
    d = sep / dist
    cos_tx = float(np.clip(scene.tx.boresight @ d, -1.0, 1.0))
    cos_rx = float(np.clip(scene.rx.boresight @ -d, -1.0, 1.0))
    off_tx = math.degrees(math.acos(cos_tx))
    off_rx = math.degrees(math.acos(cos_rx))
    outside = (
        off_tx > 2.0 * scene.tx.half_beamwidth_deg
        or off_rx > 2.0 * scene.rx.half_beamwidth_deg
    )
    product = antenna_gain(scene.tx, d) * antenna_gain(scene.rx, -d)
    return outside or product < LOS_GAIN_PRODUCT_THRESHOLD

"""Terminal placement, the polar measurement grid, and antenna gains.

Positions are meters in the surface's frame: the surface center sits at the
origin with its normal along +y and its columns along +x. Grid coordinates
are an angle measured from the surface line (90 degrees is broadside) and a
range in cm, both at the surface's height.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

DEFAULT_HALF_BEAMWIDTH_DEG = 40.0
GAIN_FLOOR = 1e-3  # -30 dB side/backlobe floor
LOS_GAIN_PRODUCT_THRESHOLD = 1e-4

DEFAULT_GRID_ANGLES_DEG = (50.0, 70.0, 90.0, 110.0, 130.0, 145.0)

DEFAULT_TX_ANGLE_DEG = 78.0
DEFAULT_TX_DISTANCE_CM = 100.0


def _dot3(a, b):
    """Dot products over the last axis of (..., 3) stacks, a0*b0 + a1*b1 + a2*b2 with no BLAS kernel."""
    return a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1] + a[..., 2] * b[..., 2]


def _length(v: np.ndarray) -> float:
    """Length of one 3-vector in the order of _dot3; inf, with no warning, where a square overflows."""
    x, y, z = v.tolist()
    return math.sqrt(x * x + y * y + z * z)


class SettingError(ValueError):
    """A setting outside its rule. name is the parameter the rule checks, or
    None for a rule that spans several, so a config can name its key."""

    def __init__(self, rule: str, name: str | None = None):
        super().__init__(rule)
        self.name = name


class BoresightError(ValueError):
    """A boresight with no finite, non-zero length, as of a horn too near or too far to aim."""


def _normalized(v) -> np.ndarray:
    v = np.asarray(v, dtype=np.float64)
    n = _length(v)
    # false for NaN, so a NaN entry fails too
    if not 1e-12 <= n < math.inf:
        raise BoresightError("boresight must be finite and non-zero")
    out = v / n
    out.setflags(write=False)
    return out


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
        if pos.shape != (3,) or not np.all(np.isfinite(pos)):
            raise ValueError("position must be a finite 3-vector")
        pos.setflags(write=False)
        object.__setattr__(self, "position", pos)
        object.__setattr__(self, "boresight", _normalized(self.boresight))
        if not 0.0 < self.half_beamwidth_deg < 90.0:
            raise SettingError(
                "half_beamwidth_deg must be in (0, 90) for the directional pattern", "half_beamwidth_deg"
            )
        if math.cos(math.radians(self.half_beamwidth_deg)) == 1.0:
            # _gain_exponent divides by log(cos(half_beamwidth))
            raise SettingError(
                f"half_beamwidth_deg {self.half_beamwidth_deg!r} is too narrow: its cosine rounds to 1",
                "half_beamwidth_deg",
            )
        if not 0.0 <= self.polarization <= 1.0:
            raise SettingError("polarization must be in [0, 1]", "polarization")


def _gain_exponent(half_beamwidth_deg: float) -> float:
    # cos(hb)^q = 0.5 puts the -3 dB point at the half beamwidth
    return math.log(0.5) / math.log(math.cos(math.radians(half_beamwidth_deg)))


def gains_toward(term: Terminal, directions) -> np.ndarray:
    """Linear power gain toward each row of an (N, 3) stack of unit
    directions: 1 at boresight, floored at GAIN_FLOOR (-30 dB) off the pattern. The power
    of the cosine is a libm pow per value, not numpy's SIMD one."""
    q = _gain_exponent(term.half_beamwidth_deg)
    cosines = np.maximum(_dot3(np.asarray(directions, dtype=np.float64), term.boresight), 0.0)
    return np.maximum(np.array([c ** q for c in cosines.tolist()]), GAIN_FLOOR)


def check_spot(angle_deg, distance_cm) -> tuple[float, float]:
    """A receiver spot as floats; SettingError unless it is in the scene:
    0 < angle < 180 degrees and a finite positive range. Its name is
    distance_cm when the range is out, else angle_deg."""
    angle_deg, distance_cm = float(angle_deg), float(distance_cm)
    # chained comparisons are false for NaN, so NaN fails each check
    for name, inside in (("distance_cm", 0.0 < distance_cm < math.inf), ("angle_deg", 0.0 < angle_deg < 180.0)):
        if not inside:
            raise SettingError(f"point ({angle_deg}, {distance_cm}) is outside the scene", name)
    return angle_deg, distance_cm


def grid_point(angle_deg: float, distance_cm: float) -> np.ndarray:
    """World position of a polar grid coordinate; ValueError unless the
    spot is in the scene (see check_spot)."""
    angle_deg, distance_cm = check_spot(angle_deg, distance_cm)
    a = math.radians(angle_deg)
    d = distance_cm / 100.0
    return np.array([d * math.cos(a), d * math.sin(a), 0.0])


def _horn(angle_deg, distance_cm, half_beamwidth_deg, polarization) -> Terminal:
    """A horn at a grid coordinate, aimed at the surface center."""
    pos = grid_point(angle_deg, distance_cm)
    return Terminal(pos, _normalized(0.0 - pos), half_beamwidth_deg, polarization)


@dataclass(frozen=True, eq=False)
class Scene:
    """One bench placement: both terminals in front of the surface."""

    tx: Terminal
    rx: Terminal

    def __post_init__(self):
        # every element lies in y = 0, so none is nearer than 1e-9 m; y spans a spot's keys
        for name, term in (("tx", self.tx), ("rx", self.rx)):
            if not term.position[1] >= 1e-9:
                raise SettingError(f"{name} must sit on the reflective side of the surface, at least 1e-9 m in front")
        if _length(self.rx.position - self.tx.position) < 1e-12:
            raise SettingError("tx and rx coincide")

    def with_rx_at(self, angle_deg: float, distance_cm: float) -> "Scene":
        """Same scene with the receiver moved to a grid coordinate, re-aimed
        at the surface center."""
        rx = self.rx
        return Scene(self.tx, _horn(angle_deg, distance_cm, rx.half_beamwidth_deg, rx.polarization))


def make_scene(
    rx_angle_deg: float = 90.0,
    rx_distance_cm: float = 170.0,
    *,
    tx_angle_deg: float = DEFAULT_TX_ANGLE_DEG,
    tx_distance_cm: float = DEFAULT_TX_DISTANCE_CM,
    half_beamwidth_deg: float = DEFAULT_HALF_BEAMWIDTH_DEG,
    polarization: float = 0.5,
) -> Scene:
    """L-shaped bench scene with both horns aimed at the surface center."""
    return Scene(
        _horn(tx_angle_deg, tx_distance_cm, half_beamwidth_deg, polarization),
        _horn(rx_angle_deg, rx_distance_cm, half_beamwidth_deg, polarization),
    )


def direct_path(scene: Scene) -> tuple[float, float] | None:
    """Tx-Rx distance and two-way horn gain product of the direct path, or
    None when the path falls outside the antennas' beams.

    The path counts as blocked unless each terminal sees the other inside
    twice its half beamwidth and the gain product clears a -40 dB threshold.
    """
    sep = scene.rx.position - scene.tx.position
    dist = _length(sep)
    d = (sep / dist)[None]
    cos_tx = float(_dot3(d, scene.tx.boresight)[0])
    cos_rx = float(_dot3(-d, scene.rx.boresight)[0])
    off_tx = math.degrees(math.acos(min(max(cos_tx, -1.0), 1.0)))
    off_rx = math.degrees(math.acos(min(max(cos_rx, -1.0), 1.0)))
    outside = (
        off_tx > 2.0 * scene.tx.half_beamwidth_deg
        or off_rx > 2.0 * scene.rx.half_beamwidth_deg
    )
    product = float(gains_toward(scene.tx, d)[0] * gains_toward(scene.rx, -d)[0])
    if outside or product < LOS_GAIN_PRODUCT_THRESHOLD:
        return None
    return dist, product

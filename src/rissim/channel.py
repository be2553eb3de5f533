"""Cascaded channel synthesis, tone reception, ADC quantization, and dBFS.

Phase conventions: the forward channel h toward the surface carries
exp(-j 2 pi d / lambda) per element; the return channel g is stored with the
opposite sign so that the conjugating cascade g^H diag(theta) h accumulates
the physical round-trip phase. The direct term h_los is a plain scalar.

Every random draw comes from a generator keyed on explicit integers (seed,
terminal positions, measurement index), so identical inputs reproduce
identical bits and parallel evaluation order cannot change results.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .geometry import Scene, direct_path, gains_toward
from .ris import _POL_BIT, DEFAULT_ELEMENT_AMPLITUDE, NUM_ELEMENT_STATES, RisConfig, RisLayout

ADC_CODE_MAX = 2048
ADC_CODE_MIN = -2047

# Receiver defaults calibrated on the default bench (all elements off,
# deterministic channel, median over the grid angles at 170 cm): the all-off
# tone lands near 20 dBFS and the per-sample SNR near 30 dB.
# scripts/calibrate_defaults.py recomputes both.
DEFAULT_FULL_SCALE = 800.7328811701997
DEFAULT_NOISE_VARIANCE = 0.01528675906627486


def _entropy_words(parts) -> list[int]:
    words: list[int] = []
    for p in parts:
        if isinstance(p, (list, tuple)):
            words.extend(_entropy_words(p))
        elif isinstance(p, (bool, int, np.integer)):
            words.append(int(p) & 0xFFFFFFFFFFFFFFFF)
        elif isinstance(p, (float, np.floating)):
            words.append(int(np.float64(p).view(np.uint64)))
        elif isinstance(p, str):
            digest = hashlib.sha256(p.encode("utf-8")).digest()
            words.append(int.from_bytes(digest[:8], "little"))
        elif isinstance(p, np.ndarray):
            flat = np.ascontiguousarray(p, dtype=np.float64).view(np.uint64).ravel()
            words.extend(int(w) for w in flat)
        else:
            raise TypeError(f"cannot derive a seed from {type(p)!r}")
    return words


def derive_rng(*parts) -> np.random.Generator:
    """Generator keyed on a mixed tuple of ints, floats, strings, arrays.

    The seed is the uint32 array SeedSequence would build from the 64-bit
    words itself (a word below 2**32 is one entry, any other its low half
    then its high half), so the stream is default_rng(_entropy_words(parts))
    without numpy's per-int coercion. A list of words from _entropy_words
    keys the same stream as the parts it came from.
    """
    entropy: list[int] = []
    for w in _entropy_words(parts):
        entropy.extend((w & 0xFFFFFFFF, w >> 32) if w >> 32 else (w,))
    return np.random.default_rng(np.array(entropy, dtype=np.uint32))


def derive_seed(*parts) -> int:
    """Stable 64-bit sub-seed from the same kind of mixed key."""
    return int(np.random.SeedSequence(_entropy_words(parts)).generate_state(1, np.uint64)[0])


def _check_noise_variance(noise_variance: float) -> None:
    # NaN would run a noiseless campaign (NaN > 0 is false) and inf would
    # clip every sample
    if not 0.0 <= noise_variance < math.inf:
        raise ValueError("noise_variance must be finite and non-negative")


class MeasurementFloorError(ValueError):
    """A measurement with no finite reading: an all-zero ADC buffer, or a channel or gain past float64's range."""


@dataclass(frozen=True)
class ChannelModelParams:
    """Propagation model knobs shared by every synthesized link."""

    path_loss_exponent: float = 2.0
    rician_k_db: float = 10.0  # deterministic-to-scattered power ratio; inf is pure deterministic
    noise_variance: float = DEFAULT_NOISE_VARIANCE
    seed: int = 0
    cross_pol_coupling: float = 0.0

    def __post_init__(self):
        # chained comparisons are false for NaN, so NaN fails each check
        if not 1.0 <= self.path_loss_exponent < math.inf:
            raise ValueError("path_loss_exponent must be finite and at least 1")
        if math.isnan(self.rician_k_db):
            raise ValueError("rician_k_db must not be NaN")
        _check_noise_variance(self.noise_variance)
        if not 0.0 <= self.cross_pol_coupling <= 1.0:
            raise ValueError("cross_pol_coupling must be in [0, 1]")


@dataclass(frozen=True, eq=False)
class ChannelRealization:
    """One drawn link: per-polarization element vectors plus the direct term."""

    h_h: np.ndarray
    h_v: np.ndarray
    g_h: np.ndarray
    g_v: np.ndarray
    h_los: complex
    noise_variance: float

    def __post_init__(self):
        n = None
        for name in ("h_h", "h_v", "g_h", "g_v"):
            vec = np.asarray(getattr(self, name), dtype=np.complex128).copy()
            if vec.ndim != 1:
                raise ValueError(f"{name} must be a vector")
            if not np.all(np.isfinite(vec.view(np.float64))):
                raise ValueError(f"{name} has non-finite entries")
            if n is None:
                n = vec.shape[0]
            elif vec.shape[0] != n:
                raise ValueError("channel vectors must share one length")
            vec.setflags(write=False)
            object.__setattr__(self, name, vec)
        object.__setattr__(self, "h_los", complex(self.h_los))
        _check_noise_variance(self.noise_variance)

    @property
    def n_elements(self) -> int:
        return self.h_h.shape[0]


@dataclass(frozen=True, eq=False)
class Link:
    """The seed-independent half of one placement's channel; see link(). Rows
    0-3 of the read-only amp, det and pol are the H and V vectors of the tx
    side, then of the rx side: envelope, w_det times the deterministic part,
    square-rooted polarization weight. key holds the tx and rx positions as
    the entropy words that key the scatter generator."""

    key: tuple
    amp: np.ndarray
    det: np.ndarray
    w_sc: float
    pol: np.ndarray
    h_los: complex
    cross_pol_coupling: float
    noise_variance: float

    def draw(self, seed: int) -> ChannelRealization:
        """The realization at one seed: a Rician scattered part on the
        envelope, from the generator keyed on (seed, tx position, rx
        position), which draws both polarizations of the tx side, then of
        the rx side. MeasurementFloorError if a vector is past float64's range."""
        z = derive_rng(seed, self.key).standard_normal((4, 2, self.amp.shape[1]))
        with np.errstate(over="ignore", invalid="ignore"):
            v = self.pol * (self.det + self.w_sc * (self.amp * ((z[:, 0] + 1j * z[:, 1]) / math.sqrt(2.0))))
            c = self.cross_pol_coupling
            if c > 0.0:
                v = math.sqrt(1.0 - c) * v + math.sqrt(c) * v[[1, 0, 3, 2]]
        if not np.isfinite(v.view(np.float64)).all():
            raise MeasurementFloorError("channel is not a finite float64")
        return ChannelRealization(*v, self.h_los, self.noise_variance)


def link(scene: Scene, layout: RisLayout, params: ChannelModelParams) -> Link:
    """Everything of synthesize_channels that does not depend on the seed:
    per element, spherical-wave phase over the exact element distance,
    antenna gain toward the element and distance to the power
    -path_loss_exponent/2, the envelope the scattered part rides on.
    MeasurementFloorError if a term is past float64's range."""
    if math.isinf(params.rician_k_db):
        w_det, w_sc = 1.0, 0.0
    else:
        k = 10.0 ** (params.rician_k_db / 10.0)
        w_det = math.sqrt(k / (k + 1.0))
        w_sc = math.sqrt(1.0 / (k + 1.0))
    amp, det, pol = [], [], []
    with np.errstate(over="ignore", invalid="ignore"):
        for term, sign in ((scene.tx, -1j), (scene.rx, 1j)):
            delta = layout.element_positions() - term.position
            d = np.linalg.norm(delta, axis=1)
            if np.any(d < 1e-9):
                raise ValueError("terminal coincides with an element position")
            a = np.sqrt(gains_toward(term, delta / d[:, None])) * d ** (-params.path_loss_exponent / 2.0)
            amp += [a, a]
            det += [w_det * (a * np.exp(sign * (2.0 * np.pi * d / layout.wavelength)))] * 2
            pol += [math.sqrt(1.0 - term.polarization), math.sqrt(term.polarization)]
        path = direct_path(scene)
        # a float64 power, so an overflow reads inf rather than raising
        h_los = 0.0j if path is None else complex(
            math.sqrt(path[1])
            * np.float64(path[0]) ** (-params.path_loss_exponent / 2.0)
            * np.exp(-2j * np.pi * path[0] / layout.wavelength)
        )
    amp, det, pol = np.array(amp), np.array(det), np.array(pol)[:, None]
    if not (np.isfinite(amp).all() and np.isfinite(h_los)):
        raise MeasurementFloorError("channel is not a finite float64")
    for a in (amp, det, pol):
        a.setflags(write=False)
    key = tuple(_entropy_words([scene.tx.position, scene.rx.position]))
    return Link(key, amp, det, w_sc, pol, h_los, params.cross_pol_coupling, params.noise_variance)


def synthesize_channels(scene: Scene, layout: RisLayout, params: ChannelModelParams) -> ChannelRealization:
    """Draw h, g, and the direct scalar for one placement: link(scene,
    layout, params).draw(params.seed). The generator is keyed on (seed, tx
    position, rx position), so reruns are bit-identical while distinct
    placements get independent scatter."""
    return link(scene, layout, params).draw(params.seed)


def _state_products(chan: ChannelRealization, amplitude: float):
    """Table and offsets for _cascade. Row 0 of the (2, 4n) table holds the
    H products and row 1 the V products, element-major: column 4i + s is
    element i in state s, h times the sign +-amplitude + 0j of s's diode bit:
    one rounding of +-amplitude * h wherever it sits, so a gather at
    states + offsets is theta_diag(config) * h to the last bit."""
    if not 0.0 < amplitude <= 1.0:
        raise ValueError("amplitude must be in (0, 1]")
    pols = ((_POL_BIT["H"], chan.h_h), (_POL_BIT["V"], chan.h_v))
    by_state = np.array(
        [[(amplitude * (1 - 2 * ((s >> b) & 1)) + 0j) * h for s in range(NUM_ELEMENT_STATES)] for b, h in pols]
    )
    table = np.ascontiguousarray(by_state.transpose(0, 2, 1)).reshape(2, -1)
    return table, np.arange(chan.n_elements) * NUM_ELEMENT_STATES


def _cascade(config: RisConfig, chan: ChannelRealization, products) -> complex:
    """g_h^H diag(theta_h) h_h + g_v^H diag(theta_v) h_v + h_los, gathered
    from the table of _state_products."""
    table, offsets = products
    n = len(offsets)
    # a RisConfig holds exactly layout.n_active states
    if len(config.states) != n:
        raise ValueError("configuration and channel have different element counts")
    idx = np.fromiter(config.states, np.intp, n)
    idx += offsets
    x = table.take(idx, axis=1)
    return complex(np.vdot(chan.g_h, x[0])) + complex(np.vdot(chan.g_v, x[1])) + chan.h_los


def channel_gain(config: RisConfig, chan: ChannelRealization, amplitude: float = DEFAULT_ELEMENT_AMPLITUDE) -> complex:
    """Complex end-to-end coefficient: per-polarization g^H diag(theta) h
    cascades plus the direct term."""
    return _cascade(config, chan, _state_products(chan, amplitude))


@dataclass(frozen=True)
class ToneParams:
    """Probe tone and sampling settings."""

    tone_hz: float = 100e3
    sample_rate_hz: float = 1e6
    buffer_len: int = 10_000
    tx_amplitude: float = 1.0

    def __post_init__(self):
        # chained comparisons are false for NaN, so NaN fails each check
        if not 0.0 < self.sample_rate_hz < math.inf:
            raise ValueError("sample_rate_hz must be finite and positive")
        if not 0.0 < self.tone_hz < self.sample_rate_hz / 2.0:
            raise ValueError("tone_hz must sit below Nyquist")
        if self.buffer_len < 1:
            raise ValueError("buffer_len must be at least 1")
        if not 0.0 < self.tx_amplitude < math.inf:
            raise ValueError("tx_amplitude must be finite and positive")


def tone_waveform(tone: ToneParams) -> np.ndarray:
    """Complex baseband probe: tx_amplitude * exp(j 2 pi f k / fs)."""
    k = np.arange(tone.buffer_len)
    w = tone.tx_amplitude * np.exp(2j * np.pi * tone.tone_hz * k / tone.sample_rate_hz)
    w.setflags(write=False)
    return w


@dataclass(frozen=True, eq=False)
class QuantizedBuffer:
    """12-bit conversion result: (K, 2) integer codes and the clipped share."""

    iq: np.ndarray
    clip_fraction: float


def quantize_adc(samples, full_scale: float) -> QuantizedBuffer:
    """Map complex samples onto 12-bit codes; valid codes are (-2047, 2048].

    Rounding is half away from zero. Components beyond full scale clamp
    silently; the fraction of samples touched by clamping is reported.
    """
    x = np.asarray(samples, dtype=np.complex128)
    buf = np.stack([x.real, x.imag]) * code_scale(full_scale)
    np.copysign(_round_magnitudes(buf, np.empty_like(buf)), buf, out=buf)
    clip_fraction = _clip_codes(buf)
    return QuantizedBuffer(np.moveaxis(buf, 0, -1).astype(np.int16, order="C"), clip_fraction)


def code_scale(full_scale: float) -> float:
    """ADC codes per unit of amplitude; ValueError unless full_scale is
    positive and gives a finite one."""
    if full_scale <= 0:
        raise ValueError("full_scale must be positive")
    scale = ADC_CODE_MAX / full_scale
    # a subnormal full scale overflows the code scale, and inf * 0 would
    # turn a silent sample into a NaN code
    if not math.isfinite(scale):
        raise ValueError(f"full_scale {full_scale!r} gives no finite ADC code scale")
    return scale


def _round_magnitudes(buf: np.ndarray, mags: np.ndarray) -> np.ndarray:
    """Put floor(|buf| + 0.5) into mags, of buf's shape, and return it: the
    magnitudes of buf rounded half away from zero."""
    np.abs(buf, out=mags)
    mags += 0.5
    return np.floor(mags, out=mags)


def _clip_codes(buf: np.ndarray) -> float:
    """Clamp rounded I/Q rows buf[0], buf[1] to the code range in place and
    return the share of samples with a clamped component."""
    if not buf.size or (buf.max() <= ADC_CODE_MAX and buf.min() >= ADC_CODE_MIN):
        return 0.0
    over = ((buf > ADC_CODE_MAX) | (buf < ADC_CODE_MIN)).any(axis=0)
    np.clip(buf, ADC_CODE_MIN, ADC_CODE_MAX, out=buf)
    return np.count_nonzero(over) / over.size


def _codes_dbfs(codes: np.ndarray, n_samples: int) -> float:
    # integer codes of at most 2048 keep every partial sum of squares below
    # 2**53, so the float64 sum is exact in any order
    p = float(np.einsum("ij,ij->", codes, codes)) / n_samples
    if p == 0.0:
        raise MeasurementFloorError("ADC buffer is identically zero: no measurable power")
    # via the RMS so a constant-amplitude-A buffer lands on 20*log10(A) to
    # the last bit (sqrt(A*A) is exactly A in IEEE arithmetic)
    return float(20.0 * np.log10(math.sqrt(p)))


def power_dbfs(iq) -> float:
    """Average power of ADC codes in dB relative to one squared LSB.

    Full scale sits near 66 dB on this scale, so bench-like levels come out
    as positive values around 20 to 35.
    """
    a = np.asarray(iq, dtype=np.float64)
    if a.ndim != 2 or a.shape[-1] != 2 or a.shape[0] < 1:
        raise ValueError("expected a (K, 2) integer I/Q buffer")
    return _codes_dbfs(a, a.shape[0])


class TonePowerMeter:
    """Measurement function: tone through one channel, AWGN, ADC, dBFS.

    Calls are counted and each call's noise comes from a stream keyed on
    (noise_seed, call index), so a rerun reproduces the exact sequence.
    Each call adds the noise, quantizes and takes the power in place on the
    I and Q rows of one buffer allocated here, through the rounding, clipping
    and dB helpers of quantize_adc and power_dbfs, so a reading equals
    power_dbfs(quantize_adc(c * w + noise).iq) to the last bit. c is
    gathered from per-state tables built here.
    """

    def __init__(
        self,
        chan: ChannelRealization,
        tone: ToneParams | None = None,
        *,
        full_scale: float = DEFAULT_FULL_SCALE,
        amplitude: float = DEFAULT_ELEMENT_AMPLITUDE,
        noise_seed=0,
    ):
        self.chan = chan
        self.tone = tone if tone is not None else ToneParams()
        self.full_scale = float(full_scale)
        self.amplitude = float(amplitude)
        self.noise_seed = noise_seed
        self.calls = 0
        self.last_clip_fraction = 0.0
        self._code_scale = code_scale(self.full_scale)
        self._waveform = tone_waveform(self.tone)
        self._noise_words = _entropy_words([noise_seed])
        self._noise_scale = math.sqrt(self.chan.noise_variance / 2.0)
        self._buf = np.empty((2, self.tone.buffer_len))
        self._mags = np.empty_like(self._buf)
        self._products = _state_products(chan, self.amplitude)

    def __call__(self, config: RisConfig) -> float:
        index = self.calls
        self.calls += 1
        c = _cascade(config, self.chan, self._products)
        # the I and Q rows of c * w as one (2, K) view
        r = (c * self._waveform).view(np.float64).reshape(-1, 2).T
        buf = self._buf
        if self.chan.noise_variance > 0.0:
            # fills the rows in the order standard_normal((2, K)) draws them
            derive_rng(self._noise_words, index).standard_normal(out=buf)
            buf *= self._noise_scale
            buf += r
        else:
            buf[...] = r
        buf *= self._code_scale
        mags = _round_magnitudes(buf, self._mags)
        if mags.max() < ADC_CODE_MAX:
            # no code can leave (-2047, 2048], and the power ignores signs
            self.last_clip_fraction = 0.0
            return _codes_dbfs(mags, buf.shape[1])
        np.copysign(mags, buf, out=buf)
        self.last_clip_fraction = _clip_codes(buf)
        return _codes_dbfs(buf, buf.shape[1])


def _gain_db(c: complex) -> float:
    """|c|^2 in dB; a zero coefficient reads -inf, one past float64's range raises MeasurementFloorError."""
    try:
        g = abs(c) ** 2
    except OverflowError:
        g = math.inf
    if g == 0.0:
        return float("-inf")
    if not g < math.inf:
        raise MeasurementFloorError(f"gain of coefficient {c!r} is not a finite float64: no finite reading")
    return float(10.0 * np.log10(g))


def _gains_db(c: np.ndarray) -> np.ndarray:
    """_gain_db of each entry of a complex array, to the last bit: np.hypot and np.float_power(x, 2.0)
    round as the libm hypot and pow behind abs and ** do, where np.abs, np.square and np.power can differ."""
    with np.errstate(divide="ignore", over="ignore"):
        db = 10.0 * np.log10(np.float_power(np.hypot(c.real, c.imag), 2.0))
    if not (db < math.inf).all():
        raise MeasurementFloorError("a configuration's gain is not a finite float64: no finite reading")
    return db


def _pattern_keys(bits: np.ndarray) -> np.ndarray:
    """One exact key per row of an (M, n) matrix whose entries are 0 or one
    fixed bit value: an int64 of the row's first 32 columns, or past 32
    columns the bytes of one such word per 32 columns."""
    words = [
        bits[:, j : j + 32].astype(np.int64) @ (np.int64(1) << np.arange(min(32, bits.shape[1] - j)))
        for j in range(0, bits.shape[1], 32)
    ]
    if len(words) == 1:
        return words[0]
    return np.column_stack(words).view(f"V{8 * len(words)}").ravel()


class GainMeter:
    """Noiseless analytic measurement: configuration gain in dB.

    Shares the measurement-function contract with TonePowerMeter and its
    per-state tables; zero gain reads -inf (see _gain_db). readings() reads
    a whole matrix of states at once into a float64 array, as the exhaustive
    search does, each reading equal to a call on that row's configuration.
    """

    def __init__(self, chan: ChannelRealization, amplitude: float = DEFAULT_ELEMENT_AMPLITUDE):
        self.chan = chan
        self.amplitude = float(amplitude)
        self.calls = 0
        self._products = _state_products(chan, self.amplitude)

    def __call__(self, config: RisConfig) -> float:
        self.calls += 1
        return _gain_db(_cascade(config, self.chan, self._products))

    def readings(self, states) -> np.ndarray:
        """dB readings, as a float64 array, of the rows of an (M, n) matrix of integer element states.

        The H cascade of a row depends only on its bit-0 pattern and the V
        cascade only on its bit-1 pattern: the table holds each entry as one
        rounding of +-amplitude * h, so states 0 and 2 (1 and 3) share H bits,
        and 0 and 1 (2 and 3) share V bits. Each distinct pattern is read with
        one np.vdot, gathered at the pattern's bit values as states, and the
        readings are _gains_db((H + V) + h_los), each equal to __call__'s.
        """
        table, offsets = self._products
        states = np.asarray(states)
        if states.ndim != 2 or states.shape[1] != len(offsets):
            raise ValueError(f"expected an (M, {len(offsets)}) matrix of element states")
        if not np.issubdtype(states.dtype, np.integer):
            raise ValueError("element states must be integers")
        if states.size and (states.min() < 0 or states.max() >= NUM_ELEMENT_STATES):
            raise ValueError("element states must be in 0..3")
        states = states.astype(np.intp, copy=False)  # uint64 + int64 offsets would give float64
        self.calls += len(states)
        cascades = []
        for row, g, bit in ((table[0], self.chan.g_h, 1), (table[1], self.chan.g_v, 2)):
            bits = states & bit
            _, first, inverse = np.unique(_pattern_keys(bits), return_index=True, return_inverse=True)
            x = row.take(bits[first] + offsets)
            values = np.array([np.vdot(g, xp) for xp in x], dtype=np.complex128)
            cascades.append(values[inverse])
        return _gains_db(cascades[0] + cascades[1] + self.chan.h_los)

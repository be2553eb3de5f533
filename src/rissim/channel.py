"""Cascaded channel synthesis, tone reception, ADC quantization, and dBFS.

Phase conventions: the forward channel h toward the surface carries
exp(-j 2 pi d / lambda) per element; the return channel g is stored with the
opposite sign so that the conjugating cascade g^H diag(theta) h accumulates
the physical round-trip phase. The direct term h_los is a plain scalar.

Every random draw comes from a generator keyed on explicit integers (seed,
terminal positions, measurement index), so identical inputs reproduce
identical bits and parallel evaluation order cannot change results.

Every reading takes the end-to-end coefficient c from one entry,
_Cascade.read, of a block of configurations; a meter call is the block read
of one row. Norms, dot products and c * w are plain IEEE arithmetic, and
powers, logs and the dB rule libm calls per value, so no output byte depends
on the BLAS kernel or numpy's SIMD level; only libm's rounding can move one.
"""

from __future__ import annotations

import cmath
import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .geometry import Scene, SettingError, _dot3, direct_path, gains_toward
from .ris import DEFAULT_ELEMENT_AMPLITUDE, NUM_ELEMENT_STATES, RisConfig, RisLayout

ADC_CODE_MAX = 2048
ADC_CODE_MIN = -2047

# Receiver defaults calibrated on the default bench (all elements off,
# deterministic channel, median over the grid angles at 170 cm): the all-off
# tone lands near 20 dBFS and the per-sample SNR near 30 dB.
# scripts/calibrate_defaults.py recomputes both.
DEFAULT_FULL_SCALE = 800.7328811701996
DEFAULT_NOISE_VARIANCE = 0.015286759066274856


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


def _entropy(parts) -> np.ndarray:
    """The uint32 array SeedSequence would build from the 64-bit words of
    parts itself: a word below 2**32 is one entry, any other its low half
    then its high half. Seeding with it skips numpy's per-int coercion."""
    entropy: list[int] = []
    for w in _entropy_words(parts):
        entropy.extend((w & 0xFFFFFFFF, w >> 32) if w >> 32 else (w,))
    return np.array(entropy, dtype=np.uint32)


def derive_rng(*parts) -> np.random.Generator:
    """Generator keyed on a mixed tuple of ints, floats, strings, arrays:
    default_rng(_entropy_words(parts)), seeded through _entropy. A list of
    words from _entropy_words keys the same stream as the parts it came from."""
    return np.random.default_rng(_entropy(parts))


def derive_seed(*parts) -> int:
    """Stable 64-bit sub-seed from the same kind of mixed key: the first
    uint64 word of SeedSequence(_entropy_words(parts)), seeded with the
    uint32 array of _entropy as derive_rng is."""
    return int(np.random.SeedSequence(_entropy(parts)).generate_state(1, np.uint64)[0])


def _check_noise_variance(noise_variance: float) -> None:
    # NaN would run a noiseless campaign (NaN > 0 is false) and inf would
    # clip every sample
    if not 0.0 <= noise_variance < math.inf:
        raise ValueError("noise_variance must be finite and non-negative")


class MeasurementFloorError(ValueError):
    """A measurement with no finite reading: an all-zero ADC buffer, or a channel or gain past float64's range."""


@dataclass(frozen=True)
class ChannelModelParams:
    """Propagation model knobs shared by every synthesized link; the draw
    takes its seed, and TonePowerMeter the receiver's noise variance."""

    path_loss_exponent: float = 2.0
    rician_k_db: float = 10.0  # deterministic-to-scattered power ratio; inf is pure deterministic
    cross_pol_coupling: float = 0.0

    def __post_init__(self):
        # chained comparisons are false for NaN, so NaN fails each check
        if not 1.0 <= self.path_loss_exponent < math.inf:
            raise SettingError("path_loss_exponent must be finite and at least 1", "path_loss_exponent")
        if math.isnan(self.rician_k_db):
            raise SettingError("rician_k_db must not be NaN", "rician_k_db")
        if not 0.0 <= self.cross_pol_coupling <= 1.0:
            raise SettingError("cross_pol_coupling must be in [0, 1]", "cross_pol_coupling")


@dataclass(frozen=True, eq=False)
class ChannelRealization:
    """One drawn link: per-polarization element vectors plus the direct term.
    A stack of S draws of one placement holds (S, n) vectors, row i those of
    draw i, and the direct term the draws share."""

    h_h: np.ndarray
    h_v: np.ndarray
    g_h: np.ndarray
    g_v: np.ndarray
    h_los: complex

    def __post_init__(self):
        shape = None
        for name in ("h_h", "h_v", "g_h", "g_v"):
            vec = np.array(getattr(self, name), dtype=np.complex128)
            if vec.ndim not in (1, 2):
                raise ValueError(f"{name} must be a vector or a stack of vectors")
            if not np.isfinite(vec.view(np.float64)).all():
                raise ValueError(f"{name} has non-finite entries")
            if shape is None:
                shape = vec.shape
            elif vec.shape != shape:
                raise ValueError("channel vectors must share one shape")
            vec.setflags(write=False)
            object.__setattr__(self, name, vec)
        object.__setattr__(self, "h_los", complex(self.h_los))

    @property
    def n_elements(self) -> int:
        return self.h_h.shape[-1]


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

    def draw(self, seed: int) -> ChannelRealization:
        """The realization at one seed: a Rician scattered part on the
        envelope, from the generator keyed on (seed, tx position, rx
        position), which draws both polarizations of the tx side, then of
        the rx side. MeasurementFloorError if a vector is past float64's range."""
        z = derive_rng(seed, self.key).standard_normal((4, 2, self.amp.shape[1]))
        return ChannelRealization(*self._vectors(z), self.h_los)

    def draw_stack(self, seeds) -> ChannelRealization:
        """The realizations at each of seeds as one stack: row i holds the
        vectors of draw(seeds[i]), each seed's normals from its own
        generator, and the arithmetic runs once over the stack."""
        z = np.empty((len(seeds), 4, 2, self.amp.shape[1]))
        for row, seed in zip(z, seeds):
            # the normals standard_normal((4, 2, n)) would draw, in order
            derive_rng(seed, self.key).standard_normal(out=row)
        return ChannelRealization(*self._vectors(z).swapaxes(0, 1), self.h_los)

    def _vectors(self, z: np.ndarray) -> np.ndarray:
        """The (..., 4, n) element vectors, rows as in amp, of (..., 4, 2, n)
        standard normals: sqrt(w_pol) (w_det det + w_sc amp (z0 + j z1) /
        sqrt(2)), then the cross-pol mix. MeasurementFloorError if an entry
        is past float64's range."""
        with np.errstate(over="ignore", invalid="ignore"):
            v = self.pol * (self.det + self.w_sc * (self.amp * ((z[..., 0, :] + 1j * z[..., 1, :]) / math.sqrt(2.0))))
            c = self.cross_pol_coupling
            if c > 0.0:
                v = math.sqrt(1.0 - c) * v + math.sqrt(c) * v[..., [1, 0, 3, 2], :]
        if not np.isfinite(v.view(np.float64)).all():
            raise MeasurementFloorError("channel is not a finite float64")
        return v


def _pow(x: float, e: float) -> float:
    """x ** e by libm pow, inf where that overflows float64."""
    try:
        return x ** e
    except OverflowError:
        return math.inf


def link(scene: Scene, layout: RisLayout, params: ChannelModelParams) -> Link:
    """Everything of synthesize_channels that does not depend on the seed:
    per element, spherical-wave phase over the exact element distance,
    antenna gain toward the element and distance to the power
    -path_loss_exponent/2, the envelope the scattered part rides on.
    MeasurementFloorError if a term is past float64's range."""
    k = _pow(10.0, params.rician_k_db / 10.0)
    # a K whose power overflows is the infinite-K, deterministic channel
    w_det, w_sc = (1.0, 0.0) if k == math.inf else (math.sqrt(k / (k + 1.0)), math.sqrt(1.0 / (k + 1.0)))
    e = -params.path_loss_exponent / 2.0
    amp, det, pol = [], [], []
    with np.errstate(over="ignore", invalid="ignore"):
        for term, sign in ((scene.tx, -1j), (scene.rx, 1j)):
            delta = layout.element_positions() - term.position
            d = np.sqrt(_dot3(delta, delta))
            a = np.sqrt(gains_toward(term, delta / d[:, None])) * np.array([_pow(x, e) for x in d.tolist()])
            amp += [a, a]
            det += [w_det * (a * np.exp(sign * (2.0 * np.pi * d / layout.wavelength)))] * 2
            pol += [math.sqrt(1.0 - term.polarization), math.sqrt(term.polarization)]
    path = direct_path(scene)
    h_los = 0.0j if path is None else (
        math.sqrt(path[1]) * _pow(path[0], e) * cmath.exp(-2j * math.pi * path[0] / layout.wavelength)
    )
    amp, det, pol = np.array(amp), np.array(det), np.array(pol)[:, None]
    if not (np.isfinite(amp).all() and cmath.isfinite(h_los)):
        raise MeasurementFloorError("channel is not a finite float64")
    for a in (amp, det, pol):
        a.setflags(write=False)
    key = tuple(_entropy_words([scene.tx.position, scene.rx.position]))
    return Link(key, amp, det, w_sc, pol, h_los, params.cross_pol_coupling)


def synthesize_channels(scene: Scene, layout: RisLayout, params: ChannelModelParams, seed: int) -> ChannelRealization:
    """Draw h, g, and the direct scalar for one placement at one seed: link(scene, layout, params).draw(seed),
    keyed on (seed, tx position, rx position), so reruns are bit-identical and placements independent."""
    return link(scene, layout, params).draw(seed)


class _Cascade:
    """The fixed-order cascade kernel. Column 4i + s of the read-only (2, 4n)
    table holds the real and imaginary parts of x[i, s] = conj(g_h,i) a_H(s)
    h_h,i + conj(g_v,i) a_V(s) h_v,i, a_P(s) being -amplitude where s sets
    P's diode bit and +amplitude elsewhere: each polarization's
    amplitude conj(g) h, built with real multiplies and adds, taken with
    either sign. A stack of S channels gives a (2, S, 4n) table, row j of
    each part channel j's, by the same elementwise steps. MeasurementFloorError
    unless, for every channel, twice a bound on the largest |c| squares to a
    finite float64, so no reading overflows or needs a floating-point error
    state. read() is the one way to a coefficient: every meter call, block
    read and channel_gain goes through it."""

    def __init__(self, chan: ChannelRealization, amplitude: float):
        if not 0.0 < amplitude <= 1.0:
            raise ValueError("amplitude must be in (0, 1]")
        with np.errstate(over="ignore", invalid="ignore"):
            p_h, p_v = (
                amplitude * np.array([g.real * h.real + g.imag * h.imag, g.real * h.imag - g.imag * h.real])
                for g, h in ((chan.g_h, chan.h_h), (chan.g_v, chan.h_v))
            )
            both, diff = p_h + p_v, p_v - p_h
            x = np.stack([both, diff, p_h - p_v, -both], axis=-1)  # (part, [channel,] element, state)
            # per element the largest |re| + |im| over its states (3 negates
            # state 0, 2 state 1), summed over the elements
            reach = np.maximum(np.abs(both).sum(axis=0), np.abs(diff).sum(axis=0)).sum(axis=-1)
            bound = 2.0 * (reach + abs(chan.h_los.real) + abs(chan.h_los.imag))
            fits = bound * bound < math.inf
        if not fits.all():
            raise MeasurementFloorError("a configuration's gain can pass float64's range: no finite reading")
        self.table = x.reshape(*x.shape[:-2], -1)
        self.table.setflags(write=False)
        self.offsets = np.arange(chan.n_elements) * NUM_ELEMENT_STATES
        self._hr, self._hi = chan.h_los.real, chan.h_los.imag

    def read(self, states):
        """(re, im) of c for each row of an (M, n) matrix of integer element
        states in 0..3, as (M,) arrays, (S, M) on a stack: one gather at
        states + offsets, numpy's pairwise sum along each row, then h_los.
        ValueError for any other matrix."""
        n = len(self.offsets)
        states = np.asarray(states)
        if states.ndim != 2 or states.shape[1] != n:
            raise ValueError(f"expected an (M, {n}) matrix of element states")
        if not np.issubdtype(states.dtype, np.integer):
            raise ValueError("element states must be integers")
        if states.size and (states.min() < 0 or states.max() >= NUM_ELEMENT_STATES):
            raise ValueError("element states must be in 0..3")
        # intp first: uint64 + int64 offsets would give float64
        idx = states.astype(np.intp, copy=False) + self.offsets
        re, im = np.add.reduce(self.table.take(idx, axis=-1), axis=-1)
        return re + self._hr, im + self._hi


def channel_gain(config: RisConfig, chan: ChannelRealization, amplitude: float = DEFAULT_ELEMENT_AMPLITUDE) -> complex:
    """Complex end-to-end coefficient: per-polarization g^H diag(theta) h
    cascades plus the direct term, _Cascade.read of the configuration's
    one-row block."""
    if chan.h_h.ndim != 1:
        raise ValueError("channel_gain reads one channel, not a stack")
    re, im = _Cascade(chan, amplitude).read([config.states])
    return complex(re[0], im[0])


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
            raise SettingError("sample_rate_hz must be finite and positive", "sample_rate_hz")
        if not 0.0 < self.tone_hz < self.sample_rate_hz / 2.0:
            raise SettingError("tone_hz must sit below Nyquist")
        if self.buffer_len < 1:
            raise SettingError("buffer_len must be at least 1", "buffer_len")
        if not 0.0 < self.tx_amplitude < math.inf:
            raise SettingError("tx_amplitude must be finite and positive", "tx_amplitude")


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
    return 20.0 * math.log10(math.sqrt(p))


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
    """Measurement: tone through one channel, AWGN, ADC, dBFS.

    readings() reads the rows of a state matrix in row order, and a call is
    readings() of the configuration's one-row block. noise_variance, the
    receiver's per sample, has no default; 0.0 draws no noise. Readings are
    counted and each one's noise comes from a stream keyed on (noise_seed,
    reading index), so a rerun reproduces the exact sequence. A reading
    builds the I and Q rows of c * w as re(c) [wr; wi] + im(c) [-wi; wr],
    never with numpy's complex multiply, then adds the noise, quantizes and
    takes the power in place through the helpers of quantize_adc and
    power_dbfs: a reading is power_dbfs(quantize_adc(c * w + noise).iq).
    """

    def __init__(
        self,
        chan: ChannelRealization,
        tone: ToneParams | None = None,
        *,
        full_scale: float = DEFAULT_FULL_SCALE,
        amplitude: float = DEFAULT_ELEMENT_AMPLITUDE,
        noise_variance: float,
        noise_seed=0,
    ):
        _check_noise_variance(noise_variance)
        if chan.h_h.ndim != 1:
            raise ValueError("a tone meter reads one channel, not a stack")
        self.calls = 0
        self.last_clip_fraction = 0.0
        self._code_scale = code_scale(float(full_scale))
        w = tone_waveform(tone if tone is not None else ToneParams())
        self._w, self._jw = np.array([w.real, w.imag]), np.array([-w.imag, w.real])
        self._noise_words = _entropy_words([noise_seed])
        self._noise_variance = noise_variance
        self._noise_scale = math.sqrt(noise_variance / 2.0)
        self._buf = np.empty((2, len(w)))
        self._mags = np.empty_like(self._buf)
        self._kernel = _Cascade(chan, float(amplitude))

    def __call__(self, config: RisConfig) -> float:
        return float(self.readings([config.states])[0])

    def readings(self, states) -> np.ndarray:
        """dB readings, as a float64 array, of an (M, n) integer state matrix,
        row i read at the next reading index; checked whole before reading."""
        re, im = self._kernel.read(states)
        return np.array([self._reading(r, i) for r, i in zip(re.tolist(), im.tolist())], dtype=np.float64)

    def _reading(self, re: float, im: float) -> float:
        """The reading of the coefficient re + j im, at the next index."""
        index = self.calls
        self.calls += 1
        buf, mags = self._buf, self._mags
        np.multiply(self._w, re, out=buf)
        buf += np.multiply(self._jw, im, out=mags)
        if self._noise_variance > 0.0:
            # fills the rows in the order standard_normal((2, K)) draws them
            derive_rng(self._noise_words, index).standard_normal(out=mags)
            mags *= self._noise_scale
            buf += mags
        buf *= self._code_scale
        mags = _round_magnitudes(buf, mags)
        if mags.max() < ADC_CODE_MAX:
            # no code can leave (-2047, 2048], and the power ignores signs
            self.last_clip_fraction = 0.0
            return _codes_dbfs(mags, buf.shape[1])
        np.copysign(mags, buf, out=buf)
        self.last_clip_fraction = _clip_codes(buf)
        return _codes_dbfs(buf, buf.shape[1])


class GainMeter:
    """Noiseless analytic measurement: configuration gain in dB.

    Reads as TonePowerMeter does, through its _Cascade kernel: a call is
    readings() of the configuration's one-row block, and reads one channel,
    never a stack. readings() reads one channel or every channel of a stack
    and holds the one dB rule, 10 log10(re^2 + im^2) with zero gain at -inf:
    the block's powers as array ops, libm's log10 mapped over the nonzero
    ones, never numpy's log10, which may round otherwise on SIMD hosts.
    """

    def __init__(self, chan: ChannelRealization, amplitude: float = DEFAULT_ELEMENT_AMPLITUDE):
        self.calls = 0
        self._kernel = _Cascade(chan, float(amplitude))
        self._stacked = chan.h_h.ndim != 1

    def __call__(self, config: RisConfig) -> float:
        if self._stacked:
            raise ValueError("a gain meter call reads one channel, not a stack")
        return float(self.readings([config.states])[0])

    def readings(self, states) -> np.ndarray:
        """dB readings, as a float64 array, of the rows of an (M, n) matrix of
        integer element states: (M,) on one channel, (S, M) on a stack of S,
        row j channel j's."""
        re, im = self._kernel.read(states)
        # IEEE powers, libm log10 per nonzero power, then one multiply by 10.0
        p = re * re + im * im
        self.calls += p.size
        out = np.full(p.shape, -math.inf)
        lit = p != 0.0
        out[lit] = 10.0 * np.fromiter(map(math.log10, p[lit].tolist()), np.float64)
        return out

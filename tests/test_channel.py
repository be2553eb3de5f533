import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rissim.channel import (
    ChannelModelParams,
    ChannelRealization,
    GainMeter,
    MeasurementFloorError,
    TonePowerMeter,
    ToneParams,
    channel_gain,
    derive_rng,
    derive_seed,
    end_to_end_gain,
    power_dbfs,
    quantize_adc,
    synthesize_channels,
    tone_waveform,
)
from rissim.geometry import make_scene
from rissim.ris import RisConfig, RisLayout, theta_diag


def _unit_channel(n=1, h_los=0.0j, noise=0.0):
    """Synthetic realization with unit entries on H and dark V."""
    ones = np.ones(n, dtype=np.complex128)
    zeros = np.zeros(n, dtype=np.complex128)
    return ChannelRealization(ones, zeros, ones, zeros, h_los, noise)


# --- seeding -----------------------------------------------------------


def test_derive_rng_reproducible_and_sensitive():
    a = derive_rng(3, "stream", 1.5).standard_normal(4)
    b = derive_rng(3, "stream", 1.5).standard_normal(4)
    c = derive_rng(3, "stream", 2.5).standard_normal(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_derive_seed_mixes_arrays_and_strings():
    pos = np.array([0.1, 0.2, 0.3])
    s1 = derive_seed(0, pos, "tx")
    s2 = derive_seed(0, pos, "rx")
    s3 = derive_seed(0, pos.copy(), "tx")
    assert s1 != s2
    assert s1 == s3
    with pytest.raises(TypeError):
        derive_seed(object())


# --- synthesis ---------------------------------------------------------


def test_synthesis_is_bit_deterministic():
    scene = make_scene(rx_angle_deg=70.0, rx_distance_cm=170.0)
    lay = RisLayout.default()
    params = ChannelModelParams(seed=11)
    a = synthesize_channels(scene, lay, params)
    b = synthesize_channels(scene, lay, params)
    for name in ("h_h", "h_v", "g_h", "g_v"):
        assert np.array_equal(getattr(a, name), getattr(b, name))
    assert a.h_los == b.h_los
    c = synthesize_channels(scene, lay, ChannelModelParams(seed=12))
    assert not np.array_equal(a.h_h, c.h_h)


def test_deterministic_part_mirror_symmetric():
    # pure deterministic channel on a symmetric panel, transmitter on
    # broadside: mirrored receiver angles see the same all-off magnitude
    lay = RisLayout(nx=4, ny=3)
    params = ChannelModelParams(rician_k_db=float("inf"), noise_variance=0.0)
    off = RisConfig.all_off(lay)
    mags = []
    for ang in (70.0, 110.0):
        scene = make_scene(rx_angle_deg=ang, rx_distance_cm=170.0, tx_angle_deg=90.0)
        chan = synthesize_channels(scene, lay, params)
        mags.append(abs(channel_gain(off, chan)))
    assert mags[0] == pytest.approx(mags[1], rel=1e-10)


def test_return_amplitude_follows_inverse_distance():
    # single element at the surface center: doubling the receiver range
    # exactly halves |g| under the default path-loss exponent
    lay = RisLayout(nx=1, ny=1)
    params = ChannelModelParams(rician_k_db=float("inf"), noise_variance=0.0)
    near = synthesize_channels(make_scene(rx_angle_deg=90.0, rx_distance_cm=100.0), lay, params)
    far = synthesize_channels(make_scene(rx_angle_deg=90.0, rx_distance_cm=200.0), lay, params)
    assert abs(near.g_h[0]) / abs(far.g_h[0]) == pytest.approx(2.0, rel=1e-12)


def test_rician_weights_preserve_envelope_scale():
    # the scattered part rides on the same magnitude envelope, so the
    # per-element magnitude stays within a factor of a few of deterministic
    lay = RisLayout(nx=2, ny=2)
    scene = make_scene(rx_angle_deg=70.0, rx_distance_cm=170.0)
    det = synthesize_channels(scene, lay, ChannelModelParams(rician_k_db=float("inf")))
    mixed = synthesize_channels(scene, lay, ChannelModelParams(rician_k_db=10.0, seed=3))
    ratio = np.abs(mixed.h_h) / np.abs(det.h_h)
    assert np.all(ratio > 0.3) and np.all(ratio < 3.0)


def test_terminal_on_element_rejected():
    lay = RisLayout(nx=1, ny=1)
    scene = make_scene(rx_angle_deg=90.0, rx_distance_cm=100.0)
    bad = scene.with_rx_at(90.0, 1e-8)
    with pytest.raises(ValueError):
        synthesize_channels(bad, lay, ChannelModelParams())


def test_cross_pol_coupling_mixes_power():
    lay = RisLayout(nx=2, ny=2)
    scene = make_scene(rx_angle_deg=70.0, rx_distance_cm=170.0, polarization=1.0)
    pure = synthesize_channels(scene, lay, ChannelModelParams(seed=5))
    # V-only terminals: the H vector starts dark, coupling lights it up
    assert np.allclose(pure.h_h, 0.0)
    mixed = synthesize_channels(scene, lay, ChannelModelParams(seed=5, cross_pol_coupling=0.1))
    assert np.all(np.abs(mixed.h_h) > 0.0)


# --- cascade -----------------------------------------------------------


def test_two_element_cascade_extremes():
    chan = _unit_channel(2)
    lay = RisLayout(nx=2, ny=1)
    aligned = RisConfig(lay, (0, 0))
    opposed = RisConfig(lay, (1, 0))
    assert end_to_end_gain(aligned, chan, amplitude=1.0) == pytest.approx(4.0)
    assert end_to_end_gain(opposed, chan, amplitude=1.0) == pytest.approx(0.0, abs=1e-15)


def test_v_diode_flips_only_v_branch():
    ones = np.ones(2, dtype=np.complex128)
    chan = ChannelRealization(ones, ones, ones, ones, 0.0j, 0.0)
    lay = RisLayout(nx=2, ny=1)
    # state 2 engages V on both elements: H sums +2, V sums -2
    assert end_to_end_gain(RisConfig(lay, (2, 2)), chan, amplitude=1.0) == pytest.approx(0.0, abs=1e-15)
    # state 3 flips both branches the same way: full power again
    assert end_to_end_gain(RisConfig(lay, (3, 3)), chan, amplitude=1.0) == pytest.approx(16.0)


def test_channel_gain_matches_direct_formula():
    rng = derive_rng(42, "formula")
    n = 9
    lay = RisLayout(nx=3, ny=3)
    vecs = [
        (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / math.sqrt(2) for _ in range(4)
    ]
    chan = ChannelRealization(vecs[0], vecs[1], vecs[2], vecs[3], 0.2 - 0.1j, 0.0)
    states = tuple(rng.integers(0, 4, n))
    config = RisConfig(lay, states)
    alpha = 0.9
    sh = np.array([1 - 2 * (s & 1) for s in states])
    sv = np.array([1 - 2 * ((s >> 1) & 1) for s in states])
    expected = (
        np.sum(np.conj(vecs[2]) * alpha * sh * vecs[0])
        + np.sum(np.conj(vecs[3]) * alpha * sv * vecs[1])
        + (0.2 - 0.1j)
    )
    assert channel_gain(config, chan, alpha) == pytest.approx(expected, rel=1e-12)


def test_channel_gain_checks_element_count():
    with pytest.raises(ValueError):
        channel_gain(RisConfig.all_off(RisLayout(nx=2, ny=1)), _unit_channel(3))


@given(st.floats(0.0, 2.0 * math.pi))
@settings(max_examples=40, deadline=None)
def test_gain_invariant_to_global_phase(phi):
    rng = derive_rng(7, "phase")
    n = 6
    vecs = [(rng.standard_normal(n) + 1j * rng.standard_normal(n)) for _ in range(4)]
    rot = np.exp(1j * phi)
    chan = ChannelRealization(vecs[0], vecs[1], vecs[2], vecs[3], 0.3j, 0.0)
    spun = ChannelRealization(
        vecs[0] * rot, vecs[1] * rot, vecs[2], vecs[3], 0.3j * rot, 0.0
    )
    lay = RisLayout(nx=3, ny=2)
    config = RisConfig(lay, (0, 1, 2, 3, 0, 1))
    assert end_to_end_gain(config, spun) == pytest.approx(end_to_end_gain(config, chan), rel=1e-9)


# --- tone, noise -------------------------------------------------------


def test_tone_waveform_unit_circle():
    tone = ToneParams()
    w = tone_waveform(tone)
    assert len(w) == 10_000
    assert np.allclose(np.abs(w), 1.0)
    # 100 kHz at 1 MHz: ten samples per cycle
    assert w[10] == pytest.approx(w[0])
    with pytest.raises(ValueError):
        ToneParams(tone_hz=600e3)  # above Nyquist


def test_meter_noise_only_reading():
    # dark channel: the reading is the noise power in codes, sigma^2 (2048/fs)^2
    chan = ChannelRealization(*(np.zeros(1, np.complex128),) * 4, 0.0j, 0.01)
    off = RisConfig.all_off(RisLayout(nx=1, ny=1))
    p = TonePowerMeter(chan, full_scale=4.0, noise_seed=5)(off)
    expected = 10.0 * math.log10(0.01 * (2048.0 / 4.0) ** 2)
    assert p == pytest.approx(expected, abs=10.0 * math.log10(1.05))
    # same seed reproduces the exact reading
    assert TonePowerMeter(chan, full_scale=4.0, noise_seed=5)(off) == p


# --- quantization ------------------------------------------------------


def test_quantize_rounds_half_away_from_zero():
    buf = quantize_adc(np.array([0.5 + 0.49j, -0.5 - 1.5j]), full_scale=2048.0)
    assert buf.iq.tolist() == [[1, 0], [-1, -2]]
    assert buf.iq.dtype == np.int16
    assert buf.clip_fraction == 0.0


def test_quantize_full_scale_and_clipping():
    fs = 1024.0
    # +full scale maps onto the top code without clipping
    top = quantize_adc(np.array([fs + 0.0j]), fs)
    assert top.iq.tolist() == [[2048, 0]]
    assert top.clip_fraction == 0.0
    # -full scale exceeds the asymmetric bottom code and clamps
    bottom = quantize_adc(np.array([-fs + 0.0j]), fs)
    assert bottom.iq.tolist() == [[-2047, 0]]
    assert bottom.clip_fraction == 1.0
    mixed = quantize_adc(np.array([fs * 2 + 0.0j, 0.25j, 0.0]), fs)
    assert mixed.iq.tolist() == [[2048, 0], [0, 1], [0, 0]]
    assert mixed.clip_fraction == pytest.approx(1.0 / 3.0)
    with pytest.raises(ValueError):
        quantize_adc(np.array([1.0 + 0j]), 0.0)
    with pytest.raises(ValueError):
        TonePowerMeter(_unit_channel(1), full_scale=0.0)


def test_power_dbfs_anchors():
    ones = np.tile(np.array([[1, 0]], dtype=np.int16), (100, 1))
    assert power_dbfs(ones) == 0.0
    tens = np.tile(np.array([[10, 0]], dtype=np.int16), (50, 1))
    assert power_dbfs(tens) == pytest.approx(20.0)
    full = np.tile(np.array([[2048, 0]], dtype=np.int16), (4, 1))
    assert power_dbfs(full) == 20.0 * np.log10(2048.0)
    assert power_dbfs(full) == pytest.approx(66.2266, abs=1e-3)


def test_power_dbfs_rejects_empty_and_zero():
    with pytest.raises(MeasurementFloorError):
        power_dbfs(np.zeros((16, 2), dtype=np.int16))
    with pytest.raises(ValueError):
        power_dbfs(np.zeros((16, 3), dtype=np.int16))
    with pytest.raises(ValueError):
        power_dbfs(np.zeros((0, 2), dtype=np.int16))


# --- the meter ---------------------------------------------------------


def test_meter_counts_calls_and_reproduces():
    chan = _unit_channel(1, noise=1e-4)
    lay = RisLayout(nx=1, ny=1)
    meter = TonePowerMeter(chan, full_scale=4.0, noise_seed=(3, "m"))
    off = RisConfig.all_off(lay)
    p0, p1 = meter(off), meter(off)
    assert meter.calls == 2
    # fresh meter replays the same per-call noise streams
    again = TonePowerMeter(chan, full_scale=4.0, noise_seed=(3, "m"))
    assert again(off) == p0
    assert again(off) == p1
    assert p0 != p1  # distinct call indices draw distinct noise


def test_meter_matches_analytic_level_noiseless():
    chan = _unit_channel(1)
    lay = RisLayout(nx=1, ny=1)
    meter = TonePowerMeter(chan, full_scale=4.0, amplitude=0.9)
    p = meter(RisConfig.all_off(lay))
    expected = 20.0 * math.log10(0.9 * 2048.0 / 4.0)
    assert p == pytest.approx(expected, abs=0.01)


def test_meter_amplitude_scaling_law():
    # halving the element amplitude moves the reading by 20*log10(2),
    # to quantization accuracy, as long as the tone stays above ~100 codes
    chan = _unit_channel(1)
    lay = RisLayout(nx=1, ny=1)
    off = RisConfig.all_off(lay)
    hi = TonePowerMeter(chan, full_scale=4.0, amplitude=0.9)(off)
    lo = TonePowerMeter(chan, full_scale=4.0, amplitude=0.45)(off)
    assert hi - lo == pytest.approx(20.0 * math.log10(2.0), abs=0.05)


def test_meter_floor_error_on_dark_channel():
    chan = ChannelRealization(
        np.zeros(1, np.complex128),
        np.zeros(1, np.complex128),
        np.zeros(1, np.complex128),
        np.zeros(1, np.complex128),
        0.0j,
        0.0,
    )
    meter = TonePowerMeter(chan, full_scale=4.0)
    with pytest.raises(MeasurementFloorError):
        meter(RisConfig.all_off(RisLayout(nx=1, ny=1)))


def _reference_cascade(config, chan, amplitude):
    """The cascade written out with theta_diag products and no per-state
    tables: g_h^H (theta_h * h_h) + g_v^H (theta_v * h_v) + h_los."""
    th = theta_diag(config, "H", amplitude)
    tv = theta_diag(config, "V", amplitude)
    total = np.vdot(chan.g_h, th * chan.h_h) + np.vdot(chan.g_v, tv * chan.h_v)
    return complex(total + chan.h_los)


def _reference_reading(config, chan, tone, full_scale, amplitude, noise_seed, index):
    """The receiver chain stage by stage, one temporary array per step;
    returns (dBFS or None for an all-zero buffer, clip fraction)."""
    r = _reference_cascade(config, chan, amplitude) * tone_waveform(tone)
    if chan.noise_variance > 0.0:
        z = derive_rng(noise_seed, index).standard_normal((2, len(r)))
        r = r + math.sqrt(chan.noise_variance / 2.0) * (z[0] + 1j * z[1])
    scaled = np.stack([r.real, r.imag], axis=-1) * (2048 / full_scale)
    rounded = np.copysign(np.floor(np.abs(scaled) + 0.5), scaled)
    over = (rounded > 2048) | (rounded < -2047)
    clip_fraction = float(np.mean(np.any(over, axis=-1)))
    a = np.clip(rounded, -2047, 2048).astype(np.int16).astype(np.float64)
    p = float(np.mean(a[:, 0] ** 2 + a[:, 1] ** 2))
    return (float(20.0 * np.log10(math.sqrt(p))) if p else None), clip_fraction


@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 6),
    dark=st.booleans(),
    noise_variance=st.one_of(st.just(0.0), st.floats(1e-6, 1.0)),
    full_scale=st.one_of(st.just(2048.0), st.floats(0.01, 20.0)),
    amplitude=st.floats(0.05, 1.0),
    buffer_len=st.one_of(st.sampled_from([1, 2, 3, 7, 10]), st.integers(1, 301)),
    # half-integer direct terms put the first sample exactly on a rounding
    # tie or the clip edge when the elements are dark and a code is one unit
    h_los=st.one_of(
        st.complex_numbers(max_magnitude=2.0),
        st.integers(-4098, 4098).map(lambda k: k / 2.0),
    ),
)
@settings(max_examples=300, deadline=None)
def test_meter_matches_reference_chain(
    seed, n, dark, noise_variance, full_scale, amplitude, buffer_len, h_los
):
    rng = derive_rng(seed, "reference")
    weight = 0.0 if dark else 1.0
    vecs = [weight * (rng.standard_normal(n) + 1j * rng.standard_normal(n)) for _ in range(4)]
    chan = ChannelRealization(*vecs, h_los, noise_variance)
    lay = RisLayout(nx=n, ny=1)
    tone = ToneParams(buffer_len=buffer_len)
    meter = TonePowerMeter(chan, tone, full_scale=full_scale, amplitude=amplitude, noise_seed=(seed, "m"))
    for index in range(2):
        config = RisConfig(lay, tuple(int(s) for s in rng.integers(0, 4, n)))
        expected, clip_fraction = _reference_reading(
            config, chan, tone, full_scale, amplitude, (seed, "m"), index
        )
        if expected is None:
            with pytest.raises(MeasurementFloorError):
                meter(config)
        else:
            assert meter(config) == expected
        assert meter.last_clip_fraction == clip_fraction


@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.one_of(st.integers(1, 12), st.just(76)),
    amplitude=st.floats(0.0, 1.0, exclude_min=True),
    source=st.sampled_from(["random", "synthesized", "dark"]),
    coupling=st.floats(0.0, 1.0, exclude_min=True),
)
@settings(max_examples=200, deadline=None)
def test_state_tables_match_written_out_cascade(seed, n, amplitude, source, coupling):
    rng = derive_rng(seed, "tables")
    lay = RisLayout.default() if n == 76 else RisLayout(nx=n, ny=1)
    if source == "synthesized":
        scene = make_scene(
            rx_angle_deg=float(rng.uniform(20.0, 160.0)),
            rx_distance_cm=float(rng.uniform(60.0, 250.0)),
            polarization=float(rng.uniform(0.0, 1.0)),
        )
        params = ChannelModelParams(seed=seed, noise_variance=0.0, cross_pol_coupling=coupling)
        chan = synthesize_channels(scene, lay, params)
    else:
        weight = 0.0 if source == "dark" else 1.0
        vecs = [weight * (rng.standard_normal(n) + 1j * rng.standard_normal(n)) for _ in range(4)]
        h_los = 0.0j if source == "dark" else complex(*rng.standard_normal(2))
        chan = ChannelRealization(*vecs, h_los, 0.0)
    meter = GainMeter(chan, amplitude)
    tone = ToneParams(buffer_len=16)
    for index in range(3):
        config = RisConfig(lay, tuple(int(s) for s in rng.integers(0, 4, n)))
        expected = _reference_cascade(config, chan, amplitude)
        assert channel_gain(config, chan, amplitude) == expected
        g = abs(expected) ** 2
        assert meter(config) == (float(10.0 * np.log10(g)) if g else float("-inf"))
        full_scale = 4.0 * abs(expected) if expected else 1.0
        if not math.isfinite(2048 / full_scale):
            with pytest.raises(ValueError, match="gives no finite ADC code scale"):
                TonePowerMeter(chan, tone, full_scale=full_scale, amplitude=amplitude)
            continue
        reading, _ = _reference_reading(config, chan, tone, full_scale, amplitude, 0, index)
        tone_meter = TonePowerMeter(chan, tone, full_scale=full_scale, amplitude=amplitude)
        if reading is None:
            with pytest.raises(MeasurementFloorError):
                tone_meter(config)
        else:
            assert tone_meter(config) == reading
    if source == "dark":
        assert meter(RisConfig.all_off(lay)) == float("-inf")


@pytest.mark.parametrize("full_scale", [5e-324, 4e-323, float("nan")])
def test_full_scale_without_finite_code_scale_is_rejected(full_scale):
    with pytest.raises(ValueError, match="gives no finite ADC code scale"):
        quantize_adc(np.array([0.0j, 1e-323 + 0j]), full_scale)
    with pytest.raises(ValueError, match="gives no finite ADC code scale"):
        TonePowerMeter(_unit_channel(1), full_scale=full_scale)


def test_gain_meter_dark_config_reads_minus_inf_without_warning():
    meter = GainMeter(_unit_channel(2), amplitude=1.0)
    dark = RisConfig(RisLayout(nx=2, ny=1), (1, 0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert meter(dark) == float("-inf")


@pytest.mark.parametrize("amplitude", [0.0, -0.5, 1.5, float("nan")])
def test_meters_reject_amplitude_at_construction(amplitude):
    chan = _unit_channel(2)
    with pytest.raises(ValueError, match=r"amplitude must be in \(0, 1\]"):
        GainMeter(chan, amplitude)
    with pytest.raises(ValueError, match=r"amplitude must be in \(0, 1\]"):
        TonePowerMeter(chan, amplitude=amplitude)


def test_gain_meter_reports_decibels():
    chan = _unit_channel(2)
    lay = RisLayout(nx=2, ny=1)
    meter = GainMeter(chan, amplitude=1.0)
    assert meter(RisConfig(lay, (0, 0))) == pytest.approx(10.0 * math.log10(4.0))
    assert meter(RisConfig(lay, (1, 0))) == float("-inf")
    assert meter.calls == 2


import dataclasses
import hashlib
import math
import random
import runpy
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from rissim.channel import (
    DEFAULT_FULL_SCALE,
    DEFAULT_NOISE_VARIANCE,
    ChannelModelParams,
    ChannelRealization,
    GainMeter,
    Link,
    MeasurementFloorError,
    TonePowerMeter,
    ToneParams,
    channel_gain,
    derive_rng,
    derive_seed,
    link,
    power_dbfs,
    quantize_adc,
    synthesize_channels,
    tone_waveform,
    _Cascade,
    _entropy_words,
)
from rissim.experiments import DEFAULT_SWEEP_POINTS, ScenarioConfig, config_from_dict
from rissim.geometry import Scene, make_scene
from rissim.optimizer import enumerate_readings, exhaustive_search
from rissim.ris import RisConfig, RisLayout


def _unit_channel(n=1, h_los=0.0j):
    """Synthetic realization with unit entries on H and dark V."""
    ones = np.ones(n, dtype=np.complex128)
    zeros = np.zeros(n, dtype=np.complex128)
    return ChannelRealization(ones, zeros, ones, zeros, h_los)


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


# ints on both sides of the 32- and 64-bit word edges, negative ones
# included, so the split into uint32 entries is exercised at each edge
_EDGE_INTS = st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**32 + 1, 2**64 - 1, 2**64, -1, -(2**32), -(2**63)])
_SEED_ATOMS = st.one_of(
    _EDGE_INTS,
    st.integers(),
    st.floats(),
    st.text(max_size=6),
    st.lists(st.floats(), max_size=4).map(np.array),
)
_SEED_PARTS = st.recursive(_SEED_ATOMS, lambda inner: st.lists(inner, max_size=3).map(tuple), max_leaves=8)


@given(parts=st.lists(_SEED_PARTS, max_size=4), key=_SEED_PARTS, index=st.integers(0, 2**40))
@settings(max_examples=200, deadline=None)
def test_derive_rng_seeds_the_stream_of_its_words(parts, key, index):
    expected = np.random.default_rng(_entropy_words(parts)).bit_generator.state
    assert derive_rng(*parts).bit_generator.state == expected
    # the meter keys each call on its precomputed noise-seed words
    from_words = derive_rng(_entropy_words([key]), index).bit_generator.state
    assert from_words == derive_rng(key, index).bit_generator.state


@given(parts=st.lists(_SEED_PARTS, max_size=4))
@settings(max_examples=200, deadline=None)
def test_derive_seed_is_the_first_word_of_the_sequence_of_its_words(parts):
    expected = int(np.random.SeedSequence(_entropy_words(parts)).generate_state(1, np.uint64)[0])
    assert derive_seed(*parts) == expected


# --- synthesis ---------------------------------------------------------


def test_synthesis_is_bit_deterministic():
    scene = make_scene(rx_angle_deg=70.0, rx_distance_cm=170.0)
    lay = RisLayout.default()
    params = ChannelModelParams()
    a = synthesize_channels(scene, lay, params, 11)
    b = synthesize_channels(scene, lay, params, 11)
    for name in ("h_h", "h_v", "g_h", "g_v"):
        assert np.array_equal(getattr(a, name), getattr(b, name))
    assert a.h_los == b.h_los
    c = synthesize_channels(scene, lay, params, 12)
    assert not np.array_equal(a.h_h, c.h_h)


# sha256 over the channel bytes at the default sweep points plus the
# 145 deg / 170 cm grouping spot, seed 7
CHANNEL_DIGEST = "65dad0f794ddf97bece02fe6de5580fece7240f6127cd2247401b7f48e5f2a3a"


def test_default_spot_channels_match_digest():
    # every spot of the golden runs has a blocked direct path, so these
    # bytes are the ones that pin a non-zero h_los (130/120 and 145/170)
    cfg = ScenarioConfig(seed=7)
    h = hashlib.sha256()
    clear = []
    for angle, dist in DEFAULT_SWEEP_POINTS + ((145.0, 170.0),):
        chan = cfg.channel_at(angle, dist)
        for vec in (chan.h_h, chan.h_v, chan.g_h, chan.g_v, np.complex128(chan.h_los)):
            h.update(vec.tobytes())
        if chan.h_los != 0.0:
            clear.append((angle, dist))
    assert clear == [(130.0, 120.0), (145.0, 170.0)]
    assert h.hexdigest() == CHANNEL_DIGEST


def _channel_digest(chans) -> str:
    h = hashlib.sha256()
    for chan in chans:
        for vec in (chan.h_h, chan.h_v, chan.g_h, chan.g_v, np.complex128(chan.h_los)):
            h.update(vec.tobytes())
    return h.hexdigest()


def _oracle_channels(channel, scene):
    """The noiseless channels of oracle instances 0-39 on the 2x2 panel, seeds 7 and 31."""
    for seed in (7, 31):
        cfg = config_from_dict({"seed": seed, "channel": channel, "scene": scene})
        layout = RisLayout(2, 2, spacing=cfg.layout.spacing, carrier_hz=cfg.layout.carrier_hz)
        for i in range(40):
            yield synthesize_channels(cfg.base_scene(), layout, cfg.channel, derive_seed(seed, "oracle", i))


# sha256 over the channel bytes of the oracle instances
@pytest.mark.parametrize(
    "channel, scene, digest",
    [
        ({}, {}, "f2d4ea953ab71a6e525b1b1f14b5bd5dfa86c1c20129f807c343a016592ed07c"),
        ({"cross_pol_coupling": 0.3}, {}, "273ba2aaad0337b61f26a36df46841e1e2ad91a76d2fa3fcf06c30e2d4067f31"),
        ({"rician_k_db": "inf"}, {}, "4151403b788a78d4412480fff3c68ba38bada170d3f69a55182bf08e3f5fcdd3"),
        # V-only horns: the H vectors are signed zeros
        ({}, {"polarization": 1.0}, "92d7e50cb93c61fc518133551b985dd370c89a2dabff55761a17f31548320dc4"),
    ],
)
def test_oracle_instance_channels_match_digest(channel, scene, digest):
    assert _channel_digest(_oracle_channels(channel, scene)) == digest


def test_clear_direct_path_and_default_panel_channels_match_digest():
    clear = ScenarioConfig(seed=7).channel_at(130.0, 120.0)
    assert clear.h_los != 0.0
    assert _channel_digest([clear]) == "1b3ddbd3d5de508de5817397942062d8ad8e58419f1f606cb9c4b9722ed5a3fd"
    chans = [ScenarioConfig(seed=seed).channel_at(70.0, 170.0) for seed in range(5)]
    assert chans[0].n_elements == 76
    assert _channel_digest(chans) == "aef8daadb5a04c9b73085bf6957726b866d1b7c523622c49797a1e06cd494da8"


def test_link_draws_equal_fresh_synthesis_in_any_seed_order():
    cfg = ScenarioConfig(seed=7)
    params = dataclasses.replace(cfg.channel, cross_pol_coupling=0.3)
    scene = cfg.base_scene().with_rx_at(130.0, 120.0)  # a clear direct path
    one = link(scene, cfg.layout, params)
    seeds = list(range(12))
    random.Random(5).shuffle(seeds)
    for seed in seeds:
        drawn = one.draw(seed)
        fresh = synthesize_channels(scene, cfg.layout, params, seed)
        assert _channel_digest([drawn]) == _channel_digest([fresh])


@pytest.mark.parametrize("shape, params", [
    (None, ChannelModelParams(cross_pol_coupling=0.3)),
    ((2, 2), ChannelModelParams()),
    ((3, 2), ChannelModelParams(rician_k_db=math.inf)),
])
def test_stacked_draw_rows_equal_single_draws_in_any_seed_order(shape, params):
    lay = RisLayout.default() if shape is None else RisLayout(*shape)
    one = link(ScenarioConfig(seed=7).base_scene(), lay, params)
    seeds = [derive_seed(7, "oracle", i) for i in range(9)] + list(range(4))
    random.Random(5).shuffle(seeds)
    stack = one.draw_stack(seeds)
    assert stack.h_h.shape == (len(seeds), lay.n_active) and stack.n_elements == lay.n_active
    for row, seed in enumerate(seeds):
        drawn = one.draw(seed)
        for name in ("h_h", "h_v", "g_h", "g_v"):
            assert getattr(stack, name)[row].tobytes() == getattr(drawn, name).tobytes()
        assert stack.h_los == drawn.h_los


def test_a_stack_is_read_by_gain_meters_only():
    stack = link(make_scene(rx_angle_deg=70.0), RisLayout(2, 2), ChannelModelParams()).draw_stack([1, 2])
    with pytest.raises(ValueError, match="reads one channel"):
        TonePowerMeter(stack, noise_variance=0.0)
    cube = np.zeros((2, 2, 2), dtype=np.complex128)
    with pytest.raises(ValueError, match="vector or a stack of vectors"):
        ChannelRealization(cube, cube, cube, cube, 0.0j)
    with pytest.raises(ValueError, match="share one shape"):
        ChannelRealization(stack.h_h, stack.h_v, stack.g_h, stack.g_v[0], 0.0j)
    # a 2x1 panel's three draws, ordered so the stack's maximum sits in the
    # first row and then in the last: an argmax over the flat (3, 16) table
    # lands in row 0's configurations or past the 16 of one channel
    lay = RisLayout(2, 1)
    one = link(make_scene(rx_angle_deg=70.0), lay, ChannelModelParams())
    best = GainMeter(one.draw_stack([1, 2, 3])).readings(np.indices((4, 4)).reshape(2, -1).T).max(axis=1)
    top = [1, 2, 3][int(np.argmax(best))]
    rest = [seed for seed in (1, 2, 3) if seed != top]
    off = RisConfig.all_off(lay)
    for seeds in ([top, *rest], [*rest, top]):
        stack = one.draw_stack(seeds)
        meter = GainMeter(stack)
        with pytest.raises(ValueError, match="^a gain meter call reads one channel, not a stack$"):
            meter(off)
        with pytest.raises(ValueError, match="^channel_gain reads one channel, not a stack$"):
            channel_gain(off, stack)
        with pytest.raises(ValueError, match="^an exhaustive search reads one channel, not a stack$"):
            exhaustive_search(meter.readings, lay)
        assert meter.calls == 3 * 16  # the readings of the search, and no call


def test_link_is_read_only():
    one = link(make_scene(rx_angle_deg=70.0, rx_distance_cm=170.0), RisLayout(2, 2), ChannelModelParams())
    for arr in (one.amp, one.det, one.pol):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        one.h_los = 0.0j


@pytest.mark.parametrize(
    "exponent, stage",
    [
        (650.0, "link"),  # the envelope itself overflows
        (614.0, "draw"),  # a finite envelope whose scatter overflows
    ],
)
def test_a_channel_past_float64_is_a_measurement_floor(exponent, stage):
    scene = make_scene(rx_angle_deg=70.0, rx_distance_cm=170.0, tx_distance_cm=10.0)
    params = ChannelModelParams(path_loss_exponent=exponent)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if stage == "draw":
            one = link(scene, RisLayout(2, 2), params)
            assert np.isfinite(one.amp).all()
            with pytest.raises(MeasurementFloorError, match="^channel is not a finite float64$"):
                one.draw(0)
        with pytest.raises(MeasurementFloorError, match="^channel is not a finite float64$"):
            synthesize_channels(scene, RisLayout(2, 2), params, 0)


def test_deterministic_part_mirror_symmetric():
    # pure deterministic channel on a symmetric panel, transmitter on
    # broadside: mirrored receiver angles see the same all-off magnitude
    lay = RisLayout(nx=4, ny=3)
    params = ChannelModelParams(rician_k_db=float("inf"))
    off = RisConfig.all_off(lay)
    mags = []
    for ang in (70.0, 110.0):
        scene = make_scene(rx_angle_deg=ang, rx_distance_cm=170.0, tx_angle_deg=90.0)
        chan = synthesize_channels(scene, lay, params, 0)
        mags.append(abs(channel_gain(off, chan)))
    assert mags[0] == pytest.approx(mags[1], rel=1e-10)


def test_return_amplitude_follows_inverse_distance():
    # single element at the surface center: doubling the receiver range
    # exactly halves |g| under the default path-loss exponent
    lay = RisLayout(nx=1, ny=1)
    params = ChannelModelParams(rician_k_db=float("inf"))
    near = synthesize_channels(make_scene(rx_angle_deg=90.0, rx_distance_cm=100.0), lay, params, 0)
    far = synthesize_channels(make_scene(rx_angle_deg=90.0, rx_distance_cm=200.0), lay, params, 0)
    assert abs(near.g_h[0]) / abs(far.g_h[0]) == pytest.approx(2.0, rel=1e-12)


def test_rician_weights_preserve_envelope_scale():
    # the scattered part rides on the same magnitude envelope, so the
    # per-element magnitude stays within a factor of a few of deterministic
    lay = RisLayout(nx=2, ny=2)
    scene = make_scene(rx_angle_deg=70.0, rx_distance_cm=170.0)
    det = synthesize_channels(scene, lay, ChannelModelParams(rician_k_db=float("inf")), 0)
    mixed = synthesize_channels(scene, lay, ChannelModelParams(rician_k_db=10.0), 3)
    ratio = np.abs(mixed.h_h) / np.abs(det.h_h)
    assert np.all(ratio > 0.3) and np.all(ratio < 3.0)


def test_terminal_on_element_rejected():
    # 1e-10 m in front of the center element
    scene = make_scene(rx_angle_deg=90.0, rx_distance_cm=100.0)
    with pytest.raises(ValueError, match="reflective side"):
        scene.with_rx_at(90.0, 1e-8)


def test_cross_pol_coupling_mixes_power():
    lay = RisLayout(nx=2, ny=2)
    scene = make_scene(rx_angle_deg=70.0, rx_distance_cm=170.0, polarization=1.0)
    pure = synthesize_channels(scene, lay, ChannelModelParams(), 5)
    # V-only terminals: the H vector starts dark, coupling lights it up
    assert np.allclose(pure.h_h, 0.0)
    mixed = synthesize_channels(scene, lay, ChannelModelParams(cross_pol_coupling=0.1), 5)
    assert np.all(np.abs(mixed.h_h) > 0.0)


# --- cascade -----------------------------------------------------------


def test_two_element_cascade_extremes():
    chan = _unit_channel(2)
    lay = RisLayout(nx=2, ny=1)
    aligned = RisConfig(lay, (0, 0))
    opposed = RisConfig(lay, (1, 0))
    assert abs(channel_gain(aligned, chan, amplitude=1.0)) ** 2 == pytest.approx(4.0)
    assert abs(channel_gain(opposed, chan, amplitude=1.0)) ** 2 == pytest.approx(0.0, abs=1e-15)


def test_v_diode_flips_only_v_branch():
    ones = np.ones(2, dtype=np.complex128)
    chan = ChannelRealization(ones, ones, ones, ones, 0.0j)
    lay = RisLayout(nx=2, ny=1)
    # state 2 engages V on both elements: H sums +2, V sums -2
    assert abs(channel_gain(RisConfig(lay, (2, 2)), chan, amplitude=1.0)) ** 2 == pytest.approx(0.0, abs=1e-15)
    # state 3 flips both branches the same way: full power again
    assert abs(channel_gain(RisConfig(lay, (3, 3)), chan, amplitude=1.0)) ** 2 == pytest.approx(16.0)


def test_channel_gain_matches_direct_formula():
    rng = derive_rng(42, "formula")
    n = 9
    lay = RisLayout(nx=3, ny=3)
    vecs = [
        (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / math.sqrt(2) for _ in range(4)
    ]
    chan = ChannelRealization(vecs[0], vecs[1], vecs[2], vecs[3], 0.2 - 0.1j)
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
    with pytest.raises(ValueError, match=r"^expected an \(M, 3\) matrix of element states$"):
        channel_gain(RisConfig.all_off(RisLayout(nx=2, ny=1)), _unit_channel(3))


@given(st.floats(0.0, 2.0 * math.pi))
@settings(max_examples=40, deadline=None)
def test_gain_invariant_to_global_phase(phi):
    rng = derive_rng(7, "phase")
    n = 6
    vecs = [(rng.standard_normal(n) + 1j * rng.standard_normal(n)) for _ in range(4)]
    rot = np.exp(1j * phi)
    chan = ChannelRealization(vecs[0], vecs[1], vecs[2], vecs[3], 0.3j)
    spun = ChannelRealization(
        vecs[0] * rot, vecs[1] * rot, vecs[2], vecs[3], 0.3j * rot
    )
    lay = RisLayout(nx=3, ny=2)
    config = RisConfig(lay, (0, 1, 2, 3, 0, 1))
    assert abs(channel_gain(config, spun)) ** 2 == pytest.approx(abs(channel_gain(config, chan)) ** 2, rel=1e-9)


_SPOT = st.tuples(st.floats(20.0, 160.0), st.floats(50.0, 420.0))


@given(
    tx=_SPOT,
    rx=_SPOT,
    polarization=st.floats(0.0, 1.0),
    coupling=st.sampled_from([0.0, 0.3]),
    states=st.lists(st.integers(0, 3), min_size=76, max_size=76),
)
@settings(max_examples=60, deadline=None)
def test_channel_gain_is_reciprocal(tx, rx, polarization, coupling, states):
    # without scatter the link depends only on where the terminals sit, so
    # swapping Tx and Rx keeps the end-to-end coefficient
    try:
        scene = make_scene(*rx, tx_angle_deg=tx[0], tx_distance_cm=tx[1], polarization=polarization)
    except ValueError as exc:
        # spots within the scene's 1e-12 m limit, though their floats differ
        assert str(exc) == "tx and rx coincide"
        reject()
    lay = RisLayout.default()
    params = ChannelModelParams(rician_k_db=math.inf, cross_pol_coupling=coupling)
    swapped = Scene(scene.rx, scene.tx)
    config = RisConfig(lay, tuple(states))
    forward = channel_gain(config, synthesize_channels(scene, lay, params, 3))
    backward = channel_gain(config, synthesize_channels(swapped, lay, params, 3))
    assert abs(backward - forward) <= 1e-12 * abs(forward)


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
    chan = ChannelRealization(*(np.zeros(1, np.complex128),) * 4, 0.0j)
    off = RisConfig.all_off(RisLayout(nx=1, ny=1))
    p = TonePowerMeter(chan, full_scale=4.0, noise_variance=0.01, noise_seed=5)(off)
    expected = 10.0 * math.log10(0.01 * (2048.0 / 4.0) ** 2)
    assert p == pytest.approx(expected, abs=10.0 * math.log10(1.05))
    # same seed reproduces the exact reading
    assert TonePowerMeter(chan, full_scale=4.0, noise_variance=0.01, noise_seed=5)(off) == p


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
        TonePowerMeter(_unit_channel(1), full_scale=0.0, noise_variance=0.0)


def test_power_dbfs_anchors():
    ones = np.tile(np.array([[1, 0]], dtype=np.int16), (100, 1))
    assert power_dbfs(ones) == 0.0
    tens = np.tile(np.array([[10, 0]], dtype=np.int16), (50, 1))
    assert power_dbfs(tens) == pytest.approx(20.0)
    full = np.tile(np.array([[2048, 0]], dtype=np.int16), (4, 1))
    assert power_dbfs(full) == 20.0 * math.log10(2048.0)
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
    chan = _unit_channel(1)
    lay = RisLayout(nx=1, ny=1)
    meter = TonePowerMeter(chan, full_scale=4.0, noise_variance=1e-4, noise_seed=(3, "m"))
    off = RisConfig.all_off(lay)
    p0, p1 = meter(off), meter(off)
    assert meter.calls == 2
    # fresh meter replays the same per-call noise streams
    again = TonePowerMeter(chan, full_scale=4.0, noise_variance=1e-4, noise_seed=(3, "m"))
    assert again(off) == p0
    assert again(off) == p1
    assert p0 != p1  # distinct call indices draw distinct noise


def test_meter_matches_analytic_level_noiseless():
    chan = _unit_channel(1)
    lay = RisLayout(nx=1, ny=1)
    meter = TonePowerMeter(chan, full_scale=4.0, amplitude=0.9, noise_variance=0.0)
    p = meter(RisConfig.all_off(lay))
    expected = 20.0 * math.log10(0.9 * 2048.0 / 4.0)
    assert p == pytest.approx(expected, abs=0.01)


def test_meter_amplitude_scaling_law():
    # halving the element amplitude moves the reading by 20*log10(2),
    # to quantization accuracy, as long as the tone stays above ~100 codes
    chan = _unit_channel(1)
    lay = RisLayout(nx=1, ny=1)
    off = RisConfig.all_off(lay)
    hi = TonePowerMeter(chan, full_scale=4.0, amplitude=0.9, noise_variance=0.0)(off)
    lo = TonePowerMeter(chan, full_scale=4.0, amplitude=0.45, noise_variance=0.0)(off)
    assert hi - lo == pytest.approx(20.0 * math.log10(2.0), abs=0.05)


def test_meter_floor_error_on_dark_channel():
    chan = ChannelRealization(
        np.zeros(1, np.complex128),
        np.zeros(1, np.complex128),
        np.zeros(1, np.complex128),
        np.zeros(1, np.complex128),
        0.0j,
    )
    meter = TonePowerMeter(chan, full_scale=4.0, noise_variance=0.0)
    with pytest.raises(MeasurementFloorError):
        meter(RisConfig.all_off(RisLayout(nx=1, ny=1)))


@pytest.mark.parametrize("h_los, clip_fraction", [(2048.0, 0.0), (-2048.0, 1.0)])
def test_meter_reading_at_the_clip_edge(h_los, clip_fraction):
    # one code per unit: +2048 is the top code, -2048 clamps to -2047
    dark = np.zeros(1, np.complex128)
    tone = ToneParams(buffer_len=1)
    chan = ChannelRealization(dark, dark, dark, dark, h_los)
    meter = TonePowerMeter(chan, tone, full_scale=2048.0, noise_variance=0.0)
    reading = meter(RisConfig.all_off(RisLayout(nx=1, ny=1)))
    assert meter.last_clip_fraction == clip_fraction
    q = quantize_adc(h_los * tone_waveform(tone), 2048.0)
    assert q.clip_fraction == clip_fraction
    assert reading == power_dbfs(q.iq)


def _pairwise_sum(values):
    """numpy's float64 pairwise summation, written out: blocks of at most
    128 summed with eight interleaved partial sums, longer runs split near
    the middle at a multiple of 8; np.add.reduce starts from 0.0."""
    n = len(values)
    if n < 8:
        total = 0.0
        for v in values:
            total += v
        return total
    if n <= 128:
        r = list(values[:8])
        i = 8
        while i < n - n % 8:
            for j in range(8):
                r[j] += values[i + j]
            i += 8
        total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        for v in values[i:]:
            total += v
        return total
    half = n // 2
    half -= half % 8
    return _pairwise_sum(values[:half]) + _pairwise_sum(values[half:])


def _contribution(chan, amplitude, i, s):
    """x[i, s] = conj(g_h,i) a_H(s) h_h,i + conj(g_v,i) a_V(s) h_v,i as
    (re, im) floats: a conj(g) h per polarization with real multiplies and
    adds, then signed by s's diode bits."""
    parts = []
    for g, h, bit in ((chan.g_h[i], chan.h_h[i], 1), (chan.g_v[i], chan.h_v[i], 2)):
        p = (amplitude * (g.real * h.real + g.imag * h.imag), amplitude * (g.real * h.imag - g.imag * h.real))
        parts.append((-p[0], -p[1]) if s & bit else p)
    (hr, hi), (vr, vi) = parts
    return hr + vr, hi + vi


def _reference_cascade(config, chan, amplitude):
    """The cascade written out stage by stage in the kernel's order: each
    element's contribution, numpy's pairwise sum over the elements, then
    h_los; returns (re, im)."""
    xs = [_contribution(chan, amplitude, i, s) for i, s in enumerate(config.states)]
    re = 0.0 + _pairwise_sum([x[0] for x in xs])
    im = 0.0 + _pairwise_sum([x[1] for x in xs])
    return re + chan.h_los.real, im + chan.h_los.imag


def _reference_reading(config, chan, tone, full_scale, amplitude, noise_variance, noise_seed, index):
    """The receiver chain stage by stage, one temporary array per step;
    returns (dBFS or None for an all-zero buffer, clip fraction)."""
    cr, ci = _reference_cascade(config, chan, amplitude)
    w = tone_waveform(tone)
    # c * w in real arithmetic: (cr wr - ci wi, cr wi + ci wr)
    i_row, q_row = cr * w.real - ci * w.imag, cr * w.imag + ci * w.real
    if noise_variance > 0.0:
        z = derive_rng(noise_seed, index).standard_normal((2, len(w)))
        sigma = math.sqrt(noise_variance / 2.0)
        i_row, q_row = i_row + sigma * z[0], q_row + sigma * z[1]
    scaled = np.stack([i_row, q_row], axis=-1) * (2048 / full_scale)
    rounded = np.copysign(np.floor(np.abs(scaled) + 0.5), scaled)
    over = (rounded > 2048) | (rounded < -2047)
    clip_fraction = float(np.mean(np.any(over, axis=-1)))
    a = np.clip(rounded, -2047, 2048).astype(np.int16).astype(np.float64)
    p = float(np.mean(a[:, 0] ** 2 + a[:, 1] ** 2))
    return (20.0 * math.log10(math.sqrt(p)) if p else None), clip_fraction


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
    chan = ChannelRealization(*vecs, h_los)
    lay = RisLayout(nx=n, ny=1)
    tone = ToneParams(buffer_len=buffer_len)
    meter = TonePowerMeter(
        chan, tone, full_scale=full_scale, amplitude=amplitude, noise_variance=noise_variance, noise_seed=(seed, "m")
    )
    for index in range(2):
        config = RisConfig(lay, tuple(int(s) for s in rng.integers(0, 4, n)))
        expected, clip_fraction = _reference_reading(
            config, chan, tone, full_scale, amplitude, noise_variance, (seed, "m"), index
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
def test_cascade_kernel_matches_written_out_cascade(seed, n, amplitude, source, coupling):
    rng = derive_rng(seed, "tables")
    lay = RisLayout.default() if n == 76 else RisLayout(nx=n, ny=1)
    if source == "synthesized":
        scene = make_scene(
            rx_angle_deg=float(rng.uniform(20.0, 160.0)),
            rx_distance_cm=float(rng.uniform(60.0, 250.0)),
            polarization=float(rng.uniform(0.0, 1.0)),
        )
        params = ChannelModelParams(cross_pol_coupling=coupling)
        chan = synthesize_channels(scene, lay, params, seed)
    else:
        weight = 0.0 if source == "dark" else 1.0
        vecs = [weight * (rng.standard_normal(n) + 1j * rng.standard_normal(n)) for _ in range(4)]
        h_los = 0.0j if source == "dark" else complex(*rng.standard_normal(2))
        chan = ChannelRealization(*vecs, h_los)
    meter = GainMeter(chan, amplitude)
    tone = ToneParams(buffer_len=16)
    for index in range(3):
        config = RisConfig(lay, tuple(int(s) for s in rng.integers(0, 4, n)))
        re, im = _reference_cascade(config, chan, amplitude)
        expected = complex(re, im)
        assert channel_gain(config, chan, amplitude) == expected
        g = re * re + im * im
        assert meter(config) == (10.0 * math.log10(g) if g else float("-inf"))
        full_scale = 4.0 * abs(expected) if expected else 1.0
        if not math.isfinite(2048 / full_scale):
            with pytest.raises(ValueError, match="gives no finite ADC code scale"):
                TonePowerMeter(chan, tone, full_scale=full_scale, amplitude=amplitude, noise_variance=0.0)
            continue
        reading, _ = _reference_reading(config, chan, tone, full_scale, amplitude, 0.0, 0, index)
        tone_meter = TonePowerMeter(chan, tone, full_scale=full_scale, amplitude=amplitude, noise_variance=0.0)
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
        TonePowerMeter(_unit_channel(1), full_scale=full_scale, noise_variance=0.0)


@pytest.mark.parametrize(
    "field, value",
    [
        ("path_loss_exponent", math.nan),
        ("path_loss_exponent", math.inf),
        ("path_loss_exponent", 0.5),
        ("rician_k_db", math.nan),
    ],
)
def test_channel_params_reject_non_finite_values(field, value):
    with pytest.raises(ValueError, match=field):
        ChannelModelParams(**{field: value})


def test_channel_params_keep_infinite_rician_k():
    assert ChannelModelParams(rician_k_db=math.inf).rician_k_db == math.inf


def test_channel_types_hold_only_propagation():
    # the seed goes to the draw and the receiver's noise to the meter
    names = {f.name for f in dataclasses.fields(ChannelModelParams)}
    assert names == {"path_loss_exponent", "rician_k_db", "cross_pol_coupling"}
    for cls in (ChannelRealization, Link):
        assert not {"seed", "noise_variance"} & {f.name for f in dataclasses.fields(cls)}


@pytest.mark.parametrize(
    "k_db, w_sc, deterministic",
    [(math.inf, 0.0, True), (4000.0, 0.0, True), (-math.inf, 1.0, False), (-4000.0, 1.0, False)],
)
def test_rician_k_extremes_weight_the_two_parts(k_db, w_sc, deterministic):
    # +-inf dB and powers past float64's range: all deterministic, or all scatter
    one = link(make_scene(rx_angle_deg=70.0), RisLayout(2, 2), ChannelModelParams(rician_k_db=k_db))
    assert one.w_sc == w_sc
    assert bool(one.det.any()) == deterministic


@pytest.mark.parametrize("noise", [math.nan, math.inf, -1.0])
def test_meter_rejects_bad_noise_variance(noise):
    with pytest.raises(ValueError, match="noise_variance must be finite and non-negative"):
        TonePowerMeter(_unit_channel(), noise_variance=noise)


def test_meter_requires_a_noise_variance():
    # no default, so no call site silently gains or loses the receiver's noise
    with pytest.raises(TypeError, match="noise_variance"):
        TonePowerMeter(_unit_channel())


def test_calibration_script_reproduces_the_frozen_defaults(capsys):
    script = Path(__file__).resolve().parents[1] / "scripts" / "calibrate_defaults.py"
    runpy.run_path(str(script), run_name="__main__")
    printed = dict(
        line.split(" = ") for line in capsys.readouterr().out.splitlines() if line.startswith("DEFAULT_")
    )
    # repr round-trips a float exactly, so equal strings are equal bits
    assert printed == {
        "DEFAULT_FULL_SCALE": repr(DEFAULT_FULL_SCALE),
        "DEFAULT_NOISE_VARIANCE": repr(DEFAULT_NOISE_VARIANCE),
    }


def test_readme_config_block_shows_the_frozen_defaults():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    assert f'"noise_variance": {DEFAULT_NOISE_VARIANCE!r},' in readme
    assert f'"full_scale": {DEFAULT_FULL_SCALE!r}}}' in readme


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
        TonePowerMeter(chan, amplitude=amplitude, noise_variance=0.0)


def test_gain_meter_reports_decibels():
    chan = _unit_channel(2)
    lay = RisLayout(nx=2, ny=1)
    meter = GainMeter(chan, amplitude=1.0)
    assert meter(RisConfig(lay, (0, 0))) == pytest.approx(10.0 * math.log10(4.0))
    assert meter(RisConfig(lay, (1, 0))) == float("-inf")
    assert meter.calls == 2



# --- block readings ----------------------------------------------------


def _states_of(rows):
    return [tuple(row) for row in np.asarray(rows).tolist()]


@given(
    seed=st.integers(0, 2**31),
    shape=st.sampled_from([(1, 1), (2, 1), (2, 2), (3, 2), (3, 3), (5, 2), (4, 4), None]),
    coupling=st.sampled_from([0.0, 0.3]),
    rows=st.integers(1, 24),
)
@settings(max_examples=80, deadline=None)
def test_gain_meter_readings_equal_calls_bit_for_bit(seed, shape, coupling, rows):
    rng = derive_rng(seed, "readings")
    lay = RisLayout.default() if shape is None else RisLayout(*shape)
    n = lay.n_active
    scene = make_scene(
        rx_angle_deg=float(rng.uniform(20.0, 160.0)),
        rx_distance_cm=float(rng.uniform(60.0, 250.0)),
        polarization=float(rng.uniform(0.0, 1.0)),
    )
    params = ChannelModelParams(cross_pol_coupling=coupling)
    meter = GainMeter(synthesize_channels(scene, lay, params, seed))
    base = rng.integers(0, 4, (rows, n))
    # repeated rows; base ^ 2 keeps every H pattern and base ^ 1 every V one
    parts = [base, base[::-1], base ^ 2, base ^ 1]
    if n > 64:
        # rows equal on elements 0..63, which a 64-bit key would merge
        tail = base.copy()
        tail[:, 64:] = rng.integers(0, 4, (rows, n - 64))
        parts.append(tail)
    states = np.concatenate(parts)
    expected = [meter(RisConfig(lay, row)) for row in _states_of(states)]
    calls = meter.calls
    readings = meter.readings(states)
    assert readings.dtype == np.float64
    assert readings.tolist() == expected
    assert meter.calls == calls + len(states)


@given(
    seed=st.integers(0, 2**31),
    shape=st.sampled_from([(1, 1), (2, 1), (1, 2), (3, 1), (2, 2), (3, 2)]),
    num_states=st.integers(2, 4),
    coupling=st.sampled_from([0.0, 0.3]),
    rician_k_db=st.sampled_from([10.0, "inf"]),
    stack=st.sampled_from([1, 3]),  # 3 does not divide the 7 instances
)
@settings(max_examples=80, deadline=None)
def test_stacked_readings_equal_per_channel_readings_bit_for_bit(
    seed, shape, num_states, coupling, rician_k_db, stack
):
    rng = derive_rng(seed, "stacks")
    lay = RisLayout(*shape)
    scene = make_scene(
        rx_angle_deg=float(rng.uniform(20.0, 160.0)),
        rx_distance_cm=float(rng.uniform(60.0, 250.0)),
        polarization=float(rng.uniform(0.0, 1.0)),
    )
    params = config_from_dict({"channel": {"rician_k_db": rician_k_db, "cross_pol_coupling": coupling}}).channel
    one = link(scene, lay, params)
    seeds = [derive_seed(seed, "oracle", i) for i in range(7)]
    expected = [enumerate_readings(GainMeter(one.draw(s)).readings, lay, num_states) for s in seeds]
    tables = []
    for start in range(0, len(seeds), stack):
        meter = GainMeter(one.draw_stack(seeds[start : start + stack]))
        tables += list(enumerate_readings(meter.readings, lay, num_states))
        assert meter.calls == len(seeds[start : start + stack]) * num_states**lay.n_active
    assert np.array(tables).tobytes() == np.array(expected).tobytes()


def test_stacked_readings_of_the_default_panel_equal_per_channel_readings():
    # 76 elements: each row's sum runs numpy's pairwise blocks
    lay = RisLayout.default()
    one = link(make_scene(rx_angle_deg=70.0), lay, ChannelModelParams(cross_pol_coupling=0.3))
    seeds = [3, 1, 4, 1, 5]
    states = derive_rng(9, "states").integers(0, 4, (40, lay.n_active))
    stacked = GainMeter(one.draw_stack(seeds)).readings(states)
    assert stacked.shape == (5, 40)
    expected = [GainMeter(one.draw(s)).readings(states) for s in seeds]
    assert stacked.tobytes() == np.array(expected).tobytes()


def test_gain_meter_readings_keep_rows_apart_past_element_63():
    lay = RisLayout.default()
    params = ChannelModelParams(cross_pol_coupling=0.3)
    meter = GainMeter(synthesize_channels(make_scene(rx_angle_deg=130.0), lay, params, 3))
    # the all-off row, then one element at index >= 60 switched per row
    states = np.zeros((1 + 2 * 16, 76), dtype=np.int64)
    for k, i in enumerate(range(60, 76)):
        states[1 + 2 * k, i] = 1
        states[2 + 2 * k, i] = 2
    readings = meter.readings(states).tolist()
    assert readings == [meter(RisConfig(lay, row)) for row in _states_of(states)]
    assert len(set(readings)) == len(readings)


@pytest.mark.parametrize("amplitude", [0.9, 1.0, 0.3])
def test_contribution_table_entries_match_their_definition(amplitude):
    lay = RisLayout.default()
    params = ChannelModelParams(cross_pol_coupling=0.3)
    chan = synthesize_channels(make_scene(rx_angle_deg=70.0), lay, params, 5)
    table = _Cascade(chan, amplitude).table
    assert table.shape == (2, 4 * lay.n_active)
    for i in range(lay.n_active):
        for s in range(4):
            assert (table[0, 4 * i + s], table[1, 4 * i + s]) == _contribution(chan, amplitude, i, s)
    re, im = table.reshape(2, lay.n_active, 4).transpose(0, 2, 1)
    # flipping both diodes negates an entry exactly, and so does swapping them
    assert (-re[0]).tobytes() == re[3].tobytes() and (-im[1]).tobytes() == im[2].tobytes()
    assert re[0].tobytes() != re[1].tobytes() and re[0].tobytes() != re[2].tobytes()
    with pytest.raises(ValueError, match="read-only"):
        table[0, 0] = 0.0


def test_gain_meter_readings_of_a_dark_channel_are_minus_inf_without_warning():
    zeros = np.zeros(3, dtype=np.complex128)
    meter = GainMeter(ChannelRealization(zeros, zeros, zeros, zeros, 0.0j))
    half_dark = GainMeter(_unit_channel(2), amplitude=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert meter.readings(np.array([[0, 1, 2], [3, 3, 3]])).tolist() == [float("-inf")] * 2
        readings = half_dark.readings(np.array([[1, 0], [0, 0], [3, 2]])).tolist()
    assert readings == [float("-inf"), pytest.approx(10.0 * math.log10(4.0)), float("-inf")]
    assert meter.readings(np.zeros((0, 3), dtype=np.int64)).tolist() == []
    # equal H and V entries, so states 1 and 2 cancel an element exactly and
    # state 0 adds 2 |v|^2: one row each with a subnormal power (|c| = 1e-160),
    # a power whose square underflows to 0 (|c| = 1e-170) and a normal power
    v = np.array([math.sqrt(5e-161), math.sqrt(5e-171), math.sqrt(0.5)], dtype=np.complex128)
    mixed = GainMeter(ChannelRealization(v, v, v, v, 0.0j), amplitude=1.0)
    states = np.array([[0, 1, 2], [1, 0, 1], [2, 1, 0], [0, 0, 0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        readings = mixed.readings(states)
        calls = [mixed(RisConfig(RisLayout(nx=3, ny=1), row)) for row in states.tolist()]
    assert readings.tobytes() == np.array(calls).tobytes()
    assert -3300.0 < readings[0] < -3100.0 and readings[1] == float("-inf") and abs(readings[2]) < 1e-9


# both meters, built on one channel; two builds of one kind are twins whose
# calls and readings draw the same noise at the same index
_METERS = {
    "gain": GainMeter,
    "tone": lambda chan: TonePowerMeter(chan, full_scale=4.0, noise_variance=1e-4, noise_seed=(5, "rows")),
}


@pytest.mark.parametrize("kind", list(_METERS))
@pytest.mark.parametrize("dtype", [np.uint64, np.uint8, np.int8, np.uint32, np.int16])
def test_meter_readings_accept_any_integer_dtype(kind, dtype):
    lay = RisLayout(nx=3, ny=2)
    params = ChannelModelParams(cross_pol_coupling=0.3)
    chan = synthesize_channels(make_scene(rx_angle_deg=110.0), lay, params, 9)
    meter, twin = _METERS[kind](chan), _METERS[kind](chan)
    states = np.indices((4,) * 3).reshape(3, -1).T.repeat(2, axis=1).astype(dtype)
    expected = [twin(RisConfig(lay, row)) for row in _states_of(states)]
    assert meter.readings(states).tolist() == expected


@pytest.mark.parametrize("full_scale", [DEFAULT_FULL_SCALE, 2e-4])
def test_tone_readings_equal_calls_on_a_twin_meter_bit_for_bit(full_scale):
    lay = RisLayout.default()
    chan = synthesize_channels(make_scene(rx_angle_deg=70.0, rx_distance_cm=170.0), lay, ChannelModelParams(), 4)
    meter, twin = (
        TonePowerMeter(chan, full_scale=full_scale, noise_variance=DEFAULT_NOISE_VARIANCE, noise_seed=(4, "t"))
        for _ in range(2)
    )
    off = RisConfig.all_off(lay)
    assert meter(off) == twin(off)
    states = derive_rng(4, "tone rows").integers(0, 4, (9, lay.n_active))
    readings = meter.readings(states)
    expected = [twin(RisConfig(lay, row)) for row in _states_of(states)]
    assert readings.dtype == np.float64
    assert readings.tobytes() == np.array(expected).tobytes()
    assert meter.calls == twin.calls == 1 + len(states)
    assert meter.last_clip_fraction == twin.last_clip_fraction
    # a 2e-4 full scale clips every reading
    assert (meter.last_clip_fraction > 0.0) == (full_scale < 1.0)


# Coefficients where other routes to the dB reading round differently from
# 10 log10(re * re + im * im) by libm: |c| ** 2 (hypot, then pow) gives other
# power bits for the first two and another reading for the first, and on an
# AVX-512 host numpy's own log10 gives another reading for the fourth. 0j
# reads -inf, with no warning.
_DB_RULE_CASES = [
    -1.303157231604361 - 2.5697088522508635j,
    0.020325520771516198 + 0j,
    0.3632201681837226 + 0.03287094380440391j,
    0.7180634147223381 + 0j,
    0j,
]


def test_calls_and_readings_share_one_db_rule_bit_for_bit():
    # dark elements, so the coefficient of every configuration is h_los
    dark = np.zeros(1, dtype=np.complex128)
    lay = RisLayout(nx=1, ny=1)
    for c in _DB_RULE_CASES:
        meter = GainMeter(ChannelRealization(dark, dark, dark, dark, c))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            call = meter(RisConfig.all_off(lay))
            readings = meter.readings(np.array([[0], [3]]))
        p = c.real * c.real + c.imag * c.imag
        assert readings.tolist() == [call, call] == [10.0 * math.log10(p) if p else float("-inf")] * 2
    assert call == float("-inf")


@pytest.mark.parametrize("c", [1e200 + 0j, complex(1e308, 1e308), complex(math.nan, 1.0), complex(math.inf, 0.0)])
def test_a_gain_that_is_not_a_finite_float64_has_no_reading(c):
    dark = np.zeros(2, dtype=np.complex128)
    chan = ChannelRealization(dark, dark, dark, dark, c)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for build in (
            GainMeter,
            lambda ch: TonePowerMeter(ch, noise_variance=0.0),
            lambda ch: channel_gain(RisConfig.all_off(RisLayout(2, 1)), ch),
        ):
            with pytest.raises(MeasurementFloorError, match="no finite reading"):
                build(chan)


def test_gain_meter_reports_an_overflowing_gain_as_no_finite_reading():
    # each product conj(g) h is 1e200: finite entries whose cascade would overflow
    big = np.full(2, 1e100, dtype=np.complex128)
    chan = ChannelRealization(big, big, big, big, 0.0j)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(MeasurementFloorError, match="no finite reading"):
            GainMeter(chan)
        with pytest.raises(MeasurementFloorError, match="no finite reading"):
            TonePowerMeter(chan, noise_variance=0.0)
    # a coefficient near 1e150 still reads
    ok = np.full(2, 1e75, dtype=np.complex128)
    meter = GainMeter(ChannelRealization(ok, ok, ok, ok, 0.0j), amplitude=1.0)
    assert meter(RisConfig.all_off(RisLayout(nx=2, ny=1))) == meter.readings(np.zeros((1, 2), dtype=np.int64))[0]


@pytest.mark.parametrize(
    "states",
    [
        np.zeros((2, 3), dtype=np.int64),
        np.zeros((2, 1), dtype=np.int64),
        np.zeros(2, dtype=np.int64),
        np.array([[0, -1]]),
        np.array([[4, 0]]),
        np.array([[0.0, 1.0]]),
    ],
)
@pytest.mark.parametrize("kind", list(_METERS))
def test_meter_readings_reject_bad_state_matrices(kind, states):
    meter = _METERS[kind](_unit_channel(2))
    with pytest.raises(ValueError):
        meter.readings(states)
    # a refused matrix makes no reading, so no noise index moves
    assert meter.calls == 0


@pytest.mark.parametrize("kind", list(_METERS))
def test_meter_call_refuses_a_config_of_another_layout(kind):
    meter = _METERS[kind](_unit_channel(3))
    with pytest.raises(ValueError, match=r"^expected an \(M, 3\) matrix of element states$"):
        meter(RisConfig.all_off(RisLayout(nx=2, ny=1)))
    assert meter.calls == 0

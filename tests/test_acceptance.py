"""End-to-end acceptance checks for the simulator and optimizer suite.

Each test prints one verdict line (visible under ``pytest -s``, or on
failure) and enforces its own runtime budget. Seeds are frozen, so every
number asserted here is reproducible bit for bit.
"""

import dataclasses
import math
import statistics
import time

import numpy as np

from rissim.channel import (
    ChannelModelParams,
    GainMeter,
    TonePowerMeter,
    derive_seed,
    power_dbfs,
    synthesize_channels,
)
from rissim.codebook import evaluate_path, generate_codebook
from rissim.experiments import (
    ScenarioConfig,
    config_from_dict,
    run_codebook_experiment,
    run_grouping_experiment,
    run_oracle_check,
    run_sweep,
)
from rissim.geometry import make_scene
from rissim.optimizer import exhaustive_search, greedy_iterative
from rissim.ris import RisConfig, RisLayout


def _verdict(num: int, name: str, ok: bool) -> bool:
    print(f"[criterion {num}] {name}: {'PASS' if ok else 'FAIL'}")
    return ok


def _noiseless(cfg: ScenarioConfig) -> ScenarioConfig:
    return dataclasses.replace(cfg, noise_variance=0.0)


def test_criterion_1_measurement_budgets():
    t0 = time.perf_counter()
    cfg = ScenarioConfig(seed=0)
    scene = cfg.base_scene().with_rx_at(70.0, 170.0)
    chan = synthesize_channels(scene, cfg.layout, cfg.channel, cfg.seed)
    counts = {}
    for size in (1, 2, 4, 8):
        meter = GainMeter(chan)
        greedy_iterative(meter.readings, cfg.layout, 4, size)
        counts[size] = meter.calls
    elapsed = time.perf_counter() - t0
    ok = (
        counts[1] == 304
        and counts[2] == 152
        and counts[4] == 76
        and counts[8] <= 40
        and elapsed < 1.0
    )
    assert _verdict(1, "measurement budgets 304/152/76/<=40", ok), (counts, elapsed)


def test_criterion_2_exhaustive_never_below_greedy():
    t0 = time.perf_counter()
    shapes = [(1, 1), (2, 1), (3, 1), (2, 2), (5, 1), (3, 2)]
    scene = make_scene(rx_angle_deg=70.0, rx_distance_cm=170.0)
    gaps, single_gaps = [], []
    for instance in range(17):  # 17 * 6 shapes = 102 instances
        for nx, ny in shapes:
            lay = RisLayout(nx=nx, ny=ny)
            seed = derive_seed(11, "oracle", instance, nx, ny)
            chan = synthesize_channels(scene, lay, ChannelModelParams(), seed)
            _, oracle_db = exhaustive_search(GainMeter(chan).readings, lay)
            _, gtrace = greedy_iterative(GainMeter(chan).readings, lay)
            gap = oracle_db - gtrace.final_power
            gaps.append(gap)
            if lay.n_active == 1:
                single_gaps.append(gap)
    elapsed = time.perf_counter() - t0
    ok = (
        len(gaps) >= 100
        and min(gaps) >= -1e-9
        and len(single_gaps) == 17
        and all(g == 0.0 for g in single_gaps)
        and elapsed < 60.0
    )
    assert _verdict(2, "exhaustive oracle dominates greedy", ok), (min(gaps), elapsed)


def test_criterion_3_noiseless_traces_monotone():
    t0 = time.perf_counter()
    violations = 0
    min_gain = float("inf")
    for seed in range(10):
        cfg = _noiseless(ScenarioConfig(seed=seed))
        for i, (angle, dist) in enumerate(cfg.sweep_points):
            baseline, trace = cfg.measure_spot(cfg.group_size, angle, dist, "sweep", i)
            running = [e.p_max_dbfs for e in trace.entries]
            if any(b < a for a, b in zip(running, running[1:])):
                violations += 1
            min_gain = min(min_gain, trace.final_power - baseline)
    elapsed = time.perf_counter() - t0
    ok = violations == 0 and min_gain >= 0.0 and elapsed < 60.0
    assert _verdict(3, "noiseless greedy monotone, gain >= 0", ok), (
        violations,
        min_gain,
        elapsed,
    )


def test_criterion_4_dbfs_meter():
    t0 = time.perf_counter()
    exact = True
    for amp in (1, 2, 3, 7, 10, 100, 1234, 2048):
        buf = np.tile(np.array([[amp, 0]], dtype=np.int16), (64, 1))
        exact &= power_dbfs(buf) == 20.0 * math.log10(amp)
        # quadrature layout of the same amplitude reads identically
        buf_q = np.tile(np.array([[0, amp]], dtype=np.int16), (64, 1))
        exact &= power_dbfs(buf_q) == 20.0 * math.log10(amp)

    # element-amplitude scaling at comfortable code levels (>= 100 LSB)
    from rissim.channel import ChannelRealization

    ones = np.ones(1, dtype=np.complex128)
    zeros = np.zeros(1, dtype=np.complex128)
    chan = ChannelRealization(ones, zeros, ones, zeros, 0.0j)
    lay = RisLayout(nx=1, ny=1)
    off = RisConfig.all_off(lay)
    scaling_ok = True
    for hi, lo in ((0.9, 0.45), (0.8, 0.2), (1.0, 0.5)):
        p_hi = TonePowerMeter(chan, full_scale=4.0, amplitude=hi, noise_variance=0.0)(off)
        p_lo = TonePowerMeter(chan, full_scale=4.0, amplitude=lo, noise_variance=0.0)(off)
        scaling_ok &= abs((p_hi - p_lo) - 20.0 * np.log10(hi / lo)) <= 0.05
    elapsed = time.perf_counter() - t0
    ok = exact and scaling_ok and elapsed < 10.0
    assert _verdict(4, "dBFS exact anchors and amplitude scaling", ok), elapsed


def test_criterion_5_sweep_gain_trend():
    t0 = time.perf_counter()
    gains = {50.0: [], 70.0: [], 130.0: [], 110.0: []}
    for seed in range(20):
        cfg = ScenarioConfig(seed=seed)
        for angle in gains:
            for j, dist in enumerate((120.0, 220.0, 320.0)):
                baseline, trace = cfg.measure_spot(cfg.group_size, angle, dist, "sweep", j)
                gains[angle].append(trace.final_power - baseline)
    pooled = statistics.median(gains[50.0] + gains[70.0] + gains[130.0])
    specular = statistics.median(gains[110.0])
    elapsed = time.perf_counter() - t0
    ok = 6.0 <= pooled <= 20.0 and specular <= pooled - 3.0 and elapsed < 300.0
    assert _verdict(5, "gain 6-20 dB off specular, dip at 110 deg", ok), (
        pooled,
        specular,
        elapsed,
    )


def test_criterion_6_codebook_behavior():
    t0 = time.perf_counter()

    # shared noiseless realization: replaying the sweep at a reference
    # point must reproduce the stored codeword's power to the last bit
    cfg0 = _noiseless(ScenarioConfig(seed=0))
    scene = cfg0.base_scene()
    refs = [(a, cfg0.codebook_distance_cm) for a in cfg0.codebook_angles_deg]
    book = generate_codebook(cfg0, refs)
    exact = True
    for entry in book.entries:
        placed = scene.with_rx_at(entry.angle_deg, entry.distance_cm)
        chan = synthesize_channels(placed, cfg0.layout, cfg0.channel, cfg0.seed)
        meter = TonePowerMeter(
            chan, cfg0.tone, full_scale=cfg0.full_scale, amplitude=cfg0.element_amplitude,
            noise_variance=cfg0.noise_variance,
        )
        _, trace = greedy_iterative(meter.readings, cfg0.layout)
        p_codeword = TonePowerMeter(
            chan, cfg0.tone, full_scale=cfg0.full_scale, amplitude=cfg0.element_amplitude,
            noise_variance=cfg0.noise_variance,
        )(entry.config)
        exact &= p_codeword == trace.final_power

    # noisy path replay over 20 seeds
    diffs, beats = [], []
    for seed in range(20):
        cfg = ScenarioConfig(seed=seed)
        refs = [(a, cfg.codebook_distance_cm) for a in cfg.codebook_angles_deg]
        book = generate_codebook(cfg, refs)
        rows, _ = evaluate_path(book, cfg.path, cfg)
        for r in rows:
            diffs.append(r["p_online"] - r["p_codebook"])
            beats.append(r["p_codebook"] > r["p_off"])
    med = statistics.median(diffs)
    beat_frac = sum(beats) / len(beats)
    elapsed = time.perf_counter() - t0
    ok = exact and 0.0 <= med <= 6.0 and beat_frac >= 0.9 and elapsed < 300.0
    assert _verdict(6, "codebook exact at refs, close to online on path", ok), (
        med,
        beat_frac,
        elapsed,
    )


def test_criterion_7_grouping_tradeoff():
    t0 = time.perf_counter()
    deficits = {2: [], 4: [], 8: []}
    for seed in range(20):
        cfg = ScenarioConfig(seed=seed)
        for ai, angle in enumerate((70.0, 130.0)):
            scene = cfg.base_scene().with_rx_at(angle, 170.0)
            chan = synthesize_channels(scene, cfg.layout, cfg.channel, cfg.seed)
            gain = {}
            for size in (1, 2, 4, 8):
                meter = TonePowerMeter(
                    chan, cfg.tone, full_scale=cfg.full_scale,
                    amplitude=cfg.element_amplitude,
                    noise_variance=cfg.noise_variance,
                    noise_seed=(cfg.seed, "grouping", ai, size),
                )
                base = meter(RisConfig.all_off(cfg.layout))
                _, trace = greedy_iterative(meter.readings, cfg.layout, 4, size)
                gain[size] = trace.final_power - base
            for size in (2, 4, 8):
                deficits[size].append(gain[1] - gain[size])
    med = {size: statistics.median(v) for size, v in deficits.items()}
    elapsed = time.perf_counter() - t0
    ok = (
        med[2] <= med[4] <= med[8]
        and med[2] <= 3.0
        and med[8] <= 6.0
        and elapsed < 300.0
    )
    assert _verdict(7, "grouping deficits ordered and bounded", ok), (med, elapsed)


def test_criterion_8_reruns_byte_identical(tmp_path):
    t0 = time.perf_counter()
    raw = {
        "seed": 5,
        "sweep": {"points": [[70.0, 170.0], [110.0, 220.0]]},
        "codebook": {
            "reference_angles_deg": [70.0, 110.0],
            "reference_distance_cm": 170.0,
            "path": [[72.0, 165.0], [108.0, 175.0]],
        },
        "grouping": {"group_sizes": [1, 8], "angles_deg": [70.0], "distance_cm": 170.0},
        "oracle": {"instances": 3},
    }
    cfg = config_from_dict(raw)
    runners = {
        "sweep": run_sweep,
        "codebook": run_codebook_experiment,
        "grouping": run_grouping_experiment,
        "oracle": run_oracle_check,
    }
    identical = True
    for name, runner in runners.items():
        a, b = tmp_path / name / "a", tmp_path / name / "b"
        runner(cfg, a)
        runner(cfg, b)
        files_a = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
        files_b = sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
        identical &= files_a == files_b and len(files_a) > 0
        for rel in files_a:
            identical &= (a / rel).read_bytes() == (b / rel).read_bytes()
    elapsed = time.perf_counter() - t0
    ok = identical and elapsed < 300.0
    assert _verdict(8, "experiment reruns byte-identical", ok), elapsed

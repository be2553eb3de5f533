#!/usr/bin/env python3
"""Recompute the receiver defaults frozen in rissim.channel.

The reference level c_ref is the median all-off channel magnitude over the
grid angles at 170 cm with the scattered part switched off. Full scale is
then set so that level lands at 10 codes RMS (about 20 dBFS), and the noise
variance so the per-sample SNR at that level is 30 dB. Run after changing
the default geometry or layout and paste the printed constants into
``src/rissim/channel.py``.
"""

import numpy as np

from rissim.channel import ChannelModelParams, channel_gain, synthesize_channels
from rissim.geometry import DEFAULT_GRID_ANGLES_DEG, make_scene
from rissim.ris import RisConfig, RisLayout

BASELINE_CODES_RMS = 10.0
SNR_DB = 30.0
REFERENCE_DISTANCE_CM = 170.0


def main() -> None:
    layout = RisLayout.default()
    params = ChannelModelParams(rician_k_db=float("inf"))
    off = RisConfig.all_off(layout)
    mags = []
    for angle in DEFAULT_GRID_ANGLES_DEG:
        scene = make_scene(rx_angle_deg=angle, rx_distance_cm=REFERENCE_DISTANCE_CM)
        chan = synthesize_channels(scene, layout, params, 0)
        mags.append(abs(channel_gain(off, chan)))
        print(f"  {angle:6.1f} deg: |c| = {mags[-1]:.6f}")
    c_ref = float(np.median(mags))
    full_scale = 2048.0 * c_ref / BASELINE_CODES_RMS
    noise_variance = c_ref**2 / 10.0 ** (SNR_DB / 10.0)
    print(f"c_ref = {c_ref!r}")
    print(f"DEFAULT_FULL_SCALE = {full_scale!r}")
    print(f"DEFAULT_NOISE_VARIANCE = {noise_variance!r}")


if __name__ == "__main__":
    main()

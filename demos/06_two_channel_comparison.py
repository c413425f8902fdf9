"""End-to-end comparison of the multiplexed pipelines against the merged
(non-multiplexed) baseline at the calibrated 30 dB reference point: the
merged detectors see twice the singles rate, quadrupling accidentals,
doubling the QBER and cutting the extractable key."""

from wmqkd import CoincidenceWindow, qber, secure_key
from wmqkd.calibration import DEFAULT_DETECTOR, FROZEN_CALIBRATION
from wmqkd.channels import build_table1_plan
from wmqkd.simulate import resolve_channels, simulate_point

cal = FROZEN_CALIBRATION
print("Frozen calibration:")
print(f"  full-spectrum pair rate  {cal.full_spectrum_pair_rate:.4g} pairs/s")
print(f"  channel systematic visibilities "
      f"{cal.v_sys_channel1:.4f} / {cal.v_sys_channel2:.4f}")

print("\nSimulating 2 s at 30 dB total loss (seeded)...")
chans = resolve_channels(cal.source(), build_table1_plan(), loss_db=30.0,
                         channel_visibilities=cal.channel_visibilities())
# One record per pipeline: each channel in plan order, then the merged one.
res = simulate_point(chans, detector=DEFAULT_DETECTOR, window=CoincidenceWindow(1e-9),
                     duration=2.0, seed=2024)
pipelines = dict(zip([f"ch{c.index}" for c in chans] + ["merged"], res))
rates = {name: secure_key(p.counts_hv, p.counts_da, 1.1)
         / (p.counts_hv.duration + p.counts_da.duration)
         for name, p in pipelines.items()}

print(f"\n{'pipeline':<10} {'coinc':>8} {'QBER_HV':>8} {'QBER_DA':>8} "
      f"{'singles_A/s':>12} {'key bps':>9}")
for name, p in pipelines.items():
    print(f"{name:<10} {p.counts_hv.total + p.counts_da.total:>8} "
          f"{qber(p.counts_hv):>8.4f} {qber(p.counts_da):>8.4f} "
          f"{p.singles_alice:>12.0f} {rates[name]:>9.1f}")

wm = rates["ch1"] + rates["ch2"]
merged = rates["merged"]
print(f"\nmultiplexed total {wm:.1f} bps vs merged {merged:.1f} bps "
      f"-> {wm / merged:.2f}x higher with wavelength multiplexing")
print(f"channel 1 alone gives {rates['ch1'] / merged:.2f}x "
      "the merged rate despite seeing half the photons")

"""The detector chain step by step: link loss, polarization outcomes of
the entangled state, and the tag pipeline (efficiency, darks, jitter,
dead time, tick quantization), ending with detector merging."""

import numpy as np

from wmqkd import DetectorConfig, SourceConfig, sample_pair_stream, transmit
from wmqkd.detection import (Basis, detect, measure_pair_outcomes,
                             merge_detectors)
from wmqkd.source import _rng

src = SourceConfig(pair_rate=1e6)
stream = sample_pair_stream(src, duration=1.0, seed=7)
print(f"{len(stream)} pairs generated; applying 20 dB symmetric loss")
surv = transmit(stream, total_loss_db=20.0, seed=8)
print(f"  signal survivors {surv.signal.sum()}  idler {surv.idler.sum()}  "
      f"both {surv.both.sum()}  (expect ~10%, 10%, 1%)")

print("\nPolarization outcomes at systematic visibility 0.924:")
a, b = measure_pair_outcomes(100000, 0.924, _rng(9))
print(f"  same-outcome fraction {np.mean(a == b):.4f} (expect (1-0.924)/2 = 0.038)")

cfg = DetectorConfig(efficiency=0.6, dark_rate=100.0, jitter_sigma=250e-12,
                     dead_time=50e-9)
print(f"\nDetector module: {cfg}")
arrivals = stream.times[surv.signal]
bits = np.zeros(arrivals.size, np.int8)
bits[1::2] = 1
tags = detect(arrivals, bits, cfg, duration=1.0, seed=10, basis=Basis.HV)
print(f"  {arrivals.size} arrivals -> {len(tags)} tags "
      f"({int(tags.dark.sum())} dark); rate {len(tags) / tags.duration:.0f}/s")
print(f"  expected ~ {arrivals.size * 0.6 + 2 * 100:.0f} "
      "(efficiency x arrivals + darks)")
print(f"  tick resolution {cfg.tick*1e12:.2f} ps; first tags "
      f"{tags.ticks[:4].tolist()}")

print("\nMerging the two output ports into one effective detector:")
port0 = tags.take((tags.detector_ids % 2) == 0)
port1 = tags.take((tags.detector_ids % 2) == 1)
merged = merge_detectors(port0, port1, global_dead_time=50e-9)
print(f"  {len(port0)} + {len(port1)} tags -> {len(merged)} after the "
      "global dead time (simultaneous-within-dead-time events dropped)")

"""Key-rate analysis: visibility and QBER from count tables, the binary
entropy, the secure-key formula with its QBER threshold, the analytic
link model, and brightness optimization."""

import numpy as np

from wmqkd import (AnalyticLinkModel, analytic_rates, binary_entropy,
                   optimize_pair_rate, qber, qber_threshold, secure_key,
                   visibility)
from wmqkd.coincidence import CountsMatrix
from wmqkd.detection import Basis

hv = CountsMatrix(Basis.HV, [[19, 481], [481, 19]], 1.0)
da = CountsMatrix(Basis.DA, [[19, 481], [481, 19]], 1.0)
print("Count table with 3.8% erroneous coincidences:")
print(f"  visibility {visibility(hv):.3f}, QBER {qber(hv):.3f}")
print(f"  secure key from both bases: {secure_key(hv, da):.1f} bits "
      f"of {hv.total + da.total} coincidences")

print("\nEntropy and the key-vanishing threshold (f_ec = 1.1):")
print(f"  H2(0.5) = {binary_entropy(0.5):.3f}, H2(0.038) = "
      f"{binary_entropy(0.038):.4f}")
thr = qber_threshold(1.1)
print(f"  key kernel 1 - 2.1*H2(Q) vanishes at Q = {thr:.4f}")
for q in (0.038, 0.076, thr + 0.01):
    kernel = 1 - 2.1 * binary_entropy(q)
    print(f"    Q = {q:.3f} -> kernel {kernel:+.4f}"
          + ("  (no key)" if kernel <= 0 else ""))

print("\nAnalytic link model at 40 dB total loss:")
eta = 10 ** (-(40 / 2) / 10)
model = AnalyticLinkModel(
    pair_rate_in_band=4e7, transmittance_alice=eta * 0.42,
    transmittance_bob=eta * 0.54, dark_rate_alice=200.0, dark_rate_bob=200.0,
    t_c=1e-9, q_sys=0.0116,
)
res = analytic_rates(model)
print(f"  singles {res.singles_alice:.0f} / {res.singles_bob:.0f} per second")
print(f"  true coincidences {res.cc_true:.1f}/s, accidentals "
      f"{res.cc_accidental:.2f}/s")
print(f"  QBER {res.qber:.4f} -> key {res.key_rate_per_channel:.1f} bps")

print("\nBrightness optimization (accidentals penalize high rates):")
opt = optimize_pair_rate(model)
print(f"  optimal in-band pair rate {opt.pair_rate:.3g} pairs/s "
      f"-> {opt.key_rate_total:.1f} bps (interior optimum: {opt.interior})")
for b in (opt.pair_rate / 10, opt.pair_rate * 10):
    from dataclasses import replace
    r = analytic_rates(replace(model, pair_rate_in_band=b))
    print(f"  at {b:.3g} pairs/s the key drops to {r.key_rate_per_channel:.1f} bps")

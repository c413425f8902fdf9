"""Key-rate analysis tests: visibility/QBER identities, entropy, the
secure-key formula, threshold bisection against an independent root
finder, the analytic link model, optimization, and scaling."""

import numpy as np
import pytest
from scipy.optimize import brentq

from wmqkd.coincidence import CountsMatrix
from wmqkd.detection import Basis
from wmqkd.keyrate import (AnalyticLinkModel, analytic_rate_arrays, analytic_rates,
                           binary_entropy, channel_result, optimize_pair_rate, qber,
                           qber_threshold, scaling_curve, secure_key,
                           secure_key_from_rates, visibility)
from dataclasses import replace


def counts(hh, hv, vh, vv, basis=Basis.HV, duration=1.0):
    return CountsMatrix(basis, [[hh, hv], [vh, vv]], 1, duration)


def h2_direct(x):
    """Independent direct evaluation of the binary entropy."""
    if x in (0.0, 1.0):
        return 0.0
    return -x * np.log2(x) - (1 - x) * np.log2(1 - x)


# --- visibility / qber -------------------------------------------------------

def test_visibility_perfect_state():
    assert visibility(counts(0, 50, 50, 0)) == 1.0


def test_visibility_fully_mixed():
    assert visibility(counts(25, 25, 25, 25)) == 0.0


def test_visibility_published_point():
    # 481/481 anticorrelated vs 19/19 erroneous -> V = 0.924, Q = 3.8%.
    c = counts(19, 481, 481, 19)
    assert visibility(c) == pytest.approx(0.924, abs=1e-12)
    assert qber(c) == pytest.approx(0.038, abs=1e-12)


def test_zero_total_flagged_undefined():
    c = counts(0, 0, 0, 0)
    assert np.isnan(visibility(c))
    assert np.isnan(qber(c))


def test_qber_visibility_identity():
    # Q + V/2 = 1/2 for every non-empty matrix.
    rng = np.random.default_rng(1)
    for _ in range(200):
        c = counts(*rng.integers(0, 1000, 4))
        if c.total == 0:
            continue
        assert qber(c) + visibility(c) / 2 == pytest.approx(0.5, abs=1e-12)


def test_qber_from_visibility_values():
    assert (1 - 0.848) / 2 == pytest.approx(0.076)
    assert (1 - 0.924) / 2 == pytest.approx(0.038)


# --- binary entropy ----------------------------------------------------------

def test_entropy_endpoints_and_max():
    assert binary_entropy(0.5) == 1.0
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0


def test_entropy_at_011():
    # Direct evaluation: H2(0.11) = 0.4999159...
    assert binary_entropy(0.11) == pytest.approx(h2_direct(0.11), abs=1e-15)
    assert binary_entropy(0.11) == pytest.approx(0.4999159582, abs=1e-9)


def test_entropy_symmetry_and_concavity_grid():
    xs = np.linspace(0.0, 1.0, 101)
    h = binary_entropy(xs)
    assert np.max(np.abs(h - h[::-1])) < 1e-12
    assert np.max(h) == pytest.approx(1.0, abs=1e-12)
    # midpoint concavity on the grid
    mid = binary_entropy((xs[:-1] + xs[1:]) / 2)
    assert np.all(mid >= (h[:-1] + h[1:]) / 2 - 1e-12)


def test_entropy_domain_rejected():
    for bad in (-0.1, 1.1):
        with pytest.raises(ValueError):
            binary_entropy(bad)


# --- secure key --------------------------------------------------------------

def test_secure_key_no_errors():
    hv = counts(0, 500, 500, 0)
    da = counts(0, 500, 500, 0, basis=Basis.DA)
    assert secure_key(hv, da) == pytest.approx(1000.0)


def test_secure_key_at_38_percent():
    # 10^4 counts per basis at Q = 3.8%: R = 2e4 * 0.5 * (1 - 2.1 H2(0.038)).
    hv = counts(190, 4810, 4810, 190)
    da = counts(190, 4810, 4810, 190, basis=Basis.DA)
    kernel = 1 - 2.1 * h2_direct(0.038)
    assert kernel == pytest.approx(0.5106036256, abs=1e-9)
    assert secure_key(hv, da) == pytest.approx(2e4 * 0.5 * kernel, rel=1e-12)


def test_secure_key_clamps_negative_terms():
    hv = counts(2000, 3000, 3000, 2000)   # Q = 0.4, deep negative
    da = counts(0, 500, 500, 0, basis=Basis.DA)
    assert secure_key(hv, da) == pytest.approx(500.0)
    bad_both = secure_key(hv, counts(2000, 3000, 3000, 2000, basis=Basis.DA))
    assert bad_both == 0.0


def test_secure_key_monotone_in_qber():
    rates = [secure_key_from_rates(1000.0, q) for q in np.linspace(0, 0.2, 21)]
    assert all(a >= b for a, b in zip(rates, rates[1:]))


def test_secure_key_rejects_bad_f():
    with pytest.raises(ValueError):
        secure_key(counts(0, 1, 1, 0), counts(0, 1, 1, 0, basis=Basis.DA), f_ec=0.9)


# --- threshold ---------------------------------------------------------------

def test_threshold_against_independent_root():
    for f in (1.0, 1.1, 1.3, 2.0):
        oracle = brentq(lambda q: 1 - (1 + f) * h2_direct(q), 1e-12, 0.5 - 1e-12,
                        xtol=1e-12)
        assert qber_threshold(f, tol=1e-8) == pytest.approx(oracle, abs=1e-6)


def test_threshold_reference_values():
    # Roots of 1 = (1+f) H2(Q): 0.110028 at f=1, 0.102283 at f=1.1.
    assert qber_threshold(1.0) == pytest.approx(0.110028, abs=2e-6)
    assert qber_threshold(1.1) == pytest.approx(0.102283, abs=2e-6)


def test_threshold_monotone_and_limit():
    fs = [1.0, 1.5, 2.0, 5.0, 20.0]
    ts = [qber_threshold(f) for f in fs]
    assert all(a > b for a, b in zip(ts, ts[1:]))
    assert qber_threshold(500.0) < 0.01


def test_undefined_qber_gives_no_key():
    # A NaN QBER (no coincidences, or a NaN visibility) has no entropy
    # and yields no key, whatever the coincidence rate.
    assert np.isnan(binary_entropy(float("nan")))
    h = binary_entropy(np.array([0.0, np.nan, 0.5]))
    assert h[0] == 0.0 and np.isnan(h[1]) and h[2] == 1.0
    assert secure_key_from_rates(1e4, float("nan")) == 0.0
    assert secure_key_from_rates([1e4, 1e4], [float("nan"), 0.02]).tolist() == \
        [0.0, secure_key_from_rates(1e4, 0.02)]
    rates = analytic_rate_arrays(**{**vars(base_model()), "q_sys": float("nan")})
    assert np.isnan(rates.qber)
    assert rates.key_rate_per_channel == rates.key_rate_total == 0.0


def test_key_positive_below_threshold_only():
    thr = qber_threshold(1.1)
    assert secure_key_from_rates(100.0, thr - 0.002) > 0
    assert secure_key_from_rates(100.0, thr + 0.002) == 0.0


# --- analytic link model -----------------------------------------------------

def base_model(**kw):
    defaults = dict(pair_rate_in_band=1e7, transmittance_alice=0.01,
                    transmittance_bob=0.01, dark_rate_alice=100.0,
                    dark_rate_bob=100.0, t_c=1e-9, q_sys=0.01)
    defaults.update(kw)
    return AnalyticLinkModel(**defaults)


def test_analytic_no_accidentals_limit():
    m = base_model(dark_rate_alice=0.0, dark_rate_bob=0.0, t_c=1e-18)
    res = analytic_rates(m)
    assert res.qber == pytest.approx(m.q_sys, abs=1e-10)


def test_analytic_rate_decomposition():
    m = base_model()
    res = analytic_rates(m)
    s_a = 1e7 * 0.01 + 100.0
    s_b = 1e7 * 0.01 + 100.0
    assert res.singles_alice == pytest.approx(s_a)
    assert res.cc_true == pytest.approx(1e7 * 1e-4)
    assert res.cc_accidental == pytest.approx(s_a * s_b * 1e-9)
    q = (0.01 * res.cc_true + 0.5 * res.cc_accidental) / (res.cc_true + res.cc_accidental)
    assert res.qber == pytest.approx(q, rel=1e-12)


def test_analytic_doubling_brightness_doubles_accidental_ratio():
    m = base_model(dark_rate_alice=0.0, dark_rate_bob=0.0)
    r1 = analytic_rates(m)
    r2 = analytic_rates(replace(m, pair_rate_in_band=2e7))
    ratio1 = r1.cc_accidental / r1.cc_true
    ratio2 = r2.cc_accidental / r2.cc_true
    assert ratio2 == pytest.approx(2 * ratio1, rel=1e-12)


def test_analytic_merged_channel_accidental_doubling():
    # Two channels at B each into one detector pair (B -> 2B): the
    # accidental-to-true ratio doubles, matching the measured QBER
    # doubling pattern in the accidental-dominated regime.
    m = base_model(dark_rate_alice=0.0, dark_rate_bob=0.0, q_sys=0.0)
    separate = analytic_rates(m)
    merged = analytic_rates(replace(m, pair_rate_in_band=2e7))
    assert merged.cc_accidental / merged.cc_true == pytest.approx(
        2 * separate.cc_accidental / separate.cc_true, rel=1e-12)
    # with acc << true, the QBER itself doubles to first order
    assert merged.qber == pytest.approx(2 * separate.qber, rel=0.02)


def test_optimize_monotone_in_loss():
    # Higher loss -> lower optimal brightness; optimum beats a grid scan.
    opts = []
    for loss in (40.0, 55.0, 70.0):
        eta = 10 ** (-(loss / 2) / 10)
        m = base_model(transmittance_alice=eta, transmittance_bob=eta,
                       dark_rate_alice=200.0, dark_rate_bob=200.0)
        opt = optimize_pair_rate(m)
        assert opt.interior
        grid = np.logspace(4, 11, 40)
        best_grid = max(
            analytic_rates(replace(m, pair_rate_in_band=b)).key_rate_total
            for b in grid
        )
        assert opt.key_rate_total >= best_grid * (1 - 1e-6)
        opts.append(opt.pair_rate)
    assert opts[0] > opts[1] > opts[2]


def test_optimize_flags_monotone_profile():
    # No accidental penalty (t_c -> 0, no darks): rate is monotone in
    # brightness, so there is no interior optimum.
    m = base_model(dark_rate_alice=0.0, dark_rate_bob=0.0, t_c=1e-18)
    opt = optimize_pair_rate(m, bracket=(1e2, 1e10))
    assert not opt.interior
    assert opt.warning is not None
    assert opt.pair_rate == pytest.approx(1e10)


def test_scaling_linearity_exact():
    m = base_model()
    rows = scaling_curve(m, [1, 2, 80, 1000, 15000], [40.0, 60.0],
                         base_transmittance_alice=0.5, base_transmittance_bob=0.5)
    by_loss = {}
    for r in rows:
        by_loss.setdefault(r["loss_db"], {})[r["n"]] = r["key_rate_bps"]
    for loss, table in by_loss.items():
        for n in (2, 80, 1000, 15000):
            assert table[n] == n * table[1]


def test_channel_result_assembles_report_fields():
    hv = counts(19, 481, 481, 19)
    da = counts(10, 490, 490, 10, basis=Basis.DA)
    r = channel_result(hv, da, 1e5, 1.2e5, 42.0)
    assert r.qber_hv == pytest.approx(0.038)
    assert r.qber_da == pytest.approx(0.02)
    assert r.cc_hv == 1000 and r.cc_da == 1000
    assert r.secure_key_bits > 0
    assert r.secure_key_rate == pytest.approx(r.secure_key_bits / 2.0)


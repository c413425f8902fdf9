"""Source model tests: spectrum shape, band fractions against a
quadrature oracle, Poisson emission statistics, and the in-house erf
against scipy's."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, special, stats

from wmqkd.calibration import FROZEN_CALIBRATION
from wmqkd.source import (SourceConfig, _erf, band_fraction, sample_pair_stream,
                          spectral_density)


def make_config(**kw):
    defaults = dict(pair_rate=1e6)
    defaults.update(kw)
    return SourceConfig(**defaults)


def test_peak_is_normalized():
    cfg = make_config()
    assert spectral_density(cfg, 0.0) == 1.0


def test_half_maximum_at_half_fwhm():
    cfg = make_config()
    for sign in (+1, -1):
        assert spectral_density(cfg, sign * 4.73 / 2) == pytest.approx(0.5, abs=1e-12)


def test_integral_matches_quadrature_oracle():
    cfg = make_config()
    span = 5 * cfg.spectral_fwhm
    oracle, err = integrate.quad(lambda d: spectral_density(cfg, d), -span, span)
    assert err < 1e-9
    # Gaussian integral is FWHM * 1.0645 to the quoted precision.
    assert oracle == pytest.approx(cfg.spectral_fwhm * 1.0645, rel=1e-4)


def test_band_fraction_full_coverage():
    cfg = make_config()
    assert band_fraction(cfg, 0.0, 10 * cfg.spectral_fwhm) >= 0.9999


def test_band_fraction_additivity():
    cfg = make_config()
    left = band_fraction(cfg, -1.0, 0.8)
    right = band_fraction(cfg, 1.0, 0.8)
    both_halves = left + right
    oracle = (integrate.quad(lambda d: spectral_density(cfg, d), -1.4, -0.6)[0]
              + integrate.quad(lambda d: spectral_density(cfg, d), 0.6, 1.4)[0])
    oracle /= cfg.sigma * math.sqrt(2.0 * math.pi)
    assert both_halves == pytest.approx(oracle, rel=1e-9)


def test_band_fraction_against_quadrature_oracle():
    # 0.12 nm band at -0.2 nm detuning.
    cfg = make_config()
    got = band_fraction(cfg, -0.2, 0.12)
    num, _ = integrate.quad(lambda d: spectral_density(cfg, d), -0.26, -0.14)
    den, _ = integrate.quad(lambda d: spectral_density(cfg, d), -30, 30)
    assert got == pytest.approx(num / den, rel=1e-8)


def test_band_fraction_monotone_in_width():
    cfg = make_config()
    widths = [0.05, 0.1, 0.5, 2.0, 10.0]
    fracs = [band_fraction(cfg, 0.3, w) for w in widths]
    assert all(a < b for a, b in zip(fracs, fracs[1:]))
    assert fracs[-1] <= 1.0


def test_band_fraction_rejects_nonpositive_width():
    with pytest.raises(ValueError):
        band_fraction(make_config(), 0.0, 0.0)


def test_sample_count_within_poisson_bounds():
    stream = sample_pair_stream(make_config(pair_rate=1e6), 1.0, seed=123)
    assert abs(len(stream) - 1e6) < 5 * np.sqrt(1e6)


def test_zero_pair_rate_rejected_at_config():
    with pytest.raises(ValueError):
        make_config(pair_rate=0.0)


def test_nonpositive_duration_rejected():
    with pytest.raises(ValueError):
        sample_pair_stream(make_config(), 0.0, seed=1)


@pytest.mark.parametrize("duration", [math.nan, math.inf])
def test_non_finite_duration_rejected_by_name(duration):
    with pytest.raises(ValueError, match="duration"):
        sample_pair_stream(make_config(), duration, seed=1)


def test_same_seed_identical_streams():
    a = sample_pair_stream(make_config(), 0.01, seed=99)
    b = sample_pair_stream(make_config(), 0.01, seed=99)
    assert np.array_equal(a.times, b.times)
    assert np.array_equal(a.detunings, b.detunings)


def test_different_seeds_differ():
    a = sample_pair_stream(make_config(), 0.01, seed=1)
    b = sample_pair_stream(make_config(), 0.01, seed=2)
    assert not np.array_equal(a.times, b.times)


def test_interarrival_times_exponential():
    # Kolmogorov-Smirnov at the 1% level on >= 1e5 events.
    cfg = make_config(pair_rate=2e5)
    stream = sample_pair_stream(cfg, 1.0, seed=7)
    assert len(stream) >= 1e5
    gaps = np.diff(stream.times)
    res = stats.kstest(gaps, "expon", args=(0, 1 / cfg.pair_rate))
    assert res.pvalue > 0.01


def test_detuning_histogram_matches_density():
    # 20 bins over +/- 2 FWHM, each within 4 sigma of the multinomial
    # expectation.
    cfg = make_config(pair_rate=5e5)
    stream = sample_pair_stream(cfg, 1.0, seed=21)
    edges = np.linspace(-2 * cfg.spectral_fwhm, 2 * cfg.spectral_fwhm, 21)
    counts, _ = np.histogram(stream.detunings, edges)
    n = len(stream)
    for k in range(20):
        p = band_fraction(cfg, (edges[k] + edges[k + 1]) / 2, edges[k + 1] - edges[k])
        sigma = np.sqrt(n * p * (1 - p))
        assert abs(counts[k] - n * p) < 4 * sigma, f"bin {k}"


def test_wavelengths_exactly_anticorrelated():
    cfg = make_config()
    stream = sample_pair_stream(cfg, 0.001, seed=3)
    signal_offset = stream.signal_wavelengths - cfg.center_wavelength_signal
    idler_offset = stream.idler_wavelengths - cfg.center_wavelength_idler
    assert np.all(signal_offset + idler_offset == 0.0)


def test_times_sorted_and_in_range():
    stream = sample_pair_stream(make_config(), 0.01, seed=5)
    assert np.all(np.diff(stream.times) >= 0)
    assert stream.times.min() >= 0 and stream.times.max() < 0.01


def test_band_restricted_sampling():
    cfg = make_config(pair_rate=5e6)
    band = (-0.26, -0.14)
    stream = sample_pair_stream(cfg, 1.0, seed=11, band=band)
    assert np.all((stream.detunings >= band[0]) & (stream.detunings <= band[1]))
    expected = cfg.pair_rate * band_fraction(cfg, -0.2, 0.12)
    assert abs(len(stream) - expected) < 5 * np.sqrt(expected)


def test_config_invariants():
    with pytest.raises(ValueError):
        make_config(spectral_fwhm=-1.0)
    with pytest.raises(ValueError):
        make_config(systematic_visibility_hv=1.5)
    with pytest.raises(ValueError):
        # centers not straddling the spectral center symmetrically
        make_config(center_wavelength_signal=799.0,
                    center_wavelength_idler=822.0, spdc_center=810.0)


def test_calibrated_source_inverts_band_fraction():
    # 7.8e5 cps/mW x 50 mW measured in a 0.1 nm band at band center.
    cfg = FROZEN_CALIBRATION.source()
    frac = band_fraction(cfg, 0.0, 0.1)
    assert cfg.pair_rate * frac == pytest.approx(3.9e7, rel=1e-12)


# --- erf against scipy.special.erf, bit for bit ------------------------------

def assert_same_double(x):
    got, want = _erf(x), float(special.erf(x))
    if math.isnan(want):
        assert math.isnan(got)
    else:
        assert got == want
        assert math.copysign(1.0, got) == math.copysign(1.0, want)


@settings(max_examples=3000)
@given(st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True)
       | st.floats(-30.0, 30.0))
def test_erf_matches_scipy_on_finite_floats(x):
    assert_same_double(x)


def _around(x):
    return [math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf)]


MAXLOG_EDGE = math.sqrt(7.09782712893383996843e2)  # ~26.64: erfc underflows past it
ERF_EDGE_CASES = (
    [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324,
     1e-9 / (4.0 * 250e-12)]  # the last is window_efficiency(250e-12, 1e-9)'s argument
    + [s * v for s in (1.0, -1.0) for e in (1.0, 8.0, MAXLOG_EDGE) for v in _around(e)]
)


@pytest.mark.parametrize("x", ERF_EDGE_CASES)
def test_erf_matches_scipy_at_edges(x):
    assert_same_double(x)

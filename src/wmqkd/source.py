"""Entangled pair source: spectrum model and stochastic pair emission.

Models a continuous-wave-pumped down-conversion source that emits
wavelength-anticorrelated, polarization-entangled photon pairs.  The
spectrum is a normalized Gaussian; emission times form a homogeneous
Poisson process.  All wavelengths are in nanometres, times in seconds,
rates in events per second.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

# Speed of light in nm*Hz (wavelength in nm <-> frequency in Hz).
C_NM_HZ = 2.99792458e17

# FWHM of a unit-variance Gaussian.
_FWHM_PER_SIGMA = 2.0 * np.sqrt(2.0 * np.log(2.0))


def _gaussian_sigma(fwhm: float) -> float:
    return fwhm / _FWHM_PER_SIGMA


# Scalar erf ported from cephes ndtr.c, coefficients and evaluation
# order included, so it returns the same doubles as scipy.special.erf
# without importing scipy.  U, Q and S carry the leading 1 that cephes
# leaves implied (its p1evl); 1.0 * x + c is x + c exactly.
_ERF_T = (9.60497373987051638749E0, 9.00260197203842689217E1,
          2.23200534594684319226E3, 7.00332514112805075473E3,
          5.55923013010394962768E4)
_ERF_U = (1.0, 3.35617141647503099647E1, 5.21357949780152679795E2,
          4.59432382970980127987E3, 2.26290000613890934246E4,
          4.92673942608635921086E4)
_ERFC_P = (2.46196981473530512524E-10, 5.64189564831068821977E-1,
           7.46321056442269912687E0, 4.86371970985681366614E1,
           1.96520832956077098242E2, 5.26445194995477358631E2,
           9.34528527171957607540E2, 1.02755188689515710272E3,
           5.57535335369399327526E2)
_ERFC_Q = (1.0, 1.32281951154744992508E1, 8.67072140885989742329E1,
           3.54937778887819891062E2, 9.75708501743205489753E2,
           1.82390916687909736289E3, 2.24633760818710981792E3,
           1.65666309194161350182E3, 5.57535340817727675546E2)
_ERFC_R = (5.64189583547755073984E-1, 1.27536670759978104416E0,
           5.01905042251180477414E0, 6.16021097993053585195E0,
           7.40974269950448939160E0, 2.97886665372100240670E0)
_ERFC_S = (1.0, 2.26052863220117276590E0, 9.39603524938001434673E0,
           1.20489539808096656605E1, 1.70814450747565897222E1,
           9.60896809063285878198E0, 3.36907645100081516050E0)
_MAXLOG = 7.09782712893383996843E2


def _polevl(x: float, coef: tuple) -> float:
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _erf(x: float) -> float:
    """Error function of one float, equal bit for bit to cephes ``erf``."""
    x = float(x)
    if math.isnan(x):
        return math.nan
    if x < 0.0:
        return -_erf(-x)
    if x > 1.0:
        # 1 - erfc(x); erfc underflows to 0 once x*x exceeds MAXLOG.
        z = -x * x
        if z < -_MAXLOG:
            return 1.0
        if x < 8.0:
            p, q = _polevl(x, _ERFC_P), _polevl(x, _ERFC_Q)
        else:
            p, q = _polevl(x, _ERFC_R), _polevl(x, _ERFC_S)
        return 1.0 - (math.exp(z) * p) / q
    z = x * x
    return x * _polevl(z, _ERF_T) / _polevl(z, _ERF_U)


@dataclass(frozen=True)
class SourceConfig:
    """Static description of the pair source.

    Parameters
    ----------
    center_wavelength_signal, center_wavelength_idler : float
        Central wavelengths of the signal and idler spectra (nm).  They
        must straddle ``spdc_center`` symmetrically to within 0.5 nm.
    spdc_center : float
        Central wavelength of the down-conversion spectrum (nm).
    spectral_fwhm : float
        Full width at half maximum of the (Gaussian) spectrum (nm).
    pair_rate : float
        Full-spectrum pair generation rate at the source, before any
        loss (pairs/s).
    systematic_visibility_hv, systematic_visibility_da : float
        Residual polarization-correlation visibility in the two
        measurement bases, folding all optical imperfections into a
        single number per basis.
    """

    center_wavelength_signal: float = 799.0
    center_wavelength_idler: float = 821.0
    spdc_center: float = 810.0
    spectral_fwhm: float = 4.73
    pair_rate: float = 1.9638e9
    systematic_visibility_hv: float = 0.975
    systematic_visibility_da: float = 0.975

    def __post_init__(self):
        for name, value in vars(self).items():
            if not math.isfinite(value):
                raise ValueError(f"{name} must be a finite number, got {value}")
        if self.spectral_fwhm <= 0:
            raise ValueError(f"spectral_fwhm must be > 0, got {self.spectral_fwhm}")
        if self.pair_rate <= 0:
            raise ValueError(f"pair_rate must be > 0, got {self.pair_rate}")
        for name in ("systematic_visibility_hv", "systematic_visibility_da"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {v}")
        straddle = abs(
            (self.center_wavelength_signal - self.spdc_center)
            + (self.center_wavelength_idler - self.spdc_center)
        )
        if straddle > 0.5:
            raise ValueError(
                "signal and idler centers must straddle spdc_center "
                f"symmetrically within 0.5 nm (offset sum {straddle:.3f} nm)"
            )

    @property
    def sigma(self) -> float:
        """Gaussian standard deviation of the spectrum (nm)."""
        return _gaussian_sigma(self.spectral_fwhm)

    def with_pair_rate(self, pair_rate: float) -> "SourceConfig":
        return replace(self, pair_rate=pair_rate)


class PairStream:
    """Time-ordered photon pairs, stored as arrays.

    ``times`` holds each pair's emission time (s) and ``detunings`` the
    offset (nm) of its signal photon from the signal center wavelength;
    the idler is exactly anticorrelated: ``signal = signal_center +
    detuning``, ``idler = idler_center - detuning``.
    """

    def __init__(self, config: SourceConfig, duration: float,
                 times: np.ndarray, detunings: np.ndarray):
        times = np.asarray(times, dtype=np.float64)
        detunings = np.asarray(detunings, dtype=np.float64)
        if times.shape != detunings.shape:
            raise ValueError("times and detunings must have the same length")
        if times.size > 1 and np.any(np.diff(times) < 0):
            raise ValueError("emission times must be non-decreasing")
        self.config = config
        self.duration = float(duration)
        self.times = times
        self.detunings = detunings

    def __len__(self) -> int:
        return self.times.size

    @property
    def signal_wavelengths(self) -> np.ndarray:
        return self.config.center_wavelength_signal + self.detunings

    @property
    def idler_wavelengths(self) -> np.ndarray:
        return self.config.center_wavelength_idler - self.detunings


def spectral_density(config: SourceConfig, detuning) -> np.ndarray | float:
    """Normalized spectrum (peak value 1) at the given detuning (nm).

    The shape is a Gaussian with the configured FWHM; total function,
    accepts scalars or arrays.
    """
    d = np.asarray(detuning, dtype=np.float64)
    out = np.exp(-0.5 * (d / config.sigma) ** 2)
    return out if out.ndim else float(out)


def band_fraction(config: SourceConfig, band_center: float, band_fwhm: float) -> float:
    """Fraction of the total pair rate emitted inside one spectral band.

    The band is the interval ``band_center +/- band_fwhm/2`` in detuning
    space (nm).  Fractions of disjoint bands add; a band much wider than
    the spectrum captures ~1.
    """
    if band_fwhm <= 0:
        raise ValueError(f"band_fwhm must be > 0, got {band_fwhm}")
    s = config.sigma * np.sqrt(2.0)
    lo = band_center - band_fwhm / 2.0
    hi = band_center + band_fwhm / 2.0
    return float(0.5 * (_erf(hi / s) - _erf(lo / s)))


def sample_pair_stream(
    config: SourceConfig,
    duration: float,
    seed,
    band: tuple[float, float] | None = None,
) -> PairStream:
    """Sample a Poisson stream of pair events over ``[0, duration)``.

    Emission times form a homogeneous Poisson process at the full
    ``config.pair_rate`` (or at the in-band rate when ``band`` limits
    detunings to ``(lo, hi)`` nm).  Detunings are independent draws from
    the spectral density, truncated to the band when one is given.
    Identical ``(config, duration, seed, band)`` yield identical output.
    """
    if not (duration > 0 and math.isfinite(duration)):
        raise ValueError(f"duration must be finite and > 0, got {duration}")
    rng = _rng(seed)
    if band is None:
        rate = config.pair_rate
    else:
        lo, hi = band
        if hi <= lo:
            raise ValueError("band must be an increasing (lo, hi) pair")
        rate = config.pair_rate * band_fraction(
            config, 0.5 * (lo + hi), hi - lo
        )
    n = rng.poisson(rate * duration)
    times = np.sort(rng.uniform(0.0, duration, n))
    if band is None:
        detunings = rng.normal(0.0, config.sigma, n)
    else:
        lo, hi = band
        s = config.sigma * np.sqrt(2.0)
        u_lo = 0.5 * (1.0 + _erf(lo / s))
        u_hi = 0.5 * (1.0 + _erf(hi / s))
        u = rng.uniform(u_lo, u_hi, n)
        from scipy.special import ndtri  # imported here to keep scipy off the import path
        detunings = config.sigma * ndtri(u)
    return PairStream(config, duration, times, detunings)


def _rng(seed) -> np.random.Generator:
    """Build a Generator from an int seed, SeedSequence, or Generator."""
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, np.random.SeedSequence):
        return np.random.Generator(np.random.PCG64(seed))
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))


def child_seed(seed: int, *key: int) -> np.random.SeedSequence:
    """Deterministic named sub-seed for independent stream components.

    Streams derived from distinct keys are statistically independent, so
    channels, sides and blocks can be generated in any order (or in
    parallel) with identical results.
    """
    return np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(k) for k in key))

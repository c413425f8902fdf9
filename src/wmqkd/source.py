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
from scipy.special import erf, ndtri

# Speed of light in nm*Hz (wavelength in nm <-> frequency in Hz).
C_NM_HZ = 2.99792458e17

# FWHM of a unit-variance Gaussian.
_FWHM_PER_SIGMA = 2.0 * np.sqrt(2.0 * np.log(2.0))


def _gaussian_sigma(fwhm: float) -> float:
    return fwhm / _FWHM_PER_SIGMA


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

    @classmethod
    def from_filtered_brightness(
        cls,
        brightness_cps_per_mw: float = 7.8e5,
        pump_power_mw: float = 50.0,
        filter_fwhm_nm: float = 0.1,
        **kwargs,
    ) -> "SourceConfig":
        """Build a config whose full-spectrum rate is derived from the
        pair rate measured in one narrow filtered band at band center.

        The measured in-band rate is scaled back to the full spectrum by
        dividing by the band's spectral fraction.
        """
        cfg = cls(pair_rate=1.0, **kwargs)
        in_band = brightness_cps_per_mw * pump_power_mw
        frac = band_fraction(cfg, 0.0, filter_fwhm_nm)
        return replace(cfg, pair_rate=in_band / frac)


@dataclass(frozen=True)
class PairEvent:
    """One emitted photon pair.

    ``detuning`` is the offset of the signal photon from the signal
    center wavelength; the idler is exactly anticorrelated:
    ``signal = signal_center + detuning``, ``idler = idler_center - detuning``.
    """

    emission_time: float
    detuning: float
    correlation_id: int


class PairStream:
    """A time-ordered sequence of :class:`PairEvent`, stored as arrays.

    Behaves as a sequence of PairEvent while exposing ``times`` and
    ``detunings`` arrays for vectorized processing.
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

    def __getitem__(self, i: int) -> PairEvent:
        return PairEvent(float(self.times[i]), float(self.detunings[i]), int(i))

    def __iter__(self):
        for i in range(len(self)):
            yield self[i]

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


def spectral_integral(config: SourceConfig) -> float:
    """Integral of the normalized spectrum over all detunings (nm)."""
    return config.sigma * np.sqrt(2.0 * np.pi)


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
    return float(0.5 * (erf(hi / s) - erf(lo / s)))


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
    if duration <= 0:
        raise ValueError(f"duration must be > 0, got {duration}")
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
        u_lo = 0.5 * (1.0 + erf(lo / s))
        u_hi = 0.5 * (1.0 + erf(hi / s))
        u = rng.uniform(u_lo, u_hi, n)
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

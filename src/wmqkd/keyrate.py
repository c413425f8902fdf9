"""Key-rate analysis: visibility, QBER, binary entropy, secure-key
formula, the analytic link model, pair-rate optimization, and n-channel
scaling projections.

The secure-key estimate per basis block is
``CC * 1/2 * (1 - (1 + f) * H2(Q))`` with negative per-basis terms
clamped to zero; ``f`` is the bidirectional error-correction efficiency
(default 1.1).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, replace

import numpy as np

from .coincidence import CountsMatrix
from .detection import side_transmittance

DEFAULT_F_EC = 1.1


def binary_entropy(x) -> np.ndarray | float:
    """Binary Shannon entropy ``-x log2 x - (1-x) log2 (1-x)`` in bits.

    Defined by continuity at the endpoints: H2(0) = H2(1) = 0.  NaN (an
    undefined QBER) gives NaN.  Raises for arguments outside [0, 1].
    """
    arr = np.asarray(x, dtype=np.float64)
    if np.any(arr < 0.0) or np.any(arr > 1.0):
        raise ValueError(f"binary_entropy argument must be in [0, 1], got {x}")
    inner = (arr > 0.0) & (arr < 1.0)
    out = np.where(np.isnan(arr), np.nan, 0.0)
    a = arr[inner]
    out[inner] = -a * np.log2(a) - (1.0 - a) * np.log2(1.0 - a)
    return out if out.ndim else float(out)


def visibility(counts: CountsMatrix) -> float:
    """Polarization-correlation visibility of one count table.

    For the anti-symmetric entangled state the anti-correlated
    combinations are the maximum counts:
    ``V = (CC_01 + CC_10 - CC_00 - CC_11) / total``.
    Returns NaN (flagged undefined, distinct from 0) for empty tables.
    """
    total = counts.total
    if total == 0:
        return float("nan")
    cc = counts.cc
    return float((cc[0, 1] + cc[1, 0] - cc[0, 0] - cc[1, 1]) / total)


def qber(counts: CountsMatrix) -> float:
    """Quantum bit error rate ``Q = erroneous/total = (1 - V)/2``."""
    total = counts.total
    if total == 0:
        return float("nan")
    return counts.erroneous / total


def secure_key(counts_hv: CountsMatrix, counts_da: CountsMatrix,
               f_ec: float = DEFAULT_F_EC) -> float:
    """Secure key (bits) extractable from one pair of basis blocks.

    Each basis contributes ``CC * 1/2 * (1 - (1+f) H2(Q))``; negative
    contributions mean "no key" for that basis and are clamped to zero.
    """
    if f_ec < 1.0:
        raise ValueError(f"f_ec must be >= 1, got {f_ec}")
    blocks = (counts_hv, counts_da)
    bits = secure_key_from_rates([c.total for c in blocks], [qber(c) for c in blocks],
                                 f_ec)
    return sum(bits.tolist())


def secure_key_from_rates(cc_rate, q, f_ec: float = DEFAULT_F_EC):
    """Secure key of a coincidence rate (or count) split evenly over the
    two bases, both at QBER ``q``: ``CC * 1/2 * (1 - (1+f) H2(Q))``.

    Scalars give a float; arrays broadcast and give an array.  A rate
    that is not positive, or a negative (or NaN) key, gives 0.
    """
    rate = np.asarray(cc_rate, dtype=np.float64)
    key = rate * 0.5 * (1.0 - (1.0 + f_ec) * binary_entropy(q))
    out = np.where((rate > 0.0) & (key > 0.0), key, 0.0)
    return out if out.ndim else float(out)


def qber_threshold(f_ec: float = DEFAULT_F_EC, tol: float = 1e-6) -> float:
    """QBER at which the secure key vanishes: root of 1 = (1+f) H2(Q).

    Solved by bisection on (0, 0.5) to ``tol`` absolute.  The threshold
    decreases as error correction becomes less efficient (larger f).
    """
    if f_ec < 1.0:
        raise ValueError(f"f_ec must be >= 1, got {f_ec}")
    lo, hi = 1e-15, 0.5

    def g(q):
        return 1.0 - (1.0 + f_ec) * binary_entropy(q)

    # g(lo) > 0 > g(hi) since H2 is increasing on (0, 1/2).
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if g(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class AnalyticLinkModel:
    """Closed-form per-channel link model.

    Parameters
    ----------
    pair_rate_in_band : float
        Pairs/s generated into one wavelength channel.
    transmittance_alice, transmittance_bob : float
        End-to-end photon survival per side (link x filter x detector).
    dark_rate_alice, dark_rate_bob : float
        Total dark counts/s per side (all detectors of the receiver).
    t_c : float
        Coincidence window width (s).
    q_sys : float
        Systematic error fraction of true coincidences, (1 - v_sys)/2.
    n_channels : int
        Identical channels operated in parallel.
    f_ec : float
        Error-correction efficiency for the key formula.
    window_efficiency : float
        Fraction of true coincidences falling inside the window (1 for
        negligible jitter; lower it to model jitter-broadened pairs).
    """

    pair_rate_in_band: float
    transmittance_alice: float
    transmittance_bob: float
    dark_rate_alice: float = 0.0
    dark_rate_bob: float = 0.0
    t_c: float = 1e-9
    q_sys: float = 0.0
    n_channels: int = 1
    f_ec: float = DEFAULT_F_EC
    window_efficiency: float = 1.0

    def __post_init__(self):
        for name in ("transmittance_alice", "transmittance_bob"):
            v = getattr(self, name)
            if not 0.0 < v <= 1.0:
                raise ValueError(f"{name} must be in (0, 1], got {v}")
        if not 0.0 <= self.q_sys <= 0.5:
            raise ValueError(f"q_sys must be in [0, 0.5], got {self.q_sys}")
        if self.n_channels < 1:
            raise ValueError(f"n_channels must be >= 1, got {self.n_channels}")
        if self.pair_rate_in_band < 0:
            raise ValueError("pair_rate_in_band must be >= 0")
        if not 0.0 < self.window_efficiency <= 1.0:
            raise ValueError("window_efficiency must be in (0, 1]")


@dataclass(frozen=True)
class AnalyticRates:
    """Per-channel rates predicted by the analytic model (all per second)
    plus the aggregate key rate over all channels."""

    cc_true: float
    cc_accidental: float
    singles_alice: float
    singles_bob: float
    qber: float
    key_rate_per_channel: float
    key_rate_total: float


def coincidence_mix(s_a, s_b, cc_true, q_weighted, t_c, f_ec):
    """Accidentals, QBER and key of a pipeline with singles ``s_a`` and
    ``s_b``, true coincidences ``cc_true`` (of which ``q_weighted`` are
    errors) and a window of width ``t_c``.

    Accidentals are ``S_A S_B t_c``, each wrong half the time; the QBER
    of no coincidences is NaN.  Returns ``(cc_acc, qber, key)`` as
    arrays.
    """
    cc_acc = s_a * s_b * t_c
    total = cc_true + cc_acc
    with np.errstate(divide="ignore", invalid="ignore"):
        q = np.where(total > 0, (q_weighted + 0.5 * cc_acc) / total, np.nan)
    return cc_acc, q, secure_key_from_rates(total, q, f_ec)


def analytic_rate_arrays(pair_rate_in_band, transmittance_alice,
                         transmittance_bob, dark_rate_alice, dark_rate_bob,
                         t_c, q_sys, n_channels, f_ec,
                         window_efficiency) -> AnalyticRates:
    """Array form of :func:`analytic_rates`.

    Takes the fields of :class:`AnalyticLinkModel` as numbers or arrays
    (unvalidated) that broadcast against each other, for example from
    :func:`model_fields`; every field of the result is an array of the
    broadcast shape.  The arithmetic is that of the link model operation
    for operation, so each element equals a scalar evaluation exactly.
    """
    b = np.asarray(pair_rate_in_band, dtype=np.float64)
    s_a = b * transmittance_alice + dark_rate_alice
    s_b = b * transmittance_bob + dark_rate_bob
    cc_true = b * transmittance_alice * transmittance_bob * window_efficiency
    cc_acc, q, per_channel = coincidence_mix(s_a, s_b, cc_true, q_sys * cc_true,
                                             t_c, f_ec)
    return AnalyticRates(
        cc_true=cc_true,
        cc_accidental=cc_acc,
        singles_alice=s_a,
        singles_bob=s_b,
        qber=q,
        key_rate_per_channel=per_channel,
        key_rate_total=n_channels * per_channel,
    )


def model_fields(models) -> dict[str, np.ndarray]:
    """Each field of the models as one float64 array over the models,
    keyed as :func:`analytic_rate_arrays` takes them."""
    return {f.name: np.array([getattr(m, f.name) for m in models], dtype=np.float64)
            for f in dataclasses.fields(AnalyticLinkModel)}


def analytic_rates(model: AnalyticLinkModel) -> AnalyticRates:
    """Evaluate the analytic link model for one channel and scale by n.

    Singles per side are ``B eta + d``; true coincidences
    ``B eta_A eta_B`` (times the window efficiency); accidentals
    ``S_A S_B t_c``.  The QBER mixes the systematic error on true pairs
    with the 50% error rate of accidentals; the key applies the secure
    key formula with counts split evenly across the two bases.
    """
    rates = analytic_rate_arrays(**vars(model))
    return AnalyticRates(**{k: float(v) for k, v in vars(rates).items()})


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class PairRateOptimum:
    """Result of a brightness optimization."""

    pair_rate: float
    key_rate_total: float
    interior: bool
    warning: str | None = None


_NO_INTERIOR = "no interior optimum on the bracket; returning best sample"

# The brightness search: log-spaced scan points over the bracket, and the
# golden-section refinement's final bracket width in log10 units.
_N_GRID = 121
_LOG_TOL = 1e-3


def _pow10(log_b: np.ndarray) -> np.ndarray:
    # Python's ``10.0 ** x`` per element: np.power differs from it in
    # the last bit at some grid points.
    return np.array([10.0 ** x for x in log_b.ravel().tolist()]).reshape(log_b.shape)


def optimize_pair_rates(
    models,
    bracket: tuple[float, float] = (1e2, 1e12),
) -> list[PairRateOptimum]:
    """Maximize each model's aggregate key rate over its in-band pair rate.

    Scans a log-spaced grid over ``bracket`` to locate each model's best
    sample, then refines with golden-section search in log space.  When
    the best grid sample sits on the bracket edge (no interior optimum,
    e.g. no accidental penalty), the edge sample is returned with a
    warning.  All models are solved together: the scan is one
    (grid, model) array and each golden-section step is one array step,
    masked per model.  The arithmetic is elementwise, so each result is
    exactly what the same search on that model alone gives.
    """
    lo, hi = bracket
    if not 0 < lo < hi:
        raise ValueError("bracket must satisfy 0 < lo < hi")
    cols = model_fields(models)
    del cols["pair_rate_in_band"]

    def rate_at(log_b: np.ndarray) -> np.ndarray:
        return analytic_rate_arrays(_pow10(log_b), **cols).key_rate_total

    grid = np.linspace(math.log10(lo), math.log10(hi), _N_GRID)
    # One row per grid point, one column per model.
    vals = analytic_rate_arrays(_pow10(grid)[:, None], **cols).key_rate_total
    k = np.argmax(vals, axis=0)
    interior = (k > 0) & (k < _N_GRID - 1)
    # Edge models get clipped, unused brackets and stay inactive.
    a = grid.take(k - 1, mode="clip")
    b = grid.take(k + 1, mode="clip")
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = rate_at(c), rate_at(d)
    active = interior & (b - a > _LOG_TOL)
    while active.any():
        left = fc >= fd
        # Left: b, d, fd = d, c, fc and a new c.  Right: a, c, fc = c, d,
        # fd and a new d.  Inactive models keep every value.
        a_new = np.where(left, a, c)
        b_new = np.where(left, d, b)
        x = np.where(left, b_new - _GOLDEN * (b_new - a_new),
                     a_new + _GOLDEN * (b_new - a_new))
        fx = rate_at(x)
        c_new = np.where(left, x, d)
        d_new = np.where(left, c, x)
        fc_new = np.where(left, fx, fd)
        fd_new = np.where(left, fc, fx)
        a = np.where(active, a_new, a)
        b = np.where(active, b_new, b)
        c = np.where(active, c_new, c)
        d = np.where(active, d_new, d)
        fc = np.where(active, fc_new, fc)
        fd = np.where(active, fd_new, fd)
        active &= b - a > _LOG_TOL
    log_opt = 0.5 * (a + b)
    best = _pow10(log_opt)
    f_best = rate_at(log_opt)
    edge = _pow10(grid[k])
    f_edge = vals[k, np.arange(len(models))]
    return [
        PairRateOptimum(pair_rate=float(best[i]), key_rate_total=float(f_best[i]),
                        interior=True)
        if interior[i] else
        PairRateOptimum(pair_rate=float(edge[i]), key_rate_total=float(f_edge[i]),
                        interior=False, warning=_NO_INTERIOR)
        for i in range(len(models))
    ]


def optimize_pair_rate(
    model: AnalyticLinkModel,
    bracket: tuple[float, float] = (1e2, 1e12),
) -> PairRateOptimum:
    """Maximize the aggregate key rate of one model over the in-band pair
    rate; see :func:`optimize_pair_rates`."""
    return optimize_pair_rates([model], bracket)[0]


def scaling_curve(model: AnalyticLinkModel, n_values, loss_grid_db,
                  base_transmittance_alice: float = 1.0,
                  base_transmittance_bob: float = 1.0,
                  optimize_b: bool = False) -> list[dict]:
    """Aggregate key rate versus channel count and total link loss.

    For each loss the per-side transmittance is the base value times
    :func:`side_transmittance`; the aggregate rate is exactly linear in
    the channel count under the identical-channel assumption.  With
    ``optimize_b`` the per-channel pair rate is re-optimized per loss.
    """
    losses = list(loss_grid_db)
    models = [replace(model, transmittance_alice=base_transmittance_alice * eta,
                      transmittance_bob=base_transmittance_bob * eta, n_channels=1)
              for eta in map(side_transmittance, losses)]
    if optimize_b:
        models = [replace(m, pair_rate_in_band=opt.pair_rate)
                  for m, opt in zip(models, optimize_pair_rates(models))]
    return scaling_rows(n_values, losses, analytic_rate_arrays(**model_fields(models)))


def scaling_rows(n_values, losses, rates: AnalyticRates) -> list[dict]:
    """Rows ``(n, loss_db, qber, key_rate_bps)``: for each loss, in order,
    one row per channel count ``n`` at ``n`` times the per-channel key of
    ``rates`` (array fields, one element per loss)."""
    return [{"n": int(n), "loss_db": float(loss), "qber": q, "key_rate_bps": n * key}
            for loss, q, key in zip(losses, rates.qber.tolist(),
                                    rates.key_rate_per_channel.tolist())
            for n in n_values]


@dataclass
class ChannelResult:
    """Measured quantities for one channel pair (or a merged pipeline)."""

    channel_pair: int
    visibility_hv: float
    visibility_da: float
    qber_hv: float
    qber_da: float
    secure_key_bits: float
    secure_key_rate: float
    cc_hv: int
    cc_da: int
    singles_alice: float
    singles_bob: float
    accidental_estimate: float
    duration: float


def channel_result(counts_hv: CountsMatrix, counts_da: CountsMatrix,
                   singles_alice: float, singles_bob: float,
                   accidental: float, f_ec: float = DEFAULT_F_EC) -> ChannelResult:
    """Assemble the per-channel report entry from two basis blocks."""
    duration = counts_hv.duration + counts_da.duration
    bits = secure_key(counts_hv, counts_da, f_ec)
    return ChannelResult(
        channel_pair=counts_hv.channel_pair,
        visibility_hv=visibility(counts_hv),
        visibility_da=visibility(counts_da),
        qber_hv=qber(counts_hv),
        qber_da=qber(counts_da),
        secure_key_bits=bits,
        secure_key_rate=bits / duration if duration > 0 else 0.0,
        cc_hv=counts_hv.total,
        cc_da=counts_da.total,
        singles_alice=singles_alice,
        singles_bob=singles_bob,
        accidental_estimate=accidental,
        duration=duration,
    )

"""Key-rate analysis: visibility, QBER, binary entropy, secure-key
formula, the analytic link model, pair-rate optimization, and n-channel
scaling projections.

:func:`link_rates` holds the link arithmetic once: detector efficiency,
per-port dead time and the window's efficiency on the basic
singles/true/accidental decomposition.  The fig3d projections evaluate
it with ideal detectors through :func:`analytic_rates`, on one
:class:`AnalyticLinkModel` value whose fields are numbers (one model)
or arrays that broadcast (many models at once, each element evaluated
exactly as alone); ``calibration.predict_rows`` evaluates it with the
configured detector and adds the merged baseline's cross-channel
blocking.

The secure-key estimate per basis block is
``CC * 1/2 * (1 - (1 + f) * H2(Q))`` with negative per-basis terms
clamped to zero; ``f`` is the bidirectional error-correction efficiency
(default 1.1).
"""

from __future__ import annotations

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

    Each field is a number or an array; arrays broadcast against each
    other, and a model of arrays is one model per element.

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
        # Every element keeps its field's rule; NaN keeps none of them.
        for name, ok, rule in _FIELD_RULES:
            v = np.asarray(getattr(self, name))
            bad = ~ok(v)
            if bad.any():
                raise ValueError(f"{name} must be {rule}, got {v[bad][0].item()}")


def _in_unit_interval(v):
    return (0.0 < v) & (v <= 1.0)


# The rule of each checked field of AnalyticLinkModel: a test of an
# array, true where an element keeps the rule, and its wording.
_FIELD_RULES = (
    ("transmittance_alice", _in_unit_interval, "in (0, 1]"),
    ("transmittance_bob", _in_unit_interval, "in (0, 1]"),
    ("q_sys", lambda v: (0.0 <= v) & (v <= 0.5), "in [0, 0.5]"),
    ("n_channels", lambda v: v >= 1, ">= 1"),
    ("pair_rate_in_band", lambda v: v >= 0, ">= 0"),
    ("window_efficiency", _in_unit_interval, "in (0, 1]"),
)


@dataclass(frozen=True)
class AnalyticRates:
    """Per-channel rates predicted by the analytic model (all per second)
    plus the aggregate key rate over all channels: floats for one model,
    arrays for a model of arrays."""

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


def link_rates(pair_rate_in_band, transmittance_alice, transmittance_bob,
               dark_rate_alice, dark_rate_bob, efficiency, dead_time, t_c,
               window_efficiency, q_sys, f_ec, n_channels=1):
    """Rates of one channel's link, element by element over arrays.

    Each side spreads its detected photons ``B eta eff`` and its dark
    counts ``d`` evenly over two detector ports, so a port sees
    ``p = B eta eff/2 + d/2``.  Non-paralyzable dead time ``tau`` keeps
    the fraction ``rho`` of a port's events: its throughput
    ``p/(1 + p tau)`` over ``p``, and 1 for an idle port.  Singles
    per side are ``2 p rho``; true coincidences are
    ``B eta_A eta_B eff^2 rho_A rho_B`` before the window and that times
    ``window_efficiency`` inside it; :func:`coincidence_mix` adds the
    accidentals of a window of width ``t_c``, the QBER and the key.

    The arguments are numbers or arrays (unvalidated) that broadcast
    against each other.  Returns the :class:`AnalyticRates` of the
    broadcast shape and the true coincidences before the window.
    """
    b = np.asarray(pair_rate_in_band, dtype=np.float64)
    ports = [b * eta * efficiency / 2.0 + dark / 2.0
             for eta, dark in ((transmittance_alice, dark_rate_alice),
                               (transmittance_bob, dark_rate_bob))]
    rho = [np.divide(p / (1.0 + p * dead_time), p, out=np.ones_like(p), where=p > 0)
           for p in ports]
    s_a, s_b = (2.0 * p * r for p, r in zip(ports, rho))
    pre_window = (b * transmittance_alice * transmittance_bob * efficiency**2
                  * rho[0] * rho[1])
    cc_true = pre_window * window_efficiency
    cc_acc, q, key = coincidence_mix(s_a, s_b, cc_true, q_sys * cc_true, t_c, f_ec)
    return AnalyticRates(cc_true, cc_acc, s_a, s_b, q, key, n_channels * key), pre_window


def analytic_rates(model: AnalyticLinkModel) -> AnalyticRates:
    """Evaluate the analytic link model for one channel and scale by n.

    This is :func:`link_rates` with ideal detectors (efficiency 1, no
    dead time): singles per side are ``B eta + d``; true coincidences
    ``B eta_A eta_B`` (times the window efficiency); accidentals
    ``S_A S_B t_c``.  The QBER mixes the systematic error on true pairs
    with the 50% error rate of accidentals; the key applies the secure
    key formula with counts split evenly across the two bases.  A model
    of numbers gives floats; a model of arrays gives arrays of the
    broadcast shape, each element exactly the rates of that element's
    model.
    """
    rates = link_rates(**vars(model), efficiency=1.0, dead_time=0.0)[0]
    return AnalyticRates(**{k: v if np.ndim(v) else float(v)
                            for k, v in vars(rates).items()})


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class PairRateOptimum:
    """Result of a brightness optimization."""

    pair_rate: float
    key_rate_total: float
    interior: bool
    warning: str | None = None


_NO_INTERIOR = "no interior optimum on the bracket; returning best sample"

# The brightness search: the in-band pair rates searched (pairs/s),
# log-spaced scan points over them, and the golden-section refinement's
# final bracket width in log10 units.
_BRACKET = (1e2, 1e12)
_N_GRID = 121
_LOG_TOL = 1e-3


def _pow10(log_b: np.ndarray) -> np.ndarray:
    # Python's ``10.0 ** x`` per element: np.power differs from it in
    # the last bit at some grid points.
    return np.array([10.0 ** x for x in log_b.ravel().tolist()]).reshape(log_b.shape)


def optimize_pair_rates(model: AnalyticLinkModel) -> list[PairRateOptimum]:
    """Maximize each model's aggregate key rate over its in-band pair rate.

    ``model`` holds one model per element of its fields, which broadcast
    to one axis (a model of numbers is one model); its
    ``pair_rate_in_band`` is ignored.

    Scans a log-spaced grid over ``_BRACKET`` to locate each model's best
    sample, then refines with golden-section search in log space.  When
    the best grid sample sits on the bracket edge (no interior optimum,
    e.g. no accidental penalty), the edge sample is returned with a
    warning.  All models are solved together: the scan is one
    (grid, model) array and each golden-section step is one array step.
    Every interior bracket takes the same number of steps, and the
    arithmetic is elementwise, so each result is exactly what the same
    search on that model alone gives.
    """
    def rate_at(log_b: np.ndarray) -> np.ndarray:
        return analytic_rates(replace(model, pair_rate_in_band=_pow10(log_b))
                              ).key_rate_total

    grid = np.linspace(math.log10(_BRACKET[0]), math.log10(_BRACKET[1]), _N_GRID)
    # One row per grid point, one column per model.
    vals = rate_at(grid[:, None])
    k = np.argmax(vals, axis=0)
    interior = (k > 0) & (k < _N_GRID - 1)
    # Edge models get clipped brackets, stepped along and thrown away.
    a = grid.take(k - 1, mode="clip")
    b = grid.take(k + 1, mode="clip")
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = rate_at(c), rate_at(d)
    # Every interior bracket starts two grid steps wide and shrinks by the
    # same factor, so all of them end on the same step.
    while (interior & (b - a > _LOG_TOL)).any():
        left = fc >= fd
        # Left: b, d, fd = d, c, fc and a new c.  Right: a, c, fc = c, d,
        # fd and a new d.
        a, b = np.where(left, a, c), np.where(left, d, b)
        x = np.where(left, b - _GOLDEN * (b - a), a + _GOLDEN * (b - a))
        fx = rate_at(x)
        c, d = np.where(left, x, d), np.where(left, c, x)
        fc, fd = np.where(left, fx, fd), np.where(left, fc, fx)
    log_opt = 0.5 * (a + b)
    best = _pow10(log_opt)
    f_best = rate_at(log_opt)
    edge = _pow10(grid[k])
    f_edge = vals[k, np.arange(k.size)]
    return [
        PairRateOptimum(pair_rate=float(best[i]), key_rate_total=float(f_best[i]),
                        interior=True)
        if interior[i] else
        PairRateOptimum(pair_rate=float(edge[i]), key_rate_total=float(f_edge[i]),
                        interior=False, warning=_NO_INTERIOR)
        for i in range(k.size)
    ]


def optimize_pair_rate(model: AnalyticLinkModel) -> PairRateOptimum:
    """Maximize the aggregate key rate of one model over the in-band pair
    rate; see :func:`optimize_pair_rates`."""
    return optimize_pair_rates(model)[0]


def scaling_curve(model: AnalyticLinkModel, n_values, loss_grid_db) -> list[dict]:
    """Aggregate key rate versus channel count and total link loss, at
    the model's fixed per-channel pair rate.

    For each loss the per-side transmittance is :func:`side_transmittance`;
    the aggregate rate is exactly linear in the channel count under the
    identical-channel assumption.
    """
    losses = list(loss_grid_db)
    eta = np.array([side_transmittance(x) for x in losses], dtype=np.float64)
    models = replace(model, transmittance_alice=eta, transmittance_bob=eta, n_channels=1)
    return scaling_rows(n_values, losses, analytic_rates(models))


def scaling_rows(n_values, losses, rates: AnalyticRates) -> list[dict]:
    """Rows ``(n, loss_db, qber, key_rate_bps)``: for each loss, in order,
    one row per channel count ``n`` at ``n`` times the per-channel key of
    ``rates`` (array fields, one element per loss)."""
    return [{"n": int(n), "loss_db": float(loss), "qber": q, "key_rate_bps": n * key}
            for loss, q, key in zip(losses, rates.qber.tolist(),
                                    rates.key_rate_per_channel.tolist())
            for n in n_values]


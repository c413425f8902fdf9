"""Property tests of the array kernels against scalar or brute-force
oracles: the coincidence matcher on streams and on packed keys, with its
2x2 table and the delayed-window accidental estimate, the k-way key merge
of the non-multiplexed baseline, the sorted uniform times of the Monte
Carlo draws, the dead-time filter, the close-link scan and the tie
union of the detector emit, the canonical tag order of the detector
output, the batched pair-rate optimizer behind the fig3d
projection, and the refined analytic predictor of the channels and the
merged baseline."""

import math
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import per_channel_oracle
from per_channel_oracle import tag_keys
from test_coincidence import brute_force_greedy, make_tags
from wmqkd import calibration as calib
from wmqkd.calibration import (FROZEN_CALIBRATION, fig3d_model, predict_channel,
                               predict_merged, predict_rows, window_efficiency)
from wmqkd.coincidence import (CoincidenceWindow, Matches, accidental_estimate,
                               find_coincidences, key_table, match_keys, tabulate)
from wmqkd.detection import (LINK_BLOCK, Basis, DetectorCarry, DetectorConfig, KeyFrame,
                             TagStream, _close_links, _dead_time_filter, _union, detect,
                             emit_keys, merge_keys)
from wmqkd.keyrate import (AnalyticLinkModel, AnalyticRates, PairRateOptimum,
                           analytic_rates, binary_entropy, optimize_pair_rate,
                           optimize_pair_rates)
from wmqkd.runner import default_config, run_fig3d
from wmqkd.simulate import _sorted_uniform, detector_ids

TICK = 1.0 / 12.15e9

sorted_ticks = st.lists(st.integers(0, 400), max_size=60).map(sorted)


def fixed_point_dead_time_filter(times, dead):
    """Reference non-paralyzable filter: per pass, among events violating
    the spacing to their current predecessor, the first of each
    violating run is provably dead and dropped."""
    n = times.size
    keep = np.ones(n, dtype=bool)
    if n < 2 or dead < 0:
        return keep
    idx = np.arange(n)
    while True:
        alive = idx[keep]
        if alive.size < 2:
            return keep
        t = times[alive]
        bad = ~(t[1:] > t[:-1] + dead)
        if not bad.any():
            return keep
        first_of_run = bad & np.concatenate(([True], ~bad[:-1]))
        keep[alive[1:][first_of_run]] = False


def brute_force_merge_side(streams, dead_ticks, id_base):
    """Quadratic reference merge: walk the (tick, detector id)-sorted
    union of all streams; a tag is kept only if it is later than every
    kept tag of its port plus the dead time."""
    events = sorted(
        ((int(s.ticks[i]), int(s.detector_ids[i]), int(s.channel_indices[i]),
          bool(s.dark[i]))
         for s in streams for i in range(len(s))),
        key=lambda e: e[:2],
    )
    kept = []
    for t, det, ch, dark in events:
        port = det % 2
        if all(t > kt + dead_ticks for kt, kp, _, _ in kept if kp == port):
            kept.append((t, port, ch, dark))
    return sorted(((t, id_base + port, ch, dark) for t, port, ch, dark in kept),
                  key=lambda e: e[:2])


def module_stream(slot, ticks, ports, darks):
    """One analyzer module's stream in canonical (tick, detector id) order."""
    ids = np.asarray(detector_ids(slot, 0), dtype=np.int32)[np.asarray(ports, int)]
    s = TagStream(ticks, np.asarray(ports, np.int8), ids,
                  np.full(len(ticks), slot, np.int32), darks, TICK, 1.0)
    return s.sorted()


@st.composite
def module_streams(draw):
    k = draw(st.integers(1, 6))
    out = []
    for slot in range(k):
        ticks = draw(sorted_ticks)
        n = len(ticks)
        ports = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
        darks = draw(st.lists(st.booleans(), min_size=n, max_size=n))
        out.append(module_stream(slot, ticks, ports, darks))
    # Any stream order: equal ticks resolve by detector id, not by position.
    return draw(st.permutations(out))


def merged_projection(streams, dead_ticks):
    """The (tick, port) of each tag of the quadratic reference merge."""
    return [(t, det - 1000) for t, det, _, _ in
            brute_force_merge_side(streams, dead_ticks, 1000)]


def key_projection(keys):
    return list(zip((keys >> 2).tolist(), (keys & 1).tolist()))


@st.composite
def port_streams(draw):
    """One side's canonical (tick, port) tags, ticks from -20: jitter near
    t = 0 gives negative ticks, and both ports or one port twice may
    share a tick.  The outcomes are the port bits, in the HV basis."""
    tags = sorted(draw(st.lists(st.tuples(st.integers(-20, 400), st.integers(0, 1)),
                                max_size=60)))
    ticks = np.asarray([t for t, _ in tags], np.int64)
    ports = np.asarray([p for _, p in tags], np.int8)
    return TagStream(ticks, ports, ports, np.zeros(ticks.size, np.int32),
                     np.zeros(ticks.size, bool), TICK, 1.0)


@given(sorted_ticks, sorted_ticks, st.integers(0, 30))
def test_matcher_agrees_with_greedy_oracle(ta, tb, half):
    ta, tb = np.asarray(ta, np.int64), np.asarray(tb, np.int64)
    m = find_coincidences(make_tags(ta), make_tags(tb),
                          CoincidenceWindow((2 * half + 1) * TICK))
    assert sorted(zip(m.idx_a.tolist(), m.idx_b.tolist())) == brute_force_greedy(ta, tb, half)


@given(sorted_ticks, sorted_ticks, st.integers(0, 3), st.integers(-500, 500))
def test_accidental_estimate_matches_shifted_stream(ta, tb, half, shift):
    a, b = make_tags(ta), make_tags(tb)
    shifted = make_tags(np.asarray(tb, dtype=np.int64) + shift)
    window = CoincidenceWindow((2 * half + 1) * TICK)
    assert accidental_estimate(a, b, window, shift * TICK) == \
        len(find_coincidences(a, shifted, window))


@given(port_streams(), port_streams(), st.integers(0, 30))
def test_key_matcher_table_equals_tabulated_greedy_oracle(a, b, half):
    keys, pos_a, pos_b = match_keys(tag_keys(a, 0), tag_keys(b, 1), half)
    pairs = brute_force_greedy(a.ticks, b.ticks, half)
    idx_a = np.asarray([i for i, _ in pairs], np.intp)
    idx_b = np.asarray([j for _, j in pairs], np.intp)
    assert np.array_equal(key_table(keys, pos_a, pos_b, KeyFrame().bounds(keys))[0],
                          tabulate(Matches(a, b, idx_a, idx_b), Basis.HV).cc)
    assert np.array_equal(keys, np.sort(np.concatenate((tag_keys(a, 0), tag_keys(b, 1)))))


@given(port_streams(), port_streams(), st.integers(0, 3), st.integers(-500, 500))
def test_key_matcher_delayed_count_equals_greedy_oracle(a, b, half, shift):
    got = match_keys(tag_keys(a, 0), tag_keys(b, 1) + (shift << 2), half)[1].size
    assert got == len(brute_force_greedy(a.ticks, b.ticks + shift, half))


@given(module_streams(), st.integers(0, 40))
def test_kway_merge_agrees_with_quadratic_oracle(streams, dead_int):
    runs = [tag_keys(s, 0) for s in streams]
    merged = merge_keys(np.concatenate(runs), dead_int, np.full(2, -np.inf), len(runs))
    assert key_projection(merged) == merged_projection(streams, dead_int)


@st.composite
def time_spans(draw):
    """A span ``[start, end)``: wide, or only one to three floats wide."""
    start = draw(st.floats(-1e6, 1e6))
    if draw(st.booleans()):
        end = start
        for _ in range(draw(st.integers(1, 3))):
            end = np.nextafter(end, np.inf)
        return start, float(end)
    return start, max(start + draw(st.floats(1e-15, 1e3)), float(np.nextafter(start, np.inf)))


@given(st.integers(0, 300), time_spans(), st.integers(0, 2**32 - 1))
def test_sorted_uniform_times_are_sorted_and_inside_their_span(n, span, seed):
    start, end = span
    t = _sorted_uniform(n, start, end, np.random.default_rng(seed))
    assert t.size == n
    assert np.all(np.diff(t) >= 0)
    assert np.all((start <= t) & (t < end))


def test_sorted_uniform_times_are_uniform_order_statistics():
    # The k-th of n sorted uniforms on (0, 1) has mean k/(n + 1) and
    # variance k(n + 1 - k)/((n + 1)^2 (n + 2)); 4000 draws of n = 3 hold
    # each mean to 4 sigma.
    rng = np.random.default_rng(3)
    n, draws = 3, 4000
    u = (np.array([_sorted_uniform(n, 2.0, 6.0, rng) for _ in range(draws)]) - 2.0) / 4.0
    k = np.arange(1, n + 1)
    sd = np.sqrt(k * (n + 1 - k) / ((n + 1) ** 2 * (n + 2)) / draws)
    assert np.all(np.abs(u.mean(axis=0) - k / (n + 1)) < 4 * sd)


@given(st.lists(st.integers(0, 300), max_size=80).map(sorted),
       st.lists(st.floats(0.0, 1.0), max_size=80).map(sorted),
       st.floats(0.0, 40.0))
def test_dead_time_filter_agrees_with_fixed_point_oracle(int_times, frac, dead):
    # Integer-valued times make exact ties and exact dead-time spacings.
    for times in (np.asarray(int_times, float), 40.0 * np.asarray(frac, float)):
        got = _dead_time_filter(times, dead, -np.inf, np.zeros(1, np.intp))
        assert np.array_equal(got, fixed_point_dead_time_filter(times, dead))


def test_dead_time_filter_burst():
    # 128k events spaced dead/10: one kept event in 11.
    times = np.arange(131072, dtype=float)
    keep = _dead_time_filter(times, 10.0, -np.inf, np.zeros(1, np.intp))
    assert np.array_equal(np.flatnonzero(keep), np.arange(0, 131072, 11))


def test_detect_orders_shared_ticks_by_detector():
    # A coarse tick and no dead time put many tags of both detectors on
    # one tick; the output must still be in (tick, detector_id) order.
    cfg = DetectorConfig(efficiency=1.0, dark_rate=0.0, jitter_sigma=0.0,
                         dead_time=0.0, tick=1e-6)
    rng = np.random.default_rng(3)
    t = np.sort(rng.uniform(0, 1e-4, 2000))
    bits = rng.integers(0, 2, t.size).astype(np.int8)
    tags = detect(t, bits, cfg, 1e-4, seed=4, detector_ids=(9, 2))
    assert tags.is_sorted()
    order = np.lexsort((np.where(bits == 0, 9, 2), np.rint(t / 1e-6).astype(np.int64)))
    assert np.array_equal(tags.outcomes, bits[order])


@st.composite
def link_scans(draw):
    """Keys, a step and a block for the close-link scan: as few keys as
    none or one, or about one or two blocks of links, with runs of equal
    keys and negative keys, sorted as the callers' or in any order."""
    block = draw(st.integers(1, 6))
    size = draw(st.one_of(st.integers(0, 2), st.integers(block - 1, block + 2),
                          st.integers(2 * block - 1, 2 * block + 2), st.integers(0, 40)))
    values = st.one_of(st.integers(-12, 12), st.integers(-2 ** 61, 2 ** 61))
    keys = draw(st.lists(values, min_size=size, max_size=size))
    if draw(st.booleans()):
        keys.sort()
    return np.asarray(keys, np.int64), draw(st.integers(-3, 2 ** 62)), block


@given(link_scans())
@example(scan=(np.empty(0, np.int64), 0, 1))
@example(scan=(np.array([-5], np.int64), 0, 1))
@example(scan=(np.array([-3, -3, -3, 0, 0], np.int64), 0, 4))
@example(scan=(np.array([-9, -3, -3, -3, 2], np.int64), 5, 5))
@example(scan=(np.array([-9, -3, -3, -3, 2, 2], np.int64), 0, 6))
def test_close_links_equal_the_whole_difference_scan(scan):
    keys, step, block = scan
    got = _close_links(keys, step, block)
    assert got.dtype == np.intp
    assert np.array_equal(got, np.flatnonzero(np.diff(keys) <= step))


@pytest.mark.parametrize("links", [LINK_BLOCK - 1, LINK_BLOCK, LINK_BLOCK + 1])
def test_close_links_at_the_default_block_edge(links):
    # Sorted keys with runs of equal keys and negative keys, as the emit
    # and the matcher scan them, one link short of, at and past a block.
    rng = np.random.default_rng(links)
    keys = np.cumsum(rng.integers(0, 9, links + 1)) - 4 * links
    for step in (0, 3, 8):
        assert np.array_equal(_close_links(keys, step),
                              np.flatnonzero(np.diff(keys) <= step))


def test_tie_union_of_a_coarse_tick_equals_union1d():
    # A 2 ns tick and no jitter put about 100k events on shared keys.  The
    # emit's tie positions must be those of np.union1d, and the tied
    # events, handed over in no order, must leave in time order, as the
    # per-channel emit orders them: the dark flags, random here, show
    # that order.
    cfg = DetectorConfig(efficiency=1.0, dark_rate=0.0, jitter_sigma=0.0,
                         dead_time=0.0, tick=2e-9)
    rng = np.random.default_rng(11)
    t = rng.uniform(0.0, 1.2e-4, 200_000)
    bits = rng.integers(0, 2, t.size, dtype=np.int8)
    dark = rng.random(t.size) < 0.5
    keys = np.sort(np.rint(t / cfg.tick).astype(np.int64) << 2 | bits)
    tie = np.flatnonzero(np.diff(keys) == 0)
    assert 80_000 < tie.size < 120_000
    assert np.array_equal(_union(tie, tie + 1), np.union1d(tie, tie + 1))

    got, got_dark = emit_keys([(t, bits, dark)], cfg, DetectorCarry(), None)
    want, want_dark = per_channel_oracle.emit(t, bits, dark, cfg.tick, 0.0,
                                              per_channel_oracle.Carry(), None, 0)
    assert np.array_equal(got, keys) and np.array_equal(got, want)
    assert np.array_equal(got_dark, want_dark)


def test_emit_without_dark_flags_keeps_the_keys():
    # Events handed on with no dark flags (the Monte Carlo's) give the
    # same keys and carry, and no flags.
    cfg = DetectorConfig(efficiency=1.0, dark_rate=0.0, jitter_sigma=0.1,
                         dead_time=2.0, tick=1.0)
    rng = np.random.default_rng(4)
    t = np.sort(rng.uniform(0.0, 400.0, 300)) + rng.normal(0.0, 0.1, 300)
    bits = rng.integers(0, 2, t.size, dtype=np.int8)
    flagged, bare = DetectorCarry(), DetectorCarry()
    for lo, hi, frontier in ((0, 150, 190), (150, 300, None)):
        want, dark = emit_keys([(t[lo:hi], bits[lo:hi], t[lo:hi] < 0)], cfg, flagged,
                               frontier)
        got, none = emit_keys([(t[lo:hi], bits[lo:hi], None)], cfg, bare, frontier)
        assert none is None and dark is not None and bare.held[2] is None
        assert np.array_equal(got, want)
        assert np.array_equal(bare.last_kept, flagged.last_kept)


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def scalar_key_rate_total(model):
    """The link model's aggregate key rate in scalar Python arithmetic,
    as evaluated one model at a time before the array evaluator."""
    b = model.pair_rate_in_band
    s_a = b * model.transmittance_alice + model.dark_rate_alice
    s_b = b * model.transmittance_bob + model.dark_rate_bob
    cc_true = b * model.transmittance_alice * model.transmittance_bob \
        * model.window_efficiency
    cc_acc = s_a * s_b * model.t_c
    total = cc_true + cc_acc
    if not total > 0:
        return 0.0
    q = (model.q_sys * cc_true + 0.5 * cc_acc) / total
    key = max(0.0, total * 0.5 * (1.0 - (1.0 + model.f_ec) * binary_entropy(q)))
    return model.n_channels * key


def scalar_optimize_pair_rate(model, bracket=(1e2, 1e12), n_grid=121, tol=1e-3):
    """Reference optimizer: the former one-model grid scan and
    golden-section refinement, one scalar evaluation at a time."""
    lo, hi = bracket

    def rate_at(log_b):
        return scalar_key_rate_total(replace(model, pair_rate_in_band=10.0 ** log_b))

    grid = np.linspace(math.log10(lo), math.log10(hi), n_grid)
    vals = np.array([rate_at(g) for g in grid])
    k = int(np.argmax(vals))
    if k == 0 or k == n_grid - 1:
        return PairRateOptimum(
            pair_rate=float(10.0 ** grid[k]),
            key_rate_total=float(vals[k]),
            interior=False,
            warning="no interior optimum on the bracket; returning best sample",
        )

    a, b = grid[k - 1], grid[k + 1]
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = rate_at(c), rate_at(d)
    while b - a > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = rate_at(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = rate_at(d)
    log_opt = 0.5 * (a + b)
    return PairRateOptimum(
        pair_rate=float(10.0 ** log_opt),
        key_rate_total=float(rate_at(log_opt)),
        interior=True,
    )


def log_uniform(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda x: 10.0 ** x)


@st.composite
def link_models(draw):
    return AnalyticLinkModel(
        pair_rate_in_band=1.0,
        transmittance_alice=draw(log_uniform(1e-6, 1.0)),
        transmittance_bob=draw(log_uniform(1e-6, 1.0)),
        dark_rate_alice=draw(st.one_of(st.just(0.0), log_uniform(1.0, 1e6))),
        dark_rate_bob=draw(st.one_of(st.just(0.0), log_uniform(1.0, 1e6))),
        # Down to no accidental penalty (best sample at the upper edge),
        # up to a penalty that peaks below the bracket (lower edge).
        t_c=draw(log_uniform(1e-18, 1e-2)),
        q_sys=draw(st.floats(0.0, 0.12)),
        n_channels=draw(st.integers(1, 15000)),
        f_ec=draw(st.floats(1.0, 1.5)),
        window_efficiency=draw(st.floats(0.05, 1.0)),
    )


# Best grid sample at the upper edge (monotone rate), at the lower edge
# with a positive key, and nowhere (no key at any brightness).
EDGE_MODELS = (
    AnalyticLinkModel(1.0, 1e-3, 1e-3, t_c=1e-18, q_sys=0.01),
    AnalyticLinkModel(1.0, 1.0, 1.0, t_c=2e-3),
    AnalyticLinkModel(1.0, 1e-3, 1e-3, 1e6, 1e6, t_c=1e-8),
)


def stacked(models):
    """One array model of the models, one element per model."""
    return AnalyticLinkModel(**{
        f.name: np.array([getattr(m, f.name) for m in models], dtype=np.float64)
        for f in fields(AnalyticLinkModel)})


@given(st.lists(link_models(), min_size=1, max_size=6),
       st.lists(log_uniform(1e-3, 1e12), min_size=6, max_size=6))
def test_array_model_rates_equal_each_number_model(models, pair_rates):
    models = [replace(m, pair_rate_in_band=b) for m, b in zip(models, pair_rates)]
    got = analytic_rates(stacked(models))
    for i, m in enumerate(models):
        want = analytic_rates(m)
        for f in fields(want):
            assert type(getattr(want, f.name)) is float
            assert getattr(got, f.name)[i] == getattr(want, f.name), f.name


def test_bad_element_of_an_array_field_named():
    with pytest.raises(ValueError,
                       match=r"transmittance_bob must be in \(0, 1\], got 1.5"):
        AnalyticLinkModel(np.array([1.0, 2.0]), 0.1, np.array([0.5, 1.5]))
    with pytest.raises(ValueError, match=r"q_sys must be in \[0, 0.5\], got nan"):
        AnalyticLinkModel(1.0, 0.1, 0.1, q_sys=np.array([[0.1], [np.nan]]))
    with pytest.raises(ValueError, match="n_channels must be >= 1, got 0"):
        AnalyticLinkModel(1.0, 0.1, 0.1, n_channels=np.array([3, 0, -1]))


def assert_same_optima(got, models):
    assert len(got) == len(models)
    for g, m in zip(got, models):
        want = scalar_optimize_pair_rate(m)
        assert (g.pair_rate, g.key_rate_total, g.interior, g.warning) == \
            (want.pair_rate, want.key_rate_total, want.interior, want.warning)


@given(st.lists(link_models(), min_size=1, max_size=6))
def test_batched_optimizer_equals_scalar_oracle(models):
    assert_same_optima(optimize_pair_rates(stacked(models)), models)


def test_batched_optimizer_edges_equal_scalar_oracle():
    models = list(EDGE_MODELS) + [fig3d_model(FROZEN_CALIBRATION, loss_db=70.0)]
    got = optimize_pair_rates(stacked(models))
    assert_same_optima(got, models)
    assert [g.interior for g in got] == [False, False, False, True]
    assert got[0].pair_rate == 1e12 and got[1].pair_rate == 1e2
    assert got[1].key_rate_total > 0.0 and got[2].key_rate_total == 0.0
    assert optimize_pair_rate(models[1]) == got[1]
    assert optimize_pair_rates(stacked([])) == []


def test_fig3d_rows_equal_per_loss_scalar_rows(tmp_path):
    config = default_config("fig3d")
    report = run_fig3d(config, str(tmp_path))
    scaling, bandwidth = [], []
    for loss in config.fig3d_loss_grid_db:
        base = fig3d_model(FROZEN_CALIBRATION, loss_db=loss)
        opt = scalar_optimize_pair_rate(base)
        res = analytic_rates(replace(base, pair_rate_in_band=opt.pair_rate))
        for n in config.fig3d_n_values:
            scaling.append({"n": int(n), "loss_db": float(loss), "qber": res.qber,
                            "key_rate_bps": n * res.key_rate_per_channel})
        bandwidth.append({
            "bandwidth_ghz": calib.FIG3D_REFERENCE_BANDWIDTH_GHZ,
            "loss_db": float(loss), "qber": res.qber,
            "key_rate_bps": res.key_rate_per_channel,
            "pair_rate_per_channel": opt.pair_rate, "optimized": True,
        })
        for bw in config.fig3d_bandwidths_ghz:
            m = fig3d_model(FROZEN_CALIBRATION, loss_db=loss, bandwidth_ghz=bw)
            broad = analytic_rates(m)
            bandwidth.append({
                "bandwidth_ghz": float(bw), "loss_db": float(loss),
                "qber": broad.qber, "key_rate_bps": broad.key_rate_per_channel,
                "pair_rate_per_channel": m.pair_rate_in_band, "optimized": False,
            })
    assert report["scaling_rows"] == scaling
    assert report["bandwidth_rows"] == bandwidth


def _port_rate(rate, dead_time):
    return rate / (1.0 + rate * dead_time)


def scalar_predict_channel(pair_rate_in_band, arrival_eff_alice, arrival_eff_bob,
                           detector, window, q_sys, f_ec=1.1):
    """Reference prediction of one channel in scalar Python arithmetic,
    as written before the array predictor."""
    w_eff = window.effective_width(detector.tick)
    eta_w = window_efficiency(detector.jitter_sigma, w_eff)
    preds = []
    rhos = []
    for eta in (arrival_eff_alice, arrival_eff_bob):
        photon = pair_rate_in_band * eta * detector.efficiency
        port_in = photon / 2.0 + detector.dark_rate
        rho = _port_rate(port_in, detector.dead_time) / port_in \
            if port_in > 0 else 1.0
        preds.append(2.0 * port_in * rho)
        rhos.append(rho)
    s_a, s_b = preds
    cc_true = (pair_rate_in_band * arrival_eff_alice * arrival_eff_bob
               * detector.efficiency**2 * rhos[0] * rhos[1] * eta_w)
    cc_acc = s_a * s_b * w_eff
    total = cc_true + cc_acc
    q = (q_sys * cc_true + 0.5 * cc_acc) / total if total > 0 else float("nan")
    key = max(0.0, total * 0.5 * (1.0 - (1.0 + f_ec) * binary_entropy(q))) \
        if total > 0 else 0.0
    return AnalyticRates(singles_alice=s_a, singles_bob=s_b, cc_true=cc_true,
                         cc_accidental=cc_acc, qber=q, key_rate_per_channel=key,
                         key_rate_total=key)


def scalar_predict_merged(per_channel, detector, window, q_sys_by_channel,
                          f_ec=1.1):
    """Reference prediction of the merged baseline in scalar Python
    arithmetic, as written before the array predictor."""
    dead = detector.dead_time
    w_eff = window.effective_width(detector.tick)
    eta_w = window_efficiency(detector.jitter_sigma, w_eff)

    port_out = []
    rho_det = []
    for b, ea, eb in per_channel:
        row_out, row_rho = [], []
        for eta in (ea, eb):
            photon = b * eta * detector.efficiency
            port_in = photon / 2.0 + detector.dark_rate
            rho = _port_rate(port_in, dead) / port_in if port_in > 0 else 1.0
            row_out.append(port_in * rho)
            row_rho.append(rho)
        port_out.append(row_out)
        rho_det.append(row_rho)

    singles = []
    rho_merge = []
    for side in (0, 1):
        rates = [row[side] for row in port_out]
        tot = sum(rates)
        singles.append(2.0 * sum(r / (1.0 + (tot - r) * dead) for r in rates))
        rho_merge.append([1.0 / (1.0 + (tot - r) * dead) for r in rates])
    s_a, s_b = singles

    cc_true = 0.0
    q_weighted = 0.0
    for k, (b, ea, eb) in enumerate(per_channel):
        t_k = (b * ea * eb * detector.efficiency**2
               * rho_det[k][0] * rho_det[k][1]
               * rho_merge[0][k] * rho_merge[1][k] * eta_w)
        cc_true += t_k
        q_weighted += q_sys_by_channel[k] * t_k
    cc_acc = s_a * s_b * w_eff
    total = cc_true + cc_acc
    q = (q_weighted + 0.5 * cc_acc) / total if total > 0 else float("nan")
    key = max(0.0, total * 0.5 * (1.0 - (1.0 + f_ec) * binary_entropy(q))) \
        if total > 0 else 0.0
    return AnalyticRates(singles_alice=s_a, singles_bob=s_b, cc_true=cc_true,
                         cc_accidental=cc_acc, qber=q, key_rate_per_channel=key,
                         key_rate_total=key)


def same_prediction(got, want):
    """Field-by-field ``==``, with NaN equal to NaN."""
    return all(g == w or (math.isnan(g) and math.isnan(w))
               for g, w in zip(vars(got).values(), vars(want).values()))


@st.composite
def prediction_setups(draw):
    n = draw(st.integers(1, 32))
    rows = [(draw(st.one_of(st.just(0.0), log_uniform(1e3, 1e9))),
             draw(log_uniform(1e-5, 1.0)), draw(log_uniform(1e-5, 1.0)))
            for _ in range(n)]
    q_sys = [draw(st.floats(0.0, 0.5)) for _ in range(n)]
    detector = DetectorConfig(
        efficiency=draw(st.floats(0.05, 1.0)),
        dark_rate=draw(st.one_of(st.just(0.0), log_uniform(1.0, 1e5))),
        jitter_sigma=draw(st.one_of(st.just(0.0), log_uniform(1e-12, 1e-9))),
        dead_time=draw(st.one_of(st.just(0.0), log_uniform(1e-9, 1e-6))),
    )
    window = CoincidenceWindow(draw(log_uniform(1e-10, 1e-8)))
    return rows, q_sys, detector, window, draw(st.floats(1.0, 1.5))


@given(prediction_setups())
def test_predictor_equals_scalar_oracles(setup):
    rows, q_sys, detector, window, f_ec = setup
    channels, merged = predict_rows(rows, q_sys, detector, window, f_ec)
    assert len(channels) == len(rows)
    for row, q, got in zip(rows, q_sys, channels):
        want = scalar_predict_channel(*row, detector, window, q, f_ec)
        assert same_prediction(got, want)
        assert same_prediction(predict_channel(*row, detector, window, q, f_ec), want)
    want = scalar_predict_merged(rows, detector, window, q_sys, f_ec)
    assert same_prediction(merged, want)
    assert same_prediction(predict_merged(rows, detector, window, q_sys, f_ec), want)


@st.composite
def two_basis_setups(draw):
    """A setup of 1-5 rows, zero pair rates among them, with a second
    basis's systematic error fraction per row."""
    rows, q_hv, detector, window, f_ec = draw(prediction_setups())
    rows, q_hv = rows[:5], q_hv[:5]
    q_da = [draw(st.floats(0.0, 0.5)) for _ in rows]
    return rows, q_hv, q_da, detector, window, f_ec


@given(two_basis_setups())
def test_predictor_of_two_bases_is_the_mean_of_one_basis_calls(setup):
    """With one row of ``q_sys`` per basis, each record's QBER and key
    rates are the mean of the one-basis calls' and every other field is
    theirs, for the channels and the merged baseline alike."""
    rows, q_hv, q_da, detector, window, f_ec = setup
    channels, merged = predict_rows(rows, [q_hv, q_da], detector, window, f_ec)
    hv, hv_merged = predict_rows(rows, q_hv, detector, window, f_ec)
    da, da_merged = predict_rows(rows, q_da, detector, window, f_ec)
    assert len(channels) == len(rows)
    for got, h, d in zip([*channels, merged], [*hv, hv_merged], [*da, da_merged],
                         strict=True):
        mean = {k: (getattr(h, k) + getattr(d, k)) / 2.0
                for k in ("qber", "key_rate_per_channel", "key_rate_total")}
        assert same_prediction(got, replace(h, **mean))
        assert same_prediction(got, replace(d, **mean))


@st.composite
def ideal_detector_setups(draw):
    n = draw(st.integers(1, 8))
    rows = [(draw(log_uniform(1e3, 1e9)), draw(log_uniform(1e-5, 1.0)),
             draw(log_uniform(1e-5, 1.0))) for _ in range(n)]
    q_sys = [draw(st.floats(0.0, 0.5)) for _ in range(n)]
    dark = draw(st.one_of(st.just(0.0), log_uniform(1.0, 1e5)))
    detector = DetectorConfig(efficiency=1.0, dark_rate=dark / 2.0,
                              jitter_sigma=0.0, dead_time=0.0)
    window = CoincidenceWindow(draw(log_uniform(1e-10, 1e-8)))
    return rows, q_sys, dark, detector, window, draw(st.floats(1.0, 1.5))


@given(ideal_detector_setups())
def test_predictor_of_ideal_detectors_is_the_link_model(setup):
    """With unit efficiency, no dead time and no jitter, each channel's
    prediction is the basic link model with the side's dark rate (two
    ports of ``dark / 2``) and the window's effective width."""
    rows, q_sys, dark, detector, window, f_ec = setup
    t_c = window.effective_width(detector.tick)
    channels, _ = predict_rows(rows, q_sys, detector, window, f_ec)
    for (b, ea, eb), q, got in zip(rows, q_sys, channels):
        want = analytic_rates(AnalyticLinkModel(b, ea, eb, dark, dark, t_c=t_c,
                                                q_sys=q, f_ec=f_ec))
        assert got == want


def test_predictor_of_no_rows():
    channels, merged = predict_rows([], [], DetectorConfig(), CoincidenceWindow())
    assert channels == []
    assert (merged.cc_true, merged.cc_accidental, merged.key_rate_per_channel) \
        == (0.0, 0.0, 0.0)

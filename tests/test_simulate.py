"""End-to-end simulation tests: equivalence of the thinned sampler with
the explicit sample/transmit/measure path, agreement with the analytic
model, the merged-baseline error excess, determinism, and the frozen
calibration."""

import ctypes
import sys
import threading
import tracemalloc

import numpy as np
import pytest

import wmqkd.simulate
from wmqkd.calibration import (DEFAULT_DETECTOR, FROZEN_CALIBRATION,
                               REFERENCE_LOSS_DB, derive_calibration,
                               predict_channel, window_efficiency)
from wmqkd.channels import (ChannelPlan, WavelengthChannel, build_grid_plan,
                            build_table1_plan, table1_source_config)
from wmqkd.coincidence import CoincidenceWindow, find_coincidences, tabulate
from wmqkd.detection import (Basis, DetectorConfig, detect,
                             measure_pair_outcomes, measure_single_outcomes,
                             transmit)
from wmqkd.keyrate import AnalyticLinkModel, analytic_rates
from wmqkd.runner import config_from_dict, run_scenario
from wmqkd.simulate import (ChannelScenario, Chunk, _channel_draws,
                            block_chunks, resolve_channels, simulate_basis,
                            simulate_channel_block, simulate_point)
from wmqkd.source import SourceConfig, _rng, band_fraction, sample_pair_stream

TICK = 1.0 / 12.15e9


def single_channel_plan(fwhm=0.3):
    sig = WavelengthChannel("signal", 1, 799.0, fwhm, 1.0)
    idl = WavelengthChannel("idler", 1, 821.0, fwhm, 1.0)
    return ChannelPlan(pairs=((sig, idl),), spdc_center=810.0)


def test_resolve_channels_rates_and_efficiencies():
    src = SourceConfig(pair_rate=1e9)
    plan = build_table1_plan()
    src = SourceConfig(pair_rate=1e9,
                       center_wavelength_signal=plan.signal_cwl,
                       center_wavelength_idler=plan.idler_cwl,
                       spdc_center=plan.spdc_center)
    chans = resolve_channels(src, plan, 20.0)
    assert [c.index for c in chans] == [1, 2]
    for ch, (sig, idl) in zip(chans, plan.pairs):
        expected_b = 1e9 * band_fraction(src, sig.center - src.center_wavelength_signal,
                                         sig.fwhm)
        assert ch.pair_rate_in_band == pytest.approx(expected_b)
        assert ch.arrival_efficiency_signal == pytest.approx(0.1 * 0.70)
        assert ch.arrival_efficiency_idler == pytest.approx(0.1 * 0.90)


def explicit_path_block(src, plan, loss_db, detector, basis, duration, seed):
    """Spec-surface pipeline: sample the in-band stream, apply per-photon
    loss, draw outcomes, and detect Alice's and Bob's tags; used as the
    reference for the thinned sampler."""
    sig, idl = plan.pairs[0]
    band = (sig.passband[0] - src.center_wavelength_signal,
            sig.passband[1] - src.center_wavelength_signal)
    stream = sample_pair_stream(src, duration, seed, band=band)
    surv = transmit(stream, loss_db, 1 - sig.diffraction_efficiency,
                    1 - idl.diffraction_efficiency, seed=seed + 1)
    rng = _rng(seed + 2)
    v = src.systematic_visibility_hv if basis is Basis.HV \
        else src.systematic_visibility_da
    n_both = int(surv.both.sum())
    bits_s_pair, bits_i_pair = measure_pair_outcomes(n_both, v, rng)
    bits_s_only = measure_single_outcomes(int(surv.signal_only.sum()), rng)
    bits_i_only = measure_single_outcomes(int(surv.idler_only.sum()), rng)

    t_alice = np.concatenate([stream.times[surv.both], stream.times[surv.signal_only]])
    bits_a = np.concatenate([bits_s_pair, bits_s_only])
    order = np.argsort(t_alice, kind="stable")
    alice = detect(t_alice[order], bits_a[order], detector, duration, seed + 3,
                   channel_index=1, basis=basis, detector_ids=(0, 1))
    t_bob = np.concatenate([stream.times[surv.both], stream.times[surv.idler_only]])
    bits_b = np.concatenate([bits_i_pair, bits_i_only])
    order = np.argsort(t_bob, kind="stable")
    bob = detect(t_bob[order], bits_b[order], detector, duration, seed + 4,
                 channel_index=1, basis=basis, detector_ids=(2, 3))
    return alice, bob


def test_thinned_sampler_matches_explicit_path_statistics():
    # Same physical scenario through both pipelines; singles rates and
    # coincidence counts must agree within 5 sigma.
    src = SourceConfig(pair_rate=3e8, systematic_visibility_hv=0.95,
                       systematic_visibility_da=0.95)
    plan = single_channel_plan()
    detector = DetectorConfig(efficiency=0.6, dark_rate=200.0,
                              jitter_sigma=100e-12, dead_time=0.0)
    window = CoincidenceWindow(1e-9)
    loss, duration = 13.0, 0.5

    explicit_alice, explicit_bob = explicit_path_block(
        src, plan, loss, detector, Basis.HV, duration, seed=1000)
    chans = resolve_channels(src, plan, loss)
    thinned_alice, thinned_bob = simulate_channel_block(
        chans[0], Basis.HV, detector, duration, seed=2000, channel_slot=0)

    m_e = find_coincidences(explicit_alice, explicit_bob, window)
    m_t = find_coincidences(thinned_alice, thinned_bob, window)
    for name, a, b in (("alice singles", len(explicit_alice), len(thinned_alice)),
                       ("bob singles", len(explicit_bob), len(thinned_bob)),
                       ("coincidences", len(m_e), len(m_t))):
        sigma = np.sqrt(a + b)
        assert abs(a - b) < 5 * sigma, f"{name}: {a} vs {b}"
    q_e = tabulate(m_e, Basis.HV, 1).erroneous / len(m_e)
    q_t = tabulate(m_t, Basis.HV, 1).erroneous / len(m_t)
    sig_q = np.sqrt(q_e * (1 - q_e) / len(m_e) + q_t * (1 - q_t) / len(m_t))
    assert abs(q_e - q_t) < 5 * sig_q


def test_folded_draws_match_their_poisson_means():
    # One long chunk of one channel, without jitter, so that a detected
    # pair's two photons share their time.  Per side, the pair, lone and
    # dark counts lie within 4 sigma of their Poisson means, with the
    # detector efficiency folded into the rates, and the pairs' outcomes
    # are anti-correlated with probability (1 + v)/2 in the block's basis.
    v = 0.9
    ch = ChannelScenario(index=3, pair_rate_in_band=5e5, arrival_efficiency_signal=0.3,
                         arrival_efficiency_idler=0.5, v_sys_hv=0.5, v_sys_da=v)
    detector = DetectorConfig(efficiency=0.6, dark_rate=2e4, jitter_sigma=0.0)
    chunk = Chunk(0, 2.0, 12.0, None)
    (ta, bits_a, dark_a), (tb, bits_b, dark_b) = _channel_draws(ch, Basis.DA, detector,
                                                                5, chunk)
    for t in (ta, tb):
        assert np.all((chunk.start <= t) & (t < chunk.end))
    _, ia, ib = np.intersect1d(ta[~dark_a], tb[~dark_b], return_indices=True)
    pairs = ia.size
    dt = chunk.end - chunk.start
    b = ch.pair_rate_in_band * dt
    pa, pb = 0.3 * 0.6, 0.5 * 0.6
    for count, mean in ((pairs, b * pa * pb),
                        (np.count_nonzero(~dark_a) - pairs, b * pa * (1 - pb)),
                        (np.count_nonzero(~dark_b) - pairs, b * (1 - pa) * pb),
                        (np.count_nonzero(dark_a), 2 * detector.dark_rate * dt),
                        (np.count_nonzero(dark_b), 2 * detector.dark_rate * dt)):
        assert abs(count - mean) < 4 * np.sqrt(mean), (count, mean)
    anti = np.mean(bits_a[~dark_a][ia] != bits_b[~dark_b][ib])
    p = (1 + v) / 2
    assert abs(anti - p) < 4 * np.sqrt(p * (1 - p) / pairs)


def test_simulation_matches_analytic_model():
    # Mid-loss configuration with negligible dead-time/jitter effects:
    # QBER and rates must track the bare analytic model within 4 sigma.
    v = 0.96
    src = SourceConfig(pair_rate=2e8, systematic_visibility_hv=v,
                       systematic_visibility_da=v)
    plan = single_channel_plan()
    detector = DetectorConfig(efficiency=0.55, dark_rate=150.0,
                              jitter_sigma=10e-12, dead_time=0.0)
    t_c = 13 * TICK
    window = CoincidenceWindow(t_c)
    loss, duration = 16.0, 2.0

    res = simulate_point(src, plan, loss, detector, window, duration, seed=31)
    r = res.channels[1]
    b = resolve_channels(src, plan, loss)[0].pair_rate_in_band
    eta = 10 ** (-(loss / 2) / 10) * detector.efficiency
    model = AnalyticLinkModel(
        pair_rate_in_band=b, transmittance_alice=eta, transmittance_bob=eta,
        dark_rate_alice=2 * detector.dark_rate, dark_rate_bob=2 * detector.dark_rate,
        t_c=t_c, q_sys=(1 - v) / 2,
    )
    pred = analytic_rates(model)

    n_cc = r.counts_hv.total + r.counts_da.total
    expected_cc = (pred.cc_true + pred.cc_accidental) * duration
    assert abs(n_cc - expected_cc) < 4 * np.sqrt(expected_cc)

    q_mc = (r.counts_hv.erroneous + r.counts_da.erroneous) / n_cc
    sigma_q = np.sqrt(pred.qber * (1 - pred.qber) / n_cc)
    assert abs(q_mc - pred.qber) < 4 * sigma_q

    for singles_mc, singles_pred in ((r.singles_alice, pred.singles_alice),
                                     (r.singles_bob, pred.singles_bob)):
        sigma = np.sqrt(singles_pred * duration) / duration
        assert abs(singles_mc - singles_pred) < 4 * sigma


def test_merged_pipeline_error_excess():
    # The non-multiplexed baseline shows a higher erroneous-count
    # fraction than the per-channel pipelines (pooled) at the reference
    # settings: merging doubles each side's singles rate, quadrupling
    # accidentals while only doubling true pairs.
    cal = FROZEN_CALIBRATION
    res = simulate_point(cal.source(), build_table1_plan(), 30.0,
                         DEFAULT_DETECTOR, CoincidenceWindow(1e-9),
                         duration=0.5, seed=77,
                         channel_visibilities=cal.channel_visibilities())
    def err_counts(p):
        return (p.counts_hv.erroneous + p.counts_da.erroneous,
                p.counts_hv.total + p.counts_da.total)
    e1, n1 = err_counts(res.channels[1])
    e2, n2 = err_counts(res.channels[2])
    em, nm = err_counts(res.merged)
    assert em / nm > (e1 + e2) / (n1 + n2)
    assert em / nm > e1 / n1


def test_simulation_deterministic():
    cal = FROZEN_CALIBRATION
    kwargs = dict(channel_visibilities=cal.channel_visibilities())
    a = simulate_point(cal.source(), build_table1_plan(), 35.0, DEFAULT_DETECTOR,
                       CoincidenceWindow(1e-9), 0.1, seed=5, **kwargs)
    b = simulate_point(cal.source(), build_table1_plan(), 35.0, DEFAULT_DETECTOR,
                       CoincidenceWindow(1e-9), 0.1, seed=5, **kwargs)
    c = simulate_point(cal.source(), build_table1_plan(), 35.0, DEFAULT_DETECTOR,
                       CoincidenceWindow(1e-9), 0.1, seed=6, **kwargs)
    for idx in a.channels:
        assert np.array_equal(a.channels[idx].counts_hv.cc, b.channels[idx].counts_hv.cc)
        assert np.array_equal(a.channels[idx].counts_da.cc, b.channels[idx].counts_da.cc)
    assert np.array_equal(a.merged.counts_hv.cc, b.merged.counts_hv.cc)
    assert not np.array_equal(a.channels[1].counts_hv.cc, c.channels[1].counts_hv.cc)


def test_channel_results_independent_of_companions():
    # Seeding is keyed by channel index and chunk, so a channel's tags
    # are the same whether it is simulated alone or alongside others,
    # wherever the block is cut into the same chunks (here: one).
    cal = FROZEN_CALIBRATION
    src = cal.source()
    plan = build_table1_plan()
    chans = resolve_channels(src, plan, 30.0, cal.channel_visibilities())
    assert list(block_chunks(chans, DEFAULT_DETECTOR, 0.05)) \
        == list(block_chunks(chans[1:], DEFAULT_DETECTOR, 0.05)) \
        == [Chunk(0, 0.0, 0.05, None)]
    solo_alice, solo_bob = simulate_channel_block(chans[1], Basis.HV, DEFAULT_DETECTOR,
                                                  0.05, seed=9, channel_slot=1)
    full = simulate_point(src, plan, 30.0, DEFAULT_DETECTOR,
                          CoincidenceWindow(1e-9), 0.1, seed=9,
                          channel_visibilities=cal.channel_visibilities())
    m = find_coincidences(solo_alice, solo_bob, CoincidenceWindow(1e-9))
    counts_solo = tabulate(m, Basis.HV, 2)
    assert np.array_equal(counts_solo.cc, full.channels[2].counts_hv.cc)


def sequential_point(src, plan, loss, duration, seed, **kwargs):
    """The HV and DA units run one after the other in the calling thread,
    their counts summed from 0.0 in HV-then-DA order."""
    chans = resolve_channels(src, plan, loss, **kwargs)
    units = [simulate_basis(chans, basis, DEFAULT_DETECTOR, CoincidenceWindow(1e-9),
                            duration / 2.0, seed)
             for basis in (Basis.HV, Basis.DA)]
    # Each pipeline: its key, which of a unit's counts and its row there.
    rows = [(ch.index, 0, i) for i, ch in enumerate(chans)]
    if units[0][1] is not None:
        rows.append(("merged", 1, 0))
    out = {}
    for key, which, i in rows:
        singles_a = singles_b = acc = 0.0
        for unit in units:
            singles_a += int(unit[which].singles[0, i])
            singles_b += int(unit[which].singles[1, i])
            acc += int(unit[which].accidentals[i])
        out[key] = ([unit[which].cc[i] for unit in units],
                    singles_a / duration, singles_b / duration, acc / duration)
    return out


def small_grid_plan():
    plan, _ = build_grid_plan(805.0, 815.0, 400e9, 50e9, 810.05)
    return plan


@pytest.mark.parametrize("merged", [True, False])
@pytest.mark.parametrize("plan_of, kwargs", [
    (build_table1_plan,
     {"channel_visibilities": FROZEN_CALIBRATION.channel_visibilities()}),
    (small_grid_plan, {}),
])
def test_threaded_point_equals_sequential_units(plan_of, kwargs, merged):
    # The merged baseline runs with two or more channels; without
    # ``merged`` the plan is cut to its first pair.
    src, plan, loss, duration, seed = FROZEN_CALIBRATION.source(), plan_of(), 30.0, 0.1, 4
    if not merged:
        plan = ChannelPlan(plan.pairs[:1], plan.spdc_center, plan.tolerance)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threaded = simulate_point(src, plan, loss, DEFAULT_DETECTOR,
                                  CoincidenceWindow(1e-9), duration, seed, **kwargs)
    finally:
        sys.setswitchinterval(interval)
    want = sequential_point(src, plan, loss, duration, seed, **kwargs)
    got = dict(threaded.channels)
    if merged:
        got["merged"] = threaded.merged
    else:
        assert threaded.merged is None
    assert set(got) == set(want)
    for key, r in got.items():
        counts, singles_a, singles_b, acc = want[key]
        for have, basis, cc in zip((r.counts_hv, r.counts_da), (Basis.HV, Basis.DA), counts):
            assert have.basis == basis
            assert np.array_equal(have.cc, cc)
            assert have.channel_pair == (0 if key == "merged" else key)
            assert have.duration == duration / 2.0
        assert r.singles_alice == singles_a
        assert r.singles_bob == singles_b
        assert r.accidental_rate == acc


def test_error_in_a_basis_unit_reaches_the_caller(monkeypatch):
    real_sides = wmqkd.simulate._channel_sides

    def failing_sides(ch, basis, detector, seed, chunk):
        if basis is Basis.DA:
            raise RuntimeError("source fault in the DA block")
        return real_sides(ch, basis, detector, seed, chunk)

    monkeypatch.setattr(wmqkd.simulate, "_channel_sides", failing_sides)
    before = threading.active_count()
    cal = FROZEN_CALIBRATION
    with pytest.raises(RuntimeError, match="DA block"):
        simulate_point(cal.source(), build_table1_plan(), 30.0, DEFAULT_DETECTOR,
                       CoincidenceWindow(1e-9), 0.05, seed=3,
                       channel_visibilities=cal.channel_visibilities())
    assert threading.active_count() == before


def test_ticks_past_the_packed_key_range_rejected(monkeypatch):
    # 10 s of 1e-18 s ticks is 1e19 ticks: rounding would wrap int64 and
    # packed keys would overflow.  The point fails before any simulation.
    def no_simulation(*args, **kwargs):
        raise AssertionError("simulated")

    monkeypatch.setattr(wmqkd.simulate, "simulate_basis", no_simulation)
    cal = FROZEN_CALIBRATION
    with pytest.raises(ValueError, match=r"2\*\*60"):
        simulate_point(cal.source(), build_table1_plan(), 30.0,
                       DetectorConfig(tick=1e-18), CoincidenceWindow(1e-9), 10.0, seed=3)


def test_peak_memory_is_flat_in_duration():
    # Chunking holds a block's memory to a few chunks of tags, so four
    # times the duration may not peak much higher.  At 30 dB the two
    # durations split each block into 1 and 4 chunks of equal length.
    cal = FROZEN_CALIBRATION

    def traced_peak(duration):
        tracemalloc.start()
        try:
            simulate_point(cal.source(), build_table1_plan(), 30.0, DEFAULT_DETECTOR,
                           CoincidenceWindow(1e-9), duration, seed=8,
                           channel_visibilities=cal.channel_visibilities())
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    short, long = traced_peak(0.35), traced_peak(1.4)
    assert long <= 1.3 * short, f"{long / 2**20:.1f} MB vs {short / 2**20:.1f} MB"


def test_peak_memory_of_one_unit_chunk():
    # One HV unit of a table-1 block at 30 dB, 0.189 s long: one chunk,
    # just under CHUNK_TAGS expected arrivals per side.  A unit holds one
    # side's draws at a time, frees each side's keys once merged and
    # builds no difference array as long as the chunk.  Its traced peak
    # (seed 8) was 16.6-18.4 MB when it held both sides' draws, and is
    # 10.9-11.7 MB after; the first call in a process reads the most.
    cal = FROZEN_CALIBRATION
    chans = resolve_channels(cal.source(), build_table1_plan(), 30.0,
                             cal.channel_visibilities())
    assert len(list(block_chunks(chans, DEFAULT_DETECTOR, 0.189))) == 1
    tracemalloc.start()
    try:
        simulate_basis(chans, Basis.HV, DEFAULT_DETECTOR, CoincidenceWindow(1e-9), 0.189, 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 14 * 2**20, f"{peak / 2**20:.1f} MB"


@pytest.mark.parametrize("basis", list(Basis))
def test_side_at_a_time_draws_equal_channel_draws(monkeypatch, basis):
    # A unit draws every channel's Alice events, emits them, and only then
    # draws Bob's; each channel's generator still draws its pairs, Alice's
    # and Bob's events in that order, so the events handed to each emit
    # are those of _channel_draws, with no dark flags.
    calls = []
    real_side_draws = wmqkd.simulate._side_draws

    def logged_side_draws(*args):
        calls.append("draw")
        return real_side_draws(*args)

    monkeypatch.setattr(wmqkd.simulate, "_side_draws", logged_side_draws)
    plan = build_grid_plan(806.5, 813.5, 400e9, 50e9, 810.05)[0]
    cal = FROZEN_CALIBRATION
    chans = resolve_channels(cal.source(), plan, 10.0, brightness_scale=1e3)
    block, seed = 0.01, 17
    monkeypatch.setattr(wmqkd.simulate, "CHUNK_TAGS", 10_000)
    chunks = list(block_chunks(chans, DEFAULT_DETECTOR, block))
    assert len(chans) == 3 and len(chunks) == 2
    emitted = []
    real_emit = wmqkd.simulate.emit_keys

    def recording_emit(parts, *args):
        calls.append("emit")
        emitted.append([tuple(a if a is None else a.copy() for a in p) for p in parts])
        return real_emit(parts, *args)

    monkeypatch.setattr(wmqkd.simulate, "emit_keys", recording_emit)
    simulate_basis(chans, basis, DEFAULT_DETECTOR, CoincidenceWindow(1e-9), block, seed)
    assert calls == (["draw"] * len(chans) + ["emit"]) * 2 * len(chunks)
    calls.clear()
    for k, chunk in enumerate(chunks):
        want = [_channel_draws(ch, basis, DEFAULT_DETECTOR, seed, chunk) for ch in chans]
        for side in (0, 1):
            got = emitted[2 * k + side]
            assert len(got) == len(chans)
            for (t, bits, dark), w in zip(got, want):
                assert dark is None and t.size > 0
                assert np.array_equal(t, w[side][0]) and np.array_equal(bits, w[side][1])


class FakeLibc:
    """A C library whose ``mallopt`` records each call in ``events``."""

    def __init__(self, events):
        def mallopt(param, value):
            events.append(("mallopt", param, value))
            return 1
        self.mallopt = mallopt


def short_point(seed=3):
    cal = FROZEN_CALIBRATION
    return simulate_point(cal.source(), build_table1_plan(), 30.0, DEFAULT_DETECTOR,
                          CoincidenceWindow(1e-9), 0.05, seed=seed,
                          channel_visibilities=cal.channel_visibilities())


def test_point_keeps_freed_memory_once_before_the_units(monkeypatch):
    events = []
    real_basis = wmqkd.simulate.simulate_basis

    def unit(chans, basis, *args):
        events.append(("unit", basis))
        return real_basis(chans, basis, *args)

    monkeypatch.setattr(wmqkd.simulate, "_freed_memory_kept", False)
    monkeypatch.setattr(ctypes, "CDLL", lambda name: FakeLibc(events))
    monkeypatch.setattr(wmqkd.simulate, "simulate_basis", unit)
    short_point()
    assert events[:2] == [("mallopt", -3, 32 << 20), ("mallopt", -1, 64 << 20)]
    assert sorted(e[0] for e in events[2:]) == ["unit", "unit"]
    events.clear()
    short_point()
    assert [e[0] for e in events] == ["unit", "unit"]


def test_analytic_run_keeps_the_allocator_as_it_is(monkeypatch, tmp_path):
    events = []
    monkeypatch.setattr(wmqkd.simulate, "_freed_memory_kept", False)
    monkeypatch.setattr(ctypes, "CDLL", lambda name: FakeLibc(events))
    run_scenario(config_from_dict({"scenario": "fig3d", "mode": "analytic",
                                   "fig3d_loss_grid_db": [70.0]}), str(tmp_path))
    assert events == []


def no_mallopt(name):
    return object()


def no_libc(name):
    raise OSError("no C library")


@pytest.mark.parametrize("cdll", [no_mallopt, no_libc])
def test_point_runs_without_mallopt(monkeypatch, cdll):
    want = short_point()
    monkeypatch.setattr(wmqkd.simulate, "_freed_memory_kept", False)
    monkeypatch.setattr(ctypes, "CDLL", cdll)
    got = short_point()
    assert wmqkd.simulate._freed_memory_kept
    for idx in want.channels:
        assert np.array_equal(got.channels[idx].counts_hv.cc, want.channels[idx].counts_hv.cc)
        assert np.array_equal(got.channels[idx].counts_da.cc, want.channels[idx].counts_da.cc)
    assert np.array_equal(got.merged.counts_hv.cc, want.merged.counts_hv.cc)
    assert np.array_equal(got.merged.counts_da.cc, want.merged.counts_da.cc)


def test_window_efficiency_formula():
    # erf-based in-window probability for jittered pairs.
    assert window_efficiency(0.0, 1e-9) == 1.0
    assert window_efficiency(250e-12, 1e-9) == pytest.approx(0.842701, abs=1e-6)
    assert window_efficiency(10e-12, 13 * TICK) == pytest.approx(1.0, abs=1e-12)


def test_frozen_calibration_matches_derivation():
    derived = derive_calibration()
    frozen = FROZEN_CALIBRATION
    assert derived.version == frozen.version
    assert derived.full_spectrum_pair_rate == pytest.approx(
        frozen.full_spectrum_pair_rate, rel=1e-9)
    assert derived.v_sys_channel1 == pytest.approx(frozen.v_sys_channel1, abs=1e-9)
    assert derived.v_sys_channel2 == pytest.approx(frozen.v_sys_channel2, abs=1e-9)
    assert derived.fig3d_pair_rate_per_channel == pytest.approx(
        frozen.fig3d_pair_rate_per_channel, rel=1e-6)
    # The frozen numbers are the derivation's own, to the last bit.
    assert derived == frozen


def test_calibration_reproduces_reference_qber():
    cal = FROZEN_CALIBRATION
    source = table1_source_config(pair_rate=cal.full_spectrum_pair_rate)
    chans = resolve_channels(source, build_table1_plan(), REFERENCE_LOSS_DB)
    b1, ea1, eb1 = chans[0].geometry
    pred = predict_channel(b1, ea1, eb1, DEFAULT_DETECTOR, CoincidenceWindow(1e-9),
                           cal.q_sys_channel1)
    assert pred.qber == pytest.approx(0.038, abs=1e-9)

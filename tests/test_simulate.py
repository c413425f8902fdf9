"""End-to-end simulation tests: equivalence of the thinned sampler with
the explicit sample/transmit/measure path, agreement with the analytic
model, the merged-baseline error excess, determinism, and the frozen
calibration."""

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
from wmqkd.simulate import (MERGED_LABEL, BlockTags, Chunk, block_chunks,
                            resolve_channels, simulate_basis,
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
    loss, draw outcomes, and detect; used as the reference for the
    thinned sampler."""
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
    return BlockTags(basis, alice, bob)


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

    explicit = explicit_path_block(src, plan, loss, detector, Basis.HV,
                                   duration, seed=1000)
    chans = resolve_channels(src, plan, loss)
    thinned = simulate_channel_block(chans[0], Basis.HV, detector, duration,
                                     seed=2000, channel_slot=0)

    m_e = find_coincidences(explicit.alice, explicit.bob, window)
    m_t = find_coincidences(thinned.alice, thinned.bob, window)
    for name, a, b in (("alice singles", len(explicit.alice), len(thinned.alice)),
                       ("bob singles", len(explicit.bob), len(thinned.bob)),
                       ("coincidences", len(m_e), len(m_t))):
        sigma = np.sqrt(a + b)
        assert abs(a - b) < 5 * sigma, f"{name}: {a} vs {b}"
    q_e = tabulate(m_e, Basis.HV, 1).erroneous / len(m_e)
    q_t = tabulate(m_t, Basis.HV, 1).erroneous / len(m_t)
    sig_q = np.sqrt(q_e * (1 - q_e) / len(m_e) + q_t * (1 - q_t) / len(m_t))
    assert abs(q_e - q_t) < 5 * sig_q


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
    solo = simulate_channel_block(chans[1], Basis.HV, DEFAULT_DETECTOR, 0.05,
                                  seed=9, channel_slot=1)
    full = simulate_point(src, plan, 30.0, DEFAULT_DETECTOR,
                          CoincidenceWindow(1e-9), 0.1, seed=9,
                          channel_visibilities=cal.channel_visibilities())
    m = find_coincidences(solo.alice, solo.bob, CoincidenceWindow(1e-9))
    counts_solo = tabulate(m, Basis.HV, 2)
    assert np.array_equal(counts_solo.cc, full.channels[2].counts_hv.cc)


def sequential_point(src, plan, loss, duration, seed, **kwargs):
    """The HV and DA units run one after the other in the calling thread,
    their counts summed from 0.0 in HV-then-DA order."""
    chans = resolve_channels(src, plan, loss, **kwargs)
    units = [simulate_basis(chans, basis, DEFAULT_DETECTOR, CoincidenceWindow(1e-9),
                            duration / 2.0, seed)
             for basis in (Basis.HV, Basis.DA)]
    out = {}
    for key in units[0]:
        singles_a = singles_b = acc = total_t = 0.0
        for unit in units:
            singles_a += unit[key].singles_alice
            singles_b += unit[key].singles_bob
            acc += unit[key].accidentals
            total_t += unit[key].duration
        out[key] = ([unit[key].counts for unit in units],
                    singles_a / total_t, singles_b / total_t, acc / total_t)
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
        got[MERGED_LABEL] = threaded.merged
    else:
        assert threaded.merged is None
    assert set(got) == set(want)
    for key, r in got.items():
        counts, singles_a, singles_b, acc = want[key]
        for have, expect in zip((r.counts_hv, r.counts_da), counts):
            assert have.basis == expect.basis
            assert np.array_equal(have.cc, expect.cc)
            assert have.channel_pair == expect.channel_pair
            assert have.duration == expect.duration
        assert r.singles_alice == singles_a
        assert r.singles_bob == singles_b
        assert r.accidental_rate == acc


def test_error_in_a_basis_unit_reaches_the_caller(monkeypatch):
    real_detect = wmqkd.simulate.detect

    def failing_detect(*args, **kwargs):
        if kwargs["basis"] is Basis.DA:
            raise RuntimeError("detector fault in the DA block")
        return real_detect(*args, **kwargs)

    monkeypatch.setattr(wmqkd.simulate, "detect", failing_detect)
    before = threading.active_count()
    cal = FROZEN_CALIBRATION
    with pytest.raises(RuntimeError, match="DA block"):
        simulate_point(cal.source(), build_table1_plan(), 30.0, DEFAULT_DETECTOR,
                       CoincidenceWindow(1e-9), 0.05, seed=3,
                       channel_visibilities=cal.channel_visibilities())
    assert threading.active_count() == before


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


def test_calibration_reproduces_reference_qber():
    cal = FROZEN_CALIBRATION
    source = table1_source_config(pair_rate=cal.full_spectrum_pair_rate)
    chans = resolve_channels(source, build_table1_plan(), REFERENCE_LOSS_DB)
    b1, ea1, eb1 = chans[0].geometry
    pred = predict_channel(b1, ea1, eb1, DEFAULT_DETECTOR, CoincidenceWindow(1e-9),
                           cal.q_sys_channel1)
    assert pred.qber == pytest.approx(0.038, abs=1e-9)

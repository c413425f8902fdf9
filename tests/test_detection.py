"""Detection chain tests: loss statistics, polarization correlations,
the detector pipeline, and stream merging against a brute-force
reference."""

import csv
import os

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from wmqkd import detection
from wmqkd.detection import (MAX_TICKS, Basis, DetectorConfig, Outcome, TagStream,
                             detect, joint_outcome_probabilities,
                             measure_pair_outcomes,
                             merge_detectors, transmit)
from wmqkd.source import SourceConfig, sample_pair_stream

TICK = 1.0 / 12.15e9


def small_stream(rate=1e5, duration=0.1, seed=0):
    cfg = SourceConfig(pair_rate=rate)
    return sample_pair_stream(cfg, duration, seed=seed)


def ideal_detector(**kw):
    defaults = dict(efficiency=1.0, dark_rate=0.0, jitter_sigma=0.0, dead_time=0.0)
    defaults.update(kw)
    return DetectorConfig(**defaults)


# --- transmit ---------------------------------------------------------------

def test_transmit_zero_loss_all_survive():
    s = small_stream()
    surv = transmit(s, 0.0, seed=1)
    assert surv.signal.all() and surv.idler.all()


def test_transmit_db_arithmetic():
    # 20 dB total: per-photon survival 0.1, pair survival 0.01.
    s = small_stream(rate=1e6, duration=1.0)
    surv = transmit(s, 20.0, seed=2)
    n = len(s)
    for arr, p in ((surv.signal, 0.1), (surv.idler, 0.1), (surv.both, 0.01)):
        sigma = np.sqrt(n * p * (1 - p))
        assert abs(arr.sum() - n * p) < 5 * sigma


def test_transmit_binomial_oracle_30db():
    s = small_stream(rate=1e7, duration=1.0)
    extra_s, extra_i = 0.3, 0.1
    surv = transmit(s, 30.0, extra_signal_loss=extra_s, extra_idler_loss=extra_i,
                    seed=3)
    p_pair = (10 ** -1.5) ** 2 * (1 - extra_s) * (1 - extra_i)
    n = len(s)
    sigma = np.sqrt(n * p_pair * (1 - p_pair))
    assert abs(surv.both.sum() - n * p_pair) < 5 * sigma


def test_transmit_rejects_bad_args():
    s = small_stream()
    with pytest.raises(ValueError):
        transmit(s, -1.0)
    with pytest.raises(ValueError):
        transmit(s, 10.0, extra_signal_loss=1.5)
    # A NaN loss once passed the check and silently lost every photon.
    with pytest.raises(ValueError, match="total_loss_db"):
        transmit(s, float("nan"))


def test_transmit_infinite_loss_loses_every_photon():
    surv = transmit(small_stream(), float("inf"), seed=3)
    assert not (surv.signal.any() or surv.idler.any())


# --- polarization measurement ------------------------------------------------

def test_perfect_visibility_always_anticorrelated():
    rng = np.random.default_rng(5)
    a, b = measure_pair_outcomes(10000, 1.0, rng)
    assert np.all(a != b)


def test_zero_visibility_uniform_joint():
    rng = np.random.default_rng(6)
    n = 80000
    a, b = measure_pair_outcomes(n, 0.0, rng)
    for cell in range(4):
        count = np.sum((a * 2 + b) == cell)
        sigma = np.sqrt(n * 0.25 * 0.75)
        assert abs(count - n / 4) < 5 * sigma


def test_erroneous_fraction_at_v_0924():
    # v_sys = 0.924 gives (1 - v)/2 = 3.8% same-outcome pairs.
    rng = np.random.default_rng(7)
    n = 200000
    a, b = measure_pair_outcomes(n, 0.924, rng)
    p = (1 - 0.924) / 2
    errors = np.sum(a == b)
    assert abs(errors - n * p) < 3 * np.sqrt(n * p * (1 - p))


def test_marginals_uniform():
    rng = np.random.default_rng(8)
    n = 100000
    a, b = measure_pair_outcomes(n, 0.8, rng)
    for arr in (a, b):
        assert abs(arr.mean() - 0.5) < 5 * 0.5 / np.sqrt(n)


@given(st.floats(0.0, 1.0), st.integers(0, 5000), st.integers(0, 2**32 - 1))
@example(v_sys=0.924, n=100_000, seed=1)
def test_pair_outcomes_are_the_draws_of_generator_choice(v_sys, n, seed):
    # The searchsorted draw is what ``Generator.choice`` runs inside; the
    # outcomes, their dtype and the generator's state after must agree.
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    got = measure_pair_outcomes(n, v_sys, rng)
    cells = ref.choice(4, size=n, p=joint_outcome_probabilities(v_sys))
    for have, want in zip(got, ((cells >> 1).astype(np.int8), (cells & 1).astype(np.int8))):
        assert have.dtype == want.dtype
        assert np.array_equal(have, want)
    assert rng.random() == ref.random()


def test_joint_probabilities_shape():
    p = joint_outcome_probabilities(0.6)
    assert p.sum() == pytest.approx(1.0)
    assert p[1] == p[2] == (1 + 0.6) / 4
    assert p[0] == p[3] == (1 - 0.6) / 4


# --- detect ------------------------------------------------------------------

def test_identity_chain_quantizes_exactly():
    t = np.sort(np.random.default_rng(11).uniform(0, 0.01, 1000))
    bits = np.random.default_rng(12).integers(0, 2, 1000).astype(np.int8)
    tags = detect(t, bits, ideal_detector(), 0.01, seed=13)
    assert len(tags) == 1000
    order = np.lexsort((bits, np.rint(t / TICK).astype(np.int64)))
    assert np.array_equal(np.sort(tags.ticks), np.sort(np.rint(t / TICK).astype(np.int64)))
    assert not tags.dark.any()


def test_dark_counts_poisson_per_detector():
    # 1000/s per detector over 10 s -> 1e4 +/- 5 sigma tags per detector.
    cfg = ideal_detector(dark_rate=1000.0)
    tags = detect(np.empty(0), np.empty(0, np.int8), cfg, 10.0, seed=14)
    assert tags.dark.all()
    for det in (0, 1):
        n = int((tags.detector_ids == det).sum())
        assert abs(n - 1e4) < 5 * np.sqrt(1e4)


def test_dead_time_drops_close_arrival():
    t = np.array([0.0, 10e-9])
    bits = np.zeros(2, np.int8)
    tags = detect(t, bits, ideal_detector(dead_time=50e-9), 1e-6, seed=15)
    assert len(tags) == 1
    assert tags.ticks[0] == 0


def test_dead_time_single_pass_invariant():
    cfg = DetectorConfig(efficiency=0.9, dark_rate=2e4, jitter_sigma=100e-12,
                         dead_time=200e-9)
    t = np.sort(np.random.default_rng(16).uniform(0, 0.01, 40000))
    bits = np.random.default_rng(17).integers(0, 2, t.size).astype(np.int8)
    tags = detect(t, bits, cfg, 0.01, seed=18)
    for det in (0, 1):
        ticks = tags.ticks[tags.detector_ids == det]
        # one tick of slack for the post-filter quantization
        assert np.all(np.diff(ticks) * TICK > cfg.dead_time - TICK)


def test_efficiency_thinning_expectation():
    cfg = ideal_detector(efficiency=0.6, dark_rate=500.0)
    t = np.sort(np.random.default_rng(19).uniform(0, 1.0, 100000))
    bits = np.random.default_rng(20).integers(0, 2, t.size).astype(np.int8)
    tags = detect(t, bits, cfg, 1.0, seed=21)
    expected = 100000 * 0.6 + 2 * 500.0 * 1.0
    assert abs(len(tags) - expected) < 5 * np.sqrt(expected)


def test_jitter_preserves_count():
    cfg = ideal_detector(jitter_sigma=5e-9)
    t = np.sort(np.random.default_rng(22).uniform(0, 0.001, 5000))
    bits = np.random.default_rng(23).integers(0, 2, t.size).astype(np.int8)
    tags = detect(t, bits, cfg, 0.001, seed=24)
    assert len(tags) == 5000


def test_quantization_error_bounded():
    rng = np.random.default_rng(25)
    t = np.sort(rng.uniform(0, 1e-4, 2000))
    bits = np.zeros(t.size, np.int8)
    tags = detect(t, bits, ideal_detector(), 1e-4, seed=26)
    recovered = np.sort(tags.ticks) * TICK
    assert np.max(np.abs(recovered - np.sort(t))) <= TICK / 2 + 1e-15


def test_detect_rejects_unsorted():
    with pytest.raises(ValueError, match="sorted"):
        detect(np.array([2e-9, 1e-9]), np.zeros(2, np.int8), ideal_detector(),
               1e-6, seed=27)


@pytest.mark.parametrize("duration", [np.nan, np.inf])
def test_detect_rejects_a_non_finite_duration_by_name(duration):
    with pytest.raises(ValueError, match="duration"):
        detect(np.array([1e-9]), np.zeros(1, np.int8), ideal_detector(), duration, seed=27)


def test_outcome_labels_follow_basis():
    t = np.sort(np.random.default_rng(28).uniform(0, 1e-5, 100))
    bits = np.random.default_rng(29).integers(0, 2, 100).astype(np.int8)
    hv = detect(t, bits, ideal_detector(), 1e-5, seed=30, basis=Basis.HV)
    da = detect(t, bits, ideal_detector(), 1e-5, seed=30, basis=Basis.DA)
    assert set(np.unique(hv.outcomes)) <= {Outcome.H.value, Outcome.V.value}
    assert set(np.unique(da.outcomes)) <= {Outcome.D.value, Outcome.A.value}


# --- merge_detectors ---------------------------------------------------------

def make_tags(ticks, det_id=0, duration=1.0):
    ticks = np.asarray(ticks, dtype=np.int64)
    return TagStream(ticks, np.zeros(ticks.size, np.int8),
                     np.full(ticks.size, det_id, np.int32),
                     np.zeros(ticks.size, np.int32),
                     np.zeros(ticks.size, bool), TICK, duration)


def brute_force_merge(ticks_a, ticks_b, det_a, det_b, dead_ticks):
    """Quadratic reference: walk (tick, det)-sorted events, keeping one
    only if strictly later than every previously kept event plus the
    dead time.  Returns the kept events as (tick, det, stream, index)
    tuples, stream 0 for ``ticks_a`` and 1 for ``ticks_b``; equal ticks
    and dets keep the order of a then b."""
    events = sorted([(t, det_a, 0, i) for i, t in enumerate(ticks_a)]
                    + [(t, det_b, 1, i) for i, t in enumerate(ticks_b)])
    kept = []
    for ev in events:
        if all(ev[0] > k[0] + dead_ticks for k in kept):
            kept.append(ev)
    return kept


def test_merge_disjoint_streams_is_sorted_union():
    a = make_tags([0, 1000, 2000])
    b = make_tags([5000, 6000], det_id=1)
    merged = merge_detectors(a, b, 50e-9)
    assert np.array_equal(merged.ticks, [0, 1000, 2000, 5000, 6000])


def test_merge_identical_duplicates_collapse():
    a = make_tags([0, 1000, 2000], det_id=0)
    b = make_tags([0, 1000, 2000], det_id=1)
    merged = merge_detectors(a, b, 50e-9)
    assert np.array_equal(merged.ticks, [0, 1000, 2000])
    # tie-break keeps the lower detector id
    assert len(np.unique(merged.detector_ids)) == 1


def tag_fields(ticks):
    """One tag as (tick, outcome, channel index, dark flag)."""
    return st.tuples(ticks, st.integers(0, 3), st.integers(0, 5), st.booleans())


@st.composite
def merge_pairs(draw):
    """Two sorted lists of tags; some of the second's ticks are drawn
    from the first's, so that the detectors share ticks."""
    a = sorted(draw(st.lists(tag_fields(st.integers(-300, 300)), max_size=60)))
    ticks_b = st.integers(-300, 300)
    if a:
        ticks_b = st.one_of(ticks_b, st.sampled_from([t for t, *_ in a]))
    return a, sorted(draw(st.lists(tag_fields(ticks_b), max_size=60)))


def stream_of(tags, det_id):
    ticks, outcomes, channels, dark = zip(*tags) if tags else ((),) * 4
    return TagStream(ticks, outcomes, np.full(len(tags), det_id), channels, dark, TICK, 1.0)


@given(merge_pairs(), st.integers(0, 3), st.integers(0, 3),
       st.one_of(st.integers(0, 40).map(float), st.floats(0.0, 40.0), st.just(1e4)),
       st.sampled_from([None, 7]))
@example(([(0, 1, 2, True), (5, 0, 1, False)], [(0, 3, 4, False), (5, 2, 0, True)]),
         1, 0, 0.0, None)
def test_merge_matches_brute_force_oracle(pair, det_a, det_b, dead, merged_id):
    # Negative ticks, shared ticks, dead times of zero, fractional ones
    # and one longer than every span.  The oracle gets the dead time in
    # ticks as the merge computes it.
    a, b = pair
    merged = merge_detectors(stream_of(a, det_a), stream_of(b, det_b), dead * TICK,
                             merged_detector_id=merged_id)
    kept = brute_force_merge([t for t, *_ in a], [t for t, *_ in b], det_a, det_b,
                             dead * TICK / TICK)
    want = [(a, b)[s][i] for _, _, s, i in kept]
    assert merged.ticks.tolist() == [t for t, *_ in want]
    assert merged.outcomes.tolist() == [o for _, o, _, _ in want]
    assert merged.channel_indices.tolist() == [c for _, _, c, _ in want]
    assert merged.dark.tolist() == [d for *_, d in want]
    want_id = min(d for _, d, _, _ in kept) if merged_id is None and kept else merged_id
    assert merged.detector_ids.tolist() == [want_id] * len(kept)


def test_merge_detectors_runs_the_sparse_dead_time_kernel(monkeypatch):
    # The merge has one dead-time path: the packed-key kernel's.
    calls = []
    kernel = detection._sparse_dead_time_filter
    monkeypatch.setattr(detection, "_sparse_dead_time_filter",
                        lambda *args: calls.append(len(args[0])) or kernel(*args))
    merged = merge_detectors(make_tags([0, 3, 100]), make_tags([2, 50], det_id=1), 10 * TICK)
    assert calls == [5]
    assert merged.ticks.tolist() == [0, 50, 100]


def test_merge_rejects_ticks_beyond_the_key_bound():
    for ta, tb in ((0, 2 ** 62), (-MAX_TICKS, 0), (0, MAX_TICKS)):
        with pytest.raises(ValueError, match=r"2\*\*60"):
            merge_detectors(make_tags([ta]), make_tags([tb], det_id=1), 0.0)
    edge = merge_detectors(make_tags([1 - MAX_TICKS]), make_tags([MAX_TICKS - 1], det_id=1), 0.0)
    assert edge.ticks.tolist() == [1 - MAX_TICKS, MAX_TICKS - 1]


def test_merge_keeps_the_fields_of_the_first_tag_on_a_tick():
    # On tick 0 the tag of detector 2 comes before that of detector 5 and
    # survives with its own fields; the output takes the lowest id kept.
    a = TagStream([0, 100], [1, 1], [5, 5], [7, 7], [True, False], TICK, 1.0)
    b = TagStream([0, 50], [0, 0], [2, 2], [3, 3], [False, True], TICK, 2.0)
    merged = merge_detectors(a, b, 0.0)
    assert merged.ticks.tolist() == [0, 50, 100]
    assert merged.outcomes.tolist() == [0, 0, 1]
    assert merged.channel_indices.tolist() == [3, 3, 7]
    assert merged.dark.tolist() == [False, True, False]
    assert merged.detector_ids.tolist() == [2, 2, 2]
    assert merged.duration == 2.0


def test_merge_rejects_unsorted():
    bad = make_tags([10, 5])
    good = make_tags([1, 2], det_id=1)
    with pytest.raises(ValueError, match="sorted"):
        merge_detectors(bad, good, 0.0)


@pytest.mark.parametrize("dead", [-1e-9, float("nan"), float("inf")])
def test_merge_rejects_a_negative_or_non_finite_dead_time(dead):
    # A negative dead time once kept the first tag of a shared tick twice,
    # and NaN kept nothing.
    with pytest.raises(ValueError, match="global_dead_time"):
        merge_detectors(make_tags([1, 5, 9]), make_tags([5, 7], det_id=1), dead)


def test_merge_zero_dead_time_drops_simultaneous_only():
    a = make_tags([0, 100], det_id=0)
    b = make_tags([100, 200], det_id=1)
    merged = merge_detectors(a, b, 0.0)
    assert np.array_equal(merged.ticks, [0, 100, 200])


def export_tags_csv(stream: TagStream, directory: str) -> list[str]:
    """Write one CSV file per detector id; returns the file paths."""
    paths = []
    for det in np.unique(stream.detector_ids):
        sub = stream.take(stream.detector_ids == det)
        path = os.path.join(directory, f"detector_{int(det)}.csv")
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(("detector_id", "tick_time", "outcome", "channel_index"))
            for i in range(len(sub)):
                w.writerow([int(sub.detector_ids[i]), int(sub.ticks[i]),
                            Outcome(int(sub.outcomes[i])).name, int(sub.channel_indices[i])])
        paths.append(path)
    return paths


def test_export_tags_csv(tmp_path):
    a = make_tags([5, 10], det_id=0)
    b = make_tags([7], det_id=3)
    from wmqkd.detection import concatenate_streams
    stream = concatenate_streams([a, b])
    paths = export_tags_csv(stream, str(tmp_path))
    assert sorted(p.split("/")[-1] for p in paths) == \
        ["detector_0.csv", "detector_3.csv"]
    lines = open(paths[0]).read().splitlines()
    assert lines[0] == "detector_id,tick_time,outcome,channel_index"
    assert lines[1] == "0,5,H,0"

"""Channel plan tests: measured-plan values, frequency-sum pairing
oracle, grid tiling arithmetic, demux, and coherence time."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from wmqkd.channels import (ChannelPlan, GridTiling, WavelengthChannel,
                            build_grid_plan, build_table1_plan, coherence_time, demux,
                            energy_mismatches, plan_from_dict,
                            plan_to_csv, plan_to_dict, table1_labeling_report,
                            table1_source_config)
from wmqkd.source import C_NM_HZ, band_fraction, sample_pair_stream

NM = 1.0


def test_table1_channel_values():
    plan = build_table1_plan()
    signals = sorted(plan.channels("signal"), key=lambda c: c.center)
    idlers = sorted(plan.channels("idler"), key=lambda c: c.center)
    assert [c.center for c in signals] == [798.80, 799.32]
    assert [c.center for c in idlers] == [820.77, 821.31]
    assert all(c.fwhm == 0.12 for c in signals)
    assert all(c.fwhm == 0.24 for c in idlers)
    assert all(c.diffraction_efficiency == 0.70 for c in signals)
    assert all(c.diffraction_efficiency == 0.90 for c in idlers)
    assert plan.pairs[0][0].center == 798.80


def test_table1_mode_spacing():
    # Frequency spacing between same-side channels, within the quoted
    # measurement uncertainties (235 +/- 84.7 and 239 +/- 89.0 GHz).
    for side, quoted, unc in (("signal", 235.0, 84.7), ("idler", 239.0, 89.0)):
        chans = sorted(build_table1_plan().channels(side), key=lambda c: c.center)
        lam = np.mean([c.center for c in chans])
        dlam = chans[1].center - chans[0].center
        dnu_ghz = C_NM_HZ * dlam / lam**2 / 1e9
        assert abs(dnu_ghz - quoted) < unc


def test_energy_matching_oracle_prefers_crossed_pairing():
    # About the nominal 810 nm center, each signal channel's
    # |nu_s + nu_i - 2 nu_0| minimizer is the crossed partner; the
    # crossed perfect matching also wins in total about the implied
    # 810.05 nm center.
    idlers = (820.77, 821.31)
    nu0 = C_NM_HZ / 810.0
    for s_nm, expect_i in ((798.80, 821.31), (799.32, 820.77)):
        offsets = {i_nm: abs(C_NM_HZ / s_nm + C_NM_HZ / i_nm - 2 * nu0)
                   for i_nm in idlers}
        assert min(offsets, key=offsets.get) == expect_i
    nu0b = C_NM_HZ / 810.05

    def total(pairing):
        return sum(abs(C_NM_HZ / s + C_NM_HZ / i - 2 * nu0b) for s, i in pairing)

    crossed = [(798.80, 821.31), (799.32, 820.77)]
    labeled = [(798.80, 820.77), (799.32, 821.31)]
    assert total(crossed) < total(labeled)

    plan = build_table1_plan()
    assert {(s.center, i.center) for s, i in plan.pairs} == set(crossed)
    # Wavelength-form mismatch within the default tolerance.
    assert np.max(np.abs(energy_mismatches(plan))) <= plan.tolerance


def test_labeling_report_flags_discrepancy():
    rep = table1_labeling_report()
    assert rep["implied_center_nm"] == pytest.approx(810.05)
    assert min(rep["as_labeled_offsets_ghz"]) > max(rep["energy_matched_offsets_ghz"])


def test_plan_rejects_duplicate_indices():
    s = WavelengthChannel("signal", 1, 799.0, 0.1, 0.7)
    i = WavelengthChannel("idler", 1, 821.0, 0.1, 0.9)
    s2 = WavelengthChannel("signal", 1, 799.5, 0.1, 0.7)
    i2 = WavelengthChannel("idler", 1, 820.5, 0.1, 0.9)
    with pytest.raises(ValueError, match="unique"):
        ChannelPlan(pairs=((s, i), (s2, i2)), spdc_center=810.0)


def test_plan_rejects_energy_mismatch():
    s = WavelengthChannel("signal", 1, 799.0, 0.1, 0.7)
    i = WavelengthChannel("idler", 1, 821.5, 0.1, 0.9)
    with pytest.raises(ValueError, match="energy-matched"):
        ChannelPlan(pairs=((s, i),), spdc_center=810.0)


def test_plan_rejects_overlapping_passbands():
    s1 = WavelengthChannel("signal", 1, 799.00, 0.2, 0.7)
    s2 = WavelengthChannel("signal", 2, 799.10, 0.2, 0.7)
    i1 = WavelengthChannel("idler", 1, 821.00, 0.2, 0.9)
    i2 = WavelengthChannel("idler", 2, 820.90, 0.2, 0.9)
    with pytest.raises(ValueError, match="overlap"):
        ChannelPlan(pairs=((s1, i1), (s2, i2)), spdc_center=810.0)


def test_grid_band_count_matches_tiling_arithmetic():
    spacing = 6.25e9
    plan, counts = build_grid_plan(761.0, 970.0, spacing, spacing)
    oracle = int(np.floor((C_NM_HZ / 761 - C_NM_HZ / 970) / spacing))
    assert counts["total_bands"] == oracle
    assert oracle == 13580
    # Window-centered source pairs nearly every band.
    assert abs(counts["paired_channels"] - oracle // 2) <= 1
    assert counts["total_bands"] == 2 * counts["paired_channels"] \
        + counts["unpaired_bands"]


@given(st.integers(0, 60), st.integers(-5, 130))
def test_grid_tiling_pairs_match_mirror_scan(n_bands, mirror):
    tiling = GridTiling(0.0, n_bands, mirror)
    assert list(tiling.signal_bands) == [
        k for k in range(n_bands) if 0 <= mirror - 1 - k < k]


def test_grid_degenerate_single_band():
    width = C_NM_HZ / 761 - C_NM_HZ / 970
    plan, counts = build_grid_plan(761.0, 970.0, width, width)
    assert counts["total_bands"] == 1
    assert counts["paired_channels"] == 0


def test_grid_doubling_spacing_halves_count():
    _, c1 = build_grid_plan(761.0, 970.0, 6.25e9, 6.25e9)
    _, c2 = build_grid_plan(761.0, 970.0, 12.5e9, 12.5e9)
    assert abs(c1["total_bands"] - 2 * c2["total_bands"]) <= 1


def test_grid_rejects_overlapping_spacing():
    with pytest.raises(ValueError, match="spacing"):
        build_grid_plan(761.0, 970.0, 6.25e9, 12.5e9)


def test_grid_reflection_symmetry():
    # Reflecting signal channels about the snapped center frequency maps
    # them onto their idler partners, bijectively.
    plan, _ = build_grid_plan(790.0, 830.0, 50e9, 25e9)
    assert len(plan.pairs) > 100
    nu0 = C_NM_HZ / plan.spdc_center
    for s, i in plan.pairs:
        nu_s = 0.5 * (C_NM_HZ / s.passband[0] + C_NM_HZ / s.passband[1])
        nu_i = 0.5 * (C_NM_HZ / i.passband[0] + C_NM_HZ / i.passband[1])
        assert nu_s + nu_i == pytest.approx(2 * nu0, rel=1e-12)
    sig_idx = [s.index for s, _ in plan.pairs]
    assert len(set(sig_idx)) == len(sig_idx)


def test_grid_signal_side_is_higher_frequency():
    plan, _ = build_grid_plan(790.0, 830.0, 50e9, 50e9)
    for s, i in plan.pairs:
        assert s.center < i.center


def test_demux_center_containment_and_outside():
    plan = build_table1_plan()
    assert demux(798.80, plan) == 1
    assert demux(799.32, plan) == 2
    assert demux(810.0, plan) == -1
    assert demux(798.80 + 0.07, plan) == -1  # just past the edge


def test_demux_monte_carlo_fraction_matches_band_fraction():
    src = table1_source_config(pair_rate=4e6)
    plan = build_table1_plan()
    stream = sample_pair_stream(src, 1.0, seed=17)
    assigned = demux(stream.signal_wavelengths, plan)
    n = len(stream)
    for sig, _ in plan.pairs:
        p = band_fraction(src, sig.center - src.center_wavelength_signal, sig.fwhm)
        count = int(np.sum(assigned == sig.index))
        assert abs(count - n * p) < 4 * np.sqrt(n * p * (1 - p)), sig.index


def test_demux_no_double_assignment():
    src = table1_source_config(pair_rate=1e6)
    plan = build_table1_plan()
    stream = sample_pair_stream(src, 0.2, seed=19)
    wl = stream.signal_wavelengths
    for sig, _ in plan.pairs:
        lo, hi = sig.passband
        inside = (wl >= lo) & (wl <= hi)
        got = demux(wl, plan)
        assert np.all(got[inside] == sig.index)


def test_demux_partner_lands_in_idler_passband():
    # Energy-matched plan: whenever the signal photon falls in a signal
    # passband, the idler falls in the paired idler passband.
    src = table1_source_config(pair_rate=2e6)
    plan = build_table1_plan()
    stream = sample_pair_stream(src, 0.5, seed=23)
    assigned = demux(stream.signal_wavelengths, plan)
    idler_wl = stream.idler_wavelengths
    for sig, idl in plan.pairs:
        sel = assigned == sig.index
        assert sel.any()
        lo, hi = idl.passband
        assert np.all((idler_wl[sel] >= lo) & (idler_wl[sel] <= hi))


def test_coherence_time_values():
    assert coherence_time(6.25e9) == pytest.approx(50e-12, rel=1e-12)
    assert coherence_time(12.5e9) == pytest.approx(25e-12, rel=1e-12)
    assert coherence_time(6.25e9) < 1e-9 / 10  # far below the 1 ns window


def test_coherence_time_rejects_nonpositive():
    with pytest.raises(ValueError):
        coherence_time(0.0)


def test_plan_csv_and_dict_roundtrip():
    plan = build_table1_plan()
    csv_text = plan_to_csv(plan)
    lines = csv_text.strip().splitlines()
    assert lines[0] == "index,side,center_nm,fwhm_nm,efficiency"
    assert len(lines) == 1 + 2 * len(plan.pairs)
    again = plan_from_dict(plan_to_dict(plan))
    assert [(s.center, i.center) for s, i in again.pairs] == \
        [(s.center, i.center) for s, i in plan.pairs]


def test_demux_single_pair_event():
    plan = build_table1_plan()
    # one pair at channel 1's center, one 5 nm off the plan's signal center
    assert demux(798.80, plan).shape == ()
    assert demux([798.80, plan.signal_cwl + 5.0], plan).tolist() == [1, -1]

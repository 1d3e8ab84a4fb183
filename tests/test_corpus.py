"""Corpus generators: waves, packet trains, block sums, and the registry."""

import math

import numpy as np
import pytest

from circlewarp import (
    ResolutionError,
    SampledFunction,
    partial_sum,
    sup_partial_sums,
)
from circlewarp.corpus import (
    CorpusSpec,
    fejer_blocks,
    oscillation,
    resonant_packets,
    tapered_oscillation,
)


def grid(m):
    return np.arange(1 << m) / (1 << m)


# --- abrupt oscillation -----------------------------------------------------


def test_single_cycle_is_one_arch():
    f = oscillation(1, 0.5, m=10)
    t = grid(10)
    inside = t <= 0.5
    assert np.all(f.values[inside] >= -1e-12)
    assert f.values[256] == pytest.approx(1.0, abs=1e-12)  # t = 1/4, phase pi/2
    assert np.all(f.values[~inside] == 0.0)


def test_cutoff_value_is_sin_of_full_phase():
    # count convention ends on a zero crossing, literal generally does not
    assert abs(oscillation(1, 0.5, m=10).values[512]) < 1e-12
    f = oscillation(1, 0.5, m=10, convention="literal")
    assert f.values[512] == pytest.approx(math.sin(1.0), abs=1e-12)


def test_oscillation_sign_changes_match_cycle_count():
    f = oscillation(5, 0.5, m=12)
    s = np.sign(f.values[np.abs(f.values) > 1e-9])
    assert int(np.sum(s[1:] != s[:-1])) == 4  # 5 arches alternate 4 times


def test_oscillation_rejects_bad_arguments():
    with pytest.raises(ValueError):
        oscillation(0, 0.5)
    with pytest.raises(ValueError):
        oscillation(2, 1.0)
    with pytest.raises(ValueError):
        oscillation(2, 0.5, convention="verbal")


# --- tapered oscillation ------------------------------------------------------


def test_taper_agrees_on_first_two_thirds():
    raw = oscillation(8, 0.6, m=12)
    smooth = tapered_oscillation(8, 0.6, m=12)
    t = grid(12)
    early = t <= 2 * 0.6 / 3
    assert np.array_equal(raw.values[early], smooth.values[early])
    assert not np.array_equal(raw.values, smooth.values)


def test_taper_envelope_vanishes_at_cutoff():
    # literal convention leaves sin(1) at the cutoff; the envelope kills it
    f = tapered_oscillation(1, 0.5, m=10, convention="literal")
    assert f.values[512] == 0.0


def test_taper_never_exceeds_the_raw_wave():
    raw = oscillation(6, 0.5, m=12)
    smooth = tapered_oscillation(6, 0.5, m=12)
    assert np.all(np.abs(smooth.values) <= np.abs(raw.values) + 1e-15)


# --- resonant packets -------------------------------------------------------


def test_single_packet_is_degenerate():
    f = resonant_packets(1, m=10)
    assert np.all(f.values == 0.0)


def test_default_decay_keeps_packets_disjoint():
    a = [math.factorial(k) ** -3.0 for k in range(1, 9)]
    for k in range(2, 9):
        assert k * a[k - 1] < a[k - 2]
    resonant_packets(8, m=14)  # and the generator accepts the full depth


def test_overlapping_scales_rejected():
    with pytest.raises(ValueError):
        resonant_packets(2, m=10, decay=[0.5, 0.3])  # 2 * 0.3 > 0.5
    with pytest.raises(ValueError):
        resonant_packets(2, m=10, decay=[0.5])  # wrong length
    with pytest.raises(ValueError):
        resonant_packets(2, m=10, decay=[0.5, -0.1])


def test_zero_outside_packet_supports():
    decay = [1 / 8, 1 / 32, 3 / 512, 1 / 768]
    f = resonant_packets(4, m=14, decay=decay)
    t = grid(14)
    support = np.zeros(f.size, dtype=bool)
    for k in range(2, 5):
        a = decay[k - 1]
        support |= (t >= a) & (t <= k * a)
    assert np.all(f.values[~support] == 0.0)
    assert np.max(np.abs(f.values)) == pytest.approx(1.0, abs=1e-6)


def _packet_response(f, freq, lo, hi):
    """Localized sup of S_r f over one packet's support, below and above
    the packet's resonant frequency."""
    t = np.arange(f.size) / f.size
    mask = (t >= lo) & (t <= hi)
    below = float(np.max(np.abs(partial_sum(f, freq // 4).values[mask])))
    above = float(np.max(np.abs(partial_sum(f, 2 * freq).values[mask])))
    return below, above


def test_each_packet_reconstructs_at_its_own_degree():
    # packet k spans k half-arches over width (k-1) a_k, so it resonates
    # near r = k / (2 (k-1) a_k); S_r barely sees it at r = f/4 and has
    # rebuilt it by r = 2f
    decay = [1 / 8, 1 / 32, 3 / 512, 1 / 768]
    f = resonant_packets(4, m=14, decay=decay)
    for k, freq in ((2, 32), (3, 128), (4, 512)):
        a = decay[k - 1]
        below, above = _packet_response(f, freq, a, k * a)
        assert below < 0.5, (k, below)
        assert above >= 0.95, (k, above)


def test_default_decay_packet_transitions():
    f = resonant_packets(3, m=14)
    for k, freq in ((2, 8), (3, 162)):
        a = math.factorial(k) ** -3.0
        below, above = _packet_response(f, freq, a, k * a)
        assert below < 0.5 and above >= 0.95


# --- fejer blocks ----------------------------------------------------------


def test_no_blocks_is_zero():
    f = fejer_blocks(0, m=10)
    assert np.all(f.values == 0.0)


def test_block_jumps_shrink_under_refinement():
    jumps = []
    for m in (10, 12, 14):
        f = fejer_blocks(6, m=m)
        jumps.append(float(np.max(np.abs(np.diff(f.values)))))
    assert jumps[0] > jumps[1] > jumps[2]
    assert jumps[2] == pytest.approx(0.1277, rel=1e-2)
    for a, b in zip(jumps, jumps[1:]):
        assert 3.0 < a / b < 5.0  # trig polynomial: jump tracks the grid step


def test_partial_sum_peak_grows_with_block_count():
    peaks = []
    for bc in (2, 4, 6):
        f = fejer_blocks(bc, m=14)
        table = sup_partial_sums(f, range(1, 1200))
        peaks.append(max(s for _, s in table))
    assert peaks[0] < peaks[1] < peaks[2]
    assert peaks[0] == pytest.approx(1.0000, rel=1e-3)
    assert peaks[1] == pytest.approx(1.0460, rel=1e-3)
    assert peaks[2] == pytest.approx(1.1258, rel=1e-3)


def test_blocks_need_resolution():
    with pytest.raises(ResolutionError):
        fejer_blocks(7, m=10)


# --- shared invariants -------------------------------------------------------


def test_all_outputs_bounded_by_one():
    outputs = [
        oscillation(8, 0.5, m=12),
        tapered_oscillation(8, 0.5, m=12),
        resonant_packets(3, m=12),
        fejer_blocks(4, m=12),
    ]
    for f in outputs:
        assert f.sup_norm() <= 1.0 + 1e-12


# --- registry ----------------------------------------------------------------


def test_spec_builds_and_labels():
    spec = CorpusSpec("kk_example", {"k_max": 4}, 12)
    f = spec.build()
    assert isinstance(f, SampledFunction) and f.m == 12
    assert spec.label() == "kk_example(k_max=4)_m12"
    assert CorpusSpec("fejer_blocks", {"block_count": 2}).label() == "fejer_blocks(block_count=2)_m14"


def test_spec_reaches_step_generators():
    assert CorpusSpec("rademacher", {"rank": 3}, 10).build().sup_norm() == 1.0
    g = CorpusSpec("perturbed_square", {"rank": 3, "jitter": 0.5, "seed": 1}, 10).build()
    assert set(np.unique(g.values)) <= {-1.0, 1.0}


def test_spec_rejects_unknown_kind():
    with pytest.raises(ValueError, match="valid kinds"):
        CorpusSpec("sawtooth", {}, 10)


def test_spec_rejects_bad_params():
    with pytest.raises(ValueError, match="bad parameters"):
        CorpusSpec("oscillation", {"bogus": 3}, 10).build()

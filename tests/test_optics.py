"""Splitter-tree transfer matrices and threshold-detector click statistics."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qfnet.core import (
    ChannelModel,
    DomainError,
    Encoding,
    ProtocolParams,
    Relationship,
    RunConfig,
    run_pairing,
)
from qfnet.optics import (
    complement_rows,
    oracle_click_profile,
    region_click_matrix,
    transfer_rows,
)

S2 = 1 / math.sqrt(2)


def test_transfer_rows_two_ports():
    np.testing.assert_allclose(
        transfer_rows(2), np.array([[S2, S2], [S2, -S2]]), atol=1e-15
    )


def test_transfer_rows_four_ports():
    # row layout: total sum, left-pair tap, pair difference, right-pair tap
    want = np.array(
        [
            [0.5, 0.5, 0.5, 0.5],
            [S2, -S2, 0, 0],
            [0.5, 0.5, -0.5, -0.5],
            [0, 0, S2, -S2],
        ]
    )
    np.testing.assert_allclose(transfer_rows(4), want, atol=1e-15)


@pytest.mark.parametrize("n", [2, 4, 8, 16])
def test_transfer_rows_orthonormal(n):
    rows = transfer_rows(n)
    np.testing.assert_allclose(rows @ rows.T, np.eye(n), atol=1e-12)


def test_transfer_rows_rejects_bad_port_counts():
    for n in (0, 1, 3, 6):
        with pytest.raises(DomainError):
            transfer_rows(n)


def test_complement_rows_pair_each_output():
    # complement row i is the other output port of the final splitter that
    # feeds detector i: same support, orthogonal, unit norm
    for n in (2, 4, 8):
        rows = transfer_rows(n)
        comp = complement_rows(n)
        for i in range(n):
            assert np.linalg.norm(comp[i]) == pytest.approx(1.0, abs=1e-12)
            assert abs(rows[i] @ comp[i]) < 1e-12


def test_complement_rows_four_ports_explicit():
    comp = complement_rows(4)
    rows = transfer_rows(4)
    np.testing.assert_allclose(comp[0], rows[2], atol=1e-15)
    np.testing.assert_allclose(comp[2], rows[0], atol=1e-15)
    np.testing.assert_allclose(comp[1], [S2, S2, 0, 0], atol=1e-15)
    np.testing.assert_allclose(comp[3], [0, 0, S2, S2], atol=1e-15)


def _complement_rows_by_recursion(n):
    # reference: each level's complement rows built from the level below,
    # as the other outputs of the splitters
    if n == 2:
        return np.array([[1.0, -1.0], [1.0, 1.0]]) / math.sqrt(2.0)
    sub_sum, zeros = transfer_rows(n // 2)[0], np.zeros(n // 2)
    half_c = _complement_rows_by_recursion(n // 2)
    rows = [np.concatenate([sub_sum, -sub_sum]) / math.sqrt(2.0)]
    rows += [np.concatenate([r, zeros]) for r in half_c[1:]]
    rows.append(np.concatenate([sub_sum, sub_sum]) / math.sqrt(2.0))
    rows += [np.concatenate([zeros, r]) for r in half_c[1:]]
    return np.array(rows)


@pytest.mark.parametrize("n", [2, 4, 8, 16])
def test_complement_rows_equal_the_recursive_tree(n):
    assert complement_rows(n).tobytes() == _complement_rows_by_recursion(n).tobytes()


def test_tree_transfer_interference_extremes():
    rows = transfer_rows(2)
    equal = np.abs(rows @ np.array([0.3, 0.3])) ** 2
    assert equal[0] == pytest.approx(2 * 0.3**2, rel=1e-12)
    assert equal[1] == pytest.approx(0.0, abs=1e-15)
    flipped = np.abs(rows @ np.array([0.3, -0.3])) ** 2
    assert flipped[0] == pytest.approx(0.0, abs=1e-15)
    assert flipped[1] == pytest.approx(2 * 0.3**2, rel=1e-12)


def test_tree_transfer_single_flip_four_ports():
    a = 0.7
    out = np.abs(transfer_rows(4) @ (a * np.array([1.0, 1.0, 1.0, -1.0]))) ** 2
    np.testing.assert_allclose(out, [a**2, 0.0, a**2, 2 * a**2], atol=1e-12)
    assert out.sum() == pytest.approx(4 * a**2, rel=1e-12)


@given(
    st.integers(1, 3),
    st.lists(st.floats(0, 10), min_size=8, max_size=8),
    st.lists(st.booleans(), min_size=8, max_size=8),
)
def test_tree_transfer_conserves_energy(log_n, amps, flips):
    n = 2**log_n
    fields = np.array([-a if f else a for a, f in zip(amps[:n], flips[:n])])
    out = np.abs(transfer_rows(n) @ fields) ** 2
    assert out.sum() == pytest.approx(sum(a * a for a in amps[:n]), abs=1e-9)


# --- click probability ------------------------------------------------------


def _two_party_clicks(a1, a2=None, visibility=1.0, dark_count=0.0):
    # Two equal senders with per-pulse field amplitudes a1, a2 at the ports:
    # one region, D1 sees (a1 + a2)**2 / 2 and its complement (a1 - a2)**2 / 2.
    a2 = a1 if a2 is None else a2
    pp = ProtocolParams(n=1000, c=2.0, delta=0.22, epsilon=1e-3, N=2)
    ch = ChannelModel(eta=(1.0, 1.0), dark_count=dark_count, visibility=visibility)
    scale = math.sqrt(pp.m)
    run = RunConfig(alphas=(a1 * scale, a2 * scale), pairing=(1, 2), thresholds=(0,))
    rel = Relationship.from_label("AA")
    weights, probs = region_click_matrix(rel, run, ch, pp)
    assert weights == (1.0,)
    return probs[0], tuple(law.p for law in oracle_click_profile(rel, run, ch, pp))


def test_click_probability_edges():
    probs, _ = _two_party_clicks(0.0)
    assert probs.tolist() == [0.0, 0.0]  # no light, no clicks
    _, oracle = _two_party_clicks(0.0, dark_count=1e-7)
    assert oracle == pytest.approx((1e-7, 1e-7))  # dark counts on top
    probs, _ = _two_party_clicks(5.0)  # I = 50 at D1
    assert probs[0] == pytest.approx(1.0, abs=1e-12)
    _, oracle = _two_party_clicks(3e4, dark_count=0.5)
    assert oracle[0] == 1.0  # clamped


def test_click_probability_small_intensity_is_linear():
    # 1 - exp(-I) ~= I must survive at intensities far below float epsilon
    for i in (1e-9, 1e-12, 1e-15):
        probs, _ = _two_party_clicks(math.sqrt(i / 2))
        assert probs[0] == pytest.approx(i, rel=1e-6)


def test_click_probability_visibility_mixing():
    a1, a2, nu, dark = 1.0, 0.5, 0.97, 1e-5
    i, ic = (a1 + a2) ** 2 / 2, (a1 - a2) ** 2 / 2
    probs, oracle = _two_party_clicks(a1, a2, visibility=nu, dark_count=dark)
    want = nu * (1 - math.exp(-i)) + (1 - nu) * (1 - math.exp(-ic))
    assert probs[0] == pytest.approx(want, rel=1e-12)
    # D2 sits on the complement port of D1's splitter
    want_2 = nu * (1 - math.exp(-ic)) + (1 - nu) * (1 - math.exp(-i))
    assert probs[1] == pytest.approx(want_2, rel=1e-12)
    assert oracle[0] == pytest.approx(want + dark, rel=1e-12)


def test_click_probability_validation():
    pp, ch, run = _four_party_setup()
    with pytest.raises(DomainError):  # sizes must agree
        region_click_matrix(Relationship.from_label("AB"), run, ch, pp)
    two_bit = RunConfig(
        alphas=run.alphas, pairing=run.pairing, thresholds=run.thresholds,
        encoding=Encoding.TWO_BIT,
    )
    with pytest.raises(DomainError):  # two-bit encoding pairs two senders only
        region_click_matrix(Relationship.from_label("AABC"), two_bit, ch, pp)
    with pytest.raises(DomainError, match="2 or 4 senders"):
        region_click_matrix(Relationship.from_label("AAB"), run, ch, pp)


@given(st.floats(0, 5), st.floats(0, 5))
def test_click_probability_monotone_in_intensity(i1, i2):
    lo, hi = sorted((i1, i2))
    p_lo, _ = _two_party_clicks(math.sqrt(lo / 2))
    p_hi, _ = _two_party_clicks(math.sqrt(hi / 2))
    assert p_lo[0] <= p_hi[0] + 1e-15


# --- enumeration oracle sanity ----------------------------------------------


def _four_party_setup():
    pp = ProtocolParams(n=1000, c=2.0, delta=0.22, epsilon=1e-3, N=4)
    ch = ChannelModel(eta=(0.5, 0.5, 0.5, 0.5), dark_count=1e-6)
    run = RunConfig(
        alphas=(3.0, 3.0, 3.0, 3.0),
        pairing=run_pairing(1),
        thresholds=(0, 0, 0),
    )
    return pp, ch, run


def test_oracle_profile_shape_and_range():
    pp, ch, run = _four_party_setup()
    prof = oracle_click_profile(Relationship.from_label("AABC"), run, ch, pp)
    assert len(prof) == 4
    assert all(law.pulses == pp.m for law in prof)
    assert all(0.0 <= law.p <= 1.0 for law in prof)


def test_oracle_all_equal_difference_ports_see_dark_only():
    pp, ch, run = _four_party_setup()
    prof = oracle_click_profile(Relationship.from_label("AAAA"), run, ch, pp)
    # with perfect visibility the difference ports click on dark counts only
    for d in (1, 2, 3):
        assert prof[d].p == pytest.approx(ch.dark_count, rel=1e-12)
    assert prof[0].p > ch.dark_count


def test_oracle_size_mismatch_rejected():
    pp, ch, run = _four_party_setup()
    with pytest.raises(DomainError):
        oracle_click_profile(Relationship.from_label("AB"), run, ch, pp)

"""Closed-form click probabilities: visibility, dark counts, encodings.

The published formulas have the shape

    P = delta_frac * (1 - exp(-I_bright)) + rest * (1 - exp(-I_dim)) + P_d

per detector; these tests pin each model to that shape written out by hand,
check the asymmetric four-party route degenerates to the symmetric one, and
pin every profile of a small seeded grid bit for bit.
"""

import collections
import hashlib
import math
import random

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
    enumerate_relationships,
    run_pairing,
)
from qfnet.optics import oracle_click_profile
from qfnet.probmodel import (
    four_party_asymmetric,
    four_party_symmetric,
    two_party_asymmetric,
)


def p_click(intensity):
    return 1.0 - math.exp(-intensity)


def make_pp(n=1000, c=2.0, delta=0.22, N=4):
    return ProtocolParams(n=n, c=c, delta=delta, epsilon=1e-3, N=N)


# --- four-party, equal channels ----------------------------------------------


def test_equal_diff_closed_forms():
    pp = make_pp()
    ch = ChannelModel(eta=(0.3, 0.3, 0.3, 0.3), dark_count=1e-6)
    mu = 50.0
    e1 = 0.3 * mu / pp.m
    d = pp.delta
    eq, df = four_party_asymmetric(1, (math.sqrt(mu),) * 4, ch, pp)
    # perfect visibility: equal-condition difference ports see dark only
    for law in eq:
        assert law.p == pytest.approx(ch.dark_count, rel=1e-12)
    want_d2 = d * p_click(2 * e1) + ch.dark_count
    want_d3 = d * p_click(e1) + ch.dark_count
    assert df[0].p == pytest.approx(want_d2, rel=1e-12)
    assert df[1].p == pytest.approx(want_d3, rel=1e-12)
    assert df[2].p == pytest.approx(want_d2, rel=1e-12)


def test_equal_diff_with_reduced_visibility():
    pp = make_pp()
    ch = ChannelModel(eta=(0.3,) * 4, dark_count=1e-6, visibility=0.98)
    mu, nu, d = 50.0, 0.98, pp.delta
    e1 = 0.3 * mu / pp.m
    eq, df = four_party_asymmetric(1, (math.sqrt(mu),) * 4, ch, pp)
    # equal condition: the bright complement leaks through with weight 1 - nu
    assert eq[0].p == pytest.approx(
        (1 - nu) * p_click(2 * e1) + ch.dark_count, rel=1e-12
    )
    assert eq[1].p == pytest.approx(
        (1 - nu) * p_click(4 * e1) + ch.dark_count, rel=1e-12
    )
    want_d2 = d * nu * p_click(2 * e1) + (1 - d) * (1 - nu) * p_click(2 * e1) + ch.dark_count
    assert df[0].p == pytest.approx(want_d2, rel=1e-12)


def test_symmetric_profile_aabb():
    pp = make_pp()
    ch = ChannelModel(eta=(0.5,) * 4, dark_count=1e-7)
    mu, d = 30.0, pp.delta
    e1 = 0.5 * mu / pp.m
    prof = four_party_symmetric(Relationship.from_label("AABB"), mu, ch, pp)
    assert prof[0].p == pytest.approx(
        (1 - d) * p_click(4 * e1) + ch.dark_count, rel=1e-12
    )
    assert prof[1].p == pytest.approx(ch.dark_count, rel=1e-12)
    assert prof[2].p == pytest.approx(
        d * p_click(4 * e1) + ch.dark_count, rel=1e-12
    )
    assert prof[3].p == pytest.approx(ch.dark_count, rel=1e-12)


def test_symmetric_profile_aabc():
    pp = make_pp()
    ch = ChannelModel(eta=(0.5,) * 4, dark_count=0.0)
    mu, d = 30.0, pp.delta
    e1 = 0.5 * mu / pp.m
    prof = four_party_symmetric(Relationship.from_label("AABC"), mu, ch, pp)
    assert prof[0].p == pytest.approx(
        (1 - 1.5 * d) * p_click(4 * e1) + d * p_click(e1), rel=1e-12
    )
    assert prof[1].p == pytest.approx(0.0, abs=1e-15)
    assert prof[2].p == pytest.approx(
        d * p_click(e1) + 0.5 * d * p_click(4 * e1), rel=1e-12
    )
    assert prof[3].p == pytest.approx(d * p_click(2 * e1), rel=1e-12)


def test_symmetric_profile_swaps_with_pairing():
    pp = make_pp()
    ch = ChannelModel(eta=(0.5,) * 4)
    rel = Relationship.from_label("AABB")
    # swapping senders 2,3 turns the pair split into per-pair mismatches
    prof = four_party_symmetric(rel, 30.0, ch, pp, pairing=run_pairing(2))
    e1 = 0.5 * 30.0 / pp.m
    assert prof[1].p == pytest.approx(pp.delta * p_click(2 * e1), rel=1e-12)
    assert prof[3].p == pytest.approx(pp.delta * p_click(2 * e1), rel=1e-12)


def test_symmetric_profile_rejects_unequal_channels():
    pp = make_pp()
    ch = ChannelModel(eta=(0.5, 0.5, 0.5, 0.4))
    with pytest.raises(DomainError):
        four_party_symmetric(Relationship.from_label("AABB"), 30.0, ch, pp)
    with pytest.raises(DomainError, match="mu"):
        four_party_symmetric(Relationship.from_label("AABB"), -1.0, ChannelModel((0.5,) * 4), pp)


# --- two-party ---------------------------------------------------------------


def test_two_party_single_bit_formulas():
    pp = make_pp(N=2)
    alphas = (85.0, 78.0)
    b1, b2 = 0.3 * 85.0, 0.4 * 78.0
    m, d = pp.m, pp.delta
    i_diff, i_sum = (b1 - b2) ** 2 / (2 * m), (b1 + b2) ** 2 / (2 * m)
    ch = ChannelModel.from_sqrt_eta((0.3, 0.4), dark_count=1e-8)
    eq, df = two_party_asymmetric(alphas, ch, pp)
    assert eq[0].pulses == m
    assert eq[0].p == pytest.approx(p_click(i_diff) + ch.dark_count, rel=1e-12)
    want_df = d * p_click(i_sum) + (1 - d) * p_click(i_diff) + ch.dark_count
    assert df[0].p == pytest.approx(want_df, rel=1e-12)
    # visibility 0: all light leaves by the complement, so the direct and
    # complement intensities trade places
    ch = ChannelModel.from_sqrt_eta((0.3, 0.4), dark_count=1e-8, visibility=0.0)
    eq, df = two_party_asymmetric(alphas, ch, pp)
    assert eq[0].p == pytest.approx(p_click(i_sum) + ch.dark_count, rel=1e-12)
    want_df = d * p_click(i_diff) + (1 - d) * p_click(i_sum) + ch.dark_count
    assert df[0].p == pytest.approx(want_df, rel=1e-12)


def test_two_party_two_bit_formulas():
    pp = make_pp(N=2)
    ch = ChannelModel.from_sqrt_eta((0.3, 0.4), dark_count=1e-8)
    b1, b2 = 0.3 * 69.0, 0.4 * 70.0
    m, d = pp.m, pp.delta
    eq, df = two_party_asymmetric((69.0, 70.0), ch, pp, encoding=Encoding.TWO_BIT)
    assert eq[0].pulses == m // 2
    assert eq[0].p == pytest.approx(
        p_click((b1 - b2) ** 2 / m) + ch.dark_count, rel=1e-12
    )
    want_df = (
        (1 - d) ** 2 * p_click((b1 - b2) ** 2 / m)
        + 2 * d * (1 - d) * p_click((b1**2 + b2**2) / m)
        + d**2 * p_click((b1 + b2) ** 2 / m)
        + ch.dark_count
    )
    assert df[0].p == pytest.approx(want_df, rel=1e-12)


def test_two_party_needs_two_senders():
    pp = make_pp(N=4)
    ch = ChannelModel(eta=(0.5,) * 4)
    with pytest.raises(DomainError):
        two_party_asymmetric((1.0, 2.0), ch, pp)


# --- four-party, per-sender amplitudes ---------------------------------------


def split_off(sender):
    return Relationship.from_label("".join("B" if s == sender else "A" for s in range(1, 5)))


def test_asymmetric_degenerates_to_symmetric():
    """Equal amplitudes on equal channels: Equal is the AAAA row, and each
    observed detector's Different is its row under a single-sender split that
    the detector sees (detector 2: port j, detector 3: any, detector 4: port
    l)."""
    pp = make_pp()
    ch = ChannelModel(eta=(0.3,) * 4, dark_count=1e-9, visibility=0.99)
    mu = 40.0
    for run_index in (1, 2, 3):
        pairing = run_pairing(run_index)
        eq, df = four_party_asymmetric(run_index, (math.sqrt(mu),) * 4, ch, pp)
        aaaa = four_party_symmetric(Relationship.from_label("AAAA"), mu, ch, pp, pairing)
        for got, want in zip(eq, aaaa[1:]):
            assert got.p == pytest.approx(want.p, rel=1e-13)
        for d, split in ((0, pairing[1]), (1, pairing[0]), (1, pairing[2]), (2, pairing[3])):
            want = four_party_symmetric(split_off(split), mu, ch, pp, pairing)
            assert df[d].p == pytest.approx(want[d + 1].p, rel=1e-13)


def test_asymmetric_closed_form_detector2():
    pp = make_pp()
    ch = ChannelModel.from_sqrt_eta((0.3, 0.4, 0.5, 0.6), dark_count=1e-9)
    alphas = (109.0, 109.0, 69.0, 69.0)
    b = [s * a for s, a in zip(ch.sqrt_eta, alphas)]
    m, d = pp.m, pp.delta
    eq, df = four_party_asymmetric(1, alphas, ch, pp)
    assert eq[0].p == pytest.approx(
        p_click((b[0] - b[1]) ** 2 / (2 * m)) + ch.dark_count, rel=1e-12
    )
    assert df[0].p == pytest.approx(
        d * p_click((b[0] + b[1]) ** 2 / (2 * m))
        + (1 - d) * p_click((b[0] - b[1]) ** 2 / (2 * m))
        + ch.dark_count,
        rel=1e-12,
    )
    assert df[2].p == pytest.approx(
        d * p_click((b[2] + b[3]) ** 2 / (2 * m))
        + (1 - d) * p_click((b[2] - b[3]) ** 2 / (2 * m))
        + ch.dark_count,
        rel=1e-12,
    )


@given(st.lists(st.floats(1.0, 120.0), min_size=4, max_size=4))
def test_asymmetric_detector3_uses_the_adversarial_flip(alphas):
    """The Different hypothesis at the middle port flips whichever single
    sender leaves the smallest field imbalance."""
    pp = make_pp()
    ch = ChannelModel.from_sqrt_eta((0.3, 0.4, 0.5, 0.6))
    bi, bj, bk, bl = (s * a for s, a in zip(ch.sqrt_eta, alphas))
    x = min(
        abs(-bi + bj - bk - bl),
        abs(bi - bj - bk - bl),
        abs(bi + bj + bk - bl),
        abs(bi + bj - bk + bl),
    )
    base = (bi + bj - bk - bl) ** 2 / (4 * pp.m)
    want = pp.delta * p_click(x**2 / (4 * pp.m)) + (1 - pp.delta) * p_click(base)
    _, df = four_party_asymmetric(1, alphas, ch, pp)
    assert df[1].p == pytest.approx(want, rel=1e-11, abs=1e-18)


@given(
    st.integers(1, 3),
    st.lists(st.floats(0.05, 1.0), min_size=4, max_size=4),
    st.lists(st.floats(0.0, 60.0), min_size=4, max_size=4),
    st.floats(0.0, 1e-3),
)
def test_asymmetric_detector3_is_the_worst_single_flip(run_index, eta, alphas, dark):
    """At visibility 1 the detector-3 Different probability is the smallest
    over the four single-sender splits the oracle enumerates."""
    pp = make_pp(n=50_000)
    ch = ChannelModel(eta=tuple(eta), dark_count=dark)
    run = RunConfig(alphas=tuple(alphas), pairing=run_pairing(run_index), thresholds=(1, 1, 1))
    _, df = four_party_asymmetric(run_index, alphas, ch, pp)
    worst = min(
        oracle_click_profile(split_off(s), run, ch, pp)[2].p for s in range(1, 5)
    )
    assert df[1].p == pytest.approx(worst, rel=0.0, abs=1e-15)


def test_asymmetric_validates_amplitudes_and_run_index():
    pp = make_pp()
    ch = ChannelModel(eta=(0.5,) * 4)
    for alphas in ((1.0,) * 3, (1.0, 1.0, -1.0, 1.0), (1.0, math.nan, 1.0, 1.0)):
        with pytest.raises(DomainError):
            four_party_asymmetric(1, alphas, ch, pp)
    with pytest.raises(DomainError):
        four_party_asymmetric(4, (1.0,) * 4, ch, pp)  # four senders have runs 1..3
    with pytest.raises(DomainError):
        four_party_asymmetric(1, (1.0,) * 4, ChannelModel(eta=(0.5,) * 2), pp)


# --- pinned closed forms -----------------------------------------------------

# sha256 of the repr of every profile _pinned_profiles() builds.  A rewrite of
# the closed forms that changes any probability by one ulp changes the digest,
# so a refactor of probmodel must leave it alone.
_PINNED_PROFILES = "c903776c000f1d1855e04ff389c6a443c0b81775a00b49e581a0fe149fa054b6"

# The digest was pinned when a model returned one ClickProfile(per_detector,
# pulses) per hypothesis; each tuple of count laws is hashed in that repr.
_Pinned = collections.namedtuple("ClickProfile", "per_detector pulses")


def _pinned(laws):
    (pulses,) = {law.pulses for law in laws}
    return _Pinned(tuple(law.p for law in laws), pulses)


def _pinned_profiles():
    rng = random.Random(20250819)
    pp4, pp2 = make_pp(), make_pp(N=2)
    out = []
    for nu in (0.0, 0.97, 1.0):
        for dark in (0.0, 1e-6):
            for _ in range(2):
                eta = tuple(rng.uniform(0.05, 1.0) for _ in range(4))
                alphas = tuple(rng.uniform(1.0, 60.0) for _ in range(4))
                ch4 = ChannelModel(eta, dark, nu)
                for run_index in (1, 2, 3):
                    pair = four_party_asymmetric(run_index, alphas, ch4, pp4)
                    out.append(tuple(map(_pinned, pair)))
                ch2 = ChannelModel(eta[:2], dark, nu)
                for encoding in Encoding:
                    pair = two_party_asymmetric(alphas[:2], ch2, pp2, encoding)
                    out.append(tuple(map(_pinned, pair)))
                sym = ChannelModel((eta[0],) * 4, dark, nu)
                mu = rng.uniform(1.0, 3000.0)
                for rel in enumerate_relationships(4):
                    for run_index in (1, 2, 3):
                        laws = four_party_symmetric(rel, mu, sym, pp4, run_pairing(run_index))
                        out.append(_pinned(laws))
    return out


def test_closed_form_profiles_are_pinned():
    digest = hashlib.sha256(repr(_pinned_profiles()).encode()).hexdigest()
    assert digest == _PINNED_PROFILES

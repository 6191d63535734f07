"""Relationship algebra, worst-case pattern geometry, protocol parameters."""

import dataclasses
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
    check_network,
    check_schedule,
    enumerate_relationships,
    observed_detectors,
    relationship_profile,
    run_pairing,
    worst_case_regions,
)
from qfnet.decision import run_budget

BELL = {2: 2, 3: 5, 4: 15, 5: 52, 6: 203}


def partitions_bruteforce(n):
    """Set partitions of {1..n} by direct recursion, independent of the
    restricted-growth-string enumeration under test."""

    def rec(elems):
        if not elems:
            yield []
            return
        first, rest = elems[0], elems[1:]
        for sub in rec(rest):
            for i in range(len(sub)):
                yield sub[:i] + [sub[i] | {first}] + sub[i + 1 :]
            yield [{first}] + sub

    return rec(list(range(1, n + 1)))


# --- enumeration -----------------------------------------------------------


@pytest.mark.parametrize("n", sorted(BELL))
def test_enumeration_count_is_bell(n):
    assert len(enumerate_relationships(n)) == BELL[n]


@pytest.mark.parametrize("n", sorted(BELL))
def test_enumeration_matches_bruteforce(n):
    got = {frozenset(r.groups) for r in enumerate_relationships(n)}
    want = {frozenset(frozenset(g) for g in p) for p in partitions_bruteforce(n)}
    assert got == want


def test_enumeration_order_and_endpoints():
    rels = enumerate_relationships(4)
    labels = [r.canonical_label for r in rels]
    assert labels == sorted(labels)
    assert labels[0] == "AAAA"
    assert labels[-1] == "ABCD"
    assert len(set(labels)) == len(labels)


def test_enumeration_bounds():
    with pytest.raises(DomainError):
        enumerate_relationships(1)
    with pytest.raises(DomainError):
        enumerate_relationships(13)
    # n reads as an integer: numpy integers and 4.0 are 4, 4.5 and True no count
    assert enumerate_relationships(np.int64(4)) == enumerate_relationships(4.0)
    assert len(enumerate_relationships(np.int64(4))) == BELL[4]
    for n in (4.5, True):
        with pytest.raises(DomainError, match="n must be integers"):
            enumerate_relationships(n)


# --- labels ----------------------------------------------------------------


def test_from_label_canonicalizes():
    assert Relationship.from_label("BAAC").canonical_label == "ABBC"
    assert Relationship.from_label("zzxy").canonical_label == "AABC"
    assert Relationship.from_label("AABC") == Relationship.from_label("BBAC")


def test_from_label_rejects_junk():
    with pytest.raises(DomainError):
        Relationship.from_label("")
    with pytest.raises(DomainError):
        Relationship.from_label("AB1C")
    with pytest.raises(DomainError):
        Relationship.from_label("A" * 13)
    with pytest.raises(DomainError):
        Relationship.from_label("ßAB")  # upper-cases to SSAB: four senders
    with pytest.raises(DomainError):
        Relationship.from_label("\ufb00")  # the ff ligature upper-cases to FF


def test_display_labels_rank_by_group_size():
    # published table convention: A is always the biggest group
    expected = {
        "ABBB": "BAAA",
        "ABBC": "BAAC",
        "ABCB": "BACA",
        "ABCC": "BCAA",
    }
    for rel in enumerate_relationships(4):
        want = expected.get(rel.canonical_label, rel.canonical_label)
        assert rel.display_label == want


def test_groups_and_sizes():
    rel = Relationship.from_label("ABCA")
    assert rel.groups == (frozenset({1, 4}), frozenset({2}), frozenset({3}))
    assert rel.group_sizes == (2, 1, 1)
    assert rel.group_of(4) == 0
    assert not rel.all_equal
    assert rel.any_equal
    assert not Relationship.from_label("ABCD").any_equal


@pytest.mark.parametrize("label", ["", "B", "AAC", "ABA ", "aab", ("A", "B"), None])
def test_relationship_rejects_labels_that_are_not_restricted_growth(label):
    with pytest.raises(DomainError, match="restricted growth"):
        Relationship(label)


@pytest.mark.parametrize("n", sorted(BELL))
def test_label_views_match_the_groups(n):
    # each view as computed from the groups themselves, independently of the
    # label the relationship stores
    for rel in enumerate_relationships(n):
        by_letter = {}
        for k, letter in enumerate(rel.canonical_label, start=1):
            by_letter.setdefault(letter, []).append(k)
        groups = tuple(sorted((frozenset(v) for v in by_letter.values()), key=min))
        group_of = {k: i for i, g in enumerate(groups) for k in g}
        order = sorted(range(len(groups)), key=lambda i: (-len(groups[i]), min(groups[i])))
        letter_of_group = {gi: chr(ord("A") + rank) for rank, gi in enumerate(order)}
        assert rel.groups == groups
        assert rel.n == n and rel.num_groups == len(groups)
        assert rel.group_sizes == tuple(sorted((len(g) for g in groups), reverse=True))
        assert [rel.group_of(k) for k in range(1, n + 1)] == [group_of[k] for k in range(1, n + 1)]
        assert rel.display_label == "".join(letter_of_group[group_of[k]] for k in range(1, n + 1))
        assert rel.any_equal == any(len(g) >= 2 for g in groups)
        assert Relationship(rel.canonical_label) == rel
    with pytest.raises(DomainError):
        rel.group_of(n + 1)


@given(st.text(alphabet="ABCD", min_size=2, max_size=8))
def test_canonical_label_is_a_fixed_point(label):
    rel = Relationship.from_label(label)
    again = Relationship.from_label(rel.canonical_label)
    assert again == rel
    assert again.canonical_label == rel.canonical_label


# --- worst-case regions ----------------------------------------------------


def test_regions_all_equal_is_single_region():
    regions = worst_case_regions(Relationship.from_label("AAAA"), 0.22)
    assert len(regions) == 1
    assert regions[0].bits == (0, 0, 0, 0)
    assert regions[0].weight == 1.0


def test_regions_two_party():
    regions = worst_case_regions(Relationship.from_label("AB"), 0.22)
    assert [(r.bits, r.weight) for r in regions] == [((0, 1), 0.22), ((0, 0), 0.78)]


def test_regions_aabc_layout():
    # two non-reference groups: three flip regions of weight delta/2 each
    regions = worst_case_regions(Relationship.from_label("AABC"), 0.22)
    got = [(r.bits, r.weight) for r in regions]
    assert got == [
        ((0, 0, 1, 0), 0.11),
        ((0, 0, 0, 1), 0.11),
        ((0, 0, 1, 1), 0.11),
        ((0, 0, 0, 0), pytest.approx(1 - 0.33)),
    ]


@pytest.mark.parametrize("delta", [0.1, 0.22, 4 / 7])
def test_regions_give_exact_pairwise_distances(delta):
    # every unequal sender pair must differ on exactly a delta fraction
    for rel in enumerate_relationships(4):
        regions = worst_case_regions(rel, delta)
        assert math.isclose(sum(r.weight for r in regions), 1.0, abs_tol=1e-12)
        for a in range(1, 5):
            for b in range(a + 1, 5):
                dist = sum(r.weight for r in regions if r.bits[a - 1] != r.bits[b - 1])
                want = 0.0 if rel.group_of(a) == rel.group_of(b) else delta
                assert math.isclose(dist, want, abs_tol=1e-12), (rel, a, b)


def test_regions_infeasible_delta_rejected():
    abcd = Relationship.from_label("ABCD")
    with pytest.raises(DomainError):
        worst_case_regions(abcd, 0.6)  # 7 * 0.6 / 4 > 1
    worst_case_regions(abcd, 4 / 7)  # boundary is fine
    with pytest.raises(DomainError, match="delta"):
        worst_case_regions(abcd, 1.5)


# --- pattern fractions per pairing -----------------------------------------


def test_profile_spec_cases():
    d = 0.22
    aabb = Relationship.from_label("AABB")
    p = relationship_profile(aabb, (1, 2, 3, 4), d)
    assert (p.d12, p.d34, p.d_single, p.d_pairs, p.d_total) == (0, 0, 0, d, d)
    p = relationship_profile(aabb, (1, 3, 2, 4), d)
    assert (p.d12, p.d34, p.d_single, p.d_pairs) == (d, d, 0, 0)
    p = relationship_profile(Relationship.from_label("AABC"), (1, 2, 3, 4), d)
    assert p.d12 == 0
    assert p.d34 == pytest.approx(d)
    assert p.d_single == pytest.approx(d)
    assert p.d_pairs == pytest.approx(d / 2)
    assert p.d_total == pytest.approx(3 * d / 2)
    p = relationship_profile(Relationship.from_label("AAAA"), (1, 2, 3, 4), d)
    assert (p.d12, p.d34, p.d_single, p.d_pairs, p.d_total) == (0, 0, 0, 0, 0)


def test_profile_is_defined_for_four_ports_only():
    with pytest.raises(DomainError, match="4 senders"):
        relationship_profile(Relationship.from_label("AB"), (1, 2), 0.22)


def test_profile_rejects_bad_pairing():
    rel = Relationship.from_label("AABB")
    with pytest.raises(DomainError):
        relationship_profile(rel, (1, 2, 3), 0.2)
    with pytest.raises(DomainError):
        relationship_profile(rel, (1, 1, 2, 3), 0.2)


@given(
    st.sampled_from([r.canonical_label for r in enumerate_relationships(4)]),
    st.integers(1, 3),
    st.floats(0.01, 0.5),
)
def test_profile_fractions_are_consistent(label, run_index, delta):
    p = relationship_profile(
        Relationship.from_label(label), run_pairing(run_index), delta
    )
    for frac in (p.d12, p.d34, p.d_single, p.d_pairs, p.d_total):
        assert -1e-12 <= frac <= 1.0 + 1e-12
    assert p.d_single + p.d_pairs <= p.d_total + 1e-12
    assert max(p.d12, p.d34) <= p.d_total + 1e-12


# --- parameters and run configuration --------------------------------------


def test_protocol_params_codeword_length():
    assert ProtocolParams(n=10, c=2.0, delta=0.2, epsilon=0.01, N=4).m == 20
    assert ProtocolParams(n=int(1e13), c=0.2, delta=0.22, epsilon=0.01, N=4).m == int(2e12)
    # m is computed once per instance; a replaced c gets its own
    pp = ProtocolParams(n=500_000, c=0.2, delta=0.22, epsilon=0.01, N=4)
    assert pp.m == 100_000
    assert dataclasses.replace(pp, c=5.0).m == 2_500_000
    assert pp.m == 100_000
    assert list(dataclasses.asdict(pp)) == ["n", "c", "delta", "epsilon", "N"]


def test_protocol_params_takes_integral_n_and_N():
    want = ProtocolParams(n=500_000, c=0.2, delta=0.22, epsilon=0.01, N=4)
    for n in (500_000.0, np.int64(500_000)):
        pp = ProtocolParams(n=n, c=0.2, delta=0.22, epsilon=0.01, N=np.int64(4))
        assert type(pp.n) is int and type(pp.N) is int
        assert pp.m == want.m and pp == want


def test_protocol_params_warns_on_compressing_code():
    with pytest.warns(UserWarning, match="expansion factor") as records:
        ProtocolParams(n=100, c=0.2, delta=0.22, epsilon=0.01, N=4)
    # The warning names the caller's line, not the generated __init__.
    assert [r.filename for r in records] == [__file__]


def test_protocol_params_validation():
    for bad in (
        dict(n=0),
        dict(c=0.0),
        dict(c=-1.0),
        dict(delta=0.0),
        dict(delta=1.0),
        dict(epsilon=0.0),
        dict(epsilon=1.0),
        dict(N=1),
        dict(n=1, c=0.2),  # round(c * n) = 0
        dict(n=500_000.5),
        dict(N=4.5),
        dict(n=True),
    ):
        kw = dict(n=100, c=2.0, delta=0.22, epsilon=0.01, N=4)
        kw.update(bad)
        with pytest.raises(DomainError):
            ProtocolParams(**kw)


def test_channel_model_round_trip():
    ch = ChannelModel.from_sqrt_eta((0.3, 0.4), dark_count=1e-10)
    assert ch.eta == pytest.approx((0.09, 0.16))
    assert ch.sqrt_eta == pytest.approx((0.3, 0.4))
    assert ch.n_senders == 2
    assert not ch.symmetric()
    assert ChannelModel(eta=(0.5, 0.5, 0.5, 0.5)).symmetric()


def test_channel_model_sqrt_eta_is_computed_once_from_eta():
    ch = ChannelModel.from_sqrt_eta((0.3, 0.4), dark_count=1e-10)
    assert ch.eta[1] == 0.16000000000000003  # the stored value, not 0.4**2 exactly
    assert ch.sqrt_eta == tuple(math.sqrt(e) for e in ch.eta)
    assert ch.sqrt_eta is ch.sqrt_eta
    # a computed value, not a field: construction, repr, == and hash ignore it
    twin = ChannelModel(ch.eta, dark_count=1e-10)
    assert twin == ch and hash(twin) == hash(ch)
    assert repr(ch) == repr(twin) == (
        "ChannelModel(eta=(0.09, 0.16000000000000003), dark_count=1e-10, visibility=1.0)"
    )


def test_channel_model_validation():
    with pytest.raises(DomainError):
        ChannelModel(eta=(0.5,))
    with pytest.raises(DomainError):
        ChannelModel(eta=(0.0, 0.5))
    with pytest.raises(DomainError):
        ChannelModel(eta=(0.5, 1.5))
    with pytest.raises(DomainError):
        ChannelModel(eta=(0.5, 0.5), dark_count=1.0)
    with pytest.raises(DomainError):
        ChannelModel(eta=(0.5, 0.5), visibility=1.2)
    with pytest.raises(DomainError, match="sqrt_eta"):
        ChannelModel.from_sqrt_eta((0.0, 0.5))
    with pytest.raises(DomainError, match="sqrt_eta"):
        ChannelModel.from_sqrt_eta((0.5, 1.5))


def test_encoding_pulse_counts():
    assert Encoding.SINGLE_BIT.pulses(10) == 10
    assert Encoding.TWO_BIT.pulses(10) == 5
    with pytest.raises(DomainError):
        Encoding.TWO_BIT.pulses(11)
    with pytest.raises(DomainError):
        Encoding.SINGLE_BIT.pulses(0)


def test_run_pairing_schedule():
    assert run_pairing(1) == (1, 2, 3, 4)
    assert run_pairing(2) == (1, 3, 2, 4)  # swap senders 2 and 3
    assert run_pairing(3) == (1, 4, 2, 3)  # then swap senders 3 and 4
    assert run_pairing(1, 2) == (1, 2)
    with pytest.raises(DomainError):
        run_pairing(4)
    with pytest.raises(DomainError, match="1..1"):
        run_pairing(2, 2)  # two senders have a single run
    with pytest.raises(DomainError, match="2 or 4 senders"):
        run_pairing(1, 3)


def test_observed_detectors():
    assert observed_detectors(2) == (1,)
    assert observed_detectors(4) == (1, 2, 3)
    with pytest.raises(DomainError):
        observed_detectors(3)


@pytest.mark.parametrize("n", [2, 4])
def test_check_network_returns_the_schedule_length(n):
    runs = check_network(n, n, n)
    assert runs == run_budget(n, "R", "MultiParty") == n - 1
    assert observed_detectors(n) == tuple(range(1, n))
    assert [run_pairing(i, n)[0] for i in range(1, runs + 1)] == [1] * runs
    with pytest.raises(DomainError):
        run_pairing(runs + 1, n)  # the schedule has exactly runs pairings


@pytest.mark.parametrize("n", [1, 3, 8])
def test_check_network_rejects_unmodelled_sender_counts(n):
    with pytest.raises(DomainError, match="2 or 4 senders"):
        check_network(n, n)


def test_check_network_rejects_mismatched_sizes_and_two_bit_on_four():
    assert check_network(2, encoding=Encoding.TWO_BIT) == 1
    with pytest.raises(DomainError, match="sized for 2"):
        check_network(4, 4, 2, 4)
    with pytest.raises(DomainError, match="sized for 4"):
        check_network(2, 4)
    with pytest.raises(DomainError, match="two-bit"):
        check_network(4, 4, encoding=Encoding.TWO_BIT)


def test_run_config_validation():
    ok = RunConfig(alphas=(1.0, 2.0), pairing=(1, 2), thresholds=(5,))
    assert ok.n_senders == 2
    with pytest.raises(DomainError):
        RunConfig(alphas=(1.0, 2.0), pairing=(1, 2), thresholds=(5, 5))
    with pytest.raises(DomainError):
        RunConfig(alphas=(1.0, 2.0, 3.0, 4.0), pairing=(1, 2, 3, 4), thresholds=(5,))
    with pytest.raises(DomainError):
        RunConfig(alphas=(1.0, 2.0), pairing=(2, 3), thresholds=(5,))
    with pytest.raises(DomainError):
        RunConfig(alphas=(-1.0, 2.0), pairing=(1, 2), thresholds=(5,))
    with pytest.raises(DomainError):
        RunConfig(alphas=(1.0, 2.0), pairing=(1, 2), thresholds=(-1,))
    with pytest.raises(DomainError, match="an Encoding"):
        RunConfig(alphas=(1.0, 2.0), pairing=(1, 2), thresholds=(5,), encoding="single-bit")


@pytest.mark.parametrize(
    "pairing, thresholds",
    [
        ((1, 2), (2.7,)),
        ((1.9, 2.2), (5,)),
        ((1, 2), ("3",)),
        (("1", 2), (5,)),
        ((1, 2), (math.nan,)),
        ((1, 2), (math.inf,)),
        ((1, 2), (None,)),
        ((1, 2), (True,)),
    ],
)
def test_run_config_rejects_non_integral_fields(pairing, thresholds):
    with pytest.raises(DomainError, match="must be integers"):
        RunConfig(alphas=(1.0, 2.0), pairing=pairing, thresholds=thresholds)


def test_run_config_accepts_integral_numbers():
    thresholds = (5.0, np.int64(6), np.float64(7.0))
    rc = RunConfig((1.0, 2.0, 3.0, 4.0), np.array([1, 2, 3, 4]), thresholds)
    assert rc.pairing == (1, 2, 3, 4)
    assert rc.thresholds == (5, 6, 7)
    assert all(type(x) is int for x in rc.pairing + rc.thresholds)


def test_check_schedule():
    runs = [RunConfig((1.0,) * 4, run_pairing(i), (5, 5, 5)) for i in (1, 2, 3)]
    check_schedule(runs, 4, Encoding.SINGLE_BIT)
    check_schedule(runs[:1], 4, Encoding.SINGLE_BIT)  # a prefix of the schedule
    with pytest.raises(DomainError, match="sized for"):
        check_schedule(runs, 2, Encoding.SINGLE_BIT)
    with pytest.raises(DomainError, match="pairing"):
        check_schedule(runs[1:], 4, Encoding.SINGLE_BIT)
    with pytest.raises(DomainError, match="encoding"):
        check_schedule(runs, 4, Encoding.TWO_BIT)
    with pytest.raises(DomainError, match="pairing"):
        check_schedule(runs + runs[:1], 4, Encoding.SINGLE_BIT)  # past the schedule

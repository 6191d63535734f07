"""Outcome-bit referee: signature tables, adaptive resolution, run budgets."""

import itertools

import numpy as np
import pytest

from qfnet.core import DomainError, Relationship, enumerate_relationships, run_pairing
from qfnet.decision import (
    MODE_REFERENCE,
    MODE_SUM,
    MODE_TWO_DETECTOR,
    DecisionOutcome,
    InconsistentOutcome,
    NeedMoreRuns,
    decision_table_rows,
    forward_bits,
    forward_signature,
    pairwise_run_count,
    relationship_by_f_r,
    resolve_f_ae,
    resolve_f_r,
    resolve_schedule,
    resolve_three_party,
    run_budget,
)

# The complete published decision table: canonical label -> (f_r, signature).
# The all-distinct relationship has four valid signatures, listed separately.
TABLE = {
    "AAAA": (14, ("000",)),
    "AAAB": (13, ("011", "011")),
    "AABA": (12, ("011", "110")),
    "ABAA": (11, ("110", "011")),
    "ABBB": (10, ("110", "110")),
    "AABB": (9, ("010",)),
    "ABAB": (8, ("101", "010")),
    "ABBA": (7, ("101", "101")),
    "AABC": (6, ("011", "111")),
    "ABAC": (5, ("111", "011")),
    "ABCA": (4, ("111", "111", "011")),
    "ABBC": (3, ("111", "111", "110")),
    "ABCB": (2, ("111", "110")),
    "ABCC": (1, ("110", "111")),
    "ABCD": (0, ("111", "111", "111")),
}
# The four published signatures of the all-distinct relationship.
ABCD_SIGNATURES = (("101", "111"), ("111", "101"), ("111", "111", "101"), ("111", "111", "111"))


# --- outcome bits ------------------------------------------------------------


def test_bool_row_resolves_like_its_bit_string():
    assert resolve_f_r([[False, True, False]]) == resolve_f_r(["010"])


# --- forward model -----------------------------------------------------------


def test_forward_signatures_match_published_table():
    for label, (f_r, sig) in TABLE.items():
        rel = Relationship.from_label(label)
        assert forward_signature(rel) == sig, label
        outcome = resolve_f_r(sig)
        assert isinstance(outcome, DecisionOutcome)
        assert outcome.f_r == f_r
        assert outcome.relationship == rel
        assert outcome.runs_used == len(sig)


def test_forward_round_trip_all_relationships():
    for rel in enumerate_relationships(4):
        outcome = resolve_f_r(forward_signature(rel))
        assert isinstance(outcome, DecisionOutcome)
        assert outcome.relationship == rel
        assert outcome.f_ae == rel.all_equal
        assert outcome.f_ee == rel.any_equal


def test_forward_bits_depend_on_pairing():
    aabb = Relationship.from_label("AABB")
    assert forward_bits(aabb, run_pairing(1)) == "010"
    assert forward_bits(aabb, run_pairing(2)) == "101"
    assert forward_bits(aabb, run_pairing(3)) == "101"


def test_signatures_are_prefix_free():
    # no resolvable signature may extend another one
    sigs = [sig for _, sig in TABLE.values()] + list(ABCD_SIGNATURES)
    for a in sigs:
        for b in sigs:
            if a != b:
                assert a != b[: len(a)], (a, b)


# --- resolution --------------------------------------------------------------


def test_resolve_waits_for_more_runs():
    step = resolve_f_r(["011"])
    assert isinstance(step, NeedMoreRuns)
    assert step.next_pairing == run_pairing(2)
    step = resolve_f_r(["111", "111"])
    assert isinstance(step, NeedMoreRuns)
    assert step.next_pairing == run_pairing(3)
    # the schedule walk returns an unfinished prefix undecided, with its length
    assert resolve_schedule(4, ["111"]) == (None, 1)
    assert resolve_schedule(4, []) == (None, 0)


def test_resolve_all_abcd_signatures():
    assert len(ABCD_SIGNATURES) == 4
    for sig in ABCD_SIGNATURES:
        outcome = resolve_f_r(sig)
        assert isinstance(outcome, DecisionOutcome)
        assert outcome.f_r == 0
        assert outcome.relationship == Relationship.from_label("ABCD")


def test_resolve_rejects_inconsistent_outcomes():
    for sig in (["001"], ["100"], ["011", "000"], ["111", "111", "000"]):
        with pytest.raises(InconsistentOutcome):
            resolve_f_r(sig)
    # extra runs after a resolved signature are inconsistent too
    with pytest.raises(InconsistentOutcome):
        resolve_f_r(["000", "000"])
    with pytest.raises(InconsistentOutcome):
        resolve_f_r(["011", "011", "011"])


def test_resolve_is_exhaustively_the_published_table():
    # Every sequence of one to four outcome triples: exactly the 18 published
    # signatures resolve, exactly their proper prefixes ask for the next run,
    # and everything else is inconsistent.
    published = {sig: f_r for f_r, sig in TABLE.values()}
    published.update(
        {
            ("101", "111"): 0,
            ("111", "101"): 0,
            ("111", "111", "101"): 0,
        }
    )
    assert len(published) == 18
    prefixes = {sig[:k] for sig in published for k in range(1, len(sig))}
    triples = ["".join(bits) for bits in itertools.product("01", repeat=3)]
    resolved = waiting = 0
    for length in (1, 2, 3, 4):
        for seq in itertools.product(triples, repeat=length):
            if seq in published:
                outcome = resolve_f_r(seq)
                assert isinstance(outcome, DecisionOutcome), seq
                assert outcome.f_r == published[seq], seq
                assert outcome.runs_used == length, seq
                resolved += 1
            elif seq in prefixes:
                step = resolve_f_r(seq)
                assert isinstance(step, NeedMoreRuns), seq
                assert step.next_pairing == run_pairing(length + 1), seq
                waiting += 1
            else:
                with pytest.raises(InconsistentOutcome):
                    resolve_f_r(seq)
    assert (resolved, waiting) == (18, len(prefixes))


def _full_schedule_cases():
    # (sender count, signatures -> f_r, runs per schedule, bits per run)
    four = {sig: f_r for f_r, sig in TABLE.values()}
    four.update({sig: 0 for sig in ABCD_SIGNATURES})
    three = {("000",): 4, ("011",): 3, ("110",): 2, ("101",): 1, ("111",): 0}
    two = {("0",): 1, ("1",): 0}
    return [(4, four, 3, 3), (3, three, 1, 3), (2, two, 1, 1)]


@pytest.mark.parametrize("n, signatures, runs, width", _full_schedule_cases())
def test_resolve_schedule_is_exhaustive(n, signatures, runs, width):
    # Every draw of the full schedule resolves at the one signature that
    # prefixes it, or is inconsistent at the first prefix that neither is a
    # signature nor leads to one.
    prefixes = {sig[:k] for sig in signatures for k in range(1, len(sig))}
    outcomes = ["".join(bits) for bits in itertools.product("01", repeat=width)]
    draws = list(itertools.product(outcomes, repeat=runs))
    assert len(draws) == {4: 512, 3: 8, 2: 2}[n]
    resolved = 0
    for draw in draws:
        matching = [sig for sig in signatures if draw[: len(sig)] == sig]
        decision, runs_used = resolve_schedule(n, draw)
        if matching:
            (sig,) = matching
            assert decision is not None and decision.f_r == signatures[sig], draw
            assert runs_used == decision.runs_used == len(sig), draw
            resolved += 1
        else:
            k = next(
                k for k in range(1, runs + 1)
                if draw[:k] not in signatures and draw[:k] not in prefixes
            )
            assert (decision, runs_used) == (None, k), draw
        # a bool array of the same draw reads the same
        as_bools = np.array([[b == "1" for b in run] for run in draw])
        assert resolve_schedule(n, as_bools) == (decision, runs_used), draw
    # signatures are prefix-free, so each one claims all its continuations
    assert resolved == sum(len(outcomes) ** (runs - len(sig)) for sig in signatures)


def test_resolve_validates_bit_strings():
    with pytest.raises(DomainError):
        resolve_f_r(["01"])
    with pytest.raises(DomainError):
        resolve_f_r(["0a1"])
    # no outcomes yet: the referee just asks for the first run
    step = resolve_f_r([])
    assert isinstance(step, NeedMoreRuns)
    assert step.next_pairing == run_pairing(1)
    # a sender count with no table is a domain error, not a missing key
    with pytest.raises(DomainError, match="2, 3 or 4 senders"):
        resolve_schedule(5, [])


def test_relationship_by_f_r_is_total():
    seen = set()
    for f_r in range(15):
        rel = relationship_by_f_r(f_r)
        assert TABLE[rel.canonical_label][0] == f_r
        seen.add(rel)
    assert len(seen) == 15
    with pytest.raises(DomainError):
        relationship_by_f_r(15)


# --- three senders -----------------------------------------------------------


def test_resolve_three_party_table():
    want = {
        "000": (4, "AAA"),
        "011": (3, "AAB"),
        "110": (2, "ABA"),
        "101": (1, "ABB"),
        "111": (0, "ABC"),
    }
    for bits, (f_r, label) in want.items():
        outcome = resolve_three_party(bits)
        assert outcome.f_r == f_r
        assert outcome.relationship == Relationship.from_label(label)
        assert outcome.runs_used == 1
    with pytest.raises(InconsistentOutcome):
        resolve_three_party("010")


# --- all-equal decision modes -------------------------------------------------


def test_resolve_f_ae_modes():
    # reference detector: bright means all-equal
    assert resolve_f_ae((120,), thresholds=(50,), mode=MODE_REFERENCE)
    assert not resolve_f_ae((20,), thresholds=(50,), mode=MODE_REFERENCE)
    # summed difference detectors: quiet means all-equal
    assert resolve_f_ae((3, 2, 1), thresholds=(10,), mode=MODE_SUM)
    assert not resolve_f_ae((30, 2, 1), thresholds=(10,), mode=MODE_SUM)
    # two-detector rule: both compared ports must stay below threshold
    assert resolve_f_ae((4, 3), thresholds=(5, 5), mode=MODE_TWO_DETECTOR)
    assert not resolve_f_ae((4, 7), thresholds=(5, 5), mode=MODE_TWO_DETECTOR)
    with pytest.raises(DomainError):
        resolve_f_ae((1, 2), thresholds=(5,), mode="majority-vote")
    with pytest.raises(DomainError):
        resolve_f_ae((1, 2), thresholds=(5,), mode=MODE_REFERENCE)
    with pytest.raises(DomainError):
        resolve_f_ae((-1,), thresholds=(5,), mode=MODE_REFERENCE)
    with pytest.raises(DomainError, match="SumDetectors"):
        resolve_f_ae((1, 2), thresholds=(5, 5), mode=MODE_SUM)
    with pytest.raises(DomainError, match="SumDetectors"):
        resolve_f_ae((), thresholds=(5,), mode=MODE_SUM)
    with pytest.raises(DomainError, match="TwoDetector"):
        resolve_f_ae((1, 2, 3), thresholds=(5, 5), mode=MODE_TWO_DETECTOR)
    with pytest.raises(DomainError, match="TwoDetector"):
        resolve_f_ae((1, 2), thresholds=(5,), mode=MODE_TWO_DETECTOR)


def test_resolve_f_ae_boundary_counts():
    # a count exactly at threshold reads as a click
    assert not resolve_f_ae((4, 5), thresholds=(5, 5), mode=MODE_TWO_DETECTOR)
    assert not resolve_f_ae((5, 0, 0), thresholds=(5,), mode=MODE_SUM)
    assert resolve_f_ae((50,), thresholds=(50,), mode=MODE_REFERENCE)


# --- run budgets -------------------------------------------------------------


def test_run_budget_table():
    assert run_budget(4, "AE", "MultiParty") == 1
    assert run_budget(4, "R", "MultiParty") == 3
    assert run_budget(8, "R", "MultiParty") == 7
    assert run_budget(4, "AE", "TwoPartyPairwise") == 3
    assert run_budget(4, "R", "TwoPartyPairwise") == 6
    assert run_budget(8, "R", "TwoPartyPairwise") == 28
    with pytest.raises(DomainError):
        run_budget(6, "R", "MultiParty")
    with pytest.raises(DomainError):
        run_budget(4, "R", "Telepathy")
    with pytest.raises(DomainError):
        run_budget(4, "EE", "MultiParty")
    with pytest.raises(DomainError, match="N must be >= 2"):
        run_budget(1, "R", "MultiParty")
    # N reads as an integer: 4.0 and numpy integers are 4, 4.5 and True no count
    assert run_budget(4.0, "R", "MultiParty") == 3
    assert run_budget(np.int64(4), "R", "TwoPartyPairwise") == 6
    for N in (4.5, True):
        with pytest.raises(DomainError, match="N must be integers"):
            run_budget(N, "R", "TwoPartyPairwise")


def test_pairwise_run_counts_match_published_comparison():
    want = {
        "AAAA": (3, 1),
        "AAAB": (3, 2),
        "AABA": (3, 2),
        "ABAA": (3, 2),
        "ABBB": (5, 2),
        "AABB": (4, 1),
        "ABAB": (4, 2),
        "ABBA": (4, 2),
        "AABC": (4, 2),
        "ABAC": (4, 2),
        "ABCA": (4, 3),
        "ABBC": (5, 3),
        "ABCB": (5, 2),
        "ABCC": (6, 2),
        "ABCD": (6, 3),
    }
    for label, (t_t, t_m) in want.items():
        got = pairwise_run_count(Relationship.from_label(label))
        assert got == (t_t, t_m), label
        assert got[1] <= got[0]  # the tree never needs more runs than pairwise


# --- exported tables ---------------------------------------------------------


def test_decision_table_four_senders():
    rows = decision_table_rows(4)
    assert len(rows) == 18  # 14 unique signatures + 4 all-distinct sets
    by_label = {}
    for row in rows:
        by_label.setdefault(row["canonical"], []).append(row)
    assert len(by_label) == 15
    for label, (f_r, sig) in TABLE.items():
        got = by_label[label]
        assert all(r["f_r"] == f_r for r in got)
        if label == "ABCD":
            got_sigs = {
                tuple(b for b in (r["r1"], r["r2"], r["r3"]) if b) for r in got
            }
            assert got_sigs == set(ABCD_SIGNATURES)
        else:
            assert len(got) == 1
            row = got[0]
            padded = tuple(list(sig) + [""] * (3 - len(sig)))
            assert (row["r1"], row["r2"], row["r3"]) == padded
    # display convention: size-ranked letters as published
    assert by_label["ABBB"][0]["relationship"] == "BAAA"
    # published row order: f_r descending
    assert [r["f_r"] for r in rows] == sorted((r["f_r"] for r in rows), reverse=True)


def test_decision_table_three_senders():
    rows = decision_table_rows(3)
    assert [
        (r["relationship"], r["device_pattern"], r["r1"], r["f_r"]) for r in rows
    ] == [
        ("AAA", "AAAA", "000", 4),
        ("AAB", "AABA", "011", 3),
        ("ABA", "ABAA", "110", 2),
        ("BAA", "BAAB", "101", 1),
        ("ABC", "ABCA", "111", 0),
    ]
    with pytest.raises(DomainError):
        decision_table_rows(5)

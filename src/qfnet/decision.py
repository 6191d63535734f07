"""Referee decision logic.

Per run the referee thresholds the observed detector counts into outcome
bits (1 = count at or above threshold; montecarlo.simulate compares its
drawn counts itself).  For four senders the observed detectors are D2
(compares ports 1,2), D3 (compares the port pairs) and D4 (ports 3,4); an
adaptive schedule swaps which senders sit at which ports between
runs, and the outcome-bit sequence indexes a lookup table that pins down the
full relationship f_R.  Three-party instances reuse the four-port device
with sender 1 duplicated on port 4; two senders read one detector once.
Each sender count has one flat table from complete outcome sequence to its
decision; one resolver serves all three, and the exported tables are read
from them.  The tables are plain Python: the module needs only core.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from .core import (
    DomainError,
    Relationship,
    enumerate_relationships,
    integers,
    relationship_profile,
    run_pairing,
)

__all__ = [
    "DecisionOutcome",
    "NeedMoreRuns",
    "InconsistentOutcome",
    "MODE_REFERENCE",
    "MODE_SUM",
    "MODE_TWO_DETECTOR",
    "resolve_f_r",
    "resolve_f_ae",
    "resolve_three_party",
    "resolve_schedule",
    "run_budget",
    "pairwise_run_count",
    "forward_bits",
    "forward_signature",
    "relationship_by_f_r",
    "decision_table_rows",
]


class InconsistentOutcome(Exception):
    """Outcome sequence matches no row of the decision table.

    Signals a model violation or error budget blown by noise — deliberately
    an error rather than a nearest-row guess.
    """

    def __init__(self, outcomes: Sequence[str]):
        super().__init__(f"outcome sequence {list(outcomes)} matches no decision row")
        self.outcomes = tuple(outcomes)


@dataclass(frozen=True)
class DecisionOutcome:
    """Resolved relationship with its label and the coarser predicates.

    f_r counts down from 14 (all equal) to 0 (all distinct) for four
    senders, from 4 to 0 for three and from 1 to 0 for two.
    """

    f_r: int
    relationship: Relationship
    runs_used: int
    f_ae: bool
    f_ee: bool


@dataclass(frozen=True)
class NeedMoreRuns:
    """The outcome prefix is ambiguous; run again with ``next_pairing``."""

    next_pairing: tuple[int, ...]


MODE_REFERENCE = "ReferenceDetector"
MODE_SUM = "SumDetectors"
MODE_TWO_DETECTOR = "TwoDetector"


# One run's outcome: a 0/1 string or a row of booleans, one per detector.
Bits = str | Sequence[bool]


# Relationship label by f_R value (canonical first-appearance labels; e.g. the
# published table's BAAA/BAAC/BACA/BCAA rows are ABBB/ABBC/ABCB/ABCC here).
_LABEL_BY_FR: Mapping[int, str] = {
    14: "AAAA",
    13: "AAAB",
    12: "AABA",
    11: "ABAA",
    10: "ABBB",
    9: "AABB",
    8: "ABAB",
    7: "ABBA",
    6: "AABC",
    5: "ABAC",
    4: "ABCA",
    3: "ABBC",
    2: "ABCB",
    1: "ABCC",
    0: "ABCD",
}

# The published decision table: each complete outcome sequence (one bit
# triple per executed run) and the f_R it identifies.  Validated against the
# forward model in tests.
_F_R_BY_SIGNATURE: Mapping[tuple[str, ...], int] = {
    ("000",): 14,
    ("010",): 9,
    ("011", "011"): 13,
    ("011", "110"): 12,
    ("011", "111"): 6,
    ("110", "011"): 11,
    ("110", "110"): 10,
    ("110", "111"): 1,
    ("101", "010"): 8,
    ("101", "101"): 7,
    ("101", "111"): 0,
    ("111", "011"): 5,
    ("111", "110"): 2,
    ("111", "101"): 0,
    ("111", "111", "011"): 4,
    ("111", "111", "110"): 3,
    ("111", "111", "101"): 0,
    ("111", "111", "111"): 0,
}


def _decisions(
    f_r_by_signature: Mapping[tuple[str, ...], int], label_by_f_r: Mapping[int, str]
) -> dict[tuple[str, ...], DecisionOutcome]:
    table = {}
    for sig, f_r in f_r_by_signature.items():
        rel = Relationship.from_label(label_by_f_r[f_r])
        table[sig] = DecisionOutcome(f_r, rel, len(sig), rel.all_equal, rel.any_equal)
    return table


# Per sender count: each complete outcome sequence and its decision.
_DECISIONS: Mapping[int, Mapping[tuple[str, ...], DecisionOutcome]] = {
    # two senders: one run, bit 0 means the pair looks equal
    2: _decisions({("0",): 1, ("1",): 0}, {1: "AA", 0: "AB"}),
    # three senders: one run on the four-port device, sender 1 also at port 4
    3: _decisions(
        {("000",): 4, ("011",): 3, ("110",): 2, ("101",): 1, ("111",): 0},
        {4: "AAA", 3: "AAB", 2: "ABA", 1: "ABB", 0: "ABC"},
    ),
    4: _decisions(_F_R_BY_SIGNATURE, _LABEL_BY_FR),
}

# Sequences that still need another run: every proper prefix of a signature,
# the empty one included.
_PREFIXES = {
    n: frozenset(sig[:k] for sig in table for k in range(len(sig)))
    for n, table in _DECISIONS.items()
}


def relationship_by_f_r(f_r: int) -> Relationship:
    """The four-party relationship a decision label denotes (14 down to 0)."""
    if f_r not in _LABEL_BY_FR:
        raise DomainError(f"f_r must lie in [0, 14], got {f_r}")
    return Relationship.from_label(_LABEL_BY_FR[f_r])


def _as_bits(outcome: Bits, width: int) -> str:
    bits = outcome if isinstance(outcome, str) else "".join("1" if b else "0" for b in outcome)
    if len(bits) != width or any(b not in "01" for b in bits):
        raise DomainError(f"expected {width} outcome bits, got {bits!r}")
    return bits


def _next_run(n: int, done: int) -> NeedMoreRuns:
    # three senders run once on the four-port device, sender 1 also at port 4
    return NeedMoreRuns((1, 2, 3, 1) if n == 3 else run_pairing(done + 1, n))


def _resolve(n: int, outcomes: Sequence[Bits]) -> DecisionOutcome | NeedMoreRuns:
    table = _DECISIONS[n]
    width = len(next(iter(table))[0])  # bits per run
    seq = tuple(_as_bits(o, width) for o in outcomes)
    if seq in table:
        return table[seq]
    if seq in _PREFIXES[n]:
        return _next_run(n, len(seq))
    raise InconsistentOutcome(seq)


def resolve_f_r(outcomes: Sequence[Bits]) -> DecisionOutcome | NeedMoreRuns:
    """Resolve a four-party outcome sequence against the decision table.

    Returns NeedMoreRuns(next_pairing) when the prefix is ambiguous, the
    DecisionOutcome when it identifies a relationship, and raises
    InconsistentOutcome when it matches no row.
    """
    return _resolve(4, outcomes)


def resolve_three_party(outcome: Bits) -> DecisionOutcome:
    """Resolve a one-run three-party outcome (sender 1 duplicated at port 4)."""
    return _resolve(3, [outcome])


def resolve_schedule(
    n: int, outcomes: Sequence[Bits]
) -> tuple[DecisionOutcome | NeedMoreRuns | None, int]:
    """The referee's verdict on the outcomes of the runs executed so far.

    Runs are read in schedule order up to the shortest prefix that resolves;
    returns its decision and length.  A prefix that neither resolves nor
    leads to a signature is inconsistent: (None, its length).  A sequence
    that ends on a proper prefix of a signature returns
    (NeedMoreRuns(next_pairing), its length).
    """
    if n not in _DECISIONS:
        raise DomainError(f"decision tables are defined for 2, 3 or 4 senders, got {n!r}")
    table = _DECISIONS[n]
    width = len(next(iter(table))[0])  # bits per run
    seq: tuple[str, ...] = ()
    for outcome in outcomes:
        seq += (_as_bits(outcome, width),)
        if seq in table:
            return table[seq], len(seq)
        if seq not in _PREFIXES[n]:
            return None, len(seq)
    return _next_run(n, len(seq)), len(seq)


def resolve_f_ae(
    counts: Sequence[int], thresholds: Sequence[int], mode: str
) -> bool:
    """One-run all-equal decision under one of the three published rules.

    ReferenceDetector: equal iff the constructive-port count reaches its
    threshold.  SumDetectors: equal iff the non-reference counts sum below a
    single threshold.  TwoDetector: equal iff both observed counts are below
    their thresholds.
    """
    if any(c < 0 for c in counts):
        raise DomainError("counts must be >= 0")
    if mode == MODE_REFERENCE:
        if len(counts) != 1 or len(thresholds) != 1:
            raise DomainError("ReferenceDetector mode takes one count and one threshold")
        return counts[0] >= thresholds[0]
    if mode == MODE_SUM:
        if len(thresholds) != 1 or not counts:
            raise DomainError("SumDetectors mode takes the non-reference counts and one threshold")
        return sum(counts) < thresholds[0]
    if mode == MODE_TWO_DETECTOR:
        if len(counts) != 2 or len(thresholds) != 2:
            raise DomainError("TwoDetector mode takes two counts and two thresholds")
        return all(c < t for c, t in zip(counts, thresholds))
    raise DomainError(f"unknown mode {mode!r}")


def run_budget(N: int, target: str, scheme: str) -> int:
    """Worst-case number of runs budgeted for a scheme/target combination."""
    (N,) = integers((N,), "N")
    if N < 2:
        raise DomainError(f"N must be >= 2, got {N}")
    if target not in ("AE", "R"):
        raise DomainError(f"target must be 'AE' or 'R', got {target!r}")
    if scheme == "MultiParty":
        if N & (N - 1):
            raise DomainError(f"multi-party scheme needs N a power of two, got {N}")
        return 1 if target == "AE" else N - 1
    if scheme == "TwoPartyPairwise":
        return N - 1 if target == "AE" else N * (N - 1) // 2
    raise DomainError(f"unknown scheme {scheme!r}")


def forward_bits(rel: Relationship, pairing: Sequence[int]) -> str:
    """Ideal noiseless outcome bits of one run for a known relationship.

    A difference-tap detector clicks (bit 1) exactly when the positions it
    can see contain any mismatch: D2 on ports 1,2; D4 on ports 3,4; D3 on
    any pattern that splits the two pairs or a single port.
    """
    # delta's actual value cancels in the > 0 tests; any feasible one works.
    fr = relationship_profile(rel, pairing, 0.5)
    tol = 1e-12
    return "".join(
        "1" if frac > tol else "0"
        for frac in (fr.d12, fr.d_single + fr.d_pairs, fr.d34)
    )


def forward_signature(rel: Relationship) -> tuple[str, ...]:
    """Outcome-bit sequence the adaptive schedule produces for a relationship."""
    if rel.n != 4:
        raise DomainError(f"forward signatures defined for 4 senders, got {rel.n}")
    outcomes = [forward_bits(rel, run_pairing(i, 4)) for i in (1, 2, 3)]
    resolved, runs_used = resolve_schedule(4, outcomes)
    if not isinstance(resolved, DecisionOutcome) or resolved.relationship != rel:
        raise AssertionError(
            f"table/forward mismatch: {rel.canonical_label} resolved as {resolved}"
        )
    return tuple(outcomes[:runs_used])


def pairwise_run_count(rel: Relationship) -> tuple[int, int]:
    """Runs needed to pin down a four-party relationship: (two-party, multi-party).

    The two-party scheme compares pairs in the order (1,2), (1,3), (1,4),
    (2,3), (2,4), (3,4) and skips any comparison whose result is already
    implied: every partition the earlier results still allow agrees on it.
    The multi-party count is what the adaptive schedule uses.
    """
    if rel.n != 4:
        raise DomainError(f"run counts defined for 4 senders, got {rel.n}")
    allowed = enumerate_relationships(4)
    t_t = 0
    for a, b in ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)):
        if len({r.group_of(a) == r.group_of(b) for r in allowed}) == 1:
            continue
        t_t += 1
        same = rel.group_of(a) == rel.group_of(b)
        allowed = [r for r in allowed if (r.group_of(a) == r.group_of(b)) == same]
    return t_t, len(forward_signature(rel))


def decision_table_rows(n_senders: int) -> list[dict[str, object]]:
    """Exportable decision table: one row per outcome signature, f_R descending.

    For four senders: the 14 uniquely-signed relationships plus the four
    signatures of the all-distinct one, with one column per scheduled run.
    For three senders: the 5-row single-run table with the port pattern fed
    to the four-port device.  The columns are in export order.
    """
    if n_senders not in (3, 4):
        raise DomainError(f"decision tables defined for 3 or 4 senders, got {n_senders}")
    table = _DECISIONS[n_senders]
    runs = max(map(len, table))
    rows = []
    # the sort is stable: the all-distinct signatures keep the table's order
    for sig, out in sorted(table.items(), key=lambda item: -item[1].f_r):
        rel = out.relationship
        row: dict[str, object] = {
            "relationship": rel.display_label,
            "canonical": rel.canonical_label,
        }
        if n_senders == 3:
            # pattern actually interfered: senders (1, 2, 3, 1) at the ports,
            # lettered by group size like the relationship column
            row["device_pattern"] = "".join(rel.display_label[s - 1] for s in (1, 2, 3, 1))
        for k in range(runs):
            row[f"r{k + 1}"] = sig[k] if k < len(sig) else ""
        row["f_r"] = out.f_r
        rows.append(row)
    return rows

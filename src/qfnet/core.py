"""Shared domain types for the fingerprinting-network toolkit.

Senders are numbered 1..N.  A *relationship* is a set partition of the
senders into equality groups (senders in one group hold identical messages),
held as its first-appearance letter label: AABC puts senders 1 and 2 in one
group and 3 and 4 in groups of their own.
Codewords of two senders in different groups disagree on at least a fraction
``delta`` of positions; the worst case for distinguishing them is every
pairwise distance sitting exactly at ``delta``.  That worst case is modeled
by *pattern regions*: classes of codeword positions sharing one joint bit
pattern across the groups, with sender 1's group as the phase reference.
The network shapes modelled (2 or 4 senders) and their adaptive run schedule
are stated once, in check_network and the schedule table it reads.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Sequence

__all__ = [
    "DomainError",
    "ProtocolParams",
    "ChannelModel",
    "CountModel",
    "Encoding",
    "Relationship",
    "PatternRegion",
    "PatternFractions",
    "RunConfig",
    "check_network",
    "check_schedule",
    "enumerate_relationships",
    "integers",
    "worst_case_regions",
    "relationship_profile",
    "run_pairing",
    "observed_detectors",
]

MAX_SENDERS = 12


class DomainError(ValueError):
    """An argument is outside an operation's documented domain."""


@dataclass(frozen=True)
class ProtocolParams:
    """Global protocol parameters.

    n        message length in bits
    c        expansion factor of the error-correcting code; the codeword
             length is m = round(c * n)
    delta    minimum relative Hamming distance between distinct codewords
    epsilon  error budget the protocol must stay under
    N        number of senders
    """

    n: int
    c: float
    delta: float
    epsilon: float
    N: int

    def __post_init__(self) -> None:
        n, N = integers((self.n, self.N), "n and N")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "N", N)
        if self.n < 1:
            raise DomainError(f"n must be a positive integer, got {self.n!r}")
        if not (self.c > 0.0 and math.isfinite(self.c)):
            raise DomainError(f"c must be positive and finite, got {self.c!r}")
        if not (0.0 < self.delta < 1.0):
            raise DomainError(f"delta must lie in (0, 1), got {self.delta!r}")
        if not (0.0 < self.epsilon < 1.0):
            raise DomainError(f"epsilon must lie in (0, 1), got {self.epsilon!r}")
        if self.N < 2:
            raise DomainError(f"N must be an integer >= 2, got {self.N!r}")
        if self.m < 1:
            raise DomainError(f"round(c*n) = {self.m} gives an empty codeword")
        if self.c <= 1.0:
            # Expansion <= 1 cannot give a distance-delta encoding of n-bit
            # messages; the published operating points use it anyway, so warn
            # instead of refusing.
            warnings.warn(
                f"expansion factor c = {self.c} <= 1: codewords are shorter than "
                "messages, which no distance-preserving code achieves",
                UserWarning,
                stacklevel=3,
            )

    @cached_property
    def m(self) -> int:
        """Codeword length in bits."""
        # once per protocol: every profile reads it
        return int(round(self.c * self.n))


@dataclass(frozen=True)
class ChannelModel:
    """Per-sender transmission and detector imperfections.

    eta         per-sender power transmission, one entry per sender
    dark_count  per-pulse dark-click probability of every detector
    visibility  interference visibility of the splitter network (1 = ideal)
    """

    eta: tuple[float, ...]
    dark_count: float = 0.0
    visibility: float = 1.0

    def __post_init__(self) -> None:
        eta = tuple(float(e) for e in self.eta)
        object.__setattr__(self, "eta", eta)
        if len(eta) < 2:
            raise DomainError("eta needs one entry per sender (>= 2 senders)")
        for e in eta:
            if not (0.0 < e <= 1.0):
                raise DomainError(f"eta entries must lie in (0, 1], got {e!r}")
        if not (0.0 <= self.dark_count < 1.0):
            raise DomainError(f"dark_count must lie in [0, 1), got {self.dark_count!r}")
        if not (0.0 <= self.visibility <= 1.0):
            raise DomainError(f"visibility must lie in [0, 1], got {self.visibility!r}")

    @classmethod
    def from_sqrt_eta(cls, sqrt_eta: Sequence[float], *args, **kwargs) -> "ChannelModel":
        """Build from amplitude transmissions (eta = sqrt_eta**2).

        The remaining arguments (dark_count, visibility) go to the constructor.
        """
        for s in sqrt_eta:
            if not (0.0 < float(s) <= 1.0):
                raise DomainError(f"sqrt_eta entries must lie in (0, 1], got {s!r}")
        return cls(tuple(float(s) ** 2 for s in sqrt_eta), *args, **kwargs)

    @cached_property
    def sqrt_eta(self) -> tuple[float, ...]:
        # Computed from the stored eta, once per channel: every profile reads it.
        return tuple(math.sqrt(e) for e in self.eta)

    @property
    def n_senders(self) -> int:
        return len(self.eta)

    def symmetric(self) -> bool:
        """True when all senders see the same transmission."""
        return all(e == self.eta[0] for e in self.eta)


class Encoding(str, Enum):
    """Phase encoding of codeword bits onto pulses.

    SINGLE_BIT  one bit per pulse, phases {0, pi}
    TWO_BIT     two bits per pulse, phases {0, pi/2, pi, 3pi/2}; halves the
                pulse count at fixed codeword length (two-party networks only)
    """

    SINGLE_BIT = "single-bit"
    TWO_BIT = "two-bit"

    def pulses(self, m: int) -> int:
        """Pulses per codeword of length m."""
        if m < 1:
            raise DomainError(f"codeword length must be positive, got {m}")
        if self is _TWO_BIT:
            if m % 2:
                raise DomainError(f"two-bit encoding needs an even codeword length, got {m}")
            return m // 2
        return m


# The members bound once: under Python 3.11 reading one off the class costs
# ~0.2 us, several times a comparison, on the optimizer's profile path.
_SINGLE_BIT, _TWO_BIT = Encoding.SINGLE_BIT, Encoding.TWO_BIT


@dataclass(frozen=True)
class CountModel:
    """Binomial law of one detector's click count over a codeword.

    A threshold detector clicks on each pulse independently, so its count
    over the codeword is Binomial(pulses, p), exactly, at every pulse count.
    The closed forms and the oracle give one per detector and hypothesis;
    the count tails and threshold selection read them.

    pulses  number of pulses accumulated
    p       per-pulse click probability
    """

    pulses: int
    p: float

    def __post_init__(self) -> None:
        pulses, p = self.pulses, self.p
        if type(pulses) is not int:
            (pulses,) = integers((pulses,), "pulses")
            object.__setattr__(self, "pulses", pulses)
        if pulses < 1:
            raise DomainError(f"pulses must be >= 1, got {pulses}")
        if not (0.0 <= p <= 1.0):
            raise DomainError(f"p must lie in [0, 1], got {p!r}")
        if type(p) is not float:
            # the scalar tails take Python floats only
            object.__setattr__(self, "p", float(p))

    @property
    def mean(self) -> float:
        return self.pulses * self.p


# ---------------------------------------------------------------------------
# relationships (set partitions of senders)
# ---------------------------------------------------------------------------


def _first_appearance(label: str) -> str:
    # Relabel so that each new letter becomes the next unused one from "A".
    letters: dict[str, str] = {}
    return "".join(letters.setdefault(x, chr(ord("A") + len(letters))) for x in label)


@dataclass(frozen=True)
class Relationship:
    """A set partition of senders 1..n into equality groups.

    Stored as its first-appearance label, a restricted growth string: sender
    k's letter names its group, group i (0-based) is letter ``"A" + i``, and
    each new group takes the next unused letter (AABC, not AAC or BAAC), so
    equal partitions compare equal however they were constructed.
    """

    canonical_label: str

    def __post_init__(self) -> None:
        label = self.canonical_label
        if not (isinstance(label, str) and label and _first_appearance(label) == label):
            raise DomainError(f"not a restricted growth label (AABC, not AAC): {label!r}")

    @classmethod
    def from_label(cls, label: str) -> "Relationship":
        """Parse a letter label like ``"AABC"`` (one letter per sender).

        Any ASCII letters are accepted and canonicalized by first appearance, so
        ``"BAAC"`` parses to the same partition as ``"ABBC"``.
        """
        # ASCII only: str.upper maps some letters to two ("ß" to "SS")
        if not (label.isascii() and label.isalpha()):
            raise DomainError(f"relationship label must be ASCII letters, got {label!r}")
        if len(label) > MAX_SENDERS:
            raise DomainError(f"at most {MAX_SENDERS} senders supported, got {len(label)}")
        return cls(_first_appearance(label.upper()))

    @property
    def groups(self) -> tuple[frozenset[int], ...]:
        """The groups as sets of senders, in first-appearance order."""
        label = self.canonical_label
        return tuple(
            frozenset(k for k, x in enumerate(label, 1) if x == g) for g in sorted(set(label))
        )

    @property
    def n(self) -> int:
        """Number of senders."""
        return len(self.canonical_label)

    @property
    def num_groups(self) -> int:
        return len(set(self.canonical_label))

    @property
    def group_sizes(self) -> tuple[int, ...]:
        """Group sizes, largest first."""
        return tuple(sorted(map(len, self.groups), reverse=True))

    def group_of(self, sender: int) -> int:
        """Index (0-based, first-appearance order) of the group holding ``sender``."""
        if not 1 <= sender <= self.n:
            raise DomainError(f"sender {sender} not in relationship over {self.n} senders")
        return ord(self.canonical_label[sender - 1]) - ord("A")

    @property
    def display_label(self) -> str:
        """Size-ranked letter label: A is the largest group (ties: smallest member).

        This is the labeling convention of the published decision table, where
        e.g. the partition {1}{2,3,4} reads BAAA rather than ABBB.
        """
        label = self.canonical_label
        ranked = sorted(set(label), key=lambda g: (-label.count(g), g))
        return label.translate({ord(g): chr(ord("A") + rank) for rank, g in enumerate(ranked)})

    @property
    def all_equal(self) -> bool:
        return self.num_groups == 1

    @property
    def any_equal(self) -> bool:
        """True when at least two senders hold the same message."""
        return self.num_groups < self.n

    def __str__(self) -> str:  # pragma: no cover - repr convenience
        return self.canonical_label


def enumerate_relationships(n: int) -> list[Relationship]:
    """All set partitions of senders 1..n, in lexicographic label order.

    The count is the n-th Bell number; n is capped to keep the enumeration
    snappy.
    """
    (n,) = integers((n,), "n")
    if not 2 <= n <= MAX_SENDERS:
        raise DomainError(f"n must be an integer in [2, {MAX_SENDERS}], got {n!r}")
    # Restricted growth labels: each new sender joins an open group or opens
    # the next one.  Extending a sorted list keeps it sorted.
    labels = ["A"]
    for _ in range(n - 1):
        labels = [s + chr(g) for s in labels for g in range(ord("A"), ord(max(s)) + 2)]
    return [Relationship.from_label(label) for label in labels]


# ---------------------------------------------------------------------------
# worst-case position regions and per-pairing pattern fractions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PatternRegion:
    """A class of codeword positions sharing one joint bit pattern.

    ``bits[k]`` is the bit sender k+1 holds at these positions *relative to
    sender 1's group* (whose bit is 0 by convention); ``weight`` is the
    fraction of the m positions in the class.
    """

    bits: tuple[int, ...]
    weight: float


def worst_case_regions(rel: Relationship, delta: float) -> tuple[PatternRegion, ...]:
    """Minimum-distance worst case for a relationship.

    Every pair of distinct groups must disagree on at least a fraction delta
    of positions; the hardest instance puts each pair exactly at delta.  With
    q = num_groups - 1 non-reference groups, spreading the flips uniformly
    over the 2**q - 1 nonempty subsets T (each subset flipped on a fraction
    delta / 2**(q-1) of positions) achieves exactly that: any two groups
    land on opposite bits in precisely 2**(q-1) of the subsets.  The
    all-agree pattern takes the remaining weight.

    Raises DomainError when the total flipped fraction (2**q - 1) * delta /
    2**(q-1) exceeds 1 (for q = 3 that caps delta at 4/7).
    """
    if not (0.0 < delta < 1.0):
        raise DomainError(f"delta must lie in (0, 1), got {delta!r}")
    n = rel.n
    q = rel.num_groups - 1
    if q == 0:
        return (PatternRegion((0,) * n, 1.0),)
    w = delta / 2 ** (q - 1)
    flipped = (2**q - 1) * w
    if flipped > 1.0 + 1e-12:
        raise DomainError(
            f"delta = {delta} infeasible for {q + 1} groups: total flipped "
            f"fraction {flipped:.6g} > 1"
        )
    group_idx = [rel.group_of(k) for k in range(1, n + 1)]
    regions = []
    for mask in range(1, 2**q):
        bits = tuple((mask >> (group_idx[k] - 1)) & 1 if group_idx[k] else 0 for k in range(n))
        regions.append(PatternRegion(bits, w))
    regions.append(PatternRegion((0,) * n, max(0.0, 1.0 - flipped)))
    return tuple(regions)


@dataclass(frozen=True)
class PatternFractions:
    """Position fractions by joint bit pattern at the four interferometer ports.

    Port p holds the sender a pairing assigns to it:

    d12      ports 1 and 2 carry different bits
    d34      ports 3 and 4 carry different bits
    d_single exactly one port differs from the other three
    d_pairs  ports 1,2 agree and ports 3,4 agree, but the pairs differ
    d_total  any mismatch among the ports at all
    """

    d12: float
    d34: float
    d_single: float
    d_pairs: float
    d_total: float


# The adaptive schedule: port order of each run, by sender count.  Sender 1
# stays at port 1 (it is the phase/grouping reference); four senders pair
# (1,2)(3,4), then (1,3)(2,4), then (1,4)(2,3).  These are the only network
# sizes modelled, and N - 1 runs resolve any relationship.
_SCHEDULE = {2: ((1, 2),), 4: ((1, 2, 3, 4), (1, 3, 2, 4), (1, 4, 2, 3))}


def check_network(n: int, *sizes: int, encoding: Encoding = Encoding.SINGLE_BIT) -> int:
    """Check a network's shape and return its schedule length.

    n must be a modelled sender count (2 or 4), every given size (of a
    channel, protocol, run or relationship) must equal n, and two-bit
    encoding needs n == 2.  Returns the number of runs in the schedule,
    N - 1.
    """
    if n not in _SCHEDULE:
        raise DomainError(f"networks are defined for 2 or 4 senders, got {n!r}")
    for size in sizes:
        if size != n:
            raise DomainError(f"a part sized for {size} senders, expected {n}")
    if n != 2 and encoding is _TWO_BIT:
        raise DomainError("two-bit encoding is defined for two senders only")
    return len(_SCHEDULE[n])


def run_pairing(run_index: int, n_senders: int = 4) -> tuple[int, ...]:
    """Port order (sender at each port) of run run_index of the schedule."""
    runs = check_network(n_senders)
    if not 1 <= run_index <= runs:
        raise DomainError(f"run index must be 1..{runs}, got {run_index}")
    return _SCHEDULE[n_senders][run_index - 1]


def observed_detectors(n_senders: int) -> tuple[int, ...]:
    """0-based indices of the detectors the decision rule reads.

    The final-sum detector (index 0) clicks for every relationship and is not
    observed; the difference-port detectors are.
    """
    check_network(n_senders)
    return tuple(range(1, n_senders))


def relationship_profile(
    rel: Relationship, pairing: Sequence[int], delta: float
) -> PatternFractions:
    """Pattern fractions seen at the four ports for one relationship and pairing.

    ``pairing[p-1]`` is the sender at port p.  Computed from the worst-case
    regions, so the fractions are exact for the minimum-distance instance.
    """
    if rel.n != 4:
        raise DomainError(f"profiles defined for 4 senders, got {rel.n}")
    if sorted(pairing) != [1, 2, 3, 4]:
        raise DomainError(f"pairing must permute 1..4, got {tuple(pairing)}")
    d12 = d34 = d_single = d_pairs = d_total = 0.0
    for region in worst_case_regions(rel, delta):
        v = tuple(region.bits[s - 1] for s in pairing)
        w = region.weight
        if any(v):
            d_total += w
        if v[0] != v[1]:
            d12 += w
        if v[2] != v[3]:
            d34 += w
        weight4 = sum(v)
        if weight4 in (1, 3):
            d_single += w
        if v[0] == v[1] and v[2] == v[3] and v[0] != v[2]:
            d_pairs += w
    return PatternFractions(d12, d34, d_single, d_pairs, d_total)


def integers(values: Sequence, field: str) -> tuple[int, ...]:
    """values as ints; DomainError unless each is integral (int, numpy integer, 2.0) and no bool."""
    out = []
    for v in values:
        # an exact int passes as it is; the ABC checks cost ~1.4 us a value
        if type(v) is not int:
            if isinstance(v, bool) or not (
                isinstance(v, numbers.Integral)
                or (isinstance(v, numbers.Real) and float(v).is_integer())
            ):
                raise DomainError(f"{field} must be integers, got {v!r}")
            v = int(v)
        out.append(v)
    return tuple(out)


@dataclass(frozen=True)
class RunConfig:
    """One interferometer run: amplitudes, port order, decision thresholds.

    alphas      per-sender coherent amplitudes (sender k uses alphas[k-1])
    pairing     sender at each port, a permutation of 1..N
    thresholds  click-count threshold per *observed* detector
    encoding    phase encoding of the codeword bits
    """

    alphas: tuple[float, ...]
    pairing: tuple[int, ...]
    thresholds: tuple[int, ...]
    encoding: Encoding = Encoding.SINGLE_BIT

    def __post_init__(self) -> None:
        object.__setattr__(self, "alphas", tuple(float(a) for a in self.alphas))
        object.__setattr__(self, "pairing", integers(self.pairing, "pairing entries"))
        object.__setattr__(self, "thresholds", integers(self.thresholds, "thresholds entries"))
        n = len(self.alphas)
        if sorted(self.pairing) != list(range(1, n + 1)):
            raise DomainError(
                f"pairing must permute 1..{n}, got {self.pairing}"
            )
        for a in self.alphas:
            if not (a >= 0.0 and math.isfinite(a)):
                raise DomainError(f"amplitudes must be finite and >= 0, got {a!r}")
        expected = len(observed_detectors(n))
        if len(self.thresholds) != expected:
            raise DomainError(
                f"{n} senders observe {expected} detectors, got "
                f"{len(self.thresholds)} thresholds"
            )
        for t in self.thresholds:
            if t < 0:
                raise DomainError(f"thresholds must be >= 0, got {t}")
        if not isinstance(self.encoding, Encoding):
            raise DomainError(f"encoding must be an Encoding, got {self.encoding!r}")

    @property
    def n_senders(self) -> int:
        return len(self.alphas)


def check_schedule(runs: Sequence[RunConfig], n_senders: int, encoding: Encoding) -> None:
    """Check runs against the adaptive schedule.

    The network must pass check_network with every run's size and the
    encoding; run i (counted from 1) must then be run i of the schedule,
    with its pairing, and carry the given encoding.
    """
    check_network(n_senders, *(rc.n_senders for rc in runs), encoding=encoding)
    schedule = _SCHEDULE[n_senders]
    for i, rc in enumerate(runs, start=1):
        if i > len(schedule) or rc.pairing != schedule[i - 1]:
            raise DomainError(f"run {i}'s pairing {rc.pairing} is not run {i} of {schedule}")
        if rc.encoding is not encoding:
            raise DomainError(
                f"run {i} uses the {rc.encoding.value} encoding, expected {encoding.value}"
            )

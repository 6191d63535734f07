"""Communication-complexity accounting.

Quantum cost: each sender transmits mu_k = alpha_k**2 mean photons, each
carrying log2(n) bits' worth of fingerprint, so one run costs
Q = sum_k alpha_k**2 * log2(n) qubits and a multi-run protocol budgets the
worst case (all runs costed).  Classical reference points: the cost of the
best known classical fingerprinting protocol for the all-equality task and
the information-theoretic lower bound for it.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Iterator, Sequence

from .core import DomainError, RunConfig, enumerate_relationships

__all__ = [
    "q_total",
    "classical_optimal_ae",
    "classical_limit_ae",
    "count_cases",
    "count_cases_bruteforce",
]


def q_total(runs: Sequence[RunConfig], n: int) -> float:
    """Total qubits over all runs: sum of alpha**2 * log2(n)."""
    if n < 2:
        raise DomainError(f"message length n must be >= 2, got {n}")
    mu_sum = math.fsum(a * a for run in runs for a in run.alphas)
    return mu_sum * math.log2(n)


def classical_optimal_ae(n: int, N: int, p_e: float) -> float:
    """Bits sent by the best known classical all-equality fingerprinting.

    N parties each hold an n-bit message; repetition drives the one-shot
    failure probability (1/9)(1 - e^{-1/2}) per comparison below p_e.
    """
    if n < 2 or N < 2:
        raise DomainError(f"need n >= 2 and N >= 2, got n={n}, N={N}")
    if not (0.0 < p_e < 1.0):
        raise DomainError(f"p_e must lie in (0, 1), got {p_e!r}")
    reps = math.ceil(math.log2(p_e) / math.log2(1.0 - (1.0 - math.exp(-0.5)) / 9.0))
    block = math.ceil(3 * n / N)
    per_rep = 8.0 * math.sqrt(2.0 * block) + 4.0 * math.ceil(math.log2(3 * n / block))
    return N * reps * per_rep


def classical_limit_ae(n: int, N: int, p_e: float) -> float:
    """Classical lower bound (bits) for the all-equality task.

    May come out negative for p_e >= 1/4; callers decide how to flag that.
    """
    if n < 2 or N < 2:
        raise DomainError(f"need n >= 2 and N >= 2, got n={n}, N={N}")
    if not (0.0 <= p_e < 1.0):
        raise DomainError(f"p_e must lie in [0, 1), got {p_e!r}")
    return N * (
        (1.0 - 2.0 * math.sqrt(p_e)) * math.sqrt(n) / (2.0 * math.sqrt(N * math.log(2.0)))
        - 1.0 / N
    )


def _descending_compositions(
    total: int, max_part: int, parts: int
) -> Iterator[tuple[int, ...]]:
    # Nonincreasing tuples of `parts` integers in [1, max_part] summing to total.
    if parts == 0:
        if total == 0:
            yield ()
        return
    lo = -(-total // parts)  # ceil: first part can't be below the average
    for first in range(min(max_part, total - (parts - 1)), lo - 1, -1):
        for rest in _descending_compositions(total - first, first, parts - 1):
            yield (first,) + rest


def count_cases(N: int, i: int, j: int) -> int:
    """Set partitions of N elements into j groups with largest group exactly i.

    Closed form: sum over nonincreasing size profiles (i = N_1 >= N_2 >= ...
    >= N_j) of the multinomial count divided by s_G = prod over repeated
    sizes of multiplicity!.
    """
    if not (1 <= j <= N):
        raise DomainError(f"need 1 <= j <= N, got j={j}, N={N}")
    if not (-(-N // j) <= i <= N - (j - 1)):
        raise DomainError(
            f"largest group i={i} impossible for N={N}, j={j} "
            f"(valid range [{-(-N // j)}, {N - (j - 1)}])"
        )
    total = 0
    for rest in _descending_compositions(N - i, i, j - 1):
        sizes = (i,) + rest
        ways = 1
        remaining = N
        for s in sizes:
            ways *= math.comb(remaining, s)
            remaining -= s
        s_g = math.prod(math.factorial(mult) for mult in Counter(sizes).values())
        assert ways % s_g == 0
        total += ways // s_g
    return total


def count_cases_bruteforce(N: int, i: int, j: int) -> int:
    """Same count by direct enumeration of all set partitions (cross-check)."""
    if not (1 <= j <= N) or not (-(-N // j) <= i <= N - (j - 1)):
        raise DomainError(f"(i={i}, j={j}) invalid for N={N}")
    return sum(
        1
        for rel in enumerate_relationships(N)
        if rel.num_groups == j and rel.group_sizes[0] == i
    )

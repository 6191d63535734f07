"""Count statistics over a codeword's pulses and threshold selection.

A detector's codeword count is the number of pulses that produced a click,
read as core.CountModel(pulses, p): Binomial(pulses, p), exactly, at every
pulse count.  The closed forms and the oracle give one such law per
detector and hypothesis.

The tails are scipy's regularized incomplete beta functions, called
through their scalar entry points in scipy.special.cython_special with
Python float arguments.  Those run the same Boost kernels as the
scipy.special ufuncs and return the same values bit for bit
(test_tails_equal_the_scipy_special_ufuncs_bit_for_bit), but skip about
1 us of ufunc dispatch a call: betainc(21, 99980, 3e-4) takes 0.17 us
against 1.2 us (2 cores, Python 3.11, scipy 1.17).  scipy.stats
distributions cost ~30x more again and dominate the import time.

    P(C > t) = betainc(t + 1, pulses - t, p)   (regularized incomplete
               beta, the routine binom.sf uses), or 1 - betaincc of the
               same arguments where t + 1 <= mean and the tail is >= 1/2
    P(C < t) = betaincc(t, pulses - t + 1, p)

One error event: the referee reads count >= threshold as outcome 1, so at
threshold t a detector errs with max(P_equal(C >= t), P_different(C < t)) —
the boundary atom C = t errs on the Equal side.  best_threshold minimizes
that event and error_probability audits it; tail_above (strictly above) and
tail_below (strictly below) are the primitives both read.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Sequence

from scipy.special.cython_special import betainc, betaincc

from .core import CountModel, DomainError, integers

__all__ = [
    "ThresholdChoice",
    "tail_above",
    "tail_below",
    "error_probability",
    "best_threshold",
]


def _check_point(model: CountModel, t: int) -> int:
    # t as an int: any integral type but bool.  A count point comes from the
    # program, not from a config file, so a float one (even 5.0) is a slip.
    if type(t) is not int:
        if not isinstance(t, numbers.Integral):
            raise DomainError(f"count points must be integers, got {t!r}")
        (t,) = integers((t,), "count points")
    if t < 0 or t > model.pulses:
        raise DomainError(f"count point {t} outside [0, {model.pulses}]")
    return t


def _above(pulses: int, p: float, t: int) -> float:
    # P(C > t) for t in [0, pulses]
    if t >= pulses:
        # betainc(pulses + 1, 0, 1.0) is 1.0, not the empty tail's 0
        return 0.0
    if t + 1 <= pulses * p:
        # the tail is at least 1/2 here, where betainc errs by up to 2.4e-8
        # relative at 1e6-1e9 pulses; 1 - betaincc stays within 2e-11
        return 1.0 - betaincc(float(t + 1), float(pulses - t), p)
    return betainc(float(t + 1), float(pulses - t), p)


def _below(pulses: int, p: float, t: int) -> float:
    # P(C < t) for t in [0, pulses]
    if t == 0:
        return 0.0
    return betaincc(float(t), float(pulses - t + 1), p)


def tail_above(model: CountModel, t: int) -> float:
    """P(C > t)."""
    return _above(model.pulses, model.p, _check_point(model, t))


def tail_below(model: CountModel, t: int) -> float:
    """P(C < t)."""
    return _below(model.pulses, model.p, _check_point(model, t))


def _check_pulses(equal: CountModel, different: CountModel) -> None:
    if equal.pulses != different.pulses:
        raise DomainError(
            f"count laws cover different pulse counts: {equal.pulses} vs {different.pulses}"
        )


def _decision_errors(equal: CountModel, different: CountModel, t: int) -> tuple[float, float]:
    # Errors of the rule "count >= t means Different": P_equal(C >= t) and
    # P_different(C < t).  tail_below checks t first.
    e_df = tail_below(different, t)
    return (1.0 if t == 0 else tail_above(equal, t - 1)), e_df


def _errors(pulses: int, p_eq: float, p_df: float, t: int) -> tuple[float, float]:
    # _decision_errors on plain numbers, unchecked: t in [0, pulses]
    return (1.0 if t == 0 else _above(pulses, p_eq, t - 1)), _below(pulses, p_df, t)


def error_probability(
    pairs: Sequence[tuple[Sequence[CountModel], Sequence[CountModel]]],
    thresholds: Sequence[Sequence[int]],
) -> float:
    """Protocol error probability over runs under the referee's rule.

    ``pairs`` holds one (Equal, Different) pair of count-law tuples per run,
    one law per observed detector; ``thresholds`` the matching per-run
    integral threshold tuples.  Returns the max over all runs and detectors
    of P_equal(C >= t) and P_different(C < t), the event best_threshold
    minimizes.
    """
    if len(pairs) != len(thresholds) or not pairs:
        raise DomainError(
            f"need one threshold tuple per run: {len(pairs)} runs, "
            f"{len(thresholds)} threshold tuples"
        )
    worst = 0.0
    for (equal, different), run_ths in zip(pairs, thresholds):
        if not equal:
            raise DomainError("a run has no detectors")
        if not len(equal) == len(different) == len(run_ths):
            raise DomainError(
                f"a run has {len(equal)} Equal laws, {len(different)} Different laws "
                f"and {len(run_ths)} thresholds"
            )
        ths = integers(run_ths, "thresholds")
        for eq, df, t in zip(equal, different, ths):
            _check_pulses(eq, df)
            worst = max(worst, *_decision_errors(eq, df, t))
    return worst


@dataclass(frozen=True)
class ThresholdChoice:
    """A selected threshold and its worst-case decision error."""

    threshold: int
    p_e: float
    degenerate: bool = False


def _start(pulses: int, p_eq: float, p_df: float) -> int:
    # ceil of the count where the two binomials give equal probability,
    # which lies between the means (as p -> 0 it tends to Poisson's
    # (mu_D - mu_E) / ln(mu_D / mu_E)), or the midpoint of the means when a
    # law is a point mass at an end of its range
    if not (0.0 < p_eq < 1.0 and 0.0 < p_df < 1.0):
        t0 = (pulses * p_eq + pulses * p_df) / 2
    else:
        log_odds = math.log(p_df) - math.log(p_eq) + math.log1p(-p_eq) - math.log1p(-p_df)
        t0 = pulses * (math.log1p(-p_eq) - math.log1p(-p_df)) / log_odds
    return min(max(math.ceil(t0), 0), pulses)


def _search_start(equal: CountModel, different: CountModel) -> int:
    return _start(equal.pulses, equal.p, different.p)


def _degenerate(pulses: int, p_eq: float, p_df: float) -> bool:
    # equal means: no threshold separates the two laws
    return math.isclose(pulses * p_eq, pulses * p_df, rel_tol=1e-12, abs_tol=1e-12)


def _meets(pulses: int, p_eq: float, p_df: float, eps: float) -> bool | None:
    # Whether best_threshold's p_e <= eps, from the errors at the search start
    # t0 and one count from it, or None.  The Equal error falls and the
    # Different one rises with t: both within eps at a count settle it true,
    # and one above eps rules out every count on its side.  At equal means
    # best_threshold returns the midpoint's error, not the least.
    if _degenerate(pulses, p_eq, p_df) or (t := _start(pulses, p_eq, p_df)) == 0:
        return None
    e_eq, e_df = _errors(pulses, p_eq, p_df, t)
    if (e_eq <= eps) == (e_df <= eps):
        return e_eq <= eps
    # One error rules out t0's side.  At the next count u on the other side,
    # the error that grows away from t0 rules out the rest, or leaves it open.
    u = t - 1 if e_eq <= eps else t + 1
    if u > pulses:
        return None
    e_eq, e_df = _errors(pulses, p_eq, p_df, u)
    if e_eq <= eps and e_df <= eps:
        return True
    return False if (e_eq if u < t else e_df) > eps else None


def best_threshold(equal: CountModel, different: CountModel) -> ThresholdChoice:
    """Integer threshold minimizing max(P_equal(C >= t), P_different(C < t)).

    P_equal(C >= t) is nonincreasing in t and P_different(C < t) is
    nondecreasing, so the minimizer sits where they cross: the smallest t at
    which the Different error reaches the Equal one.  The search starts at the
    count where the two laws give equal probability (_search_start), within a
    count or two of the crossing, and gallops down or up with doubling steps
    until the comparison flips (upward it may run out to ``pulses``; t = 0
    never qualifies, so downward it stops by 0); then it bisects the last
    step.  Of the crossing's neighbours only the one below can do better: the
    one above errs at least P_different(C < t) at the crossing, the crossing's
    own error.  About 4 tail evaluations per threshold at 10^5 and 10^13
    pulses, against 40-94 over the whole count range.  Ties go to the smaller
    threshold.  Where both tails are monotone in t the result is the
    full-range search's, bit for bit, whatever the start.  Where a tail
    underflows into subnormals (the Equal tail against a click probability at
    or near 1, say) betainc is not monotone in its last bits and the two
    searches can pick different thresholds; the error returned has been no
    larger in every such case seen.  When the two models have equal means no
    threshold separates them; the rounded midpoint is returned with
    ``degenerate=True``.
    """
    _check_pulses(equal, different)
    if _degenerate(equal.pulses, equal.p, different.p):
        t = int(round(equal.mean))  # in [0, pulses], as p is in [0, 1]
        e_eq, e_df = _decision_errors(equal, different, t)
        return ThresholdChoice(t, max(e_eq, e_df), degenerate=True)

    pulses = equal.pulses
    # errors per count point read; the search never reads a point twice
    errors: dict[int, tuple[float, float]] = {}

    def diff_dominates(t: int) -> bool:
        e_eq, e_df = errors[t] = _decision_errors(equal, different, t)
        return e_df >= e_eq

    # smallest t with e_df >= e_eq, read as pulses + 1 if there is none;
    # never 0, which errs 1.0 on Equal and 0.0 on Different
    t, step = _search_start(equal, different), 1
    if diff_dominates(t):
        hi = t
        while True:
            lo = max(hi - step, 0)
            if not diff_dominates(lo):
                break
            hi, step = lo, 2 * step
    else:
        lo, hi = t, pulses + 1
        while lo < pulses:
            t = min(lo + step, pulses)
            if diff_dominates(t):
                hi = t
                break
            lo, step = t, 2 * step
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if diff_dominates(mid):
            hi = mid
        else:
            lo = mid
    cross = min(hi, pulses)
    # the crossing was read; the point below it was not when the climb ran out at pulses
    below = errors.get(cross - 1) or _decision_errors(equal, different, cross - 1)
    below, at = max(below), max(errors[cross])
    return ThresholdChoice(cross, at) if at < below else ThresholdChoice(cross - 1, below)

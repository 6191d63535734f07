"""Count-tail probabilities and threshold selection vs exact-arithmetic oracles.

The binomial oracle sums probability mass with Fraction arithmetic (no
floating point at all); the Poisson oracle sums the series with fsum.  The
library evaluates the tails with scipy.special's betainc/betaincc
(binomial), pdtrc/pdtr (Poisson) and ndtr (Gaussian) and must agree to near
machine precision.  A parity check pins those ufuncs to the scipy.stats
distributions they replace.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sps

from qfnet.core import DomainError
from qfnet.probmodel import ClickProfile
from qfnet.stats import (
    BINOMIAL_PULSE_LIMIT,
    LAW_BINOMIAL,
    LAW_GAUSSIAN,
    LAW_POISSON,
    CountModel,
    best_threshold,
    error_probability,
    tail_above,
    tail_below,
)


def binom_pmf_exact(n, k, p_frac):
    return math.comb(n, k) * p_frac**k * (1 - p_frac) ** (n - k)


def binom_above_exact(n, t, p_frac):
    return float(sum(binom_pmf_exact(n, k, p_frac) for k in range(t + 1, n + 1)))


def binom_below_exact(n, t, p_frac):
    return float(sum(binom_pmf_exact(n, k, p_frac) for k in range(0, t)))


def poisson_above(lam, t):
    # P(C > t) by direct series over the complement
    terms = [math.exp(-lam + k * math.log(lam) - math.lgamma(k + 1)) for k in range(t + 1)]
    return 1.0 - math.fsum(terms)


def poisson_below(lam, t):
    terms = [math.exp(-lam + k * math.log(lam) - math.lgamma(k + 1)) for k in range(t)]
    return math.fsum(terms)


# --- tails vs oracles --------------------------------------------------------


def test_binomial_tails_match_fraction_oracle():
    cases = [
        (1000, Fraction(1, 2), 500),
        (1000, Fraction(1, 2), 520),
        (10, Fraction(3, 10), 4),
        (250, Fraction(1, 100), 0),
        (250, Fraction(1, 100), 10),
    ]
    for n, p, t in cases:
        model = CountModel(n, float(p), LAW_BINOMIAL)
        assert tail_above(model, t) == pytest.approx(
            binom_above_exact(n, t, p), rel=1e-12, abs=1e-300
        )
        assert tail_below(model, t) == pytest.approx(
            binom_below_exact(n, t, p), rel=1e-12, abs=1e-300
        )
    # Dyadic p (exact in binary) where betaincc and scipy.stats' binom.cdf
    # disagree: binom.cdf errs by 2.3e-14 to 4.1e-14 relative here, while
    # betaincc matches the oracle to the last bit.
    for n, p, t in [
        (475, Fraction(9, 16), 200),
        (466, Fraction(5, 8), 200),
        (894, Fraction(3, 8), 249),
        (621, Fraction(3, 4), 396),
    ]:
        model = CountModel(n, float(p), LAW_BINOMIAL)
        assert tail_below(model, t) == pytest.approx(
            binom_below_exact(n, t, p), rel=1e-15, abs=1e-300
        )
        assert tail_above(model, t) == pytest.approx(
            binom_above_exact(n, t, p), rel=1e-15, abs=1e-300
        )


def test_binomial_below_is_strict():
    # P(C < 4) over 10 pulses at p = 0.3 counts outcomes 0..3 only
    model = CountModel(10, 0.3, LAW_BINOMIAL)
    want = binom_below_exact(10, 4, Fraction(3, 10))
    assert tail_below(model, 4) == pytest.approx(want, rel=1e-12)
    assert tail_below(model, 0) == 0.0
    assert tail_above(model, 10) == 0.0


def test_poisson_tails_match_series():
    lam = 20.0
    model = CountModel(10**9, lam / 10**9, LAW_POISSON)
    # far tail: a mean-20 count barely ever reaches 100
    assert tail_above(model, 100) < 1e-30
    for t in (5, 15, 20, 40):
        assert tail_above(model, t) == pytest.approx(poisson_above(lam, t), rel=1e-9)
        assert tail_below(model, t) == pytest.approx(poisson_below(lam, t), rel=1e-9)
    bright = CountModel(10**9, 238.0 / 10**9, LAW_POISSON)
    assert tail_below(bright, 100) < 1e-10
    assert tail_below(bright, 100) == pytest.approx(poisson_below(238.0, 100), rel=1e-6)


def test_tail_identity_sums_to_one():
    for model in (
        CountModel(500, 0.13, LAW_BINOMIAL),
        CountModel(10**8, 3e-7, LAW_POISSON),
    ):
        for t in (0, 10, 30, 60):
            pmf = 1.0 - tail_above(model, t) - tail_below(model, t)
            # 1 - (1 - tiny) cancels, so allow float-level slack below zero
            assert -1e-12 <= pmf <= 1.0
            if model.law == LAW_BINOMIAL:
                want = binom_pmf_exact(500, t, Fraction(13, 100))
                assert pmf == pytest.approx(float(want), rel=1e-9, abs=1e-12)


def test_poisson_approximates_binomial_at_scale():
    # the law switchover must be statistically invisible
    pulses, p = 10**7, 1e-5  # mean 100
    exact = CountModel(pulses, p, LAW_BINOMIAL)
    approx = CountModel(pulses, p, LAW_POISSON)
    for t in (60, 80, 100, 120, 140):
        assert tail_above(approx, t) == pytest.approx(tail_above(exact, t), rel=1e-3)
        assert tail_below(approx, t) == pytest.approx(tail_below(exact, t), rel=1e-3)


def test_gaussian_cross_check_is_close():
    model_b = CountModel(10**4, 0.3, LAW_BINOMIAL)
    model_g = CountModel(10**4, 0.3, LAW_GAUSSIAN)
    mean, sd = 3000, math.sqrt(10**4 * 0.3 * 0.7)
    for t in (int(mean - 2 * sd), int(mean + 2 * sd)):
        assert tail_above(model_g, t) == pytest.approx(tail_above(model_b, t), rel=0.05)


def test_tail_numeric_edges():
    # p = 1: every pulse clicks, so C = pulses surely
    sure = CountModel(10, 1.0, LAW_BINOMIAL)
    assert tail_above(sure, 10) == 0.0
    assert tail_above(sure, 9) == 1.0
    assert tail_below(sure, 10) == 0.0
    # p = 0: C = 0 surely
    silent = CountModel(10, 0.0, LAW_BINOMIAL)
    assert [tail_above(silent, t) for t in (0, 5, 10)] == [0.0, 0.0, 0.0]
    assert [tail_below(silent, t) for t in (0, 1, 10)] == [0.0, 1.0, 1.0]
    # Poisson mean 0
    dark = CountModel(10**9, 0.0, LAW_POISSON)
    assert [tail_above(dark, t) for t in (0, 7)] == [0.0, 0.0]
    assert [tail_below(dark, t) for t in (0, 1, 7)] == [0.0, 1.0, 1.0]
    # Gaussian sd = 0 (p at either end) degenerates to a point mass
    for p, mass_at in ((0.0, 0), (1.0, 50)):
        point = CountModel(50, p, LAW_GAUSSIAN)
        for t in (0, 25, 50):
            assert tail_above(point, t) == float(mass_at > t)
            assert tail_below(point, t) == float(mass_at < t)
    # both sides of the binomial-to-Poisson switch agree in the bulk
    mean = 20.0
    at_limit = CountModel.auto(BINOMIAL_PULSE_LIMIT, mean / BINOMIAL_PULSE_LIMIT)
    past_limit = CountModel.auto(BINOMIAL_PULSE_LIMIT + 1, mean / (BINOMIAL_PULSE_LIMIT + 1))
    assert (at_limit.law, past_limit.law) == (LAW_BINOMIAL, LAW_POISSON)
    for t in (0, 10, 20, 30, BINOMIAL_PULSE_LIMIT):
        assert tail_above(past_limit, t) == pytest.approx(tail_above(at_limit, t), rel=1e-3)
        assert tail_below(past_limit, t) == pytest.approx(tail_below(at_limit, t), rel=1e-3)


def _grid_points(pulses, mean, sd):
    """Count points from both ends of the range and across the bulk."""
    points = {0, 1, pulses - 1, pulses}
    points.update(int(mean + k * sd) for k in (-8, -3, -1, 0, 1, 3, 8))
    return sorted(t for t in points if 0 <= t <= pulses)


def test_tails_match_scipy_stats():
    # Binomial P(C > t), Poisson and Gaussian tails are the very ufuncs
    # scipy.stats calls, so they agree bit for bit.  Binomial P(C < t) uses
    # betaincc where binom.cdf uses a different Boost entry point; the two
    # agree to 1e-10 relative (subnormal results carry no relative
    # precision, hence the absolute floor).
    for pulses in (1, 7, 250, 5_000, 100_000, BINOMIAL_PULSE_LIMIT):
        for p in (0.0, 1e-6, 0.013, 0.3, 0.5, 0.97, 1.0):
            model = CountModel(pulses, p, LAW_BINOMIAL)
            gauss = CountModel(pulses, p, LAW_GAUSSIAN)
            sd = math.sqrt(pulses * p * (1.0 - p))
            for t in _grid_points(pulses, model.mean, sd):
                assert tail_above(model, t) == sps.binom.sf(t, pulses, p)
                if sd > 0.0:
                    assert tail_above(gauss, t) == sps.norm.sf((t + 0.5 - gauss.mean) / sd)
                if t > 0:
                    assert tail_below(model, t) == pytest.approx(
                        sps.binom.cdf(t - 1, pulses, p), rel=1e-10, abs=1e-300
                    )
                    if sd > 0.0:
                        assert tail_below(gauss, t) == sps.norm.cdf(
                            (t - 0.5 - gauss.mean) / sd
                        )
    for mean in (0.0, 1e-3, 5.0, 238.0, 1e4, 1e7, 1e12):
        model = CountModel(10**13, mean / 10**13, LAW_POISSON)
        for t in _grid_points(10**13, model.mean, math.sqrt(model.mean)):
            assert tail_above(model, t) == sps.poisson.sf(t, model.mean)
            if t > 0:
                assert tail_below(model, t) == sps.poisson.cdf(t - 1, model.mean)


def test_count_model_auto_switches_law():
    assert CountModel.auto(BINOMIAL_PULSE_LIMIT, 0.1).law == LAW_BINOMIAL
    assert CountModel.auto(BINOMIAL_PULSE_LIMIT + 1, 0.1).law == LAW_POISSON
    assert CountModel.auto(100, 0.25).mean == pytest.approx(25.0)


def test_count_model_validation():
    with pytest.raises(DomainError):
        CountModel(0, 0.5)
    with pytest.raises(DomainError):
        CountModel(10, 1.5)
    with pytest.raises(DomainError):
        CountModel(10, 0.5, "weibull")
    with pytest.raises(DomainError):
        tail_above(CountModel(10, 0.5), 11)
    with pytest.raises(DomainError):
        tail_below(CountModel(10, 0.5), -1)


# --- threshold selection -----------------------------------------------------


def scan_best(equal, different, hi):
    """Exhaustive reference: minimize the decision-consistent worst error."""
    best_t, best_err = None, math.inf
    for t in range(0, hi + 1):
        e_eq = 1.0 if t <= 0 else tail_above(equal, t - 1)
        e_df = 0.0 if t <= 0 else tail_below(different, t)
        err = max(e_eq, e_df)
        if err < best_err:
            best_t, best_err = t, err
    return best_t, best_err


def test_best_threshold_bright_vs_dim_poisson():
    pulses = 10**8
    equal = CountModel(pulses, 20.0 / pulses, LAW_POISSON)
    different = CountModel(pulses, 238.0 / pulses, LAW_POISSON)
    choice = best_threshold(equal, different)
    want_t, want_err = scan_best(equal, different, 400)
    assert choice.threshold == want_t
    assert choice.p_e == pytest.approx(want_err, rel=1e-12)
    assert not choice.degenerate
    # the crossing sits between the means, nearer the dim one
    assert 20 < choice.threshold < 238


def test_best_threshold_zero_mean_equal():
    # silent Equal side: any count at all indicates Different
    equal = CountModel(1000, 0.0)
    different = CountModel(1000, 0.01)
    choice = best_threshold(equal, different)
    assert choice.threshold == 1
    assert choice.p_e == pytest.approx(tail_below(different, 1), rel=1e-12)


def test_best_threshold_degenerate_when_means_match():
    model = CountModel(1000, 0.05)
    choice = best_threshold(model, CountModel(1000, 0.05))
    assert choice.degenerate
    assert choice.threshold == 50
    assert choice.p_e > 0.4  # no separation to exploit


def test_best_threshold_rejects_mismatched_pulses():
    with pytest.raises(DomainError):
        best_threshold(CountModel(10, 0.1), CountModel(20, 0.1))


@settings(deadline=None, max_examples=60)
@given(
    st.integers(50, 400),
    st.floats(0.0, 0.2),
    st.floats(0.0, 0.9),
)
def test_best_threshold_matches_exhaustive_scan(pulses, p_eq, gap):
    p_df = min(1.0, p_eq + gap)
    equal = CountModel(pulses, p_eq)
    different = CountModel(pulses, p_df)
    choice = best_threshold(equal, different)
    if choice.degenerate:
        # equal means: no usable separation, the choice is a flagged midpoint
        assert math.isclose(equal.mean, different.mean, rel_tol=1e-12, abs_tol=1e-12)
        return
    want_t, want_err = scan_best(equal, different, pulses)
    assert choice.threshold == want_t
    assert choice.p_e == pytest.approx(want_err, rel=1e-12, abs=1e-15)


# --- protocol error over runs ------------------------------------------------


def profile(p, pulses=1000, condition="equal"):
    return ClickProfile(per_detector=tuple(p), condition=condition, pulses=pulses)


def test_error_probability_is_worst_tail_over_runs():
    eq = profile([0.0, 0.001])
    df = profile([0.02, 0.05], condition="different")
    ths = [(5, 10)]
    got = error_probability([(eq, df)], ths)
    worst = 0.0
    for p_eq, p_df, t in zip(eq.per_detector, df.per_detector, ths[0]):
        worst = max(
            worst,
            tail_above(CountModel(1000, p_eq), t),
            tail_below(CountModel(1000, p_df), t),
        )
    assert got == pytest.approx(worst, rel=1e-12)


def test_error_probability_perfect_separation():
    eq = profile([0.0])
    df = profile([1.0], condition="different")
    assert error_probability([(eq, df)], [(500,)]) == 0.0


def test_error_probability_identical_profiles_reported_honestly():
    same = profile([0.5])
    got = error_probability([(same, same)], [(500,)])
    assert got > 0.4  # both tails straddle the shared mean


def test_error_probability_validation():
    eq, df = profile([0.1]), profile([0.2])
    with pytest.raises(DomainError):
        error_probability([], [])
    with pytest.raises(DomainError):
        error_probability([(eq, df)], [(1,), (2,)])
    with pytest.raises(DomainError):
        error_probability([(eq, df)], [(1, 2)])
    with pytest.raises(DomainError):
        error_probability([(eq, profile([0.2], pulses=999))], [(1,)])

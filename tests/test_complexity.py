"""Communication-cost accounting and partition-counting combinatorics."""

import math

import pytest

from qfnet.core import DomainError, Encoding, RunConfig, run_pairing
from qfnet.complexity import (
    classical_limit_ae,
    classical_optimal_ae,
    count_cases,
    count_cases_bruteforce,
    q_total,
)

BELL = {2: 2, 3: 5, 4: 15, 5: 52, 6: 203, 7: 877, 8: 4140}


def make_run(alphas, pairing=(1, 2, 3, 4)):
    n_obs = 1 if len(alphas) == 2 else 3
    return RunConfig(alphas=tuple(alphas), pairing=pairing, thresholds=(0,) * n_obs)


# --- quantum cost ------------------------------------------------------------


def test_q_total_is_energy_times_log():
    runs = [make_run((85.0, 78.0), pairing=(1, 2))]
    n = int(3e12)
    assert q_total(runs, n) == pytest.approx((85.0**2 + 78.0**2) * math.log2(n), rel=1e-12)


def test_q_total_sums_over_runs():
    runs = [
        make_run((2.0, 3.0, 4.0, 5.0), run_pairing(1)),
        make_run((1.0, 1.0, 1.0, 1.0), run_pairing(2)),
    ]
    want = (4 + 9 + 16 + 25 + 4) * math.log2(1000)
    assert q_total(runs, 1000) == pytest.approx(want, rel=1e-12)


def test_q_total_scales_quadratically_in_amplitude():
    one = q_total([make_run((2.0, 2.0), (1, 2))], 100)
    four = q_total([make_run((4.0, 4.0), (1, 2))], 100)
    assert four == pytest.approx(4 * one, rel=1e-12)


# --- classical bounds --------------------------------------------------------


def test_classical_caption_values():
    # the five published caption pairs, within 1%
    cases = [
        (int(1e13), 4, 1e-2, 1.29e10, 3.04e6),
        (int(3e12), 2, 1e-5, 1.24e10, 1.46e6),
        (int(1e14), 4, 1e-5, 1.01e11, 1.19e7),
    ]
    for n, N, p_e, want_opt, want_lim in cases:
        assert classical_optimal_ae(n, N, p_e) == pytest.approx(want_opt, rel=0.01)
        assert classical_limit_ae(n, N, p_e) == pytest.approx(want_lim, rel=0.01)


def test_classical_bounds_orderings():
    n, N, p_e = int(1e12), 4, 1e-3
    assert classical_limit_ae(n, N, p_e) < classical_optimal_ae(n, N, p_e)
    # both grow with message length
    assert classical_optimal_ae(4 * n, N, p_e) > classical_optimal_ae(n, N, p_e)
    assert classical_limit_ae(4 * n, N, p_e) > classical_limit_ae(n, N, p_e)
    # sqrt(n) scaling of the limit
    ratio = classical_limit_ae(100 * n, N, p_e) / classical_limit_ae(n, N, p_e)
    assert ratio == pytest.approx(10.0, rel=0.05)


def test_classical_bounds_validation():
    with pytest.raises(DomainError):
        classical_optimal_ae(0, 4, 1e-3)
    with pytest.raises(DomainError):
        classical_optimal_ae(1000, 1, 1e-3)
    with pytest.raises(DomainError):
        classical_optimal_ae(1000, 4, 0.0)
    with pytest.raises(DomainError):
        classical_limit_ae(1000, 4, 1.0)
    # p_e = 0 is legitimate for the lower bound
    assert classical_limit_ae(1000, 4, 0.0) > 0


def test_count_cases_extreme_group_counts():
    with pytest.raises(DomainError):
        count_cases(4, 1, 2)  # two groups force a largest size >= 2


# --- partition counting ------------------------------------------------------


def test_count_cases_published_value():
    assert count_cases(8, 4, 3) == 490


def test_count_cases_small_cases_by_hand():
    # four senders, two groups, largest of size two: AABB-type splits
    assert count_cases(4, 2, 2) == 3
    # all equal (one group of four) and all distinct (four singletons)
    assert count_cases(4, 4, 1) == 1
    assert count_cases(4, 1, 4) == 1
    # one pair among four singletons-otherwise: choose the pair
    assert count_cases(4, 2, 3) == 6
    # a triple plus a singleton: choose the lone sender
    assert count_cases(4, 3, 2) == 4


@pytest.mark.parametrize("N", sorted(BELL))
def test_count_cases_totals_are_bell_numbers(N):
    total = 0
    for j in range(1, N + 1):
        for i in range(math.ceil(N / j), N - j + 2):
            got = count_cases(N, i, j)
            assert got == count_cases_bruteforce(N, i, j)
            total += got
    assert total == BELL[N]


def test_count_cases_range_validation():
    with pytest.raises(DomainError):
        count_cases(4, 0, 2)
    with pytest.raises(DomainError):
        count_cases(4, 5, 1)
    with pytest.raises(DomainError):
        count_cases(4, 2, 5)

"""Amplitude search under the error budget, and fixed-row audits."""

import dataclasses
import hashlib
import json
import math
import random

import pytest

from qfnet.benchmarks import BENCHMARKS
from qfnet.core import (
    ChannelModel,
    DomainError,
    Encoding,
    ProtocolParams,
    RunConfig,
    run_pairing,
)
from qfnet.complexity import q_total
from qfnet import optimizer
from qfnet.optimizer import OptimizationProblem, evaluate_fixed, optimize
from qfnet.probmodel import four_party_asymmetric, two_party_asymmetric
from qfnet.stats import best_threshold


def small_sym4(epsilon=1e-6):
    pp = ProtocolParams(n=10_000, c=0.2, delta=0.22, epsilon=epsilon, N=4)
    ch = ChannelModel(eta=(0.3, 0.3, 0.3, 0.3), dark_count=1e-7)
    return OptimizationProblem(pp=pp, ch=ch)


def small_asym2(epsilon=1e-6, **kw):
    pp = ProtocolParams(n=10_000, c=0.2, delta=0.22, epsilon=epsilon, N=2)
    ch = ChannelModel.from_sqrt_eta((0.3, 0.4), dark_count=1e-8)
    return OptimizationProblem(pp=pp, ch=ch, **kw)


# --- problem validation ------------------------------------------------------


def test_problem_defaults_to_full_run_budget():
    assert small_sym4().runs == 3
    assert small_asym2().runs == 1
    assert small_asym2(runs=1).runs == 1


def test_problem_takes_an_integral_run_count():
    problem = small_asym2(runs=1.0)
    assert type(problem.runs) is int and problem == small_asym2(runs=1)
    assert optimize(problem) == optimize(small_asym2(runs=1))
    with pytest.raises(DomainError, match="must be integers"):
        small_asym2(runs=1.5)


def test_problem_validation():
    pp4 = ProtocolParams(n=1000, c=2.0, delta=0.22, epsilon=1e-3, N=4)
    ch4 = ChannelModel(eta=(0.5,) * 4)
    with pytest.raises(DomainError):
        OptimizationProblem(pp=pp4, ch=ch4, runs=4)
    with pytest.raises(DomainError):
        OptimizationProblem(pp=pp4, ch=ch4, runs=0)
    with pytest.raises(DomainError):
        OptimizationProblem(pp=pp4, ch=ch4, encoding=Encoding.TWO_BIT)
    with pytest.raises(DomainError):
        OptimizationProblem(pp=pp4, ch=ch4, bounds=(2.0, 1.0))
    with pytest.raises(DomainError):
        OptimizationProblem(pp=pp4, ch=ch4, bounds=(0.0, 8.0))
    with pytest.raises(DomainError):
        OptimizationProblem(pp=pp4, ch=ch4, grid=0.9)
    with pytest.raises(DomainError):
        OptimizationProblem(pp=pp4, ch=ChannelModel(eta=(0.5, 0.5)))
    pp8 = ProtocolParams(n=1000, c=2.0, delta=0.22, epsilon=1e-3, N=8)
    with pytest.raises(DomainError, match="2 or 4 senders"):
        OptimizationProblem(pp=pp8, ch=ChannelModel(eta=(0.5,) * 8))


# --- fixed-row audits --------------------------------------------------------


def test_evaluate_fixed_audit_identity():
    problem = small_asym2()
    rc = RunConfig(alphas=(85.0, 78.0), pairing=(1, 2), thresholds=(100,))
    res = evaluate_fixed([rc], problem)
    assert res.q_r == q_total([rc], problem.pp.n)
    assert res.q_r == pytest.approx(
        (85.0**2 + 78.0**2) * math.log2(problem.pp.n), rel=1e-12
    )
    assert res.feasible == (res.p_e <= problem.pp.epsilon)
    assert res.trace["mode"] == "evaluate_fixed"


def test_evaluate_fixed_silent_channel_always_errs():
    # A silent channel never clicks, so it cannot tell the hypotheses apart:
    # threshold 0 reads every count as Different (Equal errs surely), and
    # threshold 1 reads every count as Equal (Different errs surely).
    problem = small_asym2()
    problem = OptimizationProblem(
        pp=problem.pp,
        ch=ChannelModel.from_sqrt_eta((0.3, 0.4), dark_count=0.0),
    )
    for threshold in (0, 1):
        rc = RunConfig(alphas=(0.0, 0.0), pairing=(1, 2), thresholds=(threshold,))
        res = evaluate_fixed([rc], problem)
        assert res.q_r == 0.0
        assert res.p_e == 1.0
        assert not res.feasible


def test_evaluate_fixed_validation():
    problem = small_sym4()
    good = RunConfig(alphas=(5.0,) * 4, pairing=run_pairing(1), thresholds=(1, 1, 1))
    bad_pairing = RunConfig(
        alphas=(5.0,) * 4, pairing=run_pairing(2), thresholds=(1, 1, 1)
    )
    with pytest.raises(DomainError):
        evaluate_fixed([], problem)
    with pytest.raises(DomainError):
        evaluate_fixed([bad_pairing], problem)  # run 1 must use pairing 1
    with pytest.raises(DomainError):
        evaluate_fixed([good] * 4, problem)  # over the run budget
    two_bit = RunConfig(
        alphas=(5.0, 5.0), pairing=(1, 2), thresholds=(1,), encoding=Encoding.TWO_BIT
    )
    with pytest.raises(DomainError):
        evaluate_fixed([two_bit], small_asym2())  # problem says single-bit


# --- search ------------------------------------------------------------------


def test_optimize_small_symmetric_four_party():
    problem = small_sym4()
    res = optimize(problem)
    assert res.feasible
    assert res.p_e <= problem.pp.epsilon
    assert len(res.per_run) == 3
    # symmetric channel: one search, replicated to the other pairings
    first = res.per_run[0]
    for i, rc in enumerate(res.per_run, start=1):
        assert rc.alphas == first.alphas
        assert rc.thresholds == first.thresholds
        assert rc.pairing == run_pairing(i)
    assert len(set(first.alphas)) == 1
    # the reported numbers are the audit of the returned rows, which scores
    # the search's own event
    audit = evaluate_fixed(res.per_run, problem)
    assert res.p_e == audit.p_e
    assert res.q_r == audit.q_r


def test_optimize_reports_the_error_its_search_found():
    # The search and the audit score one event, so the reported p_e is the
    # search's own.  Here threshold 11 errs 9.90345e-4 when the atom C = 11
    # counts against Equal, and 9.88658e-4 when it is dropped.
    problem = OptimizationProblem(
        pp=ProtocolParams(**_DESK_PROTOCOL, N=2),
        ch=ChannelModel.from_sqrt_eta((0.791, 0.676), _DESK_DARK_COUNT, 0.9934),
        encoding=Encoding.TWO_BIT,
    )
    res = optimize(problem)
    assert res.per_run[0].thresholds == (11,)
    assert res.p_e == res.trace["search_p_e"]
    assert res.p_e == pytest.approx(9.90345e-4, rel=1e-5)


def test_optimize_two_party_asymmetric_channel():
    problem = small_asym2()
    res = optimize(problem)
    assert res.feasible
    assert res.p_e <= problem.pp.epsilon
    assert len(res.per_run) == 1
    a1, a2 = res.per_run[0].alphas
    assert a1 > 0 and a2 > 0
    assert res.trace["evaluations"] > 0


def test_optimize_is_deterministic():
    problem = small_asym2()
    first = optimize(problem)
    second = optimize(problem)
    assert first.per_run == second.per_run
    assert first.p_e == second.p_e
    assert first.q_r == second.q_r


def test_optimize_relaxing_epsilon_cannot_cost_more():
    tight = optimize(small_sym4(epsilon=1e-8))
    loose = optimize(small_sym4(epsilon=1e-3))
    assert tight.feasible and loose.feasible
    assert loose.q_r <= tight.q_r * (1 + 1e-9)


def test_optimize_reports_infeasible_bounds():
    problem = small_asym2(bounds=(1.0, 2.0))
    res = optimize(problem)
    assert not res.feasible
    assert res.p_e > problem.pp.epsilon
    assert all(a <= 2.0 for rc in res.per_run for a in rc.alphas)


def test_optimize_single_run_budget():
    problem = OptimizationProblem(
        pp=ProtocolParams(n=10_000, c=0.2, delta=0.22, epsilon=1e-6, N=4),
        ch=ChannelModel(eta=(0.3,) * 4, dark_count=1e-7),
        runs=1,
    )
    res = optimize(problem)
    assert res.feasible
    assert len(res.per_run) == 1
    full = optimize(small_sym4())
    assert res.q_r == pytest.approx(full.q_r / 3, rel=1e-9)


def test_optimize_result_serializes():
    res = optimize(small_asym2())
    doc = res.to_jsonable()
    assert doc["feasible"] is True
    assert doc["per_run"][0]["pairing"] == [1, 2]
    assert doc["per_run"][0]["encoding"] == "single-bit"
    assert isinstance(doc["per_run"][0]["thresholds"][0], int)


# --- pinned output -----------------------------------------------------------

# sha256 of json.dumps(optimize(problem).to_jsonable(), sort_keys=True): the
# alphas, thresholds, p_e, q_r and trace["evaluations"] of each search.  A
# change to the search, the click model or the threshold choice changes a
# digest, so a speed-up of any of them must leave these alone.  The digests
# also depend on scipy's betainc/betaincc values (the count tails behind every
# threshold and p_e, read through scipy.special.cython_special's scalar entry
# points, which give the ufuncs' values bit for bit without the ufuncs' ~1 us
# dispatch a call): a scipy release that moves them by one ulp changes them
# without any change here.
_DESK_PROTOCOL = {"n": 500_000, "c": 0.2, "delta": 0.22, "epsilon": 1e-3}
_DESK_DARK_COUNT = 5e-5
_PINNED_OPTIMIZE = {
    "T_asym4": "7f31fd0bb0bb232c5a4cf00d03ec10d2d5c50e9d669314895da7674f3c0d2069",
    "desk4 nu=0.992": "50083b6b8ad5c374e55e501dad845cd6f17c574a1c70c0a9213e3f7e683443d2",
    "desk4 nu=0.9845": "c11bca84503c95ed72629b76186a8b1b1c8eaadafd2bd26376dd141d9deaf0ca",
    "desk2 two-bit": "0bbfe3cce9671a621635e4b8ebf0a4bef52d76f7729f91ef2bb82ab74ae8073b",
}


def _pinned_problem(label: str) -> OptimizationProblem:
    if label == "T_asym4":
        bench = BENCHMARKS["T_asym4"]
        return OptimizationProblem(pp=bench.pp, ch=bench.ch, runs=len(bench.runs))
    # desk scale: m = 1e5 pulses; the four-party channels are the fixed ones
    # of the benchmark's desk-optimize batch
    sqrt_eta, visibility, encoding = {
        "desk4 nu=0.992": ((0.566, 0.705, 0.847, 0.817), 0.992, Encoding.SINGLE_BIT),
        "desk4 nu=0.9845": ((0.611, 0.762, 0.938, 0.796), 0.9845, Encoding.SINGLE_BIT),
        "desk2 two-bit": ((0.62, 0.87), 0.985, Encoding.TWO_BIT),
    }[label]
    return OptimizationProblem(
        pp=ProtocolParams(**_DESK_PROTOCOL, N=len(sqrt_eta)),
        ch=ChannelModel.from_sqrt_eta(sqrt_eta, _DESK_DARK_COUNT, visibility),
        encoding=encoding,
    )


@pytest.mark.parametrize("label", sorted(_PINNED_OPTIMIZE))
def test_optimize_output_is_pinned(label):
    doc = optimize(_pinned_problem(label)).to_jsonable()
    digest = hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()
    assert digest == _PINNED_OPTIMIZE[label]


@pytest.mark.parametrize("label, evaluations", [("T_asym4", 28), ("desk4 nu=0.9845", 23)])
def test_optimize_chooses_each_threshold_once_per_call(monkeypatch, label, evaluations):
    # Along the ray detectors 2 and 4 often share their (Equal, Different)
    # probabilities, and the search's closing evaluation repeats its last
    # feasible point; the search must not choose those thresholds again, and
    # must not keep the choices past one call.  Run 1's attenuated amplitudes
    # are level on these channels, so later runs take run 1's point unsearched.
    calls = []

    def counting(equal, different):
        calls.append(((equal.pulses, equal.p), (different.pulses, different.p)))
        return best_threshold(equal, different)

    monkeypatch.setattr(optimizer, "best_threshold", counting)
    problem = _pinned_problem(label)
    first = optimize(problem)
    first_calls = list(calls)
    assert first_calls
    assert len(set(first_calls)) == len(first_calls)
    calls.clear()
    second = optimize(problem)
    assert len(calls) == len(first_calls)  # nothing carried over between calls
    assert first.trace["evaluations"] == second.trace["evaluations"] == evaluations


def _worst_best_error(equal, different):
    # Worst detector error at each detector's best threshold, and those thresholds.
    choices = [best_threshold(eq, df) for eq, df in zip(equal, different)]
    return max(c.p_e for c in choices), tuple(c.threshold for c in choices)


def _smallest_feasible_scale(feasible, start, stop, grid):
    # A x1.05 ladder from start, then a log-bisection to grid; None when the
    # ladder passes stop without reaching a feasible scale.
    below, scale = None, start
    while not feasible(scale):
        if scale > stop:
            return None
        below, scale = scale, scale * 1.05
    while below is not None and scale / below > 1.0 + grid:
        mid = math.sqrt(below * scale)
        if feasible(mid):
            scale = mid
        else:
            below = mid
    return scale


@pytest.mark.parametrize("label", ["T_asym4", "desk4 nu=0.992", "desk4 nu=0.9845"])
def test_four_party_runs_beat_nearby_rays(label):
    # Around each returned run, 64 log-normally perturbed directions; along
    # each, the smallest feasible scale from 0.9x the returned norm must cost
    # no less than the returned run, within 2*grid.  A ladder that passes
    # twice the returned norm gives up: beyond it every point costs more than
    # the returned run (below visibility 1 some directions are infeasible at
    # every scale).
    problem = _pinned_problem(label)
    eps, grid = problem.pp.epsilon, problem.grid
    rng = random.Random(label)
    for run_index, rc in enumerate(optimize(problem).per_run, start=1):
        norm = math.hypot(*rc.alphas)
        for _ in range(64):
            direction = [a * math.exp(rng.gauss(0.0, 0.15)) for a in rc.alphas]
            length = math.hypot(*direction)
            unit = [d / length for d in direction]

            def feasible(scale):
                alphas = [scale * u for u in unit]
                pair = four_party_asymmetric(run_index, alphas, problem.ch, problem.pp)
                return _worst_best_error(*pair)[0] <= eps

            scale = _smallest_feasible_scale(feasible, 0.9 * norm, 2.0 * norm, grid)
            if scale is not None:
                assert scale**2 >= norm**2 * (1.0 - 2.0 * grid), (run_index, unit)


def test_two_party_ray_error_is_not_monotone():
    # desk-optimize's seed-2 two-bit channel.  Along its equal-attenuated ray
    # the worst error at the best thresholds is feasible at scale 8.78,
    # infeasible at 9.00 and feasible again at 9.05, where the threshold
    # steps from 12 to 13.  The ray's ladder and log-bisection alone stop at
    # q_r 2 707.80, above the feasible 8.78; the angle search must leave the
    # ray and reach at most 2 536.29, where a per-coordinate descent stopped.
    pp = ProtocolParams(**_DESK_PROTOCOL, N=2)
    ch = ChannelModel.from_sqrt_eta((0.811, 0.938), _DESK_DARK_COUNT, 0.9855)
    inverse = [1.0 / s for s in ch.sqrt_eta]
    ray = [r / max(inverse) for r in inverse]
    assert ray[0] == 1.0 and ray[1] == pytest.approx(0.86461, abs=1e-5)
    walk = {8.78: (True, 12, 9.81e-4), 9.00: (False, 12, 1.0013e-3), 9.05: (True, 13, 9.78e-4)}
    for scale, (feasible, threshold, p_e) in walk.items():
        alphas = [scale * r for r in ray]
        pair = two_party_asymmetric(alphas, ch, pp, Encoding.TWO_BIT)
        worst, thresholds = _worst_best_error(*pair)
        assert thresholds == (threshold,)
        assert worst == pytest.approx(p_e, rel=5e-4)
        assert (worst <= pp.epsilon) == feasible
    res = optimize(OptimizationProblem(pp=pp, ch=ch, encoding=Encoding.TWO_BIT))
    assert res.feasible
    assert res.q_r <= 2536.29
    assert res.q_r < q_total([RunConfig([8.78 * r for r in ray], (1, 2), (12,))], pp.n)


@pytest.mark.parametrize("encoding", list(Encoding))
def test_two_party_search_is_never_costlier_than_its_ray(encoding):
    # On seeded desk channels the two-party result costs no more than the
    # equal-attenuated ray at its own smallest feasible scale, within 2*grid:
    # under the default bounds, and under a lower bound that clamps the ray's
    # smaller amplitude (0.98 x the smallest amplitude of the unbounded
    # result).
    rng = random.Random(f"two-party ray {encoding.value}")
    clamped = 0
    for _ in range(8):
        sqrt_eta = tuple(rng.uniform(0.5, 0.95) for _ in range(2))
        ch = ChannelModel.from_sqrt_eta(sqrt_eta, _DESK_DARK_COUNT, rng.uniform(0.97, 1.0))
        free = OptimizationProblem(
            pp=ProtocolParams(**_DESK_PROTOCOL, N=2), ch=ch, encoding=encoding
        )
        alphas = optimize(free).per_run[0].alphas
        lo, hi = free.bounds
        ray = [min(sqrt_eta) / s for s in sqrt_eta]
        for bounds in ((lo, hi), (0.98 * min(alphas), hi)):
            problem = dataclasses.replace(free, bounds=bounds)

            def at(scale):
                return [min(bounds[1], max(bounds[0], scale * r)) for r in ray]

            def feasible(scale):
                pair = two_party_asymmetric(at(scale), ch, problem.pp, encoding)
                return _worst_best_error(*pair)[0] <= problem.pp.epsilon

            scale = _smallest_feasible_scale(feasible, bounds[0], bounds[1] / min(ray), free.grid)
            assert scale is not None, (sqrt_eta, bounds)
            res = optimize(problem)
            assert res.feasible, (sqrt_eta, bounds)
            ray_cost = sum(a * a for a in at(scale)) * math.log2(problem.pp.n)
            assert res.q_r <= ray_cost * (1.0 + 2.0 * free.grid), (sqrt_eta, bounds)
            clamped += any(a in bounds for a in at(scale))
    assert clamped >= 4


def test_clamped_four_party_runs_differ_across_runs():
    # Why optimize() searches each run on its own when a bound clamps run 1's
    # point, instead of replicating run 1 as when its fields are level.  Sender
    # 3 has the clearest channel, so the equal-attenuated ray gives it the
    # smallest amplitude and the lower bound clamps it at 8: its attenuated
    # amplitude (7.61) then exceeds the other three (6.61).  The detector
    # that compares sender 3 with its partner sees unequal fields even when
    # the messages agree, so it takes the highest threshold: detector 4 in
    # run 1, which pairs (1,2)(3,4), and detector 2 in run 2, which pairs
    # (1,3)(2,4).  The alphas agree in every run, the thresholds do not, and
    # run 1's thresholds in every run would miss epsilon nearly fortyfold.
    pp = ProtocolParams(n=500_000, c=0.2, delta=0.22, epsilon=1e-2, N=4)
    ch = ChannelModel.from_sqrt_eta((0.56, 0.729, 0.951, 0.71))
    problem = OptimizationProblem(pp=pp, ch=ch, bounds=(8.0, 32768.0))
    res = optimize(problem)
    assert res.feasible
    assert res.p_e == pytest.approx(0.009983, rel=1e-4)
    assert res.trace["evaluations"] == 39
    first, second = res.per_run[:2]
    assert first.alphas[2] == 8.0
    assert all(rc.alphas == first.alphas for rc in res.per_run)
    assert (first.thresholds, second.thresholds) == ((1, 3, 6), (6, 3, 1))
    replicated = [
        RunConfig(first.alphas, run_pairing(i, 4), first.thresholds) for i in (1, 2, 3)
    ]
    audit = evaluate_fixed(replicated, problem)
    assert audit.p_e == pytest.approx(0.39236, rel=1e-3)
    assert not audit.feasible


def test_tight_bounds_report_the_least_error_of_each_run():
    # Under hi = 18 no point of desk4 nu=0.992's clamped ray meets epsilon.
    # Senders 1 and 2 sit at hi, so the attenuated amplitudes are unequal,
    # each run is searched on its own, and each returns its least-error rung
    # with its own thresholds.
    problem = dataclasses.replace(_pinned_problem("desk4 nu=0.992"), bounds=(1.0, 18.0))
    res = optimize(problem)
    assert not res.feasible
    assert res.p_e == pytest.approx(3.507469966189296e-3, rel=1e-9)
    assert res.q_r == pytest.approx(65_364.93054836993, rel=1e-12)
    alphas = (18.0, 18.0, 15.568732206994396, 16.140411480201045)
    assert all(rc.alphas == pytest.approx(alphas, rel=1e-12) for rc in res.per_run)
    assert [rc.thresholds for rc in res.per_run] == [(30, 24, 32), (33, 23, 31), (33, 23, 31)]
    assert [rc.pairing for rc in res.per_run] == [run_pairing(i, 4) for i in (1, 2, 3)]


def test_ladder_climbs_past_a_bound_that_clamps_the_largest_amplitude():
    # The equal-attenuated ray puts its largest coordinate (sender 2, the
    # dimmest channel) at the scale.  Under hi = 21.7 the unbounded optimum
    # (top alpha 22.15) is out of reach, but the ray with sender 2 clamped at
    # hi still meets epsilon once the other three grow: the ladder must climb
    # on past hi instead of reporting infeasible (p_e 7.2e-3 when it stopped).
    hi = 21.7
    problem = OptimizationProblem(
        pp=ProtocolParams(**_DESK_PROTOCOL, N=4),
        ch=ChannelModel.from_sqrt_eta((0.704, 0.635, 0.857, 0.815), _DESK_DARK_COUNT, 0.9773),
        bounds=(1.0, hi),
    )
    res = optimize(problem)
    assert res.feasible
    assert all(a <= hi for rc in res.per_run for a in rc.alphas)
    assert all(rc.alphas[1] == hi for rc in res.per_run)
    assert evaluate_fixed(res.per_run, problem).p_e <= problem.pp.epsilon
    assert res.q_r == pytest.approx(83_281, rel=1e-4)


def test_ladder_tries_the_scale_that_puts_every_amplitude_at_the_bound():
    # Two-bit desk channel under hi = 9.2819, 1.02 x the unbounded top alpha
    # (9.0998).  The ray (0.9406, 1) reaches (hi, hi) at scale 9.868, between
    # the x1.3 rungs 8.157 (infeasible) and 10.604 (past every amplitude's
    # bound).  A ladder that stopped at the last rung below it reported
    # infeasible, p_e 1.4205e-3 after 9 evaluations; its last rung is that
    # scale, where the point meets epsilon.
    hi = 9.2819
    problem = OptimizationProblem(
        pp=ProtocolParams(**_DESK_PROTOCOL, N=2),
        ch=ChannelModel.from_sqrt_eta((0.8639, 0.8126), _DESK_DARK_COUNT, 0.99455),
        encoding=Encoding.TWO_BIT,
        bounds=(1.0, hi),
    )
    res = optimize(problem)
    assert res.feasible
    assert all(a <= hi for a in res.per_run[0].alphas)
    assert evaluate_fixed(res.per_run, problem).p_e <= problem.pp.epsilon
    assert res.p_e == pytest.approx(9.9595e-4, rel=1e-4)
    assert res.trace["evaluations"] == 32

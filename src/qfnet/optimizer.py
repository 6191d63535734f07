"""Amplitude/threshold search minimizing qubit cost under an error budget.

Per run the search minimizes sum_k alpha_k**2 * log2(n) subject to the
worst-case decision error over the observed detectors staying below epsilon,
with thresholds re-selected by stats.best_threshold at every candidate point.
That search starts at the count where the two count laws give equal
probability, within a count or two of the crossing it looks for, so a
detector costs about 4 tail evaluations where one over the whole count range
takes 40-94.  A geometric ladder finds the first feasible scale along the ray
that equalizes the attenuated amplitudes sqrt(eta_k)*alpha_k and a
log-bisection narrows the bracket below it: that is a four-party run's point.
The ray's largest coordinate equals the scale, and bounds clamp each
coordinate, so once the upper bound clamps the largest ones the ladder climbs
on while the smaller ones grow, until the smallest reaches the bound.
The search never leaves that clamped ray: under a tight upper bound it can
report infeasible where points off the ray meet epsilon.
A two-party run over unequal transmissions then gets an angle search: the
point s*(cos t, sin t) moves to t +- step where a smaller s meets epsilon,
and the step halves from 4 degrees until it falls below 0.5.  When run 1's
attenuated amplitudes are level, every later run sees its fields and takes
its point.  One optimize() call chooses a threshold once per distinct
(Equal, Different) pulses and probabilities of a detector: on the ray
detectors 2 and 4 often share them (T_asym4: 84 lookups, 60 choices).

The error trends down along a ray (more photons separate the hypotheses
better) but is not monotone: the integer threshold lattice makes it step up
locally (7-9 upward steps on a 60-point scale sweep of a two-party
instance), so the bisection can stop above a smaller feasible scale.  What
holds is feasibility: the search and the final evaluate_fixed audit score
one event, the referee's rule (stats.error_probability), so the audit of
the returned rows reproduces the search's error (trace["search_p_e"]) and
feasible=True means it met epsilon.  Minimality of the returned scale is
unproven.  Deterministic throughout — no randomness, fixed iteration orders.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

from .complexity import q_total
from .core import (
    ChannelModel,
    CountModel,
    DomainError,
    Encoding,
    ProtocolParams,
    RunConfig,
    check_network,
    check_schedule,
    integers,
    run_pairing,
)
from .probmodel import four_party_asymmetric, two_party_asymmetric
from .stats import ThresholdChoice, best_threshold, error_probability

__all__ = ["OptimizationProblem", "OptimizationResult", "optimize", "evaluate_fixed"]


@dataclass(frozen=True)
class OptimizationProblem:
    """Instance description for the search.

    runs    how many runs to budget (None: the worst case for resolving the
            full relationship — N-1 for the multi-party scheme; pass 1 for
            an all-equal-only budget)
    bounds  inclusive per-amplitude search interval
    grid    relative amplitude resolution of the search
    """

    pp: ProtocolParams
    ch: ChannelModel
    encoding: Encoding = Encoding.SINGLE_BIT
    runs: int | None = None
    bounds: tuple[float, float] = (1.0, 32768.0)
    grid: float = 1e-3

    def __post_init__(self) -> None:
        budget = check_network(self.pp.N, self.ch.n_senders, encoding=self.encoding)
        lo, hi = self.bounds
        if not (0.0 < lo < hi and math.isfinite(hi)):
            raise DomainError(f"bounds must satisfy 0 < lo < hi < inf, got {self.bounds}")
        if not (0.0 < self.grid < 0.5):
            raise DomainError(f"grid must lie in (0, 0.5), got {self.grid!r}")
        runs = budget if self.runs is None else integers((self.runs,), "runs")[0]
        if not 1 <= runs <= budget:
            raise DomainError(f"runs must lie in [1, {budget}], got {runs}")
        object.__setattr__(self, "runs", runs)


@dataclass(frozen=True)
class OptimizationResult:
    """Outcome of a search or a fixed-parameter audit.

    feasible implies p_e <= epsilon; q_r always equals the audit identity
    sum over runs of alpha**2 * log2(n).
    """

    per_run: tuple[RunConfig, ...]
    q_r: float
    p_e: float
    feasible: bool
    trace: dict = field(default_factory=dict)

    def to_jsonable(self) -> dict:
        return {
            "per_run": [
                {
                    "alphas": list(rc.alphas),
                    "pairing": list(rc.pairing),
                    "thresholds": list(rc.thresholds),
                    "encoding": rc.encoding.value,
                }
                for rc in self.per_run
            ],
            "q_r": self.q_r,
            "p_e": self.p_e,
            "feasible": self.feasible,
            "trace": self.trace,
        }


def _run_profiles(
    problem: OptimizationProblem, run_index: int, alphas: Sequence[float]
) -> tuple[tuple[CountModel, ...], tuple[CountModel, ...]]:
    if problem.pp.N == 2:
        return two_party_asymmetric(alphas, problem.ch, problem.pp, problem.encoding)
    return four_party_asymmetric(run_index, alphas, problem.ch, problem.pp)


# One search's threshold choices, keyed by a detector's (pulses, Equal
# probability, Different probability): plain numbers hash faster than a pair
# of CountModels.
_Chosen = dict[tuple[int, float, float], ThresholdChoice]


def _pe_thresholds(
    problem: OptimizationProblem, run_index: int, alphas: Sequence[float], chosen: _Chosen
) -> tuple[float, tuple[int, ...]]:
    # Worst detector error with per-detector optimal thresholds.
    equal, diff = _run_profiles(problem, run_index, alphas)
    worst = 0.0
    ths = []
    for eq, df in zip(equal, diff):
        key = (eq.pulses, eq.p, df.p)
        choice = chosen.get(key)
        if choice is None:
            choice = chosen[key] = best_threshold(eq, df)
        ths.append(choice.threshold)
        worst = max(worst, choice.p_e)
    return worst, tuple(ths)


def _optimize_run(
    problem: OptimizationProblem, run_index: int, counter: list[int], chosen: _Chosen
) -> tuple[tuple[float, ...], tuple[int, ...], float]:
    lo, hi = problem.bounds
    eps = problem.pp.epsilon
    n_var = problem.pp.N
    # Search ray: equal attenuated amplitudes sqrt(eta_k)*alpha_k, normalized
    # so the largest coordinate equals the scale.
    ray = [1.0 / s for s in problem.ch.sqrt_eta]
    top = max(ray)
    ray = [r / top for r in ray]

    def at(scale: float, direction: Sequence[float] = ray) -> tuple[float, ...]:
        return tuple([min(hi, max(lo, scale * r)) for r in direction])

    def evaluate(alphas: Sequence[float]) -> tuple[float, tuple[int, ...]]:
        counter[0] += 1
        return _pe_thresholds(problem, run_index, alphas, chosen)

    def narrow(x_lo: float, x_hi: float, point: Callable[[float], Sequence[float]]) -> float:
        # Log-bisect an infeasible x_lo and a feasible x_hi down to the grid;
        # returns the feasible end.
        while x_hi / x_lo > 1.0 + problem.grid:
            mid = math.sqrt(x_lo * x_hi)
            if evaluate(point(mid))[0] <= eps:
                x_hi = mid
            else:
                x_lo = mid
        return x_hi

    # Phase A: geometric ladder to the first feasible scale.  It climbs on
    # while some coordinate is below hi: once hi clamps the largest ones, the
    # others still grow.  Its first rung is lo (lo * min(ray) < hi) and its
    # last the cap, where every amplitude sits at hi, so no rung steps over it.
    cap = hi / min(ray)
    tried = []
    scale, prev = lo, None
    while True:
        alphas = at(scale)
        pe, ths = evaluate(alphas)
        tried.append((pe, alphas, ths))
        if pe <= eps or scale >= cap:
            break
        prev, scale = scale, min(scale * 1.3, cap)
    if pe > eps:
        pe, alphas, ths = min(tried, key=lambda t: t[0])  # the first least error
        return alphas, ths, pe
    if prev is not None:
        alphas = at(narrow(prev, scale, at))

    # Phase B: angle search, for two senders over unequal transmissions
    # only: on a symmetric channel the uniform ray's minimal scale minimizes
    # the cost, and on four-party channels nearby rays find nothing cheaper
    # beyond grid (test_four_party_runs_beat_nearby_rays).  The point is
    # s*(cos t, sin t), costing s**2 unless a bound clamps it.  A probe at
    # t +- step one grid below s is skipped when its clamped point costs no
    # less; one that meets epsilon is walked down its own angle and narrowed,
    # and becomes the point.  When neither probe does, the step halves.
    if n_var == 2 and not problem.ch.symmetric():
        s, t = math.hypot(*alphas), math.atan2(alphas[1], alphas[0])
        step = math.radians(4.0)
        while step >= math.radians(0.5):
            for angle in (t + step, t - step):
                point = functools.partial(at, direction=(math.cos(angle), math.sin(angle)))
                x = s / (1.0 + problem.grid)
                if math.hypot(*point(x)) >= math.hypot(*alphas) or evaluate(point(x))[0] > eps:
                    continue
                while math.hypot(*point(x * 0.995)) < math.hypot(*point(x)):
                    if evaluate(point(x * 0.995))[0] > eps:
                        x = narrow(x * 0.995, x, point)
                        break
                    x *= 0.995
                s, t, alphas = x, angle, point(x)
                break
            else:
                step /= 2
    # alphas is the last point evaluated feasible: this re-evaluation only
    # recovers its thresholds and error.
    pe, ths = evaluate(alphas)
    return alphas, ths, pe


def optimize(problem: OptimizationProblem) -> OptimizationResult:
    """Minimize the total qubit cost under the per-run error budget.

    Returns the audit of the rows found, which is feasible = False (with the
    least error found) when no candidate within bounds meets epsilon.
    Deterministic given the problem.
    """
    evaluations = [0]
    # threshold choices of this call only, shared by its runs
    chosen: _Chosen = {}
    per_run: list[RunConfig] = []
    worst_pe = 0.0
    assert problem.runs is not None
    for run_index in range(1, problem.runs + 1):
        pairing = run_pairing(run_index, problem.pp.N)
        if run_index > 1:
            # When run 1's attenuated amplitudes are level, every pairing sees
            # its fields and its search would return run 1's point.  A bound
            # that clamps them leaves them unequal, and each run is searched
            # (test_clamped_four_party_runs_differ_across_runs).
            first = per_run[0]
            fields = [s * a for s, a in zip(problem.ch.sqrt_eta, first.alphas)]
            if max(fields) - min(fields) <= 1e-9 * max(fields):
                per_run.append(RunConfig(first.alphas, pairing, first.thresholds, first.encoding))
                continue
        alphas, ths, pe = _optimize_run(problem, run_index, evaluations, chosen)
        worst_pe = max(worst_pe, pe)
        per_run.append(RunConfig(alphas, pairing, ths, problem.encoding))
    # The audit scores the search's event, so it re-derives worst_pe.
    result = evaluate_fixed(per_run, problem)
    trace = {"mode": "optimize", "evaluations": evaluations[0], "search_p_e": worst_pe}
    return OptimizationResult(result.per_run, result.q_r, result.p_e, result.feasible, trace)


def evaluate_fixed(
    params: Sequence[RunConfig], problem: OptimizationProblem
) -> OptimizationResult:
    """Audit fixed parameter rows: no search, just q_r and the achieved error."""
    check_schedule(params, problem.pp.N, problem.encoding)
    pairs = [
        _run_profiles(problem, run_index, rc.alphas)
        for run_index, rc in enumerate(params, start=1)
    ]
    p_e = error_probability(pairs, [rc.thresholds for rc in params])
    q_r = q_total(params, problem.pp.n)
    return OptimizationResult(
        tuple(params), q_r, p_e, p_e <= problem.pp.epsilon, {"mode": "evaluate_fixed"}
    )

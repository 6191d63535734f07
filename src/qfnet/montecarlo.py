"""Pulse-level stochastic simulation of the full protocol.

The joint codewords enter as a pulse budget: the worst-case pattern regions
of optics.region_click_matrix get integer pulse counts by largest-remainder
apportionment of their weights, so pairwise distances are exact to one pulse
rather than binomially noisy — the distance guarantee an error-correcting
code provides.  Per trial, detector counts are binomial draws per
(region, detector) cell from the kernel's click probabilities plus dark
counts (independent detectors per pulse), runs execute adaptively exactly as
the referee would, and the resolved relationship is compared with the truth.

Randomness uses counter-based Philox streams keyed by (seed, trial), so any
subset of trials can be reproduced independently and parallel execution
would draw identical numbers; within a trial the draw order is fixed (runs
in schedule order, one vectorized draw per run).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .core import (
    ChannelModel,
    DomainError,
    Encoding,
    ProtocolParams,
    Relationship,
    RunConfig,
    observed_detectors,
    run_pairing,
)
from .decision import (
    DecisionOutcome,
    InconsistentOutcome,
    NeedMoreRuns,
    outcome_bits,
    resolve_f_r,
)
from .optics import region_click_matrix

__all__ = [
    "TrialSpec",
    "TrialReport",
    "simulate",
    "wilson_interval",
]

_Z95 = 1.959963984540054  # two-sided 95% normal quantile


def wilson_interval(successes: int, trials: int, z: float = _Z95) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if trials < 1 or not (0 <= successes <= trials):
        raise DomainError(f"need 0 <= successes <= trials, got {successes}/{trials}")
    phat = successes / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = (z / denom) * math.sqrt(phat * (1 - phat) / trials + z * z / (4 * trials * trials))
    return (max(0.0, center - half), min(1.0, center + half))


def _apportion(weights: Sequence[float], total: int) -> tuple[int, ...]:
    # Largest-remainder apportionment; ties go to earlier entries.
    ideal = [w * total for w in weights]
    base = [int(x) for x in ideal]
    leftover = total - sum(base)
    order = sorted(range(len(weights)), key=lambda i: (-(ideal[i] - base[i]), i))
    for i in order[:leftover]:
        base[i] += 1
    return tuple(base)


@dataclass(frozen=True)
class TrialSpec:
    """A Monte Carlo campaign: ground truth, physics, schedule, and budget."""

    rel: Relationship
    pp: ProtocolParams
    ch: ChannelModel
    runs: tuple[RunConfig, ...]
    trials: int
    seed: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "runs", tuple(self.runs))
        n = self.rel.n
        if n not in (2, 4):
            raise DomainError(f"simulation defined for 2 or 4 senders, got {n}")
        if self.pp.N != n or self.ch.n_senders != n:
            raise DomainError("relationship, protocol and channel sizes must agree")
        needed = 1 if n == 2 else 3
        if len(self.runs) != needed:
            raise DomainError(f"{n} senders need {needed} scheduled runs, got {len(self.runs)}")
        for i, rc in enumerate(self.runs, start=1):
            if rc.n_senders != n:
                raise DomainError(f"run {i} sized for {rc.n_senders} senders, expected {n}")
            if rc.pairing != run_pairing(i, n):
                raise DomainError(
                    f"run {i} must use pairing {run_pairing(i, n)}, got {rc.pairing}"
                )
            if rc.encoding is not self.runs[0].encoding:
                raise DomainError("all runs must share one encoding")
        if self.runs[0].encoding is Encoding.TWO_BIT and n != 2:
            raise DomainError("two-bit encoding is defined for two senders only")
        if self.trials < 1:
            raise DomainError(f"trials must be >= 1, got {self.trials}")
        if not (0 <= self.seed < 2**64):
            raise DomainError(f"seed must be a 64-bit unsigned integer, got {self.seed}")


@dataclass(frozen=True)
class TrialReport:
    """Aggregated campaign results.

    per_detector_count_stats holds one entry per scheduled run with the
    number of trials that executed it, the empirical count mean/variance per
    detector, and the analytic mean for comparison.  correct + incorrect +
    inconsistent = 1.
    """

    trials: int
    empirical_correct_rate: float
    empirical_incorrect_rate: float
    empirical_inconsistent_rate: float
    wilson_95: tuple[float, float]
    mean_runs_used: float
    runs_histogram: dict[int, int]
    per_detector_count_stats: tuple[dict, ...] = field(default_factory=tuple)

    def to_jsonable(self) -> dict:
        return {
            "trials": self.trials,
            "empirical_correct_rate": self.empirical_correct_rate,
            "empirical_incorrect_rate": self.empirical_incorrect_rate,
            "empirical_inconsistent_rate": self.empirical_inconsistent_rate,
            "wilson_95": list(self.wilson_95),
            "mean_runs_used": self.mean_runs_used,
            "runs_histogram": {str(k): v for k, v in sorted(self.runs_histogram.items())},
            "per_detector_count_stats": list(self.per_detector_count_stats),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_jsonable(), indent=2, sort_keys=True)


def simulate(spec: TrialSpec) -> TrialReport:
    """Run the campaign and aggregate decision and count statistics."""
    n = spec.pp.N
    observed = observed_detectors(n)
    click_mats = []
    for run in spec.runs:  # the region weights are the same for every run
        weights, probs = region_click_matrix(spec.rel, run, spec.ch, spec.pp)
        click_mats.append(np.clip(probs + spec.ch.dark_count, 0.0, 1.0))
    pulses = spec.runs[0].encoding.pulses(spec.pp.m)
    n_col = np.array(_apportion(weights, pulses), dtype=np.int64)[:, None]
    analytic_means = [n_col[:, 0] @ mat for mat in click_mats]

    n_runs = len(spec.runs)
    exec_count = [0] * n_runs
    sums = [np.zeros(n) for _ in range(n_runs)]
    sumsq = [np.zeros(n) for _ in range(n_runs)]
    n_correct = n_incorrect = n_inconsistent = 0
    runs_hist: dict[int, int] = {}
    total_runs_used = 0

    for trial in range(spec.trials):
        rng = np.random.Generator(np.random.Philox(key=[spec.seed, trial + 1]))
        outcomes: list[str] = []
        resolved: DecisionOutcome | None = None
        inconsistent = False
        for run_index in range(n_runs):
            run = spec.runs[run_index]
            draws = rng.binomial(n_col, click_mats[run_index]).sum(axis=0)
            exec_count[run_index] += 1
            sums[run_index] += draws
            sumsq[run_index] += draws.astype(np.float64) ** 2
            obs = [int(draws[d]) for d in observed]
            outcomes.append(outcome_bits(obs, run.thresholds).bits)
            if n == 2:
                # one run decides: bit 0 means the pair looks equal
                label = "AA" if outcomes[0] == "0" else "AB"
                resolved = DecisionOutcome(
                    f_r=1 if label == "AA" else 0,
                    relationship=Relationship.from_label(label),
                    runs_used=1,
                    f_ae=label == "AA",
                    f_ee=label == "AA",
                )
                break
            try:
                verdict = resolve_f_r(outcomes)
            except InconsistentOutcome:
                inconsistent = True
                break
            if isinstance(verdict, DecisionOutcome):
                resolved = verdict
                break
            assert isinstance(verdict, NeedMoreRuns)
        runs_used = len(outcomes)
        total_runs_used += runs_used
        runs_hist[runs_used] = runs_hist.get(runs_used, 0) + 1
        if inconsistent or resolved is None:
            n_inconsistent += 1
        elif resolved.relationship == spec.rel:
            n_correct += 1
        else:
            n_incorrect += 1

    stats = []
    for run_index in range(n_runs):
        k = exec_count[run_index]
        if k:
            mean = sums[run_index] / k
            var = sumsq[run_index] / k - mean**2
            if k > 1:  # unbiased sample variance
                var = var * k / (k - 1)
            mean_l, var_l = [float(x) for x in mean], [float(max(0.0, v)) for v in var]
        else:
            mean_l, var_l = [], []
        stats.append(
            {
                "run": run_index + 1,
                "executions": k,
                "mean": mean_l,
                "variance": var_l,
                "analytic_mean": [float(x) for x in analytic_means[run_index]],
            }
        )

    t = spec.trials
    return TrialReport(
        trials=t,
        empirical_correct_rate=n_correct / t,
        empirical_incorrect_rate=n_incorrect / t,
        empirical_inconsistent_rate=n_inconsistent / t,
        wilson_95=wilson_interval(n_correct, t),
        mean_runs_used=total_runs_used / t,
        runs_histogram=runs_hist,
        per_detector_count_stats=tuple(stats),
    )

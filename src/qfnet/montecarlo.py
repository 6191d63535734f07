"""Pulse-level stochastic simulation of the full protocol.

The joint codewords enter as a pulse budget: the worst-case pattern regions
of optics.region_click_matrix get integer pulse counts by largest-remainder
apportionment of their weights, so pairwise distances are exact to one pulse
rather than binomially noisy — the distance guarantee an error-correcting
code provides.  Per trial, detector counts are binomial draws per
(region, detector) cell from the kernel's click probabilities plus dark
counts (independent detectors per pulse).  The referee reads the runs
adaptively, exactly as decision.resolve_schedule does, and the resolved
relationship is compared with the truth; each distinct outcome pattern
(packed into one integer code per trial) is resolved once.

Randomness uses counter-based Philox streams keyed by (seed, trial), so any
subset of trials can be reproduced independently.  Each trial draws every
scheduled run in one vectorized call, in schedule order, so the runs the
referee skips come after the executed ones in the trial's stream and change
none of their counts.  The counts of a campaign are held as one int64 array
in an anonymous shared mapping: 8 * runs * N bytes per trial (96 B for four
senders).  One Philox generator serves each contiguous range of trials,
re-keyed per trial; the raw region cells are summed per block of trials.
Neither changes any trial's stream.

One driver draws every campaign.  A campaign of at least
2 * _MIN_WORKER_TRIALS trials is split among up to one process per usable
CPU, each with at least _MIN_WORKER_TRIALS trials: forked children each fill
one contiguous range of the shared counts in place, and the caller draws the
first range itself.  Each trial's counts come from its own key, so the
output does not depend on the number of CPUs.  A smaller campaign, or one
where forking is unsafe or unavailable (another thread is alive, the caller
is a daemonic process, or the platform has no fork start method), is one
range that the caller draws with no child.
"""

from __future__ import annotations

import json
import math
import os
import threading
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .core import (
    ChannelModel,
    DomainError,
    ProtocolParams,
    Relationship,
    RunConfig,
    check_network,
    check_schedule,
    observed_detectors,
)
from .decision import outcome_bits, resolve_schedule
from .optics import region_click_matrix

__all__ = [
    "TrialSpec",
    "TrialReport",
    "simulate",
    "wilson_interval",
]

_Z95 = 1.959963984540054  # two-sided 95% normal quantile
_BLOCK_TRIALS = 1024  # trials whose raw region cells are held at once
# Trials per worker process: a fork and a join (a few ms) stay under ~10% of
# one worker's share at 20-35 us per trial.
_MIN_WORKER_TRIALS = 2048


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """Wilson score interval (95%) for a binomial proportion."""
    if trials < 1 or not (0 <= successes <= trials):
        raise DomainError(f"need 0 <= successes <= trials, got {successes}/{trials}")
    phat = successes / trials
    z = _Z95
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
        needed = check_network(n, self.pp.N, self.ch.n_senders)
        if len(self.runs) != needed:
            raise DomainError(f"{n} senders need {needed} scheduled runs, got {len(self.runs)}")
        check_schedule(self.runs, n, self.runs[0].encoding)
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


def _draw_range(
    n_col: np.ndarray, click: np.ndarray, seed: int, start: int, out: np.ndarray
) -> None:
    """Draw trials start .. start + len(out) into out, a (trials, runs, N) int64 view.

    click[run, region, detector] are the click probabilities and n_col the
    pulses per region (a column); trial t draws all cells in one call from
    Philox(key=[seed, t + 1]) and sums them over the regions.

    A Philox stream is fixed by its key and counter, so one generator is
    built per range and re-keyed per trial by restoring its fresh state with
    the trial's key: the same stream as a new generator, without the
    constructor's cost.  The raw cells of up to _BLOCK_TRIALS trials are
    summed over the regions in one call per block.
    """
    trials = len(out)
    runs, regions, detectors = click.shape
    raw = np.empty((min(trials, _BLOCK_TRIALS), runs, regions, detectors), dtype=np.int64)
    bitgen = np.random.Philox(key=[seed, start + 1])
    rng = np.random.Generator(bitgen)
    fresh = bitgen.state  # counter 0, empty buffer
    key = fresh["state"]["key"]
    for lo in range(0, trials, _BLOCK_TRIALS):
        block = raw[: min(trials - lo, _BLOCK_TRIALS)]
        for i in range(len(block)):
            key[1] = start + lo + i + 1
            bitgen.state = fresh
            block[i] = rng.binomial(n_col, click)
        block.sum(axis=2, out=out[lo : lo + len(block)])


def _worker_count(trials: int) -> int:
    """Processes to draw a campaign on: 1 unless forking is safe and pays."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    workers = min(cpus, trials // _MIN_WORKER_TRIALS)
    # A thread may hold a lock at the fork that no thread of the child releases.
    if workers < 2 or threading.active_count() > 1:
        return 1
    import multiprocessing

    if "fork" not in multiprocessing.get_all_start_methods():
        return 1
    # A daemonic process may not have children.
    return 1 if multiprocessing.current_process().daemon else workers


def _draw_counts(n_col: np.ndarray, click: np.ndarray, seed: int, trials: int) -> np.ndarray:
    """Detector counts of every scheduled run: (trials, runs, N) int64.

    The counts live in an anonymous shared mapping split into W contiguous
    ranges of trials, W from _worker_count: W - 1 forked children fill the
    later ones in place while this process draws the first, then joins them.
    With W = 1 no child is made and this process draws every trial.  Every
    trial is drawn from its own key either way, so the counts do not depend
    on W.  A child that exits non-zero would leave its range unwritten, so it
    makes the draw raise; on any error the children still running are
    terminated.
    """
    import mmap
    import multiprocessing

    runs, _, detectors = click.shape
    workers = _worker_count(trials)
    shared = mmap.mmap(-1, 8 * trials * runs * detectors)  # MAP_SHARED | MAP_ANONYMOUS
    counts = np.frombuffer(shared, dtype=np.int64).reshape(trials, runs, detectors)
    bounds = [trials * w // workers for w in range(workers + 1)]
    children = []
    try:
        for lo, hi in zip(bounds[1:-1], bounds[2:]):
            child = multiprocessing.get_context("fork").Process(
                target=_draw_range, args=(n_col, click, seed, lo, counts[lo:hi])
            )
            child.start()
            children.append(child)
        _draw_range(n_col, click, seed, 0, counts[: bounds[1]])
        for child in children:
            child.join()
        failed = [(lo, child.exitcode) for lo, child in zip(bounds[1:], children) if child.exitcode]
    finally:
        for child in children:
            child.terminate()  # a no-op for a child that has been joined
            child.join()
            child.close()
    if failed:
        raise RuntimeError(
            "trial draw workers failed: "
            + ", ".join(f"trials from {lo} exited with code {code}" for lo, code in failed)
        )
    return counts


def simulate(spec: TrialSpec) -> TrialReport:
    """Run the campaign and aggregate decision and count statistics."""
    kernels = [region_click_matrix(spec.rel, run, spec.ch, spec.pp) for run in spec.runs]
    weights = kernels[0][0]  # the region weights are the same for every run
    click = np.clip(np.stack([probs for _, probs in kernels]) + spec.ch.dark_count, 0.0, 1.0)
    pulses = spec.runs[0].encoding.pulses(spec.pp.m)
    n_col = np.array(_apportion(weights, pulses), dtype=np.int64)[:, None]
    analytic_means = n_col[:, 0] @ click

    counts = _draw_counts(n_col, click, spec.seed, spec.trials)
    observed = observed_detectors(spec.pp.N)  # the contiguous difference ports
    bits = outcome_bits(
        counts[..., observed[0] : observed[-1] + 1], [run.thresholds for run in spec.runs]
    )
    # one integer code per trial's outcome pattern; each distinct one resolves once
    flat = bits.reshape(spec.trials, -1)
    _, first, inverse = np.unique(
        flat @ (1 << np.arange(flat.shape[1], dtype=np.int64)),
        return_index=True,
        return_inverse=True,
    )
    verdicts = [resolve_schedule(spec.pp.N, bits[i]) for i in first]
    runs_used = np.array([k for _, k in verdicts])[inverse]
    # 0 correct, 1 incorrect, 2 inconsistent
    grade = np.array([2 if d is None else int(d.relationship != spec.rel) for d, _ in verdicts])
    n_correct, n_incorrect, n_inconsistent = (
        int(c) for c in np.bincount(grade[inverse], minlength=3)
    )

    stats = []
    for run_index in range(len(spec.runs)):
        executed = counts[runs_used > run_index, run_index]
        k = len(executed)
        if k:
            mean = executed.sum(axis=0) / k
            var = np.square(executed, dtype=np.float64).sum(axis=0) / k - mean**2
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
        mean_runs_used=int(runs_used.sum()) / t,
        runs_histogram={k: int(c) for k, c in enumerate(np.bincount(runs_used)) if c},
        per_detector_count_stats=tuple(stats),
    )

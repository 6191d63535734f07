"""Pulse-level stochastic simulation of the full protocol.

The joint codewords enter as a pulse budget: the worst-case pattern regions
of optics.region_click_matrix get integer pulse counts by largest-remainder
apportionment of their weights, so pairwise distances are exact to one pulse
rather than binomially noisy — the distance guarantee an error-correcting
code provides.  A detector's count in one run is a sum of independent
binomials over the regions, from the kernel's click probabilities plus dark
counts; its exact law is built once per campaign and inverted at one
uniform per count.  optimizer.evaluate_fixed reads that count as one
Binomial(pulses, p), p the region-weighted click probability: the mean is
the same, the variance larger by sum_r pulses_r * (p_r - p)**2.  Criterion 7
compares means, which agree; test_simulate_count_variances_track_the_law
checks the region sum.  That excess is at most max_r p_r / (1 - p) of the
variance, so at the bundled rows' click probabilities the two coincide.

A campaign runs _CHUNK_TRIALS trials at a time and one run at a time.  A
table built once from decision.resolve_schedule maps every outcome prefix
the schedule can reach (48 for four senders) to the next run or the
trial's grade, so a trial draws exactly the runs the referee reads and is
graded when it stops.  Per run the tally keeps its trials and the float64
sums of their counts and squared counts per detector: memory does not grow
with trials.  The sums are exact below 2**53, so the summing order does not
matter; beyond, a mean or variance may move in its last bits.

Trial t has its own counter-based Philox4x64-10 stream keyed (seed, t + 1),
so any subset of trials can be reproduced.  Its count (r, d) inverts the
law at double r * N + d of Generator(Philox(key=np.array([seed, t + 1],
dtype=np.uint64))).random(runs * N); for N = 4, run r is Philox block r + 1.
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
    ProtocolParams,
    Relationship,
    RunConfig,
    check_network,
    check_schedule,
    integers,
    observed_detectors,
)
from .decision import resolve_schedule
from .optics import region_click_matrix

__all__ = ["TrialSpec", "TrialReport", "simulate", "wilson_interval"]

_Z95 = 1.959963984540054  # two-sided 95% normal quantile
_CHUNK_TRIALS = 4096  # trials drawn, coded and tallied in one numpy pass
# Philox4x64-10 multipliers and key increments (Salmon et al., SC'11)
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)


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
        trials, seed = integers((self.trials, self.seed), "trials and seed")
        object.__setattr__(self, "trials", trials)
        object.__setattr__(self, "seed", seed)
        if self.trials < 1:
            raise DomainError(f"trials must be >= 1, got {self.trials}")
        if not (0 <= self.seed < 2**64):
            raise DomainError(f"seed must be a 64-bit unsigned integer, got {self.seed}")


@dataclass(frozen=True)
class TrialReport:
    """Aggregated campaign results, every field read from the per-run tally.

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


def _binomial_pmf(n: int, p: float) -> tuple[int, np.ndarray]:
    """Binomial(n, p) pmf on lo .. lo + len(pmf) - 1, normalised: (lo, pmf).

    The support is mean +- (10 sd + 10), clipped to 0 .. n, which leaves out
    less than 2**-60 of the mass on each side.  The pmf comes from the ratio
    recurrence outward from the mode, which keeps full relative precision
    where gammaln differences would cancel.
    """
    if p == 0.0 or p == 1.0:
        return (n if p == 1.0 else 0), np.ones(1)
    mean, q = n * p, 1.0 - p
    half = 10.0 * math.sqrt(mean * q) + 10.0
    lo, hi = max(0, math.floor(mean - half)), min(n, math.ceil(mean + half))
    mode = min(max(math.floor((n + 1) * p), lo), hi)
    above = np.arange(mode, hi, dtype=np.float64)  # pmf(k + 1) / pmf(k)
    below = np.arange(lo + 1, mode + 1, dtype=np.float64)  # pmf(k - 1) / pmf(k)
    down = np.cumprod((below / (n - below + 1) * (q / p))[::-1])[::-1]
    up = np.cumprod((n - above) / (above + 1) * (p / q))
    pmf = np.concatenate((down, [1.0], up))
    return lo, pmf / pmf.sum()


def _count_law(pulses: Sequence[int], probs: Sequence[float]) -> tuple[int, np.ndarray]:
    """Law of sum_i Binomial(pulses[i], probs[i]) as (offset, cdf).

    cdf[j] is P(count <= offset + j) and ends at exactly 1.0.  Regions with
    the same click probability are one binomial; the parts are convolved
    through numpy.fft.
    """
    merged: dict[float, int] = {}
    for n, p in zip(pulses, probs):
        if n:
            merged[p] = merged.get(p, 0) + n
    parts = [_binomial_pmf(n, p) for p, n in merged.items()]
    offset = sum(lo for lo, _ in parts)
    pmf = parts[0][1]
    if len(parts) > 1:
        size = sum(len(part) for _, part in parts) - len(parts) + 1
        nfft = 1 << (size - 1).bit_length()
        spectrum = np.prod([np.fft.rfft(part, nfft) for _, part in parts], axis=0)
        pmf = np.clip(np.fft.irfft(spectrum, nfft)[:size], 0.0, None)
    cdf = np.cumsum(pmf)
    return offset, cdf / cdf[-1]


def _mulhilo(m: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Low and high 64-bit words of m * x, the high one from 32-bit half products."""
    m_lo, m_hi = np.uint64(m & 0xFFFFFFFF), np.uint64(m >> 32)
    x_lo, x_hi = x & 0xFFFFFFFF, x >> 32
    lh = m_lo * x_hi
    mid = ((m_lo * x_lo) >> 32) + (lh & 0xFFFFFFFF) + m_hi * x_lo  # below 2**64 - 1
    return np.uint64(m) * x, m_hi * x_hi + (lh >> 32) + (mid >> 32)


def _philox_words(seed: int, trials: np.ndarray, run: int, width: int) -> np.ndarray:
    """Words run * width .. (run + 1) * width - 1 of trials' streams: (len(trials), width) uint64.

    Trial t's stream is Philox4x64-10 keyed (seed, t + 1); its block b = 1,
    2, ... encrypts the counter (b, 0, 0, 0).  That is the stream
    np.random.Philox(key=np.array([seed, t + 1], dtype=np.uint64)) returns
    from random_raw.  Only the blocks that hold the words are encrypted.
    """
    first, stop = run * width // 4, -(-(run + 1) * width // 4)
    # one row for all trials until the key mixes in: a round and a half cost no per-trial work
    x0 = np.arange(first + 1, stop + 1, dtype=np.uint64)[None, :]
    x1 = x2 = x3 = np.zeros_like(x0)
    k1 = np.asarray(trials, dtype=np.uint64)[:, None] + np.uint64(1)
    for r in range(10):
        k0 = np.uint64((seed + r * _PHILOX_W[0]) % 2**64)
        lo0, hi0 = _mulhilo(_PHILOX_M[0], x0)
        lo1, hi1 = _mulhilo(_PHILOX_M[1], x2)
        x2 = hi0 ^ x3 ^ (k1 + np.uint64(r * _PHILOX_W[1] % 2**64))
        x0, x1, x3 = hi1 ^ x1 ^ k0, lo1, lo0
    skip = run * width - 4 * first
    return np.stack((x0, x1, x2, x3), axis=-1).reshape(len(trials), -1)[:, skip : skip + width]


def _draw_counts(
    laws: Sequence[Sequence[tuple[int, np.ndarray]]], seed: int, trials: np.ndarray, run: int
) -> np.ndarray:
    """One run's counts for the given trials: (len(trials), N) int64.

    laws[r][d] is (offset, cdf) of run r, detector d.  Trial t's count (r, d)
    inverts that law at uniform r * N + d of the trial's stream, a double
    (w >> 11) * 2**-53 as Generator.random makes it from word w.
    """
    uniforms = (_philox_words(seed, trials, run, len(laws[run])).T >> 11) * 2.0**-53
    counts = [o + np.searchsorted(cdf, u, side="right") for (o, cdf), u in zip(laws[run], uniforms)]
    return np.stack(counts, axis=-1)


def simulate(spec: TrialSpec) -> TrialReport:
    """Run the campaign and aggregate decision and count statistics."""
    kernels = [region_click_matrix(spec.rel, run, spec.ch, spec.pp) for run in spec.runs]
    weights = kernels[0][0]  # the region weights are the same for every run
    click = np.clip(np.stack([probs for _, probs in kernels]) + spec.ch.dark_count, 0.0, 1.0)
    pulses = _apportion(weights, spec.runs[0].encoding.pulses(spec.pp.m))
    analytic_means = np.array(pulses, dtype=np.int64) @ click
    laws = [[_count_law(pulses, column) for column in run.T.tolist()] for run in click]

    n_runs, n = click.shape[0], spec.pp.N
    observed = observed_detectors(n)  # the contiguous difference ports
    thresholds = np.array([run.thresholds for run in spec.runs])
    width, place = len(observed), 1 << np.arange(len(observed))  # bit j: observed detector j
    # step[r][prefix * 2**width + bits]: a trial whose runs 0 .. r - 1 are prefix number
    # `prefix` and whose run r reads `bits` draws run r + 1 as the prefix the entry
    # numbers, or stops at grade ~entry: 0 correct, 1 incorrect, 2 inconsistent.  A run
    # not drawn yet reads as zero bits, which the referee reads only if it needs that run.
    zero, prefixes, step = (0,) * width, [()], []
    for r in range(n_runs):
        entries, following = [], []
        for prefix in prefixes:
            for code in range(1 << width):
                seq = (*prefix, tuple(code >> j & 1 for j in range(width)))
                decision, used = resolve_schedule(n, seq + (zero,) * (n_runs - r - 1))
                grade = 2 if decision is None else int(decision.relationship != spec.rel)
                entries.append(len(following) if used > r + 1 else ~grade)
                if used > r + 1:
                    following.append(seq)
        step.append(np.array(entries))
        prefixes = following
    graded = np.zeros(3, dtype=np.int64)
    drew = [0] * (n_runs + 1)  # per run, the trials that drew it; none draw past the last
    sums = np.zeros((2, n_runs, n))  # float64 sums of counts and squared counts per (run, detector)
    for lo in range(0, spec.trials, _CHUNK_TRIALS):
        rows = np.arange(lo, min(lo + _CHUNK_TRIALS, spec.trials))  # the trials that draw run r
        prefix = np.zeros(len(rows), dtype=np.int64)
        for r in range(n_runs):
            counts = _draw_counts(laws, spec.seed, rows, r).astype(np.float64)
            drew[r] += len(rows)
            sums[:, r] += counts.sum(axis=0), (counts * counts).sum(axis=0)
            bits = (counts[:, observed[0] : observed[-1] + 1] >= thresholds[r]) @ place
            entry = step[r][(prefix << width) + bits]
            graded += np.bincount(~entry[entry < 0], minlength=3)
            rows, prefix = rows[entry >= 0], entry[entry >= 0]
            if not len(rows):
                break
    n_correct, n_incorrect, n_inconsistent = map(int, graded)

    stats = []
    for run_index, k in enumerate(drew[:n_runs]):
        mean_l, var_l = [], []
        if k:
            total, square_sum = sums[:, run_index]
            mean = total / k
            var = square_sum / k - mean**2
            if k > 1:  # unbiased sample variance
                var = var * k / (k - 1)
            mean_l, var_l = [float(x) for x in mean], [float(max(0.0, v)) for v in var]
        stats.append(
            {
                "run": run_index + 1,
                "executions": k,
                "mean": mean_l,
                "variance": var_l,
                "analytic_mean": [float(x) for x in analytic_means[run_index]],
            }
        )

    return TrialReport(
        trials=spec.trials,
        empirical_correct_rate=n_correct / spec.trials,
        empirical_incorrect_rate=n_incorrect / spec.trials,
        empirical_inconsistent_rate=n_inconsistent / spec.trials,
        wilson_95=wilson_interval(n_correct, spec.trials),
        mean_runs_used=sum(drew) / spec.trials,
        runs_histogram={r: a - b for r, (a, b) in enumerate(zip(drew, drew[1:]), 1) if a > b},
        per_detector_count_stats=tuple(stats),
    )

"""Seeded trial campaigns: pulse budgets, decisions, count statistics."""

import dataclasses
import hashlib
import json
import math
import multiprocessing
import os
import statistics
import threading
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats as sps

import qfnet.montecarlo as montecarlo
from qfnet.core import (
    ChannelModel,
    DomainError,
    Encoding,
    ProtocolParams,
    Relationship,
    RunConfig,
    enumerate_relationships,
    observed_detectors,
    run_pairing,
    worst_case_regions,
)
from qfnet.montecarlo import (
    _CHUNK_TRIALS,
    TrialReport,
    TrialSpec,
    _apportion,
    _binomial_pmf,
    _count_law,
    _draw_counts,
    _philox_words,
    simulate,
    wilson_interval,
)
from qfnet.decision import resolve_schedule
from qfnet.optics import region_click_matrix
from conftest import DESK_SEED


# --- wilson ------------------------------------------------------------------


def test_wilson_interval_hand_computed():
    z = 1.959963984540054
    lo, hi = wilson_interval(950, 1000)
    phat, n = 0.95, 1000
    denom = 1 + z * z / n
    center = (phat + z * z / (2 * n)) / denom
    half = (z / denom) * math.sqrt(phat * 0.05 / n + z * z / (4 * n * n))
    assert lo == pytest.approx(center - half, rel=1e-12)
    assert hi == pytest.approx(center + half, rel=1e-12)
    assert 0.93 < lo < 0.95 < hi < 0.97


def test_wilson_interval_edges():
    lo, hi = wilson_interval(0, 20)
    assert lo == 0.0 and hi < 0.25
    lo, hi = wilson_interval(20, 20)
    assert lo > 0.75 and hi == 1.0
    with pytest.raises(DomainError):
        wilson_interval(5, 0)
    with pytest.raises(DomainError):
        wilson_interval(21, 20)


# --- codeword synthesis ------------------------------------------------------
#
# simulate synthesizes the joint codewords as a pulse budget: the click
# kernel's region weights, apportioned over the pulses.


def pulse_budget(label, m=1000, delta=0.22, encoding=Encoding.SINGLE_BIT):
    rel = Relationship.from_label(label)
    pp = ProtocolParams(n=m * 5, c=0.2, delta=delta, epsilon=1e-3, N=rel.n)
    run = RunConfig(
        alphas=(1.0,) * rel.n,
        pairing=run_pairing(1, rel.n),
        thresholds=(0,) * (rel.n - 1),
        encoding=encoding,
    )
    weights, _ = region_click_matrix(rel, run, ChannelModel(eta=(1.0,) * rel.n), pp)
    return weights, _apportion(weights, encoding.pulses(pp.m))


def budget_distance(label, counts, a, b, delta=0.22):
    # single-bit: the kernel's regions are the worst-case pattern regions
    regions = worst_case_regions(Relationship.from_label(label), delta)
    differing = sum(c for r, c in zip(regions, counts) if r.bits[a - 1] != r.bits[b - 1])
    return differing / sum(counts)


def test_synthesis_two_party_exact_distance():
    _, counts = pulse_budget("AB")
    assert sum(counts) == 1000
    assert budget_distance("AB", counts, 1, 2) == pytest.approx(0.22)
    # two-bit: a pulse whose pair differs in one bit (phase +-i) or both (-1)
    weights, counts = pulse_budget("AB", encoding=Encoding.TWO_BIT)
    assert len(weights) == 4 and sum(counts) == 500
    assert (counts[1] + counts[2] + 2 * counts[3]) / 1000 == pytest.approx(0.22, abs=1 / 500)
    assert pulse_budget("AA", encoding=Encoding.TWO_BIT) == ((1.0,), (500,))


def test_synthesis_four_party_distances():
    _, counts = pulse_budget("AABC")
    assert budget_distance("AABC", counts, 1, 2) == 0.0
    for a, b in ((1, 3), (1, 4), (3, 4)):
        assert budget_distance("AABC", counts, a, b) == pytest.approx(0.22)


def test_synthesis_distances_within_rounding_for_all_relationships():
    delta = 0.22
    for rel in enumerate_relationships(4):
        label = rel.canonical_label
        weights, counts = pulse_budget(label, m=10_000, delta=delta)
        assert weights == tuple(r.weight for r in worst_case_regions(rel, delta))
        for a in range(1, 5):
            for b in range(a + 1, 5):
                want = 0.0 if rel.group_of(a) == rel.group_of(b) else delta
                assert abs(budget_distance(label, counts, a, b, delta) - want) <= 1.0 / 10_000


# --- trial spec validation ---------------------------------------------------


def desk_spec(rel_label, desk, trials=200, seed=DESK_SEED):
    pp, ch, runs = desk
    return TrialSpec(
        rel=Relationship.from_label(rel_label),
        pp=pp,
        ch=ch,
        runs=runs,
        trials=trials,
        seed=seed,
    )


def test_trial_spec_validation(desk_setup):
    pp, ch, runs = desk_setup
    rel = Relationship.from_label("AABC")
    with pytest.raises(DomainError):
        TrialSpec(rel=rel, pp=pp, ch=ch, runs=runs[:2], trials=10, seed=1)
    shuffled = (runs[1], runs[0], runs[2])  # wrong pairing order
    with pytest.raises(DomainError):
        TrialSpec(rel=rel, pp=pp, ch=ch, runs=shuffled, trials=10, seed=1)
    with pytest.raises(DomainError):
        TrialSpec(rel=rel, pp=pp, ch=ch, runs=runs, trials=0, seed=1)
    with pytest.raises(DomainError):
        TrialSpec(rel=rel, pp=pp, ch=ch, runs=runs, trials=10, seed=-1)
    with pytest.raises(DomainError):
        TrialSpec(rel=rel, pp=pp, ch=ch, runs=runs, trials=10, seed=2**64)
    with pytest.raises(DomainError):
        TrialSpec(
            rel=Relationship.from_label("AB"), pp=pp, ch=ch, runs=runs, trials=10, seed=1
        )
    with pytest.raises(DomainError, match="2 or 4 senders"):
        TrialSpec(
            rel=Relationship.from_label("AAB"), pp=pp, ch=ch, runs=runs, trials=10, seed=1
        )
    two_bit = tuple(dataclasses.replace(run, encoding=Encoding.TWO_BIT) for run in runs)
    with pytest.raises(DomainError, match="two-bit"):
        TrialSpec(rel=rel, pp=pp, ch=ch, runs=two_bit, trials=10, seed=1)


def test_trial_spec_takes_integral_counts(desk_setup):
    # seed 5.0 is seed 5 and draws its campaign; 5.5 is no seed at all
    spec = desk_spec("AABC", desk_setup, trials=50, seed=5)
    as_floats = dataclasses.replace(spec, trials=50.0, seed=5.0)
    assert (type(as_floats.trials), type(as_floats.seed)) == (int, int)
    assert simulate(as_floats).to_json() == simulate(spec).to_json()
    for bad in ({"seed": 5.5}, {"trials": 50.5}, {"seed": "5"}, {"seed": True}, {"trials": True}):
        with pytest.raises(DomainError, match="must be integers"):
            dataclasses.replace(spec, **bad)


# --- campaigns ---------------------------------------------------------------


def test_simulate_all_equal_resolves_in_one_run(desk_setup):
    report = simulate(desk_spec("AAAA", desk_setup, trials=300))
    assert report.empirical_correct_rate == 1.0
    assert report.runs_histogram == {1: 300}
    assert report.mean_runs_used == 1.0
    # later runs never execute
    assert report.per_detector_count_stats[1]["executions"] == 0
    assert report.per_detector_count_stats[1]["mean"] == []


def test_simulate_all_distinct_needs_three_runs(desk_setup):
    report = simulate(desk_spec("ABCD", desk_setup, trials=300))
    assert report.empirical_correct_rate == 1.0
    assert report.runs_histogram == {3: 300}
    assert report.per_detector_count_stats[2]["executions"] == 300


def test_simulate_rates_sum_to_one(desk_setup):
    report = simulate(desk_spec("ABAC", desk_setup, trials=200))
    total = (
        report.empirical_correct_rate
        + report.empirical_incorrect_rate
        + report.empirical_inconsistent_rate
    )
    assert total == pytest.approx(1.0, abs=1e-12)
    assert report.wilson_95[0] <= report.empirical_correct_rate <= report.wilson_95[1]


def test_simulate_count_means_track_analytic(desk_setup):
    report = simulate(desk_spec("AABC", desk_setup, trials=500))
    for entry in report.per_detector_count_stats:
        k = entry["executions"]
        if not k:
            continue
        for mean, var, want in zip(entry["mean"], entry["variance"], entry["analytic_mean"]):
            se = math.sqrt(max(var, 1e-12) / k)
            assert abs(mean - want) <= 4 * se + 1e-9


def test_simulate_seed_determinism(desk_setup):
    a = simulate(desk_spec("ABCB", desk_setup, trials=120))
    b = simulate(desk_spec("ABCB", desk_setup, trials=120))
    assert a.to_json() == b.to_json()
    c = simulate(desk_spec("ABCB", desk_setup, trials=120, seed=DESK_SEED + 1))
    assert c.to_json() != a.to_json()
    # seeds past 2**63 are keyed exactly, not rounded through float64
    reports = {
        simulate(desk_spec("ABBA", desk_setup, trials=120, seed=seed)).to_json()
        for seed in (0, 2**63, 2**63 + 1, 2**64 - 1)
    }
    assert len(reports) == 4


def test_simulate_report_is_json_round_trippable(desk_setup):
    report = simulate(desk_spec("AABB", desk_setup, trials=50))
    doc = json.loads(report.to_json())
    assert doc["trials"] == 50
    assert set(doc["runs_histogram"]) == {"1"}
    assert doc["per_detector_count_stats"][0]["run"] == 1


# --- two-party campaigns -----------------------------------------------------


def two_party_spec(label, encoding, trials=300, seed=DESK_SEED):
    pp = ProtocolParams(n=50_000, c=0.2, delta=0.22, epsilon=1e-3, N=2)
    ch = ChannelModel(eta=(1.0, 1.0), dark_count=5e-5)
    mu = 75.0 / (2 * pp.delta)
    pulses = encoding.pulses(pp.m)
    # same operating point as the four-party desk scale: dark-only vs bright
    run = RunConfig(
        alphas=(math.sqrt(mu), math.sqrt(mu)),
        pairing=(1, 2),
        thresholds=(14,),
        encoding=encoding,
    )
    return TrialSpec(
        rel=Relationship.from_label(label), pp=pp, ch=ch, runs=(run,), trials=trials, seed=seed
    )


def test_simulate_two_party_single_bit():
    equal = simulate(two_party_spec("AA", Encoding.SINGLE_BIT))
    different = simulate(two_party_spec("AB", Encoding.SINGLE_BIT))
    assert equal.empirical_correct_rate == 1.0
    assert different.empirical_correct_rate == 1.0
    assert equal.runs_histogram == {1: 300}


def test_simulate_two_party_two_bit():
    equal = simulate(two_party_spec("AA", Encoding.TWO_BIT))
    different = simulate(two_party_spec("AB", Encoding.TWO_BIT))
    assert equal.empirical_correct_rate == 1.0
    assert different.empirical_correct_rate == 1.0
    # half the pulses accumulate in the counts
    stats = equal.per_detector_count_stats[0]
    assert stats["analytic_mean"][1] == pytest.approx(5000 * 5e-5, rel=1e-9)


# --- stream contract ---------------------------------------------------------


def _schedule_laws(spec):
    # the pulse budget, (runs, regions, N) click probabilities and count laws simulate draws
    mats = []
    for run in spec.runs:
        weights, probs = region_click_matrix(spec.rel, run, spec.ch, spec.pp)
        mats.append(np.clip(probs + spec.ch.dark_count, 0.0, 1.0))
    pulses = _apportion(weights, spec.runs[0].encoding.pulses(spec.pp.m))
    click = np.stack(mats)
    laws = [[_count_law(pulses, column) for column in run.T.tolist()] for run in click]
    return pulses, click, laws


def _trial_philox(seed, t):
    # the key as uint64 words: numpy reads a list with an entry >= 2**63 through float64
    return np.random.Philox(key=np.array([seed, t + 1], dtype=np.uint64))


def _every_run(laws, seed, trials):
    # every run's counts of the given trials, (len(trials), runs, N), one per-run draw each
    return np.stack([_draw_counts(laws, seed, trials, r) for r in range(len(laws))], axis=1)


@pytest.mark.parametrize("seed", [0, DESK_SEED, 2**64 - 1])
def test_philox_words_are_numpys_philox(seed):
    for t in (0, 1023, 1024, 2**32):
        want = _trial_philox(seed, t).random_raw(12)
        # two words of block 1; blocks 1-3, one run of four words each; and runs
        # of three words, which straddle blocks
        np.testing.assert_array_equal(_philox_words(seed, np.array([t]), 0, 2)[0], want[:2])
        for width in (4, 3):
            for r in range(12 // width):
                got = _philox_words(seed, np.array([t]), r, width)[0]
                np.testing.assert_array_equal(got, want[r * width : (r + 1) * width])
    # one pass over any trials, a range or a scattered subset, is each trial's own stream
    for trials in (np.arange(1020, 1030), np.array([2**32, 7, 1029, 7, 1020])):
        for r in range(3):
            block = _philox_words(seed, trials, r, 4)
            for i, t in enumerate(trials.tolist()):
                want = _trial_philox(seed, t).random_raw(12)[4 * r : 4 * r + 4]
                np.testing.assert_array_equal(block[i], want)


def test_trial_counts_come_from_the_trial_key(desk_setup):
    pp, _, runs = desk_setup
    rel = Relationship.from_label("ABCB")
    trials = _CHUNK_TRIALS + 300  # a full chunk and a partial one
    spec = TrialSpec(rel=rel, pp=pp, ch=_LOSSY_CHANNEL, runs=runs, trials=trials, seed=DESK_SEED)
    _, _, laws = _schedule_laws(spec)
    counts = _every_run(laws, spec.seed, np.arange(spec.trials))
    assert counts.shape == (trials, 3, 4) and counts.dtype == np.int64
    # both sides of the chunk boundary, and the last trial of the short chunk
    for t in (0, 1, 7, _CHUNK_TRIALS - 1, _CHUNK_TRIALS, trials - 1):
        u = np.random.Generator(_trial_philox(spec.seed, t)).random(3 * 4)
        # run r reads uniforms 4r .. 4r + 3, Philox block r + 1, so drawing it
        # for only some trials moves no other count
        for r in range(3):
            for d in range(4):
                offset, cdf = laws[r][d]
                assert counts[t, r, d] == offset + np.searchsorted(cdf, u[4 * r + d], side="right")


def test_trial_prefix_reproduces(desk_setup):
    spec = desk_spec("AABC", desk_setup)
    _, _, laws = _schedule_laws(spec)
    full = _every_run(laws, spec.seed, np.arange(1_000))
    for k in (1, 37):
        np.testing.assert_array_equal(full[:k], _every_run(laws, spec.seed, np.arange(k)))


def test_trial_ranges_reproduce(desk_setup):
    # any contiguous split, drawn range by range, is the one-range draw
    spec = desk_spec("AABC", desk_setup)
    _, _, laws = _schedule_laws(spec)
    trials = 2 * _CHUNK_TRIALS + 700
    whole = _every_run(laws, spec.seed, np.arange(trials))
    # uneven pieces; the middle two cross chunk boundaries
    bounds = (0, 1, 37, _CHUNK_TRIALS + 5, 2 * _CHUNK_TRIALS + 52, trials)
    pieces = [_every_run(laws, spec.seed, np.arange(a, b)) for a, b in zip(bounds, bounds[1:])]
    np.testing.assert_array_equal(np.concatenate(pieces), whole)
    # a suffix that does not start at 0 or on a chunk boundary
    np.testing.assert_array_equal(_every_run(laws, spec.seed, np.arange(777, trials)), whole[777:])
    # the scattered trials that go on to a later run, in any order
    subset = np.array([trials - 1, 5, _CHUNK_TRIALS, 777, 5])
    np.testing.assert_array_equal(_every_run(laws, spec.seed, subset), whole[subset])


# --- in-process draw ---------------------------------------------------------
#
# simulate draws in the calling process whatever the CPUs, the campaign size,
# the caller's threads, the start methods or a daemonic caller: a process it
# starts fails these tests, and its report is the pinned one.


def _forbid_processes(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the draw started a process")

    monkeypatch.setattr(os, "fork", refuse, raising=False)
    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", refuse)


def test_one_cpu_draws_serially(desk_setup, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    _forbid_processes(monkeypatch)
    for label in sorted(_PINNED_MULTI_BLOCK):
        assert _digest(simulate(_multi_block_spec(desk_setup, label))) == _PINNED_MULTI_BLOCK[label]


def test_small_campaign_draws_serially(desk_setup, monkeypatch):
    # campaigns shorter than one chunk, down to a single trial
    spec = desk_spec("AABC", desk_setup)
    _, _, laws = _schedule_laws(spec)
    whole = _every_run(laws, spec.seed, np.arange(_CHUNK_TRIALS))
    _forbid_processes(monkeypatch)
    for trials in (1, 2, _CHUNK_TRIALS - 1):
        np.testing.assert_array_equal(_every_run(laws, spec.seed, np.arange(trials)), whole[:trials])
        report = simulate(dataclasses.replace(spec, trials=trials))
        assert sum(report.runs_histogram.values()) == trials
    # one trial: its own counts are the means, with no spread
    first = simulate(dataclasses.replace(spec, trials=1)).per_detector_count_stats[0]
    assert first["executions"] == 1
    assert first["mean"] == [float(c) for c in whole[0, 0]]
    assert first["variance"] == [0.0] * len(first["mean"])


def test_threaded_caller_draws_serially(desk_setup, monkeypatch):
    # two threads drawing the same campaign at once share no draw state
    spec = _multi_block_spec(desk_setup, "ABBA")
    _forbid_processes(monkeypatch)
    digests = []
    thread = threading.Thread(target=lambda: digests.append(_digest(simulate(spec))))
    thread.start()
    try:
        mine = _digest(simulate(spec))
    finally:
        thread.join(timeout=60)
    assert not thread.is_alive()
    assert digests == [mine] == [_PINNED_MULTI_BLOCK["ABBA"]]


def test_no_fork_method_draws_serially(desk_setup, monkeypatch):
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    _forbid_processes(monkeypatch)
    monkeypatch.delattr(os, "fork", raising=False)
    assert _digest(simulate(_multi_block_spec(desk_setup, "AABC"))) == _PINNED_MULTI_BLOCK["AABC"]


def _simulate_in_daemon(spec, want):
    # runs in a daemonic child, which may not start processes of its own
    assert multiprocessing.current_process().daemon
    os.fork = None
    assert _digest(simulate(spec)) == want


def test_daemonic_caller_draws_serially(desk_setup):
    # spawned, not forked: the test process itself starts no fork either
    child = multiprocessing.get_context("spawn").Process(
        target=_simulate_in_daemon,
        args=(_multi_block_spec(desk_setup, "AABC"), _PINNED_MULTI_BLOCK["AABC"]),
        daemon=True,
    )
    child.start()
    try:
        child.join(timeout=120)
    finally:
        if child.is_alive():
            child.kill()
            child.join()
    assert child.exitcode == 0


# --- count laws --------------------------------------------------------------


def _exact_cdf(pulses, probs):
    # P(count <= k) for k = 0 .. sum(pulses), in integers over one power-of-two denominator
    pmf, denominator = [1], 1
    for n, p in zip(pulses, probs):
        a, b = Fraction(p).as_integer_ratio()
        part = [math.comb(n, k) * a**k * (b - a) ** (n - k) for k in range(n + 1)]
        pmf = [
            sum(pmf[j] * part[k - j] for j in range(max(0, k - n), min(k, len(pmf) - 1) + 1))
            for k in range(len(pmf) + n)
        ]
        denominator *= b**n
    cdf, total = [], 0
    for x in pmf:
        total += x
        cdf.append(float(Fraction(total, denominator)))
    return cdf


@pytest.mark.parametrize(
    "pulses, probs",
    [
        ((200,), (0.3,)),
        ((200,), (5e-5,)),
        ((1, 199), (0.999, 0.5)),
        ((50, 70, 80), (0.1, 0.1, 0.45)),  # two regions merge into one binomial
        ((60, 0, 40, 100), (0.0, 0.7, 1.0, 0.02)),  # empty, never and always clicking
        ((13, 57, 130), (0.2718281828, 0.0314159265, 0.999999)),
    ],
)
def test_count_law_is_the_exact_sum_of_binomials(pulses, probs):
    offset, cdf = _count_law(pulses, probs)
    assert cdf[-1] == 1.0 and np.all(np.diff(cdf) >= 0)
    exact = _exact_cdf(pulses, probs)
    law = np.concatenate((np.zeros(offset), cdf, np.ones(len(exact) - offset - len(cdf))))
    assert len(law) == len(exact)
    assert np.max(np.abs(law - exact)) <= 1e-13


def _desk_parts(desk):
    # every (pulses, p) binomial a desk-scale campaign builds, regions merged by p
    pp, ch, runs = desk
    parts = set()
    for channel in (ch, _LOSSY_CHANNEL):
        for rel in enumerate_relationships(4):
            spec = TrialSpec(rel=rel, pp=pp, ch=channel, runs=runs, trials=1, seed=0)
            pulses, click, _ = _schedule_laws(spec)
            for column in click.transpose(0, 2, 1).reshape(-1, len(pulses)).tolist():
                merged = {}
                for n, p in zip(pulses, column):
                    merged[p] = merged.get(p, 0) + n
                parts.update((n, p) for p, n in merged.items() if n)
    return sorted(parts)


def test_count_law_omits_under_2_pow_minus_60_per_side(desk_setup):
    grid = [(n, p) for n in (1, 10, 200, 10**5, 10**7) for p in (5e-5, 0.02, 0.5, 1 - 1e-6)]
    for n, p in _desk_parts(desk_setup) + grid:
        lo, pmf = _binomial_pmf(n, p)
        hi = lo + len(pmf) - 1
        assert 0 <= lo <= hi <= n and pmf.sum() == pytest.approx(1.0, abs=1e-15)
        if 0.0 < p < 1.0:
            # the exact binomial, also past the tails' switch to Poisson
            assert sps.binom.cdf(lo - 1, n, p) <= 2.0**-60, (n, p, lo)
            assert sps.binom.sf(hi, n, p) <= 2.0**-60, (n, p, hi)


@pytest.mark.parametrize("label, channel", [("AABC", "desk"), ("ABBA", "lossy")])
def test_simulate_count_variances_track_the_law(desk_setup, label, channel):
    pp, ch, runs = desk_setup
    ch = _LOSSY_CHANNEL if channel == "lossy" else ch
    spec = TrialSpec(
        rel=Relationship.from_label(label), pp=pp, ch=ch, runs=runs, trials=4_000, seed=DESK_SEED
    )
    pulses, click, _ = _schedule_laws(spec)
    n = np.array(pulses, dtype=np.float64)[:, None]
    pq = click * (1.0 - click)
    variance = (n * pq).sum(axis=1)  # (runs, N)
    fourth_cumulant = (n * pq * (1.0 - 6.0 * pq)).sum(axis=1)
    checked = 0
    for entry, want, kappa4 in zip(simulate(spec).per_detector_count_stats, variance, fourth_cumulant):
        k = entry["executions"]
        if k < 100:
            continue
        for got, v, c4 in zip(entry["variance"], want, kappa4):
            se = math.sqrt((c4 + 2.0 * v * v) / k)
            assert abs(got - v) <= 4 * se
            checked += 1
    assert checked >= 8


# --- per-run tally -----------------------------------------------------------
#
# simulate grades each trial when it stops drawing and adds each drawn run's
# counts to per-run sums, keeping no per-trial array, so its result is the
# campaign reduced trial by trial, and its memory does not grow with trials.


def _per_trial_reduction(spec):
    # every run drawn for the whole range, each trial resolved and summed on its own
    _, _, laws = _schedule_laws(spec)
    counts = _every_run(laws, spec.seed, np.arange(spec.trials)).tolist()
    observed = observed_detectors(spec.pp.N)
    grades = {"correct": 0, "incorrect": 0, "inconsistent": 0}
    histogram = {}
    executed = [[] for _ in spec.runs]
    for trial in counts:
        bits = [
            [row[d] >= t for d, t in zip(observed, run.thresholds)]
            for row, run in zip(trial, spec.runs)
        ]
        decision, used = resolve_schedule(spec.pp.N, bits)
        if decision is None:
            grades["inconsistent"] += 1
        else:
            grades["correct" if decision.relationship == spec.rel else "incorrect"] += 1
        histogram[used] = histogram.get(used, 0) + 1
        for r in range(used):
            executed[r].append(trial[r])
    return grades, histogram, executed


@pytest.mark.parametrize(
    "label, channel, trials",
    [("ABBA", "lossy", 2 * _CHUNK_TRIALS + 300), ("AAAA", "desk", _CHUNK_TRIALS + 300)],
)
def test_simulate_is_the_per_trial_reduction(desk_setup, label, channel, trials):
    pp, ch, runs = desk_setup
    ch = _LOSSY_CHANNEL if channel == "lossy" else ch
    spec = TrialSpec(
        rel=Relationship.from_label(label), pp=pp, ch=ch, runs=runs, trials=trials, seed=DESK_SEED
    )
    grades, histogram, executed = _per_trial_reduction(spec)
    report = simulate(spec)
    assert report.empirical_correct_rate == grades["correct"] / trials
    assert report.empirical_incorrect_rate == grades["incorrect"] / trials
    assert report.empirical_inconsistent_rate == grades["inconsistent"] / trials
    assert report.wilson_95 == wilson_interval(grades["correct"], trials)
    assert report.runs_histogram == histogram
    assert report.mean_runs_used == sum(k * c for k, c in histogram.items()) / trials
    for entry, rows in zip(report.per_detector_count_stats, executed):
        assert entry["executions"] == len(rows)
        # integer sums, so the means are exact; the variances are exact
        # fractions on one side and float moments on the other
        assert entry["mean"] == [sum(column) / len(rows) for column in zip(*rows)]
        if len(rows) > 1:
            want = [statistics.variance(column) for column in zip(*rows)]
            assert entry["variance"] == pytest.approx(want, rel=1e-9, abs=1e-12)
    if label == "ABBA":  # every grade, and trials that stop after 2 and after 3 runs
        assert min(grades.values()) > 0.1 * trials and set(histogram) == {2, 3}
    else:
        assert histogram == {1: trials} and not executed[1]


@pytest.mark.parametrize(
    "label, channel", [("AAAA", "desk"), ("AABC", "desk"), ("ABCD", "desk"), ("ABBA", "lossy")]
)
def test_simulate_draws_only_the_runs_the_referee_reads(desk_setup, label, channel, monkeypatch):
    # lossy ABBA mixes 2 and 3 runs and has inconsistent trials, which stop drawing
    pp, ch, runs = desk_setup
    ch = _LOSSY_CHANNEL if channel == "lossy" else ch
    trials = _CHUNK_TRIALS + 300
    spec = TrialSpec(
        rel=Relationship.from_label(label), pp=pp, ch=ch, runs=runs, trials=trials, seed=DESK_SEED
    )
    rows = [0] * len(runs)
    draw = montecarlo._philox_words

    def counted(seed, trials, run, width):
        rows[run] += len(trials)
        return draw(seed, trials, run, width)

    monkeypatch.setattr(montecarlo, "_philox_words", counted)
    report = simulate(spec)
    assert rows == [entry["executions"] for entry in report.per_detector_count_stats]
    assert rows[0] == trials
    if label == "ABBA":
        assert report.empirical_inconsistent_rate > 0 and 0 < rows[2] < rows[1]


@pytest.mark.parametrize(
    "label, trials, calls",
    [("AAAA", 300, 48), ("ABCD", _CHUNK_TRIALS + 300, 48), ("AA", 300, 2), ("AB", 700, 2)],
)
def test_simulate_resolves_each_reachable_prefix_once(
    desk_setup, label, trials, calls, monkeypatch
):
    # four senders reach 8 one-run prefixes, 4 * 8 two-run and 1 * 8 three-run
    # ones; two senders 2.  One referee call each, whatever the trials do.
    if len(label) == 2:
        spec = two_party_spec(label, Encoding.SINGLE_BIT, trials=trials)
    else:
        spec = desk_spec(label, desk_setup, trials=trials)
    made = [0]
    resolve = montecarlo.resolve_schedule

    def counted(n, outcomes):
        made[0] += 1
        return resolve(n, outcomes)

    monkeypatch.setattr(montecarlo, "resolve_schedule", counted)
    simulate(spec)
    assert made[0] == calls


def test_simulate_memory_does_not_grow_with_trials(desk_setup):
    spec = desk_spec("ABCD", desk_setup)
    # one campaign first, so that what a process allocates once stays out of both peaks
    simulate(dataclasses.replace(spec, trials=2 * _CHUNK_TRIALS))
    peaks = {}
    tracemalloc.start()
    try:
        for trials in (2 * _CHUNK_TRIALS, 20 * _CHUNK_TRIALS):
            tracemalloc.reset_peak()
            simulate(dataclasses.replace(spec, trials=trials))
            peaks[trials] = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peaks[20 * _CHUNK_TRIALS] <= 1.25 * peaks[2 * _CHUNK_TRIALS], peaks


# --- pinned output -----------------------------------------------------------

# sha256 of TrialReport.to_json() for small campaigns.  A change to
# simulate's click model, pulse budget, count laws, draw or referee changes a
# digest, so a refactor of any of them must leave these alone.  The draw
# uses no numpy sampler; numpy.fft rounds a law's CDF in its last bits, which
# moves a count only for a uniform that close to a CDF value.
_LOSSY_CHANNEL = ChannelModel(eta=(1.0, 0.81, 0.64, 0.9), dark_count=5e-5, visibility=0.97)
_PINNED_FOUR_PARTY = {
    ("AABC", "desk"): "80bb058c53da7967318e7ff40d8c6947f81bdba5127078ebf63a5e38a7330bb5",
    ("ABCD", "desk"): "4231d7a82f0db8462937aaa358debe42832207fad9737504781a777b01193b99",
    ("AABC", "lossy"): "08c6720516a95398c2e7f392af8a951424ee3f334fc42d29e8f3c10a384681d0",
    ("ABCD", "lossy"): "989802c9e970c1095e1c0ac6b16f92278e654f5afca3366edb746ec8fc2e4166",
    # inconsistent and incorrect trials: AAAA has one inconsistent trial that
    # took a second run, ABAB is 65% inconsistent, ABBA mixes 2 and 3 runs
    ("AAAA", "lossy"): "7a7fa8511eecd6c2c353acdbcd2264785b186d0046cad46c5a2350e85bec6a17",
    ("ABAB", "lossy"): "2145e0b5d58ee56fb89153aaffee0131ae18092a1f735bf6ea0c5939a52f54d8",
    ("ABBA", "lossy"): "58eb75f319c4a426ec39f55c7bb652cc9ca60ecc9e9441aaa314f2f3f69648e5",
}
# Campaigns of 2 500 trials, pinned when a draw chunk held 1 024 trials.
# test_report_does_not_depend_on_the_chunk_size draws them at several chunk
# sizes: trials on both sides of every chunk boundary feed the same
# statistics.  AABC has 11 three-run and 11 incorrect trials; ABBA mixes 2
# and 3 runs and is 37% inconsistent, 49% incorrect.
_PINNED_MULTI_BLOCK = {
    "AABC": "5e2e4e8b31c7665233ee2619b36db4dd0ef8f7d3d8dcff13d5bf8d06a8aa3554",
    "ABBA": "dbc01acda373faf96d51a47341daa61ccc175c96a3400216dc5ce8854b59e64b",
}
_PINNED_TWO_PARTY = {
    ("AA", Encoding.SINGLE_BIT): "54ec801465c1f937b53924b6da45e83a01ca8dc638551614f065260013cc32be",
    ("AA", Encoding.TWO_BIT): "744a6e6344846cd13eff5705f19aecb96dbafd1daaa3f037999f6eeb9852e3b2",
    ("AB", Encoding.SINGLE_BIT): "b9e6f9f222dc3d6f8b8d34015490fc1d8dc28b58524cba54eefd2d322cc64538",
    ("AB", Encoding.TWO_BIT): "500d6fefc50142d39c08454322c7e771405975f613326189d3cc0d8a45d0d4c3",
}


def _digest(report: TrialReport) -> str:
    return hashlib.sha256(report.to_json().encode()).hexdigest()


@pytest.mark.parametrize("label, channel", sorted(_PINNED_FOUR_PARTY))
def test_simulate_four_party_output_is_pinned(desk_setup, label, channel):
    pp, ch, runs = desk_setup
    if channel == "lossy":  # nu < 1 and unequal eta, at the desk thresholds
        ch = _LOSSY_CHANNEL
    spec = TrialSpec(
        rel=Relationship.from_label(label), pp=pp, ch=ch, runs=runs, trials=300, seed=DESK_SEED
    )
    assert _digest(simulate(spec)) == _PINNED_FOUR_PARTY[label, channel]


def _multi_block_spec(desk, label):
    pp, _, runs = desk
    return TrialSpec(
        rel=Relationship.from_label(label),
        pp=pp,
        ch=_LOSSY_CHANNEL,
        runs=runs,
        trials=2_500,
        seed=DESK_SEED,
    )


@pytest.mark.parametrize("label", sorted(_PINNED_MULTI_BLOCK))
def test_simulate_multi_block_output_is_pinned(desk_setup, label):
    assert _digest(simulate(_multi_block_spec(desk_setup, label))) == _PINNED_MULTI_BLOCK[label]


@pytest.mark.parametrize("chunk", [1_024, 337])
def test_report_does_not_depend_on_the_chunk_size(desk_setup, chunk, monkeypatch):
    monkeypatch.setattr(montecarlo, "_CHUNK_TRIALS", chunk)
    for label in sorted(_PINNED_MULTI_BLOCK):
        assert _digest(simulate(_multi_block_spec(desk_setup, label))) == _PINNED_MULTI_BLOCK[label]


@pytest.mark.parametrize("label, encoding", sorted(_PINNED_TWO_PARTY))
def test_simulate_two_party_output_is_pinned(label, encoding):
    report = simulate(two_party_spec(label, encoding))
    assert _digest(report) == _PINNED_TWO_PARTY[label, encoding]

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
from hypothesis import given
from hypothesis import strategies as st
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
    _invert,
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


def _trial_block(seed, t, r):
    # numpy's Philox keyed seed at counter (t, r, 0, 0): its first block encrypts (t + 1, r, 0, 0)
    return np.random.Philox(key=seed, counter=[t, r, 0, 0])


def _every_run(laws, seed, trials):
    # every run's counts of the given trials, (len(trials), runs, N), one per-run draw each
    return np.stack([_draw_counts(laws, seed, trials, r) for r in range(len(laws))], axis=1)


@pytest.mark.parametrize("seed", [0, DESK_SEED, 2**64 - 1])
def test_philox_words_are_numpys_philox(seed, monkeypatch):
    # with the inversion made the identity, _draw_counts returns the words it inverts
    monkeypatch.setattr(montecarlo, "_invert", lambda law, words: words)

    def words(trials, run, width):
        return _draw_counts([[None] * width] * 3, seed, np.array(trials, dtype=np.int64), run)

    for t in (0, 4095, 4096, 2**32):
        for r in range(3):
            block = _trial_block(seed, t, r).random_raw(4)
            # the next trial's block is the one after it in the same stream
            assert _trial_block(seed, t, r).random_raw(8)[4:].tolist() == (
                _trial_block(seed, t + 1, r).random_raw(4).tolist()
            )
            for width in (2, 3, 4):
                np.testing.assert_array_equal(words([t], r, width), block[None, :width])
    # one draw over a range, or over a scattered subset with repeats, reads each trial's block
    for trials in (range(4090, 4100), [4096, 7, 4095, 7, 0], [2**32 + 3, 2**32, 2**32 + 3]):
        for r in range(3):
            for width in (2, 3, 4):
                got = words(list(trials), r, width)
                want = [_trial_block(seed, t, r).random_raw(4)[:width] for t in trials]
                np.testing.assert_array_equal(got, np.array(want))


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
        # run r reads the first four doubles of its own block, so drawing it
        # for only some trials moves no other count
        for r in range(3):
            u = np.random.Generator(_trial_block(spec.seed, t, r)).random(4)
            for d in range(4):
                offset, cdf, _ = laws[r][d]
                assert counts[t, r, d] == offset + np.searchsorted(cdf, u[d], side="right")


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
    offset, cdf, _ = _count_law(pulses, probs)
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


def _check_guided_inversion(law, keys):
    # keys k are 53-bit integers, u = k * 2**-53, carried in the top bits of the words
    offset, cdf, _ = law
    keys = np.clip(np.asarray(keys, dtype=np.int64), 0, 2**53 - 1).astype(np.uint64)
    dropped = np.arange(len(keys), dtype=np.uint64) % np.uint64(2**11)  # bits u does not read
    words = (keys << np.uint64(11)) | dropped
    want = offset + np.searchsorted(cdf, keys * 2.0**-53, side="right")
    np.testing.assert_array_equal(_invert(law, words), want)


def _edge_keys(cdf):
    # u at each CDF value (equal to it when it lies on the 2**-53 grid), one step
    # either side, each bucket edge j / 2**12 and one step below it, 0 and 1 - 2**-53
    at = np.floor(cdf * 2.0**53).astype(np.int64)
    edges = np.arange(2**12, dtype=np.int64) << 41
    return np.concatenate((at, at - 1, at + 1, edges, edges - 1, [0, 2**53 - 1]))


@given(
    st.lists(st.tuples(st.integers(0, 400), st.floats(0.0, 1.0)), min_size=1, max_size=4).filter(
        lambda parts: any(n for n, _ in parts)
    ),
    st.lists(st.integers(0, 2**53 - 1), max_size=64),
)
def test_guided_inversion_is_the_search(parts, keys):
    law = _count_law(*zip(*parts))
    _check_guided_inversion(law, [*keys, *_edge_keys(law[1])])


@pytest.mark.parametrize("pulses, probs", [((200,), (0.0,)), ((200,), (1.0,)), ((500,), (0.5,))])
def test_guided_inversion_edges(pulses, probs):
    law = _count_law(pulses, probs)
    offset, cdf, guide = law
    assert len(guide) == 2**12 + 1 and guide[-1] == len(cdf)
    if len(cdf) == 1:  # a one-point law: every uniform reads its one count
        assert (offset, guide[-2]) == (200 * probs[0], 0)
    else:  # its tails put many CDF values in the end buckets, past one step from the guide
        assert guide[1] - guide[0] > 2 and guide[-1] - guide[-2] > 2
    _check_guided_inversion(law, _edge_keys(cdf))


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
    draw = montecarlo._draw_counts

    def counted(laws, seed, trials, run):
        rows[run] += len(trials)
        return draw(laws, seed, trials, run)

    monkeypatch.setattr(montecarlo, "_draw_counts", counted)
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


@pytest.mark.parametrize("label, built", [("AAAA", 4), ("ABCD", 12)])
def test_simulate_builds_a_runs_laws_when_a_trial_first_draws_it(
    desk_setup, label, built, monkeypatch
):
    # every desk AAAA trial stops after run 1, so only its N laws are built; ABCD
    # draws all three runs, each run's laws once across chunks
    made = [0]
    count_law = montecarlo._count_law

    def counted(pulses, probs):
        made[0] += 1
        return count_law(pulses, probs)

    monkeypatch.setattr(montecarlo, "_count_law", counted)
    report = simulate(desk_spec(label, desk_setup, trials=_CHUNK_TRIALS + 300))
    assert made[0] == built
    assert (report.per_detector_count_stats[2]["executions"] > 0) == (label == "ABCD")


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
# reads numpy's Philox bit generator but none of its samplers; numpy.fft
# rounds a law's CDF in its last bits, which moves a count only for a
# uniform that close to a CDF value.
_LOSSY_CHANNEL = ChannelModel(eta=(1.0, 0.81, 0.64, 0.9), dark_count=5e-5, visibility=0.97)
_PINNED_FOUR_PARTY = {
    ("AABC", "desk"): "d7ce1d7aa2207a88622dd84f4908ada9cb85a618cab41078e12527e9b38b83a9",
    ("ABCD", "desk"): "289adb4402bdb68165e57048ed0699f6bcb8c0674dbd7537a42f4036e941a5e4",
    ("AABC", "lossy"): "c3712d82c75179d220f6c45357935239137db734d2b2e930115b1f80431aebdf",
    ("ABCD", "lossy"): "4312edbe7b6eec2432aff3cfc82378c2e13467e3d1bf12fdba72de542c02250f",
    # inconsistent and incorrect trials: AAAA has three inconsistent trials,
    # each after a second run, ABAB is 63% inconsistent, ABBA mixes 2 and 3 runs
    ("AAAA", "lossy"): "6160c4f699823146d06f8dd2e536644e3a7761f36ade7d15e12b0cc43d74953c",
    ("ABAB", "lossy"): "0c0d67f73251f14d089ffc232d6f8f69f2152a8e9781751b6451657f5a2e70d5",
    ("ABBA", "lossy"): "d745dc9704a943d772be9e6ab608b561c2fb067411f8595df4f8d706ef64b161",
}
# Campaigns of 2 500 trials.  test_report_does_not_depend_on_the_chunk_size
# draws them at several chunk sizes: trials on both sides of every chunk
# boundary feed the same statistics.  AABC has 11 three-run and 11 incorrect
# trials; ABBA mixes 2 and 3 runs and is 36% inconsistent, 48% incorrect.
_PINNED_MULTI_BLOCK = {
    "AABC": "dae1868255742b132e70a8e2bb3b1229563a045d732ad5e17854337a32c5fb8e",
    "ABBA": "1d20b744dedae8207334eb6dd70d8fb62c63815c6806b2c19962d628acfea335",
}
_PINNED_TWO_PARTY = {
    ("AA", Encoding.SINGLE_BIT): "627ad91576a03a1f37fec52679d183ce7ef8765f9d00d049606cd95fd195e07b",
    ("AA", Encoding.TWO_BIT): "1337e340030dd058face62db10245495a99906a1ab7973b97b90e8812c6ce6e9",
    ("AB", Encoding.SINGLE_BIT): "e1b201495d58c66c0d29fd4a64a9b05de580d9cdd0104e8fdc2a3342867d70dc",
    ("AB", Encoding.TWO_BIT): "7fed65f5dfe077ebf5ce7ccebe9cac58cce41ab3ec2e1b997cd2a7f3f49eaa60",
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

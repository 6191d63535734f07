"""Seeded trial campaigns: pulse budgets, decisions, count statistics."""

import dataclasses
import hashlib
import json
import math
import multiprocessing
import os
import threading

import numpy as np
import pytest

from qfnet.core import (
    ChannelModel,
    DomainError,
    Encoding,
    ProtocolParams,
    Relationship,
    RunConfig,
    enumerate_relationships,
    run_pairing,
    worst_case_regions,
)
from qfnet import montecarlo
from qfnet.montecarlo import (
    _BLOCK_TRIALS,
    _MIN_WORKER_TRIALS,
    TrialReport,
    TrialSpec,
    _apportion,
    _draw_counts,
    _draw_range,
    simulate,
    wilson_interval,
)
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


def _schedule_click(spec):
    # the (runs, regions, N) click probabilities and pulse column simulate draws
    mats = []
    for run in spec.runs:
        weights, probs = region_click_matrix(spec.rel, run, spec.ch, spec.pp)
        mats.append(np.clip(probs + spec.ch.dark_count, 0.0, 1.0))
    pulses = spec.runs[0].encoding.pulses(spec.pp.m)
    return np.array(_apportion(weights, pulses), dtype=np.int64)[:, None], np.stack(mats)


def test_trial_counts_come_from_the_trial_key(desk_setup):
    pp, _, runs = desk_setup
    rel = Relationship.from_label("ABCB")
    trials = _BLOCK_TRIALS + 300  # a full block and a partial one
    spec = TrialSpec(rel=rel, pp=pp, ch=_LOSSY_CHANNEL, runs=runs, trials=trials, seed=DESK_SEED)
    n_col, click = _schedule_click(spec)
    counts = _draw_counts(n_col, click, spec.seed, spec.trials)
    assert counts.shape == (trials, 3, 4) and counts.dtype == np.int64
    # both sides of the block boundary, and the last trial of the short block
    for t in (0, 1, 7, _BLOCK_TRIALS - 1, _BLOCK_TRIALS, trials - 1):
        rng = np.random.Generator(np.random.Philox(key=[spec.seed, t + 1]))
        want = rng.binomial(n_col, click).sum(axis=1)
        np.testing.assert_array_equal(counts[t], want)
        # one draw over the schedule is the runs drawn one by one, in order:
        # a run the referee skips comes after the ones it reads
        rng = np.random.Generator(np.random.Philox(key=[spec.seed, t + 1]))
        for r in range(3):
            np.testing.assert_array_equal(counts[t, r], rng.binomial(n_col, click[r]).sum(axis=0))


@pytest.mark.parametrize("trials", [300, 2_500])
def test_campaign_builds_one_bit_generator(desk_setup, monkeypatch, trials):
    # the generator is re-keyed per trial, not rebuilt: a Philox costs ~20 us
    built = []

    class CountingPhilox(np.random.Philox):
        def __init__(self, *args, **kwargs):
            built.append(kwargs)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(np.random, "Philox", CountingPhilox)
    report = simulate(desk_spec("ABCD", desk_setup, trials=trials))
    assert report.trials == trials
    assert len(built) == 1


def test_trial_prefix_reproduces(desk_setup):
    spec = desk_spec("AABC", desk_setup)
    n_col, click = _schedule_click(spec)
    full = _draw_counts(n_col, click, spec.seed, 1_000)
    for k in (1, 37):
        np.testing.assert_array_equal(full[:k], _draw_counts(n_col, click, spec.seed, k))


def _range_counts(n_col, click, seed, start, stop):
    out = np.empty((stop - start, click.shape[0], click.shape[2]), dtype=np.int64)
    _draw_range(n_col, click, seed, start, out)
    return out


def test_trial_ranges_reproduce(desk_setup):
    # any contiguous split, drawn range by range, is the one-range draw
    spec = desk_spec("AABC", desk_setup)
    n_col, click = _schedule_click(spec)
    trials = 2 * _BLOCK_TRIALS + 700
    whole = _range_counts(n_col, click, spec.seed, 0, trials)
    # uneven pieces; 37..1029 and 1029..2100 cross block boundaries
    bounds = (0, 1, 37, _BLOCK_TRIALS + 5, 2_100, trials)
    pieces = [_range_counts(n_col, click, spec.seed, a, b) for a, b in zip(bounds, bounds[1:])]
    np.testing.assert_array_equal(np.concatenate(pieces), whole)
    # a suffix that does not start at 0 or on a block boundary
    np.testing.assert_array_equal(_range_counts(n_col, click, spec.seed, 777, trials), whole[777:])


def test_range_builds_one_bit_generator(desk_setup, monkeypatch):
    built = []

    class CountingPhilox(np.random.Philox):
        def __init__(self, *args, **kwargs):
            built.append(kwargs)
            super().__init__(*args, **kwargs)

    spec = desk_spec("ABCD", desk_setup)
    n_col, click = _schedule_click(spec)
    monkeypatch.setattr(np.random, "Philox", CountingPhilox)
    for start, stop in ((0, 5), (5, _BLOCK_TRIALS + 9), (3_000, 3_001)):
        _range_counts(n_col, click, spec.seed, start, stop)
    assert len(built) == 3


# --- parallel draw -----------------------------------------------------------
#
# A campaign of at least 2 * _MIN_WORKER_TRIALS trials is drawn by forked
# workers, one contiguous range of trials each, into one shared buffer.


@pytest.mark.parametrize("workers", [2, 3, 7])  # 7: more workers than CPUs
def test_parallel_draw_matches_serial(desk_setup, monkeypatch, workers):
    spec = desk_spec("ABBA", desk_setup, trials=2_500)
    n_col, click = _schedule_click(spec)
    serial = _draw_counts(n_col, click, spec.seed, spec.trials)
    monkeypatch.setattr(montecarlo, "_worker_count", lambda trials: workers)
    np.testing.assert_array_equal(_draw_counts(n_col, click, spec.seed, spec.trials), serial)
    for label in sorted(_PINNED_MULTI_BLOCK):
        assert _digest(simulate(_multi_block_spec(desk_setup, label))) == _PINNED_MULTI_BLOCK[label]
    assert not multiprocessing.active_children()


def _exit_in_child(parent, how):
    real = _draw_range

    def draw(n_col, click, seed, start, out):
        if os.getpid() == parent:
            return real(n_col, click, seed, start, out)
        if how == "raise":
            raise MemoryError("worker out of memory")
        os._exit(3)

    return draw


@pytest.mark.parametrize("how", ["exit", "raise"])
def test_failed_worker_fails_the_campaign(desk_setup, monkeypatch, how):
    # an unwritten range would read as zero counts: no report may come back
    monkeypatch.setattr(montecarlo, "_worker_count", lambda trials: 3)
    monkeypatch.setattr(montecarlo, "_draw_range", _exit_in_child(os.getpid(), how))
    with pytest.raises(RuntimeError, match="exited with code"):
        simulate(_multi_block_spec(desk_setup, "AABC"))
    assert not multiprocessing.active_children()


def test_failed_caller_range_stops_the_workers(desk_setup, monkeypatch):
    parent = os.getpid()

    def draw(n_col, click, seed, start, out):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        threading.Event().wait(60)  # a worker still drawing

    monkeypatch.setattr(montecarlo, "_worker_count", lambda trials: 2)
    monkeypatch.setattr(montecarlo, "_draw_range", draw)
    with pytest.raises(KeyboardInterrupt):
        simulate(_multi_block_spec(desk_setup, "AABC"))
    assert not multiprocessing.active_children()


def _no_fork(*args, **kwargs):
    raise AssertionError("the draw forked")


def _forbid_fork(monkeypatch):
    monkeypatch.setattr(multiprocessing, "get_context", _no_fork)


@pytest.fixture
def four_cpus(monkeypatch):
    # so that only the condition under test keeps a draw in one process
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    assert montecarlo._worker_count(4 * _MIN_WORKER_TRIALS) == 4


def test_one_cpu_draws_serially(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    _forbid_fork(monkeypatch)
    assert montecarlo._worker_count(100 * _MIN_WORKER_TRIALS) == 1


def test_small_campaign_draws_serially(four_cpus, monkeypatch):
    _forbid_fork(monkeypatch)
    assert montecarlo._worker_count(2 * _MIN_WORKER_TRIALS - 1) == 1
    assert montecarlo._worker_count(3 * _MIN_WORKER_TRIALS - 1) == 2


def test_threaded_caller_draws_serially(desk_setup, four_cpus, monkeypatch):
    spec = desk_spec("AABC", desk_setup)
    n_col, click = _schedule_click(spec)
    trials = 2 * _MIN_WORKER_TRIALS
    want = _range_counts(n_col, click, spec.seed, 0, trials)
    _forbid_fork(monkeypatch)
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        counts = _draw_counts(n_col, click, spec.seed, trials)
    finally:
        release.set()
        thread.join()
    np.testing.assert_array_equal(counts, want)


def test_no_fork_method_draws_serially(four_cpus, monkeypatch):
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    _forbid_fork(monkeypatch)
    assert montecarlo._worker_count(4 * _MIN_WORKER_TRIALS) == 1


def _draw_in_daemon(n_col, click, seed, trials, want):
    # runs in a daemonic child, which may not fork children of its own
    multiprocessing.get_context = _no_fork
    np.testing.assert_array_equal(_draw_counts(n_col, click, seed, trials), want)


def test_daemonic_caller_draws_serially(desk_setup, four_cpus):
    spec = desk_spec("AABC", desk_setup)
    n_col, click = _schedule_click(spec)
    trials = 2 * _MIN_WORKER_TRIALS
    want = _range_counts(n_col, click, spec.seed, 0, trials)
    child = multiprocessing.get_context("fork").Process(
        target=_draw_in_daemon, args=(n_col, click, spec.seed, trials, want), daemon=True
    )
    child.start()
    child.join(timeout=60)
    assert child.exitcode == 0


# --- pinned output -----------------------------------------------------------

# sha256 of TrialReport.to_json() for small campaigns.  A change to
# simulate's click model, pulse budget or referee changes a digest, so a
# refactor of any of them must leave these alone.  The digests also depend on
# numpy's Philox bit stream and its binomial sampler: a numpy release that
# changes either changes them without any change here.
_LOSSY_CHANNEL = ChannelModel(eta=(1.0, 0.81, 0.64, 0.9), dark_count=5e-5, visibility=0.97)
_PINNED_FOUR_PARTY = {
    ("AABC", "desk"): "8a7a6c557519c57862521c320d055da95168680160a3931e6b6b8921e4af2c9c",
    ("ABCD", "desk"): "a4f44e08a40ed9b76255b0b74f90f5648317f291461fd9923318a8ddb4870862",
    ("AABC", "lossy"): "2eae339b5a794ae7bfade92c1b4d208a6081016e433080dac8e0c0ad67387a1b",
    ("ABCD", "lossy"): "148c540e2c31dc576ac077134088a88291d3f1d3c628687e0d3f6a8d684a2021",
    # inconsistent and incorrect trials: AAAA has one inconsistent trial that
    # took a second run, ABAB is ~70% inconsistent, ABBA mixes 2 and 3 runs
    ("AAAA", "lossy"): "d27a11111ad1d7439040572ac0f17bfc59acd531a06a5ee7a6b7768b8537349d",
    ("ABAB", "lossy"): "08e79900c8b7c6e37c718c69d8ea9933e576ac8b47a694ed8bbb68558fd30ed1",
    ("ABBA", "lossy"): "7fc279a10fa9c761e6a5e05b0d91146ccb847f54d95b12d5d6f1a2eda6dbb94f",
}
# Campaigns longer than one draw block: trials on both sides of every block
# boundary feed the same statistics.  AABC has 7 three-run and 7 incorrect
# trials; ABBA mixes 2 and 3 runs and is 36% inconsistent, 49% incorrect.
_PINNED_MULTI_BLOCK = {
    "AABC": "a976489ccab2d73eb93472ed49d17e9ca6654972a496569fa68beaf40c9531e2",
    "ABBA": "ae61f6880f01397b3ebdde1914648f2ff70de71e156f5c9ab6d31934b6c8ed59",
}
_PINNED_TWO_PARTY = {
    ("AA", Encoding.SINGLE_BIT): "90d796011ac735c0019558ea4b26b06096a4c6ad8a7530e5a635ebc73bfce778",
    ("AA", Encoding.TWO_BIT): "3ea03e34b118a3e54ad2d255b3fa574605fa9fb78c5e64de3ec3080f8506f317",
    ("AB", Encoding.SINGLE_BIT): "18063047ba6c54c41a278c247f6abebae03bec07bcb72d9c160c044cd8fb356c",
    ("AB", Encoding.TWO_BIT): "f53792f21e6dd54c2d1d6c40d6423a86c23726c872c264e0460787c4a630e96f",
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


@pytest.mark.parametrize("label, encoding", sorted(_PINNED_TWO_PARTY))
def test_simulate_two_party_output_is_pinned(label, encoding):
    report = simulate(two_party_spec(label, encoding))
    assert _digest(report) == _PINNED_TWO_PARTY[label, encoding]

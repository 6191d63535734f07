"""Acceptance gate: one check per shipped claim, one PASS/FAIL line each.

Every criterion prints a single summary line (run pytest with -s, already the
default here) so the verdicts are visible in plain test output.  Published
reference values are frozen inline rather than imported from the library so
the gate cannot drift along with the code it audits.
"""

import math
import time
from collections import Counter

import numpy as np

from qfnet.benchmarks import BENCHMARKS
from qfnet.complexity import (
    classical_limit_ae,
    classical_optimal_ae,
    count_cases,
    q_total,
)
from qfnet.core import (
    ChannelModel,
    Encoding,
    ProtocolParams,
    Relationship,
    RunConfig,
    run_pairing,
)
from qfnet.decision import (
    DecisionOutcome,
    decision_table_rows,
    forward_signature,
    pairwise_run_count,
    relationship_by_f_r,
    resolve_f_r,
)
from qfnet.montecarlo import TrialSpec, simulate
from qfnet.optics import oracle_click_profile
from qfnet.optimizer import OptimizationProblem, evaluate_fixed, optimize
from qfnet.probmodel import (
    four_party_asymmetric,
    four_party_symmetric,
    two_party_asymmetric,
)

from conftest import DESK_SEED


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"\n[criterion {num}] {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {num}: {detail}"


# --- 1: communication-cost audits of the bundled instances -------------------


def test_criterion_1_quantum_cost_audits():
    t0 = time.perf_counter()
    checks = [
        ("T4", 5.52e5, 0.005),
        ("T_vis", 5.67e5, 0.005),
        ("T3", 2.57e6, 0.005),
        ("T_twobit", 3.91e5, 0.05),
    ]
    notes, ok = [], True
    for tid, published, tol in checks:
        bench = BENCHMARKS[tid]
        rel_diff = abs(q_total(bench.runs, bench.pp.n) - published) / published
        ok = ok and rel_diff <= tol
        notes.append(f"{tid} {rel_diff:.2%}")
    asym = BENCHMARKS["T_asym4"]
    for published, rows, tag in [
        (4.43e6, asym.runs, "T_asym4"),
        (1.55e6, asym.runs[:1], "T_asym4 run 1"),
    ]:
        rel_diff = abs(q_total(rows, asym.pp.n) - published) / published
        ok = ok and rel_diff <= 0.005
        notes.append(f"{tag} {rel_diff:.2%}")
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 1.0
    _report(
        1,
        ok,
        f"published totals reproduced ({', '.join(notes)}); the two-bit row "
        f"recomputes to ~4.00e5 vs 3.91e5 published (2.4% gap, inside its 5% "
        f"band); {elapsed * 1e3:.1f} ms",
    )


# --- 2: classical bounds reproduce the published caption values --------------


def test_criterion_2_classical_bounds():
    t0 = time.perf_counter()
    captions = [
        (1e13, 4, 1e-2, 1.29e10, 3.04e6),
        (3e12, 2, 1e-5, 1.24e10, 1.46e6),
        (1e14, 4, 1e-5, 1.01e11, 1.19e7),
    ]
    worst = 0.0
    for n, N, eps, c_o_pub, c_l_pub in captions:
        worst = max(worst, abs(classical_optimal_ae(n, N, eps) - c_o_pub) / c_o_pub)
        worst = max(worst, abs(classical_limit_ae(n, N, eps) - c_l_pub) / c_l_pub)
    elapsed = time.perf_counter() - t0
    _report(
        2,
        worst <= 0.01 and elapsed < 1.0,
        f"all five caption values within 1% (worst {worst:.2%}); "
        f"{elapsed * 1e3:.1f} ms",
    )


# --- 3: partition counting against a brute-force enumerator ------------------


def _brute_partitions(elems):
    if not elems:
        yield []
        return
    first, rest = elems[0], elems[1:]
    for part in _brute_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [part[i] + [first]] + part[i + 1 :]
        yield [[first]] + part


def test_criterion_3_case_counts():
    t0 = time.perf_counter()
    bell = {2: 2, 3: 5, 4: 15, 5: 52, 6: 203, 7: 877, 8: 4140}
    ok = count_cases(8, 4, 3) == 490
    for N, expected_total in bell.items():
        brute = Counter(
            (max(len(g) for g in part), len(part))
            for part in _brute_partitions(list(range(N)))
        )
        total = 0
        for j in range(1, N + 1):
            for i in range(math.ceil(N / j), N - j + 2):
                cell = count_cases(N, i, j)
                ok = ok and cell == brute.get((i, j), 0)
                total += cell
        ok = ok and total == expected_total
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 1.0
    _report(
        3,
        ok,
        f"count_cases(8,4,3) = 490 and all cells match brute-force partition "
        f"enumeration with Bell-number totals for N = 2..8; {elapsed:.2f} s",
    )


# --- 4: closed forms vs. the interference-tree oracle ------------------------


def test_criterion_4_closed_forms_match_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20250819)
    worst = 0.0

    for f_r in range(15):
        rel = relationship_by_f_r(f_r)
        for _ in range(100):
            pp = ProtocolParams(
                n=int(rng.integers(1_000, 50_001)),
                c=float(rng.uniform(0.1, 0.3)),
                delta=float(rng.uniform(0.05, 0.57)),
                epsilon=1e-3,
                N=4,
            )
            ch = ChannelModel(
                eta=(float(rng.uniform(0.05, 1.0)),) * 4,
                dark_count=float(rng.uniform(0.0, 1e-3)),
                visibility=float(rng.uniform(0.9, 1.0)),
            )
            mu = float(rng.uniform(0.1, 60.0))
            pairing = run_pairing(int(rng.integers(1, 4)))
            closed = four_party_symmetric(rel, mu, ch, pp, pairing)
            run = RunConfig(
                alphas=(math.sqrt(mu),) * 4,
                pairing=pairing,
                thresholds=(1, 1, 1),
                encoding=Encoding.SINGLE_BIT,
            )
            oracle = oracle_click_profile(rel, run, ch, pp)
            worst = max(
                worst,
                max(abs(a.p - b.p) for a, b in zip(closed, oracle)),
            )

    for encoding in (Encoding.SINGLE_BIT, Encoding.TWO_BIT):
        for label, pick in (("AA", 0), ("AB", 1)):
            rel = Relationship.from_label(label)
            for _ in range(100):
                pp = ProtocolParams(
                    n=int(rng.integers(500, 5_001)) * 10,
                    c=0.2,
                    delta=float(rng.uniform(0.05, 0.9)),
                    epsilon=1e-3,
                    N=2,
                )
                ch = ChannelModel(
                    eta=(float(rng.uniform(0.05, 1.0)), float(rng.uniform(0.05, 1.0))),
                    dark_count=float(rng.uniform(0.0, 1e-3)),
                    visibility=float(rng.uniform(0.9, 1.0)),
                )
                alphas = (float(rng.uniform(0.0, 40.0)), float(rng.uniform(0.0, 40.0)))
                closed = two_party_asymmetric(alphas, ch, pp, encoding)[pick]
                run = RunConfig(
                    alphas=alphas,
                    pairing=(1, 2),
                    thresholds=(1,),
                    encoding=encoding,
                )
                oracle = oracle_click_profile(rel, run, ch, pp)
                worst = max(worst, abs(closed[0].p - oracle[1].p))

    # The per-run Equal/Different model every four-party optimization uses,
    # on asymmetric channels and amplitudes: each hypothesis is the
    # relationship it stands for at the ports of run (i, j, k, l).
    all_equal = Relationship.from_label("AAAA")
    for run_index in (1, 2, 3):
        pairing = run_pairing(run_index)
        _, j, _, l = pairing
        for _ in range(100):
            pp = ProtocolParams(
                n=int(rng.integers(1_000, 50_001)),
                c=float(rng.uniform(0.1, 0.3)),
                delta=float(rng.uniform(0.05, 0.57)),
                epsilon=1e-3,
                N=4,
            )
            ch = ChannelModel(
                eta=tuple(float(e) for e in rng.uniform(0.05, 1.0, 4)),
                dark_count=float(rng.uniform(0.0, 1e-3)),
                visibility=float(rng.uniform(0.9, 1.0)),
            )
            run = RunConfig(
                alphas=tuple(float(a) for a in rng.uniform(0.0, 60.0, 4)),
                pairing=pairing,
                thresholds=(1, 1, 1),
                encoding=Encoding.SINGLE_BIT,
            )
            equal, different = four_party_asymmetric(run_index, run.alphas, ch, pp)
            bi, bj, bk, bl = (ch.sqrt_eta[s - 1] * run.alphas[s - 1] for s in pairing)
            # Detector 3's Different hypothesis splits off the sender whose
            # sign flip leaves the smallest |(b_i + b_j) - (b_k + b_l)|.
            flipped = (
                -bi + bj - bk - bl,
                bi - bj - bk - bl,
                bi + bj + bk - bl,
                bi + bj - bk + bl,
            )
            flip3 = min(range(4), key=lambda p: abs(flipped[p]))
            cases = [(equal, d, all_equal) for d in (0, 1, 2)] + [
                (different, 0, _split_off(j)),
                (different, 1, _split_off(pairing[flip3])),
                (different, 2, _split_off(l)),
            ]
            for closed, d, rel in cases:
                oracle = oracle_click_profile(rel, run, ch, pp)
                worst = max(worst, abs(closed[d].p - oracle[d + 1].p))

    elapsed = time.perf_counter() - t0
    _report(
        4,
        worst <= 1e-10 and elapsed < 10.0,
        f"15 four-party + 2 two-party relationships x 100 random draws, and "
        f"the asymmetric four-party Equal/Different model x 3 runs x 100 "
        f"draws: closed forms match pattern enumeration to {worst:.2e} "
        f"absolute; {elapsed:.2f} s",
    )


def _split_off(sender: int) -> Relationship:
    return Relationship.from_label("".join("B" if s == sender else "A" for s in range(1, 5)))


# --- 5: decision table round trip and published rows --------------------------

_PUBLISHED_TABLE = {
    "AAAA": (14, ("000",)),
    "AAAB": (13, ("011", "011")),
    "AABA": (12, ("011", "110")),
    "ABAA": (11, ("110", "011")),
    "ABBB": (10, ("110", "110")),
    "AABB": (9, ("010",)),
    "ABAB": (8, ("101", "010")),
    "ABBA": (7, ("101", "101")),
    "AABC": (6, ("011", "111")),
    "ABAC": (5, ("111", "011")),
    "ABCA": (4, ("111", "111", "011")),
    "ABBC": (3, ("111", "111", "110")),
    "ABCB": (2, ("111", "110")),
    "ABCC": (1, ("110", "111")),
    "ABCD": (0, ("111", "111", "111")),
}

# The four published signatures of the all-distinct relationship.
_PUBLISHED_ABCD = (("101", "111"), ("111", "101"), ("111", "111", "101"), ("111", "111", "111"))

_PUBLISHED_THREE_PARTY = [
    ("AAA", "AAAA", "000", 4),
    ("AAB", "AABA", "011", 3),
    ("ABA", "ABAA", "110", 2),
    ("BAA", "BAAB", "101", 1),
    ("ABC", "ABCA", "111", 0),
]


def test_criterion_5_decision_round_trip_and_tables():
    ok = True
    for label, (f_r, _) in _PUBLISHED_TABLE.items():
        rel = Relationship.from_label(label)
        signature = forward_signature(rel)
        outcome = resolve_f_r(signature)
        ok = ok and isinstance(outcome, DecisionOutcome)
        ok = ok and outcome.relationship == rel and outcome.f_r == f_r
        ok = ok and outcome.runs_used == len(signature)

    rows = decision_table_rows(4)
    ok = ok and len(rows) == 18
    ok = ok and [r["f_r"] for r in rows] == sorted(
        (r["f_r"] for r in rows), reverse=True
    )
    abcd_sets = set()
    for row in rows:
        sig = tuple(b for b in (row["r1"], row["r2"], row["r3"]) if b)
        if row["canonical"] == "ABCD":
            abcd_sets.add(sig)
            ok = ok and row["f_r"] == 0
        else:
            f_r, published_sig = _PUBLISHED_TABLE[row["canonical"]]
            ok = ok and row["f_r"] == f_r and sig == published_sig
    ok = ok and abcd_sets == set(_PUBLISHED_ABCD)

    rows3 = [
        (r["relationship"], r["device_pattern"], r["r1"], r["f_r"])
        for r in decision_table_rows(3)
    ]
    ok = ok and rows3 == [(a, b, c, d) for a, b, c, d in _PUBLISHED_THREE_PARTY]

    budget_ok = all(
        pairwise_run_count(relationship_by_f_r(f))[1]
        <= pairwise_run_count(relationship_by_f_r(f))[0]
        for f in range(15)
    )
    ok = ok and budget_ok
    _report(
        5,
        ok,
        "noiseless forward outcomes resolve to their own relationship for all "
        "15 cases; exported 4-sender table matches the published rows (15 + 4 "
        "all-distinct signatures) and the 3-sender table its 5 rows; "
        "t_multiparty <= t_pairwise on all 15 rows",
    )


# --- 6: optimizer feasibility and competitiveness -----------------------------


def test_criterion_6_optimizer_competitive():
    t0 = time.perf_counter()
    ok = True
    notes = []
    published_notes = []
    for tid in ("T3", "T4", "T_twobit", "T_asym4"):
        bench = BENCHMARKS[tid]
        problem = OptimizationProblem(
            pp=bench.pp, ch=bench.ch, encoding=bench.encoding, runs=len(bench.runs)
        )
        result = optimize(problem)
        audit = evaluate_fixed(result.per_run, problem)
        ratio = result.q_r / bench.reported["q_r"]
        ok = (
            ok
            and result.feasible
            and audit.feasible
            and audit.p_e <= bench.pp.epsilon
            and ratio <= 1.05
        )
        notes.append(f"{tid} ratio {ratio:.2f}")
        published = evaluate_fixed(bench.runs, problem)
        published_notes.append(
            f"{tid} {'feasible' if published.feasible else 'infeasible'}"
            f" (p_e={published.p_e:.3g})"
        )
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 300.0
    _report(
        6,
        ok,
        f"optimizer feasible with audited P_e <= eps on all four instances, "
        f"cost within 1.05x published ({', '.join(notes)}); published "
        f"amplitude/threshold rows re-audited under the referee's rule "
        f"(count >= threshold reads 1): "
        f"{'; '.join(published_notes)} — reported as a finding: the bundled "
        f"c is read as an expansion factor, not the paper's code rate; "
        f"{elapsed:.1f} s",
    )


# --- 7: Monte Carlo statistical validation at desk scale ----------------------


def test_criterion_7_monte_carlo_validation(desk_setup):
    t0 = time.perf_counter()
    pp, ch, runs = desk_setup

    equal, different = four_party_asymmetric(1, runs[0].alphas, ch, pp)
    eq_means = [pp.m * law.p for law in equal]
    df_means = [pp.m * law.p for law in different]
    ok = all(4.5 <= m <= 5.5 for m in eq_means) and 75.0 <= max(df_means) <= 85.0

    min_rate = 1.0
    max_z = 0.0
    checked_means = 0
    for f_r in range(14, -1, -1):
        spec = TrialSpec(
            rel=relationship_by_f_r(f_r),
            pp=pp,
            ch=ch,
            runs=runs,
            trials=10_000,
            seed=DESK_SEED,
        )
        report = simulate(spec)
        min_rate = min(min_rate, report.empirical_correct_rate)
        ok = ok and report.empirical_correct_rate >= 1.0 - 1e-3
        for entry in report.per_detector_count_stats:
            k = entry["executions"]
            if k == 0:
                continue
            for mean, var, analytic in zip(
                entry["mean"], entry["variance"], entry["analytic_mean"]
            ):
                se = math.sqrt(max(var, 1e-12) / k)
                z = abs(mean - analytic) / se
                max_z = max(max_z, z)
                checked_means += 1
                ok = ok and abs(mean - analytic) <= 4.0 * se + 1e-9

    repeat_spec = TrialSpec(
        rel=relationship_by_f_r(6), pp=pp, ch=ch, runs=runs, trials=10_000, seed=DESK_SEED
    )
    ok = ok and simulate(repeat_spec).to_json() == simulate(repeat_spec).to_json()

    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 600.0
    _report(
        7,
        ok,
        f"m = 1e5, 1e4 trials per relationship (Equal mean "
        f"{eq_means[1]:.2f}, brightest Different mean {max(df_means):.2f}): "
        f"min correct rate {min_rate:.6f}, all {checked_means} per-detector "
        f"means within 4 SE of analytic (max |z| {max_z:.2f}), repeat run "
        f"byte-identical; {elapsed:.1f} s",
    )

"""Command-line interface.

Subcommands:

    reproduce       audit a bundled benchmark instance (or export one of the
                    bundled reference tables) to CSV
    optimize        run the amplitude/threshold search for a JSON config
    simulate        Monte Carlo campaign for a config and a relationship
    decision-table  export the referee's decision table as CSV

Exit codes: 0 success/feasible, 2 usage or config error, 3 I/O error,
4 optimizer found no feasible point.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import sys
from dataclasses import asdict
from typing import Any, Callable, Mapping, Sequence

from . import __version__
from .benchmarks import BENCHMARKS, Benchmark
from .complexity import classical_limit_ae, classical_optimal_ae, q_total
from .core import (
    ChannelModel,
    DomainError,
    Encoding,
    ProtocolParams,
    Relationship,
)
from .decision import (
    decision_table_rows,
    pairwise_run_count,
    relationship_by_f_r,
    run_budget,
)
from .montecarlo import TrialSpec, simulate
from .optimizer import OptimizationProblem, evaluate_fixed, optimize

__all__ = ["main", "build_parser", "ConfigError", "load_config"]


class ConfigError(Exception):
    """Configuration document rejected; message names the offending field."""


# ---------------------------------------------------------------------------
# config ingestion
# ---------------------------------------------------------------------------


def _number(value: Any, field: str) -> float:
    # JSON numbers only: bool is an int subclass and float() parses strings
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{field} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # an integer literal beyond the float range
        raise ConfigError(f"{field} is out of range, got {value!r}") from None


def _integer(value: Any, field: str) -> int:
    # integral numbers such as 500000.0 are accepted; 2.5 is not truncated
    if not _number(value, field).is_integer():
        raise ConfigError(f"{field} must be an integer, got {value!r}")
    return int(value)


def _numbers(value: Any, field: str) -> list[float]:
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"{field} must be a list of numbers, got {value!r}")
    return [_number(x, f"{field}[{i}]") for i, x in enumerate(value)]


def _bounds(value: Any, field: str) -> tuple[float, ...]:
    if not (isinstance(value, (list, tuple)) and len(value) == 2):
        raise ConfigError(f"{field} must be [lo, hi], got {value!r}")
    return tuple(_numbers(value, field))


def _encoding(value: Any, field: str) -> Encoding:
    try:
        return Encoding(value)
    except ValueError:
        raise ConfigError(
            f"{field} must be one of {[e.value for e in Encoding]}, got {value!r}"
        ) from None


# Every config section and field with its converter.  Defaults are not
# stated here: an omitted optional field is left to the library's dataclass.
_FIELDS: Mapping[str, Mapping[str, Callable[[Any, str], Any]]] = {
    "protocol": dict(n=_integer, c=_number, delta=_number, epsilon=_number, N=_integer),
    "channel": dict(sqrt_eta=_numbers, eta=_numbers, dark_count=_number, visibility=_number),
    "encoding": dict(variant=_encoding),
    "optimizer": dict(bounds=_bounds, grid=_number),
    "montecarlo": dict(m=_integer, trials=_integer, seed=_integer),
}


def load_config(path: str) -> dict:
    """Load and structurally validate a configuration document."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:  # missing, a directory, unreadable
        raise ConfigError(f"{path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text at byte {exc.start}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    unknown = set(doc) - {"schema_version", *_FIELDS}
    if unknown:
        raise ConfigError(f"unknown top-level keys: {sorted(unknown)}")
    version = doc.get("schema_version")
    if isinstance(version, bool) or version != 1:
        raise ConfigError(f"schema_version must be 1, got {version!r}")
    for section, fields in _FIELDS.items():
        if section in doc:
            if not isinstance(doc[section], dict):
                raise ConfigError(f"section {section!r} must be an object")
            unknown = doc[section].keys() - fields.keys()
            if unknown:
                raise ConfigError(f"unknown keys in {section!r}: {sorted(unknown)}")
    for section in ("protocol", "channel"):
        if section not in doc:
            raise ConfigError(f"missing required section {section!r}")
    return doc


def _given(doc: Mapping[str, Any], section: str, required: bool = False) -> dict[str, Any]:
    """The fields ``doc`` gives in ``section``, converted.

    ``required``: the section and every one of its fields must be given.
    """
    if required and section not in doc:
        raise ConfigError(f"missing required section {section!r}")
    given = doc.get(section, {})
    for key in _FIELDS[section]:
        if required and key not in given:
            raise ConfigError(f"missing field {section}.{key}")
    return {
        key: convert(given[key], f"{section}.{key}")
        for key, convert in _FIELDS[section].items()
        if key in given
    }


def build_protocol(doc: Mapping[str, Any]) -> ProtocolParams:
    try:
        return ProtocolParams(**_given(doc, "protocol", required=True))
    except DomainError as exc:
        raise ConfigError(f"protocol: {exc}") from exc


def build_channel(doc: Mapping[str, Any], n_senders: int) -> ChannelModel:
    if ("sqrt_eta" in doc["channel"]) == ("eta" in doc["channel"]):
        raise ConfigError("channel: provide exactly one of 'sqrt_eta' or 'eta'")
    given = _given(doc, "channel")
    try:
        ch = ChannelModel(**given) if "eta" in given else ChannelModel.from_sqrt_eta(**given)
    except DomainError as exc:
        raise ConfigError(f"channel: {exc}") from exc
    if ch.n_senders != n_senders:
        raise ConfigError(
            f"channel: {ch.n_senders} transmissions for protocol.N = {n_senders}"
        )
    return ch


def build_problem(doc: Mapping[str, Any], target: str) -> OptimizationProblem:
    pp = build_protocol(doc)
    ch = build_channel(doc, pp.N)
    options = _given(doc, "optimizer")
    if "variant" in (encoding := _given(doc, "encoding")):
        options["encoding"] = encoding["variant"]
    try:
        return OptimizationProblem(pp=pp, ch=ch, runs=1 if target == "ae" else None, **options)
    except DomainError as exc:
        raise ConfigError(f"optimizer: {exc}") from exc


# ---------------------------------------------------------------------------
# output helpers
# ---------------------------------------------------------------------------


def _fmt(value: Any) -> str:
    if value is None or value == "":
        return ""
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def _config_hash(payload: Any) -> str:
    canon = json.dumps(payload, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]


def _write_csv(
    path: str | None,
    comment_lines: Sequence[str],
    header: Sequence[str],
    rows: Sequence[Sequence[Any]],
) -> None:
    buf = io.StringIO()
    for line in comment_lines:
        buf.write(f"# {line}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(x) for x in row])
    _write_text(path, buf.getvalue())


def _write_text(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _meta(subject: str, payload: Any) -> list[str]:
    return [f"qfnet {__version__}", subject, f"config_hash: {_config_hash(payload)}"]


def _write_json(path: str | None, config: Any, meta: Mapping[str, Any], **body: Any) -> None:
    """Write ``{"meta": ..., **body}``; meta names the tool and hashes the config."""
    payload = {
        "meta": {"tool": f"qfnet {__version__}", "config_hash": _config_hash(config), **meta},
        **body,
    }
    _write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _benchmark_payload(bench: Benchmark) -> dict:
    return {
        "table": bench.table_id,
        "protocol": asdict(bench.pp),
        "channel": asdict(bench.ch),
        "encoding": bench.encoding.value,
        # not asdict(rc): a run's encoding is not part of the hashed payload
        "runs": [
            {"alphas": rc.alphas, "pairing": rc.pairing, "thresholds": rc.thresholds}
            for rc in bench.runs
        ],
    }


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _dict_table(rows: Sequence[Mapping[str, Any]]) -> tuple[list[str], list[list[Any]]]:
    # header and rows of a table whose rows are dicts in column order
    return list(rows[0]), [list(row.values()) for row in rows]


def _reference_table(table_id: str) -> tuple[str, list[str], list[list[Any]]]:
    """Subject, header and rows of the reference table TE1, TC1 or TV."""
    if table_id == "TE1":
        return "three-party decision table", *_dict_table(decision_table_rows(3))
    if table_id == "TC1":
        rows = []
        for f_r in range(14, -1, -1):
            rel = relationship_by_f_r(f_r)
            rows.append([rel.display_label, rel.canonical_label, *pairwise_run_count(rel)])
        header = ["relationship", "canonical", "t_pairwise", "t_multiparty"]
        return "pairwise vs multi-party run counts", header, rows
    budgets = [
        ("MultiParty", "AE", "1"),
        ("TwoPartyPairwise", "AE", "N-1"),
        ("MultiParty", "R", "N-1"),
        ("TwoPartyPairwise", "R", "N(N-1)/2"),
    ]
    return (
        "worst-case run budgets, evaluated at N=4",
        ["scheme", "target", "runs_formula", "runs_at_N4"],
        [
            [scheme, target, formula, run_budget(4, target, scheme)]
            for scheme, target, formula in budgets
        ],
    )


def cmd_reproduce(args: argparse.Namespace) -> int:
    table_id = args.table
    if table_id not in BENCHMARKS:
        subject, header, rows = _reference_table(table_id)
        _write_csv(args.out, _meta(f"table: {table_id} ({subject})", table_id), header, rows)
        return 0

    bench = BENCHMARKS[table_id]
    problem = OptimizationProblem(
        pp=bench.pp, ch=bench.ch, encoding=bench.encoding, runs=len(bench.runs)
    )
    audited = evaluate_fixed(bench.runs, problem)
    optimized = optimize(problem)
    n, N, eps = bench.pp.n, bench.pp.N, bench.pp.epsilon

    def against_paper(quantity: str, value: float, optimized_value: Any = "") -> list[Any]:
        paper = bench.reported[quantity]
        return [quantity, paper, value, optimized_value, abs(value - paper) / abs(paper), ""]

    rows = [against_paper("q_r", audited.q_r, optimized.q_r)]
    if "q_r_first_run" in bench.reported:
        rows.append(
            against_paper(
                "q_r_first_run", q_total(bench.runs[:1], n), q_total(optimized.per_run[:1], n)
            )
        )
    rows += [
        ["p_e_published_params", eps, audited.p_e, "", "", audited.feasible],
        ["p_e_optimized", eps, "", optimized.p_e, "", optimized.feasible],
        against_paper("c_o_ae", classical_optimal_ae(n, N, eps)),
        against_paper("c_l_ae", classical_limit_ae(n, N, eps)),
    ]
    _write_csv(
        args.out,
        _meta(f"table: {table_id} ({bench.description})", _benchmark_payload(bench)),
        ["quantity", "paper_value", "audited_value", "optimized_value", "relative_difference", "feasible"],
        rows,
    )
    return 0


def cmd_optimize(args: argparse.Namespace) -> int:
    doc = load_config(args.config)
    problem = build_problem(doc, args.target)
    result = optimize(problem)
    _write_json(args.out, doc, {"target": args.target}, result=result.to_jsonable())
    if args.out:
        print(f"wrote {args.out} (feasible={result.feasible}, q_r={_fmt(result.q_r)})")
    return 0 if result.feasible else 4


def cmd_simulate(args: argparse.Namespace) -> int:
    doc = load_config(args.config)
    mc = _given(doc, "montecarlo", required=True)
    problem = build_problem(doc, "r")
    if mc["m"] != problem.pp.m:
        raise ConfigError(
            f"montecarlo.m = {mc['m']} but protocol gives m = round(c*n) = {problem.pp.m}"
        )
    try:
        rel = Relationship.from_label(args.relationship)
    except DomainError as exc:
        raise ConfigError(f"relationship: {exc}") from exc
    if rel.n != problem.pp.N:
        raise ConfigError(
            f"relationship {args.relationship!r} names {rel.n} senders, protocol.N = {problem.pp.N}"
        )
    optimized = optimize(problem)
    if not optimized.feasible:
        print(
            f"no feasible operating point within bounds (best p_e = {_fmt(optimized.p_e)})",
            file=sys.stderr,
        )
        return 4
    spec = TrialSpec(
        rel=rel,
        pp=problem.pp,
        ch=problem.ch,
        runs=optimized.per_run,
        trials=mc["trials"],
        seed=mc["seed"],
    )
    report = simulate(spec)
    meta = {"relationship": rel.canonical_label, "operating_point": optimized.to_jsonable()}
    _write_json(args.out, doc, meta, report=report.to_jsonable())
    if args.out:
        lo, hi = report.wilson_95
        print(
            f"correct rate {report.empirical_correct_rate:.6f} "
            f"(95% Wilson interval [{lo:.6f}, {hi:.6f}]) over {report.trials} trials"
        )
    return 0


def cmd_decision_table(args: argparse.Namespace) -> int:
    header, rows = _dict_table(decision_table_rows(args.n))
    _write_csv(
        args.out,
        _meta(f"decision table for {args.n} senders", {"n": args.n}),
        header,
        rows,
    )
    return 0


# ---------------------------------------------------------------------------
# parser / entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qfnet",
        description="Fingerprinting-network simulator and optimization toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_rep = sub.add_parser("reproduce", help="audit a bundled benchmark instance")
    p_rep.add_argument(
        "table",
        choices=sorted(BENCHMARKS) + ["TE1", "TC1", "TV"],
        help="bundled instance or reference table",
    )
    p_rep.add_argument("--out", default=None, help="output CSV path (default stdout)")
    p_rep.set_defaults(func=cmd_reproduce)

    p_opt = sub.add_parser("optimize", help="search amplitudes/thresholds for a config")
    p_opt.add_argument("config", help="JSON configuration document")
    p_opt.add_argument("--target", choices=["ae", "r"], default="r")
    p_opt.add_argument("--out", default=None, help="output JSON path (default stdout)")
    p_opt.set_defaults(func=cmd_optimize)

    p_sim = sub.add_parser("simulate", help="Monte Carlo campaign for a config")
    p_sim.add_argument("config", help="JSON configuration document")
    p_sim.add_argument("--relationship", required=True, help="ground-truth label, e.g. AABC")
    p_sim.add_argument("--out", default=None, help="output JSON path (default stdout)")
    p_sim.set_defaults(func=cmd_simulate)

    p_dec = sub.add_parser("decision-table", help="export the referee decision table")
    p_dec.add_argument("--n", type=int, choices=[3, 4], default=4)
    p_dec.add_argument("--out", default=None, help="output CSV path (default stdout)")
    p_dec.set_defaults(func=cmd_decision_table)
    return parser


# Built once per process: parse_args keeps no state between calls, so every
# main() call in one process pays only for its own command.
_PARSER = build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

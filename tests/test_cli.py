"""Command-line surface: config validation, exit codes, file outputs."""

import argparse
import csv
import dataclasses
import hashlib
import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import qfnet
from qfnet.cli import ConfigError, build_channel, build_problem, load_config, main

DESK_DOC = {
    "schema_version": 1,
    "protocol": {"n": 50_000, "c": 0.2, "delta": 0.22, "epsilon": 1e-3, "N": 4},
    "channel": {"eta": [1.0, 1.0, 1.0, 1.0], "dark_count": 5e-5},
    "montecarlo": {"m": 10_000, "trials": 40, "seed": 20250819},
}


@pytest.fixture
def desk_config(tmp_path):
    path = tmp_path / "desk.json"
    path.write_text(json.dumps(DESK_DOC))
    return str(path)


def write_doc(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def read_csv(text):
    lines = [l for l in text.splitlines() if not l.startswith("#")]
    rows = list(csv.reader(lines))
    return rows[0], rows[1:]


def run_fresh(*args):
    """Run ``python *args`` in a fresh interpreter that imports this qfnet."""
    src = str(Path(qfnet.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True)


def test_cli_import_leaves_out_scipy_stats():
    # scipy.stats costs about a second of start-up; the count tails need only
    # scipy.special.  A fresh interpreter shows what the import pulls in.
    out = run_fresh("-c", "import sys, qfnet.cli; print('scipy.stats' in sys.modules)")
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


@pytest.mark.parametrize("module", ["qfnet.decision", "qfnet.probmodel", "qfnet.core"])
def test_decision_import_leaves_out_numpy_and_scipy(module):
    # the referee tables and the closed forms are plain Python over core, and
    # the package imports core alone
    out = run_fresh(
        "-c", f"import sys, {module}; print(sorted({{'numpy', 'scipy'}} & set(sys.modules)))"
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize(
    "module", ["qfnet"] + [f"qfnet.{m.name}" for m in pkgutil.iter_modules(qfnet.__path__)]
)
def test_module_all_names_exist(module):
    # a stale __all__ entry breaks `from module import *`
    mod = importlib.import_module(module)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


# --- config loading ----------------------------------------------------------


def test_load_config_accepts_valid_document(desk_config):
    doc = load_config(desk_config)
    assert doc["protocol"]["N"] == 4
    problem = build_problem(doc, "r")
    assert problem.pp.m == 10_000
    assert problem.runs == 3


def test_load_config_rejections(tmp_path):
    base = {k: dict(v) if isinstance(v, dict) else v for k, v in DESK_DOC.items()}

    def check(mutate, match):
        doc = json.loads(json.dumps(base))
        mutate(doc)
        with pytest.raises(ConfigError, match=match):
            load_config(write_doc(tmp_path, doc))

    check(lambda d: d.update(flux_capacitor=1), "unknown top-level")
    check(lambda d: d["protocol"].update(mu=3), "unknown keys in 'protocol'")
    check(lambda d: d.update(schema_version=2), "schema_version")
    check(lambda d: d.pop("schema_version"), "schema_version")
    check(lambda d: d.update(schema_version=True), "schema_version")
    check(lambda d: d.pop("channel"), "missing required section")
    check(lambda d: d.update(protocol=[1, 2]), "must be an object")


def test_load_config_files_and_json_errors(tmp_path):
    with pytest.raises(ConfigError):
        load_config(str(tmp_path / "missing.json"))
    with pytest.raises(ConfigError):  # unreadable even by root: a directory
        load_config(str(tmp_path))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="invalid JSON"):
        load_config(str(bad))
    top = tmp_path / "top.json"
    top.write_text('["a", "b"]')
    with pytest.raises(ConfigError, match="top level"):
        load_config(str(top))
    binary = tmp_path / "binary.json"
    binary.write_bytes(b"\xff\xfe{}")
    with pytest.raises(ConfigError, match="not UTF-8"):
        load_config(str(binary))


def test_build_channel_requires_exactly_one_transmission_key():
    with pytest.raises(ConfigError, match="exactly one"):
        build_channel({"channel": {"eta": [0.5, 0.5], "sqrt_eta": [0.7, 0.7]}}, 2)
    with pytest.raises(ConfigError, match="exactly one"):
        build_channel({"channel": {}}, 2)
    ch = build_channel({"channel": {"sqrt_eta": [0.3, 0.4]}}, 2)
    assert ch.eta == pytest.approx((0.09, 0.16))
    with pytest.raises(ConfigError, match="transmissions"):
        build_channel({"channel": {"eta": [0.5, 0.5]}}, 4)


def test_build_problem_rejects_bad_optimizer_section(tmp_path):
    doc = json.loads(json.dumps(DESK_DOC))
    doc["optimizer"] = {"bounds": [1.0]}
    with pytest.raises(ConfigError, match="bounds"):
        build_problem(doc, "r")
    doc["optimizer"] = {"bounds": [0.0, 4.0]}
    with pytest.raises(ConfigError, match="optimizer"):
        build_problem(doc, "r")


# --- exit codes --------------------------------------------------------------


def test_main_optimize_success(tmp_path, desk_config):
    out = tmp_path / "opt.json"
    assert main(["optimize", desk_config, "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["result"]["feasible"] is True
    assert payload["meta"]["target"] == "r"
    assert len(payload["meta"]["config_hash"]) == 16
    assert len(payload["result"]["per_run"]) == 3


def test_main_optimize_ae_budget(tmp_path, desk_config):
    out = tmp_path / "opt_ae.json"
    assert main(["optimize", desk_config, "--target", "ae", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert len(payload["result"]["per_run"]) == 1


def test_main_optimize_infeasible_bounds_exit_code(tmp_path):
    doc = json.loads(json.dumps(DESK_DOC))
    doc["optimizer"] = {"bounds": [1.0, 1.5]}
    out = tmp_path / "opt.json"
    assert main(["optimize", write_doc(tmp_path, doc), "--out", str(out)]) == 4
    payload = json.loads(out.read_text())
    assert payload["result"]["feasible"] is False


def test_main_config_error_exit_code(tmp_path, capsys):
    doc = json.loads(json.dumps(DESK_DOC))
    doc["protocol"]["delta"] = 2.0
    assert main(["optimize", write_doc(tmp_path, doc)]) == 2
    assert "config error" in capsys.readouterr().err


def test_main_channel_error_exit_code(tmp_path, capsys):
    doc = json.loads(json.dumps(DESK_DOC))
    doc["protocol"]["N"] = 2
    doc["channel"] = {"eta": [1.5, 0.5]}
    assert main(["optimize", write_doc(tmp_path, doc)]) == 2
    assert capsys.readouterr().err.startswith("config error: channel:")


def test_main_library_rejection_exit_code(tmp_path, capsys):
    # the builders accept every field, but two-bit encoding needs an even
    # codeword length and round(0.2 * 500_003) = 100_001
    doc = json.loads(json.dumps(DESK_DOC))
    doc["protocol"].update(N=2, n=500_003)
    doc["channel"] = {"eta": [0.5, 0.5]}
    doc["encoding"] = {"variant": "two-bit"}
    build_problem(doc, "r")
    assert main(["optimize", write_doc(tmp_path, doc)]) == 2
    assert capsys.readouterr().err.startswith("invalid input:")


def test_main_io_error_exit_code(tmp_path, desk_config, capsys):
    missing_dir = tmp_path / "no" / "such" / "dir" / "x.json"
    assert main(["optimize", desk_config, "--out", str(missing_dir)]) == 3
    assert "i/o error" in capsys.readouterr().err


def test_main_rejects_unknown_table():
    with pytest.raises(SystemExit) as exc:
        main(["reproduce", "T99"])
    assert exc.value.code == 2


# --- simulate ----------------------------------------------------------------


def test_main_simulate_writes_report_and_summary(tmp_path, desk_config, capsys):
    out = tmp_path / "sim.json"
    rc = main(["simulate", desk_config, "--relationship", "AABC", "--out", str(out)])
    assert rc == 0
    printed = capsys.readouterr().out
    assert "correct rate" in printed and "Wilson" in printed
    payload = json.loads(out.read_text())
    assert payload["report"]["trials"] == 40
    assert payload["report"]["empirical_correct_rate"] == 1.0
    assert payload["meta"]["relationship"] == "AABC"
    assert payload["meta"]["operating_point"]["feasible"] is True


def test_main_simulate_stdout_is_the_json_report(tmp_path, desk_config, capsys):
    # without --out stdout carries the report alone, byte for byte the file
    out = tmp_path / "sim.json"
    assert main(["simulate", desk_config, "--relationship", "AABC", "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["simulate", desk_config, "--relationship", "AABC"]) == 0
    printed = capsys.readouterr().out
    assert json.loads(printed) == json.loads(out.read_text())
    assert printed.encode("utf-8") == out.read_bytes()


def test_main_simulate_infeasible_exit_code(tmp_path, capsys):
    doc = json.loads(json.dumps(DESK_DOC))
    doc["channel"] = {"sqrt_eta": [0.6, 0.8, 0.7, 0.9], "dark_count": 5e-5}
    doc["optimizer"] = {"bounds": [1, 2]}
    assert main(["simulate", write_doc(tmp_path, doc), "--relationship", "AABC"]) == 4
    captured = capsys.readouterr()
    assert "no feasible operating point" in captured.err
    assert captured.out == ""


def test_main_simulate_is_byte_deterministic(tmp_path, desk_config):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["simulate", desk_config, "--relationship", "ABCD", "--out", str(out1)]) == 0
    assert main(["simulate", desk_config, "--relationship", "ABCD", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_main_simulate_validates_relationship_and_m(tmp_path, desk_config, capsys):
    assert main(["simulate", desk_config, "--relationship", "AB"]) == 2
    assert main(["simulate", desk_config, "--relationship", "A2BC"]) == 2
    doc = json.loads(json.dumps(DESK_DOC))
    doc["montecarlo"]["m"] = 9_999
    assert main(["simulate", write_doc(tmp_path, doc), "--relationship", "AABC"]) == 2
    assert "m = round(c*n)" in capsys.readouterr().err
    doc = json.loads(json.dumps(DESK_DOC))
    del doc["montecarlo"]
    assert main(["simulate", write_doc(tmp_path, doc), "--relationship", "AABC"]) == 2


@pytest.mark.parametrize(
    "section, key, value",
    [
        ("montecarlo", "trials", 2.5),  # would truncate to 2 trials
        ("montecarlo", "trials", True),  # would run 1 trial
        ("montecarlo", "trials", "ten"),
        ("montecarlo", "trials", "40"),
        ("montecarlo", "seed", 1.5),
        ("montecarlo", "seed", None),
        ("montecarlo", "m", False),
        ("protocol", "n", 50_000.5),
        ("protocol", "n", "50000"),
        ("protocol", "n", 10**400),  # beyond the float range
        ("protocol", "n", float("inf")),
        ("protocol", "N", True),
        ("protocol", "c", "0.2"),
        ("protocol", "delta", True),
        ("protocol", "epsilon", "tiny"),
        ("channel", "dark_count", "5e-5"),
        ("channel", "dark_count", 10**400),
        ("channel", "visibility", [1.0]),
        ("channel", "eta", [1.0, "1.0", 1.0, 1.0]),
        ("channel", "eta", "1.0"),
        ("optimizer", "grid", "fine"),
        ("optimizer", "bounds", [1.0, "big"]),
        ("encoding", "variant", "three-bit"),
        ("encoding", "variant", 2),
    ],
)
def test_main_simulate_rejects_non_numeric_fields(tmp_path, capsys, section, key, value):
    doc = json.loads(json.dumps(DESK_DOC))
    doc.setdefault(section, {})[key] = value
    assert main(["simulate", write_doc(tmp_path, doc), "--relationship", "AABC"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and f"{section}.{key}" in err


@pytest.mark.parametrize(
    "section, key",
    [("protocol", key) for key in ("n", "c", "delta", "epsilon", "N")]
    + [("montecarlo", key) for key in ("m", "trials", "seed")],
)
def test_main_simulate_names_a_missing_field(tmp_path, capsys, section, key):
    doc = json.loads(json.dumps(DESK_DOC))
    del doc[section][key]
    assert main(["simulate", write_doc(tmp_path, doc), "--relationship", "AABC"]) == 2
    assert f"missing field {section}.{key}" in capsys.readouterr().err


@pytest.mark.parametrize("transmission", ["eta", "sqrt_eta"])
def test_build_problem_takes_omitted_fields_from_the_dataclasses(transmission):
    # no optimizer or encoding section, no dark_count or visibility: the
    # library's own field defaults apply, whichever transmission key is given
    doc = json.loads(json.dumps(DESK_DOC))
    doc["channel"] = {transmission: [1.0, 1.0, 1.0, 1.0]}
    problem = build_problem(doc, "r")
    for obj, names in ((problem, ("encoding", "bounds", "grid")),
                       (problem.ch, ("dark_count", "visibility"))):
        defaults = {f.name: f.default for f in dataclasses.fields(obj)}
        for name in names:
            assert getattr(obj, name) == defaults[name], name


def test_main_simulate_accepts_integral_floats(tmp_path):
    doc = json.loads(json.dumps(DESK_DOC))
    doc["protocol"].update(n=50_000.0, N=4.0)
    doc["montecarlo"].update(m=10_000.0, trials=40.0, seed=20250819.0)
    out_float, out_int = tmp_path / "float.json", tmp_path / "int.json"
    argv = ["--relationship", "AABC", "--out"]
    assert main(["simulate", write_doc(tmp_path, doc), *argv, str(out_float)]) == 0
    assert main(["simulate", write_doc(tmp_path, DESK_DOC, "int.json"), *argv, str(out_int)]) == 0
    report = json.loads(out_float.read_text())["report"]
    assert report["trials"] == 40
    assert report == json.loads(out_int.read_text())["report"]


# --- table exports -----------------------------------------------------------


def test_decision_table_csv_four_senders(capsys):
    assert main(["decision-table", "--n", "4"]) == 0
    text = capsys.readouterr().out
    assert text.startswith("# qfnet")
    header, rows = read_csv(text)
    assert header == ["relationship", "canonical", "r1", "r2", "r3", "f_r"]
    assert len(rows) == 18
    by_label = {r[1]: r for r in rows if r[1] != "ABCD"}
    assert by_label["AABA"][2:] == ["011", "110", "", "12"]
    assert by_label["AABB"][2:] == ["010", "", "", "9"]


def test_decision_table_csv_three_senders(capsys):
    assert main(["decision-table", "--n", "3"]) == 0
    header, rows = read_csv(capsys.readouterr().out)
    assert header == ["relationship", "canonical", "device_pattern", "r1", "f_r"]
    assert [r[0] for r in rows] == ["AAA", "AAB", "ABA", "BAA", "ABC"]
    assert rows[3][2] == "BAAB"


def test_reproduce_reference_tables(capsys):
    assert main(["reproduce", "TC1"]) == 0
    header, rows = read_csv(capsys.readouterr().out)
    assert header == ["relationship", "canonical", "t_pairwise", "t_multiparty"]
    assert len(rows) == 15
    assert rows[0] == ["AAAA", "AAAA", "3", "1"]
    assert rows[-1] == ["ABCD", "ABCD", "6", "3"]
    for row in rows:
        assert int(row[3]) <= int(row[2])

    assert main(["reproduce", "TV"]) == 0
    _, rows = read_csv(capsys.readouterr().out)
    assert [r[3] for r in rows] == ["1", "3", "3", "6"]

    assert main(["reproduce", "TE1"]) == 0
    _, rows = read_csv(capsys.readouterr().out)
    assert len(rows) == 5


def test_reproduce_benchmark_audit(tmp_path):
    out = tmp_path / "t4.csv"
    assert main(["reproduce", "T4", "--out", str(out)]) == 0
    header, rows = read_csv(out.read_text())
    assert header == [
        "quantity",
        "paper_value",
        "audited_value",
        "optimized_value",
        "relative_difference",
        "feasible",
    ]
    by_q = {r[0]: r for r in rows}
    assert float(by_q["q_r"][4]) < 0.005
    assert float(by_q["c_o_ae"][4]) < 0.01
    assert float(by_q["c_l_ae"][4]) < 0.01
    # published rows audit as infeasible under the referee's rule at the
    # bundled c (a documented finding); the optimizer's own point must be
    # feasible
    assert by_q["p_e_published_params"][5] == "False"
    assert by_q["p_e_optimized"][5] == "True"
    assert float(by_q["q_r"][3]) <= 1.05 * float(by_q["q_r"][1])


# sha256 of stdout.  These tables are paper data: they depend on neither the
# pulse count m nor the optimizer, so only a change to the published tables,
# the CSV layout or the version line may move them.
_PINNED_TABLES = {
    "reproduce TE1": "edbcd7ce5c1247b23cca6a85963dbc96234f79c7494d1a31529c4da2e028b475",
    "reproduce TC1": "2794abcd6862f05a0612982fcd25bcc20d650ae7758065c36aad86f7a48000d0",
    "reproduce TV": "f9a7d2457bce73131cc5b87faea933eb619ab4fa59513e083a8e176c7065670e",
    "decision-table --n 3": "90f2b8c237d412b778e8f72494e8e6aff8d1f3bc65cd4098a23d3acfeb671966",
    "decision-table --n 4": "45f626d2e410ef93b1547a10a79dc3bc32d812112557b0df72421dea6beb4473",
}

# sha256 of stdout of the five bundled audits.  Each hashes the instance's
# data (through config_hash), the audited published point and the optimizer's
# own point, so only a change to the bundled data, the physics or the search
# may move them.
_PINNED_AUDITS = {
    "reproduce T3": "faaa42f963f725dccd42afc4fb4fdb66e052d981d9ddbfc065fe97b2a4d23292",
    "reproduce T4": "05b9215751b2c46199b7304b92aafe4820327d831f7691c2fe084080904b3102",
    "reproduce T_twobit": "8a127a52388f25f286ab07edd8d89f5b4cf377f183dfef0f58f82078ba736754",
    "reproduce T_asym4": "6308ba62384b6509abfe50c7f1ee8cc68bd23890bc61a6ec89b211ce8b1a5dce",
    "reproduce T_vis": "2bcfff20c7959fba7f1a2b7890f200f2fe66fd6d6dd1e5988ba8f9310edb6ede",
}


def _stdout_digest(capsys, argv):
    assert main(argv) == 0
    return hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("command", sorted(_PINNED_TABLES))
def test_reference_table_output_is_pinned(capsys, command):
    assert _stdout_digest(capsys, command.split()) == _PINNED_TABLES[command]


@pytest.mark.parametrize("command", sorted(_PINNED_AUDITS))
def test_bundled_audit_output_is_pinned(capsys, command):
    assert _stdout_digest(capsys, command.split()) == _PINNED_AUDITS[command]


def test_one_shot_cli_prints_the_pinned_table():
    # The parser is built when qfnet.cli is imported; a fresh interpreter
    # running the module as a script goes through that path once.
    out = run_fresh("-m", "qfnet.cli", "decision-table", "--n", "4")
    assert out.returncode == 0, out.stderr
    digest = hashlib.sha256(out.stdout.encode("utf-8")).hexdigest()
    assert digest == _PINNED_TABLES["decision-table --n 4"]

    out = run_fresh("-m", "qfnet.cli", "--help")
    assert out.returncode == 0, out.stderr
    for command in ("reproduce", "optimize", "simulate", "decision-table"):
        assert command in out.stdout


# --- one parser per process --------------------------------------------------


def test_main_builds_no_parser_per_call(monkeypatch, capsys):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    for argv in (["decision-table", "--n", "3"], ["reproduce", "TV"], ["decision-table"]):
        assert main(argv) == 0
    capsys.readouterr()
    assert built == []


@pytest.mark.parametrize(
    "usage_error", [None, ["reproduce", "T9"], ["decision-table", "--n", "5"]]
)
def test_main_leaves_no_state_between_calls(capsys, usage_error):
    # --n 3, then optionally a call that argparse rejects, then the default --n 4
    _stdout_digest(capsys, ["decision-table", "--n", "3"])
    if usage_error:
        with pytest.raises(SystemExit) as exc:
            main(usage_error)
        assert exc.value.code == 2
        capsys.readouterr()
    assert _stdout_digest(capsys, ["decision-table"]) == _PINNED_TABLES["decision-table --n 4"]


def test_main_optimize_target_does_not_leak_between_calls(tmp_path, desk_config):
    lone = tmp_path / "lone.json"
    out = run_fresh("-m", "qfnet.cli", "optimize", desk_config, "--out", str(lone))
    assert out.returncode == 0, out.stderr
    assert main(["optimize", desk_config, "--target", "ae", "--out", str(tmp_path / "ae.json")]) == 0
    after = tmp_path / "after.json"
    assert main(["optimize", desk_config, "--out", str(after)]) == 0
    assert after.read_bytes() == lone.read_bytes()


def test_reproduce_audit_rows_t_asym4(capsys):
    # The rows in their published order.  q_r_first_run is T_asym4's alone;
    # like the classical rows it does not depend on the pulse count m.
    assert main(["reproduce", "T_asym4"]) == 0
    _, rows = read_csv(capsys.readouterr().out)
    assert [r[0] for r in rows] == [
        "q_r",
        "q_r_first_run",
        "p_e_published_params",
        "p_e_optimized",
        "c_o_ae",
        "c_l_ae",
    ]
    first_run = rows[1]
    assert float(first_run[1]) == 1.55e6
    assert float(first_run[2]) == pytest.approx(1.54794e6, rel=1e-5)
    assert float(first_run[4]) == pytest.approx(0.00133, abs=1e-5)
    assert float(first_run[4]) < 0.005  # criterion 1's relative tolerance

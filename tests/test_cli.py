"""Command line behavior: reports, artifacts, determinism, exit codes."""

import argparse
import importlib
import json
import re
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from irslab import FiniteSpace, actions, cli
from irslab.actions import evaluate
from irslab.cli import build_parser, main


def run(tmp_path, *argv):
    report = tmp_path / "report.json"
    code = main(["--report", str(report), *argv])
    return code, json.loads(report.read_text())


def gen_hom(tmp_path, name="h.json", log2=4, seed=7, rank=2):
    out = tmp_path / name
    code, _ = run(
        tmp_path, "gen", "hom", "--rank", str(rank), "--seed", str(seed),
        "--log2", str(log2), "--out", str(out),
    )
    assert code == 0
    return out


def test_gen_space_report(tmp_path):
    out = tmp_path / "space.json"
    code, report = run(tmp_path, "gen", "space", "--log2", "3", "--out", str(out))
    assert code == 0
    assert report["passed"] is True
    assert report["outputs"]["space"]["n_atoms"] == 8
    assert json.loads(out.read_text()) == report["outputs"]["space"]

    code, report = run(tmp_path, "gen", "space", "--classes", "4,4,8")
    assert code == 0
    assert len(report["outputs"]["space"]["classes"]) == 3


def test_gen_hom_is_deterministic(tmp_path):
    a = gen_hom(tmp_path, "a.json", seed=7)
    b = gen_hom(tmp_path, "b.json", seed=7)
    c = gen_hom(tmp_path, "c.json", seed=8)
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()


def test_construct_ht_then_analyze_realize(tmp_path):
    hom = gen_hom(tmp_path, log2=3)
    built = tmp_path / "ht.json"
    code, report = run(
        tmp_path, "construct", "ht", "--hom", str(hom), "--m", "2",
        "--tau", "1 0", "--epsilon", "3/5", "--out", str(built),
    )
    assert code == 0
    assert report["passed"] is True

    code, report = run(
        tmp_path, "analyze", "realize", "--hom", str(built), "--m", "2",
        "--tau", "1 0", "--radius", "16",
    )
    assert code == 0
    assert report["outputs"]["fraction"] == "1/1"


def test_analyze_irs_reports_zero_defect(tmp_path):
    hom = gen_hom(tmp_path)
    csv = tmp_path / "irs.csv"
    code, report = run(
        tmp_path, "analyze", "irs", "--hom", str(hom), "--radius", "2",
        "--csv", str(csv),
    )
    assert code == 0
    assert report["outputs"]["defect"] == "0/1"
    assert csv.read_text().startswith("trace,numerator,denominator")


# recorded from the invariance check that built one permutation per conjugate
PINNED_IRS_REPORT = """{
  "checks": [
    {
      "detail": "0/1",
      "name": "invariance defect is zero",
      "passed": true
    }
  ],
  "command": "analyze irs",
  "inputs": {
    "csv": "irs.csv",
    "hom": "hom.json",
    "radius": 2,
    "space": "space.json"
  },
  "outputs": {
    "csv": "irs.csv",
    "defect": "0/1",
    "trace_count": 14
  },
  "passed": true
}
"""
PINNED_IRS_CSV = """trace,numerator,denominator
800000,3,16
800480,1,8
803000,1,8
804200,1,32
807680,1,32
810800,1,32
820100,1,8
830d80,1,32
848000,1,16
848480,1,32
980480,1,32
9c8480,1,32
e48000,1,8
e48480,1,32
"""


def test_analyze_irs_bytes_on_a_multi_class_space(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["gen", "space", "--classes", "8,8,4,12", "--out", "space.json"]) == 0
    assert main(["gen", "hom", "--model", "random", "--rank", "2", "--seed", "11",
                 "--space", "space.json", "--out", "hom.json"]) == 0
    capsys.readouterr()
    assert main(["analyze", "irs", "--hom", "hom.json", "--space", "space.json",
                 "--radius", "2", "--csv", "irs.csv"]) == 0
    assert capsys.readouterr().out == PINNED_IRS_REPORT
    assert (tmp_path / "irs.csv").read_bytes() == PINNED_IRS_CSV.encode()


def test_irs_csv_is_written_without_trace_objects(tmp_path, monkeypatch, capsys):
    """`analyze irs --csv` and `export --format csv` write from the distribution's
    arrays: no `StabilizerTrace` is constructed."""
    built = []
    monkeypatch.setattr(actions, "StabilizerTrace", lambda *fields: built.append(fields))
    monkeypatch.chdir(tmp_path)
    assert main(["gen", "space", "--classes", "8,8,4,12", "--out", "space.json"]) == 0
    assert main(["gen", "hom", "--model", "random", "--rank", "2", "--seed", "11",
                 "--space", "space.json", "--out", "hom.json"]) == 0
    capsys.readouterr()
    assert main(["analyze", "irs", "--hom", "hom.json", "--space", "space.json",
                 "--radius", "2", "--csv", "irs.csv"]) == 0
    assert capsys.readouterr().out == PINNED_IRS_REPORT
    assert main(["export", "--hom", "hom.json", "--space", "space.json", "--format", "csv",
                 "--radius", "2", "--out", "export.csv"]) == 0
    for name in ("irs.csv", "export.csv"):
        assert (tmp_path / name).read_bytes() == PINNED_IRS_CSV.encode()
    assert built == []


def test_analyze_index(tmp_path):
    hom = gen_hom(tmp_path, log2=3)
    code, report = run(tmp_path, "analyze", "index", "--hom", str(hom))
    assert code == 0
    assert report["outputs"]["distribution"] == {"8": "1/1"}


def test_construct_periodic(tmp_path):
    hom = gen_hom(tmp_path, log2=4)
    out = tmp_path / "per.json"
    code, report = run(
        tmp_path, "construct", "periodic", "--hom", str(hom), "--level", "2",
        "--out", str(out),
    )
    assert code == 0
    assert report["passed"] is True
    assert report["outputs"]["distances"][0] == "1/4"


def test_construct_folner_and_search(tmp_path):
    hom = gen_hom(tmp_path, log2=10)
    out = tmp_path / "folner.json"
    code, report = run(
        tmp_path, "construct", "folner", "--hom", str(hom), "--epsilon", "1/4",
        "--sizes", "8,16", "--out", str(out),
    )
    assert code == 0
    assert report["passed"] is True

    code, report = run(
        tmp_path, "analyze", "folner", "--hom", str(out), "--root", "0",
        "--l", "3", "--radius", "2",
    )
    assert code == 0
    assert report["outputs"]["success"] is True


def test_construct_splice(tmp_path):
    hom = gen_hom(tmp_path, log2=3)
    out = tmp_path / "spliced.json"
    code, report = run(
        tmp_path, "construct", "splice", "--hom", str(hom), "--gen-index", "1",
        "--atoms", "0,1", "--tau-index", "0", "--out", str(out),
    )
    assert code == 0
    assert report["passed"] is True


def test_construct_corefree_and_core_check(tmp_path):
    hom = gen_hom(tmp_path, log2=4)
    out = tmp_path / "cf.json"
    code, report = run(
        tmp_path, "construct", "corefree", "--hom", str(hom), "--word", "s2",
        "--epsilon", "1/2", "--out", str(out),
    )
    assert code == 0
    code, report = run(tmp_path, "analyze", "core", "--hom", str(out), "--word", "s2")
    assert code == 0
    assert report["outputs"]["trivial_fraction"] == "0/1"


def test_construct_corefree_checks_a_base_of_many_atoms_in_one_evaluation(tmp_path, monkeypatch):
    hom = gen_hom(tmp_path, log2=8)
    calls = []
    monkeypatch.setattr(cli, "evaluate", lambda *args: calls.append(args) or evaluate(*args))
    code, report = run(tmp_path, "construct", "corefree", "--hom", str(hom), "--word", "s1 s2",
                       "--epsilon", "1/2", "--out", str(tmp_path / "cf.json"))
    assert code == 0 and all(c["passed"] for c in report["checks"])
    assert len(report["outputs"]["base"]) > 1 and len(calls) == 1


def test_analyze_core_failing_check_sets_exit_code(tmp_path):
    hom = gen_hom(tmp_path, log2=3)
    # the second generator of the unperturbed action may or may not fix all
    # orbits; use a word that surely acts trivially: the identity-power s2^0
    # is rejected, so target a single-orbit action with s2 known trivial
    code, report = run(
        tmp_path, "analyze", "core", "--hom", str(hom), "--word", "s1^0 s2 s2^-1 s2",
    )
    # whichever way the sampled action falls, exit code mirrors the checks
    assert (code == 0) == report["passed"]


def test_analyze_degree_and_stability(tmp_path):
    hom = gen_hom(tmp_path, log2=3)
    code, report = run(
        tmp_path, "analyze", "degree", "--hom", str(hom), "--root", "0",
        "--k-max", "2",
    )
    assert code == 0
    assert report["outputs"]["degree"] >= 1

    other = gen_hom(tmp_path, "other.json", log2=3, seed=9)
    code, report = run(
        tmp_path, "analyze", "stability", "--hom", str(hom), "--other", str(other),
        "--radius", "1",
    )
    assert code == 0
    assert "observed" in report["outputs"]


def test_sweep_cli(tmp_path):
    hom = gen_hom(tmp_path, log2=6)
    code, report = run(
        tmp_path, "sweep", "--hom", str(hom), "--epsilon", "1/2",
        "--samples", "4", "--property", "corefree(s1)", "--seed", "3",
    )
    assert code == 0
    assert report["outputs"]["fraction"] == "1/1"
    assert report["inputs"]["property"] == "corefree(s1)"


def test_export_json_round_trip(tmp_path):
    hom = gen_hom(tmp_path)
    out = tmp_path / "export.json"
    code, report = run(
        tmp_path, "export", "--hom", str(hom), "--format", "json", "--out", str(out),
    )
    assert code == 0
    assert report["passed"] is True
    assert out.read_bytes() == hom.read_bytes()


def test_export_csv_and_dot(tmp_path):
    hom = gen_hom(tmp_path, log2=3)
    csv = tmp_path / "irs.csv"
    code, _ = run(
        tmp_path, "export", "--hom", str(hom), "--format", "csv",
        "--radius", "1", "--out", str(csv),
    )
    assert code == 0 and csv.read_text().startswith("trace,")

    dot = tmp_path / "ball.dot"
    code, _ = run(
        tmp_path, "export", "--hom", str(hom), "--format", "dot",
        "--root", "0", "--radius", "1", "--out", str(dot),
    )
    assert code == 0 and dot.read_text().startswith("digraph")


def test_report_goes_to_stdout_by_default(tmp_path, capsys):
    hom = gen_hom(tmp_path, log2=3)
    code = main(["analyze", "index", "--hom", str(hom)])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["command"] == "analyze index"


def test_bad_input_exit_code(tmp_path, capsys):
    assert main(["analyze", "index", "--hom", str(tmp_path / "missing.json")]) == 2
    hom = gen_hom(tmp_path, log2=3)
    assert main(["sweep", "--hom", str(hom), "--epsilon", "0/0",
                 "--samples", "1", "--property", "corefree(s1)", "--seed", "1"]) == 2
    assert main(["construct", "ht", "--hom", str(hom), "--m", "2",
                 "--tau", "1 0", "--epsilon", "1/99"]) == 2
    capsys.readouterr()


def test_realize_and_ht_refuse_a_non_lean_hom_with_one_line(tmp_path, capsys):
    hom = tmp_path / "random.json"
    assert main(["gen", "hom", "--model", "random", "--rank", "2", "--seed", "1",
                 "--log2", "4", "--out", str(hom)]) == 0
    capsys.readouterr()
    for argv in (["analyze", "realize", "--hom", str(hom), "--m", "2", "--tau", "1 0", "--radius", "2"],
                 ["construct", "ht", "--hom", str(hom), "--m", "2", "--tau", "1 0", "--epsilon", "1/2"]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: first generator must be a single full cycle\n"
        assert captured.out == ""


@pytest.mark.parametrize("epsilon", ["5/2", "-1/2"])
def test_sweep_refuses_epsilon_outside_zero_to_two(tmp_path, capsys, epsilon):
    hom = gen_hom(tmp_path, log2=4)
    assert main(["sweep", "--hom", str(hom), f"--epsilon={epsilon}", "--samples", "2",
                 "--property", "corefree(s1)", "--seed", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: epsilon {epsilon} is not in [0, 2]\n"
    assert captured.out == ""


@pytest.mark.parametrize("command", [
    ("export", "--format", "dot", "--radius", "1", "--out", "x.dot"),
    ("analyze", "folner", "--l", "2", "--radius", "2"),
    ("analyze", "degree", "--k-max", "2"),
])
@pytest.mark.parametrize("root", [99, 16, -1])
def test_root_outside_the_atoms_exits_2(tmp_path, monkeypatch, capsys, command, root):
    hom = gen_hom(tmp_path, log2=4)
    monkeypatch.chdir(tmp_path)
    assert main([*command, "--hom", str(hom), "--root", str(root)]) == 2
    assert capsys.readouterr().err.strip() == f"error: --root {root} is not an atom in [0, 16)"
    assert not (tmp_path / "x.dot").exists()


def test_root_outside_the_atoms_exits_2_without_traceback(tmp_path):
    hom = gen_hom(tmp_path, log2=4)
    proc = subprocess.run(
        [sys.executable, "-m", "irslab.cli", "export", "--hom", str(hom), "--format", "dot",
         "--root", "99", "--radius", "1", "--out", str(tmp_path / "x.dot")],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.strip() == "error: --root 99 is not an atom in [0, 16)"


@pytest.mark.parametrize("command", [
    ("analyze", "irs", "--radius", "20", "--csv", "x.csv"),
    ("export", "--format", "csv", "--radius", "20", "--out", "x.csv"),
])
def test_trace_rows_over_the_byte_budget_exit_2(tmp_path, monkeypatch, capsys, command):
    hom = gen_hom(tmp_path, log2=4)
    monkeypatch.chdir(tmp_path)
    assert main([*command, "--hom", str(hom)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("error: trace rows at radius 20 need 13947137616 bytes for 16 atoms")
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("command, message", [
    (("export", "--format", "dot", "--root", "0", "--radius", "19", "--out", "x.dot"),
     "ball codes at radius 19 need 27894275204 bytes for 1 atom, over the budget of 268435456"),
    (("analyze", "stability", "--other", "h.json", "--radius", "12"),
     "ball codes at radius 12 need 3265172480 bytes for 256 atoms, over the budget of 268435456"),
], ids=["dot", "stability"])
def test_ball_codes_over_the_byte_budget_exit_2(tmp_path, monkeypatch, capsys, command, message):
    hom = gen_hom(tmp_path, log2=8)
    monkeypatch.chdir(tmp_path)
    assert main([*command, "--hom", str(hom)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "x.dot").exists()


@pytest.mark.parametrize("sub", ["hom", "space"])
@pytest.mark.parametrize("log2, message", [
    ("40", "1099511627776 atoms need 8796093022208 bytes, over the budget of 268435456"),
    ("-1", "--log2 must be nonnegative"),
], ids=["huge", "negative"])
def test_gen_log2_out_of_range_exits_2(tmp_path, capsys, sub, log2, message):
    seeded = ("--rank", "2", "--seed", "1") if sub == "hom" else ()
    assert main(["gen", sub, *seeded, "--log2", log2]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_hom_document_without_atoms_exits_2(tmp_path, capsys):
    doc = tmp_path / "empty.json"
    doc.write_text(json.dumps({"n_atoms": 0, "rank": 1, "gens": [[]]}))
    assert main(["analyze", "index", "--hom", str(doc)]) == 2
    assert capsys.readouterr().err == "error: space needs at least one atom\n"


@pytest.mark.parametrize("missing", ["gens", "n_atoms", "rank"])
def test_hom_document_missing_key_exits_2(tmp_path, missing):
    doc = {"n_atoms": 4, "rank": 1, "gens": [[1, 2, 3, 0]]}
    del doc[missing]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    proc = subprocess.run(
        [sys.executable, "-m", "irslab.cli", "analyze", "index", "--hom", str(bad)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.strip() == f"error: hom document is missing key {missing!r}"


def test_space_document_missing_key_exits_2(tmp_path, capsys):
    hom = gen_hom(tmp_path, log2=2)
    space = tmp_path / "space.json"
    space.write_text(json.dumps({"n_atoms": 4}))
    assert main(["analyze", "index", "--hom", str(hom), "--space", str(space)]) == 2
    assert capsys.readouterr().err.strip() == "error: space document is missing key 'classes'"
    space.write_text("[]")
    assert main(["analyze", "index", "--hom", str(hom), "--space", str(space)]) == 2
    assert capsys.readouterr().err.strip() == "error: space document must be a JSON object"


@pytest.mark.parametrize("key, value, kind", [
    ("gens", 5, "a list of integer lists"),
    ("gens", [[1, 2, 3, "0"]], "a list of integer lists"),
    ("gens", [[1.0, 2, 3, 0]], "a list of integer lists"),
    ("gens", [5], "a list of integer lists"),
    ("n_atoms", "4", "an integer"),
    ("rank", True, "an integer"),
])
def test_hom_document_wrong_type_exits_2(tmp_path, capsys, key, value, kind):
    doc = {"n_atoms": 4, "rank": 1, "gens": [[1, 2, 3, 0]]}
    doc[key] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["analyze", "index", "--hom", str(bad)]) == 2
    assert capsys.readouterr().err.strip() == f"error: hom document key {key!r} must be {kind}"


def test_hom_document_int_gens_exits_2_without_traceback(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"n_atoms": 4, "rank": 1, "gens": 5}))
    proc = subprocess.run(
        [sys.executable, "-m", "irslab.cli", "analyze", "index", "--hom", str(bad)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.strip() == "error: hom document key 'gens' must be a list of integer lists"


@pytest.mark.parametrize("key, value, kind", [
    ("classes", 5, "a list of integer lists"),
    ("classes", [[0, 1], [2, "3"]], "a list of integer lists"),
    ("n_atoms", "4", "an integer"),
    ("filtration_log2_levels", "2", "an integer"),
])
def test_space_document_wrong_type_exits_2(tmp_path, capsys, key, value, kind):
    hom = gen_hom(tmp_path, log2=2)
    doc = {"n_atoms": 4, "classes": [[0, 1, 2, 3]], "filtration_log2_levels": 2}
    doc[key] = value
    space = tmp_path / "space.json"
    space.write_text(json.dumps(doc))
    assert main(["analyze", "index", "--hom", str(hom), "--space", str(space)]) == 2
    assert capsys.readouterr().err.strip() == f"error: space document key {key!r} must be {kind}"


def test_console_script_entry_point(tmp_path):
    hom = gen_hom(tmp_path, log2=3)
    proc = subprocess.run(
        [sys.executable, "-m", "irslab.cli", "analyze", "index", "--hom", str(hom)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["passed"] is True


def test_run_freezes_the_heap_around_main_and_exits_with_its_status(monkeypatch):
    calls = []
    monkeypatch.setattr(cli.gc, "freeze", lambda: calls.append("freeze"))
    monkeypatch.setattr(cli, "main", lambda: calls.append("main") or 1)
    with pytest.raises(SystemExit) as done:
        cli.run()
    assert calls == ["freeze", "main", "freeze"]
    assert done.value.code == 1


@pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib is new in Python 3.11")
def test_the_irslab_script_is_run():
    import tomllib

    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    module, name = tomllib.loads(pyproject.read_text())["project"]["scripts"]["irslab"].split(":")
    assert getattr(importlib.import_module(module), name) is cli.run


def test_the_space_is_built_before_the_hom_text_is_parsed(tmp_path, monkeypatch):
    """Only one parsed document is alive at a time."""
    space = tmp_path / "space.json"
    assert main(["gen", "space", "--log2", "2", "--out", str(space)]) == 0
    hom = gen_hom(tmp_path, log2=2)
    seen, read_text, space_from_doc = [], Path.read_text, cli.space_from_doc
    monkeypatch.setattr(Path, "read_text", lambda self: seen.append(self.name) or read_text(self))
    monkeypatch.setattr(cli, "space_from_doc", lambda doc: seen.append("space_from_doc") or space_from_doc(doc))
    assert main(["analyze", "index", "--hom", str(hom), "--space", str(space)]) == 0
    assert seen == ["space.json", "space_from_doc", "h.json"]


def test_import_leaves_the_process_pool_unloaded():
    # only a parallel sweep needs concurrent.futures; every CLI job pays for its import
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, irslab.cli; print('concurrent.futures' in sys.modules)"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


@pytest.mark.parametrize("rank", ["0", "-3"])
@pytest.mark.parametrize("model, message", [
    ("lean-aperiodic", "rank must be at least 1"),
    ("random", "need at least one generator image"),
])
def test_gen_hom_rank_below_one_exits_2(tmp_path, capsys, rank, model, message):
    out = tmp_path / "h.json"
    assert main(["gen", "hom", "--model", model, "--rank", rank, "--seed", "1",
                 "--log2", "3", "--out", str(out)]) == 2
    assert capsys.readouterr().err.strip() == f"error: {message}"
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["gen", "hom", "--rank", "2", "--log2", "3", "--out", "{tmp}/neg.json"],
    ["sweep", "--hom", "{hom}", "--epsilon", "1/2", "--samples", "2", "--property", "corefree(s2)"],
], ids=["gen-hom", "sweep"])
def test_negative_seed_exits_2_naming_the_seed(tmp_path, capsys, argv):
    hom = gen_hom(tmp_path, log2=3)
    argv = [a.format(tmp=tmp_path, hom=hom) for a in argv]
    assert main(["--report", str(tmp_path / "r.json"), *argv, "--seed", "-1"]) == 2
    assert capsys.readouterr().err.strip() == "error: seed must be nonnegative, got -1"
    assert not (tmp_path / "neg.json").exists() and not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("flag, value", [
    ("--gen-index", "2"), ("--gen-index", "5"), ("--gen-index", "-1"),
    ("--tau-index", "7"), ("--tau-index", "-2"),
])
def test_splice_index_outside_the_generators_exits_2(tmp_path, capsys, flag, value):
    hom = gen_hom(tmp_path, log2=3)
    out = tmp_path / "spliced.json"
    assert main(["construct", "splice", "--hom", str(hom), "--atoms", "0,1",
                 flag, value, "--out", str(out)]) == 2
    assert capsys.readouterr().err.strip() == f"error: {flag} {value} is not a generator in [0, 2)"
    assert not out.exists()


def test_splice_tau_index_is_checked_against_the_tau_hom(tmp_path, capsys):
    hom = gen_hom(tmp_path, log2=3)
    tau = gen_hom(tmp_path, "tau.json", log2=3, rank=3)
    code, report = run(tmp_path, "construct", "splice", "--hom", str(hom), "--tau", str(tau),
                       "--tau-index", "2", "--atoms", "0")
    assert code == 0 and report["passed"] is True
    assert main(["construct", "splice", "--hom", str(hom), "--tau", str(tau),
                 "--tau-index", "3", "--atoms", "0"]) == 2
    assert capsys.readouterr().err.strip() == "error: --tau-index 3 is not a generator in [0, 3)"


@pytest.mark.parametrize("m", ["0", "-1"])
def test_construct_ht_m_below_one_exits_2(tmp_path, capsys, m):
    hom = gen_hom(tmp_path, log2=3)
    assert main(["construct", "ht", "--hom", str(hom), "--m", m, "--tau", "",
                 "--epsilon", "1/2"]) == 2
    assert capsys.readouterr().err.strip() == "error: m must be at least 1"


@pytest.mark.parametrize("argv, message", [
    (["gen", "hom", "--rank", "0", "--seed", "1"], "rank must be at least 1"),
    (["construct", "splice", "--hom", "{hom}", "--gen-index", "5"],
     "--gen-index 5 is not a generator in [0, 2)"),
    (["construct", "ht", "--hom", "{hom}", "--m", "0", "--tau", "", "--epsilon", "1/2"],
     "m must be at least 1"),
    (["analyze", "folner", "--hom", "{hom}", "--root", "0", "--l", "2", "--radius", "-3"],
     "radius must be nonnegative"),
    (["analyze", "irs", "--hom", "{hom}", "--radius", "-1"], "radius must be nonnegative"),
])
def test_malformed_integers_exit_2_without_traceback(tmp_path, argv, message):
    hom = gen_hom(tmp_path, log2=3)
    proc = subprocess.run(
        [sys.executable, "-m", "irslab.cli", *(a.format(hom=hom) for a in argv)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.strip() == f"error: {message}"
    assert proc.stdout == ""


@pytest.mark.parametrize("argv", [
    ["analyze", "folner", "--hom", "{hom}", "--root", "0", "--l", "2", "--radius", "-3"],
    ["export", "--hom", "{hom}", "--format", "dot", "--root", "0", "--radius", "-1", "--out", "x.dot"],
    ["analyze", "stability", "--hom", "{hom}", "--other", "{hom}", "--radius", "-1"],
    ["analyze", "irs", "--hom", "{hom}", "--radius", "-1"],
    ["export", "--hom", "{hom}", "--format", "csv", "--radius", "-1", "--out", "x.csv"],
    ["sweep", "--hom", "{hom}", "--epsilon", "1/4", "--samples", "2", "--seed", "1",
     "--property", "folner(3,-2)"],
])
def test_negative_radius_exits_2(tmp_path, monkeypatch, capsys, argv):
    hom = gen_hom(tmp_path, log2=4)
    monkeypatch.chdir(tmp_path)
    assert main([a.format(hom=hom) for a in argv]) == 2
    assert capsys.readouterr().err.strip() == "error: radius must be nonnegative"
    assert not (tmp_path / "x.dot").exists()
    assert not (tmp_path / "x.csv").exists()


def identity_hom(tmp_path, log2=4):
    from irslab import FiniteSpace, FullGroupElement, Homomorphism
    from irslab.serialize import dumps_canonical, hom_to_doc

    ident = FullGroupElement.identity(FiniteSpace.single_class(2 ** log2))
    out = tmp_path / "identity.json"
    out.write_text(dumps_canonical(hom_to_doc(Homomorphism(ident.space, (ident, ident)))))
    return out


def test_negative_folner_radius_on_a_singleton_orbit_exits_2(tmp_path, capsys):
    hom = identity_hom(tmp_path)
    argv = ["analyze", "folner", "--hom", str(hom), "--root", "0", "--l", "2", "--radius", "-3"]
    assert main(argv) == 2
    assert capsys.readouterr().err.strip() == "error: radius must be nonnegative"


@pytest.mark.parametrize("builder, argv, check", [
    ("build_ht_perturbation", ["ht", "--m", "2", "--tau", "1 0"],
     "second generator permutes every tower fiber by tau"),
    ("build_corefree_perturbation", ["corefree", "--word", "s2"],
     "word carries the first tower level onto the last"),
])
def test_construct_report_checks_fail_when_the_construction_does_nothing(
        tmp_path, monkeypatch, builder, argv, check):
    from irslab import constructions

    hom = gen_hom(tmp_path, log2=6)
    monkeypatch.setattr(constructions, builder, lambda hom, *args: hom)
    code, report = run(tmp_path, "construct", *argv, "--hom", str(hom), "--epsilon", "1/2")
    assert code == 1
    assert report["passed"] is False
    assert {c["name"]: c["passed"] for c in report["checks"]} == {
        "distance below epsilon": True, check: False,
    }


@pytest.mark.parametrize("error", [RuntimeError, AssertionError])
def test_broken_internal_invariant_exits_3(tmp_path, monkeypatch, capsys, error):
    from irslab import analysis

    def broken(*args):
        raise error("stability bound violated: observed 1/1 > bound 0/1")

    hom = gen_hom(tmp_path, log2=3)
    monkeypatch.setattr(analysis, "ball_stability_check", broken)
    argv = ["analyze", "stability", "--hom", str(hom), "--other", str(hom), "--radius", "1"]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.err == "internal error: stability bound violated: observed 1/1 > bound 0/1\n"
    assert captured.out == ""


def test_broken_internal_invariant_exits_3_without_traceback(tmp_path):
    hom = gen_hom(tmp_path, log2=3)
    script = (
        "import sys\n"
        "from irslab import analysis, cli\n"
        "def broken(*args):\n"
        "    raise RuntimeError('stability bound violated')\n"
        "analysis.ball_stability_check = broken\n"
        "sys.exit(cli.main(sys.argv[1:]))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, "analyze", "stability", "--hom", str(hom),
         "--other", str(hom), "--radius", "1"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 3
    assert "Traceback" not in proc.stderr
    assert proc.stderr == "internal error: stability bound violated\n"
    assert proc.stdout == ""


def test_folner_classes_larger_than_the_space_exit_2(tmp_path):
    hom = gen_hom(tmp_path, log2=6)
    proc = subprocess.run(
        [sys.executable, "-m", "irslab.cli", "construct", "folner", "--hom", str(hom),
         "--epsilon", "100", "--sizes", "100"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2
    assert proc.stderr == "error: requested classes need 100 atoms, more than the 64 in the space\n"
    assert proc.stdout == ""


def _limit_address_space():
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (3 * 10**9, 3 * 10**9))


@pytest.mark.parametrize("doc_flag, doc, message", [
    ("--hom", {"n_atoms": 2**40, "rank": 1, "gens": [[0]]},
     "forward table must list one image per atom"),
    ("--hom", {"n_atoms": 2**40, "rank": 0, "gens": []}, "need at least one generator image"),
    ("--space", {"n_atoms": 2**40, "classes": [[0]]}, "classes must cover every atom"),
    ("--space", {"n_atoms": 2**40, "classes": [[0, 1], [1]]}, "classes must partition the atoms"),
])
def test_documents_claiming_huge_spaces_exit_2_before_allocating(tmp_path, doc_flag, doc, message):
    """A 2^40-atom claim needs 8 TiB; under a 3 GB address-space limit the
    loaders must reject the short lists before building anything that size."""
    hom, big = gen_hom(tmp_path, log2=2), tmp_path / "big.json"
    big.write_text(json.dumps(doc))
    paths = {"--hom": str(hom), doc_flag: str(big)}
    proc = subprocess.run(
        [sys.executable, "-m", "irslab.cli", "analyze", "index",
         *(a for flag, path in paths.items() for a in (flag, path))],
        capture_output=True, text=True, preexec_fn=_limit_address_space,
    )
    assert proc.returncode == 2
    assert proc.stderr == f"error: {message}\n"


# one run of each subcommand; files are relative to a directory holding
# space.json (classes 8,8,4,12), a random rank-2 hom h.json on it and a
# lean-aperiodic rank-2 hom lean.json on 16 atoms
EVERY_SUBCOMMAND = {
    "gen space": ["gen", "space", "--log2", "3"],
    "gen hom": ["gen", "hom", "--rank", "2", "--seed", "1", "--log2", "4"],
    "construct splice": ["construct", "splice", "--hom", "h.json", "--atoms", "0,1"],
    "construct periodic": ["construct", "periodic", "--hom", "h.json", "--level", "1"],
    "construct folner": ["construct", "folner", "--hom", "lean.json", "--epsilon", "1/2"],
    "construct ht": ["construct", "ht", "--hom", "lean.json", "--m", "2", "--tau", "1 0",
                     "--epsilon", "3/5"],
    "construct corefree": ["construct", "corefree", "--hom", "lean.json", "--word", "s2",
                           "--epsilon", "1/2"],
    "analyze index": ["analyze", "index", "--hom", "h.json", "--space", "space.json"],
    "analyze irs": ["analyze", "irs", "--hom", "h.json", "--radius", "1"],
    "analyze folner": ["analyze", "folner", "--hom", "h.json", "--root", "0", "--l", "2",
                       "--radius", "1"],
    "analyze core": ["analyze", "core", "--hom", "h.json", "--word", "s1"],
    "analyze realize": ["analyze", "realize", "--hom", "lean.json", "--m", "2", "--tau", "1 0",
                        "--radius", "4"],
    "analyze degree": ["analyze", "degree", "--hom", "h.json", "--root", "0", "--k-max", "2"],
    "analyze stability": ["analyze", "stability", "--hom", "h.json", "--other", "h.json",
                          "--radius", "1"],
    "sweep": ["sweep", "--hom", "h.json", "--space", "space.json", "--epsilon", "1/2",
              "--samples", "2", "--property", "corefree( s2 )", "--seed", "1"],
    "export": ["export", "--hom", "h.json", "--format", "json", "--out", "e.json"],
}


def subcommand_parsers():
    """Each subcommand's own parser, keyed like a report's `command`."""
    def children(parser):
        (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        return action.choices

    found = {}
    for name, sub in children(build_parser()).items():
        if any(isinstance(a, argparse._SubParsersAction) for a in sub._actions):
            found.update({f"{name} {leaf}": p for leaf, p in children(sub).items()})
        else:
            found[name] = sub
    return found


@pytest.fixture
def documents(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["gen", "space", "--classes", "8,8,4,12", "--out", "space.json"]) == 0
    assert main(["gen", "hom", "--model", "random", "--rank", "2", "--seed", "11",
                 "--space", "space.json", "--out", "h.json"]) == 0
    assert main(["gen", "hom", "--rank", "2", "--seed", "1", "--log2", "4",
                 "--out", "lean.json"]) == 0
    return tmp_path


def test_every_subcommand_has_a_report_run():
    assert set(EVERY_SUBCOMMAND) == set(subcommand_parsers())


@pytest.mark.parametrize("command", EVERY_SUBCOMMAND)
def test_report_inputs_are_every_option_of_the_subcommand(documents, command):
    parser = subcommand_parsers()[command]
    dests = {a.dest for a in parser._actions if a.dest != "help"}
    argv = EVERY_SUBCOMMAND[command]
    assert main(["--report", "report.json", *argv]) in (0, 1)
    report = json.loads((documents / "report.json").read_text())
    assert report["command"] == command
    assert set(report["inputs"]) == dests
    parsed = vars(build_parser().parse_args(argv))
    if command == "sweep":
        parsed["property"] = "corefree(s2)"  # recorded in canonical form
    assert report["inputs"] == {k: parsed[k] for k in dests}


def test_sweep_records_the_space_it_ran_on(documents):
    argv = ["sweep", "--hom", "h.json", "--epsilon", "1/2", "--samples", "4",
            "--property", "corefree(s2)", "--seed", "3"]
    reports = {}
    for space in (None, "space.json"):
        extra = ["--space", space] if space else []
        assert main(["--report", "report.json", *argv, *extra]) == 0
        reports[space] = json.loads((documents / "report.json").read_text())
    assert reports["space.json"]["inputs"]["space"] == "space.json"
    assert reports[None]["inputs"]["space"] is None
    assert reports[None]["inputs"] != reports["space.json"]["inputs"]


@pytest.mark.parametrize("argv", [
    ["construct", "ht", "--m", "2", "--tau", "1 0", "--epsilon", "3/5"],
    ["construct", "corefree", "--word", "s2 s1 s2", "--epsilon", "1/2"],
], ids=["ht", "corefree"])
def test_construct_labels_sigma_once(tmp_path, monkeypatch, argv):
    import irslab.fullgroup
    import irslab.labels

    hom = gen_hom(tmp_path, log2=6)
    sigma = json.loads(hom.read_text())["gens"][0]
    calls = []
    label = irslab.labels.cycle_labels

    def counted(perm):
        calls.append(np.asarray(perm).tolist() == sigma)
        return label(perm)

    for module in (irslab.labels, irslab.fullgroup):
        monkeypatch.setattr(module, "cycle_labels", counted)
    code, _ = run(tmp_path, *argv, "--hom", str(hom))
    assert code == 0
    assert sum(calls) == 1


@pytest.mark.parametrize("argv, message", [
    (["analyze", "irs", "--radius", "16"], "ball of rank 2 and radius 16 needs 1377495056 bytes"),
    (["export", "--format", "dot", "--root", "0", "--radius", "14", "--out", "{tmp}/x.dot"],
     "ball of rank 2 and radius 15 needs 459165008 bytes"),
], ids=["irs", "dot"])
def test_balls_over_the_byte_budget_exit_2_before_allocating(tmp_path, argv, message):
    """The trace rows or codes of 16 atoms fit the budget here, the free ball
    does not; under a 3 GB address-space limit building it would crash."""
    hom = gen_hom(tmp_path, log2=4, seed=1)
    proc = subprocess.run(
        [sys.executable, "-m", "irslab.cli", *(a.format(tmp=tmp_path) for a in argv),
         "--hom", str(hom)],
        capture_output=True, text=True, preexec_fn=_limit_address_space,
    )
    assert proc.returncode == 2
    assert proc.stderr == f"error: {message}, over the budget of 268435456\n"
    assert proc.stdout == ""
    assert not (tmp_path / "x.dot").exists()


def test_huge_log2_is_refused_without_formatting_its_size(capsys):
    # 2^20000 has 6021 digits, past the int-to-str limit of 4300
    assert main(["gen", "space", "--log2", "20000"]) == 2
    assert capsys.readouterr().err == ("error: at least 2^20000 atoms need at least 2^20003 bytes, "
                                       "over the budget of 268435456\n")


@pytest.mark.parametrize("argv, message", [
    (["analyze", "irs", "--radius", "100000"],
     "trace rows at radius 100000 need at least 2^158498 bytes for 16 atoms"),
    (["export", "--format", "dot", "--root", "0", "--radius", "100000", "--out", "{tmp}/x.dot"],
     "ball codes at radius 100000 need at least 2^158501 bytes for 1 atom"),
    (["construct", "corefree", "--word", "s2^99999999", "--epsilon", "1/2"],
     "word of 99999999 letters needs 799999992 bytes"),
    (["sweep", "--epsilon", "1/2", "--samples", "1", "--property", "corefree(s2^99999999)",
      "--seed", "0"],
     "word of 99999999 letters needs 799999992 bytes"),
], ids=["irs", "dot", "corefree", "sweep"])
def test_huge_radii_and_powers_exit_2_at_once(tmp_path, argv, message):
    """Their byte counts are refused by size alone: no ball is summed term by
    term, no byte count is printed past the int-to-str limit, and no power is
    expanded into a list of letters."""
    hom = gen_hom(tmp_path, log2=4, seed=1)
    proc = subprocess.run(
        [sys.executable, "-m", "irslab.cli", *(a.format(tmp=tmp_path) for a in argv),
         "--hom", str(hom)],
        capture_output=True, text=True, preexec_fn=_limit_address_space, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stderr == f"error: {message}, over the budget of 268435456\n"
    assert proc.stdout == ""
    assert not (tmp_path / "x.dot").exists()


@pytest.mark.parametrize("radius", [10**10, 2**64 - 1], ids=["10^10", "2^64-1"])
@pytest.mark.parametrize("argv, head, log2", [
    (["analyze", "irs"], "trace rows at radius {radius} need at least 2^{need} bytes for 16 atoms", 1),
    (["analyze", "stability", "--other", "{hom}"],
     "ball codes at radius {radius} need at least 2^{need} bytes for 16 atoms", 5),
    (["export", "--format", "csv", "--out", "{tmp}/x.csv"],
     "trace rows at radius {radius} need at least 2^{need} bytes for 16 atoms", 1),
    (["export", "--format", "dot", "--root", "0", "--out", "{tmp}/x.dot"],
     "ball codes at radius {radius} need at least 2^{need} bytes for 1 atom", 1),
], ids=["irs", "stability", "csv", "dot"])
def test_radii_within_64_bits_exit_2_before_the_ball_is_sized(tmp_path, argv, head, log2, radius):
    """|B(R)| >= 3^R >= 2^R at rank 2: a radius this large is refused from that
    exponent (2^(R + log2) bytes) before the power 3^R, gigabytes long, is built."""
    hom = gen_hom(tmp_path, log2=4, seed=1)
    proc = subprocess.run(
        [sys.executable, "-m", "irslab.cli", *(a.format(tmp=tmp_path, hom=hom) for a in argv),
         "--radius", str(radius), "--hom", str(hom)],
        capture_output=True, text=True, preexec_fn=_limit_address_space, timeout=60,
    )
    assert proc.returncode == 2
    message = head.format(radius=radius, need=radius + log2)
    assert proc.stderr == f"error: {message}, over the budget of 268435456\n"
    assert proc.stdout == ""
    assert not any(tmp_path.glob("x.*"))


NINES = "9" * 5000  # past Python's int-to-str limit of 4300 digits


@pytest.mark.parametrize("argv, message", [
    (["construct", "corefree", "--word", f"s2^{NINES}", "--epsilon", "1/2"],
     "power at least 2^16609 does not fit 64 bits"),
    (["construct", "corefree", "--word", f"s2^-{NINES}", "--epsilon", "1/2"],
     "power at most -2^16609 does not fit 64 bits"),
    (["construct", "corefree", "--word", f"s{NINES}", "--epsilon", "1/2"],
     "generator index at least 2^16609 does not fit 64 bits"),
    (["sweep", "--epsilon", "1/2", "--samples", "1", "--property", f"realizes(2, 1 0, {NINES})",
      "--seed", "0"],
     "integer at least 2^16609 does not fit 64 bits"),
    (["sweep", "--epsilon", "1/2", "--samples", "1", "--property", f"folner({NINES}, 2)",
      "--seed", "0"],
     "integer at least 2^16609 does not fit 64 bits"),
    (["sweep", "--epsilon", "1/2", "--samples", "1", "--property", f"corefree(s1 s2^{NINES})",
      "--seed", "0"],
     "power at least 2^16609 does not fit 64 bits"),
], ids=["power", "negative power", "index", "realizes radius", "folner l", "sweep word"])
def test_huge_integers_in_words_and_properties_exit_2_with_one_line(tmp_path, capsys, argv, message):
    hom = gen_hom(tmp_path, log2=4, seed=1)
    assert main([*argv, "--hom", str(hom)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


@pytest.mark.parametrize("argv, message", [
    (["sweep", "--epsilon", f"{NINES}/1", "--samples", "1", "--property", "periodic(1)", "--seed", "0"],
     "fraction numerator at least 2^16609"),
    (["construct", "ht", "--m", "2", "--tau", "1 0", "--epsilon", f"1/{NINES}"],
     "fraction denominator at least 2^16609"),
    (["construct", "ht", "--m", "2", "--tau", "1 0", "--epsilon", f"1/{NINES[:4000]}"],
     "fraction denominator at least 2^13287"),
], ids=["sweep numerator", "ht denominator", "4000 digits"])
def test_fractions_past_64_bits_exit_2_with_one_line(tmp_path, capsys, argv, message):
    hom = gen_hom(tmp_path, log2=4, seed=1)
    assert main([*argv, "--hom", str(hom)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message} does not fit 64 bits\n"
    assert captured.out == ""


def test_huge_class_size_exits_2_with_the_atom_count_refusal(tmp_path, capsys):
    """A size past 64 bits is refused as it is read; one within them by the atom count."""
    for size, message in ((NINES, "integer at least 2^16609 does not fit 64 bits"),
                          (str(2**64 - 1), "at least 2^64 atoms need at least 2^67 bytes, "
                                           "over the budget of 268435456")):
        assert main(["gen", "space", "--classes", f"4 {size}", "--out", str(tmp_path / "s.json")]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""
        assert not (tmp_path / "s.json").exists()


@pytest.mark.parametrize("argv, message", [
    (["analyze", "realize", "--m", "2", "--radius", "3", "--tau", f"1 {NINES}"],
     "integer at least 2^16609 does not fit 64 bits"),
    (["construct", "ht", "--m", "2", "--epsilon", "1/2", "--tau", f"1 {NINES}", "--out", "{tmp}/o.json"],
     "integer at least 2^16609 does not fit 64 bits"),
    (["construct", "splice", "--atoms", f"1 {NINES}", "--tau", "{hom}", "--out", "{tmp}/o.json"],
     "integer at least 2^16609 does not fit 64 bits"),
    (["construct", "folner", "--epsilon", "1/2", "--sizes", f"1 {NINES}", "--out", "{tmp}/o.json"],
     "integer at least 2^16609 does not fit 64 bits"),
    (["analyze", "realize", "--m", "2", "--radius", "3", "--tau", "1 -"], "bad integer token '-'"),
], ids=["realize tau", "ht tau", "splice atoms", "folner sizes", "bare sign"])
def test_huge_integer_lists_exit_2_with_one_line(tmp_path, capsys, argv, message):
    hom = gen_hom(tmp_path, log2=4, seed=1)
    assert main([*(a.format(tmp=tmp_path, hom=hom) for a in argv), "--hom", str(hom)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""
    assert not (tmp_path / "o.json").exists()


@pytest.mark.parametrize("argv, message", [
    (["sweep", "--epsilon", "1/2", "--samples", "1", "--seed", "0", "--property", "folner(1_0, 2)"],
     "bad integer token '1_0'"),
    (["sweep", "--epsilon", "1/2", "--samples", "1", "--seed", "0", "--property", "folner(٣, 2)"],
     "bad integer token '٣'"),
    (["sweep", "--epsilon", "1/2", "--samples", "1", "--seed", "0", "--property", "periodic(+1)"],
     "bad integer token '+1'"),
    (["sweep", "--epsilon", "١/2", "--samples", "1", "--seed", "0", "--property", "periodic(1)"],
     "expected a rational like '2/3', got '١/2'"),
    (["construct", "corefree", "--word", "s٢", "--epsilon", "1/2"], "bad letter token 's٢'"),
    (["construct", "corefree", "--word", "s2^٣", "--epsilon", "1/2"], "bad letter token 's2^٣'"),
    (["analyze", "realize", "--m", "2", "--radius", "3", "--tau", "1_0 0"], "bad integer token '1_0'"),
    (["analyze", "realize", "--m", "2", "--radius", "3", "--tau", "١ 0"], "bad integer token '١'"),
], ids=["underscore", "arabic-indic", "plus", "fraction", "word index", "word power", "tau underscore",
        "tau arabic-indic"])
def test_integer_tokens_take_ascii_digits_only(tmp_path, capsys, argv, message):
    """Python's int() reads `1_0` as 10, `+1` as 1 and other Unicode digits as
    their values; every integer token of the lab's own grammar is refused instead."""
    hom = gen_hom(tmp_path, log2=4, seed=1)
    assert main([*argv, "--hom", str(hom)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


@pytest.mark.parametrize("argv, token", [
    (["analyze", "folner", "--root", "0", "--l", "2", "--radius", "1_0"], "1_0"),
    (["sweep", "--epsilon", "1/2", "--samples", "٣", "--seed", "0", "--property", "periodic(1)"], "٣"),
    (["sweep", "--epsilon", "1/2", "--samples", "1", "--seed", "+3", "--property", "periodic(1)"], "+3"),
    (["analyze", "degree", "--root", " 7", "--k-max", "2"], " 7"),
], ids=["underscore", "arabic-indic", "plus", "space"])
def test_integer_options_take_ascii_digits_only(tmp_path, capsys, argv, token):
    """argparse's `type=int` would read each of these tokens as a number."""
    hom = gen_hom(tmp_path, log2=4, seed=1)
    assert main([*argv, "--hom", str(hom)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: argument --")
    assert captured.err.endswith(f": bad integer token {token!r}\n") and captured.err.count("\n") == 1
    assert captured.out == ""



@pytest.mark.parametrize("argv, message", [
    (["analyze", "irs", "--radius", NINES], "argument --radius: value at least 2^16609"),
    (["analyze", "stability", "--other", "{hom}", "--radius", NINES],
     "argument --radius: value at least 2^16609"),
    (["analyze", "folner", "--root", "0", "--l", "2", "--radius", f"-{NINES}"],
     "argument --radius: value at most -2^16609"),
    (["export", "--format", "dot", "--root", "0", "--radius", NINES, "--out", "{tmp}/x.dot"],
     "argument --radius: value at least 2^16609"),
    (["analyze", "folner", "--root", NINES, "--l", "2", "--radius", "1"],
     "argument --root: value at least 2^16609"),
    (["analyze", "degree", "--root", f"-{NINES}", "--k-max", "2"],
     "argument --root: value at most -2^16609"),
    (["sweep", "--epsilon", "1/2", "--samples", NINES, "--seed", "0", "--property", "periodic(1)"],
     "argument --samples: value at least 2^16609"),
    (["analyze", "folner", "--root", "0", "--l", "18446744073709551616", "--radius", "1"],
     "argument --l: value at least 2^64"),
], ids=["irs radius", "stability radius", "folner radius", "dot radius", "folner root", "degree root",
        "samples", "2^64"])
def test_integer_options_past_64_bits_exit_2_with_one_line(tmp_path, capsys, argv, message):
    """A 5000-digit option is read by `words.read_int` and refused in the form
    `space._count` gives, never printed digit by digit."""
    hom = gen_hom(tmp_path, log2=4, seed=1)
    assert main([*(a.format(tmp=tmp_path, hom=hom) for a in argv), "--hom", str(hom)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message} does not fit 64 bits\n"
    assert captured.out == ""
    assert not (tmp_path / "x.dot").exists()


def test_integer_options_within_64_bits_are_read_exactly(tmp_path, capsys):
    hom = gen_hom(tmp_path, log2=4, seed=1)
    seed = "18446744073709551615"  # 2^64 - 1: 20 digits, each one kept
    assert main(["gen", "hom", "--rank", "2", "--seed", seed, "--log2", "3"]) == 0
    assert json.loads(capsys.readouterr().out)["inputs"]["seed"] == 2 ** 64 - 1
    assert main(["analyze", "folner", "--hom", str(hom), "--root", "0", "--l", seed, "--radius", "1"]) == 1
    assert json.loads(capsys.readouterr().out)["inputs"]["l"] == 2 ** 64 - 1
    assert cli._int_option("-0009") == -9 and cli._int_option("12345678901234567890") == 12345678901234567890

def test_every_integer_option_reads_the_ascii_integer_rule():
    def actions(parser):
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                for sub in action.choices.values():
                    yield from actions(sub)
            else:
                yield action

    types = [a.type for a in actions(build_parser())]
    assert int not in types and cli._int_option in types


def _limit_address_space_to_1_gib():
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


@pytest.mark.parametrize("sub", ["space", "hom"])
def test_huge_log2_is_refused_before_2_to_the_log2_is_computed(sub):
    """2^(10^11) is a 12.5 GB integer: under a 1 GiB address-space limit the
    refusal must come from log2 alone."""
    seeded = ("--rank", "2", "--seed", "1") if sub == "hom" else ()
    proc = subprocess.run(
        [sys.executable, "-m", "irslab.cli", "gen", sub, *seeded, "--log2", "100000000000"],
        capture_output=True, text=True, preexec_fn=_limit_address_space_to_1_gib, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stderr == ("error: at least 2^100000000000 atoms need at least 2^100000000003 bytes, "
                           "over the budget of 268435456\n")
    assert proc.stdout == ""


@pytest.mark.parametrize("log2", [64, 65, 20000])
def test_a_huge_log2_is_refused_as_the_space_refuses_its_atom_count(log2):
    with pytest.raises(ValueError) as by_space:
        FiniteSpace.single_class(2 ** log2)
    with pytest.raises(ValueError) as by_log2:
        cli._log2_atoms(log2)
    assert str(by_log2.value) == str(by_space.value)


@pytest.mark.parametrize("levels", [2**40, 10**20], ids=["2^40", "10^20"])
def test_huge_filtration_levels_exit_2_before_the_top_block_size_is_computed(tmp_path, levels):
    """2^(2^40) is a 128 GiB integer: under a 1 GiB address-space limit a space
    document claiming that many levels must be refused from the count alone."""
    hom, space = gen_hom(tmp_path, log2=4), tmp_path / "sp.json"
    assert run(tmp_path, "gen", "space", "--log2", "4", "--out", str(space))[0] == 0
    space.write_text(json.dumps({**json.loads(space.read_text()), "filtration_log2_levels": levels}))
    proc = subprocess.run(
        [sys.executable, "-m", "irslab.cli", "analyze", "index", "--hom", str(hom), "--space", str(space)],
        capture_output=True, text=True, preexec_fn=_limit_address_space_to_1_gib, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stderr == "error: atom count must be divisible by the top block size\n"
    assert proc.stdout == ""


def test_an_abbreviated_option_is_refused(tmp_path, capsys):
    hom = gen_hom(tmp_path, log2=4, seed=1)
    out = tmp_path / "h.csv"
    assert main(["export", "--hom", str(hom), "--format", "csv", "--out", str(out), "--rad", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: unrecognized arguments: --rad 2\n"
    assert captured.out == "" and not out.exists()


def test_tower_levels_past_the_budget_exit_2_before_allocating(tmp_path):
    """20000 levels of 2^14 atoms are 2.4 GiB of int64: under a 1 GiB address-space
    limit `analyze realize` must refuse them from their size alone."""
    hom = gen_hom(tmp_path, log2=14, seed=1)
    tau = " ".join(map(str, [1, 0, *range(2, 20000)]))
    proc = subprocess.run(
        [sys.executable, "-m", "irslab.cli", "analyze", "realize", "--hom", str(hom), "--m", "20000",
         "--tau", tau, "--radius", "1"],
        capture_output=True, text=True, preexec_fn=_limit_address_space_to_1_gib, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stderr == ("error: tower levels of height 20000 need 2621440000 bytes, "
                           "over the budget of 268435456\n")
    assert proc.stdout == ""


@pytest.mark.parametrize("argv", [
    ["construct", "ht", "--m", "2", "--tau", "1 0", "--epsilon", f"{NINES}x"],
    ["construct", "ht", "--m", "2", "--tau", "1 0", "--epsilon", "1/" + "0" * 5000],
    ["construct", "corefree", "--epsilon", "1/2", "--word", f"s{NINES}x"],
    ["sweep", "--epsilon", "1/2", "--samples", "1", "--seed", "0", "--property", NINES],
    ["sweep", "--epsilon", "1/2", "--samples", "1", "--seed", "0", "--property", f"x{NINES}(1)"],
    ["gen", "space", "--classes", f"4 4x{NINES}"],
    ["analyze", "folner", "--root", "0", "--l", "2", "--radius", f"{NINES}x"],
    ["analyze", "folner", "--root", "0", "--l", "2", "--radius", "1", "--r=" + "x" * 5000],
    ["analyze", "x" * 5000],
    ["analyze", "index", "x" * 5000],
    ["analyze", "index", "--hom", "x" * 5000],
    ["gen", "hom", "--rank", "2", "--seed", "1", "--model", "x" * 5000],
], ids=["epsilon", "zero denominator", "letter", "property", "property name", "classes", "option",
        "abbreviated option", "subcommand", "extra argument", "file name", "choice"])
def test_refusals_quote_a_short_prefix_of_their_input(tmp_path, capsys, argv):
    hom = gen_hom(tmp_path, log2=4, seed=1)
    assert main([*argv, *([] if argv[0] == "gen" or "--hom" in argv else ["--hom", str(hom)])]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    # the cut input ends the line, or comes just before argparse's list of choices
    assert re.search(r"\.\.\.( \(choose from [^()]*\))?\n\Z", captured.err) and len(captured.err.encode()) <= 200
    assert captured.out == ""


@pytest.mark.parametrize("prop", [
    "folner(9999999999999999999, 2)",
    "folner(18446744073709551615, 2)",
    "realizes(2, 1 0, 18446744073709551615)",
], ids=["19 digits", "20 digits", "20-digit radius"])
def test_property_integers_within_64_bits_are_accepted(tmp_path, capsys, prop):
    hom = gen_hom(tmp_path, log2=4, seed=1)
    assert main(["sweep", "--hom", str(hom), "--epsilon", "1/2", "--samples", "1", "--seed", "0",
                 "--property", prop]) == 0
    assert json.loads(capsys.readouterr().out)["inputs"]["property"] == prop.replace(", ", ",")


# option values for the grammar fuzz test, (valid, adversarial) by kind: the
# adversarial ones are integers past 64 bits, negative, in non-ASCII digits or
# in forms Python's int() reads, floats, empty text, missing files, a folder
# and documents of the wrong kind
ADVERSARIAL_INTEGERS = ["-1", "18446744073709551616", "-" + "9" * 30, "٣", "1_0", "+3", "1.5", "", " 7"]
FUZZ_POOLS = {
    "integer": (["0", "1", "2", "3"], ADVERSARIAL_INTEGERS),
    "list": (["1 0", "0,1", "4,4,8"], ADVERSARIAL_INTEGERS),
    "epsilon": (["1/2", "3/5", "1"], [*ADVERSARIAL_INTEGERS, "1/0", "1/2/3"]),
    "word": (["s1 s2", "s2^-1", "s2"], ["s0", "s1^", "t1", "s1^1_0", "s٢"]),
    "property": (["corefree(s2)", "folner(2, 1)", "periodic(1)", "realizes(2, 1 0, 4)"],
                 ["folner(2)", "nope(1)", "folner(1_0, 2)", "periodic(18446744073709551616)", ""]),
    "hom": (["{dir}/h.json", "{dir}/lean.json"],
            ["{dir}/space.json", "{dir}/notes.txt", "{dir}/missing.json", "{dir}"]),
    "space": (["{dir}/space.json"], ["{dir}/h.json", "{dir}/notes.txt", "{dir}/missing.json", "{dir}"]),
    "output": (["{dir}/o.out"], ["{dir}", "{dir}/missing/o.out"]),
}


def _fuzz_kind(action) -> str:
    """The pool an option draws from, read from its type, destination and help."""
    text = action.help or ""
    if action.type is cli._int_option:
        return "integer"
    if action.dest in ("out", "csv", "report"):
        return "output"
    if "JSON" in text:
        return "space" if "space" in text else "hom"
    return action.dest if action.dest in FUZZ_POOLS else "list"


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    """Documents on 2^4 atoms: a space, a random hom on it, a lean hom, and a text file."""
    path = tmp_path_factory.mktemp("fuzz")
    (path / "notes.txt").write_text("not a document\n")
    for argv in (["gen", "space", "--log2", "4", "--out", "space.json"],
                 ["gen", "hom", "--model", "random", "--rank", "2", "--seed", "3", "--space", "space.json",
                  "--out", "h.json"],
                 ["gen", "hom", "--rank", "2", "--seed", "1", "--log2", "4", "--out", "lean.json"]):
        assert main(["--report", str(path / "r.json"), *(str(path / a) if a.endswith(".json") else a
                                                         for a in argv)]) == 0
    return path


def _fuzz_argv(data, parser, folder) -> list[str]:
    """An argv drawn from the parser's own option table, depth first."""
    argv = []
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            name = data.draw(st.sampled_from(sorted(action.choices)))
            argv += [name, *_fuzz_argv(data, action.choices[name], folder)]
        elif action.option_strings and action.dest != "help":
            if data.draw(st.integers(0, 19)) >= (19 if action.required else 10):
                continue  # a required option is left out now and then, too
            valid, adversarial = FUZZ_POOLS[_fuzz_kind(action)]
            pool = action.choices or (adversarial if data.draw(st.integers(0, 5)) == 0 else valid)
            argv += [action.option_strings[0], data.draw(st.sampled_from(pool)).format(dir=folder)]
    return argv


def _hang(signum, frame):
    pytest.fail("a fuzz case ran past its alarm")  # a BaseException, which main does not catch


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_every_drawn_command_line_exits_0_1_or_2_with_one_error_line(fuzz_dir, capsys, data):
    argv = _fuzz_argv(data, build_parser(), fuzz_dir)
    previous = signal.signal(signal.SIGALRM, _hang)
    signal.alarm(10)
    try:
        code = main(argv)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    captured = capsys.readouterr()
    assert code in (0, 1, 2), (argv, captured.err)
    if code == 2:
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1, (argv, captured.err)
    else:
        assert captured.err == "", (argv, captured.err)

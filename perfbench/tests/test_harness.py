"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench/tests -q

They run every workload at a tiny size, so they take about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import Job  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def replay():
    return run.InProcess()


def _failing_jobs():
    gen = Job("gen", ("gen", "hom", "--log2", "4", "--rank", "2", "--seed", "1", "--out", "hom.json"),
              workloads._wrote("hom.json"))
    return [
        gen,
        Job("exit-2", ("analyze", "index", "--hom", "missing.json"), workloads._weights_sum_one),
        # s1 is one full 16-cycle, so s1^16 acts trivially and the report does not pass
        Job("not-passed", ("analyze", "core", "--hom", "hom.json", "--word", "s1^16"),
            lambda outputs, cwd: None),
        Job("check-fails", gen.argv, workloads._wrote("other.json")),
        Job("digest-differs", gen.argv, workloads._wrote("hom.json")),
    ]


@pytest.mark.parametrize("mode", ["subprocess", "in-process"])
def test_failed_jobs_are_counted(tmp_path, mode, request):
    execute = run.spawn if mode == "subprocess" else request.getfixturevalue("replay")
    results = run.run_pass(_failing_jobs(), tmp_path, {"digest-differs": "0" * 16}, execute)
    counted = run.tally(results)
    assert [r.label for r in results if r.problem] == [
        "exit-2", "not-passed", "check-fails", "digest-differs"]
    assert counted["attempted"] == 5 and counted["failed"] == 4
    assert counted["failed_ratio"] == pytest.approx(4 / 5)


def test_parent_self_time_excludes_wrapped_child():
    tracer = tracing.Tracer()
    child = tracer.wrap("child", lambda: time.sleep(0.05))
    parent = tracer.wrap("parent", lambda: (time.sleep(0.02), child()))
    parent()
    assert tracer.inclusive["parent"] >= 0.07
    assert tracer.self_time["parent"] == pytest.approx(
        tracer.inclusive["parent"] - tracer.inclusive["child"])
    assert tracer.self_time["parent"] < 0.05
    (child_span, parent_span) = tracer.spans[1], tracer.spans[0]
    assert child_span[0] == "child" and child_span[3] == 0 and parent_span[3] == -1


def test_tracer_patches_every_binding_and_restores(replay):
    import irslab.actions
    import irslab.analysis
    import irslab.fullgroup

    orbit = irslab.actions.orbit
    mul = irslab.fullgroup.FullGroupElement.__mul__
    tracer = tracing.Tracer()
    with tracer.installed():
        assert irslab.analysis.orbit is irslab.actions.orbit is not orbit
        assert irslab.fullgroup.FullGroupElement.__mul__ is not mul
    assert irslab.analysis.orbit is orbit and irslab.actions.orbit is orbit
    assert irslab.fullgroup.FullGroupElement.__mul__ is mul


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_completes_at_tiny_size(name, trace):
    record = run.run(name, seed=3, seconds=0, trace=bool(trace), tiny=True)
    assert record["failed"] == 0, record["failures"]
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: unit for k, (_, unit) in record["metrics"].items()} == declared


def test_workloads_match_the_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "realize", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout

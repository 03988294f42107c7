"""irslab benchmark: times the README's CLI end to end and layer by layer.

    python3 perfbench/run.py --workload realize --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout; the package does not need to be
installed.  Every job runs the checkout's `src/irslab` (first on
PYTHONPATH) with IRSLAB_WORKERS=1, so the parallel sweep path is not
measured.  Inputs are generated from --seed in a fresh directory under
perfbench/out/, which also receives one results file per run.

--trace 0: a closed loop with one client runs the workload's CLI jobs as
subprocesses, one after another, for --seconds, and reports per-pass
medians of the end-to-end metrics.
--trace 1: the same argv are replayed in-process through irslab.cli.main,
alternating untraced passes with passes whose layer functions carry timing
spans, and the per-layer metrics are reported.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from statistics import median

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
DIGESTS = ROOT / "perfbench" / "digests.json"
STARTUP_REPS = 5
JOB_TIMEOUT_S = 150
FAMILIES = ("construct", "analyze", "sweep", "export")


class BenchError(Exception):
    """The checkout cannot be benchmarked; reported with exit code 2."""


@dataclass
class JobResult:
    label: str
    family: str
    wall_s: float
    rss_mb: float | None
    cpu_s: float | None
    digest: str | None
    problem: str | None


def job_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    env["IRSLAB_WORKERS"] = "1"
    return env


def digest(outputs: dict) -> str:
    text = json.dumps(outputs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# -- running one job -------------------------------------------------------------


def cli_argv(job: workloads.Job) -> list[str]:
    return ["--report", f"{job.label}.report.json", *job.argv]


def spawn(job: workloads.Job, cwd: Path) -> tuple[int, float, float, float]:
    """Run the job as `python -m irslab.cli`; returns exit code, wall seconds,
    and the child's own peak RSS in MiB and CPU seconds (from wait4, not
    RUSAGE_CHILDREN, which is a running maximum over all children)."""
    with open(cwd / f"{job.label}.stderr", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "irslab.cli", *cli_argv(job)],
            cwd=cwd, env=job_env(), stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err,
        )
        timer = threading.Timer(JOB_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024, usage.ru_utime + usage.ru_stime


def judge(job: workloads.Job, rc: int, cwd: Path, expected: str | None) -> tuple[str | None, str | None]:
    """Digest of the job's report outputs, and what is wrong with the job (or None)."""
    if rc != 0:
        err = cwd / f"{job.label}.stderr"
        tail = err.read_text(errors="replace").strip().splitlines()[-1:] if err.exists() else []
        return None, " ".join([f"exit {rc}", *tail])
    try:
        report = json.loads((cwd / f"{job.label}.report.json").read_text())
        got = digest(report["outputs"])
        if not report["passed"]:
            failed = [c["name"] for c in report["checks"] if not c["passed"]]
            return got, f"report not passed: {failed}"
        problem = job.check(report["outputs"], cwd)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return None, f"report unreadable or incomplete: {exc!r}"
    if problem is None and expected is not None and got != expected:
        problem = f"outputs digest {got} != recorded {expected}"
    return got, problem


def run_job(job: workloads.Job, cwd: Path, expected: str | None, execute) -> JobResult:
    rc, wall, rss, cpu = execute(job, cwd)
    got, problem = judge(job, rc, cwd, expected)
    return JobResult(job.label, job.family, wall, rss, cpu, got, problem)


def run_pass(jobs, cwd: Path, expected: dict[str, str], execute) -> list[JobResult]:
    """Run the jobs one after another in a fresh directory `cwd`."""
    shutil.rmtree(cwd, ignore_errors=True)
    cwd.mkdir(parents=True)
    return [run_job(job, cwd, expected.get(job.label), execute) for job in jobs]


class InProcess:
    """Runs jobs through irslab.cli.main in this interpreter, optionally traced."""

    def __init__(self):
        sys.path.insert(0, str(SRC))
        os.environ["IRSLAB_WORKERS"] = "1"
        import irslab.cli
        import irslab.words

        check_package(Path(irslab.__file__))
        self.cli = irslab.cli
        # each subprocess job starts with an empty ball cache; so does each replayed job
        self.clear_ball_cache = irslab.words.ball.cache_clear
        self.tracer: tracing.Tracer | None = None

    def __call__(self, job: workloads.Job, cwd: Path) -> tuple[int, float, None, None]:
        if self.tracer is not None:
            self.tracer.job = job.label
        self.clear_ball_cache()
        home = os.getcwd()
        os.chdir(cwd)
        start = time.perf_counter()
        try:
            rc = self.cli.main(cli_argv(job))
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a library invariant broke; the subprocess would exit 1
            (cwd / f"{job.label}.stderr").write_text(traceback.format_exc())
            rc = 1
        finally:
            wall = time.perf_counter() - start
            os.chdir(home)
        return rc, wall, None, None


# -- checkout checks and environment record ---------------------------------------


def check_package(path: Path) -> None:
    if not path.resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"irslab imported from {path}, not from {SRC}")


def probe() -> dict:
    """Check that jobs import this checkout's irslab; return the environment record."""
    if not (SRC / "irslab" / "__init__.py").is_file():
        raise BenchError(f"no irslab package under {SRC}; run from the root of a source checkout")
    code = "import json, irslab, numpy; print(json.dumps([irslab.__file__, numpy.__version__]))"
    done = subprocess.run(
        [sys.executable, "-c", code], env=job_env(), cwd=ROOT, capture_output=True, text=True
    )
    if done.returncode != 0:
        raise BenchError(f"cannot import irslab: {done.stderr.strip()}")
    package_file, numpy_version = json.loads(done.stdout)
    check_package(Path(package_file))
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "cpu_count": os.cpu_count(),
        "git_commit": git_commit(),
        "src_irslab_lines": sum(
            len(p.read_bytes().splitlines()) for p in sorted((SRC / "irslab").glob("*.py"))
        ),
    }


def git_commit() -> str | None:
    """HEAD of the checkout, or None when the checkout is not its own git repository."""
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
    except OSError:
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


# -- the two modes ----------------------------------------------------------------


def run_setup(wl: workloads.Workload, work: Path, expected, first: list[JobResult]) -> list[JobResult]:
    """Run the set-up jobs into work/setup.  Every repetition must write the
    same documents as the `first` one (pass [] for the first itself)."""
    rep = run_pass(wl.setup, work / "setup", expected, spawn)
    for r, r0 in zip(rep, first):
        if r.problem is None and r.digest != r0.digest:
            r.problem = "set-up outputs differ between repetitions"
    return rep


def measure_e2e(wl, work: Path, seconds: float, expected) -> tuple[dict, list]:
    """Alternate set-up repetitions with passes over the timed jobs, so that
    setup_s and wall_s both sample the whole measuring window."""
    setups = [run_setup(wl, work, expected, [])]
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        passes.append(run_pass(wl.jobs, work / "pass", expected, spawn))
        setups.append(run_setup(wl, work, expected, setups[0]))
    setup_walls = [sum(r.wall_s for r in rep) for rep in setups]
    results = [r for rep in setups + passes for r in rep]
    families = {
        f"{family}_s": median([sum(r.wall_s for r in p if r.family == family) for p in passes])
        for family in FAMILIES
        if any(j.family == family for j in wl.jobs)
    }
    pass_walls = [sum(r.wall_s for r in p) for p in passes]
    metrics = {
        "wall_s": (median(pass_walls), "s"),
        "setup_s": (median(setup_walls), "s"),
        "peak_rss_mb": (median([max(r.rss_mb for r in p) for p in passes]), "MiB"),
    }
    detail = {
        "passes": len(passes),
        "pass_wall_s": pass_walls,
        "pass_cpu_s": [sum(r.cpu_s for r in p) for p in passes],
        "setup_cpu_s": [sum(r.cpu_s for r in rep) for rep in setups],
        "setup_wall_s": setup_walls,
        "family_s": families,
        "job_wall_s": {j.label: median([p[i].wall_s for p in passes]) for i, j in enumerate(wl.jobs)},
        "job_peak_rss_mb": {j.label: median([p[i].rss_mb for p in passes]) for i, j in enumerate(wl.jobs)},
    }
    return {"metrics": metrics, "detail": detail}, results


def startup_seconds(reps: int = STARTUP_REPS) -> float:
    """Median wall time of a fresh interpreter importing irslab.cli."""
    walls = []
    for _ in range(reps):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import irslab.cli"], env=job_env(), cwd=ROOT, check=True)
        walls.append(time.perf_counter() - start)
    return median(walls)


def measure_traced(wl, work: Path, seconds: float, expected) -> tuple[dict, list]:
    results = run_setup(wl, work, expected, [])
    replay = InProcess()
    cwd = work / "pass"
    results += run_pass(wl.jobs, cwd, expected, replay)  # warm-up, not timed
    untraced, traced, tracers = [], [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        plain = run_pass(wl.jobs, cwd, expected, replay)
        replay.tracer = tracing.Tracer()
        with replay.tracer.installed():
            spanned = run_pass(wl.jobs, cwd, expected, replay)
        tracers.append(replay.tracer)
        replay.tracer = None
        untraced.append(sum(r.wall_s for r in plain))
        traced.append(sum(r.wall_s for r in spanned))
        results += plain + spanned
    per_pass = [t.metrics() for t in tracers]
    metrics = {
        name: (median([m[name][0] for m in per_pass]), unit) for name, (_, unit) in per_pass[0].items()
    }
    metrics["cli.startup_s"] = (startup_seconds(), "s")
    metrics["trace.wall_s"] = (median(traced), "s")
    metrics["trace.overhead_s"] = (median(traced) - median(untraced), "s")
    detail = {
        "passes": len(traced),
        "untraced_wall_s": untraced,
        "traced_wall_s": traced,
        "spans_fields": ["name", "start", "end", "parent", "job"],
        "spans": tracers[0].spans,
    }
    return {"metrics": metrics, "detail": detail}, results


# -- entry point --------------------------------------------------------------------


@contextmanager
def work_dir(name: str):
    """A fresh directory under perfbench/out, removed afterwards."""
    OUT.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT))
    try:
        yield work
    finally:
        shutil.rmtree(work, ignore_errors=True)


def expected_digests(name: str, seed: int) -> dict[str, str]:
    """Recorded report digests for (workload, seed), or {} if none were recorded."""
    if not DIGESTS.is_file():
        return {}
    recorded = json.loads(DIGESTS.read_text())
    return recorded["workloads"].get(name, {}) if recorded["seed"] == seed else {}


def run(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """One benchmark run; returns the results record."""
    env = probe()
    wl = workloads.build(name, seed, tiny)
    expected = {} if tiny else expected_digests(name, seed)
    measure = measure_traced if trace else measure_e2e
    with work_dir(name) as work:
        record, results = measure(wl, work, seconds, expected)
    record.update(
        workload=name, seed=seed, seconds=seconds, trace=int(trace), tiny=tiny, environment=env,
        rationale={"why": wl.why, "loads": wl.loads, "bypasses": wl.bypasses},
        **tally(results),
    )
    return record


def tally(results: list[JobResult]) -> dict:
    """Jobs attempted and failed; a job fails on a non-zero exit, a report
    that did not pass, a failed output check or a digest mismatch."""
    failures = [f"{r.label}: {r.problem}" for r in results if r.problem]
    return {
        "attempted": len(results),
        "failed": len(failures),
        "failures": failures,
        "failed_ratio": len(failures) / len(results),
    }


def summary(record: dict) -> list[str]:
    env = record["environment"]
    lines = [
        f"workload {record['workload']} seed {record['seed']} trace {record['trace']}: "
        f"{record['detail']['passes']} passes in {record['seconds']} s",
        f"  python {env['python']}, numpy {env['numpy']}, {env['cpu_count']} CPUs, "
        f"commit {env['git_commit']}, src/irslab {env['src_irslab_lines']} lines",
    ]
    shown = dict(record["metrics"])
    if not record["trace"]:
        shown.update({k: (v, "s") for k, v in record["detail"]["family_s"].items()})
    shown["failed_ratio"] = (record["failed_ratio"], "ratio")
    lines += [f"  {name} = {value:.6g} {unit}" for name, (value, unit) in shown.items()
              if not (record["trace"] and value == 0)]
    lines += [f"  FAILED {f}" for f in record["failures"]]
    return lines


def write_digests(seed: int = 0) -> None:
    """Record the report digests of every job of every workload at `seed`."""
    env = probe()
    recorded = {"seed": seed, "environment": env, "workloads": {}}
    for name in workloads.WORKLOADS:
        with work_dir(name) as work:
            _, results = measure_e2e(workloads.build(name, seed), work, 0, {})
        failures = tally(results)["failures"]
        if failures:
            raise BenchError(f"{name} failed, digests not written: {failures}")
        recorded["workloads"][name] = {r.label: r.digest for r in results}
    DIGESTS.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-digests", action="store_true",
                        help="record report digests of every workload at --seed and exit")
    args = parser.parse_args(argv)
    try:
        if args.write_digests:
            write_digests(args.seed)
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    results = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    results.write_text(json.dumps(record))
    print("\n".join(summary(record)))
    print(f"  results: {results.relative_to(ROOT)}")
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in record["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

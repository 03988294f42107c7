"""Workload definitions: the irslab CLI jobs each workload runs, and the
output checks each job's report must pass.

A workload is a list of set-up jobs (`gen space` / `gen hom`, which write
the input documents) and a list of timed jobs.  All file arguments are
relative: set-up jobs run inside a directory named `setup`, timed jobs in a
sibling directory, so reports never contain temporary directory names and
their `outputs` can be compared by digest across machines.

Every input comes from the benchmark seed through `derive_seeds`; the
program itself only ever sees the generated documents and the CLI
arguments below.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from pathlib import Path
from typing import Callable

# A check gets the report's `outputs` and the job's working directory and
# returns a description of what is wrong, or None.
Check = Callable[[dict, Path], "str | None"]

SETUP = "../setup/"


@dataclass(frozen=True)
class Job:
    label: str
    argv: tuple[str, ...]
    check: Check

    @property
    def family(self) -> str:
        """CLI command family: gen, construct, analyze, sweep or export."""
        return self.argv[0]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    loads: str
    bypasses: str
    setup: tuple[Job, ...]
    jobs: tuple[Job, ...]


# -- output checks -------------------------------------------------------------


def _wrote(name: str) -> Check:
    def check(outputs: dict, cwd: Path) -> str | None:
        return None if (cwd / name).is_file() else f"{name} was not written"

    return check


def _realized(outputs: dict, cwd: Path) -> str | None:
    return None if outputs["fraction"] == "1/1" else f"realize fraction {outputs['fraction']} != 1/1"


def _defect_zero(outputs: dict, cwd: Path) -> str | None:
    return None if outputs["defect"] == "0/1" else f"irs defect {outputs['defect']} != 0/1"


def _within_bound(outputs: dict, cwd: Path) -> str | None:
    observed, bound = Fraction(outputs["observed"]), Fraction(outputs["bound"])
    return None if observed <= bound else f"stability observed {observed} > bound {bound}"


def _weights_sum_one(outputs: dict, cwd: Path) -> str | None:
    total = sum((Fraction(w) for w in outputs["distribution"].values()), Fraction(0))
    return None if total == 1 else f"index weights sum to {total}"


def _sweep_fraction(samples: int) -> Check:
    def check(outputs: dict, cwd: Path) -> str | None:
        p, q = (int(t) for t in outputs["fraction"].split("/"))
        if gcd(p, q) != 1 or samples % q or not 0 <= p <= q:
            return f"sweep fraction {p}/{q} is not k/{samples} in lowest terms"
        return None

    return check


def _closer_than(epsilon: str, out: str) -> Check:
    def check(outputs: dict, cwd: Path) -> str | None:
        if Fraction(outputs["distance"]) >= Fraction(epsilon):
            return f"distance {outputs['distance']} >= {epsilon}"
        return _wrote(out)(outputs, cwd)

    return check


def _export_size(out: str) -> Check:
    def check(outputs: dict, cwd: Path) -> str | None:
        path = cwd / out
        if not path.is_file() or path.stat().st_size != outputs["bytes"]:
            return f"{out} does not hold the {outputs['bytes']} bytes reported"
        return None

    return check


# -- workloads -----------------------------------------------------------------


def derive_seeds(name: str, seed: int, count: int = 2) -> list[int]:
    """`count` program seeds (for `gen hom` and `sweep`) of one workload run."""
    rng = random.Random(f"{name}:{seed}")
    return [rng.randrange(1 << 30) for _ in range(count)]


def _gen_hom(log2: int, model: str, seed: int, out: str = "hom.json", space: str | None = None) -> Job:
    argv = ("gen", "hom", "--log2", str(log2), "--rank", "2", "--seed", str(seed))
    argv += ("--model", model, "--out", out)
    if space:
        argv += ("--space", space)
    return Job(f"gen-{out.removesuffix('.json')}", argv, _wrote(out))


# The realize cost of one hom varies by about 12 % (one standard deviation)
# from hom to hom, so each run sums REALIZE_HOMS independent homs to keep
# the run-to-run spread of wall_s well inside its bound.
REALIZE_HOMS = 4
REALIZE_M, REALIZE_TAU = 4, "1 0 3 2"


def _realize(seed: int, tiny: bool) -> Workload:
    log2 = 5 if tiny else 7
    setup, jobs = [], []
    for k, hom_seed in enumerate(derive_seeds("realize", seed, REALIZE_HOMS)):
        setup.append(_gen_hom(log2, "lean-aperiodic", hom_seed, out=f"hom{k}.json"))
        built = f"ht{k}.json"
        jobs.append(Job(
            f"construct-ht-{k}",
            ("construct", "ht", "--hom", f"{SETUP}hom{k}.json", "--m", str(REALIZE_M),
             "--tau", REALIZE_TAU, "--epsilon", "1/2", "--out", built),
            _closer_than("1/2", built),
        ))
        jobs.append(Job(
            f"analyze-realize-{k}",
            ("analyze", "realize", "--hom", built, "--m", str(REALIZE_M), "--tau", REALIZE_TAU,
             "--radius", str(2 << log2)),
            _realized,
        ))
    return Workload(
        "realize",
        why="ROADMAP item 1 hot spot: exact tower-permutation realization (m = 4, radius 2n), "
        "dominated by numpy set operations (np.unique, union1d, isin) in realizes_tau_fraction.",
        loads="analysis.realizes_tau_fraction (numpy set ops), constructions.build_ht_perturbation, "
        "cli start-up (each construct job is mostly interpreter and import time)",
        bypasses="orbit/cycle walks, trace codes, serialize at scale (documents are about 3 KB)",
        setup=tuple(setup),
        jobs=tuple(jobs),
    )


def _sweep(seed: int, tiny: bool) -> Workload:
    log2, samples = (8, 2) if tiny else (16, 10)
    hom_seed, sweep_seed = derive_seeds("sweep", seed)
    jobs = tuple(
        Job(
            f"sweep-{prop.split('(')[0]}",
            ("sweep", "--hom", SETUP + "hom.json", "--epsilon", "1/16", "--samples", str(samples),
             "--seed", str(sweep_seed), "--property", prop),
            _sweep_fraction(samples),
        )
        for prop in ("corefree(s2)", "folner(3,2)")
    )
    return Workload(
        "sweep",
        why="ROADMAP item 2 path: genericity sweeps on one giant orbit, dominated by the "
        "Python orbit BFS, cycle walks and the Fraction greedy loop of folner_search.",
        loads="actions.orbit/orbits (one orbit of 2^16 atoms), FullGroupElement.cycles, "
        "analysis.folner_search, core_check, sample_perturbation, constructions.splice",
        bypasses="set-op kernels, trace-code matrices, large report writes",
        setup=(_gen_hom(log2, "lean-aperiodic", hom_seed),),
        jobs=jobs,
    )


def _balls(seed: int, tiny: bool) -> Workload:
    log2, epsilon, irs_radius, radii = (8, "1/4", 2, (1, 2)) if tiny else (14, "1/64", 4, (2, 3))
    (hom_seed,) = derive_seeds("balls", seed, 1)
    jobs = [
        Job(
            "construct-corefree",
            ("construct", "corefree", "--hom", SETUP + "hom.json", "--word", "s1 s2",
             "--epsilon", epsilon, "--out", "cf.json"),
            _closer_than(epsilon, "cf.json"),
        ),
        Job("analyze-irs", ("analyze", "irs", "--hom", "cf.json", "--radius", str(irs_radius)),
            _defect_zero),
    ]
    jobs += [
        Job(
            f"analyze-stability-r{r}",
            ("analyze", "stability", "--hom", SETUP + "hom.json", "--other", "cf.json",
             "--radius", str(r)),
            _within_bound,
        )
        for r in radii
    ]
    return Workload(
        "balls",
        why="ROADMAP item 3 path: Schreier-ball stability and trace distributions, dominated by "
        "trace_code_matrix at radius 2R+1; also the write-heavy side of serialize.",
        loads="actions.trace_code_matrix (peak memory at R = 3), empirical_irs, invariance_defect "
        "(FullGroupElement.__mul__), constructions.build_corefree_perturbation, serialize writes",
        bypasses="realize set ops, sweeps, per-orbit Python walks",
        setup=(_gen_hom(log2, "lean-aperiodic", hom_seed),),
        jobs=tuple(jobs),
    )


def _classes(seed: int, tiny: bool) -> Workload:
    n_classes, samples, irs_radius, export_radius = (32, 2, 2, 2) if tiny else (8192, 10, 4, 3)
    hom_seed, sweep_seed = derive_seeds("classes", seed)
    space = SETUP + "space.json"
    gen_space = Job(
        "gen-space",
        ("gen", "space", "--classes", ",".join(["8"] * n_classes), "--out", "space.json"),
        _wrote("space.json"),
    )
    log2 = (8 * n_classes).bit_length() - 1
    on = ("--hom", SETUP + "hom.json", "--space", space)
    jobs = (
        Job("analyze-index", ("analyze", "index") + on, _weights_sum_one),
        Job(
            "sweep-corefree",
            ("sweep",) + on + ("--epsilon", "1/16", "--samples", str(samples), "--seed",
                               str(sweep_seed), "--property", "corefree(s2)"),
            _sweep_fraction(samples),
        ),
        Job(
            "analyze-irs",
            ("analyze", "irs") + on + ("--radius", str(irs_radius), "--csv", "traces.csv"),
            _defect_zero,
        ),
        Job(
            "export-csv",
            ("export",) + on + ("--format", "csv", "--radius", str(export_radius),
                                "--out", "export.csv"),
            _export_size("export.csv"),
        ),
    )
    return Workload(
        "classes",
        why="Same layers used differently: thousands of small orbits, a per-class sampling "
        "loop and tens of thousands of distinct traces, loaded with --space.",
        loads="actions.orbits (8192 orbits of 8), rng.random_full_group_element (per-class loop), "
        "empirical_irs with ~23 000 distinct traces, irs_to_csv, FiniteSpace validation",
        bypasses="lean-aperiodic constructions, realize set ops, folner_search",
        setup=(gen_space, _gen_hom(log2, "random", hom_seed, space="space.json")),
        jobs=jobs,
    )


WORKLOADS = {"realize": _realize, "sweep": _sweep, "balls": _balls, "classes": _classes}


def build(name: str, seed: int, tiny: bool = False) -> Workload:
    """The workload `name` with inputs derived from `seed`; `tiny` shrinks
    every size so the harness self-tests finish in seconds."""
    return WORKLOADS[name](seed, tiny)

"""Batch front end: generate, construct, analyze, sweep, export.

Every subcommand writes one JSON report (stdout by default, --report
for a file) containing its inputs, exact rational outputs, and a list
of named checks.  The inputs are every parsed option but --report,
--space included, so no handler can leave one out.  The exit status is
0 exactly when every check passed, 1 when one failed, 2 on bad input
and 3 on a broken internal invariant.  Rationals cross the boundary as
"p/q" text, never as floats.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import analysis, constructions
from .actions import (
    Homomorphism,
    empirical_irs,
    evaluate,
    hom_metric,
    index_distribution,
    invariance_defect,
    schreier_ball,
)
from .fullgroup import uniform_metric
from .rng import STREAM_GEN_HOM, derive_rng, lean_aperiodic_homomorphism, random_homomorphism
from .serialize import (
    dumps_canonical,
    fraction_to_text,
    hom_from_doc,
    hom_to_doc,
    irs_to_csv,
    parse_fraction,
    schreier_ball_to_dot,
    space_from_doc,
    space_to_doc,
)
from .space import FiniteSpace
from .words import _decimal, cyclic_reduce, parse_word

_INT_RE = re.compile(r"-?\d+")


def _check(name: str, passed: bool, detail: str = "") -> dict:
    return {"name": name, "passed": bool(passed), "detail": detail}


def _ints(text: str) -> list[int]:
    """Decimal tokens split at commas and spaces, read by `words._decimal`, so a
    token past Python's int-to-str limit meets the option's own refusal."""
    tokens = text.replace(",", " ").split()
    bad = next((t for t in tokens if not _INT_RE.fullmatch(t)), None)
    if bad is not None:
        raise ValueError(f"bad integer token {bad!r}")
    return [_decimal(t) for t in tokens]


def _load_space(path: str) -> FiniteSpace:
    return space_from_doc(json.loads(Path(path).read_text()))


def _load_hom(args, path: str | None = None) -> Homomorphism:
    """The hom document at path (default --hom), on the --space space if given."""
    doc = json.loads(Path(path or args.hom).read_text())
    return hom_from_doc(doc, _load_space(args.space) if args.space else None)


def _index(flag: str, value: int, size: int, what: str) -> int:
    """An index option's value, checked to lie in [0, size)."""
    if not 0 <= value < size:
        raise ValueError(f"{flag} {value} is not {what} in [0, {size})")
    return value


def _root(hom: Homomorphism, root: int) -> int:
    return _index("--root", root, hom.space.n_atoms, "an atom")


def _log2_atoms(log2: int) -> int:
    """The atom count 2^log2 of a --log2 option, which must be nonnegative."""
    if log2 < 0:
        raise ValueError("--log2 must be nonnegative")
    return 2 ** log2


def _write_artifact(path: str | None, text: str) -> None:
    if path:
        Path(path).write_text(text)


# -- subcommand handlers ----------------------------------------------------


def _cmd_gen_space(args):
    if args.classes:
        sizes = _ints(args.classes)
        space = FiniteSpace.from_class_sizes(sizes)
        if args.log2 is not None and space.n_atoms != _log2_atoms(args.log2):
            raise ValueError("--log2 contradicts the class layout total")
    elif args.log2 is not None:
        space = FiniteSpace.single_class(_log2_atoms(args.log2))
    else:
        raise ValueError("need --log2 or --classes")
    doc = space_to_doc(space)
    _write_artifact(args.out, dumps_canonical(doc))
    checks = [
        _check("classes partition the atoms", True, f"{space.class_count} classes"),
        _check(
            "filtration blocks class-constant",
            True,
            f"levels={space.filtration_levels}",
        ),
    ]
    return {"space": doc}, checks


def _cmd_gen_hom(args):
    space = _load_space(args.space) if args.space else FiniteSpace.single_class(_log2_atoms(args.log2))
    rng = derive_rng(args.seed, STREAM_GEN_HOM, 0)
    if args.model == "lean-aperiodic":
        hom = lean_aperiodic_homomorphism(space, args.rank, rng)
    else:
        hom = random_homomorphism(space, args.rank, rng)
    doc = hom_to_doc(hom)
    _write_artifact(args.out, dumps_canonical(doc))
    checks = [_check("generator images are class-preserving bijections", True)]
    if args.model == "lean-aperiodic":
        checks.append(_check("first generator is a single full cycle", hom.is_lean_aperiodic))
    return {"hom": doc}, checks


def _cmd_construct_splice(args):
    hom = _load_hom(args)
    other = _load_hom(args, args.tau) if args.tau else hom
    gen_index = _index("--gen-index", args.gen_index, hom.rank, "a generator")
    sigma = hom.gens[gen_index]
    tau = other.gens[_index("--tau-index", args.tau_index, other.rank, "a generator")]
    atoms = _ints(args.atoms) if args.atoms else []
    spliced = constructions.splice(sigma, atoms, tau)
    result = hom.replace_generator(gen_index, spliced)
    doc = hom_to_doc(result)
    _write_artifact(args.out, dumps_canonical(doc))
    agrees = all(spliced(x) == tau(x) for x in atoms)
    distance = uniform_metric(sigma, spliced)
    bound = Fraction(2 * len(set(atoms)), hom.space.n_atoms)
    checks = [
        _check("result equals tau on the spliced set", agrees),
        _check(
            "distance at most twice the set measure",
            distance <= bound,
            f"{fraction_to_text(distance)} <= {fraction_to_text(bound)}",
        ),
    ]
    outputs = {"hom": doc, "distance": fraction_to_text(distance)}
    return outputs, checks


def _cmd_construct_periodic(args):
    hom = _load_hom(args)
    result = constructions.periodic_truncate(hom, args.level)
    doc = hom_to_doc(result)
    _write_artifact(args.out, dumps_canonical(doc))
    blocks = hom.space.block_index(args.level)
    trapped = all((blocks[g.forward] == blocks).all() for g in result.gens)
    distances = []
    exact = True
    for old, new in zip(hom.gens, result.gens):
        left = int((blocks[old.forward] != blocks).sum())
        d = uniform_metric(old, new)
        distances.append(fraction_to_text(d))
        exact = exact and d == Fraction(left, hom.space.n_atoms)
    checks = [
        _check("every orbit stays inside one block", trapped),
        _check("per-generator distance equals the escaping-set measure", exact),
    ]
    return {"hom": doc, "distances": distances}, checks


def _cmd_construct_folner(args):
    hom = _load_hom(args)
    epsilon = parse_fraction(args.epsilon)
    sizes = _ints(args.sizes) if args.sizes else []
    result = constructions.build_folner_perturbation(hom, epsilon, sizes)
    doc = hom_to_doc(result)
    _write_artifact(args.out, dumps_canonical(doc))
    distance = hom_metric(hom, result)
    checks = [
        _check(
            "distance within epsilon",
            distance <= epsilon,
            f"{fraction_to_text(distance)} <= {args.epsilon}",
        )
    ]
    ratios = []
    for cls in constructions.folner_planted_classes(sizes):
        ratio = analysis.schreier_boundary_ratio(result, cls)
        bound = Fraction(2 * (hom.rank - 1), len(cls))
        ratios.append(fraction_to_text(ratio))
        checks.append(
            _check(
                f"class of size {len(cls)} has boundary ratio within 2(r-1)/n",
                ratio <= bound,
                f"{fraction_to_text(ratio)} <= {fraction_to_text(bound)}",
            )
        )
    outputs = {"hom": doc, "distance": fraction_to_text(distance), "class_ratios": ratios}
    return outputs, checks


def _cmd_construct_ht(args):
    hom = _load_hom(args)
    epsilon = parse_fraction(args.epsilon)
    tau = tuple(_ints(args.tau))
    result = constructions.build_ht_perturbation(hom, args.m, tau, epsilon)
    doc = hom_to_doc(result)
    _write_artifact(args.out, dumps_canonical(doc))
    distance = hom_metric(hom, result)
    levels = constructions.perturbation_tower(hom.gens[0], args.m, epsilon)
    fibered = np.array_equal(result.gens[1].forward[levels], levels[list(tau)])
    checks = [
        _check(
            "distance below epsilon",
            distance < epsilon,
            f"{fraction_to_text(distance)} < {args.epsilon}",
        ),
        _check("second generator permutes every tower fiber by tau", fibered),
    ]
    outputs = {
        "hom": doc,
        "distance": fraction_to_text(distance),
        "base": levels[0].tolist(),
    }
    return outputs, checks


def _cmd_construct_corefree(args):
    hom = _load_hom(args)
    epsilon = parse_fraction(args.epsilon)
    word = parse_word(args.word, hom.rank)
    result = constructions.build_corefree_perturbation(hom, word, epsilon)
    doc = hom_to_doc(result)
    _write_artifact(args.out, dumps_canonical(doc))
    distance = hom_metric(hom, result)
    _, core = cyclic_reduce(word)
    tau = constructions.tau_for_word(core)
    s = len(core)
    levels = constructions.perturbation_tower(hom.gens[0], s + 1, epsilon)
    images = [evaluate(result, core, x) for x in levels[tau[0]].tolist()]
    displaced = images == levels[tau[s]].tolist()
    checks = [
        _check(
            "distance below epsilon",
            distance < epsilon,
            f"{fraction_to_text(distance)} < {args.epsilon}",
        ),
        _check("word carries the first tower level onto the last", displaced),
    ]
    outputs = {
        "hom": doc,
        "distance": fraction_to_text(distance),
        "tau": [int(i) for i in tau],
        "base": levels[0].tolist(),
    }
    return outputs, checks


def _cmd_analyze_index(args):
    hom = _load_hom(args)
    dist = index_distribution(hom)
    total = sum(dist.values(), Fraction(0))
    checks = [_check("weights sum to one", total == 1, fraction_to_text(total))]
    outputs = {"distribution": {str(k): fraction_to_text(v) for k, v in dist.items()}}
    return outputs, checks


def _cmd_analyze_irs(args):
    hom = _load_hom(args)
    irs = empirical_irs(hom, args.radius)
    defect = invariance_defect(hom, args.radius)
    if args.csv:
        Path(args.csv).write_text(irs_to_csv(irs))
    checks = [_check("invariance defect is zero", defect == 0, fraction_to_text(defect))]
    outputs = {
        "defect": fraction_to_text(defect),
        "trace_count": len(irs.weights),
        "csv": args.csv,
    }
    return outputs, checks


def _cmd_analyze_folner(args):
    hom = _load_hom(args)
    result = analysis.folner_search(hom, _root(hom, args.root), args.l, args.radius)
    ratio = fraction_to_text(result.ratio)
    checks = [_check("found a set with boundary ratio below 1/l", result.success, ratio)]
    outputs = {"subset": sorted(map(int, result.subset)), "ratio": ratio, "success": result.success}
    return outputs, checks


def _cmd_analyze_core(args):
    hom = _load_hom(args)
    word = parse_word(args.word, hom.rank)
    fraction = analysis.core_check(hom, word)
    checks = [
        _check("word acts nontrivially on every orbit", fraction == 0, fraction_to_text(fraction))
    ]
    return {"trivial_fraction": fraction_to_text(fraction)}, checks


def _cmd_analyze_realize(args):
    hom = _load_hom(args)
    tau = tuple(_ints(args.tau))
    fraction = analysis.realizes_tau_fraction(hom, args.m, tau, args.radius)
    checks = [_check("every atom realizes tau", fraction == 1, fraction_to_text(fraction))]
    return {"fraction": fraction_to_text(fraction)}, checks


def _cmd_analyze_degree(args):
    hom = _load_hom(args)
    degree = analysis.transitivity_degree(hom, _root(hom, args.root), args.k_max)
    checks = [_check("degree computed within the byte budget", True, str(degree))]
    return {"degree": degree}, checks


def _cmd_analyze_stability(args):
    hom = _load_hom(args)
    other = _load_hom(args, args.other)
    result = analysis.ball_stability_check(hom, other, args.radius)
    checks = [
        _check(
            "observed bad fraction within the union bound",
            result.observed <= result.bound,
            f"{fraction_to_text(result.observed)} <= {fraction_to_text(result.bound)}",
        )
    ]
    outputs = {
        "observed": fraction_to_text(result.observed),
        "bound": fraction_to_text(result.bound),
    }
    return outputs, checks


def _cmd_sweep(args):
    hom = _load_hom(args)
    epsilon = parse_fraction(args.epsilon)
    prop = analysis.parse_property(args.property, hom.rank)
    args.property = prop.text  # the report records the canonical form
    fraction = analysis.genericity_sweep(hom, epsilon, args.samples, prop, args.seed)
    checks = [_check("sweep completed", True, fraction_to_text(fraction))]
    return {"fraction": fraction_to_text(fraction)}, checks


def _cmd_export(args):
    hom = _load_hom(args)
    if args.format == "json":
        text = dumps_canonical(hom_to_doc(hom))
        reimported = hom_from_doc(json.loads(text))
        round_trip = dumps_canonical(hom_to_doc(reimported)) == text
        checks = [_check("round trip is byte-identical", round_trip)]
    elif args.format == "csv":
        if args.radius is None:
            raise ValueError("csv export needs --radius")
        irs = empirical_irs(hom, args.radius)
        text = irs_to_csv(irs)
        checks = [_check("weights sum to one", True)]
    else:
        if args.radius is None or args.root is None:
            raise ValueError("dot export needs --root and --radius")
        ball = schreier_ball(hom, _root(hom, args.root), args.radius)
        text = schreier_ball_to_dot(ball)
        degree_ok = len(ball.edges) >= 2 * hom.rank * len(ball.vertices)
        checks = [_check("every vertex carries all generator edges", degree_ok)]
    Path(args.out).write_text(text)
    return {"bytes": len(text)}, checks


# -- wiring ------------------------------------------------------------------


def _add_hom_arg(parser):
    parser.add_argument("--hom", required=True, help="homomorphism JSON file")
    parser.add_argument("--space", help="optional space JSON file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="irslab",
        description="finite laboratory for free-group actions on finite spaces",
    )
    parser.add_argument("--report", help="write the JSON report here instead of stdout")
    top = parser.add_subparsers(dest="command", required=True)

    gen = top.add_parser("gen", help="generate spaces and actions").add_subparsers(
        dest="sub", required=True
    )
    g_space = gen.add_parser("space")
    g_space.add_argument("--log2", type=int)
    g_space.add_argument("--classes", help="comma-separated class sizes")
    g_space.add_argument("--out")
    g_space.set_defaults(handler=_cmd_gen_space)
    g_hom = gen.add_parser("hom")
    g_hom.add_argument("--model", choices=["lean-aperiodic", "random"], default="lean-aperiodic")
    g_hom.add_argument("--rank", type=int, required=True)
    g_hom.add_argument("--seed", type=int, required=True)
    g_hom.add_argument("--log2", type=int, default=6)
    g_hom.add_argument("--space")
    g_hom.add_argument("--out")
    g_hom.set_defaults(handler=_cmd_gen_hom)

    con = top.add_parser("construct", help="run a perturbation construction").add_subparsers(
        dest="sub", required=True
    )
    c_splice = con.add_parser("splice")
    _add_hom_arg(c_splice)
    c_splice.add_argument("--gen-index", type=int, default=0)
    c_splice.add_argument("--atoms", default="", help="atoms of the spliced set")
    c_splice.add_argument("--tau", help="homomorphism JSON supplying the target element")
    c_splice.add_argument("--tau-index", type=int, default=0)
    c_splice.add_argument("--out")
    c_splice.set_defaults(handler=_cmd_construct_splice)
    c_periodic = con.add_parser("periodic")
    _add_hom_arg(c_periodic)
    c_periodic.add_argument("--level", type=int, required=True)
    c_periodic.add_argument("--out")
    c_periodic.set_defaults(handler=_cmd_construct_periodic)
    c_folner = con.add_parser("folner")
    _add_hom_arg(c_folner)
    c_folner.add_argument("--epsilon", required=True)
    c_folner.add_argument("--sizes", default="", help="comma-separated class sizes to plant")
    c_folner.add_argument("--out")
    c_folner.set_defaults(handler=_cmd_construct_folner)
    c_ht = con.add_parser("ht")
    _add_hom_arg(c_ht)
    c_ht.add_argument("--m", type=int, required=True)
    c_ht.add_argument("--tau", required=True, help="permutation of 0..m-1, e.g. '1 0'")
    c_ht.add_argument("--epsilon", required=True)
    c_ht.add_argument("--out")
    c_ht.set_defaults(handler=_cmd_construct_ht)
    c_corefree = con.add_parser("corefree")
    _add_hom_arg(c_corefree)
    c_corefree.add_argument("--word", required=True)
    c_corefree.add_argument("--epsilon", required=True)
    c_corefree.add_argument("--out")
    c_corefree.set_defaults(handler=_cmd_construct_corefree)

    ana = top.add_parser("analyze", help="run a diagnostic").add_subparsers(
        dest="sub", required=True
    )
    a_index = ana.add_parser("index")
    _add_hom_arg(a_index)
    a_index.set_defaults(handler=_cmd_analyze_index)
    a_irs = ana.add_parser("irs")
    _add_hom_arg(a_irs)
    a_irs.add_argument("--radius", type=int, required=True)
    a_irs.add_argument("--csv", help="also write the trace distribution CSV here")
    a_irs.set_defaults(handler=_cmd_analyze_irs)
    a_folner = ana.add_parser("folner")
    _add_hom_arg(a_folner)
    a_folner.add_argument("--root", type=int, required=True)
    a_folner.add_argument("--l", type=int, required=True)
    a_folner.add_argument("--radius", type=int, required=True)
    a_folner.set_defaults(handler=_cmd_analyze_folner)
    a_core = ana.add_parser("core")
    _add_hom_arg(a_core)
    a_core.add_argument("--word", required=True)
    a_core.set_defaults(handler=_cmd_analyze_core)
    a_realize = ana.add_parser("realize")
    _add_hom_arg(a_realize)
    a_realize.add_argument("--m", type=int, required=True)
    a_realize.add_argument("--tau", required=True)
    a_realize.add_argument("--radius", type=int, required=True)
    a_realize.set_defaults(handler=_cmd_analyze_realize)
    a_degree = ana.add_parser("degree")
    _add_hom_arg(a_degree)
    a_degree.add_argument("--root", type=int, required=True)
    a_degree.add_argument("--k-max", type=int, required=True)
    a_degree.set_defaults(handler=_cmd_analyze_degree)
    a_stab = ana.add_parser("stability")
    _add_hom_arg(a_stab)
    a_stab.add_argument("--other", required=True, help="second homomorphism JSON")
    a_stab.add_argument("--radius", type=int, required=True)
    a_stab.set_defaults(handler=_cmd_analyze_stability)

    sweep = top.add_parser("sweep", help="sample a perturbation ball")
    _add_hom_arg(sweep)
    sweep.add_argument("--epsilon", required=True)
    sweep.add_argument("--samples", type=int, required=True)
    sweep.add_argument("--property", required=True)
    sweep.add_argument("--seed", type=int, required=True)
    sweep.set_defaults(handler=_cmd_sweep)

    export = top.add_parser("export", help="write an artifact file")
    _add_hom_arg(export)
    export.add_argument("--format", choices=["json", "csv", "dot"], required=True)
    export.add_argument("--radius", type=int)
    export.add_argument("--root", type=int)
    export.add_argument("--out", required=True)
    export.set_defaults(handler=_cmd_export)

    return parser


_NOT_INPUTS = {"command", "sub", "handler", "report"}  # parser bookkeeping and --report


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    command = args.command + (f" {args.sub}" if getattr(args, "sub", None) else "")
    try:
        outputs, checks = args.handler(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (AssertionError, RuntimeError) as exc:  # a broken internal invariant
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    passed = all(c["passed"] for c in checks)
    report = {
        "command": command,
        "inputs": {k: v for k, v in vars(args).items() if k not in _NOT_INPUTS},
        "outputs": outputs,
        "checks": checks,
        "passed": passed,
    }
    text = dumps_canonical(report)
    if args.report:
        Path(args.report).write_text(text)
    else:
        sys.stdout.write(text)
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())

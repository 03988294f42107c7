"""Batch front end: generate, construct, analyze, sweep, export.

Every subcommand writes one JSON report (stdout by default, --report
for a file) containing its inputs, exact rational outputs, and a list
of named checks.  The inputs are every parsed option but --report,
--space included, so no handler can leave one out.  `main` loads --hom
(on --space, if given) once and hands it to the handler; no option may
be abbreviated, so each has one spelling.  The exit status is
0 exactly when every check passed, 1 when one failed, 2 on bad input
(an argument parse error included) with one `error:` line on stderr,
and 3 on a broken internal invariant.  Rationals cross the boundary as
"p/q" text, never as floats.  The parser is built from one table of
commands, `_COMMANDS`; `run` is the `irslab` script's process entry.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import analysis, constructions, space
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
    Encoded,
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
from .words import _quote, cyclic_reduce, parse_word, read_int


def _check(name: str, passed: bool, detail: str = "") -> dict:
    return {"name": name, "passed": bool(passed), "detail": detail}


def _ints(text: str) -> list[int]:
    """Integer tokens split at commas and spaces, each read by `words.read_int`."""
    return [read_int(t, "integer") for t in text.replace(",", " ").split()]


def _int_option(text: str) -> int:
    """An integer option's value, read by `words.read_int`; argparse prints an
    `ArgumentTypeError` as it is, where it would quote a `ValueError`'s whole token."""
    try:
        return read_int(text, "value")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _read_doc(path: str):
    """The JSON document at path; one nested past the interpreter's recursion limit is bad input."""
    try:
        return json.loads(Path(path).read_text())
    except RecursionError:
        raise ValueError(f"document {_quote(path)} is nested too deeply") from None


def _load_hom(args, path: str | None = None) -> Homomorphism:
    """The hom document at path (default --hom), on the --space space if given.  The
    space is built first, so its parsed document is freed before the hom's is parsed."""
    on_space = space_from_doc(_read_doc(args.space)) if args.space else None
    return hom_from_doc(_read_doc(path or args.hom), on_space)


def _index(flag: str, value: int, size: int, what: str) -> int:
    """An index option's value, checked to lie in [0, size)."""
    if not 0 <= value < size:
        raise ValueError(f"{flag} {value} is not {what} in [0, {size})")
    return value


def _root(hom: Homomorphism, root: int) -> int:
    return _index("--root", root, hom.space.n_atoms, "an atom")


def _log2_atoms(log2: int) -> int:
    """The atom count 2^log2 of a --log2 option, which must be nonnegative.  Past
    the byte budget the space's refusal is built from log2 itself, before a huge
    2^log2 is computed."""
    if log2 < 0:
        raise ValueError("--log2 must be nonnegative")
    return space._atom_count(1, log2)


def _error_text(exc: Exception) -> str:
    """exc's text, but an OS error's file name cut as `words._quote` cuts it."""
    if isinstance(exc, OSError) and isinstance(exc.filename, str) and exc.filename2 is None:
        return f"[Errno {exc.errno}] {exc.strerror}: {_quote(exc.filename)}"
    return str(exc)


def _write_doc(path: str | None, doc: dict) -> Encoded:
    """Write doc to path, if given, and return it with its text for the report, encoded once."""
    text = dumps_canonical(doc)
    if path:
        Path(path).write_text(text)
    return Encoded(doc, text)


# -- subcommand handlers ----------------------------------------------------


# the given space, refused if --log2 is given and 2^log2 is not its atom count, or with
# no space the single class of 2^log2 atoms
def _log2_space(args, space: FiniteSpace | None) -> FiniteSpace:
    if space is None:
        return FiniteSpace.single_class(_log2_atoms(args.log2))
    if args.log2 is not None and space.n_atoms != _log2_atoms(args.log2):
        raise ValueError("--log2 contradicts the class layout total")
    return space


def _cmd_gen_space(args, _):
    if not args.classes and args.log2 is None:
        raise ValueError("need --log2 or --classes")
    space = _log2_space(args, FiniteSpace.from_class_sizes(_ints(args.classes)) if args.classes else None)
    doc = _write_doc(args.out, space_to_doc(space))
    checks = [
        _check("classes partition the atoms", True, f"{space.class_count} classes"),
        _check("filtration blocks class-constant", True, f"levels={space.filtration_levels}"),
    ]
    return {"space": doc}, checks


def _cmd_gen_hom(args, _):
    if not args.space and args.log2 is None:
        args.log2 = 6  # the report records the default
    space = _log2_space(args, space_from_doc(_read_doc(args.space)) if args.space else None)
    rng = derive_rng(args.seed, STREAM_GEN_HOM, 0)
    if args.model == "lean-aperiodic":
        hom = lean_aperiodic_homomorphism(space, args.rank, rng)
    else:
        hom = random_homomorphism(space, args.rank, rng)
    doc = _write_doc(args.out, hom_to_doc(hom))
    checks = [_check("generator images are class-preserving bijections", True)]
    if args.model == "lean-aperiodic":
        checks.append(_check("first generator is a single full cycle", hom.is_lean_aperiodic))
    return {"hom": doc}, checks


def _cmd_construct_splice(args, hom):
    # tau is read on the hom's space, so a document of another size is refused
    other = hom_from_doc(_read_doc(args.tau), hom.space) if args.tau else hom
    gen_index = _index("--gen-index", args.gen_index, hom.rank, "a generator")
    sigma = hom.gens[gen_index]
    tau = other.gens[_index("--tau-index", args.tau_index, other.rank, "a generator")]
    atoms = hom.space.checked_atoms(_ints(args.atoms))
    spliced = constructions.splice(sigma, atoms, tau.forward[atoms])
    result = hom.replace_generator(gen_index, spliced)
    doc = _write_doc(args.out, hom_to_doc(result))
    agrees = np.array_equal(spliced.forward[atoms], tau.forward[atoms])
    distance = uniform_metric(sigma, spliced)
    bound = 2 * hom.space.measure(atoms)
    checks = [
        _check("result equals tau on the spliced set", agrees),
        _check("distance at most twice the set measure", distance <= bound,
               f"{fraction_to_text(distance)} <= {fraction_to_text(bound)}"),
    ]
    outputs = {"hom": doc, "distance": fraction_to_text(distance)}
    return outputs, checks


def _cmd_construct_periodic(args, hom):
    result = constructions.periodic_truncate(hom, args.level)
    doc = _write_doc(args.out, hom_to_doc(result))
    blocks = hom.space.block_index(args.level)
    trapped = all((blocks[g.forward] == blocks).all() for g in result.gens)
    pairs = [(uniform_metric(old, new), hom.space.measure(int(np.count_nonzero(blocks[old.forward] != blocks))))
             for old, new in zip(hom.gens, result.gens)]
    distances = [fraction_to_text(d) for d, _ in pairs]
    exact = all(d == escaped for d, escaped in pairs)
    checks = [
        _check("every orbit stays inside one block", trapped),
        _check("per-generator distance equals the escaping-set measure", exact),
    ]
    return {"hom": doc, "distances": distances}, checks


def _cmd_construct_folner(args, hom):
    epsilon = parse_fraction(args.epsilon)
    sizes = _ints(args.sizes) if args.sizes else []
    result = constructions.build_folner_perturbation(hom, epsilon, sizes)
    doc = _write_doc(args.out, hom_to_doc(result))
    distance = hom_metric(hom, result)
    checks = [
        _check("distance within epsilon", distance <= epsilon,
               f"{fraction_to_text(distance)} <= {args.epsilon}")
    ]
    ratios = []
    for cls in constructions.folner_planted_classes(sizes):
        ratio = analysis.schreier_boundary_ratio(result, cls)
        bound = Fraction(2 * (hom.rank - 1), len(cls))
        ratios.append(fraction_to_text(ratio))
        checks.append(
            _check(f"class of size {len(cls)} has boundary ratio within 2(r-1)/n", ratio <= bound,
                   f"{fraction_to_text(ratio)} <= {fraction_to_text(bound)}")
        )
    outputs = {"hom": doc, "distance": fraction_to_text(distance), "class_ratios": ratios}
    return outputs, checks


def _cmd_construct_ht(args, hom):
    epsilon = parse_fraction(args.epsilon)
    tau = tuple(_ints(args.tau))
    result = constructions.build_ht_perturbation(hom, args.m, tau, epsilon)
    doc = _write_doc(args.out, hom_to_doc(result))
    distance = hom_metric(hom, result)
    levels = constructions.perturbation_tower(hom.gens[0], args.m, epsilon)
    fibered = np.array_equal(result.gens[1].forward[levels], levels[list(tau)])
    checks = [
        _check("distance below epsilon", distance < epsilon,
               f"{fraction_to_text(distance)} < {args.epsilon}"),
        _check("second generator permutes every tower fiber by tau", fibered),
    ]
    outputs = {
        "hom": doc,
        "distance": fraction_to_text(distance),
        "base": levels[0].tolist(),
    }
    return outputs, checks


def _cmd_construct_corefree(args, hom):
    epsilon = parse_fraction(args.epsilon)
    word = parse_word(args.word, hom.rank)
    result = constructions.build_corefree_perturbation(hom, word, epsilon)
    doc = _write_doc(args.out, hom_to_doc(result))
    distance = hom_metric(hom, result)
    _, core = cyclic_reduce(word)
    tau = constructions.tau_for_word(core)
    s = len(core)
    levels = constructions.perturbation_tower(hom.gens[0], s + 1, epsilon)
    displaced = np.array_equal(evaluate(result, core, levels[tau[0]]), levels[tau[s]])
    checks = [
        _check("distance below epsilon", distance < epsilon,
               f"{fraction_to_text(distance)} < {args.epsilon}"),
        _check("word carries the first tower level onto the last", displaced),
    ]
    outputs = {
        "hom": doc,
        "distance": fraction_to_text(distance),
        "tau": [int(i) for i in tau],
        "base": levels[0].tolist(),
    }
    return outputs, checks


def _cmd_analyze_index(args, hom):
    dist = index_distribution(hom)
    total = sum(dist.values(), Fraction(0))
    checks = [_check("weights sum to one", total == 1, fraction_to_text(total))]
    outputs = {"distribution": {str(k): fraction_to_text(v) for k, v in dist.items()}}
    return outputs, checks


def _cmd_analyze_irs(args, hom):
    irs = empirical_irs(hom, args.radius)
    defect = invariance_defect(hom, args.radius)
    if args.csv:
        Path(args.csv).write_text(irs_to_csv(irs))
    checks = [_check("invariance defect is zero", defect == 0, fraction_to_text(defect))]
    outputs = {"defect": fraction_to_text(defect), "trace_count": len(irs.counts), "csv": args.csv}
    return outputs, checks


def _cmd_analyze_folner(args, hom):
    result = analysis.folner_search(hom, _root(hom, args.root), args.l, args.radius)
    ratio = fraction_to_text(result.ratio)
    checks = [_check("found a set with boundary ratio below 1/l", result.success, ratio)]
    outputs = {"subset": sorted(map(int, result.subset)), "ratio": ratio, "success": result.success}
    return outputs, checks


def _cmd_analyze_core(args, hom):
    word = parse_word(args.word, hom.rank)
    fraction = analysis.core_check(hom, word)
    checks = [
        _check("word acts nontrivially on every orbit", fraction == 0, fraction_to_text(fraction))
    ]
    return {"trivial_fraction": fraction_to_text(fraction)}, checks


def _cmd_analyze_realize(args, hom):
    tau = tuple(_ints(args.tau))
    fraction = analysis.realizes_tau_fraction(hom, args.m, tau, args.radius)
    checks = [_check("every atom realizes tau", fraction == 1, fraction_to_text(fraction))]
    return {"fraction": fraction_to_text(fraction)}, checks


def _cmd_analyze_degree(args, hom):
    degree = analysis.transitivity_degree(hom, _root(hom, args.root), args.k_max)
    checks = [_check("degree computed within the byte budget", True, str(degree))]
    return {"degree": degree}, checks


def _cmd_analyze_stability(args, hom):
    other = _load_hom(args, args.other)
    result = analysis.ball_stability_check(hom, other, args.radius)
    checks = [
        _check("observed bad fraction within the union bound", result.observed <= result.bound,
               f"{fraction_to_text(result.observed)} <= {fraction_to_text(result.bound)}")
    ]
    outputs = {
        "observed": fraction_to_text(result.observed),
        "bound": fraction_to_text(result.bound),
    }
    return outputs, checks


def _cmd_sweep(args, hom):
    epsilon = parse_fraction(args.epsilon)
    prop = analysis.parse_property(args.property, hom.rank)
    args.property = prop.text  # the report records the canonical form
    fraction = analysis.genericity_sweep(hom, epsilon, args.samples, prop, args.seed)
    checks = [_check("sweep completed", True, fraction_to_text(fraction))]
    return {"fraction": fraction_to_text(fraction)}, checks


def _cmd_export(args, hom):
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


class _Parser(argparse.ArgumentParser):
    """A parser whose errors, its subparsers' too, raise `ValueError` for `main` to
    print.  A refused choice and unrecognized arguments are cut as `words._quote` cuts.
    No option may be abbreviated, so each has one spelling."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        raise ValueError(message)

    def _check_value(self, action, value):
        if action.choices is not None and value not in action.choices:
            choices = ", ".join(map(repr, action.choices))
            raise argparse.ArgumentError(action, f"invalid choice: {_quote(value)} (choose from {choices})")

    def parse_args(self, args=None, namespace=None):
        args, extra = self.parse_known_args(args, namespace)
        if extra:
            text = " ".join(extra)
            self.error(f"unrecognized arguments: {text[:40]}{'...' * (len(text) > 40)}")
        return args


# An option spec is a (flag, add_argument keywords) pair; these are the ones commands share.
_INT = {"type": _int_option, "required": True}
_OPTIONAL_INT = {"type": _int_option}
_HOM = (("--hom", {"required": True, "help": "homomorphism JSON file"}),
        ("--space", {"help": "optional space JSON file"}))
_OUT = ("--out", {})
_EPSILON = ("--epsilon", {"required": True})
_RADIUS = ("--radius", _INT)
_ROOT = ("--root", _INT)

_GROUP_HELP = {
    "gen": "generate spaces and actions", "construct": "run a perturbation construction",
    "analyze": "run a diagnostic", "sweep": "sample a perturbation ball", "export": "write an artifact file",
}

# (group, command name or None where the group is the command, handler, options), in the
# order that help and `invalid choice` lines list them
_COMMANDS = (
    ("gen", "space", _cmd_gen_space, (
        ("--log2", _OPTIONAL_INT), ("--classes", {"help": "comma-separated class sizes"}), _OUT)),
    ("gen", "hom", _cmd_gen_hom, (
        ("--model", {"choices": ["lean-aperiodic", "random"], "default": "lean-aperiodic"}),
        ("--rank", _INT), ("--seed", _INT), ("--log2", _OPTIONAL_INT),
        ("--space", {}), _OUT)),
    ("construct", "splice", _cmd_construct_splice, (
        *_HOM, ("--gen-index", {**_OPTIONAL_INT, "default": 0}),
        ("--atoms", {"default": "", "help": "atoms of the spliced set"}),
        ("--tau", {"help": "homomorphism JSON supplying the target element"}),
        ("--tau-index", {**_OPTIONAL_INT, "default": 0}), _OUT)),
    ("construct", "periodic", _cmd_construct_periodic, (*_HOM, ("--level", _INT), _OUT)),
    ("construct", "folner", _cmd_construct_folner, (
        *_HOM, _EPSILON, ("--sizes", {"default": "", "help": "comma-separated class sizes to plant"}),
        _OUT)),
    ("construct", "ht", _cmd_construct_ht, (
        *_HOM, ("--m", _INT),
        ("--tau", {"required": True, "help": "permutation of 0..m-1, e.g. '1 0'"}), _EPSILON, _OUT)),
    ("construct", "corefree", _cmd_construct_corefree, (
        *_HOM, ("--word", {"required": True}), _EPSILON, _OUT)),
    ("analyze", "index", _cmd_analyze_index, _HOM),
    ("analyze", "irs", _cmd_analyze_irs, (
        *_HOM, _RADIUS, ("--csv", {"help": "also write the trace distribution CSV here"}))),
    ("analyze", "folner", _cmd_analyze_folner, (*_HOM, _ROOT, ("--l", _INT), _RADIUS)),
    ("analyze", "core", _cmd_analyze_core, (*_HOM, ("--word", {"required": True}))),
    ("analyze", "realize", _cmd_analyze_realize, (
        *_HOM, ("--m", _INT), ("--tau", {"required": True}), _RADIUS)),
    ("analyze", "degree", _cmd_analyze_degree, (*_HOM, _ROOT, ("--k-max", _INT))),
    ("analyze", "stability", _cmd_analyze_stability, (
        *_HOM, ("--other", {"required": True, "help": "second homomorphism JSON"}), _RADIUS)),
    ("sweep", None, _cmd_sweep, (
        *_HOM, _EPSILON, ("--samples", _INT), ("--property", {"required": True}), ("--seed", _INT))),
    ("export", None, _cmd_export, (
        *_HOM, ("--format", {"choices": ["json", "csv", "dot"], "required": True}),
        ("--radius", _OPTIONAL_INT), ("--root", _OPTIONAL_INT), ("--out", {"required": True}))),
)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="irslab",
        description="finite laboratory for free-group actions on finite spaces",
    )
    parser.add_argument("--report", help="write the JSON report here instead of stdout")
    top = parser.add_subparsers(dest="command", required=True)
    groups = {}
    for group, name, handler, options in _COMMANDS:
        if name and group not in groups:
            parent = top.add_parser(group, help=_GROUP_HELP[group])
            groups[group] = parent.add_subparsers(dest="sub", required=True)
        command = groups[group].add_parser(name) if name else top.add_parser(group, help=_GROUP_HELP[group])
        for flag, spec in options:
            command.add_argument(flag, **spec)
        command.set_defaults(handler=handler)
    return parser


_NOT_INPUTS = {"command", "sub", "handler", "report"}  # parser bookkeeping and --report


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        outputs, checks = args.handler(args, _load_hom(args) if "hom" in args else None)
        passed = all(c["passed"] for c in checks)
        command = args.command + (f" {args.sub}" if getattr(args, "sub", None) else "")
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
    except (ValueError, OSError) as exc:
        print(f"error: {_error_text(exc)}", file=sys.stderr)
        return 2
    except (AssertionError, RuntimeError) as exc:  # a broken internal invariant
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    return 0 if passed else 1


def run() -> None:
    """The `irslab` process entry: `main` between two `gc.freeze` calls, so neither main's
    collections nor the one at interpreter exit walk the objects alive before them."""
    gc.freeze()
    status = main()
    gc.freeze()
    sys.exit(status)


if __name__ == "__main__":
    run()

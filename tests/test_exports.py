"""The package's public names are declared once, in their modules' `__all__`.

`irslab/__init__.py` star-imports each module and concatenates the
modules' `__all__` lists, so a name is public exactly when its module
lists it.  These tests pin the public set, check that each listed name
is defined where it is listed, that no two modules list one name
(a later star import would silently replace the earlier binding), and
that each public name is read by the lab: by a module of the package,
the acceptance tests or the benchmark's tracer.
"""

import ast
import importlib
from pathlib import Path

import irslab

ROOT = Path(__file__).resolve().parents[1]
MODULES = ("space", "fullgroup", "words", "actions", "constructions", "analysis", "rng", "serialize")

PUBLIC_NAMES = {
    "AnalysisError", "BallStability", "ConstructionError", "CycleStructure", "EmpiricalIRS",
    "FiniteSpace", "FolnerResult", "FreeBall", "FullGroupElement", "Homomorphism", "ReducedWord",
    "SchreierBall", "StabilizerTrace", "SweepProperty", "TraceBudgetError", "ball", "ball_codes",
    "ball_size", "ball_stability_check", "build_corefree_perturbation",
    "build_folner_perturbation", "build_ht_perturbation", "conjugate_to_standard_cycle", "core_check",
    "cyclic_reduce", "derive_rng", "disjoint_support_partition", "dumps_canonical", "empirical_irs",
    "evaluate", "first_return", "folner_planted_classes", "folner_search", "format_word",
    "fraction_to_text", "generates_classwise_symmetric", "genericity_sweep", "hom_from_doc",
    "hom_metric", "hom_to_doc", "index_distribution", "invariance_defect", "irs_to_csv",
    "lean_aperiodic_homomorphism", "orbit", "orbits", "parse_fraction", "parse_property", "parse_word",
    "periodic_truncate", "perturbation_tower", "random_full_group_element", "random_homomorphism",
    "random_reduced_word", "realizes_tau_fraction", "reduce_letters", "rokhlin_base",
    "sample_perturbation", "schreier_ball", "schreier_ball_to_dot", "schreier_boundary_ratio",
    "space_from_doc", "space_to_doc", "splice", "tau_for_word", "trace_code_matrix",
    "transitivity_degree", "uniform_metric",
}


def modules():
    return [importlib.import_module(f"irslab.{name}") for name in MODULES]


def test_the_public_names_are_the_modules_lists_in_order():
    assert len(PUBLIC_NAMES) == 68
    assert sorted(irslab.__all__) == sorted(PUBLIC_NAMES)
    assert irslab.__all__ == [name for module in modules() for name in module.__all__]


def test_each_public_name_is_its_owning_modules_object():
    for module in modules():
        for name in module.__all__:
            assert getattr(irslab, name) is getattr(module, name), (module.__name__, name)


def test_star_import_binds_exactly_the_public_names():
    namespace = {}
    exec("from irslab import *", namespace)
    del namespace["__builtins__"]
    assert namespace.keys() == PUBLIC_NAMES
    assert all(namespace[name] is getattr(irslab, name) for name in PUBLIC_NAMES)


def test_every_listed_name_is_defined_in_its_module():
    for module in modules():
        assert module.__all__ and len(set(module.__all__)) == len(module.__all__), module.__name__
        for name in module.__all__:
            assert getattr(module, name).__module__ == module.__name__, (module.__name__, name)


def test_no_name_is_listed_by_two_modules():
    owners = {}
    for module in modules():
        for name in module.__all__:
            assert name not in owners, (name, owners.get(name), module.__name__)
            owners[name] = module.__name__


def test_the_package_init_names_no_public_name():
    """`__init__.py` imports only `*` and the submodules themselves, and builds
    `__all__` from the modules' lists, so no public name is written there."""
    tree = ast.parse(Path(irslab.__file__).read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            assert node.module is None or [a.name for a in node.names] == ["*"], ast.unparse(node)
            if node.module is None:
                assert {a.name for a in node.names} == set(MODULES)
        if isinstance(node, ast.Constant):
            assert node.value not in PUBLIC_NAMES, node.value


# kept unread for the roadmap: the aperiodic limit and giants on every orbit
UNREAD_BY_DESIGN = {"conjugate_to_standard_cycle", "generates_classwise_symmetric"}


def names_read(tree: ast.AST) -> set[str]:
    """Every name a module loads, every attribute it reads and every name it imports."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.alias):
            read.add(node.name)
    return read


def traced_names() -> set[str]:
    """The parts of the qualified names in `perfbench/tracing.py`'s `TARGETS`."""
    tree = ast.parse((ROOT / "perfbench" / "tracing.py").read_text())
    (targets,) = [node.value for node in tree.body if isinstance(node, ast.Assign)
                  and [ast.unparse(t) for t in node.targets] == ["TARGETS"]]
    return {part for node in ast.walk(targets) if isinstance(node, ast.Constant)
            and isinstance(node.value, str) for part in node.value.split(".")}


def test_each_public_name_is_read_by_the_lab():
    """A public name is read by `cli.py` or another module of the package (its own
    included, the package's `__init__.py` not), by `tests/test_acceptance.py`, or by
    a target of the benchmark's tracer; two names are kept unread on purpose."""
    sources = [path for path in Path(irslab.__file__).parent.glob("*.py") if path.name != "__init__.py"]
    read = set().union(*(names_read(ast.parse(path.read_text()))
                         for path in [*sources, ROOT / "tests" / "test_acceptance.py"]))
    read |= traced_names()
    assert sorted(PUBLIC_NAMES - read) == sorted(UNREAD_BY_DESIGN)

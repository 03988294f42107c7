"""The traced benchmark replay names functions that exist.

`perfbench/tracing.py` swaps every `TARGETS` entry for a timing wrapper
while a run is traced (`perfbench/run.py --trace 1`).  A function that is
renamed or deleted there breaks only traced runs, so this resolves each
name the way `Tracer.installed` does: `getattr` on the module, or the
class `__dict__` entry for a method.  A counter hook that reads what its
function's result no longer holds breaks only traced runs too, so each
hook is run on a real result at tiny size.
"""

import importlib
import importlib.util
from fractions import Fraction
from pathlib import Path

from irslab import FiniteSpace, derive_rng, empirical_irs, lean_aperiodic_homomorphism, parse_property
from irslab.rng import STREAM_TEST

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves():
    tracing = load_tracing()
    missing = []
    for module, qualname, hook in tracing.TARGETS:
        mod = importlib.import_module(f"irslab.{module}")
        if "." in qualname:
            cls_name, attr = qualname.split(".")
            found = hasattr(mod, cls_name) and attr in vars(getattr(mod, cls_name))
        else:
            found = callable(getattr(mod, qualname, None))
        if not found or not (hook is None or callable(hook)):
            missing.append(f"{module}.{qualname}")
    assert tracing.TARGETS and missing == []


def tiny_calls() -> dict:
    """Arguments of a tiny call of every traced function that carries a counter hook."""
    hom = lean_aperiodic_homomorphism(FiniteSpace.single_class(8), 2, derive_rng(0, STREAM_TEST, 0))
    return {
        "serialize.dumps_canonical": ({"a": [1, 2]},),
        "serialize.irs_to_csv": (empirical_irs(hom, 1),),
        "words.ball": (2, 1),
        "actions.trace_code_matrix": (hom, 1),
        "actions.empirical_irs": (hom, 1),
        "analysis.realizes_tau_fraction": (hom, 2, (1, 0), 2),
        "analysis.folner_search": (hom, 0, 2, 2),
        "analysis.genericity_sweep": (hom, Fraction(1, 2), 1, parse_property("periodic(1)", 2), 0),
    }


def test_every_counter_hook_reads_a_real_result():
    """A hook that reads an attribute its function's result no longer has would
    break only traced runs, so each runs here on a real result."""
    tracing = load_tracing()
    calls = tiny_calls()
    hooked = [(module, qualname, hook) for module, qualname, hook in tracing.TARGETS if hook is not None]
    assert {f"{module}.{qualname}" for module, qualname, _ in hooked} == set(calls)
    for module, qualname, hook in hooked:
        args = calls[f"{module}.{qualname}"]
        counts = hook(args, {}, getattr(importlib.import_module(f"irslab.{module}"), qualname)(*args))
        assert counts and all(type(v) is int and v >= 0 for v in counts.values()), (module, qualname)

"""The traced benchmark replay names functions that exist.

`perfbench/tracing.py` swaps every `TARGETS` entry for a timing wrapper
while a run is traced (`perfbench/run.py --trace 1`).  A function that is
renamed or deleted there breaks only traced runs, so this resolves each
name the way `Tracer.installed` does: `getattr` on the module, or the
class `__dict__` entry for a method.
"""

import importlib
import importlib.util
from pathlib import Path

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


"""What a fresh interpreter pays to import irslab: one thread, no unused modules."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def fresh(code: str, **env: str):
    """Run code in a new interpreter importing this checkout's irslab; return its JSON line.

    The BLAS thread variables are cleared first, then the given ones are set.
    """
    environ = {k: v for k, v in os.environ.items() if k not in BLAS_VARIABLES}
    environ["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), environ.get("PYTHONPATH")) if p)
    environ.update(env)
    done = subprocess.run([sys.executable, "-c", code], env=environ, capture_output=True,
                          text=True, check=True, timeout=60)
    return json.loads(done.stdout)


REPORT = ("import json, os; "
          "print(json.dumps({'threads': len(os.listdir('/proc/self/task')), "
          "'blas': {k: os.environ.get(k) for k in %r}}))" % (BLAS_VARIABLES,))


@pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="needs Linux /proc/self/task")
def test_importing_irslab_starts_no_blas_threads():
    seen = fresh("import irslab; " + REPORT)
    assert seen == {"threads": 1, "blas": {"OPENBLAS_NUM_THREADS": "1", "GOTO_NUM_THREADS": None,
                                           "OMP_NUM_THREADS": None}}


@pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="needs Linux /proc/self/task")
@pytest.mark.parametrize("variable", BLAS_VARIABLES)
def test_a_users_thread_setting_wins(variable):
    seen = fresh("import irslab; " + REPORT, **{variable: "2"})
    assert seen["blas"] == {k: "2" if k == variable else None for k in BLAS_VARIABLES}


@pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="needs Linux /proc/self/task")
def test_numpy_imported_first_leaves_the_environment_alone():
    seen = fresh("import numpy, irslab; " + REPORT)
    assert seen["blas"] == dict.fromkeys(BLAS_VARIABLES)


def test_importing_the_cli_loads_no_pool_or_random_modules():
    loaded = fresh("import json, sys, irslab.cli; print(json.dumps(sorted(sys.modules)))")
    assert not {"concurrent.futures", "multiprocessing", "numpy.random"} & set(loaded)

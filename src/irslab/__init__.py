"""Finite laboratory for measure-preserving actions of free groups.

The package models a finite atom space with a class partition, the
group of class-preserving permutations with its normalized Hamming
metric, and homomorphisms from a free group into that permutation
group.  On top of the model sit surgery constructions (splices, tower
rearrangements, boundary-thin planted classes, periodic truncations)
and an analysis suite that certifies their quantitative contracts in
exact rational arithmetic.
"""

import os
import sys

# irslab calls no BLAS routine, yet numpy's OpenBLAS starts a spinning thread per CPU when
# numpy loads; ask for one unless the user chose a count or numpy is already loaded.
_BLAS_THREAD_VARIABLES = {"OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"}
if "numpy" not in sys.modules and not _BLAS_THREAD_VARIABLES & os.environ.keys():
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

from .space import *
from .fullgroup import *
from .words import *
from .actions import *
from .constructions import *
from .analysis import *
from .rng import *
from .serialize import *
from . import space, fullgroup, words, actions, constructions, analysis, rng, serialize

# the public names are the ones each module lists in its own __all__, next to their definitions
__all__ = []
__all__ += space.__all__
__all__ += fullgroup.__all__
__all__ += words.__all__
__all__ += actions.__all__
__all__ += constructions.__all__
__all__ += analysis.__all__
__all__ += rng.__all__
__all__ += serialize.__all__

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

from .space import FiniteSpace
from .fullgroup import CycleStructure, FullGroupElement, conjugate_to_standard_cycle, uniform_metric
from .words import (
    FreeBall,
    ReducedWord,
    TraceBudgetError,
    ball,
    ball_size,
    cyclic_reduce,
    format_word,
    parse_word,
    reduce_letters,
)
from .actions import (
    EmpiricalIRS,
    Homomorphism,
    SchreierBall,
    StabilizerTrace,
    ball_codes,
    balls_isomorphic,
    empirical_irs,
    evaluate,
    hom_metric,
    index_distribution,
    invariance_defect,
    orbit,
    orbits,
    schreier_ball,
    stabilizer_trace,
    trace_code_matrix,
)
from .constructions import (
    ConstructionError,
    build_corefree_perturbation,
    build_folner_perturbation,
    build_ht_perturbation,
    disjoint_support_partition,
    first_return,
    folner_planted_classes,
    periodic_truncate,
    perturbation_tower,
    rokhlin_base,
    splice,
    tau_for_word,
)
from .analysis import (
    AnalysisError,
    BallStability,
    FolnerResult,
    SweepProperty,
    ball_stability_check,
    core_check,
    folner_search,
    generates_classwise_symmetric,
    genericity_sweep,
    parse_property,
    realizes_tau_fraction,
    sample_perturbation,
    schreier_boundary_ratio,
    transitivity_degree,
)
from .rng import (
    derive_rng,
    lean_aperiodic_homomorphism,
    random_full_group_element,
    random_homomorphism,
    random_reduced_word,
)
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

__all__ = [
    "AnalysisError",
    "BallStability",
    "ConstructionError",
    "CycleStructure",
    "EmpiricalIRS",
    "FiniteSpace",
    "FolnerResult",
    "FreeBall",
    "FullGroupElement",
    "Homomorphism",
    "ReducedWord",
    "SchreierBall",
    "StabilizerTrace",
    "SweepProperty",
    "TraceBudgetError",
    "ball",
    "ball_codes",
    "ball_size",
    "ball_stability_check",
    "balls_isomorphic",
    "build_corefree_perturbation",
    "build_folner_perturbation",
    "build_ht_perturbation",
    "conjugate_to_standard_cycle",
    "core_check",
    "cyclic_reduce",
    "derive_rng",
    "disjoint_support_partition",
    "dumps_canonical",
    "empirical_irs",
    "evaluate",
    "first_return",
    "folner_planted_classes",
    "folner_search",
    "format_word",
    "fraction_to_text",
    "generates_classwise_symmetric",
    "genericity_sweep",
    "hom_from_doc",
    "hom_metric",
    "hom_to_doc",
    "index_distribution",
    "invariance_defect",
    "irs_to_csv",
    "lean_aperiodic_homomorphism",
    "orbit",
    "orbits",
    "parse_fraction",
    "parse_property",
    "parse_word",
    "periodic_truncate",
    "perturbation_tower",
    "random_full_group_element",
    "random_homomorphism",
    "random_reduced_word",
    "realizes_tau_fraction",
    "reduce_letters",
    "rokhlin_base",
    "sample_perturbation",
    "schreier_ball",
    "schreier_ball_to_dot",
    "schreier_boundary_ratio",
    "space_from_doc",
    "space_to_doc",
    "splice",
    "stabilizer_trace",
    "tau_for_word",
    "trace_code_matrix",
    "transitivity_degree",
    "uniform_metric",
]

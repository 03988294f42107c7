"""Deterministic randomness derived from one seed per run.

Every randomized code path asks for a generator via derive_rng with a
fixed stream id and a counter, so results never depend on evaluation
order or worker count.  Philox is counter-based; SeedSequence spawn
keys carry the (stream, counter) path.  Vectorized samplers must draw
the same stream as the per-item loops they replace, so that seeded
outputs never change.
"""

from __future__ import annotations

import numpy as np

from .actions import Homomorphism
from .fullgroup import FullGroupElement
from .space import FiniteSpace, _check_budget, _count
from .words import ReducedWord

__all__ = [
    "derive_rng", "lean_aperiodic_homomorphism", "random_full_group_element", "random_homomorphism",
    "random_reduced_word",
]

STREAM_GEN_HOM = 1
STREAM_SWEEP = 2
STREAM_TEST = 3


def derive_rng(seed: int, *path: int) -> np.random.Generator:
    """Generator for the given seed and derivation path."""
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    seq = np.random.SeedSequence(entropy=seed, spawn_key=tuple(path))
    return np.random.Generator(np.random.Philox(seq))


def random_full_group_element(space: FiniteSpace, rng: np.random.Generator) -> FullGroupElement:
    """Uniformly random class-preserving permutation.

    One `rng.permuted` call shuffles the rows of each of `space.class_runs`
    in class-id order, which draws exactly what one `rng.permutation` per
    class would, so the element and the generator's next draw are unchanged.
    """
    forward = np.arange(space.n_atoms, dtype=np.int64)
    for run in space.class_runs:
        forward[run] = rng.permuted(run, axis=1)
    return FullGroupElement.from_forward(space, forward)


def _check_tables(space: FiniteSpace, rank: int) -> None:
    """Refuse the two int64 tables of rank generators past the byte budget,
    before anything is drawn."""
    _check_budget(16 * rank * space.n_atoms, ValueError,
                  "tables of {rank} generators on {atoms} atoms need {need} bytes",
                  rank=_count(rank), atoms=space.n_atoms)


def random_homomorphism(space: FiniteSpace, rank: int, rng: np.random.Generator):
    """Homomorphism with every generator an independent random element."""
    _check_tables(space, rank)
    gens = tuple(random_full_group_element(space, rng) for _ in range(rank))
    return Homomorphism(space, gens)


def lean_aperiodic_homomorphism(space: FiniteSpace, rank: int, rng: np.random.Generator):
    """First generator the standard full cycle, the rest random."""
    if rank < 1:
        raise ValueError("rank must be at least 1")
    _check_tables(space, rank)
    gens = [FullGroupElement.odometer(space)]
    gens.extend(random_full_group_element(space, rng) for _ in range(rank - 1))
    return Homomorphism(space, tuple(gens))


def random_reduced_word(rank: int, length: int, rng: np.random.Generator):
    """Uniformly random reduced word of exactly the given length."""
    letters: list[int] = []
    alphabet = [l for i in range(1, rank + 1) for l in (i, -i)]
    for _ in range(length):
        choices = [l for l in alphabet if not letters or l != -letters[-1]]
        letters.append(int(rng.choice(choices)))
    return ReducedWord(rank, tuple(letters))

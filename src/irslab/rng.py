"""Deterministic randomness derived from one seed per run.

Every randomized code path asks for a generator via derive_rng with a
fixed stream id and a counter, so results never depend on evaluation
order or worker count.  Philox is counter-based; SeedSequence spawn
keys carry the (stream, counter) path.
"""

from __future__ import annotations

import numpy as np

from .fullgroup import FullGroupElement
from .space import FiniteSpace

STREAM_GEN_HOM = 1
STREAM_SWEEP = 2
STREAM_TEST = 3


def derive_rng(seed: int, *path: int) -> np.random.Generator:
    """Generator for the given seed and derivation path."""
    seq = np.random.SeedSequence(entropy=seed, spawn_key=tuple(path))
    return np.random.Generator(np.random.Philox(seq))


def random_full_group_element(space: FiniteSpace, rng: np.random.Generator) -> FullGroupElement:
    """Uniformly random class-preserving permutation."""
    forward = np.arange(space.n_atoms, dtype=np.int64)
    for atoms in space.classes():
        atoms = np.array(atoms, dtype=np.int64)
        forward[atoms] = atoms[rng.permutation(len(atoms))]
    return FullGroupElement.from_forward(space, forward)


def random_homomorphism(space: FiniteSpace, rank: int, rng: np.random.Generator):
    """Homomorphism with every generator an independent random element."""
    from .actions import Homomorphism

    gens = tuple(random_full_group_element(space, rng) for _ in range(rank))
    return Homomorphism(space, gens)


def lean_aperiodic_homomorphism(space: FiniteSpace, rank: int, rng: np.random.Generator):
    """First generator the standard full cycle, the rest random."""
    from .actions import Homomorphism

    if rank < 1:
        raise ValueError("rank must be at least 1")

    gens = [FullGroupElement.odometer(space)]
    gens.extend(random_full_group_element(space, rng) for _ in range(rank - 1))
    return Homomorphism(space, tuple(gens))


def random_reduced_word(rank: int, length: int, rng: np.random.Generator):
    """Uniformly random reduced word of exactly the given length."""
    from .words import ReducedWord

    letters: list[int] = []
    alphabet = [l for i in range(1, rank + 1) for l in (i, -i)]
    for _ in range(length):
        choices = [l for l in alphabet if not letters or l != -letters[-1]]
        letters.append(int(rng.choice(choices)))
    return ReducedWord(rank, tuple(letters))

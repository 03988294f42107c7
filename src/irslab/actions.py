"""Actions of a free group by full-group elements.

A homomorphism assigns one full-group element per generator.  Words act
on the left: the rightmost letter is applied first.  Orbits are read off
one labelling of the atoms by `labels.component_labels`, cached on the
homomorphism, never walked atom by atom.  Stabilizer traces
record which ball words fix an atom, stored as bitsets over the
canonical length-lex ball enumeration so trace equality is a byte
comparison; two rooted Schreier balls of radius R are isomorphic
exactly when the traces at radius 2R+1 agree.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .fullgroup import FullGroupElement, cycle_structure, uniform_metric
from .labels import component_labels
from .setops import sorted_unique
from .space import FiniteSpace, _frozen_array
from .words import ReducedWord, ball, reduce_letters


@dataclass(frozen=True, eq=False)
class Homomorphism:
    """Images of the free generators, acting on a common space."""

    space: FiniteSpace
    gens: tuple[FullGroupElement, ...]

    def __post_init__(self):
        if not self.gens:
            raise ValueError("need at least one generator image")
        object.__setattr__(self, "gens", tuple(self.gens))
        for g in self.gens:
            if g.space != self.space:
                raise ValueError("generator images live on different spaces")

    @property
    def rank(self) -> int:
        return len(self.gens)

    @cached_property
    def is_lean_aperiodic(self) -> bool:
        """Finite stand-in for aperiodicity: the first image is one full cycle."""
        return cycle_structure(self.gens[0]).is_single_cycle

    @cached_property
    def orbit_labels(self) -> np.ndarray:
        """Least atom of each atom's orbit, computed once per homomorphism."""
        return _frozen_array(component_labels([g.forward for g in self.gens], self.space.n_atoms))

    def generator(self, letter: int) -> FullGroupElement:
        """Image of a signed letter."""
        if letter == 0 or abs(letter) > self.rank:
            raise ValueError(f"letter {letter} out of range")
        g = self.gens[abs(letter) - 1]
        return g if letter > 0 else g.inv()

    def letter_image(self, letter: int, atom: int) -> int:
        g = self.gens[abs(letter) - 1]
        table = g.forward if letter > 0 else g.inverse
        return int(table[atom])

    def element_of(self, word: ReducedWord) -> FullGroupElement:
        """The image permutation of a word."""
        if word.rank != self.rank:
            raise ValueError("word rank does not match the homomorphism")
        result = FullGroupElement.identity(self.space)
        for letter in word.letters:
            result = result * self.generator(letter)
        return result

    def replace_generator(self, index: int, element: FullGroupElement) -> "Homomorphism":
        """Copy with the 0-based generator at index swapped out."""
        gens = list(self.gens)
        gens[index] = element
        return Homomorphism(self.space, tuple(gens))

    def __eq__(self, other):
        if not isinstance(other, Homomorphism):
            return NotImplemented
        return self.space == other.space and self.gens == other.gens

    def __hash__(self):
        return hash((self.space, self.gens))


def evaluate(hom: Homomorphism, word: ReducedWord, atom: int) -> int:
    """Apply a word to an atom, rightmost letter first."""
    if word.rank != hom.rank:
        raise ValueError("word rank does not match the homomorphism")
    for letter in reversed(word.letters):
        atom = hom.letter_image(letter, atom)
    return atom


def hom_metric(a: Homomorphism, b: Homomorphism) -> Fraction:
    """Largest uniform distance between corresponding generator images."""
    if a.space != b.space or a.rank != b.rank:
        raise ValueError("homomorphisms are not comparable")
    return max(uniform_metric(x, y) for x, y in zip(a.gens, b.gens))


def orbit(hom: Homomorphism, atom: int) -> frozenset[int]:
    """Atoms sharing the root's orbit label (see `Homomorphism.orbit_labels`)."""
    labels = hom.orbit_labels
    return frozenset(np.flatnonzero(labels == labels[atom]).tolist())


def orbits(hom: Homomorphism) -> list[tuple[int, ...]]:
    """All orbits, each sorted, listed by least atom."""
    labels = hom.orbit_labels
    order = np.argsort(labels, kind="stable")
    cuts = np.flatnonzero(np.diff(labels[order])) + 1
    return [tuple(part.tolist()) for part in np.split(order, cuts)]


def index_distribution(hom: Homomorphism) -> dict[int, Fraction]:
    """Measure of atoms lying on an orbit of each size."""
    n = hom.space.n_atoms
    sizes = np.bincount(hom.orbit_labels, minlength=n)
    totals = np.bincount(sizes[hom.orbit_labels])
    return {size: Fraction(int(t), n) for size, t in enumerate(totals.tolist()) if t}


# -- stabilizer traces ----------------------------------------------------


@dataclass(frozen=True)
class StabilizerTrace:
    """Bitset over the length-lex ball: bit i set iff ball word i fixes the atom."""

    rank: int
    radius: int
    bits: bytes

    def contains(self, word: ReducedWord) -> bool:
        i = ball(self.rank, self.radius).word_index(word)
        return bool(self.bits[i >> 3] & (0x80 >> (i & 7)))

    def words(self) -> tuple[ReducedWord, ...]:
        fb = ball(self.rank, self.radius)
        return tuple(w for i, w in enumerate(fb.words)
                     if self.bits[i >> 3] & (0x80 >> (i & 7)))

    def hex(self) -> str:
        return self.bits.hex()


def stabilizer_trace(hom: Homomorphism, atom: int, radius: int) -> StabilizerTrace:
    """Trace of one atom: the ball words fixing it."""
    fb = ball(hom.rank, radius)
    images = [0] * len(fb)
    images[0] = atom
    bits = bytearray((len(fb) + 7) // 8)
    bits[0] |= 0x80
    for i in range(1, len(fb)):
        img = hom.letter_image(int(fb.first_letter[i]), images[int(fb.parent[i])])
        images[i] = img
        if img == atom:
            bits[i >> 3] |= 0x80 >> (i & 7)
    return StabilizerTrace(hom.rank, radius, bytes(bits))


def trace_code_matrix(hom: Homomorphism, radius: int, chunk: int = 8192) -> np.ndarray:
    """Packed trace bitsets for every atom, one row per atom."""
    fb = ball(hom.rank, radius)
    table = {s * i: g.forward if s > 0 else g.inverse
             for i, g in enumerate(hom.gens, start=1) for s in (1, -1)}
    n = hom.space.n_atoms
    n_words = len(fb)
    codes = np.empty((n, (n_words + 7) // 8), dtype=np.uint8)
    for lo in range(0, n, chunk):
        hi = min(lo + chunk, n)
        atoms = np.arange(lo, hi)
        cols = np.empty((n_words, hi - lo), dtype=np.int64)
        cols[0] = atoms
        for i in range(1, n_words):
            cols[i] = table[int(fb.first_letter[i])][cols[int(fb.parent[i])]]
        fixed = cols == atoms[None, :]
        codes[lo:hi] = np.packbits(fixed.T, axis=1)
    return codes


def empirical_irs(hom: Homomorphism, radius: int) -> "EmpiricalIRS":
    """Distribution of stabilizer traces over the uniform atom."""
    codes = trace_code_matrix(hom, radius)
    counts = Counter(row.tobytes() for row in codes)
    n = hom.space.n_atoms
    weights = tuple(
        (StabilizerTrace(hom.rank, radius, bits), Fraction(c, n))
        for bits, c in sorted(counts.items())
    )
    return EmpiricalIRS(n_atoms=n, rank=hom.rank, radius=radius, weights=weights)


@dataclass(frozen=True)
class EmpiricalIRS:
    """Finitely supported trace distribution; weights are exact multiples of 1/N."""

    n_atoms: int
    rank: int
    radius: int
    weights: tuple[tuple[StabilizerTrace, Fraction], ...]

    def __post_init__(self):
        total = sum((w for _, w in self.weights), Fraction(0))
        if total != 1:
            raise ValueError("weights must sum to exactly 1")
        for _, w in self.weights:
            if (w * self.n_atoms).denominator != 1:
                raise ValueError("weights must be multiples of 1/n_atoms")

    def as_dict(self) -> dict[StabilizerTrace, Fraction]:
        return dict(self.weights)


def invariance_defect(hom: Homomorphism, radius: int) -> Fraction:
    """Largest total-variation gap between the trace distribution and any
    generator-conjugated one.  Exactly zero for every homomorphism; the
    conjugated membership tests are evaluated directly, not rewritten.
    """
    fb = ball(hom.rank, radius)
    n = hom.space.n_atoms
    base = Counter(row.tobytes() for row in trace_code_matrix(hom, radius))
    atoms = np.arange(n)
    worst = Fraction(0)
    for letter in [l for i in range(1, hom.rank + 1) for l in (i, -i)]:
        fixed = np.empty((len(fb), n), dtype=bool)
        for i, w in enumerate(fb.words):
            conj = reduce_letters(hom.rank, (-letter,) + w.letters + (letter,))
            fixed[i] = hom.element_of(conj).forward == atoms
        conj_counts = Counter(row.tobytes() for row in np.packbits(fixed.T, axis=1))
        l1 = sum(abs(base[k] - conj_counts[k]) for k in base.keys() | conj_counts.keys())
        worst = max(worst, Fraction(l1, 2 * n))
    return worst


# -- Schreier balls --------------------------------------------------------


def ball_atoms(hom: Homomorphism, root: int, radius: int) -> np.ndarray:
    """Atoms at word distance <= radius from the root, ascending."""
    inside = np.zeros(hom.space.n_atoms, dtype=bool)
    inside[root] = True
    frontier = np.array([root], dtype=np.int64)
    for _ in range(min(radius, hom.space.n_atoms)):
        step = np.concatenate([t[frontier] for g in hom.gens for t in (g.forward, g.inverse)])
        frontier = sorted_unique(step[~inside[step]])
        inside[frontier] = True
    return np.flatnonzero(inside)


@dataclass(frozen=True)
class SchreierBall:
    """Rooted labeled ball in the orbit graph of an action.

    Vertices are the atoms at word distance <= radius.  Every vertex has
    one outgoing edge per signed generator; edges leaving the ball carry
    an explicit reverse edge so each label appears with its inverse.
    """

    root: int
    radius: int
    vertices: tuple[int, ...]
    edges: tuple[tuple[int, int, int], ...]
    code: StabilizerTrace


def schreier_ball(hom: Homomorphism, root: int, radius: int) -> SchreierBall:
    """Materialize the radius-R ball at an atom with its 2R+1 trace code."""
    vertices = tuple(ball_atoms(hom, root, radius).tolist())
    vset = set(vertices)
    signed = [l for i in range(1, hom.rank + 1) for l in (i, -i)]
    edges = []
    for v in vertices:
        for letter in signed:
            t = hom.letter_image(letter, v)
            edges.append((v, letter, t))
            if t not in vset:
                edges.append((t, -letter, v))
    edges.sort(key=lambda e: (e[0], abs(e[1]), e[1] < 0, e[2]))
    code = stabilizer_trace(hom, root, 2 * radius + 1)
    return SchreierBall(root, radius, vertices, tuple(edges), code)


def balls_isomorphic(a: Homomorphism, x: int, b: Homomorphism, y: int, radius: int) -> bool:
    """Rooted label-isomorphism of radius-R balls via trace codes at 2R+1."""
    if a.rank != b.rank:
        raise ValueError("actions have different ranks")
    return stabilizer_trace(a, x, 2 * radius + 1) == stabilizer_trace(b, y, 2 * radius + 1)

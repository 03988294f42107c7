"""Actions of a free group by full-group elements.

A homomorphism assigns one full-group element per generator.  Words act
on the left: the rightmost letter is applied first.  Orbits are read off
one labelling of the atoms, cached on the homomorphism, never walked atom
by atom: the first generator's cycle labels (`labels.cycle_labels`, cached
on the element, which perturbation samples keep) are joined along the
other generators' edges by `labels.component_labels`.  Stabilizer traces
record which ball words fix an atom, stored as bitsets over the
canonical length-lex ball enumeration so trace equality is a byte
comparison.  Ball codes record, for each word of B(R+1), the least
word of B(R) reaching the same atom; two rooted Schreier balls of
radius R are isomorphic exactly when their codes agree.  Traces,
codes and the conjugated traces of the invariance check are all read
off one kernel of ball-word images, run over cache-sized chunks of atoms;
ball codes come one block per chunk, so a caller comparing two actions'
codes need not hold either code matrix.  The trace distribution is two
arrays, read off one sort of the rows' byte keys (`setops.row_keys`): the
distinct trace rows, one per run of equal keys, and each run's length, its
atom count; its (trace, weight) pairs are a view built on request.  The
invariance check compares each conjugated trace with the trace at the
image atom, pointwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from . import space
from .fullgroup import FullGroupElement, uniform_metric
from .labels import component_labels
from .setops import row_keys, sorted_unique
from .space import FiniteSpace, _frozen_array
from .words import FreeBall, ReducedWord, TraceBudgetError, _ball_size_bound, _check_radius, ball, ball_size

__all__ = [
    "EmpiricalIRS", "Homomorphism", "SchreierBall", "StabilizerTrace", "ball_codes", "empirical_irs",
    "evaluate", "hom_metric", "index_distribution", "invariance_defect", "orbit", "orbits",
    "schreier_ball", "trace_code_matrix",
]


@dataclass(frozen=True)
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
        """Finite stand-in for aperiodicity: the first image is one full cycle,
        so every atom's cycle label is atom 0."""
        return not self.gens[0].cycle_labels.any()

    @cached_property
    def orbit_labels(self) -> np.ndarray:
        """Least atom of each atom's orbit, computed once per homomorphism: the
        first generator's cached `cycle_labels` hooked along the other generators'
        edges, so a sample that keeps the first generator relabels no cycle of it."""
        first, *rest = self.gens
        return _frozen_array(component_labels([g.forward for g in rest], self.space.n_atoms,
                                              first.cycle_labels))

    @cached_property
    def tables(self) -> dict[int, np.ndarray]:
        """Permutation table of each signed letter, in the ball's order s1, s1^-1, s2, ..."""
        return {l: t for i, g in enumerate(self.gens, 1) for l, t in ((i, g.forward), (-i, g.inverse))}

    def generator(self, letter: int) -> FullGroupElement:
        """Image of a signed letter."""
        if letter == 0 or abs(letter) > self.rank:
            raise ValueError(f"letter {letter} out of range")
        g = self.gens[abs(letter) - 1]
        return g if letter > 0 else g.inv()

    def element_of(self, word: ReducedWord) -> FullGroupElement:
        """The image permutation of a word, read off its rightmost letter's table and
        gathered through the others': no atom array, and no inverse the word does not use."""
        if word.rank != self.rank:
            raise ValueError("word rank does not match the homomorphism")
        if not word.letters:
            return FullGroupElement.identity(self.space)
        *rest, last = word.letters
        element = self.generator(last)
        if not rest:
            return element
        images = element.forward
        for letter in reversed(rest):
            images = self.generator(letter).forward[images]
        images.setflags(write=False)
        return FullGroupElement(self.space, images)

    def replace_generator(self, index: int, element: FullGroupElement) -> "Homomorphism":
        """Copy with the 0-based generator at index swapped out."""
        if not 0 <= index < self.rank:
            raise ValueError(f"generator index {index} is not in [0, {self.rank})")
        gens = list(self.gens)
        gens[index] = element
        return Homomorphism(self.space, tuple(gens))


def evaluate(hom: Homomorphism, word: ReducedWord, atom):
    """Apply a word to one atom or an array of atoms, gathering through one
    letter's table at a time, rightmost letter first, read as `element_of`
    reads them: no inverse the word does not use.  One atom gives an int; an
    array gives a new flat int64 array of the images, in the atoms' order."""
    if word.rank != hom.rank:
        raise ValueError("word rank does not match the homomorphism")
    images = hom.space.checked_atoms(atom).copy()  # a new array, even for the empty word
    for letter in reversed(word.letters):
        images = hom.generator(letter).forward[images]
    return int(images[0]) if np.ndim(atom) == 0 else images


def hom_metric(a: Homomorphism, b: Homomorphism) -> Fraction:
    """Largest uniform distance between corresponding generator images."""
    if a.space != b.space or a.rank != b.rank:
        raise ValueError("homomorphisms are not comparable")
    return max(uniform_metric(x, y) for x, y in zip(a.gens, b.gens))


def orbit(hom: Homomorphism, atom: int) -> frozenset[int]:
    """Atoms sharing the root's orbit label (see `Homomorphism.orbit_labels`)."""
    labels = hom.orbit_labels
    return frozenset(np.flatnonzero(labels == labels[_atom(hom, atom)]).tolist())


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


# bytes of int64 ball-word images per chunk of atoms: a chunk's ball codes take the
# images and under two more blocks their size (`_chunk_codes`), so a chunk stays cache-sized
_CHUNK_BYTES = 512 << 10


def _atom(hom: Homomorphism, atom) -> int:
    """One atom as an int, refused as by `FiniteSpace.checked_atoms` outside [0, n)."""
    (atom,) = hom.space.checked_atoms(atom)
    return int(atom)


def _check_rows(what: str, radius: int, atoms: int, row_bytes: int, shift: int) -> None:
    """Raise `TraceBudgetError` when atoms rows of row_bytes * 2^shift pass the byte budget."""
    space._check_budget(atoms * row_bytes, TraceBudgetError, "{what} at radius {radius} need {need} bytes for "
                        "{atoms} atom{s}", shift, what=what, radius=radius, atoms=atoms, s="s" * (atoms != 1))


def _check_trace_rows(hom: Homomorphism, radius: int) -> None:
    """Refuse packed trace rows, |B(R)| bits each rounded up to bytes, for every atom past the byte budget."""
    size, shift = _ball_size_bound(hom.rank, radius)
    row_bytes, shift = (size, shift - 3) if shift else (-(-size // 8), 0)
    _check_rows("trace rows", radius, hom.space.n_atoms, row_bytes, shift)


def _code_sizes(hom: Homomorphism, radius: int, atoms: int) -> tuple[int, int]:
    """|B(R)| and |B(R+1)|, after refusing a negative radius, ball codes for that
    many atoms past the byte budget, then the ball of radius R+1 they are read off."""
    _check_radius(radius)
    (inner, _), (outer, shift) = (_ball_size_bound(hom.rank, r) for r in (radius, radius + 1))
    _check_rows("ball codes", radius, atoms, outer * np.min_scalar_type(inner).itemsize, shift)
    outer = len(ball(hom.rank, radius + 1))  # first, so a ball past the budget is never sized exactly
    return ball_size(hom.rank, radius), outer


def _ball_images(hom: Homomorphism, radius: int, atoms=None):
    """Yield (chunk, images) over chunks of the int64 atoms (default all), where
    images[j, i] is length-lex ball word i applied to atom chunk[j]."""
    fb = ball(hom.rank, radius)
    cuts = [*(np.flatnonzero(np.diff(fb.first_letter)) + 1).tolist(), len(fb)]
    atoms = np.arange(hom.space.n_atoms) if atoms is None else atoms
    size = max(1, _CHUNK_BYTES // (8 * len(fb)))
    for start in range(0, atoms.size, size):
        chunk = atoms[start:start + size]
        yield chunk, _word_images(hom, fb, cuts, chunk)  # no reference is kept across the yield


def _word_images(hom: Homomorphism, fb: FreeBall, cuts: list[int], chunk: np.ndarray) -> np.ndarray:
    """images[j, i] = ball word i of fb applied to atom chunk[j]; cuts bound the
    runs of words sharing a first letter."""
    cols = np.empty((len(fb), chunk.size), dtype=np.int64)
    cols[0] = chunk
    for lo, hi in zip(cuts, cuts[1:]):  # words sharing a first letter, all in one layer
        cols[lo:hi] = hom.tables[int(fb.first_letter[lo])][cols[fb.parent[lo:hi]]]
    return cols.T


def trace_code_matrix(hom: Homomorphism, radius: int) -> np.ndarray:
    """Packed trace bitsets for every atom, one row per atom.

    Raises `TraceBudgetError` before the ball is built when the rows pass the byte budget.
    """
    _check_trace_rows(hom, radius)
    return np.concatenate([np.packbits(images == chunk[:, None], axis=1)
                           for chunk, images in _ball_images(hom, radius)])


def _code_blocks(hom: Homomorphism, radius: int, atoms: np.ndarray, inner: int, outer: int):
    """Yield the ball-code rows (see `ball_codes`) of the checked int64 atoms, one
    block per `_ball_images` chunk; inner and outer are `_code_sizes`' |B(R)| and |B(R+1)|.
    Only the yielded block is alive while the generator is suspended."""
    for _, images in _ball_images(hom, radius + 1, atoms):
        block = _chunk_codes(images, inner, outer)
        del images
        yield block


def _chunk_codes(images: np.ndarray, inner: int, outer: int) -> np.ndarray:
    """Ball-code rows of one chunk from its B(R+1) word images, one row per atom.

    Each row's keys atom << bits | word are sorted in place, so every run of
    one atom starts at its least word; that word, clipped to |B(R)|, is the
    code of each word in the run.  Besides the images and the returned block,
    one int64 block of keys and two blocks of one- or two-byte word indices
    are held at once: under two int64 blocks in all.
    """
    bits = (outer - 1).bit_length()
    words = np.arange(outer)
    keys = np.left_shift(images, bits, out=np.empty(images.shape, dtype=np.int64))
    keys |= words
    keys.sort(axis=1)
    word = np.empty(keys.shape, dtype=np.min_scalar_type(outer - 1))
    np.bitwise_and(keys, (1 << bits) - 1, out=word, casting="unsafe")
    keys >>= bits  # the atoms, ascending along each row
    start = keys[:, 1:] != keys[:, :-1]  # a run starts at column 0 and wherever the atom changes
    keys[:, 0] = 0
    np.multiply(start, words[1:], out=keys[:, 1:])
    np.maximum.accumulate(keys, axis=1, out=keys)  # the column of each run's head
    first = np.take_along_axis(word, keys, axis=1)
    del keys, start  # freed before the block and the scatter's temporaries are allocated
    np.minimum(first, inner, out=first)
    block = np.empty(word.shape, dtype=np.min_scalar_type(inner))
    np.put_along_axis(block, word, first, axis=1)
    return block


def ball_codes(hom: Homomorphism, radius: int, atoms=None) -> np.ndarray:
    """First-occurrence codes of rooted radius-R Schreier balls, one row per atom.

    Entry w is the least B(R) word reaching the atom the B(R+1) word w
    reaches, or |B(R)| if none does.  A row fixes which word pairs collide
    at the root, so two rooted balls are label-isomorphic iff their rows agree.
    The atoms default to all; an empty list gives an empty code matrix.
    """
    atoms = np.arange(hom.space.n_atoms) if atoms is None else hom.space.checked_atoms(atoms)
    inner, outer = _code_sizes(hom, radius, atoms.size)
    codes = np.empty((atoms.size, outer), dtype=np.min_scalar_type(inner))
    start = 0
    for block in _code_blocks(hom, radius, atoms, inner, outer):
        codes[start:start + len(block)] = block
        start += len(block)
    return codes


def empirical_irs(hom: Homomorphism, radius: int) -> "EmpiricalIRS":
    """Distribution of stabilizer traces over the uniform atom: the distinct trace
    rows by ascending bytes, each with its atom count, read off one in-place sort
    of the rows' keys, where each run of equal keys is one row and its count."""
    keys = row_keys(trace_code_matrix(hom, radius))
    keys.sort()
    starts = np.flatnonzero(np.concatenate([[True], keys[1:] != keys[:-1]]))
    rows = keys[starts].view(np.uint8).reshape(starts.size, -1)
    return EmpiricalIRS(hom.space.n_atoms, hom.rank, radius, rows, np.diff(starts, append=keys.size))


@dataclass(frozen=True, eq=False)
class EmpiricalIRS:
    """Finitely supported trace distribution: read-only copies of the distinct packed
    trace rows, ascending by bytes, and of their atom counts; row i weighs counts[i]/n_atoms."""

    n_atoms: int
    rank: int
    radius: int
    rows: np.ndarray
    counts: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "rows", _frozen_array(self.rows, np.uint8))
        object.__setattr__(self, "counts", _frozen_array(self.counts))
        size, shift = _ball_size_bound(self.rank, self.radius)  # a huge ball is refused unsized
        if shift or self.rows.ndim != 2 or self.rows.shape[1] != -(-size // 8):
            raise ValueError("rows must be trace rows of the distribution's rank and radius")
        if self.counts.shape != self.rows.shape[:1] or (self.counts <= 0).any():
            raise ValueError("counts must be one positive count per row")
        if self.n_atoms < 1 or sum(self.counts.tolist()) != self.n_atoms:  # Python ints: no int64 wrap
            raise ValueError("counts must sum to n_atoms, at least 1")
        keys = row_keys(self.rows)
        if not np.array_equal(np.sort(keys), keys) or (keys[1:] == keys[:-1]).any():
            raise ValueError("rows must strictly ascend by bytes")

    @cached_property
    def weights(self) -> tuple[tuple[StabilizerTrace, Fraction], ...]:
        """(trace, weight) pairs in row order, built when first read."""
        weight = {c: Fraction(c, self.n_atoms) for c in set(self.counts.tolist())}  # rows share few counts
        return tuple((StabilizerTrace(self.rank, self.radius, row.tobytes()), weight[c])
                     for row, c in zip(self.rows, self.counts.tolist()))


def _conjugate_rows(hom: Homomorphism, radius: int):
    """Yield (letter, x, fixed, traced) for each signed letter s on each chunk
    of the ball-word images kernel, y = s(x[j]) being chunk atom j: fixed[j, i]
    says whether s^-1 w s fixes x[j], for ball word i = w, evaluated as
    s^-1(w(y)), and traced[j, i] whether w fixes y (one block per chunk).
    Over all chunks, x runs through every atom once per letter.
    """
    for chunk, images in _ball_images(hom, radius):
        traced = images == chunk[:, None]
        for letter, step in hom.tables.items():
            back = hom.tables[-letter]
            x = back[chunk]
            if not np.array_equal(step[x], chunk):
                raise AssertionError(f"the tables of letters {letter} and {-letter} are not inverse")
            yield letter, x, back[images] == x[:, None], traced


def invariance_defect(hom: Homomorphism, radius: int) -> Fraction:
    """Largest total-variation gap between the trace distribution and any
    generator-conjugated one, certified pointwise by Stab(s x) = s Stab(x) s^-1.

    For each signed letter s and atom x, the trace of the conjugates
    s^-1 w s at x must equal the trace of w at s(x), row for row; x -> s(x)
    is a bijection of the uniform atoms, so the two distributions agree
    exactly and the gap is 0.  A row that differs is a broken invariant and
    raises `AssertionError`.  Once the letter tables pass as inverse no row
    can differ, yet criterion 07 stays a computed, direct evaluation, not an
    assertion: each conjugate is applied to x letter by letter, w to s(x) on
    the ball-word images kernel and then s^-1, in one kernel pass for every
    letter (see `_conjugate_rows`).

    Raises `TraceBudgetError` before the ball is built when trace rows pass the byte budget.
    """
    _check_trace_rows(hom, radius)
    for letter, _, fixed, traced in _conjugate_rows(hom, radius):
        if not np.array_equal(fixed, traced):
            raise AssertionError(f"the trace of s^-1 w s at x differs from that of w at s(x), s = {letter}")
    return Fraction(0)


# -- Schreier balls --------------------------------------------------------


def ball_atoms(hom: Homomorphism, root, radius: int) -> np.ndarray:
    """Atoms at word distance <= radius from the root, ascending.  The root
    may be one atom or an array of atoms, whose balls are united."""
    _check_radius(radius)
    frontier = hom.space.checked_atoms(root)
    inside = np.zeros(hom.space.n_atoms, dtype=bool)
    inside[frontier] = True
    for _ in range(radius):
        step = np.concatenate([t[frontier] for t in hom.tables.values()])
        frontier = sorted_unique(step[~inside[step]])
        if frontier.size == 0:
            break
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
    code: bytes


def schreier_ball(hom: Homomorphism, root: int, radius: int) -> SchreierBall:
    """Materialize the radius-R ball at an atom with its ball code (see `ball_codes`),
    the code first, so a radius past its byte budget is refused before any edge is built."""
    code = ball_codes(hom, radius, [root]).tobytes()
    vertices = tuple(ball_atoms(hom, root, radius).tolist())
    vset = set(vertices)
    edges = []
    for v in vertices:
        for letter, table in hom.tables.items():
            t = int(table[v])
            edges.append((v, letter, t))
            if t not in vset:
                edges.append((t, -letter, v))
    edges.sort(key=lambda e: (e[0], abs(e[1]), e[1] < 0, e[2]))
    return SchreierBall(root, radius, vertices, tuple(edges), code)

"""Actions of a free group by full-group elements.

A homomorphism assigns one full-group element per generator.  Words act
on the left: the rightmost letter is applied first.  Orbits are read off
one labelling of the atoms by `labels.component_labels`, cached on the
homomorphism, never walked atom by atom.  Stabilizer traces
record which ball words fix an atom, stored as bitsets over the
canonical length-lex ball enumeration so trace equality is a byte
comparison.  Ball codes record, for each word of B(R+1), the least
word of B(R) reaching the same atom; two rooted Schreier balls of
radius R are isomorphic exactly when their codes agree.  Traces,
codes and the conjugated traces of the invariance check are all read
off one kernel of ball-word images.  The distinct trace rows and their
counts are sorted once per (hom, R) with `setops.row_ids` and cached on
the homomorphism; the trace distribution is read off that table, and
the conjugated rows are counted into it by binary search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from . import space
from .fullgroup import FullGroupElement, cycle_structure, uniform_metric
from .labels import component_labels
from .setops import row_ids, row_keys, sorted_unique
from .space import FiniteSpace, _frozen_array
from .words import ReducedWord, TraceBudgetError, ball, ball_size


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
        """Finite stand-in for aperiodicity: the first image is one full cycle."""
        return cycle_structure(self.gens[0]).is_single_cycle

    @cached_property
    def orbit_labels(self) -> np.ndarray:
        """Least atom of each atom's orbit, computed once per homomorphism."""
        return _frozen_array(component_labels([g.forward for g in self.gens], self.space.n_atoms))

    @cached_property
    def tables(self) -> dict[int, np.ndarray]:
        """Permutation table of each signed letter, in the ball's order s1, s1^-1, s2, ..."""
        return {l: t for i, g in enumerate(self.gens, 1) for l, t in ((i, g.forward), (-i, g.inverse))}

    @cached_property
    def _trace_tables(self) -> dict[int, tuple[np.ndarray, np.ndarray]]:
        """Per radius, the distinct trace rows and their counts (see `_trace_table`)."""
        return {}

    def generator(self, letter: int) -> FullGroupElement:
        """Image of a signed letter."""
        if letter == 0 or abs(letter) > self.rank:
            raise ValueError(f"letter {letter} out of range")
        g = self.gens[abs(letter) - 1]
        return g if letter > 0 else g.inv()

    def letter_image(self, letter: int, atom: int) -> int:
        if letter not in self.tables:
            raise ValueError(f"letter {letter} out of range")
        return int(self.tables[letter][atom])

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
        if not 0 <= index < self.rank:
            raise ValueError(f"generator index {index} is not in [0, {self.rank})")
        gens = list(self.gens)
        gens[index] = element
        return Homomorphism(self.space, tuple(gens))


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
        return tuple(w for w in ball(self.rank, self.radius).words if self.contains(w))

    def hex(self) -> str:
        return self.bits.hex()


_CHUNK_BYTES = 4 << 20  # bytes of int64 ball-word images per chunk of atoms


def _atoms(hom: Homomorphism, atoms) -> np.ndarray:
    """The atoms (one or an array) as an int64 array, refusing any outside [0, n)."""
    atoms, n = np.asarray(atoms).reshape(-1), hom.space.n_atoms
    bad = (atoms < 0) | (atoms >= n)
    if bad.any():
        raise ValueError(f"atom {int(atoms[bad][0])} is not in [0, {n})")
    return atoms.astype(np.int64, copy=False)


def _check_rows(what: str, radius: int, atoms: int, row_bytes: int) -> None:
    """Raise `TraceBudgetError` when atoms rows of row_bytes pass the byte budget."""
    need = atoms * row_bytes
    if need > space._BYTE_BUDGET:
        raise TraceBudgetError(f"{what} at radius {radius} need {space._count(need)} bytes for "
                               f"{atoms} atom{'s' * (atoms != 1)}, over the budget of {space._BYTE_BUDGET}")


def _code_sizes(hom: Homomorphism, radius: int, atoms: int) -> tuple[int, int]:
    """|B(R)| and |B(R+1)|, after refusing a negative radius, or ball codes
    for that many atoms past the byte budget."""
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    inner, outer = ball_size(hom.rank, radius), ball_size(hom.rank, radius + 1)
    _check_rows("ball codes", radius, atoms, outer * np.min_scalar_type(inner).itemsize)
    return inner, outer


def _ball_images(hom: Homomorphism, radius: int, atoms=None):
    """Yield (chunk, images) over chunks of the int64 atoms (default all), where
    images[j, i] is length-lex ball word i applied to atom chunk[j]."""
    fb = ball(hom.rank, radius)
    cuts = [*(np.flatnonzero(np.diff(fb.first_letter)) + 1).tolist(), len(fb)]
    atoms = np.arange(hom.space.n_atoms) if atoms is None else atoms
    size = max(1, _CHUNK_BYTES // (8 * len(fb)))
    for start in range(0, atoms.size, size):
        chunk = atoms[start:start + size]
        cols = np.empty((len(fb), chunk.size), dtype=np.int64)
        cols[0] = chunk
        for lo, hi in zip(cuts, cuts[1:]):  # words sharing a first letter, all in one layer
            cols[lo:hi] = hom.tables[int(fb.first_letter[lo])][cols[fb.parent[lo:hi]]]
        yield chunk, cols.T


def stabilizer_trace(hom: Homomorphism, atom: int, radius: int) -> StabilizerTrace:
    """Trace of one atom: the ball words fixing it."""
    ((_, images),) = _ball_images(hom, radius, _atoms(hom, atom))
    return StabilizerTrace(hom.rank, radius, np.packbits(images[0] == atom).tobytes())


def trace_code_matrix(hom: Homomorphism, radius: int) -> np.ndarray:
    """Packed trace bitsets for every atom, one row per atom.

    Raises `TraceBudgetError` before the ball is built when the rows pass the byte budget.
    """
    _check_rows("trace rows", radius, hom.space.n_atoms, -(-ball_size(hom.rank, radius) // 8))
    return np.concatenate([np.packbits(images == chunk[:, None], axis=1)
                           for chunk, images in _ball_images(hom, radius)])


def ball_codes(hom: Homomorphism, radius: int, atoms=None) -> np.ndarray:
    """First-occurrence codes of rooted radius-R Schreier balls, one row per atom.

    Entry w is the least B(R) word reaching the atom the B(R+1) word w
    reaches, or |B(R)| if none does.  A row fixes which word pairs collide
    at the root, so two rooted balls are label-isomorphic iff their rows agree.
    The atoms default to all; an empty list gives an empty code matrix.
    """
    n = hom.space.n_atoms
    atoms = np.arange(n) if atoms is None else _atoms(hom, atoms)
    inner, outer = _code_sizes(hom, radius, atoms.size)
    words = np.arange(outer)
    codes = np.empty((atoms.size, outer), dtype=np.min_scalar_type(inner))
    start = 0
    for chunk, images in _ball_images(hom, radius + 1, atoms):
        # sorted (row, atom, word) keys: each run of one (row, atom) starts at its least word
        keys = np.sort((images + n * np.arange(chunk.size)[:, None]) * words.size + words, None)
        slot, word = np.divmod(keys, words.size)  # slot = row * n + atom
        head = np.maximum.accumulate(np.where(np.diff(slot, prepend=-1), np.arange(slot.size), 0))
        block = codes[start:start + chunk.size]
        block[slot // n, word] = np.minimum(word[head], inner)
        start += chunk.size
    return codes


def _trace_table(hom: Homomorphism, radius: int) -> tuple[np.ndarray, np.ndarray]:
    """The distinct packed trace rows in ascending byte order, and how many
    atoms hold each; built once per (hom, radius) and cached on the hom."""
    cached = hom._trace_tables.get(radius)
    if cached is None:
        rows = trace_code_matrix(hom, radius)
        ids, count = row_ids(rows)
        table = np.empty((count, rows.shape[1]), dtype=np.uint8)
        table[ids] = rows
        cached = hom._trace_tables[radius] = (table, np.bincount(ids, minlength=count))
    return cached


def empirical_irs(hom: Homomorphism, radius: int) -> "EmpiricalIRS":
    """Distribution of stabilizer traces over the uniform atom, by ascending bytes."""
    table, counts = _trace_table(hom, radius)
    n, counts = hom.space.n_atoms, counts.tolist()
    weight = {c: Fraction(c, n) for c in set(counts)}  # traces share few counts
    weights = tuple(
        (StabilizerTrace(hom.rank, radius, row.tobytes()), weight[c])
        for row, c in zip(table, counts)
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
        # integers over the common denominator: ~23k Fraction additions took ~0.1 s
        common = math.lcm(*(w.denominator for _, w in self.weights))
        if sum(w.numerator * (common // w.denominator) for _, w in self.weights) != common:
            raise ValueError("weights must sum to exactly 1")
        if any(self.n_atoms % w.denominator for _, w in self.weights):
            raise ValueError("weights must be multiples of 1/n_atoms")
        if any(w.numerator <= 0 for _, w in self.weights):
            raise ValueError("weights must be positive")
        if len({t for t, _ in self.weights}) != len(self.weights):
            raise ValueError("traces must not repeat")

    def as_dict(self) -> dict[StabilizerTrace, Fraction]:
        return dict(self.weights)


def _conjugate_rows(hom: Homomorphism, radius: int):
    """Yield (letter, x, rows) for each signed letter s on each chunk of the
    ball-word images kernel: bit i of rows[j] is set iff s^-1 w s fixes x[j],
    for ball word i = w, evaluated as s^-1(w(y)) at y = s(x[j]), a chunk atom.
    Over all chunks, x runs through every atom once per letter.
    """
    for chunk, images in _ball_images(hom, radius):
        for letter, step in hom.tables.items():
            back = hom.tables[-letter]
            x = back[chunk]
            if not np.array_equal(step[x], chunk):
                raise AssertionError(f"the tables of letters {letter} and {-letter} are not inverse")
            yield letter, x, np.packbits(back[images] == x[:, None], axis=1)


def _conjugate_gaps(hom: Homomorphism, radius: int) -> dict[int, int]:
    """Per signed letter, the L1 distance in atoms between the trace counts
    and the counts of the traces conjugated by that letter.  Conjugated rows
    are counted by binary search into the cached table of distinct traces;
    a row missing from it adds one atom to the gap, its base count being 0.
    """
    table, counts = _trace_table(hom, radius)
    keys = row_keys(table)
    conjugated = {letter: np.zeros(keys.size, dtype=np.int64) for letter in hom.tables}
    missing = dict.fromkeys(hom.tables, 0)
    for letter, _, rows in _conjugate_rows(hom, radius):
        probe = row_keys(rows)
        at = np.minimum(np.searchsorted(keys, probe), keys.size - 1)
        found = keys[at] == probe
        conjugated[letter] += np.bincount(at[found], minlength=keys.size)
        missing[letter] += probe.size - int(np.count_nonzero(found))
    return {l: int(np.abs(counts - c).sum()) + missing[l] for l, c in conjugated.items()}


def invariance_defect(hom: Homomorphism, radius: int) -> Fraction:
    """Largest total-variation gap between the trace distribution and any
    generator-conjugated one.  Exactly zero for every homomorphism; the
    conjugated membership tests are evaluated directly, not rewritten:
    each conjugate s^-1 w s is applied to x letter by letter, w to s(x)
    on the ball-word images kernel and then s^-1.  One pass of the kernel
    serves every letter (see `_conjugate_gaps`).
    """
    return Fraction(max(_conjugate_gaps(hom, radius).values()), 2 * hom.space.n_atoms)


# -- Schreier balls --------------------------------------------------------


def ball_atoms(hom: Homomorphism, root, radius: int) -> np.ndarray:
    """Atoms at word distance <= radius from the root, ascending.  The root
    may be one atom or an array of atoms, whose balls are united."""
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    frontier = _atoms(hom, root)
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
    """Materialize the radius-R ball at an atom with its ball code (see `ball_codes`)."""
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
    code = ball_codes(hom, radius, [root]).tobytes()
    return SchreierBall(root, radius, vertices, tuple(edges), code)


def balls_isomorphic(a: Homomorphism, x: int, b: Homomorphism, y: int, radius: int) -> bool:
    """Rooted label-isomorphism of radius-R balls: the roots' ball codes agree."""
    if a.rank != b.rank:
        raise ValueError("actions have different ranks")
    return np.array_equal(ball_codes(a, radius, [x]), ball_codes(b, radius, [y]))

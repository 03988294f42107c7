"""Finite uniform probability spaces carrying an equivalence relation.

Atoms are the integers 0..n_atoms-1, each of measure 1/n_atoms.  The
equivalence relation is stored as a class id per atom, and read back
as sorted atom lists per class or, for vectorized per-class work, as
one atom matrix per run of consecutive equal-size classes.  An optional
dyadic filtration marks the space as explicitly hyperfinite: level j
groups the atoms into consecutive blocks of size 2**j, level 0 is the
discrete partition, and every top-level block must lie inside a single
class.  The two constructors give the deepest filtration the classes
allow; `FiniteSpace(n, class_of, None)` is a space with none.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .setops import sorted_unique

_BYTE_BUDGET = 1 << 28  # the one size guard: `_check_budget` reads it at call time for every kernel


def _count(count: int, shift: int = 0) -> str:
    """A refused count times 2^shift in decimal, or past 64 bits the signed power of two it
    reaches, so no refusal formats a number past Python's int-to-str limit or builds 2^shift."""
    if count == 0 or count.bit_length() + shift <= 64:
        return str(count << shift)
    return f"{'at least ' if count > 0 else 'at most -'}2^{count.bit_length() - 1 + shift}"


def _atom_text(atom: int) -> str:
    """A refused atom in decimal, or as `_count` shows it past Python's int-to-str limit."""
    try:
        return str(atom)
    except ValueError:
        return _count(atom)


def _integer_atoms(atoms) -> np.ndarray:
    """The atoms (one or a collection) as a flat array, refusing any that is not an integer.

    Any iterable other than an array, list, tuple or string (a set, a range, a
    generator) is listed first.  An empty list, which numpy reads as float64, is
    no atoms; integers beyond int64 stay Python ints in an object array, for the
    caller's range check.
    """
    if isinstance(atoms, Iterable) and not isinstance(atoms, (np.ndarray, list, tuple, str, bytes)):
        atoms = list(atoms)
    array = np.asarray(atoms).reshape(-1)
    listed = isinstance(atoms, (list, tuple))  # scanned as given, so a refusal names the item
    if array.dtype.kind not in "iu":
        suspects = atoms if listed else array.tolist()
    elif listed and not {bool, np.bool_}.isdisjoint(map(type, atoms)):
        suspects = atoms  # numpy reads a bool among ints as an int
    else:
        suspects = ()
    for atom in suspects:
        if type(atom) is bool or not isinstance(atom, (int, np.integer)):
            value = atom.item() if isinstance(atom, np.generic) else atom
            raise ValueError(f"atom {value!r} is not an integer")
    return array


def _check_budget(need: int, error: type[ValueError], head: str, shift: int = 0, **fields) -> None:
    """Refuse need * 2^shift bytes past the byte budget, read at call time: raise
    error with head, formatted with the fields and the bytes (shown by `_count`),
    and the budget.  Bit lengths are compared first, so a huge shift is never expanded."""
    if need > 0 and (need.bit_length() + shift > _BYTE_BUDGET.bit_length() or need << shift > _BYTE_BUDGET):
        raise error(f"{head.format(need=_count(need, shift), **fields)}, over the budget of {_BYTE_BUDGET}")


def _atom_count(n_atoms: int) -> int:
    """n_atoms, checked before one int64 class id per atom is allocated."""
    if n_atoms < 1:
        raise ValueError("space needs at least one atom")
    _check_budget(8 * n_atoms, ValueError, "{atoms} atoms need {need} bytes", atoms=_count(n_atoms))
    return n_atoms


def _frozen_array(values, dtype=np.int64) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


def _max_dyadic_levels(sizes: Sequence[int]) -> int:
    """Largest j such that every size is divisible by 2**j."""
    if not sizes or min(sizes) < 1:
        raise ValueError("class sizes must be positive")
    return min((int(s) & -int(s)).bit_length() - 1 for s in sizes)  # s & -s: the least set bit


@dataclass(frozen=True, eq=False)
class FiniteSpace:
    """Uniform atoms 0..n_atoms-1 with a class id per atom."""

    n_atoms: int
    class_of: np.ndarray
    filtration_levels: int | None = None

    def __post_init__(self):
        if self.n_atoms < 1:
            raise ValueError("space needs at least one atom")
        object.__setattr__(self, "class_of", _frozen_array(self.class_of))
        if self.class_of.shape != (self.n_atoms,):
            raise ValueError("class_of must assign one class id per atom")
        n_classes = int(self.class_of.max()) + 1
        if int(self.class_of.min()) < 0:
            raise ValueError("class ids must be nonnegative")
        counts = np.bincount(self.class_of, minlength=n_classes)
        if (counts == 0).any():
            raise ValueError("class ids must be 0..k-1 with no empty class")
        levels = self.filtration_levels
        if levels is not None:
            if levels < 0:
                raise ValueError("filtration level count must be nonnegative")
            if levels > int(self.n_atoms).bit_length() or self.n_atoms % 2 ** levels != 0:
                raise ValueError("atom count must be divisible by the top block size")
            width = 2 ** levels
            blocks = self.class_of.reshape(-1, width)
            if (blocks != blocks[:, :1]).any():
                raise ValueError("top filtration blocks must lie inside one class")

    # -- constructors ------------------------------------------------

    @staticmethod
    def single_class(n_atoms: int) -> "FiniteSpace":
        """Space whose relation has one class covering every atom, with the
        deepest dyadic filtration n_atoms allows."""
        _atom_count(n_atoms)
        return FiniteSpace(n_atoms, np.zeros(n_atoms, dtype=np.int64), _max_dyadic_levels([n_atoms]))

    @staticmethod
    def from_class_sizes(sizes: Sequence[int]) -> "FiniteSpace":
        """Space with classes given by consecutive runs of the stated sizes, with
        the deepest dyadic filtration whose blocks lie inside the classes."""
        if not sizes or any(s < 1 for s in sizes):
            raise ValueError("class sizes must be positive")
        n_atoms = _atom_count(int(sum(sizes)))
        ids = np.repeat(np.arange(len(sizes), dtype=np.int64), list(sizes))
        return FiniteSpace(n_atoms, ids, _max_dyadic_levels(list(sizes)))

    # -- queries -----------------------------------------------------

    @property
    def class_count(self) -> int:
        return int(self.class_of.max()) + 1

    @property
    def is_single_class(self) -> bool:
        return self.class_count == 1

    @cached_property
    def class_runs(self) -> tuple[np.ndarray, ...]:
        """One read-only (classes x size) atom matrix per run of consecutive
        class ids of one size; its rows are the run's classes in id order,
        each listing its atoms ascending."""
        order = np.argsort(self.class_of, kind="stable")
        sizes = np.bincount(self.class_of)
        starts = np.concatenate([[0], np.cumsum(sizes)])
        cuts = [0, *(np.flatnonzero(np.diff(sizes)) + 1).tolist(), sizes.size]
        runs = tuple(order[starts[lo]:starts[hi]].reshape(hi - lo, sizes[lo])
                     for lo, hi in zip(cuts, cuts[1:]))
        for run in runs:
            run.setflags(write=False)
        return runs

    @cached_property
    def _classes(self) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(atoms) for run in self.class_runs for atoms in run.tolist())

    def classes(self) -> tuple[tuple[int, ...], ...]:
        """Atoms of each class, sorted, indexed by class id."""
        return self._classes

    def checked_atoms(self, atoms) -> np.ndarray:
        """The atoms (one or an array) as int64, refusing a non-integer or any outside [0, n)."""
        atoms = _integer_atoms(atoms)
        bad = (atoms < 0) | (atoms >= self.n_atoms)
        if bad.any():
            raise ValueError(f"atom {_atom_text(int(atoms[bad][0]))} is not in [0, {self.n_atoms})")
        return atoms.astype(np.int64, copy=False)

    def block_index(self, level: int) -> np.ndarray:
        """Filtration block id of every atom at the given level."""
        if self.filtration_levels is None:
            raise ValueError("space has no filtration")
        if not 0 <= level <= self.filtration_levels:
            raise ValueError(f"level must be in 0..{self.filtration_levels}")
        return np.arange(self.n_atoms) // (2 ** level)

    def measure(self, atoms: Iterable[int] | int) -> Fraction:
        """Exact measure of an atom set, refused as by `checked_atoms`, or of a
        count of atoms in [0, n]."""
        if not isinstance(atoms, (int, np.integer)):
            return Fraction(sorted_unique(self.checked_atoms(atoms)).size, self.n_atoms)
        if not 0 <= atoms <= self.n_atoms:
            raise ValueError(f"count {_atom_text(atoms)} is not in [0, {self.n_atoms}]")
        return Fraction(atoms, self.n_atoms)

    def __eq__(self, other):
        if not isinstance(other, FiniteSpace):
            return NotImplemented
        return (
            self.n_atoms == other.n_atoms
            and self.filtration_levels == other.filtration_levels
            and np.array_equal(self.class_of, other.class_of)
        )

    def __hash__(self):
        return hash((self.n_atoms, self.filtration_levels, self.class_of.tobytes()))

    def __repr__(self):
        return (
            f"FiniteSpace(n_atoms={self.n_atoms}, classes={self.class_count}, "
            f"filtration_levels={self.filtration_levels})"
        )

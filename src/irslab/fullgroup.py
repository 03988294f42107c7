"""Class-preserving permutations of a finite space, with exact metric.

A full-group element is a bijection of the atoms that moves every atom
within its own class.  An element is its forward table, its inverse
derived on first read; elements compose by array gather and measure distance
by the exact fraction of atoms on which two elements disagree.  No floats anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .labels import cycle_labels, cycle_positions
from .space import FiniteSpace, _check_budget, _frozen_array


@dataclass(frozen=True, eq=False)
class FullGroupElement:
    """A permutation of the atoms preserving the equivalence classes."""

    space: FiniteSpace
    forward: np.ndarray

    @classmethod
    def from_forward(cls, space: FiniteSpace, images) -> "FullGroupElement":
        """Build and validate an element from its forward table."""
        forward = np.asarray(images, dtype=np.int64)
        if forward.shape != (space.n_atoms,):
            raise ValueError("forward table must list one image per atom")
        if forward.min(initial=0) < 0 or forward.max(initial=0) >= space.n_atoms:
            raise ValueError("images out of range")
        counts = np.bincount(forward, minlength=space.n_atoms)
        if (counts != 1).any():
            raise ValueError("forward table is not a bijection")
        if (space.class_of[forward] != space.class_of).any():
            bad = int(np.nonzero(space.class_of[forward] != space.class_of)[0][0])
            raise ValueError(f"atom {bad} leaves its class; not a full-group element")
        return cls(space, _frozen_array(forward))

    @classmethod
    def identity(cls, space: FiniteSpace) -> "FullGroupElement":
        return cls(space, _frozen_array(np.arange(space.n_atoms)))

    @classmethod
    def odometer(cls, space: FiniteSpace) -> "FullGroupElement":
        """The standard single cycle x -> x+1 mod n_atoms."""
        if not space.is_single_class:
            raise ValueError("odometer needs a single-class relation")
        return cls(space, _frozen_array((np.arange(space.n_atoms) + 1) % space.n_atoms))

    @cached_property
    def inverse(self) -> np.ndarray:
        """The read-only inverse table, scattered from `forward` on first read: the one inverse build."""
        inverse = np.empty_like(self.forward)
        inverse[self.forward] = np.arange(self.space.n_atoms)
        inverse.setflags(write=False)
        return inverse

    # -- group operations ---------------------------------------------

    def __call__(self, atom: int) -> int:
        (atom,) = self.space.checked_atoms(atom)
        return int(self.forward[atom])

    def __mul__(self, other: "FullGroupElement") -> "FullGroupElement":
        """Composition: (a * b)(x) = a(b(x)), so b acts first."""
        if self.space != other.space:
            raise ValueError("elements live on different spaces")
        return FullGroupElement(self.space, _frozen_array(self.forward[other.forward]))

    def inv(self) -> "FullGroupElement":
        return FullGroupElement(self.space, self.inverse)

    def __pow__(self, exponent: int) -> "FullGroupElement":
        base = self if exponent >= 0 else self.inv()
        k = abs(exponent)
        result = FullGroupElement.identity(self.space)
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    # -- structure ----------------------------------------------------

    def support(self) -> np.ndarray:
        """Atoms moved by the element, ascending."""
        return np.nonzero(self.forward != np.arange(self.space.n_atoms))[0]

    @cached_property
    def cycle_labels(self) -> np.ndarray:
        """Least atom of each atom's cycle (`labels.cycle_labels`), labelled once and read-only."""
        return _frozen_array(cycle_labels(self.forward))

    @cached_property
    def cycle_positions(self) -> tuple[np.ndarray, np.ndarray]:
        """`cycle_labels` and the read-only `labels.cycle_positions` ranked on them along `inverse`."""
        return self.cycle_labels, _frozen_array(cycle_positions(self.inverse, self.cycle_labels))

    def cycles(self) -> list[tuple[int, ...]]:
        """All cycles (fixed points included), each starting at its least atom.

        Atoms sorted by `cycle_positions` label, then position, split per label.
        """
        labels, pos = self.cycle_positions
        order = np.lexsort((pos, labels))
        cuts = np.flatnonzero(np.diff(labels[order])) + 1
        return [tuple(part.tolist()) for part in np.split(order, cuts)]

    def levels(self, base, height: int) -> np.ndarray:
        """The (height x |base|) array whose row i is the i-th power's image of base,
        its atoms refused as by `FiniteSpace.checked_atoms` and its bytes past the budget."""
        base = self.space.checked_atoms(base)
        _check_budget(8 * height * base.size, ValueError, "tower levels of height {height} need {need} bytes",
                      height=height)
        rows = np.empty((height, base.size), dtype=np.int64)
        rows[:1] = base
        for i in range(1, height):
            rows[i] = self.forward[rows[i - 1]]
        return rows

    def __eq__(self, other):
        if not isinstance(other, FullGroupElement):
            return NotImplemented
        return self.space == other.space and np.array_equal(self.forward, other.forward)

    def __hash__(self):
        return hash((self.space, self.forward.tobytes()))

    def __repr__(self):
        return f"FullGroupElement({self.forward.tolist()})"


@dataclass(frozen=True)
class CycleStructure:
    """Multiset of cycle lengths with the flags experiments care about."""

    lengths: tuple[int, ...]
    is_single_cycle: bool
    min_cycle_length: int


def uniform_metric(a: FullGroupElement, b: FullGroupElement) -> Fraction:
    """Measure of the set where two elements disagree, exactly."""
    if a.space != b.space:
        raise ValueError("metric needs elements on the same space")
    diff = int(np.count_nonzero(a.forward != b.forward))
    return Fraction(diff, a.space.n_atoms)


def cycle_structure(element: FullGroupElement) -> CycleStructure:
    """Cycle-length multiset of an element."""
    n = element.space.n_atoms
    sizes = np.bincount(element.cycle_labels, minlength=n)
    lengths = tuple(sorted(sizes[sizes > 0].tolist()))
    return CycleStructure(lengths, lengths == (n,), lengths[0])


def conjugate_to_standard_cycle(element: FullGroupElement) -> FullGroupElement:
    """Return c with c * element * c.inv() equal to the odometer.

    Only defined for a single cycle through every atom of a single-class
    space; c sends each atom to its position along the cycle from atom
    0, so the odometer itself maps to the identity.
    """
    if not element.space.is_single_class:
        raise ValueError("conjugation to the standard cycle needs a single class")
    if not cycle_structure(element).is_single_cycle:
        raise ValueError("element is not a single cycle")
    _, pos = element.cycle_positions
    return FullGroupElement.from_forward(element.space, pos)

"""Surgery on full-group elements and the perturbations built from it.

The basic move is the splice: send each atom of a set A to a prescribed
image and reroute the displaced mass inside classes, moving the element
by at most twice the measure of A.  On top of it sit the block
truncation (trap every generator inside dyadic filtration
blocks), the Foelner perturbation (plant finite classes with small
Schreier boundary), the tower rearrangement (realize a prescribed
permutation of consecutive cycle points everywhere by conjugation), and
the word-displacement perturbation (make a chosen word act away from
the identity on a tower base, so no orbit fixes it).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate

import numpy as np

from .actions import Homomorphism
from .fullgroup import FullGroupElement
from .space import _count, _frozen_array
from .words import ReducedWord, cyclic_reduce

__all__ = [
    "ConstructionError", "build_corefree_perturbation", "build_folner_perturbation",
    "build_ht_perturbation", "disjoint_support_partition", "first_return", "folner_planted_classes",
    "periodic_truncate", "perturbation_tower", "rokhlin_base", "splice", "tau_for_word",
]


class ConstructionError(ValueError):
    """A construction's feasibility precondition failed."""


def _check_full_cycle(hom: Homomorphism, error: type[ValueError]) -> None:
    """The lean precondition, refused with the caller's error class: a first
    generator that is one full cycle."""
    if not hom.is_lean_aperiodic:
        raise error("first generator must be a single full cycle")


def _check_lean(hom: Homomorphism) -> None:
    """The lean rank-2 precondition of the three perturbation builders: rank at
    least 2, and a first generator that is one full cycle."""
    if hom.rank < 2:
        raise ConstructionError("need rank at least 2")
    _check_full_cycle(hom, ConstructionError)


def _tower_permutation(m: int, tau) -> tuple[int, ...]:
    """tau as a tuple of ints, refused unless m >= 1 and it permutes 0..m-1."""
    if m < 1:
        raise ValueError("m must be at least 1")
    tau = tuple(int(t) for t in tau)
    if len(tau) != m or sorted(tau) != list(range(m)):  # no 0..m-1 list for a huge m
        raise ValueError(f"tau must be a permutation of 0..{m - 1}")
    return tau


# -- splice ----------------------------------------------------------------


def splice(sigma: FullGroupElement, atoms, images) -> FullGroupElement:
    """Send each listed atom of a set A to its listed image, rerouting displaced images.

    images[i] is the new image of the i-th listed atom: the splice reads a
    partial injection defined on A alone.  The result sends A onto the
    images, equals sigma off A and off the preimage strip
    sigma^-1(images) \\ A, and maps that strip onto sigma A \\ images by
    pairing atoms of each class in ascending order; it moves at most 2|A|
    atoms of sigma.  The listing's order does not matter, nor does an atom
    listed twice with one image.  Atoms and images are refused as by
    `FiniteSpace.checked_atoms`, and listings of unequal length with one
    `ValueError`.  Per class the two strips have matching sizes exactly
    when the images, counted per class, match the atoms, so repeated images
    fail that check; an image outside its atom's class fails the final
    `from_forward`.
    """
    space = sigma.space
    atoms, images = space.checked_atoms(atoms), space.checked_atoms(images)
    if atoms.size != images.size:
        raise ValueError(f"splice needs one image per atom, got {images.size} for {atoms.size}")

    in_a = np.zeros(space.n_atoms, dtype=bool)
    in_a[atoms] = True
    claimed = np.zeros(space.n_atoms, dtype=bool)
    claimed[images] = True
    # sources: x outside A whose sigma-image is claimed by an image of A
    sources = np.nonzero(~in_a & claimed[sigma.forward])[0]
    # targets: old images of A that no image of A reuses
    freed = np.zeros(space.n_atoms, dtype=bool)
    freed[sigma.forward[atoms]] = True
    targets = np.nonzero(freed & ~claimed)[0]

    cls = space.class_of
    src_counts = np.bincount(cls[sources], minlength=space.class_count)
    tgt_counts = np.bincount(cls[targets], minlength=space.class_count)
    if (src_counts != tgt_counts).any():
        bad = np.nonzero(src_counts != tgt_counts)[0].tolist()
        raise ConstructionError(
            f"splice rerouting is infeasible in classes {bad}: "
            f"source counts {src_counts[bad].tolist()} vs target counts {tgt_counts[bad].tolist()}"
        )

    forward = sigma.forward.copy()
    forward[atoms] = images
    forward[sources[np.lexsort((sources, cls[sources]))]] = \
        targets[np.lexsort((targets, cls[targets]))]
    return FullGroupElement.from_forward(space, forward)


# -- partitions and towers -------------------------------------------------


def disjoint_support_partition(elements) -> list[tuple[int, ...]]:
    """Split the common support into parts no element maps into themselves.

    Greedy coloring of the graph joining each atom to its images and
    preimages under the elements; with n elements the degree is at most
    2n, so at most 2n+1 parts appear.
    """
    elements = list(elements)
    if not elements:
        raise ValueError("need at least one element")
    space = elements[0].space
    if any(t.space != space for t in elements):
        raise ValueError("elements live on different spaces")
    common = np.logical_and.reduce([t.forward != np.arange(space.n_atoms) for t in elements])
    neighbours = np.stack([table for t in elements for table in (t.forward, t.inverse)], axis=1)
    color = np.full(space.n_atoms, -1, dtype=np.int64)  # -1: uncoloured, or off the support
    for x in np.flatnonzero(common).tolist():
        taken = set(color[neighbours[x]].tolist())
        c = 0
        while c in taken:
            c += 1
        color[x] = c
    # greedy colours are 0..max with no gap; each part lists its atoms ascending
    result = [tuple(np.flatnonzero(color == c).tolist()) for c in range(int(color.max()) + 1)]
    if len(result) > 2 * len(elements) + 1:
        raise AssertionError("greedy coloring exceeded the 2n+1 bound")
    return result


def rokhlin_base(sigma: FullGroupElement, height: int, bound: Fraction) -> np.ndarray:
    """Base of a tower of the given height under a single full cycle.

    Returns the largest stride-spaced set O along the cycle with
    0 < measure(O) < bound whose first `height` translates are pairwise
    disjoint, as a read-only int64 array of its atoms, ascending.
    Deterministic: O starts at atom 0 and uses stride n_atoms // |O| >= height.
    """
    labels, pos = sigma.cycle_positions
    if labels.any():
        raise ConstructionError("tower base needs a single full cycle")
    if height < 1:
        raise ValueError("height must be positive")
    n = sigma.space.n_atoms
    bound = Fraction(bound)
    # largest m with m/n < bound, capped so the stride stays >= height
    m_strict = (bound.numerator * n - 1) // bound.denominator
    m = min(m_strict, n // height)
    if m < 1:
        raise ConstructionError(
            f"no feasible base: need some m >= 1 with m/{n} < {bound} and stride >= {height}"
        )
    stride = n // m
    if stride < height or m * stride > n:  # level i is {j * stride + i : j < m}
        raise AssertionError("tower levels overlap")
    return _frozen_array(np.flatnonzero((pos % stride == 0) & (pos < m * stride)))


def perturbation_tower(sigma: FullGroupElement, height: int, epsilon) -> np.ndarray:
    """Levels of the tower a perturbation below epsilon rearranges.

    Row i is sigma^i(O) for O = rokhlin_base(sigma, height,
    epsilon/(2 height)).  The tower covers less than epsilon/2 of the
    space, so a splice on it moves a generator by less than epsilon.
    """
    if height < 1:
        raise ValueError("height must be positive")
    return sigma.levels(rokhlin_base(sigma, height, Fraction(epsilon) / (2 * height)), height)


def first_return(sigma: FullGroupElement, subset) -> FullGroupElement:
    """Induced map on a subset, extended by the identity off it.

    Atoms of the subset jump to the next point of their sigma-cycle that
    lies in the subset; everything else is fixed.
    """
    space = sigma.space
    in_y = np.zeros(space.n_atoms, dtype=bool)
    in_y[space.checked_atoms(subset)] = True
    labels, pos = sigma.cycle_positions
    ys = np.flatnonzero(in_y)
    ys = ys[np.lexsort((pos[ys], labels[ys]))]
    # each member maps to the next one of its cycle; the last wraps to the first
    starts = np.flatnonzero(np.diff(labels[ys], prepend=-1))
    ends = np.flatnonzero(np.diff(labels[ys], append=-1))
    forward = np.arange(space.n_atoms, dtype=np.int64)
    forward[ys[:-1]] = ys[1:]
    forward[ys[ends]] = ys[starts]
    return FullGroupElement.from_forward(space, forward)


# -- block truncation ------------------------------------------------------


def periodic_truncate(hom: Homomorphism, level: int) -> Homomorphism:
    """Trap every generator inside the level-j filtration blocks.

    Where a generator already moves an atom within its block it is kept;
    an atom that can step backwards inside the block but not forwards is
    sent back to the start of its within-block run; atoms that can do
    neither are fixed.  Every image then permutes each block, so all
    orbits of the result stay inside single blocks, and each generator
    moves exactly on the set where it previously left its block.
    """
    blocks = hom.space.block_index(level)
    atoms = np.arange(hom.space.n_atoms)
    new_gens = []
    for g in hom.gens:
        stays_fwd = blocks[g.forward] == blocks
        stays_bwd = blocks[g.inverse] == blocks
        # pointer doubling to the start of each backward run; a run has at
        # most 2**level atoms, so `level` doublings reach it
        start = np.where(stays_bwd, g.inverse, atoms)
        for _ in range(level):
            start = start[start]
        forward = np.where(stays_fwd, g.forward, np.where(stays_bwd, start, atoms))
        new_gens.append(FullGroupElement.from_forward(hom.space, forward))
    return Homomorphism(hom.space, tuple(new_gens))


# -- Foelner perturbation --------------------------------------------------


def folner_planted_classes(sizes) -> tuple[tuple[int, ...], ...]:
    """Deterministic layout of the planted classes: consecutive runs from 0."""
    ends = [0, *accumulate(int(s) for s in sizes)]
    return tuple(tuple(range(start, end)) for start, end in zip(ends, ends[1:]))


def build_folner_perturbation(hom: Homomorphism, epsilon, sizes) -> Homomorphism:
    """Plant cyclic classes of the requested sizes at distance below epsilon.

    Takes A = the first sum(sizes) atoms split into consecutive runs, one
    per requested size (folner_planted_classes gives the layout).  The
    last generator is spliced to cycle each run; every other generator is
    replaced by its first-return map to the complement of A minus the
    transversal (the least atom of each run).  Each planted run C then
    satisfies |g C symm-diff C| <= 2 for every generator g, a Schreier
    boundary ratio of at most 2/n <= 2(r-1)/n.
    """
    epsilon = Fraction(epsilon)
    sizes = [int(s) for s in sizes]
    if any(s < 1 for s in sizes):
        raise ValueError("class sizes must be positive")
    _check_lean(hom)
    n = hom.space.n_atoms
    total = sum(sizes)
    if total > n:  # first, so a huge total is shown by `_count`, never as a fraction
        raise ConstructionError(f"requested classes need {_count(total)} atoms, "
                                f"more than the {n} in the space")
    if total and Fraction(total, n) >= epsilon / (2 * hom.rank):
        raise ConstructionError(
            f"requested classes need measure {Fraction(total, n)}, "
            f"not below epsilon/2r = {epsilon / (2 * hom.rank)}"
        )
    runs = folner_planted_classes(sizes)
    subset = np.arange(total)
    transversal = tuple(run[0] for run in runs)
    keep = np.ones(n, dtype=bool)
    keep[subset] = False
    keep[list(transversal)] = True
    retained = np.nonzero(keep)[0]

    gens = [first_return(g, retained) for g in hom.gens[:-1]]
    # each run cycles to its next atom, the last back to the first
    rolled = [np.roll(run, -1) for run in runs]
    gens.append(splice(hom.gens[-1], subset, np.concatenate(rolled) if runs else []))
    return Homomorphism(hom.space, tuple(gens))


# -- tower rearrangement ---------------------------------------------------


def _rearrange(g: FullGroupElement, levels: np.ndarray, moves: dict[int, int]) -> FullGroupElement:
    """Splice g so it sends tower level i onto level moves[i], fiber by fiber."""
    return splice(g, levels[list(moves)].ravel(), levels[list(moves.values())].ravel())


def build_ht_perturbation(hom: Homomorphism, m: int, tau, epsilon) -> Homomorphism:
    """Make the second generator permute every tower fiber by tau.

    Takes the levels of perturbation_tower(gens[0], m, epsilon), the
    first m translates sigma^i(O) of a base O under the full cycle
    sigma, and splices the second generator so it sends level i onto
    level tau(i) fiber by fiber: sigma^i(x) goes to sigma^(tau(i))(x)
    for every x in O.  Conjugating by the power of s1 that carries an
    atom into O shows every atom realizes tau with a witness word of
    length at most 2*max-hitting-time + 1.
    """
    epsilon = Fraction(epsilon)
    tau = _tower_permutation(m, tau)
    _check_lean(hom)
    levels = perturbation_tower(hom.gens[0], m, epsilon)
    return hom.replace_generator(1, _rearrange(hom.gens[1], levels, dict(enumerate(tau))))


# -- word displacement -----------------------------------------------------


def tau_for_word(word: ReducedWord) -> tuple[int, ...]:
    """Permutation of 0..len(word) compatible with the word's s1-steps.

    Reading the word right to left as letters w_1..w_s, position i must
    sit one above position i-1 whenever w_i is s1 and one below whenever
    w_i is s1^-1.  Positions bound by consecutive constraints form runs;
    reducedness forces each run monotone, so each run occupies an integer
    interval.  Runs are packed by length, longest first, into consecutive
    intervals from 0; the interval lengths sum to s+1, so the result is
    onto.
    """
    if not word.is_cyclically_reduced() or len(word) == 0:
        raise ConstructionError("word must be nonempty and cyclically reduced")
    if all(abs(l) == 1 for l in word.letters):
        raise ConstructionError("word must not be a power of the first generator")
    s = len(word)
    w = [0] + [word.letters[s - i] for i in range(1, s + 1)]  # w[i], 1-based
    runs = []
    start = 0
    for i in range(1, s + 1):
        if abs(w[i]) != 1:
            runs.append((start, i - 1))
            start = i
    runs.append((start, s))
    tau = [0] * (s + 1)
    offset = 0
    for a, b in sorted(runs, key=lambda r: (r[0] - r[1], r[0])):
        signs = {1 if w[i] > 0 else -1 for i in range(a + 1, b + 1)}  # none in a run of one
        if len(signs) > 1:
            raise AssertionError("mixed signs inside a run of a reduced word")
        span = range(offset, offset + b - a + 1)
        tau[a:b + 1] = span[::-1] if signs == {-1} else span
        offset += len(span)
    if sorted(tau) != list(range(s + 1)):
        raise AssertionError("packed positions are not a permutation")
    for i in range(1, s + 1):
        if w[i] == 1 and tau[i] != tau[i - 1] + 1:
            raise AssertionError("ascending constraint violated")
        if w[i] == -1 and tau[i] != tau[i - 1] - 1:
            raise AssertionError("descending constraint violated")
    return tuple(tau)


def build_corefree_perturbation(hom: Homomorphism, word: ReducedWord, epsilon) -> Homomorphism:
    """Perturb so the given word fixes no orbit pointwise.

    Works with the cyclically reduced core g = w_s..w_1 and the position
    permutation tau = tau_for_word(core).  The levels of
    perturbation_tower(gens[0], s+1, epsilon) are rearranged by a block
    permuter that advances level tau(i) to level tau(i+1); each
    generator is spliced so the letter w_i performs the i-th advance.
    Letters equal to s1 already do (tau steps up exactly there), so only
    the other generators move, each on at most s tower levels.  The word
    then carries level tau(0) onto the disjoint level tau(s), on every
    orbit, since the untouched first generator keeps one full cycle.
    """
    epsilon = Fraction(epsilon)
    _check_lean(hom)
    if word.rank != hom.rank:
        raise ValueError("word rank does not match the homomorphism")
    _, core = cyclic_reduce(word)
    if len(core) == 0 or all(abs(l) == 1 for l in core.letters):
        raise ConstructionError("cyclically reduced core must not be a power of the first generator")
    s = len(core)
    tau = tau_for_word(core)
    levels = perturbation_tower(hom.gens[0], s + 1, epsilon)

    # moves[j]: tower level -> the level the j-th generator must send it to
    moves: dict[int, dict[int, int]] = {}
    for i, letter in enumerate(reversed(core.letters), 1):  # the i-th letter applied
        if abs(letter) == 1:
            continue
        dom, dest = (tau[i - 1], tau[i]) if letter > 0 else (tau[i], tau[i - 1])
        per_gen = moves.setdefault(abs(letter), {})
        if dom in per_gen:
            raise AssertionError("conflicting instructions on one tower level")
        per_gen[dom] = dest

    gens = list(hom.gens)
    for gen_index, per_gen in moves.items():
        gens[gen_index - 1] = _rearrange(gens[gen_index - 1], levels, per_gen)
    return Homomorphism(hom.space, tuple(gens))

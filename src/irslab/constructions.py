"""Surgery on full-group elements and the perturbations built from it.

The basic move is the splice: overwrite an element on a set A with a
prescribed target and reroute the displaced mass inside classes, moving
the element by at most twice the measure of A.  On top of it sit the
block truncation (trap every generator inside dyadic filtration
blocks), the Foelner perturbation (plant finite classes with small
Schreier boundary), the tower rearrangement (realize a prescribed
permutation of consecutive cycle points everywhere by conjugation), and
the word-displacement perturbation (make a chosen word act away from
the identity on a tower base, so no orbit fixes it).
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .actions import Homomorphism
from .fullgroup import FullGroupElement
from .setops import sorted_unique
from .space import _count
from .words import ReducedWord, cyclic_reduce


class ConstructionError(ValueError):
    """A construction's feasibility precondition failed."""


# -- splice ----------------------------------------------------------------


def splice(sigma: FullGroupElement, atoms, tau: FullGroupElement) -> FullGroupElement:
    """Overwrite sigma with tau on a set A, rerouting displaced images.

    The result equals tau on A, equals sigma off A and off the preimage
    strip sigma^-1(tau A) \\ A, and maps that strip onto sigma A \\ tau A
    by pairing atoms of each class in ascending order.  Per class the two
    strips always have matching sizes for genuine full-group inputs; the
    check stays and fails loudly because nothing downstream survives a
    silent mismatch.  The result moves at most 2|A| atoms of sigma.
    """
    space = sigma.space
    if tau.space != space:
        raise ValueError("splice needs elements on the same space")
    subset = np.asarray(list(atoms))  # checked before the int64 cast, which huge atoms overflow
    if subset.size == 0:
        return sigma
    if subset.min() < 0 or subset.max() >= space.n_atoms:
        raise ValueError("splice set contains atoms out of range")
    subset = sorted_unique(subset.astype(np.int64))

    in_a = np.zeros(space.n_atoms, dtype=bool)
    in_a[subset] = True
    in_tau_a = np.zeros(space.n_atoms, dtype=bool)
    in_tau_a[tau.forward[subset]] = True
    # sources: x outside A whose sigma-image was claimed by tau(A)
    sources = np.nonzero(~in_a & in_tau_a[sigma.forward])[0]
    # targets: old images of A not reused by tau(A)
    freed = np.zeros(space.n_atoms, dtype=bool)
    freed[sigma.forward[subset]] = True
    targets = np.nonzero(freed & ~in_tau_a)[0]

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
    forward[subset] = tau.forward[subset]
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
    support = np.nonzero(common)[0]
    in_support = set(int(x) for x in support)
    color: dict[int, int] = {}
    for x in map(int, support):
        taken = set()
        for t in elements:
            for y in (int(t.forward[x]), int(t.inverse[x])):
                if y in in_support and y in color:
                    taken.add(color[y])
        c = 0
        while c in taken:
            c += 1
        color[x] = c
    parts: dict[int, list[int]] = {}
    for x, c in color.items():
        parts.setdefault(c, []).append(x)
    result = [tuple(sorted(parts[c])) for c in sorted(parts)]
    if len(result) > 2 * len(elements) + 1:
        raise AssertionError("greedy coloring exceeded the 2n+1 bound")
    return result


def rokhlin_base(sigma: FullGroupElement, height: int, bound: Fraction) -> tuple[int, ...]:
    """Base of a tower of the given height under a single full cycle.

    Returns the largest stride-spaced set O along the cycle with
    0 < measure(O) < bound whose first `height` translates are pairwise
    disjoint.  Deterministic: O starts at atom 0 and uses stride
    n_atoms // |O| >= height.
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
    occupied = {(j * stride + i) % n for j in range(m) for i in range(height)}
    if len(occupied) != m * height:
        raise AssertionError("tower levels overlap")
    return tuple(np.flatnonzero((pos % stride == 0) & (pos < m * stride)).tolist())


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
    in_y[np.asarray(sorted(subset), dtype=np.int64)] = True
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
    runs = []
    start = 0
    for s in sizes:
        runs.append(tuple(range(start, start + int(s))))
        start += int(s)
    return tuple(runs)


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
    if hom.rank < 2:
        raise ConstructionError("need rank at least 2")
    if not hom.is_lean_aperiodic:
        raise ConstructionError("first generator must be a single full cycle")
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
    subset = list(range(total))
    target = np.arange(n, dtype=np.int64)
    for run in runs:
        for a, b in zip(run, run[1:] + run[:1]):
            target[a] = b
    transversal = tuple(run[0] for run in runs)
    keep = np.ones(n, dtype=bool)
    keep[subset] = False
    keep[list(transversal)] = True
    retained = np.nonzero(keep)[0]

    gens = [first_return(g, retained) for g in hom.gens[:-1]]
    tau = FullGroupElement.from_forward(hom.space, target)
    gens.append(splice(hom.gens[-1], subset, tau))
    return Homomorphism(hom.space, tuple(gens))


# -- tower rearrangement ---------------------------------------------------


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
    if m < 1:
        raise ValueError("m must be at least 1")
    tau = tuple(int(t) for t in tau)
    if sorted(tau) != list(range(m)):
        raise ValueError(f"tau must be a permutation of 0..{m - 1}")
    if hom.rank < 2:
        raise ConstructionError("need rank at least 2")
    if not hom.is_lean_aperiodic:
        raise ConstructionError("first generator must be a single full cycle")
    levels = perturbation_tower(hom.gens[0], m, epsilon)
    target = np.arange(hom.space.n_atoms, dtype=np.int64)
    target[levels] = levels[list(tau)]
    tau_elem = FullGroupElement.from_forward(hom.space, target)
    spliced = splice(hom.gens[1], levels.ravel(), tau_elem)
    return hom.replace_generator(1, spliced)


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
        length = b - a + 1
        if length == 1:
            tau[a] = offset
        else:
            signs = {1 if w[i] > 0 else -1 for i in range(a + 1, b + 1)}
            if len(signs) != 1:
                raise AssertionError("mixed signs inside a run of a reduced word")
            if signs == {1}:
                for t in range(length):
                    tau[a + t] = offset + t
            else:
                for t in range(length):
                    tau[a + t] = offset + length - 1 - t
        offset += length
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
    if hom.rank < 2:
        raise ConstructionError("need rank at least 2")
    if not hom.is_lean_aperiodic:
        raise ConstructionError("first generator must be a single full cycle")
    if word.rank != hom.rank:
        raise ValueError("word rank does not match the homomorphism")
    _, core = cyclic_reduce(word)
    if len(core) == 0 or all(abs(l) == 1 for l in core.letters):
        raise ConstructionError("cyclically reduced core must not be a power of the first generator")
    s = len(core)
    tau = tau_for_word(core)
    levels = perturbation_tower(hom.gens[0], s + 1, epsilon)
    n = hom.space.n_atoms

    # instructions[j]: tower level -> the level the j-th generator must send it to
    instructions: dict[int, dict[int, int]] = {}
    w = [0] + [core.letters[s - i] for i in range(1, s + 1)]
    for i in range(1, s + 1):
        letter = w[i]
        gen_index = abs(letter)
        if gen_index == 1:
            continue
        dom, dest = (tau[i - 1], tau[i]) if letter > 0 else (tau[i], tau[i - 1])
        per_gen = instructions.setdefault(gen_index, {})
        if dom in per_gen:
            raise AssertionError("conflicting instructions on one tower level")
        per_gen[dom] = dest

    result = hom
    for gen_index, per_gen in sorted(instructions.items()):
        domain = levels[list(per_gen)].ravel()
        target = np.full(n, -1, dtype=np.int64)
        target[domain] = levels[list(per_gen.values())].ravel()
        unused_src = np.ones(n, dtype=bool)
        unused_src[domain] = False
        unused_tgt = np.ones(n, dtype=bool)
        unused_tgt[target[domain]] = False
        target[unused_src] = np.nonzero(unused_tgt)[0]
        tau_elem = FullGroupElement.from_forward(hom.space, target)
        spliced = splice(result.gens[gen_index - 1], domain, tau_elem)
        result = result.replace_generator(gen_index - 1, spliced)
    return result

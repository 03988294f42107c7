"""Surgery constructions and their quantitative contracts."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irslab import (
    ConstructionError,
    FiniteSpace,
    FullGroupElement,
    Homomorphism,
    build_corefree_perturbation,
    build_folner_perturbation,
    build_ht_perturbation,
    core_check,
    derive_rng,
    disjoint_support_partition,
    evaluate,
    first_return,
    folner_planted_classes,
    hom_metric,
    lean_aperiodic_homomorphism,
    orbits,
    parse_word,
    periodic_truncate,
    perturbation_tower,
    random_full_group_element,
    random_homomorphism,
    random_reduced_word,
    realizes_tau_fraction,
    reduce_letters,
    rokhlin_base,
    schreier_boundary_ratio,
    splice,
    tau_for_word,
    uniform_metric,
)
from irslab.fullgroup import cycle_structure
from irslab.labels import component_labels, cycle_positions
from irslab.rng import STREAM_TEST
from irslab.setops import sorted_unique
from irslab.space import _integer_atoms
from irslab.words import cyclic_reduce


def single(n):
    return FiniteSpace.single_class(n)


def odometer_hom(n, rank=2):
    sp = single(n)
    gens = [FullGroupElement.odometer(sp)]
    gens.extend(FullGroupElement.identity(sp) for _ in range(rank - 1))
    return Homomorphism(sp, tuple(gens))


# -- splice -----------------------------------------------------------------


# `splice` as it was when it took a whole full-group element tau and read it on
# A alone, kept verbatim (only renamed) as an independent oracle.
def oracle_splice(sigma: FullGroupElement, atoms, tau: FullGroupElement) -> FullGroupElement:
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
    # checked before the int64 cast, which huge atoms overflow
    subset = _integer_atoms(atoms)
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


@st.composite
def splice_spaces(draw):
    """A single-class space of 1-40 atoms, or one of 1-5 classes of 1-10 atoms each."""
    if draw(st.booleans()):
        return single(draw(st.integers(1, 40)))
    return FiniteSpace.from_class_sizes(draw(st.lists(st.integers(1, 10), min_size=1, max_size=5)))


@settings(max_examples=200, deadline=None)
@given(splice_spaces(), st.integers(0, 2**16), st.data(), st.sampled_from([
    list, tuple, np.array, set, frozenset, iter, lambda xs: (x for x in xs),
    lambda xs: range(min(xs, default=0), max(xs, default=-1) + 1),
]))
def test_splice_on_the_images_of_a_matches_the_whole_element_oracle(sp, seed, data, wrap):
    """Any listing of A (empty, repeated, a set, a range, a generator) spliced onto
    tau's images of it gives what the old splice gave with tau itself."""
    rng = derive_rng(seed, STREAM_TEST, 26)
    sigma, tau = random_full_group_element(sp, rng), random_full_group_element(sp, rng)
    listed = data.draw(st.lists(st.integers(0, sp.n_atoms - 1), max_size=2 * sp.n_atoms))
    images = tau.forward[list(wrap(listed))]  # a fresh wrap lists the atoms as splice will
    assert splice(sigma, wrap(listed), images) == oracle_splice(sigma, wrap(listed), tau)


@pytest.mark.parametrize("sizes, atoms, images, error, message", [
    ([4], [0, 1], [1], ValueError, r"^splice needs one image per atom, got 1 for 2$"),
    ([4], [0, 1], [1, 4], ValueError, r"^atom 4 is not in \[0, 4\)$"),
    ([4], [0, 1], [2, 2], ConstructionError, r"^splice rerouting is infeasible in classes \[0\]"),
    # one atom each way between the classes, so the class counts balance
    ([2, 2], [0, 2], [2, 0], ValueError, r"^atom 0 leaves its class; not a full-group element$"),
], ids=["unequal-lengths", "image-out-of-range", "repeated-image", "image-leaves-its-class"])
def test_splice_refuses_a_listing_that_is_not_a_partial_injection(sizes, atoms, images, error, message):
    ident = FullGroupElement.identity(FiniteSpace.from_class_sizes(sizes))
    with pytest.raises(error, match=message) as refused:
        splice(ident, atoms, images)
    assert refused.type is error


def test_splice_hand_example():
    sp = FiniteSpace(4, [0] * 4, None)
    ident = FullGroupElement.identity(sp)
    result = splice(ident, [0], [1])
    assert result.forward.tolist() == [1, 0, 2, 3]
    assert uniform_metric(ident, result) == Fraction(1, 2)


def test_splice_empty_set_is_identity_operation():
    sp = single(8)
    rng = derive_rng(10, STREAM_TEST, 10)
    sigma = random_full_group_element(sp, rng)
    assert splice(sigma, [], []) == sigma


def test_splice_whole_space_gives_tau():
    sp = single(8)
    rng = derive_rng(11, STREAM_TEST, 11)
    sigma = random_full_group_element(sp, rng)
    tau = random_full_group_element(sp, rng)
    assert splice(sigma, range(8), tau.forward) == tau


def test_splice_with_itself_changes_nothing():
    sp = single(8)
    rng = derive_rng(12, STREAM_TEST, 12)
    sigma = random_full_group_element(sp, rng)
    assert splice(sigma, [1, 5], sigma.forward[[1, 5]]) == sigma


def test_splice_validation():
    sp = single(4)
    ident = FullGroupElement.identity(sp)
    with pytest.raises(ValueError):
        splice(ident, [4], [0])
    with pytest.raises(ValueError):
        splice(ident, [-1], [0])


@pytest.mark.parametrize("atoms, named", [
    ([1.5], "1.5"), ([0, 2.0], "2.0"), ([True], "True"), ({True, 3}, "True"),
    (np.array([0.5, 1.0]), "0.5"),
])
def test_splice_refuses_non_integer_atoms(atoms, named):
    ident = FullGroupElement.identity(single(4))
    with pytest.raises(ValueError, match=rf"^atom {named} is not an integer$"):
        splice(ident, atoms, [0, 1])
    with pytest.raises(ValueError, match=rf"^atom {named} is not an integer$"):
        splice(ident, [0, 1], atoms)
    with pytest.raises(ValueError, match=rf"^atom {2**70} is not in \[0, 4\)$"):
        splice(ident, [1, 2**70], [1, 2])


def test_splice_contract_random():
    rng = derive_rng(13, STREAM_TEST, 13)
    spaces = [single(16), single(64), FiniteSpace.from_class_sizes([8, 24, 32])]
    for trial in range(60):
        sp = spaces[trial % len(spaces)]
        sigma = random_full_group_element(sp, rng)
        tau = random_full_group_element(sp, rng)
        k = int(rng.integers(0, sp.n_atoms // 2))
        subset = sorted(int(x) for x in rng.choice(sp.n_atoms, size=k, replace=False))
        result = splice(sigma, subset, tau.forward[subset])
        # equals tau on the set
        assert all(result(x) == tau(x) for x in subset)
        # untouched off the set and the rerouted preimage strip
        strip = {int(sigma.inverse[tau.forward[x]]) for x in subset}
        for x in range(sp.n_atoms):
            if x not in set(subset) and x not in strip:
                assert result(x) == sigma(x)
        # moves at most 2|A| atoms of sigma
        assert uniform_metric(sigma, result) <= Fraction(2 * len(subset), sp.n_atoms)
        # class preservation comes out of from_forward, re-check anyway
        assert (sp.class_of[result.forward] == sp.class_of).all()


# -- disjoint support partition ----------------------------------------------


def test_disjoint_support_partition_examples():
    sp = FiniteSpace(4, [0] * 4, None)
    swap = FullGroupElement.from_forward(sp, [1, 0, 2, 3])
    assert disjoint_support_partition([swap]) == [(0,), (1,)]

    ident = FullGroupElement.identity(sp)
    assert disjoint_support_partition([ident]) == []

    three = FullGroupElement.from_forward(sp, [1, 2, 0, 3])
    parts = disjoint_support_partition([three])
    assert sorted(x for p in parts for x in p) == [0, 1, 2]
    assert all(len(p) == 1 for p in parts)

    cycle4 = FullGroupElement.from_forward(sp, [1, 2, 3, 0])
    both = disjoint_support_partition([cycle4, swap])
    assert sorted(x for p in both for x in p) == [0, 1]
    assert len(both) == 2


def test_disjoint_support_partition_validation():
    with pytest.raises(ValueError):
        disjoint_support_partition([])
    a = FullGroupElement.identity(single(4))
    b = FullGroupElement.identity(single(8))
    with pytest.raises(ValueError):
        disjoint_support_partition([a, b])


def test_disjoint_support_partition_contract_random():
    rng = derive_rng(14, STREAM_TEST, 14)
    for trial in range(40):
        sp = single(32) if trial % 2 else FiniteSpace.from_class_sizes([8, 8, 16])
        k = 1 + trial % 4
        elements = [random_full_group_element(sp, rng) for _ in range(k)]
        parts = disjoint_support_partition(elements)
        assert len(parts) <= 2 * k + 1
        flat = [x for p in parts for x in p]
        assert len(flat) == len(set(flat))
        common = set(range(sp.n_atoms))
        for t in elements:
            common &= {int(x) for x in t.support()}
        assert set(flat) == common
        for part in parts:
            atoms = set(part)
            for t in elements:
                assert not atoms & {t(x) for x in atoms}


def oracle_disjoint_support_partition(elements) -> list[tuple[int, ...]]:
    """The greedy colouring with a support set and colour and part dicts, kept as the oracle."""
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


def _involution(space, rng):
    """A random class-preserving involution: some disjoint transpositions per class."""
    forward = np.arange(space.n_atoms)
    for cls in space.classes():
        atoms = rng.permutation(cls)
        pairs = int(rng.integers(len(atoms) // 2 + 1))
        forward[atoms[:pairs]], forward[atoms[pairs:2 * pairs]] = atoms[pairs:2 * pairs], atoms[:pairs]
    return FullGroupElement.from_forward(space, forward)


spaces = st.one_of(
    st.integers(1, 40).map(single),
    st.lists(st.integers(1, 8), min_size=1, max_size=6).map(FiniteSpace.from_class_sizes),
)


@settings(max_examples=200, deadline=None)
@given(spaces, st.lists(st.sampled_from(["random", "identity", "involution"]), min_size=1, max_size=4),
       st.integers(0, 2**16))
def test_disjoint_support_partition_matches_the_oracle(sp, kinds, seed):
    rng = derive_rng(seed, STREAM_TEST, 24)
    make = {"random": lambda: random_full_group_element(sp, rng),
            "identity": lambda: FullGroupElement.identity(sp),
            "involution": lambda: _involution(sp, rng)}
    elements = [make[kind]() for kind in kinds]
    assert disjoint_support_partition(elements) == oracle_disjoint_support_partition(elements)


# -- towers ------------------------------------------------------------------


def test_rokhlin_base_on_odometer():
    sp = single(8)
    sigma = FullGroupElement.odometer(sp)
    assert rokhlin_base(sigma, 2, Fraction(3, 8)).tolist() == [0, 4]
    assert rokhlin_base(sigma, 2, Fraction(2, 8)).tolist() == [0]
    with pytest.raises(ConstructionError):
        rokhlin_base(sigma, 2, Fraction(1, 8))
    with pytest.raises(ConstructionError):
        rokhlin_base(sigma, 9, Fraction(1, 2))
    with pytest.raises(ValueError):
        rokhlin_base(sigma, 0, Fraction(1, 2))
    with pytest.raises(ConstructionError):
        rokhlin_base(FullGroupElement.identity(sp), 1, Fraction(1, 2))


def test_rokhlin_base_measure_strictly_below_bound_and_levels_disjoint():
    rng = derive_rng(15, STREAM_TEST, 15)
    for n, height, bound in [(16, 3, Fraction(1, 3)), (64, 4, Fraction(1, 5)),
                             (128, 2, Fraction(3, 7))]:
        sp = single(n)
        pi = random_full_group_element(sp, rng)
        # force a single cycle by conjugating the odometer
        sigma = pi * FullGroupElement.odometer(sp) * pi.inv()
        base = rokhlin_base(sigma, height, bound)
        assert 0 < Fraction(len(base), n) < bound
        levels = [int((sigma ** i)(x)) for x in base for i in range(height)]
        assert len(levels) == len(set(levels))


def test_first_return_examples():
    sp = single(8)
    sigma = FullGroupElement.odometer(sp)
    induced = first_return(sigma, [0, 2, 4, 6])
    assert induced(0) == 2 and induced(2) == 4 and induced(4) == 6 and induced(6) == 0
    assert induced(1) == 1 and induced(5) == 5

    assert first_return(sigma, range(8)) == sigma
    assert first_return(sigma, [3]) == FullGroupElement.identity(sp)

    sp4 = FiniteSpace(4, [0] * 4, None)
    swap = FullGroupElement.from_forward(sp4, [1, 0, 2, 3])
    assert first_return(swap, [0, 2]) == FullGroupElement.identity(sp4)
    assert first_return(swap, [0, 1]) == swap


def test_first_return_is_a_permutation_of_the_subset():
    rng = derive_rng(16, STREAM_TEST, 16)
    sp = single(32)
    for _ in range(20):
        sigma = random_full_group_element(sp, rng)
        size = int(rng.integers(1, 20))
        subset = set(int(x) for x in rng.choice(32, size=size, replace=False))
        induced = first_return(sigma, subset)
        assert {induced(x) for x in subset} == subset
        assert all(induced(x) == x for x in range(32) if x not in subset)


@pytest.mark.parametrize("wrap", [
    frozenset, set, iter, lambda atoms: (x for x in atoms), lambda atoms: range(atoms[0], atoms[-1] + 1),
])
def test_sets_ranges_and_generators_of_atoms_are_accepted(wrap):
    """Any iterable of atoms gives what the same atoms in a sorted list give."""
    rng = derive_rng(25, STREAM_TEST, 25)
    sp = single(16)
    sigma, tau = random_full_group_element(sp, rng), random_full_group_element(sp, rng)
    hom = Homomorphism(sp, (sigma, tau))
    for atoms in ([1, 4, 5, 11], [7], list(range(3, 9))):
        listed = sorted(set(wrap(atoms)))
        got = splice(sigma, wrap(atoms), tau.forward[list(wrap(atoms))])
        assert got == splice(sigma, listed, tau.forward[listed])
        assert schreier_boundary_ratio(hom, wrap(atoms)) == schreier_boundary_ratio(hom, listed)
        assert first_return(sigma, wrap(atoms)) == first_return(sigma, listed)


# -- periodic truncation -------------------------------------------------------


def test_periodic_truncate_odometer_table():
    hom = odometer_hom(16)
    result = periodic_truncate(hom, 2)
    expected = [1, 2, 3, 0, 5, 6, 7, 4, 9, 10, 11, 8, 13, 14, 15, 12]
    assert result.gens[0].forward.tolist() == expected
    assert hom_metric(hom, result) == Fraction(1, 4)
    assert all(len(o) == 4 for o in orbits(result))


def test_periodic_truncate_contract():
    sp = single(64)
    rng = derive_rng(17, STREAM_TEST, 17)
    hom = lean_aperiodic_homomorphism(sp, 2, rng)
    for level in (0, 1, 3, sp.filtration_levels):
        result = periodic_truncate(hom, level)
        blocks = sp.block_index(level)
        # orbits trapped inside blocks
        for orb in orbits(result):
            assert len({int(blocks[x]) for x in orb}) == 1
        # distance per generator is exactly the escaping measure
        for old, new in zip(hom.gens, result.gens):
            escaping = int((blocks[old.forward] != blocks).sum())
            assert uniform_metric(old, new) == Fraction(escaping, 64)
    assert periodic_truncate(hom, 0).gens[0] == FullGroupElement.identity(sp)
    # truncation is idempotent
    once = periodic_truncate(hom, 3)
    assert periodic_truncate(once, 3) == once


def test_periodic_truncate_needs_filtration():
    sp = FiniteSpace(8, [0] * 8, None)
    hom = Homomorphism(sp, (FullGroupElement.odometer(sp),))
    with pytest.raises(ValueError):
        periodic_truncate(hom, 1)
    with pytest.raises(ValueError):
        periodic_truncate(odometer_hom(8), 9)


# -- Foelner perturbation ------------------------------------------------------


def test_folner_planted_classes_layout():
    assert folner_planted_classes([]) == ()
    assert folner_planted_classes([3, 2]) == ((0, 1, 2), (3, 4))


def test_folner_perturbation_empty_request_returns_the_action():
    hom = odometer_hom(64)
    assert build_folner_perturbation(hom, Fraction(1, 4), []) == hom


def test_folner_perturbation_contract():
    sp = single(1024)
    rng = derive_rng(18, STREAM_TEST, 18)
    hom = lean_aperiodic_homomorphism(sp, 2, rng)
    epsilon = Fraction(1, 4)
    sizes = [8, 16]
    result = build_folner_perturbation(hom, epsilon, sizes)
    assert hom_metric(hom, result) <= epsilon
    for run in folner_planted_classes(sizes):
        ratio = schreier_boundary_ratio(result, run)
        assert ratio <= Fraction(2 * (hom.rank - 1), len(run))
        # the run is one cycle of the last generator
        last = result.gens[-1]
        assert {last(x) for x in run} == set(run)


def test_folner_perturbation_feasibility():
    hom = odometer_hom(64)
    with pytest.raises(ConstructionError):
        build_folner_perturbation(hom, Fraction(1, 2), [8])
    sp = single(64)
    rank1 = Homomorphism(sp, (FullGroupElement.odometer(sp),))
    with pytest.raises(ConstructionError):
        build_folner_perturbation(rank1, Fraction(1, 2), [2])
    ident = FullGroupElement.identity(sp)
    with pytest.raises(ConstructionError):
        build_folner_perturbation(Homomorphism(sp, (ident, ident)), Fraction(1, 2), [2])
    with pytest.raises(ValueError):
        build_folner_perturbation(hom, Fraction(1, 2), [0])


def test_folner_perturbation_classes_may_fill_but_not_exceed_the_space():
    hom = odometer_hom(16)
    full = build_folner_perturbation(hom, Fraction(100), [10, 6])
    assert {full.gens[-1](x) for x in range(10)} == set(range(10))
    with pytest.raises(ConstructionError, match="^requested classes need 17 atoms, more than the 16"):
        build_folner_perturbation(hom, Fraction(100), [10, 7])


# -- tower rearrangement -------------------------------------------------------


def test_ht_perturbation_swap_on_eight_atoms():
    hom = odometer_hom(8)
    result = build_ht_perturbation(hom, 2, (1, 0), Fraction(3, 5))
    sigma = hom.gens[0]
    base = rokhlin_base(sigma, 2, Fraction(3, 5) / 4)
    assert base.tolist() == [0]
    assert result.gens[1](0) == 1 and result.gens[1](1) == 0
    assert hom_metric(hom, result) == Fraction(1, 4)
    assert hom_metric(hom, result) < Fraction(3, 5)
    assert realizes_tau_fraction(result, 2, (1, 0), 16) == 1


def test_ht_perturbation_fibers_and_distance():
    rng = derive_rng(19, STREAM_TEST, 19)
    sp = single(128)
    hom = lean_aperiodic_homomorphism(sp, 2, rng)
    epsilon = Fraction(1, 2)
    for tau in [(0, 1, 2), (2, 0, 1), (1, 2, 0), (2, 1, 0)]:
        result = build_ht_perturbation(hom, 3, tau, epsilon)
        assert hom_metric(hom, result) < epsilon
        sigma = hom.gens[0]
        base = rokhlin_base(sigma, 3, epsilon / 6)
        for x in base:
            for i in range(3):
                assert result.gens[1](int((sigma ** i)(x))) == int((sigma ** tau[i])(x))
        # untouched first generator
        assert result.gens[0] == sigma


def test_ht_perturbation_identity_tau_realized_by_the_empty_word():
    hom = odometer_hom(16)
    result = build_ht_perturbation(hom, 2, (0, 1), Fraction(1, 2))
    assert realizes_tau_fraction(result, 2, (0, 1), 0) == 1


def test_ht_perturbation_validation():
    hom = odometer_hom(16)
    with pytest.raises(ValueError):
        build_ht_perturbation(hom, 2, (0, 2), Fraction(1, 2))
    with pytest.raises(ConstructionError):
        build_ht_perturbation(hom, 2, (1, 0), Fraction(1, 16))
    sp = single(16)
    rank1 = Homomorphism(sp, (FullGroupElement.odometer(sp),))
    with pytest.raises(ConstructionError):
        build_ht_perturbation(rank1, 2, (1, 0), Fraction(1, 2))
    ident = FullGroupElement.identity(sp)
    with pytest.raises(ConstructionError):
        build_ht_perturbation(Homomorphism(sp, (ident, ident)), 2, (1, 0), Fraction(1, 2))


# -- word displacement ---------------------------------------------------------


def test_tau_for_word_examples():
    assert tau_for_word(parse_word("s2", 2)) == (0, 1)
    assert tau_for_word(parse_word("s1 s2", 2)) == (2, 0, 1)
    assert tau_for_word(parse_word("s2 s1", 2)) == (0, 1, 2)
    assert tau_for_word(parse_word("s1^-1 s2", 2)) == (2, 1, 0)


def test_tau_for_word_rejects_bad_words():
    with pytest.raises(ConstructionError):
        tau_for_word(parse_word("s1^3", 2))
    with pytest.raises(ConstructionError):
        tau_for_word(parse_word("", 2))
    with pytest.raises(ConstructionError):
        tau_for_word(parse_word("s2^-1 s1 s2 s2", 2))


def test_tau_for_word_constraints_on_random_words():
    rng = derive_rng(20, STREAM_TEST, 20)
    found = 0
    while found < 30:
        word = random_reduced_word(2, int(rng.integers(1, 7)), rng)
        if not word.is_cyclically_reduced() or all(abs(l) == 1 for l in word.letters):
            continue
        found += 1
        s = len(word)
        tau = tau_for_word(word)
        assert sorted(tau) == list(range(s + 1))
        w = [0] + [word.letters[s - i] for i in range(1, s + 1)]
        for i in range(1, s + 1):
            if w[i] == 1:
                assert tau[i] == tau[i - 1] + 1
            elif w[i] == -1:
                assert tau[i] == tau[i - 1] - 1


def test_corefree_perturbation_single_letter():
    hom = odometer_hom(16)
    word = parse_word("s2", 2)
    result = build_corefree_perturbation(hom, word, Fraction(1, 2))
    assert result.gens[1](0) == 1 and result.gens[1](1) == 0
    assert hom_metric(hom, result) == Fraction(1, 8)
    assert core_check(result, word) == 0
    assert result.gens[0] == hom.gens[0]


def test_corefree_perturbation_moves_base_by_the_word():
    rng = derive_rng(21, STREAM_TEST, 21)
    sp = single(256)
    hom = lean_aperiodic_homomorphism(sp, 2, rng)
    epsilon = Fraction(1, 2)
    for text in ("s2", "s2 s1", "s1 s2^-1", "s2 s2", "s1 s2 s1 s2"):
        word = parse_word(text, 2)
        result = build_corefree_perturbation(hom, word, epsilon)
        assert hom_metric(hom, result) < epsilon
        assert core_check(result, word) == 0
        sigma = hom.gens[0]
        tau = tau_for_word(word)
        s = len(word)
        base = rokhlin_base(sigma, s + 1, epsilon / (2 * (s + 1)))
        for x in base:
            start = int((sigma ** tau[0])(x))
            assert evaluate(result, word, start) == int((sigma ** tau[s])(x))


def test_corefree_perturbation_uses_the_cyclic_core():
    hom = odometer_hom(64)
    conjugated = parse_word("s1 s2 s1^-1", 2)
    result = build_corefree_perturbation(hom, conjugated, Fraction(1, 2))
    assert core_check(result, conjugated) == 0
    # conjugate words act trivially exactly together, so the core build suffices
    assert core_check(result, parse_word("s2", 2)) == 0


def test_corefree_perturbation_rank_three_word():
    rng = derive_rng(22, STREAM_TEST, 22)
    sp = single(128)
    hom = lean_aperiodic_homomorphism(sp, 3, rng)
    word = parse_word("s3 s2", 3)
    result = build_corefree_perturbation(hom, word, Fraction(1, 2))
    assert hom_metric(hom, result) < Fraction(1, 2)
    assert core_check(result, word) == 0


def test_corefree_perturbation_validation():
    hom = odometer_hom(16)
    with pytest.raises(ConstructionError):
        build_corefree_perturbation(hom, parse_word("s1 s1", 2), Fraction(1, 2))
    with pytest.raises(ConstructionError):
        build_corefree_perturbation(hom, parse_word("s2^-1 s1 s2", 2), Fraction(1, 2))
    with pytest.raises(ConstructionError):
        build_corefree_perturbation(hom, parse_word("", 2), Fraction(1, 2))
    with pytest.raises(ValueError):
        build_corefree_perturbation(hom, parse_word("s1", 1), Fraction(1, 2))
    sp = single(16)
    ident = FullGroupElement.identity(sp)
    with pytest.raises(ConstructionError):
        build_corefree_perturbation(
            Homomorphism(sp, (ident, ident)), parse_word("s2", 2), Fraction(1, 2)
        )


def test_cycle_order_walks_the_cycle():
    sp = single(8)
    cyc, pos = _cycle_order(FullGroupElement.odometer(sp))
    assert cyc.tolist() == list(range(8))
    assert pos.tolist() == list(range(8))


@pytest.mark.parametrize("m", [0, -2])
def test_ht_perturbation_needs_m_at_least_one(m):
    with pytest.raises(ValueError, match="^m must be at least 1$"):
        build_ht_perturbation(odometer_hom(16), m, (), Fraction(1, 2))


@pytest.mark.parametrize("rank", [0, -3])
def test_lean_aperiodic_homomorphism_needs_rank_at_least_one(rank):
    with pytest.raises(ValueError, match="^rank must be at least 1$"):
        lean_aperiodic_homomorphism(single(8), rank, derive_rng(0, STREAM_TEST, 9))


# -- oracles: the cycle-position tower code that the levels array replaced ------
#
# `_cycle_order`, `rokhlin_base` and the two builders as they were before the
# tower became one (height x |base|) array, kept verbatim (only renamed) as
# independent oracles.


def _cycle_order(sigma: FullGroupElement) -> tuple[np.ndarray, np.ndarray]:
    """Cycle listing from atom 0 and each atom's position along it (single cycle)."""
    pos = cycle_positions(sigma.inverse, component_labels([sigma.forward], sigma.space.n_atoms))
    return np.argsort(pos), pos


def oracle_rokhlin_base(sigma: FullGroupElement, height: int, bound: Fraction) -> tuple[int, ...]:
    if not cycle_structure(sigma).is_single_cycle:
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
    cyc, _ = _cycle_order(sigma)
    base = tuple(sorted(int(cyc[j * stride]) for j in range(m)))
    occupied = {(j * stride + i) % n for j in range(m) for i in range(height)}
    if len(occupied) != m * height:
        raise AssertionError("tower levels overlap")
    return base


def oracle_build_ht_perturbation(hom: Homomorphism, m: int, tau, epsilon) -> Homomorphism:
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
    sigma = hom.gens[0]
    base = oracle_rokhlin_base(sigma, m, epsilon / (2 * m))
    cyc, pos = _cycle_order(sigma)
    n = hom.space.n_atoms
    target = np.arange(n, dtype=np.int64)
    for x in base:
        for i in range(m):
            target[cyc[(pos[x] + i) % n]] = cyc[(pos[x] + tau[i]) % n]
    levels = [int(cyc[(pos[x] + i) % n]) for x in base for i in range(m)]
    tau_elem = FullGroupElement.from_forward(hom.space, target)
    spliced = oracle_splice(hom.gens[1], levels, tau_elem)
    return hom.replace_generator(1, spliced)


def oracle_build_corefree_perturbation(hom: Homomorphism, word, epsilon) -> Homomorphism:
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
    sigma = hom.gens[0]
    base = oracle_rokhlin_base(sigma, s + 1, epsilon / (2 * (s + 1)))
    cyc, pos = _cycle_order(sigma)
    n = hom.space.n_atoms

    def shift(atoms_list, d):
        return [int(cyc[(pos[x] + d) % n]) for x in atoms_list]

    # instructions[j]: tower level -> signed step the j-th generator must take there
    instructions: dict[int, dict[int, int]] = {}
    w = [0] + [core.letters[s - i] for i in range(1, s + 1)]
    for i in range(1, s + 1):
        letter = w[i]
        gen_index = abs(letter)
        if gen_index == 1:
            continue
        if letter > 0:
            dom, step = tau[i - 1], tau[i] - tau[i - 1]
        else:
            dom, step = tau[i], tau[i - 1] - tau[i]
        per_gen = instructions.setdefault(gen_index, {})
        if dom in per_gen:
            raise AssertionError("conflicting instructions on one tower level")
        per_gen[dom] = step

    result = hom
    for gen_index, per_gen in sorted(instructions.items()):
        domain: list[int] = []
        target = np.full(n, -1, dtype=np.int64)
        for dom, step in per_gen.items():
            atoms_here = shift(base, dom)
            domain.extend(atoms_here)
            target[atoms_here] = shift(atoms_here, step)
        unused_src = np.ones(n, dtype=bool)
        unused_src[domain] = False
        unused_tgt = np.ones(n, dtype=bool)
        unused_tgt[target[domain]] = False
        target[unused_src] = np.nonzero(unused_tgt)[0]
        tau_elem = FullGroupElement.from_forward(hom.space, target)
        spliced = oracle_splice(result.gens[gen_index - 1], sorted(domain), tau_elem)
        result = result.replace_generator(gen_index - 1, spliced)
    return result


def _outcome(build, *args):
    """What a build returns, or the class and message of the error it raises."""
    try:
        return build(*args)
    except (ValueError, AssertionError) as exc:
        return type(exc), str(exc)


@st.composite
def tower_homs(draw):
    """Homs of rank 2-3 on 1-300 atoms whose first generator is one full
    cycle: the odometer or a random conjugate of it."""
    sp = single(draw(st.integers(1, 300)))
    rng = derive_rng(draw(st.integers(0, 2**16)), STREAM_TEST, 23)
    hom = lean_aperiodic_homomorphism(sp, draw(st.integers(2, 3)), rng)
    if draw(st.booleans()):
        pi = random_full_group_element(sp, rng)
        hom = hom.replace_generator(0, pi * hom.gens[0] * pi.inv())
    return hom


epsilons = st.builds(Fraction, st.integers(1, 40), st.integers(1, 60))


@settings(max_examples=150, deadline=None)
@given(tower_homs(), st.integers(1, 6), st.data(), epsilons)
def test_ht_perturbation_matches_the_cycle_position_oracle(hom, m, data, epsilon):
    tau = data.draw(st.permutations(range(m)))
    got = _outcome(build_ht_perturbation, hom, m, tau, epsilon)
    assert got == _outcome(oracle_build_ht_perturbation, hom, m, tau, epsilon)


@settings(max_examples=150, deadline=None)
@given(tower_homs(), st.data(), epsilons)
def test_corefree_perturbation_matches_the_cycle_position_oracle(hom, data, epsilon):
    letters = st.integers(1, hom.rank).flatmap(lambda i: st.sampled_from([i, -i]))
    word = reduce_letters(hom.rank, data.draw(st.lists(letters, max_size=9)))
    got = _outcome(build_corefree_perturbation, hom, word, epsilon)
    assert got == _outcome(oracle_build_corefree_perturbation, hom, word, epsilon)


@settings(max_examples=150, deadline=None)
@given(tower_homs(), st.integers(1, 7), epsilons)
def test_tower_rows_are_the_powers_of_sigma_over_the_base(hom, height, epsilon):
    sigma = hom.gens[0]
    bound = epsilon / (2 * height)
    want = _outcome(oracle_rokhlin_base, sigma, height, bound)
    got = _outcome(rokhlin_base, sigma, height, bound)
    if isinstance(want[0], type):  # infeasible: the base and the tower raise the same error
        assert isinstance(got, tuple) and got == want
        assert _outcome(perturbation_tower, sigma, height, epsilon) == want
        return
    assert got.tolist() == list(want)
    base = np.array(want)
    levels = perturbation_tower(sigma, height, epsilon)
    assert levels.dtype == np.int64 and levels.shape == (height, base.size)
    for i in range(height):
        assert np.array_equal(levels[i], (sigma ** i).forward[base])


def test_levels_of_an_empty_tower_or_base():
    sigma = FullGroupElement.odometer(single(8))
    for height in (0, -1):
        with pytest.raises(ValueError, match="^height must be positive$"):
            perturbation_tower(sigma, height, Fraction(1, 2))
    assert sigma.levels([], 3).shape == (3, 0)
    assert sigma.levels([5], 0).shape == (0, 1)
    assert sigma.levels([5, 0], 3).tolist() == [[5, 0], [6, 1], [7, 2]]


def test_rokhlin_base_needs_one_full_cycle_even_with_a_short_tower():
    sp = single(8)
    two_cycles = FullGroupElement.from_forward(sp, [1, 2, 3, 0, 5, 6, 7, 4])
    for sigma in (two_cycles, FullGroupElement.identity(sp)):
        with pytest.raises(ConstructionError, match="^tower base needs a single full cycle$"):
            rokhlin_base(sigma, 1, Fraction(1, 2))

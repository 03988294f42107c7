"""Tuple-orbit kernel behind `transitivity_degree` and
`generates_classwise_symmetric`, checked against the Python set closure
this package used before, kept here as an oracle without its size
guards, against groups of known transitivity, and against sympy."""

from math import factorial, perm

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_labels import REFUSED, _sparse_element, budgets, homs, within_budget

from irslab import (
    AnalysisError,
    FiniteSpace,
    FullGroupElement,
    Homomorphism,
    derive_rng,
    generates_classwise_symmetric,
    lean_aperiodic_homomorphism,
    orbit,
    orbits,
    random_homomorphism,
    transitivity_degree,
)
from irslab.analysis import _degree, _grow, _orbit_size, _pack
from irslab.rng import STREAM_TEST

# -- kernel steps ------------------------------------------------------------------


def test_grow_keeps_only_unvisited_images():
    # 1-tuples over 0..2 with tag 0 under the 3-cycle 0 -> 1 -> 2 -> 0
    key = {x: int(_pack([np.array([x])], 0, 3)[0]) for x in range(3)}
    visited = np.array([key[0], key[1]])
    fresh, visited = _grow(visited, visited, [np.array([1, 2, 0])], 3, 1)
    assert fresh.tolist() == [key[2]]
    assert visited.tolist() == [key[0], key[1], key[2]]
    fresh, visited = _grow(fresh, visited, [np.array([1, 2, 0])], 3, 1)
    assert fresh.size == 0 and visited.size == 3


def test_orbit_size_of_the_identity_and_a_transposition():
    assert _orbit_size([0], [np.arange(1)], 1) == 1
    assert _orbit_size(range(3), [np.arange(3)], 3) == 1
    assert _orbit_size([2, 0], [np.array([1, 0, 2])], 2) == 2


def test_degree_keys_carry_no_tag_digit():
    """Degree orbits are untagged n^k keys: at n = 2^21 and k = 2 a tag digit
    would need 2^63 keys, past 64 bits, while realization keeps its tag digit
    and width check.  The tables are the Klein group on blocks of four, so
    the orbit of (0, 1) has four pairs and the degree is 1, from the atoms
    alone (no hom of 2^21 atoms is labelled)."""
    n = 2 ** 21
    atoms = np.arange(n)
    assert _degree(atoms, [atoms ^ 1, atoms ^ 2], 2) == 1
    assert _orbit_size([0, 1], [atoms ^ 1, atoms ^ 2], 2) == 4
    one = [atoms[:1]]
    with pytest.raises(AnalysisError, match=r"^packed state space n\^\(m\+1\) = 2097152\^3 overflows 64-bit keys$"):
        _pack(one * 2, 0, n)
    with pytest.raises(AnalysisError, match=r"^packed state space n\^k = 2097152\^3 overflows 64-bit keys$"):
        _pack(one * 3, None, n)


# -- oracle: the closure the kernel replaced -----------------------------------------

def _closure(start: tuple[int, ...], tables, limit: int) -> set[tuple[int, ...]]:
    """Orbit of a tuple under the tables applied coordinatewise (a group from the identity)."""
    seen = {start}
    queue = [start]
    while queue:
        t = queue.pop()
        for table in tables:
            image = tuple(table[c] for c in t)
            if image not in seen:
                if len(seen) >= limit:
                    raise AnalysisError("closure exceeded its limit")
                seen.add(image)
                queue.append(image)
    return seen


def oracle_transitivity_degree(hom: Homomorphism, root: int, k_max: int) -> int:
    """Largest k <= k_max with a transitive action on distinct k-tuples.

    Restricted to the orbit of the root; brute-force tuple closure.
    Singleton orbits are vacuously 1-transitive.
    """
    orb = sorted(orbit(hom, root))
    n = len(orb)
    if k_max < 1:
        raise ValueError("k_max must be at least 1")
    k_cap = min(k_max, n)
    relabel = {x: i for i, x in enumerate(orb)}
    tables = []
    for g in hom.gens:
        tables.append(tuple(relabel[int(g.forward[x])] for x in orb))
        tables.append(tuple(relabel[int(g.inverse[x])] for x in orb))

    degree = 1
    for k in range(2, k_cap + 1):
        total = perm(n, k)
        if len(_closure(tuple(range(k)), tables, total)) != total:
            break
        degree = k
    return degree


def _check_degree(hom, root, k_max, budget):
    """Under the budget the kernel either refuses at its boundary or agrees
    with the closure, which runs only when the kernel has finished."""
    got = within_budget(lambda h: transitivity_degree(h, root, k_max), hom, budget)
    if got is not REFUSED:
        assert got == oracle_transitivity_degree(hom, root, k_max)


@settings(max_examples=150, deadline=None)
@given(homs(), st.data())
def test_transitivity_degree_matches_the_closure(hom, data):
    root = data.draw(st.integers(0, hom.space.n_atoms - 1))
    k_max = data.draw(st.integers(1, len(orbit(hom, root))))
    _check_degree(hom, root, k_max, data.draw(budgets))


@st.composite
def small_orbit_homs(draw):
    """Random and sparse homs of rank 1-3 on classes of 3 to 12 atoms, so many
    orbits are more than 1-transitive."""
    rng = derive_rng(draw(st.integers(0, 2**16)), STREAM_TEST, 4)
    space = FiniteSpace.from_class_sizes(draw(st.lists(st.integers(3, 12), min_size=1, max_size=3)))
    rank = draw(st.integers(1, 3))
    if draw(st.booleans()):
        return random_homomorphism(space, rank, rng)
    swaps = draw(st.integers(1, 2 * space.n_atoms))
    return Homomorphism(space, tuple(_sparse_element(space, rng, swaps) for _ in range(rank)))


@settings(max_examples=150, deadline=None)
@given(small_orbit_homs(), st.data())
def test_transitivity_degree_on_small_orbits_matches_the_closure(hom, data):
    sizes = np.bincount(hom.orbit_labels)[hom.orbit_labels]
    root = data.draw(st.sampled_from(np.flatnonzero(sizes == sizes.max()).tolist()))
    k_max = data.draw(st.integers(2, max(2, int(sizes.max()))))
    _check_degree(hom, root, k_max, data.draw(budgets))


def test_transitivity_degree_at_the_default_limit_matches_the_closure():
    sp = FiniteSpace(9, [0] * 9, None)
    cycle = FullGroupElement.from_forward(sp, [(i + 1) % 9 for i in range(9)])
    swap = FullGroupElement.from_forward(sp, [1, 0, *range(2, 9)])
    hom = Homomorphism(sp, (cycle, swap))
    assert transitivity_degree(hom, 4, 6) == oracle_transitivity_degree(hom, 4, 6) == 6


# -- groups of known transitivity ----------------------------------------------------


def _from_cycles(n, cycles):
    """Permutation of 0..n-1 from cycles written on the points 1..n."""
    forward = list(range(n))
    for cyc in cycles:
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            forward[a - 1] = b - 1
    return forward


def _hom(n, *gens):
    sp = FiniteSpace(n, [0] * n, None)
    return Homomorphism(sp, tuple(FullGroupElement.from_forward(sp, g) for g in gens))


# standard generators of the Mathieu groups: M11 is sharply 4-transitive on 11
# points (order 7920), M12 sharply 5-transitive on 12 points (order 95040)
M11 = _hom(11, _from_cycles(11, [(2, 10), (4, 11), (5, 7), (8, 9)]),
           _from_cycles(11, [(1, 4, 3, 8), (2, 5, 6, 9)]))
M12 = _hom(12, _from_cycles(12, [(1, 4), (3, 10), (5, 11), (6, 12)]),
           _from_cycles(12, [(1, 8, 9), (2, 3, 4), (5, 12, 11), (6, 10, 7)]))


@pytest.mark.parametrize("hom, order, degree", [(M11, 7920, 4), (M12, 95040, 5)])
def test_mathieu_groups(hom, order, degree):
    n = hom.space.n_atoms
    tables = [g.forward for g in hom.gens]
    # the orbit of an n-tuple of distinct points is a copy of the group
    assert _orbit_size(range(n), tables, n) == order
    assert [_orbit_size(range(k), tables, k) for k in range(1, degree + 2)] == \
        [perm(n, k) for k in range(1, degree + 1)] + [order]
    assert transitivity_degree(hom, 3, n) == degree


@pytest.mark.parametrize("n", [3, 5, 7])
def test_alternating_groups_are_n_minus_2_transitive(n):
    # an n-cycle and a 3-cycle, both even for odd n, generate Alt(n)
    hom = _hom(n, _from_cycles(n, [tuple(range(1, n + 1))]), _from_cycles(n, [(1, 2, 3)]))
    assert _orbit_size(range(n), [g.forward for g in hom.gens], n) == factorial(n) // 2
    assert transitivity_degree(hom, 0, n) == n - 2
    assert not generates_classwise_symmetric(hom)


@pytest.mark.parametrize("n", [2, 4, 8, 9])
def test_symmetric_groups_are_fully_transitive(n):
    # n = 9 is over the orbit-size guard of 8 that the byte budget replaced
    hom = _hom(n, _from_cycles(n, [tuple(range(1, n + 1))]), _from_cycles(n, [(1, 2)]))
    assert transitivity_degree(hom, n - 1, n) == n
    assert generates_classwise_symmetric(hom)


def test_orbit_on_a_class_that_is_not_the_first():
    # the orbit {4, ..., 7} is relabelled to 0..3 before its tuples are packed
    sp = FiniteSpace(8, [0] * 4 + [1] * 4, None)
    cycle = FullGroupElement.from_forward(sp, [0, 1, 2, 3, 5, 6, 7, 4])
    swap = FullGroupElement.from_forward(sp, [0, 1, 2, 3, 5, 4, 6, 7])
    hom = Homomorphism(sp, (cycle, swap))
    assert transitivity_degree(hom, 6, 4) == 4
    assert transitivity_degree(hom, 0, 1) == 1
    assert not generates_classwise_symmetric(hom)


def test_degree_3_on_a_16_atom_symmetric_orbit():
    # over the orbit-size guard of 12 that the byte budget replaced
    hom = _hom(16, _from_cycles(16, [tuple(range(1, 17))]), _from_cycles(16, [(1, 2)]))
    assert transitivity_degree(hom, 5, 3) == oracle_transitivity_degree(hom, 5, 3) == 3


def test_degree_orbits_close_under_the_generators_alone(small_budget):
    """An inverse is a power of its generator on a finite set, so the forward
    tables give the same orbits as all signed letters with half the images per
    step: a lean hom on 16 atoms whose signed-letter steps need 4472 bytes is
    answered within 4 KiB, and the answer is the closure's."""
    hom = lean_aperiodic_homomorphism(FiniteSpace(16, [0] * 16, None), 2,
                                      derive_rng(1, STREAM_TEST, 16))
    with pytest.raises(AnalysisError, match=r"^tuple orbit step needs 4472 bytes of keys, "):
        _degree(np.arange(16), list(hom.tables.values()), 2)
    assert transitivity_degree(hom, 0, 2) == oracle_transitivity_degree(hom, 0, 2) == 2



# -- oracle: sympy's Schreier-Sims -----------------------------------------------------


def _sympy_group(combinatorics, hom, atoms):
    """The generators restricted to sorted atoms they preserve, relabelled 0..len-1."""
    return combinatorics.PermutationGroup([
        combinatorics.Permutation(np.searchsorted(atoms, g.forward[atoms]).tolist()) for g in hom.gens])


def _seeded_hom(seed):
    """A rank-2 hom on 3 to 9 atoms: random on one class, or sparse swaps on up
    to three classes, so orbits range from fixed points to Sym and Alt."""
    rng = derive_rng(seed, STREAM_TEST, 12)
    n = 3 + seed % 7
    if seed % 2:
        return random_homomorphism(FiniteSpace(n, [0] * n, None), 2, rng)
    cuts = sorted(rng.choice(np.arange(1, n), size=min(2, n - 1), replace=False).tolist())
    sizes = np.diff([0, *cuts, n])
    space = FiniteSpace(n, np.repeat(np.arange(sizes.size), sizes), None)
    return Homomorphism(space, tuple(_sparse_element(space, rng, n) for _ in range(2)))


@pytest.mark.parametrize("seed", range(42))
def test_degrees_match_sympy(seed):
    combinatorics = pytest.importorskip("sympy.combinatorics")
    hom = _seeded_hom(seed)
    for orb in orbits(hom):
        group = _sympy_group(combinatorics, hom, np.array(orb, dtype=np.int64))
        assert transitivity_degree(hom, orb[0], len(orb)) == group.transitivity_degree
    classes = [np.array(cls, dtype=np.int64) for cls in hom.space.classes()]
    expected = all(_sympy_group(combinatorics, hom, atoms).order() == factorial(atoms.size)
                   for atoms in classes)
    assert generates_classwise_symmetric(hom) == expected
    if expected:
        # full symmetric generation forces full transitivity on every class
        assert all(transitivity_degree(hom, int(a[0]), a.size) == a.size for a in classes)

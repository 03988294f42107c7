"""Orbit and cycle labelling kernels, and every caller rebuilt on them, checked
against the per-atom Python walks this package used before, kept here
verbatim as oracles (the Sym walk without its orbit-size guard).  Hooking
from scratch is the independent oracle of the doubling cycle kernel and of
orbit labels hooked onto the first generator's cycles, and the tiled kernel
that hooked every table at once is the oracle of hooking one table at a time."""

import re
import tracemalloc
from fractions import Fraction
from math import factorial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import irslab.fullgroup
import irslab.labels
import irslab.space
from irslab import (
    AnalysisError,
    FiniteSpace,
    FullGroupElement,
    Homomorphism,
    conjugate_to_standard_cycle,
    core_check,
    derive_rng,
    first_return,
    folner_search,
    generates_classwise_symmetric,
    genericity_sweep,
    index_distribution,
    lean_aperiodic_homomorphism,
    orbit,
    orbits,
    parse_property,
    periodic_truncate,
    random_homomorphism,
    random_reduced_word,
    sample_perturbation,
)
from irslab.actions import ball_atoms
from irslab.analysis import schreier_boundary_ratio
from irslab.fullgroup import cycle_structure
from irslab.labels import component_labels, cycle_labels, cycle_positions
from irslab.rng import STREAM_TEST

# -- oracles: the walks the labelling kernel replaced ----------------------------


def walk_orbit(hom, atom):
    seen = {atom}
    frontier = [atom]
    while frontier:
        nxt = []
        for x in frontier:
            for g in hom.gens:
                for y in (int(g.forward[x]), int(g.inverse[x])):
                    if y not in seen:
                        seen.add(y)
                        nxt.append(y)
        frontier = nxt
    return frozenset(seen)


def walk_orbits(hom):
    n = hom.space.n_atoms
    seen = np.zeros(n, dtype=bool)
    out = []
    for start in range(n):
        if seen[start]:
            continue
        orb = sorted(walk_orbit(hom, start))
        seen[orb] = True
        out.append(tuple(orb))
    return out


def walk_index_distribution(hom):
    n = hom.space.n_atoms
    counts = {}
    for orb in walk_orbits(hom):
        counts[len(orb)] = counts.get(len(orb), 0) + len(orb)
    return {size: Fraction(total, n) for size, total in sorted(counts.items())}


def walk_cycles(element):
    n = element.space.n_atoms
    seen = np.zeros(n, dtype=bool)
    out = []
    for start in range(n):
        if seen[start]:
            continue
        cyc = []
        x = start
        while not seen[x]:
            seen[x] = True
            cyc.append(x)
            x = int(element.forward[x])
        out.append(tuple(cyc))
    return out


def walk_cycle_order(sigma):
    n = sigma.space.n_atoms
    cyc = np.empty(n, dtype=np.int64)
    pos = np.empty(n, dtype=np.int64)
    x = 0
    for j in range(n):
        cyc[j] = x
        pos[x] = j
        x = int(sigma.forward[x])
    return cyc, pos


def walk_conjugate_to_standard_cycle(element):
    n = element.space.n_atoms
    forward = np.empty(n, dtype=np.int64)
    x = 0
    for j in range(n):
        forward[x] = j
        x = int(element.forward[x])
    return FullGroupElement.from_forward(element.space, forward)


def walk_first_return(sigma, subset):
    space = sigma.space
    in_y = np.zeros(space.n_atoms, dtype=bool)
    in_y[np.asarray(sorted(subset), dtype=np.int64)] = True
    forward = np.arange(space.n_atoms, dtype=np.int64)
    for cyc in walk_cycles(sigma):
        members = [x for x in cyc if in_y[x]]
        for a, b in zip(members, members[1:] + members[:1]):
            forward[a] = b
    return FullGroupElement.from_forward(space, forward)


def walk_periodic_truncate(hom, level):
    blocks = hom.space.block_index(level)
    new_gens = []
    for g in hom.gens:
        stays_fwd = blocks[g.forward] == blocks
        stays_bwd = blocks[g.inverse] == blocks
        forward = np.where(stays_fwd, g.forward, np.arange(hom.space.n_atoms))
        for x in np.nonzero(stays_bwd & ~stays_fwd)[0]:
            y = int(x)
            while stays_bwd[y]:
                y = int(g.inverse[y])
            forward[x] = y
        new_gens.append(FullGroupElement.from_forward(hom.space, forward))
    return Homomorphism(hom.space, tuple(new_gens))


def walk_core_check(hom, word):
    g = hom.element_of(word)
    fixed = g.forward == np.arange(hom.space.n_atoms)
    trivial_atoms = 0
    for orb in walk_orbits(hom):
        if fixed[np.asarray(orb, dtype=np.int64)].all():
            trivial_atoms += len(orb)
    return Fraction(trivial_atoms, hom.space.n_atoms)


def walk_ball(hom, root, radius):
    dist = {root: 0}
    frontier = [root]
    for d in range(radius):
        nxt = []
        for x in frontier:
            for g in hom.gens:
                for y in (int(g.forward[x]), int(g.inverse[x])):
                    if y not in dist:
                        dist[y] = d + 1
                        nxt.append(y)
        frontier = nxt
    return tuple(sorted(dist))


def walk_folner_search(hom, root, l, radius):
    orb = walk_orbit(hom, root)
    cap = len(orb) // 2
    if cap == 0:
        return frozenset(), Fraction(1), False
    threshold = Fraction(1, l)

    in_ball = {root}
    frontier_bfs = [root]
    for _ in range(radius):
        nxt = []
        for x in frontier_bfs:
            for g in hom.gens:
                for y in (int(g.forward[x]), int(g.inverse[x])):
                    if y not in in_ball:
                        in_ball.add(y)
                        nxt.append(y)
        frontier_bfs = nxt
    pool = set(in_ball)
    cycle_candidates = []
    for cyc in walk_cycles(hom.gens[-1]):
        if any(v in in_ball for v in cyc):
            pool.update(cyc)
            if 0 < len(cyc) <= cap:
                cycle_candidates.append(frozenset(cyc))

    best_set = frozenset([root])
    best_ratio = schreier_boundary_ratio(hom, best_set)
    for cand in sorted(cycle_candidates, key=lambda c: (len(c), sorted(c))):
        ratio = schreier_boundary_ratio(hom, cand)
        if ratio < best_ratio or (ratio == best_ratio and len(cand) < len(best_set)):
            best_set, best_ratio = cand, ratio

    n = hom.space.n_atoms
    member = np.zeros(n, dtype=bool)
    member[root] = True
    current = [root]
    out_count = []
    in_count = []
    for g in hom.gens:
        out_count.append(0 if g.forward[root] == root else 1)
        in_count.append(0 if g.inverse[root] == root else 1)

    def neighbors(x):
        for g in hom.gens:
            yield int(g.forward[x])
            yield int(g.inverse[x])

    frontier = {y for y in neighbors(root) if y in pool and y != root}
    evaluations = 0
    while len(current) < min(cap, len(pool)):
        if not frontier or evaluations > 4096:
            break
        evaluations += len(frontier)
        pick = None
        for y in sorted(frontier):
            worst = Fraction(0)
            for gi, g in enumerate(hom.gens):
                out = out_count[gi] - (1 if member[g.inverse[y]] else 0)
                fy = int(g.forward[y])
                if not member[fy] and fy != y:
                    out += 1
                inc = in_count[gi] - (1 if member[g.forward[y]] else 0)
                by = int(g.inverse[y])
                if not member[by] and by != y:
                    inc += 1
                worst = max(worst, Fraction(out + inc, len(current) + 1))
            if pick is None or (worst, y) < pick[:2]:
                pick = (worst, y, None)
        ratio, y, _ = pick
        member[y] = True
        current.append(y)
        atoms = np.asarray(current, dtype=np.int64)
        for gi, g in enumerate(hom.gens):
            out_count[gi] = int(np.count_nonzero(~member[g.forward[atoms]]))
            in_count[gi] = int(np.count_nonzero(~member[g.inverse[atoms]]))
        frontier.discard(y)
        frontier.update(z for z in neighbors(y) if z in pool and not member[z])
        if ratio < best_ratio or (ratio == best_ratio and len(current) < len(best_set)):
            best_set, best_ratio = frozenset(current), ratio

    return best_set, best_ratio, best_ratio < threshold


def _walk_closure(perms, limit):
    degree = len(perms[0])
    identity = tuple(range(degree))
    group = {identity}
    queue = [identity]
    while queue:
        p = queue.pop()
        for q in perms:
            composed = tuple(q[p[i]] for i in range(degree))
            if composed not in group:
                if len(group) >= limit:
                    raise AnalysisError("group closure exceeded its limit")
                group.add(composed)
                queue.append(composed)
    return group


def walk_generates_classwise_symmetric(hom):
    for cls in hom.space.classes():
        if len(cls) == 1:
            continue
        if walk_orbit(hom, cls[0]) != frozenset(cls):
            return False
        relabel = {x: i for i, x in enumerate(cls)}
        perms = [tuple(relabel[int(g.forward[x])] for x in cls) for g in hom.gens]
        if len(_walk_closure(perms, factorial(len(cls)) + 1)) != factorial(len(cls)):
            return False
    return True


# -- cases -------------------------------------------------------------------------


def _sparse_element(space, rng, swaps):
    """Identity but for a few swaps inside classes: many small orbits, fixed points."""
    forward = np.arange(space.n_atoms, dtype=np.int64)
    for _ in range(swaps):
        x = int(rng.integers(space.n_atoms))
        cls = space.classes()[int(space.class_of[x])]
        y = cls[int(rng.integers(len(cls)))]
        forward[[x, y]] = forward[[y, x]]
    return FullGroupElement.from_forward(space, forward)


def _single_cycle(n, rng):
    """Rank-1 action by one n-cycle through the atoms in random order."""
    space = FiniteSpace.single_class(n)
    order = rng.permutation(n)
    forward = np.empty(n, dtype=np.int64)
    forward[order] = np.roll(order, -1)
    return Homomorphism(space, (FullGroupElement.from_forward(space, forward),))


@st.composite
def homs(draw):
    """Lean-aperiodic, random and sparse homs of rank 1-3, on one class or on
    several classes with singletons, and rank-1 single n-cycles."""
    kind = draw(st.sampled_from(["lean", "random", "sparse", "classes", "cycle"]))
    rng = derive_rng(draw(st.integers(0, 2**16)), STREAM_TEST, 0)
    rank = draw(st.integers(1, 3))
    if kind == "cycle":
        return _single_cycle(draw(st.integers(1, 200)), rng)
    if kind == "classes":
        sizes = draw(st.lists(st.integers(1, 6), min_size=1, max_size=12))
        space = FiniteSpace.from_class_sizes(sizes)
    else:
        space = FiniteSpace.single_class(draw(st.integers(1, 64)))
    if kind == "lean":
        return lean_aperiodic_homomorphism(space, rank, rng)
    if kind == "sparse":
        swaps = draw(st.integers(0, space.n_atoms))
        return Homomorphism(space, tuple(_sparse_element(space, rng, swaps) for _ in range(rank)))
    return random_homomorphism(space, rank, rng)


def tiled_component_labels(tables, n: int, start=None) -> np.ndarray:
    """The kernel before it hooked one table at a time: every table's edges in
    one tiled source and one concatenated destination array."""
    parent = np.arange(n, dtype=np.int64) if start is None else np.array(start, dtype=np.int64)
    if not tables:
        return parent
    src = np.tile(np.arange(n, dtype=np.int64), len(tables))
    dst = np.concatenate([np.asarray(t, dtype=np.int64) for t in tables])
    while True:
        a, b = parent[src], parent[dst]
        cross = a != b
        if not cross.any():
            return parent
        # an edge inside one tree stays inside it: drop it for good
        src, dst, a, b = src[cross], dst[cross], a[cross], b[cross]
        np.minimum.at(parent, np.maximum(a, b), np.minimum(a, b))
        while not np.array_equal(grand := parent[parent], parent):
            parent = grand


def _label_oracle(hom):
    labels = np.empty(hom.space.n_atoms, dtype=np.int64)
    for orb in walk_orbits(hom):
        labels[list(orb)] = orb[0]
    return labels


# -- kernels --------------------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(homs())
def test_component_labels_match_the_orbit_walk(hom):
    tables = [g.forward for g in hom.gens]
    assert np.array_equal(component_labels(tables, hom.space.n_atoms), _label_oracle(hom))
    assert np.array_equal(hom.orbit_labels, _label_oracle(hom))


def _start_labellings(hom):
    """Star forests to hook from: none (each atom alone), the first generator's
    cycles, the space's classes, and one class holding every atom."""
    n = hom.space.n_atoms
    first = np.full(hom.space.class_count, n, dtype=np.int64)
    np.minimum.at(first, hom.space.class_of, np.arange(n))  # the least atom of each class
    return None, hom.gens[0].cycle_labels, first[hom.space.class_of], np.zeros(n, dtype=np.int64)


@settings(max_examples=150, deadline=None)
@given(homs())
def test_component_labels_match_the_tiled_kernel(hom):
    n = hom.space.n_atoms
    tables = [g.forward for g in hom.gens]
    for start in _start_labellings(hom):
        for hooked in (tables, tables[1:], tables[::-1]):
            got = component_labels(hooked, n, start)
            assert got.dtype == np.int64
            assert np.array_equal(got, tiled_component_labels(hooked, n, start))


@settings(max_examples=150, deadline=None)
@given(homs())
def test_cycle_positions_match_the_cycle_walk(hom):
    for g in hom.gens:
        labels = component_labels([g.forward], hom.space.n_atoms)
        pos = cycle_positions(g.inverse, labels)
        for cyc in walk_cycles(g):
            assert labels[list(cyc)].tolist() == [cyc[0]] * len(cyc)
            assert pos[list(cyc)].tolist() == list(range(len(cyc)))


def _cycle_oracle(g):
    labels = np.empty(g.space.n_atoms, dtype=np.int64)
    for cyc in walk_cycles(g):
        labels[list(cyc)] = cyc[0]
    return labels


def assert_cycle_labels(g):
    """The doubling kernel against the cycle walk and single-table hooking."""
    got = cycle_labels(g.forward)
    assert got.dtype == np.int64
    assert np.array_equal(got, _cycle_oracle(g))
    assert np.array_equal(got, component_labels([g.forward], g.space.n_atoms))


@settings(max_examples=150, deadline=None)
@given(homs())
def test_cycle_labels_match_the_cycle_walk_and_hooking(hom):
    for g in hom.gens:
        assert_cycle_labels(g)


N_CYCLE_SIZES = [1, 2, 3, 1000, 4096, 2**14 + 3]


@pytest.mark.parametrize("n", N_CYCLE_SIZES)
def test_cycle_labels_of_one_n_cycle(n):
    assert_cycle_labels(_single_cycle(n, derive_rng(n, STREAM_TEST, 1)).gens[0])


@pytest.mark.parametrize("n", [1, 2, 64])
def test_cycle_labels_of_the_identity(n):
    assert_cycle_labels(FullGroupElement.identity(FiniteSpace.single_class(n)))


def test_cycle_labels_of_no_atom_and_of_one():
    empty = cycle_labels(np.arange(0))
    assert empty.dtype == np.int64 and empty.size == 0
    assert cycle_labels([0]).tolist() == [0]


def _component_oracle(hom):
    """Least atom of each networkx component of the graph of every generator."""
    nx = pytest.importorskip("networkx")
    n = hom.space.n_atoms
    graph = nx.Graph()
    graph.add_nodes_from(range(n))
    for g in hom.gens:
        graph.add_edges_from(zip(range(n), g.forward.tolist()))
    expected = np.empty(n, dtype=np.int64)
    for comp in nx.connected_components(graph):
        expected[list(comp)] = min(comp)
    return expected


def assert_orbit_labels(hom):
    """Orbit labels hooked onto the first generator's cycles, against hooking
    every generator from scratch and against networkx."""
    unseeded = component_labels([g.forward for g in hom.gens], hom.space.n_atoms)
    assert np.array_equal(hom.orbit_labels, unseeded)
    assert np.array_equal(unseeded, _component_oracle(hom))


@settings(max_examples=100, deadline=None)
@given(homs())
def test_seeded_orbit_labels_match_unseeded_hooking_and_networkx(hom):
    assert_orbit_labels(hom)
    if hom.rank > 1:  # rank 1: no table left to hook, the cycles are the orbits
        assert_orbit_labels(Homomorphism(hom.space, hom.gens[:1]))


@settings(max_examples=40, deadline=None)
@given(homs(), st.integers(0, 2**16), st.sampled_from([Fraction(1, 8), Fraction(1, 2), Fraction(2)]))
def test_seeded_orbit_labels_of_perturbation_samples(hom, seed, epsilon):
    sample = sample_perturbation(hom, epsilon, derive_rng(seed, STREAM_TEST, 4))
    assert sample.gens[0] is hom.gens[0]
    assert_orbit_labels(sample)


def test_component_labels_start_from_a_star_forest():
    start = np.array([0, 0, 2, 2, 4])
    assert component_labels([], 5, start).tolist() == [0, 0, 2, 2, 4]
    assert component_labels([np.array([0, 1, 4, 3, 2])], 5, start).tolist() == [0, 0, 2, 2, 2]
    assert start.tolist() == [0, 0, 2, 2, 4]


def test_sweep_labels_the_kept_generator_once(monkeypatch):
    hom = lean_aperiodic_homomorphism(FiniteSpace.single_class(256), 2, derive_rng(6, STREAM_TEST, 6))
    sigma = hom.gens[0].forward.tolist()
    calls = []
    label = irslab.labels.cycle_labels

    def counted(perm):
        calls.append(np.asarray(perm).tolist() == sigma)
        return label(perm)

    for module in (irslab.labels, irslab.fullgroup):
        monkeypatch.setattr(module, "cycle_labels", counted)
    monkeypatch.setenv("IRSLAB_WORKERS", "1")
    for prop in ("corefree(s2)", "folner(3, 2)"):
        genericity_sweep(hom, Fraction(1, 16), 10, parse_property(prop, 2), 7)
    assert sum(calls) == 1


@pytest.mark.parametrize("n", N_CYCLE_SIZES)
def test_single_n_cycle_worst_case(n):
    hom = _single_cycle(n, derive_rng(n, STREAM_TEST, 1))
    perm = hom.gens[0].forward
    labels = component_labels([perm], n)
    assert not labels.any()
    pos = cycle_positions(hom.gens[0].inverse, labels)
    walk = np.empty(n, dtype=np.int64)
    x = 0
    for k in range(n):
        walk[x] = k
        x = int(perm[x])
    assert np.array_equal(pos, walk)


def test_kernel_edge_cases():
    assert component_labels([np.arange(5)], 5).tolist() == [0, 1, 2, 3, 4]
    assert component_labels([np.array([1, 0, 2]), np.array([0, 2, 1])], 3).tolist() == [0, 0, 0]
    labels = component_labels([np.array([2, 0, 1, 3])], 4)
    pos = cycle_positions([1, 2, 0, 3], labels)  # the predecessors under [2, 0, 1, 3]
    assert labels.tolist() == [0, 0, 0, 3]
    assert pos.tolist() == [0, 2, 1, 0]


def test_element_cycle_positions_are_labelled_once_and_read_only():
    g = FullGroupElement.from_forward(FiniteSpace.single_class(4), [2, 0, 1, 3])
    labels, pos = g.cycle_positions
    assert g.cycle_positions[0] is labels and g.cycle_positions[1] is pos
    assert (labels.tolist(), pos.tolist()) == ([0, 0, 0, 3], [0, 2, 1, 0])
    assert not labels.flags.writeable and not pos.flags.writeable


def test_element_cycle_labels_are_shared_by_every_cycle_reader():
    g = FullGroupElement.from_forward(FiniteSpace.single_class(4), [2, 0, 1, 3])
    labels = g.cycle_labels
    assert g.cycle_labels is labels and g.cycle_positions[0] is labels
    assert labels.tolist() == [0, 0, 0, 3] and not labels.flags.writeable
    assert cycle_structure(g).lengths == (1, 3)
    assert g.cycles() == [(0, 2, 1), (3,)]


def _peak_arrays(call, n):
    """tracemalloc's peak over one call, in n-atom int64 arrays, after a warm-up call."""
    call()
    tracemalloc.start()
    try:
        call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / (8 * n)


@pytest.mark.parametrize("model", ["lean", "random", "classes of 8"])
def test_component_labels_hook_within_a_few_arrays(model):
    """One table at a time, from its tree-joining edges only: on a rank-3 hom of
    2^14 atoms the kernel peaked at 2.1-3.8 n-atom int64 arrays from the first
    generator's cycles and at 5.6-6.1 from every atom alone; the tiled kernel
    (`tiled_component_labels`) took 9.3-12.8 and 23.9-25.4."""
    n, rng = 2 ** 14, derive_rng(34, STREAM_TEST, 34)
    if model == "lean":
        hom = lean_aperiodic_homomorphism(FiniteSpace.single_class(n), 3, rng)
    else:
        space = FiniteSpace.single_class(n) if model == "random" else FiniteSpace.from_class_sizes([8] * (n // 8))
        hom = random_homomorphism(space, 3, rng)
    tables = [g.forward for g in hom.gens]
    start = hom.gens[0].cycle_labels
    assert _peak_arrays(lambda: component_labels(tables[1:], n, start), n) <= 5
    assert _peak_arrays(lambda: component_labels(tables, n), n) <= 7


def test_a_start_of_one_class_costs_one_comparison_per_table():
    """Every edge stays inside the one class: a copy of the start, one gathered
    table and one bool mask, whatever the rank (2.1 arrays; the tiled kernel took 13.4)."""
    n = 2 ** 14
    hom = random_homomorphism(FiniteSpace.single_class(n), 3, derive_rng(34, STREAM_TEST, 35))
    start = np.zeros(n, dtype=np.int64)
    assert _peak_arrays(lambda: component_labels([g.forward for g in hom.gens], n, start), n) <= 3


def test_orbit_labels_are_cached_and_read_only():
    hom = lean_aperiodic_homomorphism(FiniteSpace.single_class(16), 2, derive_rng(0, STREAM_TEST, 2))
    assert hom.orbit_labels is hom.orbit_labels
    with pytest.raises(ValueError):
        hom.orbit_labels[0] = 1


@settings(max_examples=60, deadline=None)
@given(homs())
def test_component_labels_match_networkx(hom):
    tables = [g.forward for g in hom.gens]
    assert np.array_equal(component_labels(tables, hom.space.n_atoms), _component_oracle(hom))


# -- rebuilt callers --------------------------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(homs(), st.data())
def test_orbit_callers_match_the_walks(hom, data):
    n = hom.space.n_atoms
    assert orbits(hom) == walk_orbits(hom)
    assert index_distribution(hom) == walk_index_distribution(hom)
    atom = data.draw(st.integers(0, n - 1))
    assert orbit(hom, atom) == walk_orbit(hom, atom)
    radius = data.draw(st.integers(0, 4))
    assert tuple(ball_atoms(hom, atom, radius).tolist()) == walk_ball(hom, atom, radius)
    word = random_reduced_word(hom.rank, data.draw(st.integers(1, 4)), derive_rng(n, STREAM_TEST, 3))
    assert core_check(hom, word) == walk_core_check(hom, word)


@settings(max_examples=100, deadline=None)
@given(homs(), st.data())
def test_cycle_callers_match_the_walks(hom, data):
    n = hom.space.n_atoms
    for g in hom.gens:
        assert g.cycles() == walk_cycles(g)
        lengths = tuple(sorted(len(c) for c in walk_cycles(g)))
        assert cycle_structure(g).lengths == lengths
        assert cycle_structure(g).is_single_cycle == (lengths == (n,))
        subset = data.draw(st.lists(st.integers(0, n - 1), max_size=n))
        assert first_return(g, subset) == walk_first_return(g, subset)
        if hom.space.is_single_class and cycle_structure(g).is_single_cycle:
            labels = component_labels([g.forward], n)
            pos = cycle_positions(g.inverse, labels)
            cyc, walked_pos = walk_cycle_order(g)
            assert not labels.any() and np.array_equal(pos, walked_pos)
            assert np.array_equal(cyc[pos], np.arange(n))
            assert conjugate_to_standard_cycle(g) == walk_conjugate_to_standard_cycle(g)
    levels = hom.space.filtration_levels
    if levels is not None:
        level = data.draw(st.integers(0, levels))
        assert periodic_truncate(hom, level) == walk_periodic_truncate(hom, level)


@settings(max_examples=100, deadline=None)
@given(homs(), st.data())
def test_folner_search_matches_the_walk(hom, data):
    root = data.draw(st.integers(0, hom.space.n_atoms - 1))
    l = data.draw(st.integers(1, 4))
    radius = data.draw(st.integers(0, 3))
    result = folner_search(hom, root, l, radius)
    assert (result.subset, result.ratio, result.success) == walk_folner_search(hom, root, l, radius)


REFUSED = "refused"
_BOUNDARY = re.compile(r"^tuple orbit step needs \d+ bytes of keys, over the budget of \d+$"
                       r"|^packed state space n\^\(m\+1\) = \d+\^\d+ overflows 64-bit keys$")


def within_budget(fn, hom, budget):
    """fn(hom) with the byte budget lowered to budget, or REFUSED when the
    tuple kernel refuses at its size boundary: the budget or the key width."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(irslab.space, "_BYTE_BUDGET", budget)
        try:
            return fn(hom)
        except AnalysisError as exc:
            assert _BOUNDARY.match(str(exc)), str(exc)
            return REFUSED


# keeps the oracles fast: at most 20k visited keys, as the old tuple limit did
budgets = st.integers(8, 8 * 20_000)


@settings(max_examples=100, deadline=None)
@given(homs(), budgets)
def test_generates_classwise_symmetric_matches_the_walk(hom, budget):
    got = within_budget(generates_classwise_symmetric, hom, budget)
    if got is not REFUSED:
        assert got == walk_generates_classwise_symmetric(hom)

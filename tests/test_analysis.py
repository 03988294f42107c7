"""Diagnostics: boundary ratios, transitivity, realization, stability, sweeps."""

import re
import tracemalloc
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import irslab.space
from irslab import (
    AnalysisError,
    FiniteSpace,
    FullGroupElement,
    Homomorphism,
    ReducedWord,
    ball_stability_check,
    build_folner_perturbation,
    build_ht_perturbation,
    core_check,
    derive_rng,
    folner_search,
    generates_classwise_symmetric,
    genericity_sweep,
    hom_metric,
    lean_aperiodic_homomorphism,
    orbit,
    parse_property,
    parse_word,
    random_homomorphism,
    realizes_tau_fraction,
    reduce_letters,
    sample_perturbation,
    schreier_boundary_ratio,
    transitivity_degree,
)
import irslab.actions as actions
import irslab.analysis as analysis
from irslab.actions import _code_blocks as code_blocks
from irslab.actions import ball_atoms, ball_codes
from irslab.analysis import SweepProperty, _pack
from irslab.rng import STREAM_TEST
from irslab.words import _check_radius, ball_size


def single(n):
    return FiniteSpace.single_class(n)


def odometer_hom(n, rank=2):
    sp = single(n)
    gens = [FullGroupElement.odometer(sp)]
    gens.extend(FullGroupElement.identity(sp) for _ in range(rank - 1))
    return Homomorphism(sp, tuple(gens))


# -- boundary ratio and search -------------------------------------------------


@pytest.mark.parametrize("atom", [-1, -16, 16, 99])
def test_roots_outside_the_space_are_refused(atom):
    hom = random_homomorphism(single(16), 2, derive_rng(17, STREAM_TEST, 17))
    calls = [
        lambda: folner_search(hom, atom, 2, 1),
        lambda: transitivity_degree(hom, atom, 2),
        lambda: schreier_boundary_ratio(hom, [atom]),
        lambda: schreier_boundary_ratio(hom, np.array([0, atom])),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=rf"^atom {atom} is not in \[0, 16\)$"):
            call()
        if call is calls[0]:  # the root is refused before the orbits are labelled
            assert "orbit_labels" not in hom.__dict__


def test_schreier_boundary_ratio():
    hom = odometer_hom(8)
    assert schreier_boundary_ratio(hom, [0, 1, 2, 3]) == Fraction(1, 2)
    assert schreier_boundary_ratio(hom, range(8)) == 0
    assert schreier_boundary_ratio(hom, [3]) == 2
    with pytest.raises(ValueError):
        schreier_boundary_ratio(hom, [])


def test_folner_search_arc_on_a_plain_cycle():
    hom = odometer_hom(16)
    result = folner_search(hom, 0, 3, 8)
    assert result.ratio == Fraction(1, 4)
    assert len(result.subset) == 8
    assert result.success
    assert not folner_search(hom, 0, 4, 8).success


def test_folner_search_singleton_orbit():
    sp = single(8)
    ident = FullGroupElement.identity(sp)
    hom = Homomorphism(sp, (ident, ident))
    result = folner_search(hom, 3, 2, 4)
    assert result.subset == frozenset()
    assert result.ratio == 1
    assert not result.success


def test_folner_search_finds_a_planted_class():
    sp = single(1024)
    rng = derive_rng(30, STREAM_TEST, 30)
    hom = lean_aperiodic_homomorphism(sp, 2, rng)
    planted = build_folner_perturbation(hom, Fraction(1, 4), [16])
    result = folner_search(planted, 0, 7, 2)
    assert result.success
    assert result.ratio <= Fraction(1, 8)



def frozenset_folner_search(hom, root, l, radius):
    """`folner_search` as it was when every improving candidate became a
    frozenset, verbatim but for the module prefixes."""
    if l < 1:
        raise ValueError("l must be at least 1")
    _check_radius(radius)
    root = actions._atom(hom, root)
    cap = int(np.count_nonzero(hom.orbit_labels == hom.orbit_labels[root])) // 2
    if cap == 0:
        return analysis.FolnerResult(frozenset(), Fraction(1), False)

    # the pool: every cycle of the last generator that meets the ball; the
    # candidates: its cycles of at most cap atoms, each ascending
    n = hom.space.n_atoms
    cycle_of = hom.gens[-1].cycle_labels
    hit = np.zeros(n, dtype=bool)
    hit[cycle_of[ball_atoms(hom, root, radius)]] = True
    in_pool = hit[cycle_of]
    pool_size = int(np.count_nonzero(in_pool))
    hit &= np.bincount(cycle_of, minlength=n) <= cap
    small = np.flatnonzero(hit[cycle_of])
    small = small[np.argsort(cycle_of[small], kind="stable")]
    cycles = np.split(small, np.flatnonzero(np.diff(cycle_of[small])) + 1) if small.size else []

    best_set: frozenset[int] = frozenset([root])
    best_ratio = schreier_boundary_ratio(hom, best_set)
    # disjoint cycles differ at their least atoms: (size, least atom) orders them as (size, atoms)
    for cand in sorted(cycles, key=lambda c: (c.size, int(c[0]))):
        ratio = schreier_boundary_ratio(hom, cand)
        if ratio < best_ratio or (ratio == best_ratio and cand.size < len(best_set)):
            best_set, best_ratio = frozenset(cand.tolist()), ratio

    # greedy growth with escape counts kept per generator (one row each); the candidates
    # of one step share the denominator len(current) + 1, so compare numerators
    inside = np.zeros(n, dtype=bool)
    inside[root] = True
    current = [root]
    out_count = np.array([[g.forward[root] != root] for g in hom.gens], dtype=np.int64)

    def neighbors(x):
        return (int(t[x]) for t in hom.tables.values())

    frontier = {y for y in neighbors(root) if in_pool[y] and y != root}
    evaluations = 0
    while len(current) < min(cap, pool_size):
        if not frontier or evaluations > analysis._GREEDY_STEP_BUDGET:
            break
        evaluations += len(frontier)
        ys = np.array(sorted(frontier), dtype=np.int64)
        fy = np.stack([g.forward[ys] for g in hom.gens])
        by = np.stack([g.inverse[ys] for g in hom.gens])
        # adding y: g^-1 y stops escaping if inside, y escapes unless g y is in F + {y};
        # |gF - F| = |F - gF| as |gF| = |F|, so the symmetric difference is twice the escapes
        out = out_count - inside[by] + ((fy != ys) & ~inside[fy])
        worst = 2 * out.max(axis=0)
        pick = int(np.argmin(worst))  # ys ascend, so ties go to the least atom
        y = int(ys[pick])
        ratio = Fraction(int(worst[pick]), len(current) + 1)
        inside[y] = True
        current.append(y)
        out_count = out[:, pick:pick + 1]
        frontier.discard(y)
        frontier.update(z for z in neighbors(y) if in_pool[z] and not inside[z])
        if ratio < best_ratio or (ratio == best_ratio and len(current) < len(best_set)):
            best_set, best_ratio = frozenset(current), ratio

    return analysis.FolnerResult(best_set, best_ratio, best_ratio < Fraction(1, l))


def _folner_homs():
    rng = derive_rng(33, STREAM_TEST, 33)
    for rank in (1, 2, 3):
        for n in (2, 16, 100, 2 ** 10):
            yield lean_aperiodic_homomorphism(single(n), rank, rng)
            yield random_homomorphism(single(n), rank, rng)
        yield random_homomorphism(FiniteSpace.from_class_sizes([1, 2, 3, 5, 8, 13, 40]), rank, rng)
        for _ in range(3):  # small classes: cycles tie with greedy prefixes of their size
            yield random_homomorphism(FiniteSpace.from_class_sizes(rng.integers(1, 8, size=5).tolist()), rank, rng)
    lean = lean_aperiodic_homomorphism(single(2 ** 12), 2, rng)
    yield lean
    yield build_folner_perturbation(lean, Fraction(1, 4), [16, 16, 32])  # planted cycles win
    yield odometer_hom(64)  # ties between cycles and greedy prefixes


def test_folner_search_matches_the_frozenset_search():
    rng = derive_rng(34, STREAM_TEST, 34)
    for hom in _folner_homs():
        n = hom.space.n_atoms
        for root in range(n) if n <= 40 else {0, n - 1, *rng.integers(n, size=3).tolist()}:
            for radius in (0, 1, 3):
                for l in (1, 8):
                    assert folner_search(hom, root, l, radius) == frozenset_folner_search(hom, root, l, radius)

def connected_subsets(hom, orb, max_size):
    """All connected subsets of an orbit, as frozensets."""
    orb = sorted(orb)
    neighbors = {
        x: {int(g.forward[x]) for g in hom.gens} | {int(g.inverse[x]) for g in hom.gens}
        for x in orb
    }
    out = set()
    for size in range(1, max_size + 1):
        for combo in combinations(orb, size):
            atoms = set(combo)
            seen = {combo[0]}
            stack = [combo[0]]
            while stack:
                x = stack.pop()
                for y in neighbors[x] & atoms:
                    if y not in seen:
                        seen.add(y)
                        stack.append(y)
            if seen == atoms:
                out.add(frozenset(atoms))
    return out


def test_folner_search_invariants_on_small_orbits():
    rng = derive_rng(31, STREAM_TEST, 31)
    sp = FiniteSpace(10, [0] * 10, None)
    for trial in range(12):
        hom = random_homomorphism(sp, 2, rng)
        root = int(rng.integers(10))
        orb = orbit(hom, root)
        if len(orb) > 12:
            continue
        result = folner_search(hom, root, 3, 5)
        if len(orb) == 1:
            assert result.subset == frozenset() and not result.success
            continue
        cap = len(orb) // 2
        valid = connected_subsets(hom, orb, cap)
        if result.subset:
            assert result.subset in valid
            assert result.ratio == schreier_boundary_ratio(hom, result.subset)
            # the search never beats the true optimum over valid sets
            best = min(schreier_boundary_ratio(hom, s) for s in valid)
            assert result.ratio >= best
        assert result.success == (result.ratio < Fraction(1, 3))


# -- transitivity degree ---------------------------------------------------------


def test_transitivity_degree_symmetric():
    sp = FiniteSpace(4, [0] * 4, None)
    cycle = FullGroupElement.from_forward(sp, [1, 2, 3, 0])
    swap = FullGroupElement.from_forward(sp, [1, 0, 2, 3])
    hom = Homomorphism(sp, (cycle, swap))
    assert transitivity_degree(hom, 0, 4) == 4
    assert transitivity_degree(hom, 0, 2) == 2


def test_transitivity_degree_cyclic():
    sp = single(8)
    hom = Homomorphism(sp, (FullGroupElement.odometer(sp),))
    assert transitivity_degree(hom, 0, 4) == 1


def test_transitivity_degree_singleton_orbit():
    sp = FiniteSpace(4, [0] * 4, None)
    ident = FullGroupElement.identity(sp)
    hom = Homomorphism(sp, (ident, ident))
    assert transitivity_degree(hom, 2, 3) == 1


BUDGET_ERROR = r"^tuple orbit step needs \d+ bytes of keys, over the budget of "


def test_transitivity_degree_guard(monkeypatch):
    hom = odometer_hom(16)  # over the old orbit-size guard of 12
    assert transitivity_degree(hom, 0, 2) == 1
    monkeypatch.setattr(irslab.space, "_BYTE_BUDGET", 8 * 16)
    with pytest.raises(AnalysisError, match=BUDGET_ERROR + "128$"):
        transitivity_degree(hom, 0, 2)
    small = odometer_hom(8)
    with pytest.raises(ValueError):
        transitivity_degree(small, 0, 0)


# -- realization of tower permutations -------------------------------------------


def test_realizes_identity_tau_at_radius_zero():
    hom = odometer_hom(8)
    assert realizes_tau_fraction(hom, 3, (0, 1, 2), 0) == 1


def test_realizes_swap_needs_a_witness():
    hom = odometer_hom(8)
    # s2 acts trivially, every word is a power of the cycle, no witness exists
    assert realizes_tau_fraction(hom, 2, (1, 0), 16) == 0
    built = build_ht_perturbation(hom, 2, (1, 0), Fraction(3, 5))
    assert realizes_tau_fraction(built, 2, (1, 0), 16) == 1


def test_realizes_partial_fraction():
    # swap the second generator on the top half only: exactly the atoms
    # whose short conjugating power reaches the rearranged tower succeed
    hom = odometer_hom(8)
    built = build_ht_perturbation(hom, 2, (1, 0), Fraction(3, 5))
    # with radius 0 only atoms whose own tuple already matches tau succeed
    at_zero = realizes_tau_fraction(built, 2, (1, 0), 0)
    assert at_zero == 0
    assert realizes_tau_fraction(built, 2, (1, 0), 1) > 0


def test_realizes_tau_validation():
    hom = odometer_hom(8)
    with pytest.raises(ValueError):
        realizes_tau_fraction(hom, 2, (0, 2), 4)
    with pytest.raises(ValueError):
        realizes_tau_fraction(hom, 0, (), 4)
    with pytest.raises(ValueError):
        realizes_tau_fraction(hom, 2, (1, 0), -1)
    sp = single(8)
    ident = FullGroupElement.identity(sp)
    with pytest.raises(AnalysisError):
        realizes_tau_fraction(Homomorphism(sp, (ident, ident)), 2, (1, 0), 4)
    big = odometer_hom(1024)
    with pytest.raises(AnalysisError):
        realizes_tau_fraction(big, 6, (0, 1, 2, 3, 4, 5), 4)


# -- core check -------------------------------------------------------------------


def test_core_check_on_the_plain_cycle():
    hom = odometer_hom(8)
    assert core_check(hom, parse_word("s2", 2)) == 1
    assert core_check(hom, parse_word("s1", 2)) == 0
    with pytest.raises(ValueError):
        core_check(hom, parse_word("", 2))


def test_core_check_mixed_orbits():
    sp = FiniteSpace(4, [0] * 4, None)
    swap = FullGroupElement.from_forward(sp, [1, 0, 2, 3])
    hom = Homomorphism(sp, (swap, FullGroupElement.identity(sp)))
    # s1 moves the orbit {0,1} and fixes the singletons
    assert core_check(hom, parse_word("s1", 2)) == Fraction(1, 2)
    assert core_check(hom, parse_word("s2", 2)) == 1


# -- ball stability ----------------------------------------------------------------


def test_ball_stability_identical_actions():
    hom = odometer_hom(64)
    result = ball_stability_check(hom, hom, 2)
    assert result.observed == 0
    assert result.bound == 0


def test_ball_stability_single_swap():
    hom = odometer_hom(256)
    swapped = hom.replace_generator(
        1, FullGroupElement.from_forward(hom.space, [1, 0] + list(range(2, 256)))
    )
    result = ball_stability_check(hom, swapped, 1)
    delta = hom_metric(hom, swapped)
    assert delta == Fraction(1, 128)
    assert result.bound == delta * 3 * ball_size(2, 3)
    assert 0 < result.observed <= result.bound


def test_ball_stability_random_trials():
    rng = derive_rng(32, STREAM_TEST, 32)
    sp = single(256)
    for _ in range(5):
        a = lean_aperiodic_homomorphism(sp, 2, rng)
        b = sample_perturbation(a, Fraction(1, 16), rng)
        result = ball_stability_check(a, b, 1)
        assert result.observed <= result.bound


def oracle_observed(a, b, radius):
    """The global kernel: ball codes of every atom under both actions."""
    differ = (ball_codes(a, radius) != ball_codes(b, radius)).any(axis=1)
    return Fraction(int(np.count_nonzero(differ)), a.space.n_atoms)


def moved_atoms(a, b):
    """D: the atoms where some signed-letter table of a differs from b's."""
    return np.flatnonzero(np.any([t != b.tables[l] for l, t in a.tables.items()], axis=0))


def _swap_pair():
    hom = odometer_hom(256)
    swap = FullGroupElement.from_forward(hom.space, [1, 0] + list(range(2, 256)))
    return hom, hom.replace_generator(1, swap)


def _perturbed_pairs(make, delta, count, seed):
    rng = derive_rng(seed, STREAM_TEST, seed)
    pairs = []
    for _ in range(count):
        a = make(rng)
        pairs.append((a, sample_perturbation(a, delta, rng)))
    return pairs


def _every_atom_pair():
    a = odometer_hom(64)
    return a, a.replace_generator(0, a.gens[0] * a.gens[0])  # sigma^2 x != sigma x everywhere


STABILITY_CASES = {
    "identical": (lambda: [(odometer_hom(64), odometer_hom(64))], range(4)),
    "single swap": (lambda: [_swap_pair()], range(4)),
    "criterion 08": (lambda: _perturbed_pairs(
        lambda rng: random_homomorphism(single(2 ** 14), 2, rng), Fraction(1, 2 ** 8), 3, 8), (1, 2)),
    "lean aperiodic": (lambda: _perturbed_pairs(
        lambda rng: lean_aperiodic_homomorphism(single(2 ** 10), 2, rng), Fraction(1, 32), 3, 9), range(4)),
    "classes": (lambda: _perturbed_pairs(
        lambda rng: random_homomorphism(FiniteSpace.from_class_sizes([8] * 64), 3, rng),
        Fraction(1, 8), 3, 10), range(3)),
    "every atom": (lambda: [_every_atom_pair()], range(3)),
}


@pytest.mark.parametrize("case", list(STABILITY_CASES))
def test_ball_stability_matches_the_global_kernel(case):
    make, radii = STABILITY_CASES[case]
    for a, b in make():
        for radius in radii:
            result = ball_stability_check(a, b, radius)
            assert result.observed == oracle_observed(a, b, radius)
            assert result.bound == hom_metric(a, b) * (2 * radius + 1) * ball_size(a.rank, 2 * radius + 1)


def test_ball_stability_pairs_cover_empty_and_full_differences():
    assert moved_atoms(odometer_hom(64), odometer_hom(64)).size == 0
    assert moved_atoms(*_swap_pair()).tolist() == [0, 1]
    assert moved_atoms(*_every_atom_pair()).size == 64


def test_ball_stability_codes_only_the_neighbourhood_of_the_moved_atoms(monkeypatch):
    coded = []

    def spy(hom, radius, atoms, inner, outer):
        coded.append(atoms)
        return code_blocks(hom, radius, atoms, inner, outer)

    monkeypatch.setattr(analysis, "_code_blocks", spy)
    pairs = [_swap_pair(), _every_atom_pair(), (odometer_hom(64), odometer_hom(64)),
             *_perturbed_pairs(lambda rng: lean_aperiodic_homomorphism(single(2 ** 10), 2, rng),
                               Fraction(1, 64), 2, 11)]
    for a, b in pairs:
        for radius in range(3):
            coded.clear()
            ball_stability_check(a, b, radius)
            near = ball_atoms(a, moved_atoms(a, b), radius)
            assert len(coded) == 2
            assert all(atoms is not None and np.array_equal(atoms, near) for atoms in coded)
    # a single swap at radius 1 codes the swapped pair and their neighbours only
    a, b = _swap_pair()
    coded.clear()
    ball_stability_check(a, b, 1)
    assert coded[0].tolist() == [0, 1, 2, 255]


def _chunk_atoms(monkeypatch, atoms, rank, radius):
    """Set the kernel's chunk to the given number of atoms for radius-R ball codes."""
    monkeypatch.setattr(actions, "_CHUNK_BYTES", atoms * 8 * ball_size(rank, radius + 1))


def test_ball_stability_is_exact_across_chunk_boundaries(monkeypatch):
    pairs = [_swap_pair(), _every_atom_pair(),
             *_perturbed_pairs(lambda rng: lean_aperiodic_homomorphism(single(2 ** 8), 2, rng),
                               Fraction(1, 32), 2, 12)]
    cases = [(a, b, radius, oracle_observed(a, b, radius)) for a, b in pairs for radius in range(3)]
    rows = {}

    def spy(hom, radius, atoms, inner, outer):
        for block in code_blocks(hom, radius, atoms, inner, outer):
            rows.setdefault(id(hom), []).append(len(block))
            yield block

    monkeypatch.setattr(analysis, "_code_blocks", spy)
    for size in range(1, 6):
        remainders = set()
        for a, b, radius, observed in cases:
            _chunk_atoms(monkeypatch, size, a.rank, radius)
            rows.clear()
            assert ball_stability_check(a, b, radius).observed == observed
            near = ball_atoms(a, moved_atoms(a, b), radius).size
            # a's and b's blocks line up: the same row counts, chunk by chunk, over N_R(D)
            assert rows[id(a)] == rows[id(b)]
            assert sum(rows[id(a)]) == near and max(rows[id(a)]) <= size
            remainders.add(near % size)
        assert size == 1 or remainders - {0}  # some N_R(D) is not a multiple of the chunk


def test_ball_stability_holds_one_chunk_of_codes_per_action(monkeypatch):
    """With a chunk of a few atoms, the comparison's traced peak stays below one
    |N_R(D)| x |B(R+1)| code matrix, where both full matrices would take two."""
    a = odometer_hom(2 ** 12)
    b = a.replace_generator(0, a.gens[0] * a.gens[0])
    radius = 3
    assert moved_atoms(a, b).size == a.space.n_atoms  # N_R(D) is every atom
    matrix = a.space.n_atoms * ball_size(a.rank, radius + 1)  # |B(R)| = 53 codes fit uint8
    _chunk_atoms(monkeypatch, 4, a.rank, radius)
    ball_stability_check(a, b, radius)  # builds the cached balls outside the trace
    tracemalloc.start()
    try:
        result = ball_stability_check(a, b, radius)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.observed == oracle_observed(a, b, radius)
    assert peak < matrix



def test_ball_stability_at_the_default_chunk_stays_within_six_chunks():
    """Each action's suspended kernel holds only its yielded code block, and a
    chunk's codes take its images and about two more blocks their size, so a
    2^14 lean pair at R = 3 (N_R(D) many chunks) peaks below six chunks."""
    rng = derive_rng(24, STREAM_TEST, 24)
    a = lean_aperiodic_homomorphism(single(2 ** 14), 2, rng)
    b = sample_perturbation(a, Fraction(1, 64), rng)
    radius = 3
    near = ball_atoms(a, moved_atoms(a, b), radius).size
    assert near > 8 * actions._CHUNK_BYTES // (8 * ball_size(a.rank, radius + 1))  # over eight chunks
    ball_stability_check(a, b, radius)  # builds the cached balls outside the trace
    tracemalloc.start()
    try:
        result = ball_stability_check(a, b, radius)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.observed == oracle_observed(a, b, radius)
    assert peak <= 6 * actions._CHUNK_BYTES

def test_ball_stability_validation():
    with pytest.raises(ValueError):
        ball_stability_check(odometer_hom(8), odometer_hom(16), 1)


# -- classwise symmetric generation ---------------------------------------------


def test_generates_classwise_symmetric_true():
    sp = FiniteSpace(3, [0] * 3, None)
    cycle = FullGroupElement.from_forward(sp, [1, 2, 0])
    swap = FullGroupElement.from_forward(sp, [1, 0, 2])
    assert generates_classwise_symmetric(Homomorphism(sp, (cycle, swap)))


def test_generates_classwise_symmetric_false_for_cyclic():
    sp = FiniteSpace(4, [0] * 4, None)
    cycle = FullGroupElement.from_forward(sp, [1, 2, 3, 0])
    assert not generates_classwise_symmetric(Homomorphism(sp, (cycle,)))


def test_generates_classwise_symmetric_needs_transitive_classes():
    sp = FiniteSpace(4, [0, 0, 1, 1], None)
    ident = FullGroupElement.identity(sp)
    assert not generates_classwise_symmetric(Homomorphism(sp, (ident,)))
    swap_both = FullGroupElement.from_forward(sp, [1, 0, 3, 2])
    assert generates_classwise_symmetric(Homomorphism(sp, (swap_both,)))


def test_generates_classwise_symmetric_size_one_classes_are_vacuous():
    sp = FiniteSpace(2, [0, 1], None)
    ident = FullGroupElement.identity(sp)
    assert generates_classwise_symmetric(Homomorphism(sp, (ident,)))


def test_generates_classwise_symmetric_guard(monkeypatch):
    # a 16-cycle is not 2-transitive, so no 15-tuple is ever packed
    assert not generates_classwise_symmetric(odometer_hom(16))
    # 16^17 >= 2^63: a 16-tuple of 16 atoms has no 64-bit key
    overflow = r"^packed state space n\^\(m\+1\) = 16\^17 overflows 64-bit keys$"
    with pytest.raises(AnalysisError, match=overflow):
        _pack([np.zeros(1, dtype=np.int64)] * 16, 0, 16)
    hom = odometer_hom(8)
    assert not generates_classwise_symmetric(hom)
    monkeypatch.setattr(irslab.space, "_BYTE_BUDGET", 8 * 8)
    with pytest.raises(AnalysisError, match=BUDGET_ERROR + "64$"):
        generates_classwise_symmetric(hom)


# -- sweeps ------------------------------------------------------------------------


def test_parse_property_forms():
    folner = parse_property("folner(2, 3)", 2)
    assert folner.name == "folner" and folner.args == (2, 3)
    assert folner.text == "folner(2,3)"

    realizes = parse_property(" realizes(2, 1 0, 8) ", 2)
    assert realizes.args == (2, (1, 0), 8)
    assert realizes.text == "realizes(2,1 0,8)"
    assert parse_property(realizes.text, 2) == realizes

    corefree = parse_property("corefree(s2 s1^-1)", 2)
    assert corefree.args == (ReducedWord(2, (2, -1)),)
    assert corefree.text == "corefree(s2 s1^-1)"

    periodic = parse_property("periodic(3)", 2)
    assert periodic.args == (3,)

    for bad in ("folner", "folner(1)", "realizes(2,1)", "corefree(a, b)", "mystery(1)"):
        with pytest.raises(ValueError):
            parse_property(bad, 2)


INT64_TEXT = st.integers(-(2 ** 64) + 1, 2 ** 64 - 1)  # what `words.read_int` reads


@st.composite
def sweep_properties(draw):
    """A rank and a valid property of that rank, built from argument values."""
    rank = draw(st.integers(1, 3))
    name = draw(st.sampled_from(sorted(analysis._PROPERTIES)))
    if name == "realizes":
        m = draw(st.integers(1, 6))
        args = (m, tuple(draw(st.permutations(range(m)))), draw(INT64_TEXT))
    elif name == "corefree":
        letters = st.sampled_from([l for k in range(1, rank + 1) for l in (k, -k)])
        args = (draw(st.lists(letters, max_size=8).map(lambda w: reduce_letters(rank, w)).filter(len)),)
    else:
        args = tuple(draw(INT64_TEXT) for _ in analysis._PROPERTIES[name][0])
    return rank, SweepProperty(name, args)


@settings(max_examples=200, deadline=None)
@given(sweep_properties())
def test_a_property_text_parses_back_to_its_values(drawn):
    rank, prop = drawn
    assert parse_property(prop.text, rank) == prop


def test_a_sweep_reads_no_text_after_parsing(monkeypatch):
    """Arguments are parsed once: with the text readers gone, the sweeps whose
    arguments were a tower permutation and a word give the same fractions."""
    hom = lean_aperiodic_homomorphism(single(128), 2, derive_rng(36, STREAM_TEST, 36))
    props = [parse_property(text, 2) for text in ("realizes(2, 1 0, 16)", "corefree(s2)")]
    monkeypatch.setattr(analysis, "_worker_count", lambda: 1)
    before = [genericity_sweep(hom, Fraction(1, 2), 4, prop, 3) for prop in props]

    def no_text(*args):
        raise AssertionError("a sweep read text")

    monkeypatch.setattr(analysis, "read_int", no_text)
    monkeypatch.setattr(analysis, "parse_word", no_text)
    assert [genericity_sweep(hom, Fraction(1, 2), 4, prop, 3) for prop in props] == before


@pytest.mark.parametrize("text, message", [
    ("realizes(2, 0 0, 4)", "tau must be a permutation of 0..1"),
    ("realizes(3, 1 0, 4)", "tau must be a permutation of 0..2"),
    ("realizes(0, , 4)", "m must be at least 1"),
    ("realizes(999999999999999999, 1 0, 4)", "tau must be a permutation of 0..999999999999999998"),
])
def test_parse_property_refuses_a_bad_tau(text, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        parse_property(text, 2)


@pytest.mark.parametrize("epsilon", [Fraction(-1, 2), Fraction(-1, 1024), Fraction(2049, 1024), Fraction(5, 2)])
def test_sample_perturbation_refuses_epsilon_outside_zero_to_two(epsilon):
    hom = lean_aperiodic_homomorphism(single(256), 2, derive_rng(33, STREAM_TEST, 33))
    rng, fresh = derive_rng(33, STREAM_TEST, 34), derive_rng(33, STREAM_TEST, 34)
    with pytest.raises(ValueError, match=f"^epsilon {re.escape(str(epsilon))} is not in \\[0, 2\\]$"):
        sample_perturbation(hom, epsilon, rng)
    assert rng.integers(1 << 62) == fresh.integers(1 << 62)  # refused before anything is drawn
    for edge in (Fraction(0), Fraction(2)):
        assert hom_metric(hom, sample_perturbation(hom, edge, rng)) <= edge


def test_sample_perturbation_stays_in_the_ball():
    rng = derive_rng(33, STREAM_TEST, 33)
    sp = single(256)
    hom = lean_aperiodic_homomorphism(sp, 2, rng)
    for epsilon in (Fraction(1, 2), Fraction(1, 16), Fraction(1, 256)):
        for _ in range(5):
            sample = sample_perturbation(hom, epsilon, rng)
            assert hom_metric(hom, sample) <= epsilon
            assert sample.gens[0] == hom.gens[0]


def test_sweep_trivially_true_property():
    hom = odometer_hom(64)
    fraction = genericity_sweep(hom, Fraction(1, 4), 6, parse_property("corefree(s1)", 2), 5)
    assert fraction == 1


def test_sweep_trivially_false_property():
    hom = odometer_hom(64)
    fraction = genericity_sweep(hom, Fraction(1, 4), 6, parse_property("folner(64, 1)", 2), 5)
    assert fraction == 0


def test_sweep_reproducible_and_worker_independent(monkeypatch):
    sp = single(128)
    hom = lean_aperiodic_homomorphism(sp, 2, derive_rng(34, STREAM_TEST, 34))
    prop = parse_property("realizes(2, 1 0, 16)", 2)
    monkeypatch.setenv("IRSLAB_WORKERS", "1")
    serial = genericity_sweep(hom, Fraction(1, 2), 8, prop, 99)
    again = genericity_sweep(hom, Fraction(1, 2), 8, prop, 99)
    assert serial == again
    monkeypatch.setenv("IRSLAB_WORKERS", "4")
    parallel = genericity_sweep(hom, Fraction(1, 2), 8, prop, 99)
    assert parallel == serial
    with pytest.raises(ValueError):
        genericity_sweep(hom, Fraction(1, 2), 0, prop, 99)


def test_a_sweep_reaches_its_first_sample_without_listing_the_indices(monkeypatch):
    """10^15 sample indices would take 8 PB as a list; the sweep draws the first
    sample at once instead."""

    class FirstSample(Exception):
        pass

    def first_sample(hom, epsilon, rng):
        raise FirstSample

    monkeypatch.setenv("IRSLAB_WORKERS", "1")
    monkeypatch.setattr(analysis, "sample_perturbation", first_sample)
    with pytest.raises(FirstSample):
        genericity_sweep(odometer_hom(16), Fraction(1, 4), 10 ** 15, parse_property("periodic(1)", 2), 0)


def test_pooled_sweep_chunks_are_ranges_covering_every_index_once(monkeypatch):
    """Each pooled chunk is one range of sample indices, and together they hold
    0..samples-1 exactly once; run in this process, they give the serial fraction."""
    import concurrent.futures

    mapped = []

    class InlinePool:
        def __init__(self, max_workers):
            self.max_workers = max_workers

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, chunks):
            assert len(chunks) == self.max_workers
            mapped.extend(chunks)
            return map(fn, chunks)

    hom = lean_aperiodic_homomorphism(single(64), 2, derive_rng(35, STREAM_TEST, 35))
    prop = parse_property("folner(2, 2)", 2)  # draws its root from each sample's stream; holds on some samples only
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr("os.cpu_count", lambda: 4)
    for samples, workers in [(2, 2), (3, 3), (10, 4)]:
        monkeypatch.setenv("IRSLAB_WORKERS", "1")
        serial = genericity_sweep(hom, Fraction(1, 2), samples, prop, 7)
        assert mapped == []
        monkeypatch.setenv("IRSLAB_WORKERS", "4")
        assert genericity_sweep(hom, Fraction(1, 2), samples, prop, 7) == serial
        assert len(mapped) == workers and all(isinstance(chunk, range) for chunk in mapped)
        assert sorted(k for chunk in mapped for k in chunk) == list(range(samples))
        mapped.clear()


def test_worker_count_is_clamped(monkeypatch):
    from irslab.analysis import _worker_count

    monkeypatch.setattr("os.cpu_count", lambda: 2)
    monkeypatch.delenv("IRSLAB_WORKERS", raising=False)
    assert _worker_count() == 1
    for text, expected in [("1", 1), ("2", 2), ("0", 1), ("-3", 1), ("64", 2), (" 2 ", 2)]:
        monkeypatch.setenv("IRSLAB_WORKERS", text)
        assert _worker_count() == expected
    monkeypatch.setattr("os.cpu_count", lambda: None)
    monkeypatch.setenv("IRSLAB_WORKERS", "8")
    assert _worker_count() == 1
    for text in ["two", "1.5", "", "1_0", "+2", "٣", "9" * 5000]:
        monkeypatch.setenv("IRSLAB_WORKERS", text)
        with pytest.raises(ValueError, match="^IRSLAB_WORKERS: ") as refused:
            _worker_count()
        assert len(str(refused.value)) <= 100


def test_folner_search_rejects_a_negative_radius_on_a_singleton_orbit():
    sp = single(16)
    ident = FullGroupElement.identity(sp)
    hom = Homomorphism(sp, (ident, ident))
    with pytest.raises(ValueError, match="radius must be nonnegative"):
        folner_search(hom, 0, 2, -3)

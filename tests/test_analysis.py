"""Diagnostics: boundary ratios, transitivity, realization, stability, sweeps."""

from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

import irslab.space
from irslab import (
    AnalysisError,
    FiniteSpace,
    FullGroupElement,
    Homomorphism,
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
    sample_perturbation,
    schreier_boundary_ratio,
    transitivity_degree,
)
import irslab.analysis as analysis
from irslab.actions import ball_atoms, ball_codes
from irslab.analysis import _pack
from irslab.rng import STREAM_TEST
from irslab.words import ball_size


def single(n, levels="auto"):
    return FiniteSpace.single_class(n, levels=levels)


def odometer_hom(n, rank=2):
    sp = single(n)
    gens = [FullGroupElement.odometer(sp)]
    gens.extend(FullGroupElement.identity(sp) for _ in range(rank - 1))
    return Homomorphism(sp, tuple(gens))


# -- boundary ratio and search -------------------------------------------------


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
    sp = single(10, levels=None)
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
    sp = single(4, levels=None)
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
    sp = single(4, levels=None)
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
    sp = single(4, levels=None)
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

    def spy(hom, radius, atoms=None):
        coded.append(atoms)
        return ball_codes(hom, radius, atoms)

    monkeypatch.setattr(analysis, "ball_codes", spy)
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


def test_ball_stability_validation():
    with pytest.raises(ValueError):
        ball_stability_check(odometer_hom(8), odometer_hom(16), 1)


# -- classwise symmetric generation ---------------------------------------------


def test_generates_classwise_symmetric_true():
    sp = single(3, levels=None)
    cycle = FullGroupElement.from_forward(sp, [1, 2, 0])
    swap = FullGroupElement.from_forward(sp, [1, 0, 2])
    assert generates_classwise_symmetric(Homomorphism(sp, (cycle, swap)))


def test_generates_classwise_symmetric_false_for_cyclic():
    sp = single(4, levels=None)
    cycle = FullGroupElement.from_forward(sp, [1, 2, 3, 0])
    assert not generates_classwise_symmetric(Homomorphism(sp, (cycle,)))


def test_generates_classwise_symmetric_needs_transitive_classes():
    sp = FiniteSpace.from_class_sizes([2, 2], levels=None)
    ident = FullGroupElement.identity(sp)
    assert not generates_classwise_symmetric(Homomorphism(sp, (ident,)))
    swap_both = FullGroupElement.from_forward(sp, [1, 0, 3, 2])
    assert generates_classwise_symmetric(Homomorphism(sp, (swap_both,)))


def test_generates_classwise_symmetric_size_one_classes_are_vacuous():
    sp = FiniteSpace.from_class_sizes([1, 1], levels=None)
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
    assert realizes.args == (2, "1 0", 8)
    assert parse_property(realizes.text, 2) == realizes

    corefree = parse_property("corefree(s2 s1^-1)", 2)
    assert corefree.args == ("s2 s1^-1",)

    periodic = parse_property("periodic(3)", 2)
    assert periodic.args == (3,)

    for bad in ("folner", "folner(1)", "realizes(2,1)", "corefree(a, b)", "mystery(1)"):
        with pytest.raises(ValueError):
            parse_property(bad, 2)


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
    fraction = genericity_sweep(hom, Fraction(1, 4), 6, "corefree(s1)", 5)
    assert fraction == 1


def test_sweep_trivially_false_property():
    hom = odometer_hom(64)
    fraction = genericity_sweep(hom, Fraction(1, 4), 6, "folner(64, 1)", 5)
    assert fraction == 0


def test_sweep_reproducible_and_worker_independent(monkeypatch):
    sp = single(128)
    hom = lean_aperiodic_homomorphism(sp, 2, derive_rng(34, STREAM_TEST, 34))
    prop = "realizes(2, 1 0, 16)"
    monkeypatch.setenv("IRSLAB_WORKERS", "1")
    serial = genericity_sweep(hom, Fraction(1, 2), 8, prop, 99)
    again = genericity_sweep(hom, Fraction(1, 2), 8, prop, 99)
    assert serial == again
    monkeypatch.setenv("IRSLAB_WORKERS", "4")
    parallel = genericity_sweep(hom, Fraction(1, 2), 8, prop, 99)
    assert parallel == serial
    with pytest.raises(ValueError):
        genericity_sweep(hom, Fraction(1, 2), 0, prop, 99)


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
    for text in ["two", "1.5", ""]:
        monkeypatch.setenv("IRSLAB_WORKERS", text)
        with pytest.raises(ValueError, match="IRSLAB_WORKERS must be an integer"):
            _worker_count()


def test_folner_search_rejects_a_negative_radius_on_a_singleton_orbit():
    sp = single(16)
    ident = FullGroupElement.identity(sp)
    hom = Homomorphism(sp, (ident, ident))
    with pytest.raises(ValueError, match="radius must be nonnegative"):
        folner_search(hom, 0, 2, -3)

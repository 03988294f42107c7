"""Sorted-array set kernel, and the realization kernel built on it checked
against two earlier implementations kept here as oracles: the numpy set-op
closure, and the bidirectional `_grow` closure that settled every atom by
its own search.  The conjugation lemma the kernel spreads by is checked on
the set-op oracle's realized masks."""

from collections import Counter
from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import irslab.analysis
from irslab import (
    AnalysisError,
    FiniteSpace,
    FullGroupElement,
    Homomorphism,
    build_ht_perturbation,
    derive_rng,
    lean_aperiodic_homomorphism,
    realizes_tau_fraction,
)
from irslab.analysis import _grow, _pack
from irslab.rng import STREAM_TEST
from irslab.setops import member, merge_disjoint, row_ids, row_keys, sorted_unique

# -- helpers -------------------------------------------------------------------


def test_sorted_unique_edge_cases():
    assert sorted_unique(np.empty(0, np.int64)).tolist() == []
    assert sorted_unique(np.array([7])).tolist() == [7]
    assert sorted_unique(np.array([3, 1, 3, 3, 2, 1])).tolist() == [1, 2, 3]
    assert sorted_unique(np.array([5, 5, 5])).tolist() == [5]
    big = np.array([2**62, -(2**62), 0, 2**62], dtype=np.int64)
    assert sorted_unique(big).tolist() == [-(2**62), 0, 2**62]


def test_member_edge_cases():
    hay = np.array([2, 4, 6], dtype=np.int64)
    needles = np.array([0, 1, 2, 3, 4, 6, 7, 100], dtype=np.int64)
    assert member(hay, needles).tolist() == [False, False, True, False, True, True, False, False]
    assert member(hay, np.empty(0, np.int64)).tolist() == []
    assert member(np.empty(0, np.int64), needles).tolist() == [False] * needles.size
    # duplicated needles each get their own answer
    assert member(hay, np.array([6, 6, 9, 9])).tolist() == [True, True, False, False]
    # needles need not be sorted
    assert member(hay, np.array([7, 2, -1, 4])).tolist() == [False, True, False, True]


def test_merge_disjoint_edge_cases():
    a = np.array([1, 5, 9], dtype=np.int64)
    assert merge_disjoint(a, np.array([0, 2, 3, 10], dtype=np.int64)).tolist() == [0, 1, 2, 3, 5, 9, 10]
    assert merge_disjoint(a, np.empty(0, np.int64)).tolist() == [1, 5, 9]
    assert merge_disjoint(np.empty(0, np.int64), a).tolist() == [1, 5, 9]


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(-50, 50), max_size=40),
    st.lists(st.integers(-60, 60), max_size=40),
)
def test_helpers_match_numpy_set_ops(xs, ys):
    a = np.asarray(xs, dtype=np.int64)
    b = np.asarray(ys, dtype=np.int64)
    ua, ub = sorted_unique(a), sorted_unique(b)
    assert np.array_equal(ua, np.unique(a))
    assert np.array_equal(member(ua, b), np.isin(b, a))
    only_b = ub[~member(ua, ub)]
    assert np.array_equal(merge_disjoint(ua, only_b), np.union1d(a, b))


def _check_row_ids(rows):
    ids, count = row_ids(rows)
    keys = [row.tobytes() for row in rows]
    distinct = sorted(set(keys))
    assert count == len(distinct)
    assert ids.tolist() == [distinct.index(k) for k in keys]
    assert np.bincount(ids, minlength=count).tolist() == [Counter(keys)[k] for k in distinct]


def test_row_ids_edge_cases():
    for width in (1, 3, 8, 9):
        ids, count = row_ids(np.empty((0, width), np.uint8))
        assert ids.tolist() == [] and count == 0
    # one byte wide: ids ascend with the byte value, 0x80 and above included
    column = np.array([[200], [3], [200], [0], [128], [3]], np.uint8)
    ids, count = row_ids(column)
    assert ids.tolist() == [3, 1, 3, 0, 2, 1] and count == 4
    ids, count = row_ids(np.full((5, 13), 0xA5, np.uint8))
    assert ids.tolist() == [0] * 5 and count == 1
    # rows compare byte by byte from the left, as Python bytes do
    rows = np.array([[1, 255, 0], [2, 0, 0], [1, 255, 1], [0, 0, 255]], np.uint8)
    assert row_ids(rows)[0].tolist() == [1, 3, 2, 0]


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 20), st.integers(0, 30), st.integers(1, 255), st.data())
def test_row_ids_match_sorted_bytes(width, count, top, data):
    """Widths 1-20, mostly not multiples of 8; small byte ranges repeat rows."""
    cells = data.draw(st.lists(st.integers(0, top), min_size=width * count, max_size=width * count))
    _check_row_ids(np.array(cells, np.uint8).reshape(count, width))


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 20), st.integers(1, 30), st.integers(1, 255), st.data())
def test_row_keys_binary_search_in_bytes_order(width, count, top, data):
    """A probe row is found in a sorted table of rows exactly when its bytes are."""
    def draw_rows(k):
        cells = data.draw(st.lists(st.integers(0, top), min_size=width * k, max_size=width * k))
        return np.array(cells, np.uint8).reshape(k, width)
    table, probes = draw_rows(count), draw_rows(data.draw(st.integers(0, 10)))
    keys = np.sort(row_keys(table))
    assert [k.tobytes() for k in keys] == sorted(row.tobytes() for row in table)
    at = np.minimum(np.searchsorted(keys, row_keys(probes)), keys.size - 1)
    known = {row.tobytes() for row in table}
    for row, i in zip(probes, at.tolist()):
        assert (keys[i].tobytes() == row.tobytes()) == (row.tobytes() in known)


# -- oracle: the set-op kernel this package used before setops -------------------


def _oracle_apply_diagonal(keys, table, n, m):
    tags = keys % n
    code = keys // n
    out = np.zeros_like(keys)
    for i in range(m):
        coord = (code // n ** (m - 1 - i)) % n
        out = out * n + table[coord]
    return out * n + tags


def oracle_realizes_tau_fraction(hom, m, tau, radius):
    return Fraction(int(np.count_nonzero(oracle_realized_mask(hom, m, tau, radius))), hom.space.n_atoms)


def oracle_realized_mask(hom, m, tau, radius):
    """The atoms the set-op closure realizes tau at, within the radius."""
    n = hom.space.n_atoms
    sigma = hom.gens[0]
    powers = np.empty((m, n), dtype=np.int64)
    powers[0] = np.arange(n)
    for i in range(1, m):
        powers[i] = sigma.forward[powers[i - 1]]

    def pack(rows):
        out = np.zeros(n, dtype=np.int64)
        for i in range(m):
            out = out * n + rows[i]
        return out * n + np.arange(n)

    start = pack([powers[i] for i in range(m)])
    target = pack([powers[tau[i]] for i in range(m)])

    tables = [g.forward for g in hom.gens] + [g.inverse for g in hom.gens]
    realized = np.zeros(n, dtype=bool)
    dead = np.zeros(n, dtype=bool)

    visited = [np.sort(start), np.sort(target)]
    frontier = [visited[0].copy(), visited[1].copy()]
    met = np.intersect1d(visited[0], visited[1], assume_unique=True)
    realized[met % n] = True
    depth = [0, 0]

    def purge(side):
        keep = ~(realized | dead)
        visited[side] = visited[side][keep[visited[side] % n]]
        frontier[side] = frontier[side][keep[frontier[side] % n]]

    purge(0)
    purge(1)
    while not (realized | dead).all() and depth[0] + depth[1] < radius:
        side = 0 if frontier[0].size <= frontier[1].size else 1
        if frontier[side].size == 0:
            # closure complete on this side: the rest can never meet
            dead[~(realized | dead)] = True
            break
        grown = [_oracle_apply_diagonal(frontier[side], t, n, m) for t in tables]
        fresh = np.unique(np.concatenate(grown))
        fresh = fresh[~np.isin(fresh, visited[side], assume_unique=False)]
        depth[side] += 1
        visited[side] = np.union1d(visited[side], fresh)
        frontier[side] = fresh
        met = np.intersect1d(fresh, visited[1 - side], assume_unique=True)
        realized[met % n] = True
        live = np.unique(frontier[side] % n)
        stuck = ~(realized | dead)
        stuck[live] = False
        dead |= stuck
        purge(0)
        purge(1)
    return realized


# -- oracle: the bidirectional _grow kernel before the conjugation lemma ------------


def oracle_bidirectional_realizes_tau_fraction(hom, m, tau, radius):
    if not hom.is_lean_aperiodic:
        raise AnalysisError("needs a single-cycle first generator")
    if m < 1:
        raise ValueError("m must be at least 1")
    tau = tuple(int(t) for t in tau)
    if sorted(tau) != list(range(m)):
        raise ValueError(f"tau must be a permutation of 0..{m - 1}")
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    n = hom.space.n_atoms
    powers = hom.gens[0].levels(np.arange(n), m)
    start = _pack(powers, np.arange(n), n)
    target = _pack(powers[list(tau)], np.arange(n), n)

    realized = np.zeros(n, dtype=bool)
    dead = np.zeros(n, dtype=bool)

    visited = [np.sort(start), np.sort(target)]
    frontier = [visited[0].copy(), visited[1].copy()]
    met = visited[0][member(visited[1], visited[0])]
    realized[met % n] = True
    depth = [0, 0]

    def purge(side):
        keep = ~(realized | dead)
        visited[side] = visited[side][keep[visited[side] % n]]
        frontier[side] = frontier[side][keep[frontier[side] % n]]

    purge(0)
    purge(1)
    while not (realized | dead).all() and depth[0] + depth[1] < radius:
        side = 0 if frontier[0].size <= frontier[1].size else 1
        if frontier[side].size == 0:
            # closure complete on this side: the rest can never meet
            dead[~(realized | dead)] = True
            break
        fresh, visited[side] = _grow(frontier[side], visited[side], hom.tables.values(), n, m)
        depth[side] += 1
        frontier[side] = fresh
        fresh_atoms = fresh % n
        realized[fresh_atoms[member(visited[1 - side], fresh)]] = True
        stuck = ~(realized | dead)
        stuck[fresh_atoms] = False
        dead |= stuck
        purge(0)
        purge(1)
    return Fraction(int(np.count_nonzero(realized)), n)


def _check_against_oracles(hom, m, tau, radius):
    fraction = realizes_tau_fraction(hom, m, tau, radius)
    assert fraction == oracle_realizes_tau_fraction(hom, m, tau, radius)
    assert fraction == oracle_bidirectional_realizes_tau_fraction(hom, m, tau, radius)
    return fraction


def _case_hom(n, rank, seed, m, tau, perturbed):
    sp = FiniteSpace.single_class(n)
    hom = lean_aperiodic_homomorphism(sp, rank, derive_rng(seed, STREAM_TEST, n))
    if perturbed:
        hom = build_ht_perturbation(hom, m, tau, Fraction(1))
    return hom


@st.composite
def realize_cases(draw):
    m = draw(st.integers(1, 3))
    n = draw(st.integers(2 * m + 2, 14 if m == 3 else 24))
    rank = draw(st.integers(2, 3))
    tau = tuple(draw(st.permutations(range(m))))
    radius = draw(st.integers(0, 2 * n))
    seed = draw(st.integers(0, 2**16))
    perturbed = draw(st.booleans())
    return n, rank, seed, m, tau, radius, perturbed


# each of these has a realized fraction strictly between 0 and 1
PARTIAL_CASES = [
    (8, 2, 0, 2, (1, 0), 1, True),
    (12, 2, 1, 3, (2, 0, 1), 5, False),
    (12, 2, 0, 3, (1, 2, 0), 1, True),
]


@settings(max_examples=150, deadline=None)
@given(realize_cases())
@example(PARTIAL_CASES[0])
@example(PARTIAL_CASES[1])
@example(PARTIAL_CASES[2])
def test_realizes_tau_fraction_matches_set_op_oracle(case):
    n, rank, seed, m, tau, radius, perturbed = case
    hom = _case_hom(n, rank, seed, m, tau, perturbed)
    _check_against_oracles(hom, m, tau, radius)


@pytest.mark.parametrize("case", PARTIAL_CASES)
def test_oracle_cases_include_partial_fractions(case):
    n, rank, seed, m, tau, radius, perturbed = case
    hom = _case_hom(n, rank, seed, m, tau, perturbed)
    fraction = realizes_tau_fraction(hom, m, tau, radius)
    assert 0 < fraction < 1
    assert fraction == oracle_realizes_tau_fraction(hom, m, tau, radius)


# the benchmark's shape (2^7 atoms, m = 4, tau = 1 0 3 2 after the ht surgery) at
# radii that leave the fraction strictly between 0 and 1
BENCH_TAU = (1, 0, 3, 2)


@pytest.mark.parametrize("seed, radius, expected", [
    (0, 1, Fraction(15, 128)),
    (0, 4, Fraction(45, 128)),
    (0, 9, Fraction(121, 128)),
    (2, 8, Fraction(53, 64)),
])
def test_benchmark_shape_partial_fractions_match_both_oracles(seed, radius, expected):
    hom = _case_hom(128, 2, seed, 4, BENCH_TAU, True)
    assert _check_against_oracles(hom, 4, BENCH_TAU, radius) == expected


@pytest.mark.parametrize("power", [0, 1, 2])
@pytest.mark.parametrize("radius", [0, 3, 32])
def test_unrealizable_odometers_give_zero(monkeypatch, power, radius):
    """s2 = sigma^power keeps every fiber tuple on sigma's own diagonal orbit,
    so no word swaps two levels.  At radius 2n = 32 the kernel stops as soon
    as the first closure ends, at combined depth 10 (6 for sigma^2, whose
    letters jump two levels), long before the radius runs out."""
    sp = FiniteSpace.single_class(16)
    sigma = FullGroupElement.odometer(sp)
    hom = Homomorphism(sp, (sigma, sigma ** power))
    assert _check_against_oracles(hom, 2, (1, 0), radius) == 0
    steps = []
    monkeypatch.setattr(irslab.analysis, "_grow", lambda *args: steps.append(args) or _grow(*args))
    assert realizes_tau_fraction(hom, 2, (1, 0), radius) == 0
    assert len(steps) == min(radius, 6 if power == 2 else 10)


# -- the conjugation lemma ----------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(realize_cases())
def test_realized_atoms_spread_one_cycle_step_per_two_radius(case):
    """s1^±1 w s1^∓1 realizes tau at sigma^±1 x when w does at x."""
    n, rank, seed, m, tau, radius, perturbed = case
    hom = _case_hom(n, rank, seed, m, tau, perturbed)
    sigma = hom.gens[0]
    at = np.flatnonzero(oracle_realized_mask(hom, m, tau, radius))
    wider = oracle_realized_mask(hom, m, tau, radius + 2)
    assert wider[sigma.forward[at]].all() and wider[sigma.inverse[at]].all()


@settings(max_examples=60, deadline=None)
@given(realize_cases())
def test_realization_is_all_or_none_by_the_lemma_radius(case):
    """On one n-cycle the fraction is 0 at every radius, or it is 1 by
    D_min + 2 (n // 2), D_min being the least radius realizing any atom."""
    n, rank, seed, m, tau, _, perturbed = case
    hom = _case_hom(n, rank, seed, m, tau, perturbed)
    closed = oracle_realized_mask(hom, m, tau, 10 ** 9)  # every closure ends first
    assert closed.all() or not closed.any()
    if not closed.any():
        assert all(realizes_tau_fraction(hom, m, tau, r) == 0 for r in (0, 1, n, 2 * n))
        return
    d_min = next(r for r in range(n * n) if oracle_realized_mask(hom, m, tau, r).any())
    assert oracle_realized_mask(hom, m, tau, d_min + 2 * (n // 2)).all()
    assert realizes_tau_fraction(hom, m, tau, d_min + 2 * (n // 2)) == 1


def test_ht_perturbation_realizes_every_permutation_of_five_levels():
    """The surgery's s2 swaps the levels over its base, one letter; the lemma
    spreads that to all 2^8 atoms at radius 2n from the first meet."""
    n = 2 ** 8
    hom = lean_aperiodic_homomorphism(FiniteSpace.single_class(n), 2, derive_rng(5, STREAM_TEST, n))
    for tau in permutations(range(5)):
        built = build_ht_perturbation(hom, 5, tau, Fraction(1, 2))
        assert realizes_tau_fraction(built, 5, tau, 2 * n) == 1

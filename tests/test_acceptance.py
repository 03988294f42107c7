"""Eleven end-to-end batch checks, one verdict line each.

Every inequality is evaluated in exact rational arithmetic; a check
prints its verdict line and then asserts, so `pytest -s` shows the
full scoreboard while a failure still points at the broken criterion.
"""

import os
import subprocess
import sys
from collections import deque
from fractions import Fraction
from itertools import permutations

import numpy as np

from irslab import (
    FiniteSpace,
    FullGroupElement,
    Homomorphism,
    ball_size,
    ball_stability_check,
    build_corefree_perturbation,
    build_folner_perturbation,
    build_ht_perturbation,
    core_check,
    cyclic_reduce,
    disjoint_support_partition,
    folner_planted_classes,
    folner_search,
    hom_metric,
    index_distribution,
    invariance_defect,
    lean_aperiodic_homomorphism,
    orbit,
    orbits,
    periodic_truncate,
    random_full_group_element,
    random_homomorphism,
    random_reduced_word,
    realizes_tau_fraction,
    sample_perturbation,
    schreier_boundary_ratio,
    splice,
    tau_for_word,
    transitivity_degree,
    uniform_metric,
)
from irslab.rng import STREAM_TEST, derive_rng

SEED = 20260819


def _verdict(number: int, passed: bool) -> None:
    print(f"[criterion {number:02d}] {'PASS' if passed else 'FAIL'}")
    assert passed, f"criterion {number} failed"


def test_criterion_01_word_lipschitz():
    rng = derive_rng(SEED, STREAM_TEST, 1)
    space = FiniteSpace.single_class(2 ** 12)
    ok = True
    count = 0
    for pair in range(100):
        alpha = random_homomorphism(space, 2, rng)
        if pair % 10 == 0:
            beta = alpha
        else:
            beta = sample_perturbation(
                alpha, Fraction(1, int(rng.integers(4, 64))), rng)
        gap = hom_metric(alpha, beta)
        for _ in range(2):
            length = 1 + count % 8
            word = random_reduced_word(2, length, rng)
            dist = uniform_metric(alpha.element_of(word), beta.element_of(word))
            ok = ok and dist <= len(word) * gap
            count += 1
    ok = ok and count == 200
    _verdict(1, ok)


def test_criterion_02_splice_contract():
    rng = derive_rng(SEED, STREAM_TEST, 2)
    spaces = [
        FiniteSpace.single_class(2 ** 8),
        FiniteSpace.single_class(2 ** 10),
        FiniteSpace.from_class_sizes([128, 384]),
        FiniteSpace.from_class_sizes([64, 64, 128]),
    ]
    ok = True
    for trial in range(1000):
        space = spaces[trial % len(spaces)]
        n = space.n_atoms
        sigma = random_full_group_element(space, rng)
        tau = random_full_group_element(space, rng)
        k = int(rng.integers(0, n // 2 + 1))
        atoms = [int(x) for x in rng.choice(n, size=k, replace=False)]
        result = splice(sigma, atoms, tau)
        ok = ok and bool((result.forward[atoms] == tau.forward[atoms]).all())
        strip = set(atoms) | {int(sigma.inverse[tau.forward[x]]) for x in atoms}
        outside = [x for x in range(n) if x not in strip]
        ok = ok and bool((result.forward[outside] == sigma.forward[outside]).all())
        ok = ok and uniform_metric(result, sigma) <= Fraction(2 * k, n)
        ok = ok and sorted(int(x) for x in result.forward) == list(range(n))
        ok = ok and bool((space.class_of[result.forward] == space.class_of).all())
    _verdict(2, ok)


def test_criterion_03_periodic_truncation():
    rng = derive_rng(SEED, STREAM_TEST, 3)
    space = FiniteSpace.single_class(2 ** 14)
    hom = lean_aperiodic_homomorphism(space, 2, rng)
    n = space.n_atoms
    ok = True
    for level in range(2, 11):
        trimmed = periodic_truncate(hom, level)
        blocks = space.block_index(level)
        ok = ok and uniform_metric(hom.gens[0], trimmed.gens[0]) == Fraction(1, 2 ** level)
        for g_old, g_new in zip(hom.gens, trimmed.gens):
            ok = ok and bool((blocks[g_new.forward] == blocks).all())
            escaped = int((blocks[g_old.forward] != blocks).sum())
            ok = ok and uniform_metric(g_old, g_new) == Fraction(escaped, n)
        for orb in orbits(trimmed):
            ok = ok and len({int(blocks[x]) for x in orb}) == 1
    _verdict(3, ok)


def test_criterion_04_folner_planted():
    rng = derive_rng(SEED, STREAM_TEST, 4)
    space = FiniteSpace.single_class(2 ** 12)
    sizes = [8, 12, 32]
    epsilon = Fraction(1, 8)
    ok = True
    for rank in (2, 3):
        hom = lean_aperiodic_homomorphism(space, rank, rng)
        planted = build_folner_perturbation(hom, epsilon, sizes)
        ok = ok and hom_metric(hom, planted) <= epsilon
        for run in folner_planted_classes(sizes):
            bound = Fraction(2 * (rank - 1), len(run))
            ok = ok and schreier_boundary_ratio(planted, frozenset(run)) <= bound
            l_top = -(-len(run) // (2 * (rank - 1))) - 1
            for l in range(1, l_top + 1):
                found = folner_search(planted, run[0], l, 2)
                ok = ok and found.success and found.ratio < Fraction(1, l)
    _verdict(4, ok)


def test_criterion_05_tower_permutation_realized():
    rng = derive_rng(SEED, STREAM_TEST, 5)
    space = FiniteSpace.single_class(2 ** 7)
    hom = lean_aperiodic_homomorphism(space, 2, rng)
    epsilon = Fraction(1, 2)
    ok = True
    for m in range(1, 5):
        for tau in permutations(range(m)):
            built = build_ht_perturbation(hom, m, tau, epsilon)
            ok = ok and hom_metric(hom, built) < epsilon
            fraction = realizes_tau_fraction(built, m, tau, 2 * space.n_atoms)
            ok = ok and fraction == 1
    _verdict(5, ok)


def _word_step_constraints_hold(word, tau):
    s = len(word)
    if sorted(tau) != list(range(s + 1)):
        return False
    for i in range(1, s + 1):
        letter = word.letters[s - i]
        if letter == 1 and tau[i] != tau[i - 1] + 1:
            return False
        if letter == -1 and tau[i] != tau[i - 1] - 1:
            return False
    return True


def test_criterion_06_corefree_words():
    rng = derive_rng(SEED, STREAM_TEST, 6)
    space = FiniteSpace.single_class(2 ** 10)
    hom = lean_aperiodic_homomorphism(space, 2, rng)
    epsilon = Fraction(1, 2)
    ok = True
    done = 0
    while done < 20:
        _, word = cyclic_reduce(random_reduced_word(2, 1 + int(rng.integers(1, 6)), rng))
        if len(word) == 0 or all(abs(l) == 1 for l in word.letters):
            continue
        built = build_corefree_perturbation(hom, word, epsilon)
        ok = ok and core_check(built, word) == 0
        ok = ok and hom_metric(hom, built) < epsilon
        ok = ok and _word_step_constraints_hold(word, tau_for_word(word))
        done += 1
    _verdict(6, ok)


def test_criterion_07_empirical_invariance():
    rng = derive_rng(SEED, STREAM_TEST, 7)
    homs = [random_homomorphism(FiniteSpace.single_class(2 ** 10), 2, rng)
            for _ in range(3)]
    homs.extend(random_homomorphism(FiniteSpace.from_class_sizes([256, 768]), 2, rng)
                for _ in range(2))
    homs.append(lean_aperiodic_homomorphism(FiniteSpace.single_class(2 ** 10), 2, rng))
    ok = True
    for hom in homs:
        for radius in range(3):
            ok = ok and invariance_defect(hom, radius) == 0
    _verdict(7, ok)


def test_criterion_08_ball_stability():
    rng = derive_rng(SEED, STREAM_TEST, 8)
    space = FiniteSpace.single_class(2 ** 14)
    delta = Fraction(1, 2 ** 8)
    ok = True
    for _ in range(50):
        alpha = random_homomorphism(space, 2, rng)
        beta = sample_perturbation(alpha, delta, rng)
        gap = hom_metric(alpha, beta)
        ok = ok and gap <= delta
        report = ball_stability_check(alpha, beta, 1)
        ok = ok and report.bound == gap * 3 * ball_size(2, 3)
        ok = ok and report.observed <= report.bound
    _verdict(8, ok)


def test_criterion_09_disjoint_support_partition():
    rng = derive_rng(SEED, STREAM_TEST, 9)
    ok = True
    for trial in range(200):
        if trial % 2:
            space = FiniteSpace.single_class(2 ** (7 + trial % 4))
        else:
            space = FiniteSpace.from_class_sizes([128, 128, 256])
        count = 1 + trial % 4
        elements = [random_full_group_element(space, rng) for _ in range(count)]
        parts = disjoint_support_partition(elements)
        ok = ok and len(parts) <= 2 * count + 1
        flat = [x for part in parts for x in part]
        ok = ok and len(flat) == len(set(flat))
        common = set(range(space.n_atoms))
        for t in elements:
            common &= {int(x) for x in t.support()}
        ok = ok and set(flat) == common
        for part in parts:
            atoms = set(part)
            for t in elements:
                ok = ok and not atoms & {t(x) for x in atoms}
    _verdict(9, ok)


def _brute_orbit_labels(hom):
    n = hom.space.n_atoms
    labels = list(range(n))
    changed = True
    while changed:
        changed = False
        for x in range(n):
            for g in hom.gens:
                y = int(g.forward[x])
                low = min(labels[x], labels[y])
                if labels[x] != low or labels[y] != low:
                    labels[x] = labels[y] = low
                    changed = True
    return labels


def _brute_index_distribution(hom):
    labels = _brute_orbit_labels(hom)
    sizes = {}
    for label in labels:
        sizes[label] = sizes.get(label, 0) + 1
    weights = {}
    for size in sizes.values():
        weights[size] = weights.get(size, 0) + size
    n = hom.space.n_atoms
    return {size: Fraction(total, n) for size, total in weights.items()}


def _brute_transitivity_degree(hom, root, k_max):
    labels = _brute_orbit_labels(hom)
    members = sorted(x for x in range(hom.space.n_atoms) if labels[x] == labels[root])
    m = len(members)
    tables = [g.forward for g in hom.gens] + [g.inverse for g in hom.gens]
    degree = 0
    for k in range(1, min(k_max, m) + 1):
        total = 1
        for i in range(k):
            total *= m - i
        seed = tuple(members[:k])
        seen = {seed}
        queue = deque([seed])
        while queue:
            tup = queue.popleft()
            for table in tables:
                img = tuple(int(table[x]) for x in tup)
                if img not in seen:
                    seen.add(img)
                    queue.append(img)
        if len(seen) != total:
            break
        degree = k
    return degree


def test_criterion_10_oracle_agreement():
    rng = derive_rng(SEED, STREAM_TEST, 10)
    ok = True
    for trial in range(100):
        n = 4 + trial % 9
        if trial % 3 == 0 and n >= 6:
            space = FiniteSpace(n, [0] * (n // 2) + [1] * (n - n // 2), None)
        else:
            space = FiniteSpace(n, [0] * n, None)
        rank = 2 + trial % 2
        hom = random_homomorphism(space, rank, rng)
        ok = ok and index_distribution(hom) == _brute_index_distribution(hom)
        root = int(rng.integers(0, n))
        k_max = min(len(orbit(hom, root)), 3 + trial % 3)
        ok = ok and transitivity_degree(hom, root, k_max) == \
            _brute_transitivity_degree(hom, root, k_max)
    _verdict(10, ok)


def test_criterion_11_sweep_determinism(tmp_path):
    hom_path = tmp_path / "hom.json"
    generate = subprocess.run(
        [sys.executable, "-m", "irslab.cli", "gen", "hom",
         "--log2", "8", "--rank", "2", "--seed", "5", "--out", str(hom_path)],
        capture_output=True, text=True)
    ok = generate.returncode == 0
    reports = []
    for workers in ("1", "8"):
        report_path = tmp_path / f"sweep-{workers}.json"
        env = dict(os.environ, IRSLAB_WORKERS=workers)
        run = subprocess.run(
            [sys.executable, "-m", "irslab.cli", "--report", str(report_path),
             "sweep", "--hom", str(hom_path), "--epsilon", "1/16",
             "--samples", "24", "--seed", "99", "--property", "folner(3,2)"],
            capture_output=True, text=True, env=env)
        ok = ok and run.returncode == 0
        reports.append(report_path.read_bytes())
    ok = ok and len(reports) == 2 and reports[0] == reports[1]
    _verdict(11, ok)

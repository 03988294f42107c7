"""Free-group actions: evaluation, orbits, traces, and Schreier balls."""

import re
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irslab import (
    FiniteSpace,
    FullGroupElement,
    Homomorphism,
    StabilizerTrace,
    ball,
    ball_codes,
    ball_size,
    ball_stability_check,
    balls_isomorphic,
    derive_rng,
    empirical_irs,
    evaluate,
    first_return,
    folner_search,
    hom_metric,
    index_distribution,
    invariance_defect,
    lean_aperiodic_homomorphism,
    orbit,
    orbits,
    parse_word,
    random_full_group_element,
    random_homomorphism,
    random_reduced_word,
    reduce_letters,
    schreier_ball,
    schreier_boundary_ratio,
    stabilizer_trace,
    trace_code_matrix,
)
import irslab.space
from irslab import TraceBudgetError, actions
from irslab.actions import EmpiricalIRS, _ball_images, _conjugate_rows
from irslab.cli import main
from irslab.rng import STREAM_TEST
from irslab.serialize import dumps_canonical, hom_to_doc
from irslab.setops import row_ids


def odometer_hom(n, rank=2):
    sp = FiniteSpace.single_class(n)
    gens = [FullGroupElement.odometer(sp)]
    gens.extend(FullGroupElement.identity(sp) for _ in range(rank - 1))
    return Homomorphism(sp, tuple(gens))


def torus_hom(side=5):
    # two commuting shifts on a side x side grid; free up to short words
    n = side * side
    sp = FiniteSpace(n, [0] * n, None)
    idx = np.arange(n)
    x, y = idx // side, idx % side
    s1 = FullGroupElement.from_forward(sp, ((x + 1) % side) * side + y)
    s2 = FullGroupElement.from_forward(sp, x * side + (y + 1) % side)
    return Homomorphism(sp, (s1, s2))


def test_homomorphism_validation():
    sp = FiniteSpace.single_class(4)
    with pytest.raises(ValueError):
        Homomorphism(sp, ())
    other = FullGroupElement.identity(FiniteSpace.single_class(8))
    with pytest.raises(ValueError):
        Homomorphism(sp, (other,))


def test_generator_and_letter_image():
    hom = odometer_hom(4)
    assert hom.generator(1)(0) == 1
    assert hom.generator(-1)(0) == 3
    assert hom.letter_image(-1, 0) == 3
    assert hom.letter_image(2, 3) == 3
    with pytest.raises(ValueError):
        hom.generator(0)
    with pytest.raises(ValueError):
        hom.generator(3)


def test_evaluate_applies_rightmost_letter_first():
    hom = odometer_hom(4)
    assert evaluate(hom, parse_word("s1 s1", 2), 0) == 2
    assert evaluate(hom, parse_word("", 2), 3) == 3
    assert evaluate(hom, parse_word("s1^-1", 2), 0) == 3
    # s2 fixes everything here, so conjugating by s1 changes nothing
    assert evaluate(hom, parse_word("s1^-1 s2 s1", 2), 2) == 2
    with pytest.raises(ValueError):
        evaluate(hom, parse_word("s1", 1), 0)


def test_element_of_is_a_homomorphism():
    sp = FiniteSpace.single_class(12)
    rng = derive_rng(3, STREAM_TEST, 3)
    hom = random_homomorphism(sp, 2, rng)
    for _ in range(25):
        u = random_reduced_word(2, int(rng.integers(0, 6)), rng)
        v = random_reduced_word(2, int(rng.integers(0, 6)), rng)
        assert hom.element_of(u * v) == hom.element_of(u) * hom.element_of(v)
        assert hom.element_of(u.inverse()) == hom.element_of(u).inv()
        for x in range(12):
            assert hom.element_of(u)(x) == evaluate(hom, u, x)


def test_is_lean_aperiodic():
    assert odometer_hom(8).is_lean_aperiodic
    sp = FiniteSpace.single_class(8)
    e = FullGroupElement.identity(sp)
    assert not Homomorphism(sp, (e, e)).is_lean_aperiodic


def test_hom_metric():
    hom = odometer_hom(4)
    assert hom_metric(hom, hom) == 0
    swapped = hom.replace_generator(1, FullGroupElement.from_forward(hom.space, [1, 0, 2, 3]))
    assert hom_metric(hom, swapped) == Fraction(1, 2)
    with pytest.raises(ValueError):
        hom_metric(hom, odometer_hom(8))
    with pytest.raises(ValueError):
        hom_metric(hom, odometer_hom(4, rank=3))


def test_orbits_and_index_distribution():
    hom = odometer_hom(8)
    assert orbit(hom, 3) == frozenset(range(8))
    assert orbits(hom) == [tuple(range(8))]
    assert index_distribution(hom) == {8: Fraction(1)}

    sp = FiniteSpace(4, [0] * 4, None)
    swap = FullGroupElement.from_forward(sp, [1, 0, 2, 3])
    ident = FullGroupElement.identity(sp)
    split = Homomorphism(sp, (swap, ident))
    assert orbits(split) == [(0, 1), (2,), (3,)]
    assert index_distribution(split) == {1: Fraction(1, 2), 2: Fraction(1, 2)}
    assert sum(index_distribution(split).values()) == 1


def test_stabilizer_trace_swap_example():
    sp = FiniteSpace(2, [0] * 2, None)
    swap = FullGroupElement.from_forward(sp, [1, 0])
    hom = Homomorphism(sp, (swap, FullGroupElement.identity(sp)))
    trace = stabilizer_trace(hom, 0, 1)
    fixing = {str(w) for w in trace.words()}
    assert fixing == {"", "s2", "s2^-1"}
    assert trace.contains(parse_word("s2", 2))
    assert not trace.contains(parse_word("s1", 2))

    deeper = stabilizer_trace(hom, 0, 2)
    fixing2 = {str(w) for w in deeper.words()}
    assert fixing2 == {"", "s2", "s2^-1", "s1 s1", "s1^-1 s1^-1",
                       "s2 s2", "s2^-1 s2^-1"}


def test_trace_is_closed_under_inverses_and_contains_identity():
    sp = FiniteSpace.single_class(16)
    rng = derive_rng(4, STREAM_TEST, 4)
    hom = random_homomorphism(sp, 2, rng)
    for atom in range(0, 16, 3):
        trace = stabilizer_trace(hom, atom, 2)
        words = set(trace.words())
        assert parse_word("", 2) in words
        assert {w.inverse() for w in words} == words


def test_torus_action_has_trivial_short_trace():
    hom = torus_hom(5)
    for atom in (0, 7, 24):
        trace = stabilizer_trace(hom, atom, 2)
        assert [str(w) for w in trace.words()] == [""]
    # at radius 4 the commutator word fixes every atom
    longer = stabilizer_trace(hom, 0, 4)
    assert longer.contains(parse_word("s1 s2 s1^-1 s2^-1", 2))


def test_trace_code_matrix_matches_single_traces(monkeypatch):
    sp = FiniteSpace(16, [0] * 6 + [1] * 10, None)
    rng = derive_rng(5, STREAM_TEST, 5)
    hom = random_homomorphism(sp, 2, rng)
    whole = ball_codes(hom, 1)
    for chunk_atoms in range(1, 6):
        # a budget of chunk_atoms int64 columns of |B(2)| words
        monkeypatch.setattr(actions, "_CHUNK_BYTES", chunk_atoms * 8 * ball_size(2, 2))
        codes = trace_code_matrix(hom, 2)
        for atom in range(sp.n_atoms):
            assert codes[atom].tobytes() == stabilizer_trace(hom, atom, 2).bits
        assert (ball_codes(hom, 1) == whole).all()


def test_empirical_irs_weights():
    hom = odometer_hom(8)
    irs = empirical_irs(hom, 2)
    assert sum(w for _, w in irs.weights) == 1
    for _, weight in irs.weights:
        assert (weight * 8).denominator == 1
    # transitive action with one trace everywhere
    assert len(irs.weights) == 1
    assert irs.as_dict()[irs.weights[0][0]] == 1

    sp = FiniteSpace(4, [0] * 4, None)
    swap = FullGroupElement.from_forward(sp, [1, 0, 2, 3])
    split = Homomorphism(sp, (swap, FullGroupElement.identity(sp)))
    mixed = empirical_irs(split, 1)
    assert len(mixed.weights) == 2
    assert sorted(w for _, w in mixed.weights) == [Fraction(1, 2), Fraction(1, 2)]


def test_empirical_irs_rejects_malformed_weights():
    n, rows, counts = 4, np.array([[0x80], [0xF8]], dtype=np.uint8), np.array([1, 3])
    ok = EmpiricalIRS(n, 1, 2, rows, counts)  # rank 1, radius 2: five ball words, one byte a row
    assert ok.as_dict() == {StabilizerTrace(1, 2, bytes([0x80])): Fraction(1, 4),
                            StabilizerTrace(1, 2, bytes([0xF8])): Fraction(3, 4)}
    assert not ok.rows.flags.writeable and not ok.counts.flags.writeable
    cases = [
        ((n, 1, 2, rows, [1, 2]), "counts must sum to n_atoms"),
        ((0, 1, 2, rows[:0], []), "counts must sum to n_atoms, at least 1"),
        ((n, 1, 2, rows, [4, 0]), "counts must be one positive count per row"),
        ((n, 1, 2, rows, [5, -1]), "counts must be one positive count per row"),
        ((n, 1, 2, rows, [4]), "counts must be one positive count per row"),
        ((n, 1, 2, rows[[0, 0]], [2, 2]), "rows must strictly ascend by bytes"),
        ((n, 1, 2, rows[[0, 1, 0]], [1, 2, 1]), "rows must strictly ascend by bytes"),
        ((n, 1, 2, rows[::-1], [3, 1]), "rows must strictly ascend by bytes"),
        ((n, 2, 2, rows, counts), "rows must be trace rows of the distribution's rank and radius"),
        ((n, 1, 5, rows, counts), "rows must be trace rows of the distribution's rank and radius"),
        # (2r-1)^R past 2^(2^20): refused from the bound, without sizing the ball
        ((n, 2, 10**10, rows, counts), "rows must be trace rows of the distribution's rank and radius"),
    ]
    for fields, message in cases:
        with pytest.raises(ValueError, match=message):
            EmpiricalIRS(*fields)


def test_invariance_defect_is_zero():
    rng = derive_rng(6, STREAM_TEST, 6)
    for space in (FiniteSpace.single_class(64), FiniteSpace.from_class_sizes([16, 48])):
        for rank in (2, 3):
            hom = random_homomorphism(space, rank, rng)
            assert invariance_defect(hom, 2) == 0


def test_schreier_ball_structure():
    hom = odometer_hom(8, rank=1)
    b = schreier_ball(hom, 0, 2)
    assert b.root == 0 and b.radius == 2
    assert b.vertices == (0, 1, 2, 6, 7)
    # one edge per signed letter per vertex, plus reverses for the two exits
    assert len(b.edges) == 2 * len(b.vertices) + 2
    assert (0, 1, 1) in b.edges and (0, -1, 7) in b.edges
    assert (3, -1, 2) in b.edges and (5, 1, 6) in b.edges
    # the codes agree exactly when the rooted balls are isomorphic
    sp = FiniteSpace(8, [0] * 8, None)
    two_fours = Homomorphism(
        sp, (FullGroupElement.from_forward(sp, [1, 2, 3, 0, 5, 6, 7, 4]),)
    )
    for other, radius in ((hom, 2), (two_fours, 1), (two_fours, 2)):
        same = schreier_ball(hom, 0, radius).code == schreier_ball(other, 0, radius).code
        assert same == balls_isomorphic(hom, 0, other, 0, radius)
    assert b.code == ball_codes(hom, 2)[0].tobytes()


def test_schreier_ball_radius_zero():
    hom = odometer_hom(4, rank=2)
    b = schreier_ball(hom, 2, 0)
    assert b.vertices == (2,)
    outgoing = [e for e in b.edges if e[0] == 2]
    assert len(outgoing) == 4


def brute_ball_iso(a, x, b, y, radius):
    """Pairwise word-collision oracle for rooted ball isomorphism."""
    outer = ball(a.rank, radius + 1).words
    for u in outer:
        for v in outer:
            if len(u) > radius and len(v) > radius:
                continue
            same_a = evaluate(a, u, x) == evaluate(a, v, x)
            same_b = evaluate(b, u, y) == evaluate(b, v, y)
            if same_a != same_b:
                return False
    return True


def test_balls_isomorphic_cycles():
    eight = odometer_hom(8, rank=1)
    sp = FiniteSpace(8, [0] * 8, None)
    two_fours = Homomorphism(
        sp, (FullGroupElement.from_forward(sp, [1, 2, 3, 0, 5, 6, 7, 4]),)
    )
    assert balls_isomorphic(eight, 0, two_fours, 0, 1)
    assert not balls_isomorphic(eight, 0, two_fours, 0, 2)
    with pytest.raises(ValueError):
        balls_isomorphic(eight, 0, odometer_hom(8, rank=2), 0, 1)


def test_balls_isomorphic_matches_brute_oracle():
    rng = derive_rng(7, STREAM_TEST, 7)
    sp = FiniteSpace(8, [0] * 8, None)
    seen = set()
    for _ in range(15):
        a = random_homomorphism(sp, 2, rng)
        b = random_homomorphism(sp, 2, rng)
        x = int(rng.integers(8))
        y = int(rng.integers(8))
        got = balls_isomorphic(a, x, b, y, 1)
        assert got == brute_ball_iso(a, x, b, y, 1)
        seen.add(got)
        # conjugating the whole action relabels the ball, an exact positive
        c = random_full_group_element(sp, rng)
        conj = Homomorphism(sp, tuple(c * g * c.inv() for g in a.gens))
        assert balls_isomorphic(a, x, conj, c(x), 1)
        assert brute_ball_iso(a, x, conj, c(x), 1)
    assert seen == {True, False}


# -- oracle: the per-atom trace walk the ball-word images kernel replaced -------


def walk_stabilizer_trace(hom, atom, radius):
    """Trace of one atom: the ball words fixing it."""
    fb = ball(hom.rank, radius)
    images = [0] * len(fb)
    images[0] = atom
    bits = bytearray((len(fb) + 7) // 8)
    bits[0] |= 0x80
    for i in range(1, len(fb)):
        img = hom.letter_image(int(fb.first_letter[i]), images[int(fb.parent[i])])
        images[i] = img
        if img == atom:
            bits[i >> 3] |= 0x80 >> (i & 7)
    return StabilizerTrace(hom.rank, radius, bytes(bits))


@st.composite
def homs(draw):
    """Lean-aperiodic and random homs of rank 1-3 on one class, and random
    homs on several classes with singletons."""
    kind = draw(st.sampled_from(["lean", "random", "classes"]))
    rng = derive_rng(draw(st.integers(0, 2**16)), STREAM_TEST, 8)
    rank = draw(st.integers(1, 3))
    if kind == "classes":
        space = FiniteSpace.from_class_sizes(draw(st.lists(st.integers(1, 6), min_size=1, max_size=8)))
    else:
        space = FiniteSpace.single_class(draw(st.integers(1, 48)))
    if kind == "lean":
        return lean_aperiodic_homomorphism(space, rank, rng)
    return random_homomorphism(space, rank, rng)


# -- oracles: per-atom word evaluation and the letter product of element_of ----


def oracle_evaluate(hom, word, atom):
    """Apply a word to one atom, one table lookup per letter, rightmost first."""
    for letter in reversed(word.letters):
        atom = int(hom.tables[letter][atom])
    return atom


def oracle_element_of(hom, word):
    """The image permutation of a word as the product of its letters' images."""
    result = FullGroupElement.identity(hom.space)
    for letter in word.letters:
        result = result * hom.generator(letter)
    return result


@settings(max_examples=80, deadline=None)
@given(homs(), st.data())
def test_array_evaluate_and_element_of_match_the_oracles(hom, data):
    n = hom.space.n_atoms
    letters = data.draw(st.lists(st.integers(-hom.rank, hom.rank).filter(bool), max_size=8))
    atoms = data.draw(st.lists(st.integers(0, n - 1), max_size=2 * n))
    for word in (reduce_letters(hom.rank, letters), reduce_letters(hom.rank, ())):
        want = [oracle_evaluate(hom, word, a) for a in atoms]
        array = np.array(atoms, dtype=np.int64)
        got = evaluate(hom, word, array)
        assert got.dtype == np.int64 and got.tolist() == want
        assert not np.shares_memory(got, array)  # a new array, even for the empty word
        assert evaluate(hom, word, atoms).tolist() == want
        element, oracle = hom.element_of(word), oracle_element_of(hom, word)
        assert element == oracle and np.array_equal(element.inverse, oracle.inverse)
        assert not (element.forward.flags.writeable or element.inverse.flags.writeable)


@pytest.mark.parametrize("atom", [5, np.int64(5), np.int32(5), np.uint8(5), np.array(5)])
def test_one_atom_evaluates_to_an_int(atom):
    hom = random_homomorphism(FiniteSpace.single_class(16), 2, derive_rng(17, STREAM_TEST, 17))
    for text in ("s1 s2^-1 s1", ""):
        word = parse_word(text, 2)
        got = evaluate(hom, word, atom)
        assert type(got) is int and got == oracle_evaluate(hom, word, 5)


@pytest.mark.parametrize("atom, named", [(10**5000, "at least 2^16609"), (-10**5000, "at most -2^16609")],
                         ids=["plus", "minus"])
def test_atoms_past_the_int_to_str_limit_are_refused_by_their_size(atom, named):
    hom = random_homomorphism(FiniteSpace.single_class(16), 2, derive_rng(17, STREAM_TEST, 17))
    calls = [
        lambda: hom.space.checked_atoms(atom),
        lambda: hom.space.checked_atoms([1, atom, 2]),
        lambda: evaluate(hom, parse_word("s1 s2", 2), atom),
        lambda: evaluate(hom, parse_word("s1 s2", 2), [atom, 3]),
        lambda: orbit(hom, atom),
        lambda: hom.gens[0](atom),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=rf"^atom {re.escape(named)} is not in \[0, 16\)$"):
            call()


# -- oracles: the inverse tables built before an element became its forward table --
#
# Each builder made its own inverse: `from_forward` by a scatter, `odometer` by
# a formula, `__mul__` by a gather of the factors' inverses, `element_of` by
# evaluating the inverse word, and `labels.cycle_positions` by a scatter of the
# predecessors.  They are kept verbatim (only renamed) as independent oracles
# of the one scatter in `FullGroupElement.inverse`.


def old_from_forward_inverse(space, forward):
    inverse = np.empty_like(forward)
    inverse[forward] = np.arange(space.n_atoms)
    return inverse


def old_odometer_inverse(n):
    return (np.arange(n) - 1) % n


def old_product(a, b):
    """(forward, inverse) of a * b from the two factors' (forward, inverse)."""
    (self_forward, self_inverse), (other_forward, other_inverse) = a, b
    return self_forward[other_forward], other_inverse[self_inverse]


def old_element_of(hom, tables, word):
    """(forward, inverse) of a word: the word and its inverse evaluated on every
    atom, on the old letter tables."""
    atoms = np.arange(hom.space.n_atoms)
    pair = []
    for w in (word, word.inverse()):
        images = atoms.copy()
        for letter in reversed(w.letters):
            images = tables[letter][images]
        pair.append(images)
    return tuple(pair)


def old_cycle_positions(perm, labels):
    perm = np.asarray(perm, dtype=np.int64)
    atoms = np.arange(perm.size, dtype=np.int64)
    nxt = np.empty_like(perm)
    nxt[perm] = atoms
    nxt = np.where(labels == atoms, atoms, nxt)
    pos = (nxt != atoms).astype(np.int64)
    while not np.array_equal(grand := nxt[nxt], nxt):
        pos += pos[nxt]
        nxt = grand
    return pos


def _assert_matches(element, pair):
    forward, inverse = pair
    n = element.space.n_atoms
    assert np.array_equal(element.forward, forward) and np.array_equal(element.inverse, inverse)
    assert not (element.forward.flags.writeable or element.inverse.flags.writeable)
    assert np.array_equal(element.inverse[element.forward], np.arange(n))


@settings(max_examples=80, deadline=None)
@given(homs(), st.data())
def test_every_inverse_matches_the_old_inverse_builds(hom, data):
    space, n = hom.space, hom.space.n_atoms
    lean = hom.is_lean_aperiodic and hom.gens[0] == FullGroupElement.odometer(space)
    old = [(g.forward, old_odometer_inverse(n) if lean and i == 0 else old_from_forward_inverse(space, g.forward))
           for i, g in enumerate(hom.gens)]
    for g, pair in zip(hom.gens, old):
        _assert_matches(g, pair)
        _assert_matches(FullGroupElement.from_forward(space, g.forward), pair)
    if space.is_single_class:
        _assert_matches(FullGroupElement.odometer(space), ((np.arange(n) + 1) % n, old_odometer_inverse(n)))
    tables = {l: t for i, (f, inv) in enumerate(old, 1) for l, t in ((i, f), (-i, inv))}
    assert tables.keys() == hom.tables.keys()
    assert all(np.array_equal(hom.tables[l], t) for l, t in tables.items())

    def old_pair(letter):
        forward, inverse = old[abs(letter) - 1]
        return (forward, inverse) if letter > 0 else (inverse, forward)  # the old inv()

    letters = st.integers(-hom.rank, hom.rank).filter(bool)
    for _ in range(3):
        word = reduce_letters(hom.rank, data.draw(st.lists(letters, max_size=6)))
        _assert_matches(hom.element_of(word), old_element_of(hom, tables, word))

        # the word as a product of letter images, a factor at a time
        element, pair = FullGroupElement.identity(space), (np.arange(n), np.arange(n))
        for letter in word.letters:
            element, pair = element * hom.generator(letter), old_product(pair, old_pair(letter))
            _assert_matches(element, pair)

        # negative and positive powers, and inv() chains
        letter, k = data.draw(letters), data.draw(st.integers(-4, 4))
        power = (np.arange(n), np.arange(n))
        for _ in range(abs(k)):
            power = old_product(power, old_pair(letter if k > 0 else -letter))
        _assert_matches(hom.generator(letter) ** k, power)
        chain, pair = hom.generator(letter), old_pair(letter)
        for _ in range(data.draw(st.integers(1, 4))):
            chain, pair = chain.inv(), pair[::-1]
            _assert_matches(chain, pair)

    for g in hom.gens:
        labels, pos = g.cycle_positions
        assert np.array_equal(pos, old_cycle_positions(g.forward, labels))


def _partition(rows):
    """Each row's label: the least row index holding the same bytes."""
    first = {}
    return [first.setdefault(row.tobytes(), i) for i, row in enumerate(rows)]


@settings(max_examples=80, deadline=None)
@given(homs(), st.integers(0, 2), st.data())
def test_traces_and_ball_codes_match_the_oracles(hom, radius, data):
    n = hom.space.n_atoms
    traces = trace_code_matrix(hom, radius)
    for atom in range(n):
        walk = walk_stabilizer_trace(hom, atom, radius)
        assert traces[atom].tobytes() == walk.bits
        assert stabilizer_trace(hom, atom, radius) == walk

    # the ball codes partition the atoms as the 2R+1 traces and the brute oracle do
    codes = ball_codes(hom, radius)
    assert codes.shape == (n, ball_size(hom.rank, radius + 1))
    labels = _partition(codes)
    assert labels == _partition(trace_code_matrix(hom, 2 * radius + 1))
    for _ in range(2):
        x = data.draw(st.integers(0, n - 1))
        for y in (labels[x], data.draw(st.integers(0, n - 1))):
            iso = labels[x] == labels[y]
            assert brute_ball_iso(hom, x, hom, y, radius) == iso
            assert balls_isomorphic(hom, x, hom, y, radius) == iso
            assert (schreier_ball(hom, x, radius).code == schreier_ball(hom, y, radius).code) == iso



# -- oracles: the ball-code kernel's global sort, and first occurrences word by word --


def global_sort_code_blocks(hom, radius, atoms, inner, outer):
    """The ball-code kernel before the per-row sort, verbatim: one sort of the
    (row, atom, word) keys of a whole chunk, runs split where the slot changes."""
    n = hom.space.n_atoms
    words = np.arange(outer)
    for chunk, images in _ball_images(hom, radius + 1, atoms):
        # sorted (row, atom, word) keys: each run of one (row, atom) starts at its least word
        keys = np.sort((images + n * np.arange(chunk.size)[:, None]) * words.size + words, None)
        slot, word = np.divmod(keys, words.size)  # slot = row * n + atom
        head = np.maximum.accumulate(np.where(np.diff(slot, prepend=-1), np.arange(slot.size), 0))
        block = np.empty((chunk.size, outer), dtype=np.min_scalar_type(inner))
        block[slot // n, word] = np.minimum(word[head], inner)
        yield block


def first_occurrence_codes(hom, radius, atoms):
    """Entry w of an atom's row: the least B(R) word reaching the atom that the
    B(R+1) word w reaches, or |B(R)|, each word applied letter by letter."""
    inner, words = ball_size(hom.rank, radius), ball(hom.rank, radius + 1).words
    rows = []
    for atom in atoms:
        first = {}
        for i, w in enumerate(words):
            first.setdefault(oracle_evaluate(hom, w, atom), i)
        rows.append([min(first[oracle_evaluate(hom, w, atom)], inner) for w in words])
    return rows


@settings(max_examples=80, deadline=None)
@given(homs(), st.integers(0, 3), st.integers(1, 5), st.data())
def test_code_blocks_match_the_global_sort_and_first_occurrences(hom, radius, chunk_atoms, data):
    n, outer = hom.space.n_atoms, ball_size(hom.rank, radius + 1)
    atoms = data.draw(st.one_of(st.just(list(range(n))), st.lists(st.integers(0, n - 1), max_size=2 * n)))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(actions, "_CHUNK_BYTES", chunk_atoms * 8 * outer)
        checked = hom.space.checked_atoms(atoms)
        inner, _ = actions._code_sizes(hom, radius, checked.size)
        got = list(actions._code_blocks(hom, radius, checked, inner, outer))
        want = list(global_sort_code_blocks(hom, radius, checked, inner, outer))
        codes = ball_codes(hom, radius, atoms)
    assert [len(b) for b in got] == [len(b) for b in want]
    assert all(len(b) <= chunk_atoms for b in got) and sum(map(len, got)) == len(atoms)
    for block, oracle in zip(got, want):
        assert block.dtype == oracle.dtype == np.min_scalar_type(inner)
        assert block.shape == (len(block), outer) and np.array_equal(block, oracle)
    assert codes.shape == (len(atoms), outer) and codes.dtype == np.min_scalar_type(inner)
    if radius < 3 or hom.rank < 3:  # |B(4)| = 1457 words per atom is slow letter by letter
        assert codes.tolist() == first_occurrence_codes(hom, radius, atoms)
    assert list(actions._code_blocks(hom, radius, np.empty(0, dtype=np.int64), inner, outer)) == []


# -- oracle: the invariance defect built from one permutation per conjugate ----


def oracle_invariance_defect(hom, radius):
    """Largest total-variation gap between the trace distribution and any
    generator-conjugated one.  Exactly zero for every homomorphism; the
    conjugated membership tests are evaluated directly, not rewritten.
    """
    fb = ball(hom.rank, radius)
    n = hom.space.n_atoms
    base = Counter(row.tobytes() for row in trace_code_matrix(hom, radius))
    atoms = np.arange(n)
    worst = Fraction(0)
    for letter in [l for i in range(1, hom.rank + 1) for l in (i, -i)]:
        fixed = np.empty((len(fb), n), dtype=bool)
        for i, w in enumerate(fb.words):
            conj = reduce_letters(hom.rank, (-letter,) + w.letters + (letter,))
            fixed[i] = hom.element_of(conj).forward == atoms
        conj_counts = Counter(row.tobytes() for row in np.packbits(fixed.T, axis=1))
        l1 = sum(abs(base[k] - conj_counts[k]) for k in base.keys() | conj_counts.keys())
        worst = max(worst, Fraction(l1, 2 * n))
    return worst


# -- oracles: conjugated traces one letter at a time, counted by concatenation ---


def _conjugate_trace_rows(hom: Homomorphism, radius: int, letter: int) -> np.ndarray:
    """Packed trace rows of the conjugates by a signed letter s: bit i of row x
    is set iff s^-1 w s fixes x, for ball word i = w, evaluated as s^-1(w(s x))."""
    step, back = hom.tables[letter], hom.tables[-letter]
    rows, start = [], 0
    for _, images in _ball_images(hom, radius, step):  # images[j] = the ball words at s(x)
        x = np.arange(start, start + images.shape[0])  # the chunk's atoms s(x) sit at x
        rows.append(np.packbits(back[images] == x[:, None], axis=1))
        start += images.shape[0]
    return np.concatenate(rows)


def concat_invariance_defect(hom: Homomorphism, radius: int) -> Fraction:
    """Largest total-variation gap between the trace distribution and any
    generator-conjugated one.  Exactly zero for every homomorphism; the
    conjugated membership tests are evaluated directly, not rewritten:
    each conjugate s^-1 w s is applied to x letter by letter, w to s(x)
    on the ball-word images kernel and then s^-1.  Both distributions
    are counted on one `row_ids` numbering of their trace rows.
    """
    n = hom.space.n_atoms
    base = trace_code_matrix(hom, radius)
    worst = Fraction(0)
    for letter in hom.tables:
        ids, count = row_ids(np.concatenate([base, _conjugate_trace_rows(hom, radius, letter)]))
        gap = np.abs(np.bincount(ids[:n], minlength=count) - np.bincount(ids[n:], minlength=count))
        worst = max(worst, Fraction(int(gap.sum()), 2 * n))
    return worst


def empirical_irs_from_first_atoms(hom, radius):
    """Distribution of stabilizer traces over the uniform atom, by ascending bytes."""
    rows = trace_code_matrix(hom, radius)
    ids, count = row_ids(rows)
    first = np.empty(count, dtype=np.int64)
    first[ids] = np.arange(ids.size)  # an atom holding each trace
    return EmpiricalIRS(hom.space.n_atoms, hom.rank, radius, rows[first], np.bincount(ids, minlength=count))


@settings(max_examples=60, deadline=None)
@given(homs(), st.integers(0, 3), st.integers(1, 5))
def test_conjugate_traces_match_the_permutation_oracle(hom, radius, chunk_atoms):
    n, fb = hom.space.n_atoms, ball(hom.rank, radius)
    with pytest.MonkeyPatch.context() as mp:
        # chunks of chunk_atoms atoms, so most atoms sit at a nonzero chunk offset
        mp.setattr(actions, "_CHUNK_BYTES", chunk_atoms * 8 * len(fb))
        blocks = {letter: np.zeros((2, n, len(fb)), dtype=bool) for letter in hom.tables}
        seen = Counter()
        for letter, x, fixed, traced in _conjugate_rows(hom, radius):
            blocks[letter][:, x] = fixed, traced
            seen.update((letter, a) for a in x.tolist())
        assert seen == Counter({(letter, a): 1 for letter in hom.tables for a in range(n)})
        base = np.unpackbits(trace_code_matrix(hom, radius), axis=1, count=len(fb)).astype(bool)
        for letter in [l for i in range(1, hom.rank + 1) for l in (i, -i)]:
            fixed, traced = blocks[letter]
            assert np.array_equal(traced, base[hom.tables[letter]])  # the trace at s(x)
            rows = _conjugate_trace_rows(hom, radius, letter)
            assert rows.shape == (n, (len(fb) + 7) // 8)
            assert np.array_equal(np.packbits(fixed, axis=1), rows)
            for i, w in enumerate(fb.words):
                conj = hom.element_of(reduce_letters(hom.rank, (-letter,) + w.letters + (letter,)))
                assert np.array_equal(fixed[:, i], conj.forward == np.arange(n)), (letter, str(w))
        defect = invariance_defect(hom, radius)
    assert defect == 0
    assert defect == concat_invariance_defect(hom, radius)
    assert defect == oracle_invariance_defect(hom, radius)
    irs, oracle = empirical_irs(hom, radius), empirical_irs_from_first_atoms(hom, radius)
    assert np.array_equal(irs.rows, oracle.rows) and np.array_equal(irs.counts, oracle.counts)
    assert irs.weights == oracle.weights


def test_a_conjugated_row_that_differs_is_an_internal_error(tmp_path, monkeypatch, capsys):
    hom = random_homomorphism(FiniteSpace.single_class(9), 2, derive_rng(11, STREAM_TEST, 11))
    direct = actions._conjugate_rows

    def tampered(hom, radius):
        for letter, x, fixed, traced in direct(hom, radius):
            if letter == -2:
                fixed = fixed.copy()
                fixed[-1, -1] = ~fixed[-1, -1]
            yield letter, x, fixed, traced

    monkeypatch.setattr(actions, "_conjugate_rows", tampered)
    message = "the trace of s^-1 w s at x differs from that of w at s(x), s = -2"
    with pytest.raises(AssertionError, match=f"^{re.escape(message)}$"):
        invariance_defect(hom, 1)
    path = tmp_path / "h.json"
    path.write_text(dumps_canonical(hom_to_doc(hom)))
    assert main(["analyze", "irs", "--hom", str(path), "--radius", "1"]) == 3
    captured = capsys.readouterr()
    assert captured.err == f"internal error: {message}\n"
    assert captured.out == ""


def test_letter_tables_that_are_not_inverse_are_an_internal_error():
    hom = random_homomorphism(FiniteSpace.single_class(9), 2, derive_rng(11, STREAM_TEST, 11))
    tables = dict(hom.tables)
    tables[-1] = tables[1]  # not an involution, so not its own inverse
    assert not np.array_equal(tables[1][tables[1]], np.arange(9))
    hom.__dict__["tables"] = tables
    with pytest.raises(AssertionError, match="tables of letters 1 and -1 are not inverse"):
        invariance_defect(hom, 1)


def test_trace_rows_over_the_byte_budget_fail_before_the_ball_is_built(monkeypatch):
    hom = random_homomorphism(FiniteSpace.single_class(16), 2, derive_rng(12, STREAM_TEST, 12))

    def no_ball(*args):
        raise AssertionError("the ball was built")

    monkeypatch.setattr(actions, "ball", no_ball)
    for call in (trace_code_matrix, empirical_irs, invariance_defect):
        with pytest.raises(TraceBudgetError, match="^trace rows at radius 20 need 13947137616 bytes"):
            call(hom, 20)
    assert issubclass(TraceBudgetError, ValueError)
    # the budget holds every radius the benchmark runs: R = 4 on 2^16 atoms
    assert (1 << 16) * -(-ball_size(2, 4) // 8) <= irslab.space._BYTE_BUDGET


def test_ball_codes_over_the_byte_budget_fail_before_the_ball_is_built(monkeypatch):
    hom = random_homomorphism(FiniteSpace.single_class(16), 2, derive_rng(12, STREAM_TEST, 12))
    other = random_homomorphism(FiniteSpace.single_class(16), 2, derive_rng(13, STREAM_TEST, 13))

    def no_ball(*args):
        raise AssertionError("the ball was built")

    monkeypatch.setattr(actions, "ball", no_ball)
    # |B(20)| = 6973568801 codes of 4 bytes (|B(19)| > 2^16) per atom checked
    need = "^ball codes at radius 19 need {} bytes for {}, over the budget of 268435456$"
    with pytest.raises(TraceBudgetError, match=need.format(446308403264, "16 atoms")):
        ball_codes(hom, 19)
    with pytest.raises(TraceBudgetError, match=need.format(446308403264, "16 atoms")):
        ball_stability_check(hom, other, 19)
    with pytest.raises(TraceBudgetError, match=need.format(27894275204, "1 atom")):
        schreier_ball(hom, 0, 19)
    with pytest.raises(TraceBudgetError, match=need.format(55788550408, "2 atoms")):
        ball_codes(hom, 19, [0, 1])
    # the budget holds every radius the benchmark runs: R = 3 (one-byte codes) on 2^14 atoms
    assert (1 << 14) * ball_size(2, 4) <= irslab.space._BYTE_BUDGET


def test_schreier_ball_refuses_its_code_before_building_edges():
    """At radius 40 the ball of a 2^14 lean hom is every atom, 2^16 edge tuples;
    the code's refusal comes first, so the refused call traces well under 1 MiB."""
    hom = lean_aperiodic_homomorphism(FiniteSpace.single_class(2 ** 14), 2, derive_rng(15, STREAM_TEST, 15))
    tracemalloc.start()
    try:
        with pytest.raises(TraceBudgetError, match="^ball codes at radius 40 need .* for 1 atom, over"):
            schreier_ball(hom, 0, 40)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_ball_atoms_of_many_roots_unite_their_balls():
    hom = random_homomorphism(FiniteSpace.single_class(64), 2, derive_rng(14, STREAM_TEST, 14))
    rng = derive_rng(15, STREAM_TEST, 15)
    for radius in range(4):
        assert actions.ball_atoms(hom, [], radius).size == 0
        one = actions.ball_atoms(hom, 5, radius)
        assert np.array_equal(actions.ball_atoms(hom, np.array([5]), radius), one)
        for size in (1, 3, 10):
            roots = rng.choice(64, size=size)  # repeats allowed
            union = np.unique(np.concatenate([actions.ball_atoms(hom, int(r), radius) for r in roots]))
            assert np.array_equal(actions.ball_atoms(hom, roots, radius), union)


@pytest.mark.parametrize("radius", [0, 1, 3])
def test_ball_codes_of_no_atoms_are_an_empty_matrix(radius):
    hom = random_homomorphism(FiniteSpace.single_class(16), 2, derive_rng(16, STREAM_TEST, 16))
    for atoms in ([], np.empty(0, dtype=np.int64)):
        codes = ball_codes(hom, radius, atoms)
        assert codes.shape == (0, ball_size(2, radius + 1))
        assert codes.dtype == ball_codes(hom, radius, [0]).dtype


@pytest.mark.parametrize("atom", [-1, -16, 16, 99])
def test_atoms_outside_the_space_are_refused(atom):
    hom = random_homomorphism(FiniteSpace.single_class(16), 2, derive_rng(17, STREAM_TEST, 17))
    calls = [
        lambda: actions.ball_atoms(hom, atom, 1),
        lambda: actions.ball_atoms(hom, [0, atom], 1),
        lambda: ball_codes(hom, 1, [atom]),
        lambda: ball_codes(hom, 1, [3, atom, 2]),
        lambda: stabilizer_trace(hom, atom, 1),
        lambda: schreier_ball(hom, atom, 1),
        lambda: balls_isomorphic(hom, atom, hom, 0, 1),
        lambda: balls_isomorphic(hom, 0, hom, atom, 1),
        lambda: hom.letter_image(1, atom),
        lambda: hom.letter_image(-2, atom),
        lambda: evaluate(hom, parse_word("s1 s2", 2), atom),
        lambda: evaluate(hom, parse_word("", 2), atom),
        lambda: evaluate(hom, parse_word("s1 s2", 2), [0, atom, 3]),
        lambda: evaluate(hom, parse_word("", 2), np.array([2, 5, atom])),
        lambda: orbit(hom, atom),
        lambda: hom.gens[1](atom),
        lambda: schreier_boundary_ratio(hom, [atom]),
        lambda: schreier_boundary_ratio(hom, [0, atom]),
        lambda: first_return(hom.gens[0], [atom]),
        lambda: first_return(hom.gens[1], [3, atom]),
        lambda: hom.gens[0].levels([atom], 3),
        lambda: hom.gens[1].levels([0, atom], 1),
        lambda: hom.space.measure([1, atom]),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=rf"^atom {atom} is not in \[0, 16\)$"):
            call()


@pytest.mark.parametrize("atom, named", [
    (1.5, "1.5"), (2.7, "2.7"), (np.float64(2.0), "2.0"), (True, "True"), (np.bool_(False), "False"),
    ("3", "'3'"), (None, "None"),
])
def test_non_integer_atoms_are_refused(atom, named):
    """A float, bool or other non-integer is refused, not truncated to an atom."""
    hom = random_homomorphism(FiniteSpace.single_class(16), 2, derive_rng(17, STREAM_TEST, 17))
    calls = [
        lambda: actions.ball_atoms(hom, atom, 1),
        lambda: actions.ball_atoms(hom, [0, atom], 1),
        lambda: ball_codes(hom, 1, [3, atom, 2]),
        lambda: stabilizer_trace(hom, atom, 1),
        lambda: hom.letter_image(1, atom),
        lambda: orbit(hom, atom),
        lambda: hom.gens[0](atom),
        lambda: hom.space.checked_atoms(np.array([atom])),
        lambda: schreier_boundary_ratio(hom, [atom]),
        lambda: schreier_boundary_ratio(hom, [0, atom]),
        lambda: first_return(hom.gens[0], [atom]),
        lambda: first_return(hom.gens[1], [3, atom]),
        lambda: hom.gens[0].levels([atom], 3),
        lambda: hom.gens[1].levels([0, atom], 1),
        lambda: hom.space.measure([1, atom]),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=rf"^atom {re.escape(named)} is not an integer$"):
            call()


def test_atom_checks_keep_empty_lists_and_huge_integer_messages():
    space = FiniteSpace.single_class(16)
    # numpy reads an empty list as float64; it is still no atoms
    assert space.checked_atoms([]).dtype == np.int64 and space.checked_atoms([]).size == 0
    assert space.checked_atoms([np.int32(3), 2**3]).tolist() == [3, 8]
    with pytest.raises(ValueError, match=rf"^atom {2**70} is not in \[0, 16\)$"):
        space.checked_atoms([1, 2**70])
    with pytest.raises(ValueError, match=r"^atom 0.5 is not an integer$"):
        space.checked_atoms([1, 2**70, 0.5])


def test_ball_atoms_stop_once_the_ball_stops_growing(monkeypatch):
    space = FiniteSpace.single_class(256)
    hom = lean_aperiodic_homomorphism(space, 2, derive_rng(5, STREAM_TEST, 5))
    diameter = next(r for r in range(257) if actions.ball_atoms(hom, 0, r).size == 256)
    layers = []
    unique = actions.sorted_unique
    monkeypatch.setattr(actions, "sorted_unique", lambda a: layers.append(1) or unique(a))
    assert np.array_equal(actions.ball_atoms(hom, 0, 10**6), np.arange(256))
    assert len(layers) <= diameter + 1


@pytest.mark.parametrize("radius", [-1, -3])
def test_negative_radius_is_rejected(radius):
    hom = lean_aperiodic_homomorphism(FiniteSpace.single_class(16), 2, derive_rng(0, STREAM_TEST, 7))
    calls = [
        lambda: actions.ball_atoms(hom, 0, radius),
        lambda: ball_codes(hom, radius),
        lambda: ball_codes(hom, radius, [3]),
        lambda: schreier_ball(hom, 0, radius),
        lambda: balls_isomorphic(hom, 0, hom, 1, radius),
        lambda: folner_search(hom, 0, 2, radius),
        lambda: ball_stability_check(hom, hom, radius),
        lambda: trace_code_matrix(hom, radius),
        lambda: stabilizer_trace(hom, 0, radius),
        lambda: empirical_irs(hom, radius),
        lambda: invariance_defect(hom, radius),
        lambda: ball(2, radius),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="^radius must be nonnegative$"):
            call()


def test_tables_follow_the_ball_letter_order():
    hom = random_homomorphism(FiniteSpace.single_class(12), 3, derive_rng(8, STREAM_TEST, 8))
    assert list(hom.tables) == [1, -1, 2, -2, 3, -3]
    for letter, table in hom.tables.items():
        assert np.array_equal(table, hom.generator(letter).forward)
        assert [hom.letter_image(letter, x) for x in range(12)] == table.tolist()


@pytest.mark.parametrize("letter", [0, 3, -3, -5])
def test_letter_image_rejects_letters_outside_the_rank(letter):
    hom = odometer_hom(4)
    with pytest.raises(ValueError, match=f"letter {letter} out of range"):
        hom.letter_image(letter, 0)


@pytest.mark.parametrize("index", [-1, -2, 2, 7])
def test_replace_generator_rejects_indices_outside_the_rank(index):
    hom = odometer_hom(4)
    ident = FullGroupElement.identity(hom.space)
    with pytest.raises(ValueError, match=rf"generator index {index} is not in \[0, 2\)"):
        hom.replace_generator(index, ident)
    assert hom.replace_generator(0, ident).gens == (ident, hom.gens[1])

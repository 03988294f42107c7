"""Space, full-group element, and exact metric behavior."""

import dataclasses
import pickle
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irslab import (
    FiniteSpace,
    FullGroupElement,
    conjugate_to_standard_cycle,
    derive_rng,
    lean_aperiodic_homomorphism,
    random_full_group_element,
    random_homomorphism,
    uniform_metric,
)
from irslab.fullgroup import cycle_structure
from irslab.rng import STREAM_TEST
from irslab.serialize import hom_from_doc, hom_to_doc


def test_single_class_space():
    sp = FiniteSpace.single_class(8)
    assert sp.n_atoms == 8
    assert sp.class_count == 1
    assert sp.is_single_class
    assert sp.classes() == ((0, 1, 2, 3, 4, 5, 6, 7),)
    assert sp.filtration_levels == 3


def test_from_class_sizes():
    sp = FiniteSpace.from_class_sizes([4, 4, 8])
    assert sp.n_atoms == 16
    assert sp.class_count == 3
    assert sp.classes()[1] == (4, 5, 6, 7)
    assert sp.filtration_levels == 2
    assert not sp.is_single_class


def test_auto_filtration_stops_at_odd_sizes():
    assert FiniteSpace.from_class_sizes([2, 3]).filtration_levels == 0
    assert FiniteSpace.from_class_sizes([6, 2]).filtration_levels == 1
    assert FiniteSpace.single_class(12).filtration_levels == 2


def test_space_validation():
    with pytest.raises(ValueError):
        FiniteSpace.single_class(0)
    with pytest.raises(ValueError):
        FiniteSpace(4, np.array([0, 0, 0]))
    with pytest.raises(ValueError):
        FiniteSpace(3, np.array([0, 0, 2]))
    with pytest.raises(ValueError):
        FiniteSpace(2, np.array([0, -1]))
    with pytest.raises(ValueError):
        FiniteSpace.from_class_sizes([])
    with pytest.raises(ValueError):
        FiniteSpace.from_class_sizes([3, 0])


def test_filtration_blocks_must_respect_classes():
    # two classes of size 2 support level 1, but a block would straddle them at level 2
    FiniteSpace(4, np.array([0, 0, 1, 1]), 1)
    with pytest.raises(ValueError):
        FiniteSpace(4, np.array([0, 0, 1, 1]), 2)
    # divisibility of the atom count by the top block size
    with pytest.raises(ValueError):
        FiniteSpace(6, np.array([0] * 6), 2)


def test_block_index():
    sp = FiniteSpace.single_class(8)
    assert sp.block_index(0).tolist() == list(range(8))
    assert sp.block_index(2).tolist() == [0, 0, 0, 0, 1, 1, 1, 1]
    with pytest.raises(ValueError):
        sp.block_index(4)
    with pytest.raises(ValueError):
        sp.block_index(-1)
    with pytest.raises(ValueError):
        FiniteSpace(3, np.array([0, 0, 0]), None).block_index(0)


def test_filtration_blocks_nest():
    sp = FiniteSpace.single_class(16)
    for level in range(sp.filtration_levels):
        fine = sp.block_index(level)
        coarse = sp.block_index(level + 1)
        # same fine block always lands in the same coarse block
        for b in np.unique(fine):
            assert len(np.unique(coarse[fine == b])) == 1


def test_measure():
    sp = FiniteSpace.single_class(8)
    assert sp.measure([0, 1, 1]) == Fraction(1, 4)
    assert sp.measure(3) == Fraction(3, 8)
    assert sp.measure([]) == 0
    assert sp.measure(8) == 1 and sp.measure(np.int64(2)) == Fraction(1, 4)
    assert sp.measure(range(3)) == sp.measure({0, 1, 2}) == sp.measure(np.arange(3)) == Fraction(3, 8)


@pytest.mark.parametrize("atoms, message", [
    ([1, 99, -3], r"^atom 99 is not in \[0, 8\)$"),
    ([-1], r"^atom -1 is not in \[0, 8\)$"),
    ([8], r"^atom 8 is not in \[0, 8\)$"),
    ([1.5], r"^atom 1.5 is not an integer$"),
    ([True], r"^atom True is not an integer$"),
    (99, r"^count 99 is not in \[0, 8\]$"),
    (9, r"^count 9 is not in \[0, 8\]$"),
    (-1, r"^count -1 is not in \[0, 8\]$"),
    (np.int64(-3), r"^count -3 is not in \[0, 8\]$"),
    pytest.param(-(10**5000), r"^count at most -2\^16609 is not in \[0, 8\]$", id="huge-count"),
])
def test_measure_refuses_atoms_and_counts_outside_the_space(atoms, message):
    """Atom sets are refused as by `checked_atoms`; a count must lie in [0, n]."""
    sp = FiniteSpace.single_class(8)
    with pytest.raises(ValueError, match=message):
        sp.measure(atoms)


def test_space_equality_and_hash():
    a = FiniteSpace.single_class(4)
    b = FiniteSpace.single_class(4)
    c = FiniteSpace(4, [0] * 4, None)
    assert a == b and hash(a) == hash(b)
    assert a != c
    assert a != FiniteSpace.from_class_sizes([2, 2])


def test_element_validation():
    sp = FiniteSpace.single_class(4)
    with pytest.raises(ValueError):
        FullGroupElement.from_forward(sp, [0, 1, 2])
    with pytest.raises(ValueError):
        FullGroupElement.from_forward(sp, [0, 1, 2, 4])
    with pytest.raises(ValueError):
        FullGroupElement.from_forward(sp, [0, 0, 2, 3])
    two = FiniteSpace.from_class_sizes([2, 2])
    with pytest.raises(ValueError, match="leaves its class"):
        FullGroupElement.from_forward(two, [2, 1, 0, 3])


def test_identity_and_odometer():
    sp = FiniteSpace.single_class(4)
    e = FullGroupElement.identity(sp)
    odo = FullGroupElement.odometer(sp)
    assert [e(x) for x in range(4)] == [0, 1, 2, 3]
    assert [odo(x) for x in range(4)] == [1, 2, 3, 0]
    assert odo.inv()(0) == 3
    with pytest.raises(ValueError):
        FullGroupElement.odometer(FiniteSpace.from_class_sizes([2, 2]))


@pytest.mark.parametrize("atom", [-1, 16, np.int64(-1), np.int64(16)])
def test_element_refuses_atoms_outside_the_space(atom):
    odo = FullGroupElement.odometer(FiniteSpace.single_class(16))
    with pytest.raises(ValueError, match=rf"^atom {atom} is not in \[0, 16\)$"):
        odo(atom)


def test_element_maps_the_last_atom_and_numpy_integers():
    odo = FullGroupElement.odometer(FiniteSpace.single_class(16))
    assert odo(15) == 0
    assert odo(np.int64(15)) == 0 and type(odo(np.int32(3))) is int and odo(np.int32(3)) == 4


def test_composition_applies_right_factor_first():
    sp = FiniteSpace.single_class(3)
    a = FullGroupElement.from_forward(sp, [1, 0, 2])
    b = FullGroupElement.from_forward(sp, [0, 2, 1])
    assert (a * b)(1) == a(b(1)) == 2
    assert (b * a)(1) == b(a(1)) == 0


def test_powers():
    sp = FiniteSpace.single_class(6)
    odo = FullGroupElement.odometer(sp)
    assert (odo ** 0) == FullGroupElement.identity(sp)
    assert (odo ** 4)(1) == 5
    assert (odo ** -2)(1) == 5
    assert (odo ** 6) == FullGroupElement.identity(sp)


def test_support_and_cycles():
    sp = FiniteSpace.single_class(5)
    elt = FullGroupElement.from_forward(sp, [1, 0, 3, 4, 2])
    assert elt.support().tolist() == [0, 1, 2, 3, 4]
    assert elt.cycles() == [(0, 1), (2, 3, 4)]
    e = FullGroupElement.identity(sp)
    assert e.support().tolist() == []
    assert e.cycles() == [(0,), (1,), (2,), (3,), (4,)]


def test_cycle_structure_examples():
    sp = FiniteSpace.single_class(5)
    ident = cycle_structure(FullGroupElement.identity(sp))
    assert ident.lengths == (1, 1, 1, 1, 1)
    assert not ident.is_single_cycle
    assert ident.min_cycle_length == 1

    sp8 = FiniteSpace.single_class(8)
    odo = cycle_structure(FullGroupElement.odometer(sp8))
    assert odo.lengths == (8,)
    assert odo.is_single_cycle

    mixed = cycle_structure(FullGroupElement.from_forward(sp, [1, 0, 3, 4, 2]))
    assert mixed.lengths == (2, 3)
    assert mixed.min_cycle_length == 2


def test_conjugate_to_standard_cycle():
    sp = FiniteSpace.single_class(4)
    odo = FullGroupElement.odometer(sp)
    assert conjugate_to_standard_cycle(odo) == FullGroupElement.identity(sp)

    pi = FullGroupElement.from_forward(sp, [2, 3, 1, 0])
    c = conjugate_to_standard_cycle(pi)
    assert c.forward.tolist() == [0, 2, 1, 3]
    assert c * pi * c.inv() == odo

    with pytest.raises(ValueError):
        conjugate_to_standard_cycle(FullGroupElement.identity(sp))
    two = FiniteSpace.from_class_sizes([2, 2])
    with pytest.raises(ValueError):
        conjugate_to_standard_cycle(FullGroupElement.identity(two))


def test_full_group_closure_preserves_classes():
    sp = FiniteSpace.from_class_sizes([3, 5, 8])
    rng = derive_rng(0, STREAM_TEST, 0)
    for _ in range(20):
        a = random_full_group_element(sp, rng)
        b = random_full_group_element(sp, rng)
        for elt in (a * b, a.inv(), b * a.inv()):
            assert (sp.class_of[elt.forward] == sp.class_of).all()
            assert np.bincount(elt.forward, minlength=sp.n_atoms).min() == 1


def test_metric_axioms_on_random_triples():
    sp = FiniteSpace.from_class_sizes([4, 12])
    rng = derive_rng(1, STREAM_TEST, 1)
    for _ in range(50):
        a = random_full_group_element(sp, rng)
        b = random_full_group_element(sp, rng)
        c = random_full_group_element(sp, rng)
        dab = uniform_metric(a, b)
        assert 0 <= dab <= 1
        assert dab == uniform_metric(b, a)
        assert dab <= uniform_metric(a, c) + uniform_metric(c, b)
        assert (dab == 0) == (a == b)
        # bi-invariance of the uniform metric under composition
        assert uniform_metric(c * a, c * b) == dab
        assert uniform_metric(a * c, b * c) == dab


def test_metric_mismatched_spaces():
    a = FullGroupElement.identity(FiniteSpace.single_class(4))
    b = FullGroupElement.identity(FiniteSpace.single_class(8))
    with pytest.raises(ValueError):
        uniform_metric(a, b)


@settings(max_examples=40, deadline=None)
@given(st.permutations(list(range(8))), st.permutations(list(range(8))))
def test_inverse_and_product_identities(p, q):
    sp = FiniteSpace.single_class(8)
    a = FullGroupElement.from_forward(sp, p)
    b = FullGroupElement.from_forward(sp, q)
    e = FullGroupElement.identity(sp)
    assert a * a.inv() == e
    assert a.inv() * a == e
    assert (a * b).inv() == b.inv() * a.inv()
    assert a * e == a and e * a == a


def test_an_element_is_its_forward_table_until_its_inverse_is_read():
    assert [f.name for f in dataclasses.fields(FullGroupElement)] == ["space", "forward"]
    sp = FiniteSpace.from_class_sizes([3, 5])
    rng = derive_rng(5, STREAM_TEST, 5)
    doc = hom_to_doc(random_homomorphism(sp, 2, rng))
    elements = [
        random_full_group_element(sp, rng),
        FullGroupElement.from_forward(sp, [1, 2, 0, 7, 3, 4, 5, 6]),
        *hom_from_doc(doc, sp).gens,
        *hom_from_doc(doc).gens,
    ]
    for g in elements:
        assert "inverse" not in vars(g)
        inverse = g.inverse
        assert vars(g)["inverse"] is inverse and g.inverse is inverse
        assert np.array_equal(inverse[g.forward], np.arange(sp.n_atoms)) and not inverse.flags.writeable


@pytest.mark.parametrize("read", [False, True], ids=["unread", "read"])
def test_homs_pickle_with_and_without_their_tables(read):
    hom = lean_aperiodic_homomorphism(FiniteSpace.single_class(16), 3, derive_rng(6, STREAM_TEST, 6))
    if read:
        hom.tables
    back = pickle.loads(pickle.dumps(hom))
    assert back == hom and back.gens == hom.gens
    assert ("tables" in vars(back)) == read
    assert back.tables.keys() == hom.tables.keys()
    assert all(np.array_equal(back.tables[l], t) for l, t in hom.tables.items())
    assert all(np.array_equal(b.inverse, g.inverse) for b, g in zip(back.gens, hom.gens))


# -- oracle: one rng.permutation per class, in class-id order --------------------


def loop_random_full_group_element(space, rng):
    """Uniformly random class-preserving permutation."""
    forward = np.arange(space.n_atoms, dtype=np.int64)
    for atoms in space.classes():
        atoms = np.array(atoms, dtype=np.int64)
        forward[atoms] = atoms[rng.permutation(len(atoms))]
    return FullGroupElement.from_forward(space, forward)


@st.composite
def class_layouts(draw):
    """Runs of equal class sizes (singletons included), with class ids either
    consecutive along the atoms or scattered over them."""
    runs = draw(st.lists(st.tuples(st.integers(1, 5), st.integers(1, 4)), min_size=1, max_size=6))
    class_of = np.repeat(np.arange(sum(k for _, k in runs)), [s for s, k in runs for _ in range(k)])
    if draw(st.booleans()):
        class_of = class_of[draw(st.permutations(range(class_of.size)))]
    return FiniteSpace(class_of.size, class_of)


@settings(max_examples=100, deadline=None)
@given(class_layouts(), st.integers(0, 2**16))
def test_batched_draw_matches_the_per_class_loop(space, seed):
    classes = [tuple(np.flatnonzero(space.class_of == c).tolist()) for c in range(space.class_count)]
    assert space.classes() == tuple(classes)
    assert [tuple(row) for run in space.class_runs for row in run.tolist()] == classes
    for run in space.class_runs:
        assert len({len(c) for c in run.tolist()}) == 1
        assert not run.flags.writeable
    batched, looped = derive_rng(seed, STREAM_TEST, 9), derive_rng(seed, STREAM_TEST, 9)
    for _ in range(2):
        a = random_full_group_element(space, batched)
        b = loop_random_full_group_element(space, looped)
        assert np.array_equal(a.forward, b.forward)
        assert batched.integers(1 << 62) == looped.integers(1 << 62)


def test_class_runs_split_where_the_size_changes():
    space = FiniteSpace(12, np.repeat(np.arange(7), [2, 2, 1, 1, 1, 3, 2]), None)
    runs = [run.tolist() for run in space.class_runs]
    assert runs == [[[0, 1], [2, 3]], [[4], [5], [6]], [[7, 8, 9]], [[10, 11]]]

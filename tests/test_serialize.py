"""Exact text forms: fractions, JSON documents, CSV, and DOT."""

import json
from fractions import Fraction

import pytest

from irslab import (
    FiniteSpace,
    FullGroupElement,
    Homomorphism,
    derive_rng,
    dumps_canonical,
    empirical_irs,
    fraction_to_text,
    hom_from_doc,
    hom_to_doc,
    irs_to_csv,
    lean_aperiodic_homomorphism,
    parse_fraction,
    schreier_ball,
    schreier_ball_to_dot,
    space_from_doc,
    space_to_doc,
)
from irslab.rng import STREAM_TEST


def test_fraction_text_round_trip():
    assert fraction_to_text(Fraction(3, 7)) == "3/7"
    assert fraction_to_text(Fraction(0)) == "0/1"
    assert fraction_to_text(Fraction(-1, 2)) == "-1/2"
    assert parse_fraction("3/7") == Fraction(3, 7)
    assert parse_fraction("5") == Fraction(5)
    assert parse_fraction("-2/4") == Fraction(-1, 2)
    for bad in ("", "1/0", "a/b", "1.5", "1/-2"):
        with pytest.raises(ValueError):
            parse_fraction(bad)


def test_dumps_canonical_is_stable():
    a = dumps_canonical({"b": 1, "a": [2, 3]})
    b = dumps_canonical({"a": [2, 3], "b": 1})
    assert a == b
    assert a.endswith("\n")
    assert json.loads(a) == {"a": [2, 3], "b": 1}


def test_space_doc_round_trip():
    for space in (
        FiniteSpace.single_class(16),
        FiniteSpace.from_class_sizes([4, 12]),
        FiniteSpace.single_class(8, levels=None),
    ):
        doc = space_to_doc(space)
        assert space_from_doc(doc) == space
        assert space_from_doc(json.loads(dumps_canonical(doc))) == space


def test_space_doc_validation():
    doc = space_to_doc(FiniteSpace.single_class(4))
    bad = dict(doc)
    bad["classes"] = [[0, 1], [2]]
    with pytest.raises(ValueError):
        space_from_doc(bad)


@pytest.mark.parametrize("classes, message", [
    ([[0, 1], [2]], "classes must cover every atom"),
    ([[0, 1], [2, 4]], "classes must partition the atoms"),
    ([[0, -1], [2, 3]], "classes must partition the atoms"),
    ([[0, 1], [1, 2, 3]], "classes must partition the atoms"),
    ([[0, 0], [1, 2, 3]], "classes must partition the atoms"),
    ([[0, 1], [2, 2**70], [3]], "classes must partition the atoms"),
    ([[-2**70, 0, 1, 2, 3]], "classes must partition the atoms"),
    # an atom out of range is reported before the atoms left uncovered
    ([[0, 9]], "classes must partition the atoms"),
    ([[0, 0]], "classes must partition the atoms"),
])
def test_space_doc_class_errors(classes, message):
    doc = {"n_atoms": 4, "classes": classes, "filtration_log2_levels": None}
    with pytest.raises(ValueError, match=f"^{message}$"):
        space_from_doc(doc)


def test_space_doc_keeps_scattered_class_ids():
    space = FiniteSpace(6, [1, 0, 2, 1, 0, 2])
    doc = space_to_doc(space)
    assert doc["classes"] == [[1, 4], [0, 3], [2, 5]]
    assert space_from_doc(doc) == space


def test_hom_doc_round_trip():
    rng = derive_rng(40, STREAM_TEST, 40)
    space = FiniteSpace.from_class_sizes([8, 8])
    hom = lean_aperiodic_homomorphism(FiniteSpace.single_class(16), 2, rng)
    doc = hom_to_doc(hom)
    assert hom_from_doc(doc) == hom
    assert hom_from_doc(json.loads(dumps_canonical(doc))) == hom
    # a supplied space overrides the default single-class reconstruction
    ident = FullGroupElement.identity(space)
    hom2 = Homomorphism(space, (ident, ident))
    back = hom_from_doc(hom_to_doc(hom2), space)
    assert back == hom2


def test_hom_doc_validation():
    hom = lean_aperiodic_homomorphism(
        FiniteSpace.single_class(8), 2, derive_rng(41, STREAM_TEST, 41)
    )
    doc = hom_to_doc(hom)
    bad = dict(doc)
    bad["rank"] = 3
    with pytest.raises(ValueError):
        hom_from_doc(bad)
    short = dict(doc)
    short["gens"] = [g[:-1] for g in doc["gens"]]
    with pytest.raises(ValueError):
        hom_from_doc(short)
    wrong_space = FiniteSpace.single_class(4)
    with pytest.raises(ValueError):
        hom_from_doc(doc, wrong_space)


def test_irs_csv_shape():
    hom = lean_aperiodic_homomorphism(
        FiniteSpace.single_class(16), 2, derive_rng(42, STREAM_TEST, 42)
    )
    irs = empirical_irs(hom, 1)
    text = irs_to_csv(irs)
    lines = text.strip().split("\n")
    assert lines[0] == "trace,numerator,denominator"
    assert len(lines) == 1 + len(irs.weights)
    total = Fraction(0)
    for line in lines[1:]:
        trace_hex, num, den = line.split(",")
        bytes.fromhex(trace_hex)
        total += Fraction(int(num), int(den))
    assert total == 1


def test_schreier_ball_dot():
    hom = lean_aperiodic_homomorphism(
        FiniteSpace.single_class(8), 2, derive_rng(43, STREAM_TEST, 43)
    )
    text = schreier_ball_to_dot(schreier_ball(hom, 0, 1))
    assert text.startswith("digraph")
    assert "doublecircle" in text
    assert 'label="s1"' in text and 'label="s2"' in text
    assert "->" in text
    # only positive labels are drawn, one per generator per inside vertex
    assert 'label="s1^-1"' not in text

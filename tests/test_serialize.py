"""Exact text forms: fractions, JSON documents, CSV, and DOT."""

import json
import re
from fractions import Fraction
from itertools import chain

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
import irslab.cli
import irslab.serialize
from irslab.rng import STREAM_TEST
from irslab.serialize import Encoded, _require


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


def test_fractions_are_read_exactly_within_64_bits():
    top = 2 ** 64 - 1  # 20 digits, each one kept
    assert parse_fraction(f"{top}/{top - 1}") == Fraction(top, top - 1)
    assert parse_fraction(f"-{top}") == -top
    assert parse_fraction(" -0009/0003 ") == -3
    for text, message in ((f"{top + 1}/3", "numerator at least 2^64"), (f"1/{top + 1}", "denominator at least 2^64"),
                          (f"-{top + 1}/3", "numerator at most -2^64")):
        with pytest.raises(ValueError, match=f"^fraction {re.escape(message)} does not fit 64 bits$"):
            parse_fraction(text)


def test_dumps_canonical_is_stable():
    a = dumps_canonical({"b": 1, "a": [2, 3]})
    b = dumps_canonical({"a": [2, 3], "b": 1})
    assert a == b
    assert a.endswith("\n")
    assert json.loads(a) == {"a": [2, 3], "b": 1}


def oracle_dumps(doc) -> str:
    """The canonical text as json's own indenting encoder writes it."""
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


_tricky = st.sampled_from([", ", "], [", '"', "{", "}", "[", "]", "a,\n  b", "\u00e9\u4e2d", "\x00"])
_scalars = (st.none() | st.booleans() | st.integers() | st.integers(-2**80, 2**80) | st.floats()
            | st.text(max_size=4) | _tricky)
_numbers = st.integers(-2**70, 2**70) | st.booleans() | st.floats(allow_nan=False)
_values = st.recursive(
    _scalars | st.lists(st.lists(_numbers, max_size=4), max_size=4),
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(st.text(max_size=3) | _tricky, inner, max_size=4)
                   | st.dictionaries(st.integers(-2**70, 2**70), inner, max_size=4)
                   | st.dictionaries(st.floats(allow_nan=False), inner, max_size=3)),
    max_leaves=24,
)


@settings(max_examples=300, deadline=None)
@given(_values)
@example([])
@example({})
@example([[], [1]])
@example([[1], "a"])
@example([[1], [[2]]])
@example({10: [1], 9: {"b": [], "a": ()}, -1: [[1, 2], [], [-3]]})
@example([(1, 2), (), [True, None, 1.5, -2**65]])
@example([list(range(4095)), [1]])
@example([list(range(4096)), (), [-1, 2]])
@example({"gens": [list(range(4096)), [[2]], ["a"]]})
def test_dumps_canonical_matches_the_json_oracle(value):
    assert dumps_canonical(value) == oracle_dumps(value)


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(st.text(max_size=3) | _tricky, _values, max_size=4), _values)
@example({"gens": [[1, 0], [0, 1]], "n_atoms": 2, "rank": 2}, [])
@example({"a,\n  b": ["x\ny", {"": [[]]}]}, {})
def test_an_encoded_document_embeds_as_the_json_oracle(doc, other):
    encoded = Encoded(doc, dumps_canonical(doc))
    report = {"outputs": {"hom": encoded, "other": other}, "all": [encoded, [encoded]]}
    assert dumps_canonical(encoded) == oracle_dumps(doc)
    assert dumps_canonical(report) == oracle_dumps(report)


def test_an_encoded_document_is_written_from_its_text():
    assert dumps_canonical([Encoded({"a": 1}, '{\n  "b": 2\n}\n')]) == '[\n  {\n    "b": 2\n  }\n]\n'


def test_gen_and_construct_encode_their_hom_once(tmp_path, monkeypatch):
    """The report embeds the --out document's text; the rows meet json's C encoder once."""
    tables = []
    real = irslab.serialize._encoder

    def counted(separator=", "):
        encode = real(separator)

        def wrapped(value):
            if isinstance(value, list) and value and isinstance(value[0], list) and len(value[0]) == 16:
                tables.append(value)
            return encode(value)

        return wrapped

    monkeypatch.setattr(irslab.serialize, "_encoder", counted)
    monkeypatch.chdir(tmp_path)
    assert irslab.cli.main(["--report", "r.json", "gen", "hom", "--rank", "2", "--seed", "1",
                            "--log2", "4", "--out", "h.json"]) == 0
    assert irslab.cli.main(["--report", "c.json", "construct", "corefree", "--hom", "h.json",
                            "--word", "s2", "--epsilon", "1/2", "--out", "c.json.hom"]) == 0
    assert len(tables) == 2
    for report, out in (("r.json", "h.json"), ("c.json", "c.json.hom")):
        text = (tmp_path / report).read_text()
        assert text == oracle_dumps(json.loads(text))
        assert json.loads(text)["outputs"]["hom"] == json.loads((tmp_path / out).read_text())


def test_every_cli_document_matches_the_json_oracle(tmp_path, monkeypatch):
    """Each document and report the CLI writes, compared with the oracle on the
    very object it encoded."""
    seen = []

    def checked(doc):
        text = dumps_canonical(doc)
        assert text == oracle_dumps(doc)
        seen.append(json.loads(text).get("command"))
        return text

    monkeypatch.setattr(irslab.cli, "dumps_canonical", checked)
    monkeypatch.chdir(tmp_path)
    runs = [
        ["gen", "space", "--classes", "2,2,4", "--out", "space.json"],
        ["gen", "hom", "--model", "random", "--rank", "2", "--seed", "3", "--space", "space.json",
         "--out", "h.json"],
        ["gen", "hom", "--rank", "2", "--seed", "1", "--log2", "4", "--out", "lean.json"],
        ["construct", "splice", "--hom", "h.json", "--atoms", "0,1", "--out", "c.json"],
        ["construct", "periodic", "--hom", "lean.json", "--level", "2", "--out", "c.json"],
        ["construct", "folner", "--hom", "lean.json", "--epsilon", "3/4", "--sizes", "2",
         "--out", "c.json"],
        ["construct", "ht", "--hom", "lean.json", "--m", "2", "--tau", "1 0", "--epsilon", "1/2",
         "--out", "c.json"],
        ["construct", "corefree", "--hom", "lean.json", "--word", "s2", "--epsilon", "1/2",
         "--out", "c.json"],
        ["export", "--hom", "h.json", "--space", "space.json", "--format", "json", "--out", "e.json"],
    ]
    for argv in runs:
        assert irslab.cli.main(["--report", "report.json", *argv]) == 0, argv
    # one report per run; one document per gen or construct run, two from export's round trip
    assert len(seen) - seen.count(None) == len(runs)
    assert seen.count(None) == len(runs) + 1


def test_space_doc_round_trip():
    for space in (
        FiniteSpace.single_class(16),
        FiniteSpace.from_class_sizes([4, 12]),
        FiniteSpace(8, [0] * 8, None),
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


# -- oracles: the loaders as they were before they checked list lengths first --


def oracle_space_from_doc(doc: dict) -> FiniteSpace:
    _require(doc, "space", ints=("n_atoms",), int_lists=("classes",))
    n, classes = doc["n_atoms"], doc["classes"]
    flat = list(chain.from_iterable(classes))
    # bounds on Python ints first, so an atom beyond int64 is out of range, not an overflow
    if flat and not 0 <= min(flat) <= max(flat) < n:
        raise ValueError("classes must partition the atoms")
    atoms = np.array(flat, dtype=np.int64)
    hits = np.bincount(atoms, minlength=n)
    if (hits > 1).any():
        raise ValueError("classes must partition the atoms")
    if (hits == 0).any():
        raise ValueError("classes must cover every atom")
    class_of = np.empty(n, dtype=np.int64)
    class_of[atoms] = np.repeat(np.arange(len(classes)), [len(c) for c in classes])
    levels = doc.get("filtration_log2_levels")
    if levels is not None and type(levels) is not int:
        raise ValueError("space document key 'filtration_log2_levels' must be an integer")
    return FiniteSpace(n, class_of, levels)


def oracle_hom_from_doc(doc: dict, space: FiniteSpace | None = None) -> Homomorphism:
    _require(doc, "hom", ints=("n_atoms", "rank"), int_lists=("gens",))
    n = doc["n_atoms"]
    if space is None:
        space = FiniteSpace.single_class(n)
    elif space.n_atoms != n:
        raise ValueError("space size does not match the document")
    gens = doc["gens"]
    if len(gens) != doc["rank"]:
        raise ValueError("rank does not match the generator count")
    return Homomorphism(space, tuple(FullGroupElement.from_forward(space, g) for g in gens))


def _outcome(load, *args):
    """What a loader returns, or the message of the ValueError it raises."""
    try:
        return load(*args)
    except ValueError as exc:
        return str(exc)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 8), st.lists(st.lists(st.integers(-1, 8), max_size=5), max_size=5),
       st.sampled_from([None, 0, 1, "1"]), st.data())
def test_space_loader_matches_the_bincount_oracle(n, classes, levels, data):
    if data.draw(st.booleans()):  # a valid partition, shuffled into classes
        atoms = data.draw(st.permutations(range(n)))
        cuts = sorted(data.draw(st.sets(st.integers(1, n - 1), max_size=3))) if n > 1 else []
        classes = [list(atoms[a:b]) for a, b in zip([0, *cuts], [*cuts, n])]
    doc = {"n_atoms": n, "classes": classes, "filtration_log2_levels": levels}
    assert _outcome(space_from_doc, doc) == _outcome(oracle_space_from_doc, doc)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 6), st.integers(0, 3), st.data())
def test_hom_loader_matches_the_oracle(n, rank, data):
    gens = []
    for _ in range(data.draw(st.integers(0, 3))):
        if data.draw(st.booleans()):
            gens.append(list(data.draw(st.permutations(range(n)))))
        else:
            gens.append(data.draw(st.lists(st.integers(-1, n), max_size=n + 1)))
    doc = {"n_atoms": data.draw(st.sampled_from([n, n + 1])), "rank": rank, "gens": gens}
    space = data.draw(st.sampled_from([None, FiniteSpace.single_class(n),
                                       FiniteSpace.from_class_sizes([1] * n)]))
    got, want = _outcome(hom_from_doc, doc, space), _outcome(oracle_hom_from_doc, doc, space)
    if got != want:
        # table lengths are checked before any table's content: a document with
        # a short table and a bad one may now name the short one
        assert got == "forward table must list one image per atom" and isinstance(want, str)
        assert any(len(g) != doc["n_atoms"] for g in gens)

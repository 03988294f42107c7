"""Canonical JSON, CSV, and DOT forms for spaces, actions, and reports.

All serialization is deterministic: sorted keys, two-space indent, one
trailing newline, rationals as "p/q" text.  Import of an exported
document re-exports byte-identically.  `dumps_canonical` writes exactly
the bytes of `json.dumps(doc, sort_keys=True, indent=2)` plus a newline;
it walks dicts and lists itself and hands each list of scalars, and each
list of short scalar lists, to json's C encoder in one call.  A document
already written is embedded in another as `Encoded`, so it is encoded once.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from itertools import chain

import numpy as np

from .actions import EmpiricalIRS, Homomorphism, SchreierBall
from .fullgroup import FullGroupElement
from .space import FiniteSpace
from .words import _quote, read_int

_FRACTION_RE = re.compile(r"^(-?[0-9]+)(?:/([0-9]+))?$")


def fraction_to_text(value: Fraction) -> str:
    value = Fraction(value)
    return f"{value.numerator}/{value.denominator}"


def parse_fraction(text: str) -> Fraction:
    match = _FRACTION_RE.match(text.strip())
    if not match:
        raise ValueError(f"expected a rational like '2/3', got {_quote(text)}")
    numerator = read_int(match.group(1), "fraction numerator")
    denominator = read_int(match.group(2) or "1", "fraction denominator")
    if denominator == 0:
        raise ValueError(f"zero denominator in {_quote(text)}")
    return Fraction(numerator, denominator)


def _require(doc, what: str, ints=(), int_lists=()) -> None:
    """Reject a non-object document, a missing key or a value of the wrong type.

    `ints` keys hold integers (not booleans), `int_lists` keys lists of integer lists.
    """
    if not isinstance(doc, dict):
        raise ValueError(f"{what} document must be a JSON object")
    for key in (*ints, *int_lists):
        if key not in doc:
            raise ValueError(f"{what} document is missing key {key!r}")
    for key in ints:
        if type(doc[key]) is not int:
            raise ValueError(f"{what} document key {key!r} must be an integer")
    for key in int_lists:
        rows = doc[key]
        if not isinstance(rows, list) or any(
            not isinstance(row, list) or not set(map(type, row)) <= {int} for row in rows
        ):
            raise ValueError(f"{what} document key {key!r} must be a list of integer lists")


def _encoder(separator: str = ", "):
    """json's C encoder, writing one line with the given item separator."""
    return json.JSONEncoder(sort_keys=True, separators=(separator, ": ")).encode


_encode_scalar = _encoder()


class Encoded(dict):
    """A document with its `dumps_canonical` text, which `dumps_canonical`
    embeds wherever the document appears instead of encoding it again."""

    def __init__(self, doc: dict, text: str):
        super().__init__(doc)
        self.text = text


def dumps_canonical(doc) -> str:
    """The bytes of `json.dumps(doc, sort_keys=True, indent=2)` plus a newline."""
    parts: list[str] = []
    _indented(doc, "\n", parts)
    parts.append("\n")
    return "".join(parts)


def _indented(value, newline: str, parts: list[str]) -> None:
    """Append value's indented text to parts; newline is a line break plus value's indent.

    Dicts and lists are walked here.  A list of scalars, or of scalar lists whose
    first has under 4096 items, is written by the C encoder in one call, its items
    already separated by a line break and their indent, once its text shows no
    string (`"`), no dict (`{`) and one `[` per list; longer rows take one call
    each, as the encoder holds a string per item until it joins them.  `Encoded`
    text is re-indented as it is: json escapes every line break inside a string.
    """
    inner = newline + "  "
    if isinstance(value, Encoded):
        parts.append(value.text[:-1].replace("\n", newline))
    elif isinstance(value, dict):
        if not value:
            parts.append("{}")
            return
        opener = "{"
        for key, item in sorted(value.items()):  # json sorts the items, then converts the keys
            parts += (opener, inner, _encode_scalar(_key_text(key)), ": ")
            _indented(item, inner, parts)
            opener = ","
        parts += (newline, "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            parts.append("[]")
            return
        if not isinstance(value[0], (list, tuple)):
            text = _encoder("," + inner)(value)
            if '"' not in text and "{" not in text and text.find("[", 1) < 0:
                parts += ("[", inner, text[1:-1], newline, "]")
                return
        elif len(value[0]) < 4096 and all(isinstance(row, (list, tuple)) for row in value):
            deep = inner + "  "
            text = _encoder("," + deep)(value)
            # the rows are flat exactly when the text holds one "]" per row
            pieces = [] if '"' in text or "{" in text else text[1:-1].split("]")
            if len(pieces) == len(value) + 1:
                # the first row opens with "[", each later one with "," deep "["
                rows = [pieces[0][1:], *(piece[len(deep) + 2:] for piece in pieces[1:-1])]
                opener = "["
                for row in rows:
                    parts += (opener, inner)
                    parts += ("[", deep, row, inner, "]") if row else ("[]",)
                    opener = ","
                parts += (newline, "]")
                return
        opener = "["
        for item in value:
            parts += (opener, inner)
            _indented(item, inner, parts)
            opener = ","
        parts += (newline, "]")
    else:
        parts.append(_encode_scalar(value))


def _key_text(key) -> str:
    """A dict key as json writes it: a string as it is, a number, bool or None in its JSON form."""
    if isinstance(key, str):
        return key
    if key is None or isinstance(key, (int, float)):
        return _encode_scalar(key)
    raise TypeError(f"keys must be str, int, float, bool or None, not {key.__class__.__name__}")


# -- spaces -----------------------------------------------------------------


def space_to_doc(space: FiniteSpace) -> dict:
    return {
        "n_atoms": space.n_atoms,
        "classes": [list(cls) for cls in space.classes()],
        "filtration_log2_levels": space.filtration_levels,
    }


def space_from_doc(doc: dict) -> FiniteSpace:
    _require(doc, "space", ints=("n_atoms",), int_lists=("classes",))
    n, classes = doc["n_atoms"], doc["classes"]
    flat = list(chain.from_iterable(classes))
    # bounds on Python ints first, so an atom beyond int64 is out of range, not an overflow
    if flat and not 0 <= min(flat) <= max(flat) < n:
        raise ValueError("classes must partition the atoms")
    atoms = np.array(flat, dtype=np.int64)
    ordered = np.sort(atoms)
    if (ordered[1:] == ordered[:-1]).any():
        raise ValueError("classes must partition the atoms")
    # distinct atoms in [0, n) cover every atom exactly when there are n of them
    if atoms.size != n:
        raise ValueError("classes must cover every atom")
    class_of = np.empty(n, dtype=np.int64)
    class_of[atoms] = np.repeat(np.arange(len(classes)), [len(c) for c in classes])
    levels = doc.get("filtration_log2_levels")
    if levels is not None and type(levels) is not int:
        raise ValueError("space document key 'filtration_log2_levels' must be an integer")
    return FiniteSpace(n, class_of, levels)


# -- homomorphisms ----------------------------------------------------------


def hom_to_doc(hom: Homomorphism) -> dict:
    return {
        "n_atoms": hom.space.n_atoms,
        "rank": hom.rank,
        "gens": [g.forward.tolist() for g in hom.gens],
    }


def hom_from_doc(doc: dict, space: FiniteSpace | None = None) -> Homomorphism:
    """Rebuild an action; the document does not carry the relation.

    Without an explicit space a single-class space with the largest
    dyadic filtration is assumed, which accepts any permutation tables.
    """
    _require(doc, "hom", ints=("n_atoms", "rank"), int_lists=("gens",))
    n, gens = doc["n_atoms"], doc["gens"]
    if space is not None and space.n_atoms != n:
        raise ValueError("space size does not match the document")
    if len(gens) != doc["rank"]:
        raise ValueError("rank does not match the generator count")
    # the listed tables bound n_atoms before a space of that size is built
    if not gens:
        raise ValueError("need at least one generator image")
    if any(len(g) != n for g in gens):
        raise ValueError("forward table must list one image per atom")
    if space is None:
        space = FiniteSpace.single_class(n)
    return Homomorphism(space, tuple(FullGroupElement.from_forward(space, g) for g in gens))


# -- distributions and graphs -----------------------------------------------


def irs_to_csv(irs: EmpiricalIRS) -> str:
    """One line per trace row: its hex and its weight counts[i]/n_atoms in lowest terms."""
    text, width = irs.rows.tobytes().hex(), 2 * irs.rows.shape[1]
    common = np.gcd(irs.counts, irs.n_atoms)
    lines = ["trace,numerator,denominator"]
    for start, p, q in zip(range(0, len(text), width), (irs.counts // common).tolist(),
                           (irs.n_atoms // common).tolist()):
        lines.append(f"{text[start:start + width]},{p},{q}")
    return "\n".join(lines) + "\n"


def schreier_ball_to_dot(ball: SchreierBall) -> str:
    """DOT text; only positively labeled edges, direction encodes inverses."""
    positive = [(v, l, t) for v, l, t in ball.edges if l > 0]
    inside = set(ball.vertices)
    nodes = sorted(inside | {v for v, _, t in positive} | {t for _, _, t in positive})
    lines = ["digraph schreier_ball {"]
    for v in nodes:
        attrs = [f'label="{v}"']
        if v == ball.root:
            attrs.append("shape=doublecircle")
        elif v not in inside:
            attrs.append("style=dashed")
        lines.append(f'  a{v} [{", ".join(attrs)}];')
    for v, letter, t in positive:
        lines.append(f'  a{v} -> a{t} [label="s{letter}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"

"""Reduced words in a finitely generated free group.

A letter is a nonzero signed integer: k is the k-th generator, -k its
inverse.  Words are kept freely reduced.  The text form writes letters
as s1, s2^-1, and so on, separated by spaces.  `read_int` reads every
integer in the lab's text input.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from . import space


@dataclass(frozen=True)
class ReducedWord:
    """A freely reduced word; the empty tuple is the identity."""

    rank: int
    letters: tuple[int, ...]

    def __post_init__(self):
        if self.rank < 1:
            raise ValueError("rank must be at least 1")
        for letter in self.letters:
            if letter == 0 or abs(letter) > self.rank:
                raise ValueError(f"letter {letter} out of range for rank {self.rank}")
        for a, b in zip(self.letters, self.letters[1:]):
            if a == -b:
                raise ValueError("word is not reduced")

    def __len__(self):
        return len(self.letters)

    def __mul__(self, other: "ReducedWord") -> "ReducedWord":
        if self.rank != other.rank:
            raise ValueError("words have different ranks")
        return reduce_letters(self.rank, self.letters + other.letters)

    def inverse(self) -> "ReducedWord":
        return ReducedWord(self.rank, tuple(-l for l in reversed(self.letters)))

    def is_cyclically_reduced(self) -> bool:
        return len(self.letters) < 2 or self.letters[0] != -self.letters[-1]

    def __str__(self):
        return format_word(self)


def reduce_letters(rank: int, letters) -> ReducedWord:
    """Freely reduce a letter sequence."""
    stack: list[int] = []
    for letter in letters:
        if stack and stack[-1] == -letter:
            stack.pop()
        else:
            stack.append(letter)
    return ReducedWord(rank, tuple(stack))


def cyclic_reduce(word: ReducedWord) -> tuple[ReducedWord, ReducedWord]:
    """Split word as conjugator * core * conjugator^-1 with core cyclically reduced."""
    letters = list(word.letters)
    stripped = 0
    while len(letters) >= 2 and letters[0] == -letters[-1]:
        letters = letters[1:-1]
        stripped += 1
    conjugator = ReducedWord(word.rank, word.letters[:stripped])
    core = ReducedWord(word.rank, tuple(letters))
    return conjugator, core


class FreeBall:
    """All reduced words of length at most radius, in length-lex order.

    The ball is two arrays, each word's first letter and the index of
    the word with that letter removed, so images of every ball word at
    an atom fill in one linear pass; words are built on first use.
    """

    def __init__(self, rank: int, radius: int):
        if rank < 1 or radius < 0:
            raise ValueError("need rank >= 1 and radius >= 0")
        self.rank = rank
        self.radius = radius
        letter_order = np.array([l for i in range(1, rank + 1) for l in (i, -i)])
        first_letter, parent = np.zeros(1, dtype=np.int64), np.zeros(1, dtype=np.int64)
        layer = parent
        for _ in range(radius):
            kept = [layer[first_letter[layer] != -letter] for letter in letter_order]
            layer = np.arange(parent.size, parent.size + sum(k.size for k in kept))
            parent = np.concatenate([parent, *kept])
            first_letter = np.concatenate([first_letter, letter_order.repeat([k.size for k in kept])])
        self.first_letter, self.parent = first_letter, parent

    def __len__(self):
        return self.parent.size

    @cached_property
    def _index(self) -> dict[tuple[int, ...], int]:
        letters = [()]
        for first, rest in zip(self.first_letter[1:].tolist(), self.parent[1:].tolist()):
            letters.append((first,) + letters[rest])
        return {w: i for i, w in enumerate(letters)}

    @cached_property
    def words(self) -> tuple[ReducedWord, ...]:
        return tuple(ReducedWord(self.rank, w) for w in self._index)  # keys in ball order

    def word_index(self, word: ReducedWord) -> int:
        return self._index[word.letters]


class TraceBudgetError(ValueError):
    """A ball's two arrays, or trace rows or ball codes one row per atom,
    would exceed `space._BYTE_BUDGET` bytes."""


def _check_radius(radius: int) -> None:
    """The one refusal of a negative radius, for every kernel that takes one."""
    if radius < 0:
        raise ValueError("radius must be nonnegative")


def ball(rank: int, radius: int) -> FreeBall:
    """Cached ball of reduced words of length <= radius.

    A negative radius is refused first.  The ball's two int64 arrays are
    checked against the byte budget on every call, before the cache is
    read, so a lowered budget refuses a cached ball.
    """
    _check_radius(radius)
    size, shift = _ball_size_bound(rank, radius)
    space._check_budget(16 * size, TraceBudgetError, "ball of rank {rank} and radius {radius} needs {need} "
                        "bytes", shift, rank=rank, radius=radius)
    return _cached_ball(rank, radius)


_cached_ball = lru_cache(maxsize=32)(FreeBall)
ball.cache_clear = _cached_ball.cache_clear


def ball_size(rank: int, radius: int) -> int:
    """Closed-form count 1 + sum over k <= R of 2r(2r-1)^(k-1): 1 + 2R for r = 1,
    else 1 + 2r((2r-1)^R - 1)/(2r-2).  The sum is empty below radius 0."""
    radius = max(radius, 0)
    if rank == 1:
        return 1 + 2 * radius
    return 1 + rank * ((2 * rank - 1) ** radius - 1) // (rank - 1)


_EXACT_BITS = 1 << 20  # up to here (2r-1)^R has under 2^21 bits: about 0.15 s to build in CPython 3.11


def _ball_size_bound(rank: int, radius: int) -> tuple[int, int]:
    """(size, 0) with size = `ball_size` while R floor(log2(2r-1)) is at most `_EXACT_BITS`,
    else (1, that exponent): |B(R)| >= (2r-1)^R, so 2^exponent bounds it from below."""
    shift = radius * ((2 * rank - 1).bit_length() - 1)
    return (ball_size(rank, radius), 0) if shift <= _EXACT_BITS else (1, shift)


# integer tokens take ASCII digits alone: `\d` and `int` also take other Unicode digits
_INT_RE = re.compile(r"-?[0-9]+")
_TOKEN_RE = re.compile(r"^s([0-9]+)(?:\^(-?[0-9]+))?$")


def _quote(text: str) -> str:
    """text's repr, cut to its first 40 characters, so a refusal that quotes
    its input stays one short line."""
    return repr(text[:40]) + ("..." if len(text) > 40 else "")


def read_int(token: str, what: str) -> int:
    """The one reader of integer text: an optional minus sign and ASCII digits,
    at most 64 bits.  A longer token is read as its 20 leading digits times the
    power of ten of the rest, a lower bound past 2^64 that the refusal shows as
    `space._count` does, so no conversion meets Python's int-to-str limit."""
    if not _INT_RE.fullmatch(token):
        raise ValueError(f"bad integer token {_quote(token)}")
    sign = -1 if token.startswith("-") else 1
    digits = token.lstrip("-").lstrip("0") or "0"
    value = sign * int(digits[:20]) * 10 ** max(len(digits) - 20, 0)
    if value.bit_length() > 64:
        raise ValueError(f"{what} {space._count(value)} does not fit 64 bits")
    return value


def parse_word(text: str, rank: int) -> ReducedWord:
    """Parse the text form, e.g. 's1 s2^-1 s1'; empty text is the identity."""
    letters: list[int] = []
    for token in text.split():
        match = _TOKEN_RE.match(token)
        if not match:
            raise ValueError(f"bad letter token {_quote(token)}")
        index = read_int(match.group(1), "generator index")
        power = read_int(match.group(2), "power") if match.group(2) else 1
        if index < 1 or index > rank:
            raise ValueError(f"generator index {index} out of range for rank {rank}")
        sign = 1 if power > 0 else -1
        total = len(letters) + abs(power)
        space._check_budget(8 * total, ValueError, "word of {letters} letters needs {need} bytes",
                            letters=space._count(total))
        letters.extend([sign * index] * abs(power))
    return reduce_letters(rank, letters)


def format_word(word: ReducedWord) -> str:
    """Inverse of parse_word, one token per letter."""
    return " ".join(f"s{l}" if l > 0 else f"s{-l}^-1" for l in word.letters)

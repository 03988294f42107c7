"""Reduced words, cyclic reduction, balls, and the text form."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irslab import (
    ReducedWord,
    ball,
    ball_size,
    cyclic_reduce,
    derive_rng,
    format_word,
    parse_word,
    random_reduced_word,
    reduce_letters,
)
from irslab import FiniteSpace, TraceBudgetError, ball_codes, random_homomorphism, trace_code_matrix
from irslab.rng import STREAM_TEST
from irslab import words
from irslab.words import FreeBall, _ball_size_bound

letters_lists = st.lists(st.sampled_from([1, -1, 2, -2]), max_size=12)


def w(text, rank=2):
    return parse_word(text, rank)


def test_word_validation():
    with pytest.raises(ValueError):
        ReducedWord(0, ())
    with pytest.raises(ValueError):
        ReducedWord(1, (0,))
    with pytest.raises(ValueError):
        ReducedWord(1, (2,))
    with pytest.raises(ValueError):
        ReducedWord(2, (1, -1))


def test_reduce_letters():
    assert reduce_letters(2, [1, -1]).letters == ()
    assert reduce_letters(2, [1, 2, -2, 1]).letters == (1, 1)
    assert reduce_letters(2, [1, 2, -2, -1]).letters == ()
    assert reduce_letters(2, [-2, -2, 2, 1]).letters == (-2, 1)


def test_multiplication_reduces_across_the_seam():
    assert (w("s1 s2") * w("s2^-1 s1")).letters == (1, 1)
    assert (w("s1") * w("s1^-1")).letters == ()
    with pytest.raises(ValueError):
        w("s1", rank=1) * w("s1", rank=2)


def test_inverse():
    word = w("s1 s2^-1")
    assert word.inverse() == w("s2 s1^-1")
    assert (word * word.inverse()).letters == ()
    assert (word.inverse() * word).letters == ()


def test_cyclically_reduced_flag():
    assert w("").is_cyclically_reduced()
    assert w("s1").is_cyclically_reduced()
    assert w("s1 s2").is_cyclically_reduced()
    assert w("s1 s2 s1").is_cyclically_reduced()
    assert not w("s1 s2 s1^-1").is_cyclically_reduced()


def test_cyclic_reduce():
    conj, core = cyclic_reduce(w("s2^-1 s1 s2 s2"))
    assert conj == w("s2^-1")
    assert core == w("s1 s2")
    assert conj * core * conj.inverse() == w("s2^-1 s1 s2 s2")

    conj, core = cyclic_reduce(w("s1 s2"))
    assert len(conj) == 0 and core == w("s1 s2")

    conj, core = cyclic_reduce(w("s1^-1 s2 s1"))
    assert conj == w("s1^-1") and core == w("s2")


def test_ball_sizes():
    assert len(ball(2, 0)) == 1
    assert len(ball(2, 1)) == 5
    assert len(ball(2, 2)) == 17
    assert len(ball(2, 3)) == 53
    assert len(ball(3, 1)) == 7
    for rank in (1, 2, 3):
        for radius in range(5):
            assert len(ball(rank, radius)) == ball_size(rank, radius)


def test_ball_size_closed_form_matches_the_sum():
    for rank in range(1, 6):
        for radius in range(-2, 30):
            assert ball_size(rank, radius) == 1 + sum(
                2 * rank * (2 * rank - 1) ** (k - 1) for k in range(1, radius + 1))


def test_huge_balls_are_refused_without_formatting_their_size():
    # 16 |B(100000)| has 47714 digits, past the int-to-str limit of 4300
    with pytest.raises(TraceBudgetError, match=r"^ball of rank 2 and radius 100000 needs at least "
                       r"2\^158501 bytes, over the budget of 268435456$"):
        ball(2, 100000)


def test_ball_sizes_past_the_exact_bits_are_bounded_from_below():
    for rank in (1, 2, 3, 5):
        for radius in (-1, 0, 1, 7, 100000):
            assert _ball_size_bound(rank, radius) == (ball_size(rank, radius), 0)
    assert _ball_size_bound(1, 2 ** 64 - 1) == (2 ** 65 - 1, 0)
    # 3^R > 2^R: just past the exact bits the bound is below the exact size
    radius = words._EXACT_BITS + 1
    assert _ball_size_bound(2, radius) == (1, radius) and 2 ** radius <= ball_size(2, radius)
    assert _ball_size_bound(3, 2 ** 64 - 1) == (1, 2 * (2 ** 64 - 1))  # 5^R >= 4^R


def test_balls_past_the_exact_bits_are_refused_from_the_exponent():
    top = 2 ** 64 - 1
    with pytest.raises(TraceBudgetError, match=rf"^ball of rank 2 and radius {top} needs at least "
                       rf"2\^{top + 4} bytes, over the budget of 268435456$"):
        ball(2, top)
    # no atom needs a code row, so the ball of radius R+1 is refused
    hom = random_homomorphism(FiniteSpace.single_class(4), 2, derive_rng(2, STREAM_TEST, 2))
    with pytest.raises(TraceBudgetError, match=rf"^ball of rank 2 and radius {top + 1} needs at least "
                       rf"2\^{top + 5} bytes, over the budget of 268435456$"):
        ball_codes(hom, top, [])


def test_ball_is_length_lex_ordered():
    words = [format_word(u) for u in ball(2, 2).words]
    assert words[:9] == [
        "",
        "s1",
        "s1^-1",
        "s2",
        "s2^-1",
        "s1 s1",
        "s1 s2",
        "s1 s2^-1",
        "s1^-1 s1^-1",
    ]
    lengths = [len(u) for u in ball(2, 2).words]
    assert lengths == sorted(lengths)


def test_ball_parent_structure():
    b = ball(2, 3)
    for idx in range(1, len(b)):
        word = b.words[idx]
        parent = b.words[int(b.parent[idx])]
        assert word.letters == (int(b.first_letter[idx]),) + parent.letters
        assert b.word_index(word) == idx


def test_ball_has_no_duplicates():
    b = ball(3, 3)
    assert len({u.letters for u in b.words}) == len(b)


def test_ball_validation():
    with pytest.raises(ValueError):
        ball(0, 2)
    with pytest.raises(ValueError):
        ball(2, -1)


def test_parse_word():
    assert w("s1 s2^-1").letters == (1, -2)
    assert w("s1^3").letters == (1, 1, 1)
    assert w("s2^-2").letters == (-2, -2)
    assert w("s1^2 s1^-1").letters == (1,)
    assert w("").letters == ()
    with pytest.raises(ValueError):
        w("t1")
    with pytest.raises(ValueError):
        w("s0")
    with pytest.raises(ValueError):
        w("s3")
    with pytest.raises(ValueError):
        w("s1^")


def test_word_powers_are_bounded_before_they_are_expanded(small_budget):
    assert len(w("s1^256 s2^256")) == 512  # 4096 bytes of letters
    for text, letters in (("s2^99999999", 99999999), ("s1^256 s2^-257", 513)):
        with pytest.raises(ValueError, match=f"^word of {letters} letters needs {8 * letters} "
                           f"bytes, over the budget of {small_budget}$"):
            w(text)
    with pytest.raises(ValueError, match="^power at least 2\\^13287 does not fit 64 bits$"):
        w("s1^" + "9" * 4000)


def test_format_round_trip_on_random_words():
    rng = derive_rng(2, STREAM_TEST, 2)
    for _ in range(50):
        word = random_reduced_word(3, int(rng.integers(0, 12)), rng)
        assert parse_word(format_word(word), 3) == word


@given(letters_lists)
def test_reduction_is_idempotent(letters):
    once = reduce_letters(2, letters)
    assert reduce_letters(2, once.letters) == once


@given(letters_lists, letters_lists)
def test_product_length_parity_and_bound(xs, ys):
    a = reduce_letters(2, xs)
    b = reduce_letters(2, ys)
    prod = a * b
    assert len(prod) <= len(a) + len(b)
    assert (len(prod) - len(a) - len(b)) % 2 == 0
    assert (a * b).inverse() == b.inverse() * a.inverse()


@settings(max_examples=60, deadline=None)
@given(letters_lists)
def test_cyclic_core_is_cyclically_reduced(letters):
    word = reduce_letters(2, letters)
    conj, core = cyclic_reduce(word)
    assert core.is_cyclically_reduced()
    assert conj * core * conj.inverse() == word


# -- the ball's arrays against the word-by-word builder they replaced ----------


class OracleFreeBall:
    """The ball builder that made one ReducedWord per word, kept as an oracle."""

    def __init__(self, rank: int, radius: int):
        if rank < 1 or radius < 0:
            raise ValueError("need rank >= 1 and radius >= 0")
        self.rank = rank
        self.radius = radius
        letter_order = [l for i in range(1, rank + 1) for l in (i, -i)]
        words: list[tuple[int, ...]] = [()]
        first_letter = [0]
        parent = [0]
        start, end = 0, 1
        for _ in range(radius):
            for letter in letter_order:
                for idx in range(start, end):
                    tail = words[idx]
                    if tail and tail[0] == -letter:
                        continue
                    words.append((letter,) + tail)
                    first_letter.append(letter)
                    parent.append(idx)
            start, end = end, len(words)
        self.words = tuple(ReducedWord(rank, w) for w in words)
        self.first_letter = np.array(first_letter, dtype=np.int64)
        self.parent = np.array(parent, dtype=np.int64)
        self.index = {w: i for i, w in enumerate(words)}

    def __len__(self):
        return len(self.words)

    def word_index(self, word: ReducedWord) -> int:
        return self.index[word.letters]


@pytest.mark.parametrize("rank, radius", [
    *((rank, radius) for rank in range(1, 5) for radius in range(6)), (2, 8),
])
def test_ball_arrays_match_the_oracle(rank, radius):
    got, want = FreeBall(rank, radius), OracleFreeBall(rank, radius)
    assert len(got) == len(want) == ball_size(rank, radius)
    for name in ("first_letter", "parent"):
        assert getattr(got, name).dtype == np.int64
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    assert got.words == want.words
    assert [got.word_index(u) for u in want.words] == list(range(len(want)))


def test_ball_kernels_build_no_words():
    ball.cache_clear()
    hom = random_homomorphism(FiniteSpace.single_class(16), 2, derive_rng(5, STREAM_TEST, 5))
    trace_code_matrix(hom, 3)
    ball_codes(hom, 3)
    for radius in (3, 4):
        built = vars(ball(2, radius))
        assert "words" not in built

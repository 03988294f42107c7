"""One byte budget, `irslab.space._BYTE_BUDGET`, is the only size guard.

Every entry point that could allocate past it refuses under the
`small_budget` fixture, which patches that one name and nothing else:
a module that kept a private copy of the budget would run on here.
"""

import pytest

import irslab.space

from irslab import (
    AnalysisError,
    FiniteSpace,
    FullGroupElement,
    Homomorphism,
    TraceBudgetError,
    ball,
    ball_codes,
    derive_rng,
    generates_classwise_symmetric,
    lean_aperiodic_homomorphism,
    random_homomorphism,
    realizes_tau_fraction,
    trace_code_matrix,
    transitivity_degree,
)
from irslab.cli import main
from irslab.rng import STREAM_TEST
from irslab.serialize import dumps_canonical, hom_to_doc


def _sym(n):
    """Sym(n) on one class, from an n-cycle and a transposition."""
    sp = FiniteSpace([0] * n)
    cycle = FullGroupElement.from_forward(sp, [(i + 1) % n for i in range(n)])
    swap = FullGroupElement.from_forward(sp, [1, 0, *range(2, n)])
    return Homomorphism(sp, (cycle, swap))


SYM8 = _sym(8)
SPACE256 = FiniteSpace.single_class(256)
LEAN64 = lean_aperiodic_homomorphism(FiniteSpace.single_class(64), 2, derive_rng(3, STREAM_TEST, 64))

ENTRY_POINTS = {
    # 1680 4-tuples of 8 atoms
    "transitivity_degree": (lambda: transitivity_degree(SYM8, 0, 4), AnalysisError),
    # 8!/1! = 40320 7-tuples of 8 atoms, for degree c - 1 = 7
    "generates_classwise_symmetric": (lambda: generates_classwise_symmetric(SYM8), AnalysisError),
    "realizes_tau_fraction": (lambda: realizes_tau_fraction(LEAN64, 2, (1, 0), 64), AnalysisError),
    # 64 rows of ceil(|B(6)| / 8) = 183 bytes
    "trace_code_matrix": (lambda: trace_code_matrix(LEAN64, 6), TraceBudgetError),
    # 64 rows of |B(4)| = 161 one-byte codes
    "ball_codes": (lambda: ball_codes(LEAN64, 3), TraceBudgetError),
    # one row of |B(8)| = 13121 two-byte codes
    "ball_codes of one root": (lambda: ball_codes(LEAN64, 7, [0]), TraceBudgetError),
    # 16 bytes for each of the |B(5)| = 485 ball words
    "ball": (lambda: ball(2, 5), TraceBudgetError),
    # 9 int64 rows of 64 atoms
    "FullGroupElement.levels": (lambda: LEAN64.gens[0].levels(range(64), 9), ValueError),
    # 1024 int64 class ids
    "FiniteSpace.single_class": (lambda: FiniteSpace.single_class(1024), ValueError),
    # two int64 tables of 256 atoms for each of 2 generators; the class ids take 2048 bytes
    "random_homomorphism": (lambda: random_homomorphism(SPACE256, 2, derive_rng(3, STREAM_TEST, 256)),
                            ValueError),
    "lean_aperiodic_homomorphism": (
        lambda: lean_aperiodic_homomorphism(SPACE256, 2, derive_rng(3, STREAM_TEST, 256)), ValueError),
}


@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_every_guarded_entry_point_reads_the_one_budget(small_budget, name):
    call, error = ENTRY_POINTS[name]
    with pytest.raises(error, match=f"over the budget of {small_budget}$"):
        call()


@pytest.mark.parametrize("argv", [
    ("analyze", "degree", "--hom", "sym8.json", "--root", "0", "--k-max", "4"),
    ("analyze", "realize", "--hom", "lean.json", "--m", "2", "--tau", "1 0", "--radius", "64"),
    ("analyze", "stability", "--hom", "lean.json", "--other", "lean.json", "--radius", "3"),
    ("analyze", "irs", "--hom", "lean.json", "--radius", "6"),
    ("export", "--hom", "lean.json", "--format", "dot", "--root", "0", "--radius", "7",
     "--out", "ball.dot"),
    ("gen", "hom", "--rank", "2", "--seed", "1", "--log2", "10"),
    # 256 class ids fit in 2 KiB, the generators' tables need 8 KiB
    pytest.param(("gen", "hom", "--rank", "2", "--seed", "1", "--log2", "8"), id="gen hom tables"),
], ids=lambda argv: " ".join(argv[:2]))
def test_cli_refusals_under_the_budget_exit_2_with_one_line(tmp_path, monkeypatch, capsys,
                                                            small_budget, argv):
    monkeypatch.chdir(tmp_path)
    for name, hom in (("lean.json", LEAN64), ("sym8.json", SYM8)):
        (tmp_path / name).write_text(dumps_canonical(hom_to_doc(hom)))
    assert main(list(argv)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("error: ")
    assert captured.err.endswith(f"over the budget of {small_budget}\n")


def test_a_cached_ball_is_refused_under_a_lowered_budget(monkeypatch):
    built = ball(2, 5)
    assert ball(2, 5) is built
    monkeypatch.setattr(irslab.space, "_BYTE_BUDGET", 16 * len(built) - 1)
    with pytest.raises(TraceBudgetError, match="needs 7760 bytes, over the budget of 7759$"):
        ball(2, 5)
    monkeypatch.setattr(irslab.space, "_BYTE_BUDGET", 16 * len(built))
    assert ball(2, 5) is built


def test_a_shifted_need_is_compared_exactly_and_never_expanded():
    check = irslab.space._check_budget
    check(1, ValueError, "{need}", shift=28)  # 2^28 bytes: the budget itself
    check(0, ValueError, "{need}", shift=2 ** 64)  # no bytes at all
    with pytest.raises(ValueError, match=r"^x 536870912 bytes, over the budget of 268435456$"):
        check(1, ValueError, "x {need} bytes", shift=29)
    with pytest.raises(ValueError, match=r"^x at least 2\^18446744073709551617 bytes, over"):
        check(3, ValueError, "x {need} bytes", shift=2 ** 64)

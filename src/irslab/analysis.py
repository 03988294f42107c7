"""Diagnostics that certify properties of actions by exact computation.

Everything here returns exact rationals or booleans backed by full
enumeration within the byte budget: Foelner-set search with
honest boundary ratios, transitivity degree by tuple-orbit closure,
realization of a prescribed tower permutation by bidirectional word
search spread along sigma's cycle by conjugation, triviality of a word
per orbit, the ball-stability bound, and seeded genericity sweeps over
perturbation balls.  Degree and classwise Sym generation share one
per-orbit routine, `_degree`; it and realization grow tuple orbits with
one kernel, packed keys stepped by `_grow`: untagged tuples for degree,
(tuple, source atom) for realization.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass
from fractions import Fraction
from math import perm

import numpy as np

from . import space
from .actions import (
    Homomorphism,
    _code_sizes,
    ball_atoms,
    ball_codes,
    hom_metric,
    orbit,  # unused here; the perfbench tracer self-test checks this binding is patched
)
from .rng import STREAM_SWEEP, derive_rng, random_full_group_element
from .setops import member, merge_disjoint, sorted_unique
from .words import ReducedWord, ball_size, format_word, parse_word


class AnalysisError(ValueError):
    """A diagnostic's key width, byte budget or precondition failed."""


# -- Foelner search ----------------------------------------------------------


def schreier_boundary_ratio(hom: Homomorphism, subset) -> Fraction:
    """max over generators g of |gF symm-diff F| / |F| for F = subset."""
    atoms = sorted_unique(subset if isinstance(subset, np.ndarray) else np.fromiter(subset, np.int64))
    if atoms.size == 0:
        raise ValueError("boundary ratio needs a nonempty set")
    inside = np.zeros(hom.space.n_atoms, dtype=bool)
    inside[atoms] = True
    worst = Fraction(0)
    for g in hom.gens:
        escaped = int(np.count_nonzero(~inside[g.forward[atoms]]))
        worst = max(worst, Fraction(2 * escaped, atoms.size))
    return worst


@dataclass(frozen=True)
class FolnerResult:
    subset: frozenset[int]
    ratio: Fraction
    success: bool


_GREEDY_STEP_BUDGET = 4096


def folner_search(hom: Homomorphism, root: int, l: int, radius: int) -> FolnerResult:
    """Search for a small-boundary set inside the orbit of the root.

    Candidates are nonempty connected subsets of the orbit of size at
    most half the orbit (whole-orbit sets are trivially invariant, so
    they are excluded): every cycle of the last generator meeting the
    radius-`radius` Schreier ball of the root, and every prefix of a
    greedy growth that starts at the root and repeatedly adds the
    adjacent pool atom minimizing the boundary ratio.  The pool is the
    union of those cycles, which covers the ball.  Orbit size and cycles
    are read off `Homomorphism.orbit_labels` and `cycle_labels`, and
    greedy steps compare integer escape counts; a Fraction is built only
    for each step's pick.  Returns the best candidate's exact ratio;
    success means ratio < 1/l.  An orbit of size one has no valid
    candidate and reports failure with ratio 1.
    """
    if l < 1:
        raise ValueError("l must be at least 1")
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    cap = int(np.count_nonzero(hom.orbit_labels == hom.orbit_labels[root])) // 2
    if cap == 0:
        return FolnerResult(frozenset(), Fraction(1), False)

    # the pool: every cycle of the last generator that meets the ball
    n = hom.space.n_atoms
    cycle_of = hom.gens[-1].cycle_labels
    hit = np.zeros(n, dtype=bool)
    hit[cycle_of[ball_atoms(hom, root, radius)]] = True
    in_pool = hit[cycle_of]
    pool = np.flatnonzero(in_pool)
    pool = pool[np.argsort(cycle_of[pool], kind="stable")]
    cycles = np.split(pool, np.flatnonzero(np.diff(cycle_of[pool])) + 1)

    best_set: frozenset[int] = frozenset([root])
    best_ratio = schreier_boundary_ratio(hom, best_set)
    for cand in sorted((c for c in cycles if c.size <= cap), key=lambda c: (c.size, c.tolist())):
        ratio = schreier_boundary_ratio(hom, cand)
        if ratio < best_ratio or (ratio == best_ratio and cand.size < len(best_set)):
            best_set, best_ratio = frozenset(cand.tolist()), ratio

    # greedy growth with escape counts kept per generator (one row each); the candidates
    # of one step share the denominator len(current) + 1, so compare numerators
    inside = np.zeros(n, dtype=bool)
    inside[root] = True
    current = [root]
    out_count = np.array([[g.forward[root] != root] for g in hom.gens], dtype=np.int64)

    def neighbors(x):
        return (int(t[x]) for t in hom.tables.values())

    frontier = {y for y in neighbors(root) if in_pool[y] and y != root}
    evaluations = 0
    while len(current) < min(cap, pool.size):
        if not frontier or evaluations > _GREEDY_STEP_BUDGET:
            break
        evaluations += len(frontier)
        ys = np.sort(np.fromiter(frontier, np.int64))
        fy = np.stack([g.forward[ys] for g in hom.gens])
        by = np.stack([g.inverse[ys] for g in hom.gens])
        # adding y: g^-1 y stops escaping if inside, y escapes unless g y is in F + {y};
        # |gF - F| = |F - gF| as |gF| = |F|, so the symmetric difference is twice the escapes
        out = out_count - inside[by] + ((fy != ys) & ~inside[fy])
        worst = 2 * out.max(axis=0)
        pick = int(np.argmin(worst))  # ys ascend, so ties go to the least atom
        y = int(ys[pick])
        ratio = Fraction(int(worst[pick]), len(current) + 1)
        inside[y] = True
        current.append(y)
        out_count = out[:, pick:pick + 1]
        frontier.discard(y)
        frontier.update(z for z in neighbors(y) if in_pool[z] and not inside[z])
        if ratio < best_ratio or (ratio == best_ratio and len(current) < len(best_set)):
            best_set, best_ratio = frozenset(current), ratio

    return FolnerResult(best_set, best_ratio, best_ratio < Fraction(1, l))


# -- tuple orbits and transitivity degree ------------------------------------

def _pack(coords, tags, n: int) -> np.ndarray:
    """Base-n keys of tuples, coords[i] holding coordinate i of every tuple, with
    the tags as one more, last digit; tags None packs untagged n^k keys, k = len(coords)."""
    digits, width = (len(coords), "k") if tags is None else (len(coords) + 1, "(m+1)")
    if n ** digits >= 2 ** 63:
        raise AnalysisError(f"packed state space n^{width} = {n}^{digits} overflows 64-bit keys")
    out = 0
    for coord in coords:
        out = out * n + coord
    return out if tags is None else out * n + tags


def _diagonal_images(keys: np.ndarray, tables, n: int, m: int, tagged: bool) -> np.ndarray:
    """Images of packed keys under each table applied coordinatewise; a tag digit stays.

    The m tuple coordinates are decoded once and reused for every table;
    the images for all tables are returned concatenated.
    """
    tags, code = (keys % n, keys // n) if tagged else (None, keys)
    coords = [(code // n ** (m - 1 - i)) % n for i in range(m)]
    return np.concatenate([_pack([table[c] for c in coords], tags, n) for table in tables])


def _grow(frontier: np.ndarray, visited: np.ndarray, tables, n: int, m: int, tagged: bool = True):
    """One breadth-first step on ascending keys: (images not yet visited, new visited).
    Refused first if its keys, 8 bytes per visited key and image, pass the byte budget;
    sort temporaries are not counted, so peak memory runs to 2-3 times the budget."""
    need = 8 * (visited.size + frontier.size * len(tables))
    if need > space._BYTE_BUDGET:
        raise AnalysisError(f"tuple orbit step needs {need} bytes of keys, "
                            f"over the budget of {space._BYTE_BUDGET}")
    fresh = sorted_unique(_diagonal_images(frontier, tables, n, m, tagged))
    fresh = fresh[~member(visited, fresh)]
    return fresh, merge_disjoint(visited, fresh)


def _orbit_size(start, tables, k: int) -> int:
    """Size of the orbit of the k-tuple start under the permutation tables;
    its keys carry no tag digit, so n^k must fit 64 bits."""
    n = len(tables[0])
    frontier = visited = _pack(np.array(start, dtype=np.int64)[:, None], None, n)
    while frontier.size:
        frontier, visited = _grow(frontier, visited, tables, n, k, tagged=False)
    return visited.size


def _degree(atoms: np.ndarray, tables, k_max: int) -> int:
    """Largest k <= k_max with the tables, which permute the ascending atoms,
    transitive on their distinct k-tuples: relabelled 0..n-1, the orbit of
    (0, ..., k-1) (`_orbit_size`, within its key width and byte budget) is
    compared with perm(n, k) for each k."""
    n = atoms.size
    tables = [np.searchsorted(atoms, t[atoms]) for t in tables]
    degree = 1
    for k in range(2, min(k_max, n) + 1):
        if _orbit_size(range(k), tables, k) != perm(n, k):
            break
        degree = k
    return degree


def transitivity_degree(hom: Homomorphism, root: int, k_max: int) -> int:
    """Largest k <= k_max with a transitive action on distinct k-tuples of the
    root's orbit (`_degree`).  Singleton orbits are vacuously 1-transitive."""
    if k_max < 1:
        raise ValueError("k_max must be at least 1")
    labels = hom.orbit_labels
    return _degree(np.flatnonzero(labels == labels[root]), hom.tables.values(), k_max)


# -- tower-permutation realization -------------------------------------------


def realizes_tau_fraction(hom: Homomorphism, m: int, tau, radius: int) -> Fraction:
    """Fraction of atoms where some ball word permutes the tower fiber by tau.

    An atom x qualifies when a reduced word w of length <= radius maps
    (x, sigma x, ..., sigma^(m-1) x) coordinatewise to
    (sigma^(tau(0)) x, ..., sigma^(tau(m-1)) x), sigma being the first
    generator.  Exact: bidirectional breadth-first closure over packed
    (tuple, source atom) states, expanding the smaller side one step of
    the tuple-orbit kernel (`_grow`) at a time; an atom's two sides first
    meet at combined depth D(x), its shortest realizing length.

    The conjugation lemma does the rest.  If w realizes tau at x, then
    s1^j w s1^-j realizes it at sigma^j x with reduced length at most
    |w| + 2|j|, and sigma^j = sigma^(j-n) as sigma is one n-cycle, so
    D(sigma^j x) <= D(x) + 2 min(j mod n, n - j mod n).  Atoms meeting at
    combined depth d therefore settle as realized every atom within cycle
    distance (radius - d) // 2 (one `searchsorted` of the met cycle
    positions), and only atoms not yet covered keep searching.  On one
    cycle realizability is all-or-none: once an atom's closure ends
    without a meet, no atom realizes tau and the search stops at 0.  Each
    step costs O(states * log states) in the states of unsettled atoms;
    when radius >= D_min + 2 (n // 2), the first meet settles every atom.
    """
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
    pos = hom.gens[0].cycle_positions[1]
    powers = hom.gens[0].levels(np.arange(n), m)
    visited = [np.sort(_pack(powers, np.arange(n), n)), np.sort(_pack(powers[list(tau)], np.arange(n), n))]
    frontier = list(visited)
    realized = np.zeros(n, dtype=bool)

    def settle(met, depth):
        """Realize every atom within cycle distance (radius - depth) // 2 of a met
        atom, then drop the realized atoms' states from both sides."""
        if met.size:
            at = np.sort(pos[met])
            i = np.searchsorted(at, pos)
            gap = np.minimum((at[i % at.size] - pos) % n, (pos - at[i - 1]) % n)
            realized[gap <= (radius - depth) // 2] = True
            for keys in (visited, frontier):
                keys[:] = [k[~realized[k % n]] for k in keys]

    settle(visited[0][member(visited[1], visited[0])] % n, 0)
    depth = [0, 0]
    while not realized.all() and depth[0] + depth[1] < radius:
        side = 0 if frontier[0].size <= frontier[1].size else 1
        fresh, visited[side] = _grow(frontier[side], visited[side], hom.tables.values(), n, m)
        depth[side] += 1
        frontier[side] = fresh
        settle(fresh[member(visited[1 - side], fresh)] % n, depth[0] + depth[1])
        alive = realized.copy()
        alive[frontier[side] % n] = True
        if not alive.all():  # an atom's closure ended without a meet
            if realized.any():
                raise AssertionError("tau realized at some atoms of one sigma cycle, not at another")
            return Fraction(0)
    return Fraction(int(np.count_nonzero(realized)), n)


# -- per-orbit word triviality ------------------------------------------------


def core_check(hom: Homomorphism, word: ReducedWord) -> Fraction:
    """Size-weighted fraction of orbits on which the word acts trivially."""
    if len(word) == 0:
        raise ValueError("word must be nonempty")
    g = hom.element_of(word)
    n = hom.space.n_atoms
    labels = hom.orbit_labels
    moved = np.zeros(n, dtype=bool)
    moved[labels[g.forward != np.arange(n)]] = True
    return Fraction(int(np.count_nonzero(~moved[labels])), n)


# -- ball stability ------------------------------------------------------------


@dataclass(frozen=True)
class BallStability:
    observed: Fraction
    bound: Fraction


def ball_stability_check(a: Homomorphism, b: Homomorphism, radius: int) -> BallStability:
    """Fraction of atoms whose radius-R balls differ, against the union bound.

    observed = fraction of atoms x whose rooted balls under the two
    actions are non-isomorphic (their rows of `ball_codes` differ);
    bound = delta * (2R+1) * |B(2R+1)| with delta the metric between the
    actions.  The inequality observed <= bound always holds; a violation
    means a broken invariant and raises.

    Codes are built only on N_R(D), the atoms within distance R under a
    of D, the atoms where some signed-letter table of a differs from b's.
    A word of B(R+1) read at x applies each letter at an atom within
    distance R of x; if that ball misses D, both actions take the same
    steps and the codes agree.  The byte budget is checked for every atom,
    before D is read, so refusals do not depend on how far a and b differ.
    """
    if a.space != b.space or a.rank != b.rank:
        raise ValueError("actions must share space and rank")
    n = a.space.n_atoms
    _code_sizes(a, radius, n)
    moved = np.zeros(n, dtype=bool)
    for letter, table in a.tables.items():
        moved |= table != b.tables[letter]
    near = ball_atoms(a, np.flatnonzero(moved), radius)
    differ = int(np.count_nonzero((ball_codes(a, radius, near) != ball_codes(b, radius, near)).any(axis=1)))
    observed = Fraction(differ, n)
    word_radius = 2 * radius + 1
    bound = hom_metric(a, b) * word_radius * ball_size(a.rank, word_radius)
    if observed > bound:
        raise RuntimeError(f"stability bound violated: observed {observed} > bound {bound}")
    return BallStability(observed, bound)


# -- classwise symmetric generation --------------------------------------------


def generates_classwise_symmetric(hom: Homomorphism) -> bool:
    """Whether the generators restricted to each class generate its full Sym.

    Every class must be an orbit, and the forward tables must be
    (c-1)-transitive on each class of c atoms (`_degree`): Sym(c) acts
    regularly on the c! distinct (c-1)-tuples, so only Sym(c) is.
    """
    sizes = np.bincount(hom.orbit_labels)
    # orbits refine the classes, so every class is an orbit iff the counts agree
    if np.count_nonzero(sizes) != hom.space.class_count:
        return False
    forward = [g.forward for g in hom.gens]
    return all(_degree(np.array(cls, dtype=np.int64), forward, len(cls) - 1) >= len(cls) - 1
               for cls in hom.space.classes())


# -- genericity sweeps ----------------------------------------------------------


@dataclass(frozen=True)
class SweepProperty:
    """Parsed named predicate evaluated on each sampled perturbation."""

    name: str
    args: tuple

    @property
    def text(self) -> str:
        inner = ",".join(str(a) for a in self.args)
        return f"{self.name}({inner})"


def _integer(text: str) -> int:
    """A property's integer argument, refused in one line past 18 digits,
    before Python's int-to-str limit is met."""
    digits = sum(c.isdigit() for c in text)
    if digits > 18:
        raise ValueError(f"property integers take at most 18 digits, got {digits}")
    return int(text)


def parse_property(text: str, rank: int) -> SweepProperty:
    """Parse folner(l,R), realizes(m,tau,R), corefree(word), periodic(j)."""
    match = re.fullmatch(r"\s*(\w+)\s*\((.*)\)\s*", text)
    if not match:
        raise ValueError(f"cannot parse property {text!r}")
    name, inner = match.group(1), match.group(2)
    parts = [p.strip() for p in inner.split(",")] if inner.strip() else []
    if name == "folner":
        if len(parts) != 2:
            raise ValueError("folner takes (l, radius)")
        return SweepProperty("folner", (_integer(parts[0]), _integer(parts[1])))
    if name == "realizes":
        if len(parts) != 3:
            raise ValueError("realizes takes (m, tau, radius)")
        tau = tuple(_integer(t) for t in parts[1].split())
        return SweepProperty("realizes", (_integer(parts[0]), " ".join(map(str, tau)), _integer(parts[2])))
    if name == "corefree":
        if len(parts) != 1:
            raise ValueError("corefree takes (word)")
        return SweepProperty("corefree", (format_word(parse_word(parts[0], rank)),))
    if name == "periodic":
        if len(parts) != 1:
            raise ValueError("periodic takes (level)")
        return SweepProperty("periodic", (_integer(parts[0]),))
    raise ValueError(f"unknown property {name!r}")


def _property_holds(hom: Homomorphism, prop: SweepProperty, rng) -> bool:
    if prop.name == "folner":
        l, radius = prop.args
        root = int(rng.integers(hom.space.n_atoms))
        return folner_search(hom, root, l, radius).success
    if prop.name == "realizes":
        m, tau_text, radius = prop.args
        tau = tuple(int(t) for t in tau_text.split())
        return realizes_tau_fraction(hom, m, tau, radius) == 1
    if prop.name == "corefree":
        word = parse_word(prop.args[0], hom.rank)
        return core_check(hom, word) == 0
    if prop.name == "periodic":
        blocks = hom.space.block_index(prop.args[0])
        return all((blocks[g.forward] == blocks).all() for g in hom.gens)
    raise ValueError(f"unknown property {prop.name!r}")


def sample_perturbation(hom: Homomorphism, epsilon: Fraction, rng) -> Homomorphism:
    """One draw from the perturbation ball around hom.

    Keeps the first generator and splices every other generator against
    an independent random full-group element on a random set of measure
    at most epsilon/2, so the result stays within epsilon of hom.
    """
    from .constructions import splice

    n = hom.space.n_atoms
    size = (epsilon.numerator * n) // (2 * epsilon.denominator)
    gens = [hom.gens[0]]
    for g in hom.gens[1:]:
        subset = np.sort(rng.choice(n, size=size, replace=False)) if size else np.empty(0, np.int64)
        gens.append(splice(g, subset, random_full_group_element(hom.space, rng)))
    return Homomorphism(hom.space, tuple(gens))


def _sweep_chunk(payload) -> int:
    hom, epsilon, prop, seed, indices = payload
    hits = 0
    for k in indices:
        rng = derive_rng(seed, STREAM_SWEEP, k)
        sample = sample_perturbation(hom, epsilon, rng)
        if _property_holds(sample, prop, rng):
            hits += 1
    return hits


def _worker_count() -> int:
    """IRSLAB_WORKERS (default 1) clamped to [1, os.cpu_count()]."""
    text = os.environ.get("IRSLAB_WORKERS", "1")
    try:
        workers = int(text)
    except ValueError:
        raise ValueError(f"IRSLAB_WORKERS must be an integer, got {text!r}") from None
    return max(1, min(workers, os.cpu_count() or 1))


def genericity_sweep(
    hom: Homomorphism, epsilon, samples: int, prop, seed: int
) -> Fraction:
    """Fraction of sampled perturbations satisfying the property.

    Sampling is seeded per sample index, so the result is identical for
    any worker count; IRSLAB_WORKERS sets process parallelism, clamped to
    the CPU count.
    """
    if samples < 1:
        raise ValueError("samples must be at least 1")
    epsilon = Fraction(epsilon)
    if isinstance(prop, str):
        prop = parse_property(prop, hom.rank)
    workers = _worker_count()
    indices = list(range(samples))
    if workers <= 1 or samples == 1:
        hits = _sweep_chunk((hom, epsilon, prop, seed, indices))
    else:
        chunks = [
            (hom, epsilon, prop, seed, indices[w::workers])
            for w in range(min(workers, samples))
        ]
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=len(chunks)) as pool:
            hits = sum(pool.map(_sweep_chunk, chunks))
    return Fraction(hits, samples)

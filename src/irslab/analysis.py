"""Diagnostics that certify properties of actions by exact computation.

Everything here is exact within the byte budget: Foelner-set search with
honest boundary ratios, transitivity degree by tuple-orbit closure under
the generators, realization of a tower permutation by bidirectional word
search spread along sigma's cycle by conjugation, per-orbit word
triviality, the ball-stability bound, and seeded genericity sweeps over
perturbation balls, their property grammar one table of argument names
and predicates, each property's arguments parsed once, and each worker's
samples one range of indices.  Degree and classwise Sym generation share
`_degree`; it and realization grow tuple orbits with one kernel, packed
keys stepped by `_grow`: untagged tuples for degree, (tuple, source atom)
for realization.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from math import perm

import numpy as np

from . import space
from .actions import (
    Homomorphism,
    _atom,
    _code_blocks,
    _code_sizes,
    ball_atoms,
    evaluate,
    hom_metric,
    orbit,  # unused here; the perfbench tracer self-test checks this binding is patched
)
from .constructions import _check_full_cycle, _tower_permutation, splice
from .rng import STREAM_SWEEP, derive_rng, random_full_group_element
from .setops import member, merge_disjoint, sorted_unique
from .words import ReducedWord, _check_radius, _quote, ball_size, parse_word, read_int


class AnalysisError(ValueError):
    """A diagnostic's key width, byte budget or precondition failed."""


# -- Foelner search ----------------------------------------------------------


def schreier_boundary_ratio(hom: Homomorphism, subset) -> Fraction:
    """max over generators g of |gF symm-diff F| / |F| for F = subset."""
    atoms = sorted_unique(hom.space.checked_atoms(subset))
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
    union of those cycles, which covers the ball.  The root is refused
    outside [0, n) before anything is labelled.  The orbit size is read
    off `Homomorphism.orbit_labels`, which hooks the other generators
    onto the first one's cached cycle labels, and the cycles off the
    last generator's `cycle_labels` (one min-label doubling pass per
    element); greedy steps compare integer escape counts, and a Fraction
    is built only for each step's pick.  Returns the best candidate's
    exact ratio; success means ratio < 1/l.  An orbit of size one has no
    valid candidate and reports failure with ratio 1.
    """
    if l < 1:
        raise ValueError("l must be at least 1")
    _check_radius(radius)
    root = _atom(hom, root)
    cap = int(np.count_nonzero(hom.orbit_labels == hom.orbit_labels[root])) // 2
    if cap == 0:
        return FolnerResult(frozenset(), Fraction(1), False)

    # the pool: every cycle of the last generator that meets the ball; the
    # candidates: its cycles of at most cap atoms, each ascending
    n = hom.space.n_atoms
    cycle_of = hom.gens[-1].cycle_labels
    hit = np.zeros(n, dtype=bool)
    hit[cycle_of[ball_atoms(hom, root, radius)]] = True
    in_pool = hit[cycle_of]
    hit &= np.bincount(cycle_of, minlength=n) <= cap
    small = np.flatnonzero(hit[cycle_of])
    small = small[np.argsort(cycle_of[small], kind="stable")]
    cycles = np.split(small, np.flatnonzero(np.diff(cycle_of[small])) + 1) if small.size else []

    # the best candidate is a cycle array, or None for the greedy prefix of best_size atoms
    # (the root alone to begin with); its frozenset is built once, at return
    best_cycle, best_size, best_ratio = None, 1, schreier_boundary_ratio(hom, [root])
    # disjoint cycles differ at their least atoms: (size, least atom) orders them as (size, atoms)
    for cand in sorted(cycles, key=lambda c: (c.size, int(c[0]))):
        ratio = schreier_boundary_ratio(hom, cand)
        if ratio < best_ratio or (ratio == best_ratio and cand.size < best_size):
            best_cycle, best_size, best_ratio = cand, cand.size, ratio

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
    # the frontier lies in the pool outside `current`, so it empties once `current` covers the pool
    while len(current) < cap:
        if not frontier or evaluations > _GREEDY_STEP_BUDGET:
            break
        evaluations += len(frontier)
        ys = np.array(sorted(frontier), dtype=np.int64)
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
        if ratio < best_ratio or (ratio == best_ratio and len(current) < best_size):
            best_cycle, best_size, best_ratio = None, len(current), ratio

    best = current[:best_size] if best_cycle is None else best_cycle.tolist()
    return FolnerResult(frozenset(best), best_ratio, best_ratio < Fraction(1, l))


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
    sort temporaries are not counted, so peak memory runs past the budget: a lean
    rank-2 hom at 2^13 atoms, k = 2, peaked at 848 MiB (3.3 times) before its refusal."""
    space._check_budget(8 * (visited.size + frontier.size * len(tables)), AnalysisError,
                        "tuple orbit step needs {need} bytes of keys")
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
    root's orbit (`_degree` under the generators alone: on a finite set an inverse
    is a power of its generator).  Singleton orbits are vacuously 1-transitive."""
    if k_max < 1:
        raise ValueError("k_max must be at least 1")
    labels = hom.orbit_labels
    atoms = np.flatnonzero(labels == labels[_atom(hom, root)])
    return _degree(atoms, [g.forward for g in hom.gens], k_max)


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
    _check_full_cycle(hom, AnalysisError)
    tau = _tower_permutation(m, tau)
    _check_radius(radius)
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
    atoms = np.arange(hom.space.n_atoms)
    labels = hom.orbit_labels
    moved = np.zeros(atoms.size, dtype=bool)
    moved[labels[evaluate(hom, word, atoms) != atoms]] = True
    return Fraction(int(np.count_nonzero(~moved[labels])), atoms.size)


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
    The two actions' codes are compared one kernel chunk at a time
    (`_code_blocks`): a suspended generator holds only its last code
    block, so the comparison holds two small code blocks and one chunk's
    working set, a few `_CHUNK_BYTES`, however large N_R(D) is.
    """
    if a.space != b.space or a.rank != b.rank:
        raise ValueError("actions must share space and rank")
    n = a.space.n_atoms
    inner, outer = _code_sizes(a, radius, n)
    moved = np.zeros(n, dtype=bool)
    for letter, table in a.tables.items():
        moved |= table != b.tables[letter]
    near = ball_atoms(a, np.flatnonzero(moved), radius)
    blocks = zip(*(_code_blocks(h, radius, near, inner, outer) for h in (a, b)))
    observed = Fraction(sum(int(np.count_nonzero((x != y).any(axis=1))) for x, y in blocks), n)
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
    """Parsed named predicate evaluated on each sampled perturbation: its
    arguments are values (ints, a tower permutation tuple, a `ReducedWord`)."""

    name: str
    args: tuple

    @property
    def text(self) -> str:
        """The canonical form, `name(arg,...)`, a tuple's entries joined by spaces."""
        inner = ",".join(" ".join(map(str, a)) if isinstance(a, tuple) else str(a) for a in self.args)
        return f"{self.name}({inner})"


def _folner_holds(hom: Homomorphism, rng, l: int, radius: int) -> bool:
    return folner_search(hom, int(rng.integers(hom.space.n_atoms)), l, radius).success


def _periodic_holds(hom: Homomorphism, rng, level: int) -> bool:
    blocks = hom.space.block_index(level)
    return all((blocks[g.forward] == blocks).all() for g in hom.gens)


_PROPERTIES = {  # each sweep property's argument names, in order, and its predicate
    "folner": (("l", "radius"), _folner_holds),
    "realizes": (("m", "tau", "radius"),
                 lambda hom, rng, m, tau, radius: realizes_tau_fraction(hom, m, tau, radius) == 1),
    "corefree": (("word",), lambda hom, rng, word: core_check(hom, word) == 0),
    "periodic": (("level",), _periodic_holds),
}


def parse_property(text: str, rank: int) -> SweepProperty:
    """Parse `name(arg, ...)`, with the arity `_PROPERTIES` gives, into argument values."""
    match = re.fullmatch(r"\s*(\w+)\s*\((.*)\)\s*", text)
    if not match:
        raise ValueError(f"cannot parse property {_quote(text)}")
    name, inner = match.group(1), match.group(2)
    parts = [p.strip() for p in inner.split(",")] if inner.strip() else []
    if name not in _PROPERTIES:
        raise ValueError(f"unknown property {_quote(name)}")
    names = _PROPERTIES[name][0]
    if len(parts) != len(names):
        raise ValueError(f"{name} takes ({', '.join(names)})")
    if name == "realizes":
        m, *tau, radius = (read_int(t, "integer") for t in (parts[0], *parts[1].split(), parts[2]))
        args = (m, _tower_permutation(m, tau), radius)
    elif name == "corefree":
        args = (parse_word(parts[0], rank),)
    else:
        args = tuple(read_int(p, "integer") for p in parts)
    return SweepProperty(name, args)


def _property_holds(hom: Homomorphism, prop: SweepProperty, rng) -> bool:
    return _PROPERTIES[prop.name][1](hom, rng, *prop.args)


def sample_perturbation(hom: Homomorphism, epsilon: Fraction, rng) -> Homomorphism:
    """One draw from the perturbation ball around hom.

    Keeps the first generator and splices every other generator onto
    the images of an independent random full-group element on a random
    set of measure at most epsilon/2, so the result stays within epsilon
    of hom.  Epsilon outside [0, 2] is refused before anything is drawn.
    """
    if not 0 <= epsilon <= 2:
        raise ValueError(f"epsilon {epsilon} is not in [0, 2]")
    n = hom.space.n_atoms
    size = (epsilon.numerator * n) // (2 * epsilon.denominator)
    gens = [hom.gens[0]]
    for g in hom.gens[1:]:
        subset = rng.choice(n, size=size, replace=False) if size else np.empty(0, np.int64)
        gens.append(splice(g, subset, random_full_group_element(hom.space, rng).forward[subset]))
    return Homomorphism(hom.space, tuple(gens))


def _sweep_chunk(hom, epsilon, prop, seed, indices: range) -> int:
    """Hits among the sample indices, each drawing from its own stream of the seed."""
    rngs = (derive_rng(seed, STREAM_SWEEP, k) for k in indices)
    return sum(_property_holds(sample_perturbation(hom, epsilon, rng), prop, rng) for rng in rngs)


def _worker_count() -> int:
    """IRSLAB_WORKERS (default 1) clamped to [1, os.cpu_count()]."""
    try:
        workers = read_int(os.environ.get("IRSLAB_WORKERS", "1").strip(), "value")
    except ValueError as exc:
        raise ValueError(f"IRSLAB_WORKERS: {exc}") from None
    return max(1, min(workers, os.cpu_count() or 1))


def genericity_sweep(hom: Homomorphism, epsilon, samples: int, prop: SweepProperty, seed: int) -> Fraction:
    """Fraction of sampled perturbations satisfying the property.

    Sampling is seeded per sample index, so the result is identical for
    any worker count; IRSLAB_WORKERS sets process parallelism, clamped to
    the CPU count and the sample count.  Worker w runs the indices
    range(w, samples, workers), so no list of indices is ever built.
    """
    if samples < 1:
        raise ValueError("samples must be at least 1")
    epsilon = Fraction(epsilon)
    workers = min(_worker_count(), samples)
    chunk = partial(_sweep_chunk, hom, epsilon, prop, seed)
    ranges = [range(w, samples, workers) for w in range(workers)]
    if workers == 1:
        hits = chunk(ranges[0])
    else:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            hits = sum(pool.map(chunk, ranges))
    return Fraction(hits, samples)

"""Orbit and cycle labelling by pointer jumping.

`cycle_labels` labels one permutation's cycles by min-label pointer
doubling: after k rounds each atom holds the least atom of the window of
2^k atoms from it along its cycle.  It stops at the first round where
every window has the same least atom as the window after it, which holds
exactly when every window covers its cycle: O(log n) rounds for an n-cycle.
`component_labels` labels orbits, Shiloach-Vishkin style: starting from
a star forest (each atom its own root, or the cycles of one generator),
each round hooks the larger of two joined roots onto the smaller, then
jumps `parent = parent[parent]` until every tree is a star.  Parents
only decrease, so a component's root is its least atom.
`cycle_positions` ranks given cycle labels along a predecessor table
(Wyllie).  No per-atom Python loop.
"""

from __future__ import annotations

import numpy as np


def cycle_labels(perm) -> np.ndarray:
    """Least atom of each atom's cycle under perm, a permutation of 0..n-1.

    The gathers skip the bounds check (`mode="clip"`): a permutation's
    entries are all in range, and so are its powers'.
    """
    step = np.asarray(perm, dtype=np.intp)
    # int32 labels, where they fit, halve the bytes each round gathers
    label = np.arange(step.size, dtype=np.int32 if step.size <= 2**31 else np.int64)
    # label[x] is the least atom of the window from x up to step[x], exclusive; once
    # each window shares its least atom with the next one, the windows from x tile
    # x's cycle with one least atom, the cycle's
    while not np.array_equal(ahead := np.take(label, step, mode="clip"), label):
        np.minimum(label, ahead, out=label)
        step = np.take(step, step, mode="clip")
    return label.astype(np.int64)


def component_labels(tables, n: int, start=None) -> np.ndarray:
    """Least atom of each atom's component in the graph x -- t[x], t in tables,
    joined with the classes of start: a labelling by least class atoms (the
    cycle labels of a generator), or by default each atom alone."""
    parent = np.arange(n, dtype=np.int64) if start is None else np.array(start, dtype=np.int64)
    if not tables:
        return parent
    src = np.tile(np.arange(n, dtype=np.int64), len(tables))
    dst = np.concatenate([np.asarray(t, dtype=np.int64) for t in tables])
    while True:
        a, b = parent[src], parent[dst]
        cross = a != b
        if not cross.any():
            return parent
        # an edge inside one tree stays inside it: drop it for good
        src, dst, a, b = src[cross], dst[cross], a[cross], b[cross]
        np.minimum.at(parent, np.maximum(a, b), np.minimum(a, b))
        while not np.array_equal(grand := parent[parent], parent):
            parent = grand


def cycle_positions(pred, labels) -> np.ndarray:
    """pos[x] = k with perm^k(labels[x]) = x, for the permutation perm whose
    predecessor table (its inverse) is pred, labels[x] being the least atom of x's cycle.

    Every atom but a cycle's least one points to its predecessor;
    pointer doubling sums the steps to the least atom.
    """
    atoms = np.arange(len(pred), dtype=np.int64)
    nxt = np.where(labels == atoms, atoms, np.asarray(pred, dtype=np.int64))
    pos = (nxt != atoms).astype(np.int64)
    while not np.array_equal(grand := nxt[nxt], nxt):
        pos += pos[nxt]
        nxt = grand
    return pos

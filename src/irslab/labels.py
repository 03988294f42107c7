"""Orbit and cycle labelling by hooking and pointer jumping.

`component_labels` is Shiloach-Vishkin style connectivity: each round
hooks the larger of two joined roots onto the smaller, then jumps
`parent = parent[parent]` until every tree is a star.  Parents only
decrease, so a component's root is its least atom, and a single n-cycle
settles in O(log n) rounds where label propagation needs n.
`cycle_positions` ranks given cycle labels (Wyllie).  No per-atom Python loop.
"""

from __future__ import annotations

import numpy as np


def component_labels(tables, n: int) -> np.ndarray:
    """Least atom of each atom's component in the graph x -- t[x], t in tables."""
    parent = np.arange(n, dtype=np.int64)
    src = np.tile(parent, len(tables))
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


def cycle_positions(perm, labels) -> np.ndarray:
    """pos[x] = k with perm^k(labels[x]) = x, labels[x] being the least atom of x's cycle.

    Every atom but a cycle's least one points to its predecessor;
    pointer doubling sums the steps to the least atom.
    """
    perm = np.asarray(perm, dtype=np.int64)
    atoms = np.arange(perm.size, dtype=np.int64)
    nxt = np.empty_like(perm)
    nxt[perm] = atoms
    nxt = np.where(labels == atoms, atoms, nxt)
    pos = (nxt != atoms).astype(np.int64)
    while not np.array_equal(grand := nxt[nxt], nxt):
        pos += pos[nxt]
        nxt = grand
    return pos

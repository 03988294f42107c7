"""Set operations on sorted arrays by sorting and binary search.

numpy's own set routines (`unique`, `isin`, `union1d`, ...) go through
a hash table in numpy 2.x, which is slow on large integer keys and
wastes the order the callers here already keep.  These helpers return
ascending arrays, or byte rows as keys that sort in byte order, so
results are exact and deterministic.
"""

from __future__ import annotations

import numpy as np


def sorted_unique(a: np.ndarray) -> np.ndarray:
    """The distinct values of a, ascending."""
    a = np.sort(a)
    if a.size == 0:
        return a
    keep = np.empty(a.size, dtype=bool)
    keep[0] = True
    np.not_equal(a[1:], a[:-1], out=keep[1:])
    return a[keep]


def member(sorted_hay: np.ndarray, needles: np.ndarray) -> np.ndarray:
    """Boolean mask over needles: which values occur in the ascending hay."""
    if sorted_hay.size == 0:
        return np.zeros(needles.shape, dtype=bool)
    idx = np.searchsorted(sorted_hay, needles)
    np.minimum(idx, sorted_hay.size - 1, out=idx)
    return sorted_hay[idx] == needles


def merge_disjoint(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Ascending union of two ascending arrays that share no value."""
    # timsort finds the two ascending runs and merges them in linear time
    return np.sort(np.concatenate([a, b]), kind="stable")


def row_keys(rows: np.ndarray) -> np.ndarray:
    """One void key per row of a 2-D byte array, a view of a C-ordered array's rows.
    Keys sort and `searchsorted` in memcmp order, the order Python gives the rows'
    `tobytes()`, and test equal with `==` and `!=`; numpy has no `<` or `>` for them."""
    rows = np.ascontiguousarray(rows, dtype=np.uint8)
    return rows.view(np.dtype((np.void, rows.shape[1]))).ravel()


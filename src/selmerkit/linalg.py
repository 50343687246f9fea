"""Exact integer linear algebra.

The nullspace of a sparse integer matrix (fraction-free Gauss-Jordan
elimination with content stripping; each step pivots on the sparsest
remaining row, at its smallest coefficient) gives the Manin functionals of
each star sign and cuts them down to Hecke eigenspaces; its basis, sparse
dicts as the elimination holds them, is diagonal on the non-pivot columns.
Content is the gcd of a row's entries, taken by math.gcd in one call.

Everything is deterministic; no floating point is involved.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from math import gcd, lcm

__all__ = [
    "strip_content",
    "sparse_nullspace",
]


def strip_content(row: dict) -> dict:
    """Divide a sparse integer row by the gcd of its entries."""
    g = gcd(*row.values())
    if g > 1:
        return {c: v // g for c, v in row.items()}
    return row


def sparse_nullspace(rows, ncols) -> tuple[list[dict[int, int]], list[int]]:
    """Nullspace basis of a sparse integer matrix, with its free columns.

    `rows` is an iterable of {column: coefficient} dicts.  Zero rows and
    rows equal to an earlier one after content stripping are dropped, so
    callers may pass repeats.  Returns (basis, free): `free` lists the
    non-pivot columns in ascending order, and basis[k] is a primitive
    integer vector, a {column: value} dict with no zero stored, positive on
    free[k] and otherwise keyed by pivot columns.  So the basis restricted
    to `free` is diagonal, and a kernel vector is fixed by its values there.
    """
    active: list[dict] = []
    seen = set()
    for r in rows:
        r = strip_content({c: v for c, v in r.items() if v})
        if not r:
            continue
        key = frozenset(r.items())
        if key in seen:
            continue
        seen.add(key)
        active.append(dict(r))

    col_rows: dict[int, set[int]] = {}
    for i, r in enumerate(active):
        for c in r:
            col_rows.setdefault(c, set()).add(i)

    pivot_of_row: dict[int, int] = {}  # row index -> pivot column
    pivot_rows: dict[int, int] = {}  # pivot column -> row index
    # (length, row index) of each unprocessed row; stale lengths are skipped
    queue = [(len(r), i) for i, r in enumerate(active)]
    heapify(queue)

    while queue:
        # pivot on the sparsest unprocessed row; rows reduced to zero never return
        size, i = heappop(queue)
        if i in pivot_of_row or size != len(active[i]):
            continue
        row = active[i]
        # pivot on the smallest coefficient in the row
        pc = min(row, key=lambda c: (abs(row[c]), c))
        pv = row[pc]
        pivot_of_row[i] = pc
        pivot_rows[pc] = i
        # Jordan step: clear pc from every other row
        for j in list(col_rows.get(pc, ())):
            if j == i:
                continue
            other = active[j]
            f = other[pc]
            new = {}
            for c, v in other.items():
                w = v * pv
                if c in row:
                    w -= row[c] * f
                if w:
                    new[c] = w
            for c, v in row.items():
                if c not in other:
                    w = -v * f
                    if w:
                        new[c] = w
            new = strip_content(new)
            # a column leaves row j only by cancelling against the pivot row,
            # which keeps it, so its row set never empties
            for c in set(other) - set(new):
                col_rows[c].discard(j)
            for c in set(new) - set(other):
                col_rows.setdefault(c, set()).add(j)
            active[j] = new
            if new and j not in pivot_of_row and len(new) != len(other):
                heappush(queue, (len(new), j))

    basis, free = [], [f for f in range(ncols) if f not in pivot_rows]
    for f in free:
        hits = [(pivot_of_row[i], active[i]) for i in col_rows.get(f, ())]
        scale = lcm(*(row[pc] for pc, row in hits))
        basis.append(strip_content({f: scale} | {pc: -row[f] * scale // row[pc] for pc, row in hits}))
    return basis, free

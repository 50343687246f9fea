"""Exact integer linear algebra.

Two kernel computations serve the modular symbol machinery:

* the nullspace of a sparse integer matrix (fraction-free Gauss-Jordan
  elimination with content stripping; each step pivots on the sparsest
  remaining row, at its smallest coefficient), which gives the Manin
  functionals of each star sign and cuts them down to Hecke eigenspaces;
  its basis is diagonal on the non-pivot columns, which it returns too,
* the gcd of a linear form over the integer kernel of a small dense matrix,
  by unimodular column reduction with the form carried along as a last row
  (the value group that normalizes the eigensymbol); no kernel basis and no
  transform matrix is built.

Everything is deterministic; no floating point is involved.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from math import gcd, lcm

__all__ = [
    "gcd_list",
    "strip_content",
    "sparse_nullspace",
    "kernel_image_gcd",
]


def gcd_list(values) -> int:
    g = 0
    for v in values:
        g = gcd(g, int(v))
        if g == 1:
            return 1
    return g


def strip_content(row: dict) -> dict:
    """Divide a sparse integer row by the gcd of its entries."""
    g = gcd_list(row.values())
    if g > 1:
        return {c: v // g for c, v in row.items()}
    return row


def sparse_nullspace(rows, ncols) -> tuple[list[list[int]], list[int]]:
    """Nullspace basis of a sparse integer matrix, with its free columns.

    `rows` is an iterable of {column: coefficient} dicts.  Zero rows and
    rows equal to an earlier one after content stripping are dropped, so
    callers may pass repeats.  Returns (basis, free): `free` lists the
    non-pivot columns in ascending order, and basis[k] is a primitive
    integer vector of length `ncols` that is positive on free[k] and zero on
    every other free column.  So the basis restricted to `free` is diagonal,
    and a kernel vector is fixed by its values there.
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
        v = [0] * ncols
        v[f] = scale
        for pc, row in hits:
            v[pc] = -row[f] * scale // row[pc]
        g = gcd_list(v)
        basis.append([x // g for x in v])
    return basis, free


def kernel_image_gcd(rows, f) -> int:
    """gcd of f . x over the integer x with rows . x = 0; 0 if f vanishes there.

    `rows` is a list of integer row lists, each as long as `f`.  Unimodular
    column operations bring each row in turn to a single pivot column, and
    are applied to f, carried as a last row, alike.  The columns that never
    became pivots then vanish on every row and span the kernel lattice: the
    pivot columns form a triangular block, so no combination that kills the
    rows can use them.  The answer is the gcd of f on the non-pivot columns.
    """
    m = len(rows)
    cols = [[row[j] for row in rows] + [fj] for j, fj in enumerate(f)]
    active = list(range(len(cols)))  # columns not yet used as a pivot
    for r in range(m):
        live = [j for j in active if cols[j][r] != 0]
        if not live:
            continue
        while len(live) > 1:
            live.sort(key=lambda j: abs(cols[j][r]))
            c0 = cols[live[0]]
            a = c0[r]
            new_live = [live[0]]
            for j in live[1:]:
                cj = cols[j]
                q = cj[r] // a
                for i in range(r, m + 1):
                    cj[i] -= q * c0[i]
                if cj[r] != 0:
                    new_live.append(j)
            live = new_live
        active.remove(live[0])
    return gcd_list(cols[j][m] for j in active)

"""Exact integer linear algebra.

Two kernels are needed by the modular symbol machinery:

* the nullspace of a sparse integer matrix (fraction-free Gauss-Jordan
  elimination with content stripping; each step pivots on the sparsest
  remaining row, at its smallest coefficient), which gives the Manin
  functionals of each star sign and cuts them down to Hecke eigenspaces,
* integer kernels via unimodular column reduction (lattice computations
  behind the symbol normalization).

Everything is deterministic; no floating point is involved.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from math import gcd, lcm

__all__ = [
    "gcd_list",
    "strip_content",
    "sparse_nullspace",
    "integer_kernel",
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


def sparse_nullspace(rows, ncols):
    """Nullspace basis of a sparse integer matrix.

    `rows` is an iterable of {column: coefficient} dicts.  Zero rows and
    rows equal to an earlier one after content stripping are dropped, so
    callers may pass repeats.  Returns a list of primitive integer vectors
    of length `ncols`, one per non-pivot column, each positive on its own
    column.
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

    def _unlink(i, cols):
        for c in cols:
            s = col_rows.get(c)
            if s is not None:
                s.discard(i)
                if not s:
                    del col_rows[c]

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
            _unlink(j, set(other) - set(new))
            for c in set(new) - set(other):
                col_rows.setdefault(c, set()).add(j)
            active[j] = new
            if new and j not in pivot_of_row and len(new) != len(other):
                heappush(queue, (len(new), j))

    basis = []
    for f in range(ncols):
        if f in pivot_rows:
            continue
        hits = [(pivot_of_row[i], active[i]) for i in col_rows.get(f, ())]
        scale = lcm(*(row[pc] for pc, row in hits))
        v = [0] * ncols
        v[f] = scale
        for pc, row in hits:
            v[pc] = -row[f] * scale // row[pc]
        g = gcd_list(v)
        basis.append([x // g for x in v])
    return basis


def integer_kernel(rows):
    """Z-basis of the integer kernel of an integer matrix.

    `rows` is a list of integer row lists (all the same length n).  Returns
    a list of integer vectors of length n spanning {x in Z^n : M x = 0}.
    Unimodular column operations only, so the result is a genuine basis of
    the kernel lattice, not merely of the rational kernel.
    """
    if not rows:
        raise ValueError("need at least one row (use identity for no constraints)")
    n = len(rows[0])
    m = len(rows)
    cols = [[rows[i][j] for i in range(m)] for j in range(n)]
    transform = [[1 if i == j else 0 for i in range(n)] for j in range(n)]
    active = list(range(n))
    for r in range(m):
        live = [j for j in active if cols[j][r] != 0]
        if not live:
            continue
        while len(live) > 1:
            live.sort(key=lambda j: abs(cols[j][r]))
            j0 = live[0]
            a = cols[j0][r]
            new_live = [j0]
            for j in live[1:]:
                q = cols[j][r] // a
                if q:
                    for i in range(r, m):
                        cols[j][i] -= q * cols[j0][i]
                    tj, t0 = transform[j], transform[j0]
                    for i in range(n):
                        tj[i] -= q * t0[i]
                if cols[j][r] != 0:
                    new_live.append(j)
            live = new_live
        active.remove(live[0])
    kernel = []
    for j in active:
        if all(x == 0 for x in cols[j]):
            kernel.append(list(transform[j]))
    return kernel

"""Exact kernels: sparse integer nullspaces, and the lattice oracle's gcd of
a form on an integer kernel against its saturated kernel basis."""

from math import gcd

from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import Matrix

from selmerkit.linalg import sparse_nullspace

from lattice_oracle import densify, integer_kernel, kernel_image_gcd


def _matrix_strategy(max_rows=5, max_cols=6):
    return st.integers(1, max_rows).flatmap(
        lambda r: st.integers(1, max_cols).flatmap(
            lambda c: st.lists(
                st.lists(st.integers(-4, 4), min_size=c, max_size=c),
                min_size=r,
                max_size=r,
            )
        )
    )


def test_sparse_nullspace_hand_case():
    assert sparse_nullspace([{0: 1, 1: 2}, {2: 1}], 3) == ([{0: -2, 1: 1}], [1])
    # 2x = 3y: the rational kernel vector (3/2, 1) comes back as (3, 2)
    assert sparse_nullspace([{0: 2, 1: -3}], 2) == ([{0: 3, 1: 2}], [1])


def test_sparse_nullspace_drops_repeated_and_scaled_rows():
    single = sparse_nullspace([{0: 1, 2: -3}], 3)
    assert single[0] == [{1: 1}, {0: 3, 2: 1}]
    rows = [{0: 1, 2: -3}, {0: 4, 2: -12}, {0: 1, 2: -3}, {0: -2, 2: 6}, {2: -3, 0: 1}]
    assert sparse_nullspace(rows, 3) == single


def test_sparse_nullspace_zero_matrix():
    basis, free = sparse_nullspace([{}], 4)
    assert free == [0, 1, 2, 3]
    assert basis == [{0: 1}, {1: 1}, {2: 1}, {3: 1}]


@settings(max_examples=80, deadline=None)
@given(mat=_matrix_strategy())
def test_sparse_nullspace_matches_rank_nullity(mat):
    rows = [{j: v for j, v in enumerate(row) if v} for row in mat]
    ncols = len(mat[0])
    basis = densify(sparse_nullspace(rows, ncols)[0], ncols)
    assert len(basis) == ncols - Matrix(mat).rank()
    if basis:
        assert Matrix(basis).rank() == len(basis)
    for v in basis:
        assert all(isinstance(x, int) for x in v)
        assert gcd(*v) == 1
        for row in mat:
            assert sum(c * x for c, x in zip(row, v)) == 0


@settings(max_examples=80, deadline=None)
@given(mat=_matrix_strategy())
def test_sparse_nullspace_is_diagonal_on_exactly_its_free_columns(mat):
    # what the eigen-cut relies on: a kernel vector is fixed by its values
    # on the free columns, and there the basis is positive diagonal
    rows = [{j: v for j, v in enumerate(row) if v} for row in mat]
    ncols = len(mat[0])
    sparse, free = sparse_nullspace(rows, ncols)
    basis = densify(sparse, ncols)
    assert free == sorted(set(free)) and len(free) == len(basis)
    for k, v in enumerate(basis):
        assert [v[c] > 0 if r == k else v[c] == 0 for r, c in enumerate(free)] == [True] * len(free)
    # the other columns are the pivots: as many as the rank, and independent
    pivots = [c for c in range(ncols) if c not in free]
    rank = Matrix(mat).rank()
    assert len(pivots) == rank
    if pivots:
        assert Matrix(mat).extract(list(range(len(mat))), pivots).rank() == rank


@settings(max_examples=80, deadline=None)
@given(mat=_matrix_strategy())
def test_sparse_nullspace_basis_is_sparse_and_primitive(mat):
    # each vector is a dict that stores no zero, with no common factor, and
    # lives on its own free column and the pivot columns alone
    rows = [{j: v for j, v in enumerate(row) if v} for row in mat]
    ncols = len(mat[0])
    basis, free = sparse_nullspace(rows, ncols)
    pivots = set(range(ncols)) - set(free)
    for f, v in zip(free, basis):
        assert isinstance(v, dict) and 0 not in v.values()
        assert gcd(*v.values()) == 1
        assert set(v) <= {f} | pivots


@settings(max_examples=80, deadline=None)
@given(mat=_matrix_strategy())
def test_integer_kernel_annihilates_and_has_full_dimension(mat):
    ncols = len(mat[0])
    basis = integer_kernel(mat)
    assert len(basis) == ncols - Matrix(mat).rank()
    for v in basis:
        assert all(isinstance(x, int) for x in v)
        for row in mat:
            assert sum(c * x for c, x in zip(row, v)) == 0


def test_integer_kernel_is_saturated():
    # kernel of (2 2) must contain (1, -1), not only (2, -2)
    basis = integer_kernel([[2, 2]])
    assert len(basis) == 1
    v = basis[0]
    assert sorted(map(abs, v)) == [1, 1]
    basis2 = integer_kernel([[4, 6]])
    assert sorted(map(abs, basis2[0])) == [2, 3]


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_kernel_image_gcd_matches_the_oracle_kernel(data):
    mat = data.draw(_matrix_strategy())
    n = len(mat[0])
    f = data.draw(st.lists(st.integers(-6, 6), min_size=n, max_size=n))
    expected = gcd(*(sum(fi * wi for fi, wi in zip(f, w)) for w in integer_kernel(mat)))
    assert kernel_image_gcd(mat, f) == expected


def test_kernel_image_gcd_hand_cases():
    # the kernel of (2 2) is spanned by (1, -1), so f = (1, 0) takes the value 1
    assert kernel_image_gcd([[2, 2]], [1, 0]) == 1
    assert kernel_image_gcd([[4, 6]], [1, 0]) == 3
    # f = (1, 1) vanishes on that kernel
    assert kernel_image_gcd([[2, 2]], [1, 1]) == 0
    assert kernel_image_gcd([[1, 0], [0, 1]], [5, 7]) == 0
    # no rows: the kernel is all of Z^n
    assert kernel_image_gcd([], [6, -4, 10]) == 2
    assert kernel_image_gcd([], [0, 0]) == 0

"""Exact kernels: sparse integer nullspaces and saturated integer kernels."""

from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import Matrix

from selmerkit.linalg import gcd_list, integer_kernel, sparse_nullspace


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
    assert sparse_nullspace([{0: 1, 1: 2}, {2: 1}], 3) == [[-2, 1, 0]]
    # 2x = 3y: the rational kernel vector (3/2, 1) comes back as (3, 2)
    assert sparse_nullspace([{0: 2, 1: -3}], 2) == [[3, 2]]


def test_sparse_nullspace_drops_repeated_and_scaled_rows():
    single = sparse_nullspace([{0: 1, 2: -3}], 3)
    assert sorted(single) == [[0, 1, 0], [3, 0, 1]]
    rows = [{0: 1, 2: -3}, {0: 4, 2: -12}, {0: 1, 2: -3}, {0: -2, 2: 6}, {2: -3, 0: 1}]
    assert sparse_nullspace(rows, 3) == single


def test_sparse_nullspace_zero_matrix():
    basis = sparse_nullspace([{}], 4)
    assert sorted(basis, reverse=True) == [[int(i == j) for i in range(4)] for j in range(4)]


@settings(max_examples=80, deadline=None)
@given(mat=_matrix_strategy())
def test_sparse_nullspace_matches_rank_nullity(mat):
    rows = [{j: v for j, v in enumerate(row) if v} for row in mat]
    ncols = len(mat[0])
    basis = sparse_nullspace(rows, ncols)
    assert len(basis) == ncols - Matrix(mat).rank()
    if basis:
        assert Matrix(basis).rank() == len(basis)
    for v in basis:
        assert all(isinstance(x, int) for x in v)
        assert gcd_list(v) == 1
        for row in mat:
            assert sum(c * x for c, x in zip(row, v)) == 0


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

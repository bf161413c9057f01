"""Kernel bases over F_p against sympy's DomainMatrix row reduction.

sympy's `rref` over GF(p) is an independent elimination.  The canonical
kernel basis is read off it directly: one vector per free column j, with 1
at j and minus the reduced entry of column j at each pivot column.  Matrices
are tall, as relation systems are, and are drawn both at random (mostly of
full column rank) and as products of a tall and a wide factor (rank below
the column count).
"""

import pytest
from hypothesis import given, settings, strategies as st

from fqtlab import FiniteField, kernel_basis, matrix_rank

matrices = pytest.importorskip("sympy.polys.matrices")
GF = pytest.importorskip("sympy").GF

PRIMES = [2, 3, 5, 7]
FIELDS = {p: FiniteField(p) for p in PRIMES}


def oracle_basis(p, rows, ncols):
    K = GF(p)
    dm = matrices.DomainMatrix([[K(c) for c in r] for r in rows],
                               (len(rows), ncols), K)
    rref, pivots = dm.rref()
    red = [[int(c) % p for c in r] for r in rref.to_list()]
    out = []
    for j in range(ncols):
        if j in pivots:
            continue
        vec = [0] * ncols
        vec[j] = 1
        for i, pc in enumerate(pivots):
            vec[pc] = -red[i][j] % p
        out.append(tuple(vec))
    return out


@st.composite
def tall_matrix(draw):
    p = draw(st.sampled_from(PRIMES))
    ncols = draw(st.integers(1, 8))
    nrows = draw(st.integers(ncols, 6 * ncols))
    entry = st.integers(0, p - 1)
    if draw(st.booleans()):
        rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols),
                             min_size=nrows, max_size=nrows))
    else:
        # rows * x = 0 for rows = left * right, with right r x ncols, r < ncols
        r = draw(st.integers(0, ncols - 1))
        left = draw(st.lists(st.lists(entry, min_size=r, max_size=r),
                             min_size=nrows, max_size=nrows))
        right = draw(st.lists(st.lists(entry, min_size=ncols,
                                       max_size=ncols),
                              min_size=r, max_size=r))
        rows = [[sum(a * b[j] for a, b in zip(row, right)) % p
                 for j in range(ncols)] for row in left]
    return p, rows, ncols


@settings(max_examples=150, deadline=None)
@given(tall_matrix(), st.randoms(use_true_random=False))
def test_kernel_basis_matches_sympy_rref(case, rng):
    p, rows, ncols = case
    F = FIELDS[p]
    basis = kernel_basis(F, rows, ncols)
    assert basis == oracle_basis(p, rows, ncols)
    assert matrix_rank(F, rows, ncols) == ncols - len(basis)
    shuffled = list(rows)
    rng.shuffle(shuffled)
    assert kernel_basis(F, shuffled, ncols) == basis


@pytest.mark.parametrize("p", PRIMES)
def test_rank_deficient_fixture(p):
    # column 2 = column 0 + column 1, column 3 = 2 * column 0
    rows = [[a, b, (a + b) % p, 2 * a % p]
            for a in range(p) for b in range(p)]
    basis = kernel_basis(FIELDS[p], rows, 4)
    assert basis == oracle_basis(p, rows, 4)
    assert len(basis) == 2

import math
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stencilfa.intlat import (
    det_exact,
    hnf,
    identity_matrix,
    is_integral,
    mat_inv,
    mat_mul,
    rational_reconstruct,
    snf,
)

from oracles import elementary_divisors


def _unimodular(m) -> bool:
    return is_integral(m) and abs(det_exact(m)) == 1


def test_hnf_golden_value():
    res = hnf([[2, 3], [2, -2]])
    assert res.H == [[5, 2], [0, 2]]
    assert _unimodular(res.U)
    assert mat_mul([[2, 3], [2, -2]], res.U) == res.H


def test_hnf_identity():
    res = hnf(identity_matrix(3))
    assert res.H == identity_matrix(3)


def test_hnf_rejects_singular():
    with pytest.raises(ValueError):
        hnf([[1, 2], [2, 4]])


def test_snf_golden_value():
    a = [[2, 3], [2, -2]]
    res = snf(a)
    assert res.S == [[1, 0], [0, 10]]
    assert _unimodular(res.U) and _unimodular(res.V)
    assert mat_mul(mat_mul(res.V, a), res.U) == res.S


def test_snf_diag_4_6():
    # minor-gcd oracle: d1 = gcd(4,6) = 2, d2 = 24, so divisors (2, 12)
    assert elementary_divisors([[4, 0], [0, 6]]) == [2, 12]
    res = snf([[4, 0], [0, 6]])
    assert res.S == [[2, 0], [0, 12]]


def test_unimodular_examples():
    assert _unimodular([[1, 0], [-4, -1]])
    assert not _unimodular([[2, 0], [0, 1]])
    assert not _unimodular([[1, 0], [0, Fraction(1, 2)]])


def test_rational_hnf_scales():
    a = [[Fraction(1, 2), 0], [0, Fraction(3, 4)]]
    res = hnf(a)
    assert mat_mul(a, res.U) == res.H
    assert res.H[1][0] == 0
    assert res.H[0][0] > 0 and res.H[1][1] > 0


def test_rational_reconstruct_simple():
    q = rational_reconstruct([[0.5, 1.0 / 3.0], [-0.25, 2.0]])
    assert q == [[Fraction(1, 2), Fraction(1, 3)], [Fraction(-1, 4), 2]]


def test_rational_reconstruct_irrational_fails():
    with pytest.raises(ValueError, match="lattices not rationally related"):
        rational_reconstruct([[math.pi]])


@pytest.mark.parametrize("value", [math.sqrt(6), 1 / math.sqrt(3), math.sqrt(1999) / 7, math.e])
def test_rational_reconstruct_rejects_irrationals_by_default(value):
    with pytest.raises(ValueError, match="lattices not rationally related"):
        rational_reconstruct([[value]])


def test_mat_inv_round_trip():
    a = [[2, 3], [2, -2]]
    assert mat_mul(a, mat_inv(a)) == identity_matrix(2)


def leibniz_det(a):
    """Determinant as the signed sum over permutations, sign by inversion count."""
    n = len(a)
    total = Fraction(0)
    for p in permutations(range(n)):
        inversions = sum(p[i] > p[j] for i in range(n) for j in range(i + 1, n))
        term = Fraction((-1) ** inversions)
        for i in range(n):
            term *= a[i][p[i]]
        total += term
    return total


small_fraction = st.builds(
    Fraction, st.integers(min_value=-3, max_value=3), st.integers(min_value=1, max_value=3)
)


@st.composite
def rational_3x3(draw):
    a = draw(st.lists(st.lists(small_fraction, min_size=3, max_size=3), min_size=3, max_size=3))
    if draw(st.booleans()):
        # force a singular matrix: the last row is a combination of the first two
        s, t = draw(small_fraction), draw(small_fraction)
        a[2] = [s * x + t * y for x, y in zip(a[0], a[1])]
    return a


@given(rational_3x3())
@example([[0, 1, 0], [Fraction(1, 2), 0, 0], [0, 0, 1]])  # one row swap: det = -1/2
@settings(max_examples=200, deadline=None)
def test_elimination_matches_leibniz(a):
    det = leibniz_det(a)
    assert det_exact(a) == det
    if det == 0:
        with pytest.raises(ValueError, match="singular"):
            mat_inv(a)
    else:
        assert mat_mul(a, mat_inv(a)) == identity_matrix(3)


def test_square_checks_keep_their_messages():
    with pytest.raises(ValueError, match="determinant needs a square matrix"):
        det_exact([[1, 2, 3], [4, 5, 6]])
    with pytest.raises(ValueError, match="inverse needs a square matrix"):
        mat_inv([[1, 2, 3], [4, 5, 6]])


small_int = st.integers(min_value=-9, max_value=9)


def square_matrices(n):
    return st.lists(st.lists(small_int, min_size=n, max_size=n), min_size=n, max_size=n)


@st.composite
def unimodular_matrices(draw, n=2):
    # build from random elementary column operations
    u = identity_matrix(n)
    for _ in range(draw(st.integers(min_value=1, max_value=8))):
        i = draw(st.integers(min_value=0, max_value=n - 1))
        j = draw(st.integers(min_value=0, max_value=n - 1))
        if i == j:
            continue
        q = draw(st.integers(min_value=-3, max_value=3))
        for row in u:
            row[j] += q * row[i]
    if draw(st.booleans()):
        for row in u:
            row[0], row[n - 1] = row[n - 1], row[0]
    return u


@given(square_matrices(2), unimodular_matrices())
@settings(max_examples=150)
def test_hnf_is_column_invariant(a, u):
    if det_exact(a) == 0:
        return
    assert hnf(a).H == hnf(mat_mul(a, u)).H


@given(square_matrices(2))
@settings(max_examples=150)
def test_hnf_shape_invariants(a):
    if det_exact(a) == 0:
        return
    res = hnf(a)
    h = res.H
    assert h[1][0] == 0
    assert all(h[i][j] >= 0 for i in range(2) for j in range(2))
    assert h[0][0] > h[0][1] or (h[0][1] == 0)
    assert abs(det_exact(h)) == abs(det_exact(a))
    assert mat_mul(a, res.U) == h


@given(st.sampled_from([3, 4]).flatmap(square_matrices))
@example([[-1, 0], [0, -110]])  # diagonal already, with negative entries
@example([[6, 0, 0], [0, 10, 0], [0, 0, 15]])  # diagonal, pairs fail to divide
@settings(max_examples=100)
def test_snf_divisibility_chain(a):
    if det_exact(a) == 0:
        return
    n = len(a)
    res = snf(a)
    s = res.S
    assert all(s[i][j] == 0 for i in range(n) for j in range(n) if i != j)
    diag = [s[i][i] for i in range(n)]
    assert all(d > 0 for d in diag)
    assert all(diag[i + 1] % diag[i] == 0 for i in range(n - 1))
    assert mat_mul(mat_mul(res.V, a), res.U) == s
    assert _unimodular(res.U) and _unimodular(res.V)
    assert diag == elementary_divisors(a)

"""Exact normal forms of integer and rational matrices.

Everything in here runs on Python ints and ``fractions.Fraction``, so results
are exact for arbitrarily large entries.  The two normal forms used by the
lattice machinery are

* the (column-style) Hermite normal form  H = A * U,  where U is unimodular,
  H is upper triangular with non-negative entries and the maximum of each row
  on the diagonal, and
* the Smith normal form  S = V * A * U,  where U and V are unimodular and S is
  diagonal with s_1 | s_2 | ... | s_n.

Both forms are unique (the transforms are not) and both accept rational input:
a rational matrix is scaled by the least common multiple d of its entry
denominators, the integer normal form is computed, and the result is scaled
back by 1/d.  The transforms U, V stay integer unimodular either way.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

Entry = int | Fraction
Matrix = list[list[Entry]]


def _as_exact(x) -> Entry:
    if isinstance(x, (int, Fraction)):
        return x
    if hasattr(x, "__index__"):  # numpy integers and friends
        return x.__index__()
    raise TypeError(f"exact matrix routines need int or Fraction entries, got {type(x).__name__}")


def _to_matrix(a) -> Matrix:
    m = [[_as_exact(x) for x in row] for row in a]
    n = len(m)
    if n == 0 or any(len(row) != len(m[0]) for row in m):
        raise ValueError("matrix must be rectangular and non-empty")
    return m


def _simplify(x: Entry) -> Entry:
    if isinstance(x, Fraction) and x.denominator == 1:
        return int(x)
    return x


def identity_matrix(n: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(a, b) -> Matrix:
    a, b = _to_matrix(a), _to_matrix(b)
    if len(a[0]) != len(b):
        raise ValueError("matrix shapes do not match")
    return [
        [_simplify(sum(a[i][k] * b[k][j] for k in range(len(b)))) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def _gauss_jordan(a, needs: str) -> tuple[Fraction, Matrix | None]:
    """Reduce [A | I] to [I | A^-1] on Fractions: (det A, A^-1), or (0, None)."""
    m = [[Fraction(x) for x in row] for row in _to_matrix(a)]
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError(f"{needs} needs a square matrix")
    aug = [row + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(m)]
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if piv is None:
            return Fraction(0), None
        if piv != col:
            aug[col], aug[piv] = aug[piv], aug[col]
            det = -det
        det *= aug[col][col]
        inv = 1 / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * p for x, p in zip(aug[r], aug[col])]
    return det, [row[n:] for row in aug]


def det_exact(a) -> Entry:
    """Exact determinant of a rational matrix, sign included."""
    return _simplify(_gauss_jordan(a, "determinant")[0])


def mat_inv(a) -> Matrix:
    """Exact inverse of a rational matrix."""
    inv = _gauss_jordan(a, "inverse")[1]
    if inv is None:
        raise ValueError("matrix is singular")
    return [[_simplify(x) for x in row] for row in inv]


def is_integral(a) -> bool:
    return all(isinstance(x, int) or (isinstance(x, Fraction) and x.denominator == 1)
               for row in _to_matrix(a) for x in row)


def scaled_integer(m: Matrix) -> tuple[list[list[int]], int]:
    """(d*M, d) with d the least common multiple of the entry denominators."""
    d = lcm(*(x.denominator for row in m for x in row if isinstance(x, Fraction)))
    return [[int(x * d) for x in row] for row in m], d


@dataclass(frozen=True)
class HnfResult:
    """Hermite normal form H together with a unimodular U such that A*U = H."""

    H: Matrix
    U: Matrix


@dataclass(frozen=True)
class SnfResult:
    """Smith normal form S together with unimodular V, U such that V*A*U = S."""

    S: Matrix
    U: Matrix
    V: Matrix


def _swap_cols(m, i, j):
    for row in m:
        row[i], row[j] = row[j], row[i]


def _addmul_col(m, dst, src, q):
    # column_dst -= q * column_src
    for row in m:
        row[dst] -= q * row[src]


def _negate_col(m, j):
    for row in m:
        row[j] = -row[j]


def hnf(a) -> HnfResult:
    """Column-style Hermite normal form of a nonsingular int/rational matrix.

    Works row by row from the bottom: Euclidean column operations collect the
    gcd of the active row into the pivot column, after which entries right of
    each pivot are reduced into [0, pivot).  Deterministic, so the returned U
    is reproducible.
    """
    m = _to_matrix(a)
    n = len(m)
    if len(m[0]) != n:
        raise ValueError("hnf needs a square matrix")
    b, d = scaled_integer(m)
    u = identity_matrix(n)

    for i in range(n - 1, -1, -1):
        while True:
            cols = [j for j in range(i + 1) if b[i][j] != 0]
            if not cols:
                raise ValueError("matrix is singular")
            if len(cols) == 1:
                p = cols[0]
                break
            p = min(cols, key=lambda j: (abs(b[i][j]), j))
            for j in cols:
                if j != p:
                    q = b[i][j] // b[i][p]
                    if q:
                        _addmul_col(b, j, p, q)
                        _addmul_col(u, j, p, q)
        if p != i:
            _swap_cols(b, p, i)
            _swap_cols(u, p, i)
        if b[i][i] < 0:
            _negate_col(b, i)
            _negate_col(u, i)

    # reduce entries right of each diagonal into [0, diag); bottom row first so
    # finished rows are never touched again
    for i in range(n - 1, -1, -1):
        for j in range(i + 1, n):
            q = b[i][j] // b[i][i]
            if q:
                _addmul_col(b, j, i, q)
                _addmul_col(u, j, i, q)

    h = [[_simplify(Fraction(x, d)) for x in row] for row in b]
    return HnfResult(H=h, U=u)


def _transpose(m) -> Matrix:
    return [list(col) for col in zip(*m)]


def _is_diagonal(m) -> bool:
    return all(x == 0 for i, row in enumerate(m) for j, x in enumerate(row) if i != j)


def snf(a) -> SnfResult:
    """Smith normal form from alternating Hermite forms.

    A column round replaces B by its Hermite form B*U, a row round by V*B,
    the transpose of the Hermite form of B^T.  The rounds alternate until B
    is diagonal, starting with a column round even for a diagonal input, so
    that every diagonal entry is positive.  Each diagonal pair (x, y) with x
    not dividing y then becomes (gcd, lcm) by the unimodular steps
    [[s, t], [-y/g, x/g]] on the rows and [[1, -t*y/g], [1, s*x/g]] on the
    columns, where s*x + t*y = g = gcd(x, y).
    """
    m = _to_matrix(a)
    n = len(m)
    if len(m[0]) != n:
        raise ValueError("snf needs a square matrix")
    b, d = scaled_integer(m)
    u = identity_matrix(n)
    v = identity_matrix(n)

    while True:
        res = hnf(b)
        b, u = res.H, mat_mul(u, res.U)
        if _is_diagonal(b):
            break
        res = hnf(_transpose(b))
        b, v = _transpose(res.H), mat_mul(_transpose(res.U), v)
        if _is_diagonal(b):
            break

    for i in range(n):
        for j in range(i + 1, n):
            x, y = b[i][i], b[j][j]
            g = gcd(x, y)
            if g == x:
                continue
            s = pow(x // g, -1, y // g)
            t = (g - s * x) // y
            b[i][i], b[j][j] = g, x * y // g
            v[i], v[j] = ([s * p + t * q for p, q in zip(v[i], v[j])],
                          [(x * q - y * p) // g for p, q in zip(v[i], v[j])])
            for row in u:
                row[i], row[j] = row[i] + row[j], (s * x * row[j] - t * y * row[i]) // g

    return SnfResult(S=[[_simplify(Fraction(x, d)) for x in row] for row in b], U=u, V=v)


def rational_reconstruct(x) -> Matrix:
    """Reconstruct exact rationals from a float matrix, entry by entry.

    Each entry f is replaced by the best rational approximation p/q with
    q <= 3000 (continued-fraction expansion as done by
    ``Fraction.limit_denominator``).  A candidate is accepted only when it
    sits within 1e-12 * max(1, |f|) AND within the unique-reconstruction
    zone 1/(2*q*3000).  Callers rely on the raised error to detect
    incommensurable lattice pairs, so both are tight (q <= 10^6 within 1e-9
    passes about half of all floats); a relation that needs a larger q is
    reported as not rationally related.
    """
    out: Matrix = []
    for row in x:
        new_row: list[Entry] = []
        for val in row:
            f = float(val)
            approx = Fraction(f).limit_denominator(3000)
            gate = min(1e-12 * max(1.0, abs(f)), 0.5 / (approx.denominator * 3000))
            if abs(float(approx) - f) > gate:
                raise ValueError("lattices not rationally related")
            new_row.append(_simplify(approx))
        out.append(new_row)
    return out

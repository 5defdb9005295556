"""Brute-force reference computations used to pin expected test values.

Nothing in here imports the package under test; every function recomputes its
answer from first principles (minors, residue counting, characteristic
polynomials) so the main library can be checked against an independent path.
The one exception, ``symbol_at_rationals``, computes nothing of its own: it
only adapts exact rational frequencies to the library's call form.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from itertools import combinations, product
from math import floor, gcd, lcm, pi
from operator import index
from types import SimpleNamespace

import numpy as np


def _minor_det(m, rows, cols):
    sub = [[m[r][c] for c in cols] for r in rows]
    k = len(rows)
    if k == 1:
        return sub[0][0]
    det = 0
    for j in range(k):
        minor = [row[:j] + row[j + 1:] for row in sub[1:]]
        det += (-1) ** j * sub[0][j] * _minor_det_square(minor)
    return det


def _minor_det_square(m):
    k = len(m)
    if k == 0:
        return 1
    if k == 1:
        return m[0][0]
    det = 0
    for j in range(k):
        minor = [row[:j] + row[j + 1:] for row in m[1:]]
        det += (-1) ** j * m[0][j] * _minor_det_square(minor)
    return det


def elementary_divisors(m) -> list[int]:
    """Smith diagonal of an integer matrix via gcds of k x k minors.

    d_k = gcd of all k x k minors, s_k = d_k / d_{k-1}.  Exponential in the
    size, fine for the tiny matrices used in tests.
    """
    n = len(m)
    idx = range(n)
    dk_prev = 1
    out = []
    for k in range(1, n + 1):
        g = 0
        for rows in combinations(idx, k):
            for cols in combinations(idx, k):
                g = gcd(g, abs(_minor_det(m, rows, cols)))
        out.append(g // dk_prev if dk_prev else 0)
        dk_prev = g
    return out


def intersection_determinant(a, b) -> Fraction:
    """|det| of the intersection of two rational lattices, by residue counting.

    A point A*j lies in L(B) iff Q*j is integral for Q = B^-1 A.  The set of
    such j is a sublattice J of Z^n containing d*Z^n for d = lcm of the
    denominators of Q, so counting the residues of J inside (Z/dZ)^n gives the
    index of J and with it the determinant of the intersection lattice A*J.
    With the integer matrix P = d*Q, j is counted when P*j = 0 mod d; the
    count runs over the whole grid [0, d)^n at once.
    """
    a = [[Fraction(x) for x in row] for row in a]
    b = [[Fraction(x) for x in row] for row in b]
    n = len(a)
    q = _matmul(_invert(b), a)
    d = lcm(*(x.denominator for row in q for x in row))
    p = np.array([[int(x * d) % d for x in row] for row in q], dtype=np.int64)
    grid = np.indices((d,) * n).reshape(n, -1)
    count = int(np.all(p @ grid % d == 0, axis=0).sum())
    det_a = abs(_det(a))
    return det_a * d**n / count


def _invert(m):
    n = len(m)
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(m)]
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * p for x, p in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def _matmul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
            for i in range(len(a))]


def _det(m):
    m = [row[:] for row in m]
    n = len(m)
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = -det
        det *= m[col][col]
        for r in range(col + 1, n):
            if m[r][col] != 0:
                f = m[r][col] / m[col][col]
                for c in range(col, n):
                    m[r][c] -= f * m[col][c]
    return det


def fraction_symbol_at(l, num, den=1) -> np.ndarray:
    """The symbol of l at k_frac = num/den by the plain formula: exact
    Fraction phases per offset, each reduced mod 1 to a turn t, taken as the
    quarter turn i**q of q = floor(4t) times the exp of the rest 4t - q of
    a quarter turn, rounded once, and summed from zero in ``multipliers``
    order.  Takes symbol_at's arguments."""
    k_frac = tuple(Fraction(f) / den for f in num)
    mat = np.zeros(l.shape, dtype=complex)
    for off, m in l.multipliers.items():
        t = sum(f * o for f, o in zip(k_frac, off))
        t = t - floor(t)
        q = floor(4 * t)
        mat = mat + m * ((1, 1j, -1, -1j)[q] * np.exp(0.5j * pi * float(4 * t - q)))
    return mat


def cumsum_symbol_at(l, num, den) -> np.ndarray:
    """The symbol of l at num/den by the np.cumsum formula, the bits
    symbol_at and symbols keep: exact integer residues r = <num, j> mod den,
    each a quarter turn i**(4r // den) times the exp of the turn
    (4r mod den) / den, one exp over all offsets, and the stacked terms
    summed one after another in ``multipliers`` order, + 0.0.
    np.add.reduce would not give these bits: on a 1x1 operator it sums the
    terms pairwise."""
    num, den = [index(x) for x in num], index(den)
    offsets = list(l.multipliers)
    if not offsets:
        return np.zeros(l.shape, dtype=complex)
    stack = np.array([l.multipliers[off] for off in offsets], dtype=complex)
    quarters, rest = np.divmod([4 * (sum(o * x for o, x in zip(off, num)) % den) for off in offsets], den)
    phases = np.array([1, 1j, -1, -1j])[quarters] * np.exp(0.5j * pi * (rest / den))
    return np.cumsum(stack * phases[:, None, None], axis=0)[-1] + 0.0


def symbol_at_rationals(l, k) -> np.ndarray:
    """The library's symbol_at at the exact rationals k (Fractions or ints),
    put over their least common denominator."""
    from stencilfa.symbol import symbol_at

    k = [Fraction(f) for f in k]
    den = lcm(*(f.denominator for f in k))
    return symbol_at(l, [f.numerator * (den // f.denominator) for f in k], den)


def k_fracs(samples) -> list[tuple[Fraction, ...]]:
    """The exact k_frac of every sample of a DualTorus: each row's
    numerators over its denominator, as Fractions."""
    return [tuple(Fraction(x, samples.den) for x in num) for num in samples.num.tolist()]


def fraction_k_phys(dual_basis, num, den) -> np.ndarray:
    """The physical wave vector of one sample the per-sample way: each exact
    fraction num[i]/den rounded to a float, then one product with the dual
    basis (columns = dual primitive vectors)."""
    return dual_basis @ np.array([float(Fraction(n, den)) for n in num])


def quotient_listing(rel) -> list[tuple[int, ...]]:
    """The residue classes of Z^n / rel*Z^n in the canonical listing: the
    mixed-radix digits over the diagonal of the column Hermite form H = rel*U
    (upper triangular), first coordinate fastest, one tuple per class.  The
    diagonal comes from minors alone: column operations keep the gcd of the
    k x k minors within any k rows, so the product of the last k diagonal
    entries is the gcd of those minors in the last k rows of rel."""
    n = len(rel)
    g = [1] + [
        reduce(gcd, (abs(_minor_det(rel, range(n - k, n), cols))
                     for cols in combinations(range(n), k)))
        for k in range(1, n + 1)
    ]
    diag = [g[n - i] // g[n - i - 1] for i in range(n)]
    return [digits[::-1] for digits in product(*(range(h) for h in reversed(diag)))]


def inverse_denominator(m) -> int:
    """The least common multiple of the denominators of the exact M^-1."""
    return lcm(*(x.denominator for row in _invert(m) for x in row))


def per_sample_numerators(m, reps) -> list[tuple[int, ...]]:
    """Dual-torus numerators the per-sample way: with d = |det M| and the
    exact integer matrix d*M^-T, one Python inner product per listed
    representative j of Z^n / M^T Z^n, each reduced mod d.  reps is that
    listing, passed in."""
    mt = [[Fraction(x) for x in col] for col in zip(*m)]
    d = abs(int(_det(mt)))
    num = [[int(x * d) for x in row] for row in _invert(mt)]
    return [tuple(sum(a * b for a, b in zip(row, j)) % d for row in num) for j in reps]


def per_sample_spectrum(expr, named, samples, symbol_at):
    """A spectrum the per-sample way: for each sample, every operator's
    symbol, one walk over the 2-D matrices and one eigvals call, eigenvalues
    sorted by (re, im); rho is the running max of their moduli.  named maps
    identifiers to operators already on their common lattice; symbol_at is
    passed in and called on each row of the DualTorus ``samples``.  Returns
    (one eigenvalue tuple per sample, rho)."""
    eigs = []
    for num in samples.num.tolist():
        value = expr.eval_matrices(
            {name: symbol_at(op, num, samples.den) for name, op in named.items()}
        )
        evs = [complex(v) for v in np.linalg.eigvals(value)]
        eigs.append(tuple(sorted(evs, key=lambda z: (z.real, z.imag))))
    rho = 0.0
    for row in eigs:
        for ev in row:
            rho = max(rho, abs(ev))
    return eigs, rho


def charpoly_eigenvalues(m) -> np.ndarray:
    """Eigenvalues through characteristic-polynomial roots (Faddeev-LeVerrier).

    Numerically sane only for very small matrices; tests keep it at n <= 4.
    """
    a = np.asarray(m, dtype=complex)
    n = a.shape[0]
    coeffs = [1.0 + 0j]
    mk = np.zeros_like(a)
    for k in range(1, n + 1):
        mk = a @ mk + coeffs[-1] * np.eye(n)
        ck = -(a @ mk).trace() / k
        coeffs.append(ck)
    return np.roots(np.array(coeffs))


def pair_eigenvalues(left, right) -> float:
    """Greedy closest-pair matching distance between two eigenvalue multisets.

    Returns the largest distance in a greedy perfect matching.  A small result
    certifies the multisets agree to that tolerance; used instead of plain
    sorting so that conjugate pairs with equal real parts cannot be mispaired
    by floating-point ordering noise.
    """
    xs = list(np.asarray(left, dtype=complex))
    ys = list(np.asarray(right, dtype=complex))
    assert len(xs) == len(ys), "eigenvalue counts differ"
    worst = 0.0
    for x in sorted(xs, key=lambda z: (z.real, z.imag)):
        j = min(range(len(ys)), key=lambda i: abs(ys[i] - x))
        worst = max(worst, abs(ys[j] - x))
        ys.pop(j)
    return worst


def greedy_spectrum_distance(eigs_a, eigs_b) -> float:
    """The plain-loop form of the package's spectrum_distance: values of a by
    descending modulus, each paired with the first closest remaining value of
    b by Python's complex abs, or with the first remaining value at a NaN gap
    if there is one (the choice np.argmin makes); the largest gap is
    returned, NaN gaps never raising it."""
    a = [complex(e) for e in eigs_a]
    b = [complex(e) for e in eigs_b]
    if len(a) != len(b):
        raise ValueError(f"eigenvalue counts differ: {len(a)} vs {len(b)}")
    rest = list(b)
    worst = 0.0
    for e in sorted(a, key=lambda z: (-abs(z), z.real, z.imag)):
        gaps = [abs(r - e) for r in rest]
        nan = [i for i, g in enumerate(gaps) if g != g]
        nearest = nan[0] if nan else min(range(len(rest)), key=gaps.__getitem__)
        worst = max(worst, gaps[nearest])
        rest.pop(nearest)
    return worst


def per_point_assemble_dense(l, qm) -> np.ndarray:
    """The dense torus matrix of l the per-point way: for each torus point
    and each offset in ``multipliers`` order, the target point's residue is
    looked up and the multiplier added into that block.  qm is the torus
    QuotientMap, passed in."""
    reps = [tuple(rep) for rep in qm.reps.tolist()]
    n_pts = len(reps)
    mc, md = l.shape
    out = np.zeros((n_pts * mc, n_pts * md), dtype=complex)
    for i, rep in enumerate(reps):
        for off, mat in l.multipliers.items():
            x = tuple(r + o for r, o in zip(rep, off))
            j = reps.index(tuple(qm.residue([x])[0]))
            out[i * mc:(i + 1) * mc, j * md:(j + 1) * md] += mat
    return out


def torus_triples(matrix, quotient=None) -> SimpleNamespace:
    """A dense array in the triple form the oracle's dense_spectrum and
    translation_residual read: the nonzeros' rows, cols and values in
    row-major order, the array's shape, and the torus QuotientMap, passed
    in.  An array of any rank is read as rows of its last axis, so its
    shape still reaches the callee's check."""
    matrix = np.asarray(matrix)
    flat = np.flatnonzero(matrix)
    rows, cols = np.divmod(flat, matrix.shape[-1])
    return SimpleNamespace(
        rows=rows, cols=cols, values=matrix.ravel()[flat], shape=matrix.shape, quotient=quotient
    )


def narrowest_eigvals(block) -> list[complex]:
    """Eigenvalues of one square matrix from the narrowest exact LAPACK
    driver: real input when no entry has an imaginary part, eigvalsh when
    the matrix equals its conjugate transpose, eigvals otherwise."""
    block = np.asarray(block)
    if np.all(block.imag == 0):
        block = block.real
    if np.array_equal(block, block.conj().T):
        return [complex(v) for v in np.linalg.eigvalsh(block)]
    return [complex(v) for v in np.linalg.eigvals(block)]


def bfs_dense_spectrum(matrix) -> list[complex]:
    """Eigenvalues of a square matrix one connected block at a time: a BFS
    over boolean rows of the symmetrized nonzero pattern, started at the
    smallest unseen index, then one narrowest_eigvals call on the block's
    ascending indices."""
    matrix = np.asarray(matrix)
    nonzero = matrix != 0
    linked = nonzero | nonzero.T
    unseen = np.ones(len(matrix), dtype=bool)
    eigs: list[complex] = []
    while unseen.any():
        block = np.zeros_like(unseen)
        frontier = block.copy()
        frontier[np.argmax(unseen)] = True
        while frontier.any():
            block |= frontier
            frontier = linked[frontier].any(axis=0) & ~block
        unseen &= ~block
        idx = np.flatnonzero(block)
        eigs.extend(narrowest_eigvals(matrix[np.ix_(idx, idx)]))
    return eigs


def where_pinv_matrix(m, zero_tol=float(np.finfo(float).eps) ** (2.0 / 3.0)):
    """The pseudo-inverse the two-np.where way: the SVD of m, the zero
    matrix when the largest singular value is at or below zero_tol, else
    1/s for the singular values above max(shape) * eps times the largest
    and 0 for the rest."""
    m = np.asarray(m, dtype=complex)
    if m.size == 0:
        return m.T.copy()
    u, s, vh = np.linalg.svd(m, full_matrices=False)
    if s.size == 0 or s[0] <= zero_tol:
        return np.zeros_like(m.T)
    rank_tol = max(m.shape) * np.finfo(float).eps
    inv = np.where(s > rank_tol * s[0], 1.0 / np.where(s == 0, 1.0, s), 0.0)
    return (vh.conj().T * inv) @ u.conj().T


def fraction_inverse(m) -> np.ndarray:
    """The inverse of a nonsingular 1x1 or 2x2 complex matrix of floats in
    exact (Fraction, Fraction) arithmetic, the adjugate over the determinant,
    each entry rounded to a float once at the end."""
    m = np.asarray(m, dtype=complex)
    z = [(Fraction(c.real), Fraction(c.imag)) for c in m.ravel().tolist()]

    def times(p, q):
        return (p[0] * q[0] - p[1] * q[1], p[0] * q[1] + p[1] * q[0])

    def neg(p):
        return (-p[0], -p[1])

    if len(z) == 1:
        det, adj = z[0], [(Fraction(1), Fraction(0))]
    else:
        a, b, c, d = z
        ad, bc = times(a, d), times(b, c)
        det, adj = (ad[0] - bc[0], ad[1] - bc[1]), [d, neg(b), neg(c), a]
    norm = det[0] ** 2 + det[1] ** 2
    inv_det = (det[0] / norm, -det[1] / norm)
    out = [times(e, inv_det) for e in adj]
    return np.array([complex(float(re), float(im)) for re, im in out]).reshape(m.shape)


def pairwise_match_congruent(old_pts, new_pts):
    """Match each old point to an unused new point differing by an integer vector.

    Returns a list of (new_index, shift) pairs indexed by old position, where
    shift = old_point - new_point is the integral coordinate difference.
    Tries every unused new point against each old one, lowest index first.
    """
    if len(old_pts) != len(new_pts):
        raise ValueError("structure elements not congruent")
    used = [False] * len(new_pts)
    out = []
    for sp in old_pts:
        hit = None
        for q, up in enumerate(new_pts):
            if used[q]:
                continue
            diff = tuple(a - b for a, b in zip(sp, up))
            if all(d.denominator == 1 for d in diff):
                hit = (q, tuple(int(d) for d in diff))
                break
        if hit is None:
            raise ValueError("structure elements not congruent")
        used[hit[0]] = True
        out.append(hit)
    return out

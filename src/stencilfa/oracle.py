"""Dense torus assembly: the brute-force cross-check for the symbol machinery.

Any multiplication operator can be materialized as one big matrix on the
finite torus L(A)/L(Z) with Z = A*M.  Rows and columns are indexed by
(torus point, structure index) with the structure index fastest and torus
points in the canonical quotient listing.  The union of the symbol spectra
over the sampled dual torus must equal the spectrum of this matrix, which is
what the high-level tests assert; none of the frequency-space code is used
to build it.

Beyond one scan of a matrix for its nonzeros, only the eigenvalues of its
connected blocks take whole-block arithmetic.  Assembly maps all torus
points along an offset with one QuotientMap.indices call and adds the
multiplier into all its blocks at once.
translation_residual takes the commutator norm over the nonzeros of the
matrix and of its translate.  dense_spectrum splits the matrix into the
connected components of its symmetrized nonzero pattern and solves each
block with the narrowest exact LAPACK driver: real geev or syevd for a
block without imaginary parts, heevd for an exactly Hermitian one, complex
geev otherwise, one stacked call per block size and driver.  The wave-basis
Gram check is taken on the (samples, points) phase matrix the basis is
built from.  Assembly and the block split give the whole-matrix answer bit
for bit, the norms and the spectrum agree with it to rounding.
spectrum_distance matches over the distinct values of its second list.

Sizes are deliberately capped (|det M| <= 10^4 block rows): this module is
for desk-scale verification, not production runs.
"""

from __future__ import annotations

from itertools import groupby
from math import pi

import numpy as np

from .crystal import Lattice, QuotientMap, StructureElement, integer_resolution, sample_dual_torus
from .operator import MultiplicationOperator, make_compatible

DENSE_CAP = 10**4

_QUARTER_TURNS = np.array([1, 1j, -1, -1j])


def _torus_quotient(a: Lattice, m) -> QuotientMap:
    mm, count = integer_resolution(a, m)
    if count > DENSE_CAP:
        raise ValueError(f"torus too large for dense assembly (|det M| = {count} > {DENSE_CAP})")
    return QuotientMap(mm)


def assemble_dense(l: MultiplicationOperator, m) -> np.ndarray:
    """Dense matrix of L on the torus with Z = A*M.

    Block (i, j) accumulates every multiplier whose offset connects torus
    point i to torus point j modulo L(Z); periodic wrap-around merges offsets
    that become equivalent on the finite torus.  An offset's point map is
    the listing index of every representative plus the offset's residue,
    and each multiplier is added into all its blocks at once, offsets in
    ``multipliers`` order, so every block sums in that order.
    """
    qm = _torus_quotient(l.lattice, m)
    reps = np.array(qm.reps)
    n_pts = len(reps)
    mc, md = l.shape
    out = np.zeros((n_pts, mc, n_pts, md), dtype=complex)
    points = np.arange(n_pts)
    for off, mat in l.multipliers.items():
        # residue reduces the offset in Python ints, so any offset is exact
        target = qm.indices(reps + qm.residue(off))
        # (i, target[i]) are distinct pairs, so the buffered += is exact
        out[points, :, target, :] += mat
    return out.reshape(n_pts * mc, n_pts * md)


def _nonzeros(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices of a 2-D matrix's nonzeros in row-major order.

    Same as np.nonzero, which is ten times slower on an 800x800 mask than a
    flat search split by divmod."""
    return np.divmod(np.flatnonzero(matrix != 0), matrix.shape[1])


def dense_spectrum(matrix: np.ndarray) -> list[complex]:
    """Eigenvalues of a square matrix, taken block by connected block.

    Indices i and j are linked when A[i, j] or A[j, i] is nonzero.  A
    symmetric permutation onto the connected components makes A block
    diagonal, and the spectrum of a block-diagonal matrix is the union of its
    blocks' spectra, so this is exact; it only skips the cubic work across
    blocks that never couple (a block smoother's torus matrix splits into
    many small ones).  Components are found by min-label propagation over the
    nonzeros.  Each block goes to the narrowest LAPACK driver its entries
    allow, decided by exact tests: a block without imaginary parts is passed
    as real, and a block equal to its conjugate transpose goes to eigvalsh
    (syevd/heevd), any other to eigvals (geev).  The blocks of one size and
    driver share one stacked call.  The values come per component in order
    of its smallest index, each component's in its driver's order for the
    block on its ascending indices (ascending for eigvalsh).
    """
    matrix = np.asarray(matrix)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError("dense spectrum needs a square matrix")
    rows, cols = _nonzeros(matrix)
    # labels[i] stays an index of i's component and never grows; at the
    # fixed point it is the smallest index of the component
    labels = np.arange(len(matrix))
    while True:
        new = labels.copy()
        np.minimum.at(new, rows, labels[cols])
        np.minimum.at(new, cols, labels[rows])
        new = new[new]
        if np.array_equal(new, labels):
            break
        labels = new
    order = np.argsort(labels, kind="stable")
    sizes = np.unique(labels, return_counts=True)[1]
    starts = np.cumsum(sizes) - sizes
    per_block: list[list[complex]] = [[] for _ in sizes]
    for size in np.unique(sizes):
        which = np.flatnonzero(sizes == size)
        idx = order[starts[which, None] + np.arange(size)]
        blocks = matrix[idx[:, :, None], idx[:, None, :]]
        real = ~blocks.imag.any(axis=(1, 2))
        hermitian = (blocks == blocks.conj().swapaxes(1, 2)).all(axis=(1, 2))
        for is_real in (True, False):
            for is_hermitian in (True, False):
                pick = (real == is_real) & (hermitian == is_hermitian)
                if not pick.any():
                    continue
                stack = blocks[pick].real if is_real else blocks[pick]
                solve = np.linalg.eigvalsh if is_hermitian else np.linalg.eigvals
                for k, vals in zip(which[pick], solve(stack).astype(complex, copy=False).tolist()):
                    per_block[k] = vals
    return [v for vals in per_block for v in vals]


def wave_basis(a: Lattice, m, se: StructureElement) -> list[np.ndarray]:
    """Orthonormal wave vectors on the torus listing, k outer, position inner.

    The vector for (k, l) carries exp(+2*pi*i*<k_frac, x>) at structure slot l
    of every torus point x and zero elsewhere; it is normalized with respect
    to the averaged inner product <f, g> = (1/|T|) sum conj(f) g.  Every
    k_frac is K/d for the integer row K = sample.num over d = |det M|, so the
    phase is taken from the exact residue p = (K.x) mod d: i^(4p // d) times
    exp(i*pi/2 * (4p mod d)/d), exact at every multiple of a quarter turn.
    """
    return list(np.kron(_wave_phases(a, m), np.eye(len(se))))


def _wave_phases(a: Lattice, m) -> np.ndarray:
    """(samples, torus points) matrix P of exp(+2*pi*i*<k_frac, x>);
    wave_basis(a, m, se) is the rows of kron(P, I_|se|)."""
    qm = _torus_quotient(a, m)
    samples = sample_dual_torus(a, m)
    d = samples[0].den
    k_num = np.array([s.num for s in samples])
    quarters, rest = np.divmod(4 * (k_num @ np.array(qm.reps).T % d), d)
    return _QUARTER_TURNS[quarters] * np.exp(0.5j * pi * rest / d)


def wave_gram_residual(a: Lattice, m) -> float:
    """max |G - I| for the averaged Gram matrix G of wave_basis(a, m, se).

    The basis is kron(P, I_|se|) for the phase matrix P, so its Gram matrix
    is kron(conj(P) P^T / |T|, I_|se|) and the residual is the same for every
    structure element; it is taken on the (samples, samples) factor.
    """
    p = _wave_phases(a, m)
    gram = p.conj() @ p.T / p.shape[1]
    return float(np.abs(gram - np.eye(len(p))).max())


def translation_residual(matrix: np.ndarray, a: Lattice, m, shape: tuple[int, int]) -> float:
    """Max Frobenius commutator norm of a dense torus matrix with the
    primitive translations; shape gives the (codomain, domain) block sizes.

    With T the block permutation of one primitive step, ||A T - T A|| equals
    ||A - T A T^-1||, and T A T^-1 is A with rows and columns re-indexed.
    Both are zero away from A's nonzeros and their re-indexed images, so the
    norm is taken over those positions only.
    """
    qm = _torus_quotient(a, m)
    n_pts = len(qm.reps)
    mc, md = shape
    expected = (n_pts * mc, n_pts * md)
    matrix = np.asarray(matrix)
    if matrix.shape != expected:
        raise ValueError(
            f"torus matrix has shape {matrix.shape}, expected {expected} "
            f"for {n_pts} torus points and blocks {shape}"
        )
    nz_rows, nz_cols = _nonzeros(matrix)
    values = matrix[nz_rows, nz_cols]
    worst = 0.0
    for step in np.eye(qm.n, dtype=np.int64):
        perm = qm.indices(np.array(qm.reps) + step)
        rows = (perm[:, None] * mc + np.arange(mc)).ravel()
        cols = (perm[:, None] * md + np.arange(md)).ravel()
        # T A T^-1 holds A[rows[x], cols[y]] at (x, y): the gaps at A's
        # nonzeros, then the images that land where A is zero
        moved = matrix[np.argsort(rows)[nz_rows], np.argsort(cols)[nz_cols]]
        gaps = np.concatenate([values - matrix[rows[nz_rows], cols[nz_cols]], values[moved == 0]])
        worst = max(worst, float(np.linalg.norm(gaps)))
    return worst


def eval_dense(expr, env, m) -> np.ndarray:
    """Evaluate an expression on dense torus matrices (independent route).

    The operators are rewritten on their common lattice first, exactly like
    compute_spectrum does, then each is assembled on the torus Z = C*M and the
    expression is evaluated on the big matrices, pseudo-inverses included.
    """
    names = list(env)
    if not names:
        raise ValueError("expression environment is empty")
    compatible = make_compatible([env[name] for name in names])
    denses = {name: assemble_dense(op, m) for name, op in zip(names, compatible)}
    return expr.eval_matrices(denses)


def spectrum_distance(eigs_a, eigs_b) -> float:
    """Largest gap in a greedy matching of two eigenvalue lists.

    Sorting by (re, im) and zipping is unstable for conjugate pairs whose real
    parts agree to rounding, so the values of eigs_a are taken in order of
    decreasing modulus (ties by re, then im) and each is paired with its
    nearest remaining value of eigs_b, the first one in list order on ties
    (the first NaN gap, if any, as np.argmin picks).  Gaps are taken with
    hypot, which is what abs of a Python complex computes.

    The matching runs over the distinct values of eigs_b, each with a count
    of copies left: copies of one value leave in list order, so a run of
    equal values of eigs_a takes its gaps once and, while the nearest live
    value is unique, as many of that value's copies as it needs in one step.
    An exact tie between different values takes one copy at a time from the
    value whose next copy comes first in eigs_b.  0.0 and -0.0 are one value,
    with the same gap to everything.  Ties and the result are those of a loop
    over Python's abs, bit for bit.
    """
    a = [complex(e) for e in eigs_a]
    b = np.array([complex(e) for e in eigs_b], dtype=complex)
    if len(a) != len(b):
        raise ValueError(f"eigenvalue counts differ: {len(a)} vs {len(b)}")
    # equal_nan=False: a NaN value is its own value, as in the loop
    values, first, inverse, counts = np.unique(
        b, return_index=True, return_inverse=True, return_counts=True, equal_nan=False
    )
    # distinct values in order of their first copy in eigs_b, so that argmin
    # breaks a tie the loop's way while no tied value has lost a copy
    by_first = np.argsort(first)
    re, im = values.real[by_first], values.imag[by_first]
    # value u's next copy is at list position copies[start[u] + used[u]]
    copies = np.argsort(inverse, kind="stable").tolist()
    start = (np.cumsum(counts) - counts)[by_first].tolist()
    counts = counts[by_first].tolist()
    used = [0] * len(counts)
    dead = np.zeros(len(counts), dtype=bool)
    worst = 0.0
    # inf - inf makes a NaN gap, which is chosen as np.argmin chooses it
    with np.errstate(invalid="ignore"):
        for e, equal in groupby(sorted(a, key=lambda z: (-abs(z), z.real, z.imag))):
            run = len(list(equal))
            gaps = np.hypot(re - e.real, im - e.imag)
            # a used-up value is never nearest: its inf gap can only tie, and
            # ties are settled among live values
            gaps[dead] = np.inf
            while run:
                nearest = int(gaps.argmin())
                gap = gaps.item(nearest)
                if run > 1 or used[nearest] or gap == np.inf:
                    tied = np.flatnonzero(gaps == gap if gap == gap else np.isnan(gaps))
                    if len(tied) > 1:
                        # one copy from the value whose next copy comes first
                        nearest = min(
                            (u for u in tied.tolist() if not dead[u]),
                            key=lambda u: copies[start[u] + used[u]],
                        )
                        take = 1
                    else:
                        take = min(run, counts[nearest] - used[nearest])
                else:
                    # nearest has lost no copy, so a value tied with it comes
                    # later in first-copy order and its next copy later in eigs_b
                    take = 1
                used[nearest] += take
                run -= take
                worst = max(worst, gap)
                if used[nearest] == counts[nearest]:
                    dead[nearest] = True
                    gaps[nearest] = np.inf
    return worst

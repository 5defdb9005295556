"""Torus assembly: the brute-force cross-check for the symbol machinery.

Any multiplication operator can be materialized as one big matrix on the
finite torus L(A)/L(Z) with Z = A*M.  Rows and columns are indexed by
(torus point, structure index) with the structure index fastest and torus
points in the canonical quotient listing.  The union of the symbol spectra
over the sampled dual torus must equal the spectrum of this matrix, which is
what the high-level tests assert; none of the frequency-space code is used
to build it.

The matrix is kept as its nonzero triples (TorusTriples: rows, cols and
values in row-major order), so only a connected block is ever held dense;
``dense()`` gives the whole matrix when a caller wants it.  Assembly reduces
all offsets in one exact QuotientMap.residue call, merges offsets with one
residue (they land on the same blocks at every point) and maps all torus
points along each with one QuotientMap.indices call.  translation_residual
takes the commutator norm over the nonzeros of the matrix and of its
translate, found by sorted-key lookup.
dense_spectrum splits the matrix into the connected components of its
symmetrized nonzero pattern, scatters each component's triples into a
dense block and solves each block with the narrowest exact LAPACK driver:
real geev or syevd for a block without imaginary parts, heevd for an
exactly Hermitian one, complex geev otherwise, one stacked call per block
size and driver.  The wave-basis Gram check is taken on the (samples,
points) phase matrix of a listing and torus the caller already holds.  The
assembled matrix and the residual are those of a dense per-offset assembly
bit for bit, and the blocks are its diagonal blocks; their spectrum agrees
with the whole matrix's to rounding.  spectrum_distance matches over the
distinct values of its second list.

Sizes are deliberately capped (|det M| <= 10^4 block rows): this module is
for desk-scale verification, not production runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from math import pi

import numpy as np

from .crystal import (
    DualTorus,
    Lattice,
    QuotientMap,
    StructureElement,
    TorusTooLargeError,
    integer_resolution,
    sample_dual_torus,
)
from .operator import MultiplicationOperator, make_compatible

DENSE_CAP = 10**4

_QUARTER_TURNS = np.array([1, 1j, -1, -1j])


def _torus_quotient(a: Lattice, m) -> QuotientMap:
    mm, count = integer_resolution(a, m)
    if count > DENSE_CAP:
        raise TorusTooLargeError(f"torus too large for dense assembly (|det M| = {count} > {DENSE_CAP})")
    return QuotientMap(mm)


@dataclass(frozen=True)
class TorusTriples:
    """A torus operator's matrix as its nonzero (row, col, value) triples.

    ``rows`` and ``cols`` are int64 and ``values`` complex, read-only, in
    row-major order with one entry per position and no exact zeros;
    ``shape`` is the matrix shape and ``quotient`` the torus QuotientMap
    whose listing orders the block rows and columns.
    """

    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray
    shape: tuple[int, int]
    quotient: QuotientMap

    def dense(self) -> np.ndarray:
        """The whole matrix, zero away from the triples."""
        out = np.zeros(self.shape, dtype=complex)
        out[self.rows, self.cols] = self.values
        return out


def assemble_dense(l: MultiplicationOperator, m) -> TorusTriples:
    """The matrix of L on the torus with Z = A*M, as nonzero triples.

    Block (i, j) accumulates every multiplier whose offset connects torus
    point i to torus point j modulo L(Z); periodic wrap-around merges offsets
    that become equivalent on the finite torus.  Offsets with the same
    residue connect the same blocks at every point, so their multipliers are
    summed onto +0.0 in ``multipliers`` order (ascending offsets), as a
    dense += per offset would sum each block, and entries that cancel to
    exactly zero are dropped.  A residue's point map is the listing index of
    every representative plus the residue.
    """
    qm = _torus_quotient(l.lattice, m)
    reps = qm.reps
    n_pts = len(reps)
    mc, md = l.shape
    merged: dict[tuple[int, ...], np.ndarray] = {}
    # the offsets are reduced in Python ints, so any offset is exact
    for r, mat in zip(map(tuple, qm.residue(list(l.multipliers)).tolist()), l.multipliers.values()):
        if r not in merged:
            merged[r] = np.zeros((mc, md), dtype=complex)
        merged[r] += mat
    shape = (n_pts * mc, n_pts * md)
    points = np.arange(n_pts)[:, None]
    parts = [(np.empty(0, dtype=np.int64),) * 2 + (np.empty(0, dtype=complex),)]
    for r, mat in merged.items():
        target = qm.indices(reps + r)[:, None]
        a, b = np.nonzero(mat)
        # distinct residues give distinct targets, so no position repeats
        parts.append(
            ((points * mc + a).ravel(), (target * md + b).ravel(), np.tile(mat[a, b], n_pts))
        )
    rows, cols, values = map(np.concatenate, zip(*parts))
    order = np.argsort(rows * shape[1] + cols)
    triples = [rows[order], cols[order], values[order]]
    for array in triples:
        array.setflags(write=False)
    return TorusTriples(*triples, shape, qm)


def dense_spectrum(matrix: TorusTriples) -> list[complex]:
    """Eigenvalues of a square torus matrix, taken block by connected block.

    Indices i and j are linked when A[i, j] or A[j, i] is nonzero.  A
    symmetric permutation onto the connected components makes A block
    diagonal, and the spectrum of a block-diagonal matrix is the union of its
    blocks' spectra, so this is exact; it only skips the cubic work across
    blocks that never couple (a block smoother's torus matrix splits into
    many small ones).  Components are found by min-label propagation over the
    triples, and each component's triples are scattered into a zero block
    on its ascending indices; only these blocks are ever dense.  Each block
    goes to the narrowest LAPACK driver its entries allow, decided by exact
    tests: a block without imaginary parts is passed as real, and a block
    equal to its conjugate transpose goes to eigvalsh (syevd/heevd), any
    other to eigvals (geev).  The blocks of one size and driver share one
    stacked call.  The values come per component in order of its smallest
    index, each component's in its driver's order for its block (ascending
    for eigvalsh).
    """
    if len(matrix.shape) != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError("dense spectrum needs a square matrix")
    rows, cols = matrix.rows, matrix.cols
    # labels[i] stays an index of i's component and never grows; at the
    # fixed point it is the smallest index of the component
    labels = np.arange(matrix.shape[0])
    while True:
        new = labels.copy()
        np.minimum.at(new, rows, labels[cols])
        np.minimum.at(new, cols, labels[rows])
        new = new[new]
        if np.array_equal(new, labels):
            break
        labels = new
    _, component, sizes = np.unique(labels, return_inverse=True, return_counts=True)
    # local[i] is i's place among its component's ascending indices
    local = np.empty_like(labels)
    local[np.argsort(labels, kind="stable")] = np.arange(len(labels))
    local -= (np.cumsum(sizes) - sizes)[component]
    entry_sizes = sizes[component[rows]]
    per_block: list[list[complex]] = [[] for _ in sizes]
    for size in np.unique(sizes):
        which = np.flatnonzero(sizes == size)
        entry = np.flatnonzero(entry_sizes == size)
        r, c = rows[entry], cols[entry]
        blocks = np.zeros((len(which), size, size), dtype=complex)
        blocks[np.searchsorted(which, component[r]), local[r], local[c]] = matrix.values[entry]
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
    k_frac is K/d for an integer row K of DualTorus.num over d = DualTorus.den,
    so the phase is taken from the exact residue p = (K.x) mod d: i^(4p // d)
    times exp(i*pi/2 * (4p mod d)/d), exact at every multiple of a quarter turn.
    """
    qm = _torus_quotient(a, m)
    return list(np.kron(_wave_phases(sample_dual_torus(a, m), qm), np.eye(len(se))))


def _wave_phases(samples: DualTorus, quotient: QuotientMap) -> np.ndarray:
    """(samples, torus points) matrix P of exp(+2*pi*i*<k_frac, x>) over the
    listing of ``quotient``; wave_basis(a, m, se) is the rows of kron(P, I_|se|)."""
    d = samples.den
    quarters, rest = np.divmod(4 * (samples.num @ quotient.reps.T % d), d)
    return _QUARTER_TURNS[quarters] * np.exp(0.5j * pi * rest / d)


def wave_gram_residual(samples: DualTorus, quotient: QuotientMap) -> float:
    """max |G - I| for the averaged Gram matrix G of the wave basis on the
    dual-torus listing ``samples`` and the torus ``quotient`` of one M, as
    sample_dual_torus and any TorusTriples of that M hold them.

    The basis is kron(P, I_|se|) for the phase matrix P, so its Gram matrix
    is kron(conj(P) P^T / |T|, I_|se|) and the residual is the same for every
    structure element and lattice; it is taken on the (samples, samples) factor.
    """
    p = _wave_phases(samples, quotient)
    gram = p.conj() @ p.T / p.shape[1]
    return float(np.abs(gram - np.eye(len(p))).max())


def translation_residual(matrix: TorusTriples) -> float:
    """Max Frobenius commutator norm of a torus matrix with the primitive
    translations of its torus; the block sizes are the shape over the torus
    points, and a shape that does not split into blocks is a ValueError.

    With T the block permutation of one primitive step, ||A T - T A|| equals
    ||A - T A T^-1||, and T A T^-1 is A with rows and columns re-indexed.
    Both are zero away from A's nonzeros and their re-indexed images, so the
    norm is taken over those positions only, each entry of A looked up by
    its row-major key in the sorted keys of the triples.
    """
    qm = matrix.quotient
    n_pts = len(qm.reps)
    mc, md = (size // n_pts for size in matrix.shape)
    if matrix.shape != (n_pts * mc, n_pts * md):
        raise ValueError(f"torus matrix of shape {matrix.shape} does not split over {n_pts} points")
    values = matrix.values
    if not len(values):
        return 0.0
    width = matrix.shape[1]
    keys = matrix.rows * width + matrix.cols

    def find(rows, cols):
        # position of each (rows, cols) key among the triples, and whether
        # A holds a nonzero there
        query = rows * width + cols
        at = np.minimum(np.searchsorted(keys, query), len(keys) - 1)
        return at, keys[at] == query

    worst = 0.0
    for step in np.eye(qm.n, dtype=np.int64):
        perm = qm.indices(qm.reps + step)
        rows = (perm[:, None] * mc + np.arange(mc)).ravel()
        cols = (perm[:, None] * md + np.arange(md)).ravel()
        # T A T^-1 holds A[rows[x], cols[y]] at (x, y): the gaps at A's
        # nonzeros, then the images that land where A is zero
        at, found = find(rows[matrix.rows], cols[matrix.cols])
        _, taken = find(np.argsort(rows)[matrix.rows], np.argsort(cols)[matrix.cols])
        gaps = np.concatenate([values - np.where(found, values[at], 0), values[~taken]])
        worst = max(worst, float(np.linalg.norm(gaps)))
    return worst


def eval_dense(expr, env, m) -> np.ndarray:
    """Evaluate an expression on dense torus matrices (independent route).

    Like compute_spectrum, this binds the operators the expression names and
    rewrites them on their common lattice C; each is assembled on the torus
    Z = C*M and the expression evaluated on the big matrices, pinv included.
    """
    bound = expr.bind(env)
    compatible = make_compatible(list(bound.values()))
    denses = {name: assemble_dense(op, m).dense() for name, op in zip(bound, compatible)}
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

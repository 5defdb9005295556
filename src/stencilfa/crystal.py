"""Lattices, structure elements and the quotient/dual machinery built on them.

A lattice L(A) = A*Z^n is stored through its float basis (columns = primitive
vectors; graphene needs sqrt(3), so exact bases are out of reach), but every
*relation* between two lattices is reconstructed as an exact rational matrix
before any decision is made.  Sublattice tests, quotient enumeration, lattice
lcm and dual-torus sampling therefore behave exactly even when the bases
themselves are irrational.

Structure elements are ordered tuples of fractional coordinates with respect
to the lattice basis, kept as ``Fraction``s.  The order is significant: block
operators act on value tuples indexed by it.

Torus representatives follow a fixed canonical listing: with H the Hermite
normal form of the integer relation, the representative with counter i-1 has
the mixed-radix digits of i-1 with respect to (H_11, ..., H_nn), the first
basis direction varying fastest; ``QuotientMap.reps`` holds it as one
read-only (p, n) int64 array, and ``QuotientMap.residue`` reduces any point
to its row by one loop over diag(H), in int64 or in Python ints.  Dual-torus
samples come from that listing on the dual relation M^T; their coordinates
are integer numerators over their least common denominator, the lcm of the
denominators of M^-1.  A sampled torus is a ``DualTorus`` of
flat arrays with its rows in ascending numerator order, which is ascending
k_frac order: sample i is row i of ``num`` over ``den``, with the wave vector
``k_phys[i]``, and ``k_frac_text`` writes a row's fractions from integers
alone.  Sampling refuses a torus of more than ``SAMPLE_CAP`` points before
it lists anything; the dense oracle has a smaller cap of its own, and both
raise ``TorusTooLargeError``.

``phase_table(den)`` is the one phase rule that the symbols and the oracle's
wave basis both read.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd, inf, pi, prod

import numpy as np

from .intlat import (
    Matrix,
    det_exact,
    hnf,
    is_integral,
    mat_inv,
    mat_mul,
    rational_reconstruct,
    scaled_integer,
    snf,
)


#: Most dual-torus samples one ``sample_dual_torus`` call lists: 2^20, a
#: 1024 x 1024 torus in 2-D.  Samples are stored as flat arrays and the
#: spectrum is evaluated block by block, so the cap bounds the run time and
#: the (N, n) sample arrays, not a per-sample object count.
SAMPLE_CAP = 2**20


@lru_cache(maxsize=1)
def phase_table(den: int) -> np.ndarray:
    """The read-only phases exp(+2*pi*i * r/den) of the residues r = 0..den-1
    (a twiddle-factor table), for a den in 1..SAMPLE_CAP, else a ValueError;
    the table of the most recent den is kept.  Phase r is the quarter turn
    i**q, q = 4r // den, times the exp of the correctly rounded turn
    (4r mod den)/den: exactly 1, i, -1 or -i at a multiple of a quarter turn,
    and the table of den/g is the table of den at the multiples of g, bit for bit."""
    if not 0 < den <= SAMPLE_CAP:
        raise ValueError(f"denominator {den} is out of range for exact int64 phases")
    quarters, rest = np.divmod(4 * np.arange(den), den)
    table = np.array([1, 1j, -1, -1j])[quarters] * np.exp(0.5j * pi * (rest / den))
    table.setflags(write=False)
    return table


class TorusTooLargeError(ValueError):
    """A torus has more points than a size cap allows."""


class Lattice:
    """A full-rank lattice given by its basis matrix (columns = generators)."""

    def __init__(self, basis):
        arr = np.array(basis, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError("lattice basis must be a square matrix")
        if not np.isfinite(arr).all():
            raise ValueError("lattice basis must have finite entries")
        col_scale = prod(float(np.linalg.norm(arr[:, j])) for j in range(arr.shape[1]))
        if col_scale == 0.0 or abs(np.linalg.det(arr)) <= 1e-12 * col_scale:
            raise ValueError("lattice basis is singular")
        arr.setflags(write=False)
        self.basis = arr

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    def __repr__(self) -> str:
        rows = "; ".join(" ".join(f"{x:.6g}" for x in row) for row in self.basis)
        return f"Lattice([{rows}])"


def _coerce_point(p) -> tuple[Fraction, ...]:
    # a numpy integer becomes a Python int first: a Fraction keeps the
    # numerator's type, and an int64 one wraps on overflow (a row of
    # QuotientMap.reps is one)
    return tuple(Fraction(x.item() if isinstance(x, np.generic) else x) for x in p)


class StructureElement:
    """Ordered tuple of intra-cell positions in fractional coordinates."""

    __slots__ = ("points",)

    def __init__(self, points):
        self.points = tuple(_coerce_point(p) for p in points)
        if not self.points:
            raise ValueError("structure element needs at least one point")
        n = len(self.points[0])
        if any(len(p) != n for p in self.points):
            raise ValueError("structure element points must share a dimension")

    @property
    def dim(self) -> int:
        return len(self.points[0])

    def __len__(self) -> int:
        return len(self.points)

    def __getitem__(self, i):
        return self.points[i]

    def __iter__(self):
        return iter(self.points)

    def __eq__(self, other) -> bool:
        return isinstance(other, StructureElement) and self.points == other.points

    def __hash__(self) -> int:
        return hash(self.points)

    def __repr__(self) -> str:
        pts = ", ".join("(" + ", ".join(str(x) for x in p) + ")" for p in self.points)
        return f"StructureElement[{pts}]"

    def shifted(self, offset) -> "StructureElement":
        off = _coerce_point(offset)
        return StructureElement([tuple(x + o for x, o in zip(p, off)) for p in self.points])


@dataclass(frozen=True, eq=False)
class DualTorus:
    """The sampled dual torus as flat arrays, one row per sample.

    ``num`` is the read-only (N, n) int64 array of numerators over ``den``,
    the samples' least common denominator (n at M = n*I, a divisor of
    N = |det M| in general), so no factor divides den and every numerator;
    its rows are in ascending order, which is ascending k_frac order.
    ``k_phys`` is the read-only (N, n) float array of physical wave vectors.
    """

    num: np.ndarray
    den: int
    k_phys: np.ndarray

    def __len__(self) -> int:
        return len(self.num)


def k_frac_text(num, den: int) -> tuple[str, ...]:
    """str(Fraction(n, den)) for every numerator n of a row, from integers alone."""
    out = []
    for n in num:
        g = gcd(n, den)
        out.append(str(n // g) if den // g == 1 else f"{n // g}/{den // g}")
    return tuple(out)


def relation(a: Lattice, c: Lattice) -> Matrix:
    """Exact rational matrix A^-1 C relating two lattice bases."""
    if a.dim != c.dim:
        raise ValueError("lattices have different dimensions")
    rel = np.linalg.solve(a.basis, c.basis)
    return rational_reconstruct(rel.tolist())


def is_sublattice(a: Lattice, c: Lattice) -> bool:
    """True iff L(C) is a sublattice of L(A), i.e. A^-1 C is integral."""
    try:
        rel = relation(a, c)
    except ValueError:
        return False
    return is_integral(rel)


def lattice_equal(a: Lattice, c: Lattice) -> bool:
    """True iff both lattices contain each other (A^-1 C unimodular)."""
    try:
        rel = relation(a, c)
    except ValueError:
        return False
    return is_integral(rel) and abs(det_exact(rel)) == 1


def integral_relation(a: Lattice, c: Lattice) -> list[list[int]]:
    rel = relation(a, c)
    if not is_integral(rel):
        raise ValueError("not a sublattice")
    return [[int(x) for x in row] for row in rel]


class QuotientMap:
    """Exact residue arithmetic for Z^n / rel*Z^n, rel a nonsingular integer matrix.

    ``reps`` is the canonical listing of the |det rel| residue classes, a
    read-only (|det rel|, n) int64 array built on first access.  ``residue``
    reduces each row of an integer array to its class's row of ``reps`` and
    ``indices`` gives each row's listing index, both through one loop that
    runs in int64 on an int64 array (listings and points near the box) and
    in Python ints on anything else (points of any size, such as offsets).
    """

    def __init__(self, rel):
        self.h = hnf(rel).H  # H = rel*U for some unimodular U
        self.n = len(self.h)
        self.strides = tuple(prod(self.h[l][l] for l in range(axis)) for axis in range(self.n))

    @cached_property
    def reps(self) -> np.ndarray:
        # mixed-radix counter over diag(H), first coordinate fastest
        diag = [self.h[l][l] for l in range(self.n)]
        reps = np.arange(prod(diag), dtype=np.int64)[:, None] // self.strides % diag
        reps.setflags(write=False)
        return reps

    def residue(self, points) -> np.ndarray:
        """Each row x as x - H*q inside the box [0, H_11) x ... x [0, H_nn),
        in the arithmetic above: int64 wraps outside its range, Python ints never."""
        exact = getattr(points, "dtype", None) != np.int64
        r = np.array(points, dtype=object if exact else np.int64).reshape(-1, self.n)
        h = np.array(self.h, dtype=r.dtype)
        for col in range(self.n - 1, -1, -1):
            r[:, :col + 1] -= (r[:, col] // h[col, col])[:, None] * h[:col + 1, col]
        return r

    def indices(self, points) -> np.ndarray:
        """Listing index of each row, as int64: its residue read in the
        mixed-radix strides of diag(H), below |det rel| whatever the row."""
        return (self.residue(points) @ np.array(self.strides)).astype(np.int64, copy=False)


def lcm_lattice(a: Lattice, b: Lattice) -> Lattice:
    """Coarsest common sublattice of two rationally related lattices."""
    try:
        rel = relation(a, b)
    except ValueError:
        raise ValueError("no common sublattice") from None
    m, r = scaled_integer(rel)
    res = snf(m)
    n = len(m)
    scale = [r // gcd(r, int(res.S[i][i])) for i in range(n)]
    cols = mat_mul(res.U, [[scale[j] if i == j else 0 for j in range(n)] for i in range(n)])
    # reduce to the Hermite basis of the same lattice: the raw Smith transform
    # can have huge entries, and a skew float basis loses determinant digits
    return Lattice(b.basis @ np.array(hnf(cols).H, dtype=float))


def dual_basis(a: Lattice) -> Lattice:
    """Lattice of wave vectors with integer inner products against L(A)."""
    return Lattice(np.linalg.inv(a.basis).T)


def integer_resolution(a: Lattice, m) -> tuple[list[list[int]], int]:
    """The resolution matrix M of the torus A*M as Python ints, and |det M|."""
    mm = [[int(x) if abs(x) < inf else None for x in row] for row in m]  # no int for nan, inf
    if mm != [list(row) for row in m]:
        raise ValueError("resolution entries must have integer values (3 or 3.0, not 2.5)")
    n = len(mm)
    if any(len(row) != n for row in mm) or n != a.dim:
        raise ValueError("resolution matrix must be square and match the lattice dimension")
    d = abs(det_exact(mm))
    if d == 0:
        raise ValueError("resolution matrix is singular")
    return mm, d


def sample_dual_torus(a: Lattice, m) -> DualTorus:
    """All |det M| wave vectors of the dual torus for Z = A*M, in k_frac order.

    The representatives j of the quotient dual(Z)/dual(A) are listed through
    QuotientMap(M^T); with den the lcm of the denominators of M^-1 the integer
    matrix den*M^-T maps each to the numerators of k_frac = (M^-T j) mod 1,
    kept over den (``num``, ``den``), the samples' lowest common terms.
    The physical wave vectors A^-T k_frac come from one matrix product, and
    one lexsort puts both in ascending numerator order.  A torus of more
    than SAMPLE_CAP points is a TorusTooLargeError, raised before anything
    is listed.
    """
    mm, d = integer_resolution(a, m)
    if d > SAMPLE_CAP:
        raise TorusTooLargeError(f"torus too large to sample (|det M| = {d} > {SAMPLE_CAP})")
    mt = [list(col) for col in zip(*mm)]
    num, den = scaled_integer(mat_inv(mt))
    num = np.array([[x % den for x in row] for row in num])  # den*M^-T mod den
    # den divides d <= SAMPLE_CAP and every entry of reps is below d, so the
    # products stay far inside int64 and den and every numerator are exact floats
    nums = QuotientMap(mt).reps @ num.T
    nums %= den
    k_phys = (nums / den) @ dual_basis(a).basis.T
    # k_phys is taken in listing order and permuted with the numerators, so
    # every row keeps the bits of the listing's product; permuting one array
    # at a time holds fewer (N, n) copies at once
    order = np.lexsort(nums.T[::-1])
    nums = nums[order]
    k_phys = k_phys[order]
    nums.setflags(write=False)
    k_phys.setflags(write=False)
    return DualTorus(nums, den, k_phys)

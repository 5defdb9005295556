"""Frequency-space back-end: symbols, their algebra, and spectrum sampling.

The symbol of a multiplication operator at wave vector k is the dense matrix

    L_k = sum_j m^(j) * exp(+2*pi*i * <k_frac, j>)

with j the integer offsets and k_frac the exact fractional coordinates of k
with respect to the dual basis.  The exponential sign convention is fixed as
+2*pi*i throughout the package; the spectra of all shipped examples are
invariant under the sign choice because their multiplier maps are symmetric
under offset negation plus conjugation.

Evaluating the phase from k_frac instead of the physical wave vector keeps
rational frequencies exact up to the exponential itself: k_frac = 1/2 gives
a turn of exactly 0.5 no matter how the lattice basis is conditioned.
symbol_at(l, num, den) takes k_frac only as a row of integer numerators over
den, as a DualTorus holds it, and needs no Fraction arithmetic: the phase of
offset j is exp(2*pi*i * r/den) at the exact residue r = <num, j> mod den,
read from crystal.phase_table(den), the package's one phase rule, exact at
every quarter turn.  That table exists only for den in 1..SAMPLE_CAP, which
covers every torus a spectrum or verify samples; any other den is a
ValueError.  A sampled torus is in lowest terms (DualTorus.den), so at
M = n*I its table has n entries, not n**2.  The sum over offsets runs in
``multipliers`` order, which is ascending offset order however the operator
was built, on the operator's cached (n, rows, cols) multiplier stack, as the
last row of the sequential np.add.accumulate (np.cumsum without its
wrapper's cost; np.add.reduce sums pairwise along an innermost axis, as on a
1x1 operator, and changes the bits).  symbols(l, num, den) gives the same
bits for all rows of an (N, dim) numerator array from one int64 product.
symbol_at keeps its own body: a one-row symbols call is slower, and spectra
still take one symbol_at call per operator and sample, a count the
benchmark pins.

compute_spectrum takes the operators the expression names on their coarsest
common sublattice C (Expression.compatible), samples the dual torus of
Z = C*M (in k_frac order, at most SAMPLE_CAP samples), evaluates the
expression on the symbol matrices at every sample, and collects
eigenvalues, refusing any that is not finite.  spectrum_blocks yields the
same evaluation block by block, so a caller such as the CLI's CSV writer can
hand each block on before the next is computed.  A block is BLOCK = 64 samples: each operator's symbol_at matrices
are stacked to (B, rows, cols), the expression is walked once over the stacks
(pinv still calls pinv_matrix once per matrix, a count the benchmark pins),
one eigenvalues call covers the block, and one lexsort orders every row of
its (B, n) eigenvalue array by (re, im).  Every step acts matrix by matrix,
so the values are bit-identical to a per-sample loop.  pinv_matrix takes a
1x1 or 2x2 input, the common block of systems of PDEs, two-atom bases and
colored smoothers, in closed form: the same cutoffs applied to singular
values computed from the Frobenius norm and the determinant in Python complex
arithmetic, with no SVD.  Any other input runs one SVD per distinct input: a
functools.lru_cache keeps the results of its 256 most recent small inputs,
keyed on shape and bytes, and a repeat (a k-invariant block, or one varying
along one torus axis) gets a copy of the kept result.  A SpectrumResult
holds the samples and eigenvalues as arrays; a SpectrumRecord is built for a
row only when ``records`` is read.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import sqrt
from operator import index, mul

import numpy as np

from .crystal import DualTorus, Lattice, integer_resolution, k_frac_text, phase_table, sample_dual_torus
from .operator import MultiplicationOperator


@dataclass(frozen=True)
class SpectrumRecord:
    """One row of a spectrum: the sample's numerators over ``den``, its
    physical wave vector, and the eigenvalues found there, sorted by (re, im)."""

    num: tuple[int, ...]
    den: int
    k_phys: tuple[float, ...]
    eigenvalues: tuple[complex, ...]

    @property
    def k_frac(self) -> tuple[Fraction, ...]:
        """The exact fractional coordinates num/den, built on each access."""
        return tuple(Fraction(n, self.den) for n in self.num)


class SpectrumRecords(Sequence):
    """The rows of a spectrum: entry i is the SpectrumRecord of sample i,
    built on access from the result's arrays."""

    def __init__(self, samples: DualTorus, eigenvalues: np.ndarray):
        self._samples = samples
        self._eigenvalues = eigenvalues

    def __len__(self) -> int:
        return len(self._samples)

    def __getitem__(self, i):
        s, i = self._samples, index(i)
        return SpectrumRecord(
            tuple(s.num[i].tolist()), s.den, tuple(s.k_phys[i].tolist()),
            tuple(self._eigenvalues[i].tolist()),
        )


@dataclass(frozen=True, eq=False)
class SpectrumResult:
    """A sampled spectrum: the dual torus in k_frac order and the read-only
    (N, n) complex array of the eigenvalues at each sample, every row sorted
    by (re, im); rho is the largest modulus among them."""

    samples: DualTorus
    eigenvalues: np.ndarray
    rho: float
    resolution: tuple[tuple[int, ...], ...]
    lattice: Lattice
    expression: str

    @property
    def records(self) -> SpectrumRecords:
        return SpectrumRecords(self.samples, self.eigenvalues)


def symbol_at(l: MultiplicationOperator, num, den: int) -> np.ndarray:
    """The symbol matrix of l at the frequency k_frac = num/den, num a row of
    integer numerators over den, such as a row of ``DualTorus.num``, each
    taken as a Python int (exact for numpy ints; a float is a TypeError).
    The residues <num, j> mod den are Python ints, and their phases are read
    from phase_table(den), which refuses a den outside 1..SAMPLE_CAP."""
    num = list(map(index, num))
    den = index(den)
    if len(num) != l.dim:
        raise ValueError(f"frequency has dimension {len(num)}, operator has dimension {l.dim}")
    table = phase_table(den)
    offsets, stack = l._stack
    if not offsets:
        return np.zeros(l.shape, dtype=complex)
    phases = table.take([sum(map(mul, off, num)) % den for off in offsets])
    terms = stack * phases[:, None, None]
    # a strictly sequential running sum adds the terms in the same order as
    # a loop would; + 0.0 turns a leading -0.0 into the +0.0 of a sum from zero
    return np.add.accumulate(terms)[-1] + 0.0


def symbols(l: MultiplicationOperator, num, den: int) -> np.ndarray:
    """The (N, rows, cols) symbols of l at the rows of the (N, dim) integer
    array num over den, row i bit-identical to symbol_at(l, num[i], den):
    the (N, n) int64 residues index the same phase table.  A den outside
    1..SAMPLE_CAP is phase_table's ValueError, a float num a TypeError."""
    num = np.asarray(num)
    if num.ndim != 2 or num.shape[1] != l.dim:
        raise ValueError(f"numerators of shape {num.shape}, operator has dimension {l.dim}")
    if num.dtype.kind not in "iu":
        num = np.frompyfunc(index, 1, 1)(num)
    den = index(den)
    table = phase_table(den)
    offsets, stack = l._stack
    if not offsets:
        return np.zeros((len(num),) + l.shape, dtype=complex)
    # reduced mod den <= SAMPLE_CAP in exact integers, the int64 product cannot wrap
    off = np.array([[o % den for o in row] for row in offsets], dtype=np.int64)
    phases = table.take((num % den).astype(np.int64) @ off.T % den)
    # the (1, n, rows*cols) * (N, n, 1) layout runs the same multiply loop as
    # symbol_at; other layouts can pick a SIMD loop that rounds differently
    terms = stack.reshape(1, len(offsets), -1) * phases[:, :, None]
    return (np.add.accumulate(terms, axis=1)[:, -1] + 0.0).reshape((-1,) + l.shape)


_EPS = float(np.finfo(float).eps)

#: Spectral norms at or below this level are treated as "the zero matrix" by
#: pinv_matrix.  A relative cutoff alone cannot handle matrices that are zero
#: in exact arithmetic but materialize as rounding noise (for example the
#: Galerkin coarse symbol of the graphene operator at a Dirac point, which
#: accumulates ~1e-15 residue): their largest singular value is itself noise,
#: so "below the rank cut times sigma_max" keeps it and the pseudo-inverse
#: explodes to ~1e+15.  eps^(2/3) ~ 3.7e-11 sits far above accumulated
#: rounding error of desk-scale symbol evaluations and far below every
#: meaningful operator scale in the shipped analyses.
ZERO_MATRIX_TOL = _EPS ** (2.0 / 3.0)


#: The pseudo-inverses pinv_matrix keeps in its lru_cache, and the most entries
#: a kept matrix may have.  A spectrum repeats most of its larger pinv inputs
#: (graphene at res 41: 1,764 distinct in 13,448 8x8 calls), mostly close together
#: in k_frac order, so a few hundred entries serve nearly all of them; larger
#: matrices, such as dense torus matrices, are not kept.
_MEMO_ENTRIES = 256
_MEMO_MATRIX_SIZE = 256

#: The shapes pinv_matrix takes in closed form, and the squared Frobenius norm
#: below which that form's products and sums of entries cannot overflow; at
#: or above it (or NaN) the input takes the SVD.
_SMALL_SHAPES = ((1, 1), (2, 2))
_SMALL_FORM_BOUND = 2.0**1000


def pinv_matrix(m: np.ndarray) -> np.ndarray:
    """Moore-Penrose pseudo-inverse with an explicit singular-value cutoff.

    Singular values not above max(shape) * machine epsilon times the largest
    one are treated as zero.  If the largest singular value itself does not
    exceed ZERO_MATRIX_TOL, the whole matrix is treated as zero and the zero
    matrix of transposed shape is returned.

    A 1x1 or 2x2 input whose squared Frobenius norm is below _SMALL_FORM_BOUND
    (every entry finite and below about 2**500) takes the closed form of
    _small_pinv: the same rule on singular values computed in Python complex
    arithmetic, with no SVD and no memo entry.  Any other input takes one SVD;
    the result for an input of at most _MEMO_MATRIX_SIZE entries is kept in
    the lru_cache _memo_pinv, keyed on the shape and the bytes of its values
    (so -0.0 and 0.0 differ), and a repeated input gets a copy of it: the same
    bits as a new SVD, which does not depend on the input's memory layout.
    An input with a non-finite entry fails the closed form's bound and is a
    ValueError before its SVD, so it is refused on every route and never kept.
    """
    m = np.asarray(m, dtype=complex)
    if m.size == 0:
        return m.T.copy()
    if m.shape in _SMALL_SHAPES and (p := _small_pinv(m.ravel().tolist())) is not None:
        return p
    if m.size > _MEMO_MATRIX_SIZE:
        return _svd_pinv(m)
    # order="K" keeps the kept result's layout (the zero matrix is F-ordered)
    return _memo_pinv(m.shape, m.tobytes()).copy(order="K")


def _small_pinv(entries: list[complex]) -> np.ndarray | None:
    """pinv_matrix of the 1x1 or 2x2 matrix with these entries in row order,
    or None when its squared Frobenius norm f is not below _SMALL_FORM_BOUND.

    With det = ad - bc, the singular values of a 2x2 are
    s1 = (sqrt(f + 2|det|) + sqrt(f - 2|det|)) / 2 and s2 = |det| / s1, so
    (s1 + s2)**2 = f + 2|det| and s1 * s2 = |det|.  Above the rank cut the
    result is the adjugate over det; at or below it, s2 is dropped and the
    rank-one pseudo-inverse is the conjugate transpose over f.
    """
    f = sum(z.real * z.real + z.imag * z.imag for z in entries)
    if not f < _SMALL_FORM_BOUND:
        return None
    if len(entries) == 1:
        (a,) = entries
        return np.array([[1 / a if abs(a) > ZERO_MATRIX_TOL else 0j]])
    a, b, c, d = entries
    det = a * d - b * c
    r = abs(det)
    s1 = (sqrt(f + 2 * r) + sqrt(max(f - 2 * r, 0.0))) / 2
    if s1 <= ZERO_MATRIX_TOL:
        return np.zeros((2, 2), dtype=complex)
    if r / s1 > 2 * _EPS * s1:
        return np.array([[d / det, -b / det], [-c / det, a / det]])
    return np.array([[a.conjugate() / f, c.conjugate() / f], [b.conjugate() / f, d.conjugate() / f]])


@lru_cache(maxsize=_MEMO_ENTRIES)
def _memo_pinv(shape: tuple[int, ...], data: bytes) -> np.ndarray:
    """_svd_pinv of the C-ordered complex matrix of this shape and these bytes."""
    return _svd_pinv(np.ndarray(shape, complex, data))


def _svd_pinv(m: np.ndarray) -> np.ndarray:
    """pinv_matrix of a non-empty complex matrix from one SVD; an input with
    a non-finite entry is a ValueError, raised before the SVD."""
    if not np.isfinite(m).all():
        raise ValueError("pinv input has a non-finite entry (inf or nan)")
    u, s, vh = np.linalg.svd(m, full_matrices=False)
    # Python float comparisons and reciprocals: numpy's bits without its per-call cost
    s = s.tolist()
    if s[0] <= ZERO_MATRIX_TOL:
        return np.zeros_like(m.T)
    cut = max(m.shape) * _EPS * s[0]
    inv = [1.0 / x if x > cut else 0.0 for x in s]
    return (vh.conj().T * inv) @ u.conj().T


def eigenvalues(mtx) -> np.ndarray:
    """Eigenvalues of a square matrix, or of every matrix of a (..., n, n)
    stack, as the complex array of one eigvals call, in LAPACK order."""
    arr = np.asarray(mtx, dtype=complex)
    if arr.ndim < 2 or arr.shape[-2] != arr.shape[-1]:
        raise ValueError("eigenvalues need a square matrix")
    return np.linalg.eigvals(arr)


#: Samples per stacked evaluation and per read of a result's arrays.  On
#: graphene at res 41 the time is flat for blocks of 32 to 512, while one stack
#: of all 1681 samples raises the peak memory of the process from 33 to 50 MB.
BLOCK = 64


def _block_eigenvalues(expr, named, nums: list, den: int) -> np.ndarray:
    """The (B, n) eigenvalues, in LAPACK order, of the expression at the
    samples nums over den: one walk over the stacked symbols and one eigvals
    call.  Eigenvalues that are not finite are a FloatingPointError, since
    numpy.linalg ignores np.errstate."""
    env = {name: np.array([symbol_at(op, num, den) for num in nums]) for name, op in named.items()}
    value = expr.eval_matrices(env)
    if value.shape[-2] != value.shape[-1]:
        raise ValueError(f"shape mismatch: the result {value.shape[-2:]} is not square")
    # an expression of identities alone is one matrix for every sample
    eigs = eigenvalues(np.broadcast_to(value, (len(nums),) + value.shape[-2:]))
    if not np.isfinite(eigs).all():
        raise FloatingPointError("overflow in the eigen-solve: an eigenvalue is not finite")
    return eigs


def _blocks(expr, named, samples: DualTorus) -> Iterator[tuple[DualTorus, np.ndarray]]:
    """Each block of samples with its (B, n) eigenvalues, every row sorted by
    (re, im).  A block that fails is run again one sample at a time, and the
    error of the first sample that fails alone is raised with its k_frac; if
    none does, the block's error is raised as it was."""
    for start in range(0, len(samples), BLOCK):
        rows = slice(start, start + BLOCK)
        block = DualTorus(samples.num[rows], samples.den, samples.k_phys[rows])
        nums = block.num.tolist()
        try:
            eigs = _block_eigenvalues(expr, named, nums, block.den)
        except (ValueError, FloatingPointError):
            for num in nums:
                try:
                    _block_eigenvalues(expr, named, [num], block.den)
                except (ValueError, FloatingPointError) as exc:
                    # same type, so callers can still tell the expression's own errors apart
                    k_frac = ", ".join(k_frac_text(num, block.den))
                    raise type(exc)(f"expression failed at k_frac=({k_frac}): {exc}") from exc
            raise
        yield block, np.take_along_axis(eigs, np.lexsort((eigs.imag, eigs.real)), -1)


def _sampled(expr, env, m) -> tuple[dict, Lattice, DualTorus]:
    """The operators the expression names, rewritten on their common lattice
    C (Expression.compatible), by name, with C and the dual torus of Z = C*m."""
    named = expr.compatible(env)
    lattice = next(iter(named.values())).lattice
    return named, lattice, sample_dual_torus(lattice, m)


def spectrum_blocks(expr, env, m) -> Iterator[tuple[DualTorus, np.ndarray]]:
    """compute_spectrum's evaluation, one block of samples at a time.

    Yields (samples, eigenvalues) per block of up to BLOCK samples in k_frac
    order, the eigenvalues a (B, n) complex array with every row sorted by
    (re, im).  Nothing is computed before the first block is drawn; the
    binding, the compatibility rewrite and the sampling run then, so their
    errors, like an expression's, surface at the first draw.
    """
    named, _, samples = _sampled(expr, env, m)
    yield from _blocks(expr, named, samples)


def compute_spectrum(expr, env, m) -> SpectrumResult:
    """Sample the spectrum of an operator expression over the dual torus.

    expr is a parsed Expression; it binds the operators of env it names
    (Expression.bind), and any others play no part.  m is the integer
    resolution matrix: the sampled torus is Z = C*m with C the common lattice
    of the bound operators after compatibility rewriting.
    """
    named, lattice, samples = _sampled(expr, env, m)
    parts = []
    rho = 0.0
    for _, eigs in _blocks(expr, named, samples):
        parts.append(eigs)
        # Python's complex abs, as the CSV's abs column: numpy's can differ
        # from it in the last bit
        rho = max(rho, max(map(abs, eigs.ravel().tolist())))
    all_eigs = np.concatenate(parts)
    all_eigs.setflags(write=False)
    return SpectrumResult(
        samples=samples,
        eigenvalues=all_eigs,
        rho=rho,
        resolution=tuple(map(tuple, integer_resolution(lattice, m)[0])),
        lattice=lattice,
        expression=expr.text,
    )

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
den, as a DualTorus holds it, and needs no Fraction arithmetic: the turn of
offset j is the exact residue (<num, j> mod den) / den, rounded to a float
once by int true division, and one vectorized exp covers all offsets of an
operator.  The sum over offsets runs in ``multipliers`` order, which is
ascending offset order however the operator was built, on the operator's
cached (n, rows, cols) multiplier stack.  symbols(l, num, den) gives the same
bits for all rows of an (N, dim) numerator array from one int64 product (den
needs dim * den**2 < 2**63, as every den up to SAMPLE_CAP has).  symbol_at
keeps its own body: a one-row symbols call is slower, and spectra still take
one symbol_at call per operator and sample, a count the benchmark pins.

compute_spectrum binds the operators the expression names (Expression.bind),
rewrites them on their coarsest common sublattice C, samples the dual torus
of Z = C*M (in k_frac order, at most SAMPLE_CAP samples), evaluates the
expression on the symbol matrices at every sample, and collects
eigenvalues.  spectrum_blocks yields the same evaluation block by block, so a
caller such as the CLI's CSV writer can hand each block on before the next is
computed.  A block is BLOCK = 64 samples: each operator's symbol_at matrices
are stacked to (B, rows, cols), the expression is walked once over the stacks
(pinv still calls pinv_matrix once per matrix), one eigenvalues call covers
the block, and one lexsort orders every row of its (B, n) eigenvalue array by
(re, im).  Every step acts matrix by matrix, so the values are bit-identical
to a per-sample loop.  A SpectrumResult holds the samples and eigenvalues as
arrays; a SpectrumRecord is built for a row only when ``records`` is read.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from fractions import Fraction
from math import pi
from operator import index, mul

import numpy as np

from .crystal import DualTorus, Lattice, integer_resolution, k_frac_text, sample_dual_torus
from .operator import MultiplicationOperator, make_compatible


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
    integer numerators over den, such as a row of ``DualTorus.num`` as
    Python ints."""
    if len(num) != l.dim:
        raise ValueError(f"frequency has dimension {len(num)}, operator has dimension {l.dim}")
    offsets, stack = l._stack
    if not offsets:
        return np.zeros(l.shape, dtype=complex)
    turns = np.array([sum(map(mul, off, num)) % den / den for off in offsets])
    terms = stack * np.exp(2j * pi * turns)[:, None, None]
    # a strictly sequential running sum adds the terms in the same order as
    # a loop would; + 0.0 turns a leading -0.0 into the +0.0 of a sum from zero
    return np.cumsum(terms, axis=0)[-1] + 0.0


def symbols(l: MultiplicationOperator, num, den: int) -> np.ndarray:
    """The (N, rows, cols) symbols of l at the rows of the (N, dim) integer
    array num over den, row i bit-identical to symbol_at(l, num[i], den).
    A den with dim * den**2 >= 2**63 is a ValueError."""
    num = np.asarray(num)
    if num.ndim != 2 or num.shape[1] != l.dim:
        raise ValueError(f"numerators of shape {num.shape}, operator has dimension {l.dim}")
    if (den := index(den)) < 1 or l.dim * den**2 >= 2**63:
        raise ValueError(f"denominator {den} is out of range for exact int64 phases")
    offsets, stack = l._stack
    if not offsets:
        return np.zeros((len(num),) + l.shape, dtype=complex)
    # reduced mod den in exact integers, the int64 product cannot wrap
    off = np.array([[o % den for o in row] for row in offsets], dtype=np.int64)
    turns = (num % den).astype(np.int64) @ off.T % den / den
    phases = np.exp(2j * pi * turns)
    # the (1, n, rows*cols) * (N, n, 1) layout runs the same multiply loop as
    # symbol_at; other layouts can pick a SIMD loop that rounds differently
    terms = stack.reshape(1, len(offsets), -1) * phases[:, :, None]
    return (np.cumsum(terms, axis=1)[:, -1] + 0.0).reshape((-1,) + l.shape)


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


def pinv_matrix(m: np.ndarray) -> np.ndarray:
    """Moore-Penrose pseudo-inverse with an explicit singular-value cutoff.

    Singular values not above max(shape) * machine epsilon times the largest
    one are treated as zero.  If the largest singular value itself does not
    exceed ZERO_MATRIX_TOL, the whole matrix is treated as zero and the zero
    matrix of transposed shape is returned.
    """
    m = np.asarray(m, dtype=complex)
    if m.size == 0:
        return m.T.copy()
    u, s, vh = np.linalg.svd(m, full_matrices=False)
    if s[0] <= ZERO_MATRIX_TOL:
        return np.zeros_like(m.T)
    inv = np.divide(1.0, s, out=np.zeros_like(s), where=s > max(m.shape) * _EPS * s[0])
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


def _blocks(expr, named, samples: DualTorus) -> Iterator[tuple[DualTorus, np.ndarray]]:
    """Each block of samples with its (B, n) eigenvalues, every row sorted by
    (re, im): one walk over the stacked symbols and one eigvals call per block."""
    for start in range(0, len(samples), BLOCK):
        rows = slice(start, start + BLOCK)
        block = DualTorus(samples.num[rows], samples.den, samples.k_phys[rows])
        nums = block.num.tolist()
        den = block.den
        env = {name: np.array([symbol_at(op, num, den) for num in nums]) for name, op in named.items()}
        k_frac = "(" + ", ".join(k_frac_text(nums[0], den)) + ")"
        try:
            value = expr.eval_matrices(env)
        except ValueError as exc:
            # same type, so callers can still tell the expression's own errors apart
            raise type(exc)(f"expression failed at k_frac={k_frac}: {exc}") from exc
        if value.shape[-2] != value.shape[-1]:
            raise ValueError(
                f"expression shape mismatch at k_frac={k_frac}: "
                f"result is {value.shape[-2:]}"
            )
        # an expression of identities alone is one matrix for every sample
        value = np.broadcast_to(value, (len(block),) + value.shape[-2:])
        eigs = eigenvalues(value)
        yield block, np.take_along_axis(eigs, np.lexsort((eigs.imag, eigs.real)), -1)


def _sampled(expr, env, m) -> tuple[dict, Lattice, DualTorus]:
    """The operators the expression names, rewritten on their common lattice
    C, by name, with C and the dual torus of Z = C*m."""
    bound = expr.bind(env)
    compatible = make_compatible(list(bound.values()))
    lattice = compatible[0].lattice
    return dict(zip(bound, compatible)), lattice, sample_dual_torus(lattice, m)


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

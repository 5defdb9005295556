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
a turn of exactly 0.5 no matter how the lattice basis is conditioned.  The
phases come from integer numerators, with no Fraction arithmetic per sample:
with k_frac = num/den, the turn of offset j is the exact residue
(<num, j> mod den) / den, rounded to a float once by int true division, and
one vectorized exp covers all offsets of an operator.  The sum over offsets
runs in ``multipliers`` order, which is ascending offset order however the
operator was built, on the operator's cached (n, rows, cols) multiplier
stack.

compute_spectrum implements the full sampling pipeline: rewrite all operators
on their coarsest common sublattice, sample the dual torus for Z = C*M,
evaluate the expression on the symbol matrices at every sample, and collect
eigenvalues.  Results are sorted by k_frac.  The samples are taken in blocks
of 64: each operator's symbol_at matrices are stacked to (N, rows, cols), the
expression is walked once over the stacks (pinv still calls pinv_matrix once
per matrix), and one eigenvalues call covers the block.  Every step
acts matrix by matrix, so the records are bit-identical to a per-sample loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm, pi
from operator import mul

import numpy as np

from .crystal import DualSample, Lattice, sample_dual_torus
from .operator import MultiplicationOperator, make_compatible


@dataclass(frozen=True)
class SpectrumRecord(DualSample):
    """A dual-torus sample with the eigenvalues found there, sorted by (re, im)."""

    eigenvalues: tuple[complex, ...]


@dataclass(frozen=True)
class SpectrumResult:
    records: tuple[SpectrumRecord, ...]
    rho: float
    resolution: tuple[tuple[int, ...], ...]
    lattice: Lattice
    expression: str


def _numerators(k) -> tuple[tuple[int, ...], int]:
    """A bare sequence of fractional coordinates as integer numerators over
    one common denominator."""
    k_frac = [Fraction(f) for f in k]
    den = lcm(*(f.denominator for f in k_frac))
    return tuple(f.numerator * (den // f.denominator) for f in k_frac), den


def symbol_at(l: MultiplicationOperator, k) -> np.ndarray:
    """The symbol matrix of l at a frequency sample.

    k is either a DualSample or a bare sequence of fractional coordinates.
    """
    num, den = (k.num, k.den) if isinstance(k, DualSample) else _numerators(k)
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


_EPS = float(np.finfo(float).eps)

#: Spectral norms at or below this level are treated as "the zero matrix" by
#: pinv_matrix.  A relative cutoff alone cannot handle matrices that are zero
#: in exact arithmetic but materialize as rounding noise (for example the
#: Galerkin coarse symbol of the graphene operator at a Dirac point, which
#: accumulates ~1e-15 residue): their largest singular value is itself noise,
#: so "below rank_tol * sigma_max" keeps it and the pseudo-inverse explodes
#: to ~1e+15.  eps^(2/3) ~ 3.7e-11 sits far above accumulated rounding error
#: of desk-scale symbol evaluations and far below every meaningful operator
#: scale in the shipped analyses.  Pass zero_tol=0.0 to disable the floor for
#: problems scaled differently.
ZERO_MATRIX_TOL = _EPS ** (2.0 / 3.0)


def pinv_matrix(
    m: np.ndarray,
    rank_tol: float | None = None,
    zero_tol: float = ZERO_MATRIX_TOL,
) -> np.ndarray:
    """Moore-Penrose pseudo-inverse with an explicit singular-value cutoff.

    Singular values not above rank_tol times the largest one are treated as
    zero (default rank_tol: max(shape) * machine epsilon; a negative or NaN
    rank_tol is a ValueError).  If the largest singular value itself does
    not exceed zero_tol, the whole matrix is treated as zero and the zero
    matrix of transposed shape is returned.
    """
    if rank_tol is not None and not rank_tol >= 0:
        raise ValueError(f"rank_tol must be a nonnegative number, got {rank_tol!r}")
    m = np.asarray(m, dtype=complex)
    if m.size == 0:
        return m.T.copy()
    u, s, vh = np.linalg.svd(m, full_matrices=False)
    if s[0] <= zero_tol:
        return np.zeros_like(m.T)
    if rank_tol is None:
        rank_tol = max(m.shape) * _EPS
    inv = np.divide(1.0, s, out=np.zeros_like(s), where=s > rank_tol * s[0])
    return (vh.conj().T * inv) @ u.conj().T


def eigenvalues(mtx) -> list:
    """Eigenvalues of a square matrix in LAPACK order; for a (..., n, n)
    stack, nested lists with one list per matrix."""
    arr = np.asarray(mtx, dtype=complex)
    if arr.ndim < 2 or arr.shape[-2] != arr.shape[-1]:
        raise ValueError("eigenvalues need a square matrix")
    return np.linalg.eigvals(arr).tolist()


#: Samples per stacked evaluation.  On graphene at res 41 the time is flat for
#: blocks of 32 to 512, while one stack of all 1681 samples raises the peak
#: memory of the process from 33 to 50 MB.
_BLOCK = 64


def _block_records(expr, named, block: list[DualSample]) -> list[SpectrumRecord]:
    """Records of a block of samples: one walk over the stacked symbols and
    one eigvals call for the whole block."""
    env = {name: np.array([symbol_at(op, s) for s in block]) for name, op in named.items()}
    k_frac = "(" + ", ".join(block[0].k_frac_text) + ")"
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
    return [
        SpectrumRecord(s.num, s.den, s.k_phys, tuple(sorted(eigs, key=lambda z: (z.real, z.imag))))
        for s, eigs in zip(block, eigenvalues(value))
    ]


def compute_spectrum(expr, env, m) -> SpectrumResult:
    """Sample the spectrum of an operator expression over the dual torus.

    expr is a parsed expression (anything with eval_matrices(name->matrix)),
    env maps identifier names to operators, m is the integer resolution
    matrix: the sampled torus is Z = C*m with C the common lattice after
    compatibility rewriting.
    """
    names = list(env)
    if not names:
        raise ValueError("expression environment is empty")
    compatible = make_compatible([env[name] for name in names])
    named = dict(zip(names, compatible))
    lattice = compatible[0].lattice
    # all samples share one denominator, so numerator order is k_frac order
    samples = sorted(sample_dual_torus(lattice, m), key=lambda s: s.num)
    records = [
        rec
        for start in range(0, len(samples), _BLOCK)
        for rec in _block_records(expr, named, samples[start:start + _BLOCK])
    ]
    rho = 0.0
    for rec in records:
        for ev in rec.eigenvalues:
            rho = max(rho, abs(ev))
    resolution = tuple(tuple(int(x) for x in row) for row in m)
    return SpectrumResult(
        records=tuple(records),
        rho=rho,
        resolution=resolution,
        lattice=lattice,
        expression=getattr(expr, "text", str(expr)),
    )

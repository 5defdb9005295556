"""Stencil operators on crystals and their position-space rewriting calculus.

A multiplication operator acts on value distributions over a crystal: for
each integer lattice offset j (physical offset A*j) it stores one complex
multiplier matrix of shape |codomain se| x |domain se|, and

    (L f)(x + t_i) = sum_y sum_j (m^(y))_ij * f(x + y + s_j)

with s the domain and t the codomain structure element.  All rewriting here
happens in exact arithmetic on the offsets and structure elements; the only
floats are the multiplier entries themselves.

Conventions the rewriting functions fix (and which the symbol/dense modules
rely on):

* Offsets are integer coordinate vectors with respect to the operator's own
  lattice basis.  Rewriting to another lattice re-expresses them exactly
  through the rational relation of the two bases.
* Coarsening to a sublattice C with quotient representatives tau_1..tau_p
  produces block structure elements in the interleaved order
  (tau_1+s_1, ..., tau_1+s_m, tau_2+s_1, ...); block (i, k) of the coarse
  multiplier at offset z equals the fine multiplier at z + tau_i - tau_k
  (everything written in fine-lattice coordinates).
* Changing structure elements matches each old point to the lowest-index
  unused new point of its class mod Z^n (the point reduced into [0,1)^n), so
  the matching is deterministic; its work grows with the points and nonzeros.
* Normal form: structure elements reduced into [0,1)^n by exact rational
  floor and sorted lexicographically (ties keep the original order).
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import floor
from types import MappingProxyType

import numpy as np

from .crystal import (
    Lattice,
    QuotientMap,
    StructureElement,
    integral_relation,
    is_sublattice,
    lattice_equal,
    lcm_lattice,
)
from .intlat import mat_inv, scaled_integer


def _int_vec(v) -> tuple[int, ...]:
    out = []
    for x in v:
        f = Fraction(x)
        if f.denominator != 1:
            raise ValueError("offsets must be integer vectors")
        out.append(int(f))
    return tuple(out)


def _coerce_se(se) -> StructureElement:
    return se if isinstance(se, StructureElement) else StructureElement(se)


class MultiplicationOperator:
    """Translationally invariant operator given by its multiplier map.

    ``multipliers`` is a read-only mapping from offset to a read-only
    matrix, so the stacked form the symbol evaluation caches never goes
    stale.  It holds the offsets in ascending (lexicographic) order whatever
    order they were given in, and every consumer reads that one order, so
    operators with equal multipliers give bit-identical float results.
    """

    def __init__(self, lattice: Lattice, domain_se, codomain_se, multipliers):
        self.lattice = lattice
        self.domain_se = _coerce_se(domain_se)
        self.codomain_se = _coerce_se(codomain_se)
        if self.domain_se.dim != lattice.dim or self.codomain_se.dim != lattice.dim:
            raise ValueError("structure element dimension does not match the lattice")
        shape = (len(self.codomain_se), len(self.domain_se))
        clean: dict[tuple[int, ...], np.ndarray] = {}
        for off, mat in multipliers.items():
            key = _int_vec(off)
            if len(key) != lattice.dim:
                raise ValueError("offset dimension does not match the lattice")
            arr = np.array(mat, dtype=complex)
            if arr.shape != shape:
                raise ValueError(f"multiplier shape {arr.shape} does not match structure elements {shape}")
            if np.count_nonzero(arr):
                arr.setflags(write=False)
                clean[key] = arr
        self.multipliers = MappingProxyType(dict(sorted(clean.items())))

    @cached_property
    def _stack(self) -> tuple[tuple[tuple[int, ...], ...], np.ndarray]:
        """The offsets and their multipliers as one read-only (n, rows, cols)
        array, both in ``multipliers`` order, which is ascending offset order."""
        offsets = tuple(self.multipliers)
        stack = np.array([self.multipliers[off] for off in offsets], dtype=complex)
        stack = stack.reshape((len(offsets),) + self.shape)
        stack.setflags(write=False)
        return offsets, stack

    @property
    def dim(self) -> int:
        return self.lattice.dim

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.codomain_se), len(self.domain_se))

    def multiplier(self, off) -> np.ndarray:
        key = _int_vec(off)
        got = self.multipliers.get(key)
        if got is None:
            return np.zeros(self.shape, dtype=complex)
        return got

    def __eq__(self, other) -> bool:
        if not isinstance(other, MultiplicationOperator):
            return NotImplemented
        return (
            np.array_equal(self.lattice.basis, other.lattice.basis)
            and self.domain_se == other.domain_se
            and self.codomain_se == other.codomain_se
            and self.multipliers.keys() == other.multipliers.keys()
            and all(np.array_equal(self.multipliers[k], other.multipliers[k]) for k in self.multipliers)
        )

    __hash__ = None

    def __repr__(self) -> str:
        return (f"MultiplicationOperator(shape={self.shape}, "
                f"offsets={len(self.multipliers)}, dim={self.dim})")


def identity_operator(lattice: Lattice, se) -> MultiplicationOperator:
    se = _coerce_se(se)
    zero = (0,) * lattice.dim
    return MultiplicationOperator(lattice, se, se, {zero: np.eye(len(se))})


def add(l: MultiplicationOperator, g: MultiplicationOperator) -> MultiplicationOperator:
    if not lattice_equal(l.lattice, g.lattice):
        raise ValueError("incompatible operators: lattices differ")
    if l.domain_se != g.domain_se:
        raise ValueError("incompatible operators: domain structure elements differ")
    if l.codomain_se != g.codomain_se:
        raise ValueError("incompatible operators: codomain structure elements differ")
    lm, gm = l.multipliers, g.multipliers
    # a one-sided offset takes mat + 0.0, which turns -0.0 into +0.0 just as
    # adding a zero matrix would
    out = {off: mat + gm[off] if off in gm else mat + 0.0 for off, mat in lm.items()}
    out.update((off, mat + 0.0) for off, mat in gm.items() if off not in lm)
    return MultiplicationOperator(l.lattice, l.domain_se, l.codomain_se, out)


def scale(c: complex, l: MultiplicationOperator) -> MultiplicationOperator:
    out = {off: c * mat for off, mat in l.multipliers.items()}
    return MultiplicationOperator(l.lattice, l.domain_se, l.codomain_se, out)


def mul(l: MultiplicationOperator, g: MultiplicationOperator) -> MultiplicationOperator:
    """Operator composition L*G: offset convolution of the multiplier maps."""
    if not lattice_equal(l.lattice, g.lattice):
        raise ValueError("incompatible operators: lattices differ")
    if l.domain_se != g.codomain_se:
        raise ValueError("incompatible operators: inner structure elements differ")
    out: dict[tuple[int, ...], np.ndarray] = {}
    for y, a in l.multipliers.items():
        for w, b in g.multipliers.items():
            z = tuple(p + q for p, q in zip(y, w))
            acc = out.get(z)
            if acc is None:
                out[z] = a @ b
            else:
                out[z] = acc + a @ b
    return MultiplicationOperator(l.lattice, g.domain_se, l.codomain_se, out)


def adjoint(l: MultiplicationOperator) -> MultiplicationOperator:
    out = {tuple(-x for x in off): mat.conj().T for off, mat in l.multipliers.items()}
    return MultiplicationOperator(l.lattice, l.codomain_se, l.domain_se, out)


def _fractional(p) -> tuple[tuple[int, int], ...]:
    """The point reduced into [0,1)^n, as lowest-terms (numerator, denominator)
    pairs: equal exactly when two points are congruent mod Z^n."""
    return tuple((x.numerator % x.denominator, x.denominator) for x in p)


def _match_congruent(old_pts, new_pts):
    """Match each old point to the first unused new point of its class mod Z^n.

    Returns a list of (new_index, shift) pairs indexed by old position, where
    shift = old_point - new_point, the difference of their floors.
    """
    if len(old_pts) != len(new_pts):
        raise ValueError("structure elements not congruent")
    free: dict[tuple, list[int]] = {}  # class -> its unused indices, lowest last
    for q in reversed(range(len(new_pts))):
        free.setdefault(_fractional(new_pts[q]), []).append(q)
    out = []
    for sp in old_pts:
        unused = free.get(_fractional(sp))
        if not unused:
            raise ValueError("structure elements not congruent")
        q = unused.pop()
        out.append((q, tuple(floor(a) - floor(b) for a, b in zip(sp, new_pts[q]))))
    return out


def change_structure_element(l: MultiplicationOperator, u, v) -> MultiplicationOperator:
    """Rewrite L so its domain reads u and its codomain reads v.

    u must be congruent to the domain structure element and v to the codomain
    one.  An old entry (i, j) at offset y lands at offset y + e_j - f_i and
    position (sigma(i), pi(j)), where s_j = u_pi(j) + e_j and
    t_i = v_sigma(i) + f_i; the rewritten operator acts identically on value
    distributions.
    """
    u = _coerce_se(u)
    v = _coerce_se(v)
    dom = _match_congruent(l.domain_se.points, u.points)
    cod = _match_congruent(l.codomain_se.points, v.points)
    new_shape = (len(v), len(u))
    acc: dict[tuple[int, ...], np.ndarray] = {}
    for off, mat in l.multipliers.items():
        for i, j in zip(*np.nonzero(mat)):
            qi, fi = cod[i]
            rj, ej = dom[j]
            z = tuple(o + e - f for o, e, f in zip(off, ej, fi))
            blk = acc.get(z)
            if blk is None:
                blk = acc[z] = np.zeros(new_shape, dtype=complex)
            blk[qi, rj] = mat[i, j]
    return MultiplicationOperator(l.lattice, u, v, acc)


def _reduced_sorted(se: StructureElement) -> StructureElement:
    red = [tuple(Fraction(*c) for c in _fractional(p)) for p in se.points]
    order = sorted(range(len(red)), key=lambda idx: (red[idx], idx))
    return StructureElement([red[idx] for idx in order])


def normalize(l: MultiplicationOperator) -> MultiplicationOperator:
    """Normal form: structure elements reduced into [0,1)^n and sorted."""
    return change_structure_element(l, _reduced_sorted(l.domain_se), _reduced_sorted(l.codomain_se))


def lattice_coarsening(l: MultiplicationOperator, coarse: Lattice) -> MultiplicationOperator:
    """Rewrite L as a block operator on a sublattice of its own lattice.

    With quotient representatives tau_1..tau_p (canonical listing), the coarse
    structure elements interleave (tau_q + point) with the point index running
    fastest, and block (i, k) of the coarse multiplier at coarse offset z is
    the fine multiplier at fine offset rel*z + tau_i - tau_k.  Every offset
    plus tau_i is reduced to its tau_k in one QuotientMap.residue call in
    Python ints, so an offset of any size is exact, and z is rel^-1 times the
    difference.
    """
    rel = integral_relation(l.lattice, coarse)
    qm = QuotientMap(rel)
    taus = qm.reps.tolist()
    p = len(taus)
    to_coarse = mat_inv(rel)  # fine coordinates -> coarse coordinates
    scaled, d = scaled_integer(to_coarse)  # d*rel^-1 is integral

    # offset + tau_i for every offset (outer) and i, in Python ints
    fine = (np.array(list(l.multipliers), dtype=object).reshape(-1, 1, l.dim) + taus).reshape(-1, l.dim)
    residues = qm.residue(fine)
    zs = map(tuple, ((fine - residues) @ np.array(scaled, dtype=object).T // d).tolist())
    mats = list(l.multipliers.values())
    m_cod, m_dom = l.shape
    acc: dict[tuple[int, ...], np.ndarray] = {}
    for row, (k, z) in enumerate(zip(qm.indices(residues).tolist(), zs)):
        j, i = divmod(row, p)
        blk = acc.get(z)
        if blk is None:
            blk = acc[z] = np.zeros((p * m_cod, p * m_dom), dtype=complex)
        blk[i * m_cod:(i + 1) * m_cod, k * m_dom:(k + 1) * m_dom] = mats[j]

    def block_points(se: StructureElement):
        pts = []
        for tau in taus:
            for s in se.points:
                w = [t + x for t, x in zip(tau, s)]
                pts.append(tuple(sum(r * x for r, x in zip(row, w)) for row in to_coarse))
        return StructureElement(pts)

    return MultiplicationOperator(coarse, block_points(l.domain_se), block_points(l.codomain_se), acc)


def make_compatible(ops) -> list[MultiplicationOperator]:
    """Rewrite all operators on the coarsest common sublattice, normalized.

    An operator whose basis has the common lattice's bytes is only
    normalized: coarsening it onto its own lattice would change nothing.
    """
    ops = list(ops)
    if not ops:
        return []
    z = ops[0].lattice
    for op in ops[1:]:
        if is_sublattice(op.lattice, z):
            continue
        if is_sublattice(z, op.lattice):
            z = op.lattice
        else:
            z = lcm_lattice(z, op.lattice)
    key = z.basis.tobytes()
    return [normalize(op if op.lattice.basis.tobytes() == key else lattice_coarsening(op, z)) for op in ops]


def triangular_splitting(l: MultiplicationOperator) -> MultiplicationOperator:
    """Forward substitution part: offsets below zero plus tril of the center.

    The sweep runs bottom-to-top, then left-to-right: the last coordinate is
    the most significant, so an offset is below zero when its reversed tuple is.
    """
    if l.domain_se != l.codomain_se:
        raise ValueError("triangular splitting needs equal domain and codomain structure elements")
    zero = (0,) * l.dim
    out: dict[tuple[int, ...], np.ndarray] = {}
    for off, mat in l.multipliers.items():
        if off == zero:
            out[off] = np.tril(mat)
        elif off[::-1] < zero:
            out[off] = mat
    return MultiplicationOperator(l.lattice, l.domain_se, l.codomain_se, out)


def mask_central(l: MultiplicationOperator, mask) -> MultiplicationOperator:
    """Keep only the central multiplier, projected onto the masked positions."""
    if l.domain_se != l.codomain_se:
        raise ValueError("mask_central needs equal domain and codomain structure elements")
    mask = list(mask)
    if len(mask) != len(l.domain_se):
        raise ValueError("mask length does not match the structure element")
    zero = (0,) * l.dim
    proj = np.diag([1.0 if b else 0.0 for b in mask])
    return MultiplicationOperator(
        l.lattice, l.domain_se, l.codomain_se, {zero: proj @ l.multiplier(zero) @ proj}
    )

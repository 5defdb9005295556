"""The spectrum does not depend on how an operator is written.

Three rewrites, applied to the operators of every gallery entry and of
``tests/data/two_lattices.json``, on the 6 x 6 torus of the entry's common
lattice C.  (a) and (b) rewrite one bound operator at a time:

* (a) a unimodular change of basis: the operator coarsened onto A*U,
  |det U| = 1, and normalized.  A*U spans the lattice A spans, so the
  torus and the sample count stay the same.
* (b) a proper sublattice: the operator coarsened onto C*R, which makes C*R
  the common lattice, sampled at m' = R^-1 m.  C*R*m' = C*m is the same
  torus, listed as |det m| / |det R| samples of |det R|-times larger symbols.

Both routes must give the same eigenvalues over the whole torus; they are
compared with ``spectrum_distance``.  The bounds are about ten times the
largest distance measured on an x86-64 host with OpenBLAS (per entry, over
all rewrites and operators): laplacian-rb 7.8e-16, graphene 2.0e-15,
two_lattices 5.2e-14, and curlcurl 2.4e-13, whose non-normal symbols
amplify rounding in the eigenvalue solve.

* (c) a structure-element shift of every operator at once: each point of
  each domain and codomain moved by its own lattice vector in [-2, 2]^n,
  drawn by hypothesis, through ``change_structure_element``.  The
  compatibility rewrite's normal form undoes the shift, so the spectrum is
  the same bytes.  Per sample, the symbol of a shifted operator is
  diag(ph(f)) L_k diag(conj(ph(e))), with ph(x) = exp(+2*pi*i*<k_frac, x>)
  and e, f the domain and codomain shifts.  On a 4 x 4 torus every phase is
  a quarter turn, which the phase table holds exactly, so the relation holds
  with ==.  On a 6 x 6 torus it holds to SHIFT_BOUND relative to the sum
  over offsets of the largest multiplier entry, a bound on every entry of
  every L_k; the largest gap measured on an x86-64 host over 100 random
  shifts of every operator was 5.1e-16.
* (d) expressions over operators on different lattices, folded into one
  operator in position space by eval_position: graphene's and curlcurl's
  Galerkin products and the expression of two_lattices.json, after one
  bound operator, drawn by hypothesis, is coarsened onto A*U for a
  unimodular U with entries in [-2, 2].  At every sample of the 6 x 6 torus
  the folded operator's eigenvalues match the expression's within
  FOLD_BOUND (``spectrum_distance`` per sample).  Over all 104 such U and
  every operator, an x86-64 host measured at most 2.7e-15 for graphene,
  4.6e-15 for curlcurl and 8.5e-14 for two_lattices, whose spectrum
  reaches 30.
"""

from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stencilfa.cli import load_operator_file
from stencilfa.crystal import Lattice, StructureElement, sample_dual_torus
from stencilfa.expr import eval_position, parse
from stencilfa.gallery import build
from stencilfa.intlat import det_exact, mat_inv, mat_mul
from stencilfa.operator import change_structure_element, lattice_coarsening, make_compatible, normalize
from stencilfa.oracle import spectrum_distance
from stencilfa.symbol import compute_spectrum, symbols

TWO_LATTICES = str(Path(__file__).parent / "data" / "two_lattices.json")

BOUNDS = {"laplacian-rb": 1e-14, "graphene": 2e-14, "curlcurl": 2e-12, "two_lattices": 5e-13}

M = [[6, 0], [0, 6]]

UNIMODULAR = [[[1, 1], [0, 1]], [[2, 1], [1, 1]], [[0, 1], [-1, 0]]]
SUBLATTICE = [[[2, 1], [0, 1]], [[1, 0], [1, 3]]]

SHIFT_BOUND = 2e-15

FOLDS = [
    ("graphene", "R*L*adj(R)"),
    ("curlcurl", "R*K*adj(R)"),
    ("curlcurl", "R_N*K*adj(R_N)"),
    ("two_lattices", None),
]

FOLD_BOUND = 1e-13

# every 2x2 integer matrix with entries in [-2, 2] and determinant +-1
SMALL_UNIMODULAR = [
    [[a, b], [c, d]] for a, b, c, d in product(range(-2, 3), repeat=4) if abs(a * d - b * c) == 1
]


def _entry(name):
    return load_operator_file(TWO_LATTICES) if name == "two_lattices" else build(name)


def _on(lattice: Lattice, t) -> Lattice:
    return Lattice(lattice.basis @ np.array(t, dtype=float))


@pytest.mark.parametrize("name", list(BOUNDS))
@pytest.mark.parametrize(
    "kind, t", [("a", u) for u in UNIMODULAR] + [("b", r) for r in SUBLATTICE]
)
def test_spectrum_is_invariant_under_lattice_rewrites(name, kind, t):
    entry = _entry(name)
    ast = parse(entry.expression)
    env = ast.bind(entry.operators)
    base = compute_spectrum(ast, env, M)
    common = make_compatible(list(env.values()))[0].lattice
    det = abs(det_exact(t))
    for op_name, op in env.items():
        if kind == "a":
            target, m = _on(op.lattice, t), M
        else:
            target, m = _on(common, t), mat_mul(mat_inv(t), M)
        rewritten = normalize(lattice_coarsening(op, target))
        got = compute_spectrum(ast, {**env, op_name: rewritten}, m)
        assert len(got.eigenvalues) * det == len(base.eigenvalues)
        gap = spectrum_distance(got.eigenvalues.ravel(), base.eigenvalues.ravel())
        assert gap < BOUNDS[name], (op_name, gap)


def _draw_shifts(data, se: StructureElement) -> list[tuple[int, ...]]:
    vector = st.tuples(*[st.integers(-2, 2)] * se.dim)
    return [data.draw(vector) for _ in se]


def _shifted(se: StructureElement, shifts) -> StructureElement:
    return StructureElement([tuple(x + d for x, d in zip(p, s)) for p, s in zip(se, shifts)])


def _phases(num: np.ndarray, den: int, shifts, exact: bool) -> np.ndarray:
    """(samples, points) phases exp(+2*pi*i * <num/den, shift>): read as
    quarter turns when every turn is one, else through np.exp of the turn
    taken in [-1/2, 1/2)."""
    r = num @ np.array(shifts).T % den
    if exact:
        assert (4 * r % den == 0).all()
        return np.array([1, 1j, -1, complex(0, -1)])[4 * r // den]
    return np.exp(2j * np.pi * ((r + den // 2) % den - den // 2) / den)


@pytest.mark.parametrize("name", list(BOUNDS))
@given(data=st.data())
@settings(max_examples=10, deadline=None)
def test_structure_element_shifts_keep_spectrum_and_turn_symbols_by_phases(name, data):
    entry = _entry(name)
    ast = parse(entry.expression)
    env = ast.bind(entry.operators)
    base = compute_spectrum(ast, env, M)
    moved = {}
    for op_name, op in entry.operators.items():
        e, f = _draw_shifts(data, op.domain_se), _draw_shifts(data, op.codomain_se)
        shifted = change_structure_element(op, _shifted(op.domain_se, e), _shifted(op.codomain_se, f))
        moved[op_name] = shifted
        # a bound on every entry of every L_k: symbols near a Dirac point are
        # rounding noise, so the gap is taken relative to the operator
        scale = sum(np.abs(m).max() for m in op.multipliers.values())
        for res, exact in ((4, True), (6, False)):
            samples = sample_dual_torus(op.lattice, [[res, 0], [0, res]])
            ph_e = _phases(samples.num, samples.den, e, exact)
            ph_f = _phases(samples.num, samples.den, f, exact)
            want = ph_f[:, :, None] * symbols(op, samples.num, samples.den) * ph_e.conj()[:, None, :]
            got = symbols(shifted, samples.num, samples.den)
            if exact:
                assert (got == want).all(), op_name
            else:
                gap = np.abs(got - want).max() / scale
                assert gap <= SHIFT_BOUND, (op_name, gap)
    got = compute_spectrum(ast, {op_name: moved[op_name] for op_name in env}, M)
    assert got.eigenvalues.tobytes() == base.eigenvalues.tobytes()


@pytest.mark.parametrize("name, text", FOLDS)
@given(data=st.data())
@settings(max_examples=10, deadline=None)
def test_position_fold_matches_the_symbol_route(name, text, data):
    entry = _entry(name)
    expr = parse(text or entry.expression)
    env = expr.bind(entry.operators)
    op_name = data.draw(st.sampled_from(sorted(env)))
    u = data.draw(st.sampled_from(SMALL_UNIMODULAR))
    op = env[op_name]
    env[op_name] = normalize(lattice_coarsening(op, _on(op.lattice, u)))
    folded = eval_position(expr, env)
    got = compute_spectrum(parse("X"), {"X": folded}, M)
    want = compute_spectrum(expr, env, M)
    gap = max(map(spectrum_distance, got.eigenvalues, want.eigenvalues))
    assert gap <= FOLD_BOUND, (op_name, u, gap)

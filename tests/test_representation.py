"""The spectrum does not depend on the lattice an operator is written on.

Two rewrites of one bound operator, each applied to every operator of every
gallery entry and of ``tests/data/two_lattices.json`` in turn, on the 6 x 6
torus of the entry's common lattice C:

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
"""

from pathlib import Path

import numpy as np
import pytest

from stencilfa.cli import load_operator_file
from stencilfa.crystal import Lattice
from stencilfa.expr import parse
from stencilfa.gallery import build
from stencilfa.intlat import det_exact, mat_inv, mat_mul
from stencilfa.operator import lattice_coarsening, make_compatible, normalize
from stencilfa.oracle import spectrum_distance
from stencilfa.symbol import compute_spectrum

TWO_LATTICES = str(Path(__file__).parent / "data" / "two_lattices.json")

BOUNDS = {"laplacian-rb": 1e-14, "graphene": 2e-14, "curlcurl": 2e-12, "two_lattices": 5e-13}

M = [[6, 0], [0, 6]]

UNIMODULAR = [[[1, 1], [0, 1]], [[2, 1], [1, 1]], [[0, 1], [-1, 0]]]
SUBLATTICE = [[[2, 1], [0, 1]], [[1, 0], [1, 3]]]


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

"""A 3-D non-orthogonal crystal: diamond, from ``tests/data/diamond.json``.

The file was written by ``stencilfa describe --format json``.  It holds the
tight-binding operator ``H`` on the FCC lattice 0.5*[[0,1,1],[1,0,1],[1,1,0]]
with atoms at 0 and (1/4, 1/4, 1/4) (lattice coordinates), hopping -1
between nearest neighbours and 4 on site, its Gauss-Seidel part
``S = triangular_splitting(H)``, and the expression ``I - pinv(S)*H``.

The symbol route is checked against the dense oracle for ``H`` and for the
propagator.  The bounds are about ten times the largest distance measured
on an x86-64 host with OpenBLAS over the three tori: 4.2e-14 for ``H`` and
4.2e-15 for the propagator.  ``S`` alone is left out: its non-normal
symbols make the dense eigen-solve, not the symbols, miss by 3.9e-8 at res 3.
"""

from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from stencilfa.cli import load_operator_file, main
from stencilfa.crystal import Lattice, StructureElement
from stencilfa.expr import parse
from stencilfa.operator import MultiplicationOperator, triangular_splitting
from stencilfa.oracle import eval_dense, spectrum_distance
from stencilfa.symbol import compute_spectrum

DIAMOND = str(Path(__file__).parent / "data" / "diamond.json")

PROPAGATOR = "I - pinv(S)*H"


def diamond_hamiltonian() -> MultiplicationOperator:
    fcc = Lattice(0.5 * np.array([[0, 1, 1], [1, 0, 1], [1, 1, 0]]))
    q = Fraction(1, 4)
    se = StructureElement([(0, 0, 0), (q, q, q)])
    # the atom at 0 meets the one at (1/4, 1/4, 1/4) in its own cell and in
    # the cells -e_i; that atom meets the one at 0 in its cell and in +e_i
    mult = {(0, 0, 0): [[4.0, -1.0], [-1.0, 4.0]]}
    for step in np.eye(3, dtype=int).tolist():
        mult[tuple(-c for c in step)] = [[0.0, -1.0], [0.0, 0.0]]
        mult[tuple(step)] = [[0.0, 0.0], [-1.0, 0.0]]
    return MultiplicationOperator(fcc, se, se, mult)


def test_diamond_file_holds_the_tight_binding_operator_and_its_splitting():
    entry = load_operator_file(DIAMOND)
    h = diamond_hamiltonian()
    assert entry.operators == {"H": h, "S": triangular_splitting(h)}
    assert entry.expression == PROPAGATOR
    assert entry.resolution == ((3, 0, 0), (0, 3, 0), (0, 0, 3))


@pytest.mark.parametrize("text, bound", [("H", 5e-13), (PROPAGATOR, 5e-14)])
@pytest.mark.parametrize("m", [3 * np.eye(3, dtype=int), 4 * np.eye(3, dtype=int),
                               [[3, 1, 0], [0, 2, 0], [1, 0, 2]]])
def test_diamond_spectrum_matches_the_dense_oracle(text, bound, m):
    operators = load_operator_file(DIAMOND).operators
    ast = parse(text)
    result = compute_spectrum(ast, operators, m)
    dense = np.linalg.eigvals(eval_dense(ast, operators, m))
    assert spectrum_distance(result.eigenvalues.ravel(), dense) < bound


def test_diamond_describe_then_spectrum_round_trip(tmp_path):
    described = tmp_path / "diamond.json"
    assert main(["describe", "--input", DIAMOND, "--format", "json", "--output", str(described)]) == 0
    assert described.read_bytes() == Path(DIAMOND).read_bytes()
    csvs = []
    for source in (DIAMOND, described):
        out = tmp_path / f"{len(csvs)}.csv"
        assert main(["spectrum", "--input", str(source), "--output", str(out)]) == 0
        csvs.append(out.read_bytes())
    assert csvs[0] == csvs[1]
    header, *rows = csvs[0].decode().splitlines()
    assert header.startswith("k_frac_1,k_frac_2,k_frac_3,k_phys_1,k_phys_2,k_phys_3,")
    assert len(rows) == 27 * 2

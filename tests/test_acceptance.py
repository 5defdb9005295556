"""Acceptance suite: ten end-to-end checks with pinned tolerances.

Each test prints a one-line verdict (visible with ``pytest -s`` or ``-v``)
and exercises a complete pipeline rather than a single unit.  Expected
numbers are either published reference values, hand-derived tables, or
cross-checked against the independent dense oracles in ``oracles.py``.
"""

import time
from fractions import Fraction

import numpy as np

from oracles import intersection_determinant, pair_eigenvalues, symbol_at_rationals
from stencilfa.crystal import (
    Lattice,
    StructureElement,
    is_sublattice,
    lcm_lattice,
    sample_dual_torus,
)
from stencilfa.expr import parse
from stencilfa.gallery import build
from stencilfa.intlat import hnf, snf
from stencilfa.operator import (
    MultiplicationOperator,
    add,
    adjoint,
    lattice_coarsening,
    mul,
    normalize,
)
from stencilfa.oracle import assemble_dense, dense_spectrum, eval_dense, wave_basis
from stencilfa.symbol import compute_spectrum, eigenvalues, pinv_matrix, symbol_at

F = Fraction
POINT = StructureElement([(0, 0)])
TWO_SLOT = StructureElement([(0, 0), (F(1, 2), F(1, 2))])


def test_criterion_01_integer_normal_forms():
    res = hnf([[2, 3], [2, -2]])
    assert res.H == [[5, 2], [0, 2]]
    diag = snf([[2, 3], [2, -2]])
    assert diag.S == [[1, 0], [0, 10]]
    print("criterion 1: pass (hnf [[5,2],[0,2]], snf diagonal (1,10))")


def test_criterion_02_graphene_two_grid_factor():
    entry = build("graphene", omega=0.5)
    start = time.perf_counter()
    result = compute_spectrum(
        parse(entry.expression), entry.operators, 41 * np.eye(2, dtype=int)
    )
    elapsed = time.perf_counter() - start
    assert abs(result.rho - 0.16685901) < 1e-6
    assert elapsed < 30.0
    print(f"criterion 2: pass (rho_max = {result.rho:.8f} in {elapsed:.1f}s)")


def test_criterion_03_red_black_zero_eigenvalue():
    entry = build("laplacian-rb")
    result = compute_spectrum(
        parse(entry.expression), entry.operators, 16 * np.eye(2, dtype=int)
    )
    assert len(result.records) == 256
    worst = max(min(abs(e) for e in rec.eigenvalues) for rec in result.records)
    assert worst < 1e-10
    print(f"criterion 3: pass (largest 'zero' eigenvalue {worst:.2e} over 256 frequencies)")


def test_criterion_04_symbol_union_matches_dense_spectrum():
    operators = [
        build("laplacian-rb").operators["L"],
        build("graphene").operators["L"],
        build("curlcurl").operators["K"],
    ]
    resolutions = [np.diag([3, 4]), np.array([[2, 3], [2, -2]])]
    worst = 0.0
    for op in operators:
        for m in resolutions:
            union = []
            samples = sample_dual_torus(op.lattice, m)
            for num in samples.num.tolist():
                union.extend(eigenvalues(symbol_at(op, num, samples.den)))
            dense = dense_spectrum(assemble_dense(op, m))
            worst = max(worst, pair_eigenvalues(union, dense))
    assert worst < 1e-8
    print(f"criterion 4: pass (3 operators x 2 tori, worst multiset gap {worst:.2e})")


def test_criterion_05_coarsening_reproduces_printed_multipliers():
    expected_shape = {
        (0, 0): [[4, -1], [-1, 4]],
        (1, 0): [[0, 0], [-1, 0]],
        (0, 1): [[0, 0], [-1, 0]],
        (1, 1): [[0, 0], [-1, 0]],
        (-1, 0): [[0, -1], [0, 0]],
        (0, -1): [[0, -1], [0, 0]],
        (-1, -1): [[0, -1], [0, 0]],
    }
    for h in (1.0, 0.5, 0.7):
        w = 1.0 / (h * h)
        a = Lattice(np.eye(2) / h)
        five_point = MultiplicationOperator(
            a,
            POINT,
            POINT,
            {
                (0, 0): [[4.0 * w]],
                (1, 0): [[-w]],
                (-1, 0): [[-w]],
                (0, 1): [[-w]],
                (0, -1): [[-w]],
            },
        )
        rb = Lattice(a.basis @ np.array([[1.0, 1.0], [1.0, -1.0]]))
        coarse = normalize(lattice_coarsening(five_point, rb))
        assert set(coarse.multipliers) == set(expected_shape)
        for off, mat in expected_shape.items():
            assert np.array_equal(coarse.multiplier(off), w * np.array(mat, dtype=complex))
    print("criterion 5: pass (7 multipliers exact at h = 1, 1/2, 0.7)")


def test_criterion_06_wave_basis_orthonormal():
    m = np.diag([3, 4])
    vecs = wave_basis(Lattice(np.eye(2)), m, TWO_SLOT)
    assert len(vecs) == 24
    w = np.stack(vecs, axis=1)
    gram = w.conj().T @ w / 12.0
    residual = float(np.abs(gram - np.eye(24)).max())
    assert residual < 1e-12
    print(f"criterion 6: pass (24x24 Gram residual {residual:.2e})")


def test_criterion_07_conical_kernel_frequencies():
    l = build("graphene").operators["L"]
    worst = 0.0
    for k in ((F(1, 3), F(2, 3)), (F(2, 3), F(1, 3))):
        svals = np.linalg.svd(symbol_at_rationals(l, k), compute_uv=False)
        worst = max(worst, float(svals.min()))
    assert worst < 1e-10
    print(f"criterion 7: pass (largest sigma_min at the degenerate frequencies {worst:.2e})")


def test_criterion_08_lcm_lattice_properties():
    rng = np.random.default_rng(20260819)

    def random_rational_lattice():
        while True:
            entries = [
                [
                    F(int(rng.integers(-6, 7)), int(rng.integers(1, 5)))
                    for _ in range(2)
                ]
                for _ in range(2)
            ]
            if entries[0][0] * entries[1][1] - entries[0][1] * entries[1][0] != 0:
                return entries

    for _ in range(100):
        a_exact = random_rational_lattice()
        b_exact = random_rational_lattice()
        a = Lattice([[float(x) for x in row] for row in a_exact])
        b = Lattice([[float(x) for x in row] for row in b_exact])
        c = lcm_lattice(a, b)
        assert is_sublattice(a, c)
        assert is_sublattice(b, c)
        want = float(intersection_determinant(a_exact, b_exact))
        got = abs(float(np.linalg.det(c.basis)))
        assert abs(got - want) <= 1e-9 * max(1.0, want)
    print("criterion 8: pass (100 random pairs: sublattice of both, determinant matches)")


def test_criterion_09_symbol_calculus_homomorphism():
    rng = np.random.default_rng(7)
    lattice = Lattice(np.eye(2))

    def random_operator():
        table = {}
        for _ in range(int(rng.integers(1, 5))):
            off = (int(rng.integers(-2, 3)), int(rng.integers(-2, 3)))
            table[off] = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        return MultiplicationOperator(lattice, TWO_SLOT, TWO_SLOT, table)

    worst_hom = 0.0
    worst_penrose = 0.0
    for _ in range(50):
        l, g = random_operator(), random_operator()
        l_add, l_mul, l_adj = add(l, g), mul(l, g), adjoint(l)
        for _ in range(20):
            k = (F(int(rng.integers(0, 101)), 101), F(int(rng.integers(0, 101)), 101))
            sl = symbol_at_rationals(l, k)
            sg = symbol_at_rationals(g, k)
            worst_hom = max(
                worst_hom,
                float(np.abs(symbol_at_rationals(l_add, k) - (sl + sg)).max()),
                float(np.abs(symbol_at_rationals(l_mul, k) - sl @ sg).max()),
                float(np.abs(symbol_at_rationals(l_adj, k) - sl.conj().T).max()),
            )
            p = pinv_matrix(sl)
            worst_penrose = max(
                worst_penrose,
                float(np.abs(sl @ p @ sl - sl).max()),
                float(np.abs(p @ sl @ p - p).max()),
                float(np.abs((sl @ p).conj().T - sl @ p).max()),
                float(np.abs((p @ sl).conj().T - p @ sl).max()),
            )
    assert worst_hom < 1e-12
    assert worst_penrose < 1e-10
    print(
        f"criterion 9: pass (homomorphism gap {worst_hom:.2e}, "
        f"Penrose residual {worst_penrose:.2e})"
    )


def test_criterion_10_hybrid_smoother_end_to_end():
    entry = build("curlcurl", sigma_h=0.01)
    ast = parse(entry.expression)
    env = {name: entry.operators[name] for name in sorted(ast.identifiers())}
    m = np.diag([4, 4])
    result = compute_spectrum(ast, env, m)
    union = [e for rec in result.records for e in rec.eigenvalues]
    dense = list(np.linalg.eigvals(eval_dense(ast, env, m)))
    gap = pair_eigenvalues(union, dense)
    assert gap < 1e-8
    print(f"criterion 10: pass (rho = {result.rho:.5f}, dense-oracle gap {gap:.2e})")

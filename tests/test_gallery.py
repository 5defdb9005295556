"""Gallery entries: exact transcriptions, invariants, and known spectra."""

from fractions import Fraction

import numpy as np
import pytest

from oracles import pair_eigenvalues, symbol_at_rationals
from stencilfa.crystal import Lattice
from stencilfa.expr import eval_position, parse
from stencilfa.gallery import (
    GALLERY,
    build,
    curlcurl,
    entry_names,
    graphene,
    laplacian_rb,
)
from stencilfa.operator import (
    MultiplicationOperator,
    add,
    adjoint,
    lattice_coarsening,
    scale,
)
from stencilfa.oracle import assemble_dense, eval_dense, translation_residual
from stencilfa.symbol import compute_spectrum, eigenvalues, pinv_matrix

F = Fraction


# ---------------------------------------------------------------------------
# registry


def test_entry_names_sorted():
    assert entry_names() == ["curlcurl", "graphene", "laplacian-rb"]
    for name in entry_names():
        assert build(name).parameters


def test_build_unknown_name():
    with pytest.raises(ValueError, match="unknown gallery entry"):
        build("helmholtz")


def test_build_parameter_override():
    entry = build("laplacian-rb", h=0.5)
    assert entry.parameters == {"h": 0.5}
    assert build("graphene").parameters == {"omega": 0.5}


@pytest.mark.parametrize("name", sorted(GALLERY))
def test_build_is_a_comparable_value(name):
    entry = build(name)
    assert entry == build(name)
    assert entry.dim == 2
    n = entry.resolution[0][0]
    assert entry.resolution == ((n, 0), (0, n))
    assert all(type(x) is int for row in entry.resolution for x in row)


@pytest.mark.parametrize("name", sorted(GALLERY))
def test_default_expression_parses_and_binds(name):
    entry = build(name)
    ast = parse(entry.expression)
    assert ast.identifiers() <= set(entry.operators)


@pytest.mark.parametrize("name", sorted(GALLERY))
def test_all_operators_translation_invariant(name):
    entry = build(name)
    m = 3 * np.eye(2, dtype=int)
    for op in entry.operators.values():
        assert translation_residual(assemble_dense(op, m)) < 1e-10


# ---------------------------------------------------------------------------
# red-black Laplacian


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_rb_rejects_non_finite_h(bad):
    with pytest.raises(ValueError, match="grid spacing h"):
        laplacian_rb(h=bad)


def test_rb_multiplier_table():
    l = build("laplacian-rb", h=0.5).operators["L"]
    w = 4.0
    expected = {
        (0, 0): [[4, -1], [-1, 4]],
        (1, 0): [[0, 0], [-1, 0]],
        (0, 1): [[0, 0], [-1, 0]],
        (1, 1): [[0, 0], [-1, 0]],
        (-1, 0): [[0, -1], [0, 0]],
        (0, -1): [[0, -1], [0, 0]],
        (-1, -1): [[0, -1], [0, 0]],
    }
    assert set(l.multipliers) == set(expected)
    for off, mat in expected.items():
        assert np.array_equal(l.multiplier(off), w * np.array(mat, dtype=complex))


def test_rb_half_sweep_operators():
    entry = build("laplacian-rb")
    sr, sb = entry.operators["Sr"], entry.operators["Sb"]
    assert list(sr.multipliers) == [(0, 0)]
    assert list(sb.multipliers) == [(0, 0)]
    assert np.array_equal(sr.multiplier((0, 0)), np.diag([4.0, 0.0]))
    assert np.array_equal(sb.multiplier((0, 0)), np.diag([0.0, 4.0]))


def test_rb_operator_self_adjoint():
    l = build("laplacian-rb").operators["L"]
    assert adjoint(l) == l


def test_rb_sweep_annihilates_one_mode_per_frequency():
    # each frequency has a mode that one full red-black sweep removes exactly
    entry = build("laplacian-rb")
    res = compute_spectrum(parse(entry.expression), entry.operators, 4 * np.eye(2, dtype=int))
    assert len(res.records) == 16
    for rec in res.records:
        assert min(abs(e) for e in rec.eigenvalues) < 1e-10
    # the constant mode at k = 0 is untouched, so the sweep alone never contracts
    assert res.rho == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# graphene


def test_graphene_parameter_validation():
    for bad in (0.0, -1.0, 1.5):
        with pytest.raises(ValueError, match="omega"):
            graphene(omega=bad)
    assert graphene(omega=1.0).parameters["omega"] == 1.0


def test_graphene_hopping_table():
    l = build("graphene").operators["L"]
    expected = {
        (0, 0): [[0, -1], [-1, 0]],
        (0, -1): [[0, -1], [0, 0]],
        (1, 0): [[0, 0], [-1, 0]],
        (-1, 0): [[0, -1], [0, 0]],
        (0, 1): [[0, 0], [-1, 0]],
    }
    assert set(l.multipliers) == set(expected)
    for off, mat in expected.items():
        assert np.array_equal(l.multiplier(off), np.array(mat, dtype=complex))
    assert l.domain_se.points == ((F(1, 3), F(1, 3)), (F(2, 3), F(2, 3)))
    assert adjoint(l) == l


def test_graphene_rewritten_structure_element():
    entry = build("graphene")
    l = entry.operators["L"]
    l_hat = lattice_coarsening(l, Lattice(2.0 * l.lattice.basis))
    assert l_hat.domain_se.points == (
        (F(1, 6), F(1, 6)),
        (F(1, 3), F(1, 3)),
        (F(2, 3), F(1, 6)),
        (F(5, 6), F(1, 3)),
        (F(1, 6), F(2, 3)),
        (F(1, 3), F(5, 6)),
        (F(2, 3), F(2, 3)),
        (F(5, 6), F(5, 6)),
    )
    # the restriction acts on exactly this 8-slot element
    assert entry.operators["R"].domain_se == l_hat.domain_se
    assert entry.operators["R"].codomain_se == l.domain_se


def test_graphene_hexagon_smoother_block():
    # S1 keeps the interior 6x6 block of the central multiplier on 2A and
    # zeroes the two slots outside its hexagon
    entry = build("graphene")
    l = entry.operators["L"]
    l_hat = lattice_coarsening(l, Lattice(2.0 * l.lattice.basis))
    s1 = entry.operators["S1"]
    assert list(s1.multipliers) == [(0, 0)]
    central = s1.multiplier((0, 0))
    assert np.array_equal(central[0, :], np.zeros(8))
    assert np.array_equal(central[7, :], np.zeros(8))
    assert np.array_equal(central[:, 0], np.zeros(8))
    assert np.array_equal(central[:, 7], np.zeros(8))
    assert np.array_equal(central[1:7, 1:7], l_hat.multiplier((0, 0))[1:7, 1:7])


def test_graphene_restriction_central_multiplier():
    r = build("graphene").operators["R"]
    assert np.array_equal(
        r.multiplier((0, 0)),
        np.array(
            [
                [0, 1, 0, -0.5, 0, -0.5, 0, 0.25],
                [0.25, 0, -0.5, 0, -0.5, 0, 1, 0],
            ],
            dtype=complex,
        ),
    )
    assert len(r.multipliers) == 9


def test_graphene_galerkin_coarse_operator_hermitian():
    entry = build("graphene")
    l_hat = lattice_coarsening(
        entry.operators["L"], Lattice(2.0 * entry.operators["L"].lattice.basis)
    )
    r = entry.operators["R"]
    rng = np.random.default_rng(7)
    for _ in range(20):
        k = tuple(F(int(rng.integers(0, 97)), 97) for _ in range(2))
        lk = symbol_at_rationals(l_hat, k)
        rk = symbol_at_rationals(r, k)
        coarse = rk @ lk @ rk.conj().T
        assert np.abs(coarse - coarse.conj().T).max() < 1e-12


def test_graphene_conical_degeneracy():
    # the spectrum touches zero at the two special frequencies of the
    # hexagonal dual torus, so the operator symbol is singular there
    l = build("graphene").operators["L"]
    for k in ((F(1, 3), F(2, 3)), (F(2, 3), F(1, 3))):
        svals = np.linalg.svd(symbol_at_rationals(l, k), compute_uv=False)
        assert svals.min() < 1e-10
    # away from those frequencies the symbol is invertible
    generic = np.linalg.svd(symbol_at_rationals(l, (F(1, 5), F(1, 7))), compute_uv=False)
    assert generic.min() > 0.1


def test_graphene_coarse_grid_correction_keeps_degenerate_modes():
    # at the frequency where the coarse operator is singular, the
    # coarse-grid correction must leave the kernel modes untouched instead
    # of amplifying rounding noise
    entry = build("graphene")
    l_hat = lattice_coarsening(
        entry.operators["L"], Lattice(2.0 * entry.operators["L"].lattice.basis)
    )
    r = entry.operators["R"]
    k = (F(2, 3), F(1, 3))
    lk = symbol_at_rationals(l_hat, k)
    rk = symbol_at_rationals(r, k)
    _, svals, vh = np.linalg.svd(lk)
    kernel = vh.conj().T[:, svals < 1e-10]
    assert kernel.shape[1] == 2
    e_k = np.eye(8) - rk.conj().T @ pinv_matrix(rk @ lk @ rk.conj().T) @ rk @ lk
    assert np.abs(e_k @ kernel - kernel).max() < 1e-8


def test_graphene_smoother_alone_diverges():
    # the four-color sweep amplifies the degenerate modes slightly, so it is
    # not convergent on its own; only the two-grid combination contracts
    entry = build("graphene")
    sweep = parse(
        "(I - 0.5*pinv(S1)*L)*(I - 0.5*pinv(S2)*L)"
        "*(I - 0.5*pinv(S3)*L)*(I - 0.5*pinv(S4)*L)"
    )
    res = compute_spectrum(sweep, entry.operators, 41 * np.eye(2, dtype=int))
    assert res.rho > 1.0


# ---------------------------------------------------------------------------
# curl-curl


def test_curlcurl_parameter_validation():
    with pytest.raises(ValueError, match="sigma_h"):
        curlcurl(sigma_h=-0.01)
    assert curlcurl(sigma_h=0.0).parameters["sigma_h"] == 0.0


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_curlcurl_rejects_non_finite_sigma_h(bad):
    with pytest.raises(ValueError, match="sigma_h"):
        curlcurl(sigma_h=bad)


def test_curlcurl_multiplier_table():
    k = build("curlcurl", sigma_h=0.3).operators["K"]
    d, c = -1.0 + 0.3 / 6.0, 2.0 + 2.0 * 0.3 / 3.0
    expected = {
        (-1, 1): [[0, 0], [-1, 0]],
        (0, 1): [[d, 0], [1, 0]],
        (-1, 0): [[0, 0], [1, d]],
        (0, 0): [[c, -1], [-1, c]],
        (1, 0): [[0, 1], [0, d]],
        (0, -1): [[d, 1], [0, 0]],
        (1, -1): [[0, -1], [0, 0]],
    }
    assert set(k.multipliers) == set(expected)
    for off, mat in expected.items():
        assert np.array_equal(k.multiplier(off), np.array(mat, dtype=complex))
    assert k.domain_se.points == ((F(1, 2), F(0)), (F(0), F(1, 2)))
    assert adjoint(k) == k


def test_curlcurl_is_pure_operator_plus_scaled_mass():
    # the sigma_h family is affine: K(sigma_h) = K(0) + sigma_h * M with the
    # edge mass matrix M assembled independently here
    sigma = 0.37
    edges = build("curlcurl").operators["K"].domain_se
    mass = MultiplicationOperator(
        Lattice(np.eye(2)),
        edges,
        edges,
        {
            (0, 0): [[2 / 3, 0], [0, 2 / 3]],
            (0, 1): [[1 / 6, 0], [0, 0]],
            (0, -1): [[1 / 6, 0], [0, 0]],
            (1, 0): [[0, 0], [0, 1 / 6]],
            (-1, 0): [[0, 0], [0, 1 / 6]],
        },
    )
    combined = add(build("curlcurl", sigma_h=0.0).operators["K"], scale(sigma, mass))
    direct = build("curlcurl", sigma_h=sigma).operators["K"]
    assert set(combined.multipliers) == set(direct.multipliers)
    for off in direct.multipliers:
        assert np.abs(combined.multiplier(off) - direct.multiplier(off)).max() < 1e-14


def test_curlcurl_zero_sigma_symbol_singular_at_origin():
    k = curlcurl(sigma_h=0.0).operators["K"]
    svals = np.linalg.svd(symbol_at_rationals(k, (F(0), F(0))), compute_uv=False)
    assert np.array_equal(svals, np.zeros(2))


def test_curlcurl_edge_splitting_goldens():
    entry = build("curlcurl", sigma_h=0.3)
    d, c = -1.0 + 0.3 / 6.0, 2.0 + 2.0 * 0.3 / 3.0
    s_e = entry.operators["S_E"]
    # the vertical edge representative sits at e_v + a1 - a2, one cell right
    # and down, so its update sees the horizontal edge of the same rewritten
    # cell as already visited: the central block picks up that -1 coupling
    assert np.array_equal(
        s_e.multiplier((0, 0)), np.array([[c, 0], [-1, c]], dtype=complex)
    )
    assert np.array_equal(
        s_e.multiplier((-1, 0)), np.array([[0, 1], [0, d]], dtype=complex)
    )
    # a bottom-to-top, left-to-right sweep only keeps already-visited cells
    for off in s_e.multipliers:
        assert off == (0, 0) or tuple(reversed(off)) < (0, 0)


def test_curlcurl_nodal_operator_matches_symbol_product():
    entry = build("curlcurl")
    k, r_n, s_n = entry.operators["K"], entry.operators["R_N"], entry.operators["S_N"]
    k_n = eval_position(parse("R_N*K*adj(R_N)"), {"R_N": r_n, "K": k})
    rng = np.random.default_rng(3)
    for _ in range(10):
        kf = tuple(F(int(rng.integers(0, 89)), 89) for _ in range(2))
        want = symbol_at_rationals(r_n, kf) @ symbol_at_rationals(k, kf) @ symbol_at_rationals(r_n, kf).conj().T
        assert np.abs(symbol_at_rationals(k_n, kf) - want).max() < 1e-12
    # its splitting stays proportional to sigma_h: the curl-curl part
    # annihilates gradients, so only the mass term survives on the nodes
    assert np.abs(s_n.multiplier((0, 0))).max() < 10 * entry.parameters["sigma_h"]


def test_curlcurl_restriction_table():
    r = build("curlcurl").operators["R"]
    expected = {
        (0, 0): [
            [0.5, 0, 0.5, 0, 0.25, 0, 0.25, 0],
            [0, 0.5, 0, 0.25, 0, 0.5, 0, 0.25],
        ],
        (-1, 0): [
            [0, 0, 0, 0, 0, 0, 0, 0],
            [0, 0, 0, 0.25, 0, 0, 0, 0.25],
        ],
        (0, -1): [
            [0, 0, 0, 0, 0.25, 0, 0.25, 0],
            [0, 0, 0, 0, 0, 0, 0, 0],
        ],
    }
    assert set(r.multipliers) == {(0, 0), (-1, 0), (0, -1)}
    for off, mat in expected.items():
        assert np.array_equal(r.multiplier(off), np.array(mat, dtype=complex))
    assert r.codomain_se.points == ((F(1, 2), F(0)), (F(0), F(1, 2)))


def test_curlcurl_smoother_matches_dense_reference():
    entry = build("curlcurl")
    ast = parse(entry.expression)
    m = np.diag([2, 2]).astype(int)
    res = compute_spectrum(ast, entry.operators, m)
    dense = eval_dense(ast, entry.operators, m)
    got = [e for rec in res.records for e in rec.eigenvalues]
    want = list(np.linalg.eigvals(dense))
    assert pair_eigenvalues(got, want) < 1e-8


def test_curlcurl_smoothing_factor_reflects_mass_scale():
    # the hybrid smoother stalls on the near-kernel gradient modes, whose
    # damping is set by the zero-order term: rho is close to 1 - sigma_h / 2
    entry = build("curlcurl")
    res = compute_spectrum(
        parse(entry.expression), entry.operators, np.diag([4, 4]).astype(int)
    )
    assert res.rho == pytest.approx(1.0 - entry.parameters["sigma_h"] / 2.0, abs=5e-3)

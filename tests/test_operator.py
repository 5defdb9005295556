from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import pairwise_match_congruent
from stencilfa import operator as operator_module
from stencilfa.cli import load_operator_file
from stencilfa.crystal import Lattice, StructureElement, lattice_equal, lcm_lattice
from stencilfa.expr import parse
from stencilfa.gallery import build, entry_names
from stencilfa.operator import (
    MultiplicationOperator,
    _match_congruent,
    add,
    adjoint,
    change_structure_element,
    identity_operator,
    lattice_coarsening,
    make_compatible,
    mask_central,
    mul,
    normalize,
    scale,
    triangular_splitting,
)
from stencilfa.oracle import eval_dense, spectrum_distance
from stencilfa.symbol import compute_spectrum

SQUARE = Lattice([[1, 0], [0, 1]])
RB_COARSE = Lattice([[1, 1], [1, -1]])  # columns a1+a2, a1-a2


def five_point(h=1.0):
    w = 1.0 / (h * h)
    return MultiplicationOperator(
        Lattice([[1 / h, 0], [0, 1 / h]]) if h != 1.0 else SQUARE,
        [(0, 0)],
        [(0, 0)],
        {
            (0, 0): [[4 * w]],
            (1, 0): [[-w]],
            (-1, 0): [[-w]],
            (0, 1): [[-w]],
            (0, -1): [[-w]],
        },
    )


# the coarse stencil of the 5-point Laplacian on the checkerboard sublattice,
# offsets written w.r.t. the basis (a1+a2, a1-a2)
RB_LAPLACIAN_TABLE = {
    (0, 0): [[4, -1], [-1, 4]],
    (1, 0): [[0, 0], [-1, 0]],
    (0, 1): [[0, 0], [-1, 0]],
    (1, 1): [[0, 0], [-1, 0]],
    (-1, 0): [[0, -1], [0, 0]],
    (0, -1): [[0, -1], [0, 0]],
    (-1, -1): [[0, -1], [0, 0]],
}


def test_constructor_prunes_zero_matrices():
    op = MultiplicationOperator(SQUARE, [(0, 0)], [(0, 0)], {(0, 0): [[1.0]], (1, 0): [[0.0]]})
    assert set(op.multipliers) == {(0, 0)}


def test_multipliers_are_read_only():
    op = five_point()
    with pytest.raises(TypeError):
        op.multipliers[(0, 0)] = np.eye(1)
    with pytest.raises(TypeError):
        op.multipliers[(2, 0)] = np.eye(1)
    with pytest.raises(TypeError):
        del op.multipliers[(1, 0)]
    with pytest.raises(ValueError, match="read-only"):
        op.multipliers[(0, 0)][0, 0] = 0
    assert set(op.multipliers) == {(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)}


def test_constructor_rejects_fractional_offsets():
    with pytest.raises(ValueError, match="integer"):
        MultiplicationOperator(SQUARE, [(0, 0)], [(0, 0)], {(0.5, 0): [[1.0]]})


def test_constructor_rejects_bad_shape():
    with pytest.raises(ValueError, match="shape"):
        MultiplicationOperator(SQUARE, [(0, 0)], [(0, 0)], {(0, 0): [[1.0, 2.0]]})


def test_add_and_scale():
    lap = five_point()
    doubled = add(lap, lap)
    assert doubled == scale(2, lap)
    zero = add(lap, scale(-1, lap))
    assert zero.multipliers == {}
    assert scale(1, lap) == lap


def test_add_matches_zero_filled_sum_bit_for_bit():
    neg0 = complex(-0.0, -0.0)
    l = MultiplicationOperator(SQUARE, [(0, 0), (0, "1/2")], [(0, 0), (0, "1/2")], {
        (0, 0): [[1.5, neg0], [complex(-0.0, 2.0), 4.0]],
        (1, 0): [[neg0, -1.0], [0.25, neg0]],
        (0, 1): [[-0.0, 3.0], [complex(1.0, -0.0), 0.0]],
    })
    g = MultiplicationOperator(SQUARE, l.domain_se, l.codomain_se, {
        (0, 0): [[-1.5, neg0], [complex(0.0, -2.0), 1.0]],
        (0, 1): [[-0.0, -3.0], [complex(-1.0, -0.0), neg0]],
        (-1, 0): [[neg0, 7.0], [neg0, 1e-300]],
    })
    for a, b in ((l, g), (g, l), (l, l)):
        # the zero-filled formula: a zeros matrix stands in for a missing offset
        want = {
            off: a.multiplier(off) + b.multiplier(off)
            for off in a.multipliers.keys() | b.multipliers.keys()
        }
        got = add(a, b).multipliers
        assert list(got) == sorted(off for off in want if np.count_nonzero(want[off]))
        for off, mat in got.items():
            assert mat.tobytes() == want[off].tobytes()


def test_add_rejects_mismatched_crystals():
    lap = five_point()
    other = MultiplicationOperator(RB_COARSE, [(0, 0)], [(0, 0)], {(0, 0): [[1.0]]})
    with pytest.raises(ValueError, match="incompatible operators"):
        add(lap, other)
    shifted = MultiplicationOperator(SQUARE, [("1/2", 0)], [("1/2", 0)], {(0, 0): [[1.0]]})
    with pytest.raises(ValueError, match="incompatible operators"):
        add(lap, shifted)


def test_mul_identity_and_offsets():
    lap = five_point()
    ident = identity_operator(SQUARE, lap.domain_se)
    assert mul(ident, lap) == lap
    assert mul(lap, ident) == lap
    a = MultiplicationOperator(SQUARE, [(0, 0)], [(0, 0)], {(2, 1): [[3.0]]})
    b = MultiplicationOperator(SQUARE, [(0, 0)], [(0, 0)], {(-1, 1): [[-2.0]]})
    prod = mul(a, b)
    assert set(prod.multipliers) == {(1, 2)}
    assert prod.multiplier((1, 2))[0, 0] == -6.0


def test_adjoint_involution_and_self_adjointness():
    lap = five_point()
    assert adjoint(adjoint(lap)) == lap
    assert adjoint(lap) == lap


def test_adjoint_conjugates_and_flips():
    op = MultiplicationOperator(
        SQUARE, [(0, 0), ("1/2", "1/2")], [(0, 0)], {(1, 0): [[1j, 2.0]]}
    )
    adj = adjoint(op)
    assert adj.domain_se == op.codomain_se
    assert adj.codomain_se == op.domain_se
    assert np.array_equal(adj.multiplier((-1, 0)), np.array([[-1j], [2.0]]))


def test_coarsening_to_checkerboard_matches_hand_table():
    coarse = normalize(lattice_coarsening(five_point(), RB_COARSE))
    assert coarse.domain_se == StructureElement([(0, 0), ("1/2", "1/2")])
    assert coarse.codomain_se == coarse.domain_se
    assert set(coarse.multipliers) == set(RB_LAPLACIAN_TABLE)
    for off, mat in RB_LAPLACIAN_TABLE.items():
        assert np.array_equal(coarse.multiplier(off), np.array(mat, dtype=complex))


def test_coarsening_to_own_lattice_is_identity():
    lap = five_point()
    again = lattice_coarsening(lap, SQUARE)
    assert again == lap


def test_coarsening_requires_sublattice():
    lap = five_point()
    with pytest.raises(ValueError, match="not a sublattice"):
        lattice_coarsening(lap, Lattice([[0.5, 0], [0, 1]]))


def test_normalize_is_noop_on_normal_form():
    coarse = normalize(lattice_coarsening(five_point(), RB_COARSE))
    assert normalize(coarse) == coarse


def test_normalize_strips_full_lattice_shift():
    shifted = MultiplicationOperator(
        SQUARE, [(1, 0)], [(1, 0)],
        {off: mat for off, mat in five_point().multipliers.items()},
    )
    res = normalize(shifted)
    assert res == five_point()


def test_normalize_permutes_swapped_structure_element():
    coarse = normalize(lattice_coarsening(five_point(), RB_COARSE))
    swapped_se = StructureElement([("1/2", "1/2"), (0, 0)])
    swapped = change_structure_element(coarse, swapped_se, swapped_se)
    back = normalize(swapped)
    assert back == coarse
    # the swapped form itself is the permutation conjugate of the table
    perm = np.array([[0, 1], [1, 0]], dtype=complex)
    for off, mat in coarse.multipliers.items():
        assert np.array_equal(swapped.multiplier(off), perm @ mat @ perm)


def test_change_structure_element_round_trip():
    coarse = normalize(lattice_coarsening(five_point(), RB_COARSE))
    u = StructureElement([(Fraction(3, 2), Fraction(-1, 2)), (1, 1)])
    moved = change_structure_element(coarse, u, u)
    assert moved.domain_se == u
    back = change_structure_element(moved, coarse.domain_se, coarse.codomain_se)
    assert back == coarse


def test_change_structure_element_rejects_non_congruent():
    coarse = normalize(lattice_coarsening(five_point(), RB_COARSE))
    with pytest.raises(ValueError, match="not congruent"):
        change_structure_element(coarse, [(0, 0), ("1/3", 0)], coarse.codomain_se)


# class representatives with denominators 1 to 6, so one structure element
# mixes denominators; 1/7 steps off every class of this pool
point_class = st.tuples(*[st.fractions(min_value=0, max_value=1, max_denominator=6)] * 2)
integer_shift = st.tuples(st.integers(-3, 3), st.integers(-3, 3))


def _moved(p, shift):
    return tuple(x + s for x, s in zip(p, shift))


@st.composite
def congruent_points(draw):
    """Old points from at most three classes mod Z^2 (so classes repeat, and
    a point may repeat exactly), and the new points: a permutation of them,
    each moved by its own integer vector."""
    classes = draw(st.lists(point_class, min_size=1, max_size=3))
    n = draw(st.integers(1, 6))
    old = [_moved(draw(st.sampled_from(classes)), draw(integer_shift)) for _ in range(n)]
    new = [_moved(old[q], draw(integer_shift)) for q in draw(st.permutations(range(n)))]
    return old, new


@settings(max_examples=200, deadline=None)
@given(congruent_points())
def test_match_congruent_agrees_with_the_pairwise_reference(points):
    old, new = points
    got = _match_congruent(old, new)
    assert got == pairwise_match_congruent(old, new)
    assert sorted(q for q, _ in got) == list(range(len(new)))
    for sp, (q, shift) in zip(old, got):
        assert _moved(new[q], shift) == sp


@settings(max_examples=100, deadline=None)
@given(congruent_points(), st.data())
def test_match_congruent_rejects_what_the_reference_rejects(points, data):
    old, new = points
    i = data.draw(st.integers(0, len(new) - 1))
    off_class = new[:i] + [(new[i][0] + Fraction(1, 7), new[i][1])] + new[i + 1:]
    for target in (off_class, new[:-1], new + [new[0]]):
        for match in (_match_congruent, pairwise_match_congruent):
            with pytest.raises(ValueError, match="^structure elements not congruent$"):
                match(old, target)


def test_change_structure_element_on_128_points_matches_the_pairwise_reference(monkeypatch):
    l = build("graphene").operators["L"]
    coarse = lattice_coarsening(l, Lattice(8 * l.lattice.basis))
    assert coarse.shape == (128, 128)
    rng = np.random.default_rng(5)

    def scrambled(se):
        return StructureElement([
            _moved(se.points[q], rng.integers(-3, 4, size=2).tolist())
            for q in rng.permutation(len(se))
        ])

    u, v = scrambled(coarse.domain_se), scrambled(coarse.codomain_se)
    moved = change_structure_element(coarse, u, v)
    assert normalize(moved) == normalize(coarse)
    monkeypatch.setattr("stencilfa.operator._match_congruent", pairwise_match_congruent)
    assert change_structure_element(coarse, u, v) == moved


def test_triangular_splitting_bottom_up():
    coarse = normalize(lattice_coarsening(five_point(), RB_COARSE))
    s = triangular_splitting(coarse)
    assert set(s.multipliers) == {(0, 0), (0, -1), (-1, -1), (-1, 0)}
    assert np.array_equal(s.multiplier((0, 0)), np.array([[4, 0], [-1, 4]], dtype=complex))
    assert np.array_equal(s.multiplier((-1, 0)), np.array([[0, -1], [0, 0]], dtype=complex))


def test_triangular_splitting_keeps_diagonal_operator():
    op = MultiplicationOperator(SQUARE, [(0, 0)], [(0, 0)], {(0, 0): [[2.0]]})
    assert triangular_splitting(op) == op


def test_lex_order_is_bottom_to_top_then_left_to_right():
    offsets = [(5, -1), (-1, 0), (1, 0), (0, 1)]
    op = MultiplicationOperator(SQUARE, [(0, 0)], [(0, 0)], {off: [[1.0]] for off in offsets})
    assert set(triangular_splitting(op).multipliers) == {(5, -1), (-1, 0)}


def test_mask_central():
    coarse = normalize(lattice_coarsening(five_point(), RB_COARSE))
    red = mask_central(coarse, [True, False])
    assert set(red.multipliers) == {(0, 0)}
    assert np.array_equal(red.multiplier((0, 0)), np.array([[4, 0], [0, 0]], dtype=complex))
    assert mask_central(coarse, [False, False]).multipliers == {}
    full = mask_central(coarse, [True, True])
    assert set(full.multipliers) == {(0, 0)}
    assert np.array_equal(full.multiplier((0, 0)), coarse.multiplier((0, 0)))


def test_mask_central_size_check():
    coarse = normalize(lattice_coarsening(five_point(), RB_COARSE))
    with pytest.raises(ValueError, match="mask length"):
        mask_central(coarse, [True])


def test_make_compatible_noop_when_shared():
    lap = five_point()
    ident = identity_operator(SQUARE, lap.domain_se)
    out = make_compatible([lap, ident])
    assert out[0] == lap
    assert out[1] == ident


def test_make_compatible_rewrites_to_common_lattice():
    lap = five_point()
    on_coarse = identity_operator(RB_COARSE, [(0, 0), ("1/2", "1/2")])
    out = make_compatible([lap, on_coarse])
    expected = normalize(lattice_coarsening(lap, RB_COARSE))
    assert out[0] == expected
    assert out[1] == on_coarse
    assert np.allclose(out[0].lattice.basis, RB_COARSE.basis)


TWO_LATTICES = Path(__file__).parent / "data" / "two_lattices.json"


def test_make_compatible_takes_the_lcm_of_two_unnested_lattices():
    # one scalar operator on Z^2 written on diag(2,1) and on diag(1,2):
    # neither lattice contains the other, so the common one is their lcm
    scalar = MultiplicationOperator(SQUARE, [(0, 0)], [(0, 0)], {
        (0, 0): [[2.0]], (1, 0): [[-0.5]], (-1, 0): [[-0.5]], (0, 1): [[-0.5]], (0, -1): [[-0.5]],
    })
    l1 = lattice_coarsening(scalar, Lattice([[2, 0], [0, 1]]))
    l2 = lattice_coarsening(scalar, Lattice([[1, 0], [0, 2]]))
    half = Fraction(1, 2)
    assert l1.domain_se == StructureElement([(0, 0), (half, 0)])
    assert l2.domain_se == StructureElement([(0, 0), (0, half)])
    # the operator file that CI and the CLI tests read holds these two
    assert load_operator_file(str(TWO_LATTICES)).operators == {"L1": l1, "L2": l2}
    c1, c2 = make_compatible([l1, l2])
    lcm = lcm_lattice(l1.lattice, l2.lattice)
    for c in (c1, c2):
        assert lattice_equal(c.lattice, lcm)
        assert not lattice_equal(c.lattice, l1.lattice)
        assert not lattice_equal(c.lattice, l2.lattice)
    assert c1.domain_se == c2.domain_se
    assert c1.codomain_se == c2.codomain_se
    expr, env = parse("L1*L2 + L2*L1 - 0.5*L1"), {"L1": l1, "L2": l2}
    for m in ([[3, 0], [0, 3]], [[2, 3], [2, -2]]):
        result = compute_spectrum(expr, env, m)
        dense = np.linalg.eigvals(eval_dense(expr, env, m))
        assert abs(result.rho - 30.0) < 1e-12
        assert spectrum_distance(result.eigenvalues.ravel(), dense) < 1e-12


@pytest.mark.parametrize("source", entry_names() + ["two_lattices.json", "diamond.json"])
def test_make_compatible_coarsens_only_operators_off_the_common_lattice(source, monkeypatch):
    if source.endswith(".json"):
        entry = load_operator_file(str(TWO_LATTICES.parent / source))
    else:
        entry = build(source)
    coarsen = operator_module.lattice_coarsening
    # every operator of the entry, and the ones its expression names
    for ops in (list(entry.operators.values()), list(parse(entry.expression).bind(entry.operators).values())):
        out = make_compatible(ops)
        common = out[0].lattice
        coarsened = [normalize(coarsen(op, common)) for op in ops]
        assert out == coarsened
        for got, want in zip(out, coarsened):
            assert got.lattice.basis.tobytes() == want.lattice.basis.tobytes()
        # an operator whose basis has the common lattice's bytes is not coarsened
        calls = []
        with monkeypatch.context() as patch:
            patch.setattr(operator_module, "lattice_coarsening", lambda op, z: calls.append(op) or coarsen(op, z))
            assert make_compatible(ops) == out
        off = [op for op in ops if op.lattice.basis.tobytes() != common.basis.tobytes()]
        assert list(map(id, calls)) == list(map(id, off))


small_complex = st.builds(
    complex,
    st.integers(-3, 3).map(float),
    st.integers(-3, 3).map(float),
)


@st.composite
def small_operators(draw, max_points=2):
    npts = draw(st.integers(1, max_points))
    pts = draw(
        st.lists(
            st.tuples(st.fractions(min_value=-1, max_value=2, max_denominator=3),
                      st.fractions(min_value=-1, max_value=2, max_denominator=3)),
            min_size=npts, max_size=npts, unique=True,
        )
    )
    se = StructureElement(pts)
    noffs = draw(st.integers(1, 3))
    offs = draw(st.lists(st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
                         min_size=noffs, max_size=noffs, unique=True))
    mults = {}
    for off in offs:
        mults[off] = draw(
            st.lists(st.lists(small_complex, min_size=npts, max_size=npts),
                     min_size=npts, max_size=npts)
        )
    return MultiplicationOperator(SQUARE, se, se, mults)


@settings(max_examples=50, deadline=None)
@given(small_operators())
def test_normalize_idempotent(op):
    once = normalize(op)
    assert normalize(once) == once


@settings(max_examples=50, deadline=None)
@given(small_operators(), st.permutations([0, 1]), st.tuples(st.integers(-2, 2), st.integers(-2, 2)))
def test_change_structure_element_round_trip_random(op, perm, shift):
    pts = list(op.domain_se.points)
    if len(pts) == 2:
        pts = [pts[perm[0]], pts[perm[1]]]
    moved_pts = [tuple(c + s for c, s in zip(p, shift)) for p in pts]
    u = StructureElement(moved_pts)
    moved = change_structure_element(op, u, op.codomain_se)
    back = change_structure_element(moved, op.domain_se, op.codomain_se)
    assert back == op


@settings(max_examples=50, deadline=None)
@given(small_operators())
def test_adjoint_is_involution(op):
    assert adjoint(adjoint(op)) == op


@settings(max_examples=30, deadline=None)
@given(small_operators())
def test_coarsening_preserves_entry_mass(op):
    coarse_lat = Lattice([[2, 0], [0, 1]])
    coarse = lattice_coarsening(op, coarse_lat)
    fine_mass = sum(m.sum() for m in op.multipliers.values())
    coarse_mass = sum(m.sum() for m in coarse.multipliers.values())
    assert abs(coarse_mass - 2 * fine_mass) < 1e-12
    assert coarse.shape == (2 * op.shape[0], 2 * op.shape[1])


def test_offsets_beyond_int64_go_through_the_compatibility_rewrite():
    # laplacian-rb's L with a copy of its central multiplier at (2**70, 0) or
    # at (2**70 % 9, 0): the offsets differ by a multiple of 9, so on the
    # res-3 torus of L's lattice, and of the lattice rb*diag(3, 1) that L is
    # coarsened onto first (where the coarse offsets differ by a multiple of
    # 3), both give the same phases and the same summation order
    l = build("laplacian-rb").operators["L"]

    def with_copy_at(offset):
        return MultiplicationOperator(
            l.lattice, l.domain_se, l.codomain_se, {**l.multipliers, offset: l.multipliers[(0, 0)]}
        )

    far, near = with_copy_at((2**70, 0)), with_copy_at((2**70 % 9, 0))
    coarse = Lattice(l.lattice.basis @ np.array([[3.0, 0.0], [0.0, 1.0]]))
    m = [[3, 0], [0, 3]]
    for rewrite in (lambda op: op, lambda op: lattice_coarsening(op, coarse)):
        got = compute_spectrum(parse("L"), {"L": rewrite(far)}, m).eigenvalues
        want = compute_spectrum(parse("L"), {"L": rewrite(near)}, m).eigenvalues
        assert got.tobytes() == want.tobytes()

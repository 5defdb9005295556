"""Parser, renderer and evaluator tests for the expression DSL."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import symbol_at_rationals
from stencilfa.crystal import Lattice, StructureElement
from stencilfa.expr import (
    Add,
    Adjoint,
    EvaluationError,
    ExprSyntaxError,
    Expression,
    Ident,
    Identity,
    Mul,
    Neg,
    Pinv,
    ScalarMul,
    Sub,
    eval_position,
    parse,
    render,
)
from stencilfa.operator import MultiplicationOperator, add, adjoint, lattice_coarsening, mul
from stencilfa.oracle import spectrum_distance
from stencilfa.symbol import compute_spectrum

# fifty expressions that must survive parse -> render -> parse unchanged
ROUND_TRIP_CORPUS = [
    "L",
    "L + G",
    "L - G",
    "L*G",
    "-L",
    "L + G + H",
    "L - G - H",
    "L*G*H",
    "L + G*H",
    "(L + G)*H",
    "L*(G + H)",
    "2*L",
    "0.5*L",
    "-2*L",
    "2i*L",
    "1+2i*L",
    "0.25i*L",
    "2*L + 3*G",
    "adj(L)",
    "pinv(L)",
    "adj(pinv(L))",
    "pinv(adj(L))",
    "adj(L + G)",
    "pinv(L*G)",
    "I(L)",
    "I(L) + L",
    "I - L",
    "I + L",
    "(I - pinv(Sb)*L)*(I - pinv(Sr)*L)",
    "(I - 0.5*pinv(S1)*L)*(I - 0.5*pinv(S2)*L)",
    "I - adj(R)*pinv(R*L*adj(R))*R*L",
    "(I - adj(R_N)*pinv(S_N)*R_N*K)*(I - pinv(S_E)*K)",
    "A*-B",
    "A - -B",
    "-(A + B)",
    "-(A*B)",
    "-adj(A)",
    "-pinv(A)",
    "-0.25*adj(A)",
    "A*(B - C)*pinv(D)",
    "A*B + C*D",
    "A*B - C*D",
    "(A - B)*(A + B)",
    "pinv(pinv(A))",
    "adj(adj(A))",
    "2*3*A",
    "A + 2*I(A)",
    "K - R_N*K",
    "pinv(A)*pinv(B)*pinv(C)",
    "((A))",
]


def test_corpus_has_fifty_entries():
    assert len(ROUND_TRIP_CORPUS) == 50


@pytest.mark.parametrize("text", ROUND_TRIP_CORPUS)
def test_round_trip(text):
    e = parse(text)
    again = parse(render(e))
    assert again.ast == e.ast


def test_simple_ident():
    assert parse("L").ast == Ident("L")


def test_red_black_propagator_shape():
    ast = parse("(I - pinv(Sb)*L)*(I - pinv(Sr)*L)").ast
    assert ast == Mul(
        Sub(Identity(None), Mul(Pinv(Ident("Sb")), Ident("L"))),
        Sub(Identity(None), Mul(Pinv(Ident("Sr")), Ident("L"))),
    )


def test_precedence_star_over_plus():
    assert parse("A + B*C").ast == Add(Ident("A"), Mul(Ident("B"), Ident("C")))
    assert parse("(A + B)*C").ast == Mul(Add(Ident("A"), Ident("B")), Ident("C"))


def test_left_associative():
    assert parse("A - B - C").ast == Sub(Sub(Ident("A"), Ident("B")), Ident("C"))
    assert parse("A*B*C").ast == Mul(Mul(Ident("A"), Ident("B")), Ident("C"))


def test_scalar_literal_forms():
    assert parse("2*L").ast == ScalarMul(2.0, Ident("L"))
    assert parse("2i*L").ast == ScalarMul(2.0j, Ident("L"))
    assert parse("1+2i*L").ast == ScalarMul(1.0 + 2.0j, Ident("L"))
    assert parse("-2*L").ast == ScalarMul(-2.0, Ident("L"))


def test_unexpected_end_offset_four():
    with pytest.raises(ExprSyntaxError) as err:
        parse("(I -")
    assert err.value.offset == 4


def test_error_reports_expected_tokens():
    with pytest.raises(ExprSyntaxError) as err:
        parse("A + *B")
    assert err.value.offset == 4
    assert "identifier" in err.value.expected


def test_unbalanced_paren():
    with pytest.raises(ExprSyntaxError):
        parse("(A + B")
    with pytest.raises(ExprSyntaxError):
        parse("pinv(A")


def test_garbage_character():
    with pytest.raises(ExprSyntaxError):
        parse("A @ B")


def test_pure_scalar_term_rejected():
    with pytest.raises(ExprSyntaxError):
        parse("2")
    with pytest.raises(ExprSyntaxError):
        parse("2 + 3*L")
    with pytest.raises(ExprSyntaxError):
        parse("L + 3")


def test_scalar_must_multiply():
    with pytest.raises(ExprSyntaxError):
        parse("2 L")


@pytest.mark.parametrize("text, offset, expected", [
    ("A)", 1, ("end of expression", "'+'", "'-'", "'*'")),
    ("A B", 2, ("end of expression", "'+'", "'-'", "'*'")),
    ("2*3", 0, ("an operator for the scalar to multiply",)),
    ("I(pinv)", 2, ("operator name inside I(...)",)),
    ("I(2)", 2, ("operator name inside I(...)",)),
])
def test_syntax_error_names_offset_and_expectation(text, offset, expected):
    with pytest.raises(ExprSyntaxError) as err:
        parse(text)
    assert (err.value.offset, err.value.expected) == (offset, expected)
    assert str(err.value) == f"syntax error at offset {offset}: expected {', '.join(expected)}"


@pytest.mark.parametrize("text", ["L  ", "L\t"])
def test_trailing_whitespace_is_ignored(text):
    assert parse(text).ast == parse("L").ast


def test_bare_identity_alone_rejected():
    with pytest.raises(ValueError, match="bare I"):
        parse("I")
    with pytest.raises(ValueError, match="bare I"):
        parse("I + 2*I")
    # an I(name) is a valid shape source even without other identifiers
    parse("I(L) - I")


def test_empty_input():
    with pytest.raises(ExprSyntaxError):
        parse("")


def test_keywords_not_identifiers():
    # 'pinv' and 'adj' need parentheses
    with pytest.raises(ExprSyntaxError):
        parse("pinv + A")
    with pytest.raises(ExprSyntaxError):
        parse("adj*A")


def test_identifiers_listed():
    e = parse("(I - pinv(Sb)*L)*(I - pinv(Sr)*L)")
    assert e.identifiers() == {"Sb", "Sr", "L"}


# ---------------------------------------------------------------- evaluation


def _env2():
    a = np.array([[2.0, 1.0], [0.0, 1.0]], dtype=complex)
    b = np.array([[1.0, 1.0j], [0.0, 3.0]], dtype=complex)
    return {"A": a, "B": b}


def test_eval_add_mul_sub():
    env = _env2()
    got = parse("A*B - A + B").eval_matrices(env)
    want = env["A"] @ env["B"] - env["A"] + env["B"]
    assert np.allclose(got, want, atol=1e-14)


def test_eval_scalar_and_neg():
    env = _env2()
    got = parse("-2i*A*B").eval_matrices(env)
    assert np.allclose(got, -2j * (env["A"] @ env["B"]), atol=1e-14)


def test_eval_adjoint():
    env = _env2()
    got = parse("adj(A*B)").eval_matrices(env)
    assert np.allclose(got, (env["A"] @ env["B"]).conj().T, atol=1e-14)


def test_eval_pinv_inverts():
    env = _env2()
    got = parse("pinv(A)*A").eval_matrices(env)
    assert np.allclose(got, np.eye(2), atol=1e-12)


def test_eval_identity_materializes():
    env = _env2()
    got = parse("I - A").eval_matrices(env)
    assert np.allclose(got, np.eye(2) - env["A"], atol=1e-14)
    got = parse("2*I + A").eval_matrices(env)
    assert np.allclose(got, 2 * np.eye(2) + env["A"], atol=1e-14)


def test_eval_identity_named_takes_domain_size():
    env = {"R": np.ones((1, 2), dtype=complex)}
    got = parse("I(R)").eval_matrices(env)
    assert np.array_equal(got, np.eye(2))


def test_eval_identity_named_square():
    env = _env2()
    got = parse("I(A) - A").eval_matrices(env)
    assert np.allclose(got, np.eye(2) - env["A"], atol=1e-14)


def test_bind_takes_the_named_entries_in_sorted_order():
    env = {"Z": 0, "C": 3, "A": 1, "B": 2}
    bound = parse("I(B) - C*A").bind(env)
    assert list(bound.items()) == [("A", 1), ("B", 2), ("C", 3)]
    with pytest.raises(EvaluationError, match="^unbound identifiers 'D', 'E'$"):
        parse("E*A + D").bind(env)


def test_eval_unbound_identifier():
    with pytest.raises(ValueError, match="unbound identifier 'Q'"):
        parse("Q + A").eval_matrices(_env2())


def test_eval_shape_mismatch_mentions_node():
    env = {"A": np.eye(2, dtype=complex), "R": np.ones((1, 2), dtype=complex)}
    with pytest.raises(ValueError, match=r"shape mismatch in '\+'"):
        parse("A + R").eval_matrices(env)
    with pytest.raises(ValueError, match=r"shape mismatch in '\*'"):
        parse("R*R").eval_matrices(env)


def test_eval_bare_identity_never_sized():
    env = {"R": np.ones((1, 2), dtype=complex)}
    with pytest.raises(ValueError, match="non-square"):
        parse("I + R").eval_matrices(env)


def test_eval_bare_identity_through_pinv_and_adjoint():
    env = _env2()
    a = env["A"]
    assert np.allclose(parse("pinv(2*I)*A").eval_matrices(env), 0.5 * a, atol=1e-14)
    assert np.array_equal(parse("pinv(0*I)*A").eval_matrices(env), np.zeros((2, 2)))
    assert np.allclose(parse("adj(2i*I)*A").eval_matrices(env), -2j * a, atol=1e-14)


# over A (3x3), B (3x2) and C (2x3): bare I, I(name), adj, pinv (of full,
# rank-deficient and zero matrices), scalars and minus, on stacks
STACK_CORPUS = [
    "I - pinv(A)*A",
    "(I - pinv(B*C)*A)*(2*I + -A)",
    "adj(B)*A*B - 1+0.5i*I(B)",
    "pinv(2*I)*C*adj(C) + pinv(adj(C))*B",
    "-(A*pinv(I + A)) + adj(2i*I)*A - I(A)",
]


@pytest.mark.parametrize("text", STACK_CORPUS)
def test_eval_stack_matches_each_matrix(text):
    rng = np.random.default_rng(7)
    shapes = {"A": (3, 3), "B": (3, 2), "C": (2, 3)}
    stacks = {
        name: rng.normal(size=(5,) + shape) + 1j * rng.normal(size=(5,) + shape)
        for name, shape in shapes.items()
    }
    stacks["A"][0] = 0.0
    expr = parse(text)
    got = expr.eval_matrices(stacks)
    for i in range(5):
        want = expr.eval_matrices({name: s[i] for name, s in stacks.items()})
        assert got.shape == (5,) + want.shape
        assert np.ascontiguousarray(got[i]).tobytes() == np.ascontiguousarray(want).tobytes()


# ------------------------------------------------------- position evaluation


def _operators():
    lat = Lattice([[1, 0], [0, 1]])
    point = StructureElement([(0, 0)])
    l = MultiplicationOperator(
        lat,
        point,
        point,
        {
            (0, 0): [[4.0]],
            (1, 0): [[-1.0]],
            (-1, 0): [[-1.0]],
            (0, 1): [[-1.0]],
            (0, -1): [[-1.0]],
        },
    )
    pair = StructureElement([(0, 0), (Fraction(1, 2), Fraction(1, 2))])
    r = MultiplicationOperator(
        lat,
        pair,
        point,
        {(0, 0): [[1.0, 0.5]], (-1, 0): [[0.0, 0.5]]},
    )
    return l, r


def test_position_adjoint_matches_operator_module():
    l, r = _operators()
    got = eval_position(parse("adj(R)"), {"R": r})
    assert got == adjoint(r)


def test_position_galerkin_product():
    l, _ = _operators()
    # rewrite L on the checkerboard sublattice so it gets the two-slot
    # structure element, then restrict onto the single-slot crystal
    from stencilfa.operator import lattice_coarsening, normalize

    l2 = normalize(lattice_coarsening(l, Lattice([[1, 1], [1, -1]])))
    point = StructureElement([(0, 0)])
    r2 = MultiplicationOperator(
        Lattice([[1, 1], [1, -1]]),
        l2.domain_se,
        point,
        {(0, 0): [[1.0, 0.5]], (-1, 0): [[0.0, 0.5]]},
    )
    got = eval_position(parse("R*L*adj(R)"), {"R": r2, "L": l2})
    want = mul(mul(r2, l2), adjoint(r2))
    assert got == want


def test_position_identity_and_scalars():
    l, _ = _operators()
    got = eval_position(parse("2*L - L"), {"L": l})
    assert got == l
    prop = eval_position(parse("I - 0.25*L"), {"L": l})
    assert prop.multiplier((1, 0))[0][0] == pytest.approx(0.25)
    assert prop.multiplier((0, 0))[0][0] == pytest.approx(0.0)


def test_position_pinv_rejected():
    l, _ = _operators()
    with pytest.raises(ValueError, match="position space"):
        eval_position(parse("pinv(L)"), {"L": l})


def test_position_bare_identity_needs_one_structure_element():
    _, r = _operators()
    assert r.domain_se != r.codomain_se
    with pytest.raises(ValueError, match="bare"):
        eval_position(parse("I + R"), {"R": r})


def test_position_unbound():
    l, _ = _operators()
    with pytest.raises(ValueError, match="unbound"):
        eval_position(parse("L + Q"), {"L": l})


def _sheared_pair():
    """The 5-point L as A and its copy B on the sheared basis A*[[1, 1], [0, 1]],
    which spans the same lattice: B's offsets are in other coordinates."""
    a, _ = _operators()
    return a, lattice_coarsening(a, Lattice(a.lattice.basis @ [[1, 1], [0, 1]]))


@pytest.mark.parametrize("text", ["A + B", "A*B"])
def test_position_route_reads_two_bases_of_one_lattice(text):
    a, b = _sheared_pair()
    expr, env, m = parse(text), {"A": a, "B": b}, [[4, 0], [0, 4]]
    got = compute_spectrum(parse("X"), {"X": eval_position(expr, env)}, m)
    want = compute_spectrum(expr, env, m)
    assert max(map(spectrum_distance, got.eigenvalues, want.eigenvalues)) <= 1e-13


def test_add_and_mul_refuse_two_bases_of_one_lattice():
    a, b = _sheared_pair()
    for combine in (add, mul):
        with pytest.raises(ValueError, match="^incompatible operators: lattice bases differ$"):
            combine(a, b)


# ------------------------------------------------- symbol/position agreement


def _ast_strategy():
    leaves = st.sampled_from([Ident("L"), Ident("G"), Identity(None)])

    def extend(children):
        unary = st.one_of(
            children.map(Neg),
            children.map(Adjoint),
            st.tuples(st.sampled_from([2.0, 0.5, 1j, 1 + 2j]), children).map(
                lambda p: ScalarMul(*p)
            ),
        )
        binary = st.one_of(
            st.tuples(children, children).map(lambda p: Add(*p)),
            st.tuples(children, children).map(lambda p: Sub(*p)),
            st.tuples(children, children).map(lambda p: Mul(*p)),
        )
        return st.one_of(unary, binary)

    return st.recursive(leaves, extend, max_leaves=8)


def _has_ident(node) -> bool:
    if isinstance(node, Ident):
        return True
    if isinstance(node, (Add, Sub, Mul)):
        return _has_ident(node.left) or _has_ident(node.right)
    if isinstance(node, (Neg, ScalarMul, Adjoint, Pinv)):
        return _has_ident(node.child)
    return False


@given(ast=_ast_strategy(), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_position_route_matches_symbol_route(ast, seed):
    if not _has_ident(ast):
        ast = Add(ast, Ident("L"))
    lat = Lattice([[1, 0], [0, 1]])
    point = StructureElement([(0, 0)])
    rng = np.random.default_rng(seed)
    l = MultiplicationOperator(
        lat,
        point,
        point,
        {
            (0, 0): [[complex(*rng.normal(size=2))]],
            (1, 0): [[complex(*rng.normal(size=2))]],
            (0, -1): [[complex(*rng.normal(size=2))]],
        },
    )
    g = MultiplicationOperator(
        lat,
        point,
        point,
        {
            (0, 0): [[complex(*rng.normal(size=2))]],
            (-1, 1): [[complex(*rng.normal(size=2))]],
        },
    )
    env = {"L": l, "G": g}
    pos = eval_position(ast, env)
    num = rng.integers(0, 7, size=2)
    k = (Fraction(int(num[0]), 7), Fraction(int(num[1]), 7))
    via_position = symbol_at_rationals(pos, k)
    via_symbols = Expression(ast, render(ast)).eval_matrices(
        {name: symbol_at_rationals(op, k) for name, op in env.items()}
    )
    assert np.allclose(via_position, via_symbols, atol=1e-12)


@pytest.mark.parametrize(
    "text, scalar",
    [("-1-2i*L", complex(-1, -2)), ("-1+2i*L", complex(-1, 2)), ("2*-1-2i*L", complex(-2, -4))],
)
def test_leading_minus_negates_real_part_of_complex_literal(text, scalar):
    e = parse(text)
    assert e.ast == ScalarMul(scalar, Ident("L"))
    assert parse(render(e)).ast == e.ast


@pytest.mark.parametrize(
    "text, scalar, signs",
    [
        ("-2*L", complex(-2, 0), [True, True]),
        ("-2i*L", complex(0, -2), [False, True]),
        ("-0.5i*L", complex(0, -0.5), [False, True]),
        ("-0i*L", 0j, [False, True]),
        ("2*-3*L", complex(-6, 0), [True, True]),
        ("1-2i*L", complex(1, -2), [False, True]),
    ],
)
def test_one_part_literal_keeps_its_zero_signs(text, scalar, signs):
    got = parse(text).ast.scalar
    assert got == scalar
    assert np.signbit([got.real, got.imag]).tolist() == signs


@pytest.mark.parametrize(
    "text, value",
    [
        ("0.00001*L", 1e-05),
        ("10000000000000000*L", 1e16),
        ("123456789012345678.5*L", 123456789012345678.5),
    ],
)
def test_render_writes_no_exponent(text, value):
    e = parse(text)
    assert e.ast.scalar == value
    rendered = render(e)
    assert "e" not in rendered.lower()
    assert parse(rendered).ast == e.ast


def test_render_of_rendered_is_stable():
    for text in ROUND_TRIP_CORPUS:
        once = render(parse(text))
        twice = render(parse(once))
        assert once == twice

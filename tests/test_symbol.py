"""Symbol evaluation, pseudo-inverse, and spectrum sampling tests."""

import sys
import threading
from fractions import Fraction
from math import isqrt, lcm
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from oracles import (
    charpoly_eigenvalues,
    cumsum_symbol_at,
    fraction_inverse,
    fraction_symbol_at,
    k_fracs,
    pair_eigenvalues,
    per_sample_spectrum,
    symbol_at_rationals,
    where_pinv_matrix,
)
from stencilfa import expr as expr_module
from stencilfa import symbol
from stencilfa.cli import load_operator_file
from stencilfa.crystal import SAMPLE_CAP, Lattice, QuotientMap, StructureElement, phase_table, sample_dual_torus
from stencilfa.expr import EvaluationError, parse
from stencilfa.gallery import build
from stencilfa.operator import (
    MultiplicationOperator,
    add,
    adjoint,
    change_structure_element,
    lattice_coarsening,
    make_compatible,
    mul,
    normalize,
)
from stencilfa.oracle import assemble_dense, eval_dense, wave_basis
from stencilfa.symbol import (
    compute_spectrum,
    eigenvalues,
    pinv_matrix,
    spectrum_blocks,
    symbol_at,
    symbols,
)

SQUARE = Lattice([[1, 0], [0, 1]])
POINT = StructureElement([(0, 0)])
DIAMOND = str(Path(__file__).parent / "data" / "diamond.json")


def five_point(h=1.0):
    w = 1.0 / (h * h)
    return MultiplicationOperator(
        Lattice(np.eye(2) / h),
        POINT,
        POINT,
        {
            (0, 0): [[4 * w]],
            (1, 0): [[-w]],
            (-1, 0): [[-w]],
            (0, 1): [[-w]],
            (0, -1): [[-w]],
        },
    )


def test_laplacian_symbol_at_zero():
    s = symbol_at_rationals(five_point(), (Fraction(0), Fraction(0)))
    assert np.allclose(s, [[0.0]], atol=1e-15)


def test_laplacian_symbol_at_half_half():
    for h in (1.0, 0.25):
        s = symbol_at_rationals(five_point(h), (Fraction(1, 2), Fraction(1, 2)))
        assert np.allclose(s, [[8.0 / h**2]], atol=1e-9 / h**2)


def test_laplacian_symbol_closed_form():
    # (1/h^2) * (4 - 2cos(2 pi k1) - 2cos(2 pi k2))
    l = five_point()
    for k1, k2 in [(Fraction(1, 3), Fraction(0)), (Fraction(2, 7), Fraction(5, 7))]:
        s = symbol_at_rationals(l, (k1, k2))
        want = 4 - 2 * np.cos(2 * np.pi * float(k1)) - 2 * np.cos(2 * np.pi * float(k2))
        assert abs(s[0, 0] - want) < 1e-12


def test_symbol_accepts_dual_sample():
    l = five_point()
    samples = sample_dual_torus(l.lattice, [[2, 0], [0, 2]])
    for num in samples.num.tolist():
        s = symbol_at(l, num, samples.den)
        assert s.shape == (1, 1)
        assert np.array_equal(s, symbol_at_rationals(l, [Fraction(x, samples.den) for x in num]))


def test_symbol_of_dual_sample_uses_only_integer_numerators(monkeypatch):
    l = five_point()
    want = symbol_at_rationals(l, (Fraction(1, 2), Fraction(1, 4)))

    def no_fraction(*args):
        raise AssertionError("Fraction built for an integer row")

    # neither sampling nor the symbol of a sample row builds a Fraction
    monkeypatch.setattr("stencilfa.crystal.Fraction", no_fraction)
    monkeypatch.setattr("stencilfa.symbol.Fraction", no_fraction)
    samples = sample_dual_torus(l.lattice, [[4, 0], [0, 4]])
    num = samples.num.tolist()[9]
    # k_frac = (1/2, 1/4) over the samples' least common denominator 4
    assert (num, samples.den) == ([2, 1], 4)
    assert np.array_equal(symbol_at(l, num, samples.den), want)
    # the one sample of a trivial torus is an integer row over den 1
    point = sample_dual_torus(l.lattice, [[1, 0], [0, 1]])
    assert np.array_equal(symbol_at(l, point.num.tolist()[0], point.den), symbol_at_rationals(l, [0, 0]))


def test_symbol_of_multislot_operator_shape():
    rb = normalize(lattice_coarsening(five_point(), Lattice([[1, 1], [1, -1]])))
    s = symbol_at_rationals(rb, (Fraction(1, 5), Fraction(2, 5)))
    assert s.shape == (2, 2)
    # symbols of a self-adjoint operator are Hermitian
    assert np.allclose(s, s.conj().T, atol=1e-12)


def _same_bits(got, want):
    # stricter than np.array_equal: -0.0 and +0.0 differ here
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


def test_symbol_rejects_frequency_of_wrong_dimension():
    l = build("laplacian-rb").operators["L"]
    for k in ((Fraction(1, 4),), (Fraction(1, 4), 0, Fraction(1, 2))):
        with pytest.raises(ValueError, match=f"frequency has dimension {len(k)}, operator has dimension 2"):
            symbol_at_rationals(l, k)
    samples = sample_dual_torus(Lattice([[1.0]]), [[4]])
    with pytest.raises(ValueError, match="frequency has dimension 1, operator has dimension 2"):
        symbol_at(l, samples.num.tolist()[1], samples.den)
    with pytest.raises(ValueError, match="frequency has dimension 3, operator has dimension 2"):
        symbol_at(l, [1, 0, 2], 4)


def _random_operator(rng, dim, shape, offsets, zero=0):
    """A rows x cols operator on Z^dim with a random complex multiplier at
    each offset (the first dim entries of each list), about 30% of whose
    entries are ``zero``."""
    rows, cols = shape
    table = {}
    for off in offsets:
        m = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        m[rng.random(size=shape) < 0.3] = zero  # zero entries make signed zeros
        table[tuple(off[:dim])] = m
    se_dom = StructureElement([(Fraction(j, cols),) * dim for j in range(cols)])
    se_cod = StructureElement([(Fraction(i, rows),) * dim for i in range(rows)])
    return MultiplicationOperator(Lattice(np.eye(dim)), se_dom, se_cod, table)


_BIG = 10**30
# the lcm of three denominators up to 101 stays within SAMPLE_CAP = 2**20
_DENOMINATOR = 101
_THIRDS = [Fraction(1, 3), Fraction(2, 3), Fraction(0)]


@example(seed=0, dim=2, shape=(2, 3), offsets=[], k=_THIRDS, as_sample=False)
@example(seed=0, dim=2, shape=(2, 3), offsets=[], k=_THIRDS, as_sample=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    dim=st.integers(1, 3),
    shape=st.sampled_from([(1, 1), (2, 2), (2, 3)]),
    offsets=st.lists(st.lists(st.integers(-60, 60), min_size=3, max_size=3), max_size=9),
    k=st.lists(st.fractions(min_value=-_BIG, max_value=_BIG, max_denominator=_DENOMINATOR), min_size=3, max_size=3),
    as_sample=st.booleans(),
)
@settings(max_examples=300, deadline=None)
def test_symbol_matches_fraction_formula_bit_for_bit(seed, dim, shape, offsets, k, as_sample):
    rng = np.random.default_rng(seed)
    l = _random_operator(rng, dim, shape, offsets)
    k = k[:dim]
    if as_sample:
        # a common denominator of k within SAMPLE_CAP, not always the least one
        least = lcm(*(f.denominator for f in k))
        den = least * int(rng.integers(1, SAMPLE_CAP // least + 1))
        k = (tuple(int(f * den) % den for f in k), den)
        got = symbol_at(l, *k)
    else:
        k = (k,)
        got = symbol_at_rationals(l, *k)
    assert _same_bits(got, fraction_symbol_at(l, *k))
    if not l.multipliers:
        assert _same_bits(got, np.zeros(shape, dtype=complex))


_NEAR_2_61 = st.integers(2**61 - 60, 2**61 + 60) | st.integers(-(2**61) - 60, -(2**61) + 60)


# A 1x1 multiplier at offset (0, 1) and k = (0, 1/25): the 4-D broadcast
# stack * phases[..., None, None] gives real part 0x1.40a186ad07e88p-2 on an
# X86_V4 (AVX-512) host, where symbol_at gives ...e87p-2.  The operand
# layout decides whether numpy runs its SIMD complex multiply or its scalar
# loop, and the two round differently.
@example(seed=2, dim=2, shape=(1, 1), offsets=[[0, 1, 0]], den=25, first=[0, 1, 0], n=1, neg_zero=False)
# A 1x1 operator with five offsets: np.add.reduce sums its five terms
# pairwise and misses the running sum's bits at k = (1/7, 2/7).
@example(seed=4, dim=2, shape=(1, 1), offsets=[[0, 0, 0], [1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0]],
         den=7, first=[1, 2, 0], n=1, neg_zero=False)
# nine offsets, as graphene's R has after make_compatible
@example(seed=0, dim=2, shape=(2, 8), offsets=[[i, j, 0] for i in (-1, 0, 1) for j in (-1, 0, 1)],
         den=41, first=[3, 5, 0], n=2, neg_zero=False)
# -0.0 multiplier entries, with an all-zero entry that sums to -0.0 before + 0.0
@example(seed=1, dim=2, shape=(2, 2), offsets=[[0, 0, 0], [1, 0, 0]], den=5, first=[1, 3, 0], n=1, neg_zero=True)
# both sides of the phase table's bound: the table of SAMPLE_CAP entries, and
# one denominator past it, which both routes refuse
@example(seed=3, dim=2, shape=(2, 3), offsets=[[i, j, 0] for i in (-2, 0, 1) for j in (-1, 0, 3)],
         den=SAMPLE_CAP, first=[SAMPLE_CAP - 1, 2**40 + 5, 0], n=64, neg_zero=False)
@example(seed=3, dim=2, shape=(2, 3), offsets=[[i, j, 0] for i in (-2, 0, 1) for j in (-1, 0, 3)],
         den=SAMPLE_CAP + 1, first=[SAMPLE_CAP, 2**40 + 5, 0], n=64, neg_zero=False)
@given(
    seed=st.integers(0, 2**32 - 1),
    dim=st.integers(1, 3),
    shape=st.sampled_from([(1, 1), (2, 2), (2, 3), (8, 8)]),
    offsets=st.lists(st.lists(st.integers(-60, 60) | _NEAR_2_61, min_size=3, max_size=3), max_size=9),
    den=st.integers(1, 60) | st.integers(1, SAMPLE_CAP),
    first=st.lists(st.integers(-(2**62), 2**62), min_size=3, max_size=3),
    n=st.sampled_from([1, 2, 64, 100]),
    neg_zero=st.booleans(),
)
@settings(max_examples=150, deadline=None)
def test_symbols_give_the_symbol_at_bits_row_by_row(seed, dim, shape, offsets, den, first, n, neg_zero):
    rng = np.random.default_rng(seed)
    l = _random_operator(rng, dim, shape, offsets, complex(-0.0, -0.0) if neg_zero else 0)
    # numerators outside [0, den) as well as inside
    rest = rng.integers(-3 * den, 3 * den, size=(n - 1, dim)).tolist()
    num = np.array([first[:dim]] + rest, dtype=np.int64)
    if den > SAMPLE_CAP:
        for call in (lambda: symbols(l, num, den), lambda: symbol_at(l, num[0], den)):
            with pytest.raises(ValueError, match=f"denominator {den} is out of range"):
                call()
        return
    got = symbols(l, num, den)
    assert got.shape == (n,) + shape
    for row, mat in zip(num.tolist(), got):
        want = cumsum_symbol_at(l, row, den)
        assert _same_bits(symbol_at(l, row, den), want)
        assert _same_bits(mat, want)
        assert _same_bits(mat, fraction_symbol_at(l, row, den))


@pytest.mark.parametrize("den", [0, -4, np.int64(-4)])
def test_both_symbol_routes_refuse_a_denominator_below_one(den):
    # symbol_at raised ZeroDivisionError at 0 and read num/-4 at -4
    empty = MultiplicationOperator(SQUARE, POINT, POINT, {})
    for l in (five_point(), empty):
        for call in (lambda: symbol_at(l, [1, 2], den), lambda: symbols(l, [[1, 2]], den)):
            with pytest.raises(ValueError, match=f"denominator {den} is out of range") as raised:
                call()
            assert raised.type is ValueError


def test_symbols_refuse_a_denominator_past_exact_int64_phases():
    l = build("laplacian-rb").operators["L"]
    num = np.array([[2**31 - 2, 2**31 - 3], [-1, 7]])
    # a den is checked as a Python int, before any residue is taken, so an
    # operator without multipliers refuses it too
    empty = MultiplicationOperator(SQUARE, POINT, POINT, {})
    for op in (l, empty):
        for den in (SAMPLE_CAP + 1, 2**31 - 1, 2**40, np.int64(2**40), 0, -3):
            for call in (lambda: symbols(op, num, den), lambda: symbol_at(op, num[0], den)):
                with pytest.raises(ValueError, match=f"denominator {den} is out of range"):
                    call()
    with pytest.raises(ValueError, match=r"numerators of shape \(1, 3\), operator has dimension 2"):
        symbols(l, [[1, 0, 2]], 4)
    with pytest.raises(ValueError, match=r"numerators of shape \(2,\), operator has dimension 2"):
        symbols(l, [1, 0], 4)
    # an offset past int64 and an int64 den are reduced as Python ints
    far = MultiplicationOperator(SQUARE, POINT, POINT, {(2**70, 3): [[1.0]], (0, 1): [[2.0]]})
    for row, mat in zip(num.tolist(), symbols(far, num, np.int64(12))):
        assert _same_bits(mat, symbol_at(far, row, 12))
    # an operator without multipliers has the zero symbol at every row
    assert _same_bits(symbols(empty, num, 5), np.zeros((2, 1, 1), dtype=complex))
    # in 3-D at the largest den: the int64 product of residues stays exact
    h = load_operator_file(DIAMOND).operators["H"]
    num = np.array([[SAMPLE_CAP - 1, SAMPLE_CAP // 3, 1], [-5, 2**62, SAMPLE_CAP // 7], [0, 0, 0]])
    for row, mat in zip(num.tolist(), symbols(h, num, SAMPLE_CAP)):
        assert _same_bits(mat, symbol_at(h, row, SAMPLE_CAP))
        assert _same_bits(mat, fraction_symbol_at(h, row, SAMPLE_CAP))


def test_phase_table_is_read_only_and_shared_by_both_routes():
    phase_table.cache_clear()
    l = build("laplacian-rb").operators["L"]
    num = [[3, 5], [11, 0]]
    want = symbols(l, num, 12)
    table = phase_table(12)
    assert phase_table.cache_info().currsize == 1
    assert not table.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        table[0] = 2.0
    # symbol_at and the oracle's wave basis read the kept table: the same
    # array, the same bits
    hits = phase_table.cache_info().hits
    for row, mat in zip(num, want):
        assert _same_bits(symbol_at(l, row, 12), mat)
    basis = wave_basis(SQUARE, [[4, 0], [0, 3]], POINT)
    assert phase_table.cache_info().hits == hits + 3
    assert phase_table(12) is table
    # the basis vector of k_frac = (1/4, 1/3) holds that table's entries
    reps = QuotientMap([[4, 0], [0, 3]]).reps
    row = sample_dual_torus(SQUARE, [[4, 0], [0, 3]]).num.tolist().index([3, 4])
    assert _same_bits(basis[row], table[(reps @ [3, 4]) % 12])
    # a den past SAMPLE_CAP builds no table, SAMPLE_CAP itself does
    for call in (lambda: symbol_at(l, [1, 2], SAMPLE_CAP + 1), lambda: symbols(l, num, SAMPLE_CAP + 1)):
        with pytest.raises(ValueError, match=f"denominator {SAMPLE_CAP + 1} is out of range"):
            call()
    assert phase_table.cache_info().currsize == 1
    assert phase_table(12) is table
    misses = phase_table.cache_info().misses
    symbol_at(l, [1, 2], SAMPLE_CAP)
    assert phase_table.cache_info().misses == misses + 1
    assert phase_table(SAMPLE_CAP).shape == (SAMPLE_CAP,)
    phase_table.cache_clear()


def test_symbol_at_takes_numpy_integer_numerators_exactly():
    # laplacian-rb's L with a copy of its central multiplier at (2**61, 0):
    # an int64 numerator times that offset wraps unless taken as a Python int
    l = build("laplacian-rb").operators["L"]
    far = MultiplicationOperator(
        l.lattice, l.domain_se, l.codomain_se, {**l.multipliers, (2**61, 0): l.multipliers[(0, 0)]}
    )
    samples = sample_dual_torus(far.lattice, [[10, 0], [0, 10]])
    num, den = samples.num, samples.den
    assert num.dtype == np.int64
    for i in (37, 1, len(samples) - 1):
        want = symbol_at(far, num[i].tolist(), den)
        assert _same_bits(symbol_at(far, num[i], den), want)
        assert _same_bits(symbols(far, num[i : i + 1], den)[0], want)
    # an int64 den is taken as a Python int too, as symbols takes it
    assert _same_bits(symbol_at(far, [30, 70], np.int64(10)), symbol_at(far, [30, 70], 10))


def test_symbols_refuse_non_integer_numerators():
    l = build("laplacian-rb").operators["L"]
    for num in ([[0.5, 0.0]], [[1.0, 0.0]], [[1 + 0j, 0]], np.array([[1, 0.5]], dtype=object)):
        with pytest.raises(TypeError):
            symbols(l, np.asarray(num), 4)
        with pytest.raises(TypeError):
            symbol_at(l, np.asarray(num)[0], 4)
    with pytest.raises(TypeError):
        symbol_at(l, [0.5, 0.0], 4)


# ----------------------------------------------------------------- pinv


@pytest.fixture
def cold_memo():
    symbol._memo_pinv.cache_clear()
    yield symbol._memo_pinv
    symbol._memo_pinv.cache_clear()


def _kept(memo) -> int:
    return memo.cache_info().currsize


def _is_hit(memo, m) -> bool:
    """Whether pinv_matrix(m) is served from the memo (a miss adds m to it)."""
    hits = memo.cache_info().hits
    pinv_matrix(m)
    return memo.cache_info().hits == hits + 1


def test_pinv_of_invertible_is_inverse():
    rng = np.random.default_rng(7)
    m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) + 3 * np.eye(2)
    p = pinv_matrix(m)
    assert np.linalg.norm(m @ p - np.eye(2)) < 1e-12


def test_pinv_zero_matrix():
    assert np.array_equal(pinv_matrix(np.zeros((2, 3))), np.zeros((3, 2)))


def test_pinv_red_black_diag():
    # the masked central multiplier of the checkerboard Laplacian
    p = pinv_matrix(np.array([[4.0, 0.0], [0.0, 0.0]]))
    assert np.allclose(p, [[0.25, 0.0], [0.0, 0.0]], atol=1e-14)


def test_pinv_rectangular_least_squares():
    m = np.array([[1.0, 0.0], [0.0, 2.0], [0.0, 0.0]])
    p = pinv_matrix(m)
    assert p.shape == (2, 3)
    assert np.allclose(p @ m, np.eye(2), atol=1e-13)


def test_pinv_rank_tolerance_override():
    m = np.diag([1.0, 1e-9])
    assert abs(pinv_matrix(m)[1, 1] - 1e9) < 1.0


def test_pinv_noise_level_matrix_is_zero(cold_memo):
    # a matrix that is zero in exact arithmetic but carries rounding residue
    # must not be inverted into garbage; the absolute floor catches it, on
    # the first call and on a memo hit alike (a 3x3 takes the SVD route)
    rng = np.random.default_rng(0)
    noise = 1e-15 * (rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
    for _ in range(2):
        p = pinv_matrix(noise)
        assert _same_bits(p, np.zeros((3, 3), dtype=complex))
        # a hit keeps the memory layout of a new SVD's result
        assert p.strides == where_pinv_matrix(noise).strides
    assert _kept(cold_memo) == 1
    # without the floor the raw relative cutoff inverts the noise
    assert np.abs(where_pinv_matrix(noise, zero_tol=0.0)).max() > 1e12


def test_symbol_pinv_wraps_sample():
    l = five_point()
    s = symbol_at_rationals(l, (Fraction(1, 2), Fraction(0)))
    p = pinv_matrix(s)
    assert abs(p[0, 0] - 0.25) < 1e-14


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 4), rank=st.integers(0, 4))
@settings(max_examples=80, deadline=None)
# ||p s p - p|| = 1.47e-10 at ||p|| = 794: that residual grows with ||p||
@example(seed=335, n=3, rank=3)
def test_pinv_penrose_axioms(seed, n, rank):
    rng = np.random.default_rng(seed)
    rank = min(rank, n)
    u = rng.normal(size=(n, rank)) + 1j * rng.normal(size=(n, rank))
    v = rng.normal(size=(rank, n)) + 1j * rng.normal(size=(rank, n))
    s = (u @ v) if rank else np.zeros((n, n), dtype=complex)
    p = pinv_matrix(s)
    assert np.linalg.norm(s @ p @ s - s) < 1e-10
    # p s p - p is homogeneous of degree 1 in p, so its bound scales with ||p||
    assert np.linalg.norm(p @ s @ p - p) < 1e-10 * max(1.0, np.linalg.norm(p))
    assert np.linalg.norm((s @ p).conj().T - s @ p) < 1e-10
    assert np.linalg.norm((p @ s).conj().T - p @ s) < 1e-10


@given(
    seed=st.integers(0, 2**32 - 1),
    rows=st.sampled_from(range(5)),
    cols=st.integers(1, 4),
    spectrum=st.lists(st.sampled_from([1.0, 0.3, 1e-9, 1e-15, 1e-17, 0.0]), min_size=1, max_size=4),
    scale=st.floats(1.0, 1e6) | st.sampled_from([1e-10, 1e-11, 1e-12, 0.0]),
)
@settings(max_examples=300, deadline=None)
def test_pinv_matrix_equals_two_where_form_bit_for_bit(seed, rows, cols, spectrum, scale):
    # singular values near the zero floor (scale 1e-10 times 1.0 and 0.3, and
    # scales 1e-11 and 1e-12, straddle eps^(2/3)) and near the rank cut
    # (1e-15, 1e-17 against max(shape)*eps), empty and non-square shapes;
    # 1x1 and 2x2 inputs take the closed form, tested below
    assume((rows, cols) not in symbol._SMALL_SHAPES)
    rng = np.random.default_rng(seed)
    k = min(rows, cols, len(spectrum))
    q1 = np.linalg.qr(rng.normal(size=(rows, rows)) + 1j * rng.normal(size=(rows, rows)))[0]
    q2 = np.linalg.qr(rng.normal(size=(cols, cols)) + 1j * rng.normal(size=(cols, cols)))[0]
    m = scale * (q1[:, :k] * np.array(spectrum[:k])) @ q2[:k, :]
    want = where_pinv_matrix(m)
    # a cold call runs the SVD, the second is a memo hit (or a bypass)
    symbol._memo_pinv.cache_clear()
    assert _same_bits(pinv_matrix(m), want)
    assert _same_bits(pinv_matrix(m), want)


# ----------------------------------------------------- pinv closed form

_EPS = float(np.finfo(float).eps)
_small_entries = st.lists(
    st.complex_numbers(max_magnitude=1e6, allow_nan=False, allow_infinity=False), min_size=4, max_size=4
)


@given(size=st.sampled_from([1, 2]), entries=_small_entries, exponent=st.integers(-40, 40))
@settings(max_examples=300, deadline=None)
@example(size=2, entries=[1, 2, 3, 4], exponent=0)
@example(size=2, entries=[1e6, 1, 1, 1e-6], exponent=0)
@example(size=1, entries=[-3j, 0, 0, 0], exponent=-30)
def test_closed_form_inverts_full_rank_matrices_as_exact_arithmetic_does(size, entries, exponent):
    m = (np.array(entries[: size * size]) * 2.0**exponent).reshape(size, size)
    s = np.linalg.svd(m, compute_uv=False)
    # full rank, well above the zero floor and the rank cut
    assume(s[0] > 1e-6 and s[-1] > 1e-12 * s[0])
    kept = symbol._memo_pinv.cache_info().currsize
    got = pinv_matrix(m)
    want = fraction_inverse(m)
    # det = ad - bc loses at most about 2 eps * f / |det| <= 4 eps * kappa of
    # its bits to cancellation; the divisions add a few eps
    kappa = s[0] / s[-1]
    assert np.linalg.norm(got - want) <= 16 * _EPS * kappa * np.linalg.norm(want)
    assert symbol._memo_pinv.cache_info().currsize == kept


@given(seed=st.integers(0, 2**32 - 1), exponent=st.integers(-16, 16), real=st.booleans())
@settings(max_examples=200, deadline=None)
def test_closed_form_never_inverts_a_rank_one_matrix(seed, exponent, real):
    # each entry of m = u v^H rounds with relative error at most sqrt(5)*eps/2,
    # so the computed |det| stays below about 1.7 eps * f, under the rank
    # cut's 2 eps * s1**2: the closed form always drops s2
    rng = np.random.default_rng(seed)
    u, v = rng.normal(size=(2, 2)) + (0 if real else 1j) * rng.normal(size=(2, 2))
    m = np.outer(u, v.conj()) * 2.0**exponent
    got = pinv_matrix(m)
    want = np.outer(v, u.conj()) / (np.vdot(u, u).real * np.vdot(v, v).real * 2.0**exponent)
    assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)


def test_closed_form_floors_noise_to_the_zero_matrix(cold_memo):
    rng = np.random.default_rng(0)
    noise = 1e-15 * (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    assert _same_bits(pinv_matrix(noise), np.zeros((2, 2), dtype=complex))
    assert _same_bits(pinv_matrix(noise[:1, :1]), np.zeros((1, 1), dtype=complex))
    # the floor is on s1: just below it the zero matrix, just above it the
    # SVD route's result, for a 1x1, a rank-one and a full-rank 2x2
    q = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0]
    for s1 in (0.9 * symbol.ZERO_MATRIX_TOL, 1.1 * symbol.ZERO_MATRIX_TOL):
        for m in (np.array([[s1]]), np.diag([s1, 0.0]), s1 * q):
            got = pinv_matrix(m)
            if s1 < symbol.ZERO_MATRIX_TOL:
                assert _same_bits(got, np.zeros(m.shape, dtype=complex))
            else:
                want = where_pinv_matrix(m)
                assert np.linalg.norm(got - want) <= 1e-14 * np.linalg.norm(want)
    assert _kept(cold_memo) == 0


@pytest.mark.parametrize("t", [1.9, 2.0, 2.1])
def test_closed_form_cuts_where_the_svd_route_does(t):
    # s2 = t*eps*s1 exactly, on either side of and at the cut max(shape)*eps*s1;
    # an inverted s2 would give an entry near 1/(2*eps), about 2e15
    for m in (np.diag([1.0, t * _EPS]), np.array([[0, -1j], [t * _EPS, 0]])):
        want = where_pinv_matrix(m)
        assert np.linalg.norm(pinv_matrix(m) - want) <= 1e-14 * np.linalg.norm(want)
        assert (np.abs(want).max() > 1.0) == (t > 2.0)


def test_closed_form_runs_no_svd_and_keeps_nothing(cold_memo, monkeypatch):
    def no_svd(*args, **kwargs):
        raise AssertionError("SVD run for a 1x1 or 2x2 input")

    monkeypatch.setattr(np.linalg, "svd", no_svd)
    for m in ([[2.0]], [[0.0]], [[1, 2], [3, 4]], [[1, 2], [2, 4]], [[4, 0], [0, 0]], np.zeros((2, 2))):
        pinv_matrix(np.array(m, dtype=complex))
    assert _kept(cold_memo) == 0


@pytest.mark.parametrize(
    "m",
    [
        [[np.nan]],
        [[complex(1.0, np.nan)]],
        [[np.nan, 0], [0, 1]],
        [[1, 2], [3, complex(0, np.nan)]],
        [[np.inf]],
        [[complex(0, np.inf)]],
        [[np.inf, 0], [0, 1]],
        [[1, 1], [1, -np.inf]],
    ],
)
def test_closed_form_leaves_non_finite_inputs_to_the_svd_route(cold_memo, monkeypatch, m):
    # the closed form passes a NaN or infinite entry on, and the SVD route
    # refuses it before its SVD, with one ValueError and nothing kept
    def no_svd(*args, **kwargs):
        raise AssertionError("SVD run for a non-finite input")

    monkeypatch.setattr(np.linalg, "svd", no_svd)
    with pytest.raises(ValueError, match="non-finite entry") as raised:
        pinv_matrix(np.array(m, dtype=complex))
    assert raised.type is ValueError
    assert _kept(cold_memo) == 0


@pytest.mark.parametrize("n", [1, 2, 3, 17])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(np.inf, 0), complex(0, np.nan)])
def test_pinv_refuses_every_non_finite_input_and_keeps_the_memo(cold_memo, n, bad):
    # 1x1 and 2x2 pass the closed form, 3x3 goes through the memo, 17x17
    # (289 entries) skips it: every route raises the same error
    rng = np.random.default_rng(n)
    good = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    pinv_matrix(good)
    kept = _kept(cold_memo)
    for at in {(0, 0), (n - 1, n - 1), (n // 2, 0)}:
        m = good.copy()
        m[at] = bad
        with pytest.raises(ValueError, match="pinv input has a non-finite entry") as raised:
            pinv_matrix(m)
        assert raised.type is ValueError
        assert _kept(cold_memo) == kept
    # only the 3x3 was kept, and it is still served
    assert kept == (n == 3)
    assert n != 3 or _is_hit(cold_memo, good)


def test_entries_past_the_closed_form_bound_take_the_svd_route(cold_memo):
    # squared entries near 1e400 overflow the closed form's f; a finite f
    # near 1.5e308 still overflows f + 2|det|
    rng = np.random.default_rng(4)
    base = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    rank_one = np.outer(base[0], base[1].conj())
    for m in (base, base[:1, :1], rank_one):
        for scale in (1e200, np.sqrt(1.5e308 / np.vdot(m, m).real)):
            big = scale * m
            got = pinv_matrix(big)
            assert _same_bits(got, where_pinv_matrix(big))
            # the same matrix unscaled takes the closed form, to rounding
            want = pinv_matrix(m)
            assert np.linalg.norm(scale * got - want) <= 1e-14 * np.linalg.norm(want)
    assert _kept(cold_memo) == 6
    # entries of 1e150 (squares near 1e300) are still inside the bound
    pinv_matrix(1e150 * base)
    assert _kept(cold_memo) == 6


def test_closed_form_reads_a_fortran_view_as_its_c_copy():
    rng = np.random.default_rng(3)
    base = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    fortran = np.asfortranarray(base[:2, :2])
    assert fortran.flags.f_contiguous and not fortran.flags.c_contiguous
    for view in (fortran, base[::2, 1::2], base[1:2, 3:4]):
        copy = np.ascontiguousarray(view)
        assert _same_bits(pinv_matrix(view), pinv_matrix(copy))


# ------------------------------------------------------------ pinv memo


def test_pinv_memo_keeps_signed_zeros_apart(cold_memo):
    # the two inputs are equal as numbers, yet their SVDs round differently:
    # a memo keyed on values would hand one the other's pseudo-inverse
    pos = np.array([[complex(0.0, -1.0), 3j, 2 - 1j], [3 - 2j, -3 + 2j, -2 - 2j], [2 - 1j, 3 + 1j, -2]])
    neg = pos.copy()
    neg[0, 0] = complex(-0.0, -1.0)
    assert np.array_equal(pos, neg) and pos.tobytes() != neg.tobytes()
    assert where_pinv_matrix(pos).tobytes() != where_pinv_matrix(neg).tobytes()
    for m in (pos, neg, pos, neg):
        assert _same_bits(pinv_matrix(m), where_pinv_matrix(m))
    assert _kept(cold_memo) == 2


def test_pinv_memo_keeps_shapes_with_the_same_bytes_apart(cold_memo):
    values = np.array([1.0, 2j, 3.0, -1.0, 0.5, 4.0])
    for shape in ((2, 3), (3, 2), (1, 6), (6, 1), (2, 3)):
        m = values.reshape(shape)
        assert _same_bits(pinv_matrix(m), where_pinv_matrix(m))
    assert _kept(cold_memo) == 4


def test_pinv_memo_fortran_view_and_its_c_copy_share_one_entry(cold_memo):
    rng = np.random.default_rng(3)
    base = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    view = base.T
    copy = np.ascontiguousarray(view)
    assert view.flags.f_contiguous and not view.flags.c_contiguous
    from_view = pinv_matrix(view)
    hit = pinv_matrix(copy)
    assert _kept(cold_memo) == 1
    cold_memo.cache_clear()
    cold = pinv_matrix(copy)
    assert _same_bits(from_view, cold) and _same_bits(hit, cold)
    assert _same_bits(cold, where_pinv_matrix(copy))


def test_pinv_memo_hands_out_copies(cold_memo):
    m = np.array([[2.0, 1.0, 0.0], [0.5, 4.0, 1j], [0.0, 1.0, 3.0]], dtype=complex)
    want = where_pinv_matrix(m)
    first = pinv_matrix(m)
    first[...] = 7.0
    second = pinv_matrix(m)
    assert _same_bits(second, want)
    second[0, 0] = -1.0
    # the key is a copy of the input's bytes, so a changed input is a new one
    m[0, 0] = 3.0
    assert _same_bits(pinv_matrix(m), where_pinv_matrix(m))
    m[0, 0] = 2.0
    assert _same_bits(pinv_matrix(m), want)
    assert _kept(cold_memo) == 2


def test_pinv_memo_stays_within_its_bound(cold_memo):
    def diag(x):
        return np.diag([x, 1.0, 1.0])

    count = 3 * symbol._MEMO_ENTRIES
    for i in range(count):
        pinv_matrix(diag(i + 1.0))
        assert _kept(cold_memo) <= symbol._MEMO_ENTRIES
    assert _kept(cold_memo) == symbol._MEMO_ENTRIES
    # least recently used goes first: a refreshed old entry outlives newer ones
    oldest_kept = count - symbol._MEMO_ENTRIES + 1.0
    assert _is_hit(cold_memo, diag(oldest_kept))
    assert not _is_hit(cold_memo, diag(count + 1.0))
    assert _is_hit(cold_memo, diag(count + 1.0))
    assert _is_hit(cold_memo, diag(oldest_kept))
    assert not _is_hit(cold_memo, diag(oldest_kept + 1))


def test_pinv_memo_gives_right_bits_under_threads(cold_memo):
    # more inputs than the memo keeps, so hits, misses and evictions interleave
    rng = np.random.default_rng(11)
    pool = [rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            for _ in range(symbol._MEMO_ENTRIES + 64)]
    want = [where_pinv_matrix(m).tobytes() for m in pool]
    wrong = []

    def work(seed):
        order = np.random.default_rng(seed).integers(0, len(pool), size=400)
        wrong.extend(int(i) for i in order if pinv_matrix(pool[i]).tobytes() != want[i])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(seed,)) for seed in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []
    assert _kept(cold_memo) <= symbol._MEMO_ENTRIES


def test_pinv_memo_does_not_keep_large_matrices(cold_memo):
    n = isqrt(symbol._MEMO_MATRIX_SIZE) + 1
    rng = np.random.default_rng(5)
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    assert _same_bits(pinv_matrix(m), where_pinv_matrix(m))
    assert _same_bits(pinv_matrix(m), where_pinv_matrix(m))
    assert _kept(cold_memo) == 0


@pytest.mark.parametrize(
    "name, m, before",
    [
        ("graphene", [[9, 0], [0, 9]], ("graphene", [[9, 0], [0, 9]])),
        ("graphene", [[9, 0], [0, 9]], ("graphene", [[5, 0], [0, 5]])),
        ("laplacian-rb", [[8, 0], [0, 8]], ("graphene", [[9, 0], [0, 9]])),
        ("laplacian-rb", [[8, 0], [0, 8]], ("graphene", [[3, 0], [0, 3]])),
    ],
)
def test_spectrum_does_not_depend_on_what_filled_the_memo(cold_memo, name, m, before):
    def spectrum(name, m):
        entry = build(name)
        return compute_spectrum(parse(entry.expression), entry.operators, m)

    cold = spectrum(name, m)
    cold_memo.cache_clear()
    spectrum(*before)
    assert _kept(cold_memo) > 0
    warm = spectrum(name, m)
    assert warm.eigenvalues.tobytes() == cold.eigenvalues.tobytes()
    assert warm.rho.hex() == cold.rho.hex()


@pytest.mark.parametrize("name, m", [("graphene", [[9, 0], [0, 9]]), ("laplacian-rb", [[8, 0], [0, 8]])])
def test_spectrum_runs_one_svd_per_distinct_pinv_input(cold_memo, monkeypatch, name, m):
    # only inputs that are not 1x1 or 2x2 take the SVD route: laplacian-rb's
    # are all 2x2 and run none, graphene's 2x2 R*L*adj(R) none either
    seen = set()
    svds = []

    def counting(a):
        a = np.asarray(a, dtype=complex)
        assert 0 < a.size <= symbol._MEMO_MATRIX_SIZE and np.isfinite(a).all()
        if a.shape not in symbol._SMALL_SHAPES:
            seen.add((a.shape, a.tobytes()))
        return pinv_matrix(a)

    def counting_svd(a, *args, **kwargs):
        svds.append(a.shape)
        return svd(a, *args, **kwargs)

    svd = np.linalg.svd
    monkeypatch.setattr(expr_module, "pinv_matrix", counting)
    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    entry = build(name)
    compute_spectrum(parse(entry.expression), entry.operators, m)
    assert cold_memo.cache_info().misses == len(seen) == len(svds)
    assert (len(seen) > 1) == (name == "graphene")


# ------------------------------------------------------------- eigenvalues


def test_eigenvalues_identity():
    assert sorted(ev.real for ev in eigenvalues(np.eye(3))) == [1.0, 1.0, 1.0]


def test_eigenvalues_nilpotent():
    evs = eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))
    assert max(abs(ev) for ev in evs) < 1e-15


def test_eigenvalues_rejects_nonsquare():
    with pytest.raises(ValueError):
        eigenvalues(np.ones((2, 3)))


@pytest.mark.parametrize("shape", [(3,), (4, 2, 3)])
def test_eigenvalues_rejects_vector_and_nonsquare_stack(shape):
    with pytest.raises(ValueError, match="square"):
        eigenvalues(np.ones(shape))


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 5), count=st.integers(0, 6), real=st.booleans())
@settings(max_examples=60, deadline=None)
def test_eigenvalues_of_a_stack_equal_one_call_per_matrix(seed, n, count, real):
    rng = np.random.default_rng(seed)
    stack = rng.normal(size=(count, n, n))
    if not real:
        stack = stack + 1j * rng.normal(size=(count, n, n))
    got = eigenvalues(stack)
    # a 2-D input gives the values of one eigvals call on the complex
    # matrix, and a stack one such row per matrix
    want = [np.linalg.eigvals(m.astype(complex)) for m in stack]
    assert got.dtype == complex and got.shape == (count, n)
    assert got.tobytes() == np.array(want, dtype=complex).reshape(count, n).tobytes()
    assert all(_same_bits(eigenvalues(m), w) for m, w in zip(stack, want))


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 4))
@settings(max_examples=40, deadline=None)
def test_eigenvalues_against_charpoly_roots(seed, n):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    got = eigenvalues(m)
    want = charpoly_eigenvalues(m)
    assert pair_eigenvalues(got, want) < 1e-8


# -------------------------------------------------------- compute_spectrum


def test_spectrum_record_counts():
    l = five_point()
    res = compute_spectrum(parse("L"), {"L": l}, [[3, 0], [0, 4]])
    assert len(res.records) == 12
    assert all(len(r.eigenvalues) == 1 for r in res.records)
    assert res.expression == "L"
    assert res.resolution == ((3, 0), (0, 4))


def test_spectrum_matches_dense_oracle():
    l = five_point()
    for m in ([[3, 0], [0, 4]], [[2, 3], [2, -2]]):
        res = compute_spectrum(parse("L"), {"L": l}, m)
        sym = [ev for r in res.records for ev in r.eigenvalues]
        dense = np.linalg.eigvals(assemble_dense(l, m).dense())
        assert pair_eigenvalues(sym, dense) < 1e-8


def test_spectrum_sorted_and_deterministic():
    l = five_point()
    res1 = compute_spectrum(parse("L"), {"L": l}, [[3, 0], [0, 3]])
    res2 = compute_spectrum(parse("L"), {"L": l}, [[3, 0], [0, 3]])
    assert [r.k_frac for r in res1.records] == sorted(r.k_frac for r in res1.records)
    assert list(res1.records) == list(res2.records)


@pytest.mark.parametrize(
    "name, text, m, count",
    [
        ("graphene", None, [[9, 0], [0, 9]], 81),  # one full block and a ragged one
        ("curlcurl", None, [[8, 0], [0, 8]], 64),  # exactly one block
        ("laplacian-rb", None, [[2, 3], [2, -2]], 10),
        ("graphene", "adj(I(S1)) - 3*I", [[3, 0], [0, 3]], 9),  # no symbol, one matrix
    ],
)
def test_spectrum_matches_per_sample_walk(name, text, m, count):
    entry = build(name)
    expr = parse(text or entry.expression)
    env = {k: op for k, op in entry.operators.items() if k in expr.identifiers()}
    res = compute_spectrum(expr, env, m)
    named = dict(zip(env, make_compatible(list(env.values()))))
    samples = sample_dual_torus(res.lattice, m)
    rows = [tuple(num) for num in samples.num.tolist()]
    assert rows == sorted(rows)
    eigs, rho = per_sample_spectrum(expr, named, samples, symbol_at)
    assert len(res.records) == count
    assert [(r.num, r.den, r.k_phys, r.k_frac) for r in res.records] == [
        (num, samples.den, tuple(k_phys), k_frac)
        for num, k_phys, k_frac in zip(rows, samples.k_phys.tolist(), k_fracs(samples))
    ]
    # repr tells -0.0 from 0.0, so equal text is equal bits
    assert repr([r.eigenvalues for r in res.records]) == repr(eigs)
    assert res.rho.hex() == rho.hex()


@pytest.mark.parametrize(
    "name, m, det, den",
    [
        ("curlcurl", [[8, 0], [0, 8]], 64, 8),
        ("graphene", [[6, 0], [0, 4]], 24, 12),
        ("laplacian-rb", [[2, 3], [2, -2]], 10, 10),
    ],
)
def test_spectrum_reads_phases_from_the_table_of_the_reduced_denominator(monkeypatch, name, m, det, den):
    # the |det M| samples come over their least common denominator, and
    # their symbols read the phase table of that den and no other
    read = set()

    def recording(d):
        read.add(d)
        return phase_table(d)

    monkeypatch.setattr(symbol, "phase_table", recording)
    entry = build(name)
    res = compute_spectrum(parse(entry.expression), entry.operators, m)
    assert (len(res.samples), res.samples.den) == (det, den)
    assert read == {den}


def test_records_are_read_only_views_of_the_result_arrays():
    l = build("laplacian-rb").operators["L"]
    res = compute_spectrum(parse("L"), {"L": l}, [[2, 3], [2, -2]])
    recs = list(res.records)
    assert len(res.records) == len(res.samples) == res.eigenvalues.shape[0] == 10
    assert not res.eigenvalues.flags.writeable
    samples = res.samples
    for i, (rec, num, k_phys) in enumerate(zip(recs, samples.num.tolist(), samples.k_phys.tolist())):
        assert (rec.num, rec.den, rec.k_phys) == (tuple(num), samples.den, tuple(k_phys))
        assert rec.k_frac == tuple(Fraction(x, samples.den) for x in num)
        assert rec.eigenvalues == tuple(res.eigenvalues[i].tolist())
        assert list(rec.eigenvalues) == sorted(rec.eigenvalues, key=lambda z: (z.real, z.imag))
        assert res.records[i] == rec
    assert res.records[-1] == recs[-1]
    with pytest.raises(TypeError):
        res.records[3:7]


def test_spectrum_blocks_give_the_result_block_by_block():
    entry = build("graphene")
    expr = parse(entry.expression)
    m = [[9, 0], [0, 9]]
    res = compute_spectrum(expr, entry.operators, m)
    blocks = list(spectrum_blocks(expr, entry.operators, m))
    assert [len(block) for block, _ in blocks] == [64, 17]
    assert all(eigs.shape == (len(block), 8) for block, eigs in blocks)
    assert np.concatenate([block.num for block, _ in blocks]).tolist() == res.samples.num.tolist()
    assert np.concatenate([eigs for _, eigs in blocks]).tobytes() == res.eigenvalues.tobytes()
    # nothing runs before the first block is drawn
    lazy = spectrum_blocks(expr, {}, m)
    with pytest.raises(EvaluationError, match="unbound identifiers 'L', 'R', 'S1', 'S2', 'S3', 'S4'$"):
        next(lazy)


def test_spectrum_rho_is_max_abs():
    l = five_point()
    res = compute_spectrum(parse("L"), {"L": l}, [[4, 0], [0, 4]])
    assert res.rho == pytest.approx(8.0, abs=1e-12)


def test_spectrum_requires_nonempty_env():
    with pytest.raises(ValueError):
        compute_spectrum(parse("L"), {}, [[2, 0], [0, 2]])


def test_spectrum_reports_shape_mismatch_with_k():
    lat = SQUARE
    point = POINT
    r = MultiplicationOperator(
        lat,
        StructureElement([(0, 0), (Fraction(1, 2), 0)]),
        point,
        {(0, 0): [[1.0, 1.0]]},
    )
    with pytest.raises(ValueError, match="k_frac"):
        compute_spectrum(parse("R"), {"R": r}, [[2, 0], [0, 2]])


def test_spectrum_names_the_sample_of_a_raised_overflow():
    # under np.errstate(over="raise"), as the CLI runs it, the overflow of
    # L*L keeps its type and names the block's first sample
    big = five_point(h=1e-100)
    with np.errstate(over="raise", invalid="raise"):
        with pytest.raises(FloatingPointError, match=r"^expression failed at k_frac=\(0, 0\): overflow"):
            compute_spectrum(parse("L*L"), {"L": big}, [[2, 0], [0, 2]])


def test_spectrum_unbound_identifier():
    # binding comes first: no symbol, sample or dense matrix is needed to
    # report every name the environment lacks
    expr, env, m = parse("Q*L + I(P)"), {"L": five_point()}, [[2, 0], [0, 2]]
    message = "^unbound identifiers 'P', 'Q'$"
    with pytest.raises(EvaluationError, match=message):
        compute_spectrum(expr, env, m)
    blocks = spectrum_blocks(expr, env, m)
    with pytest.raises(EvaluationError, match=message):
        next(blocks)
    with pytest.raises(EvaluationError, match=message):
        eval_dense(expr, env, m)
    with pytest.raises(EvaluationError, match="^unbound identifier 'Q'$"):
        compute_spectrum(parse("L*Q"), env, m)


@pytest.mark.parametrize(
    "m", [[[2.5, 0], [0, 2.9]], 3.7 * np.eye(2), [[np.nan, 0], [0, 1]], [[np.inf, 0], [0, 1]]]
)
def test_resolution_entries_without_integer_value_are_refused(m):
    # truncating them would sample another torus than the one asked for
    l = five_point()
    with pytest.raises(ValueError, match="integer values"):
        compute_spectrum(parse("L"), {"L": l}, m)
    with pytest.raises(ValueError, match="integer values"):
        sample_dual_torus(l.lattice, m)
    with pytest.raises(ValueError, match="integer values"):
        assemble_dense(l, m)


@pytest.mark.parametrize("m", [[[3.0, 0], [0, 3.0]], 3 * np.eye(2), 3 * np.eye(2, dtype=int)])
def test_resolution_entries_of_integer_value_are_taken_exactly(m):
    res = compute_spectrum(parse("L"), {"L": five_point()}, m)
    assert len(res.samples) == 9
    assert res.resolution == ((3, 0), (0, 3))
    assert all(type(x) is int for row in res.resolution for x in row)


def test_spectrum_mixed_lattices_get_compatibilized():
    # L on the unit lattice, a mask on the doubled lattice: the sampling must
    # happen on the common (doubled) lattice, giving |det 2M'| records
    l = five_point()
    doubled = Lattice(2 * np.eye(2))
    sr = MultiplicationOperator(
        doubled,
        StructureElement([(0, 0), (Fraction(1, 2), 0), (0, Fraction(1, 2)), (Fraction(1, 2), Fraction(1, 2))]),
        StructureElement([(0, 0), (Fraction(1, 2), 0), (0, Fraction(1, 2)), (Fraction(1, 2), Fraction(1, 2))]),
        {(0, 0): np.diag([4.0, 0.0, 0.0, 0.0])},
    )
    res = compute_spectrum(parse("L + 0*Sr"), {"L": l, "Sr": sr}, [[2, 0], [0, 2]])
    assert len(res.records) == 4
    assert all(len(r.eigenvalues) == 4 for r in res.records)


# --------------------------------------------- homomorphism property tests


def _random_op(rng, width):
    offsets = [(0, 0), (1, 0), (0, 1), (-1, 1)]
    table = {}
    for off in offsets:
        if rng.random() < 0.8:
            table[off] = rng.normal(size=(width, width)) + 1j * rng.normal(size=(width, width))
    if not table:
        table[(0, 0)] = np.eye(width)
    se = StructureElement([(0, 0)] if width == 1 else [(0, 0), (Fraction(1, 2), Fraction(1, 2))])
    return MultiplicationOperator(SQUARE, se, se, table)


@given(seed=st.integers(0, 2**32 - 1), width=st.integers(1, 2))
@settings(max_examples=50, deadline=None)
def test_symbol_homomorphism(seed, width):
    rng = np.random.default_rng(seed)
    l = _random_op(rng, width)
    g = _random_op(rng, width)
    den = int(rng.integers(1, 12))
    k = (Fraction(int(rng.integers(0, den)), den), Fraction(int(rng.integers(0, den)), den))
    lk = symbol_at_rationals(l, k)
    gk = symbol_at_rationals(g, k)
    assert np.allclose(symbol_at_rationals(add(l, g), k), lk + gk, atol=1e-12)
    assert np.allclose(symbol_at_rationals(mul(l, g), k), lk @ gk, atol=1e-12)
    assert np.allclose(symbol_at_rationals(adjoint(l), k), lk.conj().T, atol=1e-12)


def test_spectrum_invariant_under_congruent_rewrites():
    # same analysis, three equivalent operator representations, same torus
    l = five_point()
    m_fine = [[4, 0], [0, 4]]
    base = compute_spectrum(parse("L"), {"L": l}, m_fine)

    shifted_se = StructureElement([(1, 2)])
    l_shift = change_structure_element(l, shifted_se, shifted_se)
    shifted = compute_spectrum(parse("L"), {"L": l_shift}, m_fine)
    assert abs(base.rho - shifted.rho) < 1e-8
    assert pair_eigenvalues(
        [ev for r in base.records for ev in r.eigenvalues],
        [ev for r in shifted.records for ev in r.eigenvalues],
    ) < 1e-8

    # coarsened input on C = 2A sampled with M' = M/2 hits the same torus Z
    l_coarse = normalize(lattice_coarsening(l, Lattice(2 * np.eye(2))))
    coarse = compute_spectrum(parse("L"), {"L": l_coarse}, [[2, 0], [0, 2]])
    assert abs(base.rho - coarse.rho) < 1e-8
    assert pair_eigenvalues(
        [ev for r in base.records for ev in r.eigenvalues],
        [ev for r in coarse.records for ev in r.eigenvalues],
    ) < 1e-8


def _spectrum_bits(result):
    return [(rec.num, repr(rec.eigenvalues)) for rec in result.records]


@pytest.mark.parametrize("name", ["graphene", "curlcurl", "laplacian-rb"])
@given(rng=st.randoms(use_true_random=False))
@settings(max_examples=3, deadline=None)
def test_spectrum_bit_identical_under_reordered_representations(name, rng):
    # the same operators with offsets inserted in another order and structure
    # element points listed in another order give the same float results
    entry = build(name)
    ast = parse(entry.expression)
    env = {n: entry.operators[n] for n in sorted(ast.identifiers())}
    m = 6 * np.eye(2, dtype=int)
    base = compute_spectrum(ast, env, m)
    reordered = {}
    for n, op in env.items():
        items = list(op.multipliers.items())
        rng.shuffle(items)
        op = MultiplicationOperator(op.lattice, op.domain_se, op.codomain_se, dict(items))
        u = rng.sample(op.domain_se.points, len(op.domain_se))
        v = rng.sample(op.codomain_se.points, len(op.codomain_se))
        reordered[n] = change_structure_element(op, u, v)
    assert _spectrum_bits(compute_spectrum(ast, reordered, m)) == _spectrum_bits(base)

"""Dense torus assembly and cross-validation oracle tests."""

import cmath
import re
import warnings
from fractions import Fraction
from math import floor, pi

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import (
    bfs_dense_spectrum,
    greedy_spectrum_distance,
    k_fracs,
    narrowest_eigvals,
    pair_eigenvalues,
    per_point_assemble_dense,
    torus_triples,
)
from stencilfa.cli import GRAM_TOL
from stencilfa.crystal import Lattice, QuotientMap, StructureElement, phase_table, sample_dual_torus
from stencilfa.expr import parse
from stencilfa.gallery import build
from stencilfa.operator import (
    MultiplicationOperator,
    identity_operator,
    lattice_coarsening,
    mask_central,
    mul,
    normalize,
    scale,
)
from stencilfa.oracle import (
    DENSE_CAP,
    assemble_dense,
    dense_spectrum,
    eval_dense,
    spectrum_distance,
    translation_residual,
    wave_basis,
    wave_gram_residual,
)
from stencilfa.symbol import symbol_at

SQUARE = Lattice([[1, 0], [0, 1]])
POINT = StructureElement([(0, 0)])


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


def red_black_laplacian(h=1.0):
    return normalize(
        lattice_coarsening(five_point(h), Lattice(np.array([[1.0, 1.0], [1.0, -1.0]]) / h))
    )


def test_identity_assembles_to_identity():
    ident = identity_operator(SQUARE, POINT)
    for m, cells in (([[1, 0], [0, 1]], 1), ([[3, 0], [0, 2]], 6), ([[2, 3], [2, -2]], 10)):
        assert np.array_equal(assemble_dense(ident, m).dense(), np.eye(cells))


def test_laplacian_wraps_on_two_torus():
    # on the 2x2 torus the +a and -a couplings land on the same neighbor and
    # merge into -2/h^2
    h = 0.5
    dense = assemble_dense(five_point(h), [[2, 0], [0, 2]]).dense()
    assert dense.shape == (4, 4)
    w = 1.0 / h**2
    for i in range(4):
        assert dense[i, i] == 4 * w
    off = dense.copy()
    np.fill_diagonal(off, 0)
    # each point couples to the two distinct wrapped neighbors, doubled
    for i in range(4):
        row = sorted(off[i].real)
        assert row == [-2 * w, -2 * w, 0.0, 0.0]


def test_masked_central_block_diagonal():
    rb = red_black_laplacian()
    sr = mask_central(rb, (True, False))
    dense = assemble_dense(sr, [[2, 0], [0, 2]]).dense()
    want = np.kron(np.eye(4), np.diag([4.0, 0.0]))
    assert np.allclose(dense, want, atol=1e-14)


# at 1 and 2 every gallery operator has offsets that merge on the torus
_GALLERY_TORI = [
    ("graphene", 4),
    ("curlcurl", 3),
    ("laplacian-rb", [[2, 3], [2, -2]]),
    ("graphene", 1),
    ("graphene", 2),
    ("curlcurl", 1),
    ("curlcurl", 2),
    ("laplacian-rb", 1),
    ("laplacian-rb", 2),
]


def assert_triple_form(triples):
    """Row-major positions, each once, int64 indices, complex values, no
    exact zeros, nothing writeable."""
    rows, cols, values = triples.rows, triples.cols, triples.values
    assert rows.dtype == cols.dtype == np.int64 and values.dtype == complex
    assert len(rows) == len(cols) == len(values)
    keys = rows * triples.shape[1] + cols
    assert np.all(np.diff(keys) > 0)
    assert np.all((0 <= rows) & (rows < triples.shape[0]) & (0 <= cols) & (cols < triples.shape[1]))
    assert not np.any(values == 0)
    assert not (rows.flags.writeable or cols.flags.writeable or values.flags.writeable)


def assert_same_bits(got, want):
    # array_equal takes -0.0 for 0.0; the assembly promises the very bits
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def _draw_resolution(data, dim: int) -> list[list[int]]:
    """A random nonsingular resolution matrix, skew more often than not,
    with at most 40 torus points."""
    m = data.draw(
        st.lists(st.lists(st.integers(-3, 3), min_size=dim, max_size=dim), min_size=dim, max_size=dim)
    )
    assume(0 < abs(round(np.linalg.det(np.array(m, dtype=float)))) <= 40)
    return m


def _draw_operator(data, dim: int) -> MultiplicationOperator:
    """A random operator on Z^dim: rectangular blocks, negative offsets and
    offsets longer than any torus side, so wrap-around merges some."""
    mc, md = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
    offsets = data.draw(
        st.lists(st.tuples(*[st.integers(-7, 7)] * dim), min_size=1, max_size=8, unique=True)
    )
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))

    def se(k):
        return StructureElement([(i / 4,) + (0.0,) * (dim - 1) for i in range(k)])

    mult = {off: rng.standard_normal((mc, md)) + 1j * rng.standard_normal((mc, md)) for off in offsets}
    return MultiplicationOperator(Lattice(np.eye(dim)), se(md), se(mc), mult)


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_assemble_dense_equals_per_point_loop(data):
    dim = data.draw(st.integers(1, 3))
    m = _draw_resolution(data, dim)
    l = _draw_operator(data, dim)
    got = assemble_dense(l, m)
    assert_triple_form(got)
    assert_same_bits(got.dense(), per_point_assemble_dense(l, QuotientMap(m)))


def test_assemble_dense_with_offsets_beyond_int64_equals_per_point_loop():
    # offsets are reduced exactly before any int64 arithmetic
    l = MultiplicationOperator(
        SQUARE,
        POINT,
        POINT,
        {(0, 0): [[2.0]], (10**20, -3): [[1.0 - 1j]], (-(10**20) - 1, 10**20): [[0.5j]]},
    )
    for m in ([[2, 3], [2, -2]], [[4, 1], [0, 3]]):
        got = assemble_dense(l, m)
        assert_triple_form(got)
        assert_same_bits(got.dense(), per_point_assemble_dense(l, QuotientMap(m)))


@pytest.mark.parametrize("example, res", _GALLERY_TORI)
def test_assemble_dense_of_gallery_operators_equals_per_point_loop(example, res):
    m = res * np.eye(2, dtype=int) if isinstance(res, int) else res
    qm = QuotientMap([[int(x) for x in row] for row in m])
    for op in build(example).operators.values():
        got = assemble_dense(op, m)
        assert_triple_form(got)
        assert_same_bits(got.dense(), per_point_assemble_dense(op, qm))


def test_assemble_dense_drops_offsets_that_cancel_on_the_torus():
    # (0, 0) and (2, 0) share a residue on the 2-point torus and sum to
    # exactly zero there; (1, 0) is all that is left
    l = MultiplicationOperator(
        SQUARE, POINT, POINT, {(0, 0): [[1.0]], (1, 0): [[0.5]], (2, 0): [[-1.0]]}
    )
    m = [[2, 0], [0, 1]]
    got = assemble_dense(l, m)
    assert_triple_form(got)
    assert got.rows.tolist() == [0, 1]
    assert got.cols.tolist() == [1, 0]
    assert got.values.tolist() == [0.5, 0.5]
    assert_same_bits(got.dense(), per_point_assemble_dense(l, QuotientMap(m)))
    # on a 3-point torus nothing merges and all three stay
    assert len(assemble_dense(l, [[3, 0], [0, 1]]).values) == 9


@pytest.mark.parametrize("m", [[[1, 0], [0, 1]], [[2, 0], [0, 1]], [[3, 0], [0, 2]]])
def test_assemble_dense_sums_signed_zeros_onto_plus_zero(m):
    # a -0.0 real part becomes +0.0, as a dense += onto zeros makes it,
    # merged (res 1, 2) or not
    l = MultiplicationOperator(
        SQUARE, POINT, POINT, {(0, 0): [[complex(-0.0, 2.0)]], (2, 0): [[complex(1.0, -0.0)]]}
    )
    got = assemble_dense(l, m)
    assert_triple_form(got)
    assert not np.signbit(got.values.real).any() and not np.signbit(got.values.imag).any()
    assert_same_bits(got.dense(), per_point_assemble_dense(l, QuotientMap(m)))


@pytest.mark.parametrize(
    "zero, m",
    [
        (scale(0.0, five_point()), [[2, 3], [2, -2]]),
        # nonzero multipliers whose offsets merge and cancel on the torus
        (MultiplicationOperator(SQUARE, POINT, POINT, {(0, 0): [[1.0]], (0, 2): [[-1.0]]}), [[5, 0], [0, 2]]),
    ],
    ids=["no-multipliers", "cancelled"],
)
def test_zero_operator_has_no_triples(zero, m):
    got = assemble_dense(zero, m)
    assert_triple_form(got)
    assert len(got.values) == 0 and got.shape == (10, 10)
    assert_same_bits(got.dense(), np.zeros((10, 10), dtype=complex))
    assert translation_residual(got) == 0.0
    assert dense_spectrum(got) == [0j] * 10


def test_dense_spectrum_trivial_cases():
    ident = identity_operator(SQUARE, POINT)
    evs = dense_spectrum(assemble_dense(ident, [[2, 0], [0, 3]]))
    assert np.allclose(sorted(ev.real for ev in evs), np.ones(6), atol=1e-14)

    zero = MultiplicationOperator(SQUARE, POINT, POINT, {(0, 0): [[1.0]]})
    evs = dense_spectrum(assemble_dense(scale(0.0 + 0j, zero), [[2, 0], [0, 2]]))
    assert max(abs(ev) for ev in evs) < 1e-15


@pytest.mark.parametrize("shape", [(2, 3), (4,), (2, 2, 2)])
def test_dense_spectrum_rejects_non_square(shape):
    with pytest.raises(ValueError, match="dense spectrum needs a square matrix"):
        dense_spectrum(torus_triples(np.ones(shape)))


def _draw_block_matrix(data) -> tuple[np.ndarray, bool]:
    """Random diagonal blocks under a random symmetric permutation, and
    whether a dense random matrix was added on top (one component).

    A block is complex, real, Hermitian (b + b^H) or real symmetric, so a
    stack of equal-size blocks can mix LAPACK drivers; sometimes the whole
    matrix is made Hermitian.  The all-zero blocks stay uncoupled, giving
    all-zero rows and columns."""
    sizes = data.draw(st.lists(st.integers(1, 6), min_size=1, max_size=8))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    n = sum(sizes)
    a = np.zeros((n, n), dtype=complex)
    live: list[int] = []
    start = 0
    for size in sizes:
        if data.draw(st.booleans()):
            b = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
            if data.draw(st.booleans()):
                b = b.real + 0j
            if data.draw(st.booleans()):
                b = b + b.conj().T
            a[start:start + size, start:start + size] = b
            live.extend(range(start, start + size))
        start += size
    # chains of one-way couplings between live indices (A[i, j] set only
    # while A[j, i] is zero), some closed into rings: a ring through blocks
    # joins them into one component although none of its entries has a
    # nonzero mirror
    if live:
        chain = st.lists(st.sampled_from(live), min_size=1, max_size=4, unique=True)
        for path in data.draw(st.lists(chain, max_size=3)):
            if data.draw(st.booleans()):
                path = path + path[:1]
            for i, j in zip(path, path[1:]):
                if a[j, i] == 0:
                    a[i, j] = rng.standard_normal()
    connected = data.draw(st.booleans())
    if connected:
        a += rng.standard_normal((n, n))
    if data.draw(st.booleans()):
        a = a + a.conj().T
    perm = data.draw(st.permutations(range(n)))
    return a[np.ix_(perm, perm)], connected


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_dense_spectrum_equals_eigvals_of_whole_matrix(data):
    a, connected = _draw_block_matrix(data)
    n = len(a)
    got = dense_spectrum(torus_triples(a))
    want = np.linalg.eigvals(a)
    assert len(got) == n
    assert spectrum_distance(got, want) <= 1e-12 * np.linalg.norm(a)
    if connected:
        # one component: the very same driver call on the whole matrix
        assert got == narrowest_eigvals(a)


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_dense_spectrum_equals_per_component_bfs(data):
    # bit for bit: same values in the same order, whole real matrices
    # included (every block takes a real LAPACK route)
    a, _ = _draw_block_matrix(data)
    if data.draw(st.booleans()):
        a = a.real.copy()
    assert dense_spectrum(torus_triples(a)) == bfs_dense_spectrum(a)


@pytest.mark.parametrize("example, res", _GALLERY_TORI)
def test_dense_spectrum_of_gallery_operators_equals_per_component_bfs(example, res):
    m = res * np.eye(2, dtype=int) if isinstance(res, int) else res
    for op in build(example).operators.values():
        if op.domain_se == op.codomain_se:
            triples = assemble_dense(op, m)
            assert dense_spectrum(triples) == bfs_dense_spectrum(triples.dense())


def test_dense_spectrum_matches_symbol_union():
    l = five_point()
    m = [[4, 0], [0, 4]]
    dense_evs = dense_spectrum(assemble_dense(l, m))
    samples = sample_dual_torus(l.lattice, m)
    sym_evs = [
        ev
        for num in samples.num.tolist()
        for ev in np.linalg.eigvals(symbol_at(l, num, samples.den))
    ]
    assert pair_eigenvalues(dense_evs, sym_evs) < 1e-8


def test_resolution_validation():
    l = five_point()
    with pytest.raises(ValueError, match="singular"):
        assemble_dense(l, [[1, 0], [2, 0]])
    with pytest.raises(ValueError, match="dimension"):
        assemble_dense(l, [[2]])
    n = int(np.ceil(np.sqrt(DENSE_CAP))) + 1
    with pytest.raises(ValueError, match="too large"):
        assemble_dense(l, [[n, 0], [0, n]])


@pytest.mark.parametrize(
    "m, message",
    [
        ([[2, 0], [1]], "square and match the lattice dimension"),
        ([[2]], "square and match the lattice dimension"),
        ([[1, 2], [2, 4]], "resolution matrix is singular"),
    ],
    ids=["ragged", "wrong-dimension", "singular"],
)
def test_bad_resolution_rejected_alike_by_sampling_and_oracle(m, message):
    calls = [
        lambda: sample_dual_torus(SQUARE, m),
        lambda: assemble_dense(five_point(), m),
        lambda: wave_basis(SQUARE, m, POINT),
    ]
    texts = []
    for call in calls:
        with pytest.raises(ValueError) as err:
            call()
        texts.append(str(err.value))
    assert texts == [texts[0]] * 3
    assert message in texts[0]


# ------------------------------------------------------------- wave basis


def test_wave_basis_single_point():
    vecs = wave_basis(SQUARE, [[1, 0], [0, 1]], POINT)
    assert len(vecs) == 1
    assert np.allclose(vecs[0], [1.0])


def test_wave_basis_gram_scalar():
    vecs = wave_basis(SQUARE, [[2, 0], [0, 2]], POINT)
    assert len(vecs) == 4
    w = np.stack(vecs, axis=1)
    gram = w.conj().T @ w / 4.0
    assert np.abs(gram - np.eye(4)).max() < 1e-12


def test_wave_basis_gram_red_black():
    rb = red_black_laplacian()
    vecs = wave_basis(rb.lattice, [[2, 0], [0, 2]], rb.domain_se)
    assert len(vecs) == 8
    w = np.stack(vecs, axis=1)
    gram = w.conj().T @ w / 4.0
    assert np.abs(gram - np.eye(8)).max() < 1e-12


def test_wave_basis_gram_skew_resolution():
    vecs = wave_basis(SQUARE, [[2, 3], [2, -2]], POINT)
    assert len(vecs) == 10
    w = np.stack(vecs, axis=1)
    gram = w.conj().T @ w / 10.0
    assert np.abs(gram - np.eye(10)).max() < 1e-12


def test_wave_basis_entries_match_fraction_phases():
    m = [[3, 1], [-1, 4]]
    width = 2
    vecs = wave_basis(SQUARE, m, StructureElement([(0, 0), ("1/2", "1/2")]))
    points = QuotientMap(m).reps.tolist()
    samples = sample_dual_torus(SQUARE, m)
    assert len(vecs) == len(samples) * width
    for ki, k_frac in enumerate(k_fracs(samples)):
        for slot in range(width):
            expected = np.zeros(len(points) * width, dtype=complex)
            for p, x in enumerate(points):
                t = sum(f * c for f, c in zip(k_frac, x))
                expected[p * width + slot] = cmath.exp(2j * pi * float(t - floor(t)))
            assert np.abs(vecs[ki * width + slot] - expected).max() < 1e-14


def test_wave_basis_exact_at_half_and_quarter_turns():
    m = [[4, 0], [0, 4]]
    vecs = wave_basis(SQUARE, m, POINT)
    samples = sample_dual_torus(SQUARE, m)
    for vec, k_frac in zip(vecs, k_fracs(samples)):
        entries = set(vec.tolist())
        # every k_frac is a multiple of 1/4, so every phase is a power of i
        assert entries <= {1, 1j, -1, -1j}
        if all(2 * f in (0, 1) for f in k_frac):
            assert entries <= {1, -1}
    half = vecs[k_fracs(samples).index((Fraction(1, 2), 0))]
    assert set(half.tolist()) == {1, -1}


def _full_gram_residual(a, m, se):
    vecs = wave_basis(a, m, se)
    w = np.stack(vecs, axis=1)
    gram = w.conj().T @ w / (len(vecs) // len(se))
    return float(np.abs(gram - np.eye(len(vecs))).max())


def _gallery_spaces(example):
    ops = build(example).operators.values()
    return [(op.lattice, se) for op in ops for se in (op.domain_se, op.codomain_se)]


@pytest.mark.parametrize(
    "spaces, m",
    [
        (_gallery_spaces("laplacian-rb"), [[2, 3], [2, -2]]),
        (_gallery_spaces("graphene"), [[4, 0], [0, 4]]),
        ([(SQUARE, StructureElement([(0, 0), ("1/3", 0), (0, "1/2")]))], [[3, 1], [-1, 4]]),
    ],
    ids=["laplacian-rb-skew", "graphene-4", "three-slots"],
)
def test_wave_gram_residual_matches_full_basis(spaces, m, monkeypatch):
    def gram(a):
        return wave_gram_residual(sample_dual_torus(a, m), QuotientMap(m))

    for a, se in spaces:
        assert abs(gram(a) - _full_gram_residual(a, m, se)) <= 1e-15
    def corrupted(d):
        # the fourth quarter turn read as i instead of -i
        table = phase_table(d).copy()
        table[4 * np.arange(d) >= 3 * d] *= -1
        return table

    monkeypatch.setattr("stencilfa.oracle.phase_table", corrupted)
    for a, _ in spaces:
        assert gram(a) > GRAM_TOL


def test_harmonic_invariance():
    # the dense operator maps each harmonic subspace span{e_{l,k}} to itself
    rb = red_black_laplacian()
    m = [[3, 0], [0, 3]]
    dense = assemble_dense(rb, m).dense()
    vecs = wave_basis(rb.lattice, m, rb.domain_se)
    n_t = 9
    width = 2
    for ki in range(n_t):
        w_k = np.stack(vecs[ki * width:(ki + 1) * width], axis=1)
        q, _ = np.linalg.qr(w_k)
        img = dense @ w_k
        resid = img - q @ (q.conj().T @ img)
        assert np.linalg.norm(resid) < 1e-10


# ------------------------------------------------------ invariance checker


def test_invariance_of_identity_is_zero():
    ident = identity_operator(SQUARE, POINT)
    m = [[3, 0], [0, 3]]
    assert translation_residual(assemble_dense(ident, m)) == 0.0


def test_invariance_of_laplacian():
    lap = five_point()
    m = [[4, 0], [0, 3]]
    assert translation_residual(assemble_dense(lap, m)) < 1e-10


def test_invariance_of_rectangular_operator():
    rb = red_black_laplacian()
    r = MultiplicationOperator(
        rb.lattice,
        rb.domain_se,
        POINT,
        {(0, 0): [[1.0, 0.5]], (1, 0): [[0.0, 0.5]]},
    )
    m = [[3, 0], [0, 2]]
    assert translation_residual(assemble_dense(r, m)) < 1e-10


def test_position_dependent_matrix_flagged():
    # a diagonal that depends on the torus point is not translation invariant
    m = [[3, 0], [0, 3]]
    bad = np.diag(np.arange(1.0, 10.0))
    resid = translation_residual(torus_triples(bad, QuotientMap(m)))
    assert resid > 0.1


def dense_permutation_residual(matrix, dim, m, shape):
    """The commutator norm with explicit 0/1 block translation matrices."""
    qm = QuotientMap(m)
    reps = [tuple(rep) for rep in qm.reps.tolist()]
    n_pts = len(reps)
    mc, md = shape
    worst = 0.0
    for axis in range(dim):
        step = tuple(int(c == axis) for c in range(dim))
        perm = [reps.index(tuple(r)) for r in qm.residue(np.array(reps) + step).tolist()]
        t_dom = np.zeros((n_pts * md, n_pts * md))
        t_cod = np.zeros((n_pts * mc, n_pts * mc))
        for i, j in enumerate(perm):
            t_dom[i * md:(i + 1) * md, j * md:(j + 1) * md] = np.eye(md)
            t_cod[i * mc:(i + 1) * mc, j * mc:(j + 1) * mc] = np.eye(mc)
        worst = max(worst, float(np.linalg.norm(matrix @ t_dom - t_cod @ matrix)))
    return worst


def test_translation_residual_matches_dense_permutation_formula():
    m = [[2, 3], [2, -2]]
    shape = (2, 3)
    rng = np.random.default_rng(3)
    size = (10 * shape[0], 10 * shape[1])
    bad = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    resid = translation_residual(torus_triples(bad, QuotientMap(m)))
    assert resid > 1.0
    assert resid == pytest.approx(dense_permutation_residual(bad, 2, m, shape), rel=1e-12)


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_translation_residual_matches_dense_permutation_on_sparse_matrices(data):
    dim = data.draw(st.integers(1, 3))
    m = _draw_resolution(data, dim)
    mc, md = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
    n_pts = len(QuotientMap(m).reps)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    size = (n_pts * mc, n_pts * md)
    density = data.draw(st.sampled_from([0.0, 0.01, 0.1, 0.5, 1.0]))
    matrix = np.where(rng.random(size) < density, rng.standard_normal(size) + 1j * rng.standard_normal(size), 0)
    got = translation_residual(torus_triples(matrix, QuotientMap(m)))
    assert got == pytest.approx(dense_permutation_residual(matrix, dim, m, (mc, md)), rel=1e-12)


@pytest.mark.parametrize("size", [(21, 31), (20, 35), (25, 30)])
def test_translation_residual_rejects_wrong_matrix_size(size):
    m = [[2, 3], [2, -2]]  # 10 torus points
    with pytest.raises(ValueError, match=re.escape(f"shape {size} does not split over 10 points")):
        translation_residual(torus_triples(np.ones(size), QuotientMap(m)))


# ------------------------------------------------------------- composition


def test_assembly_respects_composition():
    l = five_point()
    g = MultiplicationOperator(
        SQUARE,
        POINT,
        POINT,
        {(0, 0): [[0.5]], (1, 1): [[0.25j]], (-1, 0): [[-0.125]]},
    )
    m = [[3, 0], [0, 4]]
    left = assemble_dense(mul(l, g), m).dense()
    right = assemble_dense(l, m).dense() @ assemble_dense(g, m).dense()
    assert np.linalg.norm(left - right) < 1e-10


def test_eval_dense_equals_manual_assembly():
    l = five_point()
    m = [[2, 0], [0, 2]]
    got = eval_dense(parse("2*L - L*L"), {"L": l}, m)
    dl = assemble_dense(l, m).dense()
    assert np.allclose(got, 2 * dl - dl @ dl, atol=1e-12)


def test_eval_dense_identity_token():
    l = five_point()
    m = [[2, 0], [0, 2]]
    got = eval_dense(parse("I - 0.25*L"), {"L": l}, m)
    dl = assemble_dense(l, m).dense()
    assert np.allclose(got, np.eye(4) - 0.25 * dl, atol=1e-13)


def test_block_ordering_documented_layout():
    # structure slot fastest, torus point in quotient-listing order: for the
    # red-black crystal on M = diag(2,1) the listing is (0,0), (1,0)
    rb = red_black_laplacian()
    dense = assemble_dense(rb, [[2, 0], [0, 1]]).dense()
    assert QuotientMap([[2, 0], [0, 1]]).reps.tolist() == [[0, 0], [1, 0]]
    assert dense.shape == (4, 4)
    # the (point 0, slot 0) row couples to slot-1 entries of both points
    sym0 = rb.multiplier((0, 0))
    assert dense[0, 0] == sym0[0][0]


# ties, signed zeros and conjugate pairs are where a vectorized matching
# could pick another partner than the loop
_PART = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 2.0 / 3.0, 1e-16]) | st.floats(-1e3, 1e3)
_EIG = st.builds(complex, _PART, _PART)


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_spectrum_distance_matches_plain_loop(data):
    a = data.draw(st.lists(_EIG, max_size=16))
    if data.draw(st.booleans()):
        # b: a reordered and nudged, the shape of a symbol-vs-dense comparison
        nudge = st.builds(complex, st.floats(-1e-12, 1e-12), st.floats(-1e-12, 1e-12))
        b = [x + data.draw(nudge) for x in data.draw(st.permutations(a))]
    else:
        b = data.draw(st.lists(_EIG, min_size=len(a), max_size=len(a)))
    got = spectrum_distance(a, b)
    assert type(got) is float
    assert got.hex() == greedy_spectrum_distance(a, b).hex()


_INF, _NAN = float("inf"), float("nan")
_SPECIAL = st.sampled_from(
    [complex(0.0, 0.0), complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0)]
    + [complex(_INF, 0.0), complex(-_INF, 1.0), complex(1.0, _INF), complex(_INF, _NAN)]
    + [complex(_NAN, 0.0), complex(0.0, _NAN), complex(_NAN, _NAN)]
)


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_spectrum_distance_over_few_distinct_values_matches_plain_loop(data):
    # long lists of at most 4 distinct values, where the matching runs over
    # repeated copies: x + 1j and x - 1j are equidistant from every real
    # value, so the list-order tie rule decides; signed zeros, inf and NaN
    # give equal values with different bits and NaN gaps
    x, y = data.draw(_PART), data.draw(_PART)
    pool = [complex(x, 1.0), complex(x, -1.0), complex(y, 0.0)][: data.draw(st.integers(0, 3))]
    pool += data.draw(st.lists(_SPECIAL | _EIG, min_size=not pool, max_size=4 - len(pool)))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    n = data.draw(st.integers(0, 200))
    a = [pool[i] for i in rng.integers(len(pool), size=n)]
    if data.draw(st.booleans()):
        b = [a[i] for i in rng.permutation(n)]
    else:
        b = [pool[i] for i in rng.integers(len(pool), size=n)]
    got = spectrum_distance(a, b)
    assert type(got) is float
    assert got.hex() == greedy_spectrum_distance(a, b).hex()


@pytest.mark.parametrize(
    "a, b, want",
    [
        # 5 is equidistant from 5 + 1j and 5 - 1j and takes the first in
        # list order, not the first in (re, im) order
        ([5, 4 - 1j], [5 + 1j, 5 - 1j], 1.0),
        # the run at 5 meets a tie at gap 1 and takes one copy at a time in
        # list order: 5+1j, then 5-1j, leaving one of each for 4 +- 1j
        ([5, 5, 4 + 1j, 4 - 1j], [5 + 1j, 5 - 1j, 5 + 1j, 5 - 1j], 1.0),
        # two NaN values with different gaps (inf and NaN) stay apart
        ([1, complex(0, _NAN)], [complex(_INF, _NAN), complex(0, _NAN)], _INF),
        ([complex(_INF, 0), 1], [complex(0, _NAN), complex(_INF, _NAN)], 0.0),
    ],
)
def test_spectrum_distance_tie_and_nan_witnesses(a, b, want):
    # inf - inf gaps are NaN gaps, not a numpy warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = spectrum_distance(a, b)
    assert got.hex() == greedy_spectrum_distance(a, b).hex() == want.hex()

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from stencilfa.crystal import (
    SAMPLE_CAP,
    DualTorus,
    Lattice,
    QuotientMap,
    StructureElement,
    TorusTooLargeError,
    dual_basis,
    integral_relation,
    is_sublattice,
    lattice_equal,
    lcm_lattice,
    relation,
    sample_dual_torus,
)
from stencilfa.intlat import det_exact, mat_inv

from oracles import (
    fraction_k_phys,
    intersection_determinant,
    inverse_denominator,
    k_fracs,
    per_sample_numerators,
    quotient_listing,
)


def test_lattice_rejects_singular_basis():
    with pytest.raises(ValueError):
        Lattice([[1.0, 2.0], [2.0, 4.0]])


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_lattice_rejects_non_finite_basis(bad):
    with pytest.raises(ValueError, match="finite"):
        Lattice([[bad, 0.0], [0.0, 1.0]])


def test_lattice_rejects_nonsquare_basis():
    with pytest.raises(ValueError):
        Lattice([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])


def test_structure_element_points_from_an_int64_array_are_exact():
    # the rows of QuotientMap.reps are int64: their fractions must not wrap
    se = StructureElement(np.array([[2**40, 0], [1, 3]], dtype=np.int64))
    x = se.points[0][0]
    assert type(x.numerator) is int
    assert x * x == 2**80
    assert se == StructureElement([(2**40, 0), (1, 3)])


def test_structure_element_coercion_and_order():
    se = StructureElement([("1/3", "1/3"), (Fraction(2, 3), Fraction(2, 3))])
    assert se[0] == (Fraction(1, 3), Fraction(1, 3))
    assert len(se) == 2
    assert se != StructureElement([(Fraction(2, 3), Fraction(2, 3)), ("1/3", "1/3")])


def test_relation_recovers_exact_rationals_from_floats():
    # graphene-style irrational basis, rational relation
    a = Lattice([[1.5, 1.5], [math.sqrt(3) / 2, -math.sqrt(3) / 2]])
    c = Lattice(2 * a.basis)
    assert relation(a, c) == [[2, 0], [0, 2]]


def test_is_sublattice_directions():
    a = Lattice([[1, 0], [0, 1]])
    c = Lattice([[2, 3], [2, -2]])
    assert is_sublattice(a, c)
    assert not is_sublattice(c, a)
    assert not lattice_equal(a, c)
    assert lattice_equal(a, Lattice([[1, 1], [0, 1]]))


def test_is_sublattice_false_for_unrelated():
    a = Lattice([[1, 0], [0, 1]])
    b = Lattice([[math.pi, 0], [0, 1]])
    assert not is_sublattice(a, b)


def test_quotient_listing_square_example():
    # det 10 sublattice of Z^2: digits run through the hnf box, first axis fastest
    a = Lattice([[1, 0], [0, 1]])
    c = Lattice([[2, 3], [2, -2]])
    se = StructureElement(QuotientMap(integral_relation(a, c)).reps)
    assert len(se) == 10
    assert se.points == tuple(
        (Fraction(i), Fraction(j)) for j in range(2) for i in range(5)
    )


def test_quotient_listing_doubled_lattice():
    a = Lattice([[1, 0], [0, 1]])
    c = Lattice([[2, 0], [0, 2]])
    se = StructureElement(QuotientMap(integral_relation(a, c)).reps)
    assert se.points == ((0, 0), (1, 0), (0, 1), (1, 1))


def test_quotient_requires_sublattice():
    a = Lattice([[2, 0], [0, 2]])
    c = Lattice([[1, 0], [0, 1]])
    with pytest.raises(ValueError):
        StructureElement(QuotientMap(integral_relation(a, c)).reps)


def test_lcm_of_scaled_axes():
    a = Lattice([[2, 0], [0, 1]])
    b = Lattice([[1, 0], [0, 3]])
    c = lcm_lattice(a, b)
    assert is_sublattice(a, c)
    assert is_sublattice(b, c)
    assert abs(det_exact(relation(Lattice([[1, 0], [0, 1]]), c))) == 6


def test_lcm_with_self_and_refinement():
    a = Lattice([[1, 0], [0, 1]])
    assert lattice_equal(lcm_lattice(a, a), a)
    b = Lattice([[2, 0], [0, 2]])
    assert lattice_equal(lcm_lattice(a, b), b)
    assert lattice_equal(lcm_lattice(b, a), b)


def test_lcm_unrelated_raises():
    a = Lattice([[1, 0], [0, 1]])
    b = Lattice([[math.sqrt(2), 0], [0, 1]])
    with pytest.raises(ValueError, match="common sublattice"):
        lcm_lattice(a, b)


def test_lcm_with_irrational_scale_raises():
    # sqrt(6) has a rational approximant within 1e-9 of it at a denominator
    # below 10^6; accepting it made an index-4.4e12 "common sublattice"
    a = Lattice(np.eye(2))
    b = Lattice(math.sqrt(6) * np.eye(2))
    with pytest.raises(ValueError, match="no common sublattice"):
        lcm_lattice(a, b)


def test_dual_basis_inner_products():
    a = Lattice([[1.5, 1.5], [math.sqrt(3) / 2, -math.sqrt(3) / 2]])
    d = dual_basis(a)
    gram = d.basis.T @ a.basis
    assert np.allclose(gram, np.eye(2), atol=1e-12)


def test_dual_samples_square_doubling():
    a = Lattice([[1, 0], [0, 1]])
    samples = sample_dual_torus(a, [[2, 0], [0, 2]])
    fracs = k_fracs(samples)
    assert fracs == [
        (Fraction(0), Fraction(0)),
        (Fraction(0), Fraction(1, 2)),
        (Fraction(1, 2), Fraction(0)),
        (Fraction(1, 2), Fraction(1, 2)),
    ]
    for k_frac, k_phys in zip(fracs, samples.k_phys.tolist()):
        assert k_phys == [float(f) for f in k_frac]


def test_dual_samples_skew_resolution():
    a = Lattice([[1, 0], [0, 1]])
    m = [[2, 3], [2, -2]]
    samples = sample_dual_torus(a, m)
    assert len(samples) == 10
    assert len(set(k_fracs(samples))) == 10
    for k_frac in k_fracs(samples):
        assert all(0 <= f < 1 for f in k_frac)
        # each sample is a dual(Z) point: M^T k_frac must be integral
        for i in range(2):
            v = m[0][i] * k_frac[0] + m[1][i] * k_frac[1]
            assert v == int(v)


def test_dual_torus_holds_the_samples_as_array_rows():
    samples = sample_dual_torus(Lattice([[1, 0], [0, 1]]), [[3, 1], [0, 2]])
    assert type(samples) is DualTorus and samples.den == 6
    assert len(samples) == samples.num.shape[0] == samples.k_phys.shape[0] == 6
    assert samples.num.shape == samples.k_phys.shape == (6, 2)
    # a sample is a row of the arrays: no per-sample object is built
    assert not hasattr(samples, "__getitem__") and not hasattr(samples, "__iter__")


def test_sampling_refuses_a_torus_above_the_cap_before_listing(monkeypatch):
    line = Lattice([[1.0]])
    assert len(sample_dual_torus(line, [[SAMPLE_CAP]])) == SAMPLE_CAP

    def no_listing(rel):
        raise AssertionError("a refused torus was listed")

    monkeypatch.setattr("stencilfa.crystal.QuotientMap", no_listing)
    with pytest.raises(TorusTooLargeError, match=f"{SAMPLE_CAP + 1} > {SAMPLE_CAP}"):
        sample_dual_torus(line, [[-(SAMPLE_CAP + 1)]])
    with pytest.raises(TorusTooLargeError, match="too large"):
        sample_dual_torus(Lattice([[1, 0], [0, 1]]), [[2**63 - 1, 0], [0, 1]])


def test_dual_samples_reject_singular_resolution():
    a = Lattice([[1, 0], [0, 1]])
    with pytest.raises(ValueError):
        sample_dual_torus(a, [[1, 2], [2, 4]])


def small_int_matrices(n=2, lo=-4, hi=4):
    return st.lists(
        st.lists(st.integers(lo, hi), min_size=n, max_size=n),
        min_size=n,
        max_size=n,
    ).filter(lambda m: det_exact(m) != 0)


@settings(max_examples=60, deadline=None)
@given(small_int_matrices())
def test_quotient_size_and_distinctness(c):
    a = Lattice([[1, 0], [0, 1]])
    cl = Lattice(c)
    se = StructureElement(QuotientMap(integral_relation(a, cl)).reps)
    assert len(se) == abs(det_exact(c))
    # pairwise inequivalent modulo L(C): differences never lie in C*Z^2
    cinv = np.linalg.inv(np.array(c, float))
    pts = [np.array([float(x) for x in p]) for p in se]
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            t = cinv @ (pts[i] - pts[j])
            assert not np.allclose(t, np.round(t), atol=1e-9)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=4),
                      min_size=2, max_size=2), min_size=2, max_size=2),
    st.lists(st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=4),
                      min_size=2, max_size=2), min_size=2, max_size=2),
)
def test_lcm_matches_intersection_oracle(am, bm):
    if det_exact(am) == 0 or det_exact(bm) == 0:
        return
    a = Lattice([[float(x) for x in row] for row in am])
    b = Lattice([[float(x) for x in row] for row in bm])
    c = lcm_lattice(a, b)
    assert is_sublattice(a, c)
    assert is_sublattice(b, c)
    got = abs(det_exact(relation(Lattice([[1, 0], [0, 1]]), c)))
    assert got == intersection_determinant(am, bm)


@settings(max_examples=40, deadline=None)
@given(small_int_matrices(lo=-3, hi=3))
def test_dual_sample_count_and_uniqueness(m):
    a = Lattice([[1, 0], [0, 1]])
    samples = sample_dual_torus(a, m)
    assert len(samples) == abs(det_exact(m))
    assert len(set(k_fracs(samples))) == len(samples)


@st.composite
def resolutions_and_bases(draw):
    n = draw(st.integers(1, 3))
    m = draw(small_int_matrices(n, -3, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    basis = rng.normal(size=(n, n)) + 2 * np.eye(n)
    assume(abs(np.linalg.det(basis)) > 0.1)
    return m, Lattice(basis)


@settings(max_examples=100, deadline=None)
@given(resolutions_and_bases())
@example(([[2, 3], [2, -2]], Lattice([[1, 0], [0, 1]])))  # negative det, non-diagonal HNF
@example(([[1, 2, 0], [0, -3, 1], [2, 0, 4]], Lattice(np.eye(3) + 0.25)))
@example(([[-5]], Lattice([[0.5]])))
def test_dual_samples_are_the_integer_dual_torus(case):
    m, a = case
    n = len(m)
    d = abs(det_exact(m))
    samples = sample_dual_torus(a, m)
    den = samples.den
    assert len(samples) == d
    rows = [tuple(num) for num in samples.num.tolist()]
    assert len(set(rows)) == d
    # den is the lcm of the denominators of M^-1, a divisor of |det M|
    assert den == inverse_denominator(m) and d % den == 0
    # the canonical listing of Z^n / M^T Z^n over |det M|, sorted by numerator
    listing = quotient_listing([list(col) for col in zip(*m)])
    assert [tuple(x * (d // den) for x in num) for num in rows] == sorted(per_sample_numerators(m, listing))
    assert samples.num.dtype == np.int64 and samples.num.shape == (d, n)
    assert not samples.num.flags.writeable and not samples.k_phys.flags.writeable
    dual = dual_basis(a).basis
    for num, k_phys in zip(rows, samples.k_phys):
        assert all(0 <= x < den for x in num)
        # M^T k_frac is integral: M^T num vanishes modulo den
        assert all(sum(m[r][i] * num[r] for r in range(n)) % den == 0 for i in range(n))
        # bit for bit the per-sample product of the float fractions
        assert k_phys.tobytes() == fraction_k_phys(dual, num, den).tobytes()


@st.composite
def nonsingular_resolutions(draw):
    n = draw(st.integers(1, 3))
    return draw(small_int_matrices(n, -6, 6))


@settings(max_examples=100, deadline=None)
@given(nonsingular_resolutions(), st.integers(0, 2**32 - 1))
@example([[64, 0], [0, 64]], 0)  # den 64, not 4096
@example([[6, 0], [0, 10]], 0)  # den 30
@example([[2, 3], [2, -2]], 0)  # den 10
@example([[4, 2, 0], [0, 6, 2], [2, 0, 8]], 1)
def test_dual_samples_are_in_lowest_terms(m, seed):
    n = len(m)
    d = abs(det_exact(m))
    basis = np.random.default_rng(seed).normal(size=(n, n)) + 3 * np.eye(n)
    a = Lattice(basis)
    samples = sample_dual_torus(a, m)
    den = samples.den
    assert len(samples) == d
    assert math.gcd(den, *samples.num.ravel().tolist()) == 1
    assert den == inverse_denominator(m)
    # the numerators over |det M| the old way: the listing's rows, their
    # k_phys from one product in listing order, both sorted by numerator
    listing = quotient_listing([list(col) for col in zip(*m)])
    old = np.array(per_sample_numerators(m, listing), dtype=np.int64).reshape(d, n)
    old_k_phys = (old / d) @ dual_basis(a).basis.T
    order = np.lexsort(old.T[::-1])
    # read as fractions, the rows are that listing in the same order
    assert [[Fraction(x, den) for x in row] for row in samples.num.tolist()] == [
        [Fraction(x, d) for x in row] for row in old[order].tolist()
    ]
    assert samples.k_phys.tobytes() == old_k_phys[order].tobytes()


@pytest.mark.parametrize("m", [[[3, 2**62], [0, 5]], [[2**62, 2**62 - 1], [1, 1]]])
def test_dual_sample_numerators_with_entries_near_int64_limit(m):
    # d*M^-T holds -2^62 for the first, so it must be reduced mod d before
    # the product with the listing
    listing = quotient_listing([list(col) for col in zip(*m)])
    samples = sample_dual_torus(Lattice([[1, 0], [0, 1]]), m)
    assert [tuple(num) for num in samples.num.tolist()] == sorted(per_sample_numerators(m, listing))


@st.composite
def relations_and_far_points(draw):
    n = draw(st.integers(1, 3))
    rel = draw(small_int_matrices(n, -4, 4))
    far = st.integers(-(10**9), 10**9)
    points = draw(st.lists(st.lists(far, min_size=n, max_size=n), min_size=1, max_size=20))
    return rel, points


@settings(max_examples=200, deadline=None)
@given(relations_and_far_points())
@example(([[2, 3], [2, -2]], [[10**9, -(10**9)], [-(10**9), 10**9], [0, 0], [9, 9]]))
@example(([[1, 2, 0], [0, -3, 1], [2, 0, 4]], [[-(10**9), 7, 10**9], [10**9, -(10**9), -1]]))
def test_quotient_map_indices_match_the_listing(case):
    rel, points = case
    qm = QuotientMap(rel)
    got = qm.indices(np.array(points))
    assert got.dtype == np.int64
    reps = [tuple(rep) for rep in qm.reps.tolist()]
    exact = qm.residue(np.array(points, dtype=object)).tolist()
    assert got.tolist() == [reps.index(tuple(r)) for r in exact]


def quotient_cases(n, lo, hi):
    vectors = st.lists(st.lists(st.integers(-30, 30), min_size=n, max_size=n),
                       min_size=1, max_size=6)
    return st.tuples(small_int_matrices(n, lo, hi), vectors)


@settings(max_examples=60, deadline=None)
@given(st.one_of(quotient_cases(2, -5, 5), quotient_cases(3, -3, 3)))
def test_quotient_map_residue_and_listing(case):
    rel, xs = case
    qm = QuotientMap(rel)
    det = abs(det_exact(rel))
    reps = [tuple(rep) for rep in qm.reps.tolist()]
    assert len(reps) == det
    inv = mat_inv(rel)
    for x, r, k in zip(xs, qm.residue(np.array(xs)).tolist(), qm.indices(np.array(xs)).tolist()):
        # x = reps[k] + rel*z for the exact solution z of rel*z = x - reps[k]
        z = [sum(a * (b - c) for a, b, c in zip(row, x, reps[k])) for row in inv]
        assert all(Fraction(v).denominator == 1 for v in z)
        back = [c + sum(a * b for a, b in zip(row, z)) for c, row in zip(reps[k], rel)]
        assert back == x
        assert tuple(r) == reps[k]
    # x = y mod rel  iff  adj(rel)*(x - y) = 0 mod det, with adj(rel) = det*rel^-1
    adj = [[int(v * det) for v in row] for row in inv]
    keys = {tuple(sum(a * b for a, b in zip(row, r)) % det for row in adj) for r in reps}
    assert len(keys) == det


@st.composite
def relations_near_and_beyond_int64(draw):
    n = draw(st.integers(1, 3))
    rel = draw(small_int_matrices(n, -4, 4))
    near = st.lists(st.lists(st.integers(-(10**9), 10**9), min_size=n, max_size=n),
                    min_size=1, max_size=8)
    points = draw(near)
    # lattice steps of at least 2^70 carry every point far beyond +-2^63,
    # however rel shrinks them (its inverse has entries below 2^7)
    big = st.integers(2**70, 2**80) | st.integers(-(2**80), -(2**70))
    steps = draw(st.lists(st.lists(big, min_size=n, max_size=n), min_size=len(points),
                          max_size=len(points)))
    return rel, points, steps


@settings(max_examples=100, deadline=None)
@given(relations_near_and_beyond_int64())
@example(([[1]], [[0]], [[2**63]]))
@example(([[2, 3], [2, -2]], [[10**9, -(10**9)], [-7, 4]], [[2**63, -(2**63)], [-(2**80), 2**80]]))
@example(([[3, 0, 0], [1, 2, 0], [0, 1, 4]], [[-(10**9), 7, 10**9]], [[2**79, 2**63, -(2**70)]]))
def test_quotient_map_int64_and_exact_reductions_agree(case):
    rel, points, steps = case
    qm = QuotientMap(rel)
    fast = qm.residue(np.array(points, dtype=np.int64))
    exact = qm.residue(np.array(points, dtype=object))
    assert fast.dtype == np.int64 and exact.dtype == object
    assert fast.tolist() == exact.tolist()
    # rel*step is in the sublattice: the same class, far outside int64
    far = [[p + sum(a * b for a, b in zip(row, s)) for p, row in zip(point, rel)]
           for point, s in zip(points, steps)]
    assert any(abs(v) >= 2**63 for row in far for v in row)
    assert qm.residue(far).tolist() == fast.tolist()
    assert all(type(v) is int for row in qm.residue(far).tolist() for v in row)
    assert qm.indices(far).tolist() == qm.indices(np.array(points)).tolist()
    assert set(map(tuple, fast.tolist())) <= set(map(tuple, qm.reps.tolist()))


@settings(max_examples=60, deadline=None)
@given(st.one_of(small_int_matrices(1, -6, 6), small_int_matrices(2, -5, 5), small_int_matrices(3, -3, 3)))
@example([[2, 3], [2, -2]])
def test_quotient_map_reps_is_the_canonical_listing_as_an_array(rel):
    reps = QuotientMap(rel).reps
    assert reps.dtype == np.int64 and reps.shape == (abs(det_exact(rel)), len(rel))
    assert not reps.flags.writeable
    assert [tuple(rep) for rep in reps.tolist()] == quotient_listing(rel)

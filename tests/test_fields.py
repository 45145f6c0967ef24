"""Unit tests for the exact field-membership oracle."""

from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from algseeds.algebraic import AlgebraicNumber, PrecisionExhausted, irrational_real_roots
from algseeds.families import SetSpec, bc_root, build_set
from algseeds.fields import (
    FieldExpression,
    FieldId,
    _express_cubic,
    _same_kernel,
    _split_apart,
    _value_is_beta,
    express_in,
    independence_report,
    same_field,
    spec_in_guaranteed_range,
    squarefree_kernel,
    trace_and_norm,
)
from algseeds.polynomials import MonicIntPoly

CBRT2_SHIFTED = irrational_real_roots(MonicIntPoly.cubic(3, 3, -1))[0]   # 2^(1/3) - 1
CBRT4_SHIFTED = irrational_real_roots(MonicIntPoly.cubic(3, 3, -3))[0]   # 4^(1/3) - 1


def test_squarefree_kernel():
    assert squarefree_kernel(12) == 3
    assert squarefree_kernel(-8) == -2
    assert squarefree_kernel(49) == 1
    assert squarefree_kernel(1) == 1
    assert squarefree_kernel(90) == 10
    # cofactors left above the trial-division cut: q^2, q*r and 2*q^2
    assert squarefree_kernel(10007**2) == 1
    assert squarefree_kernel(-10007 * 10009) == -10007 * 10009
    assert squarefree_kernel(2 * 10007**2) == 2
    assert squarefree_kernel(10007) == 10007
    assert squarefree_kernel(10007**3) == 10007
    assert squarefree_kernel(12 * 10007 * 10009) == 3 * 10007 * 10009
    with pytest.raises(ValueError):
        squarefree_kernel(0)


@given(k=st.integers(min_value=2, max_value=400), s=st.integers(min_value=1, max_value=20))
def test_kernel_invariant_under_square_factors(k, s):
    assert squarefree_kernel(k * s * s) == squarefree_kernel(k)
    # prime squares, semiprimes and 2*q^2 above the cut: k <= 400 shares no
    # factor with the primes 10007 and 10009
    for q in (10007, 10009):
        assert squarefree_kernel(k * s * s * q * q) == squarefree_kernel(k)
        assert squarefree_kernel(2 * q * q * s * s) == 2
    assert squarefree_kernel(k * 10007 * 10009) == squarefree_kernel(k) * 10007 * 10009


@given(d=st.integers(-5000, 5000).filter(bool), e=st.integers(-5000, 5000).filter(bool))
def test_same_kernel_matches_factoring(d, e):
    assert _same_kernel(d, e) == (squarefree_kernel(d) == squarefree_kernel(e))
    assert _same_kernel(d, d * 36)


def test_field_id_quadratic():
    sqrt2 = AlgebraicNumber.sqrt_of(2)
    sqrt8 = AlgebraicNumber.sqrt_of(8)
    sqrt3 = AlgebraicNumber.sqrt_of(3)
    assert FieldId.of_number(sqrt2) == FieldId.of_number(sqrt8)
    assert FieldId.of_number(sqrt2) != FieldId.of_number(sqrt3)
    assert FieldId.of_number(sqrt2).to_json() == {"degree": 2, "kernel": 2}


def test_express_in_identity():
    e = express_in(CBRT2_SHIFTED, CBRT2_SHIFTED)
    assert e is not None
    assert e.coeffs == (Fraction(0), Fraction(1), Fraction(0))


def test_express_in_cubic_collision():
    """4^(1/3) - 1 = (2^(1/3) - 1)^2 + 2 (2^(1/3) - 1)."""
    e = express_in(CBRT4_SHIFTED, CBRT2_SHIFTED)
    assert e is not None
    assert e.coeffs == (Fraction(0), Fraction(2), Fraction(1))
    assert e.verify_root_of(CBRT4_SHIFTED.minpoly)


def test_express_in_quadratic_reflection():
    golden = bc_root(1, -1, 1)            # (sqrt(5) - 1) / 2
    mirror = bc_root(-3, 1, -1)           # (3 - sqrt(5)) / 2 = 1 - golden
    e = express_in(mirror, golden)
    assert e is not None
    assert e.coeffs == (Fraction(1), Fraction(-1), Fraction(0))


def test_express_in_separates_generic_cubic_conjugates():
    # disc(x^3 - 4x + 1) = 229 is not a square: conjugate roots generate
    # three distinct subfields of R
    r1, r2, r3 = irrational_real_roots(MonicIntPoly.cubic(0, -4, 1))
    assert express_in(r2, r1) is None
    assert express_in(r3, r1) is None


def test_express_in_joins_cyclic_cubic_conjugates():
    # disc(x^3 - 3x + 1) = 81 is a square: the splitting field has degree 3
    r1, r2, r3 = irrational_real_roots(MonicIntPoly.cubic(0, -3, 1))
    for target in (r2, r3):
        e = express_in(target, r1)
        assert e is not None
        assert e.verify_root_of(target.minpoly)


def test_express_in_degree_mismatch():
    assert express_in(AlgebraicNumber.sqrt_of(2), CBRT2_SHIFTED) is None
    assert express_in(CBRT2_SHIFTED, AlgebraicNumber.sqrt_of(2)) is None


def test_express_in_distinct_quadratic_fields():
    assert express_in(AlgebraicNumber.sqrt_of(3), AlgebraicNumber.sqrt_of(2)) is None


def test_express_in_mixed_cubic_signatures():
    one_real = irrational_real_roots(MonicIntPoly.cubic(0, 0, -2))[0]
    totally_real = irrational_real_roots(MonicIntPoly.cubic(0, -3, 1))[0]
    assert express_in(totally_real, one_real) is None


# Both signatures, inside the guaranteed range (m in {0,...,-3}) and outside
# it; 3ntr(3,3) has one kernel for all six elements and holds the known
# collision.
KERNEL_CROSS_CHECK_SPECS = (
    ("3ntr", (-2, 9)), ("3ntr", (0, 8)), ("3tr", (0, -10)), ("3tr", (-3, -9)),
    ("3ntr", (3, 3)), ("3ntr", (2, 6)), ("3tr", (1, -12)),
)


def _disc_kernel(a: AlgebraicNumber) -> int:
    return squarefree_kernel(a.minpoly.discriminant())


@pytest.mark.parametrize("family,params", KERNEL_CROSS_CHECK_SPECS)
def test_kernel_filter_agrees_with_unfiltered_solver(family, params):
    """The kernel shortcut of express_in, against the bare solver: every
    ordered pair it rejects is rejected by the solve too, and every pair the
    solve accepts has equal kernels."""
    cubics = [a for a in build_set(SetSpec(family, params)).numbers()
              if a.minpoly.degree == 3]
    kernel_rejected = accepted = 0
    for a, b in permutations(cubics, 2):
        cert = _express_cubic(b, a, 128, 4096)
        if _disc_kernel(a) != _disc_kernel(b):
            kernel_rejected += 1
            assert cert is None
            assert express_in(b, a) is None
        if cert is not None:
            accepted += 1
            assert _disc_kernel(a) == _disc_kernel(b)
            assert cert.verify_root_of(b.minpoly)
    if (family, params) == ("3ntr", (3, 3)):
        assert kernel_rejected == 0 and accepted == 2  # the collision, both ways
    else:
        assert kernel_rejected > 0 and accepted == 0


def _splits_apart(a: AlgebraicNumber, b: AlgebraicNumber) -> bool:
    f, g = a.minpoly, b.minpoly
    return _split_apart(f, g, f.discriminant(), g.discriminant())


# Equal-kernel cubic pairs (indices into numbers()) of the paper's sweep:
# three that the splitting test separates, in both signatures, and the
# isomorphic pair of 3tr(0,-60), which splits alike at every prime and is
# rejected by the solve alone.
@pytest.mark.parametrize("family,params,i,j,split", (
    ("3ntr", (0, 24), 2, 19, True), ("3ntr", (-3, 27), 4, 21, True),
    ("3tr", (0, -21), 6, 16, True), ("3tr", (0, -60), 15, 46, False),
))
def test_splitting_filter_agrees_with_unfiltered_solver(family, params, i, j, split):
    elems = build_set(SetSpec(family, params)).numbers()
    a, b = elems[i], elems[j]
    assert a.minpoly != b.minpoly and _disc_kernel(a) == _disc_kernel(b)
    assert _splits_apart(a, b) == split
    assert _splits_apart(b, a) == split
    assert _express_cubic(b, a, 128, 4096) is None
    assert express_in(b, a) is None


def test_splitting_filter_passes_affine_images():
    """k - alpha generates Q(alpha), so the splitting test must let the
    pair through (the collision and cyclic conjugates are checked through
    express_in above)."""
    for spec in (SetSpec("3ntr", (0, 24)), SetSpec("3tr", (-1, -20))):
        for a in build_set(spec).numbers():
            if a.minpoly.degree == 3:
                for k in (-2, 1, 3):
                    assert not _splits_apart(a, a.negated().plus_int(k))


def test_bit_cap_raises_precision_exhausted():
    golden = bc_root(1, -1, 1)
    mirror = bc_root(-3, 1, -1)
    expr = FieldExpression(golden, (Fraction(1), Fraction(-1), Fraction(0)))
    assert _value_is_beta(expr, mirror, 4096)
    with pytest.raises(PrecisionExhausted):
        _value_is_beta(expr, mirror, 8)
    with pytest.raises(PrecisionExhausted):
        express_in(mirror, golden, max_bits=8)  # the cap reaches _value_is_beta
    with pytest.raises(PrecisionExhausted):
        express_in(CBRT4_SHIFTED, CBRT2_SHIFTED, start_bits=16, max_bits=8)


QUAD_B = st.integers(min_value=-8, max_value=8)
QUAD_C = st.integers(min_value=-8, max_value=8)


@given(b=QUAD_B, c=QUAD_C, u=st.integers(-5, 5), v=st.integers(1, 5))
def test_express_in_recovers_affine_quadratic_coordinates(b, c, u, v):
    p = MonicIntPoly.quadratic(b, c)
    if not p.is_irreducible() or p.discriminant() < 0:
        return
    alpha = bc_root(b, c, 1)
    # u + v*alpha is the plus-root of its own minimal polynomial
    beta = bc_root(b * v - 2 * u, u * u - b * v * u + c * v * v, 1)
    e = express_in(beta, alpha)
    assert e is not None
    assert e.coeffs == (Fraction(u), Fraction(v), Fraction(0))


def test_verify_root_of_rejects_wrong_claim():
    bogus = FieldExpression(CBRT2_SHIFTED, (Fraction(1), Fraction(1), Fraction(0)))
    assert not bogus.verify_root_of(CBRT4_SHIFTED.minpoly)


def test_trace_and_norm_quadratic():
    sqrt2 = AlgebraicNumber.sqrt_of(2)
    t, n = trace_and_norm(FieldExpression(sqrt2, (Fraction(0), Fraction(1), Fraction(0))))
    assert (t, n) == (0, -2)
    t, n = trace_and_norm(FieldExpression(sqrt2, (Fraction(2), Fraction(-1), Fraction(0))))
    assert (t, n) == (4, 2)  # 2 - sqrt(2) times its conjugate
    with pytest.raises(ValueError):
        trace_and_norm(FieldExpression(sqrt2, (Fraction(0), Fraction(0), Fraction(1))))


def test_trace_and_norm_cubic():
    theta = irrational_real_roots(MonicIntPoly.cubic(0, 0, -2))[0]  # 2^(1/3)
    t, n = trace_and_norm(FieldExpression(theta, (Fraction(0), Fraction(1), Fraction(0))))
    assert (t, n) == (0, 2)
    t, n = trace_and_norm(FieldExpression(theta, (Fraction(1), Fraction(1), Fraction(1))))
    # 1 + t + t^2 = (t^3 - 1)/(t - 1), so the norm telescopes to
    # N(theta^3 - 1)/N(theta - 1) = 1/1
    assert (t, n) == (3, 1)


def test_same_field():
    sqrt2 = AlgebraicNumber.sqrt_of(2)
    shifted = bc_root(-2, -1, 1)  # 1 + sqrt(2)
    assert same_field(sqrt2, shifted)
    assert not same_field(sqrt2, AlgebraicNumber.sqrt_of(3))
    assert same_field(CBRT2_SHIFTED, CBRT4_SHIFTED)


def test_independence_of_quadratic_instance():
    rep = independence_report(build_set(SetSpec("2r", (4,))))
    assert rep.pairs_checked == 6
    assert rep.independent
    assert rep.in_guaranteed_range
    kernels = [fid.kernel for fid in rep.field_ids]
    assert kernels == [5, 6, 7, 2]


def test_independence_finds_known_cubic_collision():
    rep = independence_report(build_set(SetSpec("3ntr", (3, 3))))
    assert rep.pairs_checked == 15
    assert not rep.independent
    assert not rep.in_guaranteed_range  # m = 3 sits outside the proven strip
    (col,) = rep.collisions
    assert col.certificate.coeffs == (Fraction(0), Fraction(2), Fraction(1))
    js = rep.to_json()
    assert js["independent"] is False
    assert len(js["collisions"]) == 1
    assert js["pairs_checked"] == 15


def test_spec_in_guaranteed_range():
    assert spec_in_guaranteed_range(SetSpec("2r", (7,)))
    assert spec_in_guaranteed_range(SetSpec("2i", (7,)))
    assert spec_in_guaranteed_range(SetSpec("3ntr", (0, 6)))
    assert not spec_in_guaranteed_range(SetSpec("3ntr", (3, 3)))


def test_collision_indices_point_at_the_witnessing_elements():
    inst = build_set(SetSpec("3ntr", (3, 3)))
    rep = independence_report(inst)
    (col,) = rep.collisions
    alpha = inst.numbers()[col.i]
    beta = inst.numbers()[col.j]
    assert alpha.minpoly == MonicIntPoly.cubic(3, 3, -1)
    assert beta.minpoly == MonicIntPoly.cubic(3, 3, -3)
    assert col.certificate.base.minpoly == alpha.minpoly

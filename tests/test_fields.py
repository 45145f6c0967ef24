"""Unit tests for the exact field-membership oracle."""

import hashlib
import json
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from algseeds.algebraic import (AlgebraicNumber, PrecisionExhausted, irrational_real_roots,
                                same_number)
from algseeds import fields
from algseeds.families import SetInstance, SetSpec, bc_root, build_set
from algseeds.fields import (
    FieldExpression,
    FieldId,
    _alpha_matrix,
    _beta_rhs_variants,
    _express_cubic,
    _gram_adjugate,
    _integer_in,
    _mulmod,
    _progression_kernels,
    _same_kernel,
    _split_apart,
    _trace,
    _value_is_beta,
    char_poly,
    express_in,
    independence_report,
    same_field,
    spec_in_guaranteed_range,
    squarefree_kernel,
)
from algseeds.polynomials import MonicIntPoly
from oracles import sign_at, sqrt_of

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
    # the fields of sqrt(k): disc(x^2 - k) = 4k
    sqrt2, sqrt8, sqrt3 = (FieldId(2, kernel=squarefree_kernel(4 * k)) for k in (2, 8, 3))
    assert sqrt2 == sqrt8
    assert sqrt2 != sqrt3
    assert sqrt2.to_json() == {"degree": 2, "kernel": 2}


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
    assert express_in(sqrt_of(2), CBRT2_SHIFTED) is None
    assert express_in(CBRT2_SHIFTED, sqrt_of(2)) is None


def test_express_in_distinct_quadratic_fields():
    assert express_in(sqrt_of(3), sqrt_of(2)) is None


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


def _trace_and_norm(f: MonicIntPoly, h) -> tuple:
    c = char_poly(f, h)
    return -c[0], (-1) ** f.degree * c[-1]


def test_char_poly_quadratic():
    f = MonicIntPoly.quadratic(0, -2)  # sqrt(2)
    t, n = _trace_and_norm(f, (Fraction(0), Fraction(1), Fraction(0)))
    assert (t, n) == (0, -2)
    assert type(t) is type(n) is Fraction
    t, n = _trace_and_norm(f, (Fraction(2), Fraction(-1), Fraction(0)))
    assert (t, n) == (4, 2)  # 2 - sqrt(2) times its conjugate
    assert char_poly(f, (2, -1, 0)) == (-4, 2)
    with pytest.raises(ValueError):
        char_poly(f, (Fraction(0), Fraction(0), Fraction(1)))


def test_char_poly_cubic():
    f = MonicIntPoly.cubic(0, 0, -2)  # 2^(1/3)
    assert _trace_and_norm(f, (Fraction(0), Fraction(1), Fraction(0))) == (0, 2)
    assert char_poly(f, (0, 1, 0)) == f.coeffs
    # 1 + t + t^2 = (t^3 - 1)/(t - 1), so the norm telescopes to
    # N(theta^3 - 1)/N(theta - 1) = 1/1
    assert _trace_and_norm(f, (Fraction(1), Fraction(1), Fraction(1))) == (3, 1)


def test_same_field():
    sqrt2 = sqrt_of(2)
    shifted = bc_root(-2, -1, 1)  # 1 + sqrt(2)
    assert same_field(sqrt2, shifted)
    assert not same_field(sqrt2, sqrt_of(3))
    assert same_field(CBRT2_SHIFTED, CBRT4_SHIFTED)


def test_independence_of_quadratic_instance():
    rep = independence_report(build_set(SetSpec("2r", (4,))))
    assert rep.pairs_checked == 6
    assert rep.independent
    assert rep.in_guaranteed_range
    kernels = [fid.kernel for fid in rep.field_ids]
    assert kernels == [5, 6, 7, 2]


# the sieve against squarefree_kernel, on positive and negative terms: steps
# divisible by p or p^2 for p = 2, 3, 5, 7 and 11 (so that p is skipped, or
# tried at every term), and first terms carrying p^4 and p^6, so that p^2
# has to be divided out more than once, or 4 out of first and step
@given(first=st.integers(-3000, 3000),
       power=st.sampled_from((1, 2**4, 3**4, 5**4, 7**4, 2**6, 3**6)),
       step=st.sampled_from((1, 4, 12, 9, 25, 49, 121)),
       sign=st.sampled_from((1, -1)), count=st.integers(0, 80))
@example(first=121, power=1, step=4, sign=-1, count=3)    # the largest term is 11^2
@example(first=-9, power=1, step=4, sign=-1, count=5)     # 2i-like terms, all negative
@example(first=5, power=1, step=4, sign=-1, count=60)     # 1 mod 4: p = 2 is skipped
@example(first=-3, power=2**4, step=4, sign=-1, count=60) # 0 mod 16: 4 is divided out
@example(first=3, power=2**4, step=4, sign=1, count=60)
def test_progression_kernels_match_squarefree_kernel(first, power, step, sign, count):
    first, step = first * power, step * sign
    terms = [first + i * step for i in range(count)]
    assume(0 not in terms)
    assert _progression_kernels(first, step, count) == [squarefree_kernel(t) for t in terms]


def test_quadratic_field_ids_match_squarefree_kernel():
    """independence_report reads quadratic kernels off the sieve; they are
    the kernels of each element's own discriminant, for 2r with
    1 <= |n| <= 300 (the one-element 2r(1) and 2r(-3) among them) and 2i
    with n <= 300."""
    specs = ([SetSpec("2r", (n,)) for n in (*range(1, 301), *range(-3, -301, -1))]
             + [SetSpec("2i", (n,)) for n in range(1, 301)])
    for spec in specs:
        inst = build_set(spec)
        assert independence_report(inst).field_ids == tuple(
            FieldId(2, kernel=squarefree_kernel(a.minpoly.discriminant())) for a in inst.numbers())


@pytest.mark.parametrize("spec", (SetSpec("2r", (60,)), SetSpec("2i", (50,)),
                                  SetSpec("3ntr", (3, 3)), SetSpec("3tr", (0, -6))))
def test_report_json_renders_field_keys_without_field_ids(spec):
    """to_json renders field_keys through the renderer of FieldId.to_json,
    building no FieldId; the JSON equals the one rendered from field_ids."""
    for rep in (independence_report(spec), independence_report(build_set(spec))):
        js = rep.to_json()
        assert "field_ids" not in vars(rep)
        assert js["field_ids"] == [fid.to_json() for fid in rep.field_ids]
        assert any(f["degree"] == 2 for f in js["field_ids"]) == (spec.family != "3ntr")


@pytest.mark.parametrize("order", ((1, 0, 2, 3, 4), (0, 1, 3, 2, 4), (4, 0, 1, 2, 3),
                                   (0, 2, 4, 1, 3), (0, 0, 1, 2, 3)))
def test_independence_refuses_quadratics_out_of_range_order(order):
    """independence_report reads a quadratic instance's kernels off its
    spec, so it is never handed one out of build_set order: a hand-built
    instance is refused when it is built, also when only the middle moves
    and also reversed (the ``families`` docstring)."""
    for spec in (SetSpec("2r", (5,)), SetSpec("2r", (-7,)), SetSpec("2i", (5,))):
        elements = build_set(spec).elements
        for bad in (tuple(elements[i] for i in order), elements[::-1]):
            with pytest.raises(ValueError):
                independence_report(SetInstance(spec, bad))


def test_spec_decision_matches_the_built_instance():
    """independence_report(spec) decides a 2r or 2i instance from its b and c
    range without building it; for 2r with 1 <= |n| <= 300 and 2i with
    n <= 300 it must agree with the report on build_set(spec): kernels,
    pairs_checked, collisions and JSON."""
    specs = ([SetSpec("2r", (n,)) for n in (*range(1, 301), *range(-3, -301, -1))]
             + [SetSpec("2i", (n,)) for n in range(1, 301)])
    for spec in specs:
        from_spec, built = independence_report(spec), independence_report(build_set(spec))
        assert from_spec.field_keys == built.field_keys
        assert from_spec.pairs_checked == built.pairs_checked == \
            spec.cardinality() * (spec.cardinality() - 1) // 2
        assert from_spec.collisions == built.collisions == ()
        assert from_spec.to_json() == built.to_json()


def test_cubic_spec_is_decided_on_its_built_instance():
    spec = SetSpec("3ntr", (3, 3))
    assert independence_report(spec).to_json() == independence_report(build_set(spec)).to_json()


def test_repeated_kernel_is_certified_through_express_in():
    """x^2 + c for c = 1..4 has discriminants -4, -8, -12, -16, with kernels
    -1, -2, -3, -1: i and 2i share Q(i).  No instance lists these four, so
    the bucket loop takes them directly.  The pair goes to express_in and
    is reported with its certificate, in either order."""
    numbers = [AlgebraicNumber.complex_root(MonicIntPoly.quadratic(0, c)) for c in range(1, 5)]
    for listed, coeffs in ((numbers, (0, 2, 0)), (numbers[::-1], (0, Fraction(1, 2), 0))):
        kernels = [squarefree_kernel(a.minpoly.discriminant()) for a in listed]
        # the spec only labels the report
        rep = fields._bucket_report(SetSpec("2i", (2,)), kernels, kernels, listed.__getitem__)
        (col,) = rep.collisions
        assert (col.i, col.j) == (0, 3)
        assert col.certificate.coeffs == tuple(map(Fraction, coeffs))
        assert col.certificate.verify_root_of(listed[3].minpoly)
        assert not rep.independent and rep.pairs_checked == 6


@pytest.mark.parametrize("spec", (SetSpec("2r", (7,)), SetSpec("2r", (-9,)), SetSpec("2i", (9,))))
def test_spec_decision_builds_the_right_elements_for_a_repeated_kernel(spec, monkeypatch):
    """No 2r or 2i spec has a repeated kernel, so the repeat branch of the
    spec decision is reached here through a sieve that reports one: it must
    send elements i and j of build_set(spec) to express_in, and nothing
    else.  Given the instance, it takes the same path and reads the two
    elements off the instance."""
    sieve = fields._progression_kernels
    calls = []

    def repeated(first, step, count):
        kernels = sieve(first, step, count)
        kernels[5] = kernels[2]
        return kernels

    def express(beta, alpha):
        calls.append((beta, alpha))
        return FieldExpression(beta, (Fraction(0), Fraction(1), Fraction(0)))

    monkeypatch.setattr(fields, "_progression_kernels", repeated)
    monkeypatch.setattr(fields, "express_in", express)
    inst = build_set(spec)
    elems = inst.numbers()
    for given in (spec, inst):
        calls.clear()
        rep = independence_report(given)
        assert calls == [(elems[5], elems[2])]
        assert [(c.i, c.j) for c in rep.collisions] == [(2, 5)]
    assert calls[0][0] is elems[5] and calls[0][1] is elems[2]


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


def _encloses(root: AlgebraicNumber, iv, bits: int) -> bool:
    """The int interval iv at scale 2**bits holds root, decided exactly."""
    return (root.cmp_rational(Fraction(iv[0], 1 << bits)) > 0
            and root.cmp_rational(Fraction(iv[1], 1 << bits)) < 0)


@settings(max_examples=150)
@given(b=st.integers(-9, 9), c=st.integers(-12, 12), d=st.integers(-12, 12),
       index=st.integers(0, 2), bits=st.integers(0, 160))
@example(b=0, c=-7, d=7, index=0, bits=128)    # the close pair 1.357, 1.692 read off -3.049
@example(b=0, c=-7, d=7, index=2, bits=0)
@example(b=-9, c=6, d=-1, index=2, bits=2)     # the enclosure of |D| reaches below 0
@example(b=-9, c=-6, d=-1, index=0, bits=2)    # the same for a complex pair
def test_deflated_conjugates_match_the_slow_path(b, c, d, index, bits):
    """The conjugates read off one cell of the number by deflation, against
    slow paths that share nothing with it: the own entry and each real
    enclosure hold their root, checked exactly against the isolated roots,
    and the other two real roots come in ascending order.  A complex pair
    re +- i im is checked by Vieta's relations on the exact cell of the real
    root a: 2 re = -(b + a) and a (re^2 + im^2) = -d, each as a meeting of
    intervals over rationals.  Each enclosure is at most 2 units wide at
    scale 2**bits, the guard growing until it is."""
    p = MonicIntPoly.cubic(b, c, d)
    assume(p.discriminant() != 0 and p.is_irreducible())
    roots = irrational_real_roots(p)
    alpha = roots[index % len(roots)]
    own, (u, v), real = fields._conjugates(alpha, bits)
    assert real == (p.discriminant() > 0)
    assert _encloses(alpha, own, bits)  # the own row is alpha itself
    assert all(hi - lo <= 2 for lo, hi in (own, u, v))
    if real:
        others = [r for r in roots if not same_number(r, alpha)]
        assert all(_encloses(r, iv, bits) for r, iv in zip(others, (u, v)))
        assert u[0] <= v[0] and u[1] <= v[1]
    else:
        left, right, den = alpha.cell(bits)
        a = (Fraction(left, den), Fraction(right, den))
        re, im = ((Fraction(lo, 1 << bits), Fraction(hi, 1 << bits)) for lo, hi in (u, v))
        assert 2 * re[0] <= -b - a[0] and -b - a[1] <= 2 * re[1]
        re2, im2 = _product_range(re, re), _product_range(im, im)
        norm = _product_range(a, (re2[0] + im2[0], re2[1] + im2[1]))
        assert norm[0] <= -d <= norm[1]


def _product_range(x, y):
    ps = [s * t for s in x for t in y]
    return min(ps), max(ps)


@settings(max_examples=150)
@given(b=st.integers(-15, 15), c=st.integers(-15, 15), d=st.integers(-15, 15),
       bits=st.integers(0, 160))
# |D| so small that a guard of 8 bits left the imaginary part 3 units wide
@example(b=12, c=-7, d=1, bits=4)
@example(b=-12, c=-7, d=-1, bits=4)
@example(b=-12, c=-7, d=-1, bits=8)
def test_complex_conjugates_nest_across_precisions(b, c, d, bits):
    """The real and imaginary parts of the upper complex root that
    _conjugates reads at bits and at 2 bits meet, and each is at most 2
    units wide at its scale."""
    p = MonicIntPoly.cubic(b, c, d)
    assume(p.discriminant() < 0 and p.is_irreducible())
    (alpha,) = irrational_real_roots(p)
    _, coarse, real = fields._conjugates(alpha, bits)
    _, fine, _ = fields._conjugates(alpha, 2 * bits)
    assert not real
    for (c_lo, c_hi), (f_lo, f_hi) in zip(coarse, fine):
        assert c_hi - c_lo <= 2 and f_hi - f_lo <= 2
        assert max(c_lo << bits, f_lo) <= min(c_hi << bits, f_hi)


def _power_sums(f: MonicIntPoly) -> list:
    """Tr(alpha^j), j = 0, ..., 4, for a root alpha of the cubic f: the slow
    path, one char_poly of alpha^j mod f each."""
    sums, power = [], [1, 0, 0]
    for _ in range(5):
        sums.append(-char_poly(f, power)[0])
        power = _mulmod(power, [0, 1], f.ascending())
    return sums


@pytest.mark.parametrize("coeffs", [(0, -3, 1), (0, -7, 7), (0, 0, -2), (0, -1, -1)])
def test_alpha_matrix_and_beta_rows_read_the_same_conjugates(coeffs):
    """The rows that _alpha_matrix caches and the first right-hand side of
    _beta_rhs_variants read the same conjugates: alpha against itself under
    matching 0 encloses the power sums Tr(alpha^2) and Tr(alpha^3) that
    char_poly gives, for every real root of totally real and complex
    cubics.  Each real entry of that right-hand side encloses its own root,
    checked exactly."""
    p = MonicIntPoly.cubic(*coeffs)
    sums = _power_sums(p)
    roots = irrational_real_roots(p)
    alphas = list(roots)
    if sign_at(p, 0) != sign_at(p, 1):
        alphas.append(AlgebraicNumber.real_root(p, 0, 1))  # as build_set holds it
    for alpha in alphas:
        column = _beta_rhs_variants(alpha, 128)[0]
        rows = _alpha_matrix(alpha, 128)
        for k in (0, 1):
            lo, hi = _trace(rows, column, k, 128)
            assert lo <= sums[k + 2] << 128 <= hi
        own = [a for a in roots if same_number(a, alpha)]
        reals = own + [a for a in roots if a not in own] if p.discriminant() > 0 else own
        assert all(_encloses(root, iv, 128) for root, iv in zip(reals, column))


@settings(max_examples=80, deadline=None)
@given(b=st.integers(-6, 6), c=st.integers(-9, 9), d=st.integers(-9, 9), index=st.integers(0, 2),
       h=st.tuples(st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3)))
@example(b=0, c=-3, d=1, index=1, h=(2, 0, -1))   # a cyclic cubic: beta a conjugate of alpha
@example(b=1, c=-2, d=8, index=0, h=(0, 1, 1))    # Dedekind's cubic, index 2
def test_trace_form_solves_drawn_cubics(b, c, d, index, h):
    """For drawn irreducible cubics f of both signatures, det G = disc(f)
    and adj(G) G = disc(f) I, G the matrix of the traces that char_poly
    gives; and express_in(h(alpha), alpha) returns the integral h exactly.
    beta is the root of char_poly(f, h) that holds h(alpha), evaluated on
    rationals over a cell of alpha."""
    f = MonicIntPoly.cubic(b, c, d)
    assume(f.is_irreducible() and h[1:] != (0, 0))
    adj, det = _gram_adjugate(f)
    sums = _power_sums(f)
    gram = [sums[j:j + 3] for j in range(3)]
    assert det == f.discriminant()
    assert [[sum(x * y for x, y in zip(row, col)) for col in gram] for row in adj] == \
        [[det if i == j else 0 for j in range(3)] for i in range(3)]
    roots = irrational_real_roots(f)
    alpha = roots[index % len(roots)]
    left, right, den = alpha.cell(200)
    x = (Fraction(left, den), Fraction(right, den))
    linear, square = _product_range((h[1],), x), _product_range((h[2],), _product_range(x, x))
    image = (h[0] + linear[0] + square[0], h[0] + linear[1] + square[1])
    (beta,) = [r for r in irrational_real_roots(MonicIntPoly(char_poly(f, h)))
               if r.cmp_rational(image[0]) > 0 and r.cmp_rational(image[1]) < 0]
    assert express_in(beta, alpha).coeffs == tuple(map(Fraction, h))


@given(prec=st.integers(0, 12), h=st.integers(-60, 60),
       shift=st.integers(-2, 2), back=st.integers(-1, 5000))
@example(prec=2, h=-3, shift=0, back=3)     # one point, an integer: [-3, -3]
@example(prec=2, h=2, shift=1, back=0)      # [9/4, 3]: hi on an integer, lo not
@example(prec=3, h=-2, shift=1, back=-1)    # width exactly 1, lo on no integer
@example(prec=6, h=1, shift=1, back=100)    # empty: hi < lo
def test_integer_in_matches_brute_force(prec, h, shift, back):
    """_integer_in on [lo, hi] / 2**prec names the least integer in it, found
    by trying every candidate, or None when there is none.  lo sits near h,
    on negative h too, and falls on it when shift is 0; the width runs from
    exactly 1, which a trace enclosure must stay under, down to empty
    intervals."""
    lo = (h << prec) + shift
    hi = lo + (1 << prec) - 1 - back
    found = [x for x in range((lo >> prec) - 1, (hi >> prec) + 2) if lo <= x << prec <= hi]
    if hi - lo < 1 << prec:
        assert len(found) <= 1
    assert _integer_in(lo, hi, prec) == (found[0] if found else None)


# Dedekind's x^3 + x^2 - 2x + 8 has index 2: (alpha + alpha^2)/2 is an
# algebraic integer outside Z[alpha].  Over 3 alpha, whose minimal
# polynomial is x^3 + 3x^2 - 18x + 216, the index is 54.
DEDEKIND = MonicIntPoly.cubic(1, -2, 8)


@pytest.mark.parametrize("scale", (1, 3))
def test_express_in_recovers_fractional_cubic_coordinates(scale):
    """beta = h0 + h1 alpha + h2 (alpha + alpha^2)/2 over a grid, expressed
    in gamma = scale * alpha: the coordinates come back exactly, with their
    denominators 2 and 18 dividing disc of gamma's minimal polynomial, the
    denominator of adj(G) T / disc(f)."""
    alpha = irrational_real_roots(DEDEKIND)[0]
    gamma = irrational_real_roots(MonicIntPoly.cubic(scale, -2 * scale**2, 8 * scale**3))[0]
    assert gamma.minpoly.discriminant() == scale**6 * DEDEKIND.discriminant()
    count = 0
    for h0 in (-1, 0, 2):
        for h1 in range(-2, 3):
            for h2 in range(-2, 3):
                if h1 == h2 == 0:
                    continue  # a rational beta
                over_alpha = (Fraction(h0), h1 + Fraction(h2, 2), Fraction(h2, 2))
                char = char_poly(DEDEKIND, over_alpha)
                assert all(c.denominator == 1 for c in char)  # beta is integral
                beta = irrational_real_roots(MonicIntPoly(tuple(int(c) for c in char)))[0]
                want = tuple(c / scale**i for i, c in enumerate(over_alpha))
                assert express_in(beta, gamma).coeffs == want
                count += 1
    assert count == 72


def test_independence_certifies_a_half_coordinate():
    """3ntr(-6,12), the mirror image x -> 1 - x of 3ntr(3,3), collides at
    (3, 5) with the coordinate -1/2, where 3ntr(3,3) has (0, 2, 1); decided
    from the spec, as the CLI decides it."""
    rep = independence_report(SetSpec("3ntr", (-6, 12)))
    (col,) = rep.collisions
    assert (col.i, col.j) == (3, 5)
    assert col.certificate.coeffs == (Fraction(0), Fraction(2), Fraction(-1, 2))
    assert rep.pairs_checked == len(rep.kernel_note) == 15  # one kernel for all six


def test_width_test_refuses_an_enclosure_one_wide(monkeypatch):
    """A trace enclosure exactly 1 wide with integer ends holds two
    integers, so it keeps the matching open, rung after rung, until the
    cap."""
    def one_wide(rows, rhs, k, bits):
        return (k + 1) << bits, (k + 2) << bits

    monkeypatch.setattr(fields, "_alpha_matrix", lambda alpha, bits: None)
    monkeypatch.setattr(fields, "_beta_rhs_variants", lambda beta, bits: (None, None))
    monkeypatch.setattr(fields, "_trace", one_wide)
    with pytest.raises(PrecisionExhausted):
        _express_cubic(CBRT4_SHIFTED, CBRT2_SHIFTED, 8, 64)


# SHA-256 of the certificates of the test below, one JSON line each
CERTIFICATES_SHA256 = "8c758341d40433ba89ed2872025710559a73c0c8ac0fc06a71bad7951ea20be4"


def test_cubic_certificates_are_pinned():
    """express_in's certificates stay byte-identical: the three anchors of
    the benchmark's field-accept workload, 1 - alpha and 2 - alpha over every
    element of 3ntr(0,30) and 3tr(0,-32), and every ordered pair of distinct
    roots of the cyclic cubics x^3 - 3x + 1 and x^3 - 7x + 7."""
    def unit_root(*coeffs):
        return AlgebraicNumber.real_root(MonicIntPoly.cubic(*coeffs), 0, 1)

    def roots(*coeffs):
        return irrational_real_roots(MonicIntPoly.cubic(*coeffs))

    pairs = [(unit_root(3, 3, -3), unit_root(3, 3, -1)), (unit_root(0, 6, -2), roots(0, 0, -2)[0]),
             (unit_root(0, -3, 1), roots(0, -3, 1)[0])]
    for spec in (SetSpec("3ntr", (0, 30)), SetSpec("3tr", (0, -32))):
        pairs += [(b, a) for a in build_set(spec).numbers()
                  for b in (a.reflected(), a.negated().plus_int(2))]
    for coeffs in ((0, -3, 1), (0, -7, 7)):
        pairs += [(b, a) for a, b in permutations(roots(*coeffs), 2)]
    certs = [express_in(b, a) for b, a in pairs]
    assert len(certs) == 135 and None not in certs
    text = "\n".join(json.dumps(cert.to_json(), sort_keys=True) for cert in certs)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == CERTIFICATES_SHA256


def _composes_over_q(g: MonicIntPoly, h, f: MonicIntPoly) -> bool:
    """g(h(x)) = 0 mod f by Horner over the rationals, as the slow reference."""
    acc = [Fraction(0)] * f.degree
    for coeff in reversed(g.ascending()):
        acc = _mulmod(acc, [Fraction(c) for c in h], f.ascending())
        acc[0] += coeff
    return all(c == 0 for c in acc)


def _certificates():
    """True certificates from express_in: the collision, cyclic conjugates,
    and k - alpha over a few cubic and quadratic elements."""
    pairs = [(CBRT4_SHIFTED, CBRT2_SHIFTED)]
    r1, r2, r3 = irrational_real_roots(MonicIntPoly.cubic(0, -3, 1))
    pairs += [(r2, r1), (r3, r1)]
    for spec in (SetSpec("3ntr", (0, 8)), SetSpec("3tr", (-1, -9)), SetSpec("2r", (9,))):
        for a in build_set(spec).numbers()[::3]:
            pairs += [(a.reflected(), a), (a.negated().plus_int(2), a)]
    return [(b.minpoly, express_in(b, a)) for b, a in pairs]


def test_integer_composition_matches_rational_composition():
    """verify_root_of on integers against Horner over Q, on true
    certificates and on certificates with one coefficient nudged."""
    nudges = (Fraction(1), Fraction(-1, 2), Fraction(1, 3), Fraction(2, 7))
    for g, cert in _certificates():
        f, h = cert.base.minpoly, cert.coeffs
        assert cert.verify_root_of(g) and _composes_over_q(g, h, f)
        for i in range(f.degree):
            for dx in nudges:
                bent = h[:i] + (h[i] + dx,) + h[i + 1:]
                expr = FieldExpression(cert.base, bent)
                assert expr.verify_root_of(g) == _composes_over_q(g, bent, f)


@given(degree=st.sampled_from((2, 3)), f=st.tuples(*[st.integers(-6, 6)] * 3),
       g=st.tuples(*[st.integers(-20, 20)] * 3),
       h=st.tuples(*[st.fractions(-4, 4, max_denominator=9)] * 3),
       coords=st.tuples(*[st.integers(-3, 3)] * 3))
def test_integer_composition_matches_rational_composition_at_random(degree, f, g, h, coords):
    """The same on random quadratic and cubic bases: a random g and rational
    h, and the characteristic polynomial of an integer h, which must pass."""
    base = MonicIntPoly(f[:degree])
    assume(base.is_irreducible())
    alpha = bc_root(*f[:2], 1) if degree == 2 else irrational_real_roots(base)[0]
    g = MonicIntPoly.cubic(*g)
    assert FieldExpression(alpha, h).verify_root_of(g) == _composes_over_q(g, h, base)
    coords = coords[:degree] + (0,) * (3 - degree)
    coeffs = char_poly(base, coords)
    assert all(type(c) is int for c in coeffs)
    char = MonicIntPoly(coeffs)
    assert FieldExpression(alpha, coords).verify_root_of(char)
    assert _composes_over_q(char, coords, base)

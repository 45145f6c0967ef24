"""Unit tests for the four parametric set families."""

import random
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from algseeds.algebraic import AlgebraicNumber, irrational_real_roots, same_number
from algseeds.families import (
    InvalidParams,
    RationalRoot,
    SetInstance,
    SetSpec,
    _elements,
    _integer_roots_by_coeff,
    _unit_interval_root,
    bc_root,
    bc_shift_params,
    build_set,
    classify_exception,
    element,
    half_shift_poly,
    iter_elements,
    quadratic_exception,
    reflect_spec,
)
from algseeds.polynomials import MonicIntPoly, is_perfect_square
from oracles import classify_exception_scan, less_than, reducible_free_coeffs, sign_at

# valid parameter strategies, kept small so instances stay cheap
REAL_QUAD_N = st.one_of(
    st.integers(min_value=1, max_value=14),
    st.integers(min_value=-16, max_value=-3),
)
IMAG_QUAD_N = st.integers(min_value=1, max_value=14)


def ntr_params(m_min=-3, m_max=0):
    return st.tuples(
        st.integers(min_value=m_min, max_value=m_max), st.integers(min_value=1, max_value=14)
    ).filter(lambda mn: mn[0] ** 2 - 3 * mn[1] <= 0 and mn[0] + mn[1] >= 1)


def tr_params(m_min=-3, m_max=0):
    return st.tuples(
        st.integers(min_value=m_min, max_value=m_max), st.integers(min_value=-16, max_value=-3)
    ).filter(lambda mn: mn[1] <= -mn[0] - 3)


def test_invalid_params_rejected():
    for family, params in (
        ("2r", (0,)),
        ("2r", (-1,)),
        ("2r", (-2,)),
        ("2i", (0,)),
        ("3ntr", (2, 1)),   # m^2 - 3n > 0
        ("3ntr", (0, 0)),   # m + n < 1
        ("3tr", (0, -2)),   # n > -m - 3
    ):
        with pytest.raises(InvalidParams):
            SetSpec(family, params)
    with pytest.raises(InvalidParams):
        SetSpec("2q", (1,))
    with pytest.raises(InvalidParams):
        SetSpec("2r", (1, 2))


@pytest.mark.parametrize("family,params", (("2r", (4.0,)), ("2r", ("5",)), ("2i", (None,)),
                                           ("2i", (Fraction(3),)), ("3ntr", (0, 6.0)),
                                           ("3tr", (Fraction(-1), -8))))
def test_non_int_params_are_refused(family, params):
    """Params are checked ints, so defining_poly may build trusted."""
    with pytest.raises(InvalidParams):
        SetSpec(family, params)


def test_defining_poly_refuses_a_non_int_coefficient():
    for coeff in (-2.0, Fraction(-2), "-2"):
        with pytest.raises(TypeError):
            SetSpec("2r", (4,)).defining_poly(coeff)


def test_trusted_defining_poly_matches_the_validated_one():
    """defining_poly builds without __post_init__ (module docstring); for
    every 2r and 2i instance with |n| <= 300 and a few cubic ones, each of
    its polynomials must equal, hash and serialize like the validated
    x^2 + b x + c (b = n for 2r; -1 for odd and 0 for even n for 2i) or
    x^3 + m x^2 + n x + d."""
    cases = ([(SetSpec("2r", (n,)), lambda c, n=n: MonicIntPoly.quadratic(n, c))
              for n in (*range(1, 301), *range(-3, -301, -1))]
             + [(SetSpec("2i", (n,)), lambda c, n=n: MonicIntPoly.quadratic(-1 if n % 2 else 0, c))
                for n in range(1, 301)]
             + [(SetSpec(f, mn), lambda d, mn=mn: MonicIntPoly.cubic(*mn, d))
                for f, mn in (("3ntr", (0, 6)), ("3ntr", (-3, 9)), ("3tr", (-1, -8)))])
    for spec, validated in cases:
        for c in spec.free_coeff_range():
            trusted, twin = spec.defining_poly(c), validated(c)
            assert type(trusted) is MonicIntPoly
            assert trusted == twin and hash(trusted) == hash(twin)
            assert trusted.to_json() == twin.to_json()
            assert all(type(x) is int for x in trusted.coeffs)


@given(n=REAL_QUAD_N)
def test_real_quadratic_cardinality(n):
    spec = SetSpec("2r", (n,))
    inst = build_set(spec)
    expected = n if n >= 1 else -n - 2
    assert spec.cardinality() == expected
    assert len(inst.elements) == expected


@given(n=IMAG_QUAD_N)
def test_imaginary_quadratic_cardinality(n):
    spec = SetSpec("2i", (n,))
    assert spec.cardinality() == n
    assert len(build_set(spec).elements) == n


@given(mn=ntr_params())
def test_cubic_complex_pair_cardinality(mn):
    m, n = mn
    spec = SetSpec("3ntr", (m, n))
    assert spec.cardinality() == m + n
    assert len(build_set(spec).elements) == m + n


@given(mn=tr_params())
def test_cubic_totally_real_cardinality(mn):
    m, n = mn
    spec = SetSpec("3tr", (m, n))
    assert spec.cardinality() == -m - n - 2
    assert len(build_set(spec).elements) == -m - n - 2


def assert_ascending_in_unit_interval(inst):
    """build_set orders by the free coefficient alone (the order theorem in
    the families docstring); check it against the exact order less_than."""
    values = inst.numbers()
    spec = inst.spec
    assert sorted(spec.free_coeffs()) == list(spec.free_coeff_range())
    assert values == [element(spec, c) for c in spec.free_coeffs()]
    for a in values:
        assert a.cmp_rational(Fraction(0)) == 1
        assert a.cmp_rational(Fraction(1)) == -1
        # built trusted after one irreducibility decision (module docstring);
        # the validating constructor must accept it
        assert AlgebraicNumber(a.minpoly, a.interval) == a
    for x, y in zip(values, values[1:]):
        assert less_than(x, y)


def test_imaginary_elements_ascend_and_match_the_validating_constructor():
    """The 2i counterpart of the check above, for n <= 200: build_set lists
    imaginary quadratics in range order, built trusted (families
    docstring).  Each must equal, hash and serialize like the validated
    upper root, and the squared imaginary parts -disc/4 must ascend."""
    for n in range(1, 201):
        spec = SetSpec("2i", (n,))
        inst = build_set(spec)
        assert list(spec.free_coeffs()) == list(spec.free_coeff_range())
        assert len(inst.elements) == len(spec.free_coeffs())
        for c, a in zip(spec.free_coeffs(), inst.elements):
            twin = AlgebraicNumber.complex_root(spec.defining_poly(c), upper=True)
            assert a == twin
            assert hash(a) == hash(twin)
            assert a.to_json() == twin.to_json()
        squares = [-a.minpoly.discriminant() for a in inst.numbers()]
        assert all(0 < x < y for x, y in zip(squares, squares[1:]))


@given(coeffs=st.one_of(st.tuples(st.integers(-30, 30), st.integers(-30, 30)),
                        st.tuples(*[st.integers(-12, 12)] * 3)))
def test_unit_interval_sign_test_matches_sign_at(coeffs):
    """The integer product p(0) p(1) decides like the Fraction sign tests."""
    p = MonicIntPoly(coeffs)
    assume(p.discriminant() != 0)
    rest = p.split_integer_roots()[1] if p.degree == 3 else p
    assume(rest is not None)
    if sign_at(rest, 0) * sign_at(rest, 1) >= 0:
        with pytest.raises(ValueError):
            _unit_interval_root(p)
    else:
        assert _unit_interval_root(p) == AlgebraicNumber.real_root(rest, 0, 1)


@given(n=REAL_QUAD_N)
def test_real_elements_sorted_inside_unit_interval(n):
    assert_ascending_in_unit_interval(build_set(SetSpec("2r", (n,))))


@given(spec=st.one_of(tr_params(-6, 4).map(lambda mn: SetSpec("3tr", mn)),
                      ntr_params(-6, 4).map(lambda mn: SetSpec("3ntr", mn))))
@example(spec=SetSpec("3tr", (0, -6)))      # reducible layers: quadratic_exception
@example(spec=SetSpec("3tr", (-2, -13)))
@example(spec=SetSpec("3ntr", (-6, 12)))
@example(spec=SetSpec("3tr", (4, -20)))
def test_totally_real_cubic_elements_sorted_inside_unit_interval(spec):
    """Both cubic families, named for the first one it covered."""
    inst = build_set(spec)
    assert_ascending_in_unit_interval(inst)
    m, n = spec.params
    if spec.family == "3tr" and m in (0, -1, -2, -3):
        exc = quadratic_exception(m, n)
        quadratic = [a for a in inst.elements if a.minpoly.degree == 2]
        assert quadratic == ([] if exc is None else [exc.element])


def _cubic_ranges(m, n):
    """The nonempty 3tr-shaped and 3ntr-shaped ranges of d for (m, n), valid
    specs or not.  p(0) p(1) < 0 holds on both: d >= 1 and p(1) <= -1 on the
    first, d <= -1 and p(1) >= 1 on the second."""
    return [rng for rng in (range(1, -m - n - 1), range(-(m + n), 0)) if rng]


def test_integer_root_walk_matches_a_brute_force_scan():
    """The walk over Fujiwara's bound (families docstring) finds the same
    (d, r) pairs as a scan of every r with |r| <= max |d|: an integer root
    of a cubic with d != 0 divides d."""
    for m in range(-20, 21):
        for n in range(-200, 201):
            for rng in _cubic_ranges(m, n):
                top = max(abs(rng[0]), abs(rng[-1]))
                brute = [(d, r) for r in range(-top, top + 1)
                         if (d := -r * (r * (r + m) + n)) in rng]
                assert sorted(_integer_roots_by_coeff(m, n, rng).items()) == sorted(brute)


def _valid_cubic_specs():
    """Every valid 3ntr and 3tr spec with m in -6..3 and |n| <= 120."""
    specs = []
    for m in range(-6, 4):
        for n in range(-120, 121):
            for family in ("3ntr", "3tr"):
                try:
                    specs.append(SetSpec(family, (m, n)))
                except InvalidParams:
                    pass
    return specs


def assert_built_like_the_per_element_builder(spec):
    """build_set stores each element inline (families docstring); every
    number and minimal polynomial must equal, hash, serialize and hold the
    same attributes, in the same order, as element(spec, c) builds them."""
    inst = build_set(spec)
    reference = tuple(element(spec, c) for c in spec.free_coeffs())
    assert inst.elements == reference
    for a, twin in zip(inst.elements, reference):
        for x, y in ((a, twin), (a.minpoly, twin.minpoly)):
            assert type(x) is type(y)
            assert x == y and hash(x) == hash(y) and x.to_json() == y.to_json()
            assert list(vars(x).items()) == list(vars(y).items())


def test_cubic_build_set_matches_the_per_element_builder():
    """build_set builds a cubic instance from one walk over its integer
    roots; the reference builds each element after its own divisor scan."""
    specs = _valid_cubic_specs()
    assert len(specs) == 2362
    for spec in specs:
        assert_built_like_the_per_element_builder(spec)


def test_quadratic_build_set_matches_the_per_element_builder():
    """The same for every 2r and 2i instance with |n| <= 300; the reference
    builds each element through _unit_interval_root or _upper_root."""
    for n in (*range(1, 301), *range(-3, -301, -1)):
        assert_built_like_the_per_element_builder(SetSpec("2r", (n,)))
    for n in range(1, 301):
        assert_built_like_the_per_element_builder(SetSpec("2i", (n,)))


@pytest.mark.parametrize("spec", [SetSpec("2r", (9,)), SetSpec("2r", (-9,)), SetSpec("2i", (8,)),
                                  SetSpec("2i", (9,)), SetSpec("3ntr", (-3, 9)),
                                  SetSpec("3tr", (0, -9)), SetSpec("3tr", (-2, -9))])
def test_trusted_numbers_keep_the_dataclass_field_order(spec):
    """Every trusted builder writes a number's fields into its __dict__ in
    field order, as the validated constructor stores them: the loop of
    build_set, whose elements are the numbers themselves, _narrowed itself,
    and the images that reflected and plus_int build through _narrowed, with
    their cell memo after the fields."""
    for c, a in zip(spec.free_coeffs(), build_set(spec).elements):
        assert type(a) is AlgebraicNumber
        memo = []
        if a.is_real:
            a.cell(40)
            memo = ["_cell"]
        for x, tail in ((element(spec, c), []), (a, memo), (a.reflected(), memo),
                        (a.plus_int(3), memo), (a.plus_int(-2), memo)):
            validated = AlgebraicNumber(x.minpoly, x.interval, x.half_plane)
            assert list(vars(x).items())[:3] == list(vars(validated).items())
            assert list(vars(x))[3:] == tail


@given(spec=st.one_of(REAL_QUAD_N.map(lambda n: SetSpec("2r", (n,))),
                      ntr_params(-6, 4).map(lambda mn: SetSpec("3ntr", mn)),
                      tr_params(-6, 4).map(lambda mn: SetSpec("3tr", mn))),
       ends=st.tuples(st.integers(-45, 45), st.integers(-45, 45)))
@example(spec=SetSpec("2r", (5,)), ends=(-5, 0))     # p(0) = 0 at k = 0
@example(spec=SetSpec("2r", (5,)), ends=(-6, -1))    # p(1) = 0 at k = -6
@example(spec=SetSpec("2r", (-5,)), ends=(4, 1))     # p(1) = 0 at k = 4, reversed
@example(spec=SetSpec("3tr", (0, -6)), ends=(1, 6))  # p(1) = 0 at k = 5
@example(spec=SetSpec("3tr", (0, -6)), ends=(1, 4))  # d = 4 has the root r = 2
@example(spec=SetSpec("3ntr", (-3, 9)), ends=(-7, -1))  # p(1) = 0 at k = -7
def test_range_end_sign_test_matches_a_brute_force(spec, ends):
    """_elements decides p(0) p(1) < 0 for a whole range from its two ends
    (families docstring).  On a range where it holds at every k it builds
    what the per-element builder builds; on any other, k or s + k reaching
    or crossing 0 included, it raises ValueError before the first element."""
    first, last = ends
    coeffs = range(first, last + 1) if first <= last else range(first, last - 1, -1)
    s = 1 + sum(spec.params)
    stream = _elements(spec, coeffs)
    if all(k * (s + k) < 0 for k in coeffs):
        assert tuple(stream) == tuple(_unit_interval_root(spec.defining_poly(k))
                                      for k in coeffs)
    else:
        with pytest.raises(ValueError):
            next(stream)


def test_walk_marks_the_reducible_coeffs_and_the_quadratic_exception():
    """The marked d are reducible_free_coeffs(m, n) for 3tr, none for 3ntr
    (families docstring), and for m in {0, -1, -2, -3} the d of
    quadratic_exception(m, n) with r = n_exc - m, or none on a boundary."""
    for spec in _valid_cubic_specs():
        m, n = spec.params
        marked = _integer_roots_by_coeff(m, n, spec.free_coeff_range())
        if spec.family == "3ntr":
            assert marked == {}
            continue
        assert sorted(marked) == reducible_free_coeffs(m, n)
        if m in (0, -1, -2, -3):
            exc = quadratic_exception(m, n)
            assert marked == ({} if exc is None else {exc.d: exc.n - m})


def test_known_instance_values():
    inst = build_set(SetSpec("2r", (4,)))
    assert [a.decimal(5) for a in inst.elements] == [
        "0.23607", "0.44949", "0.64575", "0.82843",
    ]
    assert list(inst.spec.free_coeffs()) == [-1, -2, -3, -4]
    assert [a.minpoly.coeffs[1] for a in inst.elements] == [-1, -2, -3, -4]

    golden = build_set(SetSpec("2r", (1,)))
    assert len(golden.elements) == 1
    assert golden.elements[0].minpoly == MonicIntPoly.quadratic(1, -1)
    assert golden.elements[0].decimal(5) == "0.61803"


def test_imaginary_instance_structure():
    inst = build_set(SetSpec("2i", (3,)))
    assert list(inst.spec.free_coeffs()) == [2, 3, 4]
    assert [a.minpoly.coeffs[1] for a in inst.elements] == [2, 3, 4]
    for a in inst.elements:
        assert not a.is_real
        assert a.half_plane == 1
        assert a.minpoly.coeffs[0] == -1  # odd n: x^2 - x + c
        assert a.minpoly.discriminant() < 0

    even = build_set(SetSpec("2i", (4,)))
    assert list(even.spec.free_coeffs()) == [5, 6, 7, 8]
    assert [a.minpoly.coeffs[1] for a in even.elements] == [5, 6, 7, 8]
    for a in even.elements:
        assert a.minpoly.coeffs[0] == 0  # even n: x^2 + c


@given(spec=st.one_of(REAL_QUAD_N.map(lambda n: SetSpec("2r", (n,))),
                     IMAG_QUAD_N.map(lambda n: SetSpec("2i", (n,))),
                     ntr_params().map(lambda mn: SetSpec("3ntr", mn)),
                     tr_params().map(lambda mn: SetSpec("3tr", mn))))
def test_iter_elements_streams_build_set(spec):
    stream = iter_elements(spec)
    assert not isinstance(stream, (list, tuple))
    assert tuple(stream) == build_set(spec).elements


def test_set_instance_is_checked_once_when_it_is_built(monkeypatch):
    """A SetInstance lists its spec's elements in build_set order (module
    docstring); any other list is refused when the instance is built:
    shuffled, shortened or reversed, under another spec, with a conjugate
    in place of an element, with a neighbour's number in place of the first
    element, or empty.  build_set builds trusted and runs no check."""
    spec = SetSpec("3tr", (-2, -20))
    elements = build_set(spec).elements
    assert any(a.minpoly.degree == 2 for a in elements)
    assert SetInstance(spec, elements) == build_set(spec)
    order = list(range(len(elements)))
    random.Random(7).shuffle(order)
    assert order != sorted(order)
    first = elements[0]
    conjugate = next(r for r in irrational_real_roots(first.minpoly)
                     if not same_number(r, first))
    k = spec.free_coeffs()[0]
    assert element(spec, k) == first
    imaginary = build_set(SetSpec("2i", (9,))).elements
    for other, listed in ((spec, tuple(elements[i] for i in order)),
                          (spec, elements[1:]),
                          (spec, elements[::-1]),
                          (SetSpec("2i", (9,)), imaginary[::-1]),
                          (SetSpec("3tr", (-2, -21)), elements),
                          # 2r(5) and 2r(-7) both have five elements
                          (SetSpec("2r", (-7,)), build_set(SetSpec("2r", (5,))).elements),
                          (spec, (conjugate, *elements[1:])),
                          (spec, (element(spec, k + 1), *elements[1:])),
                          (spec, ())):
        with pytest.raises(ValueError):
            SetInstance(other, listed)

    def refuse(self):
        raise AssertionError("build_set ran the check")
    monkeypatch.setattr(SetInstance, "__post_init__", refuse)
    with pytest.raises(AssertionError):
        SetInstance(spec, elements)
    for s in (spec, SetSpec("2i", (9,)), SetSpec("2r", (-7,)), SetSpec("3ntr", (3, 3))):
        assert build_set(s).elements == tuple(iter_elements(s))


@given(n=st.integers(min_value=1, max_value=30))
def test_imaginary_free_coeff_window(n):
    spec = SetSpec("2i", (n,))
    rng = spec.free_coeff_range()
    if n % 2:
        assert rng.start == ((n - 1) // 2) ** 2 + 1
        assert rng.stop == ((n + 1) // 2) ** 2 + 1
    else:
        assert rng.start == (n // 2) ** 2 + 1
        assert rng.stop == (n // 2 + 1) ** 2
    assert len(rng) == n


def test_all_real_family_minpolys_irreducible():
    for spec in (
        SetSpec("2r", (5,)),
        SetSpec("2r", (-6,)),
        SetSpec("3ntr", (0, 6)),
        SetSpec("3ntr", (-2, 7)),
    ):
        for a in build_set(spec).elements:
            assert a.minpoly.is_irreducible()


def test_reflect_spec_anchors():
    assert reflect_spec(SetSpec("2r", (1,))) == SetSpec("2r", (-3,))
    assert reflect_spec(SetSpec("2r", (-3,))) == SetSpec("2r", (1,))
    assert reflect_spec(SetSpec("2i", (3,))) is None
    assert reflect_spec(SetSpec("3ntr", (0, 6))) == SetSpec("3ntr", (-3, 9))
    assert reflect_spec(SetSpec("3tr", (0, -6))) == SetSpec("3tr", (-3, -3))


@given(
    spec=st.one_of(
        REAL_QUAD_N.map(lambda n: SetSpec("2r", (n,))),
        ntr_params().map(lambda mn: SetSpec("3ntr", mn)),
        tr_params().map(lambda mn: SetSpec("3tr", mn)),
    )
)
def test_reflection_is_an_involution_and_a_bijection(spec):
    partner = reflect_spec(spec)
    assert partner is not None
    assert reflect_spec(partner) == spec
    assert partner.cardinality() == spec.cardinality()

    mirror = build_set(partner)
    for a in build_set(spec).elements:
        image = a.reflected()
        hits = [m for m in mirror.numbers() if same_number(m, image)]
        assert len(hits) == 1, f"1 - alpha missing for {a}"


def test_bc_root_real_and_complex():
    plus = bc_root(2, -1, 1)  # -1 + sqrt(2)
    assert plus.decimal(5) == "0.41421"
    minus = bc_root(2, -1, -1)
    assert minus.decimal(5) == "-2.41421"

    upper = bc_root(0, 1, 1)
    assert not upper.is_real and upper.half_plane == 1
    lower = bc_root(0, 1, -1)
    assert lower.half_plane == -1

    with pytest.raises(RationalRoot):
        bc_root(-3, 2, 1)  # (x-1)(x-2)


def test_bc_root_matches_the_validating_constructor():
    """bc_root reads its interval off irrational_real_roots; the slow path
    builds it from the closed form through the validating constructor."""
    for b in range(-40, 41):
        for c in range(-40, 41):
            disc = b * b - 4 * c
            p = MonicIntPoly.quadratic(b, c)
            for sign in (1, -1):
                if disc >= 0 and is_perfect_square(disc):
                    with pytest.raises(RationalRoot):
                        bc_root(b, c, sign)
                    continue
                if disc < 0:
                    slow = AlgebraicNumber.complex_root(p, upper=sign > 0)
                else:
                    s = isqrt(disc)
                    lo = Fraction(-b + s, 2) if sign > 0 else Fraction(-b - s - 1, 2)
                    slow = AlgebraicNumber.real_root(p, lo, lo + Fraction(1, 2))
                fast = bc_root(b, c, sign)
                assert fast == slow and hash(fast) == hash(slow)
                assert fast.to_json() == slow.to_json()


@given(
    b=st.integers(min_value=-12, max_value=12),
    c=st.integers(min_value=-12, max_value=12),
    n=st.integers(min_value=-6, max_value=6),
)
def test_bc_shift_matches_polynomial_transport(b, c, n):
    b2, c2 = bc_shift_params(b, c, n)
    p = MonicIntPoly.quadratic(b, c)
    assert p.map_root(1, n) == MonicIntPoly.quadratic(b2, c2)


def test_affine_image():
    sqrt2 = bc_root(0, -2, 1)
    img = sqrt2.negated().plus_int(2)
    assert img.decimal(5) == "0.58579"
    assert img.minpoly == sqrt2.minpoly.map_root(-1, 2)
    with pytest.raises(ValueError):
        sqrt2.minpoly.map_root(2, 0)


def test_half_shift_poly():
    spec = SetSpec("2r", (4,))
    assert half_shift_poly(spec, -1) == MonicIntPoly.quadratic(0, -5)
    with pytest.raises(InvalidParams):
        half_shift_poly(SetSpec("2r", (3,)), -1)


def test_exception_classification_anchors():
    exc = quadratic_exception(0, -6)
    assert exc is not None
    assert exc.d == 4
    assert exc.minpoly == MonicIntPoly.quadratic(2, -2)
    assert exc.element.decimal(5) == "0.73205"

    assert quadratic_exception(0, -7) is None

    exc8 = quadratic_exception(0, -8)
    assert exc8 is not None
    assert exc8.d == 3
    assert exc8.minpoly == MonicIntPoly.quadratic(-3, 1)
    assert exc8.element.decimal(5) == "0.38197"


def test_exception_invalid_inputs():
    with pytest.raises(InvalidParams):
        classify_exception(1, -5)
    with pytest.raises(InvalidParams):
        classify_exception(0, -2)


def test_classification_matches_the_scan_over_every_index():
    """The two candidates of classify_exception (its docstring) against the
    scan over every n, for b in {0,-1,-2,-3} and c from -b - 3 down to
    -5,000: the scan finds one case, and it is the one returned."""
    for b in (0, -1, -2, -3):
        for c in range(-b - 3, -5001, -1):
            assert classify_exception_scan(b, c) == [classify_exception(b, c)], (b, c)


@given(
    b=st.integers(min_value=-3, max_value=0),
    c=st.integers(min_value=-40, max_value=-10),
)
def test_exception_matches_brute_force_reducibility(b, c):
    if c > -b - 3:
        return
    exc = quadratic_exception(b, c)
    brute = reducible_free_coeffs(b, c)
    if exc is None:
        assert brute == []
    else:
        assert brute == [exc.d]
        cubic = MonicIntPoly.cubic(b, c, exc.d)
        root = exc.n - b
        assert cubic.deflate(root) == exc.minpoly


def test_exception_element_appears_in_instance():
    spec = SetSpec("3tr", (0, -6))
    inst = build_set(spec)
    exc = quadratic_exception(0, -6)
    hit = [a for d, a in zip(spec.free_coeffs(), inst.elements) if d == exc.d]
    assert len(hit) == 1
    assert hit[0].minpoly == exc.minpoly
    assert same_number(hit[0], exc.element)


def test_instance_json_shape():
    js = build_set(SetSpec("2r", (1,))).to_json()
    assert js["spec"] == {"family": "2r", "params": [1]}
    assert js["cardinality"] == 1
    (elem,) = js["elements"]
    assert elem["free_coeff"] == -1
    assert elem["minpoly"] == [1, -1]
    assert "interval" in elem

    imag = build_set(SetSpec("2i", (1,))).to_json()
    assert imag["elements"][0]["half_plane"] == "upper"

"""Unit tests for the four parametric set families."""

from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from algseeds.algebraic import same_number
from algseeds.families import (
    InvalidParams,
    RationalRoot,
    SetSpec,
    affine_image,
    bc_root,
    bc_shift_params,
    build_set,
    classify_exception,
    half_shift_poly,
    quadratic_exception,
    reducible_free_coeffs,
    reflect_set,
    reflect_spec,
)
from algseeds.polynomials import MonicIntPoly

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
    assert len(build_set(spec).elements) == n


@given(mn=ntr_params())
def test_cubic_complex_pair_cardinality(mn):
    m, n = mn
    spec = SetSpec("3ntr", (m, n))
    assert len(build_set(spec).elements) == m + n


@given(mn=tr_params())
def test_cubic_totally_real_cardinality(mn):
    m, n = mn
    spec = SetSpec("3tr", (m, n))
    assert len(build_set(spec).elements) == -m - n - 2


def assert_ascending_in_unit_interval(inst):
    """build_set orders by the free coefficient alone (the order theorem in
    the families docstring); check it against the exact order less_than."""
    values = inst.numbers()
    assert sorted(e.free_coeff for e in inst.elements) == list(inst.spec.free_coeff_range())
    for a in values:
        assert a.cmp_rational(Fraction(0)) == 1
        assert a.cmp_rational(Fraction(1)) == -1
    for x, y in zip(values, values[1:]):
        assert x.less_than(y)


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
        quadratic = [e.number for e in inst.elements if e.number.minpoly.degree == 2]
        assert quadratic == ([] if exc is None else [exc.element])


def test_known_instance_values():
    inst = build_set(SetSpec("2r", (4,)))
    assert [e.number.decimal(5) for e in inst.elements] == [
        "0.23607", "0.44949", "0.64575", "0.82843",
    ]
    assert [e.free_coeff for e in inst.elements] == [-1, -2, -3, -4]

    golden = build_set(SetSpec("2r", (1,)))
    assert len(golden.elements) == 1
    assert golden.elements[0].number.minpoly == MonicIntPoly.quadratic(1, -1)
    assert golden.elements[0].number.decimal(5) == "0.61803"


def test_imaginary_instance_structure():
    inst = build_set(SetSpec("2i", (3,)))
    assert [e.free_coeff for e in inst.elements] == [2, 3, 4]
    for e in inst.elements:
        assert not e.number.is_real
        assert e.number.half_plane == 1
        assert e.number.minpoly.coeffs[0] == -1  # odd n: x^2 - x + c
        assert e.number.minpoly.discriminant() < 0

    even = build_set(SetSpec("2i", (4,)))
    assert [e.free_coeff for e in even.elements] == [5, 6, 7, 8]
    for e in even.elements:
        assert e.number.minpoly.coeffs[0] == 0  # even n: x^2 + c


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
        for e in build_set(spec).elements:
            assert e.number.minpoly.is_irreducible()


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

    result = reflect_set(spec)
    mirror = build_set(partner)
    for element, image in result.pairs:
        hits = [m for m in mirror.numbers() if same_number(m, image)]
        assert len(hits) == 1, f"1 - alpha missing for {element}"


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
    (img,) = affine_image([sqrt2], -1, 2)
    assert img.decimal(5) == "0.58579"
    with pytest.raises(ValueError):
        affine_image([sqrt2], 2, 0)


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
    inst = build_set(SetSpec("3tr", (0, -6)))
    exc = quadratic_exception(0, -6)
    hit = [e for e in inst.elements if e.free_coeff == exc.d]
    assert len(hit) == 1
    assert hit[0].number.minpoly == exc.minpoly
    assert same_number(hit[0].number, exc.element)


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

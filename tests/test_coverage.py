"""Unit tests for tiling classification, common indices, and generator search."""

from fractions import Fraction

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from algseeds import coverage
from algseeds.algebraic import AlgebraicNumber, horner_in, irrational_real_roots, same_number
from algseeds.cli import main
from algseeds.coverage import (
    EXCLUDED_INDICES,
    GOLDEN_PLUS,
    GOLDEN_REFL,
    InvalidTarget,
    NotQuadratic,
    TileIndex,
    WrongSignature,
    _imaginary_tile_coords,
    _imaginary_tile_hit,
    _real_member_check,
    _real_tile,
    _real_tile_hit,
    _zero_trace_shell,
    common_index_witnesses,
    find_common_index,
    find_generator,
    quad_layer_report,
    tile_locate,
    trace_obstruction_demo,
    verify_tiling,
)
from algseeds.families import (InvalidParams, SetSpec, bc_root, bc_shift_params, build_set,
                               quadratic_exception)
from algseeds.polynomials import MonicIntPoly, is_perfect_square
from oracles import find_generator_brute, imaginary_scan, real_membership_scan, sqrt_of

SQRT2 = sqrt_of(2)


def test_tile_of_sqrt2():
    assert tile_locate(SQRT2) == TileIndex(1, 1, "S2r")


def test_tile_of_one_minus_sqrt2():
    a = SQRT2.reflected()  # 1 - sqrt(2) = -0.41421
    assert tile_locate(a) == TileIndex(-1, 0, "S2r")


def test_tile_of_negated_element_mirrors():
    # sqrt(2) in S + 1 forces -sqrt(2) in -S - 1
    assert tile_locate(SQRT2.negated()) == TileIndex(-1, -1, "S2r")


def test_imaginary_tiles():
    upper = bc_root(2, 5, 1)   # -1 + 2i
    lower = bc_root(2, 5, -1)  # -1 - 2i
    assert tile_locate(upper) == TileIndex(1, -1, "S2i-hat")
    assert tile_locate(lower) == TileIndex(-1, -1, "S2i-hat")

    odd = bc_root(1, 1, 1)     # (-1 + sqrt(-3))/2
    assert tile_locate(odd) == TileIndex(1, -1, "S2i-hat")


def test_tile_locate_rejects_cubics():
    theta = irrational_real_roots(MonicIntPoly.cubic(0, 0, -2))[0]
    with pytest.raises(NotQuadratic):
        tile_locate(theta)


REAL_B = st.integers(min_value=-20, max_value=20)
REAL_C = st.integers(min_value=-20, max_value=20)


@given(b=REAL_B, c=REAL_C, sign=st.sampled_from((1, -1)))
def test_real_tile_puts_fractional_part_in_unit_interval(b, c, sign):
    p = MonicIntPoly.quadratic(b, c)
    disc = p.discriminant()
    if disc <= 0 or is_perfect_square(disc):
        return
    a = bc_root(b, c, sign)
    tile = tile_locate(a)
    assert tile.eps in (1, -1)
    v = a.plus_int(-tile.n) if tile.eps == 1 else a.negated().plus_int(tile.n)
    assert v.cmp_rational(Fraction(0)) == 1
    assert v.cmp_rational(Fraction(1)) == -1


def test_real_floor_and_fractional_part():
    """The isqrt floor of _real_tile is the tile's n for eps = +1 and n - 1
    for eps = -1: sqrt(2) = (0,-2)_+ has floor 1 and fractional part
    sqrt(2) - 1, -sqrt(2) = (0,-2)_- has floor -2 and fractional part
    2 - sqrt(2), whose reflection sqrt(2) - 1 is the set element."""
    tile, elem = _real_tile(0, -2, 1)
    assert tile == TileIndex(1, 1, "S2r") == tile_locate(SQRT2)
    frac = SQRT2.plus_int(-1)
    assert frac.decimal(5) == "0.41421"
    assert frac.minpoly.coeffs == elem == (2, -1)

    neg = SQRT2.negated()
    tile, elem = _real_tile(0, -2, -1)
    assert tile == TileIndex(-1, -1, "S2r") == tile_locate(neg)
    assert neg.plus_int(2).decimal(5) == "0.58579"
    assert elem == (2, -1)


BIG = st.integers(min_value=-10**12, max_value=10**12)


@given(b=BIG, c=BIG, sign=st.sampled_from((1, -1)))
def test_real_floor_is_the_integer_below(b, c, sign):
    """The isqrt floor k read off _real_tile has k < a < k + 1, decided by
    cmp_rational on the root bc_root builds, far past the audit's bounds."""
    disc = b * b - 4 * c
    assume(disc > 0 and not is_perfect_square(disc))
    tile, _ = _real_tile(b, c, sign)
    k = tile.n if tile.eps == 1 else tile.n - 1
    a = bc_root(b, c, sign)
    assert a.cmp_rational(k) > 0 > a.cmp_rational(k + 1)


def _number_floor(a: AlgebraicNumber) -> int:
    k = 0
    while a.cmp_rational(k) < 0:
        k -= 1
    while a.cmp_rational(k + 1) > 0:
        k += 1
    return k


def _number_tile(b, c, sign):
    """Tile, element polynomial and member flag of (b,c)_sign on numbers:
    its root, a floor by comparison with integers, the fractional part or
    its reflection, and an exact compare with the elements of the built
    2r instance."""
    a = bc_root(b, c, sign)
    k = _number_floor(a)
    frac = a.minpoly.map_root(1, -k)
    if frac.coeffs[0] >= 1:
        tile, elem, v = TileIndex(1, k, "S2r"), frac, a.plus_int(-k)
    else:
        tile, elem, v = TileIndex(-1, k + 1, "S2r"), frac.reflected(), a.negated().plus_int(k + 1)
    inst = build_set(SetSpec("2r", (elem.coeffs[0],)))
    member = any(e.minpoly == elem and same_number(e, v) for e in inst.elements)
    return a, tile, elem, member


def _number_scan(a, bound):
    """Every (eps, n) with |n| <= bound + 1 whose shifted polynomial has a
    set element among its roots and whose unit-interval root is eps(a - n),
    decided by refining a."""
    hits = []
    for eps in (1, -1):
        for n in range(-bound - 1, bound + 2):
            b2, c2 = a.minpoly.map_root(eps, -eps * n).coeffs
            if c2 < 0 < 1 + b2 + c2 and b2 >= 1 and horner_in(a, (-eps * n, eps), (0, 1, 1), 32):
                hits.append(TileIndex(eps, n, "S2r"))
    return hits


def test_real_audit_matches_the_number_path():
    """The integer audit of verify_tiling (isqrt floor, trace
    classification, rank rule; coverage docstring) against the number path
    it replaced, for every (b, c, sign) of every bound 1..12: the same tile,
    element polynomial, member flag and brute-scan hits."""
    top = 12
    for b in range(-top, top + 1):
        for c in range(-top, top + 1):
            disc = b * b - 4 * c
            if disc <= 0 or is_perfect_square(disc):
                continue
            for sign in (1, -1):
                a, tile, elem, member = _number_tile(b, c, sign)
                got_tile, got_elem = _real_tile(b, c, sign)
                assert (got_tile, got_elem) == (tile, elem.coeffs), (b, c, sign)
                assert _real_member_check(got_tile, got_elem, sign) == member, (b, c, sign)
                for bound in range(max(abs(b), abs(c), 1), top + 1):
                    assert real_membership_scan(b, c, sign, bound) == _number_scan(a, bound), \
                        (b, c, sign, bound)


def test_real_tiling_exhaustive_small_bound():
    report = verify_tiling(5, "real")
    assert report.ok
    assert report.violations == ()
    assert report.checked > 0
    assert report.domain == "real"


def test_scan_shift_closed_form_matches_map_root():
    """The scan twin of the real tile check reads the minimal polynomial of
    eps*(a - n) off bc_shift_params; over the tiling bound 5 that is what
    map_root builds."""
    bound = 5
    for b in range(-bound, bound + 1):
        for c in range(-bound, bound + 1):
            p = MonicIntPoly.quadratic(b, c)
            for n in range(-bound - 1, bound + 2):
                assert p.map_root(1, -n).coeffs == bc_shift_params(b, c, -n)
                assert p.map_root(-1, n).coeffs == bc_shift_params(-b, c, n)


def _near_tiles(tile: TileIndex) -> list[TileIndex]:
    """The tile, its neighbours n -+ 1 and its mirror -eps: every check
    below must accept the first and reject the others."""
    eps, n, union = tile.eps, tile.n, tile.family_union
    return [tile, TileIndex(eps, n - 1, union), TileIndex(eps, n + 1, union),
            TileIndex(-eps, n, union)]


def test_tile_checks_match_the_scans_at_every_bound():
    """The closed-form tile checks of verify_tiling (crossing lemma and
    parity, coverage docstring) against the scans over every n, per point
    of every bound 1..30: the check of the located tile, of its neighbours
    and, for a real point, of its mirror is the scan's hits == [that
    tile].  The two imaginary domains share their check."""
    top = 30
    for bound in range(1, top + 1):
        for b in range(-bound, bound + 1):
            for c in range(-bound, bound + 1):
                disc = b * b - 4 * c
                for sign in (1, -1):
                    if disc > 0 and not is_perfect_square(disc):
                        tile, _ = _real_tile(b, c, sign)
                        hits = real_membership_scan(b, c, sign, bound)
                        assert _real_tile_hit(b, c, sign, tile, bound), (b, c, sign, bound)
                        for t in _near_tiles(tile):
                            assert _real_tile_hit(b, c, sign, t, bound) == (hits == [t]), \
                                (b, c, sign, bound, t)
                    elif disc < 0:
                        tile = _imaginary_tile_coords(b, c, sign)[0]
                        hits = imaginary_scan(b, c, sign, bound)
                        assert _imaginary_tile_hit(b, c, sign, tile, bound), (b, c, sign, bound)
                        for t in _near_tiles(tile)[:3]:
                            assert _imaginary_tile_hit(b, c, sign, t, bound) == (hits == [t.n]), \
                                (b, c, sign, bound, t)


def _shifted(tile: TileIndex) -> TileIndex:
    return TileIndex(tile.eps, tile.n + 1, tile.family_union)


def test_a_shifted_real_tile_is_reported(monkeypatch, capsys):
    """A locator that is one index off fails every real point: the shifted
    tile is no hit, while its representative is still a set element."""
    located = coverage._real_tile

    def off_by_one(b, c, sign):
        tile, elem = located(b, c, sign)
        return _shifted(tile), elem
    monkeypatch.setattr(coverage, "_real_tile", off_by_one)
    rep = verify_tiling(5, "real")
    assert not rep.ok
    assert len(rep.violations) == rep.checked > 0
    for v in rep.violations:
        assert list(v) == ["b", "c", "sign", "tile", "hit", "member"]
        assert v["hit"] is False and v["member"] is True
        assert v["tile"] == _shifted(located(v["b"], v["c"], v["sign"])[0]).to_json()
    assert main(["tiling", "--bound", "3"]) == 1
    assert '"ok": false' in capsys.readouterr().out


def test_a_shifted_imaginary_tile_is_reported(monkeypatch, capsys):
    """One index off, every hatted point fails its check, and the unhatted
    audit reports every point outside Q(sqrt -1) as uncovered."""
    located = coverage._imaginary_tile_coords

    def off_by_one(b, c, sign):
        tile, b0, c0 = located(b, c, sign)
        return _shifted(tile), b0, c0
    monkeypatch.setattr(coverage, "_imaginary_tile_coords", off_by_one)
    hatted = verify_tiling(5, "imaginary")
    assert not hatted.ok
    assert len(hatted.violations) == hatted.checked > 0
    for v in hatted.violations:
        assert list(v) == ["b", "c", "sign", "tile"]
        assert v["tile"] == _shifted(located(v["b"], v["c"], v["sign"])[0]).to_json()
    unhatted = verify_tiling(5, "imaginary-except-qi")
    assert not unhatted.ok
    assert len(unhatted.violations) == unhatted.checked - unhatted.qi_excluded > 0
    assert all(v["covered"] is False and v["qi"] is False for v in unhatted.violations)
    assert main(["tiling", "--bound", "3", "--domain", "imaginary"]) == 1
    assert '"ok": false' in capsys.readouterr().out


def test_imaginary_tiling_exhaustive_small_bound():
    hatted = verify_tiling(5, "imaginary")
    assert hatted.ok
    assert hatted.qi_excluded == 16

    unhatted = verify_tiling(5, "imaginary-except-qi")
    assert unhatted.ok
    assert unhatted.qi_excluded == 16
    assert unhatted.checked == hatted.checked


def test_verify_tiling_argument_validation():
    with pytest.raises(ValueError):
        verify_tiling(0)
    with pytest.raises(ValueError):
        verify_tiling(3, "diagonal")


def test_tiling_report_json():
    js = verify_tiling(2, "real").to_json()
    assert js["ok"] is True
    assert js["domain"] == "real"
    assert js["violations"] == []


def _brute_least_common_index(targets):
    n = 1
    while True:
        if all(
            any(n * n < m * m * j < (n + 1) * (n + 1) for m in range(1, n + 2))
            for j in targets
        ):
            return n
        n += 1


def test_common_index_anchors():
    assert find_common_index([2, 3]).n == 1
    assert find_common_index([5]).n == 2
    res = find_common_index([2, 5, 6, 7])
    assert res.n == 2
    assert res.certificate == ((2, 2, 8), (5, 1, 5), (6, 1, 6), (7, 1, 7))


@given(
    targets=st.lists(
        st.sampled_from([2, 3, 5, 6, 7, 10, 11, 13, 14, 15]),
        min_size=1, max_size=4, unique=True,
    )
)
def test_common_index_is_minimal(targets):
    res = find_common_index(targets)
    assert res.n == _brute_least_common_index(targets)
    for j, m, c in res.certificate:
        assert c == m * m * j
        assert res.n**2 < c < (res.n + 1) ** 2


def test_common_index_witnesses_are_set_elements():
    res = find_common_index([2, 3])
    witnesses = common_index_witnesses(res)
    inst = build_set(SetSpec("2r", (2,)))
    for w in witnesses:
        assert any(same_number(w, e) for e in inst.elements)
    assert [w.decimal(5) for w in witnesses] == ["0.41421", "0.73205"]

    imag = find_common_index([2, 3], domain="imaginary")
    iw = common_index_witnesses(imag)
    imag_inst = build_set(SetSpec("2i", (2,)))
    for w in iw:
        assert any(
            e.minpoly == w.minpoly and e.half_plane == w.half_plane
            for e in imag_inst.elements
        )


def test_common_index_input_validation():
    for bad in ([], [4], [1], [2, 2], [12]):
        with pytest.raises(InvalidTarget):
            find_common_index(bad)
    with pytest.raises(ValueError):
        find_common_index([2], domain="fancy")


def test_common_index_json_names_the_instance():
    js = find_common_index([5]).to_json()
    assert js["n"] == 2
    assert js["instance"] == {"family": "2r", "params": [4]}


def test_generator_search_pure_cubic():
    res = find_generator(MonicIntPoly.cubic(0, 0, -2), "3ntr")
    assert res.found
    w = res.witness
    assert w.coords == (0, -1, 1)          # theta^2 - theta = 0.32748
    assert w.minpoly == MonicIntPoly.cubic(0, 6, -2)
    assert w.spec == SetSpec("3ntr", (0, 6))
    assert w.free_coeff == -2
    assert w.element.decimal(5) == "0.32748"
    assert w.certificate.verify_root_of(w.minpoly)


def test_generator_search_scans_each_candidate_once(monkeypatch):
    """Irreducibility of a candidate is decided by the one divisor scan of
    families._unit_interval_root.  For x^3 - 2 the first candidate with
    family coefficients is the witness, scanned once.  The target's own
    irreducibility is read off its one irrational_real_roots call, so it is
    scanned once too."""
    scanned = []
    integer_roots = MonicIntPoly.integer_roots

    def recording(p):
        scanned.append(p)
        return integer_roots(p)

    monkeypatch.setattr(MonicIntPoly, "integer_roots", recording)
    target = MonicIntPoly.cubic(0, 0, -2)
    w = find_generator(target, "3ntr").witness
    assert [p for p in scanned if p.degree == 3 and p != target] == [w.minpoly]
    assert scanned.count(target) == 1


@given(shell=st.integers(1, 5), t1=st.integers(-20, 20), t2=st.integers(-20, 20))
@example(shell=2, t1=0, t2=0)     # x^3 - 2: every a2 of a zero-trace (a0, a1)
@example(shell=3, t1=3, t2=0)
@example(shell=4, t1=0, t2=6)     # x^3 - 3x + 1
def test_zero_trace_shell_is_the_cube_walk_filtered(shell, t1, t2):
    """The surface walk yields the points of the cube walk with max |a_i| =
    shell and zero trace 3 a0 + a1 t1 + a2 t2, in the same order."""
    rng = range(-shell, shell + 1)
    cube = [(a0, a1, a2) for a0 in rng for a1 in rng for a2 in rng
            if max(abs(a0), abs(a1), abs(a2)) == shell and 3 * a0 + a1 * t1 + a2 * t2 == 0]
    assert list(_zero_trace_shell(shell, t1, t2)) == cube


@pytest.mark.parametrize("coeffs,family", (((0, 0, -2), "3ntr"), ((0, -3, 1), "3tr"),
                                           ((-12, 12, -12), "3ntr"), ((-1, -2, 1), "3tr")))
def test_generator_search_matches_the_whole_cube_walk(coeffs, family):
    """The zero-trace surface walk finds the first witness, or none, that a
    walk over every point of each shell's cube finds, up to coord_bound 6:
    the two targets of criterion 09 (Tr theta^2 = 0 and 6), a target with
    no witness, and one with both traces nonzero."""
    target = MonicIntPoly.cubic(*coeffs)
    for bound in range(1, 7):
        assert find_generator(target, family, bound) == find_generator_brute(target, family, bound)


@pytest.mark.parametrize("family", ("3ntr", "3tr"))
def test_generator_search_rejects_a_repeated_root(family):
    """x^3 - 3x + 2 = (x - 1)^2 (x + 2) has disc 0."""
    target = MonicIntPoly.cubic(0, -3, 2)
    assert target.discriminant() == 0
    with pytest.raises(InvalidTarget):
        find_generator(target, family)


@pytest.mark.parametrize("family", ("3ntr", "3tr"))
@pytest.mark.parametrize("coeffs,disc", (((-1, 1, -1), -16), ((-1, -2, 2), 8)))
def test_generator_search_rejects_a_target_with_one_integer_root(family, coeffs, disc):
    """x^3 - x^2 + x - 1 = (x - 1)(x^2 + 1) keeps no irrational real root,
    and x^3 - x^2 - 2x + 2 = (x - 1)(x^2 - 2) keeps two of degree 2.  The
    irreducibility decision refuses both before the signature is read."""
    target = MonicIntPoly.cubic(*coeffs)
    assert target.discriminant() == disc
    with pytest.raises(InvalidTarget):
        find_generator(target, family)


def test_generator_search_totally_real():
    res = find_generator(MonicIntPoly.cubic(0, -3, 1), "3tr")
    assert res.found
    w = res.witness
    assert w.coords == (2, -1, -1)
    assert w.minpoly == MonicIntPoly.cubic(0, -3, 1)
    assert w.spec == SetSpec("3tr", (0, -3))
    assert w.element.decimal(5) == "0.34730"


def test_generator_search_can_fail_within_bound():
    res = find_generator(MonicIntPoly.cubic(0, -1, -1), "3ntr", coord_bound=1)
    assert not res.found
    assert res.witness is None
    assert res.to_json() == {"found": False, "coord_bound": 1, "witness": None}


def test_generator_search_signature_mismatch():
    with pytest.raises(WrongSignature):
        find_generator(MonicIntPoly.cubic(0, -3, 1), "3ntr")
    with pytest.raises(WrongSignature):
        find_generator(MonicIntPoly.cubic(0, 0, -2), "3tr")


def test_generator_search_rejects_reducible_targets():
    with pytest.raises(InvalidTarget):
        find_generator(MonicIntPoly.cubic(0, -7, 6), "3tr")
    with pytest.raises(ValueError):
        find_generator(MonicIntPoly.cubic(0, 0, -2), "2r")


def test_excluded_index_table():
    assert EXCLUDED_INDICES == {
        0: (-2, -1, 0, 1),
        -1: (-2, -1, 0),
        -2: (-2, -1, 0),
        -3: (-3, -2, -1, 0),
    }
    assert GOLDEN_PLUS == MonicIntPoly.quadratic(1, -1)
    assert GOLDEN_REFL == MonicIntPoly.quadratic(-3, 1)


def test_quad_layer_m0():
    rep = quad_layer_report(0, 20)
    assert rep.ok
    assert not rep.golden_plus_seen       # I_1 is invisible to the m = 0 layer
    assert rep.golden_refl_seen           # x^2 - 3x + 1 shows up at c = -8
    assert 1 not in rep.indices_seen
    assert 2 in rep.indices_seen          # c = -6 lands in I_2
    for n in rep.indices_seen:
        assert n not in EXCLUDED_INDICES[0]


def test_quad_layer_m_minus3():
    rep = quad_layer_report(-3, 20)
    assert rep.ok
    assert not rep.golden_refl_seen       # I_-3 is invisible to the m = -3 layer
    assert rep.golden_plus_seen           # golden element appears at c = -5
    for n in rep.indices_seen:
        assert n not in EXCLUDED_INDICES[-3]


def test_quad_layer_m_minus1_sees_both_goldens():
    rep = quad_layer_report(-1, 20)
    assert rep.ok
    assert rep.golden_plus_seen
    assert rep.golden_refl_seen


def test_quad_layer_reads_what_quadratic_exception_builds():
    """quad_layer_report takes each exception's n and c_q off the rule of
    classify_exception, building no polynomial; for every m and c down to
    -2,000 it lists the (c, n, c_q) of the built quadratic_exception, whose
    minimal polynomial is x^2 + n x + c_q, and sees a golden polynomial
    exactly when one is built."""
    for m in EXCLUDED_INDICES:
        rep = quad_layer_report(m, 2000)
        built = [(c, q) for c in range(-m - 3, -2001, -1)
                 if (q := quadratic_exception(m, c)) is not None]
        assert rep.exceptions == tuple((c, q.n, q.minpoly.coeffs[1]) for c, q in built)
        assert all(q.minpoly.coeffs[0] == q.n for _, q in built)
        assert rep.golden_plus_seen == any(q.minpoly == GOLDEN_PLUS for _, q in built)
        assert rep.golden_refl_seen == any(q.minpoly == GOLDEN_REFL for _, q in built)


def test_quad_layer_reports_an_index_it_must_exclude(monkeypatch, capsys):
    """With index 2 wrongly excluded for m = 0, the exception at c = -6
    (index 2) is reported, and ``algseeds layer`` exits 1."""
    monkeypatch.setitem(EXCLUDED_INDICES, 0, EXCLUDED_INDICES[0] + (2,))
    rep = quad_layer_report(0, 20)
    assert not rep.ok
    assert {"c": -6, "index": 2, "reason": "excluded index"} in rep.violations
    assert main(["layer", "--m", "0", "--bound", "20"]) == 1
    capsys.readouterr()


def test_quad_layer_validation():
    with pytest.raises(InvalidParams):
        quad_layer_report(1, 20)
    with pytest.raises(InvalidParams):
        quad_layer_report(0, 2)


def test_trace_obstruction_small():
    rep = trace_obstruction_demo(c_max=8)
    assert rep.ok
    assert rep.hits == ()
    # instances I_{-1,c} for c = 2..8 carry c - 1 elements each
    assert rep.elements_checked == sum(c - 1 for c in range(2, 9))
    js = rep.to_json()
    assert js["ok"] is True
    assert js["elements_checked"] == rep.elements_checked

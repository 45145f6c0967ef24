"""End-to-end acceptance checks, one test per headline claim.

Every test here audits a library result against an oracle built from a
different mechanism: golden files, integer sign tests, brute-force scans,
divisor enumeration, or a fixed-point doubling map.  Sweep ranges, exact
tolerances and runtime budgets are pinned inside each test.
"""

import json
import random
import time
from fractions import Fraction
from math import isqrt
from pathlib import Path

import pytest

from algseeds.algebraic import same_number
from algseeds.bits import binary_expansion, complement_check
from algseeds.cli import main
from algseeds.coverage import (EXCLUDED_INDICES, common_index_witnesses,
                               find_common_index, find_generator,
                               quad_layer_report, trace_obstruction_demo,
                               verify_tiling)
from algseeds.families import SetSpec, bc_root, build_set, quadratic_exception
from algseeds.fields import independence_report
from algseeds.polynomials import MonicIntPoly
from algseeds.tables import render_table
from algseeds.uniformity import discrepancy, half_split, uniformity_report

GOLDEN_DIR = Path(__file__).parent / "golden"


# ---------------------------------------------------------------------------
# 1. Root tables.


def test_criterion_01_root_tables_match_golden_files():
    t0 = time.perf_counter()
    for k in (1, 2, 3, 4):
        golden = (GOLDEN_DIR / f"table{k}.txt").read_text()
        assert render_table(k) == golden, f"table {k} drifted from golden file"
    assert time.perf_counter() - t0 < 1.0


# ---------------------------------------------------------------------------
# 2. Independence sweeps.


@pytest.mark.slow
def test_criterion_02_independence_sweeps_have_no_collisions():
    t0 = time.perf_counter()
    reports = []
    expected_pairs = 0

    def run(spec):
        nonlocal expected_pairs
        inst = build_set(spec)
        k = spec.cardinality()
        expected_pairs += k * (k - 1) // 2
        reports.append(independence_report(inst))

    for n in list(range(1, 201)) + list(range(-3, -201, -1)):
        run(SetSpec("2r", (n,)))
    for n in range(1, 201):
        run(SetSpec("2i", (n,)))
    # smallest admissible n per m: ceil(m^2/3) and 1-m both binding
    for m, n_min in ((0, 1), (-1, 2), (-2, 3), (-3, 4)):
        for n in range(n_min, 61):
            run(SetSpec("3ntr", (m, n)))
    for m in (0, -1, -2, -3):
        for n in range(-m - 3, -61, -1):
            run(SetSpec("3tr", (m, n)))

    assert all(r.independent for r in reports)
    assert sum(len(r.collisions) for r in reports) == 0
    assert all(r.in_guaranteed_range for r in reports)
    assert sum(r.pairs_checked for r in reports) == expected_pairs
    assert time.perf_counter() - t0 < 600.0


# ---------------------------------------------------------------------------
# 3. The known collision outside the guaranteed range.


def test_criterion_03_known_cubic_collision_is_certified(capsys):
    inst = build_set(SetSpec("3ntr", (3, 3)))
    rep = independence_report(inst)
    assert not rep.independent
    assert len(rep.collisions) == 1
    assert not rep.in_guaranteed_range
    col = rep.collisions[0]
    a = inst.elements[col.i].number
    b = inst.elements[col.j].number
    assert {a.minpoly, b.minpoly} == {MonicIntPoly.cubic(3, 3, -1),
                                      MonicIntPoly.cubic(3, 3, -3)}
    # beta = 2*alpha + alpha^2 exactly, re-verified against beta's minpoly
    assert col.certificate.coeffs == (Fraction(0), Fraction(2), Fraction(1))
    assert col.certificate.verify_root_of(b.minpoly)

    rc = main(["independence", "--family", "3ntr", "--m", "3", "--n", "3"])
    out = json.loads(capsys.readouterr().out)
    assert rc == 1
    assert out["independent"] is False
    assert len(out["collisions"]) == 1


# ---------------------------------------------------------------------------
# 4. Quadratic exception law vs a divisor-enumeration reducibility scan.


def _signed_divisors(d: int) -> list[int]:
    d = abs(d)
    out = []
    i = 1
    while i * i <= d:
        if d % i == 0:
            out.extend((i, -i, d // i, -d // i))
        i += 1
    return out


def test_criterion_04_exception_law_matches_reducibility_scan():
    for b in (0, -1, -2, -3):
        for c in range(-b - 3, -201, -1):
            reducible = []
            roots = {}
            for d in range(1, -b - c - 1):
                p = MonicIntPoly.cubic(b, c, d)
                hits = sorted({r for r in _signed_divisors(d) if p.evaluate(r) == 0})
                if hits:
                    reducible.append(d)
                    roots[d] = hits
            exc = quadratic_exception(b, c)
            if exc is None:
                assert reducible == [], (b, c)
                continue
            assert reducible == [exc.d], (b, c)
            assert len(roots[exc.d]) == 1
            r = roots[exc.d][0]
            n = b + r
            q = c + n * n - b * n
            assert exc.n == n
            assert exc.minpoly == MonicIntPoly.quadratic(n, q)
            assert exc.minpoly.is_irreducible()
            # (x - r)(x^2 + n x + q) multiplied back out, coefficient by coefficient
            assert (n - r, q - r * n, -r * q) == (b, c, exc.d)


# ---------------------------------------------------------------------------
# 5. Gap bounds and half-interval splits.


def _oracle_below_real_quad(n: int) -> int:
    if n >= 1:
        return sum(1 for c in range(-n, 0) if 1 + 2 * n + 4 * c > 0)
    return sum(1 for c in range(1, -n - 1) if 1 + 2 * n + 4 * c < 0)


def _oracle_below_imag_quad(spec: SetSpec) -> int:
    (n,) = spec.params
    below = 0
    for c in spec.free_coeff_range():
        if n % 2:
            k = isqrt(4 * c - 1) // 2
            below += 4 * c - 1 < (2 * k + 1) ** 2
        else:
            below += 4 * c < (2 * isqrt(c) + 1) ** 2
    return below


def _oracle_below_cubic(family: str, m: int, n: int) -> int:
    if family == "3ntr":
        return sum(1 for d in range(-(m + n), 0) if 1 + 2 * m + 4 * n + 8 * d > 0)
    return sum(1 for d in range(1, -m - n - 1) if 1 + 2 * m + 4 * n + 8 * d < 0)


def test_criterion_05_gap_bounds_and_half_splits():
    rep = uniformity_report(build_set(SetSpec("2i", (101,))))
    assert rep.bound_check is not None and rep.bound_check.satisfied
    # max_dev over n den, the gaps over den (uniformity docstring)
    assert Fraction(rep.max_dev[1], rep.n * rep.den) < Fraction(1, 101 * 100)

    rep = uniformity_report(build_set(SetSpec("3tr", (-1, -100))))
    assert rep.bound_check is not None and rep.bound_check.satisfied
    for lo, hi in rep.gaps:
        assert Fraction(1, Fraction(301, 3)) <= Fraction(lo, rep.den) and Fraction(hi, rep.den) < Fraction(1, 99)

    for n in list(range(1, 101)) + list(range(-100, -2)):
        b, a = half_split(build_set(SetSpec("2r", (n,))))
        assert b == _oracle_below_real_quad(n)
        if (b + a) % 2 == 0:
            assert b == a
        else:
            assert b == (a - 1 if n >= 1 else a + 1)

    for n in range(1, 101):
        spec = SetSpec("2i", (n,))
        b, a = half_split(build_set(spec))
        assert b == _oracle_below_imag_quad(spec)
        assert b == a if n % 2 == 0 else b == a - 1

    for m, n_min in ((0, 1), (-1, 2), (-2, 3), (-3, 4)):
        for n in range(n_min, 101):
            b, a = half_split(build_set(SetSpec("3ntr", (m, n))))
            assert b == _oracle_below_cubic("3ntr", m, n)
            if (b + a) % 2 == 0:
                assert b == a
            else:
                assert b == (a - 1 if m in (0, -1) else a + 1)

    for m in (0, -1, -2, -3):
        for n in range(-m - 3, -101, -1):
            b, a = half_split(build_set(SetSpec("3tr", (m, n))))
            assert b == _oracle_below_cubic("3tr", m, n)
            assert abs(b - a) <= 1


# ---------------------------------------------------------------------------
# 6. Extreme discrepancy: closed formula vs brute-force supremum.


def _brute_extreme_discrepancy(xs) -> Fraction:
    """Sup of |count/N - length| over all subintervals of [0,1].  The sup is
    attained with endpoints at the points or at 0/1, with each endpoint either
    included or excluded (the four combinations realize the one-sided limits)."""
    n = len(xs)
    crit = sorted({Fraction(0), Fraction(1), *xs})
    best = Fraction(0)
    for i, a in enumerate(crit):
        for b in crit[i:]:
            for inc_a in (False, True):
                for inc_b in (False, True):
                    cnt = sum(1 for x in xs
                              if (a < x or (inc_a and x == a))
                              and (x < b or (inc_b and x == b)))
                    val = abs(Fraction(cnt, n) - (b - a))
                    if val > best:
                        best = val
    return best


def test_criterion_06_discrepancy_formula_matches_brute_force():
    rng = random.Random(8254)
    done = 0
    while done < 1000:
        pts = sorted({Fraction(rng.randint(1, den - 1), den)
                      for den in [rng.randint(2, 64)
                                  for _ in range(rng.randint(1, 6))]})
        if not pts:
            continue
        lo, hi = discrepancy(pts)
        assert lo == hi == _brute_extreme_discrepancy(pts)
        done += 1

    for n in range(1, 51):
        centers = [Fraction(2 * i - 1, 2 * n) for i in range(1, n + 1)]
        lo, hi = discrepancy(centers)
        assert lo == hi == Fraction(1, n)


# ---------------------------------------------------------------------------
# 7. Translation tilings of the quadratic integers.


def test_criterion_07_quadratic_tilings_cover_exactly():
    t0 = time.perf_counter()
    real = verify_tiling(30, "real")
    assert real.ok and not real.violations

    hatted = verify_tiling(30, "imaginary")
    assert hatted.ok and not hatted.violations

    unhatted = verify_tiling(30, "imaginary-except-qi")
    assert unhatted.ok and not unhatted.violations
    # without the extra half-integer translates exactly the Gaussian
    # rationals drop out, and nothing else does
    assert unhatted.qi_excluded > 0
    assert time.perf_counter() - t0 < 60.0


# ---------------------------------------------------------------------------
# 8. Least common index containing a batch of quadratic fields.


def _brute_least_index(targets) -> int:
    n = 1
    while True:
        if all(any(n * n < m * m * j < (n + 1) * (n + 1)
                   for m in range(1, n + 2)) for j in targets):
            return n
        n += 1


def test_criterion_08_least_common_index_with_certified_witnesses():
    anchors = {(2, 3): 1, (5,): 2, (2, 5, 6, 7): 2}
    for targets, n_expected in anchors.items():
        for domain in ("real", "imaginary"):
            res = find_common_index(targets, domain)
            assert res.n == n_expected
            assert res.n == _brute_least_index(targets)
            witnesses = common_index_witnesses(res)
            inst = build_set(SetSpec("2r" if domain == "real" else "2i",
                                     (2 * res.n,)))
            for (j, m, c), w in zip(res.certificate, witnesses):
                assert c == m * m * j
                assert res.n ** 2 < c < (res.n + 1) ** 2
                assert any(same_number(e.number, w) for e in inst.elements)

    rng = random.Random(31)
    squarefree = [j for j in range(2, 40)
                  if all(j % (p * p) for p in range(2, 7))]
    for _ in range(25):
        targets = tuple(sorted(rng.sample(squarefree, rng.randint(1, 4))))
        assert find_common_index(targets).n == _brute_least_index(targets)


# ---------------------------------------------------------------------------
# 9. Generator search for classical cubic fields, plus the trace obstruction.


def test_criterion_09_seed_sets_reach_classical_cubic_fields():
    res = find_generator(MonicIntPoly.cubic(0, 0, -2), "3ntr")
    assert res.found
    w = res.witness
    assert w.coords == (0, -1, 1)            # theta^2 - theta, theta = 2^(1/3)
    assert w.spec == SetSpec("3ntr", (0, 6))
    assert w.free_coeff == -2
    assert w.minpoly == MonicIntPoly.cubic(0, 6, -2)
    assert w.element.decimal(5) == "0.32748"
    assert w.certificate.verify_root_of(w.minpoly)

    res = find_generator(MonicIntPoly.cubic(0, -3, 1), "3tr")
    assert res.found
    w = res.witness
    assert w.coords == (2, -1, -1)
    assert w.spec == SetSpec("3tr", (0, -3))
    assert w.minpoly == MonicIntPoly.cubic(0, -3, 1)
    assert w.element.decimal(5) == "0.34730"
    assert w.certificate.verify_root_of(w.minpoly)

    obs = trace_obstruction_demo(60)
    assert obs.ok and not obs.hits
    assert obs.elements_checked == sum(c - 1 for c in range(2, 61))


# ---------------------------------------------------------------------------
# 10. Binary expansions vs a fixed-point doubling map.


def test_criterion_10_binary_expansions_match_doubling_map():
    golden = bc_root(1, -1, 1)                # (-1 + sqrt 5)/2
    stream = binary_expansion(golden, 64)

    # 256 fractional bits of the golden element; 64 doublings lose at most
    # 64 bits of accuracy, far from the read position
    x = isqrt(5 << 510) - (1 << 255)
    oracle = []
    for _ in range(64):
        x <<= 1
        bit = x >> 256
        oracle.append(bit)
        x -= bit << 256
    assert list(stream.bits) == oracle
    assert stream.as_text().startswith("10011110")

    pool = []
    for n in range(10, 18):
        pool.extend(build_set(SetSpec("2r", (n,))).numbers())
    pool.extend(build_set(SetSpec("3ntr", (0, 30))).numbers())
    pool.extend(build_set(SetSpec("3tr", (0, -33))).numbers())
    rng = random.Random(64)
    sample = rng.sample(pool, 120)
    for a in sample:
        long = binary_expansion(a, 48)
        assert long.bits[:24] == binary_expansion(a, 24).bits
        mirror = a.negated().plus_int(1)
        assert binary_expansion(mirror, 48).bits == long.complemented()

    assert complement_check(build_set(SetSpec("2r", (12,)))).ok


# ---------------------------------------------------------------------------
# 11. Quadratic layers of the totally real family.


def test_criterion_11_quadratic_layers_exclude_golden_elements():
    reports = {m: quad_layer_report(m, 200) for m in (0, -1, -2, -3)}
    for m, rep in reports.items():
        assert rep.ok and not rep.violations
        assert set(rep.indices_seen).isdisjoint(EXCLUDED_INDICES[m])
        assert rep.exceptions        # the scan is not vacuous
    # x^2 + x - 1 never appears in the m = 0 layer, x^2 - 3x + 1 never in m = -3,
    # while both do appear in layers that allow them
    assert reports[0].golden_plus_seen is False
    assert reports[-3].golden_refl_seen is False
    assert reports[0].golden_refl_seen
    assert reports[-3].golden_plus_seen
    assert reports[-1].golden_plus_seen and reports[-1].golden_refl_seen

"""The one capped refinement ladder: its contract, its cap at every entry
point, and a guard that no other precision loop creeps back in."""

import ast
import sys
from pathlib import Path

import pytest

import algseeds.algebraic
from algseeds.algebraic import (AlgebraicNumber, PrecisionExhausted, irrational_real_roots,
                                refine_until)
from algseeds.bits import binary_expansion
from algseeds.cli import main
from algseeds.coverage import find_generator, verify_tiling
from algseeds.families import SetSpec, build_set
from algseeds.polynomials import MonicIntPoly
from algseeds.tables import TABLES, render_table
from algseeds.uniformity import uniformity_report
from oracles import sqrt_of

SRC = Path(algseeds.algebraic.__file__).parent
SQRT2 = sqrt_of(2)


def recording(answers):
    """decide() that records each precision asked and answers from a dict."""
    asked = []

    def decide(bits):
        asked.append(bits)
        return answers.get(bits)
    return decide, asked


def test_ladder_doubles_up_to_the_cap_and_no_further():
    decide, asked = recording({})
    with pytest.raises(PrecisionExhausted):
        refine_until(decide, 8)
    assert asked == [8 << k for k in range(10)]  # 8 .. 4096 <= 8 + MAX_BITS
    decide, asked = recording({})
    with pytest.raises(PrecisionExhausted):
        refine_until(decide, 10, max_bits=80)
    assert asked == [10, 20, 40, 80]


def test_ladder_returns_first_answer_and_false_counts():
    decide, asked = recording({32: False, 64: True})
    assert refine_until(decide, 8) is False
    assert asked == [8, 16, 32]
    decide, asked = recording({16: 0})
    assert refine_until(decide, 8) == 0
    assert asked == [8, 16]


def test_ladder_tries_a_start_above_max_bits():
    decide, asked = recording({8192: "ok"})
    assert refine_until(decide, 8192) == "ok"
    decide, asked = recording({})
    with pytest.raises(PrecisionExhausted):
        refine_until(decide, 8192)
    assert asked == [8192]


def test_ladder_start_above_explicit_cap_tries_nothing():
    decide, asked = recording({})
    with pytest.raises(PrecisionExhausted):
        refine_until(decide, 64, max_bits=8)
    assert asked == []


def test_exhausted_message_names_the_cap():
    with pytest.raises(PrecisionExhausted, match="4104 bits"):
        refine_until(lambda bits: None, 8)
    with pytest.raises(PrecisionExhausted, match="within 80 bits"):
        refine_until(lambda bits: None, 10, max_bits=80)


# Every public entry point that reaches a ladder with the default cap.
LADDER_ENTRY_POINTS = {
    "AlgebraicNumber.decimal": lambda: SQRT2.decimal(5),
    "irrational_real_roots (totally real)": lambda: irrational_real_roots(MonicIntPoly.cubic(0, -3, 1)),
    "binary_expansion": lambda: binary_expansion(SQRT2.plus_int(-1), 16),
    "uniformity_report 2i(5)": lambda: uniformity_report(build_set(SetSpec("2i", (5,)))),
    "uniformity_report 3tr(-1,-8)": lambda: uniformity_report(build_set(SetSpec("3tr", (-1, -8)))),
    "find_generator": lambda: find_generator(MonicIntPoly.cubic(0, 0, -2), "3ntr"),
    "render_table(1)": lambda: render_table(1),
}


@pytest.mark.parametrize("name", sorted(LADDER_ENTRY_POINTS))
def test_every_ladder_is_capped(monkeypatch, name):
    monkeypatch.setattr(algseeds.algebraic, "MAX_BITS", -1)  # no attempt fits
    with pytest.raises(PrecisionExhausted):
        LADDER_ENTRY_POINTS[name]()


def test_no_ladder_starts_inside_another(monkeypatch, capsys):
    """Every certified decimal runs one ladder whose decide reads cells and
    starts no ladder of its own: refine_until, wrapped with a depth counter
    in every module that binds it, is never entered at depth > 0 while the
    four tables and the values of 2i(61) are rendered."""
    depth, started, nested = [0], [], []

    def counted(decide, bits, max_bits=None):
        (nested if depth[0] else started).append(bits)
        depth[0] += 1
        try:
            return refine_until(decide, bits, max_bits)
        finally:
            depth[0] -= 1
    bound = [m for name, m in sys.modules.items()
             if name.startswith("algseeds") and getattr(m, "refine_until", None) is refine_until]
    assert algseeds.algebraic in bound
    for module in bound:
        monkeypatch.setattr(module, "refine_until", counted)
    for number in sorted(TABLES):
        render_table(number)
    assert main(["gen", "--family", "2i", "--n", "61"]) == 0
    capsys.readouterr()
    assert started and nested == []


def test_verify_tiling_refines_nothing(monkeypatch):
    """verify_tiling decides all three domains on integers (coverage
    docstring), so it reaches no ladder and no cell: with no attempt
    fitting the cap it still returns ok, and no cell is asked for."""
    monkeypatch.setattr(algseeds.algebraic, "MAX_BITS", -1)
    cells = []
    monkeypatch.setattr(AlgebraicNumber, "cell", lambda self, bits: cells.append(bits))
    for domain in ("real", "imaginary", "imaginary-except-qi"):
        assert verify_tiling(11, domain).ok
    assert cells == []


def _is_precision(node) -> bool:
    return isinstance(node, ast.Name) and ("bits" in node.id or node.id in ("work", "prec"))


def _doublings(tree) -> list[int]:
    """Lines outside refine_until that double a precision variable or loop
    forever over one."""
    exempt = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name == "refine_until":
            exempt.update(range(node.lineno, node.end_lineno + 1))
    lines = []
    for node in ast.walk(tree):
        doubles = (isinstance(node, ast.AugAssign) and _is_precision(node.target)
                   and isinstance(node.op, (ast.Mult, ast.LShift)))
        doubles = doubles or (isinstance(node, ast.Assign) and len(node.targets) == 1
                              and _is_precision(node.targets[0])
                              and isinstance(node.value, ast.BinOp)
                              and isinstance(node.value.op, (ast.Mult, ast.LShift))
                              and _is_precision(node.value.left))
        loops = (isinstance(node, ast.While) and isinstance(node.test, ast.Constant)
                 and node.test.value is True
                 and any(_is_precision(n) for stmt in node.body for n in ast.walk(stmt)))
        if (doubles or loops) and node.lineno not in exempt:
            lines.append(node.lineno)
    return sorted(lines)


HAND_WRITTEN_LADDERS = """
def less_than(a, b):
    bits = 8
    while True:
        if decided(a, b, bits):
            return True
        bits *= 2

def complex_pair(root, bits):
    work = bits + 8
    while work <= 4096:
        work = work << 1
"""


def test_guard_catches_hand_written_ladders():
    assert _doublings(ast.parse(HAND_WRITTEN_LADDERS)) == [4, 7, 12]


def test_only_refine_until_doubles_a_precision():
    sources = sorted(SRC.glob("*.py"))
    assert SRC / "algebraic.py" in sources
    found = [f"{path.name}:{line}" for path in sources
             for line in _doublings(ast.parse(path.read_text(encoding="utf-8")))]
    assert found == []

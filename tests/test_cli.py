"""End-to-end tests of the command line front end."""

import argparse
import contextlib
import hashlib
import io
import json
import re
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import algseeds.algebraic
from algseeds.algebraic import AlgebraicNumber, PrecisionExhausted
from algseeds.cli import EXIT_INTERNAL, EXIT_UNDECIDED, _json_text, _value_str, build_parser, main
from algseeds.families import InvalidParams, SetSpec, build_set
from algseeds.fields import independence_report
from algseeds.polynomials import MonicIntPoly

GOLDEN_DIR = Path(__file__).parent / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_json_minimal(capsys):
    code, out, err = run(capsys, "gen", "--family", "2r", "--n", "1")
    assert code == 0
    assert err == ""
    payload = json.loads(out)
    assert payload["spec"] == {"family": "2r", "params": [1]}
    assert payload["cardinality"] == 1
    elem = payload["elements"][0]
    assert elem["minpoly"] == [1, -1]
    assert elem["value"] == "0.61803"
    # rational endpoints travel as [numerator, denominator] strings
    for end in elem["interval"]:
        assert isinstance(end, list) and len(end) == 2
        int(end[0]), int(end[1])


def test_output_is_deterministic(capsys):
    argv = ("gen", "--family", "3tr", "--m", "0", "--n", "-8", "--format", "json")
    _, first, _ = run(capsys, *argv)
    _, second, _ = run(capsys, *argv)
    assert first == second


def test_gen_csv(capsys):
    code, out, _ = run(capsys, "gen", "--family", "2r", "--n", "1", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "family,params,free_coeff,minpoly,value"
    assert lines[1] == "2r,1,-1,x^2+x-1,0.61803"


def test_gen_imaginary_values(capsys):
    code, out, _ = run(capsys, "gen", "--family", "2i", "--n", "1", "--format", "csv")
    assert code == 0
    assert "0.50000 + 0.86603 i" in out


def test_cubic_family_requires_m(capsys):
    code, _, err = run(capsys, "gen", "--family", "3ntr", "--n", "6")
    assert code == 2
    assert "error:" in err


def test_quadratic_family_rejects_m(capsys):
    code, _, err = run(capsys, "gen", "--family", "2r", "--n", "4", "--m", "0")
    assert code == 2
    assert "error:" in err


def test_invalid_instance_parameter(capsys):
    code, _, err = run(capsys, "gen", "--family", "2r", "--n", "0")
    assert code == 2
    assert "error:" in err


def test_uniformity_bound_check(capsys):
    code, out, _ = run(capsys, "uniformity", "--family", "2i", "--n", "5")
    assert code == 0
    payload = json.loads(out)
    assert payload["bound_check"]["satisfied"] is True
    assert payload["half_counts"] == [2, 3]


def test_uniformity_precision_flag_validation(capsys):
    code, _, err = run(capsys, "uniformity", "--family", "2r", "--n", "4",
                       "--precision", "16")
    assert code == 2
    assert "precision" in err


@pytest.mark.parametrize("subcommand", ("gen", "independence", "bits",
                                        "complement-check", "tables", "sweep"))
def test_precision_is_a_uniformity_option(capsys, subcommand):
    """Only uniformity reads --precision, so no other subcommand takes it."""
    args = ["1"] if subcommand == "tables" else (
        [] if subcommand == "sweep" else ["--family", "2r", "--n", "2"])
    with pytest.raises(SystemExit) as exc:
        main([subcommand, *args, "--precision", "64"])
    assert exc.value.code == 2
    assert "--precision" in capsys.readouterr().err


@pytest.mark.parametrize("subcommand", ("gen", "uniformity", "independence",
                                        "bits", "complement-check"))
def test_m_is_required_or_refused_by_family(capsys, subcommand):
    code, out, err = run(capsys, subcommand, "--family", "3tr", "--n", "-8")
    assert (code, out) == (2, "")
    assert err == "error: family 3tr needs --m\n"
    code, out, err = run(capsys, subcommand, "--family", "2r", "--m", "0", "--n", "4")
    assert (code, out) == (2, "")
    assert err == "error: family 2r takes no --m\n"


def test_independence_collision_exit_code(capsys):
    code, out, _ = run(capsys, "independence", "--family", "3ntr",
                       "--m", "3", "--n", "3")
    assert code == 1
    payload = json.loads(out)
    assert payload["independent"] is False
    assert len(payload["collisions"]) == 1


def test_independence_clean_instance(capsys):
    code, out, _ = run(capsys, "independence", "--family", "2r", "--n", "6")
    assert code == 0
    assert json.loads(out)["independent"] is True


# Reports captured before pair decisions were bucketed by discriminant
# kernel; the bucketing must not change a byte of them.
INDEPENDENCE_GOLDEN = (
    ("3ntr", ("--m=3", "--n=3"), "independence_3ntr_3_3.json", 1),
    ("3ntr", ("--m=0", "--n=12"), "independence_3ntr_0_12.json", 0),
    ("3tr", ("--m=-1", "--n=-20"), "independence_3tr_-1_-20.json", 0),
    ("2r", ("--n=60",), "independence_2r_60.json", 0),
    ("2r", ("--n=-40",), "independence_2r_-40.json", 0),
    ("2i", ("--n=50",), "independence_2i_50.json", 0),
)


@pytest.mark.parametrize("family,params,golden,want_code", INDEPENDENCE_GOLDEN)
def test_independence_json_matches_golden_file(capsys, family, params, golden, want_code):
    code, out, err = run(capsys, "independence", "--family", family, *params,
                         "--format", "json")
    assert code == want_code
    assert err == ""
    assert out.encode("utf-8") == (GOLDEN_DIR / golden).read_bytes()


def test_undecided_run_has_its_own_exit_code(capsys, monkeypatch):
    def exhausted(inst):
        raise PrecisionExhausted("no decision within 8 bits")
    monkeypatch.setattr("algseeds.cli.independence_report", exhausted)
    code, out, err = run(capsys, "independence", "--family", "2r", "--n", "4")
    assert code == EXIT_UNDECIDED == 3
    assert out == ""
    assert err == "undecided: no decision within 8 bits\n"


@pytest.mark.parametrize("argv", (
    ("uniformity", "--family", "2i", "--n", "5", "--precision", "8192"),
    ("uniformity", "--family", "3tr", "--m", "-1", "--n", "-8", "--precision", "5000"),
))
def test_precision_above_the_cap_is_still_tried(capsys, argv):
    """The ladder's cap counts from the requested precision, so a start
    above 4096 bits decides the bound instead of giving up untried."""
    code, out, err = run(capsys, *argv)
    assert code == 0
    assert err == ""
    assert json.loads(out)["bound_check"]["satisfied"] is True


def test_capped_ladder_exits_undecided(capsys, monkeypatch):
    """A table's complex parts and a 2i element's imaginary part both go
    through the capped renderer."""
    monkeypatch.setattr(algseeds.algebraic, "MAX_BITS", -1)
    for argv in (("tables", "1"), ("gen", "--family", "2i", "--n", "5")):
        code, out, err = run(capsys, *argv)
        assert code == EXIT_UNDECIDED
        assert out == ""
        assert err.startswith("undecided: no decision within ")


def test_imaginary_part_of_a_square_radicand():
    """x^2 + 1 has 4c - b^2 = 4, a square, and its cell is exact there too."""
    p = MonicIntPoly.quadratic(0, 1)
    assert _value_str(AlgebraicNumber.complex_root(p)) == "0.00000 + 1.00000 i"
    assert _value_str(AlgebraicNumber.complex_root(p, upper=False)) == "0.00000 - 1.00000 i"


def test_internal_failure_is_not_a_usage_error(capsys, monkeypatch):
    def broken(inst):
        raise ValueError("Sturm endpoints must not be roots")
    monkeypatch.setattr("algseeds.cli.independence_report", broken)
    code, out, err = run(capsys, "independence", "--family", "2r", "--n", "4")
    assert code == EXIT_INTERNAL == 4
    assert out == ""
    assert err == "internal error: ValueError: Sturm endpoints must not be roots\n"


SMALL = st.integers(-12, 12).map(str)
M = st.integers(-5, 2).map(str)
# --m for any family: a cubic one needs it and a quadratic one refuses it
FAMILY_FLAGS = st.tuples(st.just("--family"), st.sampled_from(("2r", "2i", "3ntr", "3tr")),
                         st.just("--n"), SMALL, st.one_of(st.just(()), st.tuples(st.just("--m"), M)))
# Each subcommand but sweep and tables, with its flags drawn small: every
# coordinate bound included, since the default 50 makes a search seconds long.
ARGV_HEADS = {
    "gen": FAMILY_FLAGS,
    "uniformity": st.tuples(FAMILY_FLAGS, st.sampled_from(((), ("--precision", "16"),
                                                          ("--precision", "32")))),
    "independence": FAMILY_FLAGS,
    "exception": st.tuples(st.just("--m"), M, st.just("--n"), SMALL),
    "tiling": st.tuples(st.just("--bound"), SMALL, st.just("--domain"),
                        st.sampled_from(("real", "imaginary", "imaginary-except-qi"))),
    "find-index": st.tuples(st.lists(st.integers(-3, 40).map(str), min_size=1, max_size=3),
                            st.just("--domain"), st.sampled_from(("real", "imaginary"))),
    "find-generator": st.tuples(st.tuples(SMALL, SMALL, SMALL), st.just("--family"),
                                st.sampled_from(("3ntr", "3tr")), st.just("--coord-bound"),
                                st.integers(-3, 6).map(str)),
    "bits": st.tuples(FAMILY_FLAGS, st.just("--bits"), SMALL),
    "complement-check": FAMILY_FLAGS,
    "layer": st.tuples(st.just("--m"), M, st.just("--bound"), SMALL),
}


def _flat(parts) -> list[str]:
    return [parts] if isinstance(parts, str) else [t for part in parts for t in _flat(part)]


@st.composite
def argvs(draw) -> list[str]:
    """A drawn invocation: a subcommand and its flags, a format, and at
    times one token dropped or a malformed one inserted."""
    sub = draw(st.sampled_from(sorted(ARGV_HEADS)))
    argv = [sub, *_flat(draw(ARGV_HEADS[sub]))]
    argv += ["--format", draw(st.sampled_from(("json", "csv", "table")))]
    edit = draw(st.sampled_from(("none", "none", "none", "drop", "insert")))
    if edit == "drop":
        del argv[draw(st.integers(0, len(argv) - 1))]
    elif edit == "insert":
        argv.insert(draw(st.integers(0, len(argv))),
                    draw(st.sampled_from(("--bogus", "1.5", "", "--n", "-", "x"))))
    return argv


@settings(max_examples=300, deadline=None)
@given(argv=argvs())
def test_every_invocation_keeps_the_exit_code_contract(argv):
    """Every exit is 0, 1, 2 or 3, and no run raises.  An exit 2 is either
    argparse's own usage text or one ``error: `` line, and prints nothing on
    stdout."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
            usage = False
        except SystemExit as exc:
            code, usage = exc.code, True
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2, 3), (argv, err)
    if usage:
        assert code == 2 and out == "" and err.startswith("usage: algseeds"), argv
    elif code == 2:
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1, (argv, err)


def test_parser_is_built_once_and_keeps_no_state(capsys):
    assert build_parser() is build_parser()
    argv = ("gen", "--family", "3ntr", "--m", "0", "--n", "6")
    first = run(capsys, *argv)
    assert first[0] == 0
    assert run(capsys, *argv) == first
    # --m from the call before must not carry over
    code, _, err = run(capsys, "gen", "--family", "3ntr", "--n", "6")
    assert code == 2
    assert "needs --m" in err


def test_exception_subcommand(capsys):
    code, out, _ = run(capsys, "exception", "--m", "0", "--n", "-6")
    assert code == 0
    payload = json.loads(out)
    assert payload["exception"]["d"] == 4
    assert payload["exception"]["minpoly"] == [2, -2]

    code, out, _ = run(capsys, "exception", "--m", "0", "--n", "-7")
    assert code == 0
    assert json.loads(out)["exception"] is None


def test_exception_rejects_bad_layer(capsys):
    code, _, err = run(capsys, "exception", "--m", "2", "--n", "-6")
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("number", (1, 2, 3, 4))
def test_tables_text_matches_golden(capsys, number):
    code, out, _ = run(capsys, "tables", str(number))
    assert code == 0
    golden = (GOLDEN_DIR / f"table{number}.txt").read_text(encoding="utf-8")
    assert out == golden


def test_tables_csv_splits_columns(capsys):
    code, out, _ = run(capsys, "tables", "3", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "polynomial,root1,root2,root3"
    assert lines[1] == "x^3-4x+1,-2.11491,0.25410,1.86081"


def test_tables_unknown_number_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["tables", "9"])
    assert exc.value.code == 2


def test_tiling_subcommand(capsys):
    code, out, _ = run(capsys, "tiling", "--bound", "3", "--domain", "imaginary",
                       "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "domain,bound,checked,violations,qi_excluded,ok"
    assert lines[1].startswith("imaginary,3,")
    assert lines[1].endswith(",True")


def test_find_index_subcommand(capsys):
    code, out, _ = run(capsys, "find-index", "2", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] == 1
    assert payload["instance"] == {"family": "2r", "params": [2]}
    assert len(payload["witnesses"]) == 2


def test_find_index_rejects_non_squarefree(capsys):
    code, _, err = run(capsys, "find-index", "4")
    assert code == 2
    assert "error:" in err


def test_find_generator_success(capsys):
    code, out, _ = run(capsys, "find-generator", "0", "0", "-2",
                       "--family", "3ntr", "--format", "table")
    assert code == 0
    assert "0 -1 1" in out
    assert "x^3+6x-2" in out
    assert "0.32748" in out


def test_find_generator_not_found_is_violation(capsys):
    code, out, _ = run(capsys, "find-generator", "0", "-1", "-1",
                       "--family", "3ntr", "--coord-bound", "1")
    assert code == 1
    assert json.loads(out)["found"] is False


def test_find_generator_signature_mismatch(capsys):
    code, _, err = run(capsys, "find-generator", "0", "-3", "1", "--family", "3ntr")
    assert code == 2
    assert "error:" in err


def test_bits_subcommand_known_streams(capsys):
    code, out, _ = run(capsys, "bits", "--family", "2r", "--n", "2",
                       "--bits", "16", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("free_coeff,bits,hex,")
    assert lines[1].split(",")[2] == "6a09"   # sqrt(2) - 1
    assert lines[2].split(",")[2] == "bb67"   # sqrt(3) - 1


def test_bits_rejects_imaginary_family(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bits", "--family", "2i", "--n", "3"])
    assert exc.value.code == 2


def test_complement_check_subcommand(capsys):
    code, out, _ = run(capsys, "complement-check", "--family", "2r", "--n", "2")
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_layer_subcommand(capsys):
    code, out, _ = run(capsys, "layer", "--m", "0", "--bound", "20",
                       "--format", "table")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "c | index | quad_const"
    assert any(line.startswith("-6 | 2 | ") for line in lines)


@pytest.mark.parametrize("argv", (("layer", "--m", "5"), ("layer", "--m", "0", "--bound", "2")))
def test_layer_rejects_bad_parameters(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


def test_out_flag_writes_file(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, "gen", "--family", "2r", "--n", "1",
                       "--out", str(target))
    assert code == 0
    assert out == ""
    payload = json.loads(target.read_text(encoding="utf-8"))
    assert payload["cardinality"] == 1


def test_out_to_a_missing_directory_is_a_usage_error(capsys, tmp_path):
    target = tmp_path / "missing" / "r.json"
    code, out, err = run(capsys, "gen", "--family", "2r", "--n", "1",
                         "--out", str(target))
    assert code == 2
    assert out == ""
    assert err == f"error: cannot write {target}: No such file or directory\n"
    assert not target.parent.exists()


@pytest.mark.parametrize("number", (1, 2, 3, 4))
def test_tables_out_writes_the_golden_bytes(capsys, tmp_path, number):
    target = tmp_path / f"table{number}.txt"
    code, out, _ = run(capsys, "tables", str(number), "--out", str(target))
    assert code == 0
    assert out == ""
    assert target.read_bytes() == (GOLDEN_DIR / f"table{number}.txt").read_bytes()


def _valid_specs(family, params):
    for p in params:
        try:
            yield SetSpec(family, p)
        except InvalidParams:
            pass


def test_sweep_counts_every_pair_of_the_parameter_range(capsys):
    qb, cb = 12, 10
    quad = [(n,) for n in range(-qb, qb + 1)]
    cubic = [(m, n) for m in (0, -1, -2, -3) for n in range(-cb, cb + 1)]
    want = {f: list(_valid_specs(f, quad if f in ("2r", "2i") else cubic))
            for f in ("2r", "2i", "3ntr", "3tr")}
    code, out, err = run(capsys, "sweep", "--quad-bound", str(qb),
                         "--cubic-bound", str(cb))
    assert code == 0
    assert err == ""
    payload = json.loads(out)
    assert payload["independent"] is True
    assert [f["family"] for f in payload["families"]] == list(want)
    for fam in payload["families"]:
        specs = want[fam["family"]]
        assert fam["instances"] == len(specs)
        assert fam["pairs_checked"] == sum(
            s.cardinality() * (s.cardinality() - 1) // 2 for s in specs)
        assert fam["collisions"] == []


def test_sweep_output_is_byte_identical_across_runs(capsys):
    argv = ("sweep", "--quad-bound", "15", "--cubic-bound", "12", "--format", "json")
    first = run(capsys, *argv)
    assert first[0] == 0
    assert run(capsys, *argv) == first


def test_default_sweep_json_is_pinned(capsys):
    """The default sweep (2r, 2i to |n| = 200 decided from their kernels;
    3ntr, 3tr to |n| = 60) must not change a byte."""
    code, out, err = run(capsys, "sweep")
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == \
        "e5137b9ecf568282a838fd2d1567fed0458f05bff200d1aa25cece856b839413"


def test_cubic_bound_120_sweep_json_is_pinned(capsys):
    """3ntr and 3tr to |n| = 120, twice the paper's cubic range, built from
    one integer-root walk per instance (families docstring), must not
    change a byte."""
    code, out, err = run(capsys, "sweep", "--quad-bound", "1", "--cubic-bound", "120")
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == \
        "672e22c9fe382692c45dbc4be55bdd8b4183f9f52f2e82271ba7569ba473381f"


# SHA-256 of what each invocation prints: JSON, or the table it asks for
REFINED_OUTPUT_SHA256 = {
    "gen --family 2r --n 93":
        "9cb3d21cf3c8c85f1c76e47b481b85619c928bdfc7fd11abfaef06c00fb73263",
    "gen --family 2r --n -700":
        "7ac08cfd93d07b7d2b8fc51c10711aacaacd99dcc7fd33938e1bbb4d6b51a67b",
    "gen --family 2i --n 61":
        "e3014a4cf79c0ff6c7b1d69aa1bb114a59807afd8f91b703d3f5d738a2c5dea1",
    "gen --family 2i --n 60":
        "2ac051cce372d202eb5bc9d157d1e47ba244179961f8a2fd3c9cf3eb5fa1485d",
    "gen --family 3ntr --m -2 --n 40":
        "8e25680ee59dda4cae848e2f0734719eb4db8316d3b40a6e31ef5b40be7b66fb",
    "gen --family 3tr --m -1 --n -41":
        "50c98a139930ccfdf7ea1bfb1b97aadef51f0a61b19e158e24847984c8c1c2cc",
    "uniformity --family 2r --n 93":
        "c2a9aca855c23ff4fb2d7ddb0a200e647cf8c6d7ebd47f0a4f2d8b4592655248",
    "uniformity --family 2i --n 61 --precision 256":
        "5848fcb261b23a7ea9ecaf2c19df02fd1238c3d19dafeba9c122d8126661e232",
    "uniformity --family 2i --n 60":
        "be3e5bcf8c9710c9117e9ff709bba78933f03e35fd9da773db9538d1efaebe1a",
    "uniformity --family 3ntr --m 0 --n 57 --precision 32":
        "f662ae9bdf399d0e1838ff057ec4245933579c8654705eb282773f7c0d4029bf",
    "uniformity --family 3tr --m -1 --n -41 --precision 32":
        "5ead39a51cddf0581c9760b0146b60444266e79368ca38853293e09737319bb7",
    "uniformity --family 2i --n 45":
        "479496e727f290b7ebd2a78df5eb40339dc3218ffb9756dc2a863b80e1e60c77",
    "uniformity --family 2r --n -700 --precision 32":
        "bd670705c2713e323d4b79a4dd661cda66d076bdccb284fbcbeab92d73c8a7ee",
    "uniformity --family 2i --n 200 --precision 32":
        "8caaa061089e080ff502721539cc79010df5ef25a576761d9a711ac4b12b75ec",
    "uniformity --family 2i --n 199 --precision 32":
        "0fb11bfb7841355dc9784cd9aaa0ff1f5e56ea932fc4a755bf546493b05d4748",
    "bits --family 2r --n 93":
        "c35e9268c59776cf549dab1917cbd383b225f039b83f99c4124a3e03b53e6b62",
    "bits --family 3tr --m 0 --n -59":
        "e7f44693944d28628316258cfec4945330317f64d51d4e9b3bd60e1c453a16f3",
    "tiling --bound 20":
        "6bddc2935d9d12b3132d58aede437c0b1b074041b4c0bad97a4cef7259afce61",
    "find-index 2 3 5 --domain imaginary --format table":
        "ca0355be10659b539d2577286b3de271a603ae745929a776acb566a3ba6d8db5",
    "complement-check --family 3tr --m 0 --n -59":
        "6cf9e574ec00ece1a93cd6bb7d5082614b1b0b4afc03f5d7dddb858739081bdc",
}


@pytest.mark.parametrize("argv", REFINED_OUTPUT_SHA256)
def test_refined_output_json_is_pinned(capsys, argv):
    """gen values, uniformity gaps, bit streams, imaginary parts and
    reflections all read refined cells (quadratics in closed form, cubics by
    quadratic interval refinement); their output must not change a byte."""
    code, out, err = run(capsys, *argv.split())
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == REFINED_OUTPUT_SHA256[argv]


@pytest.mark.parametrize("flag", ("--quad-bound", "--cubic-bound"))
def test_sweep_rejects_a_zero_bound(capsys, flag):
    code, out, err = run(capsys, "sweep", flag, "0")
    assert code == 2
    assert out == ""
    assert err == "error: bounds must be positive\n"


def test_sweep_reports_a_collision_and_exits_one(capsys, monkeypatch):
    known = independence_report(build_set(SetSpec("3ntr", (3, 3))))
    monkeypatch.setattr("algseeds.cli.independence_report", lambda inst: known)
    code, out, err = run(capsys, "sweep", "--quad-bound", "2", "--cubic-bound", "2")
    assert code == 1
    assert err == ""
    payload = json.loads(out)
    assert payload["independent"] is False
    first = payload["families"][0]["collisions"][0]
    assert first["spec"] == {"family": "2r", "params": [1]}
    assert (first["i"], first["j"]) == (known.collisions[0].i, known.collisions[0].j)
    assert first["certificate"] == known.collisions[0].certificate.to_json()


def test_readme_cli_block_lists_every_subcommand():
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    cli_section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    documented = re.findall(r"^algseeds (\S+)", cli_section, flags=re.MULTILINE)
    subparsers, = (a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
    assert sorted(documented) == sorted(subparsers.choices)


# JSON leaves and nests: text with non-ASCII letters, quotes, backslashes and
# control characters; floats and dicts with non-str keys take json.dumps
_JSON_LEAVES = (st.none() | st.booleans() | st.integers() | st.text()
                | st.floats(allow_nan=False))
_JSON_PAYLOADS = st.recursive(
    _JSON_LEAVES,
    lambda inner: (st.lists(inner, max_size=4) | st.tuples(inner, inner)
                   | st.dictionaries(st.text(max_size=6), inner, max_size=4)
                   | st.dictionaries(st.integers(-9, 9), inner, max_size=3)),
    max_leaves=25)


@given(payload=_JSON_PAYLOADS)
@example(payload={"t\u00e9\"x": ["\\", "\n\t\x00\u2028", {"\u00fc": [], "k": {}}],
                  "n": [True, 1, 1.0, False, 0, None, -7]})
@example(payload={"outer": {1: {"inner": ["a\nb"]}, 2: [0.5]}})
def test_json_writer_matches_the_stdlib(payload):
    """The CLI's JSON writer gives the bytes of json.dumps(indent=2,
    ensure_ascii=False) on any nest of the JSON types."""
    assert _json_text(payload) == json.dumps(payload, indent=2, ensure_ascii=False)

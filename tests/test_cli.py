import contextlib
import io
import json
import os
import random
import shutil
import subprocess
import sys
import time
from fnmatch import fnmatchcase
from pathlib import Path
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from harmonic2v import (
    GaussianRational,
    Polynomial,
    PolySyntaxError,
    VariableOutOfRange,
    decompose_full,
    parse_poly,
    run_suite,
)
from harmonic2v import cli, suites
from harmonic2v.cli import main
from harmonic2v.errors import ZeroNormalizer
from harmonic2v.parser import MAX_DEGREE, MAX_NESTING, MAX_TERMS
from harmonic2v.poly import Monomial
from harmonic2v.sampling import random_double_harmonic
from harmonic2v.suites import WHIPPLE_DRAWS

from conftest import poly, random_polynomial
from reference import decomposition_json


# -- parsing --------------------------------------------------------------------


def test_parse_basic_expression():
    p = parse_poly("x1^2*u1 - 3/2*u2", 5)
    assert p.coefficient(Monomial((2, 0, 0, 0, 0), (1, 0, 0, 0, 0))) == 1
    assert p.coefficient(Monomial((0,) * 5, (0, 1, 0, 0, 0))) == GaussianRational(
        Fraction(-3, 2)
    )


def test_parse_variable_out_of_range():
    with pytest.raises(VariableOutOfRange):
        parse_poly("x9", 5)


def test_parse_imaginary_arithmetic():
    assert parse_poly("i*x1 + i*i", 5) == poly("i*x1", 5) - Polynomial.constant(5, 1)


def test_parse_parentheses_and_powers():
    assert parse_poly("(x1+u1)^2", 5) == poly("x1^2 + 2*x1*u1 + u1^2", 5)


def test_parse_error_carries_position():
    # the end of the input is not read as a sign, so an error there points at it
    for text, position in (("x1 + ", 5), ("", 0), ("   ", 3)):
        with pytest.raises(PolySyntaxError) as err:
            parse_poly(text, 5)
        assert err.value.position == position


@pytest.mark.parametrize(
    "text, message", [("1/0", "zero denominator (at position 3)"), ("(x1", "expected ')' (at position 3)")]
)
def test_parse_error_messages(text, message):
    with pytest.raises(PolySyntaxError) as err:
        parse_poly(text, 5)
    assert str(err.value) == message


def test_parse_sign_after_operator():
    assert parse_poly("x1*-x2", 5) == poly("-x1*x2", 5)


def test_parse_folds_a_run_of_unary_minuses():
    # far more minuses than the interpreter's recursion limit of 1,000
    assert parse_poly("-" * 2000 + "x1", 5) == poly("x1", 5)
    assert parse_poly("x2*" + "-" * 2001 + "x1^3", 5) == poly("-x1^3*x2", 5)
    assert parse_poly("x2*--x1^2", 5) == poly("x1^2*x2", 5)


def _nested(depth):
    return "(" * depth + "x1" + ")" * depth


def test_parse_nesting_cap():
    assert parse_poly(_nested(MAX_NESTING), 5) == poly("x1", 5)
    with pytest.raises(PolySyntaxError) as err:
        parse_poly(_nested(MAX_NESTING + 1), 5)
    assert err.value.position == MAX_NESTING  # the innermost '('
    assert str(MAX_NESTING) in str(err.value)


def test_parse_rejects_trailing_garbage():
    with pytest.raises(PolySyntaxError):
        parse_poly("x1 x2", 5)


def test_parse_accepts_the_maximum_degree():
    assert parse_poly(f"x1^{MAX_DEGREE}", 5).total_degree() == MAX_DEGREE
    half = MAX_DEGREE // 2
    assert parse_poly(f"x1^{half}*u1^{half}", 5).total_degree() == MAX_DEGREE


@pytest.mark.parametrize(
    "text, position",
    [
        (f"x1^{MAX_DEGREE + 1}", 2),
        ("3^20000", 1),
        (f"x1^{MAX_DEGREE // 2 + 1} * u1^{MAX_DEGREE // 2}", 6),
        ("(x1 + u1)^2^33", 11),
        (f"x1 + x1^{MAX_DEGREE}*x2", 10),
    ],
)
def test_parse_rejects_degree_above_the_maximum(text, position):
    with pytest.raises(PolySyntaxError) as err:
        parse_poly(text, 5)
    assert err.value.position == position
    assert str(MAX_DEGREE) in str(err.value)


#: More digits than ``int`` converts at the interpreter's default limit (4,300).
LONG_INTEGER = "9" * 5000


@pytest.mark.parametrize(
    "text, position",
    [(LONG_INTEGER, 0), (f"x1^{LONG_INTEGER}", 3), (f"x1 + 2/{LONG_INTEGER}", 7)],
)
def test_parse_rejects_an_integer_too_long_to_convert(text, position):
    with pytest.raises(PolySyntaxError) as err:
        parse_poly(text, 5)
    assert err.value.position == position
    assert "integer of 5000 digits" in str(err.value)


@pytest.mark.parametrize("text, position", [("x1^\u00b2", 3), ("\u00b2", 0), ("x1*3\u0663", 4)])
def test_parse_reads_ascii_digits_only(text, position):
    # int() would read the Arabic-Indic three and reject the superscript two
    with pytest.raises(PolySyntaxError) as err:
        parse_poly(text, 5)
    assert err.value.position == position


def test_parse_accepts_a_power_below_the_term_limit():
    p = parse_poly("(x1+x2+x3+x4+x5+u1+u2+u3+u4+u5)^10", 5)
    assert p.term_count() == 92378 <= MAX_TERMS


@pytest.mark.parametrize(
    "text, position",
    [
        ("(x1+x2+x3+x4+x5+u1+u2+u3+u4+u5)^64", 31),
        ("(x1+x2+x3+x4+x5+u1+u2+u3+u4+u5)^6 * (x1+x2+x3+x4+x5+u1+u2+u3+u4+u5)^6", 34),
    ],
)
def test_parse_rejects_term_count_above_the_maximum(text, position):
    start = time.perf_counter()
    with pytest.raises(PolySyntaxError) as err:
        parse_poly(text, 5)
    assert time.perf_counter() - start < 1.0
    assert err.value.position == position
    assert str(MAX_TERMS) in str(err.value)


def test_parse_print_parse_fixed_point(rng):
    sampler = random.Random(99)
    for _ in range(10):
        p = random_polynomial(5, 3, 3, sampler)
        text = str(p)
        q = parse_poly(text, 5)
        assert q == p
        assert str(q) == text


# -- decompose command -------------------------------------------------------------


def test_cli_decompose_json(capsys):
    code = main(["decompose", "--m", "5", "--poly", "x1*u1"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["schema"] == "harmonic2v/1"
    assert out["reconstruction_check"] == "exact"
    cells = {(c["ladder"]["i"], c["ladder"]["j"]) for c in out["components"]}
    assert cells == {(1, 0), (0, 1)}
    trace = [c for c in out["components"] if c["ladder"] == {"i": 1, "j": 0}][0]
    assert trace["harmonic"] == [{"monomial": "1", "coeff": "1/5"}]
    assert trace["target"] == {"k": 0, "l": 0}


def test_cli_decompose_trivial(capsys):
    code = main(["decompose", "--m", "5", "--poly", "1"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert len(out["components"]) == 1
    assert out["components"][0]["fischer"] == {"a": 0, "b": 0}


def test_cli_decompose_text_format(capsys):
    code = main(["decompose", "--m", "5", "--poly", "x1*u1", "--format", "text"])
    out = capsys.readouterr().out
    assert code == 0
    assert "reconstruction: exact" in out


@pytest.mark.parametrize(
    "m, text",
    [
        (5, "(-1-i)*x1*u2 + (3-2*i)*x2*u1"),
        (6, "x1^2*u2 + i*u1 - 2/3*x1*x2*u1^2*u3"),
        (5, "(1/2-3*i)*x1*u1^2*u2 - x2*u3^3"),
    ],
)
def test_cli_decompose_text_lines_parse_back(m, text, capsys):
    code = main(["decompose", "--m", str(m), "--poly", text, "--format", "text"])
    lines = capsys.readouterr().out.splitlines()
    entries = decompose_full(parse_poly(text, m)).entries
    assert code == 0
    assert lines[-1] == "reconstruction: exact"
    assert len(lines) == len(entries) + 2
    for line, entry in zip(lines[1:-1], entries):
        assert parse_poly(line.split(": ", 1)[1], m) == entry.component.harmonic


def test_cli_decompose_deterministic(capsys):
    main(["decompose", "--m", "6", "--poly", "x1^2*u2 + i*u1"])
    first = capsys.readouterr().out
    main(["decompose", "--m", "6", "--poly", "x1^2*u2 + i*u1"])
    second = capsys.readouterr().out
    assert first == second


def test_cli_decompose_poly_file(tmp_path, capsys):
    path = tmp_path / "p.txt"
    path.write_text("x1^2 + u1^2\n", encoding="utf-8")
    code = main(["decompose", "--m", "5", "--poly-file", str(path)])
    out = json.loads(capsys.readouterr().out)
    assert code == 0 and out["reconstruction_check"] == "exact"


def test_cli_decompose_mirrored_components(capsys):
    code = main(["decompose", "--m", "5", "--poly", "x1*u2^2"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0 and out["reconstruction_check"] == "exact"
    assert any(c.get("mirrored") for c in out["components"])
    for c in out["components"]:
        assert c["target"]["k"] >= c["target"]["l"]


def test_cli_decompose_has_no_strategy_option(capsys):
    with pytest.raises(SystemExit) as err:
        main(["decompose", "--m", "5", "--poly", "x1*u1", "--strategy", "sequential"])
    assert err.value.code == 2
    stderr = capsys.readouterr().err
    assert "unrecognized arguments: --strategy sequential" in stderr
    assert "Traceback" not in stderr


def test_cli_decompose_rejects_small_dimension(capsys):
    code = main(["decompose", "--m", "4", "--poly", "x1*u1"])
    assert code == 2
    assert "error" in capsys.readouterr().err


# -- integrate command ---------------------------------------------------------------


def test_cli_integrate_stiefel(capsys):
    code = main(["integrate", "--m", "5", "--poly", "x1^2", "--manifold", "stiefel2"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0 and out["value"] == "1/5"


def test_cli_integrate_inner_product_zero(capsys):
    code = main(["integrate", "--m", "5", "--poly", "x1*u1"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0 and out["value"] == "0"


def test_cli_integrate_sphere_m4(capsys):
    code = main(["integrate", "--m", "4", "--poly", "1", "--manifold", "sphere"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0 and out["value"] == "2 * pi^2"


def test_cli_integrate_sphere_rejects_mc_samples(capsys):
    # the sphere integral has no Monte Carlo check, so the option must not pass silently
    with pytest.raises(SystemExit) as err:
        main(["integrate", "--m", "4", "--poly", "1", "--manifold", "sphere", "--mc-samples", "100"])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--mc-samples" in captured.err and "Traceback" not in captured.err


@pytest.mark.parametrize(
    "extra",
    [
        ["--manifold", "sphere", "--seed", "5"],
        ["--seed", "5"],
        ["--seed", "0"],
        ["--manifold", "sphere", "--mc-samples", "100", "--seed", "5"],
    ],
)
def test_cli_integrate_rejects_seed_without_monte_carlo(extra, capsys):
    # with no Monte Carlo check a seed changes nothing, so it must not pass silently
    with pytest.raises(SystemExit) as err:
        main(["integrate", "--m", "5", "--poly", "1"] + extra)
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --seed" in captured.err and "Traceback" not in captured.err


def test_cli_integrate_monte_carlo_seed_defaults_to_zero(capsys):
    argv = ["integrate", "--m", "5", "--poly", "x1^2*u2^2", "--mc-samples", "500"]
    assert main(argv) == 0
    default = capsys.readouterr().out
    assert main(argv + ["--seed", "0"]) == 0
    assert capsys.readouterr().out == default
    assert main(argv + ["--seed", "1"]) == 0
    assert capsys.readouterr().out != default


def test_cli_integrate_with_monte_carlo(capsys):
    code = main(
        ["integrate", "--m", "5", "--poly", "x1^2", "--mc-samples", "20000", "--seed", "7"]
    )
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["mc"]["samples"] == 20000
    assert abs(out["mc"]["estimate"] - 0.2) < 4 * out["mc"]["stderr"]


# -- verify command ------------------------------------------------------------------


def test_cli_verify_appendix(capsys):
    code = main(["verify", "--suite", "appendix", "--m", "5"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0 and out["passed"] is True
    assert all(c["passed"] for c in out["checks"])


def test_cli_verify_relations(capsys):
    code = main(["verify", "--suite", "relations", "--m", "6", "--max-bidegree", "2"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0 and out["passed"] is True


def test_cli_verify_relations_rejects_small_dimension(capsys):
    # at m = 1 no nonzero double harmonic has x- or u-degree >= 2, so sampling would never end
    assert main(["verify", "--suite", "relations", "--m", "1"]) == 2
    assert "m > 4" in capsys.readouterr().err


def test_cli_verify_every_suite_rejects_small_dimension(capsys):
    # every suite rests on the m > 4 theory: a small m is an error, never failed checks
    for suite in cli.SUITE_NAMES:
        for m in range(1, 5):
            assert main(["verify", "--suite", suite, "--m", str(m)]) == 2, (suite, m)
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "requires m > 4" in captured.err and "Fraction(" not in captured.err


@pytest.mark.parametrize("seed", [0, 6])
def test_appendix_checks_ten_whipple_draws(seed):
    # seed 0's first ten draws all have w <= -n and are all checked; seed 6
    # redraws a lower-parameter pole (its first draw) and a Gamma pole (its fifth)
    checks = run_suite("appendix", 5, seed=seed)["checks"]
    whipple = [c for c in checks if c["name"].startswith("whipple")]
    assert [c["name"] for c in whipple] == [f"whipple draw {t}" for t in range(WHIPPLE_DRAWS)]
    assert all(c["passed"] for c in whipple)


def test_appendix_fails_when_whipple_draws_run_out(monkeypatch):
    # seed 6's first five draws are a pole, three checkable draws and a pole
    monkeypatch.setattr(suites, "WHIPPLE_ATTEMPTS", 5)
    report = run_suite("appendix", 5, seed=6)
    failed = [c for c in report["checks"] if not c["passed"]]
    assert [c["name"] for c in failed] == ["whipple draws"]
    assert failed[0]["counterexample"] == {"checked": 3, "attempts": 5}
    assert report["passed"] is False


def test_run_suite_rejects_negative_seed():
    # random.Random seeds with |seed|, so -5 would repeat the draws of seed 5
    with pytest.raises(ValueError, match="non-negative"):
        run_suite("orthogonality", 5, seed=-5)


def test_verify_ladder_runs_the_given_max_bidegree():
    report = run_suite("ladder", 5, max_bidegree=4)
    assert len(report["checks"]) == 474 and report["passed"] is True


def test_verify_appendix_at_max_bidegree_zero_has_no_g_checks():
    report = run_suite("appendix", 5, max_bidegree=0)
    assert report["passed"] is True
    assert not [c for c in report["checks"] if c["name"].startswith("G(")]


def test_verify_relations_at_max_bidegree_zero_draws_only_constants(monkeypatch):
    drawn = []

    def recording(m, k, l, rng):
        drawn.append((k, l))
        return random_double_harmonic(m, k, l, rng)

    monkeypatch.setattr(suites, "random_double_harmonic", recording)
    assert run_suite("relations", 5, max_bidegree=0)["passed"] is True
    assert drawn == [(0, 0)] * 20


def test_cli_verify_ladder_vacuous(capsys):
    code = main(["verify", "--suite", "ladder", "--m", "5", "--max-bidegree", "0"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0 and out["passed"] is True


@pytest.mark.parametrize(
    "constant, wrong_at, pattern, count",
    [
        ("ladder_alpha", lambda i, j, p, q, k, l, m: (p, q) == (1, 1), "alpha(?,?)^(1,1) at *", 18),
        ("ladder_phi", lambda i, j, k, l, m: (i, j) == (1, 1), "phi(1,1) at *", 6),
        ("ladder_psi", lambda i, j, k, l, m: (i, j) == (2, 0), "psi(2,0) at *", 9),
        ("ladder_c", lambda i, k, l, m: i == 1, "c_1 at *", 9),
    ],
)
def test_ladder_suite_catches_a_wrong_constant(monkeypatch, constant, wrong_at, pattern, count):
    # criterion 4 relies on the suite: a constant off by one at one index fails exactly its checks
    exact = getattr(suites, constant)
    monkeypatch.setattr(suites, constant, lambda *args: exact(*args) + int(wrong_at(*args)))
    report = run_suite("ladder", 5)
    names = [c["name"] for c in report["checks"]]
    failed = [c["name"] for c in report["checks"] if not c["passed"]]
    assert report["passed"] is False and len(names) == 306
    assert failed == [name for name in names if fnmatchcase(name, pattern)]
    assert len(failed) == count


def test_cli_verify_ladder_bounds_m(capsys):
    with pytest.raises(SystemExit) as err:
        main(["verify", "--suite", "ladder", "--m", str(cli.MAX_LADDER_M + 1), "--max-bidegree", "0"])
    assert err.value.code == 2
    assert f"must be <= {cli.MAX_LADDER_M} with --suite ladder" in capsys.readouterr().err
    # the bound is the ladder suite's own: another suite still runs at that m
    assert main(["verify", "--suite", "appendix", "--m", str(cli.MAX_LADDER_M + 1)]) == 0


# -- error handling -----------------------------------------------------------------


def test_cli_parse_error_exit_code(capsys):
    code = main(["decompose", "--m", "5", "--poly", "x1 +"])
    assert code == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("text", [_nested(250), "-" * 2000 + "x9"], ids=["parentheses", "minuses"])
def test_cli_deep_nesting_is_one_error_line(text, capsys):
    # both once ended in a RecursionError traceback
    assert main(["decompose", "--m", "5", f"--poly={text}"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_cli_variable_range_exit_code(capsys):
    code = main(["integrate", "--m", "5", "--poly", "x9"])
    assert code == 2


def test_cli_degree_limit_exit_code(capsys):
    code = main(["decompose", "--m", "5", "--poly", "x1^20000"])
    assert code == 2
    stderr = capsys.readouterr().err
    assert stderr.startswith("error:") and "maximum degree" in stderr
    assert "Traceback" not in stderr


@pytest.mark.parametrize("text", [LONG_INTEGER, f"x1^{LONG_INTEGER}"])
def test_cli_long_integer_is_a_parse_error(text, capsys):
    assert main(["decompose", "--m", "5", "--poly", text]) == 2
    stderr = capsys.readouterr().err
    assert stderr.startswith("error: integer of 5000 digits exceeds the limit")
    assert "set_int_max_str_digits" not in stderr


def test_cli_arithmetic_error_exit_code(monkeypatch, capsys):
    def vanishing(*args, **kwargs):
        raise ZeroNormalizer("component (1,0) is absent at target (1,0)")

    monkeypatch.setattr(cli, "decompose_full", vanishing)
    code = main(["decompose", "--m", "5", "--poly", "x1*u1"])
    assert code == 2
    stderr = capsys.readouterr().err
    assert stderr.startswith("error: component (1,0) is absent")
    assert "Traceback" not in stderr


def test_cli_poly_file_directory_exit_code(tmp_path, capsys):
    code = main(["decompose", "--m", "5", "--poly-file", str(tmp_path)])
    assert code == 2
    stderr = capsys.readouterr().err
    assert stderr.startswith("error:") and "Is a directory" in stderr
    assert "Traceback" not in stderr


def _limit_address_space():
    """In the child only: cap its address space at 200 MiB."""
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (200 << 20, 200 << 20))


@pytest.mark.skipif(sys.platform != "linux", reason="RLIMIT_AS caps allocations on Linux")
def test_cli_out_of_memory_exit_code():
    # Decomposing x1^20*u1^20 needs far more than 200 MiB: without a handler
    # the run ends in a MemoryError traceback and exit 1.
    src = Path(__file__).resolve().parents[1] / "src"
    run = subprocess.run(
        [sys.executable, "-m", "harmonic2v.cli", "decompose", "--m", "5", "--poly", "x1^20*u1^20"],
        env={**os.environ, "PYTHONPATH": str(src)},
        preexec_fn=_limit_address_space,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert run.returncode == 2, run.stderr[-2000:]
    assert run.stdout == ""
    assert run.stderr == "error: out of memory\n"


#: (99...9)^64 with 100 nines: a coefficient of 6,400 digits.
HUGE_POWER = f"({'9' * 100})^64"


@pytest.mark.parametrize(
    "argv",
    [
        ["decompose", "--m", "5", "--poly", f"{HUGE_POWER}*x1*u1"],
        ["decompose", "--m", "5", "--poly", f"{HUGE_POWER}*x1*u1", "--format", "text"],
        ["integrate", "--m", "5", "--poly", f"{HUGE_POWER}*x1^2"],
        ["integrate", "--m", "5", "--poly", f"{HUGE_POWER}*x1^2", "--manifold", "sphere"],
    ],
)
def test_cli_coefficient_too_long_to_print_writes_nothing(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: a coefficient exceeds the limit of 4300 digits\n"


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_cli_decompose_long_packed_coefficients_still_print(fmt, capsys):
    # 1/D and D share one packed denominator D, so the packed numerator D^2 passes
    # the digit limit though every printed coefficient is within it
    d = "1" + "0" * 2200
    text = f"1/{d}*x1*u2 + {d}*x2*u3"
    assert main(["decompose", "--m", "5", "--poly", text, "--format", fmt]) == 0
    out = capsys.readouterr().out
    if fmt == "json":
        assert out == decomposition_json(decompose_full(parse_poly(text, 5)), "exact") + "\n"
    else:
        assert out.endswith("reconstruction: exact\n") and f"1/{d}*x1*u2" in out


@pytest.mark.parametrize("samples", ["0", "-3", str(cli.MAX_MC_SAMPLES + 1), str(10**11)])
def test_cli_rejects_out_of_range_mc_samples(samples, capsys):
    with pytest.raises(SystemExit) as err:
        main(["integrate", "--m", "5", "--poly", "x1^2", "--mc-samples", samples])
    assert err.value.code == 2
    stderr = capsys.readouterr().err
    assert "argument --mc-samples" in stderr and "Traceback" not in stderr


def test_cli_poly_starting_with_minus_needs_equals_form(capsys):
    assert main(["decompose", "--m", "5", "--poly=-x1*u1"]) == 0
    assert json.loads(capsys.readouterr().out)["input"] == "-x1*u1"
    with pytest.raises(SystemExit) as err:
        main(["decompose", "--m", "5", "--poly", "-x1*u1"])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert "argument --poly" in captured.err and "Traceback" not in captured.err


def test_cli_usage_error_exit_code():
    for argv in (["decompose", "--m", "5"], ["integrate", "--m", "5"]):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["integrate", "--m", "0", "--poly", "1", "--manifold", "sphere"],
        ["integrate", "--m", str(cli.MAX_M + 1), "--poly", "x1^2*u1^2"],
        ["decompose", "--m", str(cli.MAX_M + 1), "--poly", "x1*u1"],
        ["decompose", "--m", str(10**9), "--poly", "x1*u1"],
        ["verify", "--suite", "pizzetti", "--m", str(cli.MAX_M + 1)],
        ["verify", "--suite", "orthogonality", "--max-bidegree", "-1"],
        ["verify", "--suite", "pizzetti", "--max-bidegree", "-1"],
        ["verify", "--suite", "relations", "--m", "0"],
        ["verify", "--suite", "orthogonality", "--max-bidegree", str(cli.MAX_VERIFY_BIDEGREE + 1)],
        ["verify", "--suite", "ladder", "--m", str(cli.MAX_LADDER_M + 1)],
        ["verify", "--suite", "relations", "--max-bidegree", str(10**6)],
        ["integrate", "--m", "5", "--poly", "x1^2", "--mc-samples", "10", "--seed=-1"],
        ["integrate", "--m", "5", "--poly", "x1^2", "--mc-samples", "10", "--seed", str(2**64)],
        ["verify", "--suite", "orthogonality", "--m", "5", "--seed=-5"],
    ],
)
def test_cli_rejects_out_of_range_arguments(argv, capsys):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    stderr = capsys.readouterr().err
    assert "factorial()" not in stderr and "randrange()" not in stderr


# -- byte-stable output -----------------------------------------------------------

GOLDEN = Path(__file__).resolve().parent / "golden"


#: (name, argv) of every golden: tests/golden/<name>.json, or .txt for --format text.
GOLDEN_CASES = [
    ("decompose_x1u1_m5", ["decompose", "--m", "5", "--poly", "x1*u1"]),
    ("integrate_x1sq_m5", ["integrate", "--m", "5", "--poly", "x1^2"]),
    ("integrate_sphere_one_m4", ["integrate", "--m", "4", "--poly", "1", "--manifold", "sphere"]),
    ("verify_relations_m6", ["verify", "--suite", "relations", "--m", "6"]),
    (
        "decompose_mirrored_m5",
        ["decompose", "--m", "5", "--poly", "x1*u2^2 - 2/3*x2*u1*u3 + i*u1^3"],
    ),
    (
        "decompose_m6",
        ["decompose", "--m", "6", "--poly", "x1^2*u1^2 - u1*x2 + 3*x1*x2*u3^2"],
    ),
    ("decompose_zero_m5", ["decompose", "--m", "5", "--poly", "0"]),
    (
        "decompose_complex_m10",
        ["decompose", "--m", "10", "--poly", "(1/2-3/4*i)*x10^2*u9 + 7/3*x1*u10^2"],
    ),
    (
        "decompose_mirrored_m5_text",
        ["decompose", "--m", "5", "--poly", "x1*u2^2 - 2/3*x2*u1*u3 + i*u1^3", "--format", "text"],
    ),
    (
        "integrate_mc_x1sq_u2sq_m5",
        ["integrate", "--m", "5", "--poly", "x1^2*u2^2", "--mc-samples", "100000", "--seed", "3"],
    ),
    (
        "integrate_mc_m9",
        [
            "integrate", "--m", "9", "--poly", "x1^2*u1^2 - 3/2*x2*x3*u2*u3 + 4*x9^4 + 2",
            "--mc-samples", "70000", "--seed", "11",
        ],
    ),
    (
        "integrate_stiefel_m6",
        [
            "integrate", "--m", "6",
            "--poly", "x1^4*x2^2*u1^2*u3^4 - 3/2*x1^2*x2^2*u1^2*u2^2 + 5/7*x3^6*u3^6",
        ],
    ),
    ("verify_ladder_m5", ["verify", "--suite", "ladder", "--m", "5"]),
    ("verify_pizzetti_m5", ["verify", "--suite", "pizzetti", "--m", "5"]),
    ("verify_orthogonality_m5", ["verify", "--suite", "orthogonality", "--m", "5"]),
    ("verify_appendix_m5", ["verify", "--suite", "appendix", "--m", "5"]),
    (
        "integrate_mc_m64",
        ["integrate", "--m", "64", "--poly", "x1^2*u1^2 + x2^2*u3^2", "--mc-samples", "200000", "--seed", "1"],
    ),
]


def _golden(name, argv):
    suffix = ".txt" if "text" in argv else ".json"
    return (GOLDEN / f"{name}{suffix}").read_text(encoding="utf-8")


@pytest.mark.parametrize("name, argv", GOLDEN_CASES)
def test_cli_stdout_matches_golden(name, argv, capsys):
    assert main(argv) == 0
    assert capsys.readouterr().out == _golden(name, argv)


@pytest.mark.skipif(shutil.which("harmonic2v") is None, reason="no harmonic2v console script on PATH")
@pytest.mark.parametrize("name, argv", GOLDEN_CASES)
def test_installed_script_stdout_matches_golden(name, argv):
    run = subprocess.run(["harmonic2v", *argv], capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    assert run.stdout == _golden(name, argv)


#: Runs each argv of its first argument with stdout discarded, checking that
#: numpy is still not imported, then the argv of its second argument.
_NUMPY_CHECK = """
import contextlib, io, json, sys
from harmonic2v.cli import main
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0, argv
    assert "numpy" not in sys.modules, argv
assert main(json.loads(sys.argv[2])) == 0
assert "numpy" in sys.modules
"""


def test_cli_loads_numpy_only_for_monte_carlo():
    exact = [
        ["decompose", "--m", "5", "--poly", "x1*u1"],
        ["decompose", "--m", "5", "--poly", "x1*u1", "--format", "text"],
        ["integrate", "--m", "5", "--poly", "x1^2"],
        ["integrate", "--m", "4", "--poly", "1", "--manifold", "sphere"],
        ["verify", "--suite", "relations", "--m", "6"],
    ]
    mc = ["integrate", "--m", "5", "--poly", "x1^2*u2^2", "--mc-samples", "100000", "--seed", "3"]
    src = Path(__file__).resolve().parents[1] / "src"
    run = subprocess.run(
        [sys.executable, "-c", _NUMPY_CHECK, json.dumps(exact), json.dumps(mc)],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout == (GOLDEN / "integrate_mc_x1sq_u2sq_m5.json").read_text(encoding="utf-8")


@st.composite
def decompose_inputs(draw):
    """(m, p): m in 5..10, up to three terms of bidegree <= (3, 3) with
    Gaussian-rational coefficients; the zero polynomial included."""
    m = draw(st.integers(5, 10))
    data = {}
    for _ in range(draw(st.integers(0, 3))):
        xe = [0] * m
        ue = [0] * m
        for exps in (xe, ue):
            for _ in range(draw(st.integers(0, 3))):
                exps[draw(st.integers(0, m - 1))] += 1
        re = Fraction(draw(st.integers(-9, 9)), draw(st.integers(1, 12)))
        im = Fraction(draw(st.integers(-9, 9)), draw(st.integers(1, 12)))
        data[Monomial(tuple(xe), tuple(ue))] = GaussianRational(re, im)
    return m, Polynomial(m, data)


@settings(max_examples=30, deadline=None)
@given(decompose_inputs())
@example((5, Polynomial.zero(5)))
def test_decompose_stdout_matches_json_dumps(case):
    # the direct writer against json.dumps of the per-term document in tests/reference.py
    # and Polynomial.term_strings against str() of the Monomial / GaussianRational terms
    m, p = case
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["decompose", "--m", str(m), f"--poly={p}"]) == 0
    result = decompose_full(p)
    assert out.getvalue() == decomposition_json(result, "exact") + "\n"
    for q in [p] + [entry.component.harmonic for entry in result.entries]:
        assert list(q.term_strings()) == [(str(mono), str(coeff)) for mono, coeff in q.terms()]

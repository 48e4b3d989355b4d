import json
from pathlib import Path
from fractions import Fraction

import pytest

from harmonic2v import (
    GaussianRational,
    Polynomial,
    PolySyntaxError,
    VariableOutOfRange,
    parse_poly,
)
from harmonic2v.cli import main
from harmonic2v.poly import Monomial
from harmonic2v.sampling import random_polynomial, seeded

from conftest import poly


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
    with pytest.raises(PolySyntaxError) as err:
        parse_poly("x1 + ", 5)
    assert err.value.position == 5


def test_parse_rejects_trailing_garbage():
    with pytest.raises(PolySyntaxError):
        parse_poly("x1 x2", 5)


def test_parse_print_parse_fixed_point(rng):
    sampler = seeded(99)
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


def test_cli_decompose_strategies_agree(capsys):
    main(["decompose", "--m", "5", "--poly", "x1^2*u1^2 - u1*x2", "--strategy", "direct"])
    direct = capsys.readouterr().out
    main(["decompose", "--m", "5", "--poly", "x1^2*u1^2 - u1*x2", "--strategy", "sequential"])
    sequential = capsys.readouterr().out
    d, s = json.loads(direct), json.loads(sequential)
    assert d["components"] == s["components"]


def test_cli_decompose_text_format(capsys):
    code = main(["decompose", "--m", "5", "--poly", "x1*u1", "--format", "text"])
    out = capsys.readouterr().out
    assert code == 0
    assert "reconstruction: exact" in out


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


def test_cli_verify_ladder_vacuous(capsys):
    code = main(["verify", "--suite", "ladder", "--m", "5", "--max-bidegree", "0"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0 and out["passed"] is True


# -- error handling -----------------------------------------------------------------


def test_cli_parse_error_exit_code(capsys):
    code = main(["decompose", "--m", "5", "--poly", "x1 +"])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_cli_variable_range_exit_code(capsys):
    code = main(["integrate", "--m", "5", "--poly", "x9"])
    assert code == 2


def test_cli_usage_error_exit_code():
    with pytest.raises(SystemExit) as err:
        main(["decompose", "--m", "5"])
    assert err.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["integrate", "--m", "0", "--poly", "1", "--manifold", "sphere"],
        ["verify", "--suite", "orthogonality", "--max-bidegree", "-1"],
        ["verify", "--suite", "pizzetti", "--max-bidegree", "-1"],
        ["verify", "--suite", "relations", "--m", "0"],
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


@pytest.mark.parametrize(
    "name, argv",
    [
        ("decompose_x1u1_m5", ["decompose", "--m", "5", "--poly", "x1*u1"]),
        ("integrate_x1sq_m5", ["integrate", "--m", "5", "--poly", "x1^2"]),
        ("integrate_sphere_one_m4", ["integrate", "--m", "4", "--poly", "1", "--manifold", "sphere"]),
        ("verify_relations_m6", ["verify", "--suite", "relations", "--m", "6"]),
        (
            "decompose_mirrored_m5",
            ["decompose", "--m", "5", "--poly", "x1*u2^2 - 2/3*x2*u1*u3 + i*u1^3"],
        ),
        (
            "decompose_sequential_m6",
            [
                "decompose", "--m", "6", "--poly", "x1^2*u1^2 - u1*x2 + 3*x1*x2*u3^2",
                "--strategy", "sequential",
            ],
        ),
    ],
)
def test_cli_stdout_matches_golden(name, argv, capsys):
    assert main(argv) == 0
    assert capsys.readouterr().out == (GOLDEN / f"{name}.json").read_text(encoding="utf-8")

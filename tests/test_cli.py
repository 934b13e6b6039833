import contextlib
import hashlib
import io
import json
import math
import os
import resource
import shlex
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qweyl.cli import _parse_point_value, run


def _capture(capsys, argv):
    code = run(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------------------
# expression commands
# ---------------------------------------------------------------------------


def test_normalize(capsys):
    code, out, _ = _capture(capsys, ["normalize", "--n", "1", "d1*x1"])
    assert code == 0
    assert out.strip() == "1 + t*x1*d1"


def _readme_commands():
    """The commands of README's "Command line" block that print one
    expression, whose comment is then their whole output."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text(encoding="utf-8").split("\n## Command line\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    for line in block.splitlines():
        command, _, comment = line.partition("#")
        argv = shlex.split(command)
        if argv[1] in ("normalize", "qcomm", "poisson"):
            yield argv[1:], comment.strip()


def test_readme_commands_print_their_comments(capsys):
    commands = list(_readme_commands())
    assert [argv[0] for argv, _ in commands] == ["normalize", "normalize", "qcomm",
                                                 "poisson", "poisson"]
    for argv, want in commands:
        assert _capture(capsys, argv) == (0, want + "\n", ""), argv


def test_python_dash_m_runs_the_cli():
    import qweyl

    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(qweyl.__file__)))
    out = subprocess.run([sys.executable, "-m", "qweyl", "normalize", "--n", "1", "d1*x1"],
                         env=env, capture_output=True, text=True, timeout=60)
    assert out.returncode == 0
    assert out.stdout == "1 + t*x1*d1\n"


def test_normalize_specialized(capsys):
    code, out, _ = _capture(capsys, ["normalize", "--n", "1", "--l", "2", "d1*x1"])
    assert code == 0
    assert out.strip() == "1 - x1*d1"


def test_qcomm(capsys):
    code, out, _ = _capture(capsys, ["qcomm", "--n", "1", "d1", "x1"])
    assert code == 0
    assert out.strip() == "1"


@pytest.mark.parametrize("argv, want", [
    (["normalize", "--n", "1", "(1/2*t^-1*d1+2/3*x1*t^2)^6"],
     "(5/27*t^3 + 2/9*t^4 + 1/9*t^5 + 1/27*t^6) + (1/4 + 13/36*t + 1/3*t^2 + 7/36*t^3"
     " + 1/12*t^4 + 1/36*t^5)*d1^2 + (1/3*t^3 + 22/27*t^4 + 25/27*t^5 + 19/27*t^6"
     " + 10/27*t^7 + 4/27*t^8 + 1/27*t^9)*x1*d1 + (4/9*t^6 + 52/81*t^7 + 16/27*t^8"
     " + 28/81*t^9 + 4/27*t^10 + 4/81*t^11)*x1^2 + (5/48*t^-3 + 1/12*t^-2 + 1/16*t^-1"
     " + 1/24 + 1/48*t)*d1^4 + (5/36 + 1/4*t + 1/3*t^2 + 7/18*t^3 + 5/18*t^4 + 1/6*t^5"
     " + 1/12*t^6 + 1/36*t^7)*x1*d1^3 + (5/27*t^3 + 1/3*t^4 + 17/27*t^5 + 2/3*t^6"
     " + 2/3*t^7 + 4/9*t^8 + 7/27*t^9 + 1/9*t^10 + 1/27*t^11)*x1^2*d1^2 + (20/81*t^6"
     " + 4/9*t^7 + 16/27*t^8 + 56/81*t^9 + 40/81*t^10 + 8/27*t^11 + 4/27*t^12"
     " + 4/81*t^13)*x1^3*d1 + (80/243*t^9 + 64/243*t^10 + 16/81*t^11 + 32/243*t^12"
     " + 16/243*t^13)*x1^4 + 1/64*t^-6*d1^6 + (1/48*t^-3 + 1/48*t^-2 + 1/48*t^-1"
     " + 1/48 + 1/48*t + 1/48*t^2)*x1*d1^5 + (1/36 + 1/36*t + 1/18*t^2 + 1/18*t^3"
     " + 1/12*t^4 + 1/18*t^5 + 1/18*t^6 + 1/36*t^7 + 1/36*t^8)*x1^2*d1^4 + (1/27*t^3"
     " + 1/27*t^4 + 2/27*t^5 + 1/9*t^6 + 1/9*t^7 + 1/9*t^8 + 1/9*t^9 + 2/27*t^10"
     " + 1/27*t^11 + 1/27*t^12)*x1^3*d1^3 + (4/81*t^6 + 4/81*t^7 + 8/81*t^8 + 8/81*t^9"
     " + 4/27*t^10 + 8/81*t^11 + 8/81*t^12 + 4/81*t^13 + 4/81*t^14)*x1^4*d1^2"
     " + (16/243*t^9 + 16/243*t^10 + 16/243*t^11 + 16/243*t^12 + 16/243*t^13"
     " + 16/243*t^14)*x1^5*d1 + 64/729*t^12*x1^6\n"),
    (["normalize", "--n", "1", "t^-3*(d1+t*x1)^4"],
     "(2*t^-1 + 1) + (3*t^-2 + 2*t^-1 + 1)*d1^2 + (3*t^-1 + 5 + 3*t + t^2)*x1*d1 + (3"
     " + 2*t + t^2)*x1^2 + t^-3*d1^4 + (t^-2 + t^-1 + 1 + t)*x1*d1^3 + (t^-1 + 1 + 2*t"
     " + t^2 + t^3)*x1^2*d1^2 + (1 + t + t^2 + t^3)*x1^3*d1 + t*x1^4\n"),
    (["normalize", "--n", "1", "(2*t)^-2*x1"],
     "1/4*t^-2*x1\n"),
    (["normalize", "--n", "1", "t^-99999999999"],
     "t^-99999999999\n"),
    (["normalize", "--n", "1", "f^3"],
     "1 + (-1 + t^3)*x1*d1 + (t - t^2 - t^4 + t^5)*x1^2*d1^2 + (-t^3 + 3*t^4 - 3*t^5"
     " + t^6)*x1^3*d1^3\n"),
    (["qcomm", "--n", "2", "(d1+x2)^2", "(x1+t*d2)^2"],
     "(1 + t - t^3 - t^4) + (2*t + 2*t^2 - 2*t^3 - 2*t^4)*d1*d2"
     " + (4*t - t^4 - 2*t^5 - t^6)*x2*d2 + (t - 2*t^2 + t^3)*x1*d1 + (2"
     " + 2*t - 2*t^2 - 2*t^3)*x1*x2 + (t^2 - t^3)*d1^2*d2^2"
     " + (2*t^2 - 2*t^5)*x2*d1*d2^2 + (t^2 - t^7)*x2^2*d2^2 + (-2*t^2"
     " + 2*t^3)*x1*d1^2*d2 + (4*t^2 - 4*t^3)*x1*x2*d1*d2 + (2*t - 2*t^4)*x1*x2^2*d2"
     " + (-t + t^4)*x1^2*d1^2 + (-2*t + 2*t^2)*x1^2*x2*d1 + (1 - t)*x1^2*x2^2\n"),
    (["normalize", "--n", "1", "t^99999999999"], "t^99999999999\n"),
    (["normalize", "--n", "1", "--l", "3", "q^99999999999999"], "1\n"),
    (["normalize", "--n", "1", "x1^500"], "x1^500\n"),
], ids=["laurent-fraction-power", "t-power-times-power", "inverse-power", "far-monomial",
        "f-cubed", "qcomm-n2", "far-power", "far-root-power", "x-power"])
def test_symbolic_commands_print_the_pinned_output(capsys, argv, want):
    # Laurent coefficients with negative exponents, fractions, far exponents
    # and cancellations, printed byte for byte
    assert _capture(capsys, argv) == (0, want, "")


def test_parse_error_is_exit_2(capsys):
    code, _, err = _capture(capsys, ["normalize", "--n", "1", "d1*)x1"])
    assert code == 2
    assert "position" in err


def test_flag_error_is_exit_2(capsys):
    code, _, _ = _capture(capsys, ["normalize", "d1"])
    assert code == 2


def test_power_over_degree_guard_is_exit_2(capsys):
    code, out, err = _capture(capsys, ["normalize", "--n", "1", "x1^513"])
    assert code == 2
    assert not out
    assert "power of degree 513 exceeds the guard 512" in err
    assert _capture(capsys, ["normalize", "--n", "1", "x1^512"]) == (0, "x1^512\n", "")


def test_power_over_cost_guard_is_exit_2_before_work(capsys):
    # Degree 120 passes the degree guard; the power would run for minutes.
    start = time.perf_counter()
    code, out, err = _capture(capsys, ["normalize", "--n", "1", "(d1+x1)^60"])
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert not out
    assert "estimated cost" in err and "exceeds the guard" in err


def test_poisson_center_syntax(capsys):
    assert _capture(capsys, ["poisson", "--n", "1", "--l", "2", "r1", "s1"]) == (
        0, "1 - 4*r1*s1\n", "")
    assert _capture(capsys, ["poisson", "--n", "1", "--l", "3", "r1^2", "s1^2 + r1"]) == (
        0, "4*r1*s1 + (12 + 24*q)*r1^2*s1^2\n", "")


def test_poisson_weyl_syntax(capsys):
    assert _capture(capsys, ["poisson", "--n", "1", "--l", "2", "d1^2", "x1^2"]) == (
        0, "1 - 4*x1^2*d1^2\n", "")
    assert _capture(capsys, ["poisson", "--n", "1", "--l", "5", "d1^5", "x1^5"]) == (
        0, "1 + (5 + 10*q - 5*q^2 + 15*q^3)*x1^5*d1^5\n", "")


def test_poisson_non_central_is_exit_1(capsys):
    assert _capture(capsys, ["poisson", "--n", "1", "--l", "3", "d1", "x1^3"]) == (
        1, "", "error: first bracket argument is not central\n")
    assert _capture(capsys, ["poisson", "--n", "1", "--l", "3", "x1^3", "d1"]) == (
        1, "", "error: second bracket argument is not central\n")


def test_center_check(capsys):
    assert _capture(capsys, ["center-check", "--l", "3", "x1^3*d1^3"]) == (
        0, '{\n  "central": true,\n  "decomposition": "r1*s1",\n  "l": 3,\n  "schema": 1\n}\n',
        "")
    for level, expr, reason in [
        (3, "x1", "monomial x^[1] d^[0] has an exponent not divisible by 3"),
        (4, "x1^2*d1^2", "monomial x^[2] d^[2] has an exponent not divisible by 4"),
    ]:
        assert _capture(capsys, ["center-check", "--l", str(level), expr]) == (
            1, f'{{\n  "central": false,\n  "l": {level},\n  "reason": "{reason}",\n'
               '  "schema": 1\n}\n', "")
    assert _capture(capsys, ["center-check", "--l", "1", "x1"]) == (
        2, "", "error: need a root-of-unity context of level >= 2\n")


# ---------------------------------------------------------------------------
# locus and representation commands
# ---------------------------------------------------------------------------


def test_azumaya_boundary(capsys):
    code, out, _ = _capture(capsys, ["azumaya", "--l", "2", "--a", "1", "--b", "1/4"])
    assert code == 0
    assert json.loads(out)["azumaya"] is False


def test_azumaya_with_burnside(capsys):
    code, out, _ = _capture(
        capsys, ["azumaya", "--l", "2", "--a", "1", "--b", "1", "--burnside"]
    )
    assert code == 0
    blob = json.loads(out)
    assert blob["azumaya"] is True
    assert blob["burnside"] == {"rank": 4, "full": True, "agrees": True}


def test_rep_json(capsys):
    code, out, _ = _capture(capsys, ["rep", "--l", "2", "--a", "1", "--b", "1"])
    assert code == 0
    blob = json.loads(out)
    assert blob["exact"] is True
    assert blob["X"][0][0]["exact"] == "1"
    assert blob["X"][1][1]["exact"] == "-1"
    assert len(blob["Y"]) == 2


def test_rep_numeric_zeros_are_positive(capsys):
    # 2 has no rational cube root, so the point takes the complex fallback,
    # which takes its zero from the field of q as one - one, +0.0; a zero
    # formed as q * 0 can carry -0.0.
    code, out, _ = _capture(capsys, ["rep", "--l", "3", "--a", "0", "--b", "2"])
    assert code == 0
    blob = json.loads(out)
    assert blob["exact"] is False
    parts = [c for m in ("X", "Y") for row in blob[m] for v in row for c in v["approx"]]
    assert parts.count(0.0) == 2 * 9 + 3  # nine zero entries and three real ones
    assert all(math.copysign(1.0, c) == 1.0 for c in parts if c == 0.0)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("command", [["rep", "--l", "2"], ["azumaya", "--l", "3"],
                                     ["azumaya", "--l", "3", "--burnside"]])
def test_non_finite_point_value_is_exit_2(capsys, command, value):
    code, out, err = _capture(capsys, command + [f"--a={value}", "--b", "1"])
    assert code == 2
    assert not out
    assert "not a finite number" in err


@pytest.mark.parametrize("argv", [
    ["rep", "--l", "3", "--a", "10^400", "--b", "1"],
    ["rep", "--l", "2", "--a", "10^700", "--b", "1"],
    ["rep", "--l", "3", "--a", "0", "--b", "10^400"],
    ["rep", "--l", "3", "--a", "1.0", "--b", "10^400"],
    ["rep", "--l", "3", "--a", "1e999", "--b", "1"],
    ["rep", "--l", "2", "--a", "1e999", "--b", "1"],
])
def test_point_too_large_for_a_double_is_exit_2(capsys, argv):
    # 10^400 has no rational cube root and no double near it; the exact
    # square root 10^350 of 10^700 has no double approximation to print,
    # nor has the band corner of the exact rep at a = 1, b = 10^400.  The
    # decimal 1e999 is the exact 10^999: its exact cube root 10^333 has no
    # double, and it has no rational square root.
    code, out, err = _capture(capsys, argv)
    assert code == 2
    assert not out
    assert "too large" in err


def test_burnside_ranks_a_point_too_large_for_a_double(capsys):
    # the Burnside rank takes no l-th root, so it stays exact
    code, out, _ = _capture(capsys, ["azumaya", "--l", "3", "--a", "10^400", "--b", "1",
                                     "--burnside"])
    assert code == 0
    assert json.loads(out)["burnside"] == {"rank": 9, "full": True, "agrees": True}


@pytest.mark.parametrize("argv", [
    ["azumaya", "--l", "3", "--a", "10^400", "--b", "1.0"],
    ["azumaya", "--l", "3", "--a", "1.0", "--b", "10^400", "--burnside"],
    ["azumaya", "--l", "3", "--a", "1e999", "--b", "1"],
    ["azumaya", "--l", "3", "--a", "1e999", "--b", "1", "--burnside"],
])
def test_decimal_points_are_exact_past_the_double_range(capsys, argv):
    code, out, _ = _capture(capsys, argv)
    assert code == 0
    blob = json.loads(out)
    assert blob["azumaya"] is True
    assert blob.get("burnside", {"full": True})["full"] is True


@pytest.mark.parametrize("text, value", [
    ("1.0", 1), (".5", Fraction(1, 2)), ("2.5e3", 2500), ("-0.0", 0),
    (" -1.25E-2 ", Fraction(-1, 80)), ("1e-401", Fraction(1, 10 ** 401)),
])
def test_decimal_point_value_is_the_rational_of_its_text(text, value):
    assert _parse_point_value(text, 3) == value


@pytest.mark.parametrize("value", ["10^-401", "1e-401"])
def test_point_too_small_for_a_double_is_exit_2(capsys, value):
    # no rational square root: the fallback would embed a as 0 and print the
    # representation of another point
    assert _capture(capsys, ["rep", "--l", "2", f"--a={value}", "--b", "1"]) == (
        2, "", "error: no exact 2-th root is stored, and the point is too small for the"
               " complex fallback\n")


def test_exact_cube_of_a_wide_integer_stays_exact(capsys):
    code, out, _ = _capture(capsys, ["rep", "--l", "3", "--a", "(2^60+12345)^3", "--b", "1"])
    assert code == 0
    blob = json.loads(out)
    assert blob["exact"] is True
    assert blob["X"][0][0]["exact"] == str(2 ** 60 + 12345)


def test_exact_burnside_above_the_bound_is_exit_2(capsys):
    # refused before any work
    code, out, err = _capture(
        capsys, ["azumaya", "--l", "23", "--a", "1", "--b", "1", "--burnside"]
    )
    assert code == 2
    assert not out
    assert "limited to l <= 19" in err
    code, out, _ = _capture(
        capsys, ["azumaya", "--l", "11", "--a", "1.0", "--b", "1", "--burnside"]
    )
    assert code == 0
    assert json.loads(out)["burnside"] == {"rank": 121, "full": True, "agrees": True}


def test_decimal_burnside_ranks_exactly(capsys):
    # 1.0 is the exact 1, so its rank is exact up to the exact bound
    code, out, _ = _capture(
        capsys, ["azumaya", "--l", "13", "--a", "1.0", "--b", "1", "--burnside"]
    )
    assert code == 0
    assert json.loads(out)["burnside"] == {"rank": 169, "full": True, "agrees": True}


# ---------------------------------------------------------------------------
# endomorphism pipeline
# ---------------------------------------------------------------------------


def test_lift_validate_hat_roundtrip(tmp_path, capsys):
    code, out, _ = _capture(capsys, ["lift", "--kind", "phi", "--poly", "1"])
    assert code == 0
    descriptor = json.loads(out)
    assert descriptor["images_x"] == ["x1"]
    assert descriptor["images_d"] == ["1 + d1 + (-1 + t)*x1*d1"]

    path = tmp_path / "endo.json"
    path.write_text(out)

    code, out, _ = _capture(capsys, ["validate", str(path)])
    assert code == 0
    assert json.loads(out)["valid"] is True

    code, out, _ = _capture(
        capsys,
        ["hat", str(path), "--primes", "3,5,7,11,13,17,19,23", "--poly", "r1"],
    )
    assert code == 0
    blob = json.loads(out)
    assert blob["verdict"] == "converged"
    assert blob["limit"]["expr"] == "1 + r1"


def test_hat_past_the_cost_guard_is_exit_2(tmp_path, capsys):
    # r1 under lift_phi(x1^2) raises the image of d1 in the torus, whose
    # chain estimates 32.1M at l = 89, against the limit of 25M; it is
    # refused before any level runs.  s1 maps to x1^l, whose chain is cheap,
    # so --poly s1 runs at the same levels.
    code, out, _ = _capture(capsys, ["lift", "--kind", "phi", "--poly", "x1^2"])
    path = tmp_path / "endo.json"
    path.write_text(out)
    start = time.perf_counter()
    code, out, err = _capture(capsys, ["hat", str(path), "--primes", "79,83,89"])
    assert time.perf_counter() - start < 2
    assert code == 2
    assert not out
    assert err == ("error: torus power chain of the image of d1 at level 89 of estimated "
                   "cost 32072040 exceeds the guard 25000000\n")
    code, out, _ = _capture(capsys, ["hat", str(path), "--primes", "79,83,89", "--poly", "s1"])
    assert code == 0
    assert json.loads(out)["limit"]["expr"] == "s1"


def test_hat_of_a_power_of_r1_prints_the_parents_bytes(tmp_path, capsys):
    # hat_step raises the central power of d1 to the 10th by the routine of
    # CenterPoly.__pow__; the report is the one binary powering printed
    # (sha256 of its 111,839 bytes), and the schedule diverges
    code, out, _ = _capture(capsys, ["lift", "--kind", "phi", "--poly", "x1^2"])
    path = tmp_path / "sq.json"
    path.write_text(out)
    code, out, err = _capture(capsys, ["hat", str(path), "--poly", "r1^10", "--primes", "2,3,4"])
    assert (code, err, len(out)) == (1, "", 111839)
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "5d519877275443362f9bebd5b1e5857a561a8779c164d859e2a1db533d362104")


def test_validate_invalid_map(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "n": 1, "param": "t", "images_x": ["x1"], "images_d": ["d1 + x1"],
    }))
    code, out, _ = _capture(capsys, ["validate", str(path)])
    assert code == 1
    blob = json.loads(out)
    assert blob["valid"] is False
    assert blob["violations"][0]["residual"] == "(1 - t)*x1^2"
    # hat refuses the map before it reads --primes
    assert _capture(capsys, ["hat", str(path), "--primes", "not levels"]) == (
        1, '{\n  "error": "endomorphism failed validation",\n  "schema": 1\n}\n', "")


_GOOD = {"n": 1, "param": "t", "images_x": ["x1"], "images_d": ["d1"]}


@pytest.mark.parametrize("command", ["validate", "hat"])
@pytest.mark.parametrize("descriptor, field", [
    ({"n": 1}, "images_x"),
    ([1], "object"),
    (None, "object"),
    ({**_GOOD, "param": {"q": 3}}, "param"),
    ({**_GOOD, "param": {"l": 0}}, "param"),
    ({**_GOOD, "param": "s"}, "param"),
    ({k: v for k, v in _GOOD.items() if k != "n"}, "'n'"),
    ({**_GOOD, "n": "1"}, "'n'"),
    ({**_GOOD, "n": True}, "'n'"),
    ({**_GOOD, "n": 0}, "'n'"),
    ({**_GOOD, "images_d": "d1"}, "images_d"),
    ({**_GOOD, "images_x": [1]}, "images_x"),
    ({**_GOOD, "n": 2}, "images_x"),
])
def test_malformed_descriptor_is_exit_2(tmp_path, capsys, command, descriptor, field):
    path = tmp_path / "endo.json"
    path.write_text(json.dumps(descriptor))
    code, out, err = _capture(capsys, [command, str(path)])
    assert code == 2
    assert out == ""
    assert err.startswith("error: descriptor") and field in err


def test_deeply_nested_descriptor_is_exit_2(tmp_path, capsys):
    path = tmp_path / "endo.json"
    path.write_text("[" * 100000 + "]" * 100000)
    code, out, err = _capture(capsys, ["validate", str(path)])
    assert code == 2
    assert out == "" and "nested too deeply" in err


def test_transport(capsys):
    code, out, _ = _capture(
        capsys, ["transport", "--n", "1", "r1", "s1", "--primes", "3,5,7,11,13,17,19,23"]
    )
    assert code == 0
    blob = json.loads(out)
    assert blob["verdict"] == "converged"
    assert blob["matches_standard"] is True
    assert blob["limit"]["expr"] == "1"


def _run_in_1gib_child(argv):
    """Run python -m qweyl with argv in a child that may map 1 GiB, so an
    unguarded run fails instead of taking the machine's memory; returns the
    wall time and the completed process."""
    import qweyl

    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(qweyl.__file__)))
    limit = lambda: resource.setrlimit(resource.RLIMIT_AS, (2 ** 30, 2 ** 30))
    start = time.perf_counter()
    out = subprocess.run([sys.executable, "-m", "qweyl", *argv], env=env, capture_output=True,
                         text=True, timeout=60, preexec_fn=limit)
    return time.perf_counter() - start, out


# the sr coefficient of the bracket {r1, s1} at levels 3, 5 and 7, exact and
# the imaginary part of its embedding
_SR = ((3, "3 + 6*q", 5.196152422706632),
       (5, "5 + 10*q - 5*q^2 + 15*q^3", -2.2451398828979268),
       (7, "7 + 14*q - 14*q^2 + 42*q^3 - 28*q^4 + 28*q^5", 0.3705301811448943))


def _diverged_report(poly, standard, coeffs):
    """The diverged report of transport --primes 3,5,7 of poly, whose
    bracket has at levels 3, 5 and 7 the coeffs (monomial, exact, approx)
    of each level in turn; the last monomial is the witness."""
    primes = [{"centrality": True, "l": level, "coeffs": [
        {"approx": approx, "exact": exact, "monomial": mono} for mono, exact, approx in entries
    ]} for level, entries in zip((3, 5, 7), coeffs)]
    report = {
        "limit": None, "matches_standard": None, "poly": poly, "primes": primes,
        "schema": 1, "standard": standard, "verdict": "diverged",
        "witness": coeffs[0][-1][0],
        "tolerances": {"eps_conv": 1e-06, "eps_kill": 1e-09, "max_round_den": 64,
                       "round_tol": 1e-06},
    }
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def _diverged_transport_stdout(poly, standard, s, noise):
    """The report of transport --primes 3,5,7 of poly and s1, whose bracket
    at level l is s1^s + sr_l r1 s1^(s + 1).  noise holds the real parts of
    the embedded sr_5 and sr_7, which cancel to about 1e-22."""
    return _diverged_report(poly, standard, [
        [([[0], [s]], "1", [1.0, 0.0]), ([[1], [s + 1]], exact, [real, imag])]
        for (level, exact, imag), real in zip(_SR, (0.0, *noise))])


# {r1^2, s1^2} = 4 r1 s1 + 4 sr_l r1^2 s1^2 and {r1*s1^2, r1^2} is
# -4 r1^2 s1 - 4 sr_l r1^3 s1^2, both through the row d^(2l) x^(2l);
# {s1^2, r1} = -2 s1 - 2 sr_l r1 s1^2 goes through d^l x^(2l)
_R2_S2 = [[([[1], [1]], "4", [4.0, 0.0]), ([[2], [2]], exact, approx)] for exact, approx in (
    ("12 + 24*q", [0.0, 20.784609690826528]),
    ("20 + 40*q - 20*q^2 + 60*q^3", [2.3822801641527197e-22, -8.980559531591707]),
    ("28 + 56*q - 56*q^2 + 168*q^3 - 112*q^4 + 112*q^5", [2.812414082680294e-22, 1.482120724579577]))]
_R1S2_R2 = [[([[2], [1]], "-4", [-4.0, 0.0]), ([[3], [2]], exact, approx)] for exact, approx in (
    ("-12 - 24*q", [0.0, -20.784609690826528]),
    ("-20 - 40*q + 20*q^2 - 60*q^3", [-2.514629062161204e-22, 8.980559531591707]),
    ("-28 - 56*q + 56*q^2 - 168*q^3 + 112*q^4 - 112*q^5",
     [-2.746239633676052e-22, -1.482120724579577]))]
_S2_R1 = [[([[0], [1]], "-2", [-2.0, 0.0]), ([[1], [2]], exact, approx)] for exact, approx in (
    ("-6 - 12*q", [0.0, -10.392304845413264]),
    ("-10 - 20*q + 10*q^2 - 30*q^3", [-4.499862532288471e-22, 4.4902797657958535]),
    ("-14 - 28*q + 28*q^2 - 84*q^3 + 56*q^4 - 56*q^5",
     [1.852884572118782e-22, -0.7410603622897886]))]


@pytest.mark.parametrize("argv, want", [
    (["transport", "--n", "1", "r1", "s1", "--primes", "3,5,7"],
     (1, _diverged_transport_stdout("r1", "1", 0, (2.117582368135751e-22, 3.044024654195142e-22)),
      "")),
    (["transport", "--n", "1", "r1*s1", "s1", "--primes", "3,5,7"],
     (1, _diverged_transport_stdout("r1*s1", "s1", 1,
                                    (2.117582368135751e-22, 3.044024654195142e-22)), "")),
    (["poisson", "--n", "2", "--l", "4", "r1*s2 + r2", "s1^2*r2 + s2"],
     (0, "1 + 4*r2*s2 + 2*r2*s1*s2 - r1*s1^2 + 4*r1*r2*s1^2*s2\n", "")),
    (["transport", "--n", "1", "r1^2", "s1^2", "--primes", "3,5,7"],
     (1, _diverged_report("r1^2", "4*r1*s1", _R2_S2), "")),
    (["transport", "--n", "1", "r1*s1^2", "r1^2", "--primes", "3,5,7"],
     (1, _diverged_report("r1*s1^2", "-4*r1^2*s1", _R1S2_R2), "")),
    (["transport", "--n", "1", "s1^2", "r1", "--primes", "3,5,7"],
     (1, _diverged_report("s1^2", "-2*s1", _S2_R1), "")),
], ids=["transport-r1-s1", "transport-r1s1-s1", "poisson-n2-l4", "transport-r1sq-s1sq",
        "transport-r1s1sq-r1sq", "transport-s1sq-r1"])
def test_bracket_commands_print_the_pinned_output(argv, want):
    # exit code, stdout and stderr byte for byte, in a fresh process
    _, out = _run_in_1gib_child(argv)
    assert (out.returncode, out.stdout, out.stderr) == want


def test_a_command_after_another_prints_the_bytes_of_a_fresh_process(capsys):
    # embeddings depend on the value alone, not on what the process embedded
    # before
    argv = ["transport", "--n", "1", "r1*s1", "s1", "--primes", "3,5,7"]
    _, fresh = _run_in_1gib_child(argv)
    _capture(capsys, ["transport", "--n", "1", "r1", "s1"])
    assert _capture(capsys, argv) == (fresh.returncode, fresh.stdout, fresh.stderr)


@pytest.mark.parametrize("argv", [
    ["transport", "--n", "1", "r1^9999", "s1"],
    ["transport", "--n", "1", "r1", "s1", "--primes", "3,5,257"],
])
def test_transport_over_degree_guard_is_exit_2_before_work(argv):
    # l * (deg p + deg q) is 31 * 10000 and 257 * 2, over 512: the first
    # would build Gauss-binomial rows to a d-exponent of 9999 * 31.
    seconds, out = _run_in_1gib_child(argv)
    assert seconds < 1.0
    assert out.returncode == 2
    assert not out.stdout
    assert "exceeds the guard 512" in out.stderr


@pytest.mark.parametrize("argv", [
    ["normalize", "--n", "1", "--l", "1000000007", "x1"],
    ["transport", "--n", "1", "1", "2", "--primes", "3,5,1000000007"],
    ["transport", "--n", "1", "r1", "s1", "--primes", "3,5,1000000007"],
])
def test_level_over_bound_is_exit_2_before_work(argv):
    # Phi_l of l = 1000000007 would be a table of 10**9 coefficients; the
    # constants 1 and 2 pass the transport degree guard.
    seconds, out = _run_in_1gib_child(argv)
    assert seconds < 1.0
    assert (out.returncode, out.stdout, out.stderr) == (
        2, "", "error: level 1000000007 exceeds the level bound 65536\n")


@pytest.mark.parametrize("argv", [
    ["normalize", "--n", "99999999", "x1"],
    ["center-check", "--n", "99999999", "--l", "3", "1"],
    ["transport", "--n", "99999999", "r1", "s1"],
])
def test_pair_count_over_bound_is_exit_2_before_work(argv):
    # every monomial holds 2n exponents: n = 10^8 would build tuples of
    # 10^8 zeros before any arithmetic
    seconds, out = _run_in_1gib_child(argv)
    assert seconds < 1.0
    assert (out.returncode, out.stdout, out.stderr) == (
        2, "", "error: n = 99999999 exceeds the pair bound 4096\n")


@pytest.mark.parametrize("k", [5000, 99999])
def test_scalar_power_over_cost_guard_is_exit_2_before_work(k):
    # (1+t)^k is one term of degree 0, raised in closed form by the power
    # of its coefficient, whose estimated cost is k*(k+1): 2000 passes
    seconds, out = _run_in_1gib_child(["normalize", "--n", "1", f"(1+t)^{k}"])
    assert seconds < 1.0
    assert (out.returncode, out.stdout, out.stderr) == (
        2, "", f"error: power of estimated cost {k * (k + 1)} exceeds the guard 25000000"
               " (at position 5)\n")


@pytest.mark.parametrize("argv, bits", [
    (["normalize", "--n", "1", "3^30000000"], 60000000),
    (["normalize", "--n", "1", "(1/3)^-100000000"], 200000000),
    (["normalize", "--n", "1", "--l", "5", "(2 + q)^10000000"], 20000000),
    (["azumaya", "--l", "3", "--a", "10^10000000", "--b", "1"], 40000000),
    (["transport", "--n", "1", "3^30000000", "s1"], 60000000),
    (["transport", "--n", "1", "(1/3)^-100000000*r1", "s1"], 200000000),
])
def test_scalar_power_over_height_bound_is_exit_2_before_work(argv, bits):
    seconds, out = _run_in_1gib_child(argv)
    assert seconds < 1.0
    assert (out.returncode, out.stdout) == (2, "")
    assert out.stderr == (f"error: scalar power of estimated height {bits} bits exceeds the"
                          " height bound 2097152\n")


def test_decimal_exponent_over_height_bound_is_exit_2_before_work():
    seconds, out = _run_in_1gib_child(["azumaya", "--l", "3", "--a", "1e-99999999", "--b", "1"])
    assert seconds < 1.0
    assert (out.returncode, out.stdout, out.stderr) == (
        2, "", "error: scalar power of estimated height 399999996 bits exceeds the height"
               " bound 2097152\n")


def test_scalar_power_under_height_bound_runs(capsys):
    # 3^1000000 is estimated at 2 * 10^6 bits, under 2^21
    assert _capture(capsys, ["normalize", "--n", "1", "3^1000000 - 3^1000000 + x1"]) == (
        0, "x1\n", "")


@pytest.mark.parametrize("argv, message", [
    (["azumaya", "--l", "60000", "--a", "1", "--b", "1"],
     "error: the Azumaya test is limited to l <= 2048\n"),
    (["rep", "--l", "400", "--a", "1", "--b", "1"],
     "error: representations are limited to l <= 128\n"),
])
def test_level_over_command_bound_is_exit_2_before_work(argv, message):
    seconds, out = _run_in_1gib_child(argv)
    assert seconds < 1.0
    assert (out.returncode, out.stdout, out.stderr) == (2, "", message)


def test_levels_at_the_command_bounds_answer(capsys):
    code, out, _ = _capture(capsys, ["azumaya", "--l", "1009", "--a", "1", "--b", "1"])
    assert (code, json.loads(out)["azumaya"]) == (0, True)
    code, out, _ = _capture(capsys, ["rep", "--l", "128", "--a", "1", "--b", "1"])
    assert (code, len(json.loads(out)["X"])) == (0, 128)


def test_laurent_span_over_bound_is_exit_2_before_work():
    # a Laurent polynomial is a dense vector from its lowest exponent up
    seconds, out = _run_in_1gib_child(["normalize", "--n", "1", "t^99999999999 + 1"])
    assert seconds < 1.0
    assert (out.returncode, out.stdout, out.stderr) == (
        2, "", "error: a Laurent polynomial spanning 100000000000 powers of t exceeds"
               " the span bound 16777216\n")


def test_one_coordinate_inverse_at_a_high_level_is_closed_form():
    # q^-1 = q^(l-1) = -(1 + q + ... + q^(l-2)) at the prime l = 65521; as a
    # product of the 65519 other conjugates it ran past 35 s
    seconds, out = _run_in_1gib_child(["normalize", "--n", "1", "--l", "65521", "q^-1"])
    assert seconds < 2.0
    want = "(-1 - q - " + " - ".join(f"q^{e}" for e in range(2, 65520)) + ")\n"
    assert (out.returncode, out.stdout, out.stderr) == (0, want, "")


@pytest.mark.parametrize("argv, message", [
    (["normalize", "--n", "1", "--l", "509", "(1-q+2*q^3)^-1"],
     "cyclotomic inverse of estimated cost 298507919112 exceeds the guard 100000000000"
     " (at position 11)"),
    (["transport", "--n", "1", "(r1+1)^100000", "s1", "--primes", "3,5,7"],
     "polynomial power of estimated cost 20000200000 exceeds the guard 1000000"
     " (at position 6)"),
])
def test_inverse_and_center_power_over_cost_guard_are_exit_2_before_work(argv, message):
    # the conjugate product took 4.1 s at l = 509, and (r1+1)^100000 ran
    # past 15 s; its coefficients are 1, so the height bound passes it
    seconds, out = _run_in_1gib_child(argv)
    assert seconds < 1.0
    assert (out.returncode, out.stdout, out.stderr) == (2, "", f"error: {message}\n")


def test_json_output_deterministic(capsys):
    code1, out1, _ = _capture(capsys, ["rep", "--l", "3", "--a", "1", "--b", "2"])
    code2, out2, _ = _capture(capsys, ["rep", "--l", "3", "--a", "1", "--b", "2"])
    assert code1 == code2 == 0
    assert out1 == out2


def test_sweep_single_criterion(capsys):
    code, out, _ = _capture(capsys, ["sweep", "--only", "1"])
    assert code == 0
    assert "[PASS]" in out and "pbw-ring-axioms" in out


# ---------------------------------------------------------------------------
# fuzz: every input exits 0, 1 or 2 and no exception escapes
# ---------------------------------------------------------------------------

_WEYL_ATOMS = ["x1", "d1", "x2", "d2", "t", "q", "f", "f1", "0", "1", "2", "1/2"]
_CENTER_ATOMS = ["r1", "s1", "r2", "s2", "0", "1", "2", "1/2"]


def _expressions(atoms):
    """Well-formed sums of products and small powers, which reach the algebra,
    mixed with token soup, which tests the parser's errors."""
    factor = st.one_of(
        st.sampled_from(atoms),
        st.tuples(st.sampled_from(atoms), st.sampled_from(["2", "3", "-1"])).map("^".join),
    )
    term = st.lists(factor, min_size=1, max_size=3).map("*".join)
    signed = st.tuples(st.sampled_from([" + ", " - "]), term).map("".join)
    total = st.tuples(term, st.lists(signed, max_size=2).map("".join)).map("".join)
    power = st.tuples(st.lists(st.sampled_from(atoms), min_size=1, max_size=3),
                      st.integers(0, 3)).map(lambda p: f"({' + '.join(p[0])})^{p[1]}")
    soup = st.lists(st.sampled_from(atoms + ["(", ")", "+", "-", "*", "^", ".", "%"]),
                    max_size=8).map(" ".join)
    return st.one_of(total, power, soup)


_EXPR = _expressions(_WEYL_ATOMS)
_CENTER = _expressions(_CENTER_ATOMS)
_SCALAR = st.one_of(_expressions(["q", "t", "0", "1", "2", "1/2"]),
                    st.sampled_from(["0.5", "-1.5", "nan", "inf", "-inf", "1e999", "1e-401",
                                     ".5", "2.5e3", "-0.0"]))
_N = st.sampled_from(["1", "2", "0"])
_L = st.integers(0, 7).map(str)
_PRIMES = st.sampled_from(["3,5,7", "3,5,7,11", "3,5", "5,3,7", "2,3,5", "4,6,8", "3,x", ""])
_POINT = st.lists(_SCALAR, min_size=1, max_size=2).map(",".join)
_JSON_LEAF = st.one_of(st.none(), st.booleans(), st.integers(-1, 3), _EXPR)
_VALID_DESCRIPTORS = [
    {"n": 1, "param": "t", "images_x": ["x1"], "images_d": ["d1"]},
    {"n": 1, "param": "t", "images_x": ["x1"], "images_d": ["d1 + x1^2 + (-1 + t)*x1^3*d1"]},
    {"n": 1, "param": {"l": 5}, "images_x": ["x1"], "images_d": ["d1 + 1"]},
    {"n": 2, "param": "t", "images_x": ["x2", "x1"], "images_d": ["d2", "d1"]},
]
_DESCRIPTOR = st.one_of(
    st.sampled_from(_VALID_DESCRIPTORS),
    st.fixed_dictionaries({}, optional={
        "n": st.one_of(st.integers(-1, 2), _JSON_LEAF),
        "param": st.one_of(st.just("t"), st.fixed_dictionaries({"l": st.integers(-1, 7)}),
                           st.fixed_dictionaries({"q": st.integers(0, 3)}), _JSON_LEAF),
        "images_x": st.one_of(st.lists(_EXPR, max_size=2), _JSON_LEAF),
        "images_d": st.one_of(st.lists(_EXPR, max_size=2), _JSON_LEAF),
    }),
    _JSON_LEAF,
    st.lists(_JSON_LEAF, max_size=2),
)


def _opt(flag, values):
    return st.one_of(st.just([]), values.map(lambda v: [flag, v]))


# hat and transport always get a short schedule, and sweep only a selection
# that runs no criterion, so every example stays well under a second.
_ARGV = st.one_of(
    st.tuples(st.just(["normalize", "--n"]), _N, _opt("--l", _L), _EXPR),
    st.tuples(st.just(["qcomm", "--n"]), _N, _opt("--l", _L), _EXPR, _EXPR),
    st.tuples(st.just(["poisson", "--n"]), _N, st.just("--l"), _L,
              *[st.one_of(_EXPR, _CENTER)] * 2),
    st.tuples(st.just(["center-check", "--n"]), _N, st.just("--l"), _L, _EXPR),
    st.tuples(st.just(["azumaya", "--l"]), _L, st.just("--a"), _POINT, st.just("--b"), _POINT,
              st.sampled_from([[], ["--burnside"]])),
    st.tuples(st.just(["rep", "--l"]), _L, st.just("--a"), _SCALAR, st.just("--b"), _SCALAR),
    st.tuples(st.just(["lift", "--kind"]), st.sampled_from(["phi", "psi", "chi"]),
              st.just("--poly"), _EXPR),
    st.tuples(st.just(["validate", "{file}"])),
    st.tuples(st.just(["hat", "{file}", "--primes"]), _PRIMES, _opt("--poly", _CENTER)),
    st.tuples(st.just(["transport", "--n"]), _N, _CENTER, _CENTER, st.just("--primes"), _PRIMES),
    st.tuples(st.just(["sweep", "--only"]), st.sampled_from(["0", "99", "x"])),
)


def _flatten(parts):
    out = []
    for part in parts:
        out.extend(part if isinstance(part, list) else [part])
    return out


@given(_ARGV, st.one_of(_DESCRIPTOR.map(json.dumps), st.text(max_size=8)))
@settings(max_examples=400, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_cli_exit_codes_on_random_input(tmp_path, parts, descriptor):
    path = tmp_path / "endo.json"
    path.write_text(descriptor)
    argv = [str(path) if a == "{file}" else a for a in _flatten(parts)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    assert code in (0, 1, 2), argv
    if code == 2:
        assert err.getvalue(), argv

import contextlib
import io
import json
import math
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qweyl.cli import run


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


def test_normalize_specialized(capsys):
    code, out, _ = _capture(capsys, ["normalize", "--n", "1", "--l", "2", "d1*x1"])
    assert code == 0
    assert out.strip() == "1 - x1*d1"


def test_qcomm(capsys):
    code, out, _ = _capture(capsys, ["qcomm", "--n", "1", "d1", "x1"])
    assert code == 0
    assert out.strip() == "1"


def test_parse_error_is_exit_2(capsys):
    code, _, err = _capture(capsys, ["normalize", "--n", "1", "d1*)x1"])
    assert code == 2
    assert "position" in err


def test_flag_error_is_exit_2(capsys):
    code, _, _ = _capture(capsys, ["normalize", "d1"])
    assert code == 2


def test_power_over_degree_guard_is_exit_2(capsys, monkeypatch):
    monkeypatch.setenv("QWEYL_MAX_DEGREE", "20")
    code, _, err = _capture(capsys, ["normalize", "--n", "1", "(d1+x1)^21"])
    assert code == 2
    assert "exceeds the guard 20" in err
    code, out, _ = _capture(capsys, ["normalize", "--n", "1", "(d1+x1)^20"])
    assert code == 0
    assert out.strip().endswith(" + x1^20")


def test_power_over_cost_guard_is_exit_2_before_work(capsys):
    # Degree 120 passes the degree guard; the power would run for minutes.
    start = time.perf_counter()
    code, out, err = _capture(capsys, ["normalize", "--n", "1", "(d1+x1)^60"])
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert not out
    assert "estimated cost" in err and "exceeds the guard" in err


@pytest.mark.parametrize("value", ["abc", "-1"])
def test_malformed_degree_guard_is_exit_2(capsys, monkeypatch, value):
    monkeypatch.setenv("QWEYL_MAX_DEGREE", value)
    code, out, err = _capture(capsys, ["normalize", "--n", "1", "x1^0"])
    assert code == 2
    assert not out
    assert "QWEYL_MAX_DEGREE must be a non-negative integer" in err


def test_poisson_center_syntax(capsys):
    code, out, _ = _capture(capsys, ["poisson", "--n", "1", "--l", "2", "r1", "s1"])
    assert code == 0
    assert out.strip() == "1 - 4*r1*s1"


def test_poisson_weyl_syntax(capsys):
    code, out, _ = _capture(capsys, ["poisson", "--n", "1", "--l", "2", "d1^2", "x1^2"])
    assert code == 0
    assert out.strip() == "1 - 4*x1^2*d1^2"


def test_poisson_non_central_is_exit_1(capsys):
    code, _, err = _capture(capsys, ["poisson", "--n", "1", "--l", "3", "d1", "x1^3"])
    assert code == 1
    assert "central" in err


def test_center_check(capsys):
    code, out, _ = _capture(capsys, ["center-check", "--l", "3", "x1^3*d1^3"])
    assert code == 0
    blob = json.loads(out)
    assert blob["central"] is True
    assert blob["decomposition"] == "r1*s1"

    code, out, _ = _capture(capsys, ["center-check", "--l", "3", "x1"])
    assert code == 1
    blob = json.loads(out)
    assert blob["central"] is False and "reason" in blob


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
    # The numeric nilpotent representation takes its zero from the field of
    # q as one - one, which is +0.0; a zero formed as q * 0 can carry -0.0.
    code, out, _ = _capture(capsys, ["rep", "--l", "3", "--a", "0.0", "--b", "0.0"])
    assert code == 0
    blob = json.loads(out)
    assert blob["exact"] is False
    entries = [v for m in ("X", "Y") for row in blob[m] for v in row]
    zeros = [v["approx"] for v in entries if v["approx"] == [0.0, 0.0]]
    assert len(zeros) == 2 * 9 - 2 * 2
    assert all(math.copysign(1.0, c) == 1.0 for z in zeros for c in z)
    assert "-0.0" not in out


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e999"])
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
])
def test_point_too_large_for_a_double_is_exit_2(capsys, argv):
    # 10^400 has no rational cube root and no double near it; the exact
    # square root 10^350 of 10^700 has no double approximation to print
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


def test_decimal_burnside_above_its_bound_is_exit_2(capsys):
    # float ranks past l = 11 can miss the deficiency; the exact rank cannot
    code, out, err = _capture(
        capsys, ["azumaya", "--l", "13", "--a", "1.0", "--b", "1", "--burnside"]
    )
    assert code == 2
    assert not out
    assert "limited to l <= 11" in err and "exact value" in err
    assert "decimal value" not in err
    code, out, _ = _capture(
        capsys, ["azumaya", "--l", "13", "--a", "1", "--b", "1", "--burnside"]
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
_SCALAR = st.one_of(_expressions(["q", "t", "0", "1", "2", "1/2"]), st.sampled_from(["0.5", "-1.5", "nan", "inf", "-inf", "1e999"]))
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

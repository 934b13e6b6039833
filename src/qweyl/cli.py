"""Command-line front end.

Exit codes: 0 on success, 1 on mathematical failure states (non-central
inputs, diverging limits, invalid endomorphisms), 2 on flag or expression
errors.  JSON output is byte-identical for identical inputs.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Optional, Sequence

from .center import (
    MaxIdealPoint,
    NotCentralError,
    azumaya_test,
    is_central,
    theta,
    theta_inverse,
)
from .exprio import ParseError, parse_center, parse_weyl, print_center, print_weyl
from .hatmap import hat, hat_endo, transport_limit
from .matrep import _rep_at, burnside_span_dim
from .morphisms import (
    Endomorphism,
    lift_phi,
    lift_psi,
    make_endomorphism,
    validate,
)
from .poisson import poisson_bracket
from .scalars import embed
from .weylcore import AlgebraContext, q_commutator

SCHEMA = 1


def _json_out(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True)


def _context(n: int, level: Optional[int]) -> AlgebraContext:
    if level is None:
        return AlgebraContext.symbolic(n)
    return AlgebraContext.root_of_unity(n, level)


def _parse_primes(text: Optional[str]):
    """The levels of --primes; None selects the default schedule."""
    if text is None:
        return None
    return [int(v) for v in text.split(",") if v.strip()]


def _scalar_json(value) -> dict:
    try:
        approx = embed(value) if not isinstance(value, complex) else value
    except OverflowError:
        raise ValueError("an exact entry is too large for its floating-point "
                         "approximation") from None
    return {"exact": None if isinstance(value, complex) else str(value),
            "approx": [approx.real, approx.imag]}


def _parse_point_value(text: str, level: int):
    """Exact rational / q-polynomial scalar, falling back to a finite float."""
    try:
        ctx = AlgebraContext.root_of_unity(1, level)
        element = parse_weyl(text, ctx)
        if not element.is_scalar():
            raise ParseError("expected a scalar value", 0)
        return element.scalar_value()
    except ParseError:
        try:
            value = float(text)
        except ValueError:
            raise ParseError(f"cannot read scalar {text!r}", 0) from None
        if not math.isfinite(value):
            raise ParseError(f"scalar {text!r} is not a finite number", 0)
        return complex(value)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_normalize(args) -> int:
    ctx = _context(args.n, args.l)
    print(print_weyl(parse_weyl(args.expr, ctx)))
    return 0


def _cmd_qcomm(args) -> int:
    ctx = _context(args.n, args.l)
    a = parse_weyl(args.expr1, ctx)
    b = parse_weyl(args.expr2, ctx)
    print(print_weyl(q_commutator(a, b)))
    return 0


def _cmd_poisson(args) -> int:
    center_syntax = any(s in args.p + args.q for s in "rs")
    if center_syntax:
        p = parse_center(args.p, args.n)
        q = parse_center(args.q, args.n)
        bracket = poisson_bracket(theta(p, args.l), theta(q, args.l))
        print(print_center(theta_inverse(bracket)))
    else:
        ctx = AlgebraContext.root_of_unity(args.n, args.l)
        bracket = poisson_bracket(parse_weyl(args.p, ctx), parse_weyl(args.q, ctx))
        print(print_weyl(bracket))
    return 0


def _cmd_center_check(args) -> int:
    ctx = AlgebraContext.root_of_unity(args.n, args.l)
    element = parse_weyl(args.expr, ctx)
    central = is_central(element)
    out = {"schema": SCHEMA, "l": args.l, "central": central}
    code = 0
    if central:
        out["decomposition"] = print_center(theta_inverse(element))
    else:
        try:
            theta_inverse(element)
        except NotCentralError as err:
            out["reason"] = str(err)
        code = 1
    print(_json_out(out))
    return code


def _cmd_azumaya(args) -> int:
    a_vals = [_parse_point_value(v, args.l) for v in args.a.split(",")]
    b_vals = [_parse_point_value(v, args.l) for v in args.b.split(",")]
    point = MaxIdealPoint(a_vals, b_vals)
    if args.burnside and point.n != 1:
        raise ParseError("--burnside cross-checks a single pair", 0)
    on_locus = azumaya_test(point, args.l)
    out = {"schema": SCHEMA, "l": args.l, "azumaya": on_locus}
    if args.burnside:
        rank = burnside_span_dim(args.l, a_vals[0], b_vals[0])
        out["burnside"] = {
            "rank": rank,
            "full": rank == args.l * args.l,
            "agrees": (rank == args.l * args.l) == on_locus,
        }
    print(_json_out(out))
    return 0


def _cmd_rep(args) -> int:
    a = _parse_point_value(args.a, args.l)
    b = _parse_point_value(args.b, args.l)
    rep = _rep_at(args.l, a, b)
    out = {
        "schema": SCHEMA,
        "l": args.l,
        "exact": rep.exact,
        "q": _scalar_json(rep.q),
        "X": [[_scalar_json(v) for v in row] for row in rep.X],
        "Y": [[_scalar_json(v) for v in row] for row in rep.Y],
    }
    print(_json_out(out))
    return 0


def _endo_to_json(e: Endomorphism) -> dict:
    param = "t" if e.context.is_symbolic else {"l": e.context.level}
    return {
        "schema": SCHEMA,
        "n": e.context.n,
        "param": param,
        "images_x": [print_weyl(img) for img in e.images_x],
        "images_d": [print_weyl(img) for img in e.images_d],
    }


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _check_descriptor(data) -> None:
    """Raise ValueError naming the first missing or malformed descriptor field."""
    if not isinstance(data, dict):
        raise ValueError("descriptor must be a JSON object")
    for key in ("n", "images_x", "images_d"):
        if key not in data:
            raise ValueError(f"descriptor field {key!r} is missing")
    n = data["n"]
    if not _is_int(n) or n < 1:
        raise ValueError("descriptor field 'n' must be a positive integer")
    for key in ("images_x", "images_d"):
        images = data[key]
        if not isinstance(images, list) or not all(isinstance(s, str) for s in images):
            raise ValueError(f"descriptor field {key!r} must be a list of strings")
        if len(images) != n:
            raise ValueError(f"descriptor field {key!r} must hold n = {n} images")
    param = data.get("param", "t")
    level = param.get("l") if isinstance(param, dict) and len(param) == 1 else None
    if param != "t" and not (_is_int(level) and level >= 1):
        raise ValueError('descriptor field \'param\' must be "t" or {"l": <positive integer>}')


def _endo_from_json(data) -> Endomorphism:
    _check_descriptor(data)
    n = data["n"]
    param = data.get("param", "t")
    if param == "t":
        ctx = AlgebraContext.symbolic(n)
    else:
        ctx = AlgebraContext.root_of_unity(n, param["l"])
    xs = [parse_weyl(src, ctx) for src in data["images_x"]]
    ds = [parse_weyl(src, ctx) for src in data["images_d"]]
    return make_endomorphism(ctx, xs, ds)


def _load_endo(path: str) -> Endomorphism:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except RecursionError:
            raise ValueError("descriptor JSON is nested too deeply") from None
    return _endo_from_json(data)


def _cmd_lift(args) -> int:
    ctx = AlgebraContext.symbolic(1)
    poly = parse_weyl(args.poly, ctx)
    e = lift_phi(ctx, poly) if args.kind == "phi" else lift_psi(ctx, poly)
    print(_json_out(_endo_to_json(e)))
    return 0


def _cmd_validate(args) -> int:
    e = _load_endo(args.file)
    ok, violations = validate(e.images_x, e.images_d)
    out = {
        "schema": SCHEMA,
        "valid": ok,
        "violations": [
            {"relation": name, "residual": print_weyl(res)} for name, res in violations
        ],
    }
    print(_json_out(out))
    return 0 if ok else 1


def _cmd_hat(args) -> int:
    e = _load_endo(args.file)
    if not e.validated:
        print(_json_out({"schema": SCHEMA, "error": "endomorphism failed validation"}))
        return 1
    schedule = _parse_primes(args.primes)
    endo_blob = {k: v for k, v in _endo_to_json(e).items() if k != "schema"}
    if args.poly:
        report = hat(e, parse_center(args.poly, e.context.n), schedule)
        out = {"schema": SCHEMA, "endo": endo_blob, **report.to_json()}
        print(_json_out(out))
        return 0 if report.converged else 1
    result = hat_endo(e, schedule)
    out = {"schema": SCHEMA, "endo": endo_blob, **result.to_json()}
    print(_json_out(out))
    return 0 if result.converged else 1


def _cmd_transport(args) -> int:
    p = parse_center(args.p, args.n)
    q = parse_center(args.q, args.n)
    report = transport_limit(p, q, _parse_primes(args.primes))
    out = {"schema": SCHEMA, **report.to_json()}
    print(_json_out(out))
    return 0 if report.converged else 1


def _cmd_sweep(args) -> int:
    from .acceptance import run_all

    numbers = [int(v) for v in args.only.split(",")] if args.only else None
    results = run_all(numbers)
    if not results:
        print("no criteria selected", file=sys.stderr)
        return 2
    width = max(len(r.slug) for r in results)
    all_ok = True
    for r in results:
        mark = "PASS" if r.passed else "FAIL"
        all_ok = all_ok and r.passed
        print(f"[{mark}] {r.number:>2} {r.slug:<{width}} {r.seconds:7.2f}s  {r.detail}")
    print(f"{'all criteria passed' if all_ok else 'FAILURES PRESENT'}")
    return 0 if all_ok else 1


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="qweyl",
        description="Exact computations in quantized Weyl algebras at roots of unity.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("normalize", help="PBW normal form of an expression")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--l", type=int, default=None)
    p.add_argument("expr")
    p.set_defaults(fn=_cmd_normalize)

    p = sub.add_parser("qcomm", help="q-twisted commutator of two expressions")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--l", type=int, default=None)
    p.add_argument("expr1")
    p.add_argument("expr2")
    p.set_defaults(fn=_cmd_qcomm)

    p = sub.add_parser("poisson", help="bracket of two central inputs")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("p")
    p.add_argument("q")
    p.set_defaults(fn=_cmd_poisson)

    p = sub.add_parser("center-check", help="centrality and decomposition")
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("expr")
    p.set_defaults(fn=_cmd_center_check)

    p = sub.add_parser("azumaya", help="full-matrix-fiber criterion at a point")
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--burnside", action="store_true")
    p.set_defaults(fn=_cmd_azumaya)

    p = sub.add_parser("rep", help="explicit l-dimensional representation")
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.set_defaults(fn=_cmd_rep)

    p = sub.add_parser("lift", help="canonical lift of a translation automorphism")
    p.add_argument("--kind", choices=("phi", "psi"), required=True)
    p.add_argument("--poly", required=True)
    p.set_defaults(fn=_cmd_lift)

    p = sub.add_parser("validate", help="relation residuals of a JSON endomorphism")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_validate)

    p = sub.add_parser("hat", help="prime-limit transport of an endomorphism")
    p.add_argument("file")
    p.add_argument("--primes", default=None)
    p.add_argument("--poly", default=None)
    p.set_defaults(fn=_cmd_hat)

    p = sub.add_parser("transport", help="bracket transport over a schedule")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("p")
    p.add_argument("q")
    p.add_argument("--primes", default=None)
    p.set_defaults(fn=_cmd_transport)

    p = sub.add_parser("sweep", help="run the acceptance suite")
    p.add_argument("--only", default=None, help="comma-separated criterion numbers")
    p.set_defaults(fn=_cmd_sweep)

    return top


def run(argv: Sequence[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except ParseError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (NotCentralError,) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except (ValueError, OSError, json.JSONDecodeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()

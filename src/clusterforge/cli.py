"""Command-line interface.

Subcommands: mutate, fpoly, cmatrix, family, stabilize, limit, verify.
Quivers come either from a JSON file {"b": [[...]], "d": [...]} or from a
family spec.  Output is canonical text or JSON; identical inputs produce
byte-identical output.  Exit codes: 0 success, 1 usage error, 2 computation
error, 3 verification failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys

from .closedform import coefficient_of, fpoly_formula, fpoly_product_form
from .cmatrix import c_between, trace
from .errors import ClusterForgeError, ParseError
from .families import (_FAMILIES, FamilySpec, _family_params, build_family,
                       fpoly_gale_robinson, fpoly_kr, fpoly_symmetric)
from .laurent import LaurentPolynomial, decimal_int, parse_monomial
from .quiver import GeneralizedQuiver, fpoly_recurrence, framed_state, make_quiver, mutate
from .stabilization import (limit_a1r, limit_gale_robinson, limit_kr,
                            stabilization_run)
from .verify import run_verification


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def parse_sequence(text: str) -> tuple[int, ...]:
    """Comma list, 'a..b' range, or 'a..bxN' repeated range, of ASCII decimals."""
    text = text.strip(" ")
    if not text:
        return ()
    match = re.fullmatch(r"([0-9]+)\.\.([0-9]+)(?:x([0-9]+))?", text)
    if match:
        lo, hi = int(match.group(1)), int(match.group(2))
        reps = int(match.group(3) or 1)
        if hi < lo or reps < 1:
            raise ParseError(f"bad sequence range {text!r}")
        return tuple(range(lo, hi + 1)) * reps
    try:
        return tuple(decimal_int(tok) for tok in text.split(","))
    except ValueError as exc:
        raise ParseError(f"bad sequence {text!r}") from exc


def parse_params(text: str) -> dict[str, int]:
    params = {}
    if not text:
        return params
    for item in text.split(","):
        key, _, value = item.partition("=")
        if not _:
            raise ParseError(f"bad parameter {item!r}, expected key=value")
        key = key.strip(" ")
        if key in params:
            raise ParseError(f"parameter {key!r} given twice")
        try:
            params[key] = decimal_int(value)
        except ValueError as exc:
            raise ParseError(f"bad parameter value {item!r}") from exc
    return params


def load_quiver(args) -> GeneralizedQuiver:
    if args.quiver and args.family:
        raise UsageError("provide exactly one of --quiver and --family")
    if args.params is not None and not args.family:
        raise UsageError("--params needs --family")
    if args.quiver:
        try:
            with open(args.quiver, encoding="utf-8") as handle:
                data = json.load(handle)
        except (OSError, ValueError, RecursionError) as exc:  # ValueError: bad JSON or UTF-8
            raise ParseError(f"cannot read quiver file: {exc}") from exc
        if not isinstance(data, dict):
            raise ParseError("quiver file must hold a JSON object")
        if "b" not in data:
            raise ParseError('quiver file needs a "b" matrix')
        try:
            return make_quiver(data["b"], data.get("d"))
        except TypeError as exc:
            raise ParseError(f"bad quiver file: {exc}") from exc
    if args.family:
        spec = FamilySpec.of(args.family, **parse_params(args.params or ""))
        return build_family(spec)
    raise UsageError("provide --quiver FILE or --family NAME")


def vertex_sequence(text: str, q: GeneralizedQuiver) -> tuple[int, ...]:
    """parse_sequence, with every vertex checked against the quiver."""
    seq = parse_sequence(text)
    for k in seq:
        if not 1 <= k <= q.v:
            raise UsageError(f"vertex {k} out of range 1..{q.v}")
    return seq


def _print_poly(poly: LaurentPolynomial, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps({"terms": poly.to_json_terms()}))
    else:
        print(poly.to_text())


def _print_matrix(name: str, m, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps({name: [list(row) for row in m]}))
    else:
        print(f"{name} =")
        for row in m:
            print("  [" + " ".join(f"{x:4d}" for x in row) + "]")


_PARAMS_HELP = "family parameters, e.g. r=2 or v=7,r=2,t=3"


def _add_quiver_args(parser) -> None:
    parser.add_argument("--quiver", help="JSON quiver file")
    parser.add_argument("--family", choices=_FAMILIES)
    parser.add_argument("--params", help=_PARAMS_HELP)


def _add_format_arg(parser) -> None:
    parser.add_argument("--format", choices=("text", "json"), default="text")


@functools.cache
def build_parser() -> _Parser:
    """The argument parser, built once per process: parsing keeps no state on it."""
    parser = _Parser(prog="clusterforge")
    sub = parser.add_subparsers(dest="command", required=True)

    p_mutate = sub.add_parser("mutate", help="apply a mutation sequence")
    _add_quiver_args(p_mutate)
    _add_format_arg(p_mutate)
    p_mutate.add_argument("--seq", default="")

    p_fpoly = sub.add_parser("fpoly", help="compute an F-polynomial")
    _add_quiver_args(p_fpoly)
    _add_format_arg(p_fpoly)
    p_fpoly.add_argument("--seq", default="")
    p_fpoly.add_argument("--method", choices=("recurrence", "formula", "product"),
                         default="recurrence")
    p_fpoly.add_argument("--coeff", help="print one monomial coefficient, e.g. y1^3*y2")

    p_cmx = sub.add_parser("cmatrix", help="C/D matrices, colors, r-monomials")
    _add_quiver_args(p_cmx)
    _add_format_arg(p_cmx)
    p_cmx.add_argument("--seq", default="")
    p_cmx.add_argument("--between", nargs=2, type=decimal_int, metavar=("M", "N"))

    p_family = sub.add_parser("family", help="emit a family quiver")
    p_family.add_argument("--family", required=True, choices=_FAMILIES)
    p_family.add_argument("--params", help=_PARAMS_HELP)
    _add_format_arg(p_family)
    p_family.add_argument("--out", help="write the quiver JSON here instead of stdout")
    p_family.add_argument("--n", type=decimal_int, help="also print the specialized F_n")

    p_stab = sub.add_parser("stabilize", help="observe deformed-coefficient stabilization")
    _add_quiver_args(p_stab)
    _add_format_arg(p_stab)
    p_stab.add_argument("--period", required=True)
    p_stab.add_argument("--count", type=decimal_int, default=6)
    p_stab.add_argument("--cutoff", type=decimal_int, default=6)

    p_limit = sub.add_parser("limit", help="closed-form stabilized limits")
    p_limit.add_argument("--family", required=True, choices=_FAMILIES)
    p_limit.add_argument("--params", default="")
    p_limit.add_argument("--cutoff", type=decimal_int, required=True)
    _add_format_arg(p_limit)

    p_verify = sub.add_parser("verify", help="run the full cross-check battery")
    _add_quiver_args(p_verify)
    p_verify.add_argument("--seq", default="")

    return parser


def _cmd_mutate(args) -> int:
    q = load_quiver(args)
    state = framed_state(q)
    for k in vertex_sequence(args.seq, q):
        state = mutate(state, k)
    _print_matrix("B", state.quiver.b, args.format)
    _print_matrix("C", state.c, args.format)
    for i, label in enumerate(state.labels, start=1):
        if args.format == "json":
            print(json.dumps({"vertex": i, "terms": label.to_json_terms()}))
        else:
            print(f"V{i} = {label.to_text()}")
    return 0


def _cmd_fpoly(args) -> int:
    if args.coeff is not None and args.format == "json":
        raise UsageError("--coeff prints one bare value and takes no --format json")
    q = load_quiver(args)
    seq = vertex_sequence(args.seq, q)
    n = len(seq)
    exps = None if args.coeff is None else parse_monomial(args.coeff, q.v)
    if exps is not None and args.method == "formula":
        print(coefficient_of(trace(q, seq), n, exps))
        return 0
    if args.method == "recurrence":
        polys = fpoly_recurrence(q, seq)
        poly = polys[-1] if polys else LaurentPolynomial.one(q.v)
    else:
        tr = trace(q, seq)
        poly = fpoly_formula(tr, n) if args.method == "formula" else fpoly_product_form(tr, n)
    if exps is not None:
        print(poly.coefficient(exps))
    else:
        _print_poly(poly, args.format)
    return 0


def _cmd_cmatrix(args) -> int:
    q = load_quiver(args)
    seq = vertex_sequence(args.seq, q)
    for step in args.between or ():
        if not 0 <= step <= len(seq):
            raise UsageError(f"--between step {step} out of range 0..{len(seq)}")
    tr = trace(q, seq)
    if args.between:
        m, n = args.between
        _print_matrix(f"C_{m},{n}", c_between(tr, m, n, "c"), args.format)
        _print_matrix(f"D_{m},{n}", c_between(tr, m, n, "d"), args.format)
        return 0
    _print_matrix("C", tr.c_mats[-1], args.format)
    _print_matrix("D", c_between(tr, 0, tr.n, "d"), args.format)
    for i in range(1, tr.n + 1):
        if args.format == "json":
            print(json.dumps({"step": i, "vertex": tr.vertex(i), "color": tr.color(i),
                              "r": list(tr.r(i))}))
        else:
            r_text = LaurentPolynomial.monomial(tr.r(i)).to_text()
            print(f"step {i}: vertex {tr.vertex(i)} {tr.color(i)} r = {r_text}")
    return 0


def _cmd_family(args) -> int:
    if args.n is None and args.format == "json":
        raise UsageError("--format json formats F_n and needs --n")
    spec = FamilySpec.of(args.family, **parse_params(args.params or ""))
    q = build_family(spec)
    params = _family_params(spec)
    if args.n is None:  # F_n comes before any output, so a rejected n writes nothing
        poly = None
    elif args.family == "kr":
        poly = fpoly_kr(*params, args.n)
    elif len(params) == 3:  # gr, and dp1
        poly = fpoly_gale_robinson(*params, args.n)
    else:
        poly = fpoly_symmetric(q, args.n)
    payload = json.dumps({"b": [list(row) for row in q.b], "d": list(q.d)})
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(payload + "\n")
        except OSError as exc:
            raise UsageError(f"cannot write --out file: {exc}") from exc
    else:
        print(payload)
    if poly is not None:
        _print_poly(poly, args.format)
    return 0


def _cmd_stabilize(args) -> int:
    q = load_quiver(args)
    report = stabilization_run(q, vertex_sequence(args.period, q), args.count, args.cutoff)
    if args.format == "json":
        print(json.dumps({
            "indices": list(report.indices),
            "monomials": [
                {
                    "exponents": list(m),
                    "history": [str(x) for x in report.histories[m]],
                    "stabilized_at": report.verdicts[m],
                }
                for m in report.histories
            ],
        }))
        return 0
    print("n = " + ", ".join(str(i) for i in report.indices))
    for m, hist in report.histories.items():
        name = LaurentPolynomial.monomial(m).to_text()
        verdict = report.verdicts[m]
        status = f"stabilized at n={verdict}" if verdict is not None else "still changing"
        print(f"{name}: {list(hist)} ({status})")
    return 0


def _cmd_limit(args) -> int:
    params = _family_params(FamilySpec.of(args.family, **parse_params(args.params)))
    limit = {"a1r": limit_a1r, "kr": limit_kr}.get(args.family, limit_gale_robinson)
    _print_poly(limit(*params, args.cutoff), args.format)
    return 0


def _cmd_verify(args) -> int:
    q = load_quiver(args)
    seq = vertex_sequence(args.seq, q)
    results = run_verification(q, seq)
    width = max(len(name) for name in results)
    failed = False
    for name, ok in results.items():
        print(f"{name:<{width}}  {'pass' if ok else 'FAIL'}")
        failed = failed or not ok
    return 3 if failed else 0


_COMMANDS = {
    "mutate": _cmd_mutate,
    "fpoly": _cmd_fpoly,
    "cmatrix": _cmd_cmatrix,
    "family": _cmd_family,
    "stabilize": _cmd_stabilize,
    "limit": _cmd_limit,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except (UsageError, ParseError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (ClusterForgeError, ValueError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

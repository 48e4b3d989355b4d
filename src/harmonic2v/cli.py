"""Command-line interface: decompose, integrate, verify.

Output is deterministic JSON (sorted keys, rationals as strings); exit codes
are 0 on success, 1 when a verification suite fails, 2 on usage or parse
errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from .decomp import decompose_full
from .errors import PolySyntaxError, VariableOutOfRange
from .parser import parse_poly
from .poly import Polynomial
from .stiefel import sphere_integrate, stiefel_integrate
from .suites import SUITE_NAMES, run_suite

SCHEMA = "harmonic2v/1"


def _int_at_least(low: int):
    """argparse type: an integer >= low, rejected as a usage error otherwise."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in "invalid int value" errors
    return parse


def _load_poly(args, m: int) -> Polynomial:
    if getattr(args, "poly", None) is not None:
        text = args.poly
    elif getattr(args, "poly_file", None) is not None:
        with open(args.poly_file, encoding="utf-8") as fh:
            text = fh.read()
    else:
        raise PolySyntaxError("missing --poly or --poly-file", 0)
    return parse_poly(text.strip(), m)


def _decomposition_document(args) -> dict:
    p = _load_poly(args, args.m)
    result = decompose_full(p, strategy=args.strategy)
    components = []
    for entry in result.entries:
        idx = entry.component.index
        harmonic_terms = [
            {"monomial": str(mono), "coeff": str(coeff)}
            for mono, coeff in entry.component.harmonic.terms()
        ]
        component = {
            "fischer": {"a": entry.a, "b": entry.b},
            "ladder": {"i": idx.i, "j": idx.j},
            "target": {"k": idx.k, "l": idx.l},
            "harmonic": harmonic_terms,
        }
        if entry.component.mirrored:
            component["mirrored"] = True
        components.append(component)
    return {
        "schema": SCHEMA,
        "input": str(p),
        "m": args.m,
        "strategy": args.strategy,
        "components": components,
        "reconstruction_check": "exact" if result.is_exact() else "FAILED",
    }


def cmd_decompose(args) -> int:
    doc = _decomposition_document(args)
    if args.format == "json":
        print(json.dumps(doc, sort_keys=True, indent=2))
    else:
        print(f"input: {doc['input']}  (m={doc['m']})")
        for comp in doc["components"]:
            a, b = comp["fischer"]["a"], comp["fischer"]["b"]
            i, j = comp["ladder"]["i"], comp["ladder"]["j"]
            k, l = comp["target"]["k"], comp["target"]["l"]
            step = "S_x" if comp.get("mirrored") else "S_u"
            pieces = []
            for t in comp["harmonic"]:
                text = t["coeff"] if t["monomial"] == "1" else f"{t['coeff']}*{t['monomial']}"
                if pieces:
                    text = ("- " + text[1:]) if text.startswith("-") else ("+ " + text)
                pieces.append(text)
            print(f"|x|^{2*a}|u|^{2*b} C^{i} {step}^{j} of H({k},{l}): {' '.join(pieces)}")
        print(f"reconstruction: {doc['reconstruction_check']}")
    return 0 if doc["reconstruction_check"] == "exact" else 1


def cmd_integrate(args) -> int:
    p = _load_poly(args, args.m)
    doc = {"schema": SCHEMA, "input": str(p), "m": args.m, "manifold": args.manifold}
    if args.manifold == "sphere":
        value = sphere_integrate(p)
        doc["value"] = str(value)
    else:
        report = stiefel_integrate(p, mc_samples=args.mc_samples, seed=args.seed)
        doc["value"] = str(report.pizzetti_value)
        if report.samples:
            doc["mc"] = {
                "estimate": report.mc_estimate,
                "stderr": report.mc_stderr,
                "samples": report.samples,
            }
    print(json.dumps(doc, sort_keys=True, indent=2))
    return 0


def cmd_verify(args) -> int:
    report = run_suite(args.suite, args.m, max_bidegree=args.max_bidegree, seed=args.seed)
    doc = {"schema": SCHEMA, **report}
    print(json.dumps(doc, sort_keys=True, indent=2))
    return 0 if report["passed"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="harmonic2v",
        description="Exact decomposition and Stiefel/sphere integration of "
        "polynomials in two vector variables.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    dec = sub.add_parser("decompose", help="decompose into irreducible components")
    dec.add_argument("--m", type=_int_at_least(1), required=True, help="ambient dimension (> 4)")
    group = dec.add_mutually_exclusive_group(required=True)
    group.add_argument("--poly", help="polynomial expression")
    group.add_argument("--poly-file", help="file containing the expression")
    dec.add_argument("--strategy", choices=("direct", "sequential"), default="direct")
    dec.add_argument("--format", choices=("json", "text"), default="json")
    dec.set_defaults(fn=cmd_decompose)

    integ = sub.add_parser("integrate", help="integrate over V_2(R^m) or S^(m-1)")
    integ.add_argument("--m", type=_int_at_least(1), required=True)
    group = integ.add_mutually_exclusive_group(required=True)
    group.add_argument("--poly", help="polynomial expression")
    group.add_argument("--poly-file", help="file containing the expression")
    integ.add_argument("--manifold", choices=("stiefel2", "sphere"), default="stiefel2")
    integ.add_argument("--mc-samples", type=int, default=None)
    integ.add_argument("--seed", type=int, default=0)
    integ.set_defaults(fn=cmd_integrate)

    ver = sub.add_parser("verify", help="run a verification suite")
    ver.add_argument("--suite", choices=SUITE_NAMES, required=True)
    ver.add_argument("--m", type=_int_at_least(1), default=5)
    ver.add_argument("--max-bidegree", type=_int_at_least(0), default=3)
    ver.add_argument("--seed", type=int, default=0)
    ver.set_defaults(fn=cmd_verify)
    return parser


def main(argv: Optional[list] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (PolySyntaxError, VariableOutOfRange, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

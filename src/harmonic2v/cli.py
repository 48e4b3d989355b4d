"""Command-line interface: decompose, integrate, verify.

Output is deterministic JSON (sorted keys, rationals as strings); exit codes
are 0 on success, 1 when a verification suite fails, 2 on usage, file, parse
or arithmetic errors (such as a vanishing normalizer) and on a failed
allocation.
"""

from __future__ import annotations

import argparse
import json
import sys
from json.encoder import encode_basestring_ascii
from typing import Iterator, Optional

from .decomp import DecompositionResult, decompose_full
from .parser import parse_poly
from .poly import Polynomial
from .stiefel import sphere_integrate, stiefel_integrate
from .suites import SUITE_NAMES, run_suite

SCHEMA = "harmonic2v/1"

#: Largest ``--mc-samples`` accepted.  A three-term input at m = 5 takes about
#: 2.8 s per 10^7 frames on a 2-CPU x86_64 host, and 4.2 s on one of its CPUs,
#: so the limit keeps a run under a minute; each Monte Carlo worker draws and
#: evaluates frames in blocks of 4,096 into one reused row of 65,536 values per
#: polynomial, so memory does not grow with it.
MAX_MC_SAMPLES = 10**8

#: Largest ``verify --max-bidegree`` accepted.  The orthogonality suite checks
#: every pair of components of draws up to this bidegree, so its cost grows
#: steeply: at m = 7, seed 0 it takes about 6 s at 4, 109 s at 5 and over 300 s
#: at 6 on a 2-CPU x86_64 host.
MAX_VERIFY_BIDEGREE = 4

#: Largest ``verify --suite ladder --m`` accepted.  The suite builds its
#: generator chains term by term at every m, so its cost grows with m: in
#: process on a 2-CPU x86_64 host, at ``--max-bidegree`` 3 about 0.12 s at
#: m = 5, 0.4 s at 8, 1.1 s at 12 and 2.9 s at 16, and at 4 about 0.3, 1.05,
#: 3.2 and 8.3 s (the other suites take at most about 3 s at m = 64).
MAX_LADDER_M = 12

#: Largest ``--m`` accepted.  A key holds 2m bytes and every operator atom makes
#: m shifted copies of each term, so the cost grows fast with m even for a
#: one-term input.  On a 2-CPU x86_64 host ``integrate --poly x1^2*u1^2`` takes
#: 0.15 s and 18 MB at m = 64, but ``x1^4*u1^4`` already takes 0.8-0.9 s and
#: 106 MB at 32, and 38 s and 1.5 GB at 64; at 32 about nine tenths of the
#: time is ``fischer._pi_ij``, which builds the Fischer layers through the
#: extremal projection.  A Monte Carlo check loads numpy and adds a few blocks
#: of frames per worker: ``x1^2*u1^2 + x2^2*u3^2`` with 200,000 frames peaks at
#: 49 MB at 64 with two workers, and 42 MB with one.
MAX_M = 64


def _int_at_least(low: int, high: Optional[int] = None):
    """argparse type: an integer in [low, high], rejected as a usage error otherwise."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        if high is not None and value > high:
            raise argparse.ArgumentTypeError(f"must be <= {high}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in "invalid int value" errors
    return parse


def _load_poly(args) -> Polynomial:
    text = args.poly
    if text is None:
        with open(args.poly_file, encoding="utf-8") as fh:
            text = fh.read()
    return parse_poly(text.strip(), args.m)


def _object(fields, indent: int) -> str:
    """A JSON object laid out as ``json.dumps(indent=2)`` lays it out at depth
    ``indent``; ``fields`` are (key, rendered value) pairs in sorted key order."""
    pad = " " * (indent + 2)
    body = f",\n{pad}".join(f'"{key}": {value}' for key, value in fields)
    return f"{{\n{pad}{body}\n{' ' * indent}}}"


def _decomposition_json(result: DecompositionResult, check: str) -> Iterator[str]:
    """The decompose document in chunks, one per component.

    The bytes are those of ``json.dumps(doc, sort_keys=True, indent=2)`` plus
    a newline, for the ``harmonic2v/1`` document of ``result``: keys in sorted
    order, two-space indentation, ``[]`` for an empty list.  Each harmonic is
    rendered from its packed terms, without a per-term dict.
    """
    enc = encode_basestring_ascii  # json.dumps's string encoder
    yield '{\n  "components": ['
    opener = "\n    "
    for entry in result.entries:
        comp = entry.component
        idx = comp.index
        # Written out rather than through _object: this runs once per term.
        terms = ",\n".join(
            f'        {{\n          "coeff": {enc(coeff)},\n          "monomial": {enc(mono)}\n        }}'
            for mono, coeff in comp.harmonic.term_strings()
        )
        fields = [
            ("fischer", _object([("a", entry.a), ("b", entry.b)], 6)),
            ("harmonic", f"[\n{terms}\n      ]" if terms else "[]"),
            ("ladder", _object([("i", idx.i), ("j", idx.j)], 6)),
        ]
        if comp.mirrored:
            fields.append(("mirrored", "true"))
        fields.append(("target", _object([("k", idx.k), ("l", idx.l)], 6)))
        yield opener + _object(fields, 4)
        opener = ",\n    "
    yield "\n  ]" if result.entries else "]"
    for key, value in (
        ("input", enc(str(result.source))),
        ("m", result.m),
        ("reconstruction_check", enc(check)),
        ("schema", enc(SCHEMA)),
        ("strategy", enc("direct")),  # fixed field of the harmonic2v/1 schema
    ):
        yield f',\n  "{key}": {value}'
    yield "\n}\n"


def _decomposition_text(result: DecompositionResult, check: str) -> Iterator[str]:
    """The ``--format text`` document in lines; harmonics print in the --poly
    grammar, so each line parses back."""
    yield f"input: {result.source}  (m={result.m})\n"
    for entry in result.entries:
        idx = entry.component.index
        step = "S_x" if entry.component.mirrored else "S_u"
        yield (
            f"|x|^{2 * entry.a}|u|^{2 * entry.b} C^{idx.i} {step}^{idx.j} "
            f"of H({idx.k},{idx.l}): {entry.component.harmonic}\n"
        )
    yield f"reconstruction: {check}\n"


def _short_coefficients(polys) -> bool:
    """True when no packed numerator or denominator of ``polys`` reaches
    10^sys.get_int_max_str_digits(), so that every coefficient renders as text."""
    limit = sys.get_int_max_str_digits()
    if not limit:
        return True
    bound = 10**limit
    return all(
        p._den < bound and all(-bound < a < bound and -bound < b < bound for a, b in p._terms.values())
        for p in polys
    )


def cmd_decompose(args) -> int:
    result = decompose_full(_load_poly(args))
    check = "exact" if result.is_exact() else "FAILED"
    render = _decomposition_json if args.format == "json" else _decomposition_text
    chunks = render(result, check)
    if not _short_coefficients([result.source] + [e.component.harmonic for e in result.entries]):
        # A coefficient may be too long to render: finish the document before
        # writing any of it, so that the error leaves stdout empty.
        chunks = ["".join(chunks)]
    sys.stdout.writelines(chunks)
    return 0 if check == "exact" else 1


def cmd_integrate(args) -> int:
    p = _load_poly(args)
    doc = {"schema": SCHEMA, "input": str(p), "m": args.m, "manifold": args.manifold}
    if args.manifold == "sphere":
        value = sphere_integrate(p)
        doc["value"] = str(value)
    else:
        report = stiefel_integrate(p, mc_samples=args.mc_samples, seed=args.seed or 0)
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

    poly_input = argparse.ArgumentParser(add_help=False)
    poly_input.add_argument(
        "--m", type=_int_at_least(1, MAX_M), required=True,
        help="ambient dimension (> 4, except for integrate --manifold sphere)",
    )
    group = poly_input.add_mutually_exclusive_group(required=True)
    group.add_argument(
        "--poly", help="polynomial expression; write one that starts with '-' as --poly=EXPR",
    )
    group.add_argument("--poly-file", help="file containing the expression")

    dec = sub.add_parser("decompose", parents=[poly_input], help="decompose into irreducible components")
    dec.add_argument("--format", choices=("json", "text"), default="json")
    dec.set_defaults(fn=cmd_decompose)

    integ = sub.add_parser("integrate", parents=[poly_input], help="integrate over V_2(R^m) or S^(m-1)")
    integ.add_argument("--manifold", choices=("stiefel2", "sphere"), default="stiefel2")
    integ.add_argument(
        "--mc-samples", type=_int_at_least(1, MAX_MC_SAMPLES), default=None,
        help="add a Monte Carlo check with this many frames (stiefel2 only)",
    )
    integ.add_argument(
        "--seed", type=_int_at_least(0, 2**64 - 1), default=None,
        help="seed of the Monte Carlo check, 0 to 2^64 - 1 (default 0; needs --mc-samples)",
    )
    integ.set_defaults(fn=cmd_integrate)

    ver = sub.add_parser("verify", help="run a verification suite")
    ver.add_argument("--suite", choices=SUITE_NAMES, required=True)
    ver.add_argument("--m", type=_int_at_least(1, MAX_M), default=5)
    ver.add_argument("--max-bidegree", type=_int_at_least(0, MAX_VERIFY_BIDEGREE), default=3)
    ver.add_argument("--seed", type=_int_at_least(0), default=0)
    ver.set_defaults(fn=cmd_verify)
    return parser


def main(argv: Optional[list] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "integrate":
        # Options that would change nothing are usage errors, not silently ignored.
        if args.seed is not None and (args.manifold == "sphere" or args.mc_samples is None):
            parser.error("argument --seed: applies to --manifold stiefel2 with --mc-samples only")
        if args.manifold == "sphere" and args.mc_samples is not None:
            parser.error("argument --mc-samples: applies to --manifold stiefel2 only")
    if args.command == "verify" and args.suite == "ladder" and args.m > MAX_LADDER_M:
        parser.error(f"argument --m: must be <= {MAX_LADDER_M} with --suite ladder, got {args.m}")
    try:
        return args.fn(args)
    except (OSError, ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:  # its str() is empty
        print("error: out of memory", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

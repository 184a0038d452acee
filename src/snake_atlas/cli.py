"""Command-line interface.

Subcommands: ``triangle`` (recurrence arrays as JSON or CSV), ``family``
(enumerate signed-permutation families), ``poly`` (derivative
polynomials, optionally their q-analogues), ``bijection`` (apply any of
the maps to a JSON-encoded object), and ``verify`` (run registered
checks).  JSON is the machine default; CSV mirrors the printed table
layouts for eyeballing.  A ``bijection`` input is decoded, not
validated: the map validates it, once, as it does for API callers.  A
request is parsed once, by its subcommand's parser (``parse``).

Exit codes: 0 success, 1 verification failure, 2 usage error,
3 size ceiling exceeded (an enumeration ceiling, or a nested JSON input
or output deeper than Python's recursion limit; the message says which),
4 malformed JSON input, 5 input outside a map's domain.  The environment
variable SNAKE_ATLAS_MAX_N raises or lowers every enumeration ceiling.
"""
from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys

from .bijections import (phi1, phi1_b, phi1_b_inv, phi1_d, phi1_d_inv,
                         phi1_inv, phi2, phi2_b, phi2_b_inv, phi2_d,
                         phi2_d_inv, phi2_inv, zeta1, zeta1_inv, zeta2,
                         zeta2_inv)
from .errors import LimitError, MembershipError, SettingError
from .forests import (forest_to_json, forest_to_tree, tree_to_forest,
                      _decode_forest)
from .permutations import FAMILY_TAGS, enumerate_family
from .qcalculus import qpoly_P, qpoly_Q, qpoly_R
from .trees import (psi_cap, psi_cap_inv, psi_circ, psi_circ_inv, psi_star,
                    psi_star_inv, snake_to_tree, tree_to_snake,
                    tree_to_word_json, _decode_tree)
from .triangles import (arnold, arnold_poly, entringer, gamma_arrays,
                        hoffman_P, hoffman_Q, hoffman_R)
from .verify import CHECKS, run_all, run_check

EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_CEILING = 3
EXIT_BAD_JSON = 4
EXIT_DOMAIN = 5


def _emit(obj) -> None:
    sys.stdout.write(json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n")


def _too_deep(what: str) -> str:
    return (f"size ceiling exceeded: {what} nested too deeply "
            f"(recursion limit {sys.getrecursionlimit()})")


def _int_at_least(lo):
    def parse(text):
        value = int(text)
        if value < lo:
            raise argparse.ArgumentTypeError(f"expected an integer >= {lo}, got {value}")
        return value
    parse.__name__ = "int"
    return parse


def _parse_window(obj):
    if not isinstance(obj, list) or any(type(x) is not int for x in obj):
        raise ValueError("expected a JSON array of nonzero integers")
    return tuple(obj)


def _with_case(fn):
    def wrapped(x, trace=False):
        out, case = fn(x)
        return (out, [case]) if trace else out
    return wrapped


def _no_trace(fn):
    def wrapped(x, trace=False):
        out = fn(x)
        return (out, []) if trace else out
    return wrapped


# name -> (forward, inverse, forward input, forward output, inverse input, inverse output)
BIJECTIONS = {
    "gamma": (_no_trace(tree_to_snake), _no_trace(snake_to_tree),
              _decode_tree, list, _parse_window, tree_to_word_json),
    "mu": (_no_trace(tree_to_forest), _no_trace(forest_to_tree),
           _decode_tree, forest_to_json, _decode_forest, tree_to_word_json),
    "phi1": (phi1, phi1_inv, _parse_window, forest_to_json, _decode_forest, list),
    "phi2": (phi2, phi2_inv, _parse_window, forest_to_json, _decode_forest, list),
    "phi1-b": (_no_trace(phi1_b), _no_trace(phi1_b_inv),
               _parse_window, tree_to_word_json, _decode_tree, list),
    "phi1-d": (_no_trace(phi1_d), _no_trace(phi1_d_inv),
               _parse_window, tree_to_word_json, _decode_tree, list),
    "phi2-b": (_no_trace(phi2_b), _no_trace(phi2_b_inv),
               _parse_window, tree_to_word_json, _decode_tree, list),
    "phi2-d": (_no_trace(phi2_d), _no_trace(phi2_d_inv),
               _parse_window, tree_to_word_json, _decode_tree, list),
    "zeta1": (_no_trace(zeta1), _no_trace(zeta1_inv),
              _parse_window, list, _parse_window, list),
    "zeta2": (_no_trace(zeta2), _no_trace(zeta2_inv),
              _parse_window, list, _parse_window, list),
    "psi-star": (_with_case(psi_star), _with_case(psi_star_inv),
                 _decode_tree, tree_to_word_json, _decode_tree, tree_to_word_json),
    "psi-circ": (_with_case(psi_circ), _with_case(psi_circ_inv),
                 _decode_tree, tree_to_word_json, _decode_tree, tree_to_word_json),
    "psi-cap": (_no_trace(psi_cap), _no_trace(psi_cap_inv),
                _decode_tree, tree_to_word_json, _decode_tree, tree_to_word_json),
}


# kind -> its array.  The lambdas read this module's names at call time,
# so a wrapper put on one of them (``perfbench/layers.py``) sees the call.
TRIANGLES = {"entringer": lambda n: entringer(n), "arnold": lambda n: arnold(n),
             "arnold-poly": lambda n: arnold_poly(n), "gamma": lambda n: gamma_arrays(n)}


def _triangle(args) -> int:
    n = args.n
    tri = TRIANGLES[args.kind](n)
    if args.format == "json":
        _emit(tri.to_json())
        return 0
    cols = range(1, n + 1) if args.kind == "entringer" else tri.signed_columns(n)
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(["n\\k", *cols])
    for r in range(1, n + 1):
        writer.writerow([r] + [tri.entries.get((r, k), "") for k in cols])
    sys.stdout.write(out.getvalue())
    return 0


def _family(args) -> int:
    constraint = None if args.anchor is None else (args.anchor, args.value)
    members = enumerate_family(args.name, args.n, constraint)
    _emit({"family": args.name, "n": args.n, "count": len(members),
           "members": members})
    return 0


def _poly(args) -> int:
    if args.q:
        fn = {"P": qpoly_P, "Q": qpoly_Q, "R": qpoly_R}[args.which]
    else:
        fn = {"P": hoffman_P, "Q": hoffman_Q, "R": hoffman_R}[args.which]
    _emit(fn(args.n).to_json())
    return 0


def _bijection(args) -> int:
    fwd, inv, fin, fout, iin, iout = BIJECTIONS[args.name]
    try:
        payload = json.loads(args.input)
    except json.JSONDecodeError as exc:
        sys.stderr.write(f"malformed JSON input: {exc}\n")
        return EXIT_BAD_JSON
    fn, parse, encode = (fwd, fin, fout) if args.direction == "forward" else (inv, iin, iout)
    value = parse(payload)
    result, trace = fn(value, trace=True) if args.trace else (fn(value), None)
    try:  # the nested JSON forms recurse, in ``json`` itself too
        out = encode(result)
        _emit(out if trace is None else
              {"result": out, "trace": [list(map(str, t)) if isinstance(t, tuple) else t
                                        for t in trace]})
    except RecursionError:
        sys.stderr.write(f"{_too_deep('output')}\n")
        return EXIT_CEILING
    return 0


def _verify(args) -> int:
    if args.check == "all":
        reports = run_all(args.n_max)
    else:
        reports = [run_check(args.check, args.n_max)]
    _emit([r.to_json() for r in reports])
    if any(r.status == "error" for r in reports):
        return EXIT_CEILING
    return 0 if all(r.status == "pass" for r in reports) else EXIT_VERIFY_FAIL


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once and reused; ``parse_args`` only reads it."""
    parser = argparse.ArgumentParser(prog="snake-atlas",
                                     description="exact enumeration of snakes, "
                                                 "signed Simsun/Andre families and "
                                                 "their tree and forest companions")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("triangle", help="recurrence-defined arrays")
    p.add_argument("--kind", required=True, choices=list(TRIANGLES))
    p.add_argument("--n", type=_int_at_least(1), required=True)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.set_defaults(fn=_triangle)

    p = sub.add_parser("family", help="enumerate a signed-permutation family")
    p.add_argument("--name", required=True, choices=sorted(FAMILY_TAGS))
    p.add_argument("--n", type=_int_at_least(1), required=True)
    p.add_argument("--anchor", choices=["first", "last", "gae"])
    p.add_argument("--value", type=int)
    p.set_defaults(fn=_family)

    p = sub.add_parser("poly", help="derivative polynomials")
    p.add_argument("--which", required=True, choices=["P", "Q", "R"])
    p.add_argument("--n", type=_int_at_least(0), required=True)
    p.add_argument("--q", action="store_true", help="emit the q-analogue")
    p.set_defaults(fn=_poly)

    p = sub.add_parser("bijection", help="apply one of the bijections")
    p.add_argument("--name", required=True, choices=sorted(BIJECTIONS))
    p.add_argument("--direction", choices=["forward", "inverse"], default="forward")
    p.add_argument("--input", required=True, help="JSON-encoded input object")
    p.add_argument("--trace", action="store_true")
    p.set_defaults(fn=_bijection)

    p = sub.add_parser("verify", help="run registered checks")
    p.add_argument("--check", default="all", choices=["all"] + sorted(CHECKS))
    p.add_argument("--n-max", type=_int_at_least(1), default=None)
    p.set_defaults(fn=_verify)

    parser.commands = sub.choices
    return parser


def parse(argv):
    """``build_parser().parse_args(argv)``, with one parse where argv names a
    subcommand: the top-level parser would only hand it the rest of argv."""
    parser = build_parser()
    command = parser.commands.get(argv[0]) if argv else None
    if command is None:
        return parser.parse_args(argv)
    args, extra = command.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
    if extra:
        parser.error(f"unrecognized arguments: {' '.join(extra)}")
    return args


def main(argv=None) -> int:
    args = parse(sys.argv[1:] if argv is None else argv)
    if args.command == "family" and (args.anchor is None) != (args.value is None):
        build_parser().error("--anchor and --value go together")
    try:
        return args.fn(args)
    except LimitError as exc:
        sys.stderr.write(f"{exc}\n")
        return EXIT_CEILING
    except RecursionError:
        sys.stderr.write(f"{_too_deep('input')}\n")
        return EXIT_CEILING
    except MembershipError as exc:
        sys.stderr.write(f"{exc}\n")
        return EXIT_DOMAIN
    except SettingError as exc:
        sys.stderr.write(f"{exc}\n")
        return EXIT_USAGE
    except ValueError as exc:
        sys.stderr.write(f"invalid input: {exc}\n")
        return EXIT_BAD_JSON


if __name__ == "__main__":
    sys.exit(main())

"""Command-line interface.

Subcommands: ``triangle`` (recurrence arrays as JSON or CSV), ``family``
(enumerate signed-permutation families), ``poly`` (derivative
polynomials, optionally their q-analogues), ``bijection`` (apply any of
the maps to a JSON-encoded object), and ``verify`` (run registered
checks).  JSON is the machine default; CSV mirrors the printed table
layouts for eyeballing.  A ``bijection`` input is decoded, not
validated: the map validates it, once, as it does for API callers.  A
request is parsed once, by its subcommand's parser (``parse``).

Importing this module loads no engine module but ``errors``: each
subcommand imports its own modules when its parser is built or it runs,
``BIJECTIONS`` is built when first read, and an engine name is bound
here once, on its first use (``_use``).

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
from importlib import import_module

from .errors import LimitError, MembershipError, SettingError

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


def _use(module: str, name: str):
    """``module.name``, bound here on its first use and read from here
    after: a wrapper put on it here (``perfbench/layers.py``) stays."""
    value = globals().get(name)
    if value is None:
        value = globals()[name] = getattr(import_module(f".{module}", __package__), name)
    return value


@functools.cache
def _bijections() -> dict:
    """``BIJECTIONS``: name -> (forward, inverse, forward input, forward
    output, inverse input, inverse output), built on first use from each
    map's forward and inverse and the (decoder, encoder) pairs of its
    input and output kinds."""
    b, f, t = (import_module(f".{m}", __package__) for m in ("bijections", "forests", "trees"))
    window, tree, forest = ((_parse_window, list), (t._decode_tree, t.tree_to_word_json),
                            (f._decode_forest, f.forest_to_json))
    maps = {
        "gamma": (_no_trace(t.tree_to_snake), _no_trace(t.snake_to_tree), tree, window),
        "mu": (_no_trace(f.tree_to_forest), _no_trace(f.forest_to_tree), tree, forest),
        "phi1": (b.phi1, b.phi1_inv, window, forest),
        "phi2": (b.phi2, b.phi2_inv, window, forest),
        "phi1-b": (_no_trace(b.phi1_b), _no_trace(b.phi1_b_inv), window, tree),
        "phi1-d": (_no_trace(b.phi1_d), _no_trace(b.phi1_d_inv), window, tree),
        "phi2-b": (_no_trace(b.phi2_b), _no_trace(b.phi2_b_inv), window, tree),
        "phi2-d": (_no_trace(b.phi2_d), _no_trace(b.phi2_d_inv), window, tree),
        "zeta1": (_no_trace(b.zeta1), _no_trace(b.zeta1_inv), window, window),
        "zeta2": (_no_trace(b.zeta2), _no_trace(b.zeta2_inv), window, window),
        "psi-star": (_with_case(t.psi_star), _with_case(t.psi_star_inv), tree, tree),
        "psi-circ": (_with_case(t.psi_circ), _with_case(t.psi_circ_inv), tree, tree),
        "psi-cap": (_no_trace(t.psi_cap), _no_trace(t.psi_cap_inv), tree, tree),
    }
    return {name: (fwd, inv, dom[0], cod[1], cod[0], dom[1])
            for name, (fwd, inv, dom, cod) in maps.items()}


def __getattr__(name):
    """Build ``BIJECTIONS`` on its first read (PEP 562)."""
    if name == "BIJECTIONS":
        return _bijections()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# kind -> the ``triangles`` function that builds its array
TRIANGLES = {"entringer": "entringer", "arnold": "arnold",
             "arnold-poly": "arnold_poly", "gamma": "gamma_arrays"}


def _triangle_options(p):
    p.add_argument("--kind", required=True, choices=list(TRIANGLES))
    p.add_argument("--n", type=_int_at_least(1), required=True)
    p.add_argument("--format", choices=["json", "csv"], default="json")


def _triangle(args) -> int:
    n = args.n
    tri = _use("triangles", TRIANGLES[args.kind])(n)
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


def _family_options(p):
    p.add_argument("--name", required=True, choices=sorted(_use("permutations", "FAMILY_TAGS")))
    p.add_argument("--n", type=_int_at_least(1), required=True)
    p.add_argument("--anchor", choices=list(_use("permutations", "_ANCHORS")))
    p.add_argument("--value", type=int)


def _family(args) -> int:
    constraint = None if args.anchor is None else (args.anchor, args.value)
    members = _use("permutations", "enumerate_family")(args.name, args.n, constraint)
    _emit({"family": args.name, "n": args.n, "count": len(members),
           "members": members})
    return 0


def _poly_options(p):
    p.add_argument("--which", required=True, choices=["P", "Q", "R"])
    p.add_argument("--n", type=_int_at_least(0), required=True)
    p.add_argument("--q", action="store_true", help="emit the q-analogue")


def _poly(args) -> int:
    fn = (_use("qcalculus", f"qpoly_{args.which}") if args.q
          else _use("triangles", f"hoffman_{args.which}"))
    _emit(fn(args.n).to_json())
    return 0


def _bijection_options(p):
    p.add_argument("--name", required=True, choices=sorted(_bijections()))
    p.add_argument("--direction", choices=["forward", "inverse"], default="forward")
    p.add_argument("--input", required=True, help="JSON-encoded input object")
    p.add_argument("--trace", action="store_true")


def _bijection(args) -> int:
    fwd, inv, fin, fout, iin, iout = _bijections()[args.name]
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


def _verify_options(p):
    p.add_argument("--check", default="all", choices=["all"] + sorted(_use("verify", "CHECKS")))
    p.add_argument("--n-max", type=_int_at_least(1), default=None)


def _verify_exit(reports) -> int:
    """3 if a check stopped at a ceiling (status "error"), else 1 if one failed, else 0."""
    if any(r.status == "error" for r in reports):
        return EXIT_CEILING
    return 0 if all(r.status == "pass" for r in reports) else EXIT_VERIFY_FAIL


def _verify(args) -> int:
    if args.check == "all":
        reports = _use("verify", "run_all")(args.n_max)
    else:
        reports = [_use("verify", "run_check")(args.check, args.n_max)]
    _emit([r.to_json() for r in reports])
    return _verify_exit(reports)


# subcommand -> (help, handler, its options).  Each options function
# reads its choice lists from their sources, so it loads only its modules.
COMMANDS = {"triangle": ("recurrence-defined arrays", _triangle, _triangle_options),
            "family": ("enumerate a signed-permutation family", _family, _family_options),
            "poly": ("derivative polynomials", _poly, _poly_options),
            "bijection": ("apply one of the bijections", _bijection, _bijection_options),
            "verify": ("run registered checks", _verify, _verify_options)}


@functools.cache
def build_parser(command=None) -> argparse.ArgumentParser:
    """The CLI parser, or with ``command`` that subcommand's parser alone;
    each is built once and reused, and ``parse_args`` only reads it."""
    if command is not None:
        parser = argparse.ArgumentParser(prog=f"snake-atlas {command}")
        COMMANDS[command][2](parser)
        return parser
    parser = argparse.ArgumentParser(prog="snake-atlas",
                                     description="exact enumeration of snakes, "
                                                 "signed Simsun/Andre families and "
                                                 "their tree and forest companions")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _, options) in COMMANDS.items():
        options(sub.add_parser(name, help=help_text))
    parser.commands = sub.choices
    return parser


def parse(argv):
    """``build_parser().parse_args(argv)`` in one parse: argv that names a
    subcommand goes to that subcommand's own parser alone."""
    if not argv or argv[0] not in COMMANDS:
        return build_parser().parse_args(argv)
    args, extra = build_parser(argv[0]).parse_known_args(
        argv[1:], argparse.Namespace(command=argv[0]))
    if extra:
        build_parser().error(f"unrecognized arguments: {' '.join(extra)}")
    return args


def main(argv=None) -> int:
    args = parse(sys.argv[1:] if argv is None else argv)
    if args.command == "family" and (args.anchor is None) != (args.value is None):
        build_parser().error("--anchor and --value go together")
    try:
        return COMMANDS[args.command][1](args)
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

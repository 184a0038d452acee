#!/usr/bin/env python3
"""One SHA-256 per CLI subcommand over a fixed table of requests.

Each request is one in-process ``snake_atlas.cli.main(argv)`` call.  Its
argv, exit code, stdout and stderr add one line to the digest of its
subcommand; help and usage errors (``PARSE_CASES``) go to ``usage``.  A
verify report's ``elapsed`` field is masked and help is formatted 80
columns wide, so the lines do not depend on the host.  The table:

* ``triangle``: every kind at n = 1..8, as JSON and as CSV;
* ``poly``: P, Q and R at n = 0..20, with and without ``--q``;
* ``family``: every family at n = 1..4, without an anchor and with each
  anchor at the values 1 and -n;
* ``bijection``: every map both ways, with and without ``--trace``, on
  the worked examples of ``fixtures.py``, on every window with n <= 3,
  every tree with n <= 3 (the first six nested too) and every forest
  with n <= 2, and on a few malformed payloads; an inverse also runs on
  the stdout of every forward request that succeeded;
* ``verify``: two checks at small depths;
* ``usage``: ``PARSE_CASES``, every subcommand with every option in each
  spelling argparse accepts, and the help and usage errors.

The last line is one digest over all the others.  Two versions of the
engine answer these requests alike exactly when they print the same
lines."""
import contextlib
import hashlib
import io
import itertools
import json
import os
import re
import sys
from unittest import mock

from snake_atlas import fixtures as fx
from snake_atlas import cli
from snake_atlas.forests import enumerate_forests, forest_to_json
from snake_atlas.permutations import FAMILY_TAGS
from snake_atlas.trees import enumerate_trees, tree_to_json, tree_to_word_json

ELAPSED = re.compile(r'"elapsed":[0-9.e-]+')

# argv tables shared with tests/test_cli.py's parse-parity test: requests
# that parse, in every spelling, then help and usage errors
PARSE_CASES = [
    ("triangle", "--kind", "gamma", "--n", "3", "--format", "json"),
    ("triangle", "--kind=arnold", "--n=2", "--format=csv"),
    ("triangle", "--ki", "entringer", "--n", "2", "--fo", "csv"),
    ("triangle", "--n", "5", "--kind", "arnold-poly", "--n", "2"),
    ("family", "--name", "snakes", "--n", "3", "--anchor", "first", "--value", "-2"),
    ("family", "--nam", "rsi", "--n", "2", "--anchor=gae", "--value=-1"),
    ("family", "--name", "rsi-b", "--n", "2", "--anc", "last", "--val", "1"),
    ("family", "--name", "snakes", "--name", "rsii-d", "--n", "2"),
    ("poly", "--which", "P", "--n", "0", "--q"),
    ("poly", "--wh", "R", "--n=3"),
    ("poly", "--q", "--q", "--which", "Q", "--n", "2"),
    ("bijection", "--name", "phi1", "--direction", "inverse", "--trace",
     "--input", '{"components":[{"color":"white","root":1,"child":"empty"}]}'),
    ("bijection", "--name", "gamma", "--dir", "inverse", "--in", "[-1]", "--tr"),
    ("bijection", "--name=phi2", "--input=[-1]", "--direction=forward"),
    ("bijection", "--input", "[4,-2,1,3,8,5,9,-7,6]", "--name", "zeta2"),
    ("bijection", "--name", "zeta2", "--direction", "inverse", "--input", "-1"),
    ("bijection", "--name", "psi-cap", "--input", "[1]", "--"),
    ("bijection", "--name", "psi-cap", "--", "--input", "[1]"),
    ("verify", "--check", "eq-1", "--n-max", "2"),
    ("verify", "--n-m", "1", "--ch", "thm-2-10"),
    ("family", "--name", "snakes", "--n", "3", "--anchor", "first"),
    ("family", "--name", "snakes", "--n", "3", "--value", "1"),
    (),
    ("-h",),
    ("--help",),
    ("--he",),
    ("-x",),
    ("--", "poly", "--which", "P", "--n", "1"),
    ("--name", "phi1", "bijection"),
    ("bogus",),
    ("Poly", "--which", "P", "--n", "1"),
    ("triangle", "-h"),
    ("family", "--help"),
    ("poly", "--which", "P", "-h"),
    ("bijection", "-h"),
    ("verify", "--he"),
    ("bijection",),
    ("bijection", "--name", "phi1"),
    ("family", "--name", "snakes"),
    ("triangle", "--n", "2"),
    ("poly", "--which", "P", "--n", "2", "stray"),
    ("triangle", "stray", "--kind", "arnold", "--n", "2"),
    ("poly", "--which", "P", "--n", "2", "--", "3"),
    ("verify", "--check", "eq-1", "--n-max", "1", "extra", "more"),
    ("poly", "--which", "P", "--n", "2", "--bogus"),
    ("verify", "--check", "eq-1", "--n-max", "1", "-x"),
    ("family", "--name", "snakes", "--n", "2", "--bogus=1"),
    ("bijection", "--name", "phi1", "--input", "[1]", "--trace=1"),
    ("triangle", "--kind", "bogus", "--n", "2"),
    ("bijection", "--name", "bogus", "--input", "[1]"),
    ("bijection", "--name", "phi1", "--direction", "sideways", "--input", "[1]"),
    ("verify", "--check", "bogus"),
    ("poly", "--which", "P", "--n", "x"),
    ("poly", "--which", "P", "--n", "-2"),
    ("family", "--name", "snakes", "--n", "0"),
    ("family", "--name", "snakes", "--n", "2", "--value", "x", "--anchor", "last"),
    ("verify", "--n-max", "0"),
    ("triangle", "--kind", "arnold", "--n"),
]

MALFORMED = ["[3,2,", "[]", "[true]", "[1.5]", "[0]", '{"x":1}', '"e"', "null",
             '["e",1]', '{"components":[]}']


def small_inputs(decoder):
    """JSON payloads of a direction's input kind, told by its decoder's name."""
    name = decoder.__name__
    if "window" in name:
        examples = [fx.TYPE1_EXAMPLE, fx.TYPE2_EXAMPLE, *fx.ZETA1_EXAMPLE,
                    *fx.ZETA2_EXAMPLE, *fx.TYPE1_D_EXAMPLE,
                    *(w for _, w in fx.GAMMA_EXAMPLES)]
        small = (tuple(s * x for s, x in zip(signs, perm))
                 for n in range(1, 4) for perm in itertools.permutations(range(1, n + 1))
                 for signs in itertools.product((1, -1), repeat=n))
        return [json.dumps(list(w)) for w in itertools.chain(examples, small)]
    if "forest" in name:
        return [json.dumps(forest_to_json(f)) for n in (1, 2) for f in enumerate_forests(n)]
    trees = [t for n in (1, 2, 3) for t in enumerate_trees(n)]
    return ([json.dumps(list(word)) for word, _ in fx.GAMMA_EXAMPLES]
            + [json.dumps(tree_to_word_json(t)) for t in trees]
            + [json.dumps(tree_to_json(t)) for t in trees[:6]])


def request_table():
    triangle = [("triangle", "--kind", kind, "--n", str(n), "--format", fmt)
                for kind in ("entringer", "arnold", "arnold-poly", "gamma")
                for n in range(1, 9) for fmt in ("json", "csv")]
    poly = [("poly", "--which", which, "--n", str(n)) + q
            for which in "PQR" for n in range(21) for q in ((), ("--q",))]
    family = [("family", "--name", name, "--n", str(n)) + anchor
              for name in FAMILY_TAGS for n in range(1, 5)
              for anchor in [()] + [("--anchor", a, "--value", str(v))
                                    for a in ("first", "last", "gae") for v in (1, -n)]]
    verify = [("verify", "--check", "eq-1", "--n-max", "3"),
              ("verify", "--check", "thm-2-10", "--n-max", "3")]
    return {"family": family, "poly": poly, "triangle": triangle,
            "usage": PARSE_CASES, "verify": verify}


def run(argv):
    """(exit code, stdout, stderr) of one ``main`` call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, ELAPSED.sub('"elapsed":0', out.getvalue()), err.getvalue()


def digest(cases) -> str:
    h = hashlib.sha256()
    for argv in cases:
        h.update(f"{argv!r}\t{run(argv)!r}\n".encode())
    return h.hexdigest()


def bijection_digest() -> str:
    """Like ``digest``, with a forward answer's stdout fed back as an input
    of the inverse direction."""
    h = hashlib.sha256()
    for name in sorted(cli.BIJECTIONS):
        _, _, fin, _, iin, _ = cli.BIJECTIONS[name]
        images = []
        for direction, decoder in (("forward", fin), ("inverse", iin)):
            payloads = small_inputs(decoder) + (images if direction == "inverse" else [])
            argvs = [("bijection", "--name", name, "--direction", direction,
                      "--input", p) + t for p in payloads for t in ((), ("--trace",))]
            argvs += [("bijection", "--name", name, "--direction", direction,
                       "--input", bad) for bad in MALFORMED]
            for argv in argvs:
                got = run(argv)
                if direction == "forward" and got[0] == 0 and "--trace" not in argv:
                    images.append(got[1].strip())
                h.update(f"{argv!r}\t{got!r}\n".encode())
    return h.hexdigest()


def main():
    total = hashlib.sha256()
    with mock.patch.dict(os.environ, {"COLUMNS": "80"}):
        lines = [f"bijection {bijection_digest()}"]
        lines += [f"{group} {digest(cases)}" for group, cases in request_table().items()]
    for line in lines:
        total.update(line.encode())
        print(line)
    print(f"all {total.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

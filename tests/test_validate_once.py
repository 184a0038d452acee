"""A ``bijection`` request validates its input once, in the map.

The CLI decoders only decode (the JSON-int check of a window, the tree
of a word or nested form, the sorted components of a forest); every map
validates its input first thing.  The first test counts the validator
calls on the decoded input for every map and direction; the table after
it pins exit codes and messages for malformed payloads of each decoder.
"""
import functools
import json

import pytest

import snake_atlas
from snake_atlas.cli import BIJECTIONS, main
from snake_atlas.forests import enumerate_forests, forest_to_json
from snake_atlas.trees import enumerate_trees, tree_to_json, tree_to_word_json

VALIDATORS = ("validate_tree", "validate_forest", "check_window")
MODULES = [getattr(snake_atlas, m) for m in
           ("bijections", "cli", "forests", "permutations", "trees", "verify")]


def _windows(n):
    if n == 0:
        return [()]
    return [w[:i] + (s * n,) + w[i:] for w in _windows(n - 1)
            for i in range(n) for s in (1, -1)]


@functools.cache
def candidates(kind):
    """(decoded input, JSON payloads) of sizes 4 and 5 for one input kind."""
    if kind == "window":
        return [(w, [list(w)]) for n in (4, 5) for w in _windows(n)]
    if kind == "forest":
        return [(f, [forest_to_json(f)]) for n in (4, 5) for f in enumerate_forests(n)]
    return [(t, [tree_to_word_json(t), tree_to_json(t)])
            for n in (4, 5) for t in enumerate_trees(n)]


def kind_of(decoder):
    name = decoder.__name__
    return "window" if "window" in name else "forest" if "forest" in name else "tree"


def valid_input(fn, kind):
    for x, payloads in candidates(kind):
        try:
            fn(x)
        except ValueError:
            continue
        return x, payloads
    raise AssertionError("no valid input found")


DIRECTIONS = [(name, d) for name in sorted(BIJECTIONS) for d in ("forward", "inverse")]


@pytest.mark.parametrize("name, direction", DIRECTIONS)
def test_a_valid_request_validates_its_input_once(name, direction, monkeypatch, capsys):
    fwd, inv, fin, _, iin, _ = BIJECTIONS[name]
    fn, decoder = (fwd, fin) if direction == "forward" else (inv, iin)
    x, payloads = valid_input(fn, kind_of(decoder))
    seen = []

    def counting(validate):
        def wrapped(obj, *args):
            seen.append(obj)
            return validate(obj, *args)
        return wrapped

    for module in MODULES:
        for attr in VALIDATORS:
            if hasattr(module, attr):
                monkeypatch.setattr(module, attr, counting(getattr(module, attr)))
    for payload in payloads:
        seen.clear()
        code = main(["bijection", "--name", name, "--direction", direction,
                     "--input", json.dumps(payload)])
        assert code == 0, capsys.readouterr().err
        same = [obj for obj in seen
                if obj == x or isinstance(obj, list) and tuple(obj) == x]
        assert len(same) == 1, (name, direction, payload, seen)
    capsys.readouterr()


# (name, direction, payload, exit code, stderr); the messages are those
# the CLI printed when it still validated while decoding.
MALFORMED = [
    # windows
    ("phi1", "forward", '{"a":1}', 4, "invalid input: expected a JSON array of nonzero integers\n"),
    ("phi1", "forward", '[1,"2"]', 4, "invalid input: expected a JSON array of nonzero integers\n"),
    ("phi1", "forward", "[1.5]", 4, "invalid input: expected a JSON array of nonzero integers\n"),
    ("phi1", "forward", "[true]", 4, "invalid input: expected a JSON array of nonzero integers\n"),
    ("phi1", "forward", "[]", 4, "invalid input: window must be nonempty\n"),
    ("phi1", "forward", "[0]", 4, "invalid input: window entries must be nonzero\n"),
    ("phi1", "forward", "[1,1]", 4, "invalid input: absolute values must be a permutation of 1..n\n"),
    ("phi1", "forward", "[2]", 4, "invalid input: absolute values must be a permutation of 1..n\n"),
    ("zeta2", "inverse", '"x"', 4, "invalid input: expected a JSON array of nonzero integers\n"),
    ("zeta2", "inverse", "[null]", 4, "invalid input: expected a JSON array of nonzero integers\n"),
    ("zeta2", "inverse", "[2,-2]", 4, "invalid input: absolute values must be a permutation of 1..n\n"),
    # inorder-word trees
    ("psi-star", "forward", "[1]", 5, "psi_star is undefined at rightmost label 1\n"),
    ("psi-star", "forward", '["e",1]', 4, "invalid input: labelled node must have zero or two children\n"),
    ("psi-star", "forward", '["e",1,"e",2]', 4,
     "invalid input: labelled node must have zero or two children\n"),
    ("psi-star", "forward", '["e",2,"e"]', 4, "invalid input: labels must be exactly 1..n\n"),
    ("psi-star", "forward", '["e",1,"x"]', 4, "invalid input: bad label 'x'\n"),
    ("psi-star", "forward", "[true]", 4, "invalid input: bad label True\n"),
    ("psi-star", "forward", '["e","e","e"]', 4,
     "invalid input: labelled node must have zero or two children\n"),
    ("psi-star", "forward", "[]", 4, "invalid input: labelled node must have zero or two children\n"),
    ("gamma", "forward", '["e",1,"e",1,"e"]', 4,
     "invalid input: labels must increase from the root (saw 1 under 1)\n"),
    ("gamma", "forward", '[1,2,"e"]', 4,
     "invalid input: labels must increase from the root (saw 1 under 2)\n"),
    # nested trees
    ("phi2-d", "inverse", '{"leaf": 1.5}', 4, "invalid input: bad label 1.5\n"),
    ("phi2-d", "inverse", '{"label": 1}', 4, "invalid input: bad tree node {'label': 1}\n"),
    ("phi2-d", "inverse", '{"label": 2, "left": "empty", "right": "empty"}', 4,
     "invalid input: labels must be exactly 1..n\n"),
    ("phi2-d", "inverse", '{"label": 1, "left": {"leaf": 1}, "right": "empty"}', 4,
     "invalid input: labels must increase from the root (saw 1 under 1)\n"),
    ("phi2-d", "inverse", '"x"', 4, "invalid input: bad tree node 'x'\n"),
    ("phi2-d", "inverse", '"empty"', 4, "invalid input: tree must have at least one labelled node\n"),
    ("phi2-d", "inverse", "5", 4, "invalid input: bad tree node 5\n"),
    ("phi2-d", "inverse", '{"leaf": 1}', 5, "phi2_d_inv: rightmost label must be >= 2\n"),
    # forests
    ("phi2", "inverse", "[]", 4, 'invalid input: expected a forest {"components": [...]}\n'),
    ("phi2", "inverse", '{"components": []}', 4,
     "invalid input: forest must have at least one component\n"),
    ("phi2", "inverse", '{"components": [{"color": "red", "root": 1, "child": "empty"}]}', 4,
     "invalid input: malformed component ('red', 1, 'e')\n"),
    ("phi2", "inverse", '{"components": [{"color": "white", "root": 2, "child": "empty"}]}', 4,
     "invalid input: labels must be exactly 1..n\n"),
    ("phi2", "inverse", '{"components": [1]}', 4, "invalid input: bad forest component 1\n"),
    ("phi2", "inverse", '{"components": [{"color": "white", "root": true, "child": "empty"}]}', 4,
     "invalid input: bad label True\n"),
    ("phi2", "inverse", '{"components": [{"color": "white", "root": 1, "child": {"leaf": 1}}]}', 4,
     "invalid input: labels must increase from the root (saw 1 under 1)\n"),
    ("phi2", "inverse",
     '{"components": [{"color": "white", "root": 2, "child": "empty"}, '
     '{"color": "black", "root": 1, "child": {"label": 3, "left": "empty"}}]}', 4,
     "invalid input: bad tree node {'label': 3, 'left': 'empty'}\n"),
    ("mu", "inverse", '{"components": [{"color": "black", "root": 1, "child": "empty"}]}', 5,
     "only all-white forests correspond to trees\n"),
    ("mu", "inverse", '{"components": {"x": 1}}', 4,
     'invalid input: expected a forest {"components": [...]}\n'),
]


@pytest.mark.parametrize("name, direction, payload, code, err", MALFORMED)
def test_malformed_payloads_fail_as_before(name, direction, payload, code, err, capsys):
    got = main(["bijection", "--name", name, "--direction", direction, "--input", payload])
    out = capsys.readouterr()
    assert (got, out.err, out.out) == (code, err, "")

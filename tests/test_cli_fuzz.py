"""Any JSON payload to any map gets an answer or a documented exit code.

Every bijection, both ways, runs through ``cli.main`` on seeded
Hypothesis payloads: arbitrary JSON (with the keys and words the tree
and forest decoders read), text that is not JSON, and well-formed
windows, trees and forests of every kind, so that some payloads lie in
the map's domain and some only just outside it.  ``--trace`` is on for
some of them.  The exit code is 0, 3 (size ceiling), 4 (malformed
input) or 5 (outside the domain), no exception escapes ``main``, and
nothing is written to stdout unless the code is 0.
"""
import contextlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from snake_atlas.cli import BIJECTIONS, main
from snake_atlas.forests import enumerate_forests, forest_to_json
from snake_atlas.trees import enumerate_trees, tree_to_json, tree_to_word_json

KEYS = ["label", "left", "right", "leaf", "components", "color", "root", "child"]
WORDS = ["e", "empty", "white", "black"]

scalars = (st.none() | st.booleans() | st.integers(-9, 9) | st.sampled_from(WORDS)
           | st.floats(allow_nan=False, allow_infinity=False))
json_values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=6)
    | st.dictionaries(st.sampled_from(KEYS), inner, max_size=4),
    max_leaves=12)


@st.composite
def windows(draw):
    n = draw(st.integers(1, 7))
    values = draw(st.permutations(range(1, n + 1)))
    return [v if draw(st.booleans()) else -v for v in values]


TREES = [t for n in range(1, 5) for t in enumerate_trees(n)]
FORESTS = [f for n in range(1, 4) for f in enumerate_forests(n)]
objects = (windows() | st.sampled_from(TREES).map(tree_to_word_json)
           | st.sampled_from(TREES).map(tree_to_json)
           | st.sampled_from(FORESTS).map(forest_to_json))
payloads = (objects.map(json.dumps) | json_values.map(json.dumps)
            | st.text(max_size=12))


@pytest.mark.parametrize("direction", ["forward", "inverse"])
@pytest.mark.parametrize("name", sorted(BIJECTIONS))
def test_any_payload_gets_an_answer_or_a_documented_exit(name, direction):
    @settings(derandomize=True, max_examples=25, deadline=None, database=None)
    @given(payload=payloads, trace=st.booleans())
    def check(payload, trace):
        argv = ["bijection", "--name", name, "--direction", direction,
                f"--input={payload}"] + ["--trace"] * trace
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 3, 4, 5), (argv, code, err.getvalue())
        if code:
            assert out.getvalue() == "", argv
            assert len(err.getvalue().splitlines()) == 1, argv
    check()

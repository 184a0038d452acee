import json
from collections import Counter

import pytest

import querygen
from snake_atlas.forests import WHITE, forest_from_json, validate_forest
from snake_atlas.permutations import is_member
from snake_atlas.trees import is_starred, rmlab, tree_from_json, validate_tree


def tree(cls=None):
    def ok(t, n):
        return {None: True,
                "circ": not is_starred(t),
                "star": is_starred(t) and rmlab(t) >= 2,
                "circ-below-top": not is_starred(t) and rmlab(t) < n,
                "star-top": is_starred(t) and rmlab(t) == n,
                "circ-top": not is_starred(t) and rmlab(t) == n}[cls]
    return "tree", ok


def forest(white=False):
    return "forest", lambda f, n: not white or all(c[0] == WHITE for c in f)


def window(family):
    return "window", lambda w, n: is_member(w, family)


# bijection -> (domain of forward requests, domain of inverse requests)
DOMAINS = {
    "gamma": (tree(), window("snakes")),
    "mu": (tree("circ"), forest(white=True)),
    "phi1": (window("rsi"), forest()),
    "phi2": (window("rsii"), forest()),
    "phi1-b": (window("rsi-b"), tree("circ")),
    "phi1-d": (window("rsi-d"), tree("star")),
    "phi2-b": (window("rsii-b"), tree("circ")),
    "phi2-d": (window("rsii-d"), tree("star")),
    "zeta1": (window("adi"), window("rsi")),
    "zeta2": (window("adii"), window("rsii")),
    "psi-star": (tree("star"), tree()),
    "psi-circ": (tree("circ-below-top"), tree()),
    "psi-cap": (tree("star-top"), tree("circ-top")),
}


def decode(kind, payload):
    if kind == "tree":
        t = tree_from_json(payload)
        return t, validate_tree(t)
    if kind == "forest":
        f = forest_from_json(payload)
        return f, validate_forest(f)
    return tuple(payload), len(payload)


@pytest.fixture(scope="module", params=[1, 2])
def batch(request):
    return querygen.make_batch(request.param)


def test_every_bijection_input_lies_in_its_domain(batch):
    requests = [r for r in batch if r["kind"] == "bijection"]
    assert Counter((r["name"], r["direction"]) for r in requests) == {
        (name, d): querygen.REQUESTS_PER_MAP
        for name in DOMAINS for d in ("forward", "inverse")}
    for req in requests:
        kind, ok = DOMAINS[req["name"]][req["direction"] == "inverse"]
        obj, n = decode(kind, json.loads(req["argv"][-1]))
        assert ok(obj, n), req["argv"]
        assert querygen.BIJECTION_SIZES[0] - 1 <= n <= querygen.BIJECTION_SIZES[1], req["argv"]


def test_batch_make_up_is_fixed_and_objects_follow_the_seed(batch):
    other = querygen.make_batch(3)
    assert len(batch) == len(other) >= 1000
    assert (Counter(r["kind"] for r in batch) == Counter(r["kind"] for r in other)
            == {"bijection": 780, "poly": 156, "triangle": 72, "family": 35})
    assert [r["argv"] for r in batch] != [r["argv"] for r in other]


def test_same_seed_same_batch():
    assert querygen.make_batch(5) == querygen.make_batch(5)

"""Seeded request batch for the point-queries workload.

Objects are built from public constructors and maps only:

* increasing trees grow by filling a random empty slot with the next
  label, which becomes a leaf or a node with two empty slots;
* forests come from a random set partition of 1..n, each block rooted
  at its least label over a grown tree of the rest, in a random colour;
* windows come from the inverse maps (``phi1_inv``, ``phi2_inv``,
  ``phi*_b_inv``, ``phi*_d_inv``, ``zeta*_inv``) applied to random
  trees, forests and windows;
* class-restricted trees (star or circ class, rightmost label bounds)
  are drawn by rejection.

A bijection's inverse request carries the forward image of a fresh
forward input, so both directions stay inside their domains.  The batch
has a fixed make-up (counts per request kind and size); the seed only
picks the objects, the anchor values and the order.
"""
from __future__ import annotations

import json
import random

from snake_atlas.bijections import (phi1_b_inv, phi1_d_inv, phi1_inv, phi2_b_inv,
                                    phi2_d_inv, phi2_inv, zeta1_inv, zeta2_inv)
from snake_atlas.cli import BIJECTIONS
from snake_atlas.errors import MembershipError
from snake_atlas.forests import BLACK, WHITE
from snake_atlas.trees import EMPTY, is_starred, nodes_to_tree, rmlab

BIJECTION_SIZES = (20, 40)
REQUESTS_PER_MAP = 30      # per bijection and direction
POLY_MAX_N = 40
QPOLY_MAX_N = 12
TRIANGLE_MAX_N = 12
FAMILY_MAX_N = 5
TRIANGLE_KINDS = {"entringer": ("json", "csv"), "arnold": ("json", "csv"),
                  "arnold-poly": ("json",), "gamma": ("json",)}
# (family, anchor) pairs whose member counts are triangle cells or
# polynomial values; see ``workloads._family_expected``.
FAMILY_KINDS = (("snakes", None), ("snakes", "first"), ("gamma-snakes", "first"),
                ("rsi-b", "last"), ("alternating-unsigned", "first"),
                ("rsi", None), ("rsii", None))
MAX_TRIES = 100_000


def grow_tree(rng: random.Random, labels):
    """A random increasing tree on the sorted ``labels``."""
    labels = list(labels)
    root = labels[0]
    nodes = {root: None}
    slots = []
    if len(labels) > 1:
        nodes[root] = [EMPTY, EMPTY]
        slots = [(root, 0), (root, 1)]
    for placed, k in enumerate(labels[1:], start=2):
        parent, side = slots.pop(rng.randrange(len(slots)))
        nodes[parent][side] = k
        # keep a slot open while labels remain
        if (placed < len(labels) and not slots) or rng.random() < 0.5:
            nodes[k] = [EMPTY, EMPTY]
            slots += [(k, 0), (k, 1)]
        else:
            nodes[k] = None
    return nodes_to_tree(root, nodes)


def grow_forest(rng: random.Random, n: int):
    """A random forest on 1..n from a random set partition."""
    blocks: list[list[int]] = []
    for k in range(1, n + 1):
        j = rng.randrange(len(blocks) + 1)
        if j == len(blocks):
            blocks.append([k])
        else:
            blocks[j].append(k)
    return tuple((rng.choice((BLACK, WHITE)), b[0], grow_tree(rng, b[1:]) if len(b) > 1 else EMPTY)
                 for b in blocks)


def _tree_where(rng, n, ok):
    for _ in range(MAX_TRIES):
        tree = grow_tree(rng, range(1, n + 1))
        if ok(tree, n):
            return tree
    raise RuntimeError(f"no tree of size {n} in the class after {MAX_TRIES} tries")


def _circ(rng, n):
    return _tree_where(rng, n, lambda t, n: not is_starred(t))


def _star(rng, n):
    return _tree_where(rng, n, lambda t, n: is_starred(t) and rmlab(t) >= 2)


def _via(make, inverse):
    """Inputs ``inverse(make(...))``, redrawing objects outside its domain."""
    def draw(rng, n):
        for _ in range(MAX_TRIES):
            try:
                return inverse(make(rng, n))
            except MembershipError:
                continue
        raise RuntimeError(f"no {inverse.__name__} preimage found")
    return draw


def _rsi_minus_one(rng, n):
    return phi1_inv(grow_forest(rng, n - 1))


def _rsii_minus_one(rng, n):
    return phi2_inv(grow_forest(rng, n - 1))


# bijection -> draws one object of its forward domain at size n
FORWARD_INPUTS = {
    "gamma": lambda rng, n: grow_tree(rng, range(1, n + 1)),
    "mu": _circ,
    "phi1": _via(grow_forest, phi1_inv),
    "phi2": _via(grow_forest, phi2_inv),
    "phi1-b": _via(_circ, phi1_b_inv),
    "phi1-d": _via(_star, phi1_d_inv),
    "phi2-b": _via(_circ, phi2_b_inv),
    "phi2-d": _via(_star, phi2_d_inv),
    "zeta1": _via(_rsi_minus_one, zeta1_inv),
    "zeta2": _via(_rsii_minus_one, zeta2_inv),
    "psi-star": _star,
    "psi-circ": lambda rng, n: _tree_where(
        rng, n, lambda t, n: not is_starred(t) and rmlab(t) < n),
    "psi-cap": lambda rng, n: _tree_where(
        rng, n, lambda t, n: is_starred(t) and rmlab(t) == n),
}


def _bijection_requests(rng):
    out = []
    for name in sorted(BIJECTIONS):
        fwd, _, _, fout, _, iout = BIJECTIONS[name]
        for direction in ("forward", "inverse"):
            for _ in range(REQUESTS_PER_MAP):
                x = FORWARD_INPUTS[name](rng, rng.randint(*BIJECTION_SIZES))
                payload = iout(x) if direction == "forward" else fout(fwd(x))
                argv = ["bijection", "--name", name, "--direction", direction,
                        "--input", json.dumps(payload, separators=(",", ":"))]
                out.append({"kind": "bijection", "name": name,
                            "direction": direction, "argv": argv})
    return out


def _poly_requests():
    out = []
    for which in "PQR":
        for n in range(1, POLY_MAX_N + 1):
            out.append({"kind": "poly", "which": which, "n": n, "q": False,
                        "argv": ["poly", "--which", which, "--n", str(n)]})
        for n in range(1, QPOLY_MAX_N + 1):
            out.append({"kind": "poly", "which": which, "n": n, "q": True,
                        "argv": ["poly", "--which", which, "--n", str(n), "--q"]})
    return out


def _triangle_requests():
    return [{"kind": "triangle", "tri": tri, "n": n, "format": fmt,
             "argv": ["triangle", "--kind", tri, "--n", str(n), "--format", fmt]}
            for tri, formats in TRIANGLE_KINDS.items()
            for n in range(1, TRIANGLE_MAX_N + 1) for fmt in formats]


def _anchor_value(rng, family, anchor, n):
    # rsi-b ends on a positive entry; unsigned windows have no negative ones
    if anchor == "last" or family == "alternating-unsigned":
        return rng.randint(1, n)
    return rng.choice([k for k in range(-n, n + 1) if k])


def _family_requests(rng):
    out = []
    for family, anchor in FAMILY_KINDS:
        for n in range(1, FAMILY_MAX_N + 1):
            argv = ["family", "--name", family, "--n", str(n)]
            value = None
            if anchor is not None:
                value = _anchor_value(rng, family, anchor, n)
                argv += ["--anchor", anchor, "--value", str(value)]
            out.append({"kind": "family", "family": family, "n": n,
                        "anchor": anchor, "value": value, "argv": argv})
    return out


def make_batch(seed: int) -> list[dict]:
    """The point-queries batch for ``seed``, in request order."""
    rng = random.Random(seed)
    batch = (_bijection_requests(rng) + _poly_requests() + _triangle_requests()
             + _family_requests(rng))
    rng.shuffle(batch)
    return batch

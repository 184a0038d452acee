#!/usr/bin/env python3
"""One SHA-256 per bijection and direction over its full input space.

Every map of the CLI's bijection table runs, with ``trace=True``, on
every input of its kind up to size --n: every signed window, every tree
or every forest.  Each input adds one line to its map's digest: the
input with its image and trace, or with the exception's type, message
and step when the input lies outside the map's domain.  The last line
is one digest over all the others.  Two versions of the engine agree on
every output, trace and error message exactly when they print the same
digests."""
import argparse
import hashlib
import itertools
import sys

from snake_atlas.cli import BIJECTIONS, _int_at_least
from snake_atlas.forests import enumerate_forests
from snake_atlas.trees import enumerate_trees


def windows(n_max):
    for n in range(1, n_max + 1):
        for perm in itertools.permutations(range(1, n + 1)):
            for signs in itertools.product((1, -1), repeat=n):
                yield tuple(s * x for s, x in zip(signs, perm))


def inputs(decoder, n_max):
    """The inputs of a direction, told by the name of its JSON decoder."""
    name = decoder.__name__
    if "window" in name:
        return windows(n_max)
    if "forest" in name:
        return (f for n in range(1, n_max + 1) for f in enumerate_forests(n))
    return (t for n in range(1, n_max + 1) for t in enumerate_trees(n))


def digest(fn, xs) -> str:
    h = hashlib.sha256()
    for x in xs:
        try:
            got = ("ok",) + tuple(fn(x, trace=True))
        except ValueError as exc:  # MembershipError and LimitError included
            got = ("error", type(exc).__name__, str(exc), getattr(exc, "step", None))
        h.update(f"{x!r}\t{got!r}\n".encode())
    return h.hexdigest()


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=_int_at_least(1), default=6)
    args = parser.parse_args()
    total = hashlib.sha256()
    for name in sorted(BIJECTIONS):
        fwd, inv, fin, _, iin, _ = BIJECTIONS[name]
        for direction, fn, decoder in (("forward", fwd, fin), ("inverse", inv, iin)):
            line = f"{name} {direction} {digest(fn, inputs(decoder, args.n))}"
            total.update(line.encode())
            print(line, flush=True)
    print(f"all {total.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

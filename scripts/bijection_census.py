#!/usr/bin/env python3
"""Census of the signed permutation families and their images.

For each size up to --n, tabulates family cardinalities against the
triangle predictions and reports how the two insertion bijections
distribute empty-leaf counts.  Useful for eyeballing how the refined
families tile the signed triangle."""
import argparse
import sys
from collections import Counter

from snake_atlas.bijections import phi1, phi2
from snake_atlas.cli import EXIT_CEILING, EXIT_USAGE, _int_at_least
from snake_atlas.errors import LimitError, SettingError, enforce_ceiling
from snake_atlas.forests import emp_forest
from snake_atlas.permutations import DEFAULT_PERM_CEILING, enumerate_family
from snake_atlas.triangles import arnold


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=_int_at_least(1), default=5)
    args = parser.parse_args()
    try:
        census(args.n)
    except LimitError as exc:
        print(exc, file=sys.stderr)
        return EXIT_CEILING
    except SettingError as exc:
        print(exc, file=sys.stderr)
        return EXIT_USAGE
    return 0


def census(n_max):
    # Every size starts with the rsi-b enumeration, so its ceiling at the
    # largest size is checked before anything is computed or printed.
    enforce_ceiling("family 'rsi-b' enumeration", n_max, None, DEFAULT_PERM_CEILING)
    for n in range(1, n_max + 1):
        tri = arnold(n)
        print(f"\nsize {n}")
        for fam, anchor in (("rsi-b", "last"), ("rsii-b", "gae")):
            row = []
            for k in range(1, n + 1):
                count = len(enumerate_family(fam, n, (anchor, n - k + 1)))
                row.append(f"{count}={tri.value(n, k)}")
            print(f"  {fam:7s} vs positive columns: " + "  ".join(row))
        for fam, maker in (("rsi", phi1), ("rsii", phi2)):
            dist = Counter(emp_forest(maker(w)) for w in enumerate_family(fam, n))
            print(f"  {fam:7s} empty-leaf distribution: {dict(sorted(dist.items()))}")


if __name__ == "__main__":
    sys.exit(main())

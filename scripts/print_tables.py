#!/usr/bin/env python3
"""Print every reference table the package computes, side by side with
nothing hidden: the zigzag triangle, the signed triangle and its two
polynomial refinements, and the three derivative-polynomial families
with their q-analogues."""
import argparse

from snake_atlas.cli import _int_at_least
from snake_atlas.qcalculus import qpoly_P, qpoly_Q, qpoly_R
from snake_atlas.triangles import (arnold, arnold_poly, entringer,
                                   gamma_arrays, hoffman_P, hoffman_Q,
                                   hoffman_R)


def show_double(title, tri, at_one=False):
    print(f"\n{title}")
    for r in range(1, tri.n + 1):
        cells = []
        for k in tri.signed_columns(tri.n):
            if abs(k) > r:
                cells.append("")
            else:
                v = tri.value(r, k)
                cells.append(str(v(1) if at_one else v))
        print(f"  {r:2d} | " + " | ".join(f"{c:>14s}" for c in cells))


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=_int_at_least(1), default=6)
    args = parser.parse_args()
    n = args.n

    print("zigzag triangle (row sums on the right)")
    tri = entringer(n)
    for r in range(1, n + 1):
        print(f"  {r:2d} | " + " ".join(f"{v:6d}" for v in tri.row(r))
              + f"   = {tri.row_sum(r)}")

    show_double("signed first-entry triangle", arnold(n))
    show_double("polynomial refinement", arnold_poly(min(n, 6)))
    show_double("leftmost-leaf-empty arrays", gamma_arrays(min(n, 6)))
    show_double("leftmost-leaf-empty counts (t=1)", gamma_arrays(n), at_one=True)

    print("\nderivative polynomials")
    for m in range(1, n + 1):
        print(f"  P_{m} = {hoffman_P(m)}")
        print(f"  Q_{m} = {hoffman_Q(m)}")
        print(f"  R_{m} = {hoffman_R(m)}")

    print("\nq-analogues (coefficient lists by t-power)")
    for m in range(1, min(n, 4) + 1):
        print(f"  P_{m}(q,t): {qpoly_P(m).to_json()['t']}")
        print(f"  Q_{m}(q,t): {qpoly_Q(m).to_json()['t']}")
        print(f"  R_{m}(q,t): {qpoly_R(m).to_json()['t']}")


if __name__ == "__main__":
    main()

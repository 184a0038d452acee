"""The benchmark's workloads.

Each workload is a batch of requests from one closed-loop client (the
next request starts when the previous one returns).  ``run_pass`` sends
the whole batch once and returns every output with its latency;
``check`` then verifies those outputs outside the timed region, counting
each failure into the tally.  Layer functions are imported by name here
so that the traced run can wrap them in this module too.
"""
from __future__ import annotations

import contextlib
import csv
import io
import json
import time
from collections import Counter

import querygen
from snake_atlas.cli import BIJECTIONS
from snake_atlas.cli import main as cli_main
from snake_atlas.forests import emp_forest, enumerate_forests
from snake_atlas.permutations import is_member
from snake_atlas.qcalculus import (qpoly_P, qpoly_Q, qpoly_R, weighted_sum_forests,
                                   weighted_sum_trees)
from snake_atlas.trees import emp, enumerate_trees
from snake_atlas.triangles import arnold, entringer, gamma_arrays, hoffman_R
from snake_atlas.verify import CHECKS, run_check


class VerifyAll:
    """Every registered check, in the order ``run_all`` runs them; a
    request is one ``run_check`` call, exactly as ``run_all`` makes it."""

    name = "verify-all"
    depth = 5

    def batch(self, seed: int) -> list[str]:
        return sorted(CHECKS)

    def run_pass(self, batch):
        reports, latencies = [], []
        for cid in batch:
            start = time.perf_counter()
            reports.append(run_check(cid, self.depth))
            latencies.append(time.perf_counter() - start)
        return reports, latencies

    def check(self, batch, reports, tally) -> None:
        got = {r.check_id: r for r in reports}
        for cid in batch:
            tally.check(f"verify {cid}",
                        lambda: got[cid].status == "pass" and got[cid].n_range == [1, self.depth])


class BulkTreesForests:
    """t^emp sums over all trees and forests of each size, and the q-weighted
    sums, each checked against its derivative polynomial."""

    name = "bulk-trees-forests"
    max_n = 7           # trees and forests
    max_weighted_n = 6  # q-weighted sums

    def batch(self, seed: int) -> list[tuple[str, int]]:
        return ([("trees", n) for n in range(1, self.max_n + 1)]
                + [("forests", n) for n in range(1, self.max_n + 1)]
                + [(kind, n) for kind in ("weighted-trees", "weighted-forests",
                                          "weighted-white-forests")
                   for n in range(1, self.max_weighted_n + 1)])

    @staticmethod
    def _run(kind: str, n: int):
        if kind == "trees":
            return Counter(emp(t) for t in enumerate_trees(n))
        if kind == "forests":
            return Counter(emp_forest(f) for f in enumerate_forests(n))
        if kind == "weighted-trees":
            return weighted_sum_trees(n)
        if kind == "weighted-forests":
            return weighted_sum_forests(n)
        return weighted_sum_forests(n, white_only=True)

    def run_pass(self, batch):
        outputs, latencies = [], []
        for kind, n in batch:
            start = time.perf_counter()
            outputs.append(self._run(kind, n))
            latencies.append(time.perf_counter() - start)
        return outputs, latencies

    def check(self, batch, outputs, tally) -> None:
        expected = {"trees": lambda n: _dense(REFERENCE["P"][n]),
                    "forests": lambda n: _dense(REFERENCE["R"][n]),
                    "weighted-trees": qpoly_P, "weighted-forests": qpoly_R,
                    "weighted-white-forests": qpoly_Q}
        for (kind, n), got in zip(batch, outputs):
            if kind in ("trees", "forests"):
                got = _dense(dict(got))
            tally.check(f"{kind} n={n}", lambda: got == expected[kind](n))


class PointQueries:
    """Seeded in-process CLI requests; a request is one ``cli.main`` call."""

    name = "point-queries"

    def __init__(self):
        self._verified: dict[int, tuple] = {}

    def batch(self, seed: int) -> list[dict]:
        return querygen.make_batch(seed)

    def run_pass(self, batch):
        outputs, latencies = [], []
        for req in batch:
            out, err = io.StringIO(), io.StringIO()
            start = time.perf_counter()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = cli_main(req["argv"])
            except SystemExit as exc:      # argparse rejected the request
                code = exc.code
            except Exception as exc:       # a traceback is a failed request
                code = f"{type(exc).__name__}: {exc}"
            latencies.append(time.perf_counter() - start)
            outputs.append((code, out.getvalue()))
        return outputs, latencies

    def check(self, batch, outputs, tally) -> None:
        # Passes repeat the batch; an output identical to one already
        # verified for the same request has the same verdict.
        for i, (req, (code, out)) in enumerate(zip(batch, outputs)):
            seen = self._verified.get(i)
            if seen is not None and seen[:2] == (code, out):
                tally.record(seen[2], seen[3])
                continue
            what = " ".join(req["argv"][:6])
            if code == 0:
                ok = tally.check(what, CHECKERS[req["kind"]], req, out)
            else:
                ok, what = False, f"{what}: exit {code}"
                tally.record(ok, what)
            self._verified[i] = (code, out, ok, what)


WORKLOADS = {w.name: w for w in (VerifyAll, BulkTreesForests, PointQueries)}


# -- reference values, independent of the package -----------------------

def _derivative_polys(n_max: int, start: list[int], times_t: int) -> list[dict]:
    """Polynomials with f_0 = ``start`` and f_{n+1} = (1+t^2) f_n' + c t f_n
    as {exponent: coefficient}; c = 0, 1, 2 gives the derivative
    polynomials of tan (P), sec (Q) and sec^2 (R)."""
    out, cur = [], list(start)
    for _ in range(n_max + 1):
        out.append({e: c for e, c in enumerate(cur) if c})
        nxt = [0] * (len(cur) + 1)
        for e, c in enumerate(cur):
            if e:
                nxt[e - 1] += e * c
                nxt[e + 1] += e * c
            nxt[e + 1] += times_t * c
        cur = nxt
    return out


_REF_N = max(querygen.POLY_MAX_N, BulkTreesForests.max_n)
REFERENCE = {"P": _derivative_polys(_REF_N, [0, 1], 0),
             "Q": _derivative_polys(_REF_N, [1], 1),
             "R": _derivative_polys(_REF_N, [1], 2)}


def _dense(terms: dict) -> list[int]:
    """Coefficients from t^0 up, without trailing zeros."""
    if any(e < 0 for e, c in terms.items() if c):
        raise ValueError(f"negative exponent in {terms}")
    top = max((e for e, c in terms.items() if c), default=-1)
    return [terms.get(e, 0) for e in range(top + 1)]


def _laurent_terms(obj) -> dict:
    return {obj["min_exp"] + i: c for i, c in enumerate(obj["coeffs"])}


def _add(terms: list[dict], shift: int = 0) -> dict:
    total = Counter()
    for t in terms:
        for e, c in t.items():
            total[e + shift] += c
    return {e: c for e, c in total.items() if c}


def _at(terms: dict, t: int) -> int:
    return sum(c * t ** e for e, c in terms.items())


# -- point-query checks ----------------------------------------------------

def _check_bijection(req, out) -> bool:
    """The response, mapped back by the opposite direction, is the input."""
    fwd, inv, fin, _, iin, _ = BIJECTIONS[req["name"]]
    sent, got = json.loads(req["argv"][-1]), json.loads(out)
    if req["direction"] == "forward":
        return inv(iin(got)) == fin(sent)
    return fwd(fin(got)) == iin(sent)


def _check_poly(req, out) -> bool:
    got = json.loads(out)
    want = _dense(REFERENCE[req["which"]][req["n"]])
    if req["q"]:
        # the q-analogue at q=1 is the plain polynomial
        at_one = [sum(c) for c in got["t"]]
        return _dense(dict(enumerate(at_one))) == want
    return _dense(_laurent_terms(got)) == want


def _triangle_row(req, out) -> dict:
    n = req["n"]
    if req["format"] == "json":
        return {r["k"]: r["value"] for r in json.loads(out)["rows"]}
    header, *rows = csv.reader(io.StringIO(out))
    last = rows[-1]
    if last[0] != str(n):
        raise ValueError(f"last csv row is {last[0]}, not {n}")
    return {int(k): int(v) for k, v in zip(header[1:], last[1:]) if v != ""}


def _check_triangle(req, out) -> bool:
    """Row sums against the derivative polynomials: Euler numbers for the
    Entringer row; Q_n and P_n - tQ_n for the signed rows."""
    n, tri = req["n"], req["tri"]
    row = _triangle_row(req, out)
    P, Q = REFERENCE["P"][n], REFERENCE["Q"][n]
    if tri == "entringer":
        return (sorted(row) == list(range(1, n + 1))
                and sum(row.values()) == _at(P if n % 2 else Q, 0))
    if sorted(row) != [k for k in range(-n, n + 1) if k]:
        return False
    pos = [v for k, v in row.items() if k > 0]
    neg = [v for k, v in row.items() if k < 0]
    if tri == "arnold":
        return sum(pos) == _at(Q, 1) and sum(neg) == _at(P, 1) - _at(Q, 1)
    pos = [_laurent_terms(v) for v in pos]
    neg = [_laurent_terms(v) for v in neg]
    if tri == "arnold-poly":
        p_minus_tq = _add([P, {e: -c for e, c in _add([Q], 1).items()}])
        return _add(pos, -1) == Q and _add(neg) == p_minus_tq
    return _add(pos + neg, -1) == Q          # gamma


def _family_expected(family: str, anchor, n: int, value) -> int:
    """Member count of a family, read off a triangle or polynomial."""
    if family in ("rsi", "rsii"):
        return hoffman_R(n)(1)
    if family == "alternating-unsigned":
        return entringer(n).entries[(n, value)]
    if family == "gamma-snakes":
        return gamma_arrays(n).value(n, value)(1)
    tri = arnold(n)
    if family == "rsi-b":
        return tri.value(n, n - value + 1)
    if anchor is None:
        return sum(tri.row(n))
    return tri.value(n, value)


def _check_family(req, out) -> bool:
    got = json.loads(out)
    family, anchor, value = req["family"], req["anchor"], req["value"]
    members = [tuple(w) for w in got["members"]]
    index = {"first": 0, "last": -1}.get(anchor)
    return (got["family"] == family and got["n"] == req["n"]
            and got["count"] == len(members)
            == _family_expected(family, anchor, req["n"], value)
            and members == sorted(set(members))
            and all(is_member(w, family) for w in members)
            and (index is None or all(w[index] == value for w in members)))


CHECKERS = {"bijection": _check_bijection, "poly": _check_poly,
            "triangle": _check_triangle, "family": _check_family}

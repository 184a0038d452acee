"""Set-up probe: import ``snake_atlas`` and make one workload's first call.

Run in a fresh interpreter as ``python3 perfbench/probe.py <workload>``;
prints the seconds from before the import to after the first call.  The
benchmark also calls ``FIRST_CALLS`` in its own process before timing,
so that lazy set-up never lands inside a timed pass.
"""
from __future__ import annotations

import contextlib
import io
import sys
import time
from pathlib import Path


def _verify_all():
    from snake_atlas.verify import run_check
    run_check("eq-1", 1)


def _bulk_trees_forests():
    from snake_atlas.forests import enumerate_forests
    from snake_atlas.qcalculus import weighted_sum_forests, weighted_sum_trees
    from snake_atlas.trees import enumerate_trees
    enumerate_trees(1)
    enumerate_forests(1)
    weighted_sum_trees(1)
    weighted_sum_forests(1)


def _point_queries():
    from snake_atlas.cli import main
    with contextlib.redirect_stdout(io.StringIO()):
        main(["poly", "--which", "P", "--n", "1"])


FIRST_CALLS = {"verify-all": _verify_all,
               "bulk-trees-forests": _bulk_trees_forests,
               "point-queries": _point_queries}


def main(workload: str) -> None:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    start = time.perf_counter()
    FIRST_CALLS[workload]()
    print(time.perf_counter() - start)


if __name__ == "__main__":
    main(sys.argv[1])

#!/usr/bin/env python3
"""Run the full verification suite and write a JSON report.

Exit status is nonzero when any check fails, so this doubles as a CI
gate.  Use --n-max to deepen or shallow every check uniformly."""
import argparse
import json
import sys

from snake_atlas.cli import EXIT_USAGE, _int_at_least
from snake_atlas.errors import SettingError
from snake_atlas.verify import run_all


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n-max", type=_int_at_least(1), default=None)
    parser.add_argument("--out", type=argparse.FileType("w", encoding="utf-8"),
                        default=None, help="optional JSON report path")
    args = parser.parse_args()

    try:
        reports = run_all(args.n_max)
    except SettingError as exc:
        print(exc, file=sys.stderr)
        return EXIT_USAGE
    for r in reports:
        line = f"{r.check_id:18s} {r.status:4s} {r.elapsed:8.2f}s"
        if r.counterexample:
            line += f"  {r.counterexample}"
        print(line)
    payload = [r.to_json() for r in reports]
    if args.out:
        with args.out as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
        print(f"report written to {args.out.name}")
    failures = [r for r in reports if r.status != "pass"]
    print(f"{len(reports) - len(failures)}/{len(reports)} checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

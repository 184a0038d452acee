#!/usr/bin/env python3
"""Run the full verification suite and write a JSON report.

Exit status is that of ``snake-atlas verify``: 0 when every check
passes, 1 when one fails, 2 for a usage error, and 3 when a check stops
at an enumeration ceiling, so this doubles as a CI gate.  Use --n-max
to deepen or shallow every check uniformly."""
import argparse
import json
import sys

from snake_atlas.cli import EXIT_USAGE, _int_at_least, _verify_exit
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
    passed = sum(r.status == "pass" for r in reports)
    print(f"{passed}/{len(reports)} checks passed")
    return _verify_exit(reports)


if __name__ == "__main__":
    sys.exit(main())

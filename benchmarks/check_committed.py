"""Fail if a regenerated bench report differs from its committed version.

The DES benches (serving, fleet, viewer, obs) replay seeded traces on a
virtual clock, so every section they write is deterministic except the
wall-clock ones. Run a bench, then::

    python benchmarks/check_committed.py benchmarks/BENCH_fleet.json
    python benchmarks/check_committed.py benchmarks/BENCH_serving.json \\
        --exempt warmup

compares each top-level section of the regenerated file with the
version in git ``HEAD`` and exits non-zero, naming the sections, if any
differ. ``environment`` and ``real_seconds`` are always exempt.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

ALWAYS_EXEMPT = ("environment", "real_seconds")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("report", type=Path)
    parser.add_argument("--exempt", nargs="*", default=[],
                        help="further wall-clock sections to skip")
    args = parser.parse_args(argv)
    fresh = json.loads(args.report.read_text())
    blob = subprocess.run(
        ["git", "show", f"HEAD:{args.report.as_posix()}"],
        check=True, capture_output=True, text=True).stdout
    committed = json.loads(blob)
    skip = set(ALWAYS_EXEMPT) | set(args.exempt)
    differ = sorted(key for key in set(fresh) | set(committed)
                    if key not in skip
                    and fresh.get(key) != committed.get(key))
    if differ:
        print(f"{args.report}: sections differ from HEAD: "
              + ", ".join(differ))
        return 1
    print(f"{args.report}: every deterministic section matches HEAD")
    return 0


if __name__ == "__main__":
    sys.exit(main())

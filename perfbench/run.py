"""Entry point of the repository benchmark.

Run from the root of a checkout::

    python3 perfbench/run.py --workload sim_discovery --seed 1 --seconds 20 --trace 0

Workloads, metrics and bounds are listed in ``BENCHMARK.json``; what
each workload is for is in ``perfbench/README.md``. The program under
test is imported from ``src/`` of the same checkout; without it the
benchmark exits 2 and prints no result.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    try:
        import repro
    except ImportError as exc:
        print(f"perfbench: cannot import the program from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if Path(repro.__file__).resolve().parent != ROOT / "src" / "repro":
        print(f"perfbench: imported repro from {repro.__file__}, not from this checkout",
              file=sys.stderr)
        return 2
    from perfbench.harness import main as run

    return run(ROOT, sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())

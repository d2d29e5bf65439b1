"""Run one benchmark workload and print its metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload city --seed 1 --seconds 10 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: every end-to-end metric of
``BENCHMARK.json`` with ``--trace 0``, every per-layer metric with
``--trace 1``.  The line before it (``perfbench-result {...}``) carries the
environment stamp, the schedule and outcome digests and the raw detail that
``perfbench/compare.py`` reads.  A run whose checks fail prints
``"correct": false`` and says why on that line.
"""

from __future__ import annotations

import argparse
import sys
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("city", "regulars", "crawl")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2
    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        print(f"no repro sources under {source}; run from a checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(source), str(ROOT)]
    import repro

    if Path(repro.__file__).resolve().parent != source / "repro":
        print(f"imported repro from {repro.__file__}, not {source}", file=sys.stderr)
        return 2

    from perfbench import checkin, crawl
    from perfbench.common import check_expected, environment

    try:
        if args.workload == "crawl":
            result = crawl.run(args.seed, args.seconds, bool(args.trace))
            scale = crawl.CRAWL_SCALE
        else:
            result = checkin.run(
                args.workload, args.seed, args.seconds, bool(args.trace)
            )
            scale = checkin.CITY_SCALE if args.workload == "city" else None
    except Exception:  # noqa: BLE001 - a crashed run prints no result.
        traceback.print_exc()
        return 1
    check_expected(result)
    result.emit(environment(scale, args.seed, args.seconds))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Compare two result sets of the benchmark: a parent rev and a change.

Usage::

    python3 -m perfbench.compare PARENT CHANGE

``PARENT`` and ``CHANGE`` are files or directories holding the standard
output of ``perfbench/run.py`` runs (one or many runs per file).  Only
untraced runs count.  For every workload and end-to-end metric the table
gives each side's median and quartiles, the change's wins over the pairs
(runs of the same seed, else runs in the order made; ties count for
neither side), and a verdict:

* ``better`` -- the change wins at least nine tenths of the pairs and the
  medians differ by more than the parent's quartile distance;
* ``worse`` -- the change's median is worse than the parent's by more than
  the metric's bound, with spreads inside the bound or every change run
  worse than every parent run;
* ``unresolved`` -- the run-to-run spread is wider than the bound and not
  every change run beats every parent run;
* ``within bound`` -- otherwise.

Every ratio is printed with its base.  Exit status 1 when any row reads
``worse``.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import List, Tuple

from perfbench.stats import quartiles

ROOT = Path(__file__).resolve().parent.parent
PREFIX = "perfbench-result "
WIN_SHARE = 0.9


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    bound: float

    def improves(self, new: float, old: float) -> bool:
        return new > old if self.better == "higher" else new < old

    def worsening(self, new: float, old: float) -> float:
        """How much worse ``new`` is than ``old``, as a share of ``old``."""
        change = (new - old) / old
        return -change if self.better == "higher" else change


def load_metrics(path: Path = ROOT / "BENCHMARK.json") -> List[Metric]:
    spec = json.loads(path.read_text())
    return [
        Metric(item["name"], item["unit"], item["better"], item["bound"])
        for item in spec["end_to_end"]
    ]


def load_runs(path: Path) -> List[dict]:
    """Every untraced, correct run recorded under ``path``."""
    files = sorted(p for p in path.rglob("*") if p.is_file()) if path.is_dir() else [path]
    runs = []
    for file in files:
        for line in file.read_text(errors="replace").splitlines():
            if line.startswith(PREFIX):
                run = json.loads(line[len(PREFIX):])
                if not run["trace"] and not run["problems"]:
                    runs.append(run)
    return runs


def pairs(parent: List[dict], change: List[dict]) -> List[Tuple[dict, dict]]:
    """Runs of equal seed; with no seed in common, runs in recorded order."""
    by_seed = {run["seed"]: run for run in parent}
    matched = [(by_seed[run["seed"]], run) for run in change if run["seed"] in by_seed]
    return matched or list(zip(parent, change))


def verdict(metric: Metric, old: List[float], new: List[float], paired) -> dict:
    """The §6-8 reading of one workload x metric row."""
    old_q = quartiles(old)
    new_q = quartiles(new)
    wins = sum(1 for a, b in paired if metric.improves(b, a))
    losses = sum(1 for a, b in paired if metric.improves(a, b))
    worse_by = metric.worsening(new_q[1], old_q[1])
    spread = max(
        (old_q[2] - old_q[0]) / old_q[1], (new_q[2] - new_q[0]) / new_q[1]
    )
    all_better = all(metric.improves(b, a) for a in old for b in new)
    all_worse = all(metric.improves(a, b) for a in old for b in new)
    if (
        paired
        and wins >= WIN_SHARE * len(paired)
        and abs(new_q[1] - old_q[1]) > old_q[2] - old_q[0]
        and worse_by < 0
    ):
        reading = "better"
    elif worse_by > metric.bound and (spread <= metric.bound or all_worse):
        reading = "worse"
    elif spread > metric.bound and not all_better:
        reading = "unresolved"
    else:
        reading = "within bound"
    return {
        "old": old_q, "new": new_q, "wins": wins, "losses": losses,
        "pairs": len(paired), "worse_by": worse_by, "spread": spread,
        "verdict": reading,
    }


def compare(parent_runs: List[dict], change_runs: List[dict], metrics) -> List[str]:
    rows = []
    workloads = sorted({run["workload"] for run in parent_runs + change_runs})
    for workload in workloads:
        old_runs = [run for run in parent_runs if run["workload"] == workload]
        new_runs = [run for run in change_runs if run["workload"] == workload]
        if not old_runs or not new_runs:
            rows.append(f"{workload}: runs on one side only "
                        f"(parent {len(old_runs)}, change {len(new_runs)})")
            continue
        matched = pairs(old_runs, new_runs)
        for metric in metrics:
            old = [run["metrics"][metric.name]["value"] for run in old_runs]
            new = [run["metrics"][metric.name]["value"] for run in new_runs]
            paired = [
                (a["metrics"][metric.name]["value"], b["metrics"][metric.name]["value"])
                for a, b in matched
            ]
            row = verdict(metric, old, new, paired)
            o1, om, o3 = row["old"]
            n1, nm, n3 = row["new"]
            rows.append(
                f"{workload:9s} {metric.name:12s} "
                f"parent {om:.4g} [{o1:.4g}, {o3:.4g}] n={len(old)} | "
                f"change {nm:.4g} [{n1:.4g}, {n3:.4g}] n={len(new)} {metric.unit} | "
                f"worse by {row['worse_by']:+.2%} of {om:.4g} (bound {metric.bound:.0%}) | "
                f"wins {row['wins']}/{row['pairs']}, losses {row['losses']}/{row['pairs']} | "
                f"spread {row['spread']:.2%} of median | {row['verdict']}"
            )
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    rows = compare(load_runs(args.parent), load_runs(args.change), load_metrics())
    for row in rows:
        print(row)
    return 1 if any(row.endswith("| worse") for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())

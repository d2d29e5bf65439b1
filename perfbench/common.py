"""Shared plumbing: checkout paths, the environment stamp, digests, results."""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional

#: Root of the checkout (the directory holding ``BENCHMARK.json``).
ROOT = Path(__file__).resolve().parent.parent

#: Where runs keep their WAL trees and span dumps (ignored by git).
WORK_DIR = ROOT / ".perfbench_work"

#: Digests recorded for the development and held-out seeds (see README).
EXPECTED = Path(__file__).with_name("expected.json")

#: The fsync policy of the shipped WAL writer, stamped on every result.
WAL_FSYNC_EVERY = 64

#: Cap on one organic user's generated check-ins in the ``city`` and
#: ``crawl`` worlds (the library default is 2,499).  The few users near the
#: default cap made world size, and with it set-up time and memory, swing
#: by a quarter from seed to seed; at 300 the swing is about a tenth.
ORGANIC_ACTIVITY_CAP = 300


def population_config():
    """The world population shape shared by ``city`` and ``crawl``."""
    from repro.workload import PopulationConfig

    return PopulationConfig(active_cap=ORGANIC_ACTIVITY_CAP)


@dataclass
class Result:
    """What one run prints: the detail line, then the one-line result."""

    workload: str
    seed: int
    trace: bool
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    metrics: Dict[str, tuple] = field(default_factory=dict)
    detail: Dict[str, object] = field(default_factory=dict)

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    def check(self, ok: bool, problem: str) -> None:
        """Record ``problem`` as a failed correctness check unless ``ok``."""
        if not ok:
            self.problems.append(problem)

    @property
    def correct(self) -> bool:
        return not self.problems

    def emit(self, env: Dict[str, object]) -> None:
        """Print the detail line, then the one-line result (always last)."""
        detail = {
            "workload": self.workload,
            "seed": self.seed,
            "trace": self.trace,
            "env": env,
            "problems": self.problems,
            **self.detail,
            "metrics": {
                name: {"value": value, "unit": unit}
                for name, (value, unit) in self.metrics.items()
            },
        }
        print("perfbench-result " + json.dumps(detail, sort_keys=True))
        final = {
            "correct": self.correct,
            "attempted": int(self.attempted),
            "failed": int(self.failed),
            "metrics": detail["metrics"],
        }
        print(json.dumps(final), flush=True)


def check_expected(res: Result) -> None:
    """Compare a run's digests with those recorded for its seed, if any."""
    recorded = json.loads(EXPECTED.read_text()).get(res.workload, {})
    for key, value in recorded.get(str(res.seed), {}).items():
        res.check(
            res.detail.get(key) == value,
            f"{key} {res.detail.get(key)} differs from the one recorded "
            f"for seed {res.seed}",
        )


def digest_lines(lines: Iterable[str]) -> str:
    """sha256 over newline-terminated lines."""
    hasher = hashlib.sha256()
    for line in lines:
        hasher.update(line.encode())
        hasher.update(b"\n")
    return hasher.hexdigest()


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def make_run_dir(workload: str) -> Path:
    """A fresh private directory under :data:`WORK_DIR` for one run."""
    path = WORK_DIR / f"{workload}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def filesystem_type(path: Path) -> str:
    """Type of the filesystem holding ``path`` (from the mount table)."""
    target = str(path.resolve())
    best, best_type = "", "unknown"
    try:
        with open("/proc/self/mountinfo", encoding="utf-8") as mounts:
            for line in mounts:
                fields = line.split()
                mount_point = fields[4]
                fs_type = fields[fields.index("-") + 1]
                inside = target == mount_point or target.startswith(
                    mount_point.rstrip("/") + "/"
                )
                if inside and len(mount_point) >= len(best):
                    best, best_type = mount_point, fs_type
    except (OSError, ValueError, IndexError):
        return "unknown"
    return best_type


def _git_rev() -> Optional[str]:
    """HEAD of the checkout, or None when it is not a git work tree."""
    try:
        top = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        ).stdout.split()
    except (OSError, subprocess.SubprocessError):
        return None
    if len(top) != 2 or Path(top[0]).resolve() != ROOT:
        return None
    return top[1]


def source_digest() -> str:
    """sha256 over every ``src/repro`` Python file: identifies the code
    measured even where the checkout carries no git metadata."""
    hasher = hashlib.sha256()
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        hasher.update(str(path.relative_to(ROOT)).encode())
        hasher.update(path.read_bytes())
    return hasher.hexdigest()


def environment(scale: Optional[float], seed: int, seconds: float) -> Dict[str, object]:
    """The stamp every result carries, so revs compare like with like."""
    try:
        usable_cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        usable_cpus = os.cpu_count()
    WORK_DIR.mkdir(exist_ok=True)
    return {
        "git_rev": _git_rev(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "implementation": sys.implementation.name,
        "nproc": usable_cpus,
        "wal_filesystem": filesystem_type(WORK_DIR),
        "wal_fsync_every": WAL_FSYNC_EVERY,
        "scale": scale,
        "seed": seed,
        "run_seconds": seconds,
    }

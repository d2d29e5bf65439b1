"""Shared benchmark fixtures.

A single session-scoped world serves the read-only experiments (crawl,
analyses, defense evaluation); mutating experiments (spoofing, tours,
harvests) build their own small worlds so results stay order-independent.

Every experiment writes its paper-style output rows to
``benchmarks/out/E<n>_<name>.txt`` and echoes them to stdout, so
``pytest benchmarks/ --benchmark-only`` regenerates the full set of
figures/tables alongside the timing numbers.

Each write also emits a machine-readable twin,
``benchmarks/out/E<n>_<name>_summary.json``: the headline numbers
(either the bench's explicit ``summary=`` dict or key/value pairs
auto-extracted from the text rows), plus the world scale, seed, and git
revision — the perf trajectory across commits, greppable without
parsing prose.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
from pathlib import Path

import pytest

from repro.crawler import crawl_full_site
from repro.workload import build_web_stack, build_world

#: 0.002 of the paper's corpus: ~3,800 users, ~11,200 venues.  Override
#: with REPRO_BENCH_SCALE for bigger runs.
BENCH_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "0.002"))
BENCH_SEED = 20_100_801  # the crawl month, 2010-08

OUT_DIR = Path(__file__).parent / "out"


@pytest.fixture(scope="session")
def bench_world():
    """The shared, read-only benchmark world."""
    return build_world(scale=BENCH_SCALE, seed=BENCH_SEED)


@pytest.fixture(scope="session")
def bench_stack(bench_world):
    """Its web stack (non-blocking transport: analyses, not throughput)."""
    return build_web_stack(bench_world, seed=3)


@pytest.fixture(scope="session")
def bench_crawl(bench_world, bench_stack):
    """A completed crawl of the shared world."""
    machines = [bench_stack.network.create_egress() for _ in range(3)]
    database, user_stats, venue_stats = crawl_full_site(
        bench_stack.transport, machines
    )
    return database, user_stats, venue_stats


def _git_rev() -> str:
    """The short commit hash, or ``"unknown"`` outside a work tree.

    ``-dirty`` is appended when a tracked file under ``src/`` or
    ``benchmarks/`` differs from HEAD: the output was made from
    uncommitted code.  ``benchmarks/out/`` is ignored, since a bench
    run rewrites it.
    """

    def git(*args: str) -> str:
        return subprocess.run(
            ["git", *args],
            cwd=Path(__file__).parent,
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        ).stdout.strip()

    try:
        rev = git("rev-parse", "--short", "HEAD")
        changed = git(
            "diff", "--name-only", "HEAD", "--",
            ":/src", ":/benchmarks", ":(top,exclude)benchmarks/out",
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    if not rev:
        return "unknown"
    return f"{rev}-dirty" if changed else rev


#: ``label: 123`` / ``label=1.5`` pairs inside a prose row.  Labels are
#: word-ish runs; values may carry thousands separators or a sign.
_HEADLINE_PAIR = re.compile(
    r"([A-Za-z][A-Za-z0-9 _./%()+-]*?)\s*[=:]\s*\+?(-?\d[\d,]*(?:\.\d+)?)"
)


def _headline_from_rows(rows) -> dict:
    """Fallback headline: numeric key/value pairs scraped from the rows.

    Benches with an explicit ``summary=`` dict skip this; for the rest
    this still yields a useful machine-readable digest of the text
    report (first occurrence of each key wins, capped at 24 entries).
    """
    headline: dict = {}
    for row in rows:
        for label, value in _HEADLINE_PAIR.findall(str(row)):
            key = re.sub(r"[^a-z0-9]+", "_", label.strip().lower()).strip("_")
            if not key or key in headline:
                continue
            number = float(value.replace(",", ""))
            headline[key] = int(number) if number.is_integer() else number
            if len(headline) >= 24:
                return headline
    return headline


@pytest.fixture(scope="session")
def report_out():
    """Writer for experiment outputs: report_out(exp_id, rows, summary=...).

    Writes the paper-style text report and its ``*_summary.json`` twin;
    ``summary`` (optional) becomes the JSON ``headline`` verbatim,
    otherwise the headline is auto-extracted from the rows.
    """
    OUT_DIR.mkdir(exist_ok=True)
    git_rev = _git_rev()

    def write(exp_id: str, rows, summary=None):
        text = "\n".join(str(row) for row in rows) + "\n"
        (OUT_DIR / f"{exp_id}.txt").write_text(text)
        doc = {
            "experiment": exp_id,
            "scale": BENCH_SCALE,
            "seed": BENCH_SEED,
            "git_rev": git_rev,
            "output": f"{exp_id}.txt",
            "rows": len(rows),
            "headline": dict(summary) if summary else _headline_from_rows(
                rows
            ),
        }
        (OUT_DIR / f"{exp_id}_summary.json").write_text(
            json.dumps(doc, indent=2, sort_keys=True) + "\n"
        )
        print(f"\n===== {exp_id} =====")
        print(text)

    return write


def ascii_scatter(points, width=72, height=24, bbox=None):
    """Render (longitude, latitude) pairs as an ASCII scatter plot.

    Used for the map figures (3.4, 3.5, 4.3, 4.4): the output is a crude
    but recognisable reproduction of the thesis's matplotlib scatters.
    """
    if not points:
        return ["(no points)"]
    lons = [p[0] for p in points]
    lats = [p[1] for p in points]
    if bbox is None:
        west, east = min(lons), max(lons)
        south, north = min(lats), max(lats)
    else:
        south, west, north, east = bbox
    lon_span = max(1e-9, east - west)
    lat_span = max(1e-9, north - south)
    grid = [[" "] * width for _ in range(height)]
    for lon, lat in points:
        col = int((lon - west) / lon_span * (width - 1))
        row = int((north - lat) / lat_span * (height - 1))
        if 0 <= row < height and 0 <= col < width:
            grid[row][col] = "*"
    lines = ["".join(row) for row in grid]
    lines.append(
        f"lon [{west:.2f}, {east:.2f}]  lat [{south:.2f}, {north:.2f}]  "
        f"n={len(points)}"
    )
    return lines

"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main

SMALL = ["--scale", "0.0002", "--seed", "5"]


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_defaults(self):
        args = build_parser().parse_args(["demo"])
        assert args.scale == 0.0005
        assert args.seed == 42

    def test_every_subcommand_has_help(self, capsys):
        """``--help`` must work (and exit 0) for every registered command."""
        from repro.cli import _COMMANDS

        # wal-replay reads an existing tree; it takes no world knobs.
        worldless = {"wal-replay"}
        for command in _COMMANDS:
            with pytest.raises(SystemExit) as excinfo:
                build_parser().parse_args([command, "--help"])
            assert excinfo.value.code == 0
            out = capsys.readouterr().out
            if command not in worldless:
                assert "--scale" in out
                assert "--seed" in out

    def test_stream_detect_defaults(self):
        args = build_parser().parse_args(["stream-detect"])
        assert args.min_checkins == 150
        assert args.top == 15
        assert args.no_parity is False


class TestCommands:
    def test_demo_succeeds(self, capsys):
        assert main(["demo"] + SMALL) == 0
        out = capsys.readouterr().out
        assert "status=valid" in out
        assert "mayor=True" in out

    def test_crawl_prints_statistics(self, capsys):
        assert main(["crawl"] + SMALL + ["--machines", "2"]) == 0
        out = capsys.readouterr().out
        assert "crawled" in out
        assert "zero-check-in users" in out

    def test_attack_runs_clean(self, capsys):
        assert main(["attack"] + SMALL + ["--steps", "15", "--harvest", "5"]) == 0
        out = capsys.readouterr().out
        assert "0 detected" in out
        assert "harvest:" in out

    def test_detect_lists_suspects(self, capsys):
        assert main(["detect"] + SMALL + ["--min-checkins", "100"]) == 0
        out = capsys.readouterr().out
        assert "suspects:" in out

    def test_stream_detect_reports_parity(self, capsys):
        assert main(["stream-detect"] + SMALL + ["--min-checkins", "100"]) == 0
        out = capsys.readouterr().out
        assert "events/s through the live pipeline" in out
        assert "online suspects" in out
        assert "offline parity:" in out

    def test_stream_detect_no_parity_skips_crawl(self, capsys):
        assert (
            main(["stream-detect"] + SMALL + ["--no-parity", "--top", "5"]) == 0
        )
        out = capsys.readouterr().out
        assert "online suspects" in out
        assert "offline parity:" not in out

    def test_defend_prints_table(self, capsys):
        assert main(["defend"] + SMALL + ["--claims", "50"]) == 0
        out = capsys.readouterr().out
        assert "distance-bounding" in out
        assert "wifi-venue-verification" in out

    def test_figures_writes_csvs(self, tmp_path, capsys):
        out = tmp_path / "figs"
        assert main(["figures"] + SMALL + ["--out", str(out)]) == 0
        written = list(out.glob("*.csv"))
        assert len(written) >= 5
        header = written[0].read_text().splitlines()[0]
        assert "," in header


class TestVersionFlag:
    def test_version_prints_and_exits_zero(self, capsys):
        from repro import __version__

        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert __version__ in out


class TestMetricsCommand:
    def test_metrics_snapshot_spans_all_three_layers(self, capsys):
        """One run must export lbsn, stream, and crawler counters."""
        assert main(["metrics"] + SMALL) == 0
        out = capsys.readouterr().out
        # Service pipeline.
        assert "repro_lbsn_checkins_total" in out
        assert "repro_span_seconds_bucket" in out
        # Stream pipeline.
        assert "repro_bus_published_total" in out
        assert "repro_ledger_checkins_scored_total" in out
        # Crawler.
        assert "repro_crawler_pages_fetched_total" in out
        # It is valid Prometheus text exposition.
        assert "# HELP repro_lbsn_checkins_total" in out
        assert "# TYPE repro_lbsn_checkins_total counter" in out

    def test_metrics_defaults(self):
        args = build_parser().parse_args(["metrics"])
        assert args.slow_spans == 5
        assert args.format == "text"

    def test_metrics_json_format_shares_the_debug_vars_shape(self, capsys):
        import json

        assert main(["metrics", "--format", "json"] + SMALL) == 0
        parsed = json.loads(capsys.readouterr().out)
        # Every instrumented layer present, in the registry_to_dict shape.
        for family in (
            "repro_lbsn_checkins_total",
            "repro_bus_published_total",
            "repro_crawler_pages_fetched_total",
            "repro_log_records_total",
            "repro_defense_verdicts_total",
            "repro_defense_actions_total",
        ):
            assert family in parsed, family
            assert set(parsed[family]) == {"kind", "labelnames", "samples"}
        histogram = parsed["repro_defense_check_seconds"]
        assert histogram["kind"] == "histogram"
        for sample in histogram["samples"]:
            assert "buckets" in sample and "sum" in sample

    def test_metrics_workload_crawl_is_deterministic(self):
        """Two seeded runs crawl the same pages, thread for thread."""
        from repro.cli import run_metrics_workload
        from repro.obs import MetricsRegistry, registry_to_dict

        families = (
            "repro_crawler_pages_fetched_total",
            "repro_crawler_thread_pages_total",
        )
        runs = []
        for _ in range(2):
            registry, _, _ = run_metrics_workload(
                scale=0.0002, seed=5, registry=MetricsRegistry()
            )
            snapshot = registry_to_dict(registry)
            runs.append({family: snapshot[family] for family in families})
        assert runs[0] == runs[1]
        assert runs[0]["repro_crawler_pages_fetched_total"]["samples"]

    def test_metrics_format_choices_enforced(self):
        args = build_parser().parse_args(["metrics", "--format", "json"])
        assert args.format == "json"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["metrics", "--format", "yaml"])


def _fake_chaos_report(state_digest, sequence_digest="seq-1", suspects=(1,)):
    from repro.workload.chaos import ChaosConfig, ChaosReport

    return ChaosReport(
        config=ChaosConfig(),
        crawl=None,
        crawl_aborted=False,
        crawler_breaker_opens=0,
        wall_seconds=0.01,
        checkins_attempted=10,
        checkins_returned=10,
        commit_retries=0,
        commit_exhausted=0,
        victim_errors=0,
        ledger_suspects=list(suspects),
        breaker_failures_to_open=3,
        breaker_half_opened=True,
        breaker_reopened_on_probe_failure=True,
        breaker_closed_after_probe=True,
        web_statuses={200: 5},
        metrics_route_ok=True,
        debug_vars_route_ok=True,
        debug_logs_route_ok=True,
        faults_fired={},
        fault_sequence_digest=sequence_digest,
        committed_state_digest=state_digest,
    )


class TestChaosVerifyExitCodes:
    """--verify must turn digest divergence into a non-zero exit."""

    def test_verify_passes_when_replay_agrees(self, monkeypatch, capsys):
        import repro.workload.chaos as chaos_mod

        monkeypatch.setattr(
            chaos_mod,
            "run_chaos",
            lambda config, metrics=None, log=None: _fake_chaos_report("same"),
        )
        assert main(["chaos", "--verify"] + SMALL) == 0
        assert "end state identical=True" in capsys.readouterr().out

    def test_verify_fails_on_state_divergence(self, monkeypatch, capsys):
        import repro.workload.chaos as chaos_mod

        digests = iter(["run-one", "run-two"])
        monkeypatch.setattr(
            chaos_mod,
            "run_chaos",
            lambda config, metrics=None, log=None: _fake_chaos_report(
                next(digests)
            ),
        )
        assert main(["chaos", "--verify"] + SMALL) == 1
        captured = capsys.readouterr()
        assert "VERIFY FAILED" in captured.err

    def test_verify_fails_on_suspect_divergence(self, monkeypatch, capsys):
        import repro.workload.chaos as chaos_mod

        suspect_sets = iter([(1, 2), (1, 3)])
        monkeypatch.setattr(
            chaos_mod,
            "run_chaos",
            lambda config, metrics=None, log=None: _fake_chaos_report(
                "same", suspects=next(suspect_sets)
            ),
        )
        assert main(["chaos", "--verify"] + SMALL) == 1
        assert "VERIFY FAILED" in capsys.readouterr().err


class TestSnapshotAndWalReplay:
    """The durable tree CLI pair: write with one, verify with the other."""

    @pytest.fixture(scope="class")
    def tree(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("cli-tree")
        argv = [
            "snapshot", "--out", str(out),
            "--partitions", "2", "--checkins", "80",
        ] + SMALL
        assert main(argv) == 0
        return out

    def test_snapshot_prints_digests(self, tree, capsys):
        # The fixture already ran; rerun into a fresh dir to see output.
        out = tree.parent / "cli-tree-again"
        argv = [
            "snapshot", "--out", str(out),
            "--partitions", "2", "--checkins", "80",
        ] + SMALL
        assert main(argv) == 0
        text = capsys.readouterr().out
        assert "partition-00 digest:" in text
        assert "partition-01 digest:" in text
        assert "combined digest:" in text

    def test_wal_replay_verify_passes_on_intact_tree(self, tree, capsys):
        assert main(["wal-replay", "--dir", str(tree), "--verify"]) == 0
        assert "digests match the manifest" in capsys.readouterr().out

    def test_wal_replay_missing_dir_exits_nonzero(self, tree, capsys):
        missing = str(tree / "nope")
        assert main(["wal-replay", "--dir", missing]) == 1
        assert "no durable tree" in capsys.readouterr().err

    def test_wal_replay_verify_fails_on_manifest_mismatch(
        self, tree, tmp_path, capsys
    ):
        import json
        import shutil

        clone = tmp_path / "tampered"
        shutil.copytree(tree, clone)
        manifest_path = clone / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["combined_digest"] = "0" * 64
        manifest_path.write_text(json.dumps(manifest))
        assert main(["wal-replay", "--dir", str(clone), "--verify"]) == 1
        assert "VERIFY FAILED" in capsys.readouterr().err

    def test_wal_replay_verify_fails_without_manifest(
        self, tree, tmp_path, capsys
    ):
        import shutil

        clone = tmp_path / "no-manifest"
        shutil.copytree(tree, clone)
        (clone / "manifest.json").unlink()
        # Plain replay still works...
        assert main(["wal-replay", "--dir", str(clone)]) == 0
        capsys.readouterr()
        # ...but --verify has nothing to verify against.
        assert main(["wal-replay", "--dir", str(clone), "--verify"]) == 1
        assert "no manifest" in capsys.readouterr().err

    def test_wal_replay_refuses_an_empty_tree(self, tmp_path, capsys):
        assert main(["wal-replay", "--dir", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "REPLAY FAILED" in err
        assert "no partition-NN/ directories" in err

    def test_wal_replay_fails_on_mid_log_corruption(
        self, tree, tmp_path, capsys
    ):
        import shutil

        from repro.durable.wal import SEGMENT_MAGIC

        clone = tmp_path / "corrupt"
        shutil.copytree(tree, clone)
        # Snapshots would mask WAL damage; drop them to force a full scan.
        for snap in (clone / "partition-00" / "snapshots").glob("*.json"):
            snap.unlink()
        segment = sorted((clone / "partition-00" / "wal").glob("*.wal"))[0]
        raw = bytearray(segment.read_bytes())
        raw[len(SEGMENT_MAGIC) + 10] ^= 0xFF
        segment.write_bytes(bytes(raw))
        assert main(["wal-replay", "--dir", str(clone)]) == 1
        assert "REPLAY FAILED" in capsys.readouterr().err

    def test_wal_replay_fails_on_old_snapshot_version(
        self, tree, tmp_path, capsys
    ):
        import json
        import shutil

        from repro.durable.snapshot import SNAPSHOT_VERSION

        clone = tmp_path / "old-snapshot"
        shutil.copytree(tree, clone)
        # An older body carries a layout this version no longer reads
        # (version 2: six threshold keys in the detector config); recovery
        # must refuse it rather than misread it.
        snapshots = clone / "partition-00" / "snapshots"
        newest = sorted(snapshots.glob("snapshot-*.json"))[-1]
        header, body = newest.read_bytes().split(b"\n", 1)
        doc = json.loads(header)
        doc["version"] = SNAPSHOT_VERSION - 1
        newest.write_bytes(json.dumps(doc).encode() + b"\n" + body)
        assert main(["wal-replay", "--dir", str(clone)]) == 1
        err = capsys.readouterr().err
        assert "REPLAY FAILED" in err
        assert (
            f"unsupported snapshot version {SNAPSHOT_VERSION - 1} (want 3)"
            in err
        )

    @pytest.mark.parametrize(
        "manifest_text, complaint",
        [
            pytest.param('{"partitions": 2, "seed"', "unreadable", id="truncated"),
            pytest.param('{"seed": 11}', "partitions", id="no-partitions"),
            pytest.param('{"partitions": 7}', "partition-02", id="extra-partitions"),
        ],
    )
    def test_wal_replay_refuses_a_bad_manifest_untouched(
        self, tree, tmp_path, capsys, manifest_text, complaint
    ):
        import shutil

        clone = tmp_path / "bad-manifest"
        shutil.copytree(tree, clone)
        (clone / "manifest.json").write_text(manifest_text)
        before = sorted(
            (str(path.relative_to(clone)), path.is_dir() or path.read_bytes())
            for path in clone.rglob("*")
        )
        assert main(["wal-replay", "--dir", str(clone)]) == 1
        err = capsys.readouterr().err
        assert "REPLAY FAILED" in err
        assert complaint in err
        after = sorted(
            (str(path.relative_to(clone)), path.is_dir() or path.read_bytes())
            for path in clone.rglob("*")
        )
        assert after == before


def _fake_adversary_report(catch_digest, fp_digest="fp-1"):
    from repro.adversary import AdversaryConfig, AdversaryReport

    return AdversaryReport(
        config=AdversaryConfig(),
        honeypots_seeded=3,
        target_pool=10,
        honeypot_targets=3,
        ring_accounts=[1, 2, 3, 4],
        flagged_ring_accounts=[1, 2, 3, 4],
        ring_corroboration=1.0,
        honest_accounts=[5, 6],
        flagged_honest_accounts=[],
        honest_checkins=12,
        post_flag_attempts=4,
        post_flag_refusals=4,
        honeypot_checkins=4,
        ledger_suspects=4,
        catch_digest=catch_digest,
        fp_digest=fp_digest,
        wall_seconds=0.01,
    )


class TestAdversaryCommand:
    """The E26 scoreboard verb: rings vs honeypots with a small world."""

    KNOBS = [
        "--rings", "1", "--ring-size", "2",
        "--targets-per-ring", "6", "--honest-accounts", "5",
    ]

    def test_adversary_prints_the_scoreboard(self, capsys):
        assert main(["adversary"] + SMALL + self.KNOBS) == 0
        out = capsys.readouterr().out
        assert "honeypots seeded" in out
        assert "catch rate:" in out
        assert "false positives:" in out
        assert "inline refusals:" in out
        assert "catch digest:" in out


class TestAdversaryVerifyExitCodes:
    """--verify must turn scoreboard divergence into a non-zero exit."""

    def test_verify_passes_when_replay_agrees(self, monkeypatch, capsys):
        import repro.adversary as adversary_mod

        monkeypatch.setattr(
            adversary_mod,
            "run_adversary",
            lambda config, metrics=None, log=None: _fake_adversary_report(
                "same"
            ),
        )
        assert main(["adversary", "--verify"] + SMALL) == 0
        out = capsys.readouterr().out
        assert "catch digest identical=True" in out
        assert "fp digest identical=True" in out

    def test_verify_fails_on_catch_divergence(self, monkeypatch, capsys):
        import repro.adversary as adversary_mod

        digests = iter(["run-one", "run-two"])
        monkeypatch.setattr(
            adversary_mod,
            "run_adversary",
            lambda config, metrics=None, log=None: _fake_adversary_report(
                next(digests)
            ),
        )
        assert main(["adversary", "--verify"] + SMALL) == 1
        assert "VERIFY FAILED" in capsys.readouterr().err

    def test_verify_fails_on_fp_divergence(self, monkeypatch, capsys):
        import repro.adversary as adversary_mod

        fp_digests = iter(["fp-one", "fp-two"])
        monkeypatch.setattr(
            adversary_mod,
            "run_adversary",
            lambda config, metrics=None, log=None: _fake_adversary_report(
                "same", fp_digest=next(fp_digests)
            ),
        )
        assert main(["adversary", "--verify"] + SMALL) == 1
        assert "VERIFY FAILED" in capsys.readouterr().err

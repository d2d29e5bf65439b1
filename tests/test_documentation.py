"""Documentation is executable: README snippets run, docs stay in sync."""

import importlib.util
import re
import shutil
import subprocess
from pathlib import Path

import pytest


REPO = Path(__file__).resolve().parent.parent


class TestReadmeQuickstart:
    def test_quickstart_code_block_runs(self):
        """The README's first python block must execute verbatim."""
        readme = (REPO / "README.md").read_text()
        blocks = re.findall(r"```python\n(.*?)```", readme, re.S)
        assert blocks, "README lost its quickstart code block"
        namespace = {}
        exec(compile(blocks[0], "<README quickstart>", "exec"), namespace)

    def test_cli_commands_documented_exist(self):
        """The README and the ``repro.cli`` docstring list exactly the
        real commands: none missing, none stale."""
        from repro import cli

        readme = (REPO / "README.md").read_text()
        documented = set(re.findall(r"python -m repro ([\w-]+)", readme))
        assert documented == set(cli._COMMANDS)
        listed = set(re.findall(r"^\* ``([\w-]+)``", cli.__doc__, re.M))
        assert listed == set(cli._COMMANDS)


class TestExperimentIndexIntegrity:
    def test_every_designed_bench_file_exists(self):
        """DESIGN.md's experiment index references real bench files."""
        design = (REPO / "DESIGN.md").read_text()
        referenced = set(re.findall(r"benchmarks/(bench_\w+\.py)", design))
        assert len(referenced) >= 15
        for name in referenced:
            assert (REPO / "benchmarks" / name).exists(), name

    def test_every_bench_file_is_designed(self):
        """No orphan bench files missing from the DESIGN index."""
        design = (REPO / "DESIGN.md").read_text()
        for path in (REPO / "benchmarks").glob("bench_*.py"):
            assert path.name in design, path.name

    def test_experiments_covers_all_experiment_ids(self):
        experiments = (REPO / "EXPERIMENTS.md").read_text()
        for exp_id in range(1, 27):
            assert f"## E{exp_id} " in experiments, f"E{exp_id}"


class TestBenchOutputs:
    def test_cited_outputs_are_the_committed_outputs(self):
        """EXPERIMENTS.md cites exactly the ``E<n>_*.txt`` reports in
        benchmarks/out/, and each report has its ``_summary.json`` twin
        (and no twin is left without its report)."""
        experiments = (REPO / "EXPERIMENTS.md").read_text()
        cited = set(re.findall(r"\b(E\d+_\w+\.txt)", experiments))
        out = REPO / "benchmarks" / "out"
        reports = {path.name for path in out.glob("E*.txt")}
        assert cited == reports, (
            f"cited but not committed: {sorted(cited - reports)}; "
            f"committed but not cited: {sorted(reports - cited)}"
        )
        twins = {path.name for path in out.glob("E*_summary.json")}
        expected = {name[: -len(".txt")] + "_summary.json" for name in reports}
        assert twins == expected, sorted(twins ^ expected)

    def test_summary_rev_marks_uncommitted_sources(self, tmp_path):
        """The summaries' ``git_rev`` ends in ``-dirty`` when src/ or
        benchmarks/ differ from HEAD, but not for benchmarks/out/."""
        if shutil.which("git") is None:
            pytest.skip("git is not installed")
        bench = tmp_path / "benchmarks"
        (bench / "out").mkdir(parents=True)
        (tmp_path / "src").mkdir()
        shutil.copy(REPO / "benchmarks" / "conftest.py", bench / "conftest.py")
        report = bench / "out" / "E1_example.txt"
        report.write_text("row\n")
        source = tmp_path / "src" / "module.py"
        source.write_text("VALUE = 1\n")

        def git(*args):
            subprocess.run(
                [
                    "git", "-c", "user.name=bench",
                    "-c", "user.email=bench@example.invalid",
                    "-c", "commit.gpgsign=false", *args,
                ],
                cwd=tmp_path,
                capture_output=True,
                check=True,
            )

        git("init", "-q")
        git("add", "-A")
        git("commit", "-q", "-m", "seed")
        spec = importlib.util.spec_from_file_location(
            "bench_conftest_copy", bench / "conftest.py"
        )
        conftest = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(conftest)

        assert re.fullmatch(r"[0-9a-f]{7}", conftest._git_rev())
        report.write_text("regenerated\n")
        assert re.fullmatch(r"[0-9a-f]{7}", conftest._git_rev())
        source.write_text("VALUE = 2\n")
        assert re.fullmatch(r"[0-9a-f]{7}-dirty", conftest._git_rev())


class TestExamplesExist:
    def test_examples_listed_in_readme_exist(self):
        readme = (REPO / "README.md").read_text()
        referenced = set(re.findall(r"examples/(\w+\.py)", readme))
        assert len(referenced) >= 4
        for name in referenced:
            assert (REPO / "examples" / name).exists(), name

    def test_at_least_five_runnable_examples(self):
        examples = list((REPO / "examples").glob("*.py"))
        assert len(examples) >= 5
        for path in examples:
            source = path.read_text()
            assert '__name__ == "__main__"' in source, path.name
            compile(source, str(path), "exec")

"""Tests for the experiment runner CLI."""

import pytest

from repro.errors import ConfigurationError
from repro.experiments import runner
from repro.experiments.common import ExperimentResult
from repro.experiments.parallel import run_report


class TestRunAll:
    def test_only_filter(self):
        results = run_report(only=["table2"]).results
        assert len(results) == 1
        assert results[0].experiment_id == "table2"

    def test_unknown_only_id_raises(self):
        """Regression: unknown ids were silently dropped (partial runs)."""
        with pytest.raises(ConfigurationError, match="fig99"):
            run_report(only=["table2", "fig99"])

    def test_select_modules_canonical_order(self):
        modules = runner.select_modules(["fig4", "table2"])
        assert [m.EXPERIMENT_ID for m in modules] == ["table2", "fig4"]

    def test_all_modules_have_interface(self):
        for module in runner.ALL_MODULES:
            assert isinstance(module.EXPERIMENT_ID, str)
            assert isinstance(module.TITLE, str)
            assert callable(module.run)

    def test_unique_ids(self):
        ids = [m.EXPERIMENT_ID for m in runner.ALL_MODULES]
        assert len(set(ids)) == len(ids)


class TestCli:
    def test_list(self, capsys):
        assert runner.main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "fig14" in out and "ablations" in out

    def test_unknown_id_rejected(self):
        with pytest.raises(SystemExit):
            runner.main(["not-an-experiment"])

    def test_single_experiment(self, capsys):
        assert runner.main(["table2"]) == 0
        out = capsys.readouterr().out
        assert "PLT1" in out and "preset" in out

    def test_charts_flag(self, capsys):
        assert runner.main(["--charts", "fig8"]) == 0
        out = capsys.readouterr().out
        assert "fig8" in out

    def test_bad_jobs_rejected(self):
        with pytest.raises(SystemExit):
            runner.main(["--jobs", "0", "table2"])


class TestWriteMetrics:
    def test_duplicate_ids_rejected(self, tmp_path):
        results = [
            ExperimentResult("fig4", "one"),
            ExperimentResult("fig4", "two"),
        ]
        with pytest.raises(ConfigurationError, match="fig4"):
            runner.write_metrics(results, str(tmp_path / "m.json"))

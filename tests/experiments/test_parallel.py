"""Tests for the parallel experiment runner and its determinism contract.

The expensive guarantee — byte-identical output for ``-j 4`` vs serial —
is checked on a handful of cheap experiments; the full campaign is
exercised by the CI cold/warm cache smoke run.
"""

import pytest

from repro.errors import ConfigurationError
from repro.experiments import runner
from repro.experiments.common import RunPreset
from repro.experiments.parallel import run_report

_CHEAP_IDS = ["table2", "fig4", "fig8"]


@pytest.fixture(scope="module")
def serial_report():
    return run_report(RunPreset.quick(), only=_CHEAP_IDS, jobs=1)


@pytest.fixture(scope="module")
def parallel_report():
    return run_report(RunPreset.quick(), only=_CHEAP_IDS, jobs=3)


class TestByteEquality:
    def test_canonical_order(self, serial_report, parallel_report):
        ids = [r.experiment_id for r in serial_report.results]
        assert ids == _CHEAP_IDS
        assert [r.experiment_id for r in parallel_report.results] == ids

    def test_rendered_tables_identical(self, serial_report, parallel_report):
        for a, b in zip(serial_report.results, parallel_report.results):
            assert a.render() == b.render()

    def test_metrics_snapshots_identical(self, serial_report, parallel_report):
        for a, b in zip(serial_report.results, parallel_report.results):
            assert a.metrics.to_json() == b.metrics.to_json()

    def test_metrics_document_identical(
        self, serial_report, parallel_report, tmp_path
    ):
        runner.write_metrics(serial_report.results, str(tmp_path / "a.json"))
        runner.write_metrics(parallel_report.results, str(tmp_path / "b.json"))
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


class TestRunReport:
    def test_wall_time_gauge_has_per_experiment_children(self, parallel_report):
        payload = parallel_report.run_metrics.payload("repro.experiments.wall_time_ms")
        assert set(payload["children"]) == {
            f"{{experiment={experiment_id}}}" for experiment_id in _CHEAP_IDS
        }

    def test_durations_recorded(self, serial_report, parallel_report):
        for report in (serial_report, parallel_report):
            assert all(r.duration_s is not None for r in report.results)
            # ...but never in the rendered output or metrics document.
            assert all("duration" not in r.render() for r in report.results)

    def test_cache_stats_zero_without_cache_dir(self, parallel_report):
        assert parallel_report.cache_stats() == {
            "hits": 0,
            "misses": 0,
            "bytes_read": 0,
            "bytes_written": 0,
        }

    def test_bad_jobs_rejected(self):
        with pytest.raises(ConfigurationError):
            run_report(only=_CHEAP_IDS, jobs=0)

    def test_unknown_id_rejected(self):
        with pytest.raises(ConfigurationError, match="fig99"):
            run_report(only=["fig99"], jobs=2)


class TestCachedRun:
    def test_warm_run_hits_and_matches_cold(self, tmp_path):
        cache_dir = tmp_path / "artifacts"
        # Each run gets its own preset instance, hence its own composed-run
        # memo — in-process memoization cannot mask the disk cache.
        cold = run_report(RunPreset.quick(), only=["fig2"], jobs=1, cache_dir=cache_dir)
        warm = run_report(RunPreset.quick(), only=["fig2"], jobs=1, cache_dir=cache_dir)
        assert cold.cache_stats()["misses"] > 0
        assert cold.cache_stats()["hits"] == 0
        assert warm.cache_stats()["misses"] == 0
        assert warm.cache_stats()["hits"] == cold.cache_stats()["misses"]
        assert warm.results[0].render() == cold.results[0].render()

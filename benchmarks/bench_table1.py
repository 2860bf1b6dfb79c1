"""Regenerate Table I: metrics for all thirteen workload profiles.

The table's shape claims are asserted in tier-1
(``tests/experiments/test_experiments.py::TestTable1``); this module
times the regeneration at the quick preset.
"""

from repro.experiments import table1


def test_table1_regeneration(run_once, preset, benchmark):
    result = run_once(table1.run, preset)
    assert len(result.rows) == 13
    benchmark.extra_info["rows"] = len(result.rows)

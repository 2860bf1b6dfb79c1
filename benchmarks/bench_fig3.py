"""Regenerate Figure 3: Top-Down breakdown of an S1 leaf.

The breakdown's shape claims are asserted in tier-1
(``tests/experiments/test_experiments.py::TestFig3``); this module times
the regeneration at the quick preset.
"""

from repro.experiments import fig3


def test_fig3_regeneration(run_once, preset, benchmark):
    result = run_once(fig3.run, preset)
    shares = {r["category"]: r["modeled_pct"] for r in result.rows}
    benchmark.extra_info["retiring_pct"] = shares["retiring"]

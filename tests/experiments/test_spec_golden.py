"""Differential battery: spec-derived models are byte-identical to hand-coded.

PR 10 rerouted the figure experiments through ``common.paper_models()``
and the declarative ``repro.hw`` catalog.  This suite replays the old
hand-coded construction — literal ``AreaModel()``/``PowerModel()``/
``SearchPerfModel()``/``L4Config`` objects and literal ``HierarchyConfig``
values (``tests/hw/hand_coded.py``) — by monkeypatching the two seams in
``repro.experiments.common``, then byte-compares the rendered tables and
the ``--metrics-out`` JSON document of every affected experiment.
Module-scoped runs, ``jobs=1`` so the patches apply in-process.
"""

from types import SimpleNamespace

import pytest

from repro._units import MiB
from repro.core.area import AreaModel
from repro.core.l4cache import L4Config
from repro.core.perf_model import MemoryLatencies, SearchPerfModel
from repro.core.power import PowerModel
from repro.errors import ConfigurationError
from repro.experiments import common, runner
from repro.experiments.common import RunPreset
from repro.experiments.parallel import run_report
from tests.hw import hand_coded

#: Every experiment that consumes spec-derived models or hierarchies,
#: in the runner's canonical order.
_IDS = [
    "fig2",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "fig12",
    "fig13",
    "fig14",
    "power",
    "discussion",
    "ablations",
]


def _hand_coded_models():
    """The literal objects the experiments constructed before PR 10."""
    return SimpleNamespace(
        area=AreaModel(),
        power=PowerModel(),
        latencies=MemoryLatencies(),
        perf=SearchPerfModel(),
        l4_config=lambda capacity_bytes=None: (
            L4Config(capacity=capacity_bytes)
            if capacity_bytes is not None
            else L4Config()
        ),
    )


def _hand_coded_hierarchy(platform, preset):
    """The literal hierarchies ``platform_hierarchy`` used to dispatch to."""
    if platform == "plt1":
        return hand_coded.plt1_simulated().scaled(preset.scale)
    if platform == "plt2":
        return hand_coded.plt2().scaled(preset.scale)
    raise ConfigurationError(f"unknown platform {platform!r}")


@pytest.fixture(scope="module")
def spec_report():
    return run_report(RunPreset.quick(), only=_IDS, jobs=1)


@pytest.fixture(scope="module")
def hand_coded_report():
    patcher = pytest.MonkeyPatch()
    patcher.setattr(common, "paper_models", _hand_coded_models)
    patcher.setattr(common, "platform_hierarchy", _hand_coded_hierarchy)
    try:
        yield run_report(RunPreset.quick(), only=_IDS, jobs=1)
    finally:
        patcher.undo()


class TestSpecByteEquality:
    def test_canonical_order(self, spec_report, hand_coded_report):
        assert [r.experiment_id for r in spec_report.results] == _IDS
        assert [r.experiment_id for r in hand_coded_report.results] == _IDS

    def test_rendered_tables_identical(self, spec_report, hand_coded_report):
        for spec, hand in zip(spec_report.results, hand_coded_report.results):
            assert spec.render() == hand.render(), spec.experiment_id

    def test_metrics_snapshots_identical(self, spec_report, hand_coded_report):
        for spec, hand in zip(spec_report.results, hand_coded_report.results):
            assert spec.metrics.to_json() == hand.metrics.to_json(), (
                spec.experiment_id
            )

    def test_metrics_document_identical(
        self, spec_report, hand_coded_report, tmp_path
    ):
        runner.write_metrics(spec_report.results, str(tmp_path / "spec.json"))
        runner.write_metrics(
            hand_coded_report.results, str(tmp_path / "hand.json")
        )
        assert (tmp_path / "spec.json").read_bytes() == (
            tmp_path / "hand.json"
        ).read_bytes()


class TestSeamSanity:
    """The monkeypatched stand-ins really are the hand-coded objects."""

    def test_paper_models_match_hand_coded_values(self):
        models = common.paper_models()
        hand = _hand_coded_models()
        assert models.area == hand.area
        assert models.power == hand.power
        assert models.latencies == hand.latencies
        assert models.perf == hand.perf
        assert models.l4_config(64 * MiB) == hand.l4_config(64 * MiB)

    def test_platform_hierarchy_matches_hand_coded_factories(self):
        preset = RunPreset.quick()
        for platform in ("plt1", "plt2"):
            assert common.platform_hierarchy(
                platform, preset
            ) == _hand_coded_hierarchy(platform, preset)
        with pytest.raises(ConfigurationError, match="plt3"):
            common.platform_hierarchy("plt3", preset)

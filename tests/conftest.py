"""Shared test configuration: Hypothesis profiles and the tiny campaign.

``dev`` (the default) keeps property suites fast for the inner loop;
``ci`` runs many more examples, derandomized so every CI run checks the
same fixed corpus.  Select with ``HYPOTHESIS_PROFILE=ci`` — the
``fastsim-equivalence`` CI job does exactly that for the differential
suite.

``campaign`` runs every experiment once per test session at the tiny
preset, through the driver the CLI and perfbench use; the shape tests,
the metrics tests and the campaign-digest test all read that one run.
"""

import hashlib
import json
import os
from types import MappingProxyType
from typing import Mapping, NamedTuple

import pytest
from hypothesis import settings

from repro.experiments.common import ExperimentResult, RunPreset
from repro.experiments.parallel import run_report

settings.register_profile("dev", max_examples=30, deadline=None)
settings.register_profile(
    "ci", max_examples=300, deadline=None, derandomize=True
)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "dev"))


def result_digests(result: ExperimentResult) -> dict[str, str]:
    """SHA-256 of the rendered table and of the ``--metrics-out`` JSON.

    The same two digests ``perfbench/check.py`` takes.
    """
    metrics = result.metrics.to_dict() if result.metrics else {}
    return {
        "render": hashlib.sha256(result.render().encode()).hexdigest(),
        "metrics": hashlib.sha256(
            json.dumps(metrics, indent=2, sort_keys=True).encode()
        ).hexdigest(),
    }


class Campaign(NamedTuple):
    """One run of every experiment, by experiment id, read-only.

    ``digests`` are taken when the run finishes, so a test that mutates
    a result's rows cannot hide a change in what the campaign produced.
    The preset is not kept: its run cache of composed runs would stay
    in memory for the rest of the session.
    """

    results: Mapping[str, ExperimentResult]
    digests: Mapping[str, Mapping[str, str]]


@pytest.fixture(scope="session")
def campaign() -> Campaign:
    """Every experiment at the tiny preset, run once per session."""
    # Smaller than RunPreset.quick() to keep the suite fast.
    preset = RunPreset(
        name="test",
        scale=1 / 64,
        code_events=200_000,
        heap_events=900_000,
        shard_events=500_000,
        stack_events=50_000,
        threads=8,
        branch_instructions=400_000,
        seed=13,
    )
    results = {r.experiment_id: r for r in run_report(preset, jobs=1).results}
    return Campaign(
        results=MappingProxyType(results),
        digests=MappingProxyType(
            {eid: MappingProxyType(result_digests(r)) for eid, r in results.items()}
        ),
    )

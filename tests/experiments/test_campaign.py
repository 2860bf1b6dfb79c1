"""The whole campaign, pinned byte for byte.

``campaign_digests.json`` holds, for every experiment at the tiny
preset of ``tests/conftest.py``, the SHA-256 of its rendered table and
of its ``--metrics-out`` JSON.  A change that alters an experiment's
output on purpose replaces that experiment's entry with the digests the
failure message prints.
"""

import json
from pathlib import Path

from repro.experiments import runner

DIGESTS_PATH = Path(__file__).resolve().parent / "campaign_digests.json"


class TestCampaignDigests:
    def test_campaign_covers_every_experiment(self, campaign):
        assert list(campaign.results) == [
            module.EXPERIMENT_ID for module in runner.ALL_MODULES
        ]

    def test_every_experiment_matches_its_pinned_digests(self, campaign):
        pinned = json.loads(DIGESTS_PATH.read_text())["experiments"]
        changed = {
            experiment_id: dict(digests)
            for experiment_id, digests in campaign.digests.items()
            if pinned.get(experiment_id) != dict(digests)
        }
        assert set(pinned) <= set(campaign.digests), "pinned but not run"
        assert not changed, "changed digests:\n" + json.dumps(
            changed, indent=2, sort_keys=True
        )

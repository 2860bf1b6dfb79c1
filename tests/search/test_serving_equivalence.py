"""The engine-backed serving tree against the frozen synchronous walk.

``RootServer.search`` runs every query through ``ServingEngine``.  For
the ``slo`` experiment's configurations it must serve exactly what the
old synchronous tree (``sync_tree_oracle``) served: the same pages down
to the ``latency_ms`` floats, the same injector draws and deaths, the
same metrics snapshot, the same span trees.  Where the two deliberately
differ — hedges, retries and the deadline interleave differently in an
event loop — the engine's behaviour is pinned by the scripted cases
below.
"""

import dataclasses

import pytest

from repro.errors import ConfigurationError
from repro.experiments import slo
from repro.experiments.common import RunPreset
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import Tracer
from repro.search.cluster import SearchCluster
from repro.search.documents import Corpus, CorpusConfig
from repro.search.engine import ServingEngine
from repro.search.faults import HEDGE_ATTEMPT_OFFSET, FaultInjector, FaultSpec, RpcDraw
from repro.search.indexer import InvertedIndexBuilder
from repro.search.leaf import LeafServer
from repro.search.policies import HedgePolicy, RetryPolicy, ServingPolicy
from repro.search.root import RootServer
from tests.search.sync_tree_oracle import SyncTreeOracle


def _slo_configurations():
    """Every (spec, policy, deadline) the slo experiment serves, in order."""
    configs = [("model-check", slo._spec(0.0), None, None)]
    configs += [
        (f"fault-sweep {rate}", slo._spec(rate), None, slo._DEADLINE_MS)
        for rate in slo._FAULT_RATES
    ]
    configs += [
        (f"slo-sweep {deadline}", slo._spec(0.10), None, deadline)
        for deadline in slo._SLO_SWEEP_MS
    ]
    spiky = FaultSpec(
        latency_spike_rate=0.25,
        spike_multiplier=slo._SPIKE_MULTIPLIER,
        utilization=slo._UTILIZATION,
    )
    for name, hedge in (("off", None), ("after 45 ms", HedgePolicy(45.0))):
        policy = ServingPolicy(retry=RetryPolicy(), hedge=hedge)
        configs.append((f"hedging {name}", spiky, policy, slo._DEADLINE_MS))
    configs.append(("fail-stop", slo._spec(0.0, hard=0.002), None, slo._DEADLINE_MS))
    return configs


CONFIGURATIONS = _slo_configurations()


def _serve_all(oracle: bool):
    """Serve every configuration on a fresh slo cluster; per-config outcomes."""
    preset = dataclasses.replace(RunPreset.quick(), seed=7)
    cluster, queries = slo._build(preset)
    outcomes = {}
    for name, spec, policy, deadline_ms in CONFIGURATIONS:
        faulted = cluster.with_faults(
            spec, policy=policy, latency_model=slo._model(), seed=preset.seed
        )
        if oracle:
            faulted.frontend.root = SyncTreeOracle(
                faulted.frontend.root, cluster.metrics
            )
        pages, __ = faulted.serve_with_outcomes(queries, deadline_ms=deadline_ms)
        injector = faulted.frontend.injector
        outcomes[name] = {
            "pages": pages,
            "counters": (
                injector.calls,
                injector.spikes,
                injector.transient_errors,
                injector.hard_failures,
            ),
            "died_at_ms": list(injector.died_at_ms.items()),
            "clock_ms": injector.clock.now_ms,
        }
    return outcomes, cluster.metrics_snapshot().to_json()


@pytest.fixture(scope="module")
def served():
    return _serve_all(oracle=True), _serve_all(oracle=False)


class TestSloConfigurations:
    @pytest.mark.parametrize("name", [c[0] for c in CONFIGURATIONS])
    def test_pages_match_the_synchronous_tree(self, served, name):
        (sync, __), (engine, __) = served
        sync_pages, engine_pages = sync[name]["pages"], engine[name]["pages"]
        assert len(engine_pages) == len(sync_pages) > 0
        for index, (expected, actual) in enumerate(zip(sync_pages, engine_pages)):
            # Exact equality: hits, snippets, completeness, latency floats.
            assert actual == expected, f"query {index}"

    @pytest.mark.parametrize("name", [c[0] for c in CONFIGURATIONS])
    def test_injector_draws_match(self, served, name):
        (sync, __), (engine, __) = served
        for key in ("counters", "died_at_ms", "clock_ms"):
            assert engine[name][key] == sync[name][key], key

    def test_metrics_snapshots_match(self, served):
        (__, sync_snapshot), (__, engine_snapshot) = served
        assert engine_snapshot == sync_snapshot

    def test_sweep_exercises_faults_and_deadlines(self, served):
        """The comparison is not vacuous: pages degrade, leaves die."""
        (sync, __), __ = served
        pages = [p for outcome in sync.values() for p in outcome["pages"]]
        assert any(not p.complete for p in pages)
        assert any(p.latency_ms == slo._DEADLINE_MS for p in pages)
        assert sync["fail-stop"]["died_at_ms"]
        assert sync["hedging after 45 ms"]["counters"][0] > sync["hedging off"][
            "counters"
        ][0]


class TestSpans:
    @pytest.mark.parametrize("scenario", ["ideal", "errors", "hedged"])
    def test_span_trees_match_the_synchronous_tree(self, scenario):
        """Same ids, parents, tags, start times and durations, same order.

        Hedges and retries are kept apart: where they meet, the two
        paths differ on purpose (see ``TestEngineCorners``).
        """
        cluster = SearchCluster.build(
            corpus_config=CorpusConfig(num_documents=150, vocabulary_size=200, seed=2),
            num_leaves=8,
            fanout=4,
            record_traces=False,
            seed=2,
        )
        spans = []
        for oracle in (True, False):
            tracer = Tracer(capacity=10_000)
            if scenario == "errors":
                spec, policy = slo._spec(0.3), None
            else:
                spec = FaultSpec(latency_spike_rate=0.3, utilization=0.5)
                policy = ServingPolicy(hedge=HedgePolicy(30.0))
            view = cluster.with_faults(
                spec,
                policy=policy,
                latency_model=slo._model(),
                seed=5,
                tracer=tracer,
            )
            if scenario == "ideal":
                view.frontend.injector = None
            if oracle:
                view.frontend.root = SyncTreeOracle(view.frontend.root, cluster.metrics)
            for index in range(30):
                view.frontend.search_terms(
                    [1 + index % 7, 20], deadline_ms=slo._DEADLINE_MS
                )
            spans.append([span.to_dict() for span in tracer.spans()])
        sync_spans, engine_spans = spans
        assert len(engine_spans) == len(sync_spans) == 30 * (1 + 3 + 8)
        assert engine_spans == sync_spans
        outcomes = {s["tags"].get("outcome") for s in sync_spans} - {None}
        hedged = any(s["tags"].get("hedged") for s in sync_spans)
        if scenario == "ideal":
            assert outcomes == {"ok"}
        elif scenario == "errors":
            assert outcomes == {"ok", "failed", "deadline"}
        else:
            assert hedged


# ----------------------------------------------------------------------
# Where the event loop deliberately differs from the synchronous walk
# ----------------------------------------------------------------------


class AttemptScript(FaultInjector):
    """Scripted draws per ``(leaf, attempt)``; off-script calls ok at 1 ms."""

    def __init__(self, script):
        super().__init__(FaultSpec(), seed=0)
        self.script = dict(script)
        self.planned = []

    def plan_rpc(self, leaf_id, query_key=None, attempt=1):
        self._calls.inc()
        self.planned.append((leaf_id, attempt))
        kind, latency_ms = self.script.get((leaf_id, attempt), ("ok", 1.0))
        return RpcDraw(kind=kind, latency_ms=latency_ms)


@pytest.fixture(scope="module")
def leaves():
    corpus = Corpus(CorpusConfig(num_documents=80, vocabulary_size=150, seed=3))
    builder = InvertedIndexBuilder(num_shards=2)
    builder.add_corpus(corpus)
    return [LeafServer(shard) for shard in builder.build()]


def _both(tree_leaves, script, **kwargs):
    """Serve one query through the engine and through the oracle."""
    pages, injectors, snapshots = [], [], []
    for path in ("engine", "oracle"):
        metrics = MetricsRegistry()
        root = RootServer(tree_leaves, metrics=metrics)
        server = root if path == "engine" else SyncTreeOracle(root, metrics)
        injector = AttemptScript(script)
        pages.append(server.search([1, 2], injector=injector, **kwargs))
        injectors.append(injector)
        snapshots.append(metrics.snapshot())
    return pages, injectors, snapshots


class TestEngineCorners:
    def test_hedge_fires_on_attempt_one_even_if_primary_later_fails(self, leaves):
        leaf_id = leaves[0].shard.shard_id
        policy = ServingPolicy(
            retry=RetryPolicy(max_attempts=2, backoff_ms=1.0),
            hedge=HedgePolicy(after_ms=5.0),
            overhead_ms=2.0,
        )
        (engine, oracle), (engine_inj, oracle_inj), (snap, __) = _both(
            leaves[:1], {(leaf_id, 1): ("transient", 10.0)}, policy=policy
        )
        # The hedge leaves at 5 ms, answers at 6; the primary's error at
        # 10 ms arrives after the leaf already answered.
        assert engine_inj.planned == [(leaf_id, 1), (leaf_id, HEDGE_ATTEMPT_OFFSET + 1)]
        assert engine.complete and engine.latency_ms == 6.0 + 2.0
        assert snap.value("repro.search.root.hedged_rpcs") == 1
        assert snap.value("repro.search.root.retries") == 0
        # The synchronous walk never hedged a failed attempt: it retried.
        assert oracle_inj.planned == [(leaf_id, 1), (leaf_id, 2)]
        assert oracle.latency_ms == 10.0 + 1.0 + 1.0 + 2.0

    def test_retry_past_the_leaf_budget_is_not_drawn(self, leaves):
        leaf_id = leaves[0].shard.shard_id
        policy = ServingPolicy(
            retry=RetryPolicy(max_attempts=2, backoff_ms=5.0), overhead_ms=2.0
        )
        (engine, oracle), (engine_inj, oracle_inj), (snap, __) = _both(
            leaves[:1],
            {(leaf_id, 1): ("transient", 8.0)},
            policy=policy,
            deadline_ms=12.0,
        )
        # Leaf budget 12 - 2 = 10 ms; the retry would start at 13 ms.
        assert engine_inj.planned == [(leaf_id, 1)]
        assert oracle_inj.planned == [(leaf_id, 1), (leaf_id, 2)]
        assert engine == oracle
        assert not engine.complete and engine.latency_ms == 12.0
        assert snap.value("repro.search.root.retries") == 1
        assert snap.value("repro.search.root.deadline_misses") == 1

    def test_reply_exactly_at_the_leaf_budget_is_in_time(self, leaves):
        leaf_id = leaves[0].shard.shard_id
        (engine, oracle), __, __ = _both(
            leaves[:1],
            {(leaf_id, 1): ("ok", 10.0)},
            policy=ServingPolicy(overhead_ms=2.0),
            deadline_ms=12.0,
        )
        assert engine == oracle
        assert engine.complete and engine.latency_ms == 12.0

    def test_overheads_add_level_by_level(self, leaves):
        """(x + o) + o, as the synchronous walk added them, not x + 2o."""
        policy = ServingPolicy(overhead_ms=0.1)
        pages = []
        for oracle in (False, True):
            metrics = MetricsRegistry()
            root = RootServer.build_tree(leaves * 2, fanout=2, metrics=metrics)
            server = SyncTreeOracle(root, metrics) if oracle else root
            pages.append(
                server.search([1, 2], injector=AttemptScript({}), policy=policy)
            )
        assert (1.0 + 0.1) + 0.1 != 1.0 + 2 * 0.1
        assert pages[0].latency_ms == pages[1].latency_ms == (1.0 + 0.1) + 0.1

    def test_mixed_depth_tree_is_rejected(self, leaves):
        mixed = RootServer([leaves[0], RootServer([leaves[1]])])
        with pytest.raises(ConfigurationError, match="same depth"):
            mixed.search([1, 2])
        with pytest.raises(ConfigurationError, match="same depth"):
            mixed.search([1, 2], injector=AttemptScript({}))
        with pytest.raises(ConfigurationError, match="same depth"):
            ServingEngine(num_leaves=2, tree=(0, (1,)))
        # The synchronous walk served such trees; build_tree never builds one.
        leaves_8 = leaves * 4
        for fanout in (2, 3, 4):
            __, tree = RootServer.build_tree(leaves_8, fanout=fanout).layout()
            ServingEngine(num_leaves=len(leaves_8), tree=tree)

    @pytest.mark.parametrize(
        "tree",
        [(), (0, 0), (0, 2), ((),), 0],
    )
    def test_malformed_trees_are_rejected(self, tree):
        with pytest.raises(ConfigurationError):
            ServingEngine(num_leaves=2, tree=tree)

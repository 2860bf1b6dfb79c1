"""Integration tests: every experiment runs and satisfies the paper's
shape claims at the tiny preset.

The preset-dependent experiments are read from the session's shared
``campaign`` run (``tests/conftest.py``); the preset-free ones run
directly.
"""

import pytest

from repro.experiments import fig4, fig8, fig9, fig10, fig11, fig12, table2
from repro.experiments.common import ExperimentResult


class TestExperimentResult:
    def test_render_table(self):
        result = ExperimentResult("x", "title")
        result.add(a=1, b="two")
        result.add(a=3.14159, c=True)
        result.note("a note")
        text = result.render()
        assert "title" in text and "3.142" in text and "a note" in text

    def test_column_union(self):
        result = ExperimentResult("x", "t")
        result.add(a=1)
        result.add(b=2)
        assert result.column_names() == ["a", "b"]


class TestTable1(object):
    def test_search_contrasts_with_benchmarks(self, campaign):
        result = campaign.results["table1"]
        rows = {r["workload"]: r for r in result.rows}
        # The paper's three headline contrasts:
        assert rows["s1-leaf"]["l2_instr_mpki"] > 3 * rows["spec-gobmk"]["l2_instr_mpki"] / 3.0
        assert rows["s1-leaf"]["l2_instr_mpki"] > rows["cloudsuite-websearch"]["l2_instr_mpki"] * 3
        assert rows["spec-mcf"]["l3_load_mpki"] > rows["s1-leaf"]["l3_load_mpki"] * 10
        assert rows["s1-leaf"]["branch_mpki"] > rows["cloudsuite-websearch"]["branch_mpki"] * 5
        assert rows["spec-mcf"]["ipc"] < 0.4
        assert rows["spec-perlbench"]["ipc"] > 1.2
        # Formerly the benchmark-suite checks of the table.
        assert rows["s1-leaf"]["l2_instr_mpki"] > 3 * rows["spec-gobmk"]["l2_instr_mpki"] / 1.2
        assert rows["spec-mcf"]["ipc"] < rows["s1-leaf"]["ipc"]
        assert rows["cloudsuite-websearch"]["branch_mpki"] < 2.0


class TestTable2:
    def test_rows(self):
        result = table2.run()
        attributes = [r["attribute"] for r in result.rows]
        assert "Microarchitecture" in attributes
        assert len(result.rows) == 9


class TestFig2:
    def test_all_panels(self, campaign):
        result = campaign.results["fig2"]
        by_series = {}
        for row in result.rows:
            by_series.setdefault(row["series"], []).append(row)
        scaling = by_series["fig2a-core-scaling"]
        assert scaling[-1]["normalized_qps"] > 8  # near-linear to 72 cores
        assert by_series["fig2b-smt-plt1"][0]["improvement_pct"] == pytest.approx(
            37, abs=1
        )
        huge = by_series["fig2c-huge-pages"][0]
        assert 3 < huge["improvement_pct"] < 30  # paper ~10%
        prefetch = by_series["fig2c-prefetch"][0]
        assert 0 < prefetch["improvement_pct"] < 15  # paper ~5%


class TestFig3:
    def test_shares_near_paper(self, campaign):
        result = campaign.results["fig3"]
        shares = {r["category"]: r["modeled_pct"] for r in result.rows}
        assert shares["retiring"] == pytest.approx(32, abs=6)
        assert shares["backend_memory"] == pytest.approx(20.5, abs=6)
        assert sum(shares.values()) == pytest.approx(100, abs=0.5)


class TestFig4:
    def test_heap_dominates_and_sublinear(self):
        result = fig4.run()
        rows = [r for r in result.rows if isinstance(r["cores"], int)]
        for row in rows:
            assert row["heap_gib"] > 3 * row["code_gib"]
            assert row["heap_gib"] > 3 * row["stack_gib"]
        heap = [r["heap_gib"] for r in rows]
        cores = [r["cores"] for r in rows]
        assert heap[-1] / heap[0] < cores[-1] / cores[0]


class TestFig5:
    def test_heap_grows_slower_than_shard(self, campaign):
        result = campaign.results["fig5"]
        rows = result.rows
        heap_growth = rows[-1]["heap_gib"] / rows[0]["heap_gib"]
        shard_growth = rows[-1]["shard_gib"] / rows[0]["shard_gib"]
        assert heap_growth < shard_growth


class TestFig6:
    def test_shapes(self, campaign):
        result = campaign.results["fig6"]
        hit_rows = [r for r in result.rows if r["series"] == "fig6b-hit-rate"]
        by_capacity = {r["x"]: r for r in hit_rows}
        # Code saturates by 16 MiB.
        assert by_capacity[16]["code"] > 0.9
        # Heap keeps improving to GiB scale.
        assert by_capacity[1024]["heap"] > by_capacity[32]["heap"] + 0.15
        # Shard stays poor but nonzero at 2 GiB.
        assert by_capacity[2048]["shard"] < 0.6
        # Combined MPKI drops substantially from 32 MiB to 1 GiB.
        mpki_rows = {r["x"]: r for r in result.rows if r["series"] == "fig6c-mpki"}
        assert mpki_rows[1024]["combined"] < 0.75 * mpki_rows[32]["combined"]


class TestFig7:
    def test_conflicts_minor_beyond_l1(self, campaign):
        result = campaign.results["fig7"]
        assoc = {
            r["x"]: r["mpki_decrease_pct"]
            for r in result.rows
            if r["series"] == "fig7a-associativity"
        }
        assert assoc["L3"] < 6.0
        assert assoc["L2"] < 8.0

    def test_block_sweep_present(self, campaign):
        result = campaign.results["fig7"]
        blocks = [r for r in result.rows if r["series"] == "fig7b-block-size"]
        assert len(blocks) == 6

    def test_miss_types(self, campaign):
        result = campaign.results["fig7"]
        types = {
            r["x"]: r for r in result.rows if r["series"] == "miss-types-l3"
        }
        # Shard misses are colder than heap misses, which carry the
        # capacity component.  (At test-scale trace lengths cold misses
        # dominate both; the paper's 135B-instruction traces amortize
        # first touches away.)
        assert types["shard"]["cold_pct"] > types["heap"]["cold_pct"]
        assert types["heap"]["capacity_pct"] > 3 * types["shard"]["conflict_pct"]
        assert types["heap"]["capacity_pct"] > 10


class TestFig8:
    def test_linear_fit_recovers_eq1(self):
        result = fig8.run()
        fit = next(r for r in result.rows if r["series"] == "fig8b-linear-fit")
        assert fit["amat_ns"] == pytest.approx(-8.62e-3, rel=0.05)
        assert fit["ipc"] == pytest.approx(1.78, rel=0.05)


class TestFig9:
    def test_iso_area_comparison(self):
        result = fig9.run()
        rows = {(r["cores"], r["l3_mib"]): r["qps"] for r in result.rows}
        assert rows[(11, 13.5)] > rows[(9, 22.5)]


class TestFig10:
    def test_optimum(self):
        result = fig10.run()
        quantized = [
            r for r in result.rows if r["series"] == "smt-on-quantized"
        ]
        best = max(quantized, key=lambda r: r["improvement_pct"])
        assert best["l3_mib_per_core"] == 1.0
        assert best["cores"] == 23
        assert best["improvement_pct"] == pytest.approx(14, abs=1.5)


class TestFig11:
    def test_decomposition(self):
        result = fig11.run()
        for row in result.rows:
            assert row["cores_gain_pct"] >= 0
            assert row["cache_loss_pct"] <= 0


class TestFig12:
    def test_physical_accounting(self):
        result = fig12.run()
        rows = {r["capacity"]: r for r in result.rows}
        assert rows["1 GiB"]["edram_dies"] == 8
        assert rows["2 GiB"]["edram_dies"] == 16
        # Alloy layout: 2048 // (64 + 8) = 28 TAD entries per row.
        assert rows["1 GiB"]["tad_entries_per_row"] == 28
        assert rows["1 GiB"]["tag_overhead_pct"] == pytest.approx(11.1, abs=0.1)


class TestFig13:
    def test_l4_sweep(self, campaign):
        result = campaign.results["fig13"]
        rows = {r["l4_mib"]: r for r in result.rows}
        assert rows[1024]["hit_rate"] > rows[64]["hit_rate"]
        assert 0.25 < rows[1024]["hit_rate"] < 0.75  # paper: ~50%
        assert rows[8192]["heap_hit"] > rows[8192]["shard_hit"]


class TestFig14:
    def test_headline_improvements(self, campaign):
        result = campaign.results["fig14"]
        rows = {(r["scenario"], r["l4_mib"]): r for r in result.rows}
        base = rows[("baseline", 1024)]
        assert base["combined_pct"] == pytest.approx(27, abs=5)
        assert base["rebalance_pct"] == pytest.approx(14, abs=2)
        assert rows[("pessimistic", 1024)]["combined_pct"] < base["combined_pct"]
        assert rows[("pessimistic", 1024)]["combined_pct"] > 15
        assert rows[("future", 1024)]["combined_pct"] >= base["combined_pct"] - 3


class TestPower:
    def test_anchors(self, campaign):
        result = campaign.results["power"]
        metrics = {r["metric"]: r["value"] for r in result.rows}
        assert metrics["socket power increase (23 cores)"] == "+18.9%"
        assert "23" in metrics["iso-power area saving (18c @ 1 MiB/core)"]


class TestDiscussion:
    def test_all_studies_run(self, campaign):
        result = campaign.results["discussion"]
        by_series = {}
        for row in result.rows:
            by_series.setdefault(row["series"], []).append(row)

        # Split L2 does not improve the total (the §V argument).
        split = {r["config"]: r["total"] for r in by_series["split-l2"]}
        assert split["split 128K+128K"] >= split["unified 256K"] * 0.9

        # Doubling the L2 is a small lever.
        bigger = {r["config"]: r["ipc"] for r in by_series["bigger-l2"]}
        unified_ipc = bigger["256K L2"]
        big_ipc = bigger["512K L2 (+latency)"]
        assert abs(big_ipc / unified_ipc - 1.0) < 0.06

        # Prefetch buffering lifts the L4 hit rate substantially.
        prefetch = by_series["l4-prefetch-buffer"][0]
        assert prefetch["l4_hit"] > 0.55

        # NUMA: still well ahead of baseline at 50% remote.
        numa = {r["config"]: r["extra_qps_pct"] for r in by_series["numa"]}
        assert numa["50% remote L4 hits"] > 14

        # Tail latency improves design over design.
        tails = [r["p99_ms"] for r in by_series["tail-latency"]]
        assert tails == sorted(tails, reverse=True)
        assert all(r["within_slo"] for r in by_series["tail-latency"])


class TestSlo:
    def test_serving_robustness_shape(self, campaign):
        result = campaign.results["slo"]
        by_series = {}
        for row in result.rows:
            by_series.setdefault(row["series"], []).append(row)

        # Degradation and p99 grow monotonically with the fault rate,
        # while partial aggregation keeps availability high.
        sweep = by_series["fault-sweep"]
        degraded = [r["degraded_rate"] for r in sweep]
        assert degraded == sorted(degraded)
        assert degraded[0] == 0.0 < degraded[-1]
        assert [r["p99_ms"] for r in sweep] == sorted(r["p99_ms"] for r in sweep)
        assert all(r["availability"] > 0.99 for r in sweep)

        # A looser SLO means fewer degraded pages.
        slo_degraded = [r["degraded_rate"] for r in by_series["slo-sweep"]]
        assert slo_degraded == sorted(slo_degraded, reverse=True)

        # Hedging buys back deadline misses for bounded extra work.
        hedged = {r["hedge"]: r for r in by_series["hedging"]}
        assert (
            hedged["after 45 ms"]["degraded_rate"] < hedged["off"]["degraded_rate"]
        )
        assert 0 < hedged["after 45 ms"]["extra_rpcs_pct"] < 100

        # Leaf deaths degrade results without killing availability.
        (fail_stop,) = by_series["fail-stop"]
        assert fail_stop["dead_leaves"] > 0
        assert fail_stop["availability"] == 1.0

        # The simulated tree agrees with the analytic M/M/1 model.
        analytic, simulated = by_series["model-check"]
        assert simulated["mean_ms"] == pytest.approx(analytic["mean_ms"], rel=0.25)
        assert simulated["p99_ms"] == pytest.approx(analytic["p99_ms"], rel=0.4)


class TestHurryup:
    def test_event_driven_serving_shape(self, campaign):
        result = campaign.results["hurryup"]
        by_series = {}
        for row in result.rows:
            by_series.setdefault(row["series"], []).append(row)

        # Measured open-loop quantiles agree with the closed-form M/M/1
        # model at the sub-saturation operating point.
        (engine_row,) = [
            r
            for r in by_series["queueing-model-check"]
            if r["source"] == "event-driven engine"
        ]
        assert engine_row["p50_err_pct"] < 5.0
        assert engine_row["p99_err_pct"] < 5.0

        # Through and past saturation: the run completes, served
        # throughput plateaus at capacity, and the tail grows.
        saturation = {r["x"]: r for r in by_series["saturation"]}
        assert saturation[0.7]["served_rate"] == 1.0
        assert saturation[1.3]["served_rate"] < 0.9
        assert saturation[1.3]["served_qps"] <= 125.0 * 1.05
        p99 = [saturation[rho]["p99_ms"] for rho in (0.7, 1.0, 1.3)]
        assert p99 == sorted(p99)

        # Hurry-up migration beats FIFO where there is slack to exploit
        # (at the heaviest load migration overhead eats the benefit).
        pool = {
            (r["x"], r["policy"]): r for r in by_series["big-little"]
        }
        for qps in (300.0, 500.0):
            assert pool[(qps, "hurryup")]["miss_rate"] < pool[(qps, "fifo")]["miss_rate"]
            assert pool[(qps, "hurryup")]["migrations"] > 0
            assert pool[(qps, "fifo")]["migrations"] == 0


class TestAdaptive:
    def test_estimator_accuracy_and_control_convergence(self, campaign):
        result = campaign.results["adaptive"]
        by_series = {}
        for row in result.rows:
            by_series.setdefault(row["series"], []).append(row)

        # SHARDS @ R=0.01 (hash-replicated ensemble) within the 2%
        # absolute miss-ratio budget against exact Mattson on every
        # trace family.
        accuracy = by_series["shards-accuracy"]
        assert {r["x"] for r in accuracy} == {"heap", "shard", "mix"}
        for row in accuracy:
            assert row["max_err_pct"] <= 2.0
            # Spatial sampling actually happened: ~R per replica.
            assert row["sampled"] < 0.5 * row["accesses"]

        # The controller converges within the 3-epoch budget: from the
        # first epoch after each phase change it already matches or
        # beats the best static split of that epoch.
        control = by_series["adaptive-control"]
        assert len(control) == 12
        for row in control:
            if row["phase_offset"] >= 1:
                assert (
                    row["measured_hit_rate"]
                    >= row["best_fixed_hit_rate"] - 0.002
                )
            # Sanity on every epoch: the oracle bounds the measurement.
            assert row["measured_hit_rate"] <= row["oracle_hit_rate"] + 1e-9

        # Over the whole run, adapting beats any fixed split — the
        # point of closing the loop.
        (summary,) = by_series["adaptive-summary"]
        assert summary["adaptive_hit_rate"] > summary["best_fixed_hit_rate"]
        assert summary["best_fixed_hit_rate"] > summary["even_hit_rate"]

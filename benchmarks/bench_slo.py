"""Regenerate the serving-robustness (SLO) experiment."""

import pytest

from repro.experiments import slo


def test_slo_regeneration(run_once, preset, benchmark):
    result = run_once(slo.run, preset)
    rows = result.rows

    # Degraded-result rate and p99 respond monotonically to the injected
    # fault rate (p99 saturates at the deadline).
    sweep = [r for r in rows if r["series"] == "fault-sweep"]
    rates = [r["x"] for r in sweep]
    assert rates == sorted(rates)
    degraded = [r["degraded_rate"] for r in sweep]
    assert degraded == sorted(degraded)
    # Nothing is injected at x=0, yet an M/M/1 leaf at rho=0.5 (mean
    # 16 ms) overruns the 146 ms leaf budget with probability
    # e^(-146/16) ~ 1.1e-4, so ~0.09% of 8-leaf queries still degrade.
    assert sweep[0]["spikes"] == 0 and sweep[0]["transient_errors"] == 0
    assert degraded[0] < 0.01 and degraded[-1] > 0.2
    p99 = [r["p99_ms"] for r in sweep]
    assert p99 == sorted(p99)
    assert all(r["availability"] > 0.99 for r in sweep)

    # Looser SLOs mean fewer degraded results.
    slo_rows = [r for r in rows if r["series"] == "slo-sweep"]
    slo_degraded = [r["degraded_rate"] for r in slo_rows]
    assert slo_degraded == sorted(slo_degraded, reverse=True)

    # Hedging pays for itself against a spiky leaf population.
    hedged = {r["hedge"]: r for r in rows if r["series"] == "hedging"}
    assert hedged["after 45 ms"]["degraded_rate"] < hedged["off"]["degraded_rate"] / 2

    # The fault-free tree agrees with the analytic latency model.
    check = {r["source"]: r for r in rows if r["series"] == "model-check"}
    analytic = check["analytic M/M/1"]
    empirical = check["simulated serving tree"]
    assert empirical["mean_ms"] == pytest.approx(analytic["mean_ms"], rel=0.25)
    assert empirical["p99_ms"] == pytest.approx(analytic["p99_ms"], rel=0.40)

    benchmark.extra_info["degraded_at_max_fault"] = degraded[-1]
    benchmark.extra_info["p99_no_faults_ms"] = p99[0]

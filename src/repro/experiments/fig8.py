"""Figure 8: IPC vs. L3 hit rate and vs. AMAT (the Eq. 1 model).

Reproduces the paper's CAT experiment analytically: sweep the L3 from 2 to
20 ways (4.5 – 45 MiB), read the demand hit rate off the Figure 8a-anchored
curve, convert to AMAT, and apply Eq. 1.  The linear-fit coefficients
recovered from the swept points must match the published slope/intercept —
that is the experiment's self-check.
"""

from __future__ import annotations

import numpy as np

from repro._units import MiB
from repro.core.hitcurve import LogLinearHitCurve
from repro.experiments import common
from repro.experiments.common import ExperimentResult, RunPreset
from repro.obs.metrics import MetricsRegistry

EXPERIMENT_ID = "fig8"
TITLE = "IPC vs. L3 hit rate and AMAT (Eq. 1)"


def sweep() -> list[dict]:
    """One row per CAT way-count: capacity, hit rate, AMAT, IPC."""
    curve = LogLinearHitCurve.fig8_demand()
    model = common.paper_models().perf
    rows = []
    for ways in range(2, 21, 2):
        capacity = int(ways * 2.25 * MiB)
        hit = curve(capacity)
        amat = model.amat_ns(hit)
        rows.append(
            {
                "ways": ways,
                "l3_mib": round(capacity / MiB, 2),
                "hit_rate": round(hit, 3),
                "amat_ns": round(amat, 1),
                "ipc": round(model.ipc(amat), 3),
            }
        )
    return rows


def run(preset: RunPreset | None = None) -> ExperimentResult:
    """Sweep, then recover the linear model from the swept points."""
    result = ExperimentResult(EXPERIMENT_ID, TITLE)
    rows = sweep()
    for row in rows:
        result.add(series="fig8-cat-sweep", **row)

    amat = np.array([row["amat_ns"] for row in rows])
    ipc = np.array([row["ipc"] for row in rows])
    slope, intercept = np.polyfit(amat, ipc, 1)
    result.add(
        series="fig8b-linear-fit",
        ways="fit",
        amat_ns=round(float(slope), 5),
        ipc=round(float(intercept), 3),
    )
    result.note(
        f"recovered IPC = {slope:.3e} * AMAT + {intercept:.2f} "
        "(paper Eq. 1: -8.62e-3 * AMAT + 1.78)"
    )
    result.note(
        f"hit-rate span {rows[0]['hit_rate']:.0%}..{rows[-1]['hit_rate']:.0%} "
        "(paper: 53%..73%); IPC span "
        f"{rows[0]['ipc']:.2f}..{rows[-1]['ipc']:.2f} (paper: ~1.20..1.35)"
    )

    # Sweep endpoints and the recovered fit as gauges (the analytic sweep
    # has no live components to instrument).
    registry = MetricsRegistry()
    ipc_gauge = registry.gauge(
        "repro.mem.cat.ipc",
        help="Modelled IPC at the CAT sweep endpoints.",
        unit="ipc",
    )
    ipc_gauge.labels(ways=str(rows[0]["ways"])).set(rows[0]["ipc"])
    ipc_gauge.labels(ways=str(rows[-1]["ways"])).set(rows[-1]["ipc"])
    registry.gauge(
        "repro.mem.cat.fit_slope",
        help="Recovered Eq. 1 slope (IPC per ns of AMAT).",
        unit="ipc_per_ns",
    ).set(float(slope))
    registry.gauge(
        "repro.mem.cat.fit_intercept",
        help="Recovered Eq. 1 intercept (IPC at zero AMAT).",
        unit="ipc",
    ).set(float(intercept))
    result.attach_metrics(registry)
    return result

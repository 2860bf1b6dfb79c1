"""Run every experiment and render a combined report.

``python -m repro.experiments.runner [--standard] [ids...]`` or the
``repro-experiments`` console script.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from types import ModuleType

from repro.experiments import (
    ablations,
    adaptive,
    discussion,
    dse,
    fig2,
    fig3,
    fig4,
    fig5,
    fig6,
    fig7,
    fig8,
    fig9,
    fig10,
    fig11,
    fig12,
    fig13,
    fig14,
    hurryup,
    power,
    slo,
    table1,
    table2,
)
from repro.errors import ConfigurationError
from repro.experiments.common import ExperimentResult, RunPreset
from repro.experiments.parallel import run_report

ALL_MODULES = (
    table1,
    table2,
    fig2,
    fig3,
    fig4,
    fig5,
    fig6,
    fig7,
    fig8,
    fig9,
    fig10,
    fig11,
    fig12,
    fig13,
    fig14,
    power,
    slo,
    hurryup,
    adaptive,
    discussion,
    ablations,
    dse,
)


def select_modules(only: list[str] | None = None) -> list[ModuleType]:
    """The experiment modules to run, in canonical (ALL_MODULES) order.

    Unknown ids raise :class:`ConfigurationError` — silently returning a
    partial campaign is exactly the failure a repro cannot afford.  So
    does a duplicated ``EXPERIMENT_ID``, which would otherwise let two
    modules silently overwrite each other in the metrics document.
    """
    by_id: dict[str, object] = {}
    for module in ALL_MODULES:
        if module.EXPERIMENT_ID in by_id:
            raise ConfigurationError(
                f"duplicate experiment id {module.EXPERIMENT_ID!r} in ALL_MODULES"
            )
        by_id[module.EXPERIMENT_ID] = module
    if not only:
        return list(ALL_MODULES)
    unknown = sorted(set(only) - set(by_id))
    if unknown:
        raise ConfigurationError(f"unknown experiment ids: {unknown}")
    wanted = set(only)
    return [module for module in ALL_MODULES if module.EXPERIMENT_ID in wanted]


def write_metrics(results: list[ExperimentResult], path: str) -> None:
    """Serialize every result's metrics snapshot to one JSON document.

    The document maps experiment id to ``{"title", "metrics"}`` and is
    what ``python -m repro.obs.report`` renders.  Two results sharing an
    experiment id raise :class:`ConfigurationError` instead of silently
    overwriting each other in the keyed document.
    """
    document: dict[str, dict] = {}
    for result in results:
        if result.experiment_id in document:
            raise ConfigurationError(
                f"duplicate experiment id {result.experiment_id!r} in results"
            )
        document[result.experiment_id] = {
            "title": result.title,
            "metrics": result.metrics.to_dict() if result.metrics else {},
        }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")


def main(argv: list[str] | None = None) -> int:
    """Console entry point."""
    parser = argparse.ArgumentParser(
        description="Reproduce the paper's tables and figures."
    )
    parser.add_argument(
        "ids",
        nargs="*",
        help="experiment ids to run (default: all), e.g. fig6 table1",
    )
    parser.add_argument(
        "--only",
        action="append",
        default=[],
        metavar="ID",
        help="run only this experiment id (repeatable; equivalent to "
        "listing ids positionally)",
    )
    parser.add_argument(
        "--standard",
        action="store_true",
        help="use the standard (slow, higher-fidelity) preset",
    )
    parser.add_argument(
        "--charts",
        action="store_true",
        help="render swept series as terminal charts after each table",
    )
    parser.add_argument(
        "--list",
        action="store_true",
        help="list experiment ids and exit",
    )
    parser.add_argument(
        "--metrics-out",
        metavar="PATH",
        help="write every experiment's metrics snapshot to a JSON file "
        "(render with `python -m repro.obs.report PATH`)",
    )
    parser.add_argument(
        "--jobs",
        "-j",
        type=int,
        default=1,
        metavar="N",
        help="run experiments across N worker processes (default: 1, "
        "serial); output is byte-identical either way",
    )
    parser.add_argument(
        "--cache-dir",
        metavar="DIR",
        help="content-addressed artifact cache for generated traces; "
        "warm reruns skip synthetic-trace generation",
    )
    args = parser.parse_args(argv)

    if args.list:
        for module in ALL_MODULES:
            print(f"{module.EXPERIMENT_ID:12s} {module.TITLE}")
        return 0

    preset = RunPreset.standard() if args.standard else RunPreset.quick()
    if args.jobs < 1:
        parser.error("--jobs must be >= 1")

    selected = list(args.ids) + list(args.only)
    start = time.time()
    try:
        report = run_report(
            preset,
            only=selected or None,
            jobs=args.jobs,
            cache_dir=args.cache_dir,
        )
    except ConfigurationError as exc:
        parser.error(str(exc))
    results = report.results
    for result in results:
        print(result.render())
        if args.charts:
            from repro.experiments.charts import render_experiment_charts

            print()
            print(render_experiment_charts(result))
        print()
    if args.metrics_out:
        write_metrics(results, args.metrics_out)
        print(f"[metrics snapshot written to {args.metrics_out}]")
    if args.cache_dir:
        stats = report.cache_stats()
        print(
            f"[cache: {stats['hits']} hits, {stats['misses']} misses, "
            f"{stats['bytes_read']} B read, {stats['bytes_written']} B written]"
        )
    jobs_note = f", {args.jobs} jobs" if args.jobs > 1 else ""
    print(f"[{preset.name} preset{jobs_note}, {time.time() - start:.1f}s]")
    return 0


if __name__ == "__main__":
    sys.exit(main())

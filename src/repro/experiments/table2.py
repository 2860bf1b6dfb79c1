"""Table II: key attributes of the PLT1 and PLT2 platforms.

Purely declarative — the platform specs in :mod:`repro.hw.catalog` are
inputs to every other experiment; rendering them verifies the
configuration matches the paper.
"""

from __future__ import annotations

from repro._units import format_size
from repro.experiments.common import ExperimentResult, RunPreset
from repro.hw import catalog
from repro.hw.spec import HardwareSpec

EXPERIMENT_ID = "table2"
TITLE = "Key attributes of PLT1 and PLT2 platforms"


def table_row(spec: HardwareSpec) -> dict[str, str]:
    """One platform's Table II column, rendered as strings."""
    return {
        "Microarchitecture": spec.microarchitecture,
        "Number of sockets": str(spec.sockets),
        "Cores": f"{spec.cores_per_socket} per socket",
        "SMT": str(spec.smt_ways),
        "Cache block size": f"{spec.cache_block_bytes} B",
        "L1-I$ (per core)": format_size(spec.l1i.size_bytes),
        "L1-D$ (per core)": format_size(spec.l1d.size_bytes),
        "Private L2$ (per core)": format_size(spec.l2.size_bytes),
        "Shared L3$ (per socket)": format_size(spec.l3.size_bytes),
    }


def run(preset: RunPreset | None = None) -> ExperimentResult:
    """Render the two platform specs side by side."""
    result = ExperimentResult(EXPERIMENT_ID, TITLE)
    rows1 = table_row(catalog.plt1())
    rows2 = table_row(catalog.plt2())
    for attribute in rows1:
        result.add(attribute=attribute, PLT1=rows1[attribute], PLT2=rows2[attribute])
    return result

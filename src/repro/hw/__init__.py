"""Declarative hardware descriptions (§IV's design space, as data).

The paper's platforms and its proposed design live here as validated,
serializable :class:`~repro.hw.spec.HardwareSpec` objects built from
:class:`~repro.hw.instance.MemoryInstance` levels — size, banks,
bandwidth, latency, area, and per-access energy, in the style of
ZigZag's ``MemoryInstance``/``MemoryHierarchy`` model.  The adapters in
:mod:`repro.hw.adapters` derive every hand-calibrated model object the
experiments consume (``HierarchyConfig``, ``AreaModel``, ``PowerModel``,
``MemoryLatencies``, ``L4Config``) from a spec, so PLT1/PLT2 and the
proposed system are data, not code; the catalog in
:mod:`repro.hw.catalog` holds the paper's instances, and it is the only
machine description: Table II renders straight from it.
"""

from repro.hw.adapters import DerivedModels, derive_models
from repro.hw.instance import MemoryInstance
from repro.hw.spec import SCHEMA_VERSION, HardwareSpec

__all__ = [
    "DerivedModels",
    "HardwareSpec",
    "MemoryInstance",
    "SCHEMA_VERSION",
    "derive_models",
]

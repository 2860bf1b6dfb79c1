"""repro — a reproduction of "Memory Hierarchy for Web Search" (HPCA 2018).

The library has four layers:

* **substrates** — :mod:`repro.memtrace` (traces and synthetic workload
  generators), :mod:`repro.cachesim` (exact and analytic cache simulation),
  :mod:`repro.cpu` (branch/SMT/core-scaling/Top-Down models), and
  :mod:`repro.search` (a functional mini web-search serving system that
  emits labelled memory traces);
* **calibration** — :mod:`repro.workloads` (search services and baseline
  profiles) and :mod:`repro.hw` (PLT1/PLT2 and the proposed design as
  declarative hardware specs);
* **the paper's contribution** — :mod:`repro.core`: the Eq. 1 performance
  model, area accounting, the cache-for-cores rebalancer, the eDRAM L4
  design, the combined optimizer, and power/energy accounting;
* **experiments** — :mod:`repro.experiments`: one driver per table/figure.

Quickstart::

    from repro.experiments import composed_run, RunPreset
    from repro.memtrace.trace import Segment

    run = composed_run("s1-leaf", RunPreset.quick())
    print(run.mpki("L2", Segment.CODE))   # the paper's L2-instr MPKI story
"""

from repro._units import GiB, KiB, MiB
from repro.errors import (
    CalibrationError,
    ConfigurationError,
    ReproError,
    SimulationError,
    TraceError,
)

__version__ = "1.0.0"

__all__ = [
    "KiB",
    "MiB",
    "GiB",
    "ReproError",
    "ConfigurationError",
    "TraceError",
    "SimulationError",
    "CalibrationError",
    "__version__",
]

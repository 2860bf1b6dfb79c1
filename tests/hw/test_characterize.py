"""Characterize the simulated hierarchy and check it against the catalog.

In the style of Cooper & Xu, *Efficient Characterization of Hidden
Processor Memory Hierarchies* (arXiv:1807.03104): drive microbenchmark
traces through :func:`~repro.cachesim.hierarchy.simulate_hierarchy` and
read each level's geometry off the steps in its miss counts, never off
its configuration object.

* **Block size** — a stride sweep.  A cold pass misses on every access
  once the stride reaches the block size, and on fewer before.
* **Capacity** — doubling footprints, then bisection.  A cyclic pass over
  ``n`` contiguous lines misses only cold iff every set holds its share,
  i.e. iff ``n`` is at most the level's capacity in lines.
* **Associativity** — same-set conflict groups.  ``k`` lines one
  capacity apart share one set at this level and above; a cyclic pass
  misses only cold iff ``k`` is at most the associativity.  After each
  group access, flush lines (counted apart, in another segment) evict
  the group line from the upstream sets, so the level under test sees
  every access even when it is less associative than the levels above.

The recovered L1-I, L1-D and L2 come from the unscaled
``hierarchy_config(spec)``; the L3 from the quick preset's scaled
``platform_hierarchy``, whose size is the declared size times the scale,
rounded down to a power-of-two set count.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np
import pytest

from repro.cachesim.hierarchy import HierarchyConfig, simulate_hierarchy
from repro.experiments.common import RunPreset, platform_hierarchy
from repro.hw import catalog
from repro.hw.adapters import hierarchy_config
from repro.hw.instance import MemoryInstance
from repro.memtrace.trace import AccessKind, Segment, Trace

#: Segment of the probe accesses (the only misses counted).
_PROBE = Segment.HEAP
#: Segment of the upstream-eviction accesses (never counted).
_FLUSH = Segment.STACK
#: Cyclic passes per capacity/associativity probe.
_PASSES = 2
#: Accesses per cold stride pass.
_COLD_ACCESSES = 64
#: Base address of the flush lines: a power of two beyond every probe, so
#: it maps to set 0 of every power-of-two-set level.
_FLUSH_BASE = 1 << 40
#: Largest probe (lines, ways or bytes of stride) before giving up.
_LIMIT = 1 << 22

#: Fetches reach the L1-I, loads the data side.
_KIND = {
    "L1I": AccessKind.INSTR,
    "L1D": AccessKind.LOAD,
    "L2": AccessKind.LOAD,
    "L3": AccessKind.LOAD,
}
#: Levels a load passes through before reaching each level.
_UPSTREAM = {"L1I": (), "L1D": (), "L2": ("L1D",), "L3": ("L1D", "L2")}

#: Platform -> (Table II spec for L1/L2, spec behind its scaled L3).
_SPECS = {
    "plt1": (catalog.plt1, catalog.plt1_simulated),
    "plt2": (catalog.plt2, catalog.plt2),
}


@dataclass(frozen=True)
class Geometry:
    """One cache level's size, associativity and block size, in bytes."""

    size: int
    assoc: int
    block: int


def _misses(
    config: HierarchyConfig,
    level: str,
    addrs: np.ndarray,
    segments: np.ndarray | None = None,
) -> int:
    """Probe-segment misses at ``level`` for one thread's access stream."""
    n = len(addrs)
    if segments is None:
        segments = np.full(n, _PROBE, np.uint8)
    trace = Trace(
        addr=np.asarray(addrs, np.uint64),
        kind=np.full(n, _KIND[level], np.uint8),
        segment=segments,
        thread=np.zeros(n, np.uint16),
        instruction_count=n,
    )
    stats = simulate_hierarchy(trace, config).level(level)
    return stats.misses_for(segments=(_PROBE,))


def _largest(fits) -> int:
    """Largest ``n >= 1`` with ``fits(n)``, for a predicate true up to a step."""
    assert fits(1)
    lo = 1
    while fits(2 * lo):
        lo *= 2
        assert lo < _LIMIT, "no miss step found"
    hi = 2 * lo
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if fits(mid):
            lo = mid
        else:
            hi = mid
    return lo


def _block_size(config: HierarchyConfig, level: str) -> int:
    """Smallest stride at which a cold pass misses on every access."""
    stride = 8
    cold = np.arange(_COLD_ACCESSES)
    while _misses(config, level, cold * stride) < _COLD_ACCESSES:
        stride *= 2
        assert stride < _LIMIT, "no block-size step found"
    return stride


def _capacity(config: HierarchyConfig, level: str, block: int) -> int:
    """Bytes of the largest contiguous footprint that only misses cold."""

    def fits(lines: int) -> bool:
        footprint = np.arange(lines) * block
        return _misses(config, level, np.tile(footprint, _PASSES)) == lines

    return _largest(fits) * block


def _assoc(
    config: HierarchyConfig, level: str, size: int, upstream: list[Geometry]
) -> int:
    """Largest same-set group that only misses cold."""
    flushes = max((u.assoc for u in upstream), default=0)
    span = max((u.size // u.assoc for u in upstream), default=0)
    # Odd multiples of the deepest upstream set span: set 0 upstream, and
    # never set 0 here while this level has more sets than the one above.
    flush = _FLUSH_BASE + (2 * np.arange(flushes) + 1) * span

    def fits(ways: int) -> bool:
        group = np.arange(ways) * size
        rounds = np.column_stack([group, np.tile(flush, (ways, 1))])
        segments = np.full(rounds.shape, _FLUSH, np.uint8)
        segments[:, 0] = _PROBE
        addrs = np.tile(rounds.ravel(), _PASSES)
        segments = np.tile(segments.ravel(), _PASSES)
        return _misses(config, level, addrs, segments) == ways

    return _largest(fits)


def characterize(
    config: HierarchyConfig, levels: tuple[str, ...]
) -> dict[str, Geometry]:
    """Recover the geometry of ``levels`` (and the levels above them)."""
    found: dict[str, Geometry] = {}
    for name in ("L1I", "L1D", "L2", "L3"):
        if name not in levels and not any(name in _UPSTREAM[t] for t in levels):
            continue
        block = _block_size(config, name)
        size = _capacity(config, name, block)
        upstream = [found[u] for u in _UPSTREAM[name]]
        found[name] = Geometry(size, _assoc(config, name, size, upstream), block)
    return {name: found[name] for name in levels}


def declared(instance: MemoryInstance, scale: float | None = None) -> Geometry:
    """A catalog level's geometry, or at ``scale`` in power-of-two sets."""
    if scale is None:
        return Geometry(instance.size_bytes, instance.assoc, instance.block_bytes)
    way_bytes = instance.assoc * instance.block_bytes
    sets = max(1, int(instance.size_bytes * scale) // way_bytes)
    sets = 1 << (sets.bit_length() - 1)
    return Geometry(sets * way_bytes, instance.assoc, instance.block_bytes)


def expected(platform: str) -> dict[str, Geometry]:
    """What the catalog declares for the characterized levels."""
    table, simulated = (make() for make in _SPECS[platform])
    return {
        "L1I": declared(table.l1i),
        "L1D": declared(table.l1d),
        "L2": declared(table.l2),
        "L3": declared(simulated.l3, RunPreset.quick().scale),
    }


def recover(platform: str) -> dict[str, Geometry]:
    """The simulator's unscaled L1-I/L1-D/L2 and quick-scaled L3."""
    table = _SPECS[platform][0]()
    found = characterize(hierarchy_config(table), ("L1I", "L1D", "L2"))
    scaled = platform_hierarchy(platform, RunPreset.quick())
    found.update(characterize(scaled, ("L3",)))
    return found


@pytest.fixture(scope="module", params=sorted(_SPECS))
def platform(request):
    return request.param


@pytest.fixture(scope="module")
def recovered(platform):
    return recover(platform)


class TestCatalogGeometry:
    def test_recovered_geometry_matches_catalog(self, platform, recovered):
        assert recovered == expected(platform)

    @pytest.mark.parametrize(
        "level, field, change",
        [
            ("L2", "assoc", lambda ways: ways + 1),
            ("L2", "assoc", lambda ways: ways - 1),
            ("L1I", "size", lambda size: size * 2),
            ("L1D", "block", lambda block: block * 2),
            ("L3", "assoc", lambda ways: ways + 1),
            ("L3", "size", lambda size: size // 2),
        ],
        ids=["l2-assoc+1", "l2-assoc-1", "l1i-size", "l1d-block", "l3-assoc", "l3-size"],
    )
    def test_catches_perturbed_catalog_field(
        self, platform, recovered, level, field, change
    ):
        wrong = expected(platform)
        declared_level = wrong[level]
        wrong[level] = dataclasses.replace(
            declared_level, **{field: change(getattr(declared_level, field))}
        )
        mismatched = [name for name in wrong if wrong[name] != recovered[name]]
        assert mismatched == [level]


class TestPerturbedSimulator:
    """A simulator built from a perturbed spec is told apart from the catalog."""

    @pytest.mark.parametrize("assoc", [4, 16])
    def test_l2_associativity(self, assoc):
        spec = catalog.plt1()
        spec = dataclasses.replace(spec, l2=dataclasses.replace(spec.l2, assoc=assoc))
        found = characterize(hierarchy_config(spec), ("L2",))
        # 4-way sits below the 8-way L1-D: only the upstream flush exposes it.
        assert found["L2"] == Geometry(spec.l2.size_bytes, assoc, 64)
        assert found["L2"] != expected("plt1")["L2"]

"""Differential equality: spec-derived models vs. the hand-coded objects.

Each adapter output must *equal* the object the experiments used to
construct by hand — this is the contract that lets PLT1/PLT2 and the
proposed design live as declarative data without changing a single
result byte (the experiment-level battery is
``tests/experiments/test_spec_golden.py``).
"""

import dataclasses

import pytest

from repro._units import KiB, MiB
from repro.core.area import AreaModel
from repro.core.l4cache import L4Config
from repro.core.perf_model import MemoryLatencies, SearchPerfModel
from repro.core.power import PowerModel
from repro.errors import ConfigurationError
from repro.experiments.table2 import table_row
from repro.hw import adapters, catalog
from tests.hw import hand_coded


class TestHierarchyEquality:
    def test_plt1_table_machine(self):
        derived = adapters.hierarchy_config(catalog.plt1())
        assert derived == hand_coded.plt1()

    def test_plt1_simulated_machine(self):
        derived = adapters.hierarchy_config(catalog.plt1_simulated())
        assert derived == hand_coded.plt1_simulated()

    def test_plt2(self):
        assert adapters.hierarchy_config(catalog.plt2()) == hand_coded.plt2()

    def test_unsimulatable_assoc_raises(self):
        spec = catalog.plt1()
        spec = dataclasses.replace(
            spec, l3=dataclasses.replace(spec.l3, assoc=0)
        )
        with pytest.raises(ConfigurationError, match="assoc"):
            adapters.hierarchy_config(spec)


class TestModelEquality:
    def test_area_model(self):
        assert adapters.area_model(catalog.plt1()) == AreaModel()

    def test_power_model_of_proposed_design(self):
        # 23 cores per socket, yet the measured 18-core anchor holds.
        assert adapters.power_model(catalog.proposed()) == PowerModel()

    def test_power_model_without_l4_keeps_default_edram_energy(self):
        model = adapters.power_model(catalog.plt1())
        assert model.edram_access_nj == PowerModel().edram_access_nj

    def test_memory_latencies(self):
        assert adapters.memory_latencies(catalog.proposed()) == MemoryLatencies()

    def test_perf_model(self):
        assert adapters.perf_model(catalog.proposed()) == SearchPerfModel()


class TestL4Adapters:
    def test_l4_config_defaults_to_declared_size(self):
        assert adapters.l4_config(catalog.proposed()) == L4Config()

    def test_l4_config_capacity_override(self):
        config = adapters.l4_config(catalog.proposed(), capacity_bytes=123 * 64)
        assert config == L4Config(capacity=123 * 64)

    def test_no_l4_raises(self):
        with pytest.raises(ConfigurationError, match="no L4"):
            adapters.l4_config(catalog.plt1())

    def test_fully_associative_l4(self):
        spec = catalog.proposed()
        spec = dataclasses.replace(
            spec, l4=dataclasses.replace(spec.l4, assoc=0)
        )
        assert adapters.l4_config(spec).associativity == "full"

    def test_set_associative_l4_has_no_model(self):
        spec = catalog.proposed()
        spec = dataclasses.replace(
            spec, l4=dataclasses.replace(spec.l4, assoc=8)
        )
        with pytest.raises(ConfigurationError, match="8-way"):
            adapters.l4_config(spec)

    def test_static_watts(self):
        spec = catalog.proposed()
        assert adapters.l4_static_watts(spec, 1024.0) == 6.144
        assert adapters.l4_static_watts(spec, 0.0) == 0.0
        assert adapters.l4_static_watts(catalog.plt1(), 512.0) == 0.0
        with pytest.raises(ConfigurationError, match="l4_mib"):
            adapters.l4_static_watts(spec, -1.0)


class TestDerivedModels:
    def test_bundle_matches_individual_adapters(self):
        spec = catalog.proposed()
        models = adapters.derive_models(spec)
        assert models.spec == spec
        assert models.hierarchy == adapters.hierarchy_config(spec)
        assert models.area == adapters.area_model(spec)
        assert models.power == adapters.power_model(spec)
        assert models.latencies == adapters.memory_latencies(spec)
        assert models.perf == adapters.perf_model(spec)

    def test_bundle_l4_helpers(self):
        models = adapters.derive_models(catalog.proposed())
        assert models.l4_config(64 * MiB).capacity == 64 * MiB
        assert models.l4_static_watts(128.0) == 0.768


class TestTable2:
    """The Table II platforms, read straight off the catalog specs."""

    def test_plt1_attributes(self):
        plt1 = catalog.plt1()
        assert plt1.microarchitecture == "Intel Haswell"
        assert plt1.sockets == 2
        assert plt1.cores_per_socket == 18
        assert plt1.smt_ways == 2
        assert plt1.cache_block_bytes == 64
        assert plt1.l1i.size_bytes == 32 * KiB
        assert plt1.l2.size_bytes == 256 * KiB
        assert plt1.l3.size_bytes == 45 * MiB

    def test_plt2_attributes(self):
        plt2 = catalog.plt2()
        assert plt2.microarchitecture == "IBM POWER8"
        assert plt2.cores_per_socket == 12
        assert plt2.smt_ways == 8
        assert plt2.cache_block_bytes == 128
        assert plt2.l1d.size_bytes == 64 * KiB
        assert plt2.l2.size_bytes == 512 * KiB
        assert plt2.l3.size_bytes == 96 * MiB

    def test_totals(self):
        plt1, plt2 = catalog.plt1(), catalog.plt2()
        assert plt1.total_cores == 36
        assert plt1.total_cores * plt1.smt_ways == 72
        assert plt2.total_cores * plt2.smt_ways == 192

    def test_table_rows_match_paper_strings(self):
        row = table_row(catalog.plt1())
        assert row["Shared L3$ (per socket)"] == "45 MiB"
        assert row["Cache block size"] == "64 B"
        row2 = table_row(catalog.plt2())
        assert row2["SMT"] == "8"

    def test_hierarchy_configs(self):
        h1 = adapters.hierarchy_config(catalog.plt1())
        assert h1.l3.geometry.size == 45 * MiB
        h2 = adapters.hierarchy_config(catalog.plt2())
        assert h2.l1d.geometry.block_size == 128


class TestNoMagicNameDispatch:
    """Regression: models derive from fields, never from the name string.

    The Table II hierarchy used to dispatch on ``name == "PLT1"``, so a
    renamed copy of PLT1 silently got PLT2's cache hierarchy.
    """

    def test_renamed_plt1_keeps_its_hierarchy(self):
        plt1 = catalog.plt1()
        custom = dataclasses.replace(plt1, name="CUSTOM")
        assert adapters.hierarchy_config(custom) == adapters.hierarchy_config(plt1)
        assert adapters.hierarchy_config(custom) != adapters.hierarchy_config(
            catalog.plt2()
        )

    def test_renamed_plt2_keeps_its_hierarchy(self):
        plt2 = catalog.plt2()
        custom = dataclasses.replace(plt2, name="CUSTOM")
        assert adapters.hierarchy_config(custom) == adapters.hierarchy_config(plt2)

    def test_unknown_calibration_raises(self):
        with pytest.raises(ConfigurationError, match="calibration"):
            dataclasses.replace(catalog.plt1(), calibration="sparc")

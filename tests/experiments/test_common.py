"""Tests for experiment presets and the run cache."""

import pytest

import dataclasses
import pickle
import threading

from repro.errors import ConfigurationError
from repro.experiments import table1
from repro.experiments.common import (
    ExperimentResult,
    RunPreset,
    composed_run,
    discard_run,
    platform_hierarchy,
)
from repro.workloads.profiles import all_profiles


def tiny_preset(seed=99):
    return RunPreset(
        name="tiny",
        scale=1 / 256,
        code_events=40_000,
        heap_events=120_000,
        shard_events=80_000,
        stack_events=10_000,
        threads=2,
        seed=seed,
    )


class TestRunPreset:
    def test_quick_smaller_than_standard(self):
        quick, standard = RunPreset.quick(), RunPreset.standard()
        assert quick.scale < standard.scale
        assert quick.heap_events < standard.heap_events

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            RunPreset("x", scale=0, code_events=1, heap_events=1, shard_events=1, stack_events=1)
        with pytest.raises(ConfigurationError):
            RunPreset("x", scale=0.5, code_events=0, heap_events=1, shard_events=1, stack_events=1)

    def test_negative_seed_rejected(self):
        """Regression: a negative seed failed later, inside numpy."""
        with pytest.raises(ConfigurationError, match="seed"):
            dataclasses.replace(RunPreset.quick(), seed=-1)


class TestPlatformHierarchy:
    def test_plt1_scaled(self):
        config = platform_hierarchy("plt1", tiny_preset())
        assert config.l1i.geometry.block_size == 64
        assert config.l3.geometry.size < 40 * 1024 * 1024

    def test_plt2_block(self):
        config = platform_hierarchy("plt2", tiny_preset())
        assert config.l1i.geometry.block_size == 128

    def test_unknown_platform(self):
        with pytest.raises(ConfigurationError):
            platform_hierarchy("plt3", tiny_preset())


class TestRunCache:
    def test_memoization(self):
        preset = tiny_preset()
        a = composed_run("s1-leaf", preset)
        b = composed_run("s1-leaf", preset)
        assert a is b

    def test_cache_is_per_preset_instance(self):
        preset = tiny_preset()
        composed_run("s1-leaf", preset)
        assert len(tiny_preset().run_cache) == 0

    def test_replace_resets_cache(self):
        preset = tiny_preset()
        composed_run("s1-leaf", preset)
        replaced = dataclasses.replace(preset, name="tiny2")
        assert len(preset.run_cache) == 1
        assert len(replaced.run_cache) == 0

    def test_pickle_drops_cache_but_preserves_preset(self):
        preset = tiny_preset()
        composed_run("s1-leaf", preset)
        clone = pickle.loads(pickle.dumps(preset))
        assert clone == preset
        assert len(preset.run_cache) == 1
        assert len(clone.run_cache) == 0

    def test_discard(self):
        preset = tiny_preset()
        composed_run("s1-leaf", preset)
        assert len(preset.run_cache) == 1
        discard_run("s1-leaf", preset)
        assert len(preset.run_cache) == 0

    def test_table1_keeps_only_shared_runs(self):
        preset = dataclasses.replace(tiny_preset(), branch_instructions=20_000)
        table1.run(preset)
        assert set(preset.run_cache.runs) == {
            ("s1-leaf", "plt1", preset.threads),
            ("s1-leaf-plt1", "plt1", preset.threads),
        }

    def test_different_threads_different_runs(self):
        preset = tiny_preset()
        a = composed_run("s1-leaf", preset, threads=1)
        b = composed_run("s1-leaf", preset, threads=2)
        assert a is not b


class TestTable1Pool:
    def test_rows_in_canonical_order_when_pool_finishes_reversed(
        self, monkeypatch
    ):
        """Each pair of profiles finishes in reverse; rows keep
        ``all_profiles()`` order, at most two profiles are in flight and
        the two shared runs are measured last."""
        canonical = [p.name for p in all_profiles()]
        shared = {"s1-leaf", "s1-leaf-plt1"}
        schedule = [n for n in canonical if n not in shared] + [
            n for n in canonical if n in shared
        ]
        done = {name: threading.Event() for name in canonical}
        lock = threading.Lock()
        started, finished, waits = [], [], []
        in_flight = {"now": 0, "max": 0}

        def fake_measure(profile, preset):
            with lock:
                started.append(profile.name)
                in_flight["now"] += 1
                in_flight["max"] = max(in_flight["max"], in_flight["now"])
            position = schedule.index(profile.name)
            if position % 2 == 0 and position + 1 < len(schedule):
                waits.append(done[schedule[position + 1]].wait(timeout=30))
            with lock:
                in_flight["now"] -= 1
                finished.append(profile.name)
            done[profile.name].set()
            index = float(canonical.index(profile.name))
            return {
                "ipc": index,
                "l3_load_mpki": 0.0,
                "l2_instr_mpki": 0.0,
                "branch_mpki": 0.0,
            }

        monkeypatch.setattr(table1, "measure_profile", fake_measure)
        result = table1.run(tiny_preset())
        assert all(waits) and len(waits) == len(schedule) // 2
        assert finished != schedule
        assert set(started[-2:]) == shared
        assert in_flight["max"] == table1.RUNS_IN_FLIGHT == 2
        assert [row["workload"] for row in result.rows] == canonical
        assert [row["ipc"] for row in result.rows] == list(
            map(float, range(len(canonical)))
        )


class TestExperimentResultNotes:
    def test_notes_render(self):
        result = ExperimentResult("id", "title")
        result.note("first")
        result.note("second")
        text = result.render()
        assert text.count("note:") == 2

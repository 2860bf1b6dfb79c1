"""Tests for RPR101/RPR102/RPR103 (determinism): scope and detection."""

from repro.analysis import lint_source

SIM_MODULE = "repro.cachesim.fixture"


def rules(source, module=SIM_MODULE, select=("RPR1",)):
    return [v.rule for v in lint_source(source, module=module, select=select)]


class TestUnseededRngBad:
    def test_global_random_call(self):
        src = "import random\nx = random.random()\n"
        assert rules(src) == ["RPR101"]

    def test_global_random_via_alias(self):
        src = "import random as _random\n_random.shuffle(items)\n"
        assert rules(src) == ["RPR101"]

    def test_from_import(self):
        src = "from random import shuffle\nshuffle(items)\n"
        assert rules(src) == ["RPR101"]

    def test_numpy_legacy_global(self):
        src = "import numpy as np\nx = np.random.rand(10)\n"
        assert rules(src) == ["RPR101"]

    def test_global_seed_call(self):
        src = "import numpy as np\nnp.random.seed(42)\n"
        assert rules(src) == ["RPR101"]

    def test_unseeded_default_rng(self):
        src = "import numpy as np\nrng = np.random.default_rng()\n"
        assert rules(src) == ["RPR101"]

    def test_unseeded_random_instance(self):
        src = "import random\nrng = random.Random()\n"
        assert rules(src) == ["RPR101"]


class TestUnseededRngGood:
    def test_seeded_default_rng(self):
        src = "import numpy as np\nrng = np.random.default_rng(seed)\n"
        assert rules(src) == []

    def test_seeded_random_instance(self):
        src = "import random\nrng = random.Random(7)\n"
        assert rules(src) == []

    def test_generator_method_calls(self):
        src = (
            "import numpy as np\n"
            "rng = np.random.default_rng(0)\n"
            "x = rng.random(100)\n"
        )
        assert rules(src) == []

    def test_out_of_scope_module(self):
        src = "import random\nx = random.random()\n"
        assert rules(src, module="repro.experiments.fixture") == []

    def test_unrelated_name_not_resolved(self):
        # A local object that happens to be called ``random`` is not the
        # stdlib module.
        src = "x = random.random()\n"
        assert rules(src) == []


class TestWallClock:
    def test_bad_time_time(self):
        src = "import time\nt0 = time.time()\n"
        assert rules(src) == ["RPR102"]

    def test_bad_perf_counter_from_import(self):
        src = "from time import perf_counter\nt0 = perf_counter()\n"
        assert rules(src) == ["RPR102"]

    def test_bad_datetime_now(self):
        src = "from datetime import datetime\nstamp = datetime.now()\n"
        assert rules(src) == ["RPR102"]

    def test_good_sleep_is_not_a_clock_read(self):
        src = "import time\ntime.sleep(1)\n"
        assert rules(src) == []

    def test_good_out_of_scope(self):
        src = "import time\nt0 = time.time()\n"
        assert rules(src, module="repro.experiments.runner") == []


class TestSetIteration:
    def test_bad_for_over_set_call(self):
        assert rules("for seg in set(segments):\n    use(seg)\n") == ["RPR103"]

    def test_bad_for_over_set_literal(self):
        assert rules("for x in {1, 2, 3}:\n    use(x)\n") == ["RPR103"]

    def test_bad_comprehension_over_intersection(self):
        src = "out = [f(x) for x in a.intersection(b)]\n"
        assert rules(src) == ["RPR103"]

    def test_good_sorted_set(self):
        assert rules("for seg in sorted(set(segments)):\n    use(seg)\n") == []

    def test_good_list_iteration(self):
        assert rules("for seg in segments:\n    use(seg)\n") == []

    def test_good_dict_iteration(self):
        # Python dicts preserve insertion order; only sets are flagged.
        assert rules("for key in mapping:\n    use(key)\n") == []


class TestFastsimInScope:
    """RPR101-103 must cover the vectorized kernels, not just the loops.

    ``repro.cachesim.fastsim`` holds the hot kernels; a wall-clock read or
    ambient RNG sneaking in there would silently break their bit-identity
    with the per-access simulator.
    """

    def test_rpr101_fires_in_fastsim(self):
        src = "import random\nx = random.random()\n"
        assert rules(src, module="repro.cachesim.fastsim") == ["RPR101"]

    def test_rpr102_fires_in_fastsim(self):
        src = "import time\nt = time.time()\n"
        assert rules(src, module="repro.cachesim.fastsim") == ["RPR102"]

    def test_rpr103_fires_in_fastsim(self):
        src = "for x in {1, 2, 3}:\n    print(x)\n"
        assert rules(src, module="repro.cachesim.fastsim") == ["RPR103"]

    def test_fastsim_reads_no_clock(self):
        """The kernels carry no RPR102 waiver: nothing there reads a clock."""
        import pathlib

        source = pathlib.Path("src/repro/cachesim/fastsim.py").read_text()
        assert "noqa RPR102" not in source
        violations = rules(
            source, module="repro.cachesim.fastsim", select=("RPR102",)
        )
        assert violations == []

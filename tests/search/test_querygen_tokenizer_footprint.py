"""Tests for query generation, tokenization, and the footprint model."""

import pytest

from repro._units import GiB
from repro.errors import ConfigurationError
from repro.memtrace.trace import Segment
from repro.search.documents import Vocabulary
from repro.search.footprint import FootprintModel
from repro.search.querygen import QueryGenerator, QueryGeneratorConfig
from repro.search.tokenizer import terms_for_query, tokenize


class TestTokenizer:
    def test_lowercase_split(self):
        assert tokenize("Hello, World!") == ["hello", "world"]

    def test_drops_numbers_and_punct(self):
        assert tokenize("a1b2 c-d") == ["a", "b", "c", "d"]

    def test_empty(self):
        assert tokenize("") == []

    def test_terms_for_query(self):
        vocab = Vocabulary(100)
        word = vocab.word(7)
        assert terms_for_query(f"{word} unknownzz9", vocab) == [7]


class TestQueryGenerator:
    def test_query_lengths_bounded(self):
        config = QueryGeneratorConfig(max_terms=4, distinct_queries=200, seed=1)
        generator = QueryGenerator(config)
        for query in generator.generate(500):
            assert 1 <= len(query) <= 4

    def test_terms_in_vocabulary(self):
        config = QueryGeneratorConfig(vocabulary_size=100, distinct_queries=50)
        generator = QueryGenerator(config)
        for query in generator.generate(200):
            assert all(0 <= t < 100 for t in query)

    def test_repetition_structure(self):
        """Zipfian query popularity: far fewer distinct queries than draws."""
        generator = QueryGenerator(
            QueryGeneratorConfig(distinct_queries=1000, query_zipf=1.0, seed=2)
        )
        queries = [tuple(q) for q in generator.generate(5000)]
        assert len(set(queries)) < 1000

    def test_count_validated(self):
        with pytest.raises(ConfigurationError):
            QueryGenerator().generate(-1)

    def test_config_validated(self):
        with pytest.raises(ConfigurationError):
            QueryGeneratorConfig(mean_terms=10, max_terms=4)


class TestFootprintModel:
    def test_heap_dominates(self):
        """Figure 4: heap an order of magnitude above code and stack."""
        model = FootprintModel()
        for cores in (6, 16, 26, 36):
            assert model.heap(cores) > 5 * model.code(cores)
            assert model.heap(cores) > 5 * model.stack(cores)

    def test_heap_sublinear(self):
        model = FootprintModel()
        exponent = model.heap_scaling_exponent(6, 36)
        assert 0.0 < exponent < 0.7

    def test_stack_linear(self):
        model = FootprintModel()
        assert model.stack(36) == pytest.approx(6 * model.stack(6))

    def test_code_constant(self):
        model = FootprintModel()
        assert model.code(6) == model.code(36)

    def test_shard_huge_and_constant(self):
        model = FootprintModel()
        assert model.shard(6) == model.shard(36)
        assert model.shard(6) > 100 * GiB

    def test_segment_dispatch(self):
        model = FootprintModel()
        assert model.segment(Segment.HEAP, 16) == model.heap(16)
        assert model.segment(Segment.CODE, 16) == model.code(16)

    def test_figure4_magnitudes(self):
        """Calibration anchors: ~1.6 GiB at 6 cores, ~2.8 at 36."""
        model = FootprintModel()
        assert model.heap(6) / GiB == pytest.approx(1.6, abs=0.3)
        assert model.heap(36) / GiB == pytest.approx(2.8, abs=0.4)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            FootprintModel().heap(0)
        with pytest.raises(ConfigurationError):
            FootprintModel(heap_exponent=1.5)
        with pytest.raises(ConfigurationError):
            FootprintModel().heap_scaling_exponent(6, 6)

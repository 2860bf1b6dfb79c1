"""Tests for synthetic corpus generation."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.search.documents import Corpus, CorpusConfig, Vocabulary


@pytest.fixture(scope="module")
def corpus():
    return Corpus(CorpusConfig(num_documents=300, vocabulary_size=2000, seed=1))


class TestVocabulary:
    def test_word_deterministic(self):
        vocab = Vocabulary(1000)
        assert vocab.word(42) == vocab.word(42)

    def test_words_distinct(self):
        vocab = Vocabulary(5000)
        words = {vocab.word(i) for i in range(5000)}
        assert len(words) == 5000

    def test_roundtrip(self):
        vocab = Vocabulary(5000)
        for term_id in (0, 1, 17, 4999):
            assert vocab.term_id(vocab.word(term_id)) == term_id

    def test_oov_returns_none(self):
        vocab = Vocabulary(10)
        assert vocab.term_id("xyzzy!") is None
        assert vocab.term_id(vocab_word_beyond(vocab)) is None

    def test_out_of_range_word_rejected(self):
        vocab = Vocabulary(10)
        with pytest.raises(ConfigurationError):
            vocab.word(10)

    def test_pronounceable(self):
        vocab = Vocabulary(100)
        word = vocab.word(50)
        assert word.isalpha() and word.islower()


def vocab_word_beyond(vocab):
    big = Vocabulary(10_000_000)
    return big.word(9_999_999)


class TestCorpus:
    def test_size(self, corpus):
        assert len(corpus) == 300

    def test_documents_have_terms(self, corpus):
        for doc in corpus:
            assert doc.length >= corpus.config.min_doc_length
            assert doc.terms.max() < 2000

    def test_doc_ids_sequential(self, corpus):
        assert [d.doc_id for d in corpus] == list(range(300))

    def test_average_length(self, corpus):
        assert corpus.average_length == pytest.approx(
            corpus.config.mean_doc_length, rel=0.2
        )

    def test_zipfian_terms(self, corpus):
        all_terms = np.concatenate([d.terms for d in corpus])
        counts = np.bincount(all_terms, minlength=2000)
        # Rank-0 term dominates the median term.
        assert counts[0] > 10 * max(1, np.median(counts[counts > 0]))

    def test_text_rendering(self, corpus):
        text = corpus[0].text(corpus.vocabulary)
        assert len(text.split()) == corpus[0].length

    def test_deterministic_by_seed(self):
        a = Corpus(CorpusConfig(num_documents=10, seed=5))
        b = Corpus(CorpusConfig(num_documents=10, seed=5))
        assert (a[3].terms == b[3].terms).all()

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            CorpusConfig(num_documents=0)
        with pytest.raises(ConfigurationError):
            CorpusConfig(mean_doc_length=2, min_doc_length=5)

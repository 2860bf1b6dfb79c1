"""Synthetic corpus generation.

Documents are bags of term ids drawn from a Zipfian vocabulary — the
statistical backbone of real text that matters for index structure: a few
frequent terms with enormous posting lists and a long tail of rare terms.
A :class:`Vocabulary` can render term ids back to deterministic synthetic
words so the full text path (tokenize → index → query) is exercisable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.memtrace.sampling import ZipfSampler

_CONSONANTS = "bcdfghjklmnprstvwz"
_VOWELS = "aeiou"


class Vocabulary:
    """Deterministic bidirectional mapping between term ids and words."""

    def __init__(self, size: int) -> None:
        if size <= 0:
            raise ConfigurationError(f"vocabulary size must be positive: {size}")
        self.size = size
        self._word_cache: dict[int, str] = {}
        self._id_cache: dict[str, int] = {}

    def word(self, term_id: int) -> str:
        """Pronounceable synthetic word for a term id."""
        if not 0 <= term_id < self.size:
            raise ConfigurationError(
                f"term id {term_id} out of range [0, {self.size})"
            )
        cached = self._word_cache.get(term_id)
        if cached is not None:
            return cached
        # Base-(C*V) positional encoding gives distinct, stable words.
        n = term_id
        syllables = []
        while True:
            c = _CONSONANTS[n % len(_CONSONANTS)]
            n //= len(_CONSONANTS)
            v = _VOWELS[n % len(_VOWELS)]
            n //= len(_VOWELS)
            syllables.append(c + v)
            if n == 0:
                break
        word = "".join(syllables)
        self._word_cache[term_id] = word
        self._id_cache[word] = term_id
        return word

    def term_id(self, word: str) -> int | None:
        """Term id of a word, or None for out-of-vocabulary words."""
        if word in self._id_cache:
            return self._id_cache[word]
        # Invert the positional encoding without needing the cache.
        n = 0
        multiplier = 1
        if len(word) % 2:
            return None
        for i in range(0, len(word), 2):
            c, v = word[i], word[i + 1]
            ci = _CONSONANTS.find(c)
            vi = _VOWELS.find(v)
            if ci < 0 or vi < 0:
                return None
            n += (ci + vi * len(_CONSONANTS)) * multiplier
            multiplier *= len(_CONSONANTS) * len(_VOWELS)
        return n if 0 <= n < self.size else None


@dataclass(frozen=True)
class Document:
    """One document: an id and its term-id sequence."""

    doc_id: int
    terms: np.ndarray

    def __post_init__(self) -> None:
        if self.doc_id < 0:
            raise ConfigurationError("doc_id must be non-negative")

    @property
    def length(self) -> int:
        return len(self.terms)

    def text(self, vocabulary: Vocabulary) -> str:
        """Render the document as synthetic text."""
        return " ".join(vocabulary.word(int(t)) for t in self.terms)


@dataclass(frozen=True)
class CorpusConfig:
    """Shape of a synthetic corpus."""

    num_documents: int = 10_000
    vocabulary_size: int = 50_000
    term_zipf: float = 1.05
    mean_doc_length: int = 120
    min_doc_length: int = 8
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_documents <= 0:
            raise ConfigurationError("num_documents must be positive")
        if self.vocabulary_size <= 0:
            raise ConfigurationError("vocabulary_size must be positive")
        if self.min_doc_length < 1:
            raise ConfigurationError("min_doc_length must be >= 1")
        if self.mean_doc_length < self.min_doc_length:
            raise ConfigurationError(
                "mean_doc_length must be >= min_doc_length"
            )


class Corpus:
    """A generated document collection."""

    def __init__(self, config: CorpusConfig | None = None) -> None:
        self.config = config or CorpusConfig()
        cfg = self.config
        rng = np.random.default_rng(cfg.seed)
        sampler = ZipfSampler(cfg.vocabulary_size, cfg.term_zipf, rng)
        lengths = np.maximum(
            cfg.min_doc_length,
            rng.poisson(cfg.mean_doc_length, cfg.num_documents),
        )
        all_terms = sampler.sample(int(lengths.sum()))
        boundaries = np.concatenate(([0], np.cumsum(lengths)))
        self.vocabulary = Vocabulary(cfg.vocabulary_size)
        self._documents = [
            Document(doc_id=i, terms=all_terms[boundaries[i] : boundaries[i + 1]])
            for i in range(cfg.num_documents)
        ]

    def __len__(self) -> int:
        return len(self._documents)

    def __getitem__(self, doc_id: int) -> Document:
        return self._documents[doc_id]

    def __iter__(self):
        return iter(self._documents)

    @property
    def average_length(self) -> float:
        """Mean document length in terms (BM25's ``avgdl``)."""
        return float(np.mean([d.length for d in self._documents]))

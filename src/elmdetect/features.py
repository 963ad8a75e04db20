"""Central-route and peripheral-route feature extraction, plus scaling.

Central features read clean_text (the model's view of the message content);
peripheral features read raw_text, because capitalization and punctuation
cues are destroyed by cleaning.

A document's row is a tuple of ten floats in FEATURE_NAMES order: `central`
gives the first five and `peripheral` the last five.

Each `FeatureExtractor` computes a document's row and its subjectivity once
and keeps them, keyed weakly by the document, for as long as the document
lives; every (fold, variant) task of a run shares one extractor and so reads
the same values. An extractor with other lexicons keeps values of its own.
A document's bigram set depends on no lexicon and is kept by the document
itself.

The extractor also keeps the syllable count of each distinct clean-text
token it has seen, for as long as it lives, so each word's vowel groups are
counted once however often it recurs. Everything else of a row (sentiment
scores, casing, lexicon membership, the lowercase forms of raw-text tokens)
is computed per token, and every sum adds the same per-token values in
token order. Clean-text tokens are lowercase already and are looked up as
they are.
"""
from __future__ import annotations

import heapq
import weakref
from collections import Counter
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .corpus import Document
from .errors import ElmDetectError
from .textstats import (
    bundled_sentiment_lexicon,
    bundled_urgency_lexicon,
    count_sentences,
    count_syllables,
    tokenize,
)

# the first five are the central route, the last five the peripheral route
FEATURE_NAMES = (
    "flesch_kincaid_grade",
    "vocabulary_richness",
    "sentiment_polarity",
    "text_length",
    "avg_words_per_sentence",
    "exclamation_ratio",
    "question_ratio",
    "capitalization_ratio",
    "all_caps_count",
    "urgency_frequency",
)
TOP_BIGRAMS = 50  # bigram-presence columns of the combined variant


class FeatureExtractor:
    """Computes feature rows for documents with fixed lexicons, each
    document's `elm` row once."""

    def __init__(self, sentiment: Mapping[str, float] | None = None, urgency: Mapping[str, float] | None = None):
        self.sentiment = sentiment if sentiment is not None else bundled_sentiment_lexicon()
        self.urgency = urgency if urgency is not None else bundled_urgency_lexicon()
        # a value holds no reference to its document, so an entry goes with it
        self._rows: weakref.WeakKeyDictionary[Document, tuple[float, ...]] = weakref.WeakKeyDictionary()
        self._subjectivity: weakref.WeakKeyDictionary[Document, float] = weakref.WeakKeyDictionary()
        # clean token -> its count_syllables, for every clean token seen
        self._syllables: dict[str, int] = {}

    def central(self, doc: Document) -> tuple[float, ...]:
        """c1..c5, the message-content measures scrutinized under high
        elaboration, on clean_text; zero-token documents get all zeros."""
        tokens = doc.tokens
        words = len(tokens)
        if words == 0:
            return (0.0,) * 5
        sentences = count_sentences(doc.clean_text)
        distinct = set(tokens)
        syllables = self._syllables
        for t in distinct.difference(syllables):
            syllables[t] = count_syllables(t)
        sentiment = self.sentiment
        grade = 0.39 * (words / sentences) + 11.8 * (sum(map(syllables.__getitem__, tokens)) / words) - 15.59
        polarity = sum([sentiment.get(w, 0.0) for w in tokens]) / words
        return (grade, len(distinct) / words, polarity, float(words), words / sentences)

    def peripheral(self, doc: Document) -> tuple[float, ...]:
        """p1..p5, the surface cues that sway acceptance without deep
        processing, on raw_text; zero-token documents get all zeros."""
        raw = doc.raw_text
        tokens = tokenize(raw)
        n = len(tokens)
        if n == 0:
            return (0.0,) * 5
        capitalized = len([t for t in tokens if t[0].isupper()])
        all_caps = len([t for t in filter(str.isupper, tokens) if len(t) >= 2 and t.isalpha()])
        urgent = sum(map(self.urgency.__contains__, map(str.lower, tokens)))
        return (raw.count("!") / n, raw.count("?") / n, capitalized / n, float(all_caps), urgent / n)

    def elm(self, doc: Document) -> tuple[float, ...]:
        row = self._rows.get(doc)
        if row is None:
            row = self._rows[doc] = self.central(doc) + self.peripheral(doc)
        return row

    def matrix(self, docs: Sequence[Document]) -> np.ndarray:
        """(n_docs, 10) feature matrix in document order."""
        rows = [self.elm(d) for d in docs]
        return np.array(rows, dtype=np.float64).reshape(len(rows), len(FEATURE_NAMES))

    def subjectivity(self, doc: Document) -> float:
        """Fraction of clean-text tokens present in the sentiment lexicon,
        regardless of sign; computed once per document, like `elm`."""
        value = self._subjectivity.get(doc)
        if value is None:
            tokens = doc.tokens
            hits = sum(map(self.sentiment.__contains__, tokens))
            value = self._subjectivity[doc] = hits / len(tokens) if tokens else 0.0
        return value


@dataclass(frozen=True)
class FeatureScaler:
    """Per-feature min-max scaler fitted on training rows only.

    Transforms clamp to [0, 1], so out-of-range test rows cannot leak
    unbounded values into the sigmoid head. Constant features map to 0.
    """

    mins: np.ndarray
    maxs: np.ndarray

    @classmethod
    def fit(cls, rows: np.ndarray) -> "FeatureScaler":
        rows = np.asarray(rows, dtype=np.float64)
        if rows.size == 0 or rows.shape[0] == 0:
            raise ElmDetectError("cannot fit a scaler on zero rows")
        mins = rows.min(axis=0)
        maxs = rows.max(axis=0)
        constant = maxs <= mins
        maxs = np.where(constant, mins + 1.0, maxs)
        return cls(mins=mins, maxs=maxs)

    @property
    def n_features(self) -> int:
        return self.mins.shape[0]

    def transform(self, values: np.ndarray) -> np.ndarray:
        values = np.asarray(values, dtype=np.float64)
        scaled = (values - self.mins) / (self.maxs - self.mins)
        return np.clip(scaled, 0.0, 1.0)


@dataclass(frozen=True)
class ExtendedFeaturizer:
    """Extra engineered features for the combined variant: presence of the
    top training-fold bigrams (by document frequency) plus a subjectivity
    score from the extractor the caller passes. Fitted on training rows
    only."""

    bigrams: tuple[tuple[str, str], ...]

    @classmethod
    def fit(cls, docs: Sequence[Document]) -> "ExtendedFeaturizer":
        if not docs:
            raise ElmDetectError("cannot fit bigram features on zero documents")
        doc_freq: Counter = Counter()
        for doc in docs:
            doc_freq.update(doc.bigrams)
        # the first TOP_BIGRAMS of the (frequency desc, bigram) order, without sorting the rest
        ranked = heapq.nsmallest(TOP_BIGRAMS, doc_freq.items(), key=lambda kv: (-kv[1], kv[0]))
        top = tuple(bg for bg, _ in ranked)
        return cls(bigrams=top)

    @property
    def n_features(self) -> int:
        return len(self.bigrams) + 1

    def matrix(self, docs: Sequence[Document], extractor: FeatureExtractor) -> np.ndarray:
        """(n_docs, n_features) matrix in document order."""
        rows = [[bg in d.bigrams for bg in self.bigrams] + [extractor.subjectivity(d)] for d in docs]
        return np.array(rows, dtype=np.float64).reshape(len(rows), self.n_features)

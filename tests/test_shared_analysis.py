"""What a run computes once per document: its clean-text tokens and bigram
set and, per feature extractor, its ten-feature row and subjectivity. All
live as long as the document."""
import csv
import gc
import sys
from collections import Counter

import numpy as np

from elmdetect import features, textstats
from elmdetect.corpus import load_dataset, stratified_folds
from elmdetect.evaluation import cross_validate
from elmdetect.features import ExtendedFeaturizer, FeatureExtractor
from elmdetect.textstats import tokenize
from elmdetect.training import VARIANTS, TrainConfig

from synthetic import make_doc, planted_token_corpus


def count_tokenize_calls(monkeypatch) -> list[str]:
    """Route every elmdetect module's `tokenize` through a recorder; returns
    the list the tokenised texts are appended to."""
    texts: list[str] = []
    real = textstats.tokenize

    def recording(text):
        texts.append(text)
        return real(text)

    for name, module in list(sys.modules.items()):
        if name.startswith("elmdetect") and getattr(module, "tokenize", None) is real:
            monkeypatch.setattr(module, "tokenize", recording)
    return texts


def test_document_tokens_are_the_clean_text_tokens_made_once(monkeypatch):
    doc = make_doc("Stay HOME, stay safe!!", 1)
    texts = count_tokenize_calls(monkeypatch)
    assert doc.tokens == tokenize(doc.clean_text) == ("stay", "home", "stay", "safe")
    assert doc.tokens is doc.tokens
    assert texts == [doc.clean_text]


def test_cross_validate_tokenises_each_document_at_most_twice(monkeypatch):
    corpus = planted_token_corpus(n=30, seed=3)
    plan = stratified_folds(corpus, 3, seed=3)
    configs = [TrainConfig(variant=v, epochs=1, batch_size=16, max_seq_len=16, progress=False) for v in VARIANTS]
    texts = count_tokenize_calls(monkeypatch)
    results = cross_validate(corpus, plan, configs)
    assert len(results) == 3 * len(VARIANTS)
    assert len(texts) <= 2 * len(corpus)
    assert set(texts) <= {d.clean_text for d in corpus} | {d.raw_text for d in corpus}


class CountingEntries(dict):
    """A lexicon that counts its membership tests."""

    lookups = 0

    def __contains__(self, word):
        self.lookups += 1
        return super().__contains__(word)


def test_bigram_sets_and_subjectivity_are_made_once_per_document(monkeypatch):
    doc = make_doc("Stay HOME, stay safe!!", 1)
    assert doc.bigrams == {("stay", "home"), ("home", "stay"), ("stay", "safe")}
    assert doc.bigrams is doc.bigrams
    corpus = planted_token_corpus(n=30, seed=4)
    docs = list(corpus)
    entries = CountingEntries(FeatureExtractor().sentiment)
    extractor = FeatureExtractor(sentiment=entries)
    rows_of: Counter = Counter()  # id of a document -> calls of `central` on it
    syllables_of: Counter = Counter()  # clean token -> calls of `count_syllables` on it
    central, count_syllables = FeatureExtractor.central, features.count_syllables

    def counting_central(self, doc):
        rows_of[id(doc)] += 1
        return central(self, doc)

    def counting_syllables(word):
        syllables_of[word] += 1
        return count_syllables(word)

    monkeypatch.setattr(FeatureExtractor, "central", counting_central)
    monkeypatch.setattr(features, "count_syllables", counting_syllables)
    plan = stratified_folds(corpus, 3, seed=4)
    for fold in range(3):  # fit and score as the combined variant does in each fold
        train_docs = [docs[i] for i in plan.train_indices(fold)]
        test_docs = [docs[i] for i in plan.test_indices(fold)]
        extended = ExtendedFeaturizer.fit(train_docs)
        for part in (train_docs, test_docs):
            extractor.matrix(part)
            extended.matrix(part, extractor)
    # over all folds: one row per document, one syllable count per distinct word,
    # and one membership test per token for the document's subjectivity
    assert rows_of == Counter({id(d): 1 for d in docs})
    assert syllables_of == Counter({t: 1 for d in docs for t in d.tokens})
    assert entries.lookups == sum(len(d.tokens) for d in docs)


def test_rows_are_kept_per_lexicon_pair():
    docs = [make_doc("Good news today!", 0), make_doc("Bad news today?", 1)]
    bundled = FeatureExtractor()
    before = bundled.matrix(docs)
    flipped = {w: -s for w, s in bundled.sentiment.items()}
    rows = FeatureExtractor(sentiment=flipped).matrix(docs)
    polarity = 2
    assert before[0, polarity] > 0 > before[1, polarity]
    np.testing.assert_array_equal(rows[:, polarity], -before[:, polarity])
    np.testing.assert_array_equal(np.delete(rows, polarity, axis=1), np.delete(before, polarity, axis=1))
    np.testing.assert_array_equal(bundled.matrix(docs), before)


WARM_WORDS = ("Now", "NOW", "now", "don't", "Don't", "DON'T", "good", "Good", "bad", "URGENT", "act", "Act", "today")


def warm_extractor(n=200) -> FeatureExtractor:
    """An extractor that has analysed n documents built from WARM_WORDS in
    every casing, their rows and subjectivity included."""
    extractor = FeatureExtractor()
    rng = np.random.default_rng(11)
    docs = [
        make_doc(" ".join(rng.choice(WARM_WORDS, size=int(rng.integers(1, 12)))) + rng.choice([".", "!!", "?", ""]))
        for _ in range(n)
    ]
    extractor.matrix(docs)
    for doc in docs:
        extractor.subjectivity(doc)
    return extractor


def test_a_warm_extractor_gives_a_fresh_ones_rows_bit_for_bit():
    warm = warm_extractor()
    docs = [
        make_doc("NOW is the time. Act now, don't wait!!", 1),
        make_doc("now Now NOW... good? Don't!", 1),
        make_doc("Bad news today: DON'T act", 0),
        make_doc("Nothing here repeats a warm word", 0),
        make_doc("!!!", 0),
    ]
    fresh = FeatureExtractor()
    rows = fresh.matrix(docs)
    assert rows.shape == (len(docs), 10)
    np.testing.assert_array_equal(warm.matrix(docs), rows)
    assert [warm.subjectivity(d) for d in docs] == [fresh.subjectivity(d) for d in docs]
    # the words of the new documents were analysed before, by another document
    assert {t for d in docs for t in d.tokens} & set(warm._syllables)


def test_rows_are_freed_with_their_documents():
    extractor = warm_extractor()
    docs = [make_doc(f"report number {i} is out!") for i in range(5)]
    extractor.matrix(docs)
    for doc in docs:
        extractor.subjectivity(doc)
    assert len(extractor._rows) == len(extractor._subjectivity) == len(docs)
    del docs, doc
    gc.collect()
    assert len(extractor._rows) == len(extractor._subjectivity) == 0


def test_each_load_of_the_same_file_tokenises_again(tmp_path, monkeypatch):
    paths = []
    for name, texts in (("true.csv", ["Masks work.", "Wash hands"]), ("fake.csv", ["MIRACLE cure!!"])):
        with open(tmp_path / name, "w", encoding="utf-8", newline="") as fh:
            csv.writer(fh).writerows([["text"], *[[t] for t in texts]])
        paths.append(tmp_path / name)
    texts = count_tokenize_calls(monkeypatch)
    first, second = load_dataset(*paths), load_dataset(*paths)
    expected = [("masks", "work"), ("wash", "hands"), ("miracle", "cure")]
    assert [d.tokens for d in first] == [d.tokens for d in second] == expected
    assert len(texts) == 2 * len(first)
    # made afresh, not handed back by a cache keyed by the text
    assert all(a.tokens is not b.tokens for a, b in zip(first, second))

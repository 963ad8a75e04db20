"""The synthetic corpora carry their signal where their docstrings say."""
import pytest

from elmdetect.corpus import stratified_folds
from elmdetect.evaluation import cross_validate, roc_auc
from elmdetect.features import FEATURE_NAMES, FeatureExtractor
from elmdetect.training import TrainConfig

from synthetic import central_signal_corpus

PERIPHERAL = FEATURE_NAMES[5:]


def single_feature_aucs(corpus) -> dict[str, float]:
    """Each feature's AUC as a score for the fake class, over the corpus."""
    docs = list(corpus)
    rows = FeatureExtractor().matrix(docs)
    labels = [d.label for d in docs]
    return {name: roc_auc(rows[:, j].tolist(), labels) for j, name in enumerate(FEATURE_NAMES)}


class TestCentralSignalCorpus:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_tokens_are_the_text_without_its_full_stops(self, seed):
        for doc in central_signal_corpus(300, seed):
            assert doc.tokens == tuple(doc.raw_text.replace(".", "").lower().split())
            assert [c for c in doc.raw_text if c.isupper()] == [doc.raw_text[0]]

    @pytest.mark.parametrize("seed", [0, 1])
    def test_words_per_sentence_alone_separates_the_classes(self, seed):
        assert single_feature_aucs(central_signal_corpus(300, seed))["avg_words_per_sentence"] >= 0.99

    @pytest.mark.parametrize("seed", [0, 1])
    def test_no_peripheral_feature_sees_the_label(self, seed):
        """Over seeds 0-49 at n=300, capitalization_ratio's AUC spans
        0.407-0.598 and the other four peripheral features' are 0.5."""
        aucs = single_feature_aucs(central_signal_corpus(300, seed))
        assert all(0.4 <= aucs[name] <= 0.6 for name in PERIPHERAL), aucs

    @pytest.mark.parametrize("seed", [0, 1])
    def test_features_only_separates_the_classes_out_of_fold(self, seed):
        corpus = central_signal_corpus(300, seed)
        config = TrainConfig(
            variant="features_only", epochs=10, learning_rate=0.01, early_stop_patience=0, seed=42, progress=False
        )
        results = cross_validate(corpus, stratified_folds(corpus, 5, 42), [config])
        pooled = roc_auc([s for r in results for s in r.scores], [y for r in results for y in r.labels])
        assert pooled >= 0.99

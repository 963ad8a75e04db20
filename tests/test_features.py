import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elmdetect import features
from elmdetect.errors import ElmDetectError
from elmdetect.features import (
    FEATURE_NAMES,
    ExtendedFeaturizer,
    FeatureExtractor,
    FeatureScaler,
)
from elmdetect.textstats import bundled_sentiment_lexicon, bundled_urgency_lexicon

from oracles import oracle_elm
from synthetic import make_doc

WORD_POOL = (
    "the a cat sat on mat health vaccine miracle cure covid virus breaking "
    "urgent now act warning good bad terrible wonderful I it they because "
    "delicious science study report data"
).split()


def central(raw: str, extractor: FeatureExtractor | None = None) -> dict:
    """The central-route features of a document of raw, by name."""
    return dict(zip(FEATURE_NAMES[:5], (extractor or FeatureExtractor()).central(make_doc(raw))))


def peripheral(raw: str) -> dict:
    """The peripheral-route features of a document of raw, by name."""
    return dict(zip(FEATURE_NAMES[5:], FeatureExtractor().peripheral(make_doc(raw))))


def random_text(rng: np.random.Generator) -> str:
    """Messy realistic text: casing, punctuation, urls, digits, unicode."""
    parts = []
    for _ in range(int(rng.integers(0, 14))):
        roll = rng.random()
        word = str(rng.choice(WORD_POOL))
        if roll < 0.15:
            word = word.upper()
        elif roll < 0.35:
            word = word.capitalize()
        if rng.random() < 0.1:
            word += str(rng.integers(0, 99))
        parts.append(word)
        if rng.random() < 0.25:
            parts.append(str(rng.choice(["!", "?", ".", "!!", "?!", ",", ";", "..."])))
        if rng.random() < 0.06:
            parts.append(str(rng.choice(["https://x.co/ab", "www.info.org", "#tag", "@user"])))
        if rng.random() < 0.05:
            parts.append("café")
    sep = "  " if rng.random() < 0.2 else " "
    return sep.join(parts)


EDGE_CASES = [
    "",
    "   ",
    "!!!",
    "???",
    "...",
    "a",
    "A",
    "I",
    "don't",
    "DON'T STOP NOW!",
    "https://only.url/here",
    "www.bare.example",
    "Act NOW!",
    "The cat sat.",
    "now",
    "good good good",
    "19 covid 19",
    "tabs\tand\nnewlines here",
    "''",
    "BREAKING: Cure found!! Doctors HATE it? Act now at www.scam.co!!!",
]


class TestOracleEquivalence:
    def assert_matches_oracle(self, raw):
        doc = make_doc(raw, label=0)
        got = FeatureExtractor().elm(doc)
        expected = oracle_elm(
            doc,
            dict(bundled_sentiment_lexicon()),
            set(bundled_urgency_lexicon()),
        )
        for name, g, e in zip(FEATURE_NAMES, got, expected):
            if name in ("text_length", "all_caps_count"):
                assert g == e, f"{name} on {raw!r}: {g} != {e}"
            else:
                assert abs(g - e) <= 1e-12, f"{name} on {raw!r}: {g} != {e}"

    @pytest.mark.parametrize("raw", EDGE_CASES)
    def test_edge_cases(self, raw):
        self.assert_matches_oracle(raw)

    def test_hundred_random_strings(self):
        rng = np.random.default_rng(2024)
        for _ in range(100):
            self.assert_matches_oracle(random_text(rng))


class TestCentralFeatures:
    def test_the_cat_sat(self):
        cv = central("The cat sat.")
        assert abs(cv["flesch_kincaid_grade"] - (-2.62)) < 1e-9
        assert cv["vocabulary_richness"] == 1.0
        assert cv["text_length"] == 3
        assert cv["avg_words_per_sentence"] == 3.0

    def test_empty_document_is_all_zero(self):
        assert FeatureExtractor().central(make_doc("")) == (0.0, 0.0, 0.0, 0.0, 0.0)

    def test_repeated_word_polarity_and_richness(self):
        extractor = FeatureExtractor(sentiment={"good": 0.7})
        cv = central("good good good", extractor)
        assert abs(cv["sentiment_polarity"] - 0.7) < 1e-12
        assert abs(cv["vocabulary_richness"] - 1 / 3) < 1e-12

    def test_unknown_words_contribute_zero(self):
        extractor = FeatureExtractor(sentiment={"good": 1.0})
        cv = central("good unknown", extractor)
        assert abs(cv["sentiment_polarity"] - 0.5) < 1e-12  # (1.0 + 0) / 2


class TestPeripheralFeatures:
    def test_breaking_cure(self):
        pv = peripheral("BREAKING: Cure found!!")
        assert abs(pv["exclamation_ratio"] - 2 / 3) < 1e-12
        assert abs(pv["capitalization_ratio"] - 2 / 3) < 1e-12
        assert pv["all_caps_count"] == 1

    def test_no_cues(self):
        assert FeatureExtractor().peripheral(make_doc("no signals here")) == (0.0, 0.0, 0.0, 0.0, 0.0)

    def test_act_now_urgency(self):
        pv = peripheral("Act NOW!")
        assert pv["urgency_frequency"] == 1.0
        assert pv["exclamation_ratio"] == 0.5
        assert pv["all_caps_count"] == 1

    def test_reads_raw_text_not_clean(self):
        doc = make_doc("SHOUTING LOUDLY!")
        assert doc.clean_text == "shouting loudly!"
        assert peripheral("SHOUTING LOUDLY!")["all_caps_count"] == 2

    def test_appending_bang_never_decreases_p1(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            raw = random_text(rng)
            assert peripheral(raw + "!")["exclamation_ratio"] >= peripheral(raw)["exclamation_ratio"]


class TestElmVector:
    def test_length_and_order(self):
        doc = make_doc("The cat sat.")
        v = FeatureExtractor().elm(doc)
        assert len(v) == 10
        assert v[:5] == FeatureExtractor().central(doc)
        assert v[5:] == FeatureExtractor().peripheral(doc)
        assert all(type(x) is float for x in v)

    def test_zero_token_doc_gives_ten_zeros(self):
        assert FeatureExtractor().elm(make_doc("@#$")) == (0.0,) * 10

    def test_deterministic(self):
        doc = make_doc("Same doc! Same features?")
        assert FeatureExtractor().elm(doc) == FeatureExtractor().elm(doc)

    def test_matrix_of_no_documents_has_ten_columns(self):
        rows = FeatureExtractor().matrix([])
        assert rows.shape == (0, len(FEATURE_NAMES))
        assert rows.dtype == np.float64

    @given(st.text(max_size=120))
    @settings(max_examples=200, deadline=None)
    def test_ranges_and_finiteness_fuzz(self, raw):
        v = np.array(FeatureExtractor().elm(make_doc(raw)))
        assert np.all(np.isfinite(v))
        named = dict(zip(FEATURE_NAMES, v))
        assert 0.0 <= named["vocabulary_richness"] <= 1.0
        assert -1.0 <= named["sentiment_polarity"] <= 1.0
        assert 0.0 <= named["capitalization_ratio"] <= 1.0
        assert 0.0 <= named["urgency_frequency"] <= 1.0
        assert named["text_length"] >= 0
        assert named["exclamation_ratio"] >= 0
        assert named["question_ratio"] >= 0
        assert named["all_caps_count"] >= 0


class TestFeatureScaler:
    def test_endpoints(self):
        rows = np.array([[0.0] * 10, [1.0] * 10])
        scaler = FeatureScaler.fit(rows)
        assert scaler.transform(rows).tolist() == rows.tolist()

    def test_constant_feature_maps_to_zero(self):
        rows = np.full((2, 10), 5.0)
        scaler = FeatureScaler.fit(rows)
        assert scaler.transform(rows[0]).tolist() == [0.0] * 10

    def test_midpoint_and_clamping(self):
        scaler = FeatureScaler(mins=np.zeros(1), maxs=np.array([10.0]))
        assert scaler.transform(np.array([5.0]))[0] == 0.5
        assert scaler.transform(np.array([-3.0]))[0] == 0.0
        assert scaler.transform(np.array([10.0]))[0] == 1.0
        assert scaler.transform(np.array([25.0]))[0] == 1.0

    def test_training_rows_land_in_unit_interval(self):
        rng = np.random.default_rng(0)
        rows = rng.normal(size=(30, 10)) * 40
        scaler = FeatureScaler.fit(rows)
        out = scaler.transform(rows)
        assert out.min() >= 0.0 and out.max() <= 1.0

    def test_empty_rows_rejected(self):
        with pytest.raises(ElmDetectError, match="cannot fit a scaler on zero rows"):
            FeatureScaler.fit(np.zeros((0, 10)))
        with pytest.raises(ElmDetectError, match="cannot fit a scaler on zero rows"):
            FeatureScaler.fit([])


class TestExtendedFeaturizer:
    def docs(self):
        return [
            make_doc("miracle cure found today", 1, doc_id="a"),
            make_doc("miracle cure again found", 1, doc_id="b"),
            make_doc("health officials report data", 0, doc_id="c"),
            make_doc("officials report new data", 0, doc_id="d"),
        ]

    def test_top_bigrams_by_document_frequency(self, monkeypatch):
        monkeypatch.setattr(features, "TOP_BIGRAMS", 3)
        ext = ExtendedFeaturizer.fit(self.docs())
        assert ext.bigrams[0] in (("miracle", "cure"), ("officials", "report"))
        assert len(ext.bigrams) == 3
        assert ext.n_features == 4

    def test_presence_vector_and_subjectivity_range(self):
        ext = ExtendedFeaturizer.fit(self.docs())
        v = ext.matrix([self.docs()[0]], FeatureExtractor())[0]
        assert set(v[:-1]) <= {0.0, 1.0}
        assert 0.0 <= v[-1] <= 1.0

    def test_deterministic_tie_break(self):
        a = ExtendedFeaturizer.fit(self.docs())
        b = ExtendedFeaturizer.fit(self.docs())
        assert a.bigrams == b.bigrams

    def test_subjectivity_counts_lexicon_membership_only(self):
        extractor = FeatureExtractor(sentiment={"good": 0.5, "bad": -0.5})
        doc = make_doc("good bad neutral")
        assert abs(extractor.subjectivity(doc) - 2 / 3) < 1e-12

    def test_matrix_of_no_documents_has_every_column(self):
        ext = ExtendedFeaturizer.fit(self.docs())
        rows = ext.matrix([], FeatureExtractor())
        assert rows.shape == (0, ext.n_features)
        assert rows.dtype == np.float64

    def test_empty_fit_rejected(self):
        with pytest.raises(ElmDetectError, match="cannot fit bigram features on zero documents"):
            ExtendedFeaturizer.fit([])

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elmdetect.corpus import clean_text
from elmdetect.errors import ElmDetectError
from elmdetect.features import FEATURE_NAMES, FeatureExtractor
from elmdetect.textstats import (
    bundled_sentiment_lexicon,
    bundled_urgency_lexicon,
    count_sentences,
    count_syllables,
    load_lexicon,
    tokenize,
)

from oracles import oracle_sentences, oracle_syllables, oracle_tokens
from synthetic import make_doc


class TestTokenize:
    def test_contractions_stay_single_tokens(self):
        assert list(tokenize("Vaccines don't work!!")) == ["Vaccines", "don't", "work"]

    def test_empty(self):
        assert list(tokenize("")) == []

    def test_whitespace_only(self):
        assert list(tokenize("   ")) == []

    def test_casing_preserved(self):
        assert list(tokenize("BREAKING News")) == ["BREAKING", "News"]

    def test_underscore_splits(self):
        assert list(tokenize("a_b")) == ["a", "b"]
        assert list(tokenize("__x__y'z_ _")) == ["x", "y'z"]

    # "_" separates tokens; the rest are letters and digits outside ASCII
    @given(st.text(alphabet=st.sampled_from("ab c.!?'129 -XY_éßİǅ٣"), max_size=60))
    @settings(max_examples=300, deadline=None)
    def test_matches_character_scan(self, s):
        assert list(tokenize(s)) == oracle_tokens(s)

    @given(
        st.text(alphabet=st.sampled_from("abc XY12.'!_éßİǅ٣"), max_size=30),
        st.text(alphabet=st.sampled_from("abc XY12.'!_éßİǅ٣"), max_size=30),
    )
    @settings(max_examples=200, deadline=None)
    def test_token_count_additive_over_space_join(self, a, b):
        assert len(tokenize(a + " " + b)) == len(tokenize(a)) + len(tokenize(b))


class TestSplitSentences:
    """`count_sentences` counts the sentences `oracle_sentences` splits a
    text into."""

    def test_basic(self):
        assert count_sentences("Stay home. Stay safe!") == 2

    def test_unterminated_tail(self):
        assert count_sentences("no punctuation here") == 1

    def test_terminator_runs_collapse(self):
        assert count_sentences("Wait... what?!") == 2

    def test_punctuation_only_segments_dropped(self):
        assert count_sentences("...") == 0
        assert count_sentences("Stop. ... Go.") == 2

    def test_at_least_one_sentence_when_tokens_exist(self):
        for s in ("word", "word.", "a b c", "x!"):
            assert len(tokenize(s)) >= 1
            assert count_sentences(s) >= 1

    @given(st.text(alphabet=st.sampled_from("ab c.!?XY'"), max_size=80))
    @settings(max_examples=200, deadline=None)
    def test_matches_character_scan(self, s):
        assert count_sentences(s) == len(oracle_sentences(s))

    # "_" separates tokens, "'" is one, and "É" and "1" are token characters
    # outside [a-z]; newlines and tabs are whitespace like " "
    @given(st.text(alphabet=st.sampled_from("ab_' .!?\n\tÉ1"), max_size=80))
    @settings(max_examples=300, deadline=None)
    def test_count_matches_character_scan_over_separators(self, s):
        assert count_sentences(s) == len(oracle_sentences(s))

    @given(st.text(alphabet=st.sampled_from("ab c.!?"), max_size=80))
    @settings(max_examples=200, deadline=None)
    def test_sentence_exists_whenever_token_exists(self, s):
        if len(tokenize(s)) >= 1:
            assert count_sentences(s) >= 1


class TestCountSyllables:
    @pytest.mark.parametrize(
        "word,expected",
        [
            ("cat", 1),
            ("because", 2),
            ("a", 1),
            ("the", 1),
            ("cake", 1),
            ("hotel", 2),
            ("beautiful", 3),
            ("dog", 1),
            ("quickly", 2),
            ("virus", 2),
            ("corona", 3),
            ("misinformation", 5),
            ("bee", 1),
            ("rhythm", 1),
            ("zzz", 1),
            ("19", 1),
            ("don't", 1),
        ],
    )
    def test_hand_counted_words(self, word, expected):
        assert count_syllables(word) == expected

    @given(st.text(alphabet=st.sampled_from("abcdefghijklmnopqrstuvwxyz'"), min_size=1, max_size=15))
    @settings(max_examples=300, deadline=None)
    def test_at_least_one_and_matches_scan(self, word):
        n = count_syllables(word)
        assert n >= 1
        assert n == oracle_syllables(word)


def test_tokens_of_clean_text_carry_no_terminators():
    for raw in ("Hello there! How? Now...", "A.B.C!", "keep!it?together."):
        for token in tokenize(clean_text(raw)):
            assert not set(token) & set(".!?")


class TestLexicon:
    def test_load_with_scores(self, tmp_path):
        path = tmp_path / "lex.tsv"
        path.write_text("GOOD\t0.7\nbad\t-0.7\n", encoding="utf-8")
        lex = load_lexicon(path)
        assert len(lex) == 2
        assert lex["good"] == 0.7

    def test_scoreless_words_default_to_one(self, tmp_path):
        path = tmp_path / "lex.tsv"
        path.write_text("urgent\nnow\n", encoding="utf-8")
        lex = load_lexicon(path)
        assert len(lex) == 2
        assert lex["urgent"] == 1.0

    def test_comments_blank_lines_and_duplicates(self, tmp_path):
        path = tmp_path / "lex.tsv"
        path.write_text("# c\n\nword\t0.1\nword\t0.9\n", encoding="utf-8")
        lex = load_lexicon(path)
        assert lex["word"] == 0.9

    def test_malformed_line_reports_number(self, tmp_path):
        path = tmp_path / "lex.tsv"
        path.write_text("ok\t1.0\nbad\tnotanumber\n", encoding="utf-8")
        with pytest.raises(ElmDetectError, match="lex.tsv:2: not a number"):
            load_lexicon(path)

    @pytest.mark.parametrize(
        "line, message",
        [
            ("good\tnan", "not a finite number: 'nan'"),
            ("good\tinf", "not a finite number: 'inf'"),
            ("good\t-inf", "not a finite number: '-inf'"),
            ("\t0.5", "empty word"),
        ],
    )
    def test_non_finite_score_or_empty_word_reports_number(self, tmp_path, line, message):
        path = tmp_path / "lex.tsv"
        path.write_text(f"ok\t1.0\n{line}\n", encoding="utf-8")
        with pytest.raises(ElmDetectError, match=re.escape(f"lex.tsv:2: {message}")):
            load_lexicon(path)

    def test_line_indented_with_spaces_loads(self, tmp_path):
        path = tmp_path / "lex.tsv"
        path.write_text("  good\t0.5\n", encoding="utf-8")
        assert load_lexicon(path) == {"good": 0.5}

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_lexicon(tmp_path / "absent.tsv")

    def test_byte_order_mark_is_skipped(self, tmp_path):
        path = tmp_path / "lex.tsv"
        path.write_text("good\t0.7\n", encoding="utf-8-sig")
        assert path.read_bytes().startswith(b"\xef\xbb\xbf")
        lex = load_lexicon(path)
        assert lex == {"good": 0.7}
        polarity = FeatureExtractor(sentiment=lex).elm(make_doc("good news"))[FEATURE_NAMES.index("sentiment_polarity")]
        assert polarity == 0.35


class TestBundledLexicons:
    def test_sentiment_size_and_range(self):
        lex = bundled_sentiment_lexicon()
        assert len(lex) >= 1800
        assert all(-1.0 <= s <= 1.0 for s in lex.values())
        assert lex["good"] > 0
        assert lex["bad"] < 0
        assert "qwzzk" not in lex

    def test_bundled_lexicons_are_shared_and_read_only(self):
        for load in (bundled_sentiment_lexicon, bundled_urgency_lexicon):
            assert load() is load()
            with pytest.raises(TypeError):
                load()["good"] = 0.0

    def test_urgency_default_terms(self):
        lex = bundled_urgency_lexicon()
        expected = {
            "urgent", "urgently", "now", "immediately", "breaking", "warning",
            "alert", "hurry", "act", "emergency", "deadline", "must", "critical",
            "danger", "quick", "instantly",
        }
        assert set(lex) == expected
        assert all(s == 1.0 for s in lex.values())

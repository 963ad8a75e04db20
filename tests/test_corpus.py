import csv
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elmdetect.corpus import (
    Document,
    DocumentSet,
    clean_text,
    load_dataset,
    stratified_folds,
)
from elmdetect.errors import ElmDetectError

from oracles import oracle_clean
from synthetic import make_doc


def write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return path


@pytest.fixture
def dataset(tmp_path):
    true_path = write_csv(
        tmp_path / "trueNews.csv",
        ["Text", "Date", "Region"],
        [
            ["Vaccines are safe, studies show.", "2021-01-01", "EU"],
            ["Masks reduce spread. See https://who.int/info", "2021-01-02", "US"],
        ],
    )
    fake_path = write_csv(
        tmp_path / "fakeNews.csv",
        ["Id", "text", "Date", "Region", "Country", "Explanation"],
        [
            ["1", "MIRACLE cure found!!", "2021-01-01", "EU", "DE", "debunked"],
            ["2", "   ", "2021-01-02", "US", "US", "empty row"],
            ["3", "Garlic cures covid?", "2021-01-03", "ZA", "ZA", "debunked"],
        ],
    )
    return true_path, fake_path


class TestLoadDataset:
    def test_labels_by_origin_and_counts(self, dataset):
        ds = load_dataset(*dataset)
        assert len(ds) == 4
        assert ds.class_counts == (2, 2)
        assert [d.label for d in ds] == [0, 0, 1, 1]
        assert ds.dropped_rows == 1

    def test_text_column_found_case_insensitively(self, dataset):
        ds = load_dataset(*dataset)
        assert ds[0].raw_text.startswith("Vaccines")
        assert ds[2].raw_text.startswith("MIRACLE")

    def test_raw_text_preserved_clean_text_normalized(self, dataset):
        ds = load_dataset(*dataset)
        assert ds[2].raw_text == "MIRACLE cure found!!"
        assert ds[2].clean_text == "miracle cure found!!"
        assert "https" not in ds[1].clean_text

    def test_single_row_files(self, tmp_path):
        t = write_csv(tmp_path / "t.csv", ["text"], [["A"]])
        f = write_csv(tmp_path / "f.csv", ["text"], [["B"]])
        ds = load_dataset(t, f)
        assert [d.label for d in ds] == [0, 1]
        assert [d.id for d in ds] == ["true_news:0", "fake_news:0"]

    def test_missing_file(self, tmp_path, dataset):
        with pytest.raises(FileNotFoundError):
            load_dataset(tmp_path / "absent.csv", dataset[1])

    def test_missing_text_column(self, tmp_path, dataset):
        bad = write_csv(tmp_path / "bad.csv", ["headline", "date"], [["x", "y"]])
        with pytest.raises(ElmDetectError, match="no 'text' column in header"):
            load_dataset(bad, dataset[1])

    def test_empty_file(self, tmp_path, dataset):
        empty = tmp_path / "empty.csv"
        empty.write_text("", encoding="utf-8")
        with pytest.raises(ElmDetectError, match="empty.csv: file is empty"):
            load_dataset(empty, dataset[1])

    def test_wrong_column_count_reports_row(self, tmp_path, dataset):
        bad = tmp_path / "ragged.csv"
        bad.write_text("text,date\nok,2021\nonlyonefield\n", encoding="utf-8")
        with pytest.raises(ElmDetectError, match="row 2: expected 2 columns, got 1"):
            load_dataset(bad, dataset[1])

    def test_unclosed_quote(self, tmp_path, dataset):
        bad = tmp_path / "quote.csv"
        bad.write_text('text,date\n"unclosed,2021\n', encoding="utf-8")
        with pytest.raises(ElmDetectError, match="row 1: unexpected end of data"):
            load_dataset(bad, dataset[1])

    def test_quoted_fields_with_commas_and_newlines(self, tmp_path):
        t = tmp_path / "t.csv"
        t.write_text('text,date\n"hello, world\nsecond line",2021\n', encoding="utf-8")
        f = write_csv(tmp_path / "f.csv", ["text"], [["B"]])
        ds = load_dataset(t, f)
        assert ds[0].raw_text == "hello, world\nsecond line"


class TestCleanText:
    def test_url_and_case_stripping(self):
        assert clean_text("Read THIS!! https://x.co/ab  now") == "read this!! now"

    def test_empty(self):
        assert clean_text("") == ""

    def test_fixed_point(self):
        assert clean_text("already clean text") == "already clean text"

    def test_www_urls(self):
        assert clean_text("visit www.example.com today") == "visit today"

    def test_special_characters_removed(self):
        assert clean_text("co-operate @home #stay") == "cooperate home stay"

    def test_sentence_punctuation_kept(self):
        assert clean_text("Wait... what?!") == "wait... what?!"

    def test_matches_brute_force_oracle(self):
        samples = [
            "Read THIS!! https://x.co/ab  now",
            "Tabs\tand\nnewlines",
            "ALL CAPS!!! www.site.org/x?y=1",
            "plain",
            "  spaced   out  ",
            "ünïcode café ok?",
            "ww§w.sneaky.com hides",
            "http://a http://b text",
        ]
        for s in samples:
            assert clean_text(s) == oracle_clean(s), s

    @given(st.text(max_size=200))
    @settings(max_examples=1000, deadline=None)
    def test_matches_the_oracle_on_any_text(self, s):
        assert clean_text(s) == oracle_clean(s)

    def test_matches_the_oracle_on_every_code_point(self):
        """The regex classes agree with str.isalnum / str.isspace: every code
        point below 0x30000, each between two letters so none is stripped
        as an edge."""
        for block in range(0, 0x30000, 0x1000):
            s = "".join(f"a{chr(c)}b" for c in range(block, block + 0x1000))
            assert clean_text(s) == oracle_clean(s), hex(block)

    def test_every_cased_code_point_cleans_to_lowercase(self):
        """Each code point that str.lower or str.upper changes, alone and
        between two letters, cleans to characters that str.lower leaves
        as they are, so clean-text tokens need no lowercasing."""
        cased = [c for c in map(chr, range(sys.maxunicode + 1)) if c.lower() != c or c.upper() != c]
        assert len(cased) > 2000
        for c in cased:
            for text in (c, f"a{c}b"):
                assert all(ch.lower() == ch for ch in clean_text(text)), hex(ord(c))

    @given(st.text(max_size=200))
    @settings(max_examples=300, deadline=None)
    def test_idempotent_and_never_longer(self, s):
        once = clean_text(s)
        assert clean_text(once) == once
        assert len(once) <= len(s)
        assert once == once.strip()
        assert "  " not in once
        assert once == once.lower()


def balanced_set(n_per_class):
    docs = []
    for i in range(n_per_class):
        docs.append(make_doc(f"true item number {i}.", 0, doc_id=f"t:{i}"))
        docs.append(make_doc(f"fake item number {i}!", 1, doc_id=f"f:{i}"))
    return DocumentSet(tuple(docs))


class TestStratifiedFolds:
    def test_partition_and_balance_at_scale(self):
        ds = balanced_set(3794 // 2)  # 3794 total, 1897 per class
        plan = stratified_folds(ds, 10, seed=42)
        assert len(plan.assignments) == len(ds)
        sizes = [plan.assignments.count(f) for f in range(10)]
        assert sum(sizes) == len(ds)
        for fold in range(10):
            idx = plan.test_indices(fold)
            n_fake = sum(ds[i].label for i in idx)
            n_true = len(idx) - n_fake
            assert abs(n_fake - n_true) <= 1

    def test_two_docs_per_class_two_folds(self):
        ds = balanced_set(2)
        plan = stratified_folds(ds, 2, seed=0)
        for fold in range(2):
            idx = plan.test_indices(fold)
            assert len(idx) == 2
            assert sum(ds[i].label for i in idx) == 1

    def test_deterministic(self):
        ds = balanced_set(20)
        a = stratified_folds(ds, 5, seed=7)
        b = stratified_folds(ds, 5, seed=7)
        assert a.assignments == b.assignments

    def test_seed_changes_assignment(self):
        ds = balanced_set(50)
        a = stratified_folds(ds, 5, seed=1)
        b = stratified_folds(ds, 5, seed=2)
        assert a.assignments != b.assignments

    def test_round_trip_partition(self):
        ds = balanced_set(17)
        plan = stratified_folds(ds, 4, seed=3)
        seen = sorted(i for fold in range(4) for i in plan.test_indices(fold))
        assert seen == list(range(len(ds)))

    def test_too_few_documents(self):
        ds = balanced_set(3)
        with pytest.raises(ElmDetectError, match="has 3 documents, fewer than k=4"):
            stratified_folds(ds, 4, seed=0)

    def test_k_below_two_rejected(self):
        with pytest.raises(ValueError):
            stratified_folds(balanced_set(5), 1, seed=0)


def test_document_empty_after_cleaning_flag():
    doc = make_doc("@#$%", 1)
    assert doc.clean_text == ""
    assert doc.empty_after_cleaning
    assert not make_doc("hello", 0).empty_after_cleaning

"""Dataset ingestion, text cleaning, and stratified cross-validation folds."""
from __future__ import annotations

import csv
import re
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import ElmDetectError
from .textstats import tokenize

SOURCE_TRUE = "true_news"
SOURCE_FAKE = "fake_news"

# URL stripping runs on lowercased text, so the patterns are lowercase too.
_URL_RE = re.compile(r"(?:https?://|www\.)\S*")
# \w is str.isalnum() plus "_", and \s is str.isspace(), over all of Unicode
_DROP_RE = re.compile(r"[^\w\s.!?]|_")
_OTHER_SPACE_RE = re.compile(r"[^\S ]")
_SPACE_RUN_RE = re.compile(r" {2,}")


@dataclass(frozen=True)
class Document:
    """One news item. raw_text is never mutated: the surface-cue features
    (capitalization, punctuation) are only computable on the original text."""

    id: str
    raw_text: str
    clean_text: str
    label: int  # 0 = authentic, 1 = fake

    @cached_property
    def tokens(self) -> tuple[str, ...]:
        """The tokens of clean_text, made on first use and kept with the
        document, so every task of a run reads the same tuple. clean_text
        is lowercase, so they are too."""
        return tokenize(self.clean_text)

    @cached_property
    def bigrams(self) -> frozenset[tuple[str, str]]:
        """The distinct pairs of adjacent tokens, made on first use and kept
        like `tokens`."""
        tokens = self.tokens
        return frozenset(zip(tokens, tokens[1:]))

    @property
    def empty_after_cleaning(self) -> bool:
        return not self.tokens


@dataclass(frozen=True)
class DocumentSet:
    """Immutable, ordered document collection (ingestion order)."""

    documents: tuple[Document, ...]
    dropped_rows: int = 0

    @property
    def class_counts(self) -> tuple[int, int]:
        n_fake = sum(d.label for d in self.documents)
        return (len(self.documents) - n_fake, n_fake)

    def __len__(self) -> int:
        return len(self.documents)

    def __iter__(self):
        return iter(self.documents)

    def __getitem__(self, i: int) -> Document:
        return self.documents[i]


@dataclass(frozen=True)
class FoldPlan:
    """Per-document fold assignment for stratified k-fold cross-validation."""

    k: int
    assignments: tuple[int, ...]

    def test_indices(self, fold: int) -> list[int]:
        return [i for i, f in enumerate(self.assignments) if f == fold]

    def train_indices(self, fold: int) -> list[int]:
        return [i for i, f in enumerate(self.assignments) if f != fold]


def clean_text(raw: str) -> str:
    """Lowercase and strip URLs, special characters, and excess whitespace.

    Keeps letters, digits, spaces, and . ! ? (sentence punctuation is needed
    downstream for sentence boundaries). Repeats until a fixed point so the
    result is idempotent even when stripping uncovers a new URL-like string.
    """
    text = raw
    while True:
        cleaned = _clean_once(text)
        if cleaned == text:
            return cleaned
        text = cleaned


def _clean_once(text: str) -> str:
    text = _DROP_RE.sub("", _URL_RE.sub("", text.lower()))
    return _SPACE_RUN_RE.sub(" ", _OTHER_SPACE_RE.sub(" ", text)).strip()


def load_dataset(true_path, fake_path) -> DocumentSet:
    """Load the two-file dataset; labels are assigned by file of origin.

    Each file is RFC-4180-style CSV with a header row; the text column is
    located by case-insensitive header match. Rows with empty or
    whitespace-only text are dropped and counted.
    """
    documents: list[Document] = []
    dropped = 0
    for path, source, label in (
        (true_path, SOURCE_TRUE, 0),
        (fake_path, SOURCE_FAKE, 1),
    ):
        docs, n_dropped = _load_file(Path(path), source, label)
        documents.extend(docs)
        dropped += n_dropped
    return DocumentSet(tuple(documents), dropped_rows=dropped)


def _load_file(path: Path, source: str, label: int) -> tuple[list[Document], int]:
    if not path.exists():
        raise FileNotFoundError(f"dataset file not found: {path}")
    docs: list[Document] = []
    dropped = 0
    with open(path, encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh, strict=True)
        row_idx = -1  # the header is row 0
        try:
            header = next(reader, None)
            if header is None:
                raise ElmDetectError(f"{path}: file is empty")
            text_col = _find_text_column(header, path)
            row_idx = 0
            for row_idx, row in enumerate(reader, start=1):
                if len(row) != len(header):
                    raise ElmDetectError(
                        f"{path}: row {row_idx}: expected {len(header)} columns, got {len(row)}"
                    )
                raw = row[text_col]
                if not raw.strip():
                    dropped += 1
                    continue
                docs.append(
                    Document(
                        id=f"{source}:{row_idx - 1}",
                        raw_text=raw,
                        clean_text=clean_text(raw),
                        label=label,
                    )
                )
        except csv.Error as exc:
            raise ElmDetectError(f"{path}: row {row_idx + 1}: {exc}") from exc
    return docs, dropped


def _find_text_column(header: list[str], path: Path) -> int:
    for i, name in enumerate(header):
        if name.strip().lower() == "text":
            return i
    raise ElmDetectError(f"{path}: no 'text' column in header {header}")


def stratified_folds(doc_set: DocumentSet, k: int, seed: int) -> FoldPlan:
    """Shuffle each class with the seeded RNG and deal round-robin into k folds.

    Keeps per-fold class counts within one document of a perfect split.
    """
    if k < 2:
        raise ValueError(f"fold count must be >= 2, got {k}")
    by_class: dict[int, list[int]] = {0: [], 1: []}
    for i, doc in enumerate(doc_set):
        by_class[doc.label].append(i)
    for label, members in by_class.items():
        if len(members) < k:
            raise ElmDetectError(
                f"class {label} has {len(members)} documents, fewer than k={k}"
            )
    rng = np.random.default_rng(seed)
    assignments = [0] * len(doc_set)
    for label in (0, 1):
        members = by_class[label]
        order = rng.permutation(len(members))
        for j, idx in enumerate(order):
            assignments[members[idx]] = j % k
    return FoldPlan(k=k, assignments=tuple(assignments))

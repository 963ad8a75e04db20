"""Deterministic linguistic primitives: tokens, sentences, syllables, lexicons.

A lexicon is a mapping of lowercased word to score: `load_lexicon` returns a
dict, and the bundled lexicons are read-only views that every caller shares.

Everything here is a pure function of its input and keeps no cache keyed by
text, so running the same text twice does the work twice. What a run
computes once is held by the objects it concerns: `Document.tokens` keeps a
document's clean-text tokens and each `FeatureExtractor` its rows, both for
as long as the document lives, and the extractor keeps the syllable count
of each distinct word it has seen for as long as the extractor lives.
"""
from __future__ import annotations

import math
import re
from functools import lru_cache
from importlib import resources
from types import MappingProxyType
from typing import Mapping

from .errors import ElmDetectError

# A token is a maximal run of letters, digits, or apostrophes ("don't" stays
# one token). Underscore is excluded on purpose: it is a special character.
# \w is a letter, a digit or "_", so once "_" is a separator the single class
# finds the same tokens as the alternation (?:[^\W_]|')+, at about twice its
# speed.
_WORD_RE = re.compile(r"[\w']+")

# A sentence is a maximal run of characters other than '.', '!' and '?'
# that holds a token character, so "Wait... what?!" holds exactly two.
_SENTENCE_RE = re.compile(r"[^.!?]*?(?:[^\W_]|')[^.!?]*")

_VOWEL_GROUP_RE = re.compile(r"[aeiouy]+")


def tokenize(text: str) -> tuple[str, ...]:
    """Split text into tokens, preserving casing; callers lowercase as needed."""
    return tuple(_WORD_RE.findall(text.replace("_", " ")))


def count_sentences(text: str) -> int:
    """The number of sentences ended by '.', '!' or '?'.

    Runs of terminators count once, and a trailing unterminated segment that
    still contains a token counts as one sentence. Segments without any token
    (e.g. stray punctuation) are not counted.
    """
    return len(_SENTENCE_RE.findall(text))


def count_syllables(word: str) -> int:
    """Heuristic syllable count: vowel groups, minus a terminal silent 'e'.

    Lowercases the word, counts maximal groups of a/e/i/o/u/y, subtracts one
    for a trailing 'e' when the result stays >= 1, and floors at 1. Within one
    syllable of dictionary counts for most common English words.
    """
    w = word.lower()
    n = len(_VOWEL_GROUP_RE.findall(w))
    if w.endswith("e") and n >= 2:
        n -= 1
    return max(1, n)


def load_lexicon(path) -> dict[str, float]:
    """Load a `word<TAB>score` lexicon file as a word -> score dict.

    The score is optional (defaults to 1.0) and must be finite, `#` starts a
    comment, keys are case-folded, and on duplicates the last entry wins. A
    leading byte-order mark is skipped, as in the dataset files. A line is
    stripped only at its end, so a line that starts with a tab has an empty
    word and is rejected.
    """
    entries: dict[str, float] = {}
    with open(path, encoding="utf-8-sig") as fh:
        for lineno, line in enumerate(fh, start=1):
            body = line.split("#", 1)[0].rstrip()
            if not body:
                continue
            parts = body.split("\t")
            if len(parts) == 1:
                word, score = parts[0], 1.0
            elif len(parts) == 2:
                word = parts[0]
                try:
                    score = float(parts[1])
                except ValueError as exc:
                    raise ElmDetectError(
                        f"{path}:{lineno}: not a number: {parts[1]!r}"
                    ) from exc
                if not math.isfinite(score):
                    raise ElmDetectError(f"{path}:{lineno}: not a finite number: {parts[1]!r}")
            else:
                raise ElmDetectError(f"{path}:{lineno}: expected 'word<TAB>score'")
            word = word.strip().lower()
            if not word:
                raise ElmDetectError(f"{path}:{lineno}: empty word")
            entries[word] = score
    return entries


@lru_cache(maxsize=None)
def bundled_sentiment_lexicon() -> Mapping[str, float]:
    """Word-polarity lexicon shipped with the package, scores in [-1, 1]."""
    return _load_bundled("sentiment_lexicon.tsv")


@lru_cache(maxsize=None)
def bundled_urgency_lexicon() -> Mapping[str, float]:
    """Urgency-cue word list shipped with the package, all scores 1.0."""
    return _load_bundled("urgency_lexicon.tsv")


def _load_bundled(filename: str) -> Mapping[str, float]:
    """A read-only view of a bundled lexicon, since every caller shares it."""
    ref = resources.files("elmdetect").joinpath("data").joinpath(filename)
    with resources.as_file(ref) as path:
        return MappingProxyType(load_lexicon(path))

"""Seeded synthetic corpus for the benchmark: writes a true-news and a
fake-news CSV that `elmdetect` ingests like real data.

Words are pseudo-words drawn from a Zipf distribution over a fixed
vocabulary, so token frequencies look like text and the vocabulary the model
builds has a long tail. The class signal follows the split of the test
suite's `dual_signal_corpus`: a fake document carries a lexical cue (marker
nouns the text model can see) at rate 0.7, and a peripheral cue (all-caps
words and '!!' / '?!' endings that only the surface features see) at rate
0.35 when it has the lexical cue and 0.9 when it does not. So each variant
has part of the signal and their combination has nearly all of it. The cues
are dealt in these exact proportions, shuffled, rather than drawn one
document at a time, so the share of fakes carrying each cue does not vary
with the seed. A document is a run of sentences of 8-16 tokens; its length in tokens
(markers excluded) is drawn uniformly from the requested range.

    python3 perfbench/gen.py --seed 1 --docs 200 --min-len 8 --max-len 16 --out DIR
"""
from __future__ import annotations

import argparse
import csv
from pathlib import Path

import numpy as np

SENTENCE_LEN = (8, 16)
MARKER_WORDS = 10
LEXICAL_RATE = 0.7
PERIPHERAL_RATE = (0.35, 0.9)  # with, without the lexical cue
_ONSETS = ("b", "d", "f", "g", "k", "l", "m", "n", "p", "r", "s", "t", "v", "z", "br", "kl", "st", "tr")
_VOWELS = ("a", "e", "i", "o", "u")


def pseudo_words(n: int) -> list[str]:
    """n distinct lowercase pseudo-words of two to four syllables, the same
    for every corpus seed."""
    rng = np.random.default_rng(0)
    words: dict[str, None] = {}
    while len(words) < n:
        syllables = int(rng.integers(2, 5))
        word = "".join(str(rng.choice(_ONSETS)) + str(rng.choice(_VOWELS)) for _ in range(syllables))
        words.setdefault(word, None)
    return list(words)


class ZipfWords:
    """Samples words with probability proportional to 1 / rank**exponent."""

    def __init__(self, vocab_size: int, exponent: float):
        # the markers come from the same generator, so they never collide
        # with the vocabulary; they are excluded from it
        words = pseudo_words(vocab_size + MARKER_WORDS)
        self.markers = words[:MARKER_WORDS]
        self.words = np.array(words[MARKER_WORDS:])
        weights = 1.0 / np.arange(1, vocab_size + 1) ** exponent
        self.probs = weights / weights.sum()

    def sample(self, rng: np.random.Generator, n: int) -> list[str]:
        return [str(w) for w in rng.choice(self.words, size=n, p=self.probs)]


def _sentence_lengths(rng: np.random.Generator, total: int) -> list[int]:
    lengths = []
    while total > 0:
        n = min(int(rng.integers(SENTENCE_LEN[0], SENTENCE_LEN[1] + 1)), total)
        lengths.append(n)
        total -= n
    return lengths


def _sentence(rng, zipf: ZipfWords, length: int, lexical: bool, peripheral: bool, label: int) -> str:
    words = zipf.sample(rng, length)
    if lexical:
        for _ in range(int(rng.integers(1, 3))):
            words.insert(int(rng.integers(1, len(words) + 1)), str(rng.choice(zipf.markers)))
    words[0] = words[0].capitalize()
    end = "."
    if peripheral and len(words) > 1:
        n_shout = min(int(rng.integers(1, 3)), len(words) - 1)
        for j in rng.choice(len(words) - 1, size=n_shout, replace=False):
            words[j + 1] = words[j + 1].upper()
        end = "!!" if rng.random() < 0.7 else "?!"
    if label == 0:
        if rng.random() < 0.05:
            end = "!"
        if rng.random() < 0.03 and len(words) > 1:
            j = int(rng.integers(1, len(words)))
            words[j] = words[j].upper()
    return " ".join(words) + end


def _fake_cues(rng: np.random.Generator, n_fake: int) -> list[tuple[bool, bool]]:
    """(lexical, peripheral) per fake document, in the exact target rates."""
    n_lexical = round(LEXICAL_RATE * n_fake)
    cues = []
    for lexical, n in ((True, n_lexical), (False, n_fake - n_lexical)):
        n_peripheral = round(PERIPHERAL_RATE[0 if lexical else 1] * n)
        cues += [(lexical, j < n_peripheral) for j in range(n)]
    return [cues[j] for j in rng.permutation(n_fake)]


def make_texts(
    seed: int,
    n_docs: int,
    min_len: int,
    max_len: int,
    vocab_size: int = 2000,
    zipf_exponent: float = 1.1,
    stream: int = 0,
) -> tuple[list[str], list[str]]:
    """(true_texts, fake_texts), n_docs // 2 fakes; the rest are true.
    Different `stream` values give independent corpora for one seed."""
    if not 1 <= min_len <= max_len:
        raise ValueError(f"need 1 <= min_len <= max_len, got {min_len}, {max_len}")
    rng = np.random.default_rng(np.random.SeedSequence([seed, stream, n_docs, min_len, max_len]))
    zipf = ZipfWords(vocab_size, zipf_exponent)
    cues = iter(_fake_cues(rng, n_docs // 2))
    true_texts, fake_texts = [], []
    for i in range(n_docs):
        label = i % 2
        lexical, peripheral = next(cues) if label else (False, False)
        total = int(rng.integers(min_len, max_len + 1))
        text = " ".join(
            _sentence(rng, zipf, n, lexical, peripheral, label)
            for n in _sentence_lengths(rng, total)
        )
        (fake_texts if label else true_texts).append(text)
    return true_texts, fake_texts


def write_corpus(out_dir, seed: int, n_docs: int, min_len: int, max_len: int, **knobs) -> tuple[Path, Path]:
    """Write true.csv and fake.csv (one 'text' column) and return their paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = (out / "true.csv", out / "fake.csv")
    for path, texts in zip(paths, make_texts(seed, n_docs, min_len, max_len, **knobs)):
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["id", "text"])
            writer.writerows(enumerate(texts))
    return paths


def main(argv=None) -> None:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--docs", type=int, required=True)
    p.add_argument("--min-len", type=int, required=True)
    p.add_argument("--max-len", type=int, required=True)
    p.add_argument("--vocab-size", type=int, default=2000)
    p.add_argument("--zipf-exponent", type=float, default=1.1)
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)
    paths = write_corpus(
        args.out, args.seed, args.docs, args.min_len, args.max_len,
        vocab_size=args.vocab_size, zipf_exponent=args.zipf_exponent,
    )
    print(" ".join(str(x) for x in paths))


if __name__ == "__main__":
    main()

"""Synthetic corpora with known generating rules, used as training oracles."""
import numpy as np

from elmdetect.corpus import Document, DocumentSet, clean_text

NEUTRAL_WORDS = (
    "health officials report new study on vaccine safety data today local "
    "hospital confirms routine update for residents about seasonal cases and "
    "guidance from experts regarding treatment options during recent weeks the "
    "ministry published figures showing measured progress across regions while "
    "researchers continue monitoring results"
).split()

# sentiment-neutral conspiracy-cure nouns: absent from the bundled lexicons,
# so they are visible to the text model but not to the feature extractor
FAKE_TOPIC_WORDS = (
    "garlic bleach microchip lemon vinegar onion saltwater sunlight silver copper"
).split()


def make_doc(raw: str, label: int = 0, doc_id: str | None = None) -> Document:
    source = "fake_news" if label else "true_news"
    return Document(
        id=doc_id or f"{source}:{abs(hash(raw)) % 10**8}",
        raw_text=raw,
        clean_text=clean_text(raw),
        label=label,
    )


def planted_token_corpus(n: int = 64, seed: int = 0, token: str = "zorblat") -> DocumentSet:
    """Balanced corpus whose label is exactly 'contains the planted token'."""
    rng = np.random.default_rng(seed)
    docs = []
    for i in range(n):
        label = i % 2
        words = list(rng.choice(NEUTRAL_WORDS, size=int(rng.integers(6, 12))))
        if label == 1:
            # plant the token twice so it clears the min-frequency cutoff early
            words.insert(int(rng.integers(0, len(words))), token)
            words.insert(int(rng.integers(0, len(words))), token)
        raw = " ".join(words) + "."
        docs.append(make_doc(raw, label, doc_id=f"synt:{i}"))
    return DocumentSet(tuple(docs))


def dual_signal_corpus(n: int = 600, seed: int = 0) -> DocumentSet:
    """Balanced corpus whose class signal is split between token content and
    peripheral surface cues (extra '!!' and all-caps words on fakes).

    The markers are sentiment-neutral nouns, so the feature extractor barely
    sees them; the peripheral package only changes casing and punctuation, so
    the token sequence (after cleaning) does not see it at all. Most fakes
    that lack the lexical marker carry the peripheral package, so the
    text-only model and the features-only model each observe part of the
    signal and only their combination observes nearly all of it.
    """
    rng = np.random.default_rng(seed)
    docs = []
    for i in range(n):
        label = i % 2
        length = int(rng.integers(8, 16))
        words = list(rng.choice(NEUTRAL_WORDS, size=length))
        lexical = peripheral = False
        if label == 1:
            lexical = rng.random() < 0.7
            peripheral = rng.random() < (0.35 if lexical else 0.9)
        if lexical:
            for _ in range(int(rng.integers(1, 3))):
                marker = str(rng.choice(FAKE_TOPIC_WORDS))
                words.insert(int(rng.integers(1, len(words))), marker)
        raw_words = [w.capitalize() if j == 0 else w for j, w in enumerate(words)]
        end = "."
        if peripheral:
            n_shout = min(int(rng.integers(1, 3)), len(raw_words) - 1)
            for j in rng.choice(len(raw_words) - 1, size=n_shout, replace=False):
                raw_words[j + 1] = raw_words[j + 1].upper()
            end = "!!" if rng.random() < 0.7 else "?!"
        if label == 0:
            if rng.random() < 0.05:
                end = "!"
            if rng.random() < 0.03:
                j = int(rng.integers(1, len(raw_words)))
                raw_words[j] = raw_words[j].upper()
        raw = " ".join(raw_words) + end
        docs.append(make_doc(raw, label, doc_id=f"dual:{i}"))
    return DocumentSet(tuple(docs))


def central_signal_corpus(n: int = 300, seed: int = 0) -> DocumentSet:
    """Balanced corpus whose label only the central route sees: true posts
    are cut into 3 or 4 sentences, fakes are one run-on sentence.

    Both classes draw 10 to 15 words from NEUTRAL_WORDS in the same way, and
    only a post's first letter is a capital: a capital at every sentence
    start would leak the label into `capitalization_ratio`, a peripheral
    feature. Tokens are lowercase and never hold a '.', so the text path
    sees the same token distribution in both classes, while words per
    sentence (and through it the Flesch-Kincaid grade) carry the label.
    """
    rng = np.random.default_rng(seed)
    docs = []
    for i in range(n):
        label = i % 2
        words = list(rng.choice(NEUTRAL_WORDS, size=int(rng.integers(10, 16))))
        if label == 0:
            # 2 or 3 sentence breaks, each after a different word but the last
            for j in rng.choice(len(words) - 1, size=int(rng.integers(2, 4)), replace=False):
                words[j] += "."
        raw = " ".join(words).capitalize() + "."
        docs.append(make_doc(raw, label, doc_id=f"central:{i}"))
    return DocumentSet(tuple(docs))

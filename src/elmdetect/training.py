"""Training of the four model variants of VARIANT_SPECS.

`train` fits a variant's parts on the training rows: a vocabulary when the
variant reads tokens, bigrams when it reads the extended features and a
scaler when it reads features. `_untrained` builds the model of those parts
around one `network.Network`, for `train` and `load_model` alike, and `_fit`
runs the epochs, the validation passes and early stopping.

All randomness flows from TrainConfig.seed through one numpy Generator, so a
training run is reproducible bit for bit.

Scoring and validation run `Network.predict` with a token budget of
batch_size x max_seq_len per chunk.
"""
from __future__ import annotations

import base64
import hashlib
import json
import math
from collections import Counter
from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from .corpus import Document
from .errors import ElmDetectError
from .features import ExtendedFeaturizer, FeatureExtractor, FeatureScaler
from .network import KERNEL_SIZE, OOV_INDEX, PAD_INDEX, Network


@dataclass(frozen=True)
class VariantSpec:
    """What a variant fits and feeds to its network."""

    text: bool  # token ids through the embedding -> conv -> LSTM path
    features: bool  # the ten scaled dual-route features
    extended: bool  # bigram-presence and subjectivity features after the ten


# the one place that says what each variant name means; the first is the default
VARIANT_SPECS = {
    "base": VariantSpec(text=True, features=False, extended=False),
    "features_only": VariantSpec(text=False, features=True, extended=False),
    "enhanced": VariantSpec(text=True, features=True, extended=False),
    "combined": VariantSpec(text=True, features=True, extended=True),
}
VARIANTS = tuple(VARIANT_SPECS)

VAL_FRACTION = 0.1  # of each class, carved off the fold-train rows for early stopping
MIN_FREQ = 2  # occurrences in the training rows a token needs for an id of its own
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters of one training run.

    ``max_seq_len``, at least one conv window, caps how many tokens of a
    document the text path reads; it does not set the work done, since each
    batch is trimmed to its longest document and each row is read at its
    last real step. Times ``batch_size``, it is the token budget of a
    scoring chunk.
    """

    variant: str = VARIANTS[0]
    epochs: int = 10
    batch_size: int = 32
    learning_rate: float = 0.001
    early_stop_patience: int = 2  # <= 0 disables early stopping
    seed: int = 0
    max_seq_len: int = 100
    progress: bool = True

    def validate(self) -> None:
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}, expected one of {VARIANTS}")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError(f"learning_rate must be a finite number > 0, got {self.learning_rate}")
        if self.max_seq_len < KERNEL_SIZE:
            raise ValueError(f"max_seq_len must be >= {KERNEL_SIZE}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


def bce_loss(preds: np.ndarray, labels: np.ndarray) -> float:
    """Mean binary cross-entropy, with the probabilities clamped to
    [1e-7, 1 - 1e-7]."""
    p = np.clip(preds, 1e-7, 1.0 - 1e-7)
    return float(np.mean(-(labels * np.log(p) + (1.0 - labels) * np.log(1.0 - p))))


class AdamState:
    """First/second moment accumulators for one flat parameter array."""

    def __init__(self, params: np.ndarray):
        self.m = np.zeros_like(params)
        self.v = np.zeros_like(params)
        self.t = 0


def adam_step(params: np.ndarray, grads: np.ndarray, state: AdamState, lr: float) -> AdamState:
    """One Adam update, in place, with ADAM_BETA1, ADAM_BETA2 and ADAM_EPS:
    bias-corrected moments, then theta <- theta - lr * m_hat / (sqrt(v_hat) + eps).

    Every operation rounds as in `oracle_adam` (`tests/oracles.py`) but writes
    into one of two temporaries: a new array per operation, each the size of
    the whole model, was slower than the update one layer at a time.
    """
    if params.shape != grads.shape or params.shape != state.m.shape:
        raise ElmDetectError(f"params {params.shape}, grads {grads.shape} and state {state.m.shape} differ")
    state.t += 1
    t = state.t
    step = np.multiply(1.0 - ADAM_BETA1, grads)
    state.m *= ADAM_BETA1
    state.m += step
    np.multiply(1.0 - ADAM_BETA2, grads, out=step)
    step *= grads
    state.v *= ADAM_BETA2
    state.v += step
    denom = np.divide(state.v, 1.0 - ADAM_BETA2**t)  # v_hat
    np.sqrt(denom, out=denom)
    denom += ADAM_EPS
    np.divide(state.m, 1.0 - ADAM_BETA1**t, out=step)  # m_hat
    step *= lr
    step /= denom
    params -= step
    return state


@dataclass(frozen=True)
class Vocabulary:
    """Token to id mapping built from training rows only, of the tokens seen
    at least MIN_FREQ times; id 0 is padding, id 1 is out-of-vocabulary."""

    token_to_id: dict[str, int]

    @classmethod
    def build(cls, token_lists: Sequence[Sequence[str]]) -> "Vocabulary":
        counts = Counter()
        for tokens in token_lists:
            counts.update(tokens)
        kept = sorted(
            (t for t, c in counts.items() if c >= MIN_FREQ),
            key=lambda t: (-counts[t], t),
        )
        mapping = {t: i + 2 for i, t in enumerate(kept)}
        return cls(token_to_id=mapping)

    @property
    def size(self) -> int:
        return len(self.token_to_id) + 2

    def encode(self, token_lists: Sequence[Sequence[str]], max_len: int) -> np.ndarray:
        """The (n, max_len) id matrix of n token sequences: row i holds the
        ids of the first max_len tokens of sequence i, padded at the end.

        Padding only ever follows the real tokens; the text pipeline counts
        them from there and never computes past a batch's longest row.
        """
        get = self.token_to_id.get
        ids = [get(t, OOV_INDEX) for tokens in token_lists for t in tokens[:max_len]]
        lengths = np.array([min(len(tokens), max_len) for tokens in token_lists], dtype=np.int64)
        out = np.full((len(token_lists), max_len), PAD_INDEX, dtype=np.int64)
        out[np.arange(max_len) < lengths[:, None]] = ids
        return out


@dataclass
class TrainedModel:
    model: Network
    vocab: Vocabulary | None
    scaler: FeatureScaler | None
    extended: ExtendedFeaturizer | None
    extractor: FeatureExtractor
    config: TrainConfig
    history: list[tuple[float, float]]
    best_epoch: int
    fit_doc_ids: tuple[str, ...]


def _encode_batch(model: TrainedModel, docs: Sequence[Document]) -> np.ndarray:
    """The id matrix of docs; (n, 0) for a variant without a text path."""
    if model.vocab is None:
        return np.zeros((len(docs), 0), dtype=np.int64)
    return model.vocab.encode([d.tokens for d in docs], model.config.max_seq_len)


def _raw_features(extractor: FeatureExtractor, extended: ExtendedFeaturizer | None, docs) -> np.ndarray:
    """The unscaled feature matrix of docs: the ten features, then the
    extended ones when there are any."""
    raw = extractor.matrix(docs)
    return raw if extended is None else np.hstack([raw, extended.matrix(docs, extractor)])


def _feature_batch(model: TrainedModel, docs: Sequence[Document]) -> np.ndarray:
    """The scaled feature matrix of docs; (n, 0) for a variant without
    features."""
    if model.scaler is None:
        return np.zeros((len(docs), 0))
    return model.scaler.transform(_raw_features(model.extractor, model.extended, docs))


def predict_scores(model: TrainedModel, docs: Sequence[Document]) -> np.ndarray:
    """Vectorized eval-mode scoring (dropout is the identity)."""
    return model.model.predict(_encode_batch(model, docs), _feature_batch(model, docs), model.config.batch_size)


def train(
    docs: Sequence[Document],
    config: TrainConfig,
    extractor: FeatureExtractor | None = None,
) -> TrainedModel:
    """Train one variant on fold-train documents, in three steps.

    It carves off a stratified validation split and fits the variant's parts
    on the remaining rows only: vocabulary, bigrams and feature scaler.
    `_untrained` builds the model of those parts, and `_fit` runs the epochs,
    the validation passes and early stopping. The one generator draws the
    split, then the initial weights, then each epoch's order and dropout masks.
    """
    config.validate()
    docs = list(docs)
    if not docs:
        raise ElmDetectError("training set is empty")
    counts = Counter(d.label for d in docs)
    for label in (0, 1):
        if counts[label] < 2:  # one row to train on and one to validate
            raise ElmDetectError(
                f"training set has {counts[label]} documents of class {label}; each class needs at least 2"
            )
    extractor = extractor or FeatureExtractor()

    rng = np.random.default_rng(np.random.SeedSequence(config.seed))
    train_docs, val_docs = _stratified_val_split(docs, rng)
    spec = VARIANT_SPECS[config.variant]
    vocab = Vocabulary.build([d.tokens for d in train_docs]) if spec.text else None
    extended = ExtendedFeaturizer.fit(train_docs) if spec.extended else None
    raw = _raw_features(extractor, extended, train_docs) if spec.features else np.zeros((len(train_docs), 0))
    scaler = FeatureScaler.fit(raw) if spec.features else None

    model = _untrained(config, extractor, vocab, scaler, extended, tuple(d.id for d in train_docs), rng)
    feats_train = scaler.transform(raw) if scaler else raw
    model.history, model.best_epoch = _fit(model, train_docs, feats_train, val_docs, rng)
    return model


def _untrained(
    config: TrainConfig, extractor: FeatureExtractor, vocab: Vocabulary | None, scaler: FeatureScaler | None,
    extended: ExtendedFeaturizer | None, fit_doc_ids: tuple[str, ...], rng: np.random.Generator,
) -> TrainedModel:
    """The model of fitted parts, with no history and its initial weights
    drawn from rng: a text path when there is a vocabulary, and as many
    feature inputs as the scaler has columns. `train` and `load_model` both
    build their model here."""
    net = Network(vocab.size if vocab else None, scaler.n_features if scaler else 0, rng)
    return TrainedModel(
        model=net, vocab=vocab, scaler=scaler, extended=extended, extractor=extractor, config=config,
        history=[], best_epoch=-1, fit_doc_ids=fit_doc_ids,
    )


def _fit(
    model: TrainedModel, train_docs: list[Document], feats_train: np.ndarray, val_docs: list[Document],
    rng: np.random.Generator,
) -> tuple[list[tuple[float, float]], int]:
    """Run the epochs of `model.config` in place and return the history of
    (train loss, validation loss) and the epoch whose parameters the model
    keeps. feats_train holds the scaled features of train_docs.

    With a patience > 0, training stops once the validation loss has not
    improved for that many epochs in a row, and the parameters of the best
    validation epoch are restored; otherwise the last epoch's are kept.
    """
    net, config = model.model, model.config
    ids_train = _encode_batch(model, train_docs)
    y_train = np.array([d.label for d in train_docs], dtype=np.float64)
    ids_val, feats_val = _encode_batch(model, val_docs), _feature_batch(model, val_docs)
    y_val = np.array([d.label for d in val_docs], dtype=np.float64)
    params, grads = net.params, net.grads
    adam = AdamState(params)
    n = len(train_docs)
    patience = config.early_stop_patience
    history: list[tuple[float, float]] = []
    best_loss, best_epoch, stale = np.inf, 0, 0  # stale: epochs since best_epoch
    best_params: np.ndarray | None = None

    for epoch in range(1, config.epochs + 1):
        order = rng.permutation(n)
        loss_sum = 0.0
        for start in range(0, n, config.batch_size):
            idx = order[start : start + config.batch_size]
            y = y_train[idx]
            p = net.forward(ids_train[idx], feats_train[idx], train=True, rng=rng)
            loss_sum += bce_loss(p, y) * len(idx)
            grads.fill(0.0)
            net.backward_logit((p - y) / len(idx))
            adam_step(params, grads, adam, config.learning_rate)
        train_loss = loss_sum / n
        val_loss = bce_loss(net.predict(ids_val, feats_val, config.batch_size), y_val)
        history.append((train_loss, val_loss))
        if config.progress:
            print(f"epoch={epoch} train_loss={train_loss:.6f} val_loss={val_loss:.6f}")
        if val_loss < best_loss:
            best_loss, best_epoch, stale = val_loss, epoch, 0
            if patience > 0:
                best_params = params.copy()
        else:
            stale += 1
            if 0 < patience <= stale:
                break

    if best_params is None:
        return history, len(history)
    params[...] = best_params
    return history, best_epoch


def _stratified_val_split(
    docs: list[Document], rng: np.random.Generator
) -> tuple[list[Document], list[Document]]:
    val_idx: set[int] = set()
    for label in (0, 1):
        members = [i for i, d in enumerate(docs) if d.label == label]
        order = rng.permutation(len(members))
        n_val = max(1, int(round(VAL_FRACTION * len(members))))  # leaves one row or more: train needs 2 per class
        val_idx.update(members[j] for j in order[:n_val])
    train = [d for i, d in enumerate(docs) if i not in val_idx]
    val = [d for i, d in enumerate(docs) if i in val_idx]
    return train, val


# -- checkpoint container ------------------------------------------------------

CHECKPOINT_VERSION = 7  # 7: the sha256 of the lexicons the model was trained with is stored


def config_digest(config: TrainConfig) -> str:
    return hashlib.sha256(
        json.dumps(asdict(config), sort_keys=True).encode("utf-8")
    ).hexdigest()


def lexicon_digest(extractor: FeatureExtractor) -> str:
    """sha256 of the sorted entries of the extractor's two lexicons."""
    entries = [sorted(extractor.sentiment.items()), sorted(extractor.urgency.items())]
    return hashlib.sha256(repr(entries).encode("utf-8")).hexdigest()


def save_model(model: TrainedModel, path) -> None:
    """Write a versioned JSON checkpoint; the flat parameter array
    round-trips bit-exactly as base64 of little-endian float64."""
    payload = {
        "format_version": CHECKPOINT_VERSION,
        "config": asdict(model.config),
        "config_hash": config_digest(model.config),
        "lexicon_sha256": lexicon_digest(model.extractor),
        "vocab": model.vocab.token_to_id if model.vocab else None,
        "scaler": {"mins": model.scaler.mins.tolist(), "maxs": model.scaler.maxs.tolist()} if model.scaler else None,
        "extended_bigrams": [list(bg) for bg in model.extended.bigrams] if model.extended else None,
        "history": model.history,
        "best_epoch": model.best_epoch,
        "fit_doc_ids": list(model.fit_doc_ids),
        "params": base64.b64encode(model.model.params.astype("<f8", copy=False).tobytes()).decode("ascii"),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


def load_model(path, extractor: FeatureExtractor | None = None) -> TrainedModel:
    """Rebuild a TrainedModel from a checkpoint written by save_model. The
    extractor (by default the bundled lexicons') must hold the lexicons the
    model was trained with."""
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    if payload.get("format_version") != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {payload.get('format_version')}")
    config = TrainConfig(**payload["config"])
    if config_digest(config) != payload["config_hash"]:
        raise ValueError("checkpoint config hash mismatch")
    extractor = extractor or FeatureExtractor()
    if lexicon_digest(extractor) != payload["lexicon_sha256"]:
        raise ElmDetectError("the extractor's lexicons are not those the checkpoint was trained with")
    vocab = Vocabulary(payload["vocab"]) if payload["vocab"] is not None else None
    bounds, bigrams = payload["scaler"], payload["extended_bigrams"]
    scaler = None if bounds is None else FeatureScaler(
        mins=np.array(bounds["mins"], dtype=np.float64), maxs=np.array(bounds["maxs"], dtype=np.float64)
    )
    extended = None if bigrams is None else ExtendedFeaturizer(bigrams=tuple(tuple(bg) for bg in bigrams))
    fit_doc_ids = tuple(payload["fit_doc_ids"])
    model = _untrained(config, extractor, vocab, scaler, extended, fit_doc_ids, np.random.default_rng(0))
    model.history, model.best_epoch = [tuple(h) for h in payload["history"]], payload["best_epoch"]
    params = np.frombuffer(base64.b64decode(payload["params"]), dtype="<f8")
    if params.size != model.model.params.size:
        raise ValueError(
            f"checkpoint holds {params.size} parameters, the model it describes has {model.model.params.size}"
        )
    model.model.params[...] = params
    return model

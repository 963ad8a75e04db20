"""Training of the four model variants of VARIANT_SPECS.

The text path is embedding -> conv -> dropout -> LSTM -> sigmoid head; the
scaled features either join it before the head or, without a text path,
feed a small dense head of their own.

All randomness flows from TrainConfig.seed through one numpy Generator, so a
training run is reproducible bit for bit.
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
from .errors import (
    EmptyTrainingSetError,
    ShapeMismatchError,
    SingleClassTrainingSetError,
)
from .features import ExtendedFeaturizer, FeatureExtractor, FeatureScaler
from .network import (
    CONV_FILTERS,
    DROPOUT_RATE,
    EMBEDDING_DIM,
    FEATURE_HIDDEN,
    KERNEL_SIZE,
    LSTM_UNITS,
    OOV_INDEX,
    PAD_INDEX,
    ConvLayer,
    DenseHead,
    DenseLayer,
    DropoutLayer,
    EmbeddingTable,
    LstmLayer,
)


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


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters of one training run.

    ``max_seq_len``, at least one conv window, caps how many tokens of a
    document the text path reads; it does not set the work done, since each
    batch is trimmed to its longest document and each row is read at its
    last real step.
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


def bce_loss(preds: np.ndarray, labels: np.ndarray) -> float:
    """Mean binary cross-entropy, with the probabilities clamped to
    [1e-7, 1 - 1e-7]."""
    p = np.clip(preds, 1e-7, 1.0 - 1e-7)
    return float(np.mean(-(labels * np.log(p) + (1.0 - labels) * np.log(1.0 - p))))


class EarlyStopper:
    """Stop when validation loss fails to improve for `patience` consecutive
    epochs; remembers which epoch held the best loss. patience <= 0 disables
    stopping (update never returns True)."""

    def __init__(self, patience: int):
        self.patience = patience
        self.best = np.inf
        self.best_epoch = 0
        self.stale = 0

    def update(self, epoch: int, val_loss: float) -> bool:
        """Record one epoch; returns True when training should stop."""
        if val_loss < self.best:
            self.best = val_loss
            self.best_epoch = epoch
            self.stale = 0
            return False
        self.stale += 1
        return self.patience > 0 and self.stale >= self.patience

    @property
    def improved(self) -> bool:
        return self.stale == 0


class AdamState:
    """First/second moment accumulators for one flat parameter array."""

    def __init__(self, params: np.ndarray):
        self.m = np.zeros_like(params)
        self.v = np.zeros_like(params)
        self.t = 0


def adam_step(
    params: np.ndarray,
    grads: np.ndarray,
    state: AdamState,
    lr: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> AdamState:
    """One Adam update, in place: bias-corrected moments, then
    theta <- theta - lr * m_hat / (sqrt(v_hat) + eps).

    Every operation rounds as in `oracle_adam` (`tests/oracles.py`) but writes
    into one of two temporaries: a new array per operation, each the size of
    the whole model, was slower than the update one layer at a time.
    """
    if params.shape != grads.shape or params.shape != state.m.shape:
        raise ShapeMismatchError(f"params {params.shape}, grads {grads.shape} and state {state.m.shape} differ")
    state.t += 1
    t = state.t
    step = np.multiply(1.0 - beta1, grads)
    state.m *= beta1
    state.m += step
    np.multiply(1.0 - beta2, grads, out=step)
    step *= grads
    state.v *= beta2
    state.v += step
    denom = np.divide(state.v, 1.0 - beta2**t)  # v_hat
    np.sqrt(denom, out=denom)
    denom += eps
    np.divide(state.m, 1.0 - beta1**t, out=step)  # m_hat
    step *= lr
    step /= denom
    params -= step
    return state


@dataclass(frozen=True)
class Vocabulary:
    """Token to id mapping built from training rows only (min frequency 2 by
    default); id 0 is padding, id 1 is out-of-vocabulary."""

    token_to_id: dict[str, int]

    @classmethod
    def build(cls, token_lists: Sequence[Sequence[str]], min_freq: int = 2) -> "Vocabulary":
        counts = Counter()
        for tokens in token_lists:
            counts.update(tokens)
        kept = sorted(
            (t for t, c in counts.items() if c >= min_freq),
            key=lambda t: (-counts[t], t),
        )
        mapping = {t: i + 2 for i, t in enumerate(kept)}
        return cls(token_to_id=mapping)

    @property
    def size(self) -> int:
        return len(self.token_to_id) + 2

    def encode(self, tokens: Sequence[str], max_len: int) -> np.ndarray:
        """The first max_len token ids, padded at the end to max_len.

        Padding only ever follows the real tokens; the text pipeline counts
        them from there and never computes past a batch's longest row.
        """
        ids = [self.token_to_id.get(t, OOV_INDEX) for t in tokens[:max_len]]
        ids.extend([PAD_INDEX] * (max_len - len(ids)))
        return np.array(ids, dtype=np.int64)


class TextPipelineModel:
    """The convolutional-recurrent text pipeline, optionally concatenated
    with a scaled feature vector before the sigmoid head."""

    def __init__(self, vocab_size: int, feature_dim: int, rng: np.random.Generator):
        self.embedding = EmbeddingTable(vocab_size, EMBEDDING_DIM, rng)
        self.conv = ConvLayer(CONV_FILTERS, KERNEL_SIZE, EMBEDDING_DIM, rng)
        self.dropout = DropoutLayer(DROPOUT_RATE)
        self.lstm = LstmLayer(CONV_FILTERS, LSTM_UNITS, rng)
        self.head = DenseHead(LSTM_UNITS + feature_dim, rng)

    def layers(self):
        return [self.embedding, self.conv, self.lstm, self.head]

    def forward(self, ids: np.ndarray, feats: np.ndarray | None, train: bool, rng=None) -> np.ndarray:
        """Probabilities for end-padded id rows.

        The batch is cut to its longest row (at least one conv window), and
        the head reads each row's LSTM state after its last conv window made
        only of real tokens, so the result does not depend on how far the
        rows were padded.

        A training step runs the conv, dropout and LSTM in float32, about
        twice as fast, while the parameters, their gradients and Adam stay
        float64. Scoring stays float64: in float32 a document's score would
        depend on the rows it is batched with by about 1e-11, and a score
        must not depend on the batching.
        """
        lengths = np.count_nonzero(ids != PAD_INDEX, axis=1)
        ids = ids[:, : max(KERNEL_SIZE, int(lengths.max()))]
        emb = self.embedding.forward(ids)
        if train:
            emb = emb.astype(np.float32)
        fmap = self.conv.forward(emb, train)
        fmap = self.dropout.forward(fmap, train=train, rng=rng)
        text = self.lstm.forward(fmap, last=np.maximum(lengths - KERNEL_SIZE, 0), train=train)
        z = text if feats is None else np.concatenate([text, feats], axis=1)
        return self.head.forward(z)

    def backward_logit(self, dlogit: np.ndarray) -> None:
        dz = self.head.backward_logit(dlogit)
        dfmap = self.lstm.backward(dz[:, :LSTM_UNITS])
        dfmap = self.dropout.backward(dfmap)
        demb = self.conv.backward(dfmap)
        self.embedding.backward(demb)


class FeatureHeadModel:
    """The network of a variant without a text path: scaled features ->
    dense ReLU -> sigmoid head."""

    def __init__(self, feature_dim: int, rng: np.random.Generator):
        self.hidden = DenseLayer(feature_dim, FEATURE_HIDDEN, rng=rng)
        self.head = DenseHead(FEATURE_HIDDEN, rng)

    def layers(self):
        return [self.hidden, self.head]

    def forward(self, ids, feats: np.ndarray, train: bool, rng=None) -> np.ndarray:
        return self.head.forward(self.hidden.forward(feats))

    def backward_logit(self, dlogit: np.ndarray) -> None:
        self.hidden.backward(self.head.backward_logit(dlogit))


@dataclass
class TrainedModel:
    model: object
    vocab: Vocabulary | None
    scaler: FeatureScaler | None
    extended: ExtendedFeaturizer | None
    extractor: FeatureExtractor
    config: TrainConfig
    history: list[tuple[float, float]]
    best_epoch: int
    fit_doc_ids: tuple[str, ...]

    @property
    def variant(self) -> str:
        return self.config.variant


def _build_net(vocab: Vocabulary | None, scaler: FeatureScaler | None, rng: np.random.Generator):
    """The network for what was fitted: a text pipeline when there is a
    vocabulary, widened by the scaled features when there is a scaler.

    Its parameters are then moved into one flat float64 array, `net.params`,
    and its gradients into another, `net.grads`, layer by layer in
    `layers()` order; each layer's `params[name]` and `grads[name]` become
    views into them.
    """
    feature_dim = 0 if scaler is None else scaler.n_features
    if vocab is None:
        net = FeatureHeadModel(feature_dim, rng)
    else:
        net = TextPipelineModel(vocab.size, feature_dim, rng)
    layers = net.layers()
    net.params = np.concatenate([p.reshape(-1) for layer in layers for p in layer.params.values()])
    net.grads = np.zeros_like(net.params)
    start = 0
    for layer in layers:
        for name, p in layer.params.items():
            end = start + p.size
            layer.params[name] = net.params[start:end].reshape(p.shape)
            layer.grads[name] = net.grads[start:end].reshape(p.shape)
            start = end
    return net


def _encode_batch(model: TrainedModel, docs: Sequence[Document]) -> np.ndarray | None:
    if model.vocab is None:
        return None
    max_len = model.config.max_seq_len
    rows = [model.vocab.encode(d.tokens, max_len) for d in docs]
    return np.array(rows, dtype=np.int64).reshape(len(rows), max_len)


def _feature_batch(model: TrainedModel, docs: Sequence[Document]) -> np.ndarray | None:
    if model.scaler is None:
        return None
    raw = model.extractor.matrix(docs)
    if model.extended is not None:
        raw = np.hstack([raw, model.extended.matrix(docs)])
    return model.scaler.transform(raw)


def predict_scores(model: TrainedModel, docs: Sequence[Document]) -> np.ndarray:
    """Vectorized eval-mode scoring (dropout is the identity)."""
    return _eval_forward(model.model, _encode_batch(model, docs), _feature_batch(model, docs), model.config.batch_size)


def _eval_forward(net, ids: np.ndarray | None, feats: np.ndarray | None, size: int) -> np.ndarray:
    """Eval-mode probabilities, `size` rows at a time.

    The conv and the LSTM keep nothing after an eval forward, and the LSTM
    holds one step of state whatever the length, so a chunk's largest arrays
    are its embeddings and conv output; memory is bounded by `size` times
    the longest row, however many rows there are.

    Rows with token ids run in a stable order of their length, so each
    chunk, trimmed to its own longest row, holds rows of about one length
    and little padding (the sequence bucketing of Khomenko et al.,
    arXiv:1708.05604); each chunk's probabilities go back to its rows'
    input positions. Rows without ids run in input order.
    """
    n = len(ids if feats is None else feats)
    order = np.arange(n) if ids is None else np.argsort(np.count_nonzero(ids != PAD_INDEX, axis=1), kind="stable")
    out = np.empty(n)
    for start in range(0, n, size):
        rows = order[start : start + size]
        out[rows] = net.forward(
            None if ids is None else ids[rows],
            None if feats is None else feats[rows],
            train=False,
        )
    return out


def train(
    docs: Sequence[Document],
    config: TrainConfig,
    extractor: FeatureExtractor | None = None,
) -> TrainedModel:
    """Train one variant on fold-train documents.

    Carves off a stratified validation split, fits vocabulary/scaler/bigrams
    on the remaining rows only, runs mini-batch Adam on binary cross-entropy,
    and (when early stopping is enabled) restores the parameters of the best
    validation epoch.
    """
    config.validate()
    docs = list(docs)
    if not docs:
        raise EmptyTrainingSetError("training set is empty")
    counts = Counter(d.label for d in docs)
    for label in (0, 1):
        if counts[label] < 2:  # one row to train on and one to validate
            raise SingleClassTrainingSetError(
                f"training set has {counts[label]} documents of class {label}; each class needs at least 2"
            )
    extractor = extractor or FeatureExtractor()

    rng = np.random.default_rng(np.random.SeedSequence(config.seed))
    train_docs, val_docs = _stratified_val_split(docs, rng)

    spec = VARIANT_SPECS[config.variant]
    vocab = scaler = extended = None
    if spec.text:
        vocab = Vocabulary.build([d.tokens for d in train_docs])
    if spec.features:
        raw = extractor.matrix(train_docs)
        if spec.extended:
            extended = ExtendedFeaturizer.fit(train_docs, extractor)
            raw = np.hstack([raw, extended.matrix(train_docs)])
        scaler = FeatureScaler.fit(raw)

    net = _build_net(vocab, scaler, rng)
    model = TrainedModel(
        model=net,
        vocab=vocab,
        scaler=scaler,
        extended=extended,
        extractor=extractor,
        config=config,
        history=[],
        best_epoch=-1,
        fit_doc_ids=tuple(d.id for d in train_docs),
    )

    ids_train = _encode_batch(model, train_docs)
    feats_train = _feature_batch(model, train_docs)
    y_train = np.array([d.label for d in train_docs], dtype=np.float64)
    ids_val = _encode_batch(model, val_docs)
    feats_val = _feature_batch(model, val_docs)
    y_val = np.array([d.label for d in val_docs], dtype=np.float64)

    params, grads = net.params, net.grads
    adam = AdamState(params)
    n = len(train_docs)
    stopper = EarlyStopper(config.early_stop_patience)
    best_params: np.ndarray | None = None

    for epoch in range(1, config.epochs + 1):
        order = rng.permutation(n)
        loss_sum = 0.0
        for start in range(0, n, config.batch_size):
            idx = order[start : start + config.batch_size]
            batch_ids = None if ids_train is None else ids_train[idx]
            batch_feats = None if feats_train is None else feats_train[idx]
            y = y_train[idx]
            p = net.forward(batch_ids, batch_feats, train=True, rng=rng)
            loss_sum += bce_loss(p, y) * len(idx)
            grads.fill(0.0)
            net.backward_logit((p - y) / len(idx))
            adam_step(params, grads, adam, config.learning_rate)
        train_loss = loss_sum / n
        val_loss = bce_loss(_eval_forward(net, ids_val, feats_val, config.batch_size), y_val)
        model.history.append((train_loss, val_loss))
        if config.progress:
            print(f"epoch={epoch} train_loss={train_loss:.6f} val_loss={val_loss:.6f}")
        stop = stopper.update(epoch, val_loss)
        if stopper.improved:
            best_params = params.copy()
        if stop:
            break

    if config.early_stop_patience > 0 and best_params is not None:
        params[...] = best_params
        model.best_epoch = stopper.best_epoch
    else:
        model.best_epoch = len(model.history)
    return model


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

CHECKPOINT_VERSION = 5  # 5: the parameters are one flat array


def config_digest(config: TrainConfig) -> str:
    return hashlib.sha256(
        json.dumps(asdict(config), sort_keys=True).encode("utf-8")
    ).hexdigest()


def save_model(model: TrainedModel, path) -> None:
    """Write a versioned JSON checkpoint; the flat parameter array
    round-trips bit-exactly as base64 of little-endian float64."""
    payload = {
        "format_version": CHECKPOINT_VERSION,
        "config": asdict(model.config),
        "config_hash": config_digest(model.config),
        "vocab": model.vocab.token_to_id if model.vocab else None,
        "scaler": (
            {"mins": model.scaler.mins.tolist(), "maxs": model.scaler.maxs.tolist()}
            if model.scaler
            else None
        ),
        "extended_bigrams": (
            [list(bg) for bg in model.extended.bigrams] if model.extended else None
        ),
        "history": model.history,
        "best_epoch": model.best_epoch,
        "fit_doc_ids": list(model.fit_doc_ids),
        "params": base64.b64encode(model.model.params.astype("<f8", copy=False).tobytes()).decode("ascii"),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


def load_model(path, extractor: FeatureExtractor | None = None) -> TrainedModel:
    """Rebuild a TrainedModel from a checkpoint written by save_model."""
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    if payload.get("format_version") != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {payload.get('format_version')}")
    config = TrainConfig(**payload["config"])
    if config_digest(config) != payload["config_hash"]:
        raise ValueError("checkpoint config hash mismatch")
    extractor = extractor or FeatureExtractor()
    vocab = Vocabulary(payload["vocab"]) if payload["vocab"] is not None else None
    scaler = None
    if payload["scaler"] is not None:
        scaler = FeatureScaler(
            mins=np.array(payload["scaler"]["mins"], dtype=np.float64),
            maxs=np.array(payload["scaler"]["maxs"], dtype=np.float64),
        )
    extended = None
    if payload["extended_bigrams"] is not None:
        extended = ExtendedFeaturizer(
            bigrams=tuple(tuple(bg) for bg in payload["extended_bigrams"]),
            extractor=extractor,
        )
    model = TrainedModel(
        model=_build_net(vocab, scaler, np.random.default_rng(0)),
        vocab=vocab,
        scaler=scaler,
        extended=extended,
        extractor=extractor,
        config=config,
        history=[tuple(h) for h in payload["history"]],
        best_epoch=payload["best_epoch"],
        fit_doc_ids=tuple(payload["fit_doc_ids"]),
    )
    params = np.frombuffer(base64.b64decode(payload["params"]), dtype="<f8")
    if params.size != model.model.params.size:
        raise ValueError(
            f"checkpoint holds {params.size} parameters, the model it describes has {model.model.params.size}"
        )
    model.model.params[...] = params
    return model

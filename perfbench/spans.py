"""Span tracer for `elmdetect`, installed from outside the package.

`Tracer.install` replaces the public functions and layer methods listed in
TARGETS with wrappers that record one span per call: name, start, end and
the index of the enclosing span. Module-level functions are replaced in
every `elmdetect` module that imported them by name, so calls through
`from .x import f` are seen too. `uninstall` restores the originals, so the
untraced runs execute the program's own code. Spans are held in memory and
written out by `dump` when the benchmark ends.

A target that no longer exists (a renamed function, say) is skipped with a
note; the metrics built on it are then absent and the run goes on.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import sys
import time
from collections import Counter, defaultdict

import numpy as np

# (span name, module, attribute); "Class.method" names a method.
TARGETS = (
    ("corpus.load_dataset", "elmdetect.corpus", "load_dataset"),
    ("corpus.stratified_folds", "elmdetect.corpus", "stratified_folds"),
    ("textstats.tokenize", "elmdetect.textstats", "tokenize"),
    ("features.matrix", "elmdetect.features", "FeatureExtractor.matrix"),
    ("features.extended", "elmdetect.features", "ExtendedFeaturizer.fit"),
    ("features.extended", "elmdetect.features", "ExtendedFeaturizer.matrix"),
    ("training.train", "elmdetect.training", "train"),
    ("training.predict", "elmdetect.training", "predict_scores"),
    ("training.vocab", "elmdetect.training", "Vocabulary.build"),
    ("training.encode", "elmdetect.training", "Vocabulary.encode"),
    ("training.adam", "elmdetect.training", "adam_step"),
    ("training.load_model", "elmdetect.training", "load_model"),
    ("network.embedding.fwd", "elmdetect.network", "EmbeddingTable.forward"),
    ("network.embedding.bwd", "elmdetect.network", "EmbeddingTable.backward"),
    ("network.conv.fwd", "elmdetect.network", "ConvLayer.forward"),
    ("network.conv.bwd", "elmdetect.network", "ConvLayer.backward"),
    ("network.lstm.fwd", "elmdetect.network", "LstmLayer.forward"),
    ("network.lstm.bwd", "elmdetect.network", "LstmLayer.backward"),
    ("network.dropout", "elmdetect.network", "DropoutLayer.forward"),
    ("network.dropout", "elmdetect.network", "DropoutLayer.backward"),
    ("network.head", "elmdetect.network", "DenseHead.forward"),
    ("network.head", "elmdetect.network", "DenseHead.backward"),
    ("network.head", "elmdetect.network", "DenseHead.backward_logit"),
    ("network.dense", "elmdetect.network", "DenseLayer.forward"),
    ("network.dense", "elmdetect.network", "DenseLayer.backward"),
    ("evaluation.cross_validate", "elmdetect.evaluation", "cross_validate"),
    ("evaluation.roc", "elmdetect.evaluation", "roc_curve"),
    ("significance", "elmdetect.significance", "wilcoxon_signed_rank"),
    ("significance", "elmdetect.significance", "paired_t_test"),
    ("cli.artifacts", "elmdetect.cli", "_write_run_outputs"),
    ("cli.plot", "elmdetect.cli", "cmd_plot"),
    ("cli.verify", "elmdetect.cli", "cmd_verify"),
    ("plots.render", "elmdetect.plots", "render_roc_svg"),
    ("plots.render", "elmdetect.plots", "render_improvement_svg"),
)


def _count_ids(counts: Counter, args, result) -> None:
    ids = np.asarray(args[1])
    pad = sys.modules["elmdetect.network"].PAD_INDEX
    counts["embedding_ids"] += ids.size
    counts["embedding_pad_ids"] += int(np.count_nonzero(ids == pad))


def _count_rows(counts: Counter, args, result) -> None:
    counts["feature_rows"] += len(args[1])


def _count_epochs(counts: Counter, args, result) -> None:
    counts["epochs"] += len(result.history)


# Counters read at the same boundaries as the spans, by traced attribute
HOOKS = {
    "EmbeddingTable.forward": _count_ids,
    "FeatureExtractor.matrix": _count_rows,
    "train": _count_epochs,
}


class Tracer:
    """Holds the spans, call counts, error counts and counters of one traced
    stretch of work."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.calls: Counter = Counter()
        self.errors: Counter = Counter()
        self.counts: Counter = Counter()
        self.notes: list[str] = []
        self.installed: set[str] = set()  # names of the spans in place
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        self.calls[name] += 1
        self.spans[idx][1] = time.perf_counter()
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself; yields its index."""
        idx = self._open(name)
        try:
            yield idx
        finally:
            self._close(idx)

    def _wrap(self, name: str, fn, hook):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.errors[name] += 1
                raise
            finally:
                tracer._close(idx)
            if hook is not None:
                try:
                    hook(tracer.counts, args, result)
                except (AttributeError, IndexError, TypeError, ValueError) as exc:
                    tracer._note(f"counter on {name} failed: {exc!r}")
            return result

        return traced

    def _note(self, text: str) -> None:
        if text not in self.notes:
            self.notes.append(text)

    # -- patching -------------------------------------------------------------

    def install(self) -> None:
        for name, module_name, attr in TARGETS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self._note(f"{module_name} not importable; {name} not traced")
                continue
            hook = HOOKS.get(attr)
            owner_name, _, member = attr.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name, None)
                raw = vars(owner).get(member) if inspect.isclass(owner) else None
                if raw is None:
                    self._note(f"{module_name}.{attr} not found; {name} not traced")
                    continue
                if isinstance(raw, (classmethod, staticmethod)):
                    new = type(raw)(self._wrap(name, raw.__func__, hook))
                else:
                    new = self._wrap(name, raw, hook)
                self._patch(owner, member, raw, new)
                self.installed.add(name)
                continue
            fn = getattr(module, attr, None)
            if fn is None:
                self._note(f"{module_name}.{attr} not found; {name} not traced")
                continue
            new = self._wrap(name, fn, hook)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name != "elmdetect" and not mod_name.startswith("elmdetect."):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._patch(mod, key, fn, new)
            self.installed.add(name)

    def _patch(self, owner, attr: str, old, new) -> None:
        self._patches.append((owner, attr, old))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, old = self._patches.pop()
            setattr(owner, attr, old)

    # -- aggregation ----------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, each span's duration less its children's."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _) in enumerate(self.spans):
            out[name] += end - start - child[i]
        return dict(out)

    def child_time(self, idx: int) -> float:
        """Seconds covered by the direct children of span idx."""
        return sum(end - start for _, start, end, parent in self.spans if parent == idx)

    def duration(self, idx: int) -> float:
        return self.spans[idx][2] - self.spans[idx][1]

    def dump(self, path) -> None:
        t0 = self.spans[0][1] if self.spans else 0.0
        payload = {
            "columns": ["name", "start_s", "duration_s", "parent"],
            "spans": [[n, s - t0, e - s, p] for n, s, e, p in self.spans],
            "calls": dict(self.calls),
            "errors": dict(self.errors),
            "counts": dict(self.counts),
            "notes": self.notes,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)

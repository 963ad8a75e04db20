"""Command-line entry point: run, plot, verify.

Exit codes: 0 success, 2 input error, 3 training/evaluation failure.
Every output file is stamped with the run's config hash, which covers the
dataset files' contents, and with its global seed. All commands are
deterministic given identical inputs and flags (report.json carries the only
timestamp).

`_render` is the only code that knows what a run directory holds: the fold
assignments, the unscaled ELM features of every document, the per-fold
metrics, scores, confusion counts and ROC points, report.json with the
corpus facts, and the plots. Any other file in the directory whose first
line is a stamp is left from an earlier run: `run` deletes it before writing
what `_render` returns, and `verify` names it. `verify` rebuilds the report
from the dataset, the lexicons and the stored scores, renders it again and
compares every file byte for byte; `plot` redraws the SVGs the same way.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import sys
import time
from dataclasses import dataclass, fields
from pathlib import Path

from .corpus import SOURCE_FAKE, SOURCE_TRUE, DocumentSet, FoldPlan, load_dataset, stratified_folds
from .errors import ElmDetectError
from .evaluation import METRIC_NAMES, FoldResult, auc, build_report, cross_validate, evaluate_fold, roc_curve
from .features import FEATURE_NAMES, FeatureExtractor
from .plots import render_improvement_svg, render_roc_svg
from .textstats import load_lexicon
from .training import TrainConfig, VARIANTS

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_TRAINING = 3

REPORT_SCHEMA_VERSION = 2

DATASET_FIELDS = ("true_csv", "fake_csv")
UNHASHED_FIELDS = ("out_dir", "emit_plots")  # where the outputs go and whether plots are drawn


@dataclass(frozen=True)
class RunConfig:
    """Everything that determines a run's outputs (except the clock)."""

    true_csv: str
    fake_csv: str
    k: int = 10
    seed: int = 42
    variants: tuple[str, ...] = ("base", "enhanced")
    out_dir: str = "out"
    sentiment_lexicon: str | None = None
    urgency_lexicon: str | None = None
    epochs: int = TrainConfig.epochs
    patience: int = TrainConfig.early_stop_patience
    max_seq_len: int = TrainConfig.max_seq_len
    batch_size: int = TrainConfig.batch_size
    learning_rate: float = TrainConfig.learning_rate
    emit_plots: bool = False

    def hashed_fields(self) -> dict:
        """The fields that determine the outputs: all but where they are
        written and whether plots are drawn, plus `dataset_sha256`, the
        sha256 of each dataset file's bytes. report.json embeds them."""
        values = {f.name: getattr(self, f.name) for f in fields(self) if f.name not in UNHASHED_FIELDS}
        values["dataset_sha256"] = {name: _file_sha256(getattr(self, name)) for name in DATASET_FIELDS}
        return values

    def train_config(self, variant: str) -> TrainConfig:
        return TrainConfig(
            variant=variant,
            epochs=self.epochs,
            batch_size=self.batch_size,
            learning_rate=self.learning_rate,
            early_stop_patience=self.patience,
            seed=self.seed,
            max_seq_len=self.max_seq_len,
        )


_DEFAULTS = {f.name: f.default for f in fields(RunConfig)}


def _file_sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _config_hash(hashed_fields: dict) -> str:
    return hashlib.sha256(json.dumps(hashed_fields, sort_keys=True).encode("utf-8")).hexdigest()


def _extractor(cfg: RunConfig) -> FeatureExtractor:
    sentiment = load_lexicon(cfg.sentiment_lexicon) if cfg.sentiment_lexicon else None
    urgency = load_lexicon(cfg.urgency_lexicon) if cfg.urgency_lexicon else None
    return FeatureExtractor(sentiment=sentiment, urgency=urgency)


def _stamp(cfg_hash: str, seed: int) -> str:
    return f"# config_hash={cfg_hash} seed={seed}"


def _csv_text(stamp: str, header: list[str], rows) -> str:
    buf = io.StringIO()
    buf.write(stamp + "\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _write(path: Path, text: str) -> None:
    path.write_text(text, encoding="utf-8", newline="")


def _stamped(path: Path) -> bool:
    """Whether the first line is a run's stamp: `# config_hash=...` in a CSV,
    `<!-- config_hash=...` in an SVG; reads at most 32 characters."""
    with open(path, encoding="utf-8", errors="replace") as fh:
        return fh.readline(32).startswith(("# config_hash=", "<!-- config_hash="))


def _stamped_files(out: Path) -> list[Path]:
    """The CSVs and SVGs of a run in out, this one's or an earlier one's."""
    return sorted(path for path in out.iterdir() if path.is_file() and _stamped(path))


# -- subcommands ----------------------------------------------------------------


def cmd_run(args) -> int:
    cfg = _run_config(args)
    corpus = load_dataset(cfg.true_csv, cfg.fake_csv)
    hashed = cfg.hashed_fields()  # of the dataset as loaded, not as it is when training ends
    extractor = _extractor(cfg)
    plan = stratified_folds(corpus, cfg.k, cfg.seed)
    configs = [cfg.train_config(v) for v in cfg.variants]
    try:
        results = cross_validate(corpus, plan, configs, extractor=extractor)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_TRAINING
    report = build_report(results, plan.k)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_run_outputs(cfg, hashed, corpus, extractor, plan, results, report, out)
    _print_tables(report)
    return EXIT_OK


def _write_run_outputs(
    cfg: RunConfig, hashed: dict, corpus: DocumentSet, extractor: FeatureExtractor, plan: FoldPlan,
    results: list[FoldResult], report: dict, out: Path,
) -> None:
    """Write the run's files to out, first deleting the stamped files of an
    earlier run that this one does not write (fewer variants, or no plots)."""
    generated_at = time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime())
    files = _render(hashed, corpus, extractor, plan, results, report, generated_at, cfg.emit_plots)
    for path in _stamped_files(out):
        if path.name not in files:
            path.unlink()
    for name, text in files.items():
        _write(out / name, text)


def _render(
    hashed: dict, corpus: DocumentSet, extractor: FeatureExtractor, plan: FoldPlan, results: list[FoldResult],
    report: dict, generated_at: str, plots: bool,
) -> dict[str, str]:
    """The text of every file of a run directory, by name: the CSVs,
    features.csv among them, report.json and, with plots, roc.svg and
    improvement.svg. hashed is the run's `hashed_fields()` and report
    `build_report(results, k)`; report.json is report plus the envelope,
    which holds the corpus facts."""
    cfg_hash, seed = _config_hash(hashed), hashed["seed"]
    stamp = _stamp(cfg_hash, seed)
    files = {
        "fold_assignments.csv": _csv_text(
            stamp, ["doc_id", "fold"], ((doc.id, fold) for doc, fold in zip(corpus, plan.assignments))
        ),
        "features.csv": _csv_text(
            stamp,
            ["doc_id", "label", *FEATURE_NAMES],
            ([doc.id, doc.label, *map(repr, extractor.elm(doc))] for doc in corpus),
        ),
        "folds.csv": _csv_text(
            stamp,
            ["fold", "variant", "acc", "prec", "rec", "f1", "auc"],
            ([r.fold, r.variant, *map(repr, r.metrics.values())] for r in results),
        ),
    }
    curves = {}
    for variant in report["variants"]:
        rows = [r for r in results if r.variant == variant]
        for r in rows:
            files[f"scores_{variant}_{r.fold}.csv"] = _csv_text(
                stamp, ["doc_id", "score", "label"], ((d, repr(s), y) for d, s, y in zip(r.doc_ids, r.scores, r.labels))
            )
        files[f"confusion_{variant}.csv"] = _csv_text(
            stamp, ["fold", "tp", "tn", "fp", "fn"], ([r.fold, *r.confusion.values()] for r in rows)
        )
        # pooled out-of-fold scores give one ROC per variant, labelled with its own AUC
        fpr, tpr, thresholds = roc_curve([s for r in rows for s in r.scores], [y for r in rows for y in r.labels])
        files[f"roc_{variant}.csv"] = _csv_text(
            stamp, ["fpr", "tpr", "threshold"], (map(repr, row) for row in zip(fpr, tpr, thresholds))
        )
        curves[variant] = (fpr, tpr, auc((fpr, tpr, thresholds)))
    n_true, n_fake = corpus.class_counts
    payload = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "config_hash": cfg_hash,
        "seed": seed,
        "generated_at": generated_at,
        "config": hashed,
        "corpus": {
            "class_counts": {SOURCE_TRUE: n_true, SOURCE_FAKE: n_fake},
            "dropped_rows": corpus.dropped_rows,
            "empty_after_cleaning": sum(doc.empty_after_cleaning for doc in corpus),
            "fold_sizes": [plan.assignments.count(fold) for fold in range(plan.k)],
        },
        **report,
    }
    files["report.json"] = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if plots:
        comment = f"<!-- config_hash={cfg_hash} seed={seed} -->\n"
        # without base, or with base alone, every variant is drawn at zero
        deltas = report["deltas"] or {v: dict.fromkeys(METRIC_NAMES, 0.0) for v in report["variants"]}
        files["roc.svg"] = comment + render_roc_svg(curves)
        files["improvement.svg"] = comment + render_improvement_svg(METRIC_NAMES, deltas)
    return files


def _print_tables(report: dict) -> None:
    variants, mean, deltas = report["variants"], report["mean_metrics"], report["deltas"]
    reference = report["reference_results"]
    print()
    header = ["metric", *variants, *(f"d({v}-base)" for v in deltas)]
    widths = [max(10, len(h) + 2) for h in header]
    print("".join(h.ljust(w) for h, w in zip(header, widths)))
    for name in METRIC_NAMES:
        cells = [name, *(f"{mean[v][name]:.4f}" for v in variants), *(f"{d[name]:+.4f}" for d in deltas.values())]
        print("".join(c.ljust(w) for c, w in zip(cells, widths)))
    if reference:
        print("\npublished reference (COVID19-FNIR) vs this run:")
        header = ["metric", *(f"{v} ref/run" for v in reference)]
        widths = [max(12, len(h) + 2) for h in header]
        print("".join(h.ljust(w) for h, w in zip(header, widths)))
        for name in METRIC_NAMES:
            cells = [name, *(f"{ref[name]:.4f}/{mean[v][name]:.4f}" for v, ref in reference.items())]
            print("".join(c.ljust(w) for c, w in zip(cells, widths)))
    for variant, sig in report["significance"].items():
        print(f"\nsignificance {variant} vs base: " + ", ".join(f"{k}={v}" for k, v in sig.items()))


def cmd_plot(args) -> int:
    out = Path(args.out)
    _, hashed, cfg, generated_at = _read_report(out / "report.json")
    files = _render(hashed, *_rederive(out, cfg), generated_at, plots=True)
    svgs = [name for name in files if name.endswith(".svg")]
    for name in svgs:
        _write(out / name, files[name])
    print("wrote " + " and ".join(str(out / name) for name in svgs))
    return EXIT_OK


def _read_csv(path: Path) -> list[dict[str, str]]:
    with open(path, encoding="utf-8", newline="") as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    return list(csv.DictReader(lines))


def _read_report(path: Path) -> tuple[str, dict, RunConfig, str]:
    """The stored config hash, the embedded hashed fields, the RunConfig
    they hold and the report's timestamp; ValueError says what is
    malformed, a report of another schema version included."""
    if not path.exists():
        raise FileNotFoundError(f"{path} not found; run the 'run' command first")
    try:
        report = json.loads(path.read_text(encoding="utf-8"))
        if report["schema_version"] != REPORT_SCHEMA_VERSION:
            raise ValueError(
                f"schema_version is {report['schema_version']!r}, this elmdetect reads {REPORT_SCHEMA_VERSION}"
            )
        hashed = report["config"]
        config = {name: value for name, value in hashed.items() if name != "dataset_sha256"}
        missing = sorted(set(_DEFAULTS) - set(UNHASHED_FIELDS) - set(config))
        if missing:
            raise ValueError(f"config has no {', '.join(missing)}")
        digests = hashed["dataset_sha256"]
        if not isinstance(digests, dict) or sorted(digests) != sorted(DATASET_FIELDS):
            raise ValueError(f"dataset_sha256 must name {', '.join(DATASET_FIELDS)}")
        return report["config_hash"], hashed, RunConfig(**config), report["generated_at"]
    except KeyError as exc:
        raise ValueError(f"report.json is malformed: missing key {exc}") from None
    except (TypeError, AttributeError, ValueError) as exc:
        raise ValueError(f"report.json is malformed: {exc}") from None


def _rederive(out: Path, cfg: RunConfig) -> tuple[DocumentSet, FeatureExtractor, FoldPlan, list[FoldResult], dict]:
    """The dataset, a feature extractor with the run's lexicons, the fold
    plan, the fold results and the report of the run in out, rebuilt from
    the dataset, the lexicons and the stored scores as `cmd_run` built them.
    ValueError names a dataset or lexicon file that is not there, or a
    scores file that cannot be read, that does not hold its fold's test
    documents and labels in order, or whose scores are not finite numbers."""
    for path in (cfg.true_csv, cfg.fake_csv):  # in the order load_dataset reads them
        if not Path(path).exists():
            raise ValueError(f"dataset file not found: {path}{_resolved_note(path)}")
    for path in (cfg.sentiment_lexicon, cfg.urgency_lexicon):
        if path and not Path(path).exists():
            raise ValueError(f"lexicon file not found: {path}{_resolved_note(path)}")
    corpus = load_dataset(cfg.true_csv, cfg.fake_csv)
    extractor = _extractor(cfg)
    plan = stratified_folds(corpus, cfg.k, cfg.seed)
    results = []
    for fold in range(plan.k):
        test_docs = [corpus[i] for i in plan.test_indices(fold)]
        expected = ([d.id for d in test_docs], [str(d.label) for d in test_docs])
        for variant in cfg.variants:
            name = f"scores_{variant}_{fold}.csv"
            try:
                rows = _read_csv(out / name)
            except (OSError, UnicodeDecodeError, csv.Error) as exc:
                raise ValueError(f"{name}: cannot be read: {exc}") from None
            try:
                doc_ids, labels, scores = ([r[c] for r in rows] for c in ("doc_id", "label", "score"))
            except KeyError as exc:
                raise ValueError(f"{name}: the header has no {exc} column") from None
            if (doc_ids, labels) != expected:
                raise ValueError(f"{name}: its doc ids and labels are not fold {fold}'s test documents")
            try:
                scores = [float(s) for s in scores]
            except (TypeError, ValueError):
                raise ValueError(f"{name}: a score is not a number") from None
            if not all(map(math.isfinite, scores)):
                raise ValueError(f"{name}: a score is not finite")
            results.append(evaluate_fold(fold, variant, doc_ids, scores, [d.label for d in test_docs]))
    return corpus, extractor, plan, results, build_report(results, plan.k)


def _resolved_note(path: str) -> str:
    """Where a relative input path of a run (a dataset or a lexicon) was
    looked for, and why there; empty for an absolute path."""
    if Path(path).is_absolute():
        return ""
    return f" (relative to {Path.cwd()}: 'run' stores input paths as they were given to it)"


def cmd_verify(args) -> int:
    out = Path(args.out)
    try:
        stored_hash, hashed, cfg, generated_at = _read_report(out / "report.json")
    except (OSError, ValueError) as exc:
        print(f"verify: {exc}", file=sys.stderr)
        return EXIT_INPUT
    problems = []
    if _config_hash(hashed) != stored_hash:
        problems.append("report.json config hash does not match its embedded config")
    for name in DATASET_FIELDS:
        path = getattr(cfg, name)
        try:
            digest = _file_sha256(path)
        except OSError as exc:
            problems.append(f"dataset {path} cannot be read: {exc.strerror}{_resolved_note(path)}")
            continue
        if digest != hashed["dataset_sha256"][name]:
            problems.append(f"dataset {path} has changed since the run (its sha256 differs from report.json)")
    # every file, stamp line included, must be what the dataset and the stored scores render to
    if not problems:
        try:
            files = _render(hashed, *_rederive(out, cfg), generated_at, plots=True)
        except (OSError, ValueError, ElmDetectError) as exc:  # a lexicon that is there but does not load
            problems.append(str(exc))
        else:
            # a run without --plots has none of the plots' names, stamped or not
            if not any((out / name).exists() for name in files if name.endswith(".svg")):
                files = {name: text for name, text in files.items() if not name.endswith(".svg")}
            stale = [path.name for path in _stamped_files(out) if path.name not in files]
            problems += [f"{name}: not written by this run" for name in stale]
            for name, text in files.items():
                path = out / name
                if not path.exists():
                    problems.append(f"{name}: not found")
                elif path.read_bytes() != text.encode("utf-8"):
                    problems.append(f"{name} does not match the run re-derived from the dataset and the scores")
    if problems:
        for p in problems:
            print(f"verify: {p}", file=sys.stderr)
        return EXIT_INPUT
    print("verify: all artifacts consistent")
    return EXIT_OK


# -- argument plumbing -----------------------------------------------------------


def _run_config(args) -> RunConfig:
    """The RunConfig of the parsed flags, whose destinations are its field
    names; a flag that a variant cannot train with raises ValueError here."""
    values = {f.name: getattr(args, f.name) for f in fields(RunConfig)}
    values["variants"] = tuple(args.variants.split(","))
    cfg = RunConfig(**values)
    for v in cfg.variants:
        cfg.train_config(v).validate()
    return cfg


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="elmdetect",
        description="Health misinformation detection: dual-route features + CNN-LSTM comparison harness.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="cross-validate the requested variants and write the report")
    d = _DEFAULTS
    p.add_argument("--true-csv", required=True, help="path to the true-news CSV")
    p.add_argument("--fake-csv", required=True, help="path to the fake-news CSV")
    p.add_argument("--k", type=int, default=d["k"], help=f"fold count (default {d['k']})")
    p.add_argument("--seed", type=int, default=d["seed"], help=f"global RNG seed (default {d['seed']})")
    p.add_argument("--out", dest="out_dir", default=d["out_dir"],
                   help=f"output directory (default ./{d['out_dir']})")
    p.add_argument("--variants", default=",".join(d["variants"]),
                   help=f"comma-separated variants ({','.join(VARIANTS)})")
    p.add_argument("--sentiment-lexicon", default=d["sentiment_lexicon"],
                   help="override the bundled sentiment lexicon")
    p.add_argument("--urgency-lexicon", default=d["urgency_lexicon"], help="override the bundled urgency lexicon")
    p.add_argument("--epochs", type=int, default=d["epochs"])
    p.add_argument("--patience", type=int, default=d["patience"], help="early-stop patience; 0 disables")
    p.add_argument("--max-seq-len", type=int, default=d["max_seq_len"])
    p.add_argument("--batch-size", type=int, default=d["batch_size"])
    p.add_argument("--learning-rate", type=float, default=d["learning_rate"])
    p.add_argument("--plots", dest="emit_plots", action="store_true", help="also emit roc.svg / improvement.svg")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("plot", help="redraw roc.svg and improvement.svg of a run from its dataset and scores")
    p.add_argument("--out", default="out", help="run directory to read and write")
    p.set_defaults(func=cmd_plot)

    p = sub.add_parser(
        "verify", help="re-derive every file of a run from its dataset and scores and compare them byte for byte"
    )
    p.add_argument("--out", default="out", help="run directory to verify")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ElmDetectError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())

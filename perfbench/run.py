"""Benchmark of elmdetect's comparison pipeline.

    python3 perfbench/run.py --workload cv_short --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout: it imports `elmdetect` from ./src,
generates its inputs from --seed with perfbench/gen.py, and writes working
files under ./.perfbench_work. Workloads (each closed loop, one invocation
at a time):

  cv_short    `elmdetect run` (all four variants, --plots) then
              `elmdetect verify`, on short posts padded to 100 tokens.
  cv_long     the same on article-length documents truncated at 100 tokens.
  score_bulk  `load_model` plus one `predict_scores` call over a large
              held-out set, with an `enhanced` model trained beforehand on
              a disjoint corpus. Scores of the whole set in one call must
              equal those of its two halves.

--trace 0 times the invocations and prints the end-to-end metrics named in
BENCHMARK.json:

  setup_s      median over fresh processes of import, bundled lexicons and
               ingest plus folds (cv) or load_model plus ingest (score_bulk),
               see perfbench/setup_probe.py; the probes are spread over the
               timed loop, so they sample the same stretch of machine time
  wall_s       median time of one timed invocation: `elmdetect run` (cv) or
               the `predict_scores` call (score_bulk)
  peak_rss_mb  peak resident memory of this process, read when the timed
               loop ends

--trace 1 alternates untraced and traced invocations, wraps the public
functions of every module from outside (perfbench/spans.py), times the
fixed-shape kernels (perfbench/kernels.py) and prints the per-layer metrics,
among them each variant's AUC. The AUCs are deterministic per seed, but with
the few optimiser steps a run can afford they spread too widely across seeds
to carry a bound, so they are per-layer guards rather than end-to-end
metrics.

Every invocation and set-up is checked; one that raises or fails a check
counts as failed. The last line of standard output is the result:
{"correct", "attempted", "failed", "metrics"}. The line before it carries
the environment, every invocation's time and any problems.
"""
from __future__ import annotations

import os

# BLAS thread pools are sized when numpy loads, so cap them first.
NPROC = len(os.sched_getaffinity(0))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(NPROC)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import csv  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

VARIANTS = ("base", "features_only", "enhanced", "combined")
PROGRAM_SEED = 7
K = 3
EPOCHS = 2
# With the default 0.001 a task's four to six Adam steps learn nothing, and
# an AUC that cannot rise cannot show learning that broke.
LEARNING_RATE = 0.05
MIN_REPS = 5  # invocations per run at least; a traced run makes 3 + 3
SETUP_PROBES = 15
# Scores of the same documents in a different batch split may differ only by
# float64 rounding: 1024 units in the last place of 1.0.
SPLIT_TOLERANCE = 1024 * 2.0**-52

WORKLOADS = {
    "cv_short": {"kind": "cv", "docs": 72, "lengths": (8, 16)},
    "cv_long": {"kind": "cv", "docs": 60, "lengths": (100, 200)},
    "score_bulk": {"kind": "score", "train_docs": 200, "docs": 400, "lengths": (8, 16)},
}

CV_FLAGS = (
    "--k", str(K), "--seed", str(PROGRAM_SEED), "--variants", ",".join(VARIANTS),
    "--epochs", str(EPOCHS), "--patience", "0", "--learning-rate", str(LEARNING_RATE), "--plots",
)

# per-layer metric -> span whose self time it reports
SELF_TIME = {
    "corpus.load_dataset_s": "corpus.load_dataset",
    "textstats.tokenize_s": "textstats.tokenize",
    "features.matrix_s": "features.matrix",
    "features.extended_s": "features.extended",
    "training.train_s": "training.train",
    "training.predict_s": "training.predict",
    "training.vocab_s": "training.vocab",
    "training.encode_s": "training.encode",
    "training.adam_s": "training.adam",
    "training.load_model_s": "training.load_model",
    "network.embedding.fwd_s": "network.embedding.fwd",
    "network.embedding.bwd_s": "network.embedding.bwd",
    "network.conv.fwd_s": "network.conv.fwd",
    "network.conv.bwd_s": "network.conv.bwd",
    "network.lstm.fwd_s": "network.lstm.fwd",
    "network.lstm.bwd_s": "network.lstm.bwd",
    "network.dropout_s": "network.dropout",
    "network.head_s": "network.head",
    "network.dense_s": "network.dense",
    "evaluation.cross_validate_s": "evaluation.cross_validate",
    "evaluation.roc_s": "evaluation.roc",
    "significance.s": "significance",
    "cli.artifacts_s": "cli.artifacts",
    "cli.plot_s": "cli.plot",
    "cli.verify_s": "cli.verify",
    "plots.render_s": "plots.render",
}


class Outcome:
    """Attempted and failed invocations, with the reason for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)
        return not problems


def quiet(cli, argv: list[str]) -> int:
    """`elmdetect <argv>` in this process, its table output discarded."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def no_span(name: str):
    return contextlib.nullcontext(-1)


def score_problems(scores, n: int) -> list[str]:
    if len(scores) != n:
        return [f"{len(scores)} scores for {n} documents"]
    if not all(math.isfinite(s) and 0.0 <= s <= 1.0 for s in scores):
        return ["a score is not finite or lies outside [0, 1]"]
    return []


def read_scores(path: Path) -> tuple[bytes, list[str], list[float]]:
    data = path.read_bytes()
    rows = csv.DictReader(line for line in data.decode("utf-8").splitlines() if not line.startswith("#"))
    ids, scores = [], []
    for row in rows:
        ids.append(row["doc_id"])
        scores.append(float(row["score"]))
    return data, ids, scores


def check_cv_outputs(out: Path, n_docs: int) -> tuple[list[str], str, dict[str, float]]:
    """Problems, scores digest and mean per-variant AUC of one run directory."""
    problems: list[str] = []
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    rows = sorted((e["fold"], e["variant"]) for e in report["per_fold"])
    expected = sorted((f, v) for f in range(K) for v in VARIANTS)
    if rows != expected:
        problems.append(f"report has (fold, variant) rows {rows}, expected {expected}")
    digest = hashlib.sha256()
    for v in VARIANTS:
        ids: list[str] = []
        scores: list[float] = []
        for f in range(K):
            path = out / f"scores_{v}_{f}.csv"
            if not path.exists():
                problems.append(f"{path.name} missing")
                continue
            data, fold_ids, fold_scores = read_scores(path)
            digest.update(data)
            ids += fold_ids
            scores += fold_scores
        problems += [f"{v}: {p}" for p in score_problems(scores, n_docs)]
        if len(set(ids)) != n_docs:
            problems.append(f"{v}: out-of-fold scores cover {len(set(ids))} of {n_docs} documents")
    aucs = {v: report["mean_metrics"][v]["roc_auc"] for v in VARIANTS if v in report["mean_metrics"]}
    return problems, digest.hexdigest(), aucs


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def eval_mb_per_doc(predict_scores, model, docs) -> float:
    """Peak memory allocated while scoring docs in one call, per document."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        predict_scores(model, docs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return (peak - base) / len(docs) / 2**20


def layer_metrics(tracer, root: int, n_docs: int) -> dict[str, float]:
    """Per-layer metrics of one traced invocation whose root span is root."""
    installed = tracer.installed
    self_times = tracer.self_times()
    out = {m: self_times.get(span, 0.0) for m, span in SELF_TIME.items() if span in installed}
    calls, counts = tracer.calls, tracer.counts
    if "textstats.tokenize" in installed:
        out["textstats.tokenize_calls_per_doc"] = calls["textstats.tokenize"] / n_docs
    if "features.matrix" in installed:
        out["features.rows_per_doc"] = counts["feature_rows"] / n_docs
    if "training.adam" in installed:
        out["training.adam_calls"] = calls["training.adam"]
    if "training.train" in installed:
        out["training.epochs"] = counts["epochs"]
        out["evaluation.tasks"] = calls["training.train"]
        out["evaluation.tasks_failed"] = tracer.errors["training.train"] + tracer.errors["training.predict"]
    if "network.embedding.fwd" in installed:
        ids = counts["embedding_ids"]
        out["network.pad_frac"] = counts["embedding_pad_ids"] / ids if ids else 0.0
    out["trace.coverage_frac"] = tracer.child_time(root) / tracer.duration(root)
    return out


class Bench:
    """One benchmark run: a workload, a seed, a time budget, a mode."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool):
        self.name = workload
        self.spec = WORKLOADS[workload]
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.work = WORK / f"{workload}-s{seed}-t{int(trace)}"
        self.outcome = Outcome()
        self.notes: list[str] = []
        self.walls: list[float] = []
        self.traced_walls: list[float] = []
        self.layers: list[dict[str, float]] = []
        self.setups: list[float] = []
        self.peak_rss_mb: float | None = None
        self.last_tracer = None

    # -- shared loop ------------------------------------------------------------

    def loop(self, invoke, setup_args: list[str]) -> None:
        """Call invoke(tracer) until the time budget is spent; in trace mode
        every second invocation is traced. Untraced, set-up probes with
        setup_args follow the invocations, SETUP_PROBES of them spread
        evenly over the budget, after one warm-up probe."""
        from spans import Tracer

        probing = not self.trace
        if probing:
            self.setup_probe(setup_args)
            self.setups.clear()
        probes = 0
        start = time.perf_counter()
        deadline = start + self.seconds
        # on a machine slowed this much, stop short of MIN_REPS rather than
        # run past the time a run may take
        cutoff = start + 2 * self.seconds
        i = 0
        min_reps = MIN_REPS + 1 if self.trace else MIN_REPS
        while (i < min_reps and time.perf_counter() < cutoff) or time.perf_counter() < deadline:
            tracer = None
            if self.trace and i % 2 == 1:
                tracer = Tracer()
                tracer.install()
            try:
                wall, root, problems = invoke(tracer)
            except Exception:
                wall, root, problems = None, -1, [traceback.format_exc(limit=5)]
            finally:
                if tracer is not None:
                    tracer.uninstall()
            ok = self.outcome.record(problems)
            if ok and tracer is None:
                self.walls.append(wall)
            elif ok:
                self.traced_walls.append(wall)
                self.layers.append(layer_metrics(tracer, root, self.spec["docs"]))
                self.last_tracer = tracer
                for note in tracer.notes:
                    self.note(note)
            i += 1
            due = min(SETUP_PROBES, math.ceil(SETUP_PROBES * (time.perf_counter() - start) / self.seconds))
            while probing and probes < due:
                self.setup_probe(setup_args)
                probes += 1
        while probing and probes < SETUP_PROBES:
            self.setup_probe(setup_args)
            probes += 1
        self.peak_rss_mb = peak_rss_mb()

    def setup_probe(self, args: list[str]) -> None:
        """One cold set-up in a fresh process; see setup_probe.py."""
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "setup_probe.py"), "--src", str(SRC), *args],
                capture_output=True, text=True, timeout=30, check=False,
            )
        except subprocess.TimeoutExpired:
            self.outcome.record(["set-up probe did not finish in 30 s"])
            return
        problems = [] if proc.returncode == 0 else [f"set-up probe exited {proc.returncode}: {proc.stderr[-500:]}"]
        if self.outcome.record(problems):
            self.setups.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])

    def note(self, text: str) -> None:
        if text not in self.notes:
            self.notes.append(text)

    # -- cross-validation workloads -----------------------------------------------

    def run_cv(self) -> dict[str, float]:
        import gen
        from elmdetect import cli

        n = self.spec["docs"]
        true_csv, fake_csv = gen.write_corpus(self.work / "corpus", self.seed, n, *self.spec["lengths"])
        flags = ["--true-csv", str(true_csv), "--fake-csv", str(fake_csv)]
        first: dict = {}
        count = [0]

        def invoke(tracer):
            span = tracer.span if tracer else no_span
            out = self.work / f"rep{count[0]}"
            count[0] += 1
            with span("bench.run") as root:
                t0 = time.perf_counter()
                rc = quiet(cli, ["run", *flags, "--out", str(out), *CV_FLAGS])
                wall = time.perf_counter() - t0
            if rc != 0:
                return wall, root, [f"elmdetect run exited {rc}"]
            with span("bench.verify"):
                rc = quiet(cli, ["verify", "--out", str(out)])
            problems = [] if rc == 0 else [f"elmdetect verify exited {rc}"]
            found, digest, aucs = check_cv_outputs(out, n)
            problems += found
            first.setdefault("digest", digest)
            first.setdefault("aucs", aucs)
            if digest != first["digest"]:
                problems.append("scores differ from the first invocation's")
            if tracer is not None:
                epochs = tracer.counts["epochs"]
                if epochs != K * len(VARIANTS) * EPOCHS:
                    problems.append(f"trained {epochs} epochs, expected {K * len(VARIANTS) * EPOCHS}")
            shutil.rmtree(out)
            return wall, root, problems

        self.loop(invoke, [*flags, "--k", str(K), "--seed", str(PROGRAM_SEED)])
        if self.trace:
            metrics = self.cv_eval_memory(true_csv, fake_csv)
            metrics.update({f"evaluation.auc_{v}": value for v, value in first.get("aucs", {}).items()})
            return metrics
        return self.end_to_end()

    def cv_eval_memory(self, true_csv, fake_csv) -> dict[str, float]:
        """Eval memory of an `enhanced` model trained for one epoch on the corpus."""
        from elmdetect import TrainConfig, load_dataset, train
        from elmdetect.training import predict_scores

        docs = list(load_dataset(true_csv, fake_csv))
        model = train(docs, TrainConfig(variant="enhanced", epochs=1, progress=False))
        return {"network.eval_mb_per_doc": eval_mb_per_doc(predict_scores, model, docs)}

    # -- scoring workload -----------------------------------------------------------

    def run_score(self) -> dict[str, float]:
        import gen
        from elmdetect import TrainConfig, auc, corpus, roc_curve, save_model, train, training

        lengths = self.spec["lengths"]
        n = self.spec["docs"]
        fit_csvs = gen.write_corpus(self.work / "fit", self.seed, self.spec["train_docs"], *lengths, stream=1)
        true_csv, fake_csv = gen.write_corpus(self.work / "score", self.seed, n, *lengths, stream=2)
        fit_docs = list(corpus.load_dataset(*fit_csvs))
        paths = {}
        # the traced run also reports every variant's AUC on the scored set
        for v in VARIANTS if self.trace else ("enhanced",):
            cfg = TrainConfig(variant=v, epochs=EPOCHS, learning_rate=LEARNING_RATE, early_stop_patience=0,
                              seed=PROGRAM_SEED, progress=False)
            paths[v] = self.work / f"model_{v}.json"
            save_model(train(fit_docs, cfg), paths[v])

        docs = list(corpus.load_dataset(true_csv, fake_csv))
        model = training.load_model(paths["enhanced"])
        half = n // 2
        split = [*training.predict_scores(model, docs[:half]), *training.predict_scores(model, docs[half:])]
        first: dict = {}

        def invoke(tracer):
            span = tracer.span if tracer else no_span
            # module attributes, looked up per call, so that the tracer sees them
            with span("bench.score") as root:
                model = training.load_model(paths["enhanced"])
                docs = list(corpus.load_dataset(true_csv, fake_csv))
                t0 = time.perf_counter()
                scores = training.predict_scores(model, docs)
                wall = time.perf_counter() - t0
            scores = [float(s) for s in scores]
            problems = score_problems(scores, n)
            digest = hashlib.sha256(repr(scores).encode("ascii")).hexdigest()
            if "scores" not in first:
                first.update(scores=scores, digest=digest)
                worst = max(abs(a - b) for a, b in zip(scores, split))
                if worst > SPLIT_TOLERANCE:
                    problems.append(f"scores in two halves differ from one call by {worst:.3g}")
            elif digest != first["digest"]:
                problems.append("scores differ from the first invocation's")
            return wall, root, problems

        self.loop(invoke, ["--true-csv", str(true_csv), "--fake-csv", str(fake_csv), "--model", str(paths["enhanced"])])
        if not self.trace:
            return self.end_to_end()
        labels = [d.label for d in docs]
        metrics = {"network.eval_mb_per_doc": eval_mb_per_doc(training.predict_scores, model, docs)}
        for v in VARIANTS if first else ():
            scores = first["scores"] if v == "enhanced" else training.predict_scores(
                training.load_model(paths[v]), docs)
            metrics[f"evaluation.auc_{v}"] = auc(roc_curve(scores, labels))
        return metrics

    def end_to_end(self) -> dict[str, float]:
        return {
            "setup_s": statistics.median(self.setups) if self.setups else None,
            "wall_s": statistics.median(self.walls) if self.walls else None,
            "peak_rss_mb": self.peak_rss_mb,
        }

    # -- run and report ------------------------------------------------------------

    def run(self) -> dict[str, float]:
        if self.work.exists():
            shutil.rmtree(self.work)
        self.work.mkdir(parents=True)
        try:
            metrics = self.run_cv() if self.spec["kind"] == "cv" else self.run_score()
            if self.trace:
                metrics.update(self.trace_metrics())
                if self.last_tracer is not None:
                    self.last_tracer.dump(WORK / f"{self.name}-s{self.seed}.trace.json")
        finally:
            shutil.rmtree(self.work, ignore_errors=True)
        return metrics

    def trace_metrics(self) -> dict[str, float]:
        metrics: dict[str, float] = {}
        names = sorted({m for layer in self.layers for m in layer})
        for m in names:
            metrics[m] = statistics.median([layer[m] for layer in self.layers if m in layer])
        if self.walls and self.traced_walls:
            metrics["trace.overhead_frac"] = statistics.median(self.traced_walls) / statistics.median(self.walls) - 1
        try:
            from kernels import time_kernels

            metrics.update(time_kernels(self.seed))
        except (ImportError, AttributeError, TypeError) as exc:
            self.note(f"fixed-shape kernels not timed: {exc!r}")
        return metrics


def environment() -> dict:
    import numpy as np

    blas = "unknown"
    with contextlib.suppress(Exception):
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info['name']} {info['version']}"
    return {
        "nproc": NPROC,
        "blas": blas,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def declared_metrics(trace: bool) -> dict[str, str]:
    """Metric name -> unit, from BENCHMARK.json at the checkout root."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="Benchmark of the elmdetect comparison pipeline.")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "elmdetect" / "__init__.py").is_file():
        print(f"error: no elmdetect sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    declared = declared_metrics(bool(args.trace))
    sys.path[:0] = [str(SRC), str(HERE)]

    bench = Bench(args.workload, args.seed, args.seconds, bool(args.trace))
    computed = bench.run()
    metrics = {}
    for name, unit in declared.items():
        value = computed.get(name)
        if value is None:
            bench.note(f"metric {name} not measured")
        else:
            metrics[name] = {"value": value, "unit": unit}
    outcome = bench.outcome
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "environment": environment(),
        "invocations": len(bench.walls) + len(bench.traced_walls),
        "walls_s": bench.walls,
        "traced_walls_s": bench.traced_walls,
        "problems": outcome.problems[:20],
        "notes": bench.notes,
    }
    print(json.dumps({"meta": meta}))
    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Round trips through the `elmdetect` subcommands on a tiny corpus."""
import csv
import json
import os
import re
import shutil
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

from elmdetect import FEATURE_NAMES, cli, evaluation, load_dataset
from elmdetect.evaluation import build_report, confusion, metrics
from elmdetect.network import KERNEL_SIZE
from elmdetect.training import TrainConfig
from test_golden import write_corpus

FAST_FLAGS = ["--k", "2", "--seed", "5", "--epochs", "1", "--max-seq-len", "16", "--variants", "base,features_only"]


SRC = Path(__file__).resolve().parents[1] / "src"


def run_cli(*argv, timeout=120):
    """`elmdetect <argv>` in a child process that is killed after `timeout`
    seconds, so a command that hangs fails its test instead of stalling it."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    return subprocess.run(
        [sys.executable, "-m", "elmdetect.cli", *argv], capture_output=True, text=True, timeout=timeout, env=env
    )


def dataset_flags(directory):
    return ["--true-csv", str(directory / "true.csv"), "--fake-csv", str(directory / "fake.csv")]


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("corpus")
    write_corpus(directory, n=24, seed=1)
    return directory


@pytest.fixture(scope="module")
def run_dir(corpus_dir, tmp_path_factory):
    """A completed `run --plots` directory; tests copy it before changing it."""
    out = tmp_path_factory.mktemp("run") / "out"
    assert cli.main(["run", *dataset_flags(corpus_dir), "--out", str(out), *FAST_FLAGS, "--plots"]) == 0
    return out


@pytest.fixture
def run_copy(run_dir, tmp_path):
    out = tmp_path / "out"
    shutil.copytree(run_dir, out)
    return out


def test_run_writes_every_artifact(run_copy):
    names = {p.name for p in run_copy.iterdir()}
    expected = {"report.json", "folds.csv", "fold_assignments.csv", "features.csv", "roc.svg", "improvement.svg"}
    for variant in ("base", "features_only"):
        expected |= {f"confusion_{variant}.csv", f"roc_{variant}.csv"}
        expected |= {f"scores_{variant}_{fold}.csv" for fold in range(2)}
    assert names == expected
    assert cli.main(["verify", "--out", str(run_copy)]) == 0


def test_ingest_features_plot_verify(corpus_dir, run_copy):
    """What the removed `ingest` and `features` subcommands wrote, the corpus
    facts and the feature matrix, comes from `run`; `plot` then `verify`
    accept the directory."""
    corpus = json.loads((run_copy / "report.json").read_text(encoding="utf-8"))["corpus"]
    assert corpus["class_counts"] == {"true_news": 12, "fake_news": 12}
    assert corpus["dropped_rows"] == 0 and sum(corpus["fold_sizes"]) == 24
    _, _, cfg, _ = cli._read_report(run_copy / "report.json")
    extractor = cli._extractor(cfg)
    lines = (run_copy / "features.csv").read_text(encoding="utf-8").splitlines()
    rows = list(csv.reader(ln for ln in lines if not ln.startswith("#")))
    docs = load_dataset(corpus_dir / "true.csv", corpus_dir / "fake.csv")
    assert rows[0] == ["doc_id", "label", *FEATURE_NAMES]
    assert rows[1:] == [[doc.id, str(doc.label), *map(repr, extractor.elm(doc))] for doc in docs]
    for name in ("roc.svg", "improvement.svg"):
        (run_copy / name).unlink()
    assert cli.main(["plot", "--out", str(run_copy)]) == 0
    assert (run_copy / "roc.svg").is_file() and (run_copy / "improvement.svg").is_file()
    assert cli.main(["verify", "--out", str(run_copy)]) == 0


def test_report_json_is_the_envelope_around_build_report_of_the_stored_scores(run_dir):
    stored = json.loads((run_dir / "report.json").read_text(encoding="utf-8"))
    for key in ("schema_version", "config_hash", "seed", "generated_at", "config", "corpus"):
        del stored[key]
    _, _, cfg, _ = cli._read_report(run_dir / "report.json")
    _, _, plan, results, report = cli._rederive(run_dir, cfg)
    assert stored == build_report(results, plan.k) == report


def test_confusion_and_metrics_keys_come_in_the_column_order_of_their_csvs(run_dir):
    def header(name):
        lines = (run_dir / name).read_text(encoding="utf-8").splitlines()
        return next(csv.reader(ln for ln in lines if not ln.startswith("#")))

    folds_columns = {"acc": "accuracy", "prec": "precision", "rec": "recall", "f1": "f1", "auc": "roc_auc"}
    cm = confusion([0.9, 0.6, 0.2], [1, 0, 0])
    assert header("confusion_base.csv") == ["fold", *cm]
    assert header("folds.csv")[:2] == ["fold", "variant"]
    assert [folds_columns[c] for c in header("folds.csv")[2:]] == list(metrics(cm, 0.5))


def test_verify_detects_an_edited_score(run_copy, capsys):
    path = run_copy / "scores_base_0.csv"
    stamp, *rows = path.read_text(encoding="utf-8").splitlines()
    table = list(csv.reader(rows))
    score = float(table[1][1])
    table[1][1] = repr(0.0 if score >= 0.5 else 1.0)  # flips one prediction, so accuracy moves
    path.write_text("\n".join([stamp, *(",".join(r) for r in table)]) + "\n", encoding="utf-8")
    assert cli.main(["verify", "--out", str(run_copy)]) == 2
    err = capsys.readouterr().err
    assert "verify: folds.csv does not match the run re-derived from the dataset and the scores" in err


@pytest.mark.parametrize(
    "damage",
    [
        lambda r: r.pop("config"),
        lambda r: r.pop("config_hash"),
        lambda r: r["config"].pop("true_csv"),
        lambda r: r["config"].pop("seed"),
        lambda r: r["config"].update(jobs=2),
        lambda r: r.update(config=[1, 2]),
        lambda r: r.update(schema_version=1),
        lambda r: r["config"].update(dataset_sha256={"true_csv": r["config"]["dataset_sha256"]["true_csv"]}),
    ],
    ids=["no_config", "no_hash", "no_config_field", "no_defaulted_config_field", "unknown_config_field",
         "config_not_object", "older_schema", "dataset_sha256_of_one_file"],
)
def test_verify_reports_a_malformed_report(run_copy, capsys, damage):
    path = run_copy / "report.json"
    report = json.loads(path.read_text(encoding="utf-8"))
    damage(report)
    path.write_text(json.dumps(report), encoding="utf-8")
    assert cli.main(["verify", "--out", str(run_copy)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("verify: report.json is malformed: ")
    assert "Traceback" not in err


@pytest.fixture(scope="module")
def run3_dir(corpus_dir, tmp_path_factory):
    """A k=3 `run --plots` directory of base and features_only."""
    out = tmp_path_factory.mktemp("run3") / "out"
    flags = [*FAST_FLAGS, "--k", "3", "--plots"]
    assert cli.main(["run", *dataset_flags(corpus_dir), "--out", str(out), *flags]) == 0
    assert cli.main(["verify", "--out", str(out)]) == 0
    return out


def dump_report(report) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def apply_edit(path, change) -> None:
    """change edits report.json as a dict, or a CSV as a table of rows whose
    row 0 is the header; everything else keeps its bytes."""
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".json":
        report = json.loads(text)
        assert dump_report(report) == text
        change(report)
        path.write_text(dump_report(report), encoding="utf-8")
    else:
        stamp, *lines = text.splitlines()
        table = list(csv.reader(lines))
        change(table)
        path.write_text("\n".join([stamp, *(",".join(r) for r in table)]) + "\n", encoding="utf-8")


def set_cell(row, column, value):
    def change(table):
        table[row][column] = value(table[row][column])
    return change


def bump(value) -> str:
    return repr(float(value) + 0.125)


@pytest.mark.parametrize(
    "name, change",
    [
        pytest.param("confusion_base.csv", set_cell(1, 1, lambda v: str(int(v) + 1)), id="confusion_count"),
        pytest.param("roc_base.csv", set_cell(2, 0, bump), id="roc_point"),
        pytest.param("folds.csv", set_cell(1, 2, bump), id="fold_accuracy"),
        pytest.param("fold_assignments.csv", set_cell(1, 1, lambda v: str((int(v) + 1) % 3)), id="moved_document"),
        pytest.param("features.csv", set_cell(1, 2, bump), id="feature_value"),
        pytest.param("report.json", lambda r: r["corpus"].update(dropped_rows=1), id="corpus_dropped_rows"),
        pytest.param("report.json", lambda r: r["mean_metrics"]["base"].update(accuracy=0.9), id="mean_metrics"),
        pytest.param("report.json", lambda r: r["deltas"]["features_only"].update(f1=0.5), id="deltas"),
        pytest.param("report.json", lambda r: r["significance"]["features_only"].update(p_exact_two_sided=0.01),
                     id="significance_p"),
        pytest.param("report.json", lambda r: r["fold_accuracies"]["base"].__setitem__(0, 0.9), id="fold_accuracies"),
        pytest.param("report.json", lambda r: r["per_fold"][0]["confusion"].update(tp=99), id="fold_confusion"),
        pytest.param("report.json", lambda r: r["per_fold"][0]["metrics"].pop("f1"), id="no_fold_metric"),
        pytest.param("report.json", lambda r: r["per_fold"][0]["metrics"].update(f1="high"),
                     id="fold_metric_not_number"),
        pytest.param("scores_base_0.csv", set_cell(1, 0, lambda v: v + "x"), id="renamed_doc_id"),
        pytest.param("scores_base_0.csv", lambda t: t.pop(), id="dropped_score_row"),
        pytest.param("scores_base_0.csv", set_cell(0, 1, lambda v: "points"), id="renamed_score_header"),
    ],
)
def test_verify_detects_a_single_edit(run3_dir, tmp_path, capsys, name, change):
    out = tmp_path / "out"
    shutil.copytree(run3_dir, out)
    apply_edit(out / name, change)
    assert cli.main(["verify", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"verify: {name}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "name, damage, message",
    [
        pytest.param("report.json", lambda p: apply_edit(p, lambda r: r["config"].update(epochs=2)),
                     "report.json config hash does not match its embedded config", id="config_edited"),
        pytest.param("scores_base_0.csv", lambda p: apply_edit(p, set_cell(1, 1, lambda v: "high")),
                     "scores_base_0.csv: a score is not a number", id="score_not_number"),
        pytest.param("scores_base_0.csv", Path.unlink, "scores_base_0.csv: cannot be read: ", id="scores_deleted"),
    ],
)
def test_verify_names_the_check_that_failed(run3_dir, tmp_path, capsys, name, damage, message):
    out = tmp_path / "out"
    shutil.copytree(run3_dir, out)
    damage(out / name)
    assert cli.main(["verify", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"verify: {message}"), err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "command, prefix", [pytest.param("verify", "verify:", id="verify"), pytest.param("plot", "error:", id="plot")]
)
def test_verify_without_a_report_exits_2_with_one_verify_line(command, prefix, tmp_path, capsys):
    """So does `plot`, whose line begins `error:`."""
    assert cli.main([command, "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"{prefix} {tmp_path / 'report.json'} not found; run the 'run' command first\n"


@pytest.mark.parametrize("fixture", ["run_dir", "run3_dir"])
def test_roc_legend_reads_the_auc_of_the_curve_it_labels(fixture, request):
    """roc.svg draws each variant's ROC over its out-of-fold scores pooled
    across the folds, so its legend reads that curve's AUC, not the mean of
    the fold AUCs."""
    out = request.getfixturevalue(fixture)
    legends = dict(re.findall(r">(\w+) \(AUC=([0-9.]+)\)<", (out / "roc.svg").read_text(encoding="utf-8")))
    assert set(legends) == {"base", "features_only"}
    for variant, value in legends.items():
        rows = [row for path in out.glob(f"scores_{variant}_*.csv") for row in cli._read_csv(path)]
        pooled = evaluation.roc_auc([float(r["score"]) for r in rows], [int(r["label"]) for r in rows])
        assert value == f"{pooled:.4f}", variant


def test_verify_names_a_missing_file_and_a_file_the_run_did_not_write(run3_dir, tmp_path, capsys):
    out = tmp_path / "out"
    shutil.copytree(run3_dir, out)
    (out / "confusion_base.csv").unlink()
    shutil.copy(out / "scores_base_0.csv", out / "scores_base_3.csv")  # stamped, but k is 3
    shutil.copy(out / "folds.csv", out / "folds (copy).csv")  # stamped, under any name
    assert cli.main(["verify", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "verify: confusion_base.csv: not found" in err
    assert "verify: scores_base_3.csv: not written by this run" in err
    assert "verify: folds (copy).csv: not written by this run" in err


def test_verify_names_a_csv_whose_stamp_line_was_edited(run3_dir, tmp_path, capsys):
    out = tmp_path / "out"
    shutil.copytree(run3_dir, out)
    path = out / "scores_base_0.csv"
    stamp, rest = path.read_text(encoding="utf-8").split("\n", 1)
    path.write_text(stamp.replace("config_hash=", "config_hash=0") + "\n" + rest, encoding="utf-8")
    assert cli.main(["verify", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "verify: scores_base_0.csv does not match the run re-derived" in err


def test_verify_checks_the_plots_when_both_lost_their_stamp_line(run3_dir, tmp_path, capsys):
    out = tmp_path / "out"
    shutil.copytree(run3_dir, out)
    for name in ("roc.svg", "improvement.svg"):
        path = out / name
        path.write_text(path.read_text(encoding="utf-8").split("\n", 1)[1] + "<!-- edited -->\n", encoding="utf-8")
    assert cli.main(["verify", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "verify: roc.svg does not match the run re-derived" in err
    assert "verify: improvement.svg does not match the run re-derived" in err


def test_run_without_base_plots_zero_improvement(corpus_dir, tmp_path):
    out = tmp_path / "out"
    flags = [*FAST_FLAGS, "--variants", "features_only,enhanced", "--plots"]
    assert cli.main(["run", *dataset_flags(corpus_dir), "--out", str(out), *flags]) == 0
    assert cli.main(["verify", "--out", str(out)]) == 0
    svg = (out / "improvement.svg").read_text(encoding="utf-8")
    zero_y = re.search(r'<line x1="\d+" y1="([\d.]+)" x2="\d+" y2="\1" stroke="#999999"', svg).group(1)
    lines = re.findall(r'<polyline [^>]*points="([^"]*)"', svg)
    assert len(lines) == 2
    for points in lines:
        assert {point.split(",")[1] for point in points.split()} == {zero_y}


def test_verify_detects_a_changed_or_missing_dataset(tmp_path, capsys):
    write_corpus(tmp_path, n=24, seed=1)
    out = tmp_path / "out"
    assert cli.main(["run", *dataset_flags(tmp_path), "--out", str(out), *FAST_FLAGS]) == 0
    assert cli.main(["verify", "--out", str(out)]) == 0
    true_csv = tmp_path / "true.csv"
    header, first, *rest = true_csv.read_text(encoding="utf-8").splitlines()
    true_csv.write_text("\n".join([header, "Edited " + first.split(" ", 1)[1], *rest]) + "\n", encoding="utf-8")
    capsys.readouterr()
    assert cli.main(["verify", "--out", str(out)]) == 2
    assert f"dataset {true_csv} has changed since the run" in capsys.readouterr().err
    (tmp_path / "fake.csv").unlink()
    assert cli.main(["verify", "--out", str(out)]) == 2
    assert f"dataset {tmp_path / 'fake.csv'} cannot be read" in capsys.readouterr().err


def test_verify_detects_a_changed_or_missing_lexicon(corpus_dir, tmp_path, capsys):
    """Lexicon contents are not in the config hash; features.csv shows a change."""
    word = load_dataset(*(corpus_dir / name for name in ("true.csv", "fake.csv")))[0].tokens[0]
    lexicon = tmp_path / "sentiment.tsv"
    lexicon.write_text(f"{word}\t0.5\n", encoding="utf-8")
    out = tmp_path / "out"
    argv = ["run", *dataset_flags(corpus_dir), "--out", str(out), *FAST_FLAGS, "--sentiment-lexicon", str(lexicon)]
    assert cli.main(argv) == 0
    assert cli.main(["verify", "--out", str(out)]) == 0
    lexicon.write_text(f"{word}\t-0.5\n", encoding="utf-8")
    capsys.readouterr()
    assert cli.main(["verify", "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "verify: features.csv does not match the run re-derived from the dataset and the scores\n"
    )
    lexicon.unlink()
    assert cli.main(["verify", "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"verify: lexicon file not found: {lexicon}\n"
    assert cli.main(["plot", "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: lexicon file not found: {lexicon}\n"


@pytest.mark.parametrize("damage", ["score_edited_to_nan", "replaced_by_a_directory"])
def test_verify_reports_a_lexicon_that_exists_but_no_longer_loads(corpus_dir, tmp_path, capsys, damage):
    """One `verify:` line and exit 2, as for a missing lexicon; `plot`
    keeps its `error:` line."""
    lexicon = tmp_path / "sentiment.tsv"
    lexicon.write_text("good\t0.5\n", encoding="utf-8")
    out = tmp_path / "out"
    argv = ["run", *dataset_flags(corpus_dir), "--out", str(out), *FAST_FLAGS, "--sentiment-lexicon", str(lexicon)]
    assert cli.main(argv) == 0
    if damage == "score_edited_to_nan":
        lexicon.write_text("good\tnan\n", encoding="utf-8")
    else:
        lexicon.unlink()
        lexicon.mkdir()
    capsys.readouterr()
    assert cli.main(["verify", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("verify: ") and err.count("\n") == 1, err
    if damage == "score_edited_to_nan":
        assert err == f"verify: {lexicon}:1: not a finite number: 'nan'\n"
    assert cli.main(["plot", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: " + err.removeprefix("verify: ")


def test_verify_and_plot_elsewhere_name_where_relative_dataset_paths_were_looked_for(tmp_path, monkeypatch, capsys):
    made_in = tmp_path / "made_in"
    made_in.mkdir()
    write_corpus(made_in, n=24, seed=1)
    true_csv = made_in / "true.csv"
    monkeypatch.chdir(made_in)
    argv = ["run", "--true-csv", "true.csv", "--fake-csv", "fake.csv", "--out", "out", *FAST_FLAGS, "--plots"]
    assert cli.main(argv) == 0
    assert cli.main(["verify", "--out", "out"]) == 0
    # a run that stores the true file's path absolute and the fake file's relative
    argv = ["run", "--true-csv", str(true_csv), "--fake-csv", "fake.csv", "--out", "mixed", *FAST_FLAGS]
    assert cli.main(argv) == 0
    # a run that stores its dataset paths absolute and its lexicon's relative
    (made_in / "urgency.tsv").write_text("now\t1.0\n", encoding="utf-8")
    dataset = ["--true-csv", str(true_csv), "--fake-csv", str(made_in / "fake.csv")]
    argv = ["run", *dataset, "--out", "lexicon", *FAST_FLAGS, "--urgency-lexicon", "urgency.tsv"]
    assert cli.main(argv) == 0
    monkeypatch.chdir(tmp_path)
    capsys.readouterr()
    note = f"(relative to {tmp_path}: 'run' stores input paths as they were given to it)"
    assert cli.main(["verify", "--out", "made_in/out"]) == 2
    err = capsys.readouterr().err
    assert f"dataset true.csv cannot be read: No such file or directory {note}" in err
    assert f"dataset fake.csv cannot be read: No such file or directory {note}" in err
    assert cli.main(["plot", "--out", "made_in/out"]) == 2
    assert f"dataset file not found: true.csv {note}" in capsys.readouterr().err
    assert cli.main(["verify", "--out", "made_in/lexicon"]) == 2
    assert capsys.readouterr().err == f"verify: lexicon file not found: urgency.tsv {note}\n"
    assert cli.main(["plot", "--out", "made_in/lexicon"]) == 2
    assert capsys.readouterr().err == f"error: lexicon file not found: urgency.tsv {note}\n"
    # only a relative path that cannot be read gets the note
    true_csv.rename(made_in / "moved.csv")
    assert cli.main(["verify", "--out", "made_in/mixed"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert f"verify: dataset {true_csv} cannot be read: No such file or directory" in err
    assert f"verify: dataset fake.csv cannot be read: No such file or directory {note}" in err
    assert cli.main(["plot", "--out", "made_in/mixed"]) == 2  # the true file is read first
    err = capsys.readouterr().err
    assert f"dataset file not found: {true_csv}" in err
    assert "relative to" not in err


def test_rerun_with_fewer_variants_removes_their_artifacts(corpus_dir, run_copy):
    notes = run_copy / "scores_notes.csv"
    notes.write_text("doc_id,note\n", encoding="utf-8")  # no elmdetect stamp: not ours to delete
    argv = ["run", *dataset_flags(corpus_dir), "--out", str(run_copy), *FAST_FLAGS, "--variants", "base", "--seed", "9"]
    assert cli.main(argv) == 0
    assert not list(run_copy.glob("*features_only*"))
    assert notes.exists()
    assert cli.main(["verify", "--out", str(run_copy)]) == 0


def test_run_without_plots_removes_the_plots_of_an_earlier_run(corpus_dir, run_copy):
    assert (run_copy / "roc.svg").is_file() and (run_copy / "improvement.svg").is_file()
    argv = ["run", *dataset_flags(corpus_dir), "--out", str(run_copy), *FAST_FLAGS, "--variants", "base", "--seed", "9"]
    assert cli.main(argv) == 0
    assert not (run_copy / "roc.svg").exists()
    assert not (run_copy / "improvement.svg").exists()
    assert cli.main(["verify", "--out", str(run_copy)]) == 0


def test_verify_reports_an_unparsable_report(run_copy, capsys):
    (run_copy / "report.json").write_text("{not json", encoding="utf-8")
    assert cli.main(["verify", "--out", str(run_copy)]) == 2
    assert capsys.readouterr().err.startswith("verify: report.json is malformed: ")


def test_unknown_variant_exits_2(corpus_dir, tmp_path, capsys):
    argv = ["run", *dataset_flags(corpus_dir), "--out", str(tmp_path / "out"), "--variants", "base,bogus"]
    assert cli.main(argv) == 2
    assert "unknown variant 'bogus'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("variants", ["base,base", "base,base,enhanced"])
def test_a_variant_listed_twice_exits_2_before_training(corpus_dir, tmp_path, capsys, monkeypatch, variants):
    def no_training(*args, **kwargs):
        raise AssertionError("a task was trained")

    monkeypatch.setattr(evaluation, "train", no_training)
    argv = ["run", *dataset_flags(corpus_dir), "--out", str(tmp_path / "out"), *FAST_FLAGS, "--variants", variants]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == "error: variant 'base' is listed more than once\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("where", ["true_csv_is_a_directory", "sentiment_lexicon_is_a_directory", "out_is_a_file"])
def test_an_unusable_path_exits_2_with_one_error_line(corpus_dir, tmp_path, capsys, where):
    (tmp_path / "a_file").write_text("", encoding="utf-8")
    flags = {"--out": str(tmp_path / "out")}
    if where == "true_csv_is_a_directory":
        flags["--true-csv"] = str(tmp_path)
    elif where == "sentiment_lexicon_is_a_directory":
        flags["--sentiment-lexicon"] = str(tmp_path)
    else:
        flags["--out"] = str(tmp_path / "a_file")
    argv = ["run", *dataset_flags(corpus_dir), *FAST_FLAGS, *(item for pair in flags.items() for item in pair)]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err


def test_flag_defaults_are_the_run_config_defaults():
    args = cli.build_parser().parse_args(["run", "--true-csv", "t.csv", "--fake-csv", "f.csv"])
    assert cli._run_config(args) == cli.RunConfig(true_csv="t.csv", fake_csv="f.csv")


def test_train_config_takes_every_field_but_progress_from_the_run_config():
    """A TrainConfig field that RunConfig does not set is a setting no run can change."""
    cfg = cli.RunConfig(true_csv="t.csv", fake_csv="f.csv", seed=7, epochs=3, patience=0, max_seq_len=20,
                        batch_size=8, learning_rate=0.05)
    made, default = cfg.train_config("features_only"), TrainConfig()
    unset = [f.name for f in fields(TrainConfig) if getattr(made, f.name) == getattr(default, f.name)]
    assert unset == ["progress"]


@pytest.mark.parametrize(
    "flag, value, message",
    [
        *(pytest.param("--learning-rate", rate, "learning_rate must be a finite number > 0", id=rate)
          for rate in ("nan", "inf", "-0.05", "0")),
        pytest.param("--epochs", "0", "epochs must be >= 1", id="epochs-0"),
        pytest.param("--batch-size", "0", "batch_size must be >= 1", id="batch-size-0"),
        *(pytest.param("--max-seq-len", n, f"max_seq_len must be >= {KERNEL_SIZE}", id=f"max-seq-len-{n}")
          for n in ("-5", "0", "2")),
        pytest.param("--seed", "-1", "seed must be >= 0, got -1", id="seed-negative"),
    ],
)
def test_learning_rate_that_is_not_finite_and_positive_exits_2(corpus_dir, tmp_path, flag, value, message):
    """So does an epoch count or a batch size below 1, a max_seq_len below
    the conv kernel or a negative seed: a flag no variant can train with is
    an input error, reported before the dataset is read."""
    out = tmp_path / "out"
    done = run_cli("run", *dataset_flags(corpus_dir), "--out", str(out), *FAST_FLAGS, flag, value)
    assert done.returncode == 2
    assert message in done.stderr
    assert not out.exists()


def test_run_with_one_training_document_of_a_class_exits_3(tmp_path, capsys):
    """With two documents per class and k=2, each fold trains on one of each,
    which leaves neither class a validation row."""
    write_corpus(tmp_path, n=4, seed=1)
    out = tmp_path / "out"
    assert cli.main(["run", *dataset_flags(tmp_path), "--out", str(out), "--k", "2", "--variants", "base"]) == 3
    assert "fold 0 variant base failed" in capsys.readouterr().err
    assert not out.exists()


def test_verify_reports_a_score_that_is_not_finite(run_copy):
    path = run_copy / "scores_base_0.csv"
    stamp, header, first, *rest = path.read_text(encoding="utf-8").splitlines()
    doc_id, _, label = first.split(",")
    path.write_text("\n".join([stamp, header, f"{doc_id},nan,{label}", *rest]) + "\n", encoding="utf-8")
    done = run_cli("verify", "--out", str(run_copy))
    assert done.returncode == 2
    assert "verify: scores_base_0.csv: a score is not finite" in done.stderr
    assert "Traceback" not in done.stderr

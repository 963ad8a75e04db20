"""Round trips through the `elmdetect` subcommands on a tiny corpus."""
import csv
import json
import os
import shutil
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

from elmdetect import cli
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


def test_run_writes_every_artifact(run_dir):
    names = {p.name for p in run_dir.iterdir()}
    expected = {"report.json", "folds.csv", "fold_assignments.csv", "roc.svg", "improvement.svg"}
    for variant in ("base", "features_only"):
        expected |= {f"confusion_{variant}.csv", f"roc_{variant}.csv"}
        expected |= {f"scores_{variant}_{fold}.csv" for fold in range(2)}
    assert names == expected
    assert cli.main(["verify", "--out", str(run_dir)]) == 0


def test_ingest_features_plot_verify(corpus_dir, run_copy):
    for path in ("roc.svg", "improvement.svg"):
        (run_copy / path).unlink()
    flags = [*dataset_flags(corpus_dir), "--out", str(run_copy), *FAST_FLAGS]
    assert cli.main(["ingest", *flags]) == 0
    assert cli.main(["features", *flags]) == 0
    assert cli.main(["plot", "--out", str(run_copy)]) == 0
    assert cli.main(["verify", "--out", str(run_copy)]) == 0
    for name in ("corpus_summary.json", "features.csv", "roc.svg", "improvement.svg"):
        assert (run_copy / name).is_file()
    summary = json.loads((run_copy / "corpus_summary.json").read_text(encoding="utf-8"))
    assert summary["n_documents"] == 24 and sum(summary["fold_sizes"]) == 24


def test_ingest_after_run_leaves_the_run_metrics(corpus_dir, run_copy):
    before = (run_copy / "folds.csv").read_bytes()
    flags = [*dataset_flags(corpus_dir), "--out", str(run_copy), *FAST_FLAGS]
    assert cli.main(["ingest", *flags]) == 0
    assert (run_copy / "folds.csv").read_bytes() == before
    assert cli.main(["plot", "--out", str(run_copy)]) == 0
    assert cli.main(["verify", "--out", str(run_copy)]) == 0


def test_verify_detects_an_edited_score(run_copy, capsys):
    path = run_copy / "scores_base_0.csv"
    stamp, *rows = path.read_text(encoding="utf-8").splitlines()
    table = list(csv.reader(rows))
    score = float(table[1][1])
    table[1][1] = repr(0.0 if score >= 0.5 else 1.0)  # flips one prediction, so accuracy moves
    path.write_text("\n".join([stamp, *(",".join(r) for r in table)]) + "\n", encoding="utf-8")
    assert cli.main(["verify", "--out", str(run_copy)]) == 2
    assert "fold 0 base: stored accuracy does not match scores" in capsys.readouterr().err


@pytest.mark.parametrize(
    "damage",
    [
        lambda r: r.pop("config"),
        lambda r: r.pop("config_hash"),
        lambda r: r["config"].pop("true_csv"),
        lambda r: r["config"].update(jobs=2),
        lambda r: r["per_fold"][0]["metrics"].pop("f1"),
        lambda r: r["per_fold"][0]["metrics"].update(f1="high"),
        lambda r: r.update(config=[1, 2]),
    ],
    ids=["no_config", "no_hash", "no_config_field", "unknown_config_field", "no_fold_metric", "fold_metric_not_number",
         "config_not_object"],
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


def test_rerun_with_fewer_variants_removes_their_artifacts(corpus_dir, run_copy):
    notes = run_copy / "scores_notes.csv"
    notes.write_text("doc_id,note\n", encoding="utf-8")  # no elmdetect stamp: not ours to delete
    argv = ["run", *dataset_flags(corpus_dir), "--out", str(run_copy), *FAST_FLAGS, "--variants", "base", "--seed", "9"]
    assert cli.main(argv) == 0
    assert not list(run_copy.glob("*features_only*"))
    assert notes.exists()
    notes.unlink()
    assert cli.main(["verify", "--out", str(run_copy)]) == 0


def test_verify_ignores_files_run_does_not_write(corpus_dir, run_copy):
    flags = [*dataset_flags(corpus_dir), "--out", str(run_copy), *FAST_FLAGS]
    assert cli.main(["features", *flags]) == 0
    assert cli.main(["run", *flags, "--variants", "base", "--seed", "9"]) == 0
    assert (run_copy / "features.csv").is_file()  # stamped with the first run's hash
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
    ],
)
def test_learning_rate_that_is_not_finite_and_positive_exits_2(corpus_dir, tmp_path, flag, value, message):
    """So does an epoch count or a batch size below 1, or a max_seq_len below
    the conv kernel: a flag no variant can train with is an input error,
    reported before the dataset is read."""
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

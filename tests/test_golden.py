"""Golden pin of a small fixed-seed `elmdetect run`.

Refactors must keep every artifact bit-identical: report.json (minus its
timestamp) and every CSV of the run directory, stamps included. A change
that alters the numerics on purpose re-records these digests and says so:

    PYTHONPATH=src python tests/test_golden.py

prints the REPORT_SHA256 / CSV_SHA256 block of the current code.
"""
import contextlib
import csv
import hashlib
import io
import json
import os
import tempfile
from pathlib import Path

from synthetic import dual_signal_corpus

from elmdetect import cli

RUN_FLAGS = [
    "--k", "3", "--seed", "7", "--variants", "base,features_only,enhanced,combined",
    "--epochs", "2", "--patience", "0", "--learning-rate", "0.05", "--max-seq-len", "16",
]

REPORT_SHA256 = "184d58dea65c07a9c355fb4b06fda19c24c9b03f35f79fe2d6d1f24532aa93c3"
CSV_SHA256 = {
    "confusion_base.csv": "84a03ec5e55d642e7385298a22e6376ddbeb8546d92f0c97da24f37e75b84606",
    "confusion_combined.csv": "34e32d84ca47dc61e02a0a3a75f6b752ae3bdd9b31217fb7ad00a31346f99454",
    "confusion_enhanced.csv": "8031ab3f6d51b6a20d70debe05c9f24d7e75c8eddc4dd66c61574369b8e1e24b",
    "confusion_features_only.csv": "ed490752fd809b0b639398159c6513406587d4228c4fcc55d9edc153525941d0",
    "fold_assignments.csv": "a35f5fb721335a7c3706d4a71001d3ddabb3bdd68bffd1ba747fc8f6f06fe5e9",
    "folds.csv": "77003e0299307dc96df7242646f493b4549a2433ee6607bcfa06f27f72fb5689",
    "roc_base.csv": "54cf711562071635885118adddc0f7681db81aba9d69cdcf18c81dd9d2090200",
    "roc_combined.csv": "cec018c7026aac9881d6e9c1780a236c9ee29e457ead1b1ba5a03716e85f36c8",
    "roc_enhanced.csv": "e83891183a33d6ce0d1dde9f3ebed21db7e27452cc23535e2190b1b814d5a32b",
    "roc_features_only.csv": "9f393206cd113d942cffdd6695a5b98864826c0b3e468865f34bbfb722eaa0ed",
    "scores_base_0.csv": "3302470825de8764f6a1e6279cda8dfb5a8ecabf293a2df8f50a091f24563b57",
    "scores_base_1.csv": "09f28d4c6bb6d198215ee689d1c72c74ca737cb1b959b5d2765f0cf5a80120a0",
    "scores_base_2.csv": "704c0afb8bce5cd09ededa5ff6313a36b1fb54c5c2948c078dede3b0b48f9a5c",
    "scores_combined_0.csv": "ec6f731ac4a12e80ceb8b1195bdfe6b0a7139b6961b925af067ca6d25211f8d3",
    "scores_combined_1.csv": "c9cb42e9e814e966fb4607855888c8c7bd03b6f847ca1204b4cd68aa06a247c7",
    "scores_combined_2.csv": "6d5495dfb958824e4d5044173893d5c572e0a34650552bf185ed272998882686",
    "scores_enhanced_0.csv": "65b401408229f8ea9b16283893139abc52e5b9bfa75b8a76ac36bf8f243ea29c",
    "scores_enhanced_1.csv": "1212ce09b2b41d8b600c324beda4dd22924f0181ca2716d7767954738a1e3436",
    "scores_enhanced_2.csv": "e3a8eff19b831a3e24d7465ee6f35bc2877f5bd390b27439a642d01487aebb8d",
    "scores_features_only_0.csv": "a8f0dec75de04e807ba36b8d1d16a2b9016e94b1270f9872876732faa9829882",
    "scores_features_only_1.csv": "ded574a5ba8e451883b5c64608a206c94d63e914aabbbc3eb8868552db9e3c8f",
    "scores_features_only_2.csv": "ef61143b18986707613f60ba31af1410a5c412dbf0e1e97177bdd9ac1b2194f5",
}


def write_corpus(directory, n=60, seed=3):
    docs = dual_signal_corpus(n=n, seed=seed)
    for name, label in (("true.csv", 0), ("fake.csv", 1)):
        with open(directory / name, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["text"])
            writer.writerows([d.raw_text] for d in docs if d.label == label)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_digests(directory: Path) -> tuple[str, dict[str, str]]:
    """The report digest and the CSV digests of the pinned run, made in
    directory, which must be the working directory: relative dataset paths
    keep the config hash independent of where the run is made."""
    write_corpus(directory)
    rc = cli.main(["run", "--true-csv", "true.csv", "--fake-csv", "fake.csv", "--out", "out", *RUN_FLAGS])
    assert rc == 0
    out = directory / "out"
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    del report["generated_at"]
    csvs = {p.name: sha256(p.read_bytes()) for p in sorted(out.glob("*.csv"))}
    return sha256(json.dumps(report, sort_keys=True).encode("utf-8")), csvs


def test_run_artifacts_are_bit_identical(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    report, csvs = run_digests(tmp_path)
    assert report == REPORT_SHA256
    assert csvs == CSV_SHA256


if __name__ == "__main__":
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        os.chdir(tmp)
        try:
            report, csvs = run_digests(Path(tmp))
        finally:
            os.chdir(cwd)
    print(f'REPORT_SHA256 = "{report}"')
    print("CSV_SHA256 = {")
    for name, digest in csvs.items():
        print(f'    "{name}": "{digest}",')
    print("}")

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
    "roc_base.csv": "ee65c13c1b98e04592b9cc94d04e4cd5617bc64406a8b4d0b5c7822f47400c73",
    "roc_combined.csv": "8828557e2c9f14ad5acb29cf30a745a3e71d408c31d0f083c1063df0c030ac59",
    "roc_enhanced.csv": "fce9c18239eb5a393c96dc5692f0eacfb1b6a8cadf66a0deba7b0efe4a5f50a9",
    "roc_features_only.csv": "db4a44e85e09360bbb43afbb46c3a507653d1bbadfd173ba644e951558b6448e",
    "scores_base_0.csv": "c5be3c700e9a97a639ea48d18ba1524201ec3e0af203da7c397b10824b972324",
    "scores_base_1.csv": "8f1ef9a71f5bd3988de550e841f93410a91cacdbe349a5e4ef6b182edf04ce75",
    "scores_base_2.csv": "6c8246137043d7e51fbcc2e26eaa4be0038f0e8cc2f37808d49fec3586644740",
    "scores_combined_0.csv": "0eabdaaa65f1713e9c3efa66633da5c0961cf8c1133b7ce2a786438c79846712",
    "scores_combined_1.csv": "3009a0a8e2e580da6c468f40283f53ed926dc1b8c83f0d3f395378cac829a3ff",
    "scores_combined_2.csv": "296e05fdc8292e9cbb8d2c783598e5a7bba36c1cbed9acb4e5af33dca2c532ab",
    "scores_enhanced_0.csv": "70fac7b4d686ea05bdf05ce48da68bd8f0cf996092dd74e305e2deab7bf36c75",
    "scores_enhanced_1.csv": "9722d9796b79266c8f9d4cece66230f0b75d358bae168ac4bc9e6e5b1ce60a82",
    "scores_enhanced_2.csv": "7b2fa1c2cd6e5681b95b9303da41d5340e3d483c0927bb631fc278e88b334f93",
    "scores_features_only_0.csv": "a0e18854762504e7581e2aa5ce4225c17cbf040c12b3d37d5c6179b07a99eddc",
    "scores_features_only_1.csv": "859e3715bf0d5e9195233124341c2191615f25663c7e93718f16febab13805a6",
    "scores_features_only_2.csv": "f5f27f4b55c11012b2deabfe4719e6b2dc19dc748ce0b5fcd7199e35e6ba9929",
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

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
    "roc_base.csv": "f6aba4e0435301856beafac3be050294197cf3da9a0c593afd1c96c2fe066010",
    "roc_combined.csv": "bc0a5abb5999b4e4fa10989a9a7221ebcf54be811624cd79442f470422526da6",
    "roc_enhanced.csv": "237fd6dc7cbc14ff4c525a5c653de4852b5368eac5ea0a50b0099d2a572aa964",
    "roc_features_only.csv": "db4a44e85e09360bbb43afbb46c3a507653d1bbadfd173ba644e951558b6448e",
    "scores_base_0.csv": "5cc59aea8bb9de7bc15fa3b2084c2fb1caeb72a224fa12f08ddaed969a857358",
    "scores_base_1.csv": "f24e6e14ce076c103358ec9feeaad9499fe417133604718a8887f1589ad49360",
    "scores_base_2.csv": "b6c68d09fe746c5dd2b54bbae0f42195c164d2902b0ad236682628df7911056b",
    "scores_combined_0.csv": "9e0a4dfbe79943fa745549ee522578ffc8ec53daa21fbbeb5b41eb62e82f6ee7",
    "scores_combined_1.csv": "51b41af452888816c2ad90876fcd8dcdea6d5d54a70d569752c74703878c7eea",
    "scores_combined_2.csv": "aae32a06c9462939a0365c538dbd4237a26a14b4e42a46f57afe0d1bdf438a54",
    "scores_enhanced_0.csv": "e1a5fe7ade44e240e379a6aba1901a815f9d8a5b3c9fd589018c577e726fd6b3",
    "scores_enhanced_1.csv": "1175fc25185d316e9c7fa18c40fc26bd84c7eb547d8f1347a876da780be744d8",
    "scores_enhanced_2.csv": "89321a2019df63c71c8882f017da53edde866be2dbdec1c4382eac0fb8b6f4f9",
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

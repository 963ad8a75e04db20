"""Golden pin of a small fixed-seed `elmdetect run`.

Refactors must keep every artifact bit-identical: report.json (minus its
timestamp) and every CSV of the run directory, stamps included. A change
that alters the numerics on purpose re-records these digests and says so.
"""
import csv
import hashlib
import json

from synthetic import dual_signal_corpus

from elmdetect import cli

RUN_FLAGS = [
    "--k", "3", "--seed", "7", "--variants", "base,features_only,enhanced,combined",
    "--epochs", "2", "--patience", "0", "--learning-rate", "0.05", "--max-seq-len", "16",
]

REPORT_SHA256 = "3adc39a795d0a92607e5ae6a7b02d2c49e0c7f6e630a2f3373d379056304e124"
CSV_SHA256 = {
    "confusion_base.csv": "8d85bfe100bd0cfde1f9f4bd5fa2a6f2a6bc982b8a28fd3a077f103bd04edcab",
    "confusion_combined.csv": "a0dadc106192e8f21cfd25cdc62aab0031e9e8ea13a9f4264e71bf13441e7a0f",
    "confusion_enhanced.csv": "65515025c149c8ce33d5e8c85032c0841c6e9b038b3830de818359bff91fb2ca",
    "confusion_features_only.csv": "34ce29e73ff91054859ed8824cc8b8ab3aaf9d7ced839761fb17ddacdae84e86",
    "fold_assignments.csv": "2cba93ca79d9cf798627fe039b34d279526696b22dba10cee95321941c2cf33f",
    "folds.csv": "654c2e5ab8dd9d25669bf6f7a4481c1a5d812726dd18be6ef5ba6549ee88936d",
    "roc_base.csv": "3e46fa574c138c5ea923269d88263473101aabd7555a943661e8956705e75860",
    "roc_combined.csv": "3cfb6a44ff935c379bb84231cc36be5747a8610c81c3ecf3ca52654bdf1ab26c",
    "roc_enhanced.csv": "3bf8668b7f060fcd002c18c11b83368891d10b55d200bf4fc945b54c0bb2e4f4",
    "roc_features_only.csv": "8b2b368594cb2a95eda92ed1a338cb9fedf4fdbfca1cec819e22d4c4e6ef6df7",
    "scores_base_0.csv": "2726c04ff7f743425253b271364698830164eae9128ba62b81989310f0ff7100",
    "scores_base_1.csv": "42714bdcb52aa6f653c4445f7087a2d26d6bca9442dc4076a23b8549044e5143",
    "scores_base_2.csv": "828c0c194538208382d31bb91a1cb918ca1ef71c4c70215dcf65b96f141644c2",
    "scores_combined_0.csv": "06c235b98ea9885053a56f40246b7a529f88c40dcde668cf4d46ed3bc347d9bf",
    "scores_combined_1.csv": "34612315a929cf4db51bdf1b9e325c4cb5347895bcac0665d907751e11408cfd",
    "scores_combined_2.csv": "96ff2a983d28a8fd30d64a4264b199d8762abe46fe04acc8e328e4234a772b64",
    "scores_enhanced_0.csv": "4cc400aa50e91aedd77fec37ec6e4c9bafbe2228687a25dd74b8b4e82e72a369",
    "scores_enhanced_1.csv": "4188fad66937a0af012d0434b86bb3f0677df1f551d715c8925cc2aa86dbfe7a",
    "scores_enhanced_2.csv": "859738d7aeb45615d144595b23cfc439b273342641cb01570b48df196c5523ab",
    "scores_features_only_0.csv": "dd711e8d76b6a2fc74db32cc07ee830302d327661e56f47f057cc264e0dc3a23",
    "scores_features_only_1.csv": "e75b30502e045b54387c87847cddf89c6eb60826dc07fe4e2ff6d1c7fbc8af43",
    "scores_features_only_2.csv": "359960ea3f9f907999c298df795d1e5d7fe582bacb52f7b0438cd86178e6de58",
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


def test_run_artifacts_are_bit_identical(tmp_path, monkeypatch, capsys):
    write_corpus(tmp_path)
    # relative dataset paths keep the config hash independent of tmp_path
    monkeypatch.chdir(tmp_path)
    rc = cli.main(["run", "--true-csv", "true.csv", "--fake-csv", "fake.csv", "--out", "out", *RUN_FLAGS])
    assert rc == 0
    out = tmp_path / "out"
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    del report["generated_at"]
    csvs = {p.name: sha256(p.read_bytes()) for p in sorted(out.glob("*.csv"))}
    assert sha256(json.dumps(report, sort_keys=True).encode("utf-8")) == REPORT_SHA256
    assert csvs == CSV_SHA256

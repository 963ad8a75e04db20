"""Golden pin of a small fixed-seed `elmdetect run`.

Refactors must keep every artifact bit-identical: report.json (minus its
timestamp), every CSV of the run directory (features.csv among them) and
every SVG, stamps included, and the run's printed tables and significance
lines. A change that alters the numerics on purpose re-records these
digests and says so:

    PYTHONPATH=src python tests/test_golden.py

prints the REPORT_SHA256 / CSV_SHA256 / SVG_SHA256 / TABLES_SHA256 block of
the current code.
"""
import contextlib
import csv
import hashlib
import io
import json
import os
import tempfile
from pathlib import Path

import pytest
from synthetic import dual_signal_corpus

from elmdetect import cli

RUN_FLAGS = [
    "--k", "3", "--seed", "7", "--variants", "base,features_only,enhanced,combined",
    "--epochs", "2", "--patience", "0", "--learning-rate", "0.05", "--max-seq-len", "16", "--plots",
]

REPORT_SHA256 = "6f439714d0b0c2e19d1e6d81144ee07eeac0af60e897534dd90ddafce469b2b4"
CSV_SHA256 = {
    "confusion_base.csv": "84a03ec5e55d642e7385298a22e6376ddbeb8546d92f0c97da24f37e75b84606",
    "confusion_combined.csv": "34e32d84ca47dc61e02a0a3a75f6b752ae3bdd9b31217fb7ad00a31346f99454",
    "confusion_enhanced.csv": "8031ab3f6d51b6a20d70debe05c9f24d7e75c8eddc4dd66c61574369b8e1e24b",
    "confusion_features_only.csv": "ed490752fd809b0b639398159c6513406587d4228c4fcc55d9edc153525941d0",
    "features.csv": "4b70e68375e9115a82645fc5168019254ec7a8b3065baf2bf86f8f58c9621a12",
    "fold_assignments.csv": "a35f5fb721335a7c3706d4a71001d3ddabb3bdd68bffd1ba747fc8f6f06fe5e9",
    "folds.csv": "77003e0299307dc96df7242646f493b4549a2433ee6607bcfa06f27f72fb5689",
    "roc_base.csv": "505ae29440a6059daecfcc3460360a9d24c327a44d2abdd8e86fa9509ef308bd",
    "roc_combined.csv": "8c363fa535e2d605c491b74cd4114fb60422ca7b80d4a3bb3d8270910e128e09",
    "roc_enhanced.csv": "c79bc55670f0d0687ea80e5ccbaa1ba21ef175656722e5449dd6ab44fe5c21bc",
    "roc_features_only.csv": "3e6f1ee26496ef43063c6af1218e86358689cb2cd997fc8ee14ef3591c6b4f7d",
    "scores_base_0.csv": "6ee5a1b3e75dcc89ec1614d4c9421ed49a7e91e0923f35e51f5157a09ebd4762",
    "scores_base_1.csv": "8b40f99bb3b980db5da9924d84b415705e8f718a97d256ac9055eb0e64e17bac",
    "scores_base_2.csv": "678b50d709ff2c7f63edb8d32b62a81ee843cb7fdd41ede0f33f2fab07574cb8",
    "scores_combined_0.csv": "bf6358eff6f6c068cb50e9b968a281df221b319405301386c3396a746cee6ee7",
    "scores_combined_1.csv": "2f916b46d449c803706554a2424eafa322b7fa6794a42e413e2a4d0b69a26834",
    "scores_combined_2.csv": "c9e207d3dc7a1edc954054cc3b01b29b03688402f7e3a7f20306eed9f2ccaca5",
    "scores_enhanced_0.csv": "11f4504ebc5d9b4938c5dff90d725935c0e3fd3c214a578f2bf84e1fa5511739",
    "scores_enhanced_1.csv": "e7bafc3d180ac000da67ebcbf99f92b92d8ca46ddd862ec82244477b4a8c42ed",
    "scores_enhanced_2.csv": "5aa24d9ece7bc3257b6c72aabd072d229911698db96f755db4a6be2203ee72c4",
    "scores_features_only_0.csv": "900bb3038f1dd997b7ec6ff76cf229641980df0c64c6bff529ee50835dea0c49",
    "scores_features_only_1.csv": "b56c0a9ceb9a16e3e6bc22fa950542da1f9ec1a4290de456a68602419fa0c265",
    "scores_features_only_2.csv": "94631a3322fa9d5f946f6ebf9806ee78ae43b38fbfdb752008180e53bed7adf2",
}
SVG_SHA256 = {
    "improvement.svg": "05261f5e8eca98d780611c30df9fea592ac419fc604229cdce8dd1e5de6c589e",
    "roc.svg": "d1da4d4b25fa6ca53a2ed88821e1c962ca1ca4a3b7d0887ce8132bdf77689cca",
}
TABLES_SHA256 = "4f89ba440b77c992f6aa39f99801110691b09e2e63059449d4181b70cbc6d31a"


def write_corpus(directory, n=60, seed=3):
    docs = dual_signal_corpus(n=n, seed=seed)
    for name, label in (("true.csv", 0), ("fake.csv", 1)):
        with open(directory / name, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["text"])
            writer.writerows([d.raw_text] for d in docs if d.label == label)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_digests(directory: Path) -> tuple[str, dict[str, str], dict[str, str], str]:
    """The report digest, the CSV and SVG digests and the printed-tables digest
    of the pinned run, made in directory, which must be the working directory:
    relative dataset paths keep the config hash independent of where the run
    is made.

    The tables digest covers stdout from its first blank line on: the metric
    tables and the `significance ... vs base:` lines, not the epoch lines."""
    write_corpus(directory)
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        rc = cli.main(["run", "--true-csv", "true.csv", "--fake-csv", "fake.csv", "--out", "out", *RUN_FLAGS])
    assert rc == 0
    printed = stdout.getvalue()
    tables = printed[printed.index("\n\n") + 1 :]
    out = directory / "out"
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    del report["generated_at"]
    csvs = {p.name: sha256(p.read_bytes()) for p in sorted(out.glob("*.csv"))}
    svgs = {p.name: sha256(p.read_bytes()) for p in sorted(out.glob("*.svg"))}
    return sha256(json.dumps(report, sort_keys=True).encode("utf-8")), csvs, svgs, sha256(tables.encode("utf-8"))


@pytest.fixture(scope="module")
def golden_run(tmp_path_factory):
    """The digests of the pinned run, made once for the tests below."""
    directory = tmp_path_factory.mktemp("golden")
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(directory)
        return run_digests(directory)


def test_run_artifacts_are_bit_identical(golden_run):
    report, csvs, svgs, _ = golden_run
    assert report == REPORT_SHA256
    assert csvs == CSV_SHA256
    assert svgs == SVG_SHA256


def test_printed_tables_are_bit_identical(golden_run):
    assert golden_run[3] == TABLES_SHA256


if __name__ == "__main__":
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        os.chdir(tmp)
        try:
            report, csvs, svgs, tables = run_digests(Path(tmp))
        finally:
            os.chdir(cwd)
    print(f'REPORT_SHA256 = "{report}"')
    for block, digests in (("CSV_SHA256", csvs), ("SVG_SHA256", svgs)):
        print(f"{block} = {{")
        for name, digest in digests.items():
            print(f'    "{name}": "{digest}",')
        print("}")
    print(f'TABLES_SHA256 = "{tables}"')

"""Golden pin of a small fixed-seed `elmdetect run` and of `elmdetect
features` on the same corpus.

Refactors must keep every artifact bit-identical: report.json (minus its
timestamp), every CSV and SVG of the run directory and features.csv, stamps
included, and the run's printed tables and significance lines. A change
that alters the numerics on purpose re-records these digests and says so:

    PYTHONPATH=src python tests/test_golden.py

prints the REPORT_SHA256 / CSV_SHA256 / SVG_SHA256 / TABLES_SHA256 /
FEATURES_SHA256 block of the current code.
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
FEATURE_FLAGS = ["--seed", "7"]

REPORT_SHA256 = "184d58dea65c07a9c355fb4b06fda19c24c9b03f35f79fe2d6d1f24532aa93c3"
CSV_SHA256 = {
    "confusion_base.csv": "84a03ec5e55d642e7385298a22e6376ddbeb8546d92f0c97da24f37e75b84606",
    "confusion_combined.csv": "34e32d84ca47dc61e02a0a3a75f6b752ae3bdd9b31217fb7ad00a31346f99454",
    "confusion_enhanced.csv": "8031ab3f6d51b6a20d70debe05c9f24d7e75c8eddc4dd66c61574369b8e1e24b",
    "confusion_features_only.csv": "ed490752fd809b0b639398159c6513406587d4228c4fcc55d9edc153525941d0",
    "fold_assignments.csv": "a35f5fb721335a7c3706d4a71001d3ddabb3bdd68bffd1ba747fc8f6f06fe5e9",
    "folds.csv": "77003e0299307dc96df7242646f493b4549a2433ee6607bcfa06f27f72fb5689",
    "roc_base.csv": "503c6fe3a8286e8796b2fb7df7534b9a2e6c7bd649af42391e420a4610c44c2a",
    "roc_combined.csv": "e777e79e4341b373fac77c6d661731b9d017730b58dc778d81145e3794985411",
    "roc_enhanced.csv": "5473c6386bf10de0e2df9f6a38a6930fa10396530c78d600b715c333b6927fd2",
    "roc_features_only.csv": "db4a44e85e09360bbb43afbb46c3a507653d1bbadfd173ba644e951558b6448e",
    "scores_base_0.csv": "7c2e3c788ef64294fd6497fc7dbe39aa067919131820ffd231c1d20e0fd83054",
    "scores_base_1.csv": "24769b785eb26a6b3f7e19c0b4997cd74059b1b31de2c2cd9c5d5ea0b7ef3678",
    "scores_base_2.csv": "84c854cf11bce8f73c1dea4a293ff6d7a7e22a83de45bf7b116247158ed4ef13",
    "scores_combined_0.csv": "bc3e57a2a7e24181a5cc66935be23f6d9a2c8a30349fd22d95dbbae46bd3dfc4",
    "scores_combined_1.csv": "3a79deba8d5741ff77bc2f65ddfa90c7e47f43c9e4991915ce74acdb63195132",
    "scores_combined_2.csv": "39fb1bbe5448b4d77eb7eac6f5615a73dcbb78d500fcb03e7d3fc1a5adf61fea",
    "scores_enhanced_0.csv": "589d8c2834fed2867409b21f20052a2355434c53e1dcebee750ecdf5294c12fa",
    "scores_enhanced_1.csv": "7be4ed4382db3a501b0e0665bc32b4c5db240beb8713ab8568dbdab0aebb4e1e",
    "scores_enhanced_2.csv": "650f2937540cb3b5804711d4b49f64d0c0ef79fc065cea9fc00145b67ee840b4",
    "scores_features_only_0.csv": "a0e18854762504e7581e2aa5ce4225c17cbf040c12b3d37d5c6179b07a99eddc",
    "scores_features_only_1.csv": "859e3715bf0d5e9195233124341c2191615f25663c7e93718f16febab13805a6",
    "scores_features_only_2.csv": "f5f27f4b55c11012b2deabfe4719e6b2dc19dc748ce0b5fcd7199e35e6ba9929",
}
SVG_SHA256 = {
    "improvement.svg": "05261f5e8eca98d780611c30df9fea592ac419fc604229cdce8dd1e5de6c589e",
    "roc.svg": "f5d169b9f9bfae20802f2470dafe4fa912d9e02276b0c11ac54accaa484959c5",
}
TABLES_SHA256 = "20605558ceaa481895bc7bf4c66dec1621ac3df94cea1003144f0a31874c791e"
FEATURES_SHA256 = "d62b90bc05ecabfba7757fd934dfb25299aee8552499b7a58db5a37b6653976f"


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


def features_digest(directory: Path) -> str:
    """The digest of features.csv of the pinned corpus, written in directory,
    which must be the working directory, as for `run_digests`."""
    write_corpus(directory)
    rc = cli.main(["features", "--true-csv", "true.csv", "--fake-csv", "fake.csv", "--out", "feat", *FEATURE_FLAGS])
    assert rc == 0
    return sha256((directory / "feat" / "features.csv").read_bytes())


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


def test_feature_matrix_is_bit_identical(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert features_digest(tmp_path) == FEATURES_SHA256


if __name__ == "__main__":
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        os.chdir(tmp)
        try:
            report, csvs, svgs, tables = run_digests(Path(tmp))
            features = features_digest(Path(tmp))
        finally:
            os.chdir(cwd)
    print(f'REPORT_SHA256 = "{report}"')
    for block, digests in (("CSV_SHA256", csvs), ("SVG_SHA256", svgs)):
        print(f"{block} = {{")
        for name, digest in digests.items():
            print(f'    "{name}": "{digest}",')
        print("}")
    print(f'TABLES_SHA256 = "{tables}"')
    print(f'FEATURES_SHA256 = "{features}"')

"""Times one cold set-up of `elmdetect` in a fresh process: import, the
bundled lexicons, and either ingest plus fold assignment (cross-validation)
or checkpoint load plus ingest (scoring). Prints {"setup_s": ...} as JSON.

    python3 perfbench/setup_probe.py --src src --true-csv T --fake-csv F --k 3 --seed 7
    python3 perfbench/setup_probe.py --src src --true-csv T --fake-csv F --model M
"""
import time

START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402


def main() -> None:
    p = argparse.ArgumentParser()
    p.add_argument("--src", required=True)
    p.add_argument("--true-csv", required=True)
    p.add_argument("--fake-csv", required=True)
    p.add_argument("--k", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--model")
    args = p.parse_args()
    sys.path.insert(0, args.src)
    from elmdetect import FeatureExtractor, load_dataset, load_model, stratified_folds

    extractor = FeatureExtractor()
    if args.model:
        load_model(args.model, extractor=extractor)
    corpus = load_dataset(args.true_csv, args.fake_csv)
    if args.k:
        stratified_folds(corpus, args.k, args.seed)
    print(json.dumps({"setup_s": time.perf_counter() - START, "docs": len(corpus)}))


if __name__ == "__main__":
    main()

"""Runs the benchmark over several seeds and reports, per end-to-end metric,
the median and the spread: the distance between the first and third
quartiles as a share of the median, next to the metric's bound.

    python3 perfbench/spread.py --workloads cv_short,cv_long,score_bulk --seeds 1-10
    python3 perfbench/spread.py --workloads cv_short --seeds 1-5 --record perfbench/baseline.json --commit abc123

Runs one benchmark process at a time, from the checkout root. Exits 1 when
a run fails, is incorrect, or a spread exceeds its bound.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(x) for x in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict, float]:
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900, check=False,
    )
    elapsed = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(lines[-2])["meta"], json.loads(lines[-1]), elapsed


def spread(values: list[float]) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", required=True, help="comma-separated workload names")
    p.add_argument("--seeds", default="1-10", help="'1-10' or '3,5,8'")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record", help="write medians, spreads and the environment to this JSON file")
    p.add_argument("--commit", default="unknown", help="commit of the measured code, for the record")
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    seeds = seed_list(args.seeds)

    ok = True
    record: dict = {"commit": args.commit, "run_seconds": seconds, "seeds": seeds, "trace": args.trace, "workloads": {}}
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        elapsed = []
        for seed in seeds:
            meta, result, secs = run_once(workload, seed, seconds, args.trace)
            record["environment"] = meta["environment"]
            elapsed.append(secs)
            if not result["correct"] or result["failed"]:
                ok = False
                print(f"{workload} seed {seed}: incorrect, {meta['problems']} {meta['notes']}")
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed}: {secs:.1f} s, {meta['invocations']} invocations", flush=True)
        rows = {}
        print(f"\n{workload}: {len(seeds)} runs, {max(elapsed):.1f} s the longest")
        for name, xs in values.items():
            med = statistics.median(xs)
            s = spread(xs) if len(xs) >= 2 and med else 0.0
            bound = bounds.get(name)
            rows[name] = {"median": med, "spread": s, "bound": bound, "values": xs}
            flag = ""
            if bound is not None and s > bound:
                ok = False
                flag = "  OVER BOUND"
            elif bound is not None and s > bound / 3:
                flag = "  over a third of the bound"
            print(f"  {name:34s} median {med:12.6g}  spread {s:7.4f}  bound {bound}{flag}")
        record["workloads"][workload] = {"longest_run_s": max(elapsed), "metrics": rows}
    if args.record:
        with open(args.record, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

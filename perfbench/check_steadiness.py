"""Steadiness self-check: runs of one commit must agree within the bounds.

    python3 perfbench/check_steadiness.py [--workloads t2_all,t3_blocks] \
        [--seeds 1-10] [--seconds 60]

Run it from the repository root.  For each workload it runs ``run.py`` with
``--trace 0`` twice per seed, once for each of two sets, so slow periods of
the machine fall on both.  For each end-to-end metric of ``BENCHMARK.json``
it prints each set's median and quartile spread (the distance between the
first and third quartile over the median), and fails when a spread exceeds
the metric's bound, or when the medians of the two sets differ by more than
the bound.  It then makes two traced runs on the first seed and fails unless
every per-layer metric that is not a time (unit ``s``) or ``trace.overhead``
is identical.  Runs are sequential; nothing runs in parallel.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUNNER = Path(__file__).resolve().parent / "run.py"
SETS = 2


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, str(RUNNER), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"run failed ({proc.returncode}): {' '.join(argv)}\n{proc.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        print("\n".join(line for line in lines if line.startswith("FAILED")))
    return result


def spread(values: list[float]) -> float:
    """(Q3 - Q1) / median, with the quartiles of statistics.quantiles(n=4)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return (q3 - q1) / mid if mid else 0.0


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def check_workload(name: str, bench: dict, seeds: list[int], seconds: int) -> bool:
    results: list[list[dict]] = [[] for _ in range(SETS)]
    for seed in seeds:
        for k in range(SETS):
            results[k].append(run_once(name, seed, seconds, 0))
    ok = all(r["correct"] for rs in results for r in rs)
    for metric in bench["end_to_end"]:
        key, bound = metric["name"], metric["bound"]
        medians = []
        for k, rs in enumerate(results):
            values = [r["metrics"][key]["value"] for r in rs]
            medians.append(statistics.median(values))
            sp = spread(values)
            bad = sp > bound
            ok = ok and not bad
            print(f"{name:<11} {key:<12} set {k}: median {medians[-1]:.6g} "
                  f"spread {sp:.4f} (bound {bound}){'  TOO WIDE' if bad else ''}")
        drift = abs(medians[1] - medians[0]) / medians[0] if medians[0] else 0.0
        bad = drift > bound
        ok = ok and not bad
        print(f"{name:<11} {key:<12} set 1 vs 0: drift {drift:.4f}{'  TOO FAR' if bad else ''}")
    traced = [run_once(name, seeds[0], seconds, 1) for _ in range(2)]
    same = all(r["correct"] for r in traced)
    for metric in bench["per_layer"]:
        key = metric["name"]
        if metric["unit"] == "s" or key == "trace.overhead":
            continue
        a, b = (r["metrics"].get(key, {}).get("value") for r in traced)
        if a is None or a != b:
            same = False
            print(f"{name:<11} {key}: traced runs disagree ({a} vs {b})")
    overheads = [r["metrics"].get("trace.overhead", {}).get("value") for r in traced]
    print(f"{name:<11} per-layer counts {'identical' if same else 'DIFFER'} across two"
          f" traced runs; trace.overhead {overheads}")
    return ok and same


def main(argv: list[str] | None = None) -> int:
    bench = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seeds", default="1-10", help="a-b or a comma list")
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = parser.parse_args(argv)
    ok = True
    for name in args.workloads.split(","):
        ok = check_workload(name, bench, parse_seeds(args.seeds), args.seconds) and ok
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

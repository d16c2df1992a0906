"""leafhom benchmark: seeded CLI workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload t2_all --seed 1 --seconds 60 --trace 0

Run it from the repository root; it imports the package from ``src``.  Each
timed repetition is a fresh interpreter running ``python3 -m leafhom run``
once on the generated spec, one at a time, never in parallel.  Workloads,
the seeded input generators and the correctness oracle are in
``workloads.py``.

``--trace 0`` reports the end-to-end metrics: wall and CPU seconds per
invocation (medians over the repetitions), set-up time (median over fresh
interpreters that import leafhom and build the model, a few after each
invocation, so they sample the whole run), peak RSS, and the share of
invocations that passed.  ``--trace 1`` alternates untraced and traced
invocations (``tracer.py``) and reports the per-layer metrics of
``BENCHMARK.json`` from the first traced one, times as medians, and
``trace.overhead``; it prints the other per-layer figures (inclusive times,
self time of layers some workload never calls) without reporting them.

Every invocation must exit 0, match the expected tables, and write reports
byte-identical to the first invocation of the run (traced or not); any
mismatch counts as failed.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  The run
environment and every sample are also written to
``.perfbench_work/results/<workload>-seed<seed>-trace<t>.json``, and a traced
run keeps its first traced invocation's summary and span table beside it
(``.trace.json``, ``.spans``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import asdict, dataclass
from pathlib import Path

from tracer import call_times, layer_metrics
from workloads import WORKLOADS, Workload, check_reports

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
BENCH = ROOT / "BENCHMARK.json"
TRACER = Path(__file__).resolve().parent / "tracer.py"
SETUP_PROBES = 5  # after each invocation
MIN_REPETITIONS = 2
RUN_LIMIT_S = 170.0  # every child is killed by then, so a run ends within 180 s
SETUP_SNIPPET = (
    "import json, sys\n"
    "from leafhom import make_model\n"
    "with open(sys.argv[1], encoding='utf-8') as fh:\n"
    "    make_model(json.load(fh))\n"
)


@dataclass
class Sample:
    """One child process: wall and CPU seconds, peak RSS, exit status."""

    wall_s: float
    cpu_s: float
    rss_mb: float
    status: int
    problems: list[str]


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    # fixed string hashing, so per-layer counts cannot depend on set order
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(argv: list[str], env: dict[str, str], log: Path, deadline: float) -> Sample:
    """Run one child to completion (killed at `deadline`); rusage from wait4."""
    with open(log, "wb") as log_fh:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=log_fh)
        timer = threading.Timer(max(deadline - t0, 0.0), proc.kill)
        timer.start()
        try:
            _, wait_status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
            timer.join()
    proc.returncode = os.waitstatus_to_exitcode(wait_status)
    problems = [] if proc.returncode == 0 else [f"exit status {proc.returncode}: {_tail(log)}"]
    return Sample(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024, proc.returncode, problems)


def _tail(log: Path) -> str:
    lines = log.read_text(encoding="utf-8", errors="replace").strip().splitlines()
    return lines[-1] if lines else "(no stderr)"


def report_bytes(out_dir: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir()) if p.is_file()}


class Run:
    """One benchmark run of one workload: its scratch directory and checks."""

    def __init__(self, workload: Workload, work: Path):
        self.workload = workload
        self.work = work
        self.spec = work / "spec.json"
        workload.write_spec(self.spec)
        self.env = child_env()
        self.deadline = time.perf_counter() + RUN_LIMIT_S
        self.reference: dict[str, bytes] | None = None
        self.first_trace: Path | None = None
        self.count = 0

    def invoke(self, traced: bool) -> tuple[Sample, Path, Path | None]:
        """One CLI invocation (optionally under the tracer), checked."""
        self.count += 1
        out = self.work / f"out{self.count}"
        cli_args = [*self.workload.cli_args, "--model", str(self.spec), "--out", str(out)]
        trace = self.work / f"trace{self.count}.json" if traced else None
        if traced:
            self.first_trace = self.first_trace or trace
            argv = [sys.executable, str(TRACER), str(trace), str(self.count), "--", *cli_args]
        else:
            argv = [sys.executable, "-m", "leafhom", *cli_args]
        sample = spawn(argv, self.env, self.work / f"stderr{self.count}.log", self.deadline)
        if sample.status == 0:
            sample.problems.extend(
                check_reports(self.workload.name, out, self.workload.analyses)
            )
            produced = report_bytes(out)
            if self.reference is None:
                self.reference = produced
            elif produced != self.reference:
                sample.problems.append("report bytes differ from the run's first invocation")
        return sample, out, trace

    def setup_samples(self) -> list[Sample]:
        argv = [sys.executable, "-c", SETUP_SNIPPET, str(self.spec)]
        log = self.work / "setup.log"
        return [spawn(argv, self.env, log, self.deadline) for _ in range(SETUP_PROBES)]


def timed_loop(seconds: float, step, minimum: int) -> list:
    """Call step() at least `minimum` times, and again while the slowest call
    so far would still end within `seconds`."""
    results, slowest = [], 0.0
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        results.append(step())
        slowest = max(slowest, time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        if len(results) >= minimum and elapsed + slowest > seconds:
            return results


def end_to_end(run: Run, seconds: float) -> tuple[dict, list[Sample], dict]:
    setup: list[Sample] = []

    def step() -> Sample:
        sample = run.invoke(traced=False)[0]
        setup.extend(run.setup_samples())
        return sample

    samples = timed_loop(seconds, step, MIN_REPETITIONS)
    for s in setup:
        if s.status != 0:
            samples[0].problems.append(f"set-up probe failed: {s.problems}")
    passed = sum(1 for s in samples if not s.problems)
    metrics = {
        "run_s": (statistics.median(s.wall_s for s in samples), "s"),
        "run_cpu_s": (statistics.median(s.cpu_s for s in samples), "s"),
        "setup_s": (statistics.median(s.wall_s for s in setup), "s"),
        "peak_rss_mb": (statistics.median(s.rss_mb for s in samples), "MB"),
        "pass_frac": (passed / len(samples), "ratio"),
    }
    return metrics, samples, {"setup": [asdict(s) for s in setup]}


def per_layer(run: Run, seconds: float) -> tuple[dict, list[Sample], dict]:
    def pair():
        plain, _, _ = run.invoke(traced=False)
        traced, out, trace = run.invoke(traced=True)
        tables = None
        if traced.status == 0:
            summary = json.loads(trace.read_text(encoding="utf-8"))
            layers = layer_metrics(summary)
            layers["reports.bytes"] = (sum(len(b) for b in report_bytes(out).values()), "bytes")
            tables = (layers, call_times(summary))
        return plain, traced, tables

    pairs = timed_loop(seconds, pair, 1)
    samples = [s for p in pairs for s in p[:2]]
    tables = [p[2] for p in pairs if p[2] is not None]
    if not tables:
        return {}, samples, {}
    figures = {}
    for name, (value, unit) in tables[0][0].items():
        if unit == "s":
            figures[name] = (statistics.median(t[0][name][0] for t in tables), unit)
            continue
        figures[name] = (value, unit)
        if any(t[0][name][0] != value for t in tables[1:]):
            pairs[0][1].problems.append(f"{name} differs between traced invocations")
    for name, (_, unit) in tables[0][1].items():
        figures[name] = (statistics.median(t[1][name][0] for t in tables), unit)
    overhead = statistics.median(p[1].wall_s for p in pairs) / statistics.median(
        p[0].wall_s for p in pairs
    )
    figures["trace.overhead"] = (overhead, "ratio")
    # BENCHMARK.json lists only figures measured on every workload: a time
    # that reads exactly 0 where a layer is never called is printed, not reported.
    reported = [m["name"] for m in json.loads(BENCH.read_text(encoding="utf-8"))["per_layer"]]
    missing = [name for name in reported if name not in figures]
    if missing:
        pairs[0][1].problems.append(f"per-layer metrics not measured: {missing}")
    metrics = {name: figures.pop(name) for name in reported if name in figures}
    return metrics, samples, {"unreported": figures}


def environment(args: argparse.Namespace) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "loadavg": list(os.getloadavg()),
        "platform": platform.platform(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "leafhom" / "cli.py").is_file():
        print(f"error: no leafhom sources under {SRC}; run from the repository root", file=sys.stderr)
        return 2
    env = environment(args)
    print("env: " + json.dumps(env, sort_keys=True), flush=True)
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = results / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = WORK / f"{stem.name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        run = Run(WORKLOADS[args.workload](args.seed), work)
        measure = per_layer if args.trace else end_to_end
        metrics, samples, extra = measure(run, args.seconds)
        if run.first_trace is not None and run.first_trace.exists():
            # keep the first traced invocation's summary and span table
            run.first_trace.replace(stem.with_suffix(".trace.json"))
            Path(f"{run.first_trace}.spans").replace(stem.with_suffix(".spans"))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    failed = sum(1 for s in samples if s.problems)
    for s in samples:
        for problem in s.problems:
            print(f"FAILED: {problem}", flush=True)
    values = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    shown = {**metrics, **extra.get("unreported", {})}
    for name, (value, unit) in shown.items():
        print(f"{name:<40} {value:>14.6g} {unit}")
    print(f"{'fail_frac':<40} {failed / len(samples):>14.6g} ratio ({failed}/{len(samples)} invocations)")
    record = {"env": env, "metrics": values, "samples": [asdict(s) for s in samples], **extra}
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    result = {
        "correct": failed == 0 and bool(metrics),
        "attempted": len(samples),
        "failed": failed,
        "metrics": values,
    }
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())

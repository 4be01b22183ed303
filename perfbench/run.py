"""Benchmark of conv-spectra: four closed-loop workloads, one client each.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --trace both --out perfbench/results/FILE.json

Workloads, each in its own process (see BENCHMARK.json for why each exists):

  spectrum-channels  compute_spectrum, k=3, 16x16 map, 16 -> 16 channels
  norm-maps          operator_norm, k=3, 56x56 map, 4 -> 4 channels
  project-c5         project_layer, k=3, 8x8 map, 2 -> 2 channels, bound 0.7, 25 rounds
  cli-roundtrip      conv_spectra.cli.main: `spectrum` CSV export and `clip` in
                     turn, k=3, 16x16 map, 8 -> 8 channels; its set-up is a cold
                     `python -m conv_spectra.cli` process

With --trace 0 it reports the end-to-end metrics; with --trace 1 a separate
traced run times the calls between the modules of conv_spectra, reports
per-layer metrics and writes its spans to .perfbench_work/spans/NAME.jsonl.
Host contention slows the core for seconds to minutes at a time, so the
bounded metrics are those it moves least: latency_vs_numpy (each operation's
time over that of a fixed numpy computation timed right after it), setup_s
(the fastest of the set-up probes spread across the run) and peak_rss_mb;
the latency minimum, median and tail in ms are printed beside them. The
environment (numpy, BLAS, thread variables, cores,
Python, commit, seed) is printed with every run. The benchmark sets no
thread variable itself. The last line of stdout is one JSON object
{correct, attempted, failed, metrics}, whose metrics are those BENCHMARK.json
lists for the run's mode.

Exit code 0 when every run produced a result, 1 when a workload process
failed, 2 when the checkout has no conv_spectra sources.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import threading
import time
from pathlib import Path

from workload import ROOT, SRC, WORKLOADS

HERE = Path(__file__).resolve().parent
BENCHMARK = ROOT / "BENCHMARK.json"
# Every run must end within 180 s; this leaves room to stop a stuck child.
BUDGET_S = 170.0

UNITS = {
    "latency_vs_numpy": "ratio",
    "latency_min_ms": "ms",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "throughput_ops_s": "ops/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "error_rate": "fraction",
    "norm_excess": "ratio",
}
LAYER_UNITS = {
    "self_ms": "ms",
    "startup_ms": "ms",
    "bytes_in": "B",
    "bytes_out": "B",
    "calls": "count",
    "bins": "count",
    "rounds": "count",
}


def unit(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    return LAYER_UNITS.get(name.rsplit(".", 1)[-1], "ratio")


class WorkloadFailed(Exception):
    pass


def run_workload(name: str, seed: int, seconds: float, trace: int, deadline: float) -> dict:
    """Run one workload process, killed if it outlives the run's budget, and
    return the JSON object it prints last."""
    argv = [
        sys.executable, str(HERE / "workload.py"), "--workload", name,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
    timer.start()
    try:
        out = proc.stdout.read()
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if code != 0:
        raise WorkloadFailed(f"workload process exited with code {code}")
    return json.loads(out.strip().splitlines()[-1])


def report(name: str, seed: int, seconds: float, trace: int, result: dict, declared: dict) -> dict:
    metrics = result["metrics"]
    print(f"{name}  seed={seed}  seconds={seconds:g}  trace={trace}")
    print(f"  attempted {result['attempted']}  failed {result['failed']}")
    for key in sorted(metrics) if trace else list(UNITS):
        if key not in metrics:
            continue
        note = ""
        if key == "latency_tail_ms":
            tail = result["tail"]
            note = f"  (p{tail['percentile']:.2f} of {tail['samples']} samples)"
        if key.endswith(".bytes_in") or key.endswith(".bytes_out"):
            note = "  (computed)"
        print(f"  {key:<28} {metrics[key]!r} {unit(key)}{note}")
    print("environment " + json.dumps(result["environment"]))
    section = declared["per_layer" if trace else "end_to_end"]
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
            for m in section
            if m["name"] in metrics
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"], required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None, help="default: run_seconds")
    parser.add_argument("--trace", choices=("0", "1", "both"), default="0")
    parser.add_argument("--out", default=None, help="also write every run's report as JSON")
    args = parser.parse_args(argv)

    if not (SRC / "conv_spectra" / "__init__.py").is_file():
        print(f"error: no conv_spectra sources under {SRC}", file=sys.stderr)
        return 2
    declared = json.loads(BENCHMARK.read_text())
    seconds = args.seconds if args.seconds is not None else declared["run_seconds"]
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    traces = (0, 1) if args.trace == "both" else (int(args.trace),)
    runs = []
    for name in names:
        for trace in traces:
            deadline = time.monotonic() + BUDGET_S
            try:
                result = run_workload(name, args.seed, seconds, trace, deadline)
            except WorkloadFailed as exc:
                print(f"error: {name}: {exc}", file=sys.stderr)
                return 1
            line = report(name, args.seed, seconds, trace, result, declared)
            runs.append({"workload": name, "seed": args.seed, "seconds": seconds, "trace": trace,
                         "result": line, **result})
            print(json.dumps(line), flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps({"runs": runs}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

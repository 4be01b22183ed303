"""One workload process of the benchmark.

    python3 perfbench/workload.py --workload NAME --seed N --seconds S --trace 0|1
        [--setup-only]

It imports conv_spectra from the checkout's ``src``, does its untimed
warm-up, runs one client in a closed loop and prints one JSON object with its
measurements; run.py starts it and reports. Every input comes from --seed and
is made before its operation's timer starts, and every result is checked
against the numpy-only reference after the timer stops. With --setup-only it
prints ``ready`` after the warm-up and stops; the measured run starts such
processes between slices of its loop to time set-up. A traced run writes its
spans to .perfbench_work/spans/NAME.jsonl.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import reference
from tracer import Tracer, summarize

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SPANS = WORK / "spans"

# Set-up probes per measured run, spread over the run between slices of the loop.
SETUP_SAMPLES = 16
STARTUP_SAMPLES = 5
# Traced operations per run; the per-layer values are means over them.
TRACED_OP_CAP = 100
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "CONV_SPECTRA_THREADS")
# The yardstick of latency_vs_numpy: the numpy reference spectrum of this
# fixed layer, 3x3 kernel, 8 -> 8 channels, 16x16 map (about 5 ms).
YARDSTICK = np.random.default_rng(0).standard_normal((3, 3, 8, 8))


def child_env() -> dict[str, str]:
    """The environment as inherited, plus the checkout's src on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def relative_change(out: np.ndarray, kernel: np.ndarray) -> float:
    return float(np.linalg.norm(out - kernel) / np.linalg.norm(kernel))


class Library:
    """One call of a public conv_spectra function per operation, in this process."""

    def setup(self) -> None:
        self.cs = importlib.import_module("conv_spectra")

    def warm_up(self, rng) -> None:
        self.run(self.make_input(rng))

    def setup_probe(self, seed: int, rng) -> float:
        """Seconds from starting a fresh process of this workload until it is
        ready: interpreter start, imports and the warm-up operation."""
        argv = [
            sys.executable, str(HERE / "workload.py"), "--workload", self.name, "--seed", str(seed),
            "--seconds", "0", "--trace", "0", "--setup-only",
        ]
        start = time.perf_counter()
        with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError("set-up probe did not become ready")
        return elapsed

    def make_input(self, rng) -> np.ndarray:
        return rng.standard_normal(self.kernel_shape)

    def close(self) -> None:
        pass

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class SpectrumChannels(Library):
    name = "spectrum-channels"
    kernel_shape = (3, 3, 16, 16)
    n = 16

    def run(self, kernel):
        cs = self.cs
        return cs.compute_spectrum(cs.Kernel4D(kernel), cs.FeatureShape(self.n, self.n))

    def check(self, kernel, out):
        ref = reference.spectrum(kernel, self.n, self.n)
        return reference.deviation(out.values, ref) <= reference.LIMIT, {}


class NormMaps(Library):
    name = "norm-maps"
    kernel_shape = (3, 3, 4, 4)
    n = 56

    def run(self, kernel):
        cs = self.cs
        return cs.operator_norm(cs.Kernel4D(kernel), cs.FeatureShape(self.n, self.n))

    def check(self, kernel, out):
        return reference.close(out, reference.spectrum(kernel, self.n, self.n)[0]), {}


class ProjectC5(Library):
    """The geometry of the repo's acceptance criterion 5."""

    name = "project-c5"
    kernel_shape = (3, 3, 2, 2)
    n = 8
    bound = 0.7
    rounds = 25

    def run(self, kernel):
        cs = self.cs
        return cs.project_layer(
            cs.Kernel4D(kernel), cs.FeatureShape(self.n, self.n), self.bound, rounds=self.rounds
        )

    def check(self, kernel, out):
        projected, report = out
        data = projected.data
        if data.shape != kernel.shape:
            return False, {}
        norm = reference.spectrum(data, self.n, self.n)[0]
        extras = {
            "norm_excess": max(0.0, norm / self.bound - 1.0),
            "kernel_shift": relative_change(data, kernel),
        }
        return reference.close(report.norm_after_restriction, norm), extras


class CliRoundtrip(Library):
    """`conv_spectra.cli.main` called in this process: one operation is a
    spectrum export and then a clip of a kernel saved with np.save. Its set-up
    is a cold `python -m conv_spectra.cli` process, so start-up shows in
    setup_s and file handling and argument parsing in the latency."""

    name = "cli-roundtrip"
    kernel_shape = (3, 3, 8, 8)
    n = 16
    commands = (
        ["spectrum", "--out", "s.csv", "--mode", "ratios", "--json"],
        ["clip", "--bound", "1.0", "--rounds", "3", "--out", "c.npy", "--json"],
    )

    def setup(self) -> None:
        self.cli = importlib.import_module("conv_spectra.cli")
        self.workdir = WORK / str(os.getpid())
        self.workdir.mkdir(parents=True, exist_ok=True)

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    def make_input(self, rng):
        kernel = rng.standard_normal(self.kernel_shape)
        np.save(self.workdir / "k.npy", kernel)
        for name in ("s.csv", "c.npy"):
            (self.workdir / name).unlink(missing_ok=True)
        return kernel

    def argv(self, command: int) -> list[str]:
        name, *options = self.commands[command]
        options = [str(self.workdir / o) if o.endswith((".csv", ".npy")) else o for o in options]
        return [
            name, "--kernel", str(self.workdir / "k.npy"), "--input-shape", str(self.n), str(self.n),
            *options,
        ]

    def run(self, kernel):
        """The exit code and printed output of each command in turn."""
        results = []
        for command in range(len(self.commands)):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = self.cli.main(self.argv(command))
            results.append((code, out.getvalue()))
        return results

    def setup_probe(self, seed: int, rng) -> float:
        """Seconds a cold CLI process takes to export a spectrum."""
        self.make_input(rng)
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "conv_spectra.cli", *self.argv(0)],
            env=child_env(), capture_output=True, text=True, timeout=60,
        )
        elapsed = time.perf_counter() - start
        if proc.returncode != 0:
            raise RuntimeError(f"set-up invocation failed: {proc.stderr.strip()}")
        return elapsed

    def check(self, kernel, results):
        if any(code != 0 for code, _ in results):
            return False, {}
        spectrum, clip = (json.loads(out.strip().splitlines()[-1]) for _, out in results)
        ref = reference.spectrum(kernel, self.n, self.n)
        lines = (self.workdir / "s.csv").read_text().splitlines()
        ratios = [float(line.split(",")[1]) for line in lines[1:]]
        clipped = np.load(self.workdir / "c.npy")
        if clipped.shape != kernel.shape:
            return False, {}
        ok = (
            lines[0] == "index,ratio"
            and reference.deviation(ratios, ref / ref[0]) <= reference.LIMIT
            and reference.close(spectrum["operator_norm"], ref[0])
            and reference.close(clip["norm_after_restriction"], reference.spectrum(clipped, self.n, self.n)[0])
        )
        return ok, {"kernel_shift": relative_change(clipped, kernel)}


WORKLOADS = {
    "spectrum-channels": SpectrumChannels,
    "norm-maps": NormMaps,
    "project-c5": ProjectC5,
    "cli-roundtrip": CliRoundtrip,
}


def rngs(seed: int):
    """Independent generators for the warm-up input and the measured inputs."""
    warm, run = np.random.SeedSequence(seed).spawn(2)
    return np.random.default_rng(warm), np.random.default_rng(run)


@dataclass
class Loop:
    latencies_ns: list[int] = field(default_factory=list)
    yardstick_ns: list[int] = field(default_factory=list)
    failed: int = 0
    extras: dict[str, list[float]] = field(default_factory=lambda: defaultdict(list))


def step(workload, rng, invoke, loop: Loop) -> int:
    """One operation: make an input, time invoke(input), check the result.
    It fails if it raises or its result fails the check. Returns its time."""
    inp = workload.make_input(rng)
    start = time.perf_counter_ns()
    try:
        out = invoke(inp)
        raised = False
    except Exception:
        traceback.print_exc(file=sys.stderr)
        raised = True
    elapsed = time.perf_counter_ns() - start
    loop.latencies_ns.append(elapsed)
    ok = False
    if not raised:
        try:
            ok, extras = workload.check(inp, out)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            ok, extras = False, {}
        for key, value in extras.items():
            loop.extras[key].append(value)
    loop.failed += not ok
    return elapsed


def deadline_for(seconds: float) -> float:
    """When a loop stops even if its timed operations have not filled ``seconds``."""
    return time.monotonic() + 2 * seconds + 30


def yardstick_ns() -> int:
    start = time.perf_counter_ns()
    reference.spectrum(YARDSTICK, 16, 16)
    return time.perf_counter_ns() - start


def measured_run(workload, rng, seconds: float, probe) -> tuple[Loop, list[float]]:
    """The untraced run: a closed loop of steps until the timed operations add
    up to ``seconds``, cut into SETUP_SAMPLES slices that each follow one
    set-up probe, so the probes are spread over the run like the operations.
    Each step is followed by one timing of the yardstick."""
    loop, setup = Loop(), []
    deadline = deadline_for(seconds)
    for _ in range(SETUP_SAMPLES):
        setup.append(probe())
        busy_ns = 0
        while busy_ns < seconds / SETUP_SAMPLES * 1e9 and time.monotonic() < deadline:
            busy_ns += step(workload, rng, workload.run, loop)
            loop.yardstick_ns.append(yardstick_ns())
    return loop, setup


def end_to_end(loop: Loop) -> tuple[dict[str, float], dict]:
    """Latency relative to the yardstick, latency minimum, median and tail,
    throughput over the timed time, error rate.

    The tail is the highest percentile that leaves at least ten samples above
    it: the (n-10)-th smallest of n. With ten samples or fewer it is the maximum.

    On a shared host other tenants slow a core by up to about 1.8x for
    seconds to minutes at a time, so the times in ms move from run to run with
    the share of the run spent in slow stretches. latency_vs_numpy is the
    median over operations of the operation's time over the time of the
    yardstick measured right after it: both slow down together, so it keeps
    what the program costs and drops most of what the host costs.
    """
    ms = sorted(t / 1e6 for t in loop.latencies_ns)
    n = len(ms)
    tail_index = n - 11 if n > 10 else n - 1
    metrics = {
        "latency_vs_numpy": statistics.median(
            op / ref for op, ref in zip(loop.latencies_ns, loop.yardstick_ns)
        ),
        "latency_min_ms": ms[0],
        "latency_p50_ms": statistics.median(ms),
        "latency_tail_ms": ms[tail_index],
        "throughput_ops_s": (n - loop.failed) / (sum(ms) / 1e3),
        "error_rate": loop.failed / n,
    }
    if loop.extras.get("norm_excess"):
        metrics["norm_excess"] = statistics.median(loop.extras["norm_excess"])
    tail = {"percentile": 100.0 * (tail_index + 1) / n, "samples": n}
    return metrics, tail


def layer_specific(spans, layers) -> dict[str, float]:
    """svd.bins, svd.vector_share, projection.rounds and projection.clipped_share."""
    n_ops = max(len({s.op for s in spans}), 1)
    svd = [s for s in spans if s.layer == "svd" and s.boundary]
    bins = sum(s.matrices for s in svd)
    with_vectors = sum(s.matrices for s in svd if s.result_arrays >= 2)
    out = {}
    if "svd" in layers:
        out["svd.bins"] = bins / n_ops
        out["svd.vector_share"] = with_vectors / bins if bins else 0.0
    if "projection" in layers:
        reports = [s for s in spans if s.layer == "projection" and s.bins_modified is not None]
        modified = sum(s.bins_modified for s in reports)
        out["projection.rounds"] = len(reports) / n_ops
        out["projection.clipped_share"] = modified / with_vectors if with_vectors else 0.0
    return out


def cli_startup_ms() -> float:
    """Median time of a child process that only imports conv_spectra.cli."""
    samples = []
    for _ in range(STARTUP_SAMPLES):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import conv_spectra.cli"], env=child_env(), check=True, timeout=60
        )
        samples.append(time.perf_counter() - start)
    return statistics.median(samples) * 1e3


def traced_run(workload, rng, seconds: float):
    """Untraced and traced operations in turn, in one loop, so that both see
    the same machine state; returns the two loops, the spans and the layers.

    The tracer is installed around each traced step and removed after it,
    outside the timed region, so untraced operations run the plain code.
    """
    plain, traced = Loop(), Loop()
    deadline = deadline_for(seconds)
    tracer = Tracer()
    busy_ns = 0
    while busy_ns < seconds * 1e9 and time.monotonic() < deadline:
        if len(traced.latencies_ns) >= TRACED_OP_CAP:
            break
        busy_ns += step(workload, rng, workload.run, plain)
        with tracer:
            busy_ns += step(workload, rng, lambda inp: tracer.op(workload.run, inp), traced)
    return plain, traced, tracer.spans, tracer.layers, tracer.skipped


def per_layer(plain: Loop, traced: Loop, spans, layers) -> dict[str, float]:
    metrics = summarize(spans, layers)
    metrics.update(layer_specific(spans, layers))
    shifts = plain.extras.get("kernel_shift", []) + traced.extras.get("kernel_shift", [])
    if "projection" in layers:
        metrics["projection.kernel_shift"] = statistics.median(shifts) if shifts else 0.0
    if "cli" in layers:
        metrics["cli.startup_ms"] = cli_startup_ms()
    # The loops ran in turn, so their sums cover the same stretches of time.
    metrics["trace.overhead_share"] = sum(traced.latencies_ns) / sum(plain.latencies_ns) - 1.0
    return metrics


def write_spans(path: Path, spans) -> None:
    """The traced run's spans, one JSON object a line; each run replaces the file."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        for span in spans:
            fh.write(json.dumps(span._asdict()) + "\n")


def git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=30
        )
    except OSError:
        return "unavailable"
    return proc.stdout.strip() if proc.returncode == 0 else "unavailable"


def environment(seed: int) -> dict:
    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    return {
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "threads": {var: os.environ.get(var, "unset") for var in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "git_commit": git_commit(),
        "seed": seed,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]()
    warm_rng, run_rng = rngs(args.seed)
    workload.setup()
    try:
        workload.warm_up(warm_rng)
        if args.setup_only:
            print("ready", flush=True)
            return 0
        result = {}
        if args.trace:
            plain, traced, spans, layers, skipped = traced_run(workload, run_rng, args.seconds)
            loops = (plain, traced)
            result["metrics"] = per_layer(plain, traced, spans, layers)
            result["layers"] = sorted(layers)
            result["skipped"] = list(skipped)
            write_spans(SPANS / f"{args.workload}.jsonl", spans)
        else:
            loop, setup = measured_run(
                workload, run_rng, args.seconds, lambda: workload.setup_probe(args.seed, warm_rng)
            )
            loops = (loop,)
            result["metrics"], result["tail"] = end_to_end(loop)
            # Slow stretches of the host can only add time; the fastest probe is steadiest.
            result["metrics"]["setup_s"] = min(setup)
            result["metrics"]["peak_rss_mb"] = workload.peak_rss_mb()
            result["setup_samples"] = setup
    finally:
        workload.close()
    result["attempted"] = sum(len(loop.latencies_ns) for loop in loops)
    result["failed"] = sum(loop.failed for loop in loops)
    result["environment"] = environment(args.seed)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

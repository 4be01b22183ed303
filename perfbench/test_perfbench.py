"""Self-tests of the benchmark: the correctness gate, seeding and the tracer.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import math
import shutil
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import reference  # noqa: E402
import run  # noqa: E402
import workload as wl  # noqa: E402
from tracer import ENTRY, Tracer, discover, summarize  # noqa: E402


def ready(name):
    workload = wl.WORKLOADS[name]()
    workload.setup()
    return workload


def test_reference_matches_library():
    workload = ready("spectrum-channels")
    kernel = workload.make_input(np.random.default_rng(0))
    ref = reference.spectrum(kernel, 16, 16)
    assert reference.deviation(workload.run(kernel).values, ref) <= reference.LIMIT


def test_reference_in_blocks_matches_one_fft2():
    kernel = np.random.default_rng(1).standard_normal((3, 2, 3, 4))
    padded = np.zeros((13, 11, 3, 4))
    padded[:3, :2] = kernel
    bins = np.fft.fft2(padded, axes=(0, 1)).reshape(-1, 3, 4)
    whole = np.sort(np.linalg.svd(bins, compute_uv=False), axis=None)[::-1]
    assert reference.deviation(reference.spectrum(kernel, 13, 11), whole) <= 1e-13


def test_wrong_results_are_counted_as_failures():
    workload = ready("project-c5")

    def off_by_a_little(kernel):
        projected, report = workload.run(kernel)
        norm = report.norm_after_restriction * (1 + 1e-6)
        return projected, dataclasses.replace(report, norm_after_restriction=norm)

    def raises(kernel):
        raise RuntimeError("deliberate")

    def steps(invoke, n):
        loop = wl.Loop()
        for _ in range(n):
            wl.step(workload, rng, invoke, loop)
            loop.yardstick_ns.append(wl.yardstick_ns())
        return loop

    rng = wl.rngs(0)[1]
    assert steps(workload.run, 3).failed == 0
    loop = steps(off_by_a_little, 3)
    assert (len(loop.latencies_ns), loop.failed) == (3, 3)
    assert wl.end_to_end(loop)[0]["error_rate"] == 1.0
    assert steps(raises, 2).failed == 2


def test_cli_gate_rejects_a_wrong_csv_and_a_failed_exit():
    workload = ready("cli-roundtrip")
    try:
        kernel = workload.make_input(wl.rngs(0)[1])
        results = workload.run(kernel)
        assert workload.check(kernel, results)[0]
        assert not workload.check(kernel, [results[0], (1, results[1][1])])[0]
        csv = workload.workdir / "s.csv"
        lines = csv.read_text().splitlines()
        index, ratio = lines[5].split(",")
        lines[5] = f"{index},{float(ratio) * (1 + 1e-6)!r}"
        csv.write_text("\n".join(lines) + "\n")
        assert not workload.check(kernel, results)[0]
    finally:
        workload.close()


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_seed_sets_the_inputs(name):
    workload = ready(name)
    try:
        def first_input(seed):
            return workload.make_input(wl.rngs(seed)[1])

        assert np.array_equal(first_input(3), first_input(3))
        assert not np.array_equal(first_input(3), first_input(4))
    finally:
        workload.close()


def _globals_and_inits(package):
    modules = [importlib.import_module(name) for name in discover(package)]
    snapshot = {}
    for module in modules:
        for attr, value in vars(module).items():
            snapshot[(module.__name__, attr)] = value
            if isinstance(value, type):
                snapshot[(module.__name__, attr, "__init__")] = value.__dict__.get("__init__")
    return snapshot


def test_tracer_restores_every_patched_function():
    workload = ready("project-c5")
    before = _globals_and_inits("conv_spectra")
    tracer = Tracer().install()
    try:
        changed = [key for key, value in _globals_and_inits("conv_spectra").items() if before[key] is not value]
        assert len(tracer._patched) > 20 and len(changed) >= len(tracer._patched)
        # functions from other packages are left alone
        assert sys.modules["conv_spectra.projection"].replace is dataclasses.replace
        tracer.op(workload.run, workload.make_input(np.random.default_rng(0)))
    finally:
        tracer.restore()
    after = _globals_and_inits("conv_spectra")
    assert all(after[key] is value for key, value in before.items())


def test_traced_run_alternates_and_untraced_steps_run_plain_code():
    workload = ready("project-c5")
    before = _globals_and_inits("conv_spectra")
    seen = []

    def run(kernel):
        seen.append(sys.modules["conv_spectra"].project_layer is before[("conv_spectra", "project_layer")])
        return type(workload).run(workload, kernel)

    workload.run = run
    plain, traced, spans, layers, _ = wl.traced_run(workload, np.random.default_rng(0), 0.3)
    assert len(plain.latencies_ns) == len(traced.latencies_ns) >= 1
    assert seen == [True, False] * len(plain.latencies_ns)
    assert {s.op for s in spans} == set(range(1, len(traced.latencies_ns) + 1))
    assert plain.failed == traced.failed == 0
    after = _globals_and_inits("conv_spectra")
    assert all(after[key] is value for key, value in before.items())


def test_self_times_add_up_to_the_operation_time():
    workload = ready("project-c5")
    rng = np.random.default_rng(1)
    with Tracer() as tracer:
        for _ in range(3):
            tracer.op(workload.run, workload.make_input(rng))
    for op in (1, 2, 3):
        spans = [s for s in tracer.spans if s.op == op]
        (entry,) = [s for s in spans if s.layer == ENTRY]
        assert sum(s.self_ns for s in spans) == entry.end_ns - entry.start_ns
        assert all(s.self_ns >= 0 for s in spans)
    metrics = summarize(tracer.spans, tracer.layers)
    mean_ms = np.mean([s.end_ns - s.start_ns for s in tracer.spans if s.layer == ENTRY]) / 1e6
    total = sum(v for k, v in metrics.items() if k.endswith(".self_ms"))
    assert math.isclose(total, mean_ms, rel_tol=1e-9)
    assert metrics["projection.calls"] == 1.0
    assert wl.layer_specific(tracer.spans, tracer.layers)["projection.rounds"] == 25.0


def test_tracer_skips_missing_modules_and_foreign_functions():
    pkg = types.ModuleType("fakepkg")
    pkg.__path__ = []
    mod = types.ModuleType("fakepkg.a")
    source = (
        "import math\n"
        "from dataclasses import replace\n"
        "sqrt = math.sqrt\n"
        "def inner(x):\n    return x + 1\n"
        "def outer(x):\n    return inner(x) * 2\n"
    )
    exec(compile(source, "fakepkg/a.py", "exec"), mod.__dict__)
    mod.inner.__module__ = mod.outer.__module__ = "fakepkg.a"
    sys.modules.update({"fakepkg": pkg, "fakepkg.a": mod})
    try:
        tracer = Tracer("fakepkg", modules=["fakepkg.a", "fakepkg.gone"]).install()
        try:
            assert tracer.skipped == ["fakepkg.gone"]
            assert mod.replace is dataclasses.replace and mod.sqrt is math.sqrt
            assert tracer.op(mod.outer, 1) == 4
        finally:
            tracer.restore()
        assert [s.name for s in tracer.spans] == ["inner", "outer", ENTRY]
        assert [s.boundary for s in tracer.spans] == [False, True, False]
        metrics = summarize(tracer.spans, tracer.layers)
        assert {k.split(".")[0] for k in metrics} == {"a", ENTRY}
        assert metrics["a.calls"] == 1.0
    finally:
        del sys.modules["fakepkg"], sys.modules["fakepkg.a"]


def _run(args, cwd=HERE.parent):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


def test_result_line_holds_the_declared_metrics():
    declared = json.loads(run.BENCHMARK.read_text())
    proc = _run(["--workload", "project-c5", "--seed", "2", "--seconds", "0.5", "--trace", "both"])
    assert proc.returncode == 0, proc.stderr
    lines = [json.loads(x) for x in proc.stdout.splitlines() if x.startswith("{")]
    for line, section in zip(lines, ("end_to_end", "per_layer")):
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] and line["attempted"] >= 1 and line["failed"] == 0
        assert set(line["metrics"]) == {m["name"] for m in declared[section]}
    assert proc.stdout.splitlines()[-1].startswith("{")


def test_traced_cli_run_reaches_every_cli_layer_and_writes_its_spans():
    spans = run.ROOT / ".perfbench_work" / "spans" / "cli-roundtrip.jsonl"
    spans.unlink(missing_ok=True)
    proc = _run(["--workload", "cli-roundtrip", "--seconds", "1", "--trace", "1"])
    assert proc.returncode == 0, proc.stderr
    metrics = json.loads(proc.stdout.splitlines()[-1])["metrics"]
    assert metrics["array_io.calls"]["value"] > 0 and metrics["cli.calls"]["value"] > 0
    # the CLI's scratch directory is gone; only the spans stay
    assert [p.name for p in (run.ROOT / ".perfbench_work").iterdir()] == ["spans"]
    layers = {json.loads(line)["layer"] for line in spans.read_text().splitlines()}
    assert {"cli", "array_io", ENTRY} <= layers


def test_fails_without_the_sources():
    bare = run.ROOT / ".perfbench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.BENCHMARK, bare / "BENCHMARK.json")
        proc = _run(["--workload", "norm-maps", "--seed", "0", "--seconds", "1", "--trace", "0"], cwd=bare)
        assert proc.returncode != 0
        assert "{" not in proc.stdout
    finally:
        shutil.rmtree(bare.parent, ignore_errors=True)

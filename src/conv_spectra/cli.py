"""Command-line surface.

Subcommands: ``spectrum``, ``clip``, ``clip-reshaped``, ``oracle-check``,
``generate``, ``bench``. Exit codes are a stable scripting contract:
0 success, 1 I/O failure, 2 validation failure, 3 numerical-check failure.
``--json`` switches stdout to a single machine-readable object.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import bench as bench_mod
from .array_io import EXPORT_MODES, read_kernel, write_kernel, write_spectrum_csv
from .errors import IoFailure, NoConvergence, ValidationError
from .oracle import ORACLE_SIZE_CAP, full_matrix_spectrum, spectrum_deviation
from .projection import clip_reshaped, project_layer
from .spectra import compute_spectrum, operator_norm
from .svd import decompose
from .types import FeatureShape, Kernel4D, SpectrumReport

DEVIATION_LIMIT = 1e-8


@dataclass(frozen=True)
class CliConfig:
    """Parsed arguments for one invocation."""

    subcommand: str
    kernel_path: str | None = None
    input_shape: tuple[int, int] | None = None
    bound: float | None = None
    rounds: int = 1
    out_path: str | None = None
    top: int | None = None
    mode: str = "values"
    seed: int | None = None
    as_json: bool = False
    force: bool = False
    grid: str | None = None
    method: str = "both"
    repeats: int = 5
    warmup: int = 1


def _emit(config: CliConfig, payload: dict) -> None:
    if config.as_json:
        print(json.dumps(payload))
        return
    for key, value in payload.items():
        if isinstance(value, list):
            print(f"{key}:")
            for item in value:
                print(f"  {_plain(item)}")
        else:
            print(f"{key}: {_plain(value)}")


def _plain(value):
    if isinstance(value, float):
        return format(value, ".17g")
    return value


def _feature_shape(config: CliConfig) -> FeatureShape:
    n_h, n_w = config.input_shape
    return FeatureShape(n_h, n_w)


def cmd_spectrum(config: CliConfig) -> int:
    if config.top is not None and config.top < 1:
        raise ValidationError(f"--top must be >= 1, got {config.top}")
    kernel = read_kernel(config.kernel_path)
    shape = _feature_shape(config)
    spectrum = compute_spectrum(kernel, shape)
    name = os.path.splitext(os.path.basename(config.kernel_path))[0]
    report = SpectrumReport(layer_name=name, spectrum=spectrum)
    if config.out_path:
        write_spectrum_csv(report, config.out_path, mode=config.mode)
    payload = {
        "layer": name,
        "count": spectrum.count,
        "operator_norm": report.operator_norm,
    }
    # full spectra can be huge; stdout carries values only on request
    # (the CSV export and --json are the bulk paths)
    if config.top is not None:
        payload["values"] = [float(v) for v in spectrum.values[: config.top]]
    elif config.as_json:
        payload["values"] = [float(v) for v in spectrum.values]
    if config.out_path:
        payload["wrote"] = config.out_path
    _emit(config, payload)
    return 0


def cmd_clip(config: CliConfig) -> int:
    kernel = read_kernel(config.kernel_path)
    shape = _feature_shape(config)
    clipped, report = project_layer(kernel, shape, config.bound, rounds=config.rounds)
    write_kernel(clipped, config.out_path)
    payload = dataclasses.asdict(report)
    payload["rounds"] = config.rounds
    payload["wrote"] = config.out_path
    _emit(config, payload)
    return 0


def cmd_clip_reshaped(config: CliConfig) -> int:
    kernel = read_kernel(config.kernel_path)
    shape = _feature_shape(config)
    clipped = clip_reshaped(kernel, config.bound)
    write_kernel(clipped, config.out_path)
    k_h, k_w, m_out, m_in = clipped.shape
    flat = clipped.data.transpose(0, 1, 3, 2).reshape(k_h * k_w * m_in, m_out)
    reshaped_norm = float(decompose(flat)[0])
    layer_norm = operator_norm(clipped, shape)
    payload = {
        "requested_bound": config.bound,
        "reshaped_matrix_norm": reshaped_norm,
        "layer_operator_norm": layer_norm,
        "wrote": config.out_path,
    }
    _emit(config, payload)
    return 0


def cmd_oracle_check(config: CliConfig) -> int:
    kernel = read_kernel(config.kernel_path)
    shape = _feature_shape(config)
    exact = compute_spectrum(kernel, shape).values
    dense = full_matrix_spectrum(kernel, shape, size_cap=None if config.force else ORACLE_SIZE_CAP)
    deviation = spectrum_deviation(exact, dense)
    ok = deviation <= DEVIATION_LIMIT
    _emit(
        config,
        {
            "count": int(exact.size),
            "max_relative_deviation": deviation,
            "limit": DEVIATION_LIMIT,
            "result": "OK" if ok else "FAIL",
        },
    )
    return 0 if ok else 3


def cmd_generate(config: CliConfig, shape4: tuple[int, int, int, int]) -> int:
    if min(shape4) < 1:
        raise ValidationError(f"kernel dimensions must all be >= 1, got {shape4}")
    seed = config.seed
    if seed is None:
        seed = time.time_ns() % 2**32
    kernel = Kernel4D(np.random.default_rng(seed).standard_normal(shape4))
    write_kernel(kernel, config.out_path)
    _emit(config, {"seed": int(seed), "shape": list(shape4), "wrote": config.out_path})
    return 0


def cmd_bench(config: CliConfig) -> int:
    points = bench_mod.parse_grid(config.grid)
    methods = ("exact", "full_matrix") if config.method == "both" else (
        "full_matrix" if config.method == "full" else "exact",
    )
    specs = [
        bench_mod.BenchSpec(method=meth, n=n, m=m, k=k, repeats=config.repeats, warmup=config.warmup)
        for meth in methods
        for (n, m, k) in points
    ]
    rows = bench_mod.run_bench(
        specs,
        seed=config.seed if config.seed is not None else 0,
        force=config.force,
        out_path=config.out_path,
    )
    payload = {"rows": [dataclasses.asdict(r) for r in rows]}
    if config.out_path:
        payload["wrote"] = config.out_path
    if config.as_json:
        print(json.dumps(payload))
    else:
        print("method,n,m,k,repeats,median_s,min_s,checksum")
        for r in rows:
            print(
                f"{r.method},{r.n},{r.m},{r.k},{r.repeats},"
                f"{r.median_seconds:.9f},{r.min_seconds:.9f},{r.spectrum_checksum:.17g}"
            )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="conv-spectra",
        description="Exact singular value spectra and operator-norm projection "
        "for 2D multi-channel circular convolution layers.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(p: argparse.ArgumentParser, kernel=True, shape=True):
        if kernel:
            p.add_argument("--kernel", required=True, help="path to a 4D NPY kernel file")
        if shape:
            p.add_argument(
                "--input-shape",
                nargs=2,
                type=int,
                required=True,
                metavar=("H", "W"),
                help="feature map height and width",
            )
        p.add_argument("--json", action="store_true", help="emit one JSON object")

    p = sub.add_parser("spectrum", help="compute the layer's singular values")
    add_common(p)
    p.add_argument("--top", type=int, default=None, help="print only the N largest values")
    p.add_argument("--out", default=None, help="write the spectrum as CSV")
    p.add_argument("--mode", choices=EXPORT_MODES, default="values", help="CSV export mode")

    p = sub.add_parser("clip", help="project the layer onto an operator-norm ball")
    add_common(p)
    p.add_argument("--bound", type=float, required=True, help="operator-norm bound")
    p.add_argument(
        "--rounds", type=int, default=1, help="clip/restrict rounds, Anderson-mixed after the first"
    )
    p.add_argument("--out", required=True, help="output kernel path")

    p = sub.add_parser("clip-reshaped", help="clip the flattened-kernel-matrix singular values")
    add_common(p)
    p.add_argument("--bound", type=float, required=True, help="bound on the reshaped matrix norm")
    p.add_argument("--out", required=True, help="output kernel path")

    p = sub.add_parser("oracle-check", help="compare against the dense full-matrix spectrum")
    add_common(p)
    p.add_argument("--force", action="store_true", help="lift the dense size cap")

    p = sub.add_parser("generate", help="write a seeded standard-normal kernel")
    p.add_argument(
        "--shape",
        nargs=4,
        type=int,
        required=True,
        metavar=("KH", "KW", "MOUT", "MIN"),
        help="kernel tensor shape",
    )
    p.add_argument("--seed", type=int, default=None, help="RNG seed (time-derived if omitted)")
    p.add_argument("--out", required=True, help="output kernel path")
    p.add_argument("--json", action="store_true", help="emit one JSON object")

    p = sub.add_parser("bench", help="time the exact method against the full-matrix method")
    p.add_argument("--grid", required=True, help='grid like "n=16,m=4,8,16,k=3"')
    p.add_argument("--method", choices=("exact", "full", "both"), default="both")
    p.add_argument("--repeats", type=int, default=5)
    p.add_argument("--warmup", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="write timings CSV")
    p.add_argument("--force", action="store_true", help="lift the dense size cap")
    p.add_argument("--json", action="store_true")
    return parser


def _config_from(args: argparse.Namespace) -> CliConfig:
    return CliConfig(
        subcommand=args.subcommand,
        kernel_path=getattr(args, "kernel", None),
        input_shape=tuple(args.input_shape) if getattr(args, "input_shape", None) else None,
        bound=getattr(args, "bound", None),
        rounds=getattr(args, "rounds", 1),
        out_path=getattr(args, "out", None),
        top=getattr(args, "top", None),
        mode=getattr(args, "mode", "values"),
        seed=getattr(args, "seed", None),
        as_json=getattr(args, "json", False),
        force=getattr(args, "force", False),
        grid=getattr(args, "grid", None),
        method=getattr(args, "method", "both"),
        repeats=getattr(args, "repeats", 5),
        warmup=getattr(args, "warmup", 1),
    )


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    config = _config_from(args)
    try:
        if config.subcommand == "spectrum":
            return cmd_spectrum(config)
        if config.subcommand == "clip":
            return cmd_clip(config)
        if config.subcommand == "clip-reshaped":
            return cmd_clip_reshaped(config)
        if config.subcommand == "oracle-check":
            return cmd_oracle_check(config)
        if config.subcommand == "generate":
            return cmd_generate(config, tuple(args.shape))
        if config.subcommand == "bench":
            return cmd_bench(config)
        raise ValidationError(f"unknown subcommand {config.subcommand!r}")
    except (ValidationError, ValueError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except NoConvergence as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except (IoFailure, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()

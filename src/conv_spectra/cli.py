"""Command-line surface.

Subcommands: ``spectrum``, ``clip``, ``clip-reshaped``, ``oracle-check``,
``generate``, ``bench``. Exit codes are a stable scripting contract:
0 success, 1 I/O failure, 2 validation failure, 3 numerical-check failure
(no SVD convergence, singular values that overflowed, an imaginary residual
after clipping, or an oracle deviation above the limit).
``--json`` switches stdout to a single machine-readable object.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time

import numpy as np

from . import bench as bench_mod
from .array_io import EXPORT_MODES, read_kernel, write_kernel, write_spectrum_csv
from .errors import ImaginaryResidual, IoFailure, NoConvergence, NumericalOverflow, ValidationError
from .oracle import ORACLE_SIZE_CAP, full_matrix_spectrum, spectrum_deviation
from .projection import clip_reshaped, project_layer
from .spectra import compute_spectrum, operator_norm
from .svd import decompose
from .types import FeatureShape, Kernel4D, SpectrumReport

DEVIATION_LIMIT = 1e-8


def _emit(args: argparse.Namespace, payload: dict) -> None:
    if args.json:
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


def _feature_shape(args: argparse.Namespace) -> FeatureShape:
    n_h, n_w = args.input_shape
    return FeatureShape(n_h, n_w)


def cmd_spectrum(args: argparse.Namespace) -> int:
    if args.top is not None and args.top < 1:
        raise ValidationError(f"--top must be >= 1, got {args.top}")
    kernel = read_kernel(args.kernel)
    shape = _feature_shape(args)
    spectrum = compute_spectrum(kernel, shape)
    name = os.path.splitext(os.path.basename(args.kernel))[0]
    report = SpectrumReport(layer_name=name, spectrum=spectrum)
    if args.out:
        write_spectrum_csv(report, args.out, mode=args.mode)
    payload = {
        "layer": name,
        "count": spectrum.count,
        "operator_norm": report.operator_norm,
    }
    # full spectra can be huge; stdout carries values only on request
    # (the CSV export and --json are the bulk paths)
    if args.top is not None:
        payload["values"] = [float(v) for v in spectrum.values[: args.top]]
    elif args.json:
        payload["values"] = [float(v) for v in spectrum.values]
    if args.out:
        payload["wrote"] = args.out
    _emit(args, payload)
    return 0


def cmd_clip(args: argparse.Namespace) -> int:
    kernel = read_kernel(args.kernel)
    shape = _feature_shape(args)
    clipped, report = project_layer(kernel, shape, args.bound, rounds=args.rounds)
    write_kernel(clipped, args.out)
    payload = dataclasses.asdict(report)
    payload["rounds"] = args.rounds
    payload["wrote"] = args.out
    _emit(args, payload)
    return 0


def cmd_clip_reshaped(args: argparse.Namespace) -> int:
    kernel = read_kernel(args.kernel)
    shape = _feature_shape(args)
    clipped = clip_reshaped(kernel, args.bound)
    write_kernel(clipped, args.out)
    k_h, k_w, m_out, m_in = clipped.shape
    flat = clipped.data.transpose(0, 1, 3, 2).reshape(k_h * k_w * m_in, m_out)
    reshaped_norm = float(decompose(flat)[0])
    layer_norm = operator_norm(clipped, shape)
    payload = {
        "requested_bound": args.bound,
        "reshaped_matrix_norm": reshaped_norm,
        "layer_operator_norm": layer_norm,
        "wrote": args.out,
    }
    _emit(args, payload)
    return 0


def cmd_oracle_check(args: argparse.Namespace) -> int:
    kernel = read_kernel(args.kernel)
    shape = _feature_shape(args)
    exact = compute_spectrum(kernel, shape).values
    dense = full_matrix_spectrum(kernel, shape, size_cap=None if args.force else ORACLE_SIZE_CAP)
    deviation = spectrum_deviation(exact, dense)
    ok = deviation <= DEVIATION_LIMIT
    _emit(
        args,
        {
            "count": int(exact.size),
            "max_relative_deviation": deviation,
            "limit": DEVIATION_LIMIT,
            "result": "OK" if ok else "FAIL",
        },
    )
    return 0 if ok else 3


def cmd_generate(args: argparse.Namespace) -> int:
    shape4 = tuple(args.shape)
    if min(shape4) < 1:
        raise ValidationError(f"kernel dimensions must all be >= 1, got {shape4}")
    seed = args.seed
    if seed is None:
        seed = time.time_ns() % 2**32
    kernel = Kernel4D(np.random.default_rng(seed).standard_normal(shape4))
    write_kernel(kernel, args.out)
    _emit(args, {"seed": int(seed), "shape": list(shape4), "wrote": args.out})
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    methods = {"both": bench_mod.METHODS, "full": ("full_matrix",), "exact": ("exact",)}
    rows = bench_mod.run_bench(
        bench_mod.parse_grid(args.grid),
        methods[args.method],
        repeats=args.repeats,
        warmup=args.warmup,
        seed=args.seed,
        force=args.force,
    )
    payload = {"rows": [dataclasses.asdict(r) for r in rows]}
    if args.out:
        with open(args.out, "w", newline="\n") as fh:
            fh.write(bench_mod.rows_csv(rows))
        payload["wrote"] = args.out
    if args.json:
        print(json.dumps(payload))
    else:
        print(bench_mod.rows_csv(rows), end="")
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
    p.set_defaults(run=cmd_spectrum)
    add_common(p)
    p.add_argument("--top", type=int, default=None, help="print only the N largest values")
    p.add_argument("--out", default=None, help="write the spectrum as CSV")
    p.add_argument("--mode", choices=EXPORT_MODES, default="values", help="CSV export mode")

    p = sub.add_parser("clip", help="project the layer onto an operator-norm ball")
    p.set_defaults(run=cmd_clip)
    add_common(p)
    p.add_argument("--bound", type=float, required=True, help="operator-norm bound")
    p.add_argument(
        "--rounds", type=int, default=1, help="clip/restrict rounds, Anderson-mixed after the first"
    )
    p.add_argument("--out", required=True, help="output kernel path")

    p = sub.add_parser("clip-reshaped", help="clip the flattened-kernel-matrix singular values")
    p.set_defaults(run=cmd_clip_reshaped)
    add_common(p)
    p.add_argument("--bound", type=float, required=True, help="bound on the reshaped matrix norm")
    p.add_argument("--out", required=True, help="output kernel path")

    p = sub.add_parser("oracle-check", help="compare against the dense full-matrix spectrum")
    p.set_defaults(run=cmd_oracle_check)
    add_common(p)
    p.add_argument("--force", action="store_true", help="lift the dense size cap")

    p = sub.add_parser("generate", help="write a seeded standard-normal kernel")
    p.set_defaults(run=cmd_generate)
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
    p.set_defaults(run=cmd_bench)
    p.add_argument("--grid", required=True, help='grid like "n=16,m=4,8,16,k=3"')
    p.add_argument("--method", choices=("exact", "full", "both"), default="both")
    p.add_argument("--repeats", type=int, default=5)
    p.add_argument("--warmup", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="write timings CSV")
    p.add_argument("--force", action="store_true", help="lift the dense size cap")
    p.add_argument("--json", action="store_true")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except (ValidationError, ValueError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except (NoConvergence, NumericalOverflow, ImaginaryResidual) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except (IoFailure, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()

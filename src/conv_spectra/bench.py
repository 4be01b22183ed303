"""Timing harness: exact spectrum method vs the dense full-matrix method.

Each run generates a seeded standard-normal kernel, warms up, then times
repeated spectrum computations with a monotonic wall clock, reporting the
median and minimum. The checksum (sum of singular values) forces full
materialization of every timed result and doubles as a cross-method
consistency check.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass

import numpy as np

from .oracle import ORACLE_SIZE_CAP, full_matrix_spectrum
from .spectra import compute_spectrum
from .types import FeatureShape, Kernel4D

METHODS = ("exact", "full_matrix")


@dataclass(frozen=True)
class BenchRow:
    method: str
    n: int
    m: int
    k: int
    repeats: int
    median_seconds: float
    min_seconds: float
    spectrum_checksum: float


def bench_kernel(n: int, m: int, k: int, seed: int = 0) -> Kernel4D:
    """Standard-normal kernel for a grid point, deterministic in (seed, n, m, k)."""
    rng = np.random.default_rng([seed, n, m, k])
    return Kernel4D(rng.standard_normal((k, k, m, m)))


def time_method(
    method: str,
    kernel: Kernel4D,
    shape: FeatureShape,
    repeats: int,
    warmup: int = 1,
    force: bool = False,
) -> tuple[float, float, float]:
    """(median_seconds, min_seconds, checksum) over ``repeats`` timed runs."""

    if method == "exact":

        def run() -> float:
            return float(compute_spectrum(kernel, shape).values.sum())

    else:
        cap = None if force else ORACLE_SIZE_CAP

        def run() -> float:
            return float(full_matrix_spectrum(kernel, shape, size_cap=cap).sum())

    for _ in range(warmup):
        checksum = run()
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        checksum = run()
        times.append(time.perf_counter() - start)
    return float(np.median(times)), float(min(times)), checksum


def run_bench(
    points: list[tuple[int, int, int]],
    methods: tuple[str, ...] = METHODS,
    repeats: int = 5,
    warmup: int = 1,
    seed: int = 0,
    force: bool = False,
) -> list[BenchRow]:
    """Time every method at every (n, m, k) grid point, methods outermost.

    Every argument is checked before anything is timed; each point's kernel
    is regenerated from ``seed``.
    """
    if not set(methods) <= set(METHODS):
        raise ValueError(f"methods must be among {METHODS}, got {methods!r}")
    for n, m, k in points:
        if not (1 <= k <= n and m >= 1):
            raise ValueError(f"need 1 <= k <= n and m >= 1, got n={n} m={m} k={k}")
    if repeats < 3:
        raise ValueError(f"repeats must be >= 3, got {repeats}")
    if warmup < 1:
        raise ValueError(f"warmup must be >= 1, got {warmup}")
    rows = []
    for method, (n, m, k) in itertools.product(methods, points):
        kernel = bench_kernel(n, m, k, seed=seed)
        timing = time_method(method, kernel, FeatureShape(n, n), repeats, warmup, force=force)
        rows.append(BenchRow(method, n, m, k, repeats, *timing))
    return rows


def rows_csv(rows: list[BenchRow]) -> str:
    """The rows as CSV text: a header line, then one LF-terminated line per row."""
    return "method,n,m,k,repeats,median_s,min_s,checksum\n" + "".join(
        f"{r.method},{r.n},{r.m},{r.k},{r.repeats},"
        f"{r.median_seconds:.9f},{r.min_seconds:.9f},{r.spectrum_checksum:.17g}\n"
        for r in rows
    )


def parse_grid(text: str) -> list[tuple[int, int, int]]:
    """Parse "n=16,m=4,8,16,k=3" into the cartesian product of (n, m, k).

    Comma-separated tokens; a token containing '=' starts a new variable,
    bare tokens extend the current variable's value list.
    """
    lists: dict[str, list[int]] = {}
    current = None
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        if "=" in token:
            name, value = token.split("=", 1)
            name = name.strip().lower()
            if name not in ("n", "m", "k"):
                raise ValueError(f"unknown grid variable {name!r} (expected n, m, k)")
            current = lists.setdefault(name, [])
            token = value
        if current is None:
            raise ValueError(f"grid must start with an assignment, got {token!r}")
        current.append(int(token))
    missing = [v for v in ("n", "m", "k") if v not in lists]
    if missing:
        raise ValueError(f"grid is missing {missing}")
    return list(itertools.product(lists["n"], lists["m"], lists["k"]))

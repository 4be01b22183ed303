import numpy as np
import pytest

from conv_spectra.bench import (
    BenchRow,
    bench_kernel,
    parse_grid,
    rows_csv,
    run_bench,
    time_method,
)
from conv_spectra.errors import SizeGuard
from conv_spectra.types import FeatureShape


class TestBenchSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            run_bench([(4, 2, 3)], methods=("gpu",))
        with pytest.raises(ValueError):
            run_bench([(4, 2, 5)], methods=("exact",))
        with pytest.raises(ValueError):
            run_bench([(4, 2, 3)], methods=("exact",), repeats=2)
        with pytest.raises(ValueError):
            run_bench([(4, 2, 3)], methods=("exact",), warmup=0)


class TestParseGrid:
    def test_single_point(self):
        assert parse_grid("n=16,m=32,k=3") == [(16, 32, 3)]

    def test_value_lists_and_products(self):
        points = parse_grid("n=8,16,m=2,4,k=3")
        assert points == [(8, 2, 3), (8, 4, 3), (16, 2, 3), (16, 4, 3)]

    def test_errors(self):
        with pytest.raises(ValueError):
            parse_grid("q=3")
        with pytest.raises(ValueError):
            parse_grid("n=4,m=2")
        with pytest.raises(ValueError):
            parse_grid("4,n=2,m=1,k=1")


class TestRunBench:
    def test_rows_structure(self):
        rows = run_bench([(4, 2, 3)], methods=("exact",), repeats=3)
        assert len(rows) == 1
        row = rows[0]
        assert isinstance(row, BenchRow)
        assert row.min_seconds <= row.median_seconds
        assert np.isfinite(row.spectrum_checksum) and row.spectrum_checksum > 0
        header = rows_csv(rows).splitlines()[0]
        assert header == "method,n,m,k,repeats,median_s,min_s,checksum"

    def test_checksum_consistent_across_methods(self):
        kernel = bench_kernel(4, 2, 3, seed=0)
        shape = FeatureShape(4, 4)
        _, _, exact = time_method("exact", kernel, shape, repeats=3)
        _, _, full = time_method("full_matrix", kernel, shape, repeats=3)
        assert exact == pytest.approx(full, rel=1e-6)

    def test_size_guard_without_force(self):
        kernel = bench_kernel(16, 32, 3, seed=0)
        with pytest.raises(SizeGuard):
            time_method("full_matrix", kernel, FeatureShape(16, 16), repeats=3)

    def test_seeded_kernels_are_reproducible(self):
        a = bench_kernel(8, 4, 3, seed=5)
        b = bench_kernel(8, 4, 3, seed=5)
        assert np.array_equal(a.data, b.data)


@pytest.mark.slow
class TestScalingBehavior:
    # compares minimum times: load from other processes only ever adds time,
    # so the fastest run is the one least exposed to it

    def test_exact_time_grows_with_channels(self):
        shape_n = 16
        fastest = []
        for m in (4, 8, 16, 32):
            kernel = bench_kernel(shape_n, m, 3, seed=1)
            _, least, _ = time_method("exact", kernel, FeatureShape(shape_n, shape_n), repeats=5)
            fastest.append(least)
        print(f"exact minimum times for m=4,8,16,32: {fastest}")
        assert all(b > a for a, b in zip(fastest, fastest[1:]))

    def test_exact_channel_doubling_ratio(self):
        # work per channel doubling is bounded by ~8x (cubic term); allow 3x slack
        shape = FeatureShape(16, 16)
        _, t16, _ = time_method("exact", bench_kernel(16, 16, 3, seed=2), shape, repeats=5)
        _, t32, _ = time_method("exact", bench_kernel(16, 32, 3, seed=2), shape, repeats=5)
        ratio = t32 / t16
        print(f"exact m 16->32 ratio: {ratio:.2f}")
        assert ratio <= 24.0

    def test_full_matrix_size_doubling_ratio(self):
        # dense SVD cost grows like the sixth power of the feature-map size;
        # allow 3x slack either way for small-size overheads and noise
        m = 4
        _, t8, _ = time_method("full_matrix", bench_kernel(8, m, 3, seed=3), FeatureShape(8, 8), repeats=5)
        _, t16, _ = time_method("full_matrix", bench_kernel(16, m, 3, seed=3), FeatureShape(16, 16), repeats=5)
        ratio = t16 / t8
        print(f"full-matrix n 8->16 ratio: {ratio:.1f}")
        assert 64.0 / 3.0 <= ratio <= 64.0 * 3.0

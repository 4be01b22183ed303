import ast
import inspect

import numpy as np
import pytest

from conv_spectra import oracle
from conv_spectra.errors import ShapeMismatch, SizeGuard
from conv_spectra.spectra import compute_spectrum
from conv_spectra.types import FeatureShape, Kernel4D

from conftest import identity_kernel, random_kernel


class TestIndependence:
    def test_imports_nothing_of_the_fast_path(self):
        imported = set()
        for node in ast.walk(ast.parse(inspect.getsource(oracle))):
            if isinstance(node, ast.ImportFrom):
                imported.add((node.module or "").rsplit(".", 1)[-1])
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.Import):
                imported.update(alias.name.rsplit(".", 1)[-1] for alias in node.names)
        assert imported.isdisjoint({"fourier", "svd", "spectra", "projection"}), imported


class TestCirculant:
    def test_three_entry_row_layout(self):
        a0, a1, a2 = 1.0, 2.0, 3.0
        expected = np.array([[a0, a1, a2], [a2, a0, a1], [a1, a2, a0]])
        assert np.array_equal(oracle.circulant([a0, a1, a2]), expected)

    def test_delta_row_gives_identity(self):
        assert np.array_equal(oracle.circulant([1.0, 0, 0, 0]), np.eye(4))

    def test_shift_row_gives_cyclic_permutation(self):
        p = oracle.circulant([0.0, 1.0, 0.0])
        x = np.array([10.0, 20.0, 30.0])
        assert np.array_equal(p @ x, np.array([20.0, 30.0, 10.0]))


class TestDoublyBlockCirculant:
    def test_delta_kernel_gives_identity(self):
        padded = np.zeros((3, 3))
        padded[0, 0] = 1.0
        assert np.array_equal(oracle.build_doubly_block_circulant(padded), np.eye(9))

    def test_column_shift_kernel_is_permutation(self):
        padded = np.zeros((3, 3))
        padded[0, 1] = 1.0
        a = oracle.build_doubly_block_circulant(padded)
        x = np.arange(9.0).reshape(3, 3)
        shifted = np.roll(x, -1, axis=1)
        assert np.array_equal(a @ x.reshape(-1), shifted.reshape(-1))

    def test_matches_loop_convolution(self):
        rng = np.random.default_rng(0)
        padded = rng.standard_normal((3, 3))
        kernel = Kernel4D(padded.reshape(3, 3, 1, 1))
        x = rng.standard_normal((1, 3, 3))
        a = oracle.build_doubly_block_circulant(padded)
        y = oracle.convolve_direct(kernel, x)
        assert np.abs(a @ x.reshape(-1) - y.reshape(-1)).max() <= 1e-12


class TestFullMatrix:
    def test_identity_kernel(self):
        m = oracle.build_full_matrix(identity_kernel(2), FeatureShape(2, 2))
        assert np.array_equal(m, np.eye(8))

    def test_matches_loop_convolution(self, shape44):
        kernel = random_kernel(1)
        x = np.random.default_rng(2).standard_normal((2, 4, 4))
        m = oracle.build_full_matrix(kernel, shape44)
        y = oracle.convolve_direct(kernel, x)
        assert np.abs(m @ x.reshape(-1) - y.reshape(-1)).max() <= 1e-12

    def test_rectangular_channels_shape(self, shape44):
        kernel = random_kernel(3, 3, 3, 3, 2)
        m = oracle.build_full_matrix(kernel, shape44)
        assert m.shape == (16 * 3, 16 * 2)
        x = np.random.default_rng(4).standard_normal((2, 4, 4))
        y = oracle.convolve_direct(kernel, x)
        assert np.abs(m @ x.reshape(-1) - y.reshape(-1)).max() <= 1e-12

    def test_dense_svd_matches_fast_path(self, shape44):
        kernel = random_kernel(5)
        dense = oracle.full_matrix_spectrum(kernel, shape44)
        fast = compute_spectrum(kernel, shape44).values
        assert oracle.spectrum_deviation(fast, dense) <= 1e-8

    def test_size_guard(self):
        kernel = random_kernel(6, 3, 3, 64, 64)
        with pytest.raises(SizeGuard):
            oracle.build_full_matrix(kernel, FeatureShape(64, 64))
        # explicit override lifts the guard (small case to keep this fast)
        small = random_kernel(6, 2, 2, 1, 1)
        m = oracle.build_full_matrix(small, FeatureShape(3, 3), size_cap=None)
        assert m.shape == (9, 9)


class TestConvolveDirect:
    def test_identity_kernel(self, shape44):
        x = np.random.default_rng(7).standard_normal((3, 4, 4))
        y = oracle.convolve_direct(identity_kernel(3), x)
        assert np.array_equal(y, x)

    def test_offset_kernel_shifts_columns(self):
        data = np.zeros((1, 2, 2, 2))
        data[0, 1, 0, 0] = 1.0
        data[0, 1, 1, 1] = 1.0
        kernel = Kernel4D(data)
        x = np.random.default_rng(8).standard_normal((2, 4, 4))
        y = oracle.convolve_direct(kernel, x)
        assert np.allclose(y, np.roll(x, -1, axis=2))

    def test_channel_mismatch(self, shape44):
        with pytest.raises(ShapeMismatch):
            oracle.convolve_direct(random_kernel(9, 3, 3, 2, 2), np.zeros((3, 4, 4)))

    def test_rectangular_feature_map(self):
        kernel = random_kernel(10, 2, 3, 2, 2)
        x = np.random.default_rng(11).standard_normal((2, 5, 7))
        m = oracle.build_full_matrix(kernel, FeatureShape(5, 7))
        y = oracle.convolve_direct(kernel, x)
        assert np.abs(m @ x.reshape(-1) - y.reshape(-1)).max() <= 1e-12


class TestCheckStructure:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_structure_facts_hold(self, n):
        rng = np.random.default_rng(n)
        report = oracle.check_structure(rng.standard_normal((n, n)), tolerance=1e-9)
        assert report.is_normal and report.q_unitary and report.q_diagonalizes

    def test_delta_kernel_unit_eigenvalues(self):
        padded = np.zeros((3, 3))
        padded[0, 0] = 1.0
        report = oracle.check_structure(padded)
        assert np.allclose(report.eigs, 1.0, atol=1e-12)

    def test_size_guard(self):
        with pytest.raises(SizeGuard):
            oracle.check_structure(np.zeros((100, 100)))


class TestSpectrumDeviation:
    def test_relative_to_reference_top(self):
        a = np.array([2.0, 1.0])
        b = np.array([2.0, 1.0 + 2e-8])
        assert oracle.spectrum_deviation(a, b) == pytest.approx(1e-8, rel=1e-3)

    def test_zero_reference_uses_absolute(self):
        assert oracle.spectrum_deviation(np.array([1e-9]), np.array([0.0])) == pytest.approx(1e-9)

    def test_size_mismatch_is_infinite(self):
        assert oracle.spectrum_deviation(np.zeros(3), np.zeros(4)) == np.inf

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conv_spectra import oracle
from conv_spectra.errors import KernelLargerThanInput
from conv_spectra.fourier import forward_half, inverse_half, multiplicity
from conv_spectra.spectra import compute_spectrum, single_channel_eigenvalues
from conv_spectra.types import FeatureShape, Kernel4D, zero_pad

from conftest import dft2_quartic, identity_kernel, random_kernel


def single(grid: np.ndarray) -> Kernel4D:
    """A 1 -> 1 channel kernel whose only slice is ``grid``."""
    return Kernel4D(np.asarray(grid, dtype=np.float64)[:, :, None, None])


def round_trip_error(kernel: Kernel4D, shape: FeatureShape) -> float:
    back, dropped = inverse_half(forward_half(kernel, shape), shape.n_w)
    assert back.shape == (shape.n_h, shape.n_w, kernel.m_out, kernel.m_in)
    assert dropped <= 1e-12 * np.abs(kernel.data).max()
    return float(np.abs(back - zero_pad(kernel, shape).data).max())


def hermitian_extension(half: np.ndarray, n_w: int) -> np.ndarray:
    """The full (n_h, n_w, ...) bins whose columns 0 .. n_w//2 are ``half`` and
    whose other columns are the exact conjugates bins[-u, -v] = conj(bins[u, v])."""
    n_h = half.shape[0]
    full = np.empty((n_h, n_w, *half.shape[2:]), dtype=complex)
    full[:, : half.shape[1]] = half
    for v in range(half.shape[1], n_w):
        full[:, v] = np.conj(half[(-np.arange(n_h)) % n_h, n_w - v])
    return full


def forward(kernel: Kernel4D, shape: FeatureShape) -> np.ndarray:
    """The full (n_h, n_w, m_out, m_in) bins that ``forward_half`` stands for."""
    return hermitian_extension(forward_half(kernel, shape), shape.n_w)


def library_fft2(kernel: Kernel4D, shape: FeatureShape) -> np.ndarray:
    """numpy's full 2D transform of each channel pair of the padded kernel."""
    return np.fft.fft2(zero_pad(kernel, shape).data, axes=(0, 1))


class TestDft2:
    """The forward transforms, and the half-spectrum inverse, on single-channel kernels."""

    def test_delta_gives_flat_spectrum(self):
        out = forward(single(np.ones((1, 1))), FeatureShape(4, 4))
        assert np.allclose(out[:, :, 0, 0], np.ones((4, 4)), atol=1e-14)

    def test_constant_concentrates_at_origin(self):
        out = forward(single(np.ones((4, 4))), FeatureShape(4, 4))
        expected = np.zeros((4, 4), dtype=complex)
        expected[0, 0] = 16.0
        assert np.allclose(out[:, :, 0, 0], expected, atol=1e-12)

    def test_round_trip_odd_sizes(self):
        kernel = random_kernel(5, 3, 4, 2, 1)
        assert round_trip_error(kernel, FeatureShape(5, 7)) <= 1e-12 * np.abs(kernel.data).max()

    def test_matches_quartic_loop_reference(self):
        rng = np.random.default_rng(6)
        for shape in [(4, 4), (3, 5), (6, 2), (1, 1)]:
            grid = rng.standard_normal(shape)
            out = forward(single(grid), FeatureShape(*shape))[:, :, 0, 0]
            assert np.abs(out - dft2_quartic(grid)).max() <= 1e-10

    def test_linearity(self):
        a = random_kernel(7, 3, 2, 2, 3)
        b = random_kernel(8, 3, 2, 2, 3)
        shape = FeatureShape(5, 4)
        lhs = forward(Kernel4D(2.5 * a.data - 1.5 * b.data), shape)
        rhs = 2.5 * forward(a, shape) - 1.5 * forward(b, shape)
        assert np.abs(lhs - rhs).max() <= 1e-12 * max(1.0, np.abs(rhs).max())

    def test_sign_convention_invariance(self):
        # ifft2 = (1/n) times the opposite-sign transform, so n*|ifft2|
        # is the magnitude surface of the +-convention transform
        rng = np.random.default_rng(8)
        for shape in [(4, 4), (5, 7), (8, 3)]:
            grid = rng.standard_normal(shape)
            fwd = np.sort(np.abs(forward(single(grid), FeatureShape(*shape))), axis=None)
            other = np.sort(np.abs(np.fft.ifft2(grid)) * grid.size, axis=None)
            assert np.abs(fwd - other).max() <= 1e-12 * max(1.0, fwd.max())


class TestFourierMatrix:
    """The dense DFT matrix of the oracle, the reference the transforms answer to."""

    def test_length_one(self):
        assert np.array_equal(oracle.build_f_matrix(1), np.ones((1, 1)))

    def test_length_two(self):
        assert np.allclose(oracle.build_f_matrix(2), np.array([[1, 1], [1, -1]]), atol=1e-15)

    def test_scaled_matrix_is_unitary(self):
        f = oracle.build_f_matrix(4)
        assert np.abs(f @ f.conj().T / 4 - np.eye(4)).max() <= 1e-12

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_kron_square_is_unitary(self, n):
        q = np.kron(oracle.build_f_matrix(n), oracle.build_f_matrix(n)) / n
        assert np.abs(q @ q.conj().T - np.eye(n * n)).max() <= 1e-10


class TestDftPlan:
    """The transforms at one map size at a time, powers of two or not."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8, 12, 16, 17, 31, 32, 100])
    def test_round_trip_all_lengths(self, n):
        kernel = random_kernel(n, min(n, 3), min(n, 2), 2, 1)
        assert round_trip_error(kernel, FeatureShape(n, n)) <= 1e-12 * np.abs(kernel.data).max()

    @pytest.mark.parametrize("n", [4, 5, 8, 9])
    def test_matches_library_fft(self, n):
        # padding through fft2's s= argument equals transforming the padded kernel
        kernel = random_kernel(n + 100, 3, 2, 2, 3)
        shape = FeatureShape(n, n + 1)
        ref = library_fft2(kernel, shape)
        assert np.abs(forward(kernel, shape) - ref).max() <= 1e-12 * max(1.0, np.abs(ref).max())

    def test_rejects_bad_arguments(self):
        # fft2's s= argument would silently crop a kernel larger than the map
        kernel = random_kernel(9, 3, 3, 2, 2)
        for shape in [FeatureShape(2, 4), FeatureShape(4, 2)]:
            with pytest.raises(KernelLargerThanInput):
                single_channel_eigenvalues(Kernel4D(kernel.data[..., :1, :1]), shape)
            with pytest.raises(KernelLargerThanInput):
                compute_spectrum(kernel, shape)

    @given(st.integers(1, 24), st.integers(0, 2**31 - 1))
    @settings(max_examples=30)
    def test_round_trip_property(self, n, seed):
        kernel = random_kernel(seed, min(n, 3), min(n, 3), 1, 2)
        assert round_trip_error(kernel, FeatureShape(n, n)) <= 1e-12 * np.abs(kernel.data).max()


class TestBatchTransform:
    def test_identity_kernel_gives_identity_bins(self):
        bins = forward(identity_kernel(2), FeatureShape(4, 4))
        assert bins.shape == (4, 4, 2, 2)
        for u in range(4):
            for v in range(4):
                assert np.allclose(bins[u, v], np.eye(2), atol=1e-14)

    def test_zero_kernel(self):
        assert np.count_nonzero(forward(Kernel4D(np.zeros((2, 2, 2, 3))), FeatureShape(4, 4))) == 0

    def test_matches_per_slice_quartic_reference(self):
        kernel = random_kernel(11, 3, 3, 2, 2)
        padded = zero_pad(kernel, FeatureShape(4, 4))
        bins = forward(kernel, FeatureShape(4, 4))
        for c in range(2):
            for d in range(2):
                ref = dft2_quartic(padded.data[:, :, c, d])
                assert np.abs(bins[:, :, c, d] - ref).max() <= 1e-10


class TestHalfSpectrum:
    @pytest.mark.parametrize("shape", [(4, 4), (5, 5), (4, 7), (7, 6), (1, 1), (3, 1), (2, 2)])
    def test_leading_columns_of_the_full_transform(self, shape):
        kernel = random_kernel(12, 1, 1, 3, 2)
        feature = FeatureShape(*shape)
        full = library_fft2(kernel, feature)
        half = forward_half(kernel, feature)
        assert half.shape == (shape[0], shape[1] // 2 + 1, 3, 2)
        assert np.abs(half - full[:, : shape[1] // 2 + 1]).max() <= 1e-12

    @pytest.mark.parametrize("shape", [(4, 4), (5, 7), (6, 3)])
    def test_conjugate_symmetry(self, shape):
        full = library_fft2(random_kernel(13, 3, 3, 2, 3), FeatureShape(*shape))
        mirrored = np.roll(full[::-1, ::-1], 1, axis=(0, 1))  # bins[-u, -v]
        assert np.abs(mirrored - np.conj(full)).max() <= 1e-12

    @pytest.mark.parametrize("shape", [(4, 4), (5, 7), (6, 3), (3, 2), (1, 1), (4, 1), (2, 6)])
    def test_inverse_half_matches_ifft2_of_the_extension(self, shape):
        # for any complex half, the real inverse is the real part of ifft2 of
        # the Hermitian extension, and the dropped mass its largest imaginary part
        n_h, n_w = shape
        rng = np.random.default_rng(14)
        half = rng.standard_normal((n_h, n_w // 2 + 1, 2, 3)) + 1j * rng.standard_normal(
            (n_h, n_w // 2 + 1, 2, 3)
        )
        full = np.fft.ifft2(hermitian_extension(half, n_w), axes=(0, 1))
        back, dropped = inverse_half(half, n_w)
        assert np.abs(back - full.real).max() <= 1e-14
        assert dropped == pytest.approx(np.abs(full.imag).max(), rel=1e-12, abs=1e-15)
        assert dropped > 0.0


class TestMultiplicity:
    def test_counts_every_full_spectrum_column_once(self):
        for n_w in range(1, 101):
            counts = multiplicity(FeatureShape(3, n_w))
            assert counts.shape == (n_w // 2 + 1,)
            assert counts.sum() == n_w
            self_conjugate = {0, n_w // 2} if n_w % 2 == 0 else {0}
            assert set(np.flatnonzero(counts == 1)) == self_conjugate
            assert set(np.unique(counts)) <= {1, 2}

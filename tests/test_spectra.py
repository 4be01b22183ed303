import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conv_spectra import oracle
from conv_spectra.errors import ChannelCountNotOne, NumericalOverflow
from conv_spectra.fourier import forward_half
from conv_spectra.spectra import compute_spectrum, operator_norm, single_channel_eigenvalues
from conv_spectra.projection import project_layer
from conv_spectra.types import FeatureShape, Kernel4D

from conftest import (
    assert_multiset_close,
    dft2_quartic,
    identity_kernel,
    overflowing_kernel,
    random_kernel,
)


class TestFrequencyTransforms:
    """The half-spectrum bins that compute_spectrum decomposes."""

    def test_identity_kernel(self, shape44):
        bins = forward_half(identity_kernel(3), shape44)
        assert np.allclose(bins, np.broadcast_to(np.eye(3), (4, 3, 3, 3)), atol=1e-14)

    def test_zero_kernel(self, shape44):
        bins = forward_half(Kernel4D(np.zeros((3, 3, 2, 2))), shape44)
        assert np.count_nonzero(bins) == 0

    def test_matches_quartic_reference(self, shape44):
        kernel = random_kernel(21)
        bins = forward_half(kernel, shape44)
        padded = np.zeros((4, 4))
        for c in range(2):
            for d in range(2):
                padded[:] = 0.0
                padded[:3, :3] = kernel.data[:, :, c, d]
                assert np.abs(bins[:, :, c, d] - dft2_quartic(padded)[:, :3]).max() <= 1e-10


class TestComputeSpectrum:
    def test_identity_kernel(self, shape44):
        spec = compute_spectrum(identity_kernel(2), shape44)
        assert spec.count == 32
        assert np.allclose(spec.values, 1.0, atol=1e-14)

    def test_constant_single_coefficient(self):
        kernel = Kernel4D(np.full((1, 1, 1, 1), 3.0))
        spec = compute_spectrum(kernel, FeatureShape(5, 5))
        assert spec.count == 25
        assert np.allclose(spec.values, 3.0, atol=1e-13)

    def test_matches_dense_oracle(self, shape44):
        kernel = random_kernel(100)
        spec = compute_spectrum(kernel, shape44)
        dense = oracle.full_matrix_spectrum(kernel, shape44)
        assert oracle.spectrum_deviation(spec.values, dense) <= 1e-8

    def test_matches_dense_oracle_rectangular_channels(self, shape44):
        kernel = random_kernel(101, 3, 3, 3, 2)
        spec = compute_spectrum(kernel, shape44)
        assert spec.count == 16 * 2
        dense = oracle.full_matrix_spectrum(kernel, shape44)
        assert oracle.spectrum_deviation(spec.values, dense) <= 1e-8

    def test_matches_dense_oracle_rectangular_feature_map(self):
        kernel = random_kernel(102, 2, 3, 2, 2)
        shape = FeatureShape(5, 7)
        spec = compute_spectrum(kernel, shape)
        dense = oracle.full_matrix_spectrum(kernel, shape)
        assert oracle.spectrum_deviation(spec.values, dense) <= 1e-8

    def test_adjoint_has_same_spectrum(self, shape44):
        kernel = random_kernel(103)
        matrix = oracle.build_full_matrix(kernel, shape44)
        via_layer = compute_spectrum(kernel, shape44).values
        for m in (matrix, matrix.T):
            dense = np.linalg.svd(m, compute_uv=False)
            assert oracle.spectrum_deviation(via_layer, dense) <= 1e-8

    @given(
        st.integers(1, 3),
        st.integers(1, 3),
        st.integers(1, 3),
        st.integers(1, 3),
        st.integers(0, 3),
        st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=25)
    def test_cardinality(self, k_h, k_w, m_out, m_in, extra, seed):
        kernel = random_kernel(seed, k_h, k_w, m_out, m_in)
        shape = FeatureShape(k_h + extra, k_w + extra)
        spec = compute_spectrum(kernel, shape)
        assert spec.count == shape.n_h * shape.n_w * min(m_out, m_in)

    def test_scaling_equivariance(self, shape44):
        kernel = random_kernel(104)
        base = compute_spectrum(kernel, shape44).values
        scaled = compute_spectrum(Kernel4D(-1.75 * kernel.data), shape44).values
        assert np.abs(scaled - 1.75 * base).max() <= 1e-10 * base.max()

    def test_single_channel_consistency(self, shape44):
        kernel = random_kernel(105, 3, 3, 1, 1)
        spec = compute_spectrum(kernel, shape44)
        mags = np.sort(np.abs(single_channel_eigenvalues(kernel, shape44)))[::-1]
        assert np.abs(spec.values - mags).max() <= 1e-12

    @pytest.mark.parametrize(
        "support,channels,shape",
        [
            ((3, 3), (2, 2), (5, 5)),
            ((3, 3), (2, 2), (6, 6)),
            ((2, 3), (3, 2), (5, 6)),
            ((3, 2), (2, 3), (6, 5)),
            ((2, 2), (3, 1), (2, 7)),
            ((1, 1), (2, 3), (1, 1)),
            ((1, 1), (3, 2), (1, 4)),
        ],
    )
    def test_half_spectrum_matches_dense_oracle(self, support, channels, shape):
        kernel = random_kernel(107, *support, *channels)
        feature = FeatureShape(*shape)
        spec = compute_spectrum(kernel, feature)
        dense = oracle.full_matrix_spectrum(kernel, feature)
        assert oracle.spectrum_deviation(spec.values, dense) <= 1e-8

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_overflowing_transform_raises(self, shape44):
        kernel = overflowing_kernel()
        with pytest.raises(NumericalOverflow, match="overflow"):
            compute_spectrum(kernel, shape44)
        with pytest.raises(NumericalOverflow, match="overflow"):
            operator_norm(kernel, shape44)
        with pytest.raises(NumericalOverflow, match="overflow"):
            project_layer(kernel, shape44, 1.0)

    def test_rank_deficient_values_are_unclamped(self, shape44):
        # two equal input channels: every bin matrix has rank one
        data = random_kernel(108, 3, 3, 2, 2).data.copy()
        data[..., 1] = data[..., 0]
        kernel = Kernel4D(data)
        spec = compute_spectrum(kernel, shape44)
        dense = oracle.full_matrix_spectrum(kernel, shape44)
        assert oracle.spectrum_deviation(spec.values, dense) <= 1e-8
        bins = np.fft.fft2(kernel.data, s=(4, 4), axes=(0, 1)).reshape(16, 2, 2)
        lapack = np.sort(np.linalg.svd(bins, compute_uv=False), axis=None)[::-1]
        zero_rank = spec.values[16:]
        assert np.abs(zero_rank - lapack[16:]).max() <= 1e-15 * spec.values[0]
        assert zero_rank.max() <= 1e-12 * spec.values[0]
        assert np.count_nonzero(zero_rank) > 0


class TestSingleChannelEigenvalues:
    def test_delta_kernel(self):
        kernel = Kernel4D(np.zeros((1, 1, 1, 1)) + 1.0)
        eigs = single_channel_eigenvalues(kernel, FeatureShape(3, 3))
        assert eigs.shape == (9,)
        assert np.allclose(eigs, 1.0 + 0.0j, atol=1e-14)

    def test_scaled_delta(self):
        alpha = -2.5
        kernel = Kernel4D(np.full((1, 1, 1, 1), alpha))
        eigs = single_channel_eigenvalues(kernel, FeatureShape(4, 4))
        assert np.allclose(eigs, alpha, atol=1e-13)

    def test_matches_oracle_diagonalization(self, shape44):
        kernel = random_kernel(30, 3, 3, 1, 1)
        eigs = single_channel_eigenvalues(kernel, shape44)
        padded = np.zeros((4, 4))
        padded[:3, :3] = kernel.data[:, :, 0, 0]
        report = oracle.check_structure(padded)
        assert_multiset_close(eigs, report.eigs, 1e-8)

    def test_rejects_multi_channel(self, shape44):
        with pytest.raises(ChannelCountNotOne):
            single_channel_eigenvalues(random_kernel(0, 3, 3, 2, 1), shape44)


class TestOperatorNorm:
    def test_identity(self, shape44):
        assert operator_norm(identity_kernel(2), shape44) == pytest.approx(1.0, abs=1e-14)

    def test_zero(self, shape44):
        assert operator_norm(Kernel4D(np.zeros((2, 2, 1, 2))), shape44) == 0.0

    def test_bounds_every_input_gain(self, shape44):
        kernel = random_kernel(31)
        norm = operator_norm(kernel, shape44)
        rng = np.random.default_rng(99)
        for _ in range(50):
            x = rng.standard_normal((2, 4, 4))
            gain = np.linalg.norm(oracle.convolve_direct(kernel, x)) / np.linalg.norm(x)
            assert gain <= norm + 1e-9

    def test_power_iteration_approaches_norm(self, shape44):
        kernel = random_kernel(32)
        norm = operator_norm(kernel, shape44)
        matrix = oracle.build_full_matrix(kernel, shape44)
        gram = matrix.T @ matrix
        v = np.random.default_rng(1).standard_normal(gram.shape[0])
        v /= np.linalg.norm(v)
        for _ in range(30000):
            v = gram @ v
            v /= np.linalg.norm(v)
        estimate = float(np.sqrt(v @ gram @ v))
        assert abs(estimate - norm) <= 1e-4 * norm

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conv_spectra.errors import KernelLargerThanInput, NonFiniteEntry
from conv_spectra.types import (
    FeatureShape,
    Kernel4D,
    Spectrum,
    SpectrumReport,
    validate_pair,
    zero_pad,
)

from conftest import random_kernel


class TestValidatePair:
    def test_compatible_dimensions(self):
        validate_pair(random_kernel(0, 3, 3, 2, 2), FeatureShape(16, 16))

    def test_kernel_larger_than_input(self):
        with pytest.raises(KernelLargerThanInput):
            validate_pair(random_kernel(0, 5, 5, 1, 1), FeatureShape(4, 4))
        # one axis too large is enough
        with pytest.raises(KernelLargerThanInput):
            validate_pair(random_kernel(0, 2, 5, 1, 1), FeatureShape(4, 4))

    def test_non_finite_entry(self):
        bad = np.zeros((3, 3, 1, 1))
        bad[1, 1, 0, 0] = np.nan
        with pytest.raises(NonFiniteEntry):
            validate_pair(Kernel4D(bad), FeatureShape(8, 8))

    def test_inf_rejected(self):
        bad = np.zeros((2, 2, 1, 1))
        bad[0, 0, 0, 0] = np.inf
        with pytest.raises(NonFiniteEntry):
            Kernel4D(bad)


class TestKernel4D:
    def test_shape_accessors(self):
        k = random_kernel(1, 3, 4, 2, 5)
        assert (k.k_h, k.k_w, k.m_out, k.m_in) == (3, 4, 2, 5)
        assert k.shape == (3, 4, 2, 5)

    def test_rejects_wrong_rank(self):
        with pytest.raises(ValueError):
            Kernel4D(np.zeros((3, 3)))

    def test_rejects_empty_dimension(self):
        with pytest.raises(ValueError):
            Kernel4D(np.zeros((3, 0, 2, 2)))

    def test_data_is_immutable(self):
        k = random_kernel(2)
        with pytest.raises(ValueError):
            k.data[0, 0, 0, 0] = 1.0

    def test_input_array_is_copied(self):
        src = np.zeros((2, 2, 1, 1))
        k = Kernel4D(src)
        src[0, 0, 0, 0] = 7.0
        assert k.data[0, 0, 0, 0] == 0.0


class TestZeroPad:
    def test_single_coefficient(self):
        k = Kernel4D(np.full((1, 1, 1, 1), 2.0))
        padded = zero_pad(k, FeatureShape(3, 3))
        assert padded.shape == (3, 3, 1, 1)
        assert padded.data[0, 0, 0, 0] == 2.0
        assert np.count_nonzero(padded.data) == 1

    def test_noop_when_sizes_match(self):
        k = random_kernel(3, 3, 3, 1, 1)
        padded = zero_pad(k, FeatureShape(3, 3))
        assert np.array_equal(padded.data, k.data)

    def test_ones_block(self):
        k = Kernel4D(np.ones((2, 2, 1, 1)))
        padded = zero_pad(k, FeatureShape(4, 4))
        assert np.array_equal(padded.data[:2, :2, 0, 0], np.ones((2, 2)))
        assert np.all(padded.data[2:, :, 0, 0] == 0) and np.all(padded.data[:, 2:, 0, 0] == 0)

    @given(
        st.integers(1, 3),
        st.integers(1, 3),
        st.integers(1, 2),
        st.integers(1, 2),
        st.integers(0, 4),
        st.integers(0, 4),
        st.integers(0, 2**31 - 1),
    )
    def test_idempotent_and_norm_preserving(self, k_h, k_w, m_out, m_in, extra_h, extra_w, seed):
        k = random_kernel(seed, k_h, k_w, m_out, m_in)
        shape = FeatureShape(k_h + extra_h, k_w + extra_w)
        once = zero_pad(k, shape)
        twice = zero_pad(once, shape)
        assert np.array_equal(once.data, twice.data)
        # padding adds exact zeros and copies entries verbatim, so the
        # Frobenius norm is preserved
        assert np.array_equal(once.data[:k_h, :k_w], k.data)
        assert np.count_nonzero(once.data) == np.count_nonzero(k.data)
        assert np.linalg.norm(once.data) == pytest.approx(np.linalg.norm(k.data), rel=1e-12)


class TestPackage:
    def test_star_import_resolves_all(self):
        import conv_spectra

        namespace: dict = {}
        exec("from conv_spectra import *", namespace)
        for name in conv_spectra.__all__:
            assert namespace[name] is getattr(conv_spectra, name)


class TestSpectrumTypes:
    def test_spectrum_requires_descending_nonnegative(self):
        with pytest.raises(ValueError):
            Spectrum(np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            Spectrum(np.array([1.0, -0.5]))
        with pytest.raises(ValueError):
            Spectrum(np.array([]))

    @pytest.mark.parametrize("values", [[np.nan, 1.0], [1.0, np.nan], [np.inf, 1.0]])
    def test_spectrum_rejects_non_finite(self, values):
        with pytest.raises(ValueError, match="finite"):
            Spectrum(np.array(values))

    def test_report_fields(self):
        spec = Spectrum(np.array([4.0, 2.0, 1.0, 0.0]))
        report = SpectrumReport(layer_name="demo", spectrum=spec)
        assert report.operator_norm == 4.0
        assert np.allclose(report.ratios, [1.0, 0.5, 0.25, 0.0])
        assert np.allclose(report.normalized_rank_axis, [0.0, 0.25, 0.5, 0.75])
        assert np.all(np.diff(report.ratios) <= 0)

    def test_report_zero_spectrum_ratios(self):
        spec = Spectrum(np.zeros(5))
        report = SpectrumReport(layer_name="zero", spectrum=spec)
        assert report.operator_norm == 0.0
        assert np.array_equal(report.ratios, np.zeros(5))


class TestFeatureShape:
    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            FeatureShape(0, 4)
        with pytest.raises(ValueError):
            FeatureShape(4, -1)

    @pytest.mark.parametrize("side", [4.5, 4.0, True, "4", None])
    def test_rejects_non_integer_sides(self, side):
        with pytest.raises(ValueError, match="integers"):
            FeatureShape(side, 4)
        with pytest.raises(ValueError, match="integers"):
            FeatureShape(4, side)

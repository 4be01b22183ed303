import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conv_spectra import fourier, oracle, projection
from conv_spectra.errors import BadSupport, ImaginaryResidual, ValidationError
from conv_spectra.projection import (
    clip_operator_norm,
    clip_reshaped,
    project_layer,
    restrict_support,
)
from conv_spectra.spectra import compute_spectrum, operator_norm
from conv_spectra.svd import decompose
from conv_spectra.types import FeatureShape, Kernel4D, zero_pad

from conftest import identity_kernel, random_kernel


def reshaped_matrix(kernel: Kernel4D) -> np.ndarray:
    k_h, k_w, m_out, m_in = kernel.shape
    return kernel.data.transpose(0, 1, 3, 2).reshape(k_h * k_w * m_in, m_out)


class TestClipOperatorNorm:
    def test_inside_ball_is_identity(self, shape44):
        kernel = random_kernel(1, scale=0.05)
        bound = operator_norm(kernel, shape44) + 1.0
        clipped, report = clip_operator_norm(kernel, shape44, bound)
        assert np.array_equal(clipped.data, zero_pad(kernel, shape44).data)
        assert report.bins_modified == 0
        assert report.max_imaginary_residual == 0.0
        assert report.norm_after_clip == report.norm_before

    def test_identity_kernel_uniform_clip(self, shape44):
        clipped, report = clip_operator_norm(identity_kernel(2), shape44, 0.5)
        expected = zero_pad(Kernel4D(0.5 * np.eye(2).reshape(1, 1, 2, 2)), shape44)
        assert np.abs(clipped.data - expected.data).max() <= 1e-12
        spec = compute_spectrum(clipped, shape44)
        assert np.allclose(spec.values, 0.5, atol=1e-12)
        assert report.norm_before == pytest.approx(1.0, abs=1e-12)
        assert report.norm_after_clip == pytest.approx(0.5, abs=1e-12)
        assert report.bins_modified == 16

    def test_spectrum_clamp_identity(self, shape44):
        kernel = random_kernel(2)
        original = compute_spectrum(kernel, shape44).values
        clipped, report = clip_operator_norm(kernel, shape44, 1.0)
        got = compute_spectrum(clipped, shape44).values
        want = np.sort(np.minimum(original, 1.0))[::-1]
        assert np.abs(got - want).max() <= 1e-8 * max(1.0, want.max())
        assert report.norm_after_clip <= 1.0 + 1e-9

    @pytest.mark.parametrize(
        "n_h, n_w, m_out, m_in",
        [(4, 4, 2, 2), (5, 5, 2, 2), (4, 6, 2, 3), (5, 7, 3, 2), (3, 2, 2, 2), (4, 1, 2, 2)],
        ids=["4x4-2to2", "5x5-2to2", "4x6-3to2", "5x7-2to3", "3x2-2to2", "4x1-2to2"],
    )
    def test_matches_dense_clip_and_rebuild(self, n_h, n_w, m_out, m_in):
        shape = FeatureShape(n_h, n_w)
        kernel = random_kernel(3, min(3, n_h), min(3, n_w), m_out, m_in)
        bound = 1.0
        clipped, report = clip_operator_norm(kernel, shape, bound)
        assert report.bins_modified > 0
        matrix = oracle.build_full_matrix(kernel, shape)
        u, d, vh = np.linalg.svd(matrix, full_matrices=False)
        rebuilt = (u * np.minimum(d, bound)) @ vh
        # the dense projection keeps the circulant block structure: every
        # channel block must equal the construction from its own first row
        hw = n_h * n_w
        for c in range(m_out):
            for d_ in range(m_in):
                block = rebuilt[c * hw : (c + 1) * hw, d_ * hw : (d_ + 1) * hw]
                generator = block[0].reshape(n_h, n_w)
                assert np.abs(block - oracle.build_doubly_block_circulant(generator)).max() <= 1e-8
        # ... and agrees with the matrix of the clipped kernel
        clipped_matrix = oracle.build_full_matrix(clipped, shape)
        assert np.abs(rebuilt - clipped_matrix).max() <= 1e-8

    @pytest.mark.parametrize("shape", [(4, 4), (5, 7), (6, 3), (3, 2), (4, 1), (2, 5)])
    def test_bins_modified_counts_the_full_spectrum(self, shape):
        # one clip pass, against a full fft2 and a per-bin SVD done here; the
        # bound sits halfway between two distinct bin norms so that no bin is
        # within rounding of it
        feature = FeatureShape(*shape)
        kernel = random_kernel(19, min(3, shape[0]), min(3, shape[1]), 3, 2)
        bins = np.fft.fft2(zero_pad(kernel, feature).data, axes=(0, 1))
        tops = np.linalg.svd(bins, compute_uv=False)[..., 0]
        distinct = np.unique(np.round(tops, 9))
        bound = float(distinct[len(distinct) // 2 - 1 : len(distinct) // 2 + 1].mean())
        _, report = clip_operator_norm(kernel, feature, bound)
        assert 0 < report.bins_modified < tops.size
        assert report.bins_modified == np.count_nonzero(tops > bound)

    @pytest.mark.parametrize("shape", [(4, 4), (5, 7), (1, 1)])
    def test_decomposes_the_half_spectrum(self, monkeypatch, shape):
        seen = []

        def recording(stack, compute_uv=False):
            seen.append(stack.shape)
            return decompose(stack, compute_uv=compute_uv)

        monkeypatch.setattr(projection, "decompose", recording)
        n_h, n_w = shape
        kernel = random_kernel(20, min(3, n_h), min(3, n_w), 3, 2)
        clip_operator_norm(kernel, FeatureShape(n_h, n_w), 0.5)
        assert [s[-2:] for s in seen] == [(3, 2)]
        assert int(np.prod(seen[0][:-2])) == n_h * (n_w // 2 + 1)

    @pytest.mark.parametrize("shape", [(4, 4), (5, 7), (6, 3), (3, 6)])
    def test_broken_conjugate_symmetry_raises(self, monkeypatch, shape):
        # bins[-u, -v] = conj(bins[u, v]) ties row 1 of a self-conjugate column
        # (0 for odd n_w, n_w/2 for even) to row n_h - 1 of the same column;
        # perturbing row 1 alone breaks that, which the real inverse would
        # otherwise drop without a trace
        n_h, n_w = shape
        column = 0 if n_w % 2 else n_w // 2

        def perturbed(kernel, feature):
            half = fourier.forward_half(kernel, feature)
            half[1, column] += 1j
            return half

        monkeypatch.setattr(projection, "forward_half", perturbed)
        with pytest.raises(ImaginaryResidual):
            clip_operator_norm(random_kernel(21), FeatureShape(n_h, n_w), 0.5)

    def test_frobenius_optimality_sampling(self, shape44):
        bound = 1.0
        kernel = random_kernel(4)
        matrix = oracle.build_full_matrix(kernel, shape44)
        clipped, _ = clip_operator_norm(kernel, shape44, bound)
        dist = np.linalg.norm(matrix - oracle.build_full_matrix(clipped, shape44))
        for seed in range(20):
            other = random_kernel(1000 + seed)
            inball, _ = clip_operator_norm(other, shape44, bound)
            alt = np.linalg.norm(matrix - oracle.build_full_matrix(inball, shape44))
            assert dist <= alt + 1e-9

    def test_idempotent(self, shape44):
        kernel = random_kernel(5)
        once, _ = clip_operator_norm(kernel, shape44, 0.8)
        twice, second = clip_operator_norm(once, shape44, 0.8)
        assert np.abs(twice.data - once.data).max() <= 1e-10
        assert second.norm_after_clip <= 0.8 + 1e-9

    @pytest.mark.parametrize("shape", [(4, 4), (5, 7), (6, 3)])
    def test_imaginary_residual_stays_at_roundoff(self, shape):
        kernel = random_kernel(6, 3, 3, 2, 2)
        feature = FeatureShape(*shape)
        scale = max(1.0, np.abs(kernel.data).max())
        _, report = clip_operator_norm(kernel, feature, 0.5)
        assert report.max_imaginary_residual <= 1e-9 * scale

    def test_rejects_bad_bound(self, shape44):
        with pytest.raises(ValidationError):
            clip_operator_norm(random_kernel(7), shape44, 0.0)

    @pytest.mark.parametrize("bound", [float("nan"), float("inf"), -1.0])
    def test_rejects_non_finite_or_negative_bound(self, shape44, bound):
        kernel = random_kernel(7)
        with pytest.raises(ValidationError, match="bound"):
            clip_operator_norm(kernel, shape44, bound)
        with pytest.raises(ValidationError, match="bound"):
            project_layer(kernel, FeatureShape(8, 8), bound, rounds=3)
        with pytest.raises(ValidationError, match="bound"):
            clip_reshaped(kernel, bound)


class TestRestrictSupport:
    def test_round_trip_when_already_supported(self, shape44):
        kernel = random_kernel(8)
        padded = zero_pad(kernel, shape44)
        assert np.array_equal(zero_pad(restrict_support(padded, 3, 3), shape44).data, padded.data)

    def test_all_ones_crop(self):
        full = Kernel4D(np.ones((4, 4, 1, 1)))
        cropped = restrict_support(full, 2, 2)
        assert np.array_equal(cropped.data, np.ones((2, 2, 1, 1)))

    def test_dropped_mass_is_pythagorean(self, shape44):
        full = random_kernel(9, 4, 4, 2, 2)
        kept = zero_pad(restrict_support(full, 3, 3), FeatureShape(4, 4))
        dropped = full.data - kept.data
        lhs = np.linalg.norm(dropped) ** 2
        rhs = np.linalg.norm(full.data) ** 2 - np.linalg.norm(kept.data) ** 2
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_restrict_inverts_zero_pad(self, shape44):
        kernel = random_kernel(10, 2, 3, 1, 2)
        back = restrict_support(zero_pad(kernel, shape44), 2, 3)
        assert np.array_equal(back.data, kernel.data)

    def test_bad_support(self):
        with pytest.raises(BadSupport):
            restrict_support(random_kernel(0, 3, 3, 1, 1), 4, 1)
        with pytest.raises(BadSupport):
            restrict_support(random_kernel(0, 3, 3, 1, 1), 0, 1)


class TestProjectLayer:
    def test_fixed_point_is_exact(self, shape44):
        kernel = random_kernel(11, scale=0.02)
        bound = operator_norm(kernel, shape44) + 0.5
        for rounds in (1, 3):
            out, report = project_layer(kernel, shape44, bound, rounds=rounds)
            assert np.array_equal(out.data, kernel.data)
            assert report.bins_modified == 0

    def test_single_round_lands_near_bound(self):
        shape = FeatureShape(8, 8)
        kernel = random_kernel(12)
        out, report = project_layer(kernel, shape, 0.7, rounds=1)
        assert out.shape == kernel.shape
        assert report.norm_after_restriction == pytest.approx(operator_norm(out, shape), abs=1e-12)
        # one round typically lands within a few percent of the bound
        assert report.norm_after_restriction <= 0.7 * 1.5

    def test_overshoot_shrinks_with_rounds(self, capsys):
        shape = FeatureShape(8, 8)
        kernel = random_kernel(13)
        overshoots = []
        for rounds in (1, 2, 5, 10, 25):
            _, report = project_layer(kernel, shape, 0.7, rounds=rounds)
            overshoots.append(report.norm_after_restriction - 0.7)
        print(f"overshoot by rounds (1,2,5,10,25): {overshoots}")
        assert all(b <= a + 1e-12 for a, b in zip(overshoots, overshoots[1:]))
        assert overshoots[-1] < overshoots[0] / 10

    def test_long_alternation_converges(self):
        # plain alternation needs 27-40 rounds to reach the 1e-3 overshoot level
        # at this geometry; the accelerated one meets it within 25 (see the
        # acceptance suite for that stricter form)
        shape = FeatureShape(8, 8)
        kernel = random_kernel(14)
        _, report = project_layer(kernel, shape, 0.7, rounds=40)
        assert report.norm_after_restriction <= 0.7 + 1e-3

    @pytest.mark.parametrize("seed", range(5))
    def test_acceleration_stays_at_alternation_limit(self, seed):
        # the bound must not be met by pushing the kernel deep into the ball:
        # 25 accelerated rounds end as far from the input, to 1%, as the limit
        # of plain alternation, and the dense oracle confirms the norm
        shape = FeatureShape(8, 8)
        kernel = random_kernel(seed)
        out, report = project_layer(kernel, shape, 0.7, rounds=25)
        limit = kernel
        for _ in range(200):
            full, _ = clip_operator_norm(limit, shape, 0.7)
            limit = restrict_support(full, 3, 3)
        distance = np.linalg.norm(out.data - kernel.data)
        limit_distance = np.linalg.norm(limit.data - kernel.data)
        assert distance == pytest.approx(limit_distance, rel=0.01)
        dense = oracle.full_matrix_spectrum(out, shape).max()
        assert dense <= 0.7 + 1e-3
        assert dense == pytest.approx(report.norm_after_restriction, abs=1e-8)

    def test_rejects_bad_rounds(self, shape44):
        with pytest.raises(ValidationError):
            project_layer(random_kernel(15), shape44, 1.0, rounds=0)


class TestClipReshaped:
    def test_pointwise_kernel_matches_exact_clip(self, shape44):
        kernel = random_kernel(16, 1, 1, 3, 3)
        bound = 0.9
        heuristic = clip_reshaped(kernel, bound)
        exact_full, _ = clip_operator_norm(kernel, shape44, bound)
        exact = restrict_support(exact_full, 1, 1)
        assert np.abs(heuristic.data - exact.data).max() <= 1e-10
        spec = compute_spectrum(heuristic, shape44)
        reshaped_max = np.linalg.svd(reshaped_matrix(heuristic), compute_uv=False)[0]
        assert spec.values[0] == pytest.approx(reshaped_max, abs=1e-10)

    def test_unchanged_inside_ball(self):
        kernel = random_kernel(17, scale=0.01)
        top = np.linalg.svd(reshaped_matrix(kernel), compute_uv=False)[0]
        out = clip_reshaped(kernel, top + 1.0)
        assert np.array_equal(out.data, kernel.data)

    def test_clips_reshaped_norm_not_layer_norm(self, capsys):
        kernel = random_kernel(18)
        out = clip_reshaped(kernel, 0.2)
        top = np.linalg.svd(reshaped_matrix(out), compute_uv=False)[0]
        assert abs(top - 0.2) <= 1e-8
        layer = operator_norm(out, FeatureShape(4, 4))
        print(f"reshaped-matrix norm 0.2 vs layer operator norm {layer:.6f}")
        assert abs(layer - 0.2) > 1e-4  # the heuristic does not bound the layer norm

    @given(st.integers(0, 2**31 - 1), st.floats(0.05, 2.0))
    @settings(max_examples=20)
    def test_never_increases_reshaped_values(self, seed, bound):
        kernel = random_kernel(seed)
        before = np.linalg.svd(reshaped_matrix(kernel), compute_uv=False)
        after = np.linalg.svd(reshaped_matrix(clip_reshaped(kernel, bound)), compute_uv=False)
        assert np.all(after <= before + 1e-10)
        assert np.all(after <= bound + 1e-10)

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conv_spectra.errors import NoConvergence, NumericalOverflow
from conv_spectra.svd import decompose

from conftest import gram_eigs_charpoly


def random_complex(rng, rows, cols):
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def check_factorization(a, tol=1e-10):
    u, s, vh = decompose(a, compute_uv=True)
    r = min(a.shape)
    assert s.shape == (r,)
    assert np.all(s >= 0) and np.all(np.diff(s) <= 0)
    scale = max(1.0, np.abs(a).max(initial=0.0))
    rec = (u * s) @ vh
    assert np.abs(rec - a).max() <= tol * scale
    assert np.abs(np.conj(u).T @ u - np.eye(r)).max() <= tol
    assert np.abs(vh @ np.conj(vh).T - np.eye(r)).max() <= tol
    return u, s, vh


class TestSvdExamples:
    def test_diagonal(self):
        assert np.allclose(decompose(np.diag([3.0, 1.0, 2.0])), [3.0, 2.0, 1.0], atol=1e-14)

    def test_unitary_has_unit_values(self):
        h = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2)
        assert np.allclose(decompose(h), [1.0, 1.0], atol=1e-14)

    def test_gram_eigenvalue_reference(self):
        rng = np.random.default_rng(0)
        a = random_complex(rng, 4, 3)
        squares = decompose(a) ** 2
        ref = gram_eigs_charpoly(a)
        assert np.abs(squares - ref).max() <= 1e-8 * ref.max()

    def test_values_only_omits_factors(self):
        out = decompose(np.eye(3))
        assert isinstance(out, np.ndarray) and out.shape == (3,)

    def test_rejects_non_finite(self):
        with pytest.raises(NoConvergence):
            decompose(np.array([[1.0, np.nan], [0.0, 1.0]]))

    @pytest.mark.parametrize("compute_uv", [False, True])
    def test_rejects_non_finite_values(self, compute_uv):
        # LAPACK takes an Inf entry without raising and returns NaN values
        with pytest.raises(NumericalOverflow, match="overflow"):
            decompose(np.array([[np.inf, 0.0], [0.0, 1.0]]), compute_uv=compute_uv)

    def test_tiny_values_are_not_clamped(self):
        # values at rounding size are reported as computed, not forced to zero
        out = decompose(np.diag([1.0, 1e-15]))
        assert out[0] == pytest.approx(1.0)
        assert out[1] == pytest.approx(1e-15, rel=1e-12)


class TestSvdFactorizations:
    @pytest.mark.parametrize("rows,cols", [(1, 1), (4, 4), (6, 3), (3, 6), (2, 5), (7, 2)])
    def test_reconstruction_and_orthonormality(self, rows, cols):
        rng = np.random.default_rng(rows * 10 + cols)
        check_factorization(random_complex(rng, rows, cols))

    def test_rank_deficient_gets_orthonormal_completion(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal(5)
        y = rng.standard_normal(4)
        check_factorization(np.outer(x, y))

    def test_zero_matrix(self):
        _, s, _ = check_factorization(np.zeros((3, 4)))
        assert np.all(s == 0)

    def test_real_input_keeps_factors_real(self):
        rng = np.random.default_rng(6)
        u, _, vh = decompose(rng.standard_normal((5, 3)), compute_uv=True)
        assert not np.iscomplexobj(u) and not np.iscomplexobj(vh)

    @given(st.integers(1, 5), st.integers(1, 5), st.integers(0, 2**31 - 1))
    @settings(max_examples=40)
    def test_factorization_property(self, rows, cols, seed):
        rng = np.random.default_rng(seed)
        check_factorization(random_complex(rng, rows, cols))


class TestSvdInvariances:
    def test_transpose_and_conjugate(self):
        rng = np.random.default_rng(1)
        a = random_complex(rng, 4, 4)
        base = decompose(a)
        for variant in (a.T, np.conj(a), np.conj(a).T):
            assert np.abs(decompose(variant) - base).max() <= 1e-10 * base.max()

    def test_scaling(self):
        rng = np.random.default_rng(2)
        a = random_complex(rng, 3, 5)
        base = decompose(a)
        assert np.abs(decompose((-2.5 + 0j) * a) - 2.5 * base).max() <= 1e-10 * base.max()

    def test_unitary_invariance(self):
        rng = np.random.default_rng(3)
        a = random_complex(rng, 4, 4)
        q1, _ = np.linalg.qr(random_complex(rng, 4, 4))
        q2, _ = np.linalg.qr(random_complex(rng, 4, 4))
        base = decompose(a)
        assert np.abs(decompose(q1 @ a @ q2) - base).max() <= 1e-8 * base.max()


class TestSvdBatch:
    def test_identity_stack(self):
        out = decompose(np.tile(np.eye(2), (4, 1, 1)))
        assert out.shape == (4, 2)
        assert np.allclose(out, 1.0, atol=1e-14)

    def test_empty_stack(self):
        assert decompose(np.zeros((0, 3, 3))).shape == (0, 3)

    def test_matches_sequential(self):
        rng = np.random.default_rng(4)
        stack = random_complex(rng, 16 * 3, 3).reshape(16, 3, 3)
        u, s, vh = decompose(stack, compute_uv=True)
        for i in range(16):
            assert np.abs(s[i] - decompose(stack[i])).max() <= 1e-12
            assert np.abs((u[i] * s[i]) @ vh[i] - stack[i]).max() <= 1e-12

    def test_lapack_failure_raises_no_convergence(self, monkeypatch):
        def failing(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", failing)
        with pytest.raises(NoConvergence):
            decompose(np.eye(2)[None], compute_uv=True)

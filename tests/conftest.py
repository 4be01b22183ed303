import numpy as np
import pytest
from hypothesis import HealthCheck, settings
from scipy.optimize import linear_sum_assignment

from conv_spectra.types import FeatureShape, Kernel4D

settings.register_profile(
    "numeric",
    deadline=None,
    max_examples=40,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("numeric")


def random_kernel(seed, k_h=3, k_w=3, m_out=2, m_in=2, scale=1.0) -> Kernel4D:
    rng = np.random.default_rng(seed)
    return Kernel4D(scale * rng.standard_normal((k_h, k_w, m_out, m_in)))


def overflowing_kernel() -> Kernel4D:
    """Finite 3x3x2x2 entries near the float64 maximum: on a 4x4 map their
    2D transform overflows to Inf, and LAPACK returns NaN singular values."""
    return Kernel4D(np.random.default_rng(0).uniform(-1.0, 1.0, (3, 3, 2, 2)) * 1e308)


def identity_kernel(m: int) -> Kernel4D:
    """1x1-support kernel whose frequency transform is the identity at every bin."""
    return Kernel4D(np.eye(m).reshape(1, 1, m, m))


def dft2_quartic(grid: np.ndarray, sign: float = -1.0) -> np.ndarray:
    """Direct O(n^4) double-loop 2D DFT, the slow reference for the fast transforms."""
    g = np.asarray(grid, dtype=np.complex128)
    n_h, n_w = g.shape
    out = np.zeros_like(g)
    for u in range(n_h):
        for v in range(n_w):
            acc = 0.0 + 0.0j
            for p in range(n_h):
                for q in range(n_w):
                    acc += g[p, q] * np.exp(sign * 2j * np.pi * (u * p / n_h + v * q / n_w))
            out[u, v] = acc
    return out


def assert_multiset_close(a, b, tol):
    """Match two complex multisets with an optimal assignment and bound the worst pair."""
    a = np.asarray(a).ravel()
    b = np.asarray(b).ravel()
    assert a.size == b.size
    cost = np.abs(a[:, None] - b[None, :])
    rows, cols = linear_sum_assignment(cost)
    worst = cost[rows, cols].max()
    assert worst <= tol, f"multisets differ by {worst:.3e} (tol {tol:.1e})"


def gram_eigs_charpoly(a: np.ndarray) -> np.ndarray:
    """Eigenvalues of A* A via the Faddeev-LeVerrier characteristic polynomial
    and companion-matrix root finding; independent of any SVD routine."""
    h = np.conj(a).T @ a
    n = h.shape[0]
    coeffs = [1.0 + 0.0j]
    m = np.zeros_like(h)
    c = 1.0 + 0.0j
    for k in range(1, n + 1):
        m = h @ m + c * np.eye(n)
        c = -np.trace(h @ m) / k
        coeffs.append(c)
    roots = np.roots(np.asarray(coeffs))
    return np.sort(np.maximum(roots.real, 0.0))[::-1]


@pytest.fixture
def shape44():
    return FeatureShape(4, 4)

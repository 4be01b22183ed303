"""Brute-force ground truth for the fast spectrum and projection paths.

Builds the layer's linear transformation as an explicit dense matrix (a block
matrix of doubly block circulant blocks, one per channel pair), evaluates the
convolution literally from its definition, and checks the structural facts the
fast path rests on. Everything here is deliberately naive and intended for
test-sized problems; a size cap guards against accidental huge instances,
since the dense route costs O((n^2 m)^3) where the fast path needs
O(n^2 m^2 (m + log n)).

Vectorization convention: a (m, n_h, n_w) feature tensor is flattened in C
order (row-major within each channel grid, channels outermost), i.e.
``vec(x) = x.reshape(-1)``. The block layouts below are consistent with that
choice; the loop-form convolution is the arbiter of orientation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeMismatch, SizeGuard
from .types import FeatureShape, Kernel4D, validate_pair, zero_pad

ORACLE_SIZE_CAP = 4096


def circulant(row: np.ndarray) -> np.ndarray:
    """Dense circulant matrix with entry (i, j) = row[(j - i) mod n]."""
    r = np.asarray(row, dtype=np.float64).ravel()
    if r.size < 1:
        raise ValueError("row must have at least one entry")
    n = r.size
    idx = np.arange(n)
    return r[(idx[None, :] - idx[:, None]) % n]


def build_f_matrix(n: int) -> np.ndarray:
    """The n x n matrix with entry (i, j) = w^(i j), w = exp(+2*pi*i/n).

    This is the analysis-side convention: (1/n) * kron(F, F) is unitary and
    diagonalizes every doubly block circulant matrix.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    idx = np.arange(n, dtype=np.int64)
    return np.exp(2j * np.pi * (np.outer(idx, idx) % n) / n)


def build_doubly_block_circulant(padded: np.ndarray) -> np.ndarray:
    """Single-channel layer matrix for a padded (n_h, n_w) kernel.

    Block (i, j) of the n_h x n_h block grid is circulant(padded[(j - i) mod
    n_h, :]); the result satisfies vec(y) = A @ vec(x) for the loop-form
    circular convolution.
    """
    k = np.asarray(padded, dtype=np.float64)
    if k.ndim != 2:
        raise ValueError(f"expected a 2D padded kernel, got {k.ndim}D")
    n_h, n_w = k.shape
    ih = np.arange(n_h)
    iw = np.arange(n_w)
    row_shift = (ih[None, :] - ih[:, None]) % n_h
    col_shift = (iw[None, :] - iw[:, None]) % n_w
    grid = k[row_shift[:, None, :, None], col_shift[None, :, None, :]]
    return grid.reshape(n_h * n_w, n_h * n_w)


def build_full_matrix(
    kernel: Kernel4D, shape: FeatureShape, size_cap: int | None = ORACLE_SIZE_CAP
) -> np.ndarray:
    """Dense (n_h*n_w*m_out) x (n_h*n_w*m_in) matrix of the whole layer.

    Channel block (c, d) is the doubly block circulant matrix of the padded
    slice [:, :, c, d]. Pass size_cap=None to lift the dimension guard.
    """
    validate_pair(kernel, shape)
    hw = shape.n_h * shape.n_w
    dim = hw * max(kernel.m_out, kernel.m_in)
    if size_cap is not None and dim > size_cap:
        raise SizeGuard(
            f"dense matrix dimension {dim} exceeds the size cap {size_cap}; "
            "pass size_cap=None (CLI: --force) to override"
        )
    padded = zero_pad(kernel, shape).data
    ih = np.arange(shape.n_h)
    iw = np.arange(shape.n_w)
    row_shift = ((ih[None, :] - ih[:, None]) % shape.n_h)[:, None, :, None]
    col_shift = ((iw[None, :] - iw[:, None]) % shape.n_w)[None, :, None, :]
    out = np.empty((kernel.m_out * hw, kernel.m_in * hw))
    for c in range(kernel.m_out):
        for d in range(kernel.m_in):
            block = padded[:, :, c, d][row_shift, col_shift].reshape(hw, hw)
            out[c * hw : (c + 1) * hw, d * hw : (d + 1) * hw] = block
    return out


def full_matrix_spectrum(
    kernel: Kernel4D, shape: FeatureShape, size_cap: int | None = ORACLE_SIZE_CAP
) -> np.ndarray:
    """Singular values (descending) of the dense layer matrix.

    This is the reference the fast path is verified against, and the slow side
    of the benchmark. The dense SVD is delegated to LAPACK, which is fast
    enough for the forced benchmark sizes.
    """
    matrix = build_full_matrix(kernel, shape, size_cap=size_cap)
    return np.linalg.svd(matrix, compute_uv=False)


def convolve_direct(kernel: Kernel4D, x: np.ndarray) -> np.ndarray:
    """Circular convolution evaluated literally from its definition.

    y[c, r, s] = sum over d, p, q of x[d, (r+p) mod n_h, (s+q) mod n_w] *
    K[p, q, c, d]. Plain Python loops on purpose; this is the unambiguous
    form everything else is checked against.
    """
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 3:
        raise ShapeMismatch(f"expected a (m_in, n_h, n_w) input, got {arr.shape}")
    m_in, n_h, n_w = arr.shape
    if m_in != kernel.m_in:
        raise ShapeMismatch(f"input has {m_in} channels, kernel expects {kernel.m_in}")
    validate_pair(kernel, FeatureShape(n_h, n_w))
    k = kernel.data
    out = np.zeros((kernel.m_out, n_h, n_w))
    for c in range(kernel.m_out):
        for r in range(n_h):
            for s in range(n_w):
                acc = 0.0
                for d in range(kernel.m_in):
                    for p in range(kernel.k_h):
                        for q in range(kernel.k_w):
                            acc += arr[d, (r + p) % n_h, (s + q) % n_w] * k[p, q, c, d]
                out[c, r, s] = acc
    return out


@dataclass(frozen=True)
class StructureReport:
    """Structural facts about a single-channel layer matrix at a tolerance."""

    is_normal: bool
    q_unitary: bool
    q_diagonalizes: bool
    eigs: np.ndarray


def check_structure(
    padded: np.ndarray, tolerance: float = 1e-9, size_cap: int | None = ORACLE_SIZE_CAP
) -> StructureReport:
    """Verify the facts the single-channel analysis rests on.

    Builds A (the doubly block circulant layer matrix) and Q (the normalized
    Kronecker square of the Fourier matrix) and reports whether A is normal,
    Q is unitary, and Q* A Q is diagonal, along with that diagonal as the
    eigenvalues of A.
    """
    k = np.asarray(padded, dtype=np.float64)
    if k.ndim != 2:
        raise ValueError(f"expected a 2D padded kernel, got {k.ndim}D")
    n_h, n_w = k.shape
    if size_cap is not None and n_h * n_w > size_cap:
        raise SizeGuard(f"matrix dimension {n_h * n_w} exceeds the size cap {size_cap}")
    a = build_doubly_block_circulant(k)
    q = np.kron(build_f_matrix(n_h), build_f_matrix(n_w)) / np.sqrt(n_h * n_w)
    qaq = q.conj().T @ a @ q
    eye = np.eye(n_h * n_w)
    is_normal = float(np.abs(a @ a.T - a.T @ a).max()) <= tolerance
    q_unitary = float(np.abs(q @ q.conj().T - eye).max()) <= tolerance
    off = qaq - np.diag(np.diag(qaq))
    q_diagonalizes = float(np.abs(off).max()) <= tolerance
    return StructureReport(
        is_normal=is_normal,
        q_unitary=q_unitary,
        q_diagonalizes=q_diagonalizes,
        eigs=np.diag(qaq).copy(),
    )


def spectrum_deviation(computed: np.ndarray, reference: np.ndarray) -> float:
    """Largest elementwise gap between two descending spectra, relative to the
    reference's largest value (absolute when the reference is all zero)."""
    a = np.asarray(computed, dtype=np.float64).ravel()
    b = np.asarray(reference, dtype=np.float64).ravel()
    if a.size != b.size:
        return float("inf")
    gap = float(np.abs(a - b).max(initial=0.0))
    top = float(b.max(initial=0.0))
    return gap / top if top > 0.0 else gap

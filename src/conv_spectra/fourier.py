"""Per-channel-pair 2D transforms of a kernel, over numpy's FFT.

This is the only module that knows the half-spectrum: a real kernel has
bins[-u, -v] = conj(bins[u, v]), so the n_h x (n_w//2 + 1) half determines
the other bins, and ``multiplicity`` says how many full-spectrum bins each of
its columns stands for. The forward transform zero-pads through the ``s``
argument, so the padded kernel is never built. Sign convention: the forward
transform uses exp(-2*pi*i/n) and the inverse exp(+2*pi*i/n) with the
1/(n_h*n_w) normalization.
"""

from __future__ import annotations

import numpy as np

from .types import FeatureShape, Kernel4D, validate_pair


def forward_half(kernel: Kernel4D, shape: FeatureShape) -> np.ndarray:
    """Complex (n_h, n_w//2 + 1, m_out, m_in) bins: ``[:, :, c, d]`` holds the
    columns 0 .. n_w//2 of the 2D transform of channel pair (c, d) zero-padded
    to ``shape``.

    Raises KernelLargerThanInput first, since ``s=`` would silently crop a
    kernel larger than the map. An overflow to Inf is not warned about here:
    ``svd.decompose`` raises NumericalOverflow on the bins it leaves.
    """
    validate_pair(kernel, shape)
    with np.errstate(over="ignore", invalid="ignore"):
        return np.fft.rfft2(kernel.data, s=(shape.n_h, shape.n_w), axes=(0, 1))


def multiplicity(shape: FeatureShape) -> np.ndarray:
    """How many full-spectrum bins each half-spectrum column stands for: 2 for
    columns 1 .. ceil(n_w/2) - 1, which also stand for their mirror images,
    and 1 for the self-conjugate columns 0 and, for even n_w, n_w/2."""
    counts = np.ones(shape.n_w // 2 + 1, dtype=np.intp)
    counts[1 : (shape.n_w + 1) // 2] = 2
    return counts


def inverse_half(half: np.ndarray, n_w: int) -> tuple[np.ndarray, float]:
    """Undo ``forward_half``: the real (n_h, n_w, ...) tensor of half bins.

    The width inverse takes each column v in 1 .. ceil(n_w/2) - 1 to stand
    for its mirror too, so it is real by construction, and it keeps only the
    real part of the self-conjugate columns (0 and, for even n_w, n_w/2).
    The float returned with the tensor is that dropped imaginary mass,
    max over entries of (|Im c_0| + |Im c_{n_w/2}|) / n_w with c the columns
    after the height inverse: the largest imaginary part the full ``ifft2``
    would show had the mirrored columns been exact conjugates.
    """
    columns = np.fft.ifft(half, axis=0)
    dropped = np.abs(columns[:, 0].imag)
    if n_w % 2 == 0:
        dropped = dropped + np.abs(columns[:, n_w // 2].imag)
    return np.fft.irfft(columns, n=n_w, axis=1), float(dropped.max()) / n_w

"""Per-channel-pair 2D transforms of a kernel, over numpy's FFT.

The forward transforms zero-pad through the ``s`` argument, so the padded
kernel is never built. Sign convention: the forward transform uses
exp(-2*pi*i/n) and the inverse exp(+2*pi*i/n) with the 1/(n_h*n_w)
normalization.
"""

from __future__ import annotations

import numpy as np

from .types import FeatureShape, Kernel4D


def forward(kernel: Kernel4D, shape: FeatureShape) -> np.ndarray:
    """Complex (n_h, n_w, m_out, m_in) bins: ``[:, :, c, d]`` is the 2D
    transform of channel pair (c, d) zero-padded to ``shape``."""
    return np.fft.fft2(kernel.data, s=(shape.n_h, shape.n_w), axes=(0, 1))


def forward_half(kernel: Kernel4D, shape: FeatureShape) -> np.ndarray:
    """The columns 0 .. n_w//2 of ``forward``, shape (n_h, n_w//2 + 1, m_out, m_in).

    A real kernel has bins[-u, -v] = conj(bins[u, v]), so these columns
    determine all the others.
    """
    return np.fft.rfft2(kernel.data, s=(shape.n_h, shape.n_w), axes=(0, 1))


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

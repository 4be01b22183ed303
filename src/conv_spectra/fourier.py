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


def inverse(bins: np.ndarray) -> np.ndarray:
    """Undo ``forward``: the complex spatial tensor of (n_h, n_w, ...) bins."""
    return np.fft.ifft2(bins, axes=(0, 1))

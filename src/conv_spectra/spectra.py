"""Exact singular value spectrum of a circular convolution layer.

The layer's linear transformation acts on (m_in, n_h, n_w) feature maps. Its
full matrix is never formed here: the kernel is zero-padded to the feature-map
size and 2D-transformed per channel pair, and the singular values of the
resulting m_out x m_in matrix at each frequency bin, pooled over all
n_h * n_w bins, are exactly the layer's singular values (with multiplicity).
That brings the cost down from a dense SVD of an (n^2 m) sized matrix to
m^2 FFTs plus n^2 small SVDs.

A real kernel has bins[-u, -v] = conj(bins[u, v]), and conjugation keeps
singular values, so only the n_h x (n_w//2 + 1) half-spectrum is decomposed:
the values of its columns 1 .. ceil(n_w/2) - 1 stand for their mirror images
too and are counted twice; column 0 and, for even n_w, column n_w/2 are their
own mirrors and are counted once.
"""

from __future__ import annotations

import numpy as np

from .errors import ChannelCountNotOne
from .fourier import forward_half
from .svd import decompose
from .types import FeatureShape, Kernel4D, Spectrum, validate_pair


def compute_spectrum(kernel: Kernel4D, shape: FeatureShape) -> Spectrum:
    """All singular values of the layer's linear transformation, sorted descending.

    The result is the concatenation of the singular values of every
    frequency-bin matrix; its size is always n_h * n_w * min(m_out, m_in).
    """
    validate_pair(kernel, shape)
    values = decompose(forward_half(kernel, shape))
    mirrored = values[:, shape.mirrored_columns]
    pooled = np.concatenate([values.ravel(), mirrored.ravel()])
    return Spectrum(np.sort(pooled)[::-1])


def single_channel_eigenvalues(kernel: Kernel4D, shape: FeatureShape) -> np.ndarray:
    """Eigenvalues of a single-channel layer: the 2D transform of the padded
    kernel, flattened row-major. Their magnitudes are the singular values."""
    if kernel.m_out != 1 or kernel.m_in != 1:
        raise ChannelCountNotOne(
            f"expected a 1x1-channel kernel, got m_out={kernel.m_out}, m_in={kernel.m_in}"
        )
    # fft2's s= argument would silently crop a kernel larger than the map
    validate_pair(kernel, shape)
    return np.fft.fft2(kernel.data[:, :, 0, 0], s=(shape.n_h, shape.n_w)).ravel()


def operator_norm(kernel: Kernel4D, shape: FeatureShape) -> float:
    """Largest singular value of the layer (its Lipschitz constant)."""
    return float(compute_spectrum(kernel, shape).values[0])

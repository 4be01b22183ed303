"""Projection of a convolution layer onto an operator-norm ball.

Clipping the per-frequency singular values to [0, bound] and transforming back
is the Frobenius-nearest convolution (over full n x n support) whose operator
norm is at most the bound. Cropping back to the original k x k support is the
Frobenius projection onto small-support convolutions; alternating the two
moves toward a small-support kernel inside the ball.

Also provided: the cheaper heuristic that clips the singular values of the
kernel flattened to a (k_h*k_w*m_in) x m_out matrix. That bounds the flattened
matrix's norm, which in general differs from the layer's operator norm.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import BadSupport, ImaginaryResidual, ValidationError
from .fourier import forward_half, inverse_half
from .spectra import operator_norm
from .svd import decompose
from .types import FeatureShape, Kernel4D, validate_pair, zero_pad

# Residual imaginary mass beyond this (relative) threshold means the
# reconstructed bins lost conjugate symmetry, which exact arithmetic forbids.
_IMAG_ERROR_REL = 1e-6

# How many earlier residual differences each Anderson step of project_layer
# fits; the last _ANDERSON_DEPTH + 1 iterates and their images are kept.
_ANDERSON_DEPTH = 3
# A residual difference whose part orthogonal to the earlier ones is below
# this fraction of its norm is treated as linearly dependent and dropped.
_DEPENDENT_REL = 1e-10


@dataclass(frozen=True)
class ClipReport:
    """What one clipping pass did to a layer."""

    requested_bound: float
    norm_before: float
    norm_after_clip: float
    norm_after_restriction: float
    bins_modified: int
    max_imaginary_residual: float


def _check_bound(bound: float) -> None:
    if not (np.isfinite(bound) and bound > 0.0):
        raise ValidationError(f"bound must be positive and finite, got {bound}")


def clip_operator_norm(
    kernel: Kernel4D, shape: FeatureShape, bound: float
) -> tuple[Kernel4D, ClipReport]:
    """Project the layer onto {operator norm <= bound}.

    Per frequency bin of the n_h x (n_w//2 + 1) half-spectrum (a real kernel
    determines the rest): thin SVD, clamp singular values from above at
    ``bound``, reconstruct, and take the real inverse transform. The returned
    kernel has full (n_h, n_w) support and its spectrum is exactly
    min(original spectrum, bound) elementwise; when nothing exceeds the bound
    the zero-padded input is returned unchanged. ``bins_modified`` counts bins
    of the full spectrum, each clipped bin in columns 1 .. ceil(n_w/2) - 1
    twice. ``max_imaginary_residual`` is the imaginary part the real inverse
    drops from the self-conjugate columns (see ``fourier.inverse_half``),
    which exact arithmetic makes zero; above ``_IMAG_ERROR_REL`` times the
    kernel's largest absolute entry it raises ImaginaryResidual.
    """
    validate_pair(kernel, shape)
    _check_bound(bound)
    u, values, vh = decompose(forward_half(kernel, shape), compute_uv=True)
    norm_before = float(values.max(initial=0.0))
    clipped_bins = (values > bound).any(axis=-1)
    mirrored = clipped_bins[:, shape.mirrored_columns]
    modified = int(np.count_nonzero(clipped_bins) + np.count_nonzero(mirrored))
    if modified == 0:
        report = ClipReport(
            requested_bound=bound,
            norm_before=norm_before,
            norm_after_clip=norm_before,
            norm_after_restriction=norm_before,
            bins_modified=0,
            max_imaginary_residual=0.0,
        )
        return zero_pad(kernel, shape), report
    clipped = np.minimum(values, bound)
    # einsum, not matmul: the first complex matmul maps about 0.3 MB of BLAS
    # code into a process that has not called it yet
    rebuilt = np.einsum("...ik,...k,...kj->...ij", u, clipped, vh)
    back, residual = inverse_half(rebuilt, shape.n_w)
    # no floor: the check must scale down with small kernels, and max|K| > 0
    # here because some value exceeded the positive bound
    scale = float(np.abs(kernel.data).max())
    if residual > _IMAG_ERROR_REL * scale:
        raise ImaginaryResidual(
            f"imaginary residual {residual:.3e} exceeds {_IMAG_ERROR_REL:.0e} * {scale:.3e}"
        )
    norm_after = float(clipped.max(initial=0.0))
    report = ClipReport(
        requested_bound=bound,
        norm_before=norm_before,
        norm_after_clip=norm_after,
        norm_after_restriction=norm_after,
        bins_modified=modified,
        max_imaginary_residual=residual,
    )
    return Kernel4D(back), report


def restrict_support(full_kernel: Kernel4D, k_h: int, k_w: int) -> Kernel4D:
    """Crop a full-support kernel to its leading k_h x k_w block.

    This is the Frobenius projection onto convolutions supported on that
    block: dropped coefficients are exactly the projection residual.
    """
    if not (1 <= k_h <= full_kernel.k_h and 1 <= k_w <= full_kernel.k_w):
        raise BadSupport(
            f"support {k_h}x{k_w} does not fit inside kernel "
            f"{full_kernel.k_h}x{full_kernel.k_w}"
        )
    if (k_h, k_w) == (full_kernel.k_h, full_kernel.k_w):
        return full_kernel
    return Kernel4D(full_kernel.data[:k_h, :k_w])


def project_layer(
    kernel: Kernel4D,
    shape: FeatureShape,
    bound: float,
    rounds: int = 1,
) -> tuple[Kernel4D, ClipReport]:
    """Alternate norm clipping and support restriction ``rounds`` times.

    The output keeps the input's k_h x k_w support. Each round applies the
    fixed-point map T = restrict_support o clip_operator_norm once; from the
    second round on, the next iterate is the Anderson mixture (Walker & Ni,
    2011) of the last ``_ANDERSON_DEPTH + 1`` iterates and their images, which
    reaches the bound in far fewer rounds than plain alternation. Round 1 is
    the plain step, and a kernel already inside the ball comes back unchanged.
    ``norm_before``, ``norm_after_clip`` and ``bins_modified`` describe the
    last clip pass; ``norm_after_restriction`` is recomputed on the returned
    kernel.
    """
    if rounds < 1:
        raise ValidationError(f"rounds must be >= 1, got {rounds}")
    current = kernel
    iterates: list[np.ndarray] = []
    images: list[np.ndarray] = []
    report = None
    for _ in range(rounds):
        full, report = clip_operator_norm(current, shape, bound)
        image = restrict_support(full, kernel.k_h, kernel.k_w)
        iterates = [*iterates[-_ANDERSON_DEPTH:], current.data]
        images = [*images[-_ANDERSON_DEPTH:], image.data]
        current = _anderson_step(iterates, images)
    final_norm = operator_norm(current, shape)
    return current, replace(report, norm_after_restriction=final_norm)


def _anderson_step(iterates: list[np.ndarray], images: list[np.ndarray]) -> Kernel4D:
    """Type-II Anderson step g - dG gamma from iterates x and their images g.

    gamma minimizes |f - dF gamma| for the last residual f = g - x, with dF
    and dG the differences of the residuals and of the images. Modified
    Gram-Schmidt orthonormalizes dF and carries dG along, so the step needs
    no solve (np.linalg.lstsq gives the same step, but its first LAPACK call
    maps about 0.5 MB more library code into the process); a difference
    numerically dependent on the earlier ones is dropped. The last image is
    taken as is on the first round and when its residual is exactly zero (a
    fixed point).
    """
    residuals = [(g - x).ravel() for x, g in zip(iterates, images)]
    if len(residuals) == 1 or not residuals[-1].any():
        return Kernel4D(images[-1])
    basis = []
    for d_f, d_g in zip(np.diff(residuals, axis=0), np.diff(images, axis=0)):
        scale = np.sqrt(np.sum(d_f * d_f))
        for q, h in basis:
            c = np.sum(q * d_f)
            d_f, d_g = d_f - c * q, d_g - c * h
        norm = np.sqrt(np.sum(d_f * d_f))
        if norm > _DEPENDENT_REL * scale:
            basis.append((d_f / norm, d_g / norm))
    step = images[-1]
    for q, h in basis:
        step = step - np.sum(q * residuals[-1]) * h
    return Kernel4D(step)


def clip_reshaped(kernel: Kernel4D, bound: float) -> Kernel4D:
    """Clip the singular values of the flattened kernel matrix to [0, bound].

    The kernel is reshaped to a (k_h*k_w*m_in) x m_out matrix, rows ordered
    (h outer, w middle, in inner); the reshape is undone after clipping. This
    is a heuristic stand-in for the true projection: only the flattened
    matrix's largest singular value is bounded, not the layer's operator norm.
    """
    _check_bound(bound)
    k_h, k_w, m_out, m_in = kernel.shape
    mat = kernel.data.transpose(0, 1, 3, 2).reshape(k_h * k_w * m_in, m_out)
    u, values, vh = decompose(mat, compute_uv=True)
    if values.max(initial=0.0) <= bound:
        return kernel
    rebuilt = (u * np.minimum(values, bound)) @ vh
    back = rebuilt.reshape(k_h, k_w, m_in, m_out).transpose(0, 1, 3, 2)
    return Kernel4D(back)

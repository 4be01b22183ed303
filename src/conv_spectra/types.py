"""Domain types and layout conventions.

A convolution kernel is a real 4D tensor laid out ``[spatial_h, spatial_w,
out_channels, in_channels]``: entry ``K[p, q, c, d]`` is the coefficient
applied to input channel ``d`` at spatial offset ``(p, q)`` when producing
output channel ``c``. Spatial indices wrap modulo the feature-map size
(circular convolution), so a kernel must never be larger than the feature map
it is paired with.

Dense matrices are plain ``numpy.ndarray`` values (complex128 for
frequency-domain and SVD factors, float64 for the brute-force constructions);
there is no wrapper class. All dataclasses here are frozen and hold read-only
arrays, so instances are safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import KernelLargerThanInput, NonFiniteEntry


def _frozen(arr: np.ndarray) -> np.ndarray:
    # a view of immutable bytes: numpy refuses to make it, or its base, writeable
    data = np.asarray(arr, dtype=np.float64).tobytes(order="C")
    return np.frombuffer(data, dtype=np.float64).reshape(np.shape(arr))


@dataclass(frozen=True)
class Kernel4D:
    """Real kernel tensor of shape (k_h, k_w, m_out, m_in), float64, immutable."""

    data: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.data)
        if arr.ndim != 4:
            raise ValueError(f"kernel must be 4D, got {arr.ndim}D")
        if min(arr.shape) < 1:
            raise ValueError(f"kernel dimensions must all be >= 1, got {arr.shape}")
        arr = _frozen(arr)
        if not np.isfinite(arr).all():
            raise NonFiniteEntry("kernel contains NaN or Inf entries")
        object.__setattr__(self, "data", arr)

    @property
    def k_h(self) -> int:
        return self.data.shape[0]

    @property
    def k_w(self) -> int:
        return self.data.shape[1]

    @property
    def m_out(self) -> int:
        return self.data.shape[2]

    @property
    def m_in(self) -> int:
        return self.data.shape[3]

    @property
    def shape(self) -> tuple[int, int, int, int]:
        return self.data.shape


@dataclass(frozen=True)
class FeatureShape:
    """Height and width of the feature map a layer acts on."""

    n_h: int
    n_w: int

    def __post_init__(self):
        for side in (self.n_h, self.n_w):
            if isinstance(side, bool) or not isinstance(side, int):
                raise ValueError(f"feature shape sides must be integers, got {side!r}")
        if self.n_h < 1 or self.n_w < 1:
            raise ValueError(f"feature shape must be positive, got {(self.n_h, self.n_w)}")


@dataclass(frozen=True)
class Spectrum:
    """Singular values of a layer, sorted descending, with multiplicity."""

    values: np.ndarray

    def __post_init__(self):
        vals = _frozen(np.asarray(self.values).ravel())
        if vals.size == 0:
            raise ValueError("spectrum may not be empty")
        if not np.isfinite(vals).all():
            raise ValueError("spectrum values must be finite")
        if vals[-1] < 0.0 or np.any(np.diff(vals) > 0.0):
            raise ValueError("spectrum values must be non-negative and sorted descending")
        object.__setattr__(self, "values", vals)

    @property
    def count(self) -> int:
        return self.values.size


@dataclass(frozen=True)
class SpectrumReport:
    """A spectrum plus the derived statistics used for export.

    ``ratios`` are values relative to the largest one (all zero for an all-zero
    spectrum); ``normalized_rank_axis`` is index/count, useful when comparing
    layers of different sizes.
    """

    layer_name: str
    spectrum: Spectrum
    operator_norm: float = field(init=False)
    ratios: np.ndarray = field(init=False)
    normalized_rank_axis: np.ndarray = field(init=False)

    def __post_init__(self):
        vals = self.spectrum.values
        top = float(vals[0])
        ratios = vals / top if top > 0.0 else np.zeros_like(vals)
        axis = np.arange(vals.size, dtype=np.float64) / vals.size
        object.__setattr__(self, "operator_norm", top)
        object.__setattr__(self, "ratios", _frozen(ratios))
        object.__setattr__(self, "normalized_rank_axis", _frozen(axis))


def validate_pair(kernel: Kernel4D, shape: FeatureShape) -> None:
    """Check that ``kernel`` can act circularly on a ``shape``-sized feature map.

    Raises KernelLargerThanInput when the support exceeds the map (the wrapped
    indices would alias). A Kernel4D is finite by construction and its data
    cannot be made writeable, so there is nothing else to check.
    """
    if kernel.k_h > shape.n_h or kernel.k_w > shape.n_w:
        raise KernelLargerThanInput(
            f"kernel support {kernel.k_h}x{kernel.k_w} exceeds feature map "
            f"{shape.n_h}x{shape.n_w}"
        )


def zero_pad(kernel: Kernel4D, shape: FeatureShape) -> Kernel4D:
    """Embed the kernel in an (n_h, n_w, m_out, m_in) tensor, padding with zeros."""
    validate_pair(kernel, shape)
    if (kernel.k_h, kernel.k_w) == (shape.n_h, shape.n_w):
        return kernel
    out = np.zeros((shape.n_h, shape.n_w, kernel.m_out, kernel.m_in))
    out[: kernel.k_h, : kernel.k_w] = kernel.data
    return Kernel4D(out)

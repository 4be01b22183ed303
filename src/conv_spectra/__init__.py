"""Exact singular value spectra and operator-norm projection for 2D
multi-channel circular convolution layers."""

from .oracle import build_f_matrix
from .projection import (
    ClipReport,
    clip_operator_norm,
    clip_reshaped,
    project_layer,
    restrict_support,
)
from .spectra import (
    compute_spectrum,
    operator_norm,
    single_channel_eigenvalues,
)
from .types import (
    FeatureShape,
    Kernel4D,
    Spectrum,
    SpectrumReport,
    validate_pair,
    zero_pad,
)

__version__ = "0.1.0"

__all__ = [
    "ClipReport",
    "FeatureShape",
    "Kernel4D",
    "Spectrum",
    "SpectrumReport",
    "build_f_matrix",
    "clip_operator_norm",
    "clip_reshaped",
    "compute_spectrum",
    "operator_norm",
    "project_layer",
    "restrict_support",
    "single_channel_eigenvalues",
    "validate_pair",
    "zero_pad",
]

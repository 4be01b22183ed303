"""Thin SVDs of a stack of small dense matrices, over numpy's batched LAPACK.

Singular values come back as LAPACK returns them: non-negative, sorted
descending per matrix, and not clamped, so a value that is zero in exact
arithmetic reads as a rounding-sized positive number.
"""

from __future__ import annotations

import numpy as np

from .errors import NoConvergence


def decompose(stack: np.ndarray, compute_uv: bool = False):
    """SVD of every matrix in a (..., rows, cols) stack.

    Returns the (..., r) singular values, r = min(rows, cols); with
    ``compute_uv`` the triple (u, s, vh) with u (..., rows, r) and
    vh (..., r, cols), so that a = u @ diag(s) @ vh. Raises NoConvergence
    when LAPACK does not converge, which also covers NaN or Inf entries.
    """
    try:
        return np.linalg.svd(stack, full_matrices=False, compute_uv=compute_uv)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"SVD did not converge: {exc}") from exc

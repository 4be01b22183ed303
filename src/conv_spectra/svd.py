"""Thin SVDs of a stack of small dense matrices, over numpy's batched LAPACK.

Singular values come back as LAPACK returns them: non-negative, sorted
descending per matrix, and not clamped, so a value that is zero in exact
arithmetic reads as a rounding-sized positive number.
"""

from __future__ import annotations

import numpy as np

from .errors import NoConvergence, NumericalOverflow


def decompose(stack: np.ndarray, compute_uv: bool = False):
    """SVD of every matrix in a (..., rows, cols) stack.

    Returns the (..., r) singular values, r = min(rows, cols); with
    ``compute_uv`` the triple (u, s, vh) with u (..., rows, r) and
    vh (..., r, cols), so that a = u @ diag(s) @ vh. Raises NoConvergence
    when LAPACK does not converge, which covers NaN entries, and
    NumericalOverflow when it returns non-finite values, as it can for
    entries that overflowed to Inf.
    """
    try:
        result = np.linalg.svd(stack, full_matrices=False, compute_uv=compute_uv)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"SVD did not converge: {exc}") from exc
    values = result[1] if compute_uv else result
    if not np.isfinite(values).all():
        raise NumericalOverflow("singular values are not finite: the input overflowed float64")
    return result

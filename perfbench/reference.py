"""Reference spectrum for the correctness gate, from numpy alone.

Nothing here imports conv_spectra, so a defect in the fast path cannot hide
in its own check.
"""

from __future__ import annotations

import numpy as np

# The relative limit the repo's `oracle-check` command applies.
LIMIT = 1e-8


# Width columns of bins transformed and decomposed at a time. Working in
# blocks keeps the check's own peak memory well below the program's, so
# peak_rss_mb shows the program's bin tensor and not the checker's.
CHUNK_COLUMNS = 8


def spectrum(kernel: np.ndarray, n_h: int, n_w: int) -> np.ndarray:
    """All singular values of the circular layer, sorted descending: fft2 of the
    zero-padded kernel, an SVD per frequency bin, pooled and sorted.

    The fft2 is split by its axes: the width transform of the k_h nonzero rows
    first, then the height transform of CHUNK_COLUMNS columns at a time.
    """
    k_h, k_w, m_out, m_in = kernel.shape
    rows = np.fft.fft(kernel, n=n_w, axis=1)
    values = []
    for start in range(0, n_w, CHUNK_COLUMNS):
        bins = np.fft.fft(rows[:, start : start + CHUNK_COLUMNS], n=n_h, axis=0)
        values.append(np.linalg.svd(bins, compute_uv=False).ravel())
    return np.sort(np.concatenate(values))[::-1]


def deviation(values, ref: np.ndarray) -> float:
    """Largest elementwise gap relative to the reference's largest value."""
    values = np.asarray(values, dtype=np.float64).ravel()
    if values.shape != ref.shape:
        return float("inf")
    gap = float(np.abs(values - ref).max())
    return gap / ref[0] if ref[0] > 0.0 else gap


def close(value: float, ref: float) -> bool:
    return abs(value - ref) <= LIMIT * abs(ref)

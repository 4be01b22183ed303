"""Kernel tensors on disk (NPY) and spectrum reports as CSV.

``numpy.lib.format`` reads and writes the NPY framing; on top of it only the
plain little-endian float subset is accepted: v1.0 is written, v1.0 and v2.0
headers are accepted on read, payloads must be C-ordered float32/float64 of
exactly the declared length. Anything else errors loudly instead of being
silently transposed or cast. float32 is widened to float64 on load; writes are
always float64, so write -> read round-trips bit-exactly.

CSV exports use 17 significant digits so every float64 survives the text trip.
"""

from __future__ import annotations

import math
from pathlib import Path
from tokenize import TokenError

import numpy as np

from .errors import BadHeader, IoFailure, UnsupportedDtype, UnsupportedOrder, WrongRank
from .types import Kernel4D, SpectrumReport

_READ_HEADER = {
    (1, 0): np.lib.format.read_array_header_1_0,
    (2, 0): np.lib.format.read_array_header_2_0,
}
_DTYPES = ("<f4", "<f8")

EXPORT_MODES = ("values", "ratios", "normalized")


def read_kernel(path: str | Path) -> Kernel4D:
    """Load a 4D float kernel from an NPY file, widened to float64.

    Axes are interpreted as [spatial_h, spatial_w, out_channels, in_channels];
    files exported with a different channel order must be transposed before
    use, as nothing in the payload can distinguish the conventions.
    """
    with open(path, "rb") as fh:
        # numpy raises ValueError for most malformed headers, but SyntaxError or
        # TokenError for some broken header dicts and descrs
        try:
            version = np.lib.format.read_magic(fh)
            if version not in _READ_HEADER:
                raise BadHeader(f"{path}: unsupported NPY version {version[0]}.{version[1]}")
            shape, fortran_order, dtype = _READ_HEADER[version](fh)
        except (ValueError, SyntaxError, TokenError) as exc:
            raise BadHeader(f"{path}: {exc}") from exc
        payload = fh.read()
    if dtype.str not in _DTYPES:
        raise UnsupportedDtype(f"{path}: dtype {dtype.str!r} not supported (need '<f4' or '<f8')")
    if fortran_order:
        raise UnsupportedOrder(f"{path}: Fortran-ordered payloads are not supported")
    if any(type(d) is not int or d < 0 for d in shape):
        raise BadHeader(f"{path}: bad shape {shape!r}")
    if len(shape) != 4:
        raise WrongRank(f"{path}: expected a 4D kernel, file holds {len(shape)}D")
    expected = math.prod(shape) * dtype.itemsize
    if len(payload) != expected:
        raise BadHeader(f"{path}: payload is {len(payload)} bytes, header implies {expected}")
    return Kernel4D(np.frombuffer(payload, dtype=dtype).reshape(shape).astype(np.float64))


def write_kernel(kernel: Kernel4D, path: str | Path) -> None:
    """Write a kernel as NPY v1.0, float64, C-order (truncating any existing file)."""
    try:
        with open(path, "wb") as fh:
            np.lib.format.write_array(fh, kernel.data, version=(1, 0))
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc


def write_spectrum_csv(report: SpectrumReport, path: str | Path, mode: str = "values") -> None:
    """Export a spectrum report.

    Modes: ``values`` (index,value), ``ratios`` (index,ratio with ratio =
    value / largest value, all zero for an all-zero spectrum), ``normalized``
    (normalized_rank,ratio with rank scaled by the spectrum size). Rows are
    sorted by descending value; lines end with LF.
    """
    if mode not in EXPORT_MODES:
        raise ValueError(f"mode must be one of {EXPORT_MODES}, got {mode!r}")
    if mode == "values":
        header = "index,value\n"
        rows = (f"{i},{v:.17g}\n" for i, v in enumerate(report.spectrum.values.tolist()))
    elif mode == "ratios":
        header = "index,ratio\n"
        rows = (f"{i},{r:.17g}\n" for i, r in enumerate(report.ratios.tolist()))
    else:
        header = "normalized_rank,ratio\n"
        axis = report.normalized_rank_axis.tolist()
        rows = (f"{x:.17g},{r:.17g}\n" for x, r in zip(axis, report.ratios.tolist()))
    text = header + "".join(rows)
    try:
        with open(path, "w", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc

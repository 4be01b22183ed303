import numpy as np
import pytest

from conv_spectra.array_io import read_kernel, write_kernel, write_spectrum_csv
from conv_spectra.errors import (
    BadHeader,
    UnsupportedDtype,
    UnsupportedOrder,
    WrongRank,
)
from conv_spectra.types import Spectrum, SpectrumReport

from conftest import random_kernel


def npy_v1(header: str, payload: bytes = b"", declared: int | None = None) -> bytes:
    """An NPY v1.0 file from a raw header text; ``declared`` overrides its length field."""
    body = header.encode("latin1")
    length = len(body) if declared is None else declared
    return b"\x93NUMPY\x01\x00" + length.to_bytes(2, "little") + body + payload


F8_HEADER = "{'descr': '<f8', 'fortran_order': False, 'shape': (1, 1, 1, 1), }\n"


class TestKernelRoundTrip:
    def test_float64_round_trip_is_bit_exact(self, tmp_path):
        kernel = random_kernel(0, 3, 3, 2, 2)
        path = tmp_path / "k.npy"
        write_kernel(kernel, path)
        back = read_kernel(path)
        assert back.shape == kernel.shape
        assert back.data.tobytes() == kernel.data.tobytes()

    def test_overwrite_truncates(self, tmp_path):
        path = tmp_path / "k.npy"
        write_kernel(random_kernel(1, 5, 5, 3, 3), path)
        small = random_kernel(2, 1, 1, 1, 1)
        write_kernel(small, path)
        assert read_kernel(path).shape == (1, 1, 1, 1)

    def test_float32_widened(self, tmp_path):
        arr = np.random.default_rng(3).standard_normal((2, 2, 1, 1)).astype(np.float32)
        path = tmp_path / "k32.npy"
        np.save(path, arr)
        back = read_kernel(path)
        assert back.data.dtype == np.float64
        assert np.array_equal(back.data, arr.astype(np.float64))

    def test_numpy_reads_our_files(self, tmp_path):
        kernel = random_kernel(4)
        path = tmp_path / "k.npy"
        write_kernel(kernel, path)
        assert np.array_equal(np.load(path), kernel.data)

    def test_we_read_numpy_files(self, tmp_path):
        arr = np.random.default_rng(5).standard_normal((3, 4, 1, 2))
        path = tmp_path / "np.npy"
        np.save(path, arr)
        assert np.array_equal(read_kernel(path).data, arr)

    def test_v2_header_accepted(self, tmp_path):
        arr = np.random.default_rng(6).standard_normal((2, 2, 2, 2))
        path = tmp_path / "v2.npy"
        with open(path, "wb") as fh:
            np.lib.format.write_array(fh, arr, version=(2, 0))
        assert np.array_equal(read_kernel(path).data, arr)


class TestReadErrors:
    def test_wrong_rank(self, tmp_path):
        path = tmp_path / "r3.npy"
        np.save(path, np.zeros((3, 3, 3)))
        with pytest.raises(WrongRank):
            read_kernel(path)

    def test_unsupported_dtype(self, tmp_path):
        path = tmp_path / "int.npy"
        np.save(path, np.zeros((1, 1, 1, 1), dtype=np.int64))
        with pytest.raises(UnsupportedDtype):
            read_kernel(path)

    def test_fortran_order_rejected(self, tmp_path):
        path = tmp_path / "f.npy"
        np.save(path, np.asfortranarray(np.random.default_rng(0).standard_normal((2, 3, 4, 5))))
        with pytest.raises(UnsupportedOrder):
            read_kernel(path)

    def test_future_version_rejected(self, tmp_path):
        path = tmp_path / "v3.npy"
        write_kernel(random_kernel(9), path)
        raw = bytearray(path.read_bytes())
        raw[6] = 3  # bump the major version byte
        path.write_bytes(bytes(raw))
        with pytest.raises(BadHeader):
            read_kernel(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.npy"
        path.write_bytes(b"not an array at all")
        with pytest.raises(BadHeader):
            read_kernel(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "trunc.npy"
        write_kernel(random_kernel(7), path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-8])
        with pytest.raises(BadHeader):
            read_kernel(path)

    @pytest.mark.parametrize(
        "raw,error",
        [
            # the two negative sides multiply to a length the payload matches
            (
                npy_v1(
                    "{'descr': '<f8', 'fortran_order': False, 'shape': (-1, -1, 1, 1), }",
                    bytes(8),
                ),
                BadHeader,
            ),
            (
                npy_v1(
                    "{'descr': '<f8', 'fortran_order': False, 'shape': (1, 1, 1, 1), 'x': 0}",
                    bytes(8),
                ),
                BadHeader,
            ),
            (npy_v1("{'descr': '<f8', 'shape': (1, 1, 1, 1), }", bytes(8)), BadHeader),
            (npy_v1(F8_HEADER, declared=len(F8_HEADER) + 40), BadHeader),
            (npy_v1(F8_HEADER.replace("<f8", "nonsense"), bytes(8)), BadHeader),
            (npy_v1(F8_HEADER.replace("<f8", "<,f8"), bytes(8)), BadHeader),
            (npy_v1(F8_HEADER.replace("False,", "False,("), bytes(8)), BadHeader),
            (npy_v1(F8_HEADER.replace("(1, 1,", "(True, 1,"), bytes(8)), BadHeader),
            # 2**32 * 2**32 wraps to 0 in int64, the length of an empty payload
            (npy_v1(F8_HEADER.replace("(1, 1,", "(4294967296, 4294967296,")), BadHeader),
            (npy_v1(F8_HEADER.replace("<f8", ">f8"), bytes(8)), UnsupportedDtype),
        ],
        ids=[
            "negative-dim",
            "extra-key",
            "missing-key",
            "short-header",
            "bad-descr",
            "descr-syntax",
            "unbalanced-dict",
            "bool-dim",
            "wrapping-dims",
            "big-endian",
        ],
    )
    def test_rules_on_top_of_numpy(self, tmp_path, raw, error):
        path = tmp_path / "bad.npy"
        path.write_bytes(raw)
        with pytest.raises(error):
            read_kernel(path)

    def test_missing_file_is_os_error(self, tmp_path):
        with pytest.raises(OSError):
            read_kernel(tmp_path / "absent.npy")


class TestSpectrumCsv:
    def identity_report(self):
        return SpectrumReport(layer_name="id", spectrum=Spectrum(np.ones(32)))

    def test_values_mode(self, tmp_path):
        path = tmp_path / "v.csv"
        write_spectrum_csv(self.identity_report(), path, mode="values")
        lines = path.read_text().splitlines()
        assert lines[0] == "index,value"
        assert len(lines) == 33
        assert lines[1] == "0,1" and lines[-1] == "31,1"

    def test_ratio_mode_first_row_is_one(self, tmp_path):
        spec = Spectrum(np.array([2.0, 1.0, 0.5]))
        path = tmp_path / "r.csv"
        write_spectrum_csv(SpectrumReport(layer_name="x", spectrum=spec), path, mode="ratios")
        lines = path.read_text().splitlines()
        assert lines[0] == "index,ratio"
        assert lines[1] == "0,1"
        assert float(lines[2].split(",")[1]) == 0.5

    def test_zero_spectrum_ratios_are_zero(self, tmp_path):
        spec = Spectrum(np.zeros(4))
        path = tmp_path / "z.csv"
        write_spectrum_csv(SpectrumReport(layer_name="z", spectrum=spec), path, mode="ratios")
        rows = path.read_text().splitlines()[1:]
        assert all(row.split(",")[1] == "0" for row in rows)

    def test_normalized_mode_header_and_axis(self, tmp_path):
        spec = Spectrum(np.array([4.0, 3.0, 2.0, 1.0]))
        path = tmp_path / "n.csv"
        write_spectrum_csv(SpectrumReport(layer_name="n", spectrum=spec), path, mode="normalized")
        lines = path.read_text().splitlines()
        assert lines[0] == "normalized_rank,ratio"
        ranks = [float(line.split(",")[0]) for line in lines[1:]]
        assert ranks == [0.0, 0.25, 0.5, 0.75]

    def test_seventeen_digit_round_trip(self, tmp_path):
        rng = np.random.default_rng(8)
        values = np.sort(np.abs(rng.standard_normal(10)))[::-1]
        spec = Spectrum(values)
        path = tmp_path / "x.csv"
        write_spectrum_csv(SpectrumReport(layer_name="x", spectrum=spec), path, mode="values")
        parsed = [float(line.split(",")[1]) for line in path.read_text().splitlines()[1:]]
        assert np.array_equal(np.array(parsed), values)

    def test_lf_line_endings(self, tmp_path):
        path = tmp_path / "lf.csv"
        write_spectrum_csv(self.identity_report(), path, mode="values")
        assert b"\r" not in path.read_bytes()

    def test_unknown_mode(self, tmp_path):
        with pytest.raises(ValueError):
            write_spectrum_csv(self.identity_report(), tmp_path / "m.csv", mode="weird")

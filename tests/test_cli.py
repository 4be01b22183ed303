import json
import subprocess
import sys

import numpy as np
import pytest

from conv_spectra.array_io import read_kernel, write_kernel
from conv_spectra.cli import main
from conv_spectra.errors import ImaginaryResidual
from conv_spectra.spectra import compute_spectrum, operator_norm
from conv_spectra.types import FeatureShape

from conftest import identity_kernel, overflowing_kernel, random_kernel


@pytest.fixture
def identity_path(tmp_path):
    path = tmp_path / "id.npy"
    write_kernel(identity_kernel(2), path)
    return str(path)


@pytest.fixture
def overflow_path(tmp_path):
    path = tmp_path / "huge.npy"
    write_kernel(overflowing_kernel(), path)
    return str(path)


@pytest.fixture
def random_path(tmp_path):
    path = tmp_path / "k.npy"
    write_kernel(random_kernel(0), path)
    return str(path)


class TestSpectrumCommand:
    def test_identity_kernel_summary(self, identity_path, capsys):
        assert main(["spectrum", "--kernel", identity_path, "--input-shape", "4", "4"]) == 0
        out = capsys.readouterr().out
        assert "count: 32" in out
        assert "operator_norm: 1" in out

    def test_top_values_descending(self, random_path, capsys):
        assert main(["spectrum", "--kernel", random_path, "--input-shape", "4", "4", "--top", "5"]) == 0
        out = capsys.readouterr().out
        values = [float(line.strip()) for line in out.splitlines() if line.startswith("  ")]
        assert len(values) == 5
        assert values == sorted(values, reverse=True)

    def test_kernel_larger_than_input(self, random_path, capsys):
        code = main(["spectrum", "--kernel", random_path, "--input-shape", "2", "2"])
        assert code == 2
        assert "KernelLargerThanInput" in capsys.readouterr().err

    def test_missing_file_is_io_error(self, tmp_path, capsys):
        code = main(["spectrum", "--kernel", str(tmp_path / "nope.npy"), "--input-shape", "4", "4"])
        assert code == 1

    def test_json_output(self, identity_path, capsys):
        assert main(["spectrum", "--kernel", identity_path, "--input-shape", "4", "4", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["count"] == 32
        assert payload["operator_norm"] == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("top", ["0", "-1"])
    def test_top_below_one_rejected(self, random_path, capsys, top):
        code = main(["spectrum", "--kernel", random_path, "--input-shape", "4", "4", "--top", top])
        assert code == 2
        assert "--top" in capsys.readouterr().err

    def test_svd_failure_exits_3(self, random_path, capsys, monkeypatch):
        def failing(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", failing)
        code = main(["spectrum", "--kernel", random_path, "--input-shape", "4", "4"])
        assert code == 3
        assert "NoConvergence" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_overflow_exits_3(self, overflow_path, capsys):
        code = main(["spectrum", "--kernel", overflow_path, "--input-shape", "4", "4"])
        assert code == 3
        captured = capsys.readouterr()
        assert "NumericalOverflow" in captured.err and "overflow" in captured.err
        assert "operator_norm" not in captured.out

    def test_csv_export(self, identity_path, tmp_path, capsys):
        out_csv = tmp_path / "spec.csv"
        assert (
            main(
                [
                    "spectrum", "--kernel", identity_path, "--input-shape", "4", "4",
                    "--out", str(out_csv), "--mode", "ratios",
                ]
            )
            == 0
        )
        lines = out_csv.read_text().splitlines()
        assert lines[0] == "index,ratio" and len(lines) == 33


class TestClipCommand:
    def test_identity_clip(self, identity_path, tmp_path, capsys):
        out_npy = tmp_path / "clipped.npy"
        code = main(
            [
                "clip", "--kernel", identity_path, "--input-shape", "4", "4",
                "--bound", "0.5", "--out", str(out_npy),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "norm_before: 1" in out
        assert "norm_after_restriction: 0.5" in out
        spec = compute_spectrum(read_kernel(out_npy), FeatureShape(4, 4))
        assert np.allclose(spec.values, 0.5, atol=1e-9)

    def test_bound_above_norm_is_identity(self, random_path, tmp_path, capsys):
        out_npy = tmp_path / "same.npy"
        code = main(
            [
                "clip", "--kernel", random_path, "--input-shape", "4", "4",
                "--bound", "1000", "--out", str(out_npy),
            ]
        )
        assert code == 0
        assert "bins_modified: 0" in capsys.readouterr().out
        original = read_kernel(random_path)
        assert np.abs(read_kernel(out_npy).data - original.data).max() <= 1e-12

    @pytest.mark.parametrize("bound", ["nan", "inf", "0"])
    def test_bad_bound_rejected(self, random_path, tmp_path, capsys, bound):
        out_npy = tmp_path / "never.npy"
        code = main(
            [
                "clip", "--kernel", random_path, "--input-shape", "8", "8",
                "--bound", bound, "--rounds", "3", "--out", str(out_npy), "--json",
            ]
        )
        assert code == 2
        assert "bound must be positive and finite" in capsys.readouterr().err
        assert not out_npy.exists()

    def test_imaginary_residual_exits_3(self, random_path, tmp_path, capsys, monkeypatch):
        import conv_spectra.cli as cli_mod

        def failing(*args, **kwargs):
            raise ImaginaryResidual("imaginary residual 1.000e-03 exceeds 1e-06 * 1.000e+00")

        monkeypatch.setattr(cli_mod, "project_layer", failing)
        out_npy = tmp_path / "never.npy"
        code = main(
            [
                "clip", "--kernel", random_path, "--input-shape", "4", "4",
                "--bound", "0.5", "--out", str(out_npy),
            ]
        )
        assert code == 3
        assert capsys.readouterr().err.startswith("error: ImaginaryResidual:")
        assert not out_npy.exists()

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_overflow_exits_3_and_writes_nothing(self, overflow_path, tmp_path, capsys):
        out_npy = tmp_path / "never.npy"
        code = main(
            [
                "clip", "--kernel", overflow_path, "--input-shape", "4", "4",
                "--bound", "1", "--out", str(out_npy), "--json",
            ]
        )
        assert code == 3
        captured = capsys.readouterr()
        assert captured.err.startswith("error: NumericalOverflow:")
        assert captured.out == ""
        assert not out_npy.exists()

    def test_multiple_rounds(self, random_path, tmp_path, capsys):
        out_npy = tmp_path / "r5.npy"
        code = main(
            [
                "clip", "--kernel", random_path, "--input-shape", "8", "8",
                "--bound", "0.7", "--rounds", "5", "--out", str(out_npy), "--json",
            ]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["rounds"] == 5
        assert report["norm_after_restriction"] < report["norm_before"]
        assert read_kernel(out_npy).shape == (3, 3, 2, 2)

    def test_clip_then_spectrum_self_consistency(self, random_path, tmp_path, capsys):
        out_npy = tmp_path / "c.npy"
        assert (
            main(
                [
                    "clip", "--kernel", random_path, "--input-shape", "4", "4",
                    "--bound", "1.0", "--out", str(out_npy), "--json",
                ]
            )
            == 0
        )
        report = json.loads(capsys.readouterr().out)
        recomputed = operator_norm(read_kernel(out_npy), FeatureShape(4, 4))
        assert report["norm_after_restriction"] == pytest.approx(recomputed, abs=1e-12)


class TestClipReshapedCommand:
    def test_pointwise_kernel_norms_agree(self, tmp_path, capsys):
        path = tmp_path / "pw.npy"
        write_kernel(random_kernel(1, 1, 1, 3, 3), path)
        out_npy = tmp_path / "out.npy"
        code = main(
            [
                "clip-reshaped", "--kernel", str(path), "--input-shape", "4", "4",
                "--bound", "0.3", "--out", str(out_npy), "--json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["reshaped_matrix_norm"] == pytest.approx(payload["layer_operator_norm"], abs=1e-9)

    def test_gap_visible_for_spatial_kernel(self, random_path, tmp_path, capsys):
        out_npy = tmp_path / "out.npy"
        code = main(
            [
                "clip-reshaped", "--kernel", random_path, "--input-shape", "4", "4",
                "--bound", "0.2", "--out", str(out_npy), "--json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["reshaped_matrix_norm"] == pytest.approx(0.2, abs=1e-8)
        assert abs(payload["layer_operator_norm"] - 0.2) > 1e-4

    def test_bound_above_norm_is_identity(self, tmp_path, capsys):
        path = tmp_path / "small.npy"
        write_kernel(random_kernel(2, scale=0.01), path)
        out_npy = tmp_path / "out.npy"
        assert (
            main(
                [
                    "clip-reshaped", "--kernel", str(path), "--input-shape", "4", "4",
                    "--bound", "100", "--out", str(out_npy),
                ]
            )
            == 0
        )
        assert read_kernel(out_npy).data.tobytes() == read_kernel(path).data.tobytes()


class TestOracleCheckCommand:
    def test_deviation_above_limit_exits_3(self, random_path, capsys, monkeypatch):
        import conv_spectra.cli as cli_mod

        def perturbed(kernel, shape):
            spec = compute_spectrum(kernel, shape)
            values = spec.values.copy()
            values[0] *= 1.001
            return type(spec)(values)

        monkeypatch.setattr(cli_mod, "compute_spectrum", perturbed)
        code = main(["oracle-check", "--kernel", random_path, "--input-shape", "4", "4"])
        assert code == 3
        assert "result: FAIL" in capsys.readouterr().out

    def test_random_kernel_passes(self, random_path, capsys):
        assert main(["oracle-check", "--kernel", random_path, "--input-shape", "4", "4"]) == 0
        assert "result: OK" in capsys.readouterr().out

    def test_identity_kernel_zero_deviation(self, identity_path, capsys):
        assert main(["oracle-check", "--kernel", identity_path, "--input-shape", "4", "4"]) == 0
        payload = capsys.readouterr().out
        assert "max_relative_deviation: 0" in payload

    def test_size_guard_exit_code(self, tmp_path, capsys):
        path = tmp_path / "big.npy"
        write_kernel(random_kernel(3, 3, 3, 8, 8), path)
        code = main(["oracle-check", "--kernel", str(path), "--input-shape", "64", "64"])
        assert code == 2
        assert "4096" in capsys.readouterr().err


class TestGenerateCommand:
    def test_seeded_generation_is_byte_identical(self, tmp_path, capsys):
        a = tmp_path / "a.npy"
        b = tmp_path / "b.npy"
        for path in (a, b):
            assert main(["generate", "--shape", "3", "3", "2", "2", "--seed", "7", "--out", str(path)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_missing_seed_is_derived_and_printed(self, tmp_path, capsys):
        path = tmp_path / "t.npy"
        assert main(["generate", "--shape", "2", "2", "1", "1", "--out", str(path)]) == 0
        out = capsys.readouterr().out
        assert "seed:" in out
        assert read_kernel(path).shape == (2, 2, 1, 1)

    def test_zero_dimension_rejected(self, tmp_path):
        code = main(["generate", "--shape", "0", "3", "2", "2", "--out", str(tmp_path / "x.npy")])
        assert code == 2


class TestBenchCommand:
    def test_tiny_grid_writes_csv(self, tmp_path, capsys):
        out_csv = tmp_path / "timings.csv"
        code = main(
            [
                "bench", "--grid", "n=4,m=2,k=3", "--method", "both",
                "--repeats", "3", "--out", str(out_csv),
            ]
        )
        assert code == 0
        lines = out_csv.read_text().splitlines()
        assert lines[0] == "method,n,m,k,repeats,median_s,min_s,checksum"
        assert len(lines) == 3
        checksums = [float(line.split(",")[-1]) for line in lines[1:]]
        assert checksums[0] == pytest.approx(checksums[1], rel=1e-6)

    def test_bad_grid_is_validation_error(self, capsys):
        assert main(["bench", "--grid", "q=4"]) == 2


class TestConsoleEntryPoint:
    def test_module_invocation(self, tmp_path):
        path = tmp_path / "gen.npy"
        proc = subprocess.run(
            [
                sys.executable, "-m", "conv_spectra.cli",
                "generate", "--shape", "2", "2", "1", "1", "--seed", "1", "--out", str(path),
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert path.exists()

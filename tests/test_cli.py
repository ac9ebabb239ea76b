import contextlib
import io
import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gefdesign.cli import run
from gefdesign.digital import DigitalFilter, SignalBuffer, apply_sos, read_wav, write_wav

N_SHARP6_TEXT = "19.098593171027442"
SRC = Path(__file__).resolve().parents[1] / "src"


def read_json(path):
    return json.loads(path.read_text())


def error_type(capsys):
    """The type named by the one JSON error object on stderr."""
    return json.loads(capsys.readouterr().err)["error"]["type"]


def run_captured(argv):
    """run(argv) with stdout and stderr captured: the exit code, stdout, and
    the JSON error lines on stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    errors = [json.loads(line) for line in err.getvalue().splitlines()
              if line.startswith('{"error"')]
    return code, out.getvalue(), errors


def write_float_wav(path, rate, samples):
    """A mono 32-bit float WAV whose header gives this sample rate."""
    data = np.asarray(samples, dtype="<f4").tobytes()
    fmt = struct.pack("<HHIIHH", 3, 1, rate, 4 * rate, 4, 32)
    body = (b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt
            + b"data" + struct.pack("<I", len(data)) + data)
    path.write_bytes(b"RIFF" + struct.pack("<I", len(body)) + body)


@pytest.fixture
def constants_file(tmp_path):
    path = tmp_path / "constants.json"
    rc = run([
        "design", "--peak-beta", "1", "--gdelay-cycles", N_SHARP6_TEXT,
        "--phase-accum", "3", "--out", str(path),
    ])
    assert rc == 0
    return path


@pytest.fixture
def sos_file(tmp_path, constants_file):
    path = tmp_path / "sos.json"
    rc = run([
        "discretize", "--constants", str(constants_file),
        "--peak-hz", "1000", "--fs", "48000", "--out", str(path),
    ])
    assert rc == 0
    return path


class TestDesignCommand:
    def test_prints_reference_constants(self, capsys):
        rc = run(["design", "--peak-beta", "1", "--gdelay-cycles", N_SHARP6_TEXT,
                  "--phase-accum", "3"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["constants"]["a_p"] == pytest.approx(0.05, rel=1e-9)
        assert doc["constants"]["b_p"] == 1.0
        assert doc["constants"]["b_u"] == pytest.approx(6.0, rel=1e-9)
        assert doc["spec"]["row"] == "II.1"

    def test_qn_flag_parsing(self, capsys):
        rc = run(["design", "--peak-beta", "1", "--qn", "10:14.620769527557067",
                  "--phase-accum", "3"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["spec"]["row"] == "II.4"
        assert doc["constants"]["a_p"] == pytest.approx(0.05, rel=1e-9)

    def test_invalid_pair_exits_2(self, capsys):
        rc = run(["design", "--peak-beta", "1", "--qerb", "25.9", "--qn", "10:14.6"])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "UsageError"

    def test_missing_peak_exits_2(self):
        assert run(["design", "--gdelay-cycles", "19.1", "--phase-accum", "3"]) == 2

    def test_infeasible_design_exits_3(self, capsys):
        rc = run(["design", "--peak-beta", "1", "--gdelay-cycles", "8",
                  "--qerb", "30"])
        assert rc == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "BracketFailure"

    def test_peak_hz_recorded(self, capsys):
        rc = run(["design", "--peak-hz", "1000", "--gdelay-cycles", N_SHARP6_TEXT,
                  "--phase-accum", "3"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["f_peak_hz"] == 1000.0
        assert doc["spec"]["beta_peak"] == 1.0

    @pytest.mark.parametrize("peak_hz", ["nan", "inf", "-5"])
    def test_bad_peak_hz_exits_2(self, capsys, peak_hz):
        rc = run(["design", "--peak-hz", peak_hz, "--gdelay-cycles", N_SHARP6_TEXT,
                  "--phase-accum", "3"])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err)["error"]["type"] == "UsageError"

    def test_integer_snap_flag(self, capsys):
        rc = run(["design", "--peak-beta", "1", "--gdelay-cycles", "19",
                  "--qerb", "25", "--integer-snap"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["constants"]["b_u"] == 6.0

    def test_byte_identical_outputs(self, tmp_path):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for path in paths:
            run(["design", "--peak-beta", "1", "--gdelay-cycles", N_SHARP6_TEXT,
                 "--phase-accum", "3", "--out", str(path)])
        assert paths[0].read_bytes() == paths[1].read_bytes()


class TestAnalyzeCommand:
    def test_closed_and_numeric_reports(self, capsys, constants_file):
        capsys.readouterr()  # drop the design fixture's stdout
        rc = run(["analyze", "--constants", str(constants_file)])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["closed_form"]["q_erb"] == pytest.approx(25.869, abs=1e-3)
        assert doc["numeric"]["q_erb"] == pytest.approx(25.869, rel=0.015)
        assert doc["numeric"]["method"] == "numeric"

    def test_round_trip_through_spec(self, capsys, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({
            "row": "II.2", "beta_peak": 1.0,
            "n_cycles": 19.098593171027442, "q_erb": 25.868993924419065,
            "mode": "exact",
        }))
        rc = run(["analyze", "--spec", str(spec_path)])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["closed_form"]["n_beta"] == pytest.approx(19.098593171027442, rel=1e-6)
        assert doc["closed_form"]["q_erb"] == pytest.approx(25.868993924419065, rel=1e-6)

    def test_csv_format(self, capsys, constants_file):
        capsys.readouterr()
        rc = run(["analyze", "--constants", str(constants_file), "--format", "csv"])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "characteristic,closed_form,numeric"

    def test_missing_input_exits_4(self, capsys):
        assert run(["analyze", "--constants", "/nonexistent/c.json"]) == 4


class TestBadInputFiles:
    @pytest.mark.parametrize("text", [
        '{"beta_peak": 1}',
        '{"row": "II.1", "beta_peak": 1, "n_cycles": "x", "phi_accum": 3}',
    ])
    def test_bad_spec_exits_3(self, tmp_path, capsys, text):
        spec = tmp_path / "spec.json"
        spec.write_text(text)
        assert run(["analyze", "--spec", str(spec)]) == 3
        assert error_type(capsys) == "InfeasibleSpec"

    def test_malformed_json_exits_2(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text("{")
        assert run(["analyze", "--spec", str(spec)]) == 2
        assert error_type(capsys) == "UsageError"

    @pytest.mark.parametrize("argv", [
        ["analyze"],
        ["discretize", "--peak-hz", "1000", "--fs", "48000"],
    ])
    def test_constants_missing_b_u_exits_3(self, tmp_path, capsys, argv):
        constants = tmp_path / "c.json"
        constants.write_text(json.dumps({"a_p": 0.05, "b_p": 1.0}))
        assert run([*argv, "--constants", str(constants)]) == 3
        assert error_type(capsys) == "InfeasibleSpec"

    def test_constants_without_peak_exit_3(self, tmp_path, capsys):
        constants = tmp_path / "c.json"
        constants.write_text(json.dumps({"a_p": 1.0, "b_p": 0.5, "b_u": 2.0}))
        assert run(["discretize", "--constants", str(constants),
                    "--peak-hz", "1000", "--fs", "48000"]) == 3
        assert error_type(capsys) == "NoInteriorPeak"

    def test_analyze_overflowing_characteristics_exits_3(self, tmp_path, capsys):
        # design accepts this trio, giving a_p ~ 3.18e-201; S overflows
        out = tmp_path / "c.json"
        assert run(["design", "--peak-beta", "1", "--gdelay-cycles", "1e200",
                    "--phase-accum", "1", "--out", str(out)]) == 0
        assert read_json(out)["constants"]["a_p"] == pytest.approx(3.18e-201, rel=1e-3)
        capsys.readouterr()
        assert run(["analyze", "--constants", str(out)]) == 3
        assert error_type(capsys) == "OutOfRange"

    @pytest.mark.parametrize("argv, error", [
        # b_u = 0.002: the 10 dB level factor 10**(500) - 1 overflows
        (["--qn", "10:14", "--phase-accum", "0.001"], "OutOfRange"),
        # b_u = 2e20: 10**(10 / (10 b_u)) rounds to 1, so the factor is 0
        (["--qn", "10:14", "--phase-accum", "1e20"], "OutOfRange"),
        # Q_erb / N = 1e-310: the power-law seed overflows, the scan finds no root
        (["--gdelay-cycles", "1e10", "--qerb", "1e-300"], "BracketFailure"),
        (["--gdelay-cycles", "1e10", "--qerb", "1e-300", "--mode", "approx"], "InfeasibleSpec"),
    ])
    def test_extreme_trio_exits_3(self, capsys, argv, error):
        assert run(["design", "--peak-beta", "1", *argv]) == 3
        assert error_type(capsys) == error

    @pytest.mark.parametrize("argv", [
        # N**2 overflows in the II.5 exponent
        ["--peak-beta", "1", "--gdelay-cycles", "1e200", "--convexity", "1"],
        # beta_peak * N underflows to 0 below Q_erb / (beta_peak N) and Q_n / (beta_peak N)
        ["--peak-beta", "1e-200", "--gdelay-cycles", "1e-200", "--qerb", "1"],
        ["--peak-beta", "1e-200", "--gdelay-cycles", "1e-200", "--qn", "10:1"],
    ])
    def test_design_overflow_exits_3(self, capsys, argv):
        assert run(["design", *argv]) == 3
        assert error_type(capsys) == "OutOfRange"

    @pytest.mark.parametrize("text", ["5", "[1, 2]", '"constants"', '{"constants": 5}'])
    def test_non_object_constants_exits_3(self, tmp_path, capsys, text):
        constants = tmp_path / "five.json"
        constants.write_text(text)
        assert run(["analyze", "--constants", str(constants)]) == 3
        assert error_type(capsys) == "InfeasibleSpec"

    @pytest.mark.parametrize("constants", [
        # exp overflows in eval_gef on the extraction grid
        {"a_p": 0.001, "b_p": 1, "b_u": 200},
        # the non-uniform Simpson weights where the log tail meets the dense
        # window take the quadrature ERB below zero
        {"a_p": 1.3859e-4, "b_p": 103.42, "b_u": 0.886},
        # the peak sits below the grid's beta_min of 1e-3
        {"a_p": 0.05, "b_p": 5e-4, "b_u": 6},
    ])
    def test_analyze_unextractable_constants_exits_3(self, tmp_path, capsys, constants):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(constants))
        assert run(["analyze", "--constants", str(path)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err)["error"]["type"] == "OutOfRange"

    def test_analyze_peak_beyond_golden_section_resolution(self, tmp_path, capsys):
        # floats near b_p = 1e7 are coarser than the peak search's 1e-10 tolerance
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"a_p": 1000, "b_p": 1e7, "b_u": 4}))
        assert run(["analyze", "--constants", str(path)]) == 0
        numeric = json.loads(capsys.readouterr().out)["numeric"]
        assert numeric["beta_peak"] == pytest.approx(1e7, rel=1e-8)

    def test_analyze_tiny_exponent_exits_3(self, tmp_path, capsys):
        constants = tmp_path / "c.json"
        constants.write_text(json.dumps({"a_p": 0.05, "b_p": 1.0, "b_u": 0.001}))
        assert run(["analyze", "--constants", str(constants)]) == 3
        assert error_type(capsys) == "OutOfRange"

    @pytest.mark.parametrize("command", [
        ["response", "--fmin", "500", "--fmax", "1500", "--points", "11"],
        ["filter", "in.csv", "out.csv", "--rate", "48000"],
    ])
    @pytest.mark.parametrize("text, code, error", [
        ("{", 2, "UsageError"),
        ('{"fs": 48000}', 3, "InfeasibleSpec"),
        ('{"fs": 48000, "sos": [["one", 0, 0, 0, 0]]}', 3, "InfeasibleSpec"),
        ('{"fs": 48000, "sos": [[1, 0, 0, -2, 1.01]]}', 3, "InfeasibleSpec"),
    ])
    def test_bad_filter_file(self, tmp_path, monkeypatch, capsys, command, text, code, error):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "in.csv").write_text("0.0\n1.0\n")
        (tmp_path / "f.json").write_text(text)
        assert run([*command, "--sos", "f.json"]) == code
        assert error_type(capsys) == error


class TestEvaluateCommand:
    def test_writes_both_tables(self, tmp_path, constants_file):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(read_json(constants_file)["spec"]))
        errors_path = tmp_path / "errors.csv"
        response_path = tmp_path / "response.csv"
        rc = run(["evaluate", "--spec", str(spec_path),
                  "--errors-out", str(errors_path),
                  "--response-out", str(response_path)])
        assert rc == 0
        header = errors_path.read_text().splitlines()[0]
        assert header.startswith("characteristic,desired,p_sharp_achieved")
        assert response_path.read_text().splitlines()[0].startswith("beta,")

    def test_response_table_only_on_request(self, tmp_path, constants_file, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("response table built without --response-out")

        monkeypatch.setattr("gefdesign.cli.response_table", refuse)
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(read_json(constants_file)["spec"]))
        errors_path = tmp_path / "errors.csv"
        assert run(["evaluate", "--spec", str(spec_path), "--errors-out", str(errors_path)]) == 0
        assert errors_path.read_text().startswith("characteristic,desired,")

    @pytest.mark.parametrize("n_cycles, response_out, code", [
        (1.5, False, 3),  # a_p = 1 / pi: no 10 dB crossing below the peak
        (3.0, False, 0),  # a_p = 1 / (2 pi)
        (3.0, True, 0),
    ])
    def test_sharpness_warning_printed_once(self, tmp_path, n_cycles, response_out, code):
        spec = {"row": "II.1", "beta_peak": 1, "n_cycles": n_cycles, "phi_accum": 3}
        (tmp_path / "spec.json").write_text(json.dumps(spec))
        argv = ["evaluate", "--spec", "spec.json", "--errors-out", "errors.csv"]
        if response_out:
            argv += ["--response-out", "response.csv"]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-m", "gefdesign.cli", *argv], cwd=tmp_path,
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == code, proc.stderr
        assert proc.stderr.count("SharpnessWarning") == 1, proc.stderr


class TestSweepCommand:
    def test_csv_output(self, capsys):
        rc = run(["sweep", "--qerb", "20,25", "--n", "15,19"])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "q_erb,n_cycles,characteristic,rel_error"
        assert len(lines) > 4

    def test_bad_axis_exits_2(self):
        assert run(["sweep", "--qerb", "20,nope", "--n", "15"]) == 2

    @pytest.mark.parametrize("argv", [
        ["--qerb", "nan", "--n", "15"],
        ["--qerb", "20", "--n", "inf", "--format", "json"],
        ["--qerb", "-1", "--n", "15"],
    ])
    def test_non_finite_or_non_positive_axis_exits_2(self, capsys, argv):
        assert run(["sweep", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err)["error"]["type"] == "UsageError"


class TestBankCommand:
    def test_bank_json(self, capsys):
        rc = run(["bank", "--peak-beta", "1", "--gdelay-cycles", N_SHARP6_TEXT,
                  "--phase-accum", "3", "--cf0", "20000", "--l", "1",
                  "--channels", "3", "--x-max", "3"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["channels"]) == 3
        assert doc["channels"][0]["f_peak_hz"] == 20000.0
        assert doc["channels"][0]["theta"]["a_p"] == pytest.approx(0.05, rel=1e-9)

    @pytest.mark.parametrize("flag, value", [
        ("--cf0", "nan"), ("--cf0", "-1"), ("--cf0", "inf"),
        ("--l", "nan"), ("--l", "0"),
        ("--x-max", "nan"), ("--x-max", "-1"),
    ])
    def test_bad_map_exits_3(self, capsys, flag, value):
        flags = {"--cf0": "20000", "--l": "1", "--x-max": "3", flag: value}
        rc = run(["bank", "--peak-beta", "1", "--gdelay-cycles", N_SHARP6_TEXT,
                  "--phase-accum", "3", "--channels", "2",
                  *(item for pair in flags.items() for item in pair)])
        assert rc == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err)["error"]["type"] == "OutOfRange"


class TestDiscretizeAndFilter:
    def test_sos_document(self, sos_file):
        doc = read_json(sos_file)
        assert doc["fs"] == 48000.0
        assert len(doc["sos"]) == 6
        assert doc["f_peak_hz"] == 1000.0

    def test_end_to_end_response_peak(self, tmp_path, sos_file):
        out = tmp_path / "resp.csv"
        rc = run(["response", "--sos", str(sos_file), "--fmin", "500",
                  "--fmax", "1500", "--points", "2001", "--out", str(out)])
        assert rc == 0
        rows = np.loadtxt(out, delimiter=",", skiprows=1)
        peak_f = rows[np.argmax(rows[:, 3]), 0]
        assert abs(peak_f - 1000.0) <= 0.5  # one grid bin of this table

    def test_filter_csv_signal(self, tmp_path, sos_file):
        t = np.arange(4800) / 48000.0
        infile = tmp_path / "in.csv"
        outfile = tmp_path / "out.csv"
        np.savetxt(infile, np.sin(2 * np.pi * 1000.0 * t), fmt="%.12e")
        rc = run(["filter", "--sos", str(sos_file), "--rate", "48000",
                  str(infile), str(outfile)])
        assert rc == 0
        y = np.loadtxt(outfile)
        assert y.size == 4800
        assert np.abs(y[2400:]).max() == pytest.approx(1.0, rel=0.02)

    def test_filter_wav_signal(self, tmp_path, sos_file):
        from gefdesign.digital import SignalBuffer, read_wav, write_wav

        t = np.arange(4800) / 48000.0
        infile = tmp_path / "in.wav"
        outfile = tmp_path / "out.wav"
        write_wav(infile, SignalBuffer(48000.0, np.sin(2 * np.pi * 1000.0 * t)))
        rc = run(["filter", "--sos", str(sos_file), str(infile), str(outfile)])
        assert rc == 0
        assert read_wav(outfile).samples.size == 4800

    def test_fft_route_for_non_integer(self, tmp_path, capsys):
        constants = tmp_path / "c55.json"
        constants.write_text(json.dumps(
            {"a_p": 0.05, "b_p": 1.0, "b_u": 5.5, "gain": 1e-6}))
        t = np.arange(4800) / 48000.0
        infile = tmp_path / "in.csv"
        outfile = tmp_path / "out.csv"
        np.savetxt(infile, np.sin(2 * np.pi * 1000.0 * t), fmt="%.12e")
        rc = run(["filter", "--fft", "--constants", str(constants),
                  "--peak-hz", "1000", "--rate", "48000",
                  str(infile), str(outfile)])
        assert rc == 0
        assert np.all(np.isfinite(np.loadtxt(outfile)))

    def test_sos_route_rejects_non_integer(self, tmp_path, capsys):
        constants = tmp_path / "c55.json"
        constants.write_text(json.dumps({"a_p": 0.05, "b_p": 1.0, "b_u": 5.5}))
        rc = run(["discretize", "--constants", str(constants),
                  "--peak-hz", "1000", "--fs", "48000"])
        assert rc == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "NonIntegerExponent"

    @pytest.mark.parametrize("fs", ["nan", "inf"])
    def test_non_finite_fs_exits_3(self, constants_file, capsys, fs):
        rc = run(["discretize", "--constants", str(constants_file),
                  "--peak-hz", "1000", "--fs", fs])
        assert rc == 3
        assert error_type(capsys) == "OutOfRange"

    @pytest.mark.parametrize("rate", ["nan", "inf"])
    def test_fft_route_non_finite_rate_exits_3(self, tmp_path, constants_file, capsys, rate):
        infile = tmp_path / "in.csv"
        infile.write_text("0.0\n1.0\n")
        rc = run(["filter", "--fft", "--constants", str(constants_file), "--peak-hz", "1000",
                  "--rate", rate, str(infile), str(tmp_path / "out.csv")])
        assert rc == 3
        assert error_type(capsys) == "OutOfRange"

    @pytest.mark.parametrize("rate", ["0", "-48000"])
    @pytest.mark.parametrize("route", ["sos", "fft"])
    def test_non_positive_rate_exits_3(self, tmp_path, constants_file, sos_file, capsys,
                                       rate, route):
        infile = tmp_path / "in.csv"
        infile.write_text("0.0\n1.0\n")
        source = (["--sos", str(sos_file)] if route == "sos" else
                  ["--fft", "--constants", str(constants_file), "--peak-hz", "1000"])
        capsys.readouterr()
        rc = run(["filter", *source, "--rate", rate, str(infile), str(tmp_path / "out.csv")])
        assert rc == 3
        assert error_type(capsys) == "OutOfRange"
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("route", ["sos", "fft"])
    def test_zero_rate_wav_exits_3(self, tmp_path, constants_file, sos_file, capsys, route):
        infile = tmp_path / "in.wav"
        write_float_wav(infile, 0, [0.0, 0.5, -0.5, 0.25])
        source = (["--sos", str(sos_file)] if route == "sos" else
                  ["--fft", "--constants", str(constants_file), "--peak-hz", "1000"])
        capsys.readouterr()
        assert run(["filter", *source, str(infile), str(tmp_path / "out.wav")]) == 3
        assert error_type(capsys) == "OutOfRange"
        assert not (tmp_path / "out.wav").exists()

    def test_nyquist_violation_exits_3(self, constants_file):
        rc = run(["discretize", "--constants", str(constants_file),
                  "--peak-hz", "30000", "--fs", "48000"])
        assert rc == 3


class TestResponseCommand:
    def test_analog_response_from_constants(self, tmp_path, constants_file, capsys):
        rc = run(["response", "--constants", str(constants_file), "--peak-hz", "1000",
                  "--fmin", "900", "--fmax", "1100", "--points", "101"])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "f_hz,re,im,level_db,phase_rad"
        assert len(lines) == 102

    def test_needs_exactly_one_source(self, constants_file, sos_file):
        assert run(["response", "--constants", str(constants_file),
                    "--sos", str(sos_file), "--fmin", "1", "--fmax", "2",
                    "--points", "2"]) == 2
        assert run(["response", "--fmin", "1", "--fmax", "2", "--points", "2"]) == 2

    @pytest.mark.parametrize("peak_hz", ["nan", "inf", "-5", "0"])
    def test_bad_peak_hz_exits_3(self, constants_file, capsys, peak_hz):
        rc = run(["response", "--constants", str(constants_file), "--peak-hz", peak_hz,
                  "--fmin", "50", "--fmax", "1000", "--points", "3"])
        assert rc == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err)["error"]["type"] == "OutOfRange"

    @pytest.mark.parametrize("fmin, fmax", [("nan", "1000"), ("50", "nan"), ("50", "inf")])
    @pytest.mark.parametrize("route", ["constants", "sos"])
    def test_non_finite_band_exits_3(self, constants_file, sos_file, capsys, fmin, fmax, route):
        source = (["--sos", str(sos_file)] if route == "sos" else
                  ["--constants", str(constants_file), "--peak-hz", "1000"])
        capsys.readouterr()
        rc = run(["response", *source, "--fmin", fmin, "--fmax", fmax, "--points", "3"])
        assert rc == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err)["error"]["type"] == "OutOfRange"

    @pytest.mark.parametrize("fs", ["NaN", "Infinity"])
    def test_filter_file_with_non_finite_rate_exits_3(self, tmp_path, sos_file, capsys, fs):
        bad = tmp_path / "bad.json"
        bad.write_text(sos_file.read_text().replace('"fs": 48000.0', f'"fs": {fs}'))
        assert fs in bad.read_text()
        capsys.readouterr()
        rc = run(["response", "--sos", str(bad), "--fmin", "50", "--fmax", "1000",
                  "--points", "3"])
        assert rc == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err)["error"]["type"] == "InfeasibleSpec"


class TestEndToEndRoundTrip:
    def test_analyze_design_reproduces_trio(self, capsys, tmp_path):
        # design from a trio, re-analyze, compare the trio characteristics
        out = tmp_path / "c.json"
        run(["design", "--peak-beta", "1", "--qerb", "25.868993924419065",
             "--phase-accum", "3", "--out", str(out)])
        capsys.readouterr()
        rc = run(["analyze", "--constants", str(out)])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["closed_form"]["q_erb"] == pytest.approx(25.868993924419065, rel=1e-9)
        assert doc["closed_form"]["phi_accum"] == 3.0
        assert doc["numeric"]["q_erb"] == pytest.approx(25.868993924419065, rel=0.015)


class TestImportPath:
    """Only `filter` needs scipy, for its compiled cascade loop alone;
    everything else runs on numpy."""

    def _python(self, code, cwd):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        return subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env,
                              capture_output=True, text=True, timeout=120)

    def test_cli_import_loads_no_scipy(self, tmp_path):
        proc = self._python(
            "import sys, gefdesign.cli\n"
            "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])",
            tmp_path,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_filter_loads_neither_scipy_signal_nor_scipy_io(self, tmp_path):
        assert run(["design", "--peak-beta", "1", "--gdelay-cycles", N_SHARP6_TEXT,
                     "--phase-accum", "3", "--out", str(tmp_path / "c.json")]) == 0
        assert run(["discretize", "--constants", str(tmp_path / "c.json"), "--peak-hz", "1000",
                     "--fs", "48000", "--out", str(tmp_path / "sos.json")]) == 0
        rng = np.random.default_rng(3)
        write_wav(tmp_path / "in.wav", SignalBuffer(48000.0, rng.standard_normal(4800)))
        proc = self._python(
            "import json, sys\n"
            "from gefdesign.cli import run\n"
            "assert run(['filter', '--sos', 'sos.json', 'in.wav', 'out.wav']) == 0\n"
            "print(json.dumps(sorted(m for m in sys.modules if m.startswith('scipy'))))",
            tmp_path,
        )
        assert proc.returncode == 0, proc.stderr
        loaded = json.loads(proc.stdout)  # the packages, not the kernel's own module
        assert "scipy.signal" not in loaded and "scipy.io" not in loaded
        expected = apply_sos(DigitalFilter.from_dict(read_json(tmp_path / "sos.json")),
                             read_wav(tmp_path / "in.wav"))
        written = read_wav(tmp_path / "out.wav").samples
        assert np.array_equal(written, expected.samples.astype(np.float32))

    def test_subcommands_run_without_scipy(self, tmp_path):
        spec = {"row": "II.2", "beta_peak": 1.0, "n_cycles": 19.1, "q_erb": 25.9}
        (tmp_path / "spec.json").write_text(json.dumps(spec))
        calls = [
            ["design", "--peak-beta", "1", "--gdelay-cycles", N_SHARP6_TEXT,
             "--phase-accum", "3", "--out", "c.json"],
            ["analyze", "--constants", "c.json"],
            ["evaluate", "--spec", "spec.json"],
            ["discretize", "--constants", "c.json", "--peak-hz", "1000", "--fs", "48000",
             "--out", "sos.json"],
            ["response", "--sos", "sos.json", "--fmin", "500", "--fmax", "1500", "--points", "11"],
            ["bank", "--peak-beta", "1", "--gdelay-cycles", N_SHARP6_TEXT, "--phase-accum", "3",
             "--cf0", "20000", "--l", "1", "--channels", "4", "--x-max", "3"],
        ]
        proc = self._python(
            "import contextlib, io, json, sys\n"
            "sys.modules['scipy'] = None\n"
            "from gefdesign.cli import run\n"
            "codes = []\n"
            f"for argv in {calls!r}:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        codes.append(run(argv))\n"
            "print(json.dumps(codes))",
            tmp_path,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == [0] * len(calls), proc.stderr


LOG_UNIFORM = st.floats(-6.0, 6.0).map(lambda exponent: 10.0 ** exponent)
AXIS_VALUE = st.one_of(
    st.sampled_from(["nan", "inf", "-inf", "0", "-0", "-1", "1e-300", "1e300"]),
    st.floats(5.0, 60.0).map(repr),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
)
AXIS = st.lists(AXIS_VALUE, min_size=1, max_size=2).map(",".join)


def _reject_constant(name):
    raise ValueError(f"{name} is not valid JSON")


class TestCliProperties:
    """Random input through run(): every call exits with a documented code,
    raises nothing, and prints one JSON error exactly when it fails."""

    @pytest.fixture(scope="class")
    def workdir(self, tmp_path_factory):
        return tmp_path_factory.mktemp("properties")

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(a_p=LOG_UNIFORM, b_p=LOG_UNIFORM, b_u=LOG_UNIFORM)
    def test_random_constants_files(self, workdir, a_p, b_p, b_u):
        path = workdir / "c.json"
        path.write_text(json.dumps({"a_p": a_p, "b_p": b_p, "b_u": b_u}))
        for argv in (
            ["analyze", "--constants", str(path)],
            ["discretize", "--constants", str(path), "--peak-hz", "1000", "--fs", "48000"],
            ["response", "--constants", str(path), "--peak-hz", "1000",
             "--fmin", "50", "--fmax", "5000", "--points", "16"],
        ):
            code, _, errors = run_captured(argv)
            assert code in (0, 2, 3, 4), argv
            assert len(errors) == (code != 0), argv

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(qerb=AXIS, n=AXIS)
    def test_random_sweep_axes(self, qerb, n):
        code, out, errors = run_captured(["sweep", f"--qerb={qerb}", f"--n={n}", "--format", "json"])
        assert code in (0, 2, 3, 4)
        assert len(errors) == (code != 0)
        if code == 0:
            json.loads(out, parse_constant=_reject_constant)

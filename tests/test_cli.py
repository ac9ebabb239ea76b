import contextlib
import hashlib
import io
import json
import math
import os
import struct
import subprocess
import sys
import warnings
from functools import partial
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gefdesign import (
    CharacteristicSpec,
    FilterConstants,
    closed_form,
    design,
    digital_response,
    eval_gef,
    extract_numeric,
    level_db,
    phase_rad,
    to_sos,
)
from gefdesign import biquad
from gefdesign.cli import run
from gefdesign.core import log_response
from gefdesign.digital import DigitalFilter, SignalBuffer, apply_sos, read_wav, write_wav
from gefdesign.errors import GefError
from gefdesign.probe import log_probe
from gefdesign.scalar import DB_PER_LOG

N_SHARP6_TEXT = "19.098593171027442"
SRC = Path(__file__).resolve().parents[1] / "src"
# stdout of `design` for seeded trios of all seven rows, plain, with
# --integer-snap and with --mode approx, captured while design still ran on
# numpy; the math-only design path must print the same bytes
DESIGN_GOLDEN = json.loads(
    (Path(__file__).resolve().parent / "data" / "design_golden.json").read_text()
)
# stdout and output files of `analyze`, `evaluate`, `sweep` and `response` on
# seeded inputs, captured from the commit before the CLI took over writing
# the harness tables: "text" cases hold CSV and JSON that must not move (by
# content, or by SHA-256 where long); "json" cases hold the documents that
# were printed at 17 digits then, and must now be those values at 12.  The
# `response` cases and the `--response-out` hashes were captured again when
# those tables moved to the log response (Im L phases, finite levels), and
# the `--response-out` hashes once more when the default grid's tails were
# laid out in units of b_p (its window's rows kept their bytes).  The two
# `response --sos` cases were captured again when the cascade's log moved to
# cmath in factored form: 20 cells moved in their last digit or two, 18 of
# them closer to a 40-digit reference, none now off it by over 5.4e-13
# relative or 5e-13 dB; and at fs/2, where the response is 0, the phase reads
# 0 and Im H +0.  The `filter` cases hash the output of both routes on a seeded integer noise
# (an input given as a string is written as it stands, not as JSON); the FFT
# route takes two 8192-point blocks with a lead of 16 samples
TABLES_GOLDEN = json.loads(
    (Path(__file__).resolve().parent / "data" / "tables_golden.json").read_text()
)


def read_json(path):
    return json.loads(path.read_text())


def error_type(capsys):
    """The type named by the one JSON error object on stderr."""
    return json.loads(capsys.readouterr().err)["error"]["type"]


def run_captured(argv):
    """run(argv) with stdout and stderr captured: the exit code, stdout, and
    the JSON error objects on stderr; every stderr line must parse as JSON."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    lines = [json.loads(line) for line in err.getvalue().splitlines()]
    return code, out.getvalue(), [line for line in lines if "error" in line]


def run_process(argv, cwd):
    """`python -m gefdesign.cli *argv` in a fresh interpreter, in cwd."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "gefdesign.cli", *argv], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)


def extract_numeric_p(theta):
    """What `analyze` extracts: the probes of the full filter's log response."""
    return extract_numeric(log_probe(theta, "p"))


def round12(obj):
    """Every float of a JSON document at 12 significant digits."""
    if isinstance(obj, float):
        return float(f"{obj:.12e}")
    if isinstance(obj, dict):
        return {key: round12(value) for key, value in obj.items()}
    if isinstance(obj, list):
        return [round12(item) for item in obj]
    return obj


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


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


# a stable cascade whose numerators overflow: its response and its output
# are not finite
OVERFLOWING_SOS = [[1e308, 1e308, 1e308, -1.5, 0.7]] * 3


class TestArgumentParsing:
    @pytest.mark.parametrize("argv", [
        ["response", "--constants", "{constants}", "--peak-hz", "1000", "--fmin", "50",
         "--fmax", "1000", "--points", "nan"],
        ["design", "--peak-beta", "abc", "--gdelay-cycles", "19.1", "--phase-accum", "3"],
        ["frobnicate"],
    ], ids=["bad-int", "bad-float", "unknown-subcommand"])
    def test_parser_refusal_prints_one_json_error(self, capsys, constants_file, argv):
        argv = [arg.format(constants=constants_file) for arg in argv]
        capsys.readouterr()
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err)["error"]["type"] == "UsageError"

    @pytest.mark.parametrize("argv", [["--help"], ["--version"], ["design", "--help"]])
    def test_help_and_version_exit_0(self, capsys, argv):
        assert run(argv) == 0
        captured = capsys.readouterr()
        assert captured.out and captured.err == ""


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

    def test_non_sharp_design_warns_in_one_json_line(self, tmp_path):
        # the warning once printed as text with cli.py's path and line, and
        # the source line after it
        proc = run_process(["design", "--peak-beta", "1", "--qerb", "2", "--gdelay-cycles", "1"],
                           tmp_path)
        assert proc.returncode == 0
        [line] = proc.stderr.splitlines()
        warning = json.loads(line)["warning"]
        assert warning["type"] == "SharpnessWarning"
        assert warning["message"].startswith("designed a_p = 0.31831 is not sharp")

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

    @pytest.mark.parametrize("level", ["nan", "inf", "-1"])
    def test_bad_qn_level_exits_2(self, capsys, level):
        rc = run(["design", "--peak-beta", "1", "--gdelay-cycles", "10", "--qn", f"{level}:14"])
        assert rc == 2
        assert error_type(capsys) == "UsageError"

    def test_non_finite_qn_level_in_spec_exits_3(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text('{"row": "II.7", "beta_peak": 1, "n_cycles": 10, "q_n": 14, "n_level": NaN}')
        assert run(["analyze", "--spec", str(spec)]) == 3
        assert error_type(capsys) == "InfeasibleSpec"

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

    @pytest.mark.parametrize("case", DESIGN_GOLDEN, ids=[case["id"] for case in DESIGN_GOLDEN])
    def test_golden_stdout(self, case):
        code, out, errors = run_captured(case["argv"])
        assert (code, errors) == (0, [])
        assert out == case["stdout"]


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


# a WAV file with no data chunk, on which scipy.io.wavfile.read warns that it
# skips the chunk "dat_", then raises UnboundLocalError
NO_DATA_WAV = (b"RIFF" + struct.pack("<I", 48) + b"WAVEfmt "
               + struct.pack("<IHHIIHH", 16, 3, 1, 48000, 192000, 4, 32)
               + b"dat_" + struct.pack("<I", 12) + bytes(12))


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
        ["analyze", "--constants"],
        ["analyze", "--spec"],
        ["response", "--fmin", "500", "--fmax", "1500", "--points", "11", "--sos"],
    ])
    def test_non_utf8_json_exits_2(self, tmp_path, argv):
        path = tmp_path / "bad.json"
        path.write_bytes(b"\xff\xfe\x00garbage")
        code, _, errors = run_captured([*argv, str(path)])
        assert code == 2
        assert [error["error"]["type"] for error in errors] == ["UsageError"]
        assert str(path) in errors[0]["error"]["message"]

    @pytest.mark.parametrize("name, content, argv", [
        ("bad.csv", b"0.5\nnot a number\n0.25\n", ["--rate", "48000"]),
        ("bad.wav", b"RIFF\0\0", []),
        ("nodata.wav", NO_DATA_WAV, []),
    ])
    def test_damaged_signal_exits_2(self, tmp_path, sos_file, name, content, argv):
        infile = tmp_path / name
        infile.write_bytes(content)
        outfile = tmp_path / ("out" + infile.suffix)
        code, _, errors = run_captured(
            ["filter", "--sos", str(sos_file), *argv, str(infile), str(outfile)]
        )
        assert code == 2
        assert [error["error"]["type"] for error in errors] == ["UsageError"]
        assert str(infile) in errors[0]["error"]["message"]
        assert not outfile.exists()

    @pytest.mark.parametrize("argv, code", [
        (["design", "--peak-beta", "1", "--gdelay-cycles", "12.5"], 2),
        (["design", "--peak-beta", "1", "--gdelay-cycles", "12.5", "--qn", "ten"], 2),
        # Q_erb / N above its reachable maximum of about 2.1
        (["design", "--peak-beta", "1", "--gdelay-cycles", "12.5", "--qerb", "37.5"], 3),
        (["discretize", "--constants", "nonint.json", "--peak-hz", "1000", "--fs", "48000"], 3),
    ])
    def test_refusal_is_the_one_stderr_line(self, tmp_path, capsys, monkeypatch, argv, code):
        # the benchmark's refusals, each read as exactly one line of stderr
        (tmp_path / "nonint.json").write_text(json.dumps(
            {"constants": {"a_p": 0.03, "b_p": 1.0, "b_u": 6.5}}))
        monkeypatch.chdir(tmp_path)
        with warnings.catch_warnings():
            warnings.simplefilter("always")
            assert run(argv) == code
        [line] = capsys.readouterr().err.splitlines()
        assert list(json.loads(line)) == ["error"]

    def test_wav_warning_is_a_json_line(self, tmp_path, sos_file):
        # scipy's WavFileWarning once printed as two text lines, its source
        # line included, before the JSON error
        (tmp_path / "nodata.wav").write_bytes(NO_DATA_WAV)
        proc = run_process(["filter", "--sos", str(sos_file), "nodata.wav", "out.wav"], tmp_path)
        assert proc.returncode == 2
        lines = [json.loads(line) for line in proc.stderr.splitlines()]
        assert [list(line) for line in lines] == [["warning"], ["error"]]
        assert lines[0]["warning"]["type"] == "WavFileWarning"
        assert "not understood, skipping it" in lines[0]["warning"]["message"]

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
        # Q_erb / N = 1e-310: fn(b_u_max) is above it
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

    @pytest.mark.parametrize("argv, constants, call", [
        # S's step 4 * dense_step is below the spacing of floats at beta_peak
        (["analyze"], {"a_p": 1e-20, "b_p": 0.05, "b_u": 2},
         extract_numeric_p),
        # ... where the two 3 dB crossings also round to one float
        (["analyze"], {"a_p": 1e-24, "b_p": 1e6, "b_u": 0.03162277660168379},
         extract_numeric_p),
        # S resolves, but BW_3 = 0.1 is below the spacing of floats at 2**52
        (["analyze"], {"a_p": 64, "b_p": 2.0**52, "b_u": 1e6},
         extract_numeric_p),
        # S = (20/ln 10) b_u / a_p**2 underflows to 0
        (["analyze"], {"a_p": 1e160, "b_p": 1e161, "b_u": 2}, closed_form),
        # a_p**2 + b_p**2 overflows in the analog section
        (["discretize", "--peak-hz", "1000", "--fs", "48000"],
         {"a_p": 1e-300, "b_p": 1e155, "b_u": 1},
         lambda theta: to_sos(theta, 1000.0, 48000.0)),
        # b_u rounds to no section, or to more than to_sos builds
        (["discretize", "--peak-hz", "1000", "--fs", "48000"],
         {"a_p": 0.05, "b_p": 1, "b_u": 1e-13},
         lambda theta: to_sos(theta, 1000.0, 48000.0)),
        (["discretize", "--peak-hz", "1000", "--fs", "48000"],
         {"a_p": 1.0, "b_p": 3.7, "b_u": 1e60},
         lambda theta: to_sos(theta, 1000.0, 48000.0)),
        # the peak's step a_p / 200 underflows to 0
        (["analyze"], {"a_p": 5e-324, "b_p": 1, "b_u": 2}, extract_numeric_p),
        # S's steps round to nothing beside b_p (they once passed the largest
        # float in the grid's graded tails first)
        (["analyze"], {"a_p": 2.0689598579217e-244, "b_p": 2.8778115542256177e+201, "b_u": 2},
         extract_numeric_p),
        # the square of S's step underflows to 0
        (["analyze"], {"a_p": 7.013041613054649e-164, "b_p": 2610008.743437733, "b_u": 0.05},
         extract_numeric_p),
    ])
    def test_extreme_constants_exit_3_without_traceback(self, tmp_path, argv, constants, call):
        (tmp_path / "c.json").write_text(json.dumps(constants))
        env = dict(os.environ, PYTHONPATH=str(SRC))
        proc = subprocess.run(
            [sys.executable, "-m", "gefdesign.cli", *argv, "--constants", "c.json"],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 3, proc.stderr
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"]["type"] == "OutOfRange"
        with pytest.raises(GefError):
            call(FilterConstants.from_dict(constants))

    @pytest.mark.parametrize("phase", ["5e14", "1e306", "1e308"])
    def test_design_at_huge_exponents_exits_0_or_3(self, tmp_path, phase):
        # Gamma(b_u) / Gamma(b_u - 1/2) once read 14x too large at b_u = 1e15,
        # and overflowed in lgamma past about 1e305
        env = dict(os.environ, PYTHONPATH=str(SRC))
        proc = subprocess.run(
            [sys.executable, "-m", "gefdesign.cli", "design", "--peak-beta", "1", "--qerb", "10",
             "--phase-accum", phase],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
        )
        assert "Traceback" not in proc.stderr
        if proc.returncode == 0:
            b_u = 2.0 * float(phase)
            with mpmath.workdps(330):
                ratio = mpmath.gamma(mpmath.mpf(b_u)) / mpmath.gamma(mpmath.mpf(b_u) - 0.5)
            want = float(ratio / (mpmath.sqrt(mpmath.pi) * 10))
            assert json.loads(proc.stdout)["constants"]["a_p"] == pytest.approx(want, rel=1e-12)
        else:
            assert proc.returncode == 3
            lines = proc.stderr.splitlines()
            assert len(lines) == 1
            assert json.loads(lines[0])["error"]["type"] == "InfeasibleSpec"

    def test_discretize_refuses_more_sections_than_the_cap(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(biquad, "MAX_SECTIONS", 3)
        path = tmp_path / "c.json"
        argv = ["discretize", "--constants", str(path), "--peak-hz", "1000", "--fs", "48000"]
        path.write_text(json.dumps({"a_p": 0.05, "b_p": 1, "b_u": 3}))
        assert run(argv) == 0
        assert len(json.loads(capsys.readouterr().out)["sos"]) == 3
        path.write_text(json.dumps({"a_p": 0.05, "b_p": 1, "b_u": 4}))
        assert run(argv) == 3
        assert error_type(capsys) == "OutOfRange"

    @pytest.mark.parametrize("text", ["5", "[1, 2]", '"constants"', '{"constants": 5}'])
    def test_non_object_constants_exits_3(self, tmp_path, capsys, text):
        constants = tmp_path / "five.json"
        constants.write_text(text)
        assert run(["analyze", "--constants", str(constants)]) == 3
        assert error_type(capsys) == "InfeasibleSpec"

    @pytest.mark.parametrize("constants, error", [
        # a_p > b_p: the magnitude falls from beta = 0 on (the grid once
        # refused these constants, whose b_p sat below its floor of 1e-3)
        ({"a_p": 0.05, "b_p": 5e-4, "b_u": 6}, "NoInteriorPeak"),
    ])
    @pytest.mark.filterwarnings("error")
    def test_analyze_unextractable_constants_exits_3(self, tmp_path, capsys, constants, error):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(constants))
        assert run(["analyze", "--constants", str(path)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err)["error"]["type"] == error

    @pytest.mark.parametrize("constants", [
        # |P| passes the largest float at the peak
        {"a_p": 0.001, "b_p": 1, "b_u": 200},
        # ... with finite real and imaginary parts (about 1.63e308 - 7.7e307i)
        {"a_p": 0.01, "b_p": 1, "b_u": 181.4363},
    ])
    @pytest.mark.filterwarnings("error")
    def test_analyze_overflowing_magnitude_extracts(self, tmp_path, capsys, constants):
        # the oracle reads Re L, which stays finite where |P| overflows; the
        # full filter sits about (a_p / b_p)**2 from the sharp form's closed
        # forms, as elsewhere (measured 1.013 and 1.006 times it)
        path = tmp_path / "c.json"
        path.write_text(json.dumps(constants))
        assert run(["analyze", "--constants", str(path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        numeric, closed = doc["numeric"], doc["closed_form"]
        bound = 1.1 * (constants["a_p"] / constants["b_p"]) ** 2
        for key, want in closed.items():
            if key != "method":
                assert math.isfinite(numeric[key])
                assert abs(numeric[key] / want - 1.0) < bound, key

    @pytest.mark.filterwarnings("error")
    def test_analyze_sharp_low_exponent_extracts(self, tmp_path, capsys):
        # a_p / b_p = 1.3e-6, and a response that decays as beta**-1.77: the
        # ERB over [0, inf) falls short of the closed form, an integral over
        # the whole line, by 8.6e-6, near the sharp form's power below beta = 0
        # (1.0e-5); the grid's span, which cut the tails, left it 6.3e-5 short
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"a_p": 1.3859e-4, "b_p": 103.42, "b_u": 0.886}))
        assert run(["analyze", "--constants", str(path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        numeric, closed = doc["numeric"], doc["closed_form"]
        assert 8e-6 < 1.0 - numeric["erb_beta"] / closed["erb_beta"] < 9e-6
        for n in ("3", "10"):
            assert numeric[f"bw_{n}_beta"] == pytest.approx(closed[f"bw_{n}_beta"], rel=1e-10)

    @pytest.mark.filterwarnings("error")
    def test_analyze_underflowing_response_extracts(self, tmp_path, capsys):
        # |P| underflows to 0 on the whole extraction grid; its log does not.
        # The full filter with a_p / b_p = 0.1 sits within 2% of the sharp
        # closed forms
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"a_p": 1, "b_p": 10, "b_u": 1000}))
        assert run(["analyze", "--constants", str(path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        numeric, closed = doc["numeric"], doc["closed_form"]
        keys = [key for key, value in closed.items() if isinstance(value, float)]
        assert len(keys) == 10
        for key in keys:
            assert math.isfinite(numeric[key])
            assert numeric[key] == pytest.approx(closed[key], rel=2e-2), key

    def test_analyze_peak_where_floats_are_coarse(self, tmp_path, capsys):
        # floats near b_p = 1e7 are 1.9e-9 apart, coarser than a fixed peak
        # tolerance of 1e-10
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
        # a gain of 0 once read as a level of -inf at every frequency
        ('{"fs": 48000, "sos": [[1, 0, 0, 0, 0]], "gain": 0}', 3, "InfeasibleSpec"),
        ('{"fs": 48000, "sos": [[1, 0, 0, 0, 0]], "gain": NaN}', 3, "InfeasibleSpec"),
        # an f_peak_hz of nan was once kept, and written back as a bare NaN
        ('{"fs": 48000, "sos": [[1, 0, 0, 0, 0]], "f_peak_hz": NaN}', 3, "InfeasibleSpec"),
        ('{"fs": 48000, "sos": [[1, 0, 0, 0, 0]], "f_peak_hz": -1000}', 3, "InfeasibleSpec"),
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

        monkeypatch.setattr("gefdesign.harness.response_table", refuse)
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(read_json(constants_file)["spec"]))
        errors_path = tmp_path / "errors.csv"
        assert run(["evaluate", "--spec", str(spec_path), "--errors-out", str(errors_path)]) == 0
        assert errors_path.read_text().startswith("characteristic,desired,")

    def test_sharp_design_audits_exactly(self, tmp_path, capsys):
        # designs as a_p = 1e-5, b_u = 2, and the closed forms are exact on
        # p_sharp; a grid whose step jumps 1e5-fold at the window's edges gives
        # the Simpson ERB a 61% error here
        (tmp_path / "spec.json").write_text(json.dumps(
            {"row": "II.2", "beta_peak": 1, "q_erb": 63662, "n_cycles": 31831}))
        assert run(["evaluate", "--spec", str(tmp_path / "spec.json"), "--format", "json"]) == 0
        errors = json.loads(capsys.readouterr().out)["errors"]
        assert abs(errors["p_sharp"]["erb_beta"]) <= 1e-9
        assert max(abs(errors[target]["erb_beta"]) for target in errors) <= 1e-9

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

    def test_response_table_finite_where_h_underflows(self, tmp_path):
        # b_u = 200: |H| underflows to 0 over the grid's tail, where 20 log10|H|
        # read -inf; the table reads the log response instead
        spec = {"row": "II.1", "beta_peak": 1, "n_cycles": 300, "phi_accum": 100}
        (tmp_path / "spec.json").write_text(json.dumps(spec))
        rc = run(["evaluate", "--spec", str(tmp_path / "spec.json"),
                  "--errors-out", str(tmp_path / "errors.csv"),
                  "--response-out", str(tmp_path / "response.csv")])
        assert rc == 0
        lines = (tmp_path / "response.csv").read_text().splitlines()
        header = lines[0].split(",")
        table = dict(zip(header, np.array([line.split(",") for line in lines[1:]],
                                          dtype=float).T))
        assert all(np.all(np.isfinite(column)) for column in table.values())
        theta = design(CharacteristicSpec.from_dict(spec))
        level = level_db(theta, table["beta"])
        assert table["p_level_db"].min() < -1000.0
        np.testing.assert_allclose(table["p_level_db"], level - level.max(),
                                   rtol=1e-9, atol=1e-6)
        np.testing.assert_allclose(table["p_phase_rad"], phase_rad(theta, table["beta"]),
                                   rtol=1e-9, atol=1e-6)
        for target in ("p_sharp", "p", "v"):
            assert table[f"{target}_level_db"].max() == 0.0


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

    @pytest.mark.parametrize("samples", [
        [],
        [0.0, 1.0, -0.25, 3.5e-7],
        [-0.0, math.nan, math.inf, -math.inf, 5e-324, -1.7976931348623157e308, 1e-300],
        np.random.default_rng(3).standard_normal(500).tolist(),
    ])
    def test_signal_csv_is_savetxt_and_reads_back(self, tmp_path, samples):
        from gefdesign.cli import _write_signal
        from gefdesign.digital import read_signal_csv

        path, reference = tmp_path / "x.csv", tmp_path / "savetxt.csv"
        _write_signal(path, SignalBuffer(8000.0, np.array(samples, dtype=float)))
        np.savetxt(reference, np.array(samples, dtype=float), fmt="%.12e")
        assert path.read_bytes() == reference.read_bytes()
        if samples:
            loaded = read_signal_csv(path, 8000.0).samples
            assert np.allclose(loaded, samples, rtol=1e-12, atol=0.0, equal_nan=True)

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

    @pytest.mark.parametrize("a_p", [1e-12, 1e-8, 0.05])
    def test_the_document_reads_back_bit_for_bit(self, tmp_path, a_p):
        # at 12 digits, a_p = 1e-12 read back as an unstable section, and
        # 1e-8 as a cascade whose Q_10 was 9e-6 off
        theta = FilterConstants(a_p, 1.0, 2.0)
        constants = tmp_path / "c.json"
        constants.write_text(json.dumps(theta.as_dict()))
        out = tmp_path / "sos.json"
        assert run(["discretize", "--constants", str(constants), "--peak-hz", "100",
                    "--fs", "48000", "--out", str(out)]) == 0
        assert DigitalFilter.from_dict(read_json(out)) == to_sos(theta, 100.0, 48000.0)
        assert run(["response", "--sos", str(out), "--fmin", "50", "--fmax", "150",
                    "--points", "3", "--out", str(tmp_path / "r.csv")]) == 0

    @pytest.mark.parametrize("peak_hz, fs", [("1000", "48000"), ("1e-300", "1")])
    def test_poles_rounded_onto_the_circle_exit_3(self, tmp_path, capsys, peak_hz, fs):
        constants = tmp_path / "c.json"
        constants.write_text(json.dumps({"a_p": 1e-17, "b_p": 1.0, "b_u": 2.0}))
        rc = run(["discretize", "--constants", str(constants), "--peak-hz", peak_hz, "--fs", fs])
        assert rc == 3
        assert error_type(capsys) == "OutOfRange"

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

    @pytest.mark.filterwarnings("error")
    def test_fft_route_non_finite_response_exits_3(self, tmp_path, capsys):
        # |P| near the peak is about 0.002**-200, which overflows
        constants = tmp_path / "c.json"
        constants.write_text(json.dumps({"a_p": 0.001, "b_p": 1, "b_u": 200}))
        infile = tmp_path / "in.wav"
        write_wav(infile, SignalBuffer(48000.0, np.ones(48000)))
        capsys.readouterr()
        rc = run(["filter", "--fft", "--constants", str(constants), "--peak-hz", "1000",
                  str(infile), str(tmp_path / "out.wav")])
        assert rc == 3
        assert error_type(capsys) == "OutOfRange"
        assert not (tmp_path / "out.wav").exists()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("sos, out", [
        (OVERFLOWING_SOS, "out.wav"),
        (OVERFLOWING_SOS, "out.csv"),
        ([[1e300, 0.0, 0.0, -1.5, 0.7]], "out.wav"),  # finite, but past float32
    ])
    def test_sos_route_unwritable_output_exits_3(self, tmp_path, capsys, sos, out):
        sos_path = tmp_path / "f.json"
        sos_path.write_text(json.dumps({"sos": sos, "fs": 48000}))
        infile = tmp_path / "in.wav"
        write_wav(infile, SignalBuffer(48000.0, np.random.default_rng(1).standard_normal(4800)))
        capsys.readouterr()
        rc = run(["filter", "--sos", str(sos_path), str(infile), str(tmp_path / out)])
        assert rc == 3
        captured = capsys.readouterr()
        assert json.loads(captured.err)["error"]["type"] == "OutOfRange"
        assert not (tmp_path / out).exists()

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

    @pytest.mark.filterwarnings("error")
    def test_non_finite_response_exits_3(self, tmp_path, capsys):
        constants = tmp_path / "c.json"
        constants.write_text(json.dumps({"a_p": 0.001, "b_p": 1, "b_u": 200}))
        rc = run(["response", "--constants", str(constants), "--peak-hz", "1000",
                  "--fmin", "900", "--fmax", "1100", "--points", "5"])
        assert rc == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err)["error"]["type"] == "OutOfRange"

    @pytest.mark.filterwarnings("error")
    def test_overflowing_cascade_exits_3(self, tmp_path, capsys):
        sos_path = tmp_path / "f.json"
        sos_path.write_text(json.dumps({"sos": OVERFLOWING_SOS, "fs": 48000}))
        rc = run(["response", "--sos", str(sos_path), "--fmin", "0", "--fmax", "24000",
                  "--points", "5"])
        assert rc == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err)["error"]["type"] == "OutOfRange"

    @pytest.mark.filterwarnings("error")
    def test_zero_at_nyquist_is_minus_inf_without_warning(self, sos_file, capsys):
        # the bilinear cascade has its double zero at fs / 2, and only there
        rc = run(["response", "--sos", str(sos_file), "--fmin", "0", "--fmax", "24000",
                  "--points", "9"])
        assert rc == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        rows = [[float(cell) for cell in line.split(",")] for line in captured.out.splitlines()[1:]]
        assert [row[3] == -math.inf for row in rows] == [False] * 8 + [True]
        assert rows[-1][:3] == [24000.0, 0.0, 0.0]
        # Im L of the six sections' logs: continuous below fs / 2, where a dense
        # unwrap of the section product reads the same (-18.627 rad at 3 kHz,
        # -18.842 at 21 kHz, towards -6 pi), then a step to the log of the
        # exact zero at fs / 2, whose angle is 0
        assert rows[1][4] == pytest.approx(-18.62745771761, abs=1e-10)
        assert rows[-2][4] == pytest.approx(-18.84172234817, abs=1e-10)
        assert rows[-1][4] == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.filterwarnings("error")
    def test_underflow_reads_finite_levels_without_warning(self, tmp_path, capsys):
        constants = tmp_path / "u.json"
        constants.write_text(json.dumps({"a_p": 0.1, "b_p": 1, "b_u": 200}))
        rc = run(["response", "--constants", str(constants), "--peak-hz", "1000",
                  "--fmin", "50", "--fmax", "12000", "--points", "5"])
        assert rc == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        rows = np.array([line.split(",") for line in captured.out.splitlines()[1:]], dtype=float)
        # |H| underflows to 0 at 9 and 12 kHz; the level is DB_PER_LOG Re L there
        assert rows[3:, 1:3].tolist() == [[0.0, 0.0], [0.0, 0.0]]
        np.testing.assert_allclose(
            rows[:, 3], [-13.06578556296, -3663.463038891, -6191.649483507,
                         -7617.464207677, -8621.467325382], rtol=1e-11)
        # and the phase is Im L (-623.8 and -625.0 rad there, not a wrapped -2 pi)
        np.testing.assert_allclose(
            rows[:, 4], phase_rad(FilterConstants(0.1, 1.0, 200.0), rows[:, 0] / 1000.0),
            rtol=0.0, atol=1e-9)
        assert rows[3, 4] == pytest.approx(-623.8, abs=0.05)

    @pytest.mark.filterwarnings("error")
    def test_level_finite_where_the_squared_pole_distance_overflows(self, tmp_path, capsys):
        # beta = f / 1e-160 is past 1e154, where (beta -+ b_p)**2 overflows
        constants = tmp_path / "c1.json"
        constants.write_text(json.dumps({"a_p": 0.01887032608836575, "b_p": 1.0, "b_u": 5.5}))
        rc = run(["response", "--constants", str(constants), "--peak-hz", "1e-160",
                  "--fmin", "50", "--fmax", "100", "--points", "2"])
        assert rc == 0
        rows = np.array([line.split(",") for line in capsys.readouterr().out.splitlines()[1:]],
                        dtype=float)
        # |P| is beta**(-2 b_u) there, to the last digit printed
        np.testing.assert_allclose(rows[:, 3], -220.0 * np.log10([5e161, 1e162]), rtol=1e-12)

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


def section_product(filt, f_hz):
    """The cascade's response as the product of its section ratios, in floats,
    except where a section's quadratic loses over three digits to
    cancellation there (within about 1% of fs/2 for to_sos's double zero at
    -1, where the float product errs by up to some 4e-9): there it is taken
    in mpmath at 40 digits, from the exact angle of f, so it is exactly 0 at
    a zero on the circle."""
    f_hz = np.asarray(f_hz, dtype=float)
    z_inv = np.exp(-2j * math.pi * f_hz / filt.sample_rate)
    out = np.full(z_inv.shape, filt.gain, dtype=complex)
    digits_lost = np.zeros(z_inv.shape)
    for b0, b1, b2, a1, a2 in filt.sections:
        for b in ((b0, b1, b2), (1.0, a1, a2)):
            value = b[0] + b[1] * z_inv + b[2] * z_inv**2
            # (nan for b = 0, whose float product is exactly 0)
            with np.errstate(divide="ignore", invalid="ignore"):
                digits_lost = np.fmax(digits_lost, np.log10(sum(map(abs, b)) / np.abs(value)))
        out = out * (b0 + b1 * z_inv + b2 * z_inv**2)
        out = out / (1.0 + a1 * z_inv + a2 * z_inv**2)
    with mpmath.workdps(40):
        for i in np.flatnonzero(digits_lost > 3.0):
            z = mpmath.expjpi(-2 * mpmath.mpf(f_hz[i]) / filt.sample_rate)
            h = mpmath.mpf(filt.gain)
            for b0, b1, b2, a1, a2 in filt.sections:
                h *= (b0 + b1 * z + b2 * z * z) / (1 + a1 * z + a2 * z * z)
            out[i] = complex(h)
    return out


def outside_root_section(lead, r_out, r_in, radius, angle):
    """lead (1 - r_out/z)(1 - r_in/z) over a stable pole pair at radius and angle."""
    return (lead, -lead * (r_out + r_in), lead * r_out * r_in,
            -2.0 * radius * math.cos(angle), radius * radius)


# the sources of a response table: constants whose phase turns by up to
# b_u / a_p = 300 rad per unit beta, to_sos cascades, and numerators with one
# real root outside the unit circle; 64 times the table's points (33 or more)
# resolve every phase of them to well under pi a step
RESPONSE_SOURCE = st.one_of(
    st.builds(FilterConstants, st.floats(0.05, 0.5), st.just(1.0), st.floats(0.5, 15.0)),
    st.builds(lambda a_p, b_u, f_peak: to_sos(FilterConstants(a_p, 1.0, b_u), f_peak, 48000.0),
              st.floats(0.05, 0.3), st.integers(1, 4), st.floats(1000.0, 8000.0)),
    st.builds(lambda sections: DigitalFilter(48000.0, sections), st.lists(st.builds(
        outside_root_section,
        st.one_of(st.floats(0.1, 10.0), st.floats(-10.0, -0.1)),
        st.one_of(st.floats(1.25, 4.0), st.floats(-4.0, -1.25)),
        st.floats(-0.8, 0.8), st.floats(0.0, 0.9), st.floats(0.0, math.pi),
    ), min_size=1, max_size=2)),
)


class TestResponseTableProperties:
    """The `response` table is the log response: its phase is what a dense
    unwrap reads, its level DB_PER_LOG Re L, and -inf only at an exact zero."""

    @pytest.fixture(scope="class")
    def workdir(self, tmp_path_factory):
        return tmp_path_factory.mktemp("response")

    @staticmethod
    def _table(workdir, source, top, points):
        """A grid from 0 Hz 64 times denser than the table's (its points at
        every 64th), the reference response on it, and the table's columns."""
        path = workdir / "source.json"
        if isinstance(source, FilterConstants):
            fmax = 4000.0 * top
            path.write_text(json.dumps({"a_p": source.a_p, "b_p": 1.0, "b_u": source.b_u}))
            argv = ["--constants", str(path), "--peak-hz", "1000"]
            reference = lambda f: np.asarray(eval_gef(source, f / 1000.0))
        else:
            fmax = 24000.0 * top
            path.write_text(json.dumps(source.as_dict()))
            argv = ["--sos", str(path)]
            reference = partial(section_product, source)
        code, out, errors = run_captured(["response", *argv, "--fmin", "0", "--fmax", repr(fmax),
                                          "--points", str(points)])
        assert (code, errors) == (0, [])
        columns = np.array([line.split(",") for line in out.splitlines()[1:]], dtype=float).T
        freqs = np.linspace(0.0, fmax, points)
        dense = np.linspace(0.0, fmax, 64 * (points - 1) + 1)
        dense[::64] = freqs
        return dense, reference(dense), columns

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(source=RESPONSE_SOURCE, top=st.one_of(st.just(1.0), st.floats(0.125, 1.0)),
           points=st.integers(33, 65))
    @example(source=DigitalFilter(48000.0, [(0.0, 0.0, 0.0, -0.5, 0.25)]), top=1.0, points=33)
    def test_table_is_the_log_response(self, workdir, source, top, points):
        dense, values_dense, (f_hz, re, im, level, phase) = self._table(workdir, source, top,
                                                                        points)
        freqs, values = dense[::64], values_dense[::64]
        assert f_hz.tolist() == round12(freqs.tolist())
        # -inf only at an exact zero of the response on the circle
        zero = values == 0.0
        assert np.array_equal(level == -math.inf, zero)
        if isinstance(source, FilterConstants):
            assert not np.any(zero)
            log_re = log_response(source, freqs / 1000.0, ("p",))["p"].re
            assert level.tolist() == round12((DB_PER_LOG * log_re).tolist())
        else:
            np.testing.assert_allclose(level[~zero], DB_PER_LOG * np.log(np.abs(values[~zero])),
                                       rtol=1e-10, atol=1e-9)
            # digital_response, exp of the same cascade log, is the section product,
            # also where the float product cancels
            nonzero = values_dense != 0.0
            np.testing.assert_allclose(np.asarray(digital_response(source, dense))[nonzero],
                                       values_dense[nonzero], rtol=1e-12, atol=0.0)
        # the phase continues from 0 Hz as the dense unwrap does, up to whole turns
        unwrapped = np.unwrap(np.angle(values_dense))[::64]
        unwrapped += 2.0 * math.pi * round((phase[0] - unwrapped[0]) / (2.0 * math.pi))
        np.testing.assert_allclose(phase[~zero], unwrapped[~zero], rtol=0.0, atol=1e-9)
        scale = np.max(np.abs(values))
        np.testing.assert_allclose(re + 1j * im, values, rtol=1e-9, atol=1e-12 * scale)


class TestTablesGolden:
    @pytest.fixture
    def inputs(self, tmp_path, monkeypatch):
        for name, doc in TABLES_GOLDEN["inputs"].items():
            (tmp_path / name).write_text(doc if isinstance(doc, str) else json.dumps(doc))
        monkeypatch.chdir(tmp_path)
        return tmp_path

    @staticmethod
    def _outputs(argv, names):
        """stdout (as "-") and the named output files of one successful call."""
        code, out, errors = run_captured(argv)
        assert (code, errors) == (0, [])
        return {"-": out, **{name: Path(name).read_text() for name in names if name != "-"}}

    @pytest.mark.parametrize("case", TABLES_GOLDEN["text"],
                             ids=[case["id"] for case in TABLES_GOLDEN["text"]])
    def test_tables_byte_identical(self, inputs, case):
        outputs = self._outputs(case["argv"], [*case["text"], *case["sha256"]])
        for name, text in case["text"].items():
            assert outputs[name] == text, name
        for name, digest in case["sha256"].items():
            assert sha256(outputs[name]) == digest, name

    @pytest.mark.parametrize("case", TABLES_GOLDEN["json"],
                             ids=[case["id"] for case in TABLES_GOLDEN["json"]])
    def test_json_documents_at_12_digits(self, inputs, case):
        outputs = self._outputs(case["argv"], [*case["values"], *case["rounded_sha256"]])
        for name, values in case["values"].items():
            assert json.loads(outputs[name]) == round12(values), name
            # indented, keys sorted, newline-terminated, like every JSON output
            assert outputs[name] == json.dumps(round12(values), indent=2, sort_keys=True) + "\n"
        for name, digest in case["rounded_sha256"].items():
            doc = json.loads(outputs[name])
            assert round12(doc) == doc, name
            assert sha256(json.dumps(doc, sort_keys=True)) == digest, name
            assert outputs[name] == json.dumps(doc, indent=2, sort_keys=True) + "\n"


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


# CLI calls that must run without numpy: (flags after `design --peak-beta 1`,
# exit code)
NUMPY_FREE_DESIGNS = {
    "II.1": (["--gdelay-cycles", N_SHARP6_TEXT, "--phase-accum", "3"], 0),
    "II.2": (["--gdelay-cycles", "19.1", "--qerb", "25.9"], 0),
    # Q_erb / N = 2.05: the power-law seed brackets no root, so this searches
    # for the residual's maximum
    "II.2-scan": (["--gdelay-cycles", "10", "--qerb", "20.5"], 0),
    "II.3": (["--qerb", "25.9", "--phase-accum", "3"], 0),
    "II.4": (["--qn", "10:14.620769527557067", "--phase-accum", "3"], 0),
    "II.5": (["--gdelay-cycles", N_SHARP6_TEXT, "--convexity", "20846.3"], 0),
    "II.6": (["--convexity", "20846.3", "--phase-accum", "3"], 0),
    # II.7 has no seed for its exponent and always searches for the maximum
    "II.7": (["--gdelay-cycles", N_SHARP6_TEXT, "--qn", "10:14.620769527557067"], 0),
    "integer-snap": (["--gdelay-cycles", "19", "--qerb", "25", "--integer-snap"], 0),
    "approx": (["--gdelay-cycles", "19.1", "--qerb", "25.9", "--mode", "approx"], 0),
    "refused": (["--gdelay-cycles", "10", "--qerb", "30"], 3),
    "usage-error": (["--gdelay-cycles", "10", "--qn", "ten"], 2),
}


# modules a cold call on the standard-library path does not load: numpy, and
# the introspection modules behind the standard library's generated classes
STDLIB_PATH_UNUSED = {"numpy", "dataclasses", "inspect"}


class TestImportPath:
    """Only `filter` needs scipy, for its compiled cascade loop and its WAV
    module alone, each loaded from its file; `design`, `discretize`, `bank`,
    `response`, `--version` and usage errors need neither numpy nor scipy, nor
    `dataclasses` and `inspect`; `design` and usage errors load
    neither the bank layout nor the biquad discretization.  Where scipy is
    installed, Brent's method runs its compiled loop, loaded on the first
    solve without the scipy package."""

    def _python(self, code, cwd):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        return subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env,
                              capture_output=True, text=True, timeout=120)

    def _run_module(self, argv, cwd):
        """`python -m gefdesign.cli *argv` in a fresh interpreter: its exit
        code and the names of the modules it loaded."""
        proc = self._python(
            "import json, runpy, sys\n"
            f"sys.argv = ['gefdesign', *{argv!r}]\n"
            "try:\n"
            "    runpy.run_module('gefdesign.cli', run_name='__main__', alter_sys=True)\n"
            "except SystemExit as exc:\n"
            "    code = exc.code\n"
            "print(json.dumps([code, sorted(sys.modules)]))",
            cwd,
        )
        assert proc.returncode == 0, proc.stderr
        code, modules = json.loads(proc.stdout.splitlines()[-1])
        return code, set(modules)

    def test_package_import_loads_no_numpy(self, tmp_path):
        proc = self._python("import sys, gefdesign\nprint('numpy' in sys.modules)", tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_version_loads_no_numpy(self, tmp_path):
        code, modules = self._run_module(["--version"], tmp_path)
        assert code == 0
        assert not STDLIB_PATH_UNUSED & modules

    @pytest.mark.parametrize("case", NUMPY_FREE_DESIGNS)
    def test_design_loads_no_numpy(self, tmp_path, case):
        flags, want = NUMPY_FREE_DESIGNS[case]
        code, modules = self._run_module(["design", "--peak-beta", "1", *flags], tmp_path)
        assert code == want
        assert not (STDLIB_PATH_UNUSED | {"gefdesign.bank", "gefdesign.biquad"}) & modules

    @pytest.mark.parametrize("argv", [
        ["nosuch"],
        ["design", "--peak-beta", "1"],
        ["discretize", "--constants", "c.json"],
        ["bank", "--peak-beta", "1", "--gdelay-cycles", "19.1", "--qerb", "25.9",
         "--cf0", "8000", "--l", "1.5", "--channels", "0", "--x-max", "3.3"],
    ], ids=["command", "design", "discretize", "bank"])
    def test_usage_errors_load_only_the_parser_and_design(self, tmp_path, argv):
        code, modules = self._run_module(argv, tmp_path)
        assert code == 2
        assert not (STDLIB_PATH_UNUSED | {"gefdesign.bank", "gefdesign.biquad"}) & modules

    @pytest.mark.parametrize("argv, want", [
        (["discretize", "--constants", "c.json", "--peak-hz", "1000", "--fs", "48000"], 0),
        (["discretize", "--constants", "c55.json", "--peak-hz", "1000", "--fs", "48000"], 3),
        (["bank", "--peak-beta", "1", "--gdelay-cycles", "19.1", "--qerb", "25.9",
          "--cf0", "8000", "--l", "1.5", "--channels", "7", "--x-max", "3.3"], 0),
    ], ids=["discretize", "discretize-non-integer", "bank"])
    def test_discretize_and_bank_load_no_numpy(self, tmp_path, argv, want):
        (tmp_path / "c.json").write_text(json.dumps({"a_p": 0.05, "b_p": 1, "b_u": 6}))
        (tmp_path / "c55.json").write_text(json.dumps({"a_p": 0.05, "b_p": 1, "b_u": 5.5}))
        code, modules = self._run_module(argv, tmp_path)
        assert code == want
        assert not STDLIB_PATH_UNUSED & modules

    # the audit reads its probes on math: numpy, the array evaluation in core
    # and the sampled grid stay unloaded
    AUDIT_UNUSED = {"numpy", "gefdesign.core", "gefdesign.grid"}

    @pytest.mark.parametrize("argv", [
        ["analyze", "--constants", "c.json"],
        ["analyze", "--spec", "spec.json", "--format", "csv"],
        ["evaluate", "--spec", "spec.json"],
        ["evaluate", "--spec", "spec.json", "--format", "json", "--errors-out", "e.json"],
        ["sweep", "--qerb", "20,25", "--n", "15,19"],
    ], ids=["analyze-constants", "analyze-spec", "evaluate", "evaluate-json", "sweep"])
    def test_audit_loads_no_numpy(self, tmp_path, argv):
        (tmp_path / "c.json").write_text(json.dumps({"a_p": 0.05, "b_p": 1, "b_u": 6}))
        (tmp_path / "spec.json").write_text(json.dumps(
            {"row": "II.2", "beta_peak": 1, "q_erb": 25.9, "n_cycles": 19.1}))
        code, modules = self._run_module(argv, tmp_path)
        assert code == 0
        assert not (STDLIB_PATH_UNUSED | self.AUDIT_UNUSED) & modules
        assert {"gefdesign.characteristics", "gefdesign.probe"} <= modules

    @pytest.mark.parametrize("argv", [
        ["response", "--sos", "sos.json", "--fmin", "0", "--fmax", "24000", "--points", "2001",
         "--out", "r.csv"],
        ["response", "--constants", "c.json", "--peak-hz", "1000", "--fmin", "50",
         "--fmax", "12000", "--points", "2001", "--out", "r.csv"],
    ], ids=["response-sos", "response-constants"])
    def test_response_loads_no_numpy(self, tmp_path, argv):
        # the cascade's log on cmath, the probes on math: numpy, core, the
        # signal module and the sampled grid stay unloaded
        (tmp_path / "c.json").write_text(json.dumps({"a_p": 0.05, "b_p": 1, "b_u": 6}))
        assert run(["discretize", "--constants", str(tmp_path / "c.json"), "--peak-hz", "1000",
                    "--fs", "48000", "--out", str(tmp_path / "sos.json")]) == 0
        code, modules = self._run_module(argv, tmp_path)
        assert code == 0
        assert not (STDLIB_PATH_UNUSED | self.AUDIT_UNUSED | {"gefdesign.digital"}) & modules
        lines = (tmp_path / "r.csv").read_text().splitlines()
        assert lines[0] == "f_hz,re,im,level_db,phase_rad" and len(lines) == 2002

    def test_evaluate_response_out_loads_the_grid(self, tmp_path):
        (tmp_path / "spec.json").write_text(json.dumps(
            {"row": "II.2", "beta_peak": 1, "q_erb": 25.9, "n_cycles": 19.1}))
        code, modules = self._run_module(["evaluate", "--spec", "spec.json", "--response-out",
                                          "r.csv", "--errors-out", "e.csv"], tmp_path)
        assert code == 0
        assert self.AUDIT_UNUSED <= modules
        lines = (tmp_path / "r.csv").read_text().splitlines()
        assert lines[0] == ("beta,p_sharp_level_db,p_sharp_phase_rad,p_level_db,p_phase_rad,"
                            "v_level_db,v_phase_rad")
        assert len(lines) > 1000 and (tmp_path / "e.csv").read_text().startswith("characteristic,")

    def test_design_loads_what_the_parser_loads(self, tmp_path):
        # beyond `--version`'s modules (the CLI itself runs as __main__), a
        # design loads at most Brent's extension
        _, parser = self._run_module(["--version"], tmp_path)
        assert {name for name in parser if name.startswith("gefdesign")} == {
            "gefdesign", "gefdesign.design", "gefdesign.errors", "gefdesign.scalar"}
        for case, extra in (("II.1", set()), ("II.2", {"scipy.optimize._zeros"})):
            code, modules = self._run_module(
                ["design", "--peak-beta", "1", *NUMPY_FREE_DESIGNS[case][0]], tmp_path)
            assert code == 0
            assert modules - parser == extra, case

    def test_stdlib_names_load_no_numpy(self, tmp_path):
        proc = self._python(
            "import sys, gefdesign\n"
            "for name in ('to_sos', 'DigitalFilter', 'CfMap', 'build_constant_q_bank',\n"
            "             'peak_beta'):\n"
            "    getattr(gefdesign, name)\n"
            "print('numpy' in sys.modules)",
            tmp_path,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    @pytest.mark.parametrize("argv, unused", [
        (["response", "--sos", "sos.json", "--fmin", "50", "--fmax", "12000", "--points", "9"],
         {"gefdesign.harness", "gefdesign.characteristics"}),
        (["response", "--constants", "c.json", "--peak-hz", "1000", "--fmin", "50",
          "--fmax", "12000", "--points", "9"],
         {"gefdesign.harness", "gefdesign.characteristics"}),
        (["analyze", "--constants", "c.json", "--format", "csv"],
         {"gefdesign.harness", "dataclasses"}),
    ], ids=["response-sos", "response-constants", "analyze-csv"])
    def test_tables_load_no_audit_code(self, tmp_path, argv, unused):
        (tmp_path / "c.json").write_text(json.dumps({"a_p": 0.05, "b_p": 1, "b_u": 6}))
        assert run(["discretize", "--constants", str(tmp_path / "c.json"), "--peak-hz", "1000",
                    "--fs", "48000", "--out", str(tmp_path / "sos.json")]) == 0
        code, modules = self._run_module(argv, tmp_path)
        assert code == 0
        assert not unused & modules

    def test_star_import_and_dir_list_all(self):
        import gefdesign

        namespace = {}
        exec("from gefdesign import *", namespace)
        assert set(gefdesign.__all__) <= set(namespace)
        assert set(gefdesign.__all__) <= set(dir(gefdesign))
        assert namespace["design"] is sys.modules["gefdesign.design"].design
        with pytest.raises(AttributeError):
            gefdesign.no_such_name

    def test_cli_import_loads_no_scipy(self, tmp_path):
        proc = self._python(
            "import sys, gefdesign.cli\n"
            "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])",
            tmp_path,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_brent_runs_scipys_compiled_loop(self):
        from scipy.optimize import _zeros

        from gefdesign import scalar

        assert scalar._brent_loop() is _zeros._brentq

    def test_no_extension_without_scipy_or_its_file(self, monkeypatch):
        import importlib

        from gefdesign import scalar

        # without its file, the module is imported the usual way
        module, names = object(), []
        with monkeypatch.context() as patch:
            patch.setattr(importlib, "import_module", lambda name: names.append(name) or module)
            assert scalar._scipy_extension("optimize", "_no_such_module") is module
        assert names == ["scipy.optimize._no_such_module"]
        # without scipy, ImportError, also from Brent's method
        monkeypatch.delitem(sys.modules, "scipy.optimize._zeros", raising=False)
        monkeypatch.setitem(sys.modules, "scipy", None)
        with pytest.raises(ImportError):
            scalar._scipy_extension("optimize", "_zeros")
        scalar._brent_loop.cache_clear()
        try:
            with pytest.raises(ImportError):
                scalar._brentq(lambda x: x - 0.5, 0.0, 1.0)
        finally:
            scalar._brent_loop.cache_clear()

    def test_implicit_design_loads_only_the_brent_extension(self, tmp_path):
        code, modules = self._run_module(["design", "--peak-beta", "1", "--gdelay-cycles",
                                          "19.1", "--qerb", "25.9"], tmp_path)
        assert code == 0
        assert "scipy.optimize._zeros" in modules
        assert not {"numpy", "scipy", "scipy.optimize"} & modules

    def test_closed_form_design_loads_nothing_new(self, tmp_path):
        proc = self._python(
            "import sys\n"
            "from gefdesign.design import CharacteristicSpec, DesignRow, design\n"
            "before = set(sys.modules)\n"
            "design(CharacteristicSpec(DesignRow('II.1'), 1.0,\n"
            f"                          {{'n_cycles': {N_SHARP6_TEXT}, 'phi_accum': 3.0}}))\n"
            "print(sorted(set(sys.modules) - before))",
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
        loaded = json.loads(proc.stdout)  # the packages, not the modules loaded from their files
        assert "scipy.signal" not in loaded and "scipy.io" not in loaded
        assert "scipy.io.wavfile" in loaded
        expected = apply_sos(DigitalFilter.from_dict(read_json(tmp_path / "sos.json")),
                             read_wav(tmp_path / "in.wav"))
        written = read_wav(tmp_path / "out.wav").samples
        assert np.array_equal(written, expected.samples.astype(np.float32))

    def test_without_scipy_root_solves_and_the_cascade_are_io_errors(self, tmp_path):
        spec = {"row": "II.2", "beta_peak": 1.0, "n_cycles": 19.1, "q_erb": 25.9}
        (tmp_path / "spec.json").write_text(json.dumps(spec))
        rng = np.random.default_rng(5)
        write_wav(tmp_path / "in.wav", SignalBuffer(48000.0, rng.standard_normal(4800)))
        np.savetxt(tmp_path / "in.csv", rng.standard_normal(4800), fmt="%.12e")
        runs = [
            ["design", "--peak-beta", "1", "--gdelay-cycles", N_SHARP6_TEXT,
             "--phase-accum", "3", "--out", "c.json"],
            ["discretize", "--constants", "c.json", "--peak-hz", "1000", "--fs", "48000",
             "--out", "sos.json"],
            ["response", "--sos", "sos.json", "--fmin", "500", "--fmax", "1500", "--points", "11"],
            ["bank", "--peak-beta", "1", "--gdelay-cycles", N_SHARP6_TEXT, "--phase-accum", "3",
             "--cf0", "20000", "--l", "1", "--channels", "4", "--x-max", "3"],
            ["filter", "--fft", "--constants", "c.json", "--peak-hz", "1000", "--rate", "48000",
             "in.csv", "out.csv"],
        ]
        # Brent's method and the biquad cascade run in scipy's compiled loops
        # alone, and WAV files are read and written by scipy.io.wavfile
        refused = [
            ["design", "--peak-beta", "1", "--gdelay-cycles", "19.1", "--qerb", "25.9"],
            ["analyze", "--constants", "c.json"],
            ["evaluate", "--spec", "spec.json"],
            ["sweep", "--qerb", "20,30", "--n", "16"],
            ["filter", "--sos", "sos.json", "in.wav", "sos.wav"],
            ["filter", "--fft", "--constants", "c.json", "--peak-hz", "1000", "in.wav",
             "out.wav"],
        ]
        proc = self._python(
            "import contextlib, io, json, sys\n"
            "sys.modules['scipy'] = None\n"
            "from gefdesign.cli import run\n"
            "results = []\n"
            f"for argv in {runs + refused!r}:\n"
            "    err = io.StringIO()\n"
            "    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):\n"
            "        results.append([run(argv), err.getvalue()])\n"
            "print(json.dumps(results))",
            tmp_path,
        )
        assert proc.returncode == 0, proc.stderr
        results = json.loads(proc.stdout)
        assert [code for code, _ in results] == [0] * len(runs) + [4] * len(refused), results
        for _, stderr in results[len(runs):]:
            error = json.loads(stderr)["error"]  # one JSON object, no traceback
            assert error["type"] == "ModuleNotFoundError" and "scipy" in error["message"]
        assert (tmp_path / "out.csv").exists()
        assert not (tmp_path / "sos.wav").exists() and not (tmp_path / "out.wav").exists()


LOG_UNIFORM = st.floats(-6.0, 6.0).map(lambda exponent: 10.0 ** exponent)
EXTREME = st.sampled_from(["nan", "inf", "-inf", "0", "-0", "-1", "1e-300", "1e300"])
AXIS_VALUE = st.one_of(
    EXTREME,
    st.floats(5.0, 60.0).map(repr),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
)
AXIS = st.lists(AXIS_VALUE, min_size=1, max_size=2).map(",".join)
# a constant in a constants file: log-uniform over [1e-300, 1e300], or subnormal
CONSTANT = st.one_of(
    st.floats(-300.0, 300.0).map(lambda exponent: 10.0 ** exponent),
    st.sampled_from([5e-324, 1e-320, 1e-310]),
)
# a constants file's optional gain: absent, typical, or at the edges of a float
GAIN = st.one_of(st.none(), LOG_UNIFORM, st.sampled_from([1e-300, 1e300, 0.0, -1.0]))


# flag values: in the designable range half the time, else extremes
TRIO_VALUE = st.one_of(
    st.floats(0.5, 60.0).map(repr),
    LOG_UNIFORM.map(repr),
    EXTREME,
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
)
# characteristic flags beside the peak: the pair of a design row half the
# time, else any 0 to 3 of them; --qn takes a dB level as well
ROW_FLAGS = [
    ("--gdelay-cycles", "--phase-accum"), ("--gdelay-cycles", "--qerb"),
    ("--qerb", "--phase-accum"), ("--qn", "--phase-accum"), ("--gdelay-cycles", "--convexity"),
    ("--convexity", "--phase-accum"), ("--gdelay-cycles", "--qn"),
]
TRIO_FLAG = st.sampled_from(["--gdelay-cycles", "--phase-accum", "--qerb", "--convexity", "--qn"])
TRIO_FLAGS = st.one_of(
    st.sampled_from(ROW_FLAGS).flatmap(
        lambda pair: st.fixed_dictionaries({flag: TRIO_VALUE for flag in pair})
    ),
    st.dictionaries(TRIO_FLAG, TRIO_VALUE, max_size=3),
)
PEAK_FLAGS = st.sampled_from([["--peak-beta"], ["--peak-hz"], [], ["--peak-beta", "--peak-hz"]])


# response flags: typical values, edges of a float, and points up to a few
# thousand (never a count that allocates much)
BAND_VALUE = st.one_of(st.floats(0.0, 30000.0).map(repr), EXTREME,
                       st.floats(allow_nan=True, allow_infinity=True).map(repr))
POINTS_VALUE = st.one_of(st.integers(-3, 3000), st.sampled_from([-1, 0, 1, 2]),
                         st.sampled_from(["nan", "inf", "2.5", "1e3", "ten", ""]))
COEFFICIENT = st.one_of(
    st.floats(-2.0, 2.0),
    st.sampled_from([0.0, 1e308, -1e308, 1e-308, math.nan, math.inf]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(["1", None, [], {}]),
)


def stable_sections(numerator):
    """Sections with their poles at radius r < 1 and angle t."""
    return st.builds(
        lambda b, r, t: [*b, -2.0 * r * math.cos(t), r * r],
        st.lists(numerator, min_size=3, max_size=3), st.floats(0.0, 0.999), st.floats(0.0, math.pi),
    )


STABLE_SECTION = stable_sections(st.floats(-10.0, 10.0))
SECTION = st.one_of(stable_sections(st.one_of(st.floats(-10.0, 10.0),
                                              st.sampled_from([1e308, -1e308, 1e200]))),
                    st.lists(COEFFICIENT, min_size=5, max_size=5),
                    st.lists(COEFFICIENT, max_size=7), COEFFICIENT)
FILTER_FIELD = st.one_of(st.sampled_from([48000, 48000.0, 8000, 0, -1, 1e308, math.nan, "48000"]),
                         COEFFICIENT)
# filter files: stable sections of moderate coefficients at the rate of the
# test clip, sections that may overflow, be unstable or not parse, and any
# JSON value
FILTER_DOC = st.one_of(
    st.fixed_dictionaries(
        {"sos": st.lists(STABLE_SECTION, min_size=1, max_size=4), "fs": st.just(48000)},
        optional={"gain": st.one_of(st.floats(-10.0, 10.0), st.sampled_from([1e300, 0.0]))},
    ),
    st.fixed_dictionaries(
        {"sos": st.lists(SECTION, min_size=1, max_size=4), "fs": FILTER_FIELD},
        optional={"gain": FILTER_FIELD},
    ),
    st.dictionaries(st.sampled_from(["sos", "fs", "gain", "f_peak_hz"]), FILTER_FIELD, max_size=3),
    COEFFICIENT,
)


# signal files: samples in range, at the edges of a float32 WAV and not
# finite, from none to a few hundred
SAMPLE = st.one_of(st.floats(-1.0, 1.0),
                   st.sampled_from([0.0, math.nan, math.inf, -math.inf, 3.5e38, 1e308]),
                   st.floats(allow_nan=True, allow_infinity=True))
SAMPLES = st.lists(SAMPLE, max_size=400)
CSV_TEXT = st.one_of(SAMPLES.map(lambda xs: "".join(f"{x!r}\n" for x in xs)),
                     st.lists(st.sampled_from(["0.5", "nan", "-inf", "1 2", "x", "", "1e999"]),
                              max_size=8).map("\n".join),
                     st.text(max_size=40))
RATE_FLAG = st.one_of(st.just("48000"),
                      st.sampled_from(["0", "-1", "nan", "inf", "1e-300", "1e300", "1", "8000"]))


def float32_bytes(samples):
    with np.errstate(over="ignore"):
        return np.asarray(samples, dtype="<f4").tobytes()


@st.composite
def wav_bytes(draw):
    """A RIFF WAV file: a fmt chunk of plausible or odd fields, float32
    samples or raw bytes, and at times one damaged byte or a cut tail."""
    tag = draw(st.sampled_from([3, 1, 2, 0xFFFE]))
    channels = draw(st.sampled_from([1, 2, 0]))
    bits = draw(st.sampled_from([32, 16, 8, 24, 64, 0]))
    rate = draw(st.sampled_from([48000, 48000, 0, 1, 8000, 2**31]))
    align = channels * bits // 8
    data = draw(st.one_of(SAMPLES.map(float32_bytes), st.binary(max_size=64)))
    fmt = struct.pack("<HHIIHH", tag, channels, rate, (rate * align) % 2**32, align, bits)
    body = (b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt
            + b"data" + struct.pack("<I", len(data)) + data)
    raw = bytearray(b"RIFF" + struct.pack("<I", len(body)) + body)
    damage = draw(st.sampled_from(["none", "none", "byte", "cut"]))
    if damage == "byte":
        raw[draw(st.integers(0, len(raw) - 1))] = draw(st.integers(0, 255))
    elif damage == "cut":
        del raw[draw(st.integers(0, len(raw) - 1)):]
    return bytes(raw)


ROW_FIELDS = {"II.1": ("n_cycles", "phi_accum"), "II.2": ("n_cycles", "q_erb"),
              "II.3": ("q_erb", "phi_accum"), "II.4": ("q_n", "phi_accum"),
              "II.5": ("n_cycles", "s_beta"), "II.6": ("s_beta", "phi_accum"),
              "II.7": ("n_cycles", "q_n")}


def designable_spec(row, a_p, b_u):
    """The spec of a row whose values are the trio of (a_p, 1, b_u)."""
    report = closed_form(FilterConstants(a_p, 1.0, b_u))
    values = {"n_cycles": report.n_beta, "phi_accum": report.phi_accum, "q_erb": report.q_erb,
              "q_n": report.q_n[10.0], "s_beta": report.s_beta}
    spec = {"row": row, "beta_peak": 1.0, **{field: values[field] for field in ROW_FIELDS[row]}}
    if "q_n" in spec:
        spec["n_level"] = 10.0
    return spec


SPEC_VALUE = st.one_of(st.floats(0.5, 60.0), LOG_UNIFORM, COEFFICIENT)
# spec files: a designable trio of a row, the fields of a row with values in
# range or not, any fields, or any JSON value
DESIGNABLE_SPEC = st.builds(designable_spec, st.sampled_from(sorted(ROW_FIELDS)),
                           st.floats(0.01, 0.1), st.floats(2.0, 12.0))
SPEC_DOC = st.booleans().flatmap(lambda designable: DESIGNABLE_SPEC if designable else st.one_of(
    st.sampled_from(sorted(ROW_FIELDS)).flatmap(lambda row: st.fixed_dictionaries(
        {"row": st.just(row), "beta_peak": st.one_of(st.just(1.0), SPEC_VALUE),
         **{field: SPEC_VALUE for field in ROW_FIELDS[row]}},
        optional={"n_level": st.one_of(st.just(10.0), SPEC_VALUE),
                  "mode": st.sampled_from(["exact", "approx", "fast"])})),
    st.dictionaries(st.sampled_from(["row", "beta_peak", "mode", "n_cycles", "phi_accum", "q_erb"]),
                    st.one_of(SPEC_VALUE, st.sampled_from(["II.1", "II.7", "II.9"])), max_size=4),
    COEFFICIENT,
))


def _reject_constant(name):
    raise ValueError(f"{name} is not valid JSON")


class TestCliProperties:
    """Random input through run(): every call exits with a documented code,
    raises nothing, and prints one JSON error exactly when it fails."""

    @pytest.fixture(scope="class")
    def workdir(self, tmp_path_factory):
        return tmp_path_factory.mktemp("properties")

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(a_p=CONSTANT, b_p=CONSTANT, b_u=CONSTANT, gain=GAIN)
    def test_random_constants_files(self, workdir, a_p, b_p, b_u, gain):
        path = workdir / "c.json"
        constants = {"a_p": a_p, "b_p": b_p, "b_u": b_u}
        if gain is not None:
            constants["gain"] = gain
        path.write_text(json.dumps(constants))
        clip = workdir / "clip.wav"
        if not clip.exists():
            write_wav(clip, SignalBuffer(48000.0, np.random.default_rng(5).standard_normal(256)))
        for argv in (
            ["analyze", "--constants", str(path)],
            ["discretize", "--constants", str(path), "--peak-hz", "1000", "--fs", "48000"],
            ["response", "--constants", str(path), "--peak-hz", "1000",
             "--fmin", "50", "--fmax", "5000", "--points", "16"],
            ["filter", "--fft", "--constants", str(path), "--peak-hz", "1000",
             str(clip), str(workdir / "out.wav")],
        ):
            code, _, errors = run_captured(argv)
            assert code in (0, 2, 3, 4), argv
            assert len(errors) == (code != 0), argv

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(peaks=PEAK_FLAGS,
           peak=st.one_of(st.just("1"), TRIO_VALUE),
           flags=TRIO_FLAGS,
           n_level=st.one_of(st.sampled_from(["3", "10"]), TRIO_VALUE),
           extra=st.lists(st.sampled_from(["--integer-snap", "--mode=approx"]), unique=True))
    def test_random_design_flags(self, peaks, peak, flags, n_level, extra):
        argv = ["design", *(f"{flag}={peak}" for flag in peaks), *extra]
        for flag, value in flags.items():
            argv.append(f"{flag}={n_level}:{value}" if flag == "--qn" else f"{flag}={value}")
        code, out, errors = run_captured(argv)
        assert code in (0, 2, 3), argv
        assert len(errors) == (code != 0), argv
        if code == 0:
            json.loads(out, parse_constant=_reject_constant)

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(cf0=AXIS_VALUE, l=AXIS_VALUE, x_max=AXIS_VALUE, channels=st.integers(1, 8))
    def test_random_bank_flags(self, cf0, l, x_max, channels):
        argv = ["bank", "--peak-beta", "1", "--gdelay-cycles", N_SHARP6_TEXT, "--phase-accum", "3",
                f"--cf0={cf0}", f"--l={l}", f"--x-max={x_max}", f"--channels={channels}"]
        code, out, errors = run_captured(argv)
        assert code in (0, 2, 3, 4), argv
        assert len(errors) == (code != 0), argv
        if code == 0:
            json.loads(out, parse_constant=_reject_constant)

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(qerb=AXIS, n=AXIS)
    def test_random_sweep_axes(self, qerb, n):
        code, out, errors = run_captured(["sweep", f"--qerb={qerb}", f"--n={n}", "--format", "json"])
        assert code in (0, 2, 3, 4)
        assert len(errors) == (code != 0)
        if code == 0:
            json.loads(out, parse_constant=_reject_constant)

    @pytest.fixture(scope="class")
    def sources(self, tmp_path_factory):
        """Constants, a filter designed from them, and a 1000-sample clip as
        WAV and as CSV."""
        root = tmp_path_factory.mktemp("sources")
        paths = {name: root / name for name in ("c.json", "sos.json", "clip.wav", "clip.csv")}
        with contextlib.redirect_stdout(io.StringIO()):
            assert run(["design", "--peak-beta", "1", "--gdelay-cycles", N_SHARP6_TEXT,
                        "--phase-accum", "3", "--out", str(paths["c.json"])]) == 0
        assert run(["discretize", "--constants", str(paths["c.json"]), "--peak-hz", "1000",
                    "--fs", "48000", "--out", str(paths["sos.json"])]) == 0
        clip = np.random.default_rng(7).standard_normal(1000)
        write_wav(paths["clip.wav"], SignalBuffer(48000.0, clip))
        paths["clip.csv"].write_text("".join(f"{x!r}\n" for x in clip))
        return paths

    @staticmethod
    def _run_quietly(argv):
        """run_captured, failing on any warning."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return run_captured(argv)

    @settings(max_examples=120, derandomize=True, deadline=None)
    @given(fmin=BAND_VALUE, fmax=BAND_VALUE, points=POINTS_VALUE,
           peak=st.one_of(st.just("1000"), BAND_VALUE), route=st.sampled_from(["sos", "constants"]))
    def test_random_response_flags(self, sources, fmin, fmax, points, peak, route):
        source = (["--sos", str(sources["sos.json"])] if route == "sos" else
                  ["--constants", str(sources["c.json"]), f"--peak-hz={peak}"])
        argv = ["response", *source, f"--fmin={fmin}", f"--fmax={fmax}", f"--points={points}"]
        code, out, errors = self._run_quietly(argv)
        assert code in (0, 2, 3), argv
        assert len(errors) == (code != 0), argv
        if code == 0:
            assert len(out.splitlines()) == points + 1, argv

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(doc=FILTER_DOC)
    @example(doc={"sos": OVERFLOWING_SOS, "fs": 48000})
    def test_random_filter_files(self, workdir, sources, doc):
        path = workdir / "f.json"
        path.write_text(json.dumps(doc))
        for argv in (
            ["response", "--sos", str(path), "--fmin", "0", "--fmax", "4000", "--points", "9"],
            ["filter", "--sos", str(path), str(sources["clip.wav"]), str(workdir / "out.wav")],
            ["filter", "--sos", str(path), "--rate", "48000", str(sources["clip.csv"]),
             str(workdir / "out.csv")],
        ):
            code, _, errors = self._run_quietly(argv)
            assert code in (0, 2, 3, 4), argv
            assert len(errors) == (code != 0), argv
            if code == 0 and argv[0] == "filter":
                out = argv[-1]
                samples = read_wav(out).samples if out.endswith(".wav") else np.loadtxt(out)
                assert np.all(np.isfinite(samples)), argv

    @staticmethod
    def _run_recording(argv):
        """run_captured, and the RuntimeWarnings raised in gefdesign."""
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = run_captured(argv)
        ours = [w for w in caught if issubclass(w.category, RuntimeWarning)
                and Path(w.filename).parent == SRC / "gefdesign"]
        return result, ours

    def _filter_signal(self, sources, workdir, infile, flags):
        for source in (["--fft", "--constants", str(sources["c.json"]), "--peak-hz", "1000"],
                       ["--sos", str(sources["sos.json"])]):
            outfile = workdir / ("out" + infile.suffix)
            outfile.unlink(missing_ok=True)
            argv = ["filter", *source, *flags, str(infile), str(outfile)]
            (code, _, errors), warned = self._run_recording(argv)
            assert code in (0, 2, 3, 4), argv
            assert len(errors) == (code != 0), argv
            assert not warned, (argv, [str(w.message) for w in warned])
            assert outfile.exists() == (code == 0), argv

    @settings(max_examples=120, derandomize=True, deadline=None)
    @given(text=CSV_TEXT, rate=RATE_FLAG)
    @example(text="", rate="48000")
    @example(text="0.5\n", rate="48000")
    @example(text="inf\n-inf\nnan\n", rate="48000")
    def test_random_csv_signal_files(self, workdir, sources, text, rate):
        infile = workdir / "in.csv"
        infile.write_text(text)
        self._filter_signal(sources, workdir, infile, [f"--rate={rate}"])

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(raw=wav_bytes())
    def test_random_wav_signal_files(self, workdir, sources, raw):
        infile = workdir / "in.wav"
        infile.write_bytes(raw)
        self._filter_signal(sources, workdir, infile, [])

    def test_damaged_wav_headers(self, workdir, sources):
        # the first 400 bytes of a 1 s clip: cut to under 120 bytes, 1-3 bytes
        # flipped, or 4 bytes overwritten in the header; run_captured parses
        # every stderr line as JSON, scipy's warnings included
        rng = np.random.default_rng(35)
        clip = workdir / "clip_1s.wav"
        write_wav(clip, SignalBuffer(48000.0, rng.standard_normal(48000)))
        head = clip.read_bytes()[:400]
        infile, outfile = workdir / "in.wav", workdir / "out.wav"
        codes = []
        for case in range(600):
            raw = bytearray(head)
            if case % 3 == 0:
                del raw[rng.integers(0, 120):]
            elif case % 3 == 1:
                for pos in rng.integers(0, len(raw), rng.integers(1, 4)):
                    raw[pos] ^= int(rng.integers(1, 256))
            else:
                pos = rng.integers(0, 57)
                raw[pos:pos + 4] = rng.bytes(4)
            infile.write_bytes(bytes(raw))
            outfile.unlink(missing_ok=True)
            argv = ["filter", "--sos", str(sources["sos.json"]), str(infile), str(outfile)]
            (code, _, errors), warned = self._run_recording(argv)
            assert code in (0, 2, 3), (case, bytes(raw))
            assert len(errors) == (code != 0), (case, bytes(raw))
            assert not warned, (case, [str(w.message) for w in warned])
            assert outfile.exists() == (code == 0), case
            codes.append(code)
        assert set(codes) == {0, 2, 3}

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(doc=SPEC_DOC, fmt=st.sampled_from(["json", "csv"]))
    def test_random_spec_files(self, workdir, doc, fmt):
        path = workdir / "spec.json"
        path.write_text(json.dumps(doc))
        argv = ["analyze", "--spec", str(path), f"--format={fmt}"]
        (code, out, errors), warned = self._run_recording(argv)
        assert code in (0, 2, 3), argv
        assert len(errors) == (code != 0), argv
        assert not warned, (argv, [str(w.message) for w in warned])
        if code == 0 and fmt == "json":
            json.loads(out, parse_constant=_reject_constant)

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(doc=SPEC_DOC,
           spec=st.sampled_from(["spec", "spec", "spec", "missing", None]),
           fmt=st.sampled_from([[], ["--format", "csv"], ["--format", "json"],
                                ["--format", "json"], ["--format=xml"]]),
           response_out=st.sampled_from([None, None, "response.txt", "response.txt", ".",
                                         "missing/response.txt"]),
           errors_out=st.sampled_from([None, None, "errors.txt", "errors.txt", ".",
                                       "missing/errors.txt"]))
    def test_random_evaluate_argv(self, workdir, doc, spec, fmt, response_out, errors_out):
        path = workdir / "spec.json"
        path.write_text(json.dumps(doc))
        argv = ["evaluate", *fmt]
        if spec is not None:
            argv += ["--spec", str(path if spec == "spec" else workdir / "missing.json")]
        if response_out is not None:
            argv += ["--response-out", str(workdir / response_out)]
        if errors_out is not None:
            argv += ["--errors-out", str(workdir / errors_out)]
        (code, out, errors), warned = self._run_recording(argv)
        assert code in (0, 2, 3, 4), argv
        assert len(errors) == (code != 0), argv
        assert not warned, (argv, [str(w.message) for w in warned])
        if code == 0 and errors_out is None and fmt[-1:] == ["json"]:
            json.loads(out, parse_constant=_reject_constant)

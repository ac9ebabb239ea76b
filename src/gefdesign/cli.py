"""Command-line front end: design, analysis, evaluation, bank construction,
discretization, and signal filtering.

Exit codes: 0 success, 2 flag validation, 3 infeasible design / domain
errors, 4 I/O failures.  Errors print one machine-readable JSON object to
stderr.  All numeric file output uses 12 significant digits so identical
inputs produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from functools import partial

import numpy as np

from . import __version__
from .core import FilterConstants, eval_gef
from .characteristics import closed_form, default_grid, extract_numeric, numeric_values
from .design import CharacteristicSpec, DesignRow, design
from .digital import (
    DigitalFilter,
    SignalBuffer,
    apply_fft,
    apply_sos,
    digital_response,
    read_signal_csv,
    read_wav,
    to_sos,
    write_signal_csv,
    write_wav,
)
from .errors import GefError, OutOfRange
from .filterbank import CfMap, bank_to_dict, build_constant_q_bank, uniform_places
from .harness import (
    _csv,
    _float_csv,
    figure_report,
    response_table,
    sweep,
    sweep_csv,
    sweep_json,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INFEASIBLE = 3
EXIT_IO = 4

class UsageError(Exception):
    pass


def _round_floats(obj):
    """Normalize every float to 12 significant digits for stable output."""
    if isinstance(obj, float):
        return float(f"{obj:.12e}")
    if isinstance(obj, dict):
        return {key: _round_floats(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(item) for item in obj]
    return obj


def _dump_json(data) -> str:
    return json.dumps(_round_floats(data), indent=2, sort_keys=True) + "\n"


def _emit(text: str, out_path) -> None:
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _add_trio_flags(parser) -> None:
    parser.add_argument("--peak-beta", type=float, help="normalized peak frequency")
    parser.add_argument("--peak-hz", type=float, help="peak frequency in Hz (normalized design)")
    parser.add_argument("--gdelay-cycles", type=float, help="peak group delay N in cycles")
    parser.add_argument("--phase-accum", type=float, help="phase accumulation in cycles")
    parser.add_argument("--qerb", type=float, help="ERB quality factor")
    parser.add_argument("--qn", type=str, metavar="N:VALUE", help="n-dB quality factor, e.g. 10:14.6")
    parser.add_argument("--convexity", type=float, help="peak convexity S in dB")
    parser.add_argument("--mode", choices=("exact", "approx"), default="exact")
    parser.add_argument("--integer-snap", action="store_true", help="round b_u to the nearest integer")


def _spec_from_flags(args) -> tuple[CharacteristicSpec, float | None]:
    if (args.peak_beta is None) == (args.peak_hz is None):
        raise UsageError("give exactly one of --peak-beta or --peak-hz")
    beta_peak = 1.0 if args.peak_hz is not None else args.peak_beta
    if beta_peak is None or beta_peak <= 0.0:
        raise UsageError("peak frequency must be positive")
    f_peak_hz = args.peak_hz
    if f_peak_hz is not None and not 0.0 < f_peak_hz < math.inf:
        raise UsageError("--peak-hz must be positive and finite")

    values: dict[str, float] = {}
    n_level = None
    if args.gdelay_cycles is not None:
        values["n_cycles"] = args.gdelay_cycles
    if args.phase_accum is not None:
        values["phi_accum"] = args.phase_accum
    if args.qerb is not None:
        values["q_erb"] = args.qerb
    if args.convexity is not None:
        values["s_beta"] = args.convexity
    if args.qn is not None:
        try:
            level_text, value_text = args.qn.split(":", 1)
            n_level = float(level_text)
            values["q_n"] = float(value_text)
        except ValueError:
            raise UsageError("--qn expects N:VALUE, e.g. 10:14.6") from None

    row = DesignRow.for_keys(values)
    if row is None:
        raise UsageError(
            "the characteristic flags must form a supported trio around the "
            "peak frequency; got: " + (", ".join(sorted(values)) or "none")
        )
    mode = args.mode if row.has_approx else "exact"
    try:
        spec = CharacteristicSpec(
            row=row, beta_peak=beta_peak, values=values, n_level=n_level, mode=mode
        )
    except GefError as exc:
        raise UsageError(str(exc)) from None
    return spec, f_peak_hz


def _load_json(path) -> dict:
    with open(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise UsageError(f"{path} is not valid JSON: {exc}") from None


def _constants_from_args(args) -> FilterConstants:
    data = _load_json(args.constants)
    if isinstance(data, dict) and "constants" in data:
        data = data["constants"]
    return FilterConstants.from_dict(data)


def _filter_from_args(args) -> DigitalFilter:
    return DigitalFilter.from_dict(_load_json(args.sos))


def _read_signal(path, rate) -> SignalBuffer:
    if str(path).lower().endswith(".wav"):
        return read_wav(path)
    if rate is None:
        raise UsageError("CSV signal input needs --rate")
    if not 0.0 < rate < math.inf:
        raise OutOfRange(f"--rate must be positive and finite, got {rate!r}")
    return read_signal_csv(path, rate)


def _write_signal(path, signal: SignalBuffer) -> None:
    if str(path).lower().endswith(".wav"):
        write_wav(path, signal)
    else:
        write_signal_csv(path, signal)


def _report_csv(reports: dict) -> str:
    columns = [numeric_values(report) for report in reports.values()]
    keys = sorted({key for column in columns for key in column})
    rows = [(key, *(column.get(key) for column in columns)) for key in keys]
    return _csv(("characteristic", *reports), rows)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_design(args) -> int:
    spec, f_peak_hz = _spec_from_flags(args)
    theta = design(spec, integer_snap=args.integer_snap)
    doc = {"constants": theta.as_dict(), "spec": spec.as_dict()}
    if f_peak_hz is not None:
        doc["f_peak_hz"] = f_peak_hz
    text = _dump_json(doc)
    sys.stdout.write(text)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    return EXIT_OK


def _cmd_analyze(args) -> int:
    if (args.constants is None) == (args.spec is None):
        raise UsageError("give exactly one of --constants or --spec")
    if args.constants is not None:
        theta = _constants_from_args(args)
    else:
        theta = design(CharacteristicSpec.from_dict(_load_json(args.spec)))
    reports = {
        "closed_form": closed_form(theta),
        "numeric": extract_numeric(partial(eval_gef, theta), default_grid(theta)),
    }
    if args.format == "json":
        text = _dump_json({name: report.as_dict() for name, report in reports.items()})
    else:
        text = _report_csv(reports)
    _emit(text, args.out)
    return EXIT_OK


def _cmd_evaluate(args) -> int:
    spec = CharacteristicSpec.from_dict(_load_json(args.spec))
    errors = figure_report(spec, out_format=args.format)
    if args.response_out:
        response = response_table(spec, out_format=args.format)
        with open(args.response_out, "w") as fh:
            fh.write(response)
    _emit(errors, args.errors_out)
    return EXIT_OK


def _cmd_sweep(args) -> int:
    try:
        q_values = [float(v) for v in args.qerb.split(",") if v]
        n_values = [float(v) for v in args.n.split(",") if v]
    except ValueError:
        raise UsageError("--qerb and --n expect comma-separated numbers") from None
    if not q_values or not n_values:
        raise UsageError("--qerb and --n must be non-empty")
    if not all(0.0 < value < math.inf for value in q_values + n_values):
        raise UsageError("--qerb and --n values must be positive and finite")
    result = sweep(q_values, n_values)
    text = sweep_json(result) + "\n" if args.format == "json" else sweep_csv(result)
    _emit(text, args.out)
    return EXIT_OK


def _cmd_bank(args) -> int:
    spec, f_peak_hz = _spec_from_flags(args)
    if f_peak_hz is not None or abs(spec.beta_peak - 1.0) > 1e-12:
        raise UsageError("banks take a normalized trio: --peak-beta 1")
    if args.channels < 1:
        raise UsageError("--channels must be >= 1")
    cf_map = CfMap(cf0=args.cf0, l=args.l, x_max=args.x_max)
    places = uniform_places(cf_map, args.channels)
    channels = build_constant_q_bank(cf_map, places, spec)
    _emit(_dump_json(bank_to_dict(cf_map, channels)), args.out)
    return EXIT_OK


def _cmd_discretize(args) -> int:
    theta = _constants_from_args(args)
    filt = to_sos(theta, f_peak=args.peak_hz, fs=args.fs)
    text = _dump_json(filt.as_dict())
    _emit(text, args.out)
    return EXIT_OK


def _cmd_filter(args) -> int:
    if args.fft:
        if args.constants is None or args.peak_hz is None:
            raise UsageError("--fft needs --constants and --peak-hz")
        theta = _constants_from_args(args)
        signal = _read_signal(args.infile, args.rate)
        out = apply_fft(theta, args.peak_hz, signal.sample_rate, signal)
    else:
        if args.sos is None:
            raise UsageError("give --sos (or --fft with --constants/--peak-hz)")
        filt = _filter_from_args(args)
        signal = _read_signal(args.infile, args.rate)
        out = apply_sos(filt, signal)
    _write_signal(args.outfile, out)
    return EXIT_OK


def _cmd_response(args) -> int:
    if (args.constants is None) == (args.sos is None):
        raise UsageError("give exactly one of --constants or --sos")
    if args.points < 2:
        raise UsageError("--points must be >= 2")
    if not (math.isfinite(args.fmin) and math.isfinite(args.fmax)):
        raise OutOfRange(f"--fmin and --fmax must be finite, got {args.fmin!r}, {args.fmax!r}")
    freqs = np.linspace(args.fmin, args.fmax, args.points)
    if args.sos is not None:
        filt = _filter_from_args(args)
        values = np.asarray(digital_response(filt, freqs))
    else:
        if args.peak_hz is None:
            raise UsageError("--constants responses need --peak-hz")
        if not 0.0 < args.peak_hz < math.inf:
            raise OutOfRange(f"--peak-hz must be positive and finite, got {args.peak_hz!r}")
        theta = _constants_from_args(args)
        values = np.asarray(eval_gef(theta, freqs / args.peak_hz))
    columns = (freqs, values.real, values.imag, 20.0 * np.log10(np.abs(values)),
               np.unwrap(np.angle(values)))
    _emit(_float_csv(("f_hz", "re", "im", "level_db", "phase_rad"), columns), args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gefdesign",
        description="Design bandpass filters directly from frequency-domain characteristics.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("design", help="constants from a characteristic trio")
    _add_trio_flags(p)
    p.add_argument("--out", help="also write the JSON document here")
    p.set_defaults(func=_cmd_design)

    p = sub.add_parser("analyze", help="characteristic report for a filter")
    p.add_argument("--constants", help="constants JSON file")
    p.add_argument("--spec", help="characteristic spec JSON file")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("evaluate", help="design-accuracy tables for a spec")
    p.add_argument("--spec", required=True)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--response-out", help="write the response table here")
    p.add_argument("--errors-out", help="write the error table here (default stdout)")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("sweep", help="error surfaces over (Q_erb, N)")
    p.add_argument("--qerb", required=True, help="comma-separated Q_erb values")
    p.add_argument("--n", required=True, help="comma-separated N values (cycles)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("bank", help="constant-Q filterbank over a CF map")
    _add_trio_flags(p)
    p.add_argument("--cf0", type=float, required=True, help="CF at x = 0 (Hz)")
    p.add_argument("--l", type=float, required=True, help="space constant")
    p.add_argument("--channels", type=int, required=True)
    p.add_argument("--x-max", type=float, required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_bank)

    p = sub.add_parser("discretize", help="biquad cascade from constants")
    p.add_argument("--constants", required=True)
    p.add_argument("--peak-hz", type=float, required=True)
    p.add_argument("--fs", type=float, required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_discretize)

    p = sub.add_parser("filter", help="run a signal through a filter")
    p.add_argument("--sos", help="filter JSON from 'discretize'")
    p.add_argument("--fft", action="store_true", help="FFT-domain analog response (any b_u)")
    p.add_argument("--constants", help="constants JSON (with --fft)")
    p.add_argument("--peak-hz", type=float, help="peak frequency in Hz (with --fft)")
    p.add_argument("--rate", type=float, help="sample rate for CSV input")
    p.add_argument("infile")
    p.add_argument("outfile")
    p.set_defaults(func=_cmd_filter)

    p = sub.add_parser("response", help="frequency response table")
    p.add_argument("--constants")
    p.add_argument("--peak-hz", type=float)
    p.add_argument("--sos")
    p.add_argument("--fmin", type=float, required=True)
    p.add_argument("--fmax", type=float, required=True)
    p.add_argument("--points", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_response)

    return parser


def _error_json(exc: Exception) -> str:
    return json.dumps(
        {"error": {"type": type(exc).__name__, "message": str(exc)}}
    )


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed usage
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except UsageError as exc:
        print(_error_json(exc), file=sys.stderr)
        return EXIT_USAGE
    except GefError as exc:
        print(_error_json(exc), file=sys.stderr)
        return EXIT_INFEASIBLE
    except OSError as exc:
        print(_error_json(exc), file=sys.stderr)
        return EXIT_IO


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()

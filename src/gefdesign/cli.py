"""Command-line front end: design, analysis, evaluation, bank construction,
discretization, and signal filtering.

Exit codes: 0 success, 2 flag validation or an input file that does not
parse, 3 infeasible design / domain errors, 4 I/O failures, scipy that
cannot be imported where a call needs it included (a root solve:
``design`` of row II.2 or II.7, ``analyze``, ``evaluate``, ``sweep``;
``filter --sos``; reading or writing a WAV file).  Errors print
one machine-readable JSON object to stderr, without a traceback, and the
warnings the CLI owns (``design.SharpnessWarning``, scipy's
``WavFileWarning``) one JSON line each before it.

The library returns tables as data; this module writes every CSV and JSON
table through one writer each, ``_csv`` and ``_dump_json``.  Both write
floats at 12 significant digits, so identical inputs produce byte-identical
outputs; JSON is indented, with sorted keys, and ends in a newline.  Filter
documents (``discretize``) are the one exception: ``biquad.filter_json``
writes them at full precision, so ``filter --sos`` and ``response --sos``
read back the very sections that ``to_sos`` built.  Response tables read
L = log H: level (20/ln 10) Re L, -inf only at a zero on the unit circle,
and phase Im L, continuous from f = 0 (for ``--sos``, its sections' logs).

Each subcommand imports the modules it uses when it runs.  So ``design``,
``discretize``, ``bank``, ``analyze``, ``sweep``, ``evaluate`` without
``--response-out``, ``response``, ``--version`` and usage errors load no
numpy (the audit reads its probes on ``math``, ``response --constants``
the same probes, and ``response --sos`` the cascade's log on ``cmath``), and
``design`` and usage errors load neither ``bank`` nor ``biquad``.
"""

from __future__ import annotations

import argparse
import json
import math
import struct
import sys
import warnings

from . import __version__
from .design import CharacteristicSpec, DesignRow, design
from .errors import GefError, OutOfRange
from .scalar import FilterConstants, _finite_positive

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INFEASIBLE = 3
EXIT_IO = 4

class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Refusals raise UsageError, one JSON error object; subparsers inherit it."""

    def error(self, message):
        raise UsageError(message)


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


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.12e}"
    return str(value)


def _lines(rows) -> str:
    """One line per row, its cells joined by commas; floats at 12 significant
    digits, None as an empty cell."""
    return "".join([",".join(map(_cell, row)) + "\n" for row in rows])


def _csv(header, rows) -> str:
    """A header line, then one line per row."""
    return _lines([header]) + _lines(rows)


def _emit(text: str, out_path) -> None:
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# the trio's characteristic flags, in --help's order: (flag, spec key, help)
_TRIO_FLAGS = (
    ("--gdelay-cycles", "n_cycles", "peak group delay N in cycles"),
    ("--phase-accum", "phi_accum", "phase accumulation in cycles"),
    ("--qerb", "q_erb", "ERB quality factor"),
    ("--qn", "q_n", "n-dB quality factor, e.g. 10:14.6"),
    ("--convexity", "s_beta", "peak convexity S in dB"),
)


def _add_trio_flags(parser) -> None:
    parser.add_argument("--peak-beta", type=float, help="normalized peak frequency")
    parser.add_argument("--peak-hz", type=float, help="peak frequency in Hz (normalized design)")
    for flag, key, text in _TRIO_FLAGS:
        if key == "q_n":
            parser.add_argument(flag, type=str, metavar="N:VALUE", help=text)
        else:
            parser.add_argument(flag, type=float, help=text)
    parser.add_argument("--mode", choices=("exact", "approx"), default="exact")
    parser.add_argument("--integer-snap", action="store_true", help="round b_u to the nearest integer")


def _spec_from_flags(args) -> tuple[CharacteristicSpec, float | None]:
    if (args.peak_beta is None) == (args.peak_hz is None):
        raise UsageError("give exactly one of --peak-beta or --peak-hz")
    beta_peak = 1.0 if args.peak_hz is not None else args.peak_beta
    f_peak_hz = args.peak_hz
    if f_peak_hz is not None:
        _finite_positive("--peak-hz", f_peak_hz, UsageError)

    values: dict[str, float] = {}
    for flag, key, _ in _TRIO_FLAGS:
        value = getattr(args, flag[2:].replace("-", "_"))
        if value is not None and key != "q_n":
            values[key] = value
    # q_n goes in last: CharacteristicSpec refuses the first bad value in this order
    n_level = None
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
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise UsageError(f"{path} is not valid JSON: {exc}") from None


def _constants_from_args(args) -> FilterConstants:
    data = _load_json(args.constants)
    if isinstance(data, dict) and "constants" in data:
        data = data["constants"]
    return FilterConstants.from_dict(data)


def _filter_from_args(args):
    from .biquad import DigitalFilter

    return DigitalFilter.from_dict(_load_json(args.sos))


def _read_signal(path, rate):
    """The signal in a WAV or headerless CSV file; a file that does not parse
    is a UsageError, as an unparseable JSON input is."""
    from .digital import read_signal_csv, read_wav

    is_wav = str(path).lower().endswith(".wav")
    if not is_wav:
        if rate is None:
            raise UsageError("CSV signal input needs --rate")
        _finite_positive("--rate", rate, OutOfRange)
    try:
        return read_wav(path) if is_wav else read_signal_csv(path, rate)
    except (ValueError, struct.error) as exc:
        raise UsageError(f"{path} is not a readable signal file: {exc}") from None


def _write_signal(path, signal) -> None:
    """A WAV file, or headerless CSV with one sample a line."""
    from .digital import write_wav

    if str(path).lower().endswith(".wav"):
        write_wav(path, signal)
    else:
        _emit(_lines([x] for x in signal.samples.tolist()), path)


def _report_csv(reports: dict) -> str:
    columns = [report.characteristics() for report in reports.values()]
    keys = sorted({key for column in columns for key in column})
    rows = [(key, *(column.get(key) for column in columns)) for key in keys]
    return _csv(("characteristic", *reports), rows)


def _errors_csv(report: dict) -> str:
    """figure_report's document with one row per characteristic: the desired
    value, then the achieved value and error of each target."""
    targets = list(report["achieved"])
    header = ["characteristic", "desired"]
    for target in targets:
        header += [f"{target}_achieved", f"{target}_error"]
    rows = []
    for key, desired in sorted(report["desired"].items()):
        row = [key, desired]
        for target in targets:
            row += [report["achieved"][target].get(key), report["errors"][target].get(key)]
        rows.append(row)
    return _csv(header, rows)


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
    _emit(text, None)
    if args.out:
        _emit(text, args.out)
    return EXIT_OK


def _cmd_analyze(args) -> int:
    if (args.constants is None) == (args.spec is None):
        raise UsageError("give exactly one of --constants or --spec")
    if args.constants is not None:
        theta = _constants_from_args(args)
    else:
        theta = design(CharacteristicSpec.from_dict(_load_json(args.spec)))
    from .characteristics import closed_form, extract_numeric
    from .probe import log_probe

    reports = {
        "closed_form": closed_form(theta),
        "numeric": extract_numeric(log_probe(theta, "p")),
    }
    if args.format == "json":
        text = _dump_json({name: report.as_dict() for name, report in reports.items()})
    else:
        text = _report_csv(reports)
    _emit(text, args.out)
    return EXIT_OK


def _cmd_evaluate(args) -> int:
    spec = CharacteristicSpec.from_dict(_load_json(args.spec))
    from .harness import figure_report, response_table

    report = figure_report(spec)
    errors = _dump_json(report) if args.format == "json" else _errors_csv(report)
    if args.response_out:
        columns = {name: column.tolist() for name, column in response_table(spec).items()}
        if args.format == "json":
            response = _dump_json(columns)
        else:
            response = _csv(list(columns), zip(*columns.values()))
        _emit(response, args.response_out)
    _emit(errors, args.errors_out)
    return EXIT_OK


def _cmd_sweep(args) -> int:
    q_values = [_finite_positive("--qerb", v, UsageError) for v in args.qerb.split(",") if v]
    n_values = [_finite_positive("--n", v, UsageError) for v in args.n.split(",") if v]
    if not q_values or not n_values:
        raise UsageError("--qerb and --n must be non-empty")
    from .harness import sweep

    result = sweep(q_values, n_values)
    if args.format == "json":
        text = _dump_json({"q_erb_axis": result.q_erb_axis, "n_axis": result.n_axis,
                           "error_grids": result.error_grids})
    else:
        rows = [
            (q, n, key, result.error_grids[key][i][j])
            for key in sorted(result.error_grids)
            for i, q in enumerate(result.q_erb_axis)
            for j, n in enumerate(result.n_axis)
        ]
        text = _csv(("q_erb", "n_cycles", "characteristic", "rel_error"), rows)
    _emit(text, args.out)
    return EXIT_OK


def _cmd_bank(args) -> int:
    spec, f_peak_hz = _spec_from_flags(args)
    if f_peak_hz is not None or abs(spec.beta_peak - 1.0) > 1e-12:
        raise UsageError("banks take a normalized trio: --peak-beta 1")
    if args.channels < 1:
        raise UsageError("--channels must be >= 1")
    from .bank import CfMap, bank_to_dict, build_constant_q_bank, uniform_places

    cf_map = CfMap(cf0=args.cf0, l=args.l, x_max=args.x_max)
    places = uniform_places(cf_map, args.channels)
    channels = build_constant_q_bank(cf_map, places, spec)
    _emit(_dump_json(bank_to_dict(cf_map, channels)), args.out)
    return EXIT_OK


def _cmd_discretize(args) -> int:
    theta = _constants_from_args(args)
    from .biquad import filter_json, to_sos

    _emit(filter_json(to_sos(theta, f_peak=args.peak_hz, fs=args.fs)), args.out)
    return EXIT_OK


def _cmd_filter(args) -> int:
    if args.fft:
        if args.constants is None or args.peak_hz is None:
            raise UsageError("--fft needs --constants and --peak-hz")
        from .digital import apply_fft

        theta = _constants_from_args(args)
        signal = _read_signal(args.infile, args.rate)
        out = apply_fft(theta, args.peak_hz, signal.sample_rate, signal)
    else:
        if args.sos is None:
            raise UsageError("give --sos (or --fft with --constants/--peak-hz)")
        from .digital import apply_sos

        filt = _filter_from_args(args)
        signal = _read_signal(args.infile, args.rate)
        out = apply_sos(filt, signal)
    # a filter that overflows gives samples that are not finite; a WAV file
    # holds 32-bit floats
    import numpy as np

    is_wav = str(args.outfile).lower().endswith(".wav")
    limit = float(np.finfo(np.float32).max) if is_wav else math.inf
    if not np.all(np.abs(out.samples) <= limit):
        raise OutOfRange("the filtered samples are not all finite"
                         + (" 32-bit floats" if is_wav else ""))
    _write_signal(args.outfile, out)
    return EXIT_OK


def _cmd_response(args) -> int:
    if (args.constants is None) == (args.sos is None):
        raise UsageError("give exactly one of --constants or --sos")
    if args.points < 2:
        raise UsageError("--points must be >= 2")
    if not (math.isfinite(args.fmin) and math.isfinite(args.fmax)):
        raise OutOfRange(f"--fmin and --fmax must be finite, got {args.fmin!r}, {args.fmax!r}")
    from .scalar import _response_columns, linspace

    freqs = linspace(args.fmin, args.fmax, args.points)
    if args.sos is not None:
        from .biquad import _cascade_log

        log_h = _cascade_log(_filter_from_args(args), freqs)
        columns = _response_columns([x.real for x in log_h], [x.imag for x in log_h],
                                    "the --sos cascade")
    else:
        if args.peak_hz is None:
            raise UsageError("--constants responses need --peak-hz")
        _finite_positive("--peak-hz", args.peak_hz, OutOfRange)
        theta = _constants_from_args(args)
        from .probe import _im_at, _re_at

        betas = [f / args.peak_hz for f in freqs]
        columns = _response_columns(list(map(_re_at(theta, "p"), betas)),
                                    list(map(_im_at(theta, "p"), betas)),
                                    f"the response of {theta}")
    rows = zip(freqs, *columns)
    _emit(_csv(("f_hz", "re", "im", "level_db", "phase_rad"), rows), args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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


# The warning categories the CLI owns, by class name, so that matching scipy's
# needs no scipy import: run writes each as one JSON line on stderr.
_JSON_WARNINGS = ("SharpnessWarning", "WavFileWarning")


def run(argv=None) -> int:
    """The CLI on argv: its exit code.  Warnings of _JSON_WARNINGS's categories
    print as {"warning": {"type", "message"}} lines, the error as one
    {"error": ...} line after them; other warnings go to warnings.showwarning,
    so that warning filters still see them."""
    show = warnings.showwarning

    def show_json(message, category, filename, lineno, file=None, line=None):
        if category.__name__ not in _JSON_WARNINGS:
            return show(message, category, filename, lineno, file, line)
        print(json.dumps({"warning": {"type": category.__name__, "message": str(message)}}),
              file=sys.stderr)

    warnings.showwarning = show_json
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit:  # --help and --version print and exit
        return EXIT_OK
    except UsageError as exc:
        print(_error_json(exc), file=sys.stderr)
        return EXIT_USAGE
    except GefError as exc:
        print(_error_json(exc), file=sys.stderr)
        return EXIT_INFEASIBLE
    except (OSError, ImportError) as exc:  # a file, or scipy, that cannot be read
        print(_error_json(exc), file=sys.stderr)
        return EXIT_IO
    finally:
        warnings.showwarning = show


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()

"""Output checks.  Each returns a list of failure descriptions (empty when the
output is correct); the workloads count an operation as failed when its list
is not empty.

Tolerances are those of the acceptance suite: designed constants reproduce
their trio within 1e-9 (1e-6 for the implicit rows II.2 and II.7), and
magnitude characteristics extracted numerically stay within 1.5% of the
closed forms.  That bound holds for the one-sided sharp form at any a_p <
0.2 b_p, and for the full filter in the sharp regime a_p <= 0.05 b_p where the
acceptance suite states it; wider full filters drift from the sharp-form
closed forms by design, so they are not held to it.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

# bound here, at import, so a traced run's wrappers never see the checks' calls
from gefdesign import FilterConstants, closed_form
from gefdesign.digital import DigitalFilter, digital_response, read_wav

TRIO_TOL = {"II.2": 1e-6, "II.7": 1e-6}
TRIO_TOL_DEFAULT = 1e-9
EXTRACTION_BOUND = 0.015
FULL_FILTER_SHARP = 0.05
MAGNITUDE_KEYS = (
    "beta_peak", "bw_3_beta", "bw_10_beta", "erb_beta",
    "q_3", "q_10", "q_erb", "s_beta",
)
PEAK_TOL = 1e-6


def _trio_value(report, key: str, n_level):
    if key == "n_cycles":
        return report.n_beta
    if key == "q_n":
        return report.q_n[float(n_level)]
    return getattr(report, key)


def trio(spec: dict, theta) -> list[str]:
    """The constants reproduce every trio value of the spec, through the
    closed forms, within the acceptance tolerance of the row."""
    return trio_report(spec, closed_form(theta))


def trio_report(spec: dict, report) -> list[str]:
    """As trio, from the closed-form report of the designed constants."""
    tol = TRIO_TOL.get(spec["row"], TRIO_TOL_DEFAULT)
    out = []
    if abs(report.beta_peak - spec["beta_peak"]) > tol * spec["beta_peak"]:
        out.append(f"{spec['row']}: b_p {report.beta_peak!r} != beta_peak {spec['beta_peak']!r}")
    for key, want in spec.items():
        if key in ("row", "beta_peak", "n_level", "mode"):
            continue
        got = _trio_value(report, key, spec.get("n_level"))
        if not abs(got - want) <= tol * abs(want):
            out.append(f"{spec['row']}: {key} {got!r} != {want!r} (tol {tol:g})")
    return out


def held_targets(ap_ratio: float) -> tuple:
    """Extraction targets held to the bound: the sharp form always, the full
    filter when a_p <= 0.05 b_p."""
    return ("p_sharp", "p") if ap_ratio <= FULL_FILTER_SHARP else ("p_sharp",)


def extraction(errors_by_target: dict) -> list[str]:
    """Magnitude-characteristic errors of each given target under the
    acceptance bound."""
    out = []
    for target, errors in errors_by_target.items():
        for key in MAGNITUDE_KEYS:
            value = errors.get(key)
            if value is None or not abs(value) < EXTRACTION_BOUND:
                out.append(f"{target}.{key} error {value!r}")
    return out


def sos_peak(filt, f_peak: float) -> list[str]:
    """The biquad cascade has magnitude 1 at f_peak."""
    mag = abs(digital_response(filt, f_peak))
    if not abs(mag - 1.0) <= PEAK_TOL:
        return [f"cascade |H(f_peak)| = {mag!r}"]
    return []


def crosstalk(matrix, bands: int) -> list[str]:
    """Crosstalk is a finite square matrix with a zero diagonal."""
    matrix = np.asarray(matrix)
    if matrix.shape != (bands, bands) or not np.all(np.isfinite(matrix)):
        return [f"crosstalk matrix shape {matrix.shape} or non-finite entries"]
    if np.any(np.abs(np.diag(matrix)) > 1e-9):
        return ["crosstalk diagonal is not 0 dB"]
    return []


def bank_rows(rows, expected: int) -> list[str]:
    """One finite (f, re, im, level, phase, channel) row per channel and
    frequency."""
    values = np.array(rows, dtype=float)
    if values.shape != (expected, 6):
        return [f"bank rows shape {values.shape}, expected ({expected}, 6)"]
    if not np.all(np.isfinite(values)):
        return ["non-finite bank row"]
    return []


def signal(samples, n: int) -> list[str]:
    """Filtered output is finite and as long as the input."""
    samples = np.asarray(samples)
    out = []
    if samples.size != n:
        out.append(f"output length {samples.size} != input length {n}")
    if not np.all(np.isfinite(samples)):
        out.append("output has non-finite samples")
    return out


# ---------------------------------------------------------------------------
# sweep feasibility, from the gamma-ratio arithmetic written out here
# ---------------------------------------------------------------------------


def _qerb_over_delay(b_u: float) -> float:
    return 2.0 * math.sqrt(math.pi) * math.exp(math.lgamma(b_u) - math.lgamma(b_u - 0.5)) / b_u


_RATIO_MIN = _qerb_over_delay(64.0)
_RATIO_MAX = max(_qerb_over_delay(1.0 + 63.0 * k / 4000.0) for k in range(4001))


def sweep(result, q_axis, n_axis) -> tuple[list[str], int]:
    """Infeasible cells are exactly those whose Q_erb / N lies outside what
    the delay+Q_erb solve can reach on b_u in [1, 64]; feasible cells carry
    finite errors.  Returns (failures, feasible cell count)."""
    out = []
    grid = result.error_grids["q_erb"]
    feasible = 0
    for i, q in enumerate(q_axis):
        for j, n in enumerate(n_axis):
            expect = _RATIO_MIN < q / n <= _RATIO_MAX
            cell = grid[i][j]
            if (cell is not None) != expect:
                out.append(f"cell Q_erb={q:.4g} N={n:.4g}: feasible={cell is not None}, expected {expect}")
            if cell is not None:
                feasible += 1
                bad = [k for k, g in result.error_grids.items()
                       if g[i][j] is None or not math.isfinite(g[i][j])]
                if bad:
                    out.append(f"cell Q_erb={q:.4g} N={n:.4g}: missing or non-finite {bad}")
    return out, feasible


# ---------------------------------------------------------------------------
# CLI outputs
# ---------------------------------------------------------------------------


def cli_refusal(code: int, expect: int, stderr: str) -> list[str]:
    """A refused call exits with the documented code and prints exactly one
    JSON object, with an "error" member, on stderr."""
    out = []
    if code != expect:
        out.append(f"exit {code}, expected {expect}")
    lines = stderr.strip().splitlines()
    try:
        doc = json.loads(stderr)
    except ValueError:
        doc = None
    if len(lines) != 1 or not isinstance(doc, dict) or "error" not in doc:
        out.append(f"stderr is not one JSON error object: {stderr[:200]!r}")
    return out


def _read_csv(text: str) -> list[list[str]]:
    return list(csv.reader(io.StringIO(text)))


def cli_output(call: dict, text: str, workdir) -> list[str]:
    """Check the output file of a successful CLI call."""
    kind = call["kind"]
    if kind == "design":
        doc = json.loads(text)
        theta = FilterConstants.from_dict(doc["constants"])
        spec = call["spec"]
        if "--integer-snap" in call["argv"]:
            out = [] if theta.b_u == round(theta.b_u) else [f"snapped b_u {theta.b_u!r}"]
            if "n_cycles" in spec:
                out += trio({"row": spec["row"], "beta_peak": spec["beta_peak"],
                                 "n_cycles": spec["n_cycles"]}, theta)
            return out
        if "approx" in call["argv"]:
            return trio({"row": "II.1", "beta_peak": spec["beta_peak"],
                             "n_cycles": spec["n_cycles"]}, theta)
        return trio(spec, theta)
    if kind == "analyze":
        if call["format"] == "json":
            doc = json.loads(text)
            closed, numeric = doc["closed_form"], doc["numeric"]
        else:
            rows = _read_csv(text)
            closed = {r[0]: float(r[1]) for r in rows[1:] if r[1]}
            numeric = {r[0]: float(r[2]) for r in rows[1:] if r[2]}
        errors = {k: (closed[k] - numeric[k]) / closed[k] for k in MAGNITUDE_KEYS}
        return extraction({"p": errors})
    if kind == "discretize":
        filt = DigitalFilter.from_dict(json.loads(text))
        return sos_peak(filt, call["peak_hz"])
    if kind == "response":
        rows = _read_csv(text)
        values = np.array(rows[1:], dtype=float)
        out = [] if rows[0] == ["f_hz", "re", "im", "level_db", "phase_rad"] else ["bad header"]
        if values.shape != (call["points"], 5):
            out.append(f"response table shape {values.shape}")
        elif not np.all(np.isfinite(values)):
            out.append("response table has non-finite values")
        return out
    if kind == "filter":
        n = read_wav(workdir / "in.wav").samples.size
        return signal(read_wav(workdir / call["out"]).samples, n)
    if kind == "bank":
        doc = json.loads(text)
        peaks = [ch["f_peak_hz"] for ch in doc["channels"]]
        out = [] if len(peaks) == call["channels"] else [f"{len(peaks)} channels"]
        if any(b >= a for a, b in zip(peaks, peaks[1:])) or min(peaks) <= 0.0:
            out.append("channel peaks are not positive and decreasing")
        return out
    if kind == "evaluate":
        rows = _read_csv(text)
        header = rows[0]
        table = {r[0]: dict(zip(header, r)) for r in rows[1:]}
        errors = {
            target: {k: float(table[k][f"{target}_error"]) for k in MAGNITUDE_KEYS}
            for target in ("p_sharp", "p")
        }
        return extraction(errors)
    return [f"unknown call kind {kind}"]

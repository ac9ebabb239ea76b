"""Accuracy evaluation: design from desired characteristics, re-extract them
numerically from the full filter, its sharp form, and the single-zero
variant, and report signed relative errors per characteristic.

Error convention: (desired - achieved) / desired.
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .core import eval_gef, eval_sharp, eval_v
from .characteristics import (
    CharacteristicReport,
    closed_form,
    default_grid,
    extract_numeric,
    numeric_values,
    relative_errors,
)
from .design import CharacteristicSpec, DesignRow, design
from .errors import GefError, OutOfRange

RATIO_KEYS = (
    ("q_erb_over_n", "q_erb", "n_beta"),
    ("q_10_over_n", "q_10", "n_beta"),
    ("q_erb_over_q_10", "q_erb", "q_10"),
)


@dataclass(frozen=True)
class ErrorRecord:
    """Errors of one extraction target against the desired characteristics."""

    target: str
    desired: CharacteristicReport
    achieved: CharacteristicReport
    errors: dict


@dataclass(frozen=True)
class SweepResult:
    """Relative-error grids over a (Q_erb, N) plane; infeasible cells None."""

    q_erb_axis: tuple
    n_axis: tuple
    error_grids: dict

    def as_rows(self) -> list[tuple]:
        """Long-format rows (q_erb, n_cycles, characteristic, error|None)."""
        rows = []
        for key in sorted(self.error_grids):
            grid = self.error_grids[key]
            for i, q in enumerate(self.q_erb_axis):
                for j, n in enumerate(self.n_axis):
                    rows.append((q, n, key, grid[i][j]))
        return rows


def _designed(spec: CharacteristicSpec):
    """The constants designed from spec, and their extraction grid.  Every
    design here goes through this one call, so a spec's SharpnessWarning is
    shown once per process however many tables are built from it."""
    theta = design(spec)
    return theta, default_grid(theta)


def _target_responses(theta):
    return {
        "p_sharp": partial(eval_sharp, theta),
        "p": partial(eval_gef, theta),
        "v": partial(eval_v, theta),
    }


def evaluate_case(spec: CharacteristicSpec) -> list[ErrorRecord]:
    """Design a filter, then extract its characteristics numerically from
    the sharp form, the full filter, and the single-zero variant.

    Returns one ErrorRecord per target, in that order.  The desired report
    is the closed-form characteristic set of the designed constants (the
    specified trio is reproduced within design tolerances, so the remaining
    characteristics inherit their desired values from the same constants).
    """
    theta, grid = _designed(spec)
    desired = closed_form(theta)
    records = []
    for target, response in _target_responses(theta).items():
        achieved = extract_numeric(response, grid)
        records.append(
            ErrorRecord(
                target=target,
                desired=desired,
                achieved=achieved,
                errors=relative_errors(desired, achieved),
            )
        )
    return records


def sweep(q_erb_values, n_values) -> SweepResult:
    """Error surfaces over desired (Q_erb, N) with beta_peak = 1 throughout.

    Each cell designs through the exact delay+Q_erb solve and extracts from
    the full filter.  Cells whose implicit solve has no solution inside the
    exponent bracket are recorded as None, never as zero.  Raises OutOfRange
    when an axis value is not positive and finite.
    """
    q_axis = tuple(float(q) for q in q_erb_values)
    n_axis = tuple(float(n) for n in n_values)
    if not all(0.0 < value < math.inf for value in q_axis + n_axis):
        raise OutOfRange(
            f"sweep axes must be positive and finite, got Q_erb {q_axis} and N {n_axis}"
        )

    cells: dict[tuple[int, int], dict] = {}
    keys: set[str] = set()
    for i, q_erb in enumerate(q_axis):
        for j, n_cyc in enumerate(n_axis):
            try:
                theta, grid = _designed(
                    CharacteristicSpec(
                        row=DesignRow.PEAK_DELAY_QERB,
                        beta_peak=1.0,
                        values={"q_erb": q_erb, "n_cycles": n_cyc},
                        mode="exact",
                    )
                )
                achieved = extract_numeric(partial(eval_gef, theta), grid)
                errors = relative_errors(closed_form(theta), achieved)
            except GefError:
                continue
            cells[(i, j)] = errors
            keys.update(errors)

    grids = {
        key: [
            [cells.get((i, j), {}).get(key) for j in range(len(n_axis))]
            for i in range(len(q_axis))
        ]
        for key in keys
    }
    return SweepResult(q_erb_axis=q_axis, n_axis=n_axis, error_grids=grids)


# ---------------------------------------------------------------------------
# figure-style tables: per-target error bars, and responses
# ---------------------------------------------------------------------------


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.12e}"
    return str(value)


def _csv(header, rows) -> str:
    buf = io.StringIO()
    buf.write(",".join(header) + "\n")
    for row in rows:
        buf.write(",".join(_fmt(cell) for cell in row) + "\n")
    return buf.getvalue()


def _float_csv(header, columns) -> str:
    """What _csv writes for rows of floats, from equal-length float columns,
    formatted a row at a time."""
    line = ",".join(["%.12e"] * len(header)) + "\n"
    rows = zip(*(np.asarray(column, dtype=float).tolist() for column in columns))
    return ",".join(header) + "\n" + "".join(line % row for row in rows)


def _ratios(flat: dict) -> dict:
    """The compound ratios of a flat characteristic map that has their parts."""
    return {
        name: flat[num] / flat[den]
        for name, num, den in RATIO_KEYS
        if num in flat and den in flat
    }


def _check_format(out_format: str) -> None:
    if out_format not in ("csv", "json"):
        raise ValueError("out_format must be 'csv' or 'json'")


def figure_report(spec: CharacteristicSpec, out_format: str = "csv") -> str:
    """Error table for one designed case, serialized as CSV or JSON.

    It carries the desired value, and per target the achieved value and
    signed relative error.  The compound ratios (Q_erb/N, Q_10/N,
    Q_erb/Q_10) are ratios of the per-target extracted values.
    """
    _check_format(out_format)
    records = evaluate_case(spec)
    desired = numeric_values(records[0].desired)
    desired.update(_ratios(desired))
    achieved, errors = {}, {}
    for record in records:
        flat = numeric_values(record.achieved)
        ratios = _ratios(flat)
        achieved[record.target] = {**flat, **ratios}
        errors[record.target] = dict(record.errors)
        errors[record.target].update(
            (key, (desired[key] - value) / desired[key])
            for key, value in ratios.items()
            if key in desired
        )

    if out_format == "json":
        return json.dumps(
            {"desired": desired, "achieved": achieved, "errors": errors}, sort_keys=True
        )
    header = ["characteristic", "desired"]
    for record in records:
        header += [f"{record.target}_achieved", f"{record.target}_error"]
    rows = []
    for key in sorted(desired):
        row = [key, desired[key]]
        for record in records:
            row += [achieved[record.target].get(key), errors[record.target].get(key)]
        rows.append(row)
    return _csv(header, rows)


def response_table(spec: CharacteristicSpec, out_format: str = "csv") -> str:
    """Response table for one designed case, serialized as CSV or JSON.

    It holds level and phase of the three targets over the extraction grid,
    each peak-normalized (own maximum level subtracted) and phase-referenced
    to zero at beta -> 0.
    """
    _check_format(out_format)
    theta, grid = _designed(spec)
    betas = grid.samples
    columns = {"beta": betas}
    for target, response in _target_responses(theta).items():
        values = np.asarray(response(betas))
        level = 20.0 * np.log10(np.abs(values))
        phase = np.unwrap(np.angle(values))
        phase_zero = np.angle(complex(response(1e-9)))
        columns[f"{target}_level_db"] = level - level.max()
        columns[f"{target}_phase_rad"] = phase - phase_zero

    if out_format == "json":
        return json.dumps(
            {name: [float(x) for x in col] for name, col in columns.items()},
            sort_keys=True,
        )
    return _float_csv(list(columns), columns.values())


def sweep_csv(result: SweepResult) -> str:
    return _csv(("q_erb", "n_cycles", "characteristic", "rel_error"), result.as_rows())


def sweep_json(result: SweepResult) -> str:
    return json.dumps(
        {
            "q_erb_axis": list(result.q_erb_axis),
            "n_axis": list(result.n_axis),
            "error_grids": result.error_grids,
        },
        sort_keys=True,
    )

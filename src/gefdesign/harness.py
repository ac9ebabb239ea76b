"""Accuracy evaluation: design from desired characteristics, re-extract them
numerically from the full filter, its sharp form, and the single-zero
variant, and report signed relative errors per characteristic.

Error convention: (desired - achieved) / desired.
"""

from __future__ import annotations

import io
import json
import logging
from dataclasses import dataclass
from functools import partial

import numpy as np

from .core import eval_gef, eval_sharp, eval_v
from .characteristics import (
    CharacteristicReport,
    DEFAULT_LEVELS_DB,
    FrequencyGrid,
    closed_form,
    default_grid,
    extract_numeric,
    numeric_values,
    relative_errors,
)
from .design import CharacteristicSpec, DesignRow, design
from .errors import GefError

logger = logging.getLogger(__name__)

TARGETS = ("p_sharp", "p", "v")

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


def _target_responses(theta):
    return {
        "p_sharp": partial(eval_sharp, theta),
        "p": partial(eval_gef, theta),
        "v": partial(eval_v, theta),
    }


def evaluate_case(
    spec: CharacteristicSpec,
    n_levels=DEFAULT_LEVELS_DB,
    grid: FrequencyGrid | None = None,
) -> list[ErrorRecord]:
    """Design a filter, then extract its characteristics numerically from
    the sharp form, the full filter, and the single-zero variant.

    Returns one ErrorRecord per target, in that order.  The desired report
    is the closed-form characteristic set of the designed constants (the
    specified trio is reproduced within design tolerances, so the remaining
    characteristics inherit their desired values from the same constants).
    """
    theta = design(spec)
    desired = closed_form(theta, n_levels=n_levels)
    if grid is None:
        grid = default_grid(theta)
    records = []
    for target, response in _target_responses(theta).items():
        achieved = extract_numeric(response, grid, n_levels=n_levels)
        records.append(
            ErrorRecord(
                target=target,
                desired=desired,
                achieved=achieved,
                errors=relative_errors(desired, achieved),
            )
        )
    _log_v_comparison(records)
    return records


def _log_v_comparison(records) -> None:
    """The zero-variant errors are often at or below the full filter's; that
    is a recorded observation, not an assertion."""
    by_target = {record.target: record for record in records}
    if "p" not in by_target or "v" not in by_target:
        return
    p_err, v_err = by_target["p"].errors, by_target["v"].errors
    shared = sorted(set(p_err) & set(v_err))
    smaller = [key for key in shared if abs(v_err[key]) <= abs(p_err[key])]
    logger.info(
        "zero-variant |error| <= full-filter |error| for %d of %d characteristics: %s",
        len(smaller),
        len(shared),
        ", ".join(smaller) or "none",
    )


def sweep(q_erb_values, n_values, n_levels=DEFAULT_LEVELS_DB) -> SweepResult:
    """Error surfaces over desired (Q_erb, N) with beta_peak = 1 throughout.

    Each cell designs through the exact delay+Q_erb solve and extracts from
    the full filter.  Cells whose implicit solve has no solution inside the
    exponent bracket are recorded as None, never as zero.
    """
    q_axis = tuple(float(q) for q in q_erb_values)
    n_axis = tuple(float(n) for n in n_values)
    if any(q <= 0 for q in q_axis) or any(n <= 0 for n in n_axis):
        raise ValueError("axis values must be positive")

    cells: dict[tuple[int, int], dict] = {}
    keys: set[str] = set()
    for i, q_erb in enumerate(q_axis):
        for j, n_cyc in enumerate(n_axis):
            try:
                spec = CharacteristicSpec(
                    row=DesignRow.PEAK_DELAY_QERB,
                    beta_peak=1.0,
                    values={"q_erb": q_erb, "n_cycles": n_cyc},
                    mode="exact",
                )
                theta = design(spec)
                achieved = extract_numeric(
                    partial(eval_gef, theta), default_grid(theta), n_levels=n_levels
                )
                errors = relative_errors(closed_form(theta, n_levels=n_levels), achieved)
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
# figure-style tables: responses plus per-target error bars
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


def _with_ratios(flat: dict) -> dict:
    out = dict(flat)
    for name, num, den in RATIO_KEYS:
        if num in flat and den in flat:
            out[name] = flat[num] / flat[den]
    return out


def figure_report(
    spec: CharacteristicSpec,
    out_format: str = "csv",
    n_levels=DEFAULT_LEVELS_DB,
) -> dict:
    """Response and error tables for one designed case.

    Returns {"response": ..., "errors": ...} serialized as CSV or JSON.
    The response table holds level and phase of the three targets over the
    extraction grid, each peak-normalized (own maximum level subtracted)
    and phase-referenced to zero at beta -> 0.  The error table carries the
    desired value, and per target the achieved value and signed relative
    error; compound ratios (Q_erb/N, Q_10/N, Q_erb/Q_10) are ratios of the
    per-target extracted values.
    """
    if out_format not in ("csv", "json"):
        raise ValueError("out_format must be 'csv' or 'json'")
    theta = design(spec)
    grid = default_grid(theta)
    records = evaluate_case(spec, n_levels=n_levels, grid=grid)
    by_target = {record.target: record for record in records}

    betas = grid.samples
    columns = {"beta": betas}
    for target, response in _target_responses(theta).items():
        values = np.asarray(response(betas))
        level = 20.0 * np.log10(np.abs(values))
        phase = np.unwrap(np.angle(values))
        phase_zero = np.angle(complex(response(1e-9)))
        columns[f"{target}_level_db"] = level - level.max()
        columns[f"{target}_phase_rad"] = phase - phase_zero

    desired_flat = _with_ratios(numeric_values(by_target["p"].desired))
    achieved_flat = {
        target: _with_ratios(numeric_values(by_target[target].achieved))
        for target in TARGETS
    }
    error_header = ["characteristic", "desired"]
    for target in TARGETS:
        error_header += [f"{target}_achieved", f"{target}_error"]
    error_rows = []
    for key in sorted(desired_flat):
        row = [key, desired_flat[key]]
        for target in TARGETS:
            achieved = achieved_flat[target].get(key)
            error = (
                None
                if achieved is None
                else (desired_flat[key] - achieved) / desired_flat[key]
            )
            row += [achieved, error]
        error_rows.append(tuple(row))

    if out_format == "csv":
        return {
            "response": _float_csv(list(columns), columns.values()),
            "errors": _csv(error_header, error_rows),
        }
    return {
        "response": json.dumps(
            {name: [float(x) for x in col] for name, col in columns.items()},
            sort_keys=True,
        ),
        "errors": json.dumps(
            {
                "desired": desired_flat,
                "achieved": achieved_flat,
                "errors": {
                    target: {
                        key: (desired_flat[key] - value) / desired_flat[key]
                        for key, value in achieved_flat[target].items()
                        if key in desired_flat
                    }
                    for target in TARGETS
                },
            },
            sort_keys=True,
        ),
    }


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

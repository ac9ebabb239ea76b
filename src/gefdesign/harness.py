"""Accuracy evaluation: design from desired characteristics, re-extract them
numerically from the full filter, its sharp form, and the single-zero
variant, and report signed relative errors per characteristic.

Error convention: (desired - achieved) / desired.
"""

from __future__ import annotations

import math

from .core import DB_PER_LOG, log_response
from .characteristics import (
    CharacteristicReport,
    _flat_errors,
    closed_form,
    default_grid,
    extract_numeric,
    relative_errors,
)
from .design import CharacteristicSpec, DesignRow, design
from .errors import GefError, OutOfRange
from .scalar import _Record

RATIO_KEYS = (
    ("q_erb_over_n", "q_erb", "n_beta"),
    ("q_10_over_n", "q_10", "n_beta"),
    ("q_erb_over_q_10", "q_erb", "q_10"),
)


class ErrorRecord(_Record):
    """Errors of one extraction target against the desired characteristics."""

    _fields = ("target", "desired", "achieved", "errors")

    def __init__(self, target: str, desired: CharacteristicReport,
                 achieved: CharacteristicReport, errors: dict):
        self.__dict__.update(target=target, desired=desired, achieved=achieved, errors=errors)


class SweepResult(_Record):
    """Relative-error grids over a (Q_erb, N) plane; infeasible cells None."""

    _fields = ("q_erb_axis", "n_axis", "error_grids")

    def __init__(self, q_erb_axis: tuple, n_axis: tuple, error_grids: dict):
        self.__dict__.update(q_erb_axis=q_erb_axis, n_axis=n_axis, error_grids=error_grids)


def _designed(spec: CharacteristicSpec):
    """The constants designed from spec, and their extraction grid.  Every
    design here goes through this one call, so a spec's SharpnessWarning is
    shown once per process however many tables are built from it."""
    theta = design(spec)
    return theta, default_grid(theta)


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
    flat = desired.characteristics()
    records = []
    for target, response in log_response(theta, grid.samples).items():
        achieved = extract_numeric(response, grid)
        records.append(
            ErrorRecord(
                target=target,
                desired=desired,
                achieved=achieved,
                errors=_flat_errors(flat, achieved.characteristics()),
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
                achieved = extract_numeric(log_response(theta, grid.samples, ("p",))["p"], grid)
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


def _ratios(flat: dict) -> dict:
    """The compound ratios of a flat characteristic map that has their parts."""
    return {
        name: flat[num] / flat[den]
        for name, num, den in RATIO_KEYS
        if num in flat and den in flat
    }


def figure_report(spec: CharacteristicSpec) -> dict:
    """Error table for one designed case: ``{"desired", "achieved", "errors"}``.

    ``desired`` maps each characteristic to its desired value; ``achieved``
    and ``errors`` map each target (p_sharp, p, v, in that order) to its
    achieved values and signed relative errors.  The compound ratios
    (Q_erb/N, Q_10/N, Q_erb/Q_10) are ratios of the per-target extracted
    values.
    """
    records = evaluate_case(spec)
    desired = records[0].desired.characteristics()
    desired.update(_ratios(desired))
    achieved, errors = {}, {}
    for record in records:
        flat = record.achieved.characteristics()
        achieved[record.target] = {**flat, **_ratios(flat)}
        errors[record.target] = _flat_errors(desired, achieved[record.target])
    return {"desired": desired, "achieved": achieved, "errors": errors}


def response_table(spec: CharacteristicSpec) -> dict:
    """Response table for one designed case, column name -> float array: the
    level and phase of the three targets over the extraction grid from their
    log responses L, DB_PER_LOG * Re L less its maximum (finite where |H|
    underflows) and Im L less its value at beta = 0."""
    theta, grid = _designed(spec)
    columns = {"beta": grid.samples}
    at_zero = log_response(theta, 0.0)
    for target, log_h in log_response(theta, grid.samples).items():
        level = DB_PER_LOG * log_h.re
        columns[f"{target}_level_db"] = level - level.max()
        columns[f"{target}_phase_rad"] = log_h.im - at_zero[target].im
    return columns

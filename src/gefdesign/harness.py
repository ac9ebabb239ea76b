"""Accuracy evaluation: design from desired characteristics, re-extract them
numerically from the full filter, its sharp form, and the single-zero
variant, and report signed relative errors per characteristic.

Error convention: (desired - achieved) / desired.

The audit reads each target through the scalar probes of ``probe``, so
``evaluate_case``, ``sweep`` and ``figure_report`` load no numpy;
``response_table`` imports ``core`` and ``grid``, which do, when it runs.
"""

from __future__ import annotations

from .characteristics import (
    CharacteristicReport,
    _flat_errors,
    closed_form,
    extract_numeric,
    relative_errors,
)
from .design import CharacteristicSpec, DesignRow, design
from .errors import GefError, OutOfRange
from .probe import TARGETS, log_probe
from .scalar import DB_PER_LOG, _finite_positive, _Record, sharpness_check

RATIO_KEYS = (
    ("q_erb_over_n", "q_erb", "n_beta"),
    ("q_10_over_n", "q_10", "n_beta"),
    ("q_erb_over_q_10", "q_erb", "q_10"),
)
# the keys that carry the ERB, which a target's report lacks where its power's
# tail does not decay fast enough for the integral to exist (v at b_u <= 3/4)
ERB_KEYS = ("erb_beta", "q_erb") + tuple(
    name for name, num, den in RATIO_KEYS if "q_erb" in (num, den))


def _target_errors(desired: dict, achieved: CharacteristicReport, flat: dict) -> dict:
    """_flat_errors of the achieved flat map against the desired one, less
    the ERB's keys where the achieved ERB diverges."""
    if achieved.erb_beta is None:
        desired = {key: value for key, value in desired.items() if key not in ERB_KEYS}
    return _flat_errors(desired, flat)


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


# the constants of each spec whose design gave a SharpnessWarning, by _spec_key
_NOT_SHARP: dict = {}


def _spec_key(spec: CharacteristicSpec) -> tuple:
    return (spec.row, spec.beta_peak, *sorted(spec.values.items()), spec.n_level, spec.mode)


def _designed(spec: CharacteristicSpec):
    """The constants designed from spec.  Every design here goes through this
    one call, so a spec's SharpnessWarning is shown once per process however
    many tables are built from it, whatever the warning filters do (a change
    of them, as importing numpy makes, clears the registry that would hold it
    back): the constants of a spec that is not sharp are kept, and returned
    again without a design.  A sharp spec is looked up only once some spec
    was not."""
    if _NOT_SHARP:
        theta = _NOT_SHARP.get(_spec_key(spec))
        if theta is not None:
            return theta
    theta = design(spec)
    if not sharpness_check(theta).satisfied:
        _NOT_SHARP[_spec_key(spec)] = theta
    return theta


def evaluate_case(spec: CharacteristicSpec) -> list[ErrorRecord]:
    """Design a filter, then extract its characteristics numerically from
    the sharp form, the full filter, and the single-zero variant.

    Returns one ErrorRecord per target, in that order; the probes read each
    target from the constants, with no sampled grid.  A target whose ERB
    diverges has no error for it (see ERB_KEYS).  The desired report
    is the closed-form characteristic set of the designed constants (the
    specified trio is reproduced within design tolerances, so the remaining
    characteristics inherit their desired values from the same constants).
    """
    theta = _designed(spec)
    desired = closed_form(theta)
    flat = desired.characteristics()
    records = []
    for target in TARGETS:
        achieved = extract_numeric(log_probe(theta, target))
        records.append(
            ErrorRecord(
                target=target,
                desired=desired,
                achieved=achieved,
                errors=_target_errors(flat, achieved, achieved.characteristics()),
            )
        )
    return records


def sweep(q_erb_values, n_values) -> SweepResult:
    """Error surfaces over desired (Q_erb, N) with beta_peak = 1 throughout.

    Each cell designs through the exact delay+Q_erb solve and extracts from
    the full filter.  Cells whose implicit solve has no solution inside the
    exponent bracket are recorded as None, never as zero.  Raises OutOfRange
    when an axis value is not finite and > 0.
    """
    q_axis = tuple(_finite_positive("Q_erb", q, OutOfRange) for q in q_erb_values)
    n_axis = tuple(_finite_positive("N", n, OutOfRange) for n in n_values)

    cells: dict[tuple[int, int], dict] = {}
    keys: set[str] = set()
    for i, q_erb in enumerate(q_axis):
        for j, n_cyc in enumerate(n_axis):
            try:
                theta = _designed(
                    CharacteristicSpec(
                        row=DesignRow.PEAK_DELAY_QERB,
                        beta_peak=1.0,
                        values={"q_erb": q_erb, "n_cycles": n_cyc},
                        mode="exact",
                    )
                )
                achieved = extract_numeric(log_probe(theta, "p"))
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
    desired = dict(records[0].desired.characteristics())
    desired.update(_ratios(desired))
    achieved, errors = {}, {}
    for record in records:
        flat = record.achieved.characteristics()
        achieved[record.target] = {**flat, **_ratios(flat)}
        errors[record.target] = _target_errors(desired, record.achieved, achieved[record.target])
    return {"desired": desired, "achieved": achieved, "errors": errors}


def response_table(spec: CharacteristicSpec) -> dict:
    """Response table for one designed case, column name -> float array: the
    level and phase of the three targets over the default grid (from
    GRID_FLOOR b_p to b_p + max(8 b_p, 60 a_p)) from their log responses L,
    DB_PER_LOG * Re L less its maximum (finite where |H| underflows or
    overflows) and Im L less its value at beta = 0."""
    theta = _designed(spec)
    from .core import log_response
    from .grid import default_grid

    grid = default_grid(theta)
    columns = {"beta": grid.samples}
    at_zero = log_response(theta, 0.0)
    for target, log_h in log_response(theta, grid.samples).items():
        level = DB_PER_LOG * log_h.re
        columns[f"{target}_level_db"] = level - level.max()
        columns[f"{target}_phase_rad"] = log_h.im - at_zero[target].im
    return columns

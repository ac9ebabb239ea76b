"""Bit-exact pin of the audit path.

Every float that evaluate_case and sweep return, and the log responses and
scalar probes they are built from, is stored as float.hex in
data/audit_pin.json.  The default grid of each case's constants and the log
responses on it, which response tables print and which the audit does not
read, are pinned apart, by sha256 digests, so that a change of the grid
leaves the records' pin as it is.  The CLI goldens print 12 digits, so a
drift in the last bit shows only here.

Regenerate the pin, after a change that is meant to move the numbers, with

    PYTHONPATH=src python tests/test_audit_pin.py
"""

import hashlib
import json
import random
import warnings
from pathlib import Path

import numpy as np
import pytest

from gefdesign import CharacteristicSpec, FilterConstants, evaluate_case, sweep
from gefdesign.grid import default_grid
from gefdesign.core import _unit_peak_gain, log_response
from gefdesign.design import DesignRow, design
from gefdesign.probe import TARGETS, _re_at
from gefdesign.scalar import CHARACTERISTIC

PIN_PATH = Path(__file__).resolve().parent / "data" / "audit_pin.json"

QN_LEVEL_DB = 10.0
SWEEP_Q = (3.0, 20.0, 24.0, 60.0)  # 3 and 60 are out of reach of every N here
SWEEP_N = (14.0, 17.0, 20.0)

# (a_p, b_p, b_u, gain) for log_response: sharp and wide, integer and not,
# and a_p whose square underflows (the hypot branch of the pole logs)
LOG_THETAS = ((0.05, 1.0, 6.0, 1.0), (0.13, 1.3, 4.7, 2.5), (1e-160, 1.0, 3.5, 1.0))
LOG_BETAS = {
    "python_float": 0.97,
    "zero_d": np.float64(1.0),
    "one_element": np.array([0.5]),
    "two_d": np.array([[0.0, 0.25, 0.5, 0.75], [1.0, 1.25, 2.0, 1e155], [1e-300, 3.0, 7.5, 40.0]]),
}
PROBE_BETAS = (0.0, 0.5, 0.999, 1.0, 1.7, 1e155)


def _hex(value):
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return {str(key): _hex(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_hex(item) for item in value]
    return value


def _digest(array) -> str:
    return hashlib.sha256(np.ascontiguousarray(array, dtype="<f8").tobytes()).hexdigest()


def _specs():
    """Two specs per design row, one with an integer exponent and one
    without, from seeded constants with a_p < 0.2 b_p, and the approximate
    delay + Q_erb inverse on one of them."""
    rng = random.Random("audit-pin")
    specs = []
    for integer_bu in (True, False):
        for row in DesignRow:
            b_p = rng.uniform(0.5, 2.0)
            a_p = rng.uniform(0.01, 0.19) * b_p
            b_u = float(rng.randint(2, 20)) if integer_bu else rng.uniform(1.5, 20.0)
            values = {key: CHARACTERISTIC[key](a_p, b_p, b_u, QN_LEVEL_DB) for key in row.keys}
            n_level = QN_LEVEL_DB if "q_n" in row.keys else None
            specs.append(CharacteristicSpec(row, b_p, values, n_level=n_level))
    approx = specs[1]
    specs.append(CharacteristicSpec(approx.row, approx.beta_peak, approx.values, mode="approx"))
    return specs


def build_pin() -> dict:
    cases, grids = [], []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for spec in _specs():
            theta = design(spec)
            records = evaluate_case(spec)
            cases.append({
                "spec": _hex(spec.as_dict()),
                "theta": _hex(theta.as_dict()),
                "desired": _hex(records[0].desired.characteristics()),
                "records": [{"target": record.target,
                             "achieved": _hex(record.achieved.as_dict()),
                             "errors": _hex(record.errors)} for record in records],
            })
            grid = default_grid(theta)
            grids.append({
                "theta": _hex(theta.as_dict()),
                "grid_samples_sha256": _digest(grid.samples),
                "log_sha256": {target: [_digest(log.re), _digest(log.im)]
                               for target, log in log_response(theta, grid.samples).items()},
            })
        result = sweep(SWEEP_Q, SWEEP_N)
    logs = []
    for a_p, b_p, b_u, gain in LOG_THETAS:
        theta = FilterConstants(a_p, b_p, b_u, gain)
        entry = {"theta": _hex(theta.as_dict()), "betas": {}}
        for name, betas in LOG_BETAS.items():
            entry["betas"][name] = {
                target: {"shape": list(log.re.shape),
                         "re": _hex(np.ravel(log.re).tolist()),
                         "im": _hex(np.ravel(log.im).tolist())}
                for target, log in log_response(theta, betas).items()
            }
        entry["re_at"] = {target: [_re_at(theta, target)(beta).hex() for beta in PROBE_BETAS]
                          for target in TARGETS}
        entry["unit_peak_gain"] = _unit_peak_gain(theta).hex()
        logs.append(entry)
    return {
        "cases": cases,
        "grids": grids,
        "sweep": {"q_erb_axis": _hex(result.q_erb_axis), "n_axis": _hex(result.n_axis),
                  "error_grids": _hex(dict(sorted(result.error_grids.items())))},
        "log_response": logs,
    }


@pytest.fixture(scope="module")
def pins():
    return json.loads(PIN_PATH.read_text()), build_pin()


def test_every_evaluate_case_record_is_bit_identical(pins):
    stored, built = pins
    assert len(built["cases"]) == len(stored["cases"]) == 15
    for want, got in zip(stored["cases"], built["cases"]):
        assert got == want, want["spec"]


def test_default_grids_and_their_log_responses_are_bit_identical(pins):
    stored, built = pins
    assert len(built["grids"]) == len(stored["grids"]) == 15
    for want, got in zip(stored["grids"], built["grids"]):
        assert got == want, want["theta"]


def test_sweep_grid_is_bit_identical_with_its_infeasible_cells(pins):
    stored, built = pins
    assert built["sweep"] == stored["sweep"]
    cells = [cell for grid in built["sweep"]["error_grids"].values() for row in grid
             for cell in row]
    assert None in cells and any(cell is not None for cell in cells)


def test_log_responses_and_probes_are_bit_identical(pins):
    stored, built = pins
    for want, got in zip(stored["log_response"], built["log_response"], strict=True):
        assert got == want, want["theta"]


if __name__ == "__main__":
    PIN_PATH.write_text(json.dumps(build_pin(), indent=1) + "\n")
    print(f"wrote {PIN_PATH}")

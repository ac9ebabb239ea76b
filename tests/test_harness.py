import json
import math
import warnings

import numpy as np
import pytest

from gefdesign import (
    CharacteristicSpec,
    DesignRow,
    evaluate_case,
    figure_report,
    sweep,
)
from gefdesign import grid, harness
from gefdesign.cli import run
from gefdesign.design import SharpnessWarning, design
from gefdesign.errors import OutOfRange
from gefdesign.harness import response_table

import reference

N_SHARP6 = 6.0 / (2.0 * math.pi * 0.05)
N_WIDE7 = 7.0 / (2.0 * math.pi * 0.1)

MAGNITUDE_KEYS = (
    "beta_peak", "bw_3_beta", "bw_10_beta", "erb_beta",
    "q_3", "q_10", "q_erb", "s_beta",
)


@pytest.fixture(scope="module")
def spec_sharp6():
    return CharacteristicSpec(
        row=DesignRow.PEAK_DELAY_PHASE,
        beta_peak=1.0,
        values={"n_cycles": N_SHARP6, "phi_accum": 3.0},
    )


@pytest.fixture(scope="module")
def spec_wide7():
    return CharacteristicSpec(
        row=DesignRow.PEAK_DELAY_PHASE,
        beta_peak=1.0,
        values={"n_cycles": N_WIDE7, "phi_accum": 3.5},
    )


@pytest.fixture(scope="module")
def records_sharp6(spec_sharp6):
    return evaluate_case(spec_sharp6)


class TestEvaluateCase:
    def test_three_targets_in_order(self, records_sharp6):
        assert [r.target for r in records_sharp6] == ["p_sharp", "p", "v"]

    def test_full_filter_magnitude_errors_small(self, records_sharp6):
        errors = next(r for r in records_sharp6 if r.target == "p").errors
        for key in MAGNITUDE_KEYS:
            assert abs(errors[key]) < 0.015, key
        assert abs(errors["n_beta"]) < 0.001

    def test_sharp_target_grid_resolution_only(self, records_sharp6):
        errors = next(r for r in records_sharp6 if r.target == "p_sharp").errors
        for key, value in errors.items():
            if key != "phi_accum":  # finite-range limited by construction
                assert abs(value) < 0.002, key

    def test_v_errors_present_and_finite(self, records_sharp6):
        errors = next(r for r in records_sharp6 if r.target == "v").errors
        assert set(MAGNITUDE_KEYS) <= set(errors)
        assert all(np.isfinite(list(errors.values())))

    def test_evaluate_case_sweep_and_analyze_build_no_grid(self, spec_sharp6, monkeypatch,
                                                           tmp_path, capsys):
        # every target is read from probes of the constants; no grid is sampled
        def refuse(*args, **kwargs):
            raise AssertionError("a grid was built")

        monkeypatch.setattr(grid, "default_grid", refuse)
        monkeypatch.setattr(grid, "FrequencyGrid", refuse)
        assert len(evaluate_case(spec_sharp6)) == 3
        result = sweep([20.0, 25.0], [15.0, 19.0])
        assert any(cell is not None for row in result.error_grids["q_erb"] for cell in row)
        assert figure_report(spec_sharp6)["desired"]
        constants = tmp_path / "c.json"
        constants.write_text(json.dumps({"a_p": 0.05, "b_p": 1.0, "b_u": 6.0}))
        assert run(["analyze", "--constants", str(constants)]) == 0

    def test_figure_report_leaves_the_desired_report_as_it_was(self, spec_sharp6,
                                                               monkeypatch):
        # the report's flat map is built once and shared; the table adds the
        # ratios to a copy of it
        records = evaluate_case(spec_sharp6)
        monkeypatch.setattr(harness, "evaluate_case", lambda spec: records)
        keys = list(records[0].desired.characteristics())
        table = figure_report(spec_sharp6)
        assert "q_erb_over_n" in table["desired"]
        assert list(records[0].desired.characteristics()) == keys

    def test_a_diverging_erb_is_left_out_of_its_target(self):
        # b_u = 0.7: v's power falls as beta**-1.2 far out, so its ERB does
        # not exist; the other characteristics and targets are reported
        spec = CharacteristicSpec(row=DesignRow.PEAK_DELAY_PHASE, beta_peak=1.0,
                                  values={"n_cycles": 2.0, "phi_accum": 0.35})
        records = {record.target: record for record in evaluate_case(spec)}
        assert records["v"].achieved.erb_beta is None
        assert not set(harness.ERB_KEYS) & set(records["v"].errors)
        assert "n_beta" in records["v"].errors and "erb_beta" in records["p"].errors
        table = figure_report(spec)
        assert "q_erb_over_n" in table["errors"]["p"]
        assert "q_erb_over_n" not in table["errors"]["v"]

    # b_u 0.52 and 0.76: p_sharp's and v's power decay at rate 0.04 in the log
    # of the distance from the peak, so far out that the Laguerre rule's
    # nodes would pass the largest float
    @pytest.mark.parametrize("phi_accum, target", [(0.26, "p_sharp"), (0.38, "v")])
    def test_a_slowly_decaying_erb_is_reported(self, phi_accum, target):
        spec = CharacteristicSpec(row=DesignRow.PEAK_DELAY_PHASE, beta_peak=1.0,
                                  values={"n_cycles": 2.0, "phi_accum": phi_accum})
        records = {record.target: record for record in evaluate_case(spec)}
        want = reference.erb_beta(design(spec), target)
        assert records[target].achieved.erb_beta == pytest.approx(want, rel=1e-12)
        assert "erb_beta" in records[target].errors
        assert "q_erb_over_n" in figure_report(spec)["errors"][target]

    def test_sharper_case_beats_wider_case(self, records_sharp6, spec_wide7):
        sharp_errors = next(r for r in records_sharp6 if r.target == "p").errors
        wide_errors = next(r for r in evaluate_case(spec_wide7) if r.target == "p").errors
        for key in MAGNITUDE_KEYS:
            assert abs(sharp_errors[key]) < abs(wide_errors[key]), key


class TestSweep:
    def test_grid_shapes_and_feasibility(self):
        result = sweep([13.5, 19.0, 24.5], [13.0, 15.0, 18.5])
        assert result.q_erb_axis == (13.5, 19.0, 24.5)
        grid = result.error_grids["q_erb"]
        assert len(grid) == 3 and len(grid[0]) == 3
        # all ratios Q_erb/N here are below the feasibility ceiling
        assert all(value is not None for row in grid for value in row)

    def test_infeasible_cells_are_none_not_zero(self):
        # Q_erb / N = 30/8 = 3.75 exceeds the achievable maximum ratio
        result = sweep([30.0], [8.0, 15.0])
        grid = result.error_grids["q_erb"]
        assert grid[0][0] is None
        assert grid[0][1] is not None

    def test_sharper_cells_have_smaller_errors(self):
        result = sweep([13.5, 30.0], [15.0])
        grid = result.error_grids["q_erb"]
        assert abs(grid[1][0]) < abs(grid[0][0])

    def test_degenerate_single_cell_matches_evaluate_case(self, spec_sharp6):
        q_erb = 25.868993924419065
        result = sweep([q_erb], [N_SHARP6])
        spec = CharacteristicSpec(
            row=DesignRow.PEAK_DELAY_QERB,
            beta_peak=1.0,
            values={"q_erb": q_erb, "n_cycles": N_SHARP6},
        )
        record = next(r for r in evaluate_case(spec) if r.target == "p")
        for key, grid in result.error_grids.items():
            assert grid[0][0] == pytest.approx(record.errors[key], rel=1e-6, abs=1e-12)

    @pytest.mark.parametrize("q_erb, n_cycles", [
        (math.nan, 15.0), (20.0, math.inf), (-1.0, 15.0), (20.0, 0.0),
    ])
    def test_non_finite_or_non_positive_axis_raises(self, q_erb, n_cycles):
        with pytest.raises(OutOfRange):
            sweep([q_erb], [n_cycles])

    def test_csv_and_json_output(self, tmp_path):
        # only the (30, 10.5) cell has Q_erb / N above the achievable ratio
        argv = ["sweep", "--qerb", "20,30", "--n", "10.5,16"]
        assert run([*argv, "--out", str(tmp_path / "s.csv")]) == 0
        rows = [line.split(",") for line in (tmp_path / "s.csv").read_text().splitlines()]
        assert rows[0] == ["q_erb", "n_cycles", "characteristic", "rel_error"]
        # infeasible cell written as an empty field
        empties = [row for row in rows[1:] if row[3] == ""]
        assert empties and all(row[0] == "3.000000000000e+01" for row in empties)
        assert all(row[1] == "1.050000000000e+01" for row in empties)
        assert run([*argv, "--format", "json", "--out", str(tmp_path / "s.json")]) == 0
        text = (tmp_path / "s.json").read_text()
        assert text.startswith('{\n  "error_grids"') and text.endswith("}\n")
        data = json.loads(text)
        assert data["q_erb_axis"] == [20.0, 30.0]
        assert data["error_grids"]["q_erb"][1][0] is None
        assert data["error_grids"]["q_erb"][1][1] is not None


class TestFigureReport:
    def test_desired_column_reference_values(self, spec_sharp6):
        desired = figure_report(spec_sharp6)["desired"]
        assert desired["q_erb"] == pytest.approx(25.9, abs=0.05)
        assert desired["q_10"] == pytest.approx(14.6, abs=0.05)
        assert desired["erb_beta"] == pytest.approx(0.039, abs=5e-4)
        assert desired["s_beta"] == pytest.approx(2.08e4, rel=5e-3)
        assert desired["q_erb_over_n"] == pytest.approx(1.35, abs=0.01)
        assert desired["q_10_over_n"] == pytest.approx(0.77, abs=0.01)
        assert desired["q_erb_over_q_10"] == pytest.approx(1.77, abs=0.01)

    def test_wide_case_ratio_values(self, spec_wide7):
        desired = figure_report(spec_wide7)["desired"]
        assert desired["q_erb_over_n"] == pytest.approx(1.27, abs=0.01)
        assert desired["q_10_over_n"] == pytest.approx(0.72, abs=0.01)
        assert desired["q_erb_over_q_10"] == pytest.approx(1.76, abs=0.01)

    def test_errors_are_the_evaluate_case_errors(self, spec_sharp6, records_sharp6):
        table = figure_report(spec_sharp6)
        desired = table["desired"]
        for record in records_sharp6:
            errors = table["errors"][record.target]
            assert {key: errors[key] for key in record.errors} == record.errors
            achieved = table["achieved"][record.target]
            for key in ("q_erb_over_n", "q_10_over_n", "q_erb_over_q_10"):
                assert errors[key] == (desired[key] - achieved[key]) / desired[key]

    def test_targets_in_order(self, spec_sharp6):
        table = figure_report(spec_sharp6)
        assert list(table) == ["desired", "achieved", "errors"]
        assert list(table["achieved"]) == list(table["errors"]) == ["p_sharp", "p", "v"]
        assert table["desired"]["q_erb"] == pytest.approx(25.869, abs=1e-3)
        for errors in table["errors"].values():
            assert abs(errors["q_erb"]) < 0.02

    def test_response_table_columns(self, spec_sharp6):
        columns = response_table(spec_sharp6)
        assert list(columns) == [
            "beta", "p_sharp_level_db", "p_sharp_phase_rad", "p_level_db", "p_phase_rad",
            "v_level_db", "v_phase_rad",
        ]
        assert {column.shape for column in columns.values()} == {columns["beta"].shape}
        # peak-normalized: maxima at 0 dB
        assert columns["p_level_db"].max() == pytest.approx(0.0, abs=1e-12)
        # phase referenced to zero at beta -> 0
        assert abs(columns["p_phase_rad"][0]) < 1e-2

    def test_byte_identical_reruns(self, tmp_path):
        spec = {"row": "II.1", "beta_peak": 1.0, "n_cycles": N_SHARP6, "phi_accum": 3.0}
        (tmp_path / "spec.json").write_text(json.dumps(spec))
        outputs = []
        for k in range(2):
            errors, response = tmp_path / f"errors{k}.csv", tmp_path / f"response{k}.csv"
            assert run(["evaluate", "--spec", str(tmp_path / "spec.json"),
                        "--errors-out", str(errors), "--response-out", str(response)]) == 0
            outputs.append((errors.read_bytes(), response.read_bytes()))
        assert outputs[0] == outputs[1]


class TestSharpnessWarningOnce:
    """A spec that is not sharp warns once per process, however many tables
    are built from it and whatever the warning filters do between them."""

    SPEC = CharacteristicSpec(row=DesignRow.PEAK_DELAY_PHASE, beta_peak=1.0,
                              values={"n_cycles": 3.0, "phi_accum": 3.0})

    def test_one_warning_across_tables_and_filter_changes(self, monkeypatch):
        monkeypatch.setattr(harness, "_NOT_SHARP", {})
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("default")
            response_table(self.SPEC)
            # each change of the filters clears the registry of shown warnings
            warnings.simplefilter("default")
            figure_report(self.SPEC)
            warnings.filterwarnings("default", category=SharpnessWarning)
            evaluate_case(self.SPEC)
            response_table(self.SPEC)
        assert [w.category for w in caught] == [SharpnessWarning]

    def test_tables_are_those_of_the_design(self, monkeypatch):
        monkeypatch.setattr(harness, "_NOT_SHARP", {})
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", SharpnessWarning)
            first, again = figure_report(self.SPEC), figure_report(self.SPEC)
            theta = design(self.SPEC)
        assert first == again
        assert harness._NOT_SHARP == {harness._spec_key(self.SPEC): theta}

    def test_sharp_specs_are_not_kept(self, monkeypatch, spec_sharp6):
        monkeypatch.setattr(harness, "_NOT_SHARP", {})
        evaluate_case(spec_sharp6)
        assert harness._NOT_SHARP == {}

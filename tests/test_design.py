import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gefdesign import (
    CharacteristicSpec,
    DesignRow,
    FilterConstants,
    SharpnessWarning,
    closed_form,
    design,
)
from gefdesign.design import (
    qerb_delay_approx_exponent,
    qerb_over_delay,
    qn_over_delay,
)
from gefdesign.errors import BracketFailure, ErbRequiresBu, InfeasibleSpec, OutOfRange

N_SHARP6 = 6.0 / (2.0 * math.pi * 0.05)  # 19.098593...


def spec_for(row, beta_peak, values, n_level=None, mode="exact"):
    return CharacteristicSpec(
        row=row, beta_peak=beta_peak, values=values, n_level=n_level, mode=mode
    )


def trio_specs(report, n_level=10.0):
    """All seven spec rows for a closed-form report of some constants."""
    b = report.beta_peak
    return {
        DesignRow.PEAK_DELAY_PHASE: spec_for(
            DesignRow.PEAK_DELAY_PHASE, b,
            {"n_cycles": report.n_beta, "phi_accum": report.phi_accum}),
        DesignRow.PEAK_DELAY_QERB: spec_for(
            DesignRow.PEAK_DELAY_QERB, b,
            {"n_cycles": report.n_beta, "q_erb": report.q_erb}),
        DesignRow.PEAK_QERB_PHASE: spec_for(
            DesignRow.PEAK_QERB_PHASE, b,
            {"q_erb": report.q_erb, "phi_accum": report.phi_accum}),
        DesignRow.PEAK_QN_PHASE: spec_for(
            DesignRow.PEAK_QN_PHASE, b,
            {"q_n": report.q_n[n_level], "phi_accum": report.phi_accum}, n_level),
        DesignRow.PEAK_CONVEXITY_DELAY: spec_for(
            DesignRow.PEAK_CONVEXITY_DELAY, b,
            {"s_beta": report.s_beta, "n_cycles": report.n_beta}),
        DesignRow.PEAK_CONVEXITY_PHASE: spec_for(
            DesignRow.PEAK_CONVEXITY_PHASE, b,
            {"s_beta": report.s_beta, "phi_accum": report.phi_accum}),
        DesignRow.PEAK_QN_DELAY: spec_for(
            DesignRow.PEAK_QN_DELAY, b,
            {"q_n": report.q_n[n_level], "n_cycles": report.n_beta}, n_level),
    }


CLOSED_ROWS = (
    DesignRow.PEAK_DELAY_PHASE,
    DesignRow.PEAK_QERB_PHASE,
    DesignRow.PEAK_QN_PHASE,
    DesignRow.PEAK_CONVEXITY_DELAY,
    DesignRow.PEAK_CONVEXITY_PHASE,
)
IMPLICIT_ROWS = (DesignRow.PEAK_DELAY_QERB, DesignRow.PEAK_QN_DELAY)


# design() output at 12 significant digits for the constants
# (a_p, b_p, b_u) = (0.0731, 1.37, 5.37), recorded before the rows became
# one table: (row, values, n_level, mode, integer_snap, a_p, b_u)
GOLDEN = [
    ("II.1", {"n_cycles": 11.69168323, "phi_accum": 2.685}, None, "exact", False, "0.0731000000248", "5.37"),
    ("II.1", {"n_cycles": 11.69168323, "phi_accum": 2.685}, None, "exact", True, "0.0680633147345", "5"),
    ("II.2", {"n_cycles": 11.69168323, "q_erb": 22.74389748}, None, "exact", False, "0.0730999999534", "5.36999999475"),
    ("II.2", {"n_cycles": 11.69168323, "q_erb": 22.74389748}, None, "exact", True, "0.0680633147345", "5"),
    ("II.2", {"n_cycles": 11.69168323, "q_erb": 22.74389748}, None, "approx", False, "0.0675194587641", "4.96004778988"),
    ("II.2", {"n_cycles": 11.69168323, "q_erb": 22.74389748}, None, "approx", True, "0.0680633147345", "5"),
    ("II.3", {"q_erb": 22.74389748, "phi_accum": 2.685}, None, "exact", False, "0.0730999999948", "5.37"),
    ("II.3", {"q_erb": 22.74389748, "phi_accum": 2.685}, None, "exact", True, "0.0701209402155", "5"),
    ("II.4", {"q_n": 12.80668088, "phi_accum": 2.685}, 10.0, "exact", False, "0.073099999995", "5.37"),
    ("II.4", {"q_n": 12.80668088, "phi_accum": 2.685}, 10.0, "exact", True, "0.0699384012473", "5"),
    ("II.5", {"s_beta": 8728.78585, "n_cycles": 11.69168323}, None, "exact", False, "0.0730999999759", "5.36999999641"),
    ("II.5", {"s_beta": 8728.78585, "n_cycles": 11.69168323}, None, "exact", True, "0.0680633147345", "5"),
    ("II.6", {"s_beta": 8728.78585, "phi_accum": 2.685}, None, "exact", False, "0.0731000000004", "5.37"),
    ("II.6", {"s_beta": 8728.78585, "phi_accum": 2.685}, None, "exact", True, "0.0705367160098", "5"),
    ("II.7", {"q_n": 12.80668088, "n_cycles": 11.69168323}, 10.0, "exact", False, "0.0730999999473", "5.3699999943"),
    ("II.7", {"q_n": 12.80668088, "n_cycles": 11.69168323}, 10.0, "exact", True, "0.0680633147345", "5"),
]


@pytest.mark.parametrize("code, values, n_level, mode, snap, a_p, b_u", GOLDEN)
def test_golden_design_output(code, values, n_level, mode, snap, a_p, b_u):
    theta = design(spec_for(DesignRow(code), 1.37, values, n_level, mode), integer_snap=snap)
    assert theta.b_p == 1.37
    assert (f"{theta.a_p:.12g}", f"{theta.b_u:.12g}") == (a_p, b_u)


class TestSpecValidation:
    def test_rejects_wrong_field_set(self):
        with pytest.raises(InfeasibleSpec):
            spec_for(DesignRow.PEAK_DELAY_PHASE, 1.0, {"n_cycles": 19.1, "q_erb": 25.9})

    def test_rejects_non_positive_values(self):
        with pytest.raises(InfeasibleSpec):
            spec_for(DesignRow.PEAK_DELAY_PHASE, 1.0, {"n_cycles": -19.1, "phi_accum": 3.0})
        with pytest.raises(InfeasibleSpec):
            spec_for(DesignRow.PEAK_DELAY_PHASE, 0.0, {"n_cycles": 19.1, "phi_accum": 3.0})

    def test_qn_rows_need_level(self):
        with pytest.raises(InfeasibleSpec):
            spec_for(DesignRow.PEAK_QN_PHASE, 1.0, {"q_n": 14.6, "phi_accum": 3.0})
        with pytest.raises(InfeasibleSpec):
            spec_for(DesignRow.PEAK_DELAY_PHASE, 1.0,
                     {"n_cycles": 19.1, "phi_accum": 3.0}, n_level=10.0)

    def test_approx_mode_only_where_printed(self):
        with pytest.raises(InfeasibleSpec):
            spec_for(DesignRow.PEAK_QN_DELAY, 1.0,
                     {"q_n": 14.6, "n_cycles": 19.1}, 10.0, mode="approx")

    @pytest.mark.parametrize("data", [
        {"beta_peak": 1.0, "n_cycles": 19.1, "phi_accum": 3.0},
        {"row": "II.1", "n_cycles": 19.1, "phi_accum": 3.0},
        {"row": "II.9", "beta_peak": 1.0, "n_cycles": 19.1, "phi_accum": 3.0},
        {"row": "II.1", "beta_peak": 1.0, "n_cycles": "x", "phi_accum": 3.0},
        {"row": "II.1", "beta_peak": 1.0, "n_cycles": 19.1, "phi_accum": 3.0, "q_n": 9.0},
        ["row", "II.1"],
    ])
    def test_from_dict_rejects_bad_fields(self, data):
        with pytest.raises(InfeasibleSpec):
            CharacteristicSpec.from_dict(data)

    def test_each_key_set_names_one_row(self):
        for row in DesignRow:
            assert DesignRow.for_keys(reversed(row.keys)) is row
        assert DesignRow.for_keys({"q_erb", "q_n"}) is None

    def test_json_round_trip(self):
        spec = CharacteristicSpec.from_dict(
            {"row": "II.2", "beta_peak": 1.0, "n_cycles": 19.1, "q_erb": 25.9, "mode": "exact"}
        )
        assert spec.row is DesignRow.PEAK_DELAY_QERB
        assert spec.values == {"n_cycles": 19.1, "q_erb": 25.9}
        assert CharacteristicSpec.from_dict(json.loads(json.dumps(spec.as_dict()))) == spec

    @pytest.mark.parametrize("row, beta_peak, values, n_level, mode", [
        (DesignRow.PEAK_CONVEXITY_DELAY, 1.0, {"n_cycles": 1e200, "s_beta": 1.0}, None, "exact"),
        (DesignRow.PEAK_DELAY_QERB, 1e-200, {"n_cycles": 1e-200, "q_erb": 1.0}, None, "exact"),
        (DesignRow.PEAK_DELAY_QERB, 1e-200, {"n_cycles": 1e-200, "q_erb": 1.0}, None, "approx"),
        (DesignRow.PEAK_QN_DELAY, 1e-200, {"n_cycles": 1e-200, "q_n": 1.0}, 10.0, "exact"),
    ])
    def test_overflowing_delay_terms_raise_out_of_range(self, row, beta_peak, values, n_level, mode):
        with pytest.raises(OutOfRange):
            design(spec_for(row, beta_peak, values, n_level, mode=mode))


class TestDesignRows:
    def test_delay_phase_reference_case(self):
        theta = design(spec_for(DesignRow.PEAK_DELAY_PHASE, 1.0,
                                {"n_cycles": N_SHARP6, "phi_accum": 3.0}))
        assert theta.b_p == 1.0
        assert theta.a_p == pytest.approx(0.05, rel=1e-12)
        assert theta.b_u == pytest.approx(6.0, rel=1e-12)

    def test_convexity_delay_reference_case(self, theta_sharp6):
        report = closed_form(theta_sharp6)
        theta = design(spec_for(DesignRow.PEAK_CONVEXITY_DELAY, 1.0,
                                {"s_beta": report.s_beta, "n_cycles": report.n_beta}))
        assert theta.a_p == pytest.approx(0.05, rel=1e-9)
        assert theta.b_u == pytest.approx(6.0, rel=1e-9)

    def test_qn_phase_reference_case(self, theta_sharp6):
        q10 = closed_form(theta_sharp6).q_n[10.0]
        theta = design(spec_for(DesignRow.PEAK_QN_PHASE, 1.0,
                                {"q_n": q10, "phi_accum": 3.0}, 10.0))
        assert theta.a_p == pytest.approx(0.05, rel=1e-9)
        assert theta.b_u == 6.0

    def test_delay_qerb_approx_vs_exact(self, theta_sharp6):
        report = closed_form(theta_sharp6)
        values = {"n_cycles": report.n_beta, "q_erb": report.q_erb}
        approx = design(spec_for(DesignRow.PEAK_DELAY_QERB, 1.0, values, mode="approx"))
        exact = design(spec_for(DesignRow.PEAK_DELAY_QERB, 1.0, values, mode="exact"))
        # printed power-law inverse carries a visible bias at b_u = 6
        plugin = qerb_delay_approx_exponent(report.q_erb / report.n_beta)
        assert approx.b_u == pytest.approx(plugin, rel=1e-12)
        assert approx.b_u == pytest.approx(5.553, abs=2e-3)
        assert exact.b_u == pytest.approx(6.0, abs=1e-6)
        assert exact.a_p == pytest.approx(0.05, abs=1e-7)
        # both options preserve the delay through a_p = b_u / (2 pi N)
        assert approx.a_p == pytest.approx(approx.b_u / (2 * math.pi * report.n_beta), rel=1e-12)

    def test_qn_delay_reference_case(self, theta_sharp6):
        report = closed_form(theta_sharp6)
        theta = design(spec_for(DesignRow.PEAK_QN_DELAY, 1.0,
                                {"q_n": report.q_n[10.0], "n_cycles": report.n_beta}, 10.0))
        assert theta.b_u == pytest.approx(6.0, abs=1e-6)
        assert theta.a_p == pytest.approx(0.05, abs=1e-7)

    def test_erb_requires_exponent(self):
        with pytest.raises(ErbRequiresBu):
            design(spec_for(DesignRow.PEAK_QERB_PHASE, 1.0,
                            {"q_erb": 25.9, "phi_accum": 0.2}))


class TestRoundTrip:
    @pytest.mark.parametrize("row", CLOSED_ROWS)
    def test_closed_rows_machine_precision(self, row):
        for a_p in (0.01, 0.05, 0.2):
            for b_u in (2.0, 6.0, 12.0):
                for b_p in (0.5, 1.0, 2.0):
                    theta = FilterConstants(a_p, b_p, b_u)
                    spec = trio_specs(closed_form(theta))[row]
                    with warnings.catch_warnings():
                        warnings.simplefilter("ignore", SharpnessWarning)
                        got = design(spec)
                    assert got.a_p == pytest.approx(a_p, rel=1e-9)
                    assert got.b_p == pytest.approx(b_p, rel=1e-9)
                    assert got.b_u == pytest.approx(b_u, rel=1e-9)

    @pytest.mark.parametrize("row", IMPLICIT_ROWS)
    def test_implicit_rows_solver_precision(self, row):
        for a_p in (0.02, 0.1):
            for b_u in (2.0, 5.0, 11.0):
                theta = FilterConstants(a_p, 1.0, b_u)
                spec = trio_specs(closed_form(theta))[row]
                got = design(spec)
                assert got.a_p == pytest.approx(a_p, rel=1e-6)
                assert got.b_u == pytest.approx(b_u, rel=1e-6)

    @settings(max_examples=200, deadline=None)
    @given(
        sharpness=st.floats(0.005, 0.19),
        b_u=st.floats(1.5, 60.0),
        b_p=st.floats(0.2, 4.0),
    )
    def test_every_row_recovers_constants(self, sharpness, b_u, b_p):
        # theta -> closed_form -> design over the sharp domain, all seven rows
        theta = FilterConstants(sharpness * b_p, b_p, b_u)
        for row, spec in trio_specs(closed_form(theta)).items():
            tol = 1e-6 if row in IMPLICIT_ROWS else 1e-9
            got = design(spec)
            assert got.b_p == b_p
            assert got.a_p == pytest.approx(theta.a_p, rel=tol)
            assert got.b_u == pytest.approx(b_u, rel=tol)

    @settings(max_examples=60, deadline=None)
    @given(
        n_cycles=st.floats(2.0, 200.0),
        phi_accum=st.floats(0.6, 20.0),
        beta_peak=st.floats(0.2, 4.0),
    )
    def test_positive_specs_always_stable(self, n_cycles, phi_accum, beta_peak):
        # any positive trio puts the pole pair in the left half-plane
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", SharpnessWarning)
            theta = design(spec_for(DesignRow.PEAK_DELAY_PHASE, beta_peak,
                                    {"n_cycles": n_cycles, "phi_accum": phi_accum}))
        assert theta.pole.real < 0.0
        assert theta.a_p > 0.0 and theta.b_u > 0.0


class TestDelayQerbIndependence:
    def test_qerb_fixed_while_delay_scales(self):
        q_erb = 25.868993924419065
        for n_cycles in (14.0, 15.0, 20.0, 25.0):
            theta = design(spec_for(DesignRow.PEAK_DELAY_QERB, 1.0,
                                    {"n_cycles": n_cycles, "q_erb": q_erb}))
            achieved = closed_form(theta)
            assert achieved.q_erb == pytest.approx(q_erb, rel=1e-6)
            assert achieved.n_beta == pytest.approx(n_cycles, rel=1e-9)


class TestImplicitResidual:
    def test_qn_residual_monotone_on_solution_branch(self):
        for n_level in (3.0, 10.0):
            values = [qn_over_delay(b_u, n_level) for b_u in np.linspace(2.0, 64.0, 200)]
            assert all(v2 < v1 for v1, v2 in zip(values, values[1:]))

    def test_qerb_residual_monotone_on_solution_branch(self):
        values = [qerb_over_delay(b_u) for b_u in np.linspace(2.0, 64.0, 200)]
        assert all(v2 < v1 for v1, v2 in zip(values, values[1:]))

    def test_bracket_failure_when_ratio_too_large(self):
        # Q_erb / N beyond the achievable maximum (~2.09 at b_u ~ 1.4)
        with pytest.raises(BracketFailure):
            design(spec_for(DesignRow.PEAK_DELAY_QERB, 1.0,
                            {"n_cycles": 8.0, "q_erb": 30.0}))

    def test_bracket_failure_when_ratio_too_small(self):
        # would need b_u far beyond the bracket upper end
        with pytest.raises(BracketFailure):
            design(spec_for(DesignRow.PEAK_QN_DELAY, 1.0,
                            {"q_n": 0.1, "n_cycles": 100.0}, 10.0))


class TestIntegerSnap:
    def test_snap_preserves_delay(self):
        spec = spec_for(DesignRow.PEAK_DELAY_QERB, 1.0,
                        {"n_cycles": 19.0, "q_erb": 25.0})
        free = design(spec)
        snapped = design(spec, integer_snap=True)
        assert snapped.b_u == round(free.b_u)
        assert snapped.b_u / (2.0 * math.pi * snapped.a_p) == pytest.approx(19.0, rel=1e-12)

    def test_snap_preserves_bandwidth_without_delay(self):
        spec = spec_for(DesignRow.PEAK_QN_PHASE, 1.0,
                        {"q_n": 14.0, "phi_accum": 2.8}, 10.0)
        snapped = design(spec, integer_snap=True)
        assert snapped.b_u == 6.0
        q10 = closed_form(snapped).q_n[10.0]
        assert q10 == pytest.approx(14.0, rel=1e-12)

    def test_noop_for_integer_solution(self):
        spec = spec_for(DesignRow.PEAK_DELAY_PHASE, 1.0,
                        {"n_cycles": N_SHARP6, "phi_accum": 3.0})
        assert design(spec, integer_snap=True) == design(spec)


class TestSharpnessWarning:
    def test_warns_for_wide_designs(self):
        with pytest.warns(SharpnessWarning):
            design(spec_for(DesignRow.PEAK_DELAY_PHASE, 1.0,
                            {"n_cycles": 2.0, "phi_accum": 2.0}))

    def test_silent_for_sharp_designs(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", SharpnessWarning)
            design(spec_for(DesignRow.PEAK_DELAY_PHASE, 1.0,
                            {"n_cycles": N_SHARP6, "phi_accum": 3.0}))


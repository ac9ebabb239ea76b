import ast
import importlib
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar

from gefdesign import (
    CharacteristicSpec,
    DesignRow,
    FilterConstants,
    SharpnessWarning,
    closed_form,
    design,
)
from gefdesign.design import (
    B_U_BRACKET,
    QERB_ARGMAX,
    SOLVE_MAXITER,
    SOLVE_RTOL,
    _qn_argmax,
    _solve_decreasing,
    qerb_delay_approx_exponent,
    qerb_over_delay,
    qn_over_delay,
)
from gefdesign.scalar import _brentq
from gefdesign.errors import BracketFailure, ErbRequiresBu, GefError, InfeasibleSpec, OutOfRange

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
        for level in (-1.0, math.nan, math.inf):
            with pytest.raises(InfeasibleSpec):
                spec_for(DesignRow.PEAK_QN_DELAY, 1.0, {"q_n": 14.0, "n_cycles": 10.0}, level)
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


def _geometric_grid(lo, hi, n):
    """n points from lo to hi, evenly spaced in log10, with both ends exact."""
    log_lo = math.log10(lo)
    step = (math.log10(hi) - log_lo) / (n - 1)
    grid = [10.0 ** (k * step + log_lo) for k in range(n)]
    grid[0], grid[-1] = lo, hi
    return grid


SCAN_GRID = _geometric_grid(*B_U_BRACKET, 257)


def scan_solve(fn, target):
    """The reference solver: a 257-point geometric scan of the bracket from
    the largest sample on, and Brent's method between the first two samples
    that bracket the root.  It refuses a target above the largest sample,
    which lies below the true maximum by up to a few parts in 1e5."""

    def residual(x):
        return fn(x) - target

    vals = [fn(x) for x in SCAN_GRID]
    i_max = vals.index(max(vals))
    if vals[i_max] < target:
        raise BracketFailure("above the largest sample")
    for j in range(i_max, len(SCAN_GRID) - 1):
        f_a, f_b = vals[j] - target, vals[j + 1] - target
        if f_a == 0.0:
            return SCAN_GRID[j]
        if f_b == 0.0:
            return SCAN_GRID[j + 1]
        if (f_a > 0.0) != (f_b > 0.0):
            return _brentq(residual, SCAN_GRID[j], SCAN_GRID[j + 1], rtol=SOLVE_RTOL,
                           maxiter=SOLVE_MAXITER)
    raise BracketFailure("below fn(b_u_max)")


def counting(fn):
    """fn, and a list whose length is the number of calls made to it."""
    calls = []

    def counted(x):
        calls.append(x)
        return fn(x)

    return counted, calls


class TestSolveDecreasing:
    @settings(max_examples=400, derandomize=True, deadline=None)
    @given(
        log_ratio=st.floats(math.log(0.02), math.log(8.0)),
        n_level=st.floats(1.0, 80.0),
        erb=st.booleans(),
    )
    def test_agrees_with_scan(self, log_ratio, n_level, erb):
        ratio = math.exp(log_ratio)
        if erb:
            fn, x_max = qerb_over_delay, QERB_ARGMAX
        else:
            fn, x_max = (lambda x: qn_over_delay(x, n_level)), _qn_argmax(n_level)
        try:
            want = scan_solve(fn, ratio)
        except BracketFailure:
            want = None
        try:
            got = _solve_decreasing(fn, ratio, x_max)
        except BracketFailure:
            got = None
        if want is not None:
            assert got == pytest.approx(want, rel=1e-11)
        elif got is not None:
            # only a target between the largest scan sample and the true
            # maximum changes feasibility, and then the root is a true root
            assert max(fn(x) for x in SCAN_GRID) < ratio
            assert fn(got) == pytest.approx(ratio, rel=1e-12)

    def test_qerb_between_scan_and_true_maximum_designs(self):
        # the largest scan sample of Q_erb / N is 2.1033837, the maximum 2.1034354
        ratio = 2.1034
        assert max(qerb_over_delay(x) for x in SCAN_GRID) < ratio
        with pytest.raises(BracketFailure):
            scan_solve(qerb_over_delay, ratio)
        spec = spec_for(DesignRow.PEAK_DELAY_QERB, 1.0, {"n_cycles": 10.0, "q_erb": 10.0 * ratio})
        theta = design(spec)
        achieved = closed_form(theta)
        assert achieved.q_erb == pytest.approx(10.0 * ratio, rel=1e-9)
        assert achieved.n_beta == pytest.approx(10.0, rel=1e-9)

    @pytest.mark.parametrize("scale", [1.0, 1.0 - 1e-9])
    def test_maximum_at_lower_end(self, scale):
        # at 1 dB, Q_n / (beta_peak N) falls over the whole bracket
        def fn(x):
            return qn_over_delay(x, 1.0)

        assert fn(1.0) > fn(1.0 + 1e-7)
        target = scale * fn(1.0)
        got = _solve_decreasing(fn, target, _qn_argmax(1.0))
        assert got == pytest.approx(1.0, rel=1e-8)
        assert got == pytest.approx(scan_solve(fn, target), rel=1e-11)

    @pytest.mark.parametrize("n_level", [None, 7.0, 10.0, 20.0, 80.0, 400.0])
    def test_closed_form_maximum(self, n_level):
        if n_level is None:
            fn, x_max = qerb_over_delay, QERB_ARGMAX
        else:
            fn, x_max = (lambda x: qn_over_delay(x, n_level)), _qn_argmax(n_level)
        # relative neighbours: Q_n / N is a function of b_u / n over n, so its
        # peak widens in proportion to n
        assert fn(x_max) >= max(fn(x_max * (1.0 - 1e-7)), fn(x_max * (1.0 + 1e-7)))
        found = minimize_scalar(lambda x: -fn(x), bounds=B_U_BRACKET, method="bounded",
                                options={"xatol": 1e-9})
        assert x_max == pytest.approx(found.x, abs=1e-6)

    def test_qn_maximum_clips_to_the_lower_end_below_6_92_db(self):
        assert _qn_argmax(6.92) < 1.0 < _qn_argmax(6.93)
        for n_level in (1.0, 3.0, 6.92):
            assert qn_over_delay(1.0, n_level) > qn_over_delay(1.0 + 1e-7, n_level)
            fn, calls = counting(lambda x: qn_over_delay(x, n_level))
            target = qn_over_delay(1.0, n_level)
            assert _solve_decreasing(fn, target, _qn_argmax(n_level)) == 1.0
            assert calls[0] == 1.0  # the solve starts at the clipped maximum

    @pytest.mark.parametrize("n_level, b_u", [
        *((None, b_u) for b_u in (1.5, 3.0, 14.0, 30.0, 60.0)),
        *((n, b_u) for n in (1.0, 3.0, 10.0, 40.0, 80.0) for b_u in (14.0, 30.0, 60.0)),
    ])
    def test_solve_evaluates_at_most_32_points(self, n_level, b_u):
        if n_level is None:
            fn, calls = counting(qerb_over_delay)
            x_max = QERB_ARGMAX
        else:
            fn, calls = counting(lambda x: qn_over_delay(x, n_level))
            x_max = _qn_argmax(n_level)
        target = fn(b_u)
        calls.clear()
        assert _solve_decreasing(fn, target, x_max) == pytest.approx(b_u, rel=1e-11)
        assert len(calls) <= 32


def checked_brent_solve(fn, target, x_max):
    """_solve_decreasing as it was before Brent took the end values its checks
    computed, so that it evaluated them again: the reference."""
    lo, hi = B_U_BRACKET
    x_max = min(hi, max(lo, x_max))
    f_max, f_hi = fn(x_max), fn(hi)
    if f_max < target or f_hi > target:
        raise BracketFailure("outside the bracket")
    return _brentq(lambda x: fn(x) - target, x_max, hi, rtol=SOLVE_RTOL, maxiter=SOLVE_MAXITER)


class TestBrentReusesTheCheckedEnds:
    @staticmethod
    def design_counting(spec, solve, monkeypatch):
        """(constants or the exception type, residual evaluations) of design(spec)
        with `solve` in place of _solve_decreasing."""
        calls = []

        def counted_solve(fn, target, x_max):
            def counted(x):
                calls.append(x)
                return fn(x)

            return solve(counted, target, x_max)

        module = importlib.import_module("gefdesign.design")
        monkeypatch.setattr(module, "_solve_decreasing", counted_solve)
        try:
            return design(spec), len(calls)
        except (BracketFailure, InfeasibleSpec, OutOfRange) as exc:
            return type(exc), len(calls)

    @pytest.mark.filterwarnings("ignore::gefdesign.design.SharpnessWarning")
    @pytest.mark.parametrize("row", IMPLICIT_ROWS)
    def test_same_roots_two_evaluations_fewer(self, row, monkeypatch):
        rng = np.random.default_rng(18)
        solved = 0
        for _ in range(300):
            n_cycles = rng.uniform(2.0, 100.0)
            values = {"n_cycles": n_cycles, row.keys[1]: n_cycles * rng.uniform(0.05, 3.0)}
            n_level = rng.uniform(1.0, 80.0) if row is DesignRow.PEAK_QN_DELAY else None
            spec = spec_for(row, rng.uniform(0.5, 2.0), values, n_level)
            want, want_calls = self.design_counting(spec, checked_brent_solve, monkeypatch)
            got, got_calls = self.design_counting(spec, _solve_decreasing, monkeypatch)
            if isinstance(want, FilterConstants):
                assert (got.a_p.hex(), got.b_u.hex()) == (want.a_p.hex(), want.b_u.hex())
                assert got_calls == want_calls - 2
                solved += 1
            else:
                assert got is want and got_calls == want_calls
        assert solved >= 30  # 192 of the II.2 specs design, 38 of the II.7


EXTREME_VALUES = (0.0, -0.0, -1.0, math.nan, math.inf, -math.inf, 5e-324, 1e-300, 1e300)


def extreme_specs(row):
    """Spec fields of an implicit row, feasible at beta_peak 1 and N 19.1,
    with one field at each extreme value; and with beta_peak or N at it and
    the quality factor scaled along, which keeps the delay ratio, so that
    the finite ones reach the solve."""
    q_key = row.keys[1]
    ratio, n_level = (1.3, None) if q_key == "q_erb" else (0.5, 10.0)
    base = {"beta_peak": 1.0, "n_cycles": 19.1, q_key: 19.1 * ratio, "n_level": n_level}
    for x in EXTREME_VALUES:
        for key in base:
            yield {**base, key: x}
        yield {**base, "beta_peak": x, q_key: ratio * x * 19.1}
        yield {**base, "n_cycles": x, q_key: ratio * x}


class TestImplicitRowsAtExtremeValues:
    @pytest.mark.parametrize("row", IMPLICIT_ROWS)
    def test_finite_constants_or_a_gef_error(self, row):
        designed = 0
        for fields in extreme_specs(row):
            values = {key: fields[key] for key in row.keys}
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", SharpnessWarning)
                warnings.simplefilter("error", RuntimeWarning)
                try:
                    theta = design(spec_for(row, fields["beta_peak"], values,
                                            fields["n_level"]))
                except GefError:
                    continue
            assert all(math.isfinite(value) for value in theta.as_dict().values()), fields
            designed += 1
        assert designed >= 4  # beta_peak and N at 1e-300 and at 1e300 reach the solve


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


def test_traced_benchmark_names_exist():
    # perfbench/spans.py wraps these design-layer names by getattr when it
    # traces a run; read them without importing it, so a rename fails here
    source = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    assigned = {
        node.targets[0].id: ast.literal_eval(node.value)
        for node in ast.parse(source.read_text()).body
        if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)
        and node.targets[0].id in ("EXTRA", "RESIDUAL_FNS")
    }
    names = list(assigned["EXTRA"]["design"])
    names += [name.split(".", 1)[1] for name in assigned["RESIDUAL_FNS"]
              if name.startswith("design.")]
    module = importlib.import_module("gefdesign.design")
    assert names
    assert [name for name in names if not callable(getattr(module, name, None))] == []

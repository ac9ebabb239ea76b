import json
import math
from functools import partial

import numpy as np
import pytest

from gefdesign import (
    FilterConstants,
    closed_form,
    default_grid,
    eval_gef,
    eval_sharp,
    extract_numeric,
    qerb_approx,
    relative_errors,
)
from gefdesign import characteristics
from gefdesign.characteristics import (
    FrequencyGrid,
    _golden_max,
    _level_crossing,
    _simpson,
    erb_closed_form,
    numeric_values,
    qerb_closed_form,
)
from gefdesign.errors import (
    ApproximationDomain,
    ExponentTooSmallForErb,
    LevelNotReached,
    MissingCharacteristic,
    NoInteriorPeak,
    OutOfRange,
)

LN10 = math.log(10.0)


def gamma_ratio(b_u):
    return math.exp(math.lgamma(b_u) - math.lgamma(b_u - 0.5))


class TestClosedForm:
    def test_sharp_case_values(self, theta_sharp6):
        report = closed_form(theta_sharp6)
        assert report.beta_peak == 1.0
        assert report.n_beta == pytest.approx(6.0 / (2.0 * math.pi * 0.05), rel=1e-12)
        assert report.n_beta == pytest.approx(19.1, abs=5e-3)
        assert report.phi_accum == 3.0
        assert report.q_erb == pytest.approx(gamma_ratio(6.0) / (math.sqrt(math.pi) * 0.05), rel=1e-12)
        assert report.q_erb == pytest.approx(25.9, abs=0.05)
        assert report.erb_beta == pytest.approx(0.039, abs=5e-4)
        assert report.q_n[10.0] == pytest.approx(14.6, abs=0.03)
        assert report.s_beta == pytest.approx((20.0 / LN10) * 6.0 / 0.0025, rel=1e-12)
        assert report.s_beta == pytest.approx(2.08e4, rel=5e-3)

    def test_wide_case_values(self, theta_wide7):
        report = closed_form(theta_wide7)
        assert report.n_beta == pytest.approx(11.1, abs=0.05)
        assert report.phi_accum == 3.5
        assert report.q_erb == pytest.approx(14.1, abs=0.02)
        assert report.erb_beta == pytest.approx(0.071, abs=5e-4)
        assert report.q_n[10.0] == pytest.approx(8.0, abs=0.02)
        assert report.bw_n_beta[10.0] == pytest.approx(0.12, abs=5e-3)
        assert report.s_beta == pytest.approx(6.08e3, rel=5e-3)

    def test_bandwidth_arithmetic(self, theta_sharp6):
        report = closed_form(theta_sharp6)
        assert report.bw_n_beta[10.0] == pytest.approx(
            0.1 * math.sqrt(10.0 ** (1.0 / 6.0) - 1.0), rel=1e-12
        )
        assert report.bw_n_beta[10.0] == pytest.approx(0.0684, abs=5e-5)
        assert report.bw_n_beta[3.0] == pytest.approx(0.0349, abs=5e-5)

    def test_q_bw_duality(self, theta_sharp6):
        report = closed_form(theta_sharp6, n_levels=(1.0, 3.0, 10.0, 30.0))
        for n, q in report.q_n.items():
            assert q * report.bw_n_beta[n] == pytest.approx(report.beta_peak, rel=1e-12)
        assert report.q_erb * report.erb_beta == pytest.approx(report.beta_peak, rel=1e-12)

    def test_erb_omitted_for_small_exponent(self):
        report = closed_form(FilterConstants(0.05, 1.0, 0.4))
        assert report.q_erb is None and report.erb_beta is None
        assert report.n_beta > 0  # the rest is still present
        with pytest.raises(ExponentTooSmallForErb):
            erb_closed_form(FilterConstants(0.05, 1.0, 0.4))
        with pytest.raises(ExponentTooSmallForErb):
            qerb_closed_form(FilterConstants(0.05, 1.0, 0.5))

    def test_tiny_pole_real_part_is_out_of_range(self):
        # a_p**2 underflows to 0 here; S overflows instead of dividing by 0
        with pytest.raises(OutOfRange):
            closed_form(FilterConstants(3.18e-201, 1.0, 2.0))

    def test_qerb_decreasing_in_ap(self):
        values = [closed_form(FilterConstants(a, 1.0, 6.0)).q_erb for a in (0.02, 0.05, 0.1, 0.2)]
        assert all(v2 < v1 for v1, v2 in zip(values, values[1:]))

    def test_bw_increasing_in_level(self, theta_sharp6):
        report = closed_form(theta_sharp6, n_levels=(1.0, 3.0, 10.0, 20.0, 40.0))
        widths = [report.bw_n_beta[n] for n in sorted(report.bw_n_beta)]
        assert all(w2 > w1 for w1, w2 in zip(widths, widths[1:]))

    def test_flat_dict_keys(self, theta_sharp6):
        flat = closed_form(theta_sharp6).as_dict()
        for key in ("beta_peak", "n_beta", "phi_accum", "q_erb", "erb_beta",
                    "q_3", "q_10", "bw_3_beta", "bw_10_beta", "s_beta", "method"):
            assert key in flat
        json.dumps(flat)  # JSON-serializable as-is


class TestQerbApprox:
    def test_sharp_case_plugin(self, theta_sharp6):
        expected = math.exp(1.02) * 6.0**0.582 / (2.0 * math.pi * 0.05)
        assert qerb_approx(theta_sharp6) == pytest.approx(expected, rel=1e-12)
        assert qerb_approx(theta_sharp6) == pytest.approx(25.04, abs=5e-3)

    def test_wide_case_plugin(self, theta_wide7):
        expected = math.exp(1.02) * 7.0**0.582 / (0.2 * math.pi)
        assert qerb_approx(theta_wide7) == pytest.approx(expected, rel=1e-12)

    def test_domain(self):
        with pytest.raises(ApproximationDomain):
            qerb_approx(FilterConstants(0.05, 1.0, 1.4))
        qerb_approx(FilterConstants(0.05, 1.0, 1.5))  # boundary inclusive

    def test_within_five_percent_of_exact(self):
        # the power-law fit holds the 5% bound from b_u ~ 1.9 upward; below
        # that it degrades fast (11.8% at 1.5), see the stated-domain xfail
        for b_u in np.linspace(1.9, 20.0, 75):
            theta = FilterConstants(0.07, 1.0, float(b_u))
            exact = qerb_closed_form(theta)
            assert abs(qerb_approx(theta) - exact) / exact < 0.05

    @pytest.mark.xfail(
        strict=True,
        reason="the fit misses 5% near the lower validity edge: 11.8% at b_u = 1.5",
    )
    def test_within_five_percent_on_stated_domain(self):
        for b_u in np.linspace(1.5, 20.0, 75):
            theta = FilterConstants(0.07, 1.0, float(b_u))
            exact = qerb_closed_form(theta)
            assert abs(qerb_approx(theta) - exact) / exact < 0.05

    def test_ap_cancels_in_relative_deviation(self):
        def rel_dev(a_p):
            theta = FilterConstants(a_p, 1.0, 6.0)
            return qerb_approx(theta) / qerb_closed_form(theta)

        assert rel_dev(0.01) == pytest.approx(rel_dev(0.3), rel=1e-12)


class TestDefaultGrid:
    def test_sharp_case_geometry(self, theta_sharp6):
        grid = default_grid(theta_sharp6)
        assert grid.dense_step == pytest.approx(2.5e-4)
        assert grid.dense_halfwidth == pytest.approx(0.6)
        assert grid.samples[0] == pytest.approx(1e-3)
        assert grid.tail_max == pytest.approx(9.0)
        assert np.any(grid.samples == 1.0)  # contains b_p exactly

    def test_strictly_increasing(self, theta_wide7):
        grid = default_grid(theta_wide7)
        assert np.all(np.diff(grid.samples) > 0.0)

    def test_wide_filter_tail(self):
        grid = default_grid(FilterConstants(0.2, 1.0, 2.0))
        assert grid.tail_max == pytest.approx(13.0)

    def test_dense_window_clipped_to_positive(self):
        grid = default_grid(FilterConstants(0.2, 0.5, 2.0))  # b_p - 12 a_p < 0
        assert grid.samples[0] > 0.0
        assert np.any(grid.samples == 0.5)

    def test_rejects_bad_samples(self):
        with pytest.raises(ValueError):
            FrequencyGrid(np.array([0.1, 0.1, 0.2] * 10), 0.1, 0.01, 1.0, 10)


class TestExtractNumeric:
    def test_sharp_form_reproduces_closed_forms(self, theta_sharp6):
        # the closed forms are exact for the one-sided response
        report = extract_numeric(partial(eval_sharp, theta_sharp6), default_grid(theta_sharp6))
        want = closed_form(theta_sharp6)
        assert report.beta_peak == pytest.approx(1.0, abs=1e-8)
        assert report.bw_n_beta[10.0] == pytest.approx(want.bw_n_beta[10.0], rel=1e-3)
        assert report.bw_n_beta[3.0] == pytest.approx(want.bw_n_beta[3.0], rel=1e-3)
        errors = relative_errors(want, report)
        for key, value in errors.items():
            if key != "phi_accum":  # finite-range limited, see phi test below
                assert abs(value) < 0.002, key

    def test_full_filter_within_paper_bounds(self, theta_sharp6):
        report = extract_numeric(partial(eval_gef, theta_sharp6), default_grid(theta_sharp6))
        errors = relative_errors(closed_form(theta_sharp6), report)
        assert abs(errors["q_erb"]) < 0.015
        assert abs(errors["n_beta"]) < 0.001

    def test_phi_accum_converges_with_tail(self, theta_sharp6):
        response = partial(eval_gef, theta_sharp6)
        spans = []
        for tail in (9.0, 20.0, 50.0):
            grid = default_grid(theta_sharp6, tail_max=tail)
            spans.append(extract_numeric(response, grid).phi_accum)
        assert all(s < 3.0 for s in spans)  # finite range always undershoots
        assert spans[0] < spans[1] < spans[2]

    def test_reports_grid_meta(self, theta_sharp6):
        grid = default_grid(theta_sharp6)
        report = extract_numeric(partial(eval_gef, theta_sharp6), grid)
        assert report.method == "numeric"
        assert report.grid_meta["tail_max"] == pytest.approx(9.0)

    def test_no_interior_peak(self, theta_sharp6):
        grid = default_grid(theta_sharp6)
        with pytest.raises(NoInteriorPeak):
            extract_numeric(lambda beta: 1.0 / (1.0 + beta), grid)

    def test_level_not_reached(self, theta_sharp6):
        grid = default_grid(theta_sharp6)
        with pytest.raises(LevelNotReached) as info:
            extract_numeric(partial(eval_sharp, theta_sharp6), grid, n_levels=(300.0,))
        assert info.value.n_db == 300.0

    def test_tie_break_prefers_smallest_beta(self, theta_sharp6):
        grid = default_grid(theta_sharp6)
        seen = []

        def flat_top(beta):
            arr = np.asarray(eval_gef(theta_sharp6, beta))
            seen.append(beta)
            return arr

        report = extract_numeric(flat_top, grid)
        assert report.beta_peak < 1.0  # true peak is below b_p

    def test_scalar_only_response_supported(self, theta_sharp6):
        grid = default_grid(theta_sharp6)

        def scalar_only(beta):
            if np.ndim(beta) != 0:
                raise TypeError("scalars only")
            return eval_gef(theta_sharp6, float(beta))

        report = extract_numeric(scalar_only, grid)
        assert report.beta_peak == pytest.approx(1.0 - 0.05**2 / 2.0, abs=1e-5)


    def test_sharp_form_bandwidths_match_closed_form(self):
        # q_n = beta_peak / bw_n also carries the golden-section peak error
        # (about 1e-9), so the bandwidth is what the crossings pin down
        rng = np.random.default_rng(20261018)
        for _ in range(30):
            b_p = float(rng.uniform(0.2, 4.0))
            theta = FilterConstants(
                float(rng.uniform(0.01, 0.19)) * b_p, b_p, float(rng.uniform(1.5, 20.0))
            )
            got = extract_numeric(partial(eval_sharp, theta), default_grid(theta))
            want = closed_form(theta)
            for n in (3.0, 10.0):
                assert got.bw_n_beta[n] == pytest.approx(want.bw_n_beta[n], rel=1e-12, abs=0.0)
                assert got.q_n[n] * got.bw_n_beta[n] == pytest.approx(
                    got.beta_peak, rel=1e-15, abs=0.0
                )

    def test_crossings_survive_scalar_and_vector_disagreement(self, theta_sharp6, monkeypatch):
        # the scalar path reads 0.086 dB louder off the peak, so some sampled
        # brackets hold no scalar crossing and the nearer sample is taken
        def louder_off_peak(beta):
            value = eval_sharp(theta_sharp6, beta)
            return value if np.ndim(beta) or abs(beta - 1.0) < 0.01 else 1.01 * value

        same_sign = []
        brentq = characteristics._brentq

        def recording(*args, **kwargs):
            try:
                return brentq(*args, **kwargs)
            except ValueError:
                same_sign.append(args[1:3])
                raise

        monkeypatch.setattr(characteristics, "_brentq", recording)
        grid = default_grid(theta_sharp6)
        levels = tuple(np.arange(1.0, 20.5, 0.5))
        report = extract_numeric(louder_off_peak, grid, n_levels=levels)
        assert same_sign
        want = closed_form(theta_sharp6, n_levels=levels)
        for n in levels:
            assert abs(report.bw_n_beta[n] - want.bw_n_beta[n]) < 4.0 * grid.dense_step


class TestLevelCrossing:
    def test_root_between_the_samples(self):
        crossing = _level_crossing(lambda beta: -beta * beta, -2.0, 1.0, 2.0)
        assert crossing == pytest.approx(math.sqrt(2.0), rel=1e-15)

    @pytest.mark.parametrize("target, nearer", [(-2.5, 2.0), (-0.5, 1.0)])
    def test_same_sign_ends_give_the_nearer_sample(self, target, nearer):
        # both scalar levels on one side of the target: no bracket for Brent
        assert _level_crossing(lambda beta: -beta, target, 1.0, 2.0) == nearer
        assert _level_crossing(lambda beta: -beta, target, 2.0, 1.0) == nearer


class TestGoldenMax:
    def test_stops_where_floats_are_coarser_than_tol(self):
        # near 1e7 adjacent floats are 1.9e-9 apart, so the bracket can never
        # narrow to 1e-10
        peak = _golden_max(lambda beta: -(beta - 1e7) ** 2, 1e7 - 10.0, 1e7 + 10.0, tol=1e-10)
        assert peak == pytest.approx(1e7, abs=1e-8)


class TestErbQuadratureAgainstGammaRatio:
    @pytest.mark.parametrize("a_p", [0.02, 0.05, 0.1, 0.2])
    @pytest.mark.parametrize("b_u", [2.0, 5.0, 9.0, 12.0])
    def test_finite_range_erb_on_sharp(self, a_p, b_u):
        theta = FilterConstants(a_p, 1.0, b_u)
        report = extract_numeric(partial(eval_sharp, theta), default_grid(theta))
        closed = math.sqrt(math.pi) * a_p * math.exp(math.lgamma(b_u - 0.5) - math.lgamma(b_u))
        assert abs(report.erb_beta - closed) / closed < 0.005


class TestSecondOrderReduction:
    def test_full_second_order_matches_closed_forms(self):
        theta = FilterConstants(0.05, 1.0, 1.0)
        report = extract_numeric(partial(eval_gef, theta), default_grid(theta))
        errors = relative_errors(closed_form(theta), report)
        for key, value in errors.items():
            assert abs(value) < 0.02, key


class TestReportInvariants:
    def test_q_bw_duality_enforced(self):
        from gefdesign.characteristics import CharacteristicReport

        with pytest.raises(ValueError):
            CharacteristicReport(
                beta_peak=1.0, n_beta=19.1, phi_accum=3.0, s_beta=2.08e4,
                q_n={10.0: 15.0}, bw_n_beta={10.0: 0.08},  # product != 1
            )

    def test_bw_monotonicity_enforced(self):
        from gefdesign.characteristics import CharacteristicReport

        with pytest.raises(ValueError):
            CharacteristicReport(
                beta_peak=1.0, n_beta=19.1, phi_accum=3.0, s_beta=2.08e4,
                q_n={3.0: 10.0, 10.0: 20.0},
                bw_n_beta={3.0: 0.1, 10.0: 0.05},
            )

    def test_erb_pair_must_come_together(self):
        from gefdesign.characteristics import CharacteristicReport

        with pytest.raises(ValueError):
            CharacteristicReport(
                beta_peak=1.0, n_beta=19.1, phi_accum=3.0, s_beta=2.08e4,
                q_n={10.0: 14.62}, bw_n_beta={10.0: 1.0 / 14.62},
                q_erb=25.9, erb_beta=None,
            )

    def test_numeric_report_exposes_grid_keys(self, theta_sharp6):
        report = extract_numeric(partial(eval_gef, theta_sharp6), default_grid(theta_sharp6))
        flat = report.as_dict()
        assert flat["method"] == "numeric"
        assert "grid_tail_max" in flat and "grid_n_samples" in flat


class TestRelativeErrors:
    def test_identical_reports_give_zero(self, theta_sharp6):
        report = closed_form(theta_sharp6)
        errors = relative_errors(report, report)
        assert errors and all(v == 0.0 for v in errors.values())

    def test_sign_convention(self):
        desired = closed_form(FilterConstants(0.05, 1.0, 6.0))
        q_want, q_got = 25.9, 25.64
        assert (q_want - q_got) / q_want == pytest.approx(0.010, abs=5e-4)
        # achieved larger than desired -> negative error
        achieved = closed_form(FilterConstants(0.0499, 1.0, 6.0))
        assert relative_errors(desired, achieved)["q_erb"] < 0.0

    def test_missing_characteristic(self):
        desired = closed_form(FilterConstants(0.05, 1.0, 6.0))
        achieved = closed_form(FilterConstants(0.05, 1.0, 0.4))  # no ERB pair
        with pytest.raises(MissingCharacteristic):
            relative_errors(desired, achieved)

    def test_numeric_values_skips_grid_meta(self, theta_sharp6):
        report = extract_numeric(partial(eval_gef, theta_sharp6), default_grid(theta_sharp6))
        values = numeric_values(report)
        assert "beta_peak" in values
        assert not any(key.startswith("grid_") for key in values)
        assert "method" not in values


class TestSimpsonPort:
    """characteristics._simpson against scipy.integrate.simpson, which stays
    a test-only oracle, on default_grid samples of the power response."""

    @pytest.mark.parametrize("theta", [
        FilterConstants(0.05, 1.0, 6.0),
        FilterConstants(0.1, 1.0, 7.0),
        FilterConstants(0.013, 0.7, 2.5),
        FilterConstants(0.3, 2.0, 1.2),
    ])
    def test_matches_scipy_bit_for_bit(self, theta):
        from scipy.integrate import simpson

        betas = default_grid(theta).samples
        power = np.abs(np.asarray(eval_gef(theta, betas))) ** 2
        sizes = {betas.size, betas.size - 1, 2, 3, 4, 5, 16, 17}
        assert {size % 2 for size in sizes} == {0, 1}
        for size in sorted(sizes):
            x, y = betas[-size:], power[-size:]
            assert _simpson(y, x) == simpson(y, x=x), size
            x, y = betas[:size], power[:size]
            assert _simpson(y, x) == simpson(y, x=x), size

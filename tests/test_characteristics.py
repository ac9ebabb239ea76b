import inspect
import json
import math
import sys
import warnings
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
from gefdesign import characteristics, core
from gefdesign.characteristics import (
    GRID_FLOOR,
    GRID_GROWTH,
    FrequencyGrid,
    _Simpson,
    _level_crossing,
    _max_falling_slope,
    _peak_and_convexity,
    erb_closed_form,
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
from gefdesign.scalar import _LOG_FLOAT_MAX, DB_PER_LOG, TWO_PI

import reference

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

    def test_underflowing_s_raises(self):
        # S = (20/ln 10) b_u / a_p**2 underflows to 0 past a_p of about 1e155
        with pytest.raises(OutOfRange, match="finite and > 0"):
            closed_form(FilterConstants(1e160, 1e161, 2.0))

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
        assert grid.dense_halfwidth == pytest.approx(0.2)
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
        grid = default_grid(FilterConstants(0.2, 0.5, 2.0))  # b_p - 4 a_p < 0
        assert grid.samples[0] > 0.0
        assert np.any(grid.samples == 0.5)

    def test_rejects_bad_samples(self):
        with pytest.raises(ValueError):
            FrequencyGrid(np.array([0.1, 0.1, 0.2] * 10), 0.1, 0.01, 1.0, 10)

    @pytest.mark.parametrize("tail", [[math.inf], [math.inf, math.inf], [math.nan, 3.0]])
    def test_rejects_non_finite_samples(self, tail):
        samples = np.append(np.linspace(0.1, 2.0, 16), tail)
        with pytest.raises(ValueError, match="finite and strictly increasing"):
            FrequencyGrid(samples, 0.1, 0.01, 2.0, 0)

    def test_theta_and_tail_max_are_the_only_parameters(self):
        assert list(inspect.signature(default_grid).parameters) == ["theta", "tail_max"]

    @pytest.mark.parametrize("a_p, b_p", [(0.05, 1.0), (1e-5, 1.0), (0.013, 0.7),
                                          (2.0, 40.0), (1e-9, 0.02)])
    def test_window_then_graded_tails(self, a_p, b_p):
        grid = default_grid(FilterConstants(a_p, b_p, 2.0))
        x, step = grid.samples, grid.dense_step
        window = b_p + step * np.arange(-800, 801)
        assert x[0] == GRID_FLOOR and x[-1] == grid.tail_max == b_p + max(8.0, 60.0 * a_p)
        i = int(np.searchsorted(x, window[0]))
        assert np.array_equal(x[i:i + window.size], window)
        assert grid.tail_points == x.size - window.size
        # above the window each step is GRID_GROWTH times the last, up to tail_max;
        # the samples are rounded sums, so a step is exact to two ulps
        above = x[i + window.size - 1:]
        h, ulps = np.diff(above), 2.0 * np.spacing(above[1:])
        grown = step * GRID_GROWTH ** np.arange(1, h.size + 1)
        np.testing.assert_allclose(h[:-1], grown[:-1], rtol=1e-9, atol=ulps.max())
        assert 0.0 < h[-1] <= grown[-1] + ulps[-1]
        # below it, GRID_GROWTH times the last until a step would pass 2% of beta,
        # then 2% of beta, down to the floor
        below = x[:i + 1][::-1]
        h, ulps = -np.diff(below), 2.0 * np.spacing(below[:-1])
        grown = step * GRID_GROWTH ** np.arange(1, h.size + 1)
        capped = np.minimum(grown, 0.02 * below[:-1])
        np.testing.assert_allclose(h[:-1], capped[:-1], rtol=1e-9, atol=ulps.max())
        assert 0.0 < h[-1] <= capped[-1] + ulps[-1]
        assert np.any(grown > 0.02 * below[:-1])  # the cap binds on every case

    def test_clipped_window_keeps_half_a_step_above_the_floor(self):
        # the window's sample 0.4 - 798 * step would sit 8.7e-19 above the
        # floor sample, and the Simpson weights of so short an interval cancel
        grid = default_grid(FilterConstants(0.1, 0.4, 1.0))
        step = grid.dense_step
        assert 0.4 - 798 * step - GRID_FLOOR < 1e-18
        assert 0.4 - 797 * step in grid.samples
        assert 0.4 - 798 * step not in grid.samples

    # the last three lie below the peak, inside the window, and on its top sample
    @pytest.mark.parametrize("tail_max", [GRID_FLOOR, 0.0, math.inf, math.nan,
                                          0.5, 1.1, 1.0 + 800 * (0.05 / 200.0)])
    def test_tail_max_must_be_finite_and_above_the_floor(self, theta_sharp6, tail_max):
        with pytest.raises(OutOfRange):
            default_grid(theta_sharp6, tail_max=tail_max)

    def test_peak_at_the_floor_is_out_of_range(self):
        with pytest.raises(OutOfRange, match="must sit half a step above"):
            default_grid(FilterConstants(1e-6, GRID_FLOOR, 2.0))

    def test_overflowing_tail_max_is_out_of_range(self):
        with pytest.raises(OutOfRange):
            default_grid(FilterConstants(1e307, 1e308, 2.0))

    def test_sub_ulp_steps_collapse_to_distinct_samples(self):
        # a_p / 200 is 5e-27, far below the spacing of floats at b_p = 1e6
        grid = default_grid(FilterConstants(1e-24, 1e6, 2.0))
        assert np.all(np.diff(grid.samples) > 0.0)
        assert np.count_nonzero(grid.samples == 1e6) == 1

    def test_growth_sums_are_bit_identical_at_every_cached_length(self):
        # the tails' running sums are prefixes of one cached array, which a
        # longer count rebuilds; the largest count here passes the largest float
        for count in (5, 80000, 7, 3000, 80001, 2):
            with np.errstate(over="ignore"):
                want = np.cumsum(GRID_GROWTH ** np.arange(1, count + 1))
            assert np.array_equal(characteristics._growth_prefix(count), want), count


class TestExtractNumeric:
    def test_s_step_below_float_spacing_raises(self):
        # 4 * dense_step = 2e-22 is below the spacing of floats at beta = 0.05
        # (about 7e-18), so the second difference of the level reads -0.0
        theta = FilterConstants(1e-20, 0.05, 2.0)
        grid = default_grid(theta)
        assert 4.0 * grid.dense_step < math.ulp(0.05)
        with pytest.raises(OutOfRange, match="second difference"):
            extract_numeric(core.log_response(theta, grid.samples, ("p",))["p"], grid)

    def test_crossings_within_one_float_raise(self):
        # BW_3 = 0.1 is below the spacing of floats at 2**52 (1.0), so both
        # 3 dB crossings round to one float, though S's step 1.28 resolves
        theta = FilterConstants(64.0, 2.0**52, 1e6)
        grid = default_grid(theta)
        assert closed_form(theta).bw_n_beta[3.0] < math.ulp(2.0**52) < 4.0 * grid.dense_step
        with pytest.raises(OutOfRange, match="3 dB crossings .* give no width"):
            extract_numeric(core.log_response(theta, grid.samples, ("p",))["p"], grid)

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

    def test_sharp_form_bandwidths_match_closed_form(self):
        # q_n = beta_peak / bw_n also carries the peak's error, so the
        # bandwidth is what the crossings pin down
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


class TestSharpEnd:
    """The oracle on the sharp form, whose closed forms are exact, from
    a_p / b_p = 0.19 down to 1e-12 and b_u from 1 to 20.  The grid spans
    [GRID_FLOOR, tail_max], so the extracted ERB and phi_accum fall short of
    the closed forms by the cut tails (0.358 a_p / b_p at b_p = 1 and b_u = 1,
    less for larger b_u).  Each is held against its exact value over that
    span; each bound is stated with its measured worst case."""

    RATIOS = (0.19, 0.1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8, 1e-9, 1e-10, 1e-11, 1e-12)
    EXPONENTS = (1.0, 1.25, 1.5, 2.0, 3.0, 4.0, 8.0, 13.0, 20.0)

    @staticmethod
    def span_values(theta, grid):
        """Exact ERB and phi_accum of the sharp form over the grid's span: the
        power is (1 + x**2)**-b_u in x = (beta - b_p) / a_p, a Student t density
        with 2 b_u - 1 degrees of freedom, and the phase is -b_u atan(x)."""
        from scipy.special import betainc

        a, b, b_u = theta.a_p, theta.b_p, theta.b_u
        ends = ((b - grid.samples[0]) / a, (grid.samples[-1] - b) / a)
        cut = sum(0.5 * betainc(b_u - 0.5, 0.5, 1.0 / (1.0 + x * x)) for x in ends)
        phi = b_u * sum(math.atan(x) for x in ends) / TWO_PI
        return erb_closed_form(theta) * (1.0 - cut), phi

    @pytest.mark.parametrize("b_p", [0.05, 1.0, 37.0, 2000.0])
    def test_erb_phi_and_crossings(self, b_p):
        worst = {"erb": 0.0, "erb_sub_ulp": 0.0, "phi": 0.0, "bw": 0.0}
        for ratio in self.RATIOS:
            for b_u in self.EXPONENTS:
                theta = FilterConstants(ratio * b_p, b_p, b_u)
                grid = default_grid(theta)
                got = extract_numeric(
                    core.log_response(theta, grid.samples, ("p_sharp",))["p_sharp"], grid
                )
                erb, phi = self.span_values(theta, grid)
                key = "erb" if ratio >= 1e-9 else "erb_sub_ulp"
                worst[key] = max(worst[key], abs(got.erb_beta / erb - 1.0))
                worst["phi"] = max(worst["phi"], abs(got.phi_accum / phi - 1.0))
                # each crossing is within Brent's tolerance xtol + rtol beta
                tol = 1e-15 * b_p + 4.0 * sys.float_info.epsilon * b_p
                want = closed_form(theta)
                for n in (3.0, 10.0):
                    error = abs(got.bw_n_beta[n] - want.bw_n_beta[n]) / (2.0 * tol)
                    worst["bw"] = max(worst["bw"], error)
        # measured worst over the four b_p: ERB 1.7e-9 (b_u 1) down to a_p / b_p
        # 1e-9, and 7.9e-9 below it (b_p 37, a_p / b_p 1e-12, b_u 20), where
        # the peak's level is off by the spacing of floats at b_p; phi_accum
        # 3.3e-16; the bandwidth 0.50 of the two crossings' tolerances
        assert worst["erb"] <= 2e-9, worst
        assert worst["erb_sub_ulp"] <= 1e-8, worst
        assert worst["phi"] <= 1e-15, worst
        assert worst["bw"] <= 1.0, worst

    @pytest.mark.parametrize("b_u", [4.0, 20.0])
    def test_peak_tolerance_scales_with_the_grid(self, b_u):
        # 1e-10 is 1% of a_p here, so a fixed peak tolerance of that size
        # leaves the peak 1.9e-11 off b_p and the ERB off by -1.5e-5 (b_u 4)
        # and -7.3e-5 (b_u 20); the stencil's steps scale with the grid's step
        theta = FilterConstants(1e-8, 1.0, b_u)
        grid = default_grid(theta)
        got = extract_numeric(core.log_response(theta, grid.samples, ("p_sharp",))["p_sharp"], grid)
        assert got.beta_peak == 1.0
        assert abs(got.erb_beta / erb_closed_form(theta) - 1.0) <= 5e-13


class TestLogResponseExtraction:
    """Extraction on the log response L against the complex-callable adapter
    (log|H| + i unwrap(angle H)) on eval_*: the grid work is the same to
    rounding, and the scalar probes differ by rounding, which the peak
    stencil's vertex steps and second differences magnify."""

    # relative bounds: grid-only characteristics, those that carry the peak
    # location, and the curvature, whose probes straddle the peak (measured
    # worst: 1.6e-12 on the peak and the q, 1.3e-11 on S)
    BOUNDS = {"bw": 1e-12, "erb_beta": 1e-12, "n_beta": 1e-12, "phi_accum": 1e-12,
              "beta_peak": 2e-11, "q": 2e-11, "s_beta": 1e-10}

    def bound(self, key):
        return self.BOUNDS[key] if key in self.BOUNDS else self.BOUNDS[key.split("_")[0]]

    def test_agrees_with_the_complex_adapter(self):
        rng = np.random.default_rng(20261018)
        for i in range(100):
            b_u = float(rng.integers(1, 13)) if i % 2 else float(rng.uniform(1.0, 12.0))
            theta = FilterConstants(float(rng.uniform(0.005, 0.15)), 1.0, b_u)
            grid = default_grid(theta)
            logs = core.log_response(theta, grid.samples)
            for target, fn in (("p_sharp", eval_sharp), ("p", eval_gef), ("v", core.eval_v)):
                got = extract_numeric(logs[target], grid).characteristics()
                want = extract_numeric(partial(fn, theta), grid).characteristics()
                assert got.keys() == want.keys()
                for key, value in want.items():
                    bound = self.bound(key) * abs(value)
                    assert abs(got[key] - value) <= bound, (theta, target, key)

    def test_rejects_a_log_response_from_other_betas(self, theta_sharp6):
        grid = default_grid(theta_sharp6)
        other = core.log_response(theta_sharp6, grid.samples * 1.001)["p"]
        with pytest.raises(ValueError):
            extract_numeric(other, grid)

    GATE_SPOTS = ("peak", "low_tail", "high_tail", "first", "last")

    def gated(self, theta, part, value, where):
        """extract_numeric on theta's log response with one sample of Re L or
        Im L set to value, at the peak, in a tail outside the window, or at
        an end of the grid."""
        grid = default_grid(theta)
        log = core.log_response(theta, grid.samples)["p"]
        index = {"peak": int(np.argmax(log.re)), "low_tail": 10, "high_tail": -10,
                 "first": 0, "last": -1}[where]
        if where.endswith("tail"):
            assert abs(grid.samples[index] - theta.b_p) > grid.dense_halfwidth
        arrays = {"re": log.re.copy(), "im": log.im.copy()}
        arrays[part][index] = value
        return extract_numeric(core.LogResponse(grid.samples, arrays["re"], arrays["im"],
                                                log.re_at), grid)

    @pytest.mark.parametrize("where", GATE_SPOTS)
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("part", ["re", "im"])
    def test_a_non_finite_sample_is_out_of_range(self, theta_sharp6, part, value, where):
        with pytest.raises(OutOfRange, match="log response must be finite"):
            self.gated(theta_sharp6, part, value, where)

    @pytest.mark.parametrize("where", GATE_SPOTS)
    def test_a_magnitude_sample_past_the_largest_float_is_out_of_range(self, theta_sharp6,
                                                                       where):
        with pytest.raises(OutOfRange, match="log response must be finite"):
            self.gated(theta_sharp6, "re", math.nextafter(_LOG_FLOAT_MAX, math.inf), where)

    @pytest.mark.parametrize("part", ["re", "im"])
    def test_a_finite_tail_sample_passes_the_gate(self, theta_sharp6, part):
        report = self.gated(theta_sharp6, part, -1e300, "high_tail")
        assert report.method == "numeric"

    def test_magnitude_past_the_largest_float_is_out_of_range(self):
        # the peak of |P| is about 1.8e308 though its parts stay finite
        theta = FilterConstants(0.01, 1.0, 181.4363)
        grid = default_grid(theta)
        for response in (core.log_response(theta, grid.samples)["p"], partial(eval_gef, theta)):
            with pytest.raises(OutOfRange):
                extract_numeric(response, grid)


class TestLevelCrossing:
    """_level_crossing takes Re L, the log magnitude; these levels in dB are
    (20/ln 10) Re L."""

    def test_root_between_the_samples(self):
        crossing = _level_crossing(lambda beta: -beta * beta / DB_PER_LOG, -2.0, 1.0, 2.0)
        assert crossing == pytest.approx(math.sqrt(2.0), rel=1e-15)

    def test_tolerance_is_relative_below_beta_1(self):
        # BW_3 is 3.7e-12 wide at b_p = 0.01: an absolute floor of 1e-15 on
        # Brent's tolerance left it 8.3e-5 off; measured now, 3.7e-7
        theta = FilterConstants(1e-11, 0.01, 20.0)
        grid = default_grid(theta)
        got = extract_numeric(core.log_response(theta, grid.samples, ("p_sharp",))["p_sharp"],
                              grid).bw_n_beta[3.0]
        assert got == pytest.approx(closed_form(theta).bw_n_beta[3.0], rel=1e-6, abs=0.0)

    @pytest.mark.parametrize("target, nearer", [(-2.5, 2.0), (-0.5, 1.0)])
    def test_same_sign_ends_give_the_nearer_sample(self, target, nearer):
        # both scalar levels on one side of the target: no bracket for Brent
        assert _level_crossing(lambda beta: -beta / DB_PER_LOG, target, 1.0, 2.0) == nearer
        assert _level_crossing(lambda beta: -beta / DB_PER_LOG, target, 2.0, 1.0) == nearer


def gaussian_bumps(*bumps, floor=0.0, delay=5.0):
    """A response whose magnitude is a sum of Gaussians h*exp(-((beta-c)/w)**2)
    in beta plus `floor`, a callable of beta, with a linear phase so that the
    delay characteristics are positive."""

    def response(beta):
        beta = np.asarray(beta, dtype=float)
        mag = sum(h * np.exp(-(((beta - c) / w) ** 2)) for c, w, h in bumps)
        mag = mag + (floor(beta) if callable(floor) else floor)
        return mag * np.exp(-1j * delay * beta)

    return response


def gaussian_bw(w, n_db):
    """n-dB width of exp(-(x / w)**2)."""
    return 2.0 * w * math.sqrt(n_db / DB_PER_LOG)


class TestNanBetweenSamples:
    """A response callable that is nan (or 0) only on an open interval
    between two grid samples: the grid's samples are finite, and only a
    scalar probe there can see it."""

    THETA = FilterConstants(0.05, 1.0, 6.0)

    @classmethod
    def holed(cls, lo, hi, fill=complex(math.nan, math.nan)):
        def response(beta):
            beta = np.asarray(beta, dtype=float)
            values = np.asarray(eval_gef(cls.THETA, beta), dtype=complex)
            values = np.where((lo < beta) & (beta < hi), fill, values)
            return values[()] if values.ndim == 0 else values

        return response

    @classmethod
    def samples_around(cls, where):
        """The two samples of the default grid that enclose the probes of the
        peak stencil, of the upper 3 dB or lower 10 dB crossing, or none."""
        samples = default_grid(cls.THETA).samples
        levels = core.level_db(cls.THETA, samples)
        i_pk = int(np.argmax(levels))
        if where == "peak":
            return samples[i_pk], samples[i_pk + 1]
        if where == "upper 3 dB":
            j = i_pk + 1 + int(np.argmax(levels[i_pk + 1:] < levels[i_pk] - 3.0))
            return samples[j - 1], samples[j]
        if where == "lower 10 dB":
            j = i_pk - 1 - int(np.argmax(levels[i_pk - 1::-1] < levels[i_pk] - 10.0))
            return samples[j], samples[j + 1]
        return samples[-3], samples[-2]

    @pytest.mark.parametrize("where", ["peak", "upper 3 dB", "lower 10 dB"])
    def test_a_probe_on_the_nan_is_out_of_range(self, where, brent_path):
        grid = default_grid(self.THETA)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OutOfRange, match="nan"):
                extract_numeric(self.holed(*self.samples_around(where)), grid)

    def test_a_zero_at_the_peak_stencil_is_out_of_range(self, brent_path):
        # log|H| of 0 is -inf, not a math domain error
        grid = default_grid(self.THETA)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OutOfRange, match="is -inf"):
                extract_numeric(self.holed(*self.samples_around("peak"), fill=0j), grid)

    def test_a_zero_in_a_crossing_bracket_is_where_the_level_falls(self, brent_path):
        lo, hi = self.samples_around("upper 3 dB")
        grid = default_grid(self.THETA)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = extract_numeric(self.holed(lo, hi, fill=0j), grid).bw_n_beta[3.0]
        want = extract_numeric(partial(eval_gef, self.THETA), grid).bw_n_beta[3.0]
        # the upper crossing moves from inside the bracket to the hole's edge
        assert want - (hi - lo) < got < want

    def test_a_nan_no_probe_sees_leaves_the_report(self, brent_path):
        grid = default_grid(self.THETA)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = extract_numeric(self.holed(*self.samples_around("tail")), grid)
        assert got == extract_numeric(partial(eval_gef, self.THETA), grid)


class TestCrossingSearch:
    """The bracketing samples of each n-dB crossing: the first sample below the
    target above the peak and the last one below it."""

    GRID = FrequencyGrid(np.linspace(0.5, 1.5, 1001), 0.5, 0.001, 1.5, 0)

    @pytest.mark.parametrize("sign, side", [(1.0, "high-frequency"), (-1.0, "low-frequency")])
    def test_level_not_reached(self, sign, side):
        # a shelf 9.5 dB below the peak on one side never falls 10 dB down
        def shelf(beta):
            return 0.2 * (1.0 + np.tanh(sign * (beta - 1.0) / 0.02))

        response = gaussian_bumps((1.0, 0.05, 1.0), floor=shelf)
        with pytest.raises(LevelNotReached) as info:
            extract_numeric(response, self.GRID, n_levels=(10.0,))
        assert (info.value.n_db, info.value.side) == (10.0, side)
        assert extract_numeric(response, self.GRID, n_levels=(3.0,)).bw_n_beta[3.0] > 0.0

    def test_crossings_next_to_the_peak_sample(self, monkeypatch):
        # the neighbours of the peak sample are already 19.5 dB down
        w = 0.001 / 1.5
        brackets = []

        def recording(re_at, target, a, b):
            brackets.append((a, b))
            return _level_crossing(re_at, target, a, b)

        monkeypatch.setattr(characteristics, "_level_crossing", recording)
        report = extract_numeric(gaussian_bumps((1.0, w, 1.0), floor=1e-6), self.GRID)
        samples = self.GRID.samples
        i_pk = int(np.argmin(np.abs(samples - 1.0)))
        assert brackets == [(samples[i_pk], samples[i_pk + 1]),
                            (samples[i_pk - 1], samples[i_pk])] * 2
        assert all(type(end) is float for bracket in brackets for end in bracket)
        for n in (3.0, 10.0):
            assert report.bw_n_beta[n] == pytest.approx(gaussian_bw(w, n), rel=1e-6)

    def test_takes_the_crossings_nearest_the_peak(self):
        # side lobes 0.9 dB down rise back above the 3 dB target further out
        response = gaussian_bumps(
            (1.0, 0.05, 1.0), (0.8, 0.02, 0.9), (1.2, 0.02, 0.9), floor=1e-6
        )
        report = extract_numeric(response, self.GRID, n_levels=(3.0,))
        assert report.bw_n_beta[3.0] == pytest.approx(gaussian_bw(0.05, 3.0), rel=1e-6)


class TestPeakStencil:
    """characteristics._peak_and_convexity: parabolic vertex steps at
    h = step, step / 16 and step / 256, then Richardson's second difference."""

    def test_peak_where_floats_are_coarse(self):
        # near 1e7 adjacent floats are 1.9e-9 apart: the second step's probes
        # round to a few floats off the peak, and the third's to the peak itself
        theta = FilterConstants(2e-5, 1e7, 4.0)
        step = default_grid(theta).dense_step
        assert step / 256.0 < 0.5 * math.ulp(1e7) < step / 16.0
        re_at = core.log_response(theta, np.array([1e7]), ("p",))["p"].re_at
        start = 1e7 + 40.0 * math.ulp(1e7)
        peak, log_mag, s_beta = _peak_and_convexity(re_at, start, step)
        assert abs(peak - 1e7) <= math.ulp(1e7)
        assert log_mag == re_at(peak)
        # S's probes sit about 107 floats out, so the offsets that are probed
        # miss the ratio 2 of the nominal ones by up to 0.5%, which leaves part
        # of the h**2 term that Richardson's difference cancels: 6.1e-7 here
        assert s_beta == pytest.approx(closed_form(theta).s_beta, rel=2e-6)

    @pytest.mark.parametrize("step", [1e-20, 3e-17])
    def test_a_step_rounding_to_zero_is_out_of_range(self, step):
        # 1e-20: every probe rounds to 1.0; 3e-17: 1 - 2 step rounds to the
        # float below 1, and 1 + 2 step to 1.0, so one offset is 0
        def re_at(beta):
            return -((beta - 1.0) ** 2)

        with pytest.raises(OutOfRange, match="second difference"):
            _peak_and_convexity(re_at, 1.0, step)

    def test_probe_counts(self, monkeypatch):
        # the peak and S probe at most 14 times and the crossings the rest,
        # a median below 58 in all
        stencil = characteristics._peak_and_convexity
        stencil_counts, totals = [], []
        probes = [0]

        def counted_stencil(re_at, beta, step):
            before = probes[0]
            out = stencil(re_at, beta, step)
            stencil_counts.append(probes[0] - before)
            return out

        monkeypatch.setattr(characteristics, "_peak_and_convexity", counted_stencil)
        for theta in reference_constants(count=40, seed=27):
            grid = default_grid(theta)
            for log in core.log_response(theta, grid.samples).values():
                def counted(beta, re_at=log.re_at):
                    probes[0] += 1
                    return re_at(beta)

                probes[0] = 0
                extract_numeric(log._replace(re_at=counted), grid)
                totals.append(probes[0])
        assert len(totals) == 120
        assert max(stencil_counts) <= 14
        assert float(np.median(totals)) < 58


def reference_constants(count=120, seed=26):
    """Seeded sharp constants: b_p log-uniform over [0.1, 100], a_p / b_p
    log-uniform over [1e-4, 0.19], b_u uniform over [1, 20]."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        b_p = float(10.0 ** rng.uniform(-1.0, 2.0))
        ratio = float(10.0 ** rng.uniform(-4.0, math.log10(0.19)))
        out.append(FilterConstants(ratio * b_p, b_p, float(rng.uniform(1.0, 20.0))))
    return out


class TestAgainstReference:
    """extract_numeric against the analytic values of tests/reference.py."""

    THETAS = reference_constants()

    @pytest.mark.parametrize("target", core.TARGETS)
    def test_reference_delay_is_the_falling_phase_slope(self, target):
        for theta in self.THETAS[:10]:
            h = 1e-4 * theta.a_p
            betas = theta.b_p + theta.a_p * np.array([-2.0, -0.5, 0.0, 0.3, 3.0])
            log = core.log_response(theta, np.concatenate((betas - h, betas + h)), (target,))
            lower, upper = np.split(log[target].im, 2)
            for beta, slope in zip(betas, (lower - upper) / (2.0 * h)):
                delay = reference.group_delay(theta, target, float(beta))[0]
                assert delay == pytest.approx(slope, rel=1e-6), theta

    @pytest.mark.parametrize("target", core.TARGETS)
    def test_n_beta(self, target):
        assert len(self.THETAS) >= 100
        for theta in self.THETAS:
            grid = default_grid(theta)
            log = core.log_response(theta, grid.samples, (target,))[target]
            want = reference.n_beta(theta, target)
            assert extract_numeric(log, grid).n_beta == pytest.approx(want, rel=2e-9), theta

    # measured worst over THETAS: beta_peak 7.6e-12 relative (v), S 1.34e-8,
    # the h**4 term of Richardson's difference at h = 2 dense_step
    @pytest.mark.parametrize("target", core.TARGETS)
    def test_beta_peak(self, target):
        for theta in self.THETAS:
            grid = default_grid(theta)
            log = core.log_response(theta, grid.samples, (target,))[target]
            want = reference.beta_peak(theta, target)
            got = extract_numeric(log, grid).beta_peak
            assert got == pytest.approx(want, rel=5e-11, abs=0.0), theta

    @pytest.mark.parametrize("target", core.TARGETS)
    def test_s_beta(self, target):
        for theta in self.THETAS:
            grid = default_grid(theta)
            log = core.log_response(theta, grid.samples, (target,))[target]
            want = reference.s_beta(theta, target)
            got = extract_numeric(log, grid).s_beta
            assert got == pytest.approx(want, rel=3e-8, abs=0.0), theta

    # the ERB over the grid's span, worst 2.0e-10 and p90 1.1e-12 on every
    # target (the window of +-12 a_p and 2% growth gave 6.5e-10 and 1.1e-12)
    @pytest.mark.parametrize("target", core.TARGETS)
    def test_erb_over_grid_span(self, target):
        errors = []
        for theta in self.THETAS:
            grid = default_grid(theta)
            log = core.log_response(theta, grid.samples, (target,))[target]
            want = reference.erb_beta(theta, target, grid.samples[0], grid.samples[-1])
            errors.append(abs(extract_numeric(log, grid).erb_beta / want - 1.0))
        assert max(errors) <= 7e-10
        assert np.percentile(errors, 90) <= 2e-12

    # the widths, worst 6.3e-12 (v), near the reference's own Brent tolerance
    @pytest.mark.parametrize("target", core.TARGETS)
    def test_bw(self, target):
        for theta in self.THETAS:
            grid = default_grid(theta)
            log = core.log_response(theta, grid.samples, (target,))[target]
            got = extract_numeric(log, grid).bw_n_beta
            for n in (3.0, 10.0):
                want = reference.bw_beta(theta, target, n)
                assert got[n] == pytest.approx(want, rel=1e-11, abs=0.0), (theta, n)

    def test_v_phi_accum_interior_maximum(self):
        # v's phase peaks inside the grid, on its graded steps, and falls to
        # the last sample; worst 2.4e-8 (4.4e-7 read at the highest sample)
        for theta in self.THETAS:
            grid = default_grid(theta)
            log = core.log_response(theta, grid.samples, ("v",))["v"]
            top, end = reference.v_phase_maximum(theta), float(grid.samples[-1])
            want = (reference.phase(theta, "v", top) - reference.phase(theta, "v", end)) / TWO_PI
            got = extract_numeric(log, grid).phi_accum
            assert got == pytest.approx(want, rel=5e-8, abs=0.0), theta


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
    def test_bw_monotonicity_enforced(self):
        from gefdesign.characteristics import CharacteristicReport

        with pytest.raises(ValueError):
            CharacteristicReport(
                beta_peak=1.0, n_beta=19.1, phi_accum=3.0, s_beta=2.08e4,
                bw_n_beta={3.0: 0.1, 10.0: 0.05},
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

    def test_characteristics_skip_grid_meta(self, theta_sharp6):
        report = extract_numeric(partial(eval_gef, theta_sharp6), default_grid(theta_sharp6))
        values = report.characteristics()
        assert "beta_peak" in values
        assert not any(key.startswith("grid_") for key in values)
        assert "method" not in values


class TestSimpsonPort:
    """characteristics._Simpson against scipy.integrate.simpson, which stays
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
        sizes = {betas.size, betas.size - 1, 3, 4, 5, 16, 17}
        assert {size % 2 for size in sizes} == {0, 1}
        for size in sorted(sizes):
            x, y = betas[-size:], power[-size:]
            assert _Simpson(x)(y) == simpson(y, x=x), size
            x, y = betas[:size], power[:size]
            assert _Simpson(x)(y) == simpson(y, x=x), size


def weight_grids():
    """Sample vectors for the weight tests: default grids of seeded
    constants, exactly uniform spacing, odd and even counts, the minimum."""
    rng = np.random.default_rng(21)
    grids = {}
    for k in range(4):
        a_p = float(rng.uniform(0.005, 0.19))
        theta = FilterConstants(a_p, float(rng.uniform(0.5, 3.0)), float(rng.uniform(1.0, 12.0)))
        grids[f"default_{k}"] = default_grid(theta).samples
    grids["default_sharp"] = default_grid(FilterConstants(1e-5, 1.0, 2.0)).samples
    for n in (16, 17, 1000, 1001):
        grids[f"uniform_{n}"] = 0.5 + 0.375 * np.arange(n)  # every step exactly 3/8
        grids[f"geometric_{n}"] = np.geomspace(1e-3, 10.0, n)
    grids["min_jittered"] = np.sort(rng.uniform(0.1, 2.0, 16))
    return grids


class TestExtractionWeights:
    """The Simpson weights computed once per grid, applied to samples,
    against scipy.integrate.simpson."""

    GRIDS = weight_grids()

    def test_grids_cover_both_spacings_and_parities(self):
        uniform = [np.all(np.diff(x) == np.diff(x)[0]) for x in self.GRIDS.values()]
        assert any(uniform) and not all(uniform)
        assert {x.size % 2 for x in self.GRIDS.values()} == {0, 1}
        assert min(x.size for x in self.GRIDS.values()) == 16
        assert {x.size % 2 for name, x in self.GRIDS.items() if name.startswith("default")} == {0, 1}

    @pytest.mark.parametrize("name", sorted(GRIDS))
    def test_simpson_matches_scipy_bit_for_bit(self, name):
        from scipy.integrate import simpson

        x = self.GRIDS[name]
        integral = FrequencyGrid(x, 1.0, 0.01, float(x[-1]), 0)._weights
        rng = np.random.default_rng(x.size)
        for y in (np.exp(-((x - 1.0) ** 2)), rng.uniform(0.0, 1.0, x.size), x ** -1.5):
            assert integral(y) == simpson(y, x=x), name

    @pytest.mark.parametrize("name", sorted(GRIDS))
    def test_falling_slope_follows_its_definition(self, name):
        x = self.GRIDS[name]
        rng = np.random.default_rng(x.size)
        for f in (np.sin(3.0 * x) - x * x, rng.standard_normal(x.size), -7.0 * np.log(x)):
            falls = [-(4.0 * (f[i + 1] - f[i - 1]) / (x[i + 1] - x[i - 1])
                       - (f[i + 2] - f[i - 2]) / (x[i + 2] - x[i - 2])) / 3.0
                     for i in range(2, x.size - 2)]
            k = int(np.argmax(falls))
            expected = falls[k]
            if 0 < k < len(falls) - 1:
                y0, y1, y2 = falls[k - 1:k + 2]
                if 2.0 * y1 - y0 - y2 > 0.0:
                    expected = y1 + (y2 - y0) ** 2 / (8.0 * (2.0 * y1 - y0 - y2))
            assert math.isclose(_max_falling_slope(x, f), expected, rel_tol=1e-12), name
        if name.startswith("uniform"):
            # on equal steps the h**2 terms cancel: a cubic's slope is exact up to
            # rounding, and falls fastest at the last point two inside the end
            assert math.isclose(_max_falling_slope(x, -x ** 3), 3.0 * x[-3] ** 2,
                                rel_tol=1e-12), name

    def test_vertex_value_of_an_extreme_sample(self):
        # a parabola on unequal steps is exact at its vertex; an end sample,
        # and a sample whose slopes overflow, stay as they are
        x = np.array([0.5, 1.0, 1.3, 2.5])
        y = 4.0 - 3.0 * (x - 1.2) ** 2
        assert characteristics._vertex_value(x, y, 2) == pytest.approx(4.0, rel=1e-15)
        assert characteristics._vertex_value(x, y, 0) == y[0]
        x = np.array([1e-310, 2e-310, 3e-310])
        y = np.array([0.0, 1.0, 0.5])
        assert characteristics._vertex_value(x, y, 1) == 1.0

    def test_grid_computes_its_weights_once(self, theta_sharp6):
        grid = default_grid(theta_sharp6)
        assert grid._weights is grid._weights
        assert isinstance(grid._weights, _Simpson)

    def test_samples_are_a_read_only_copy(self):
        x = 0.5 + 0.125 * np.arange(16)
        grid = FrequencyGrid(x, 1.0, 0.125, 2.375, 0)
        assert grid.samples is not x and np.array_equal(grid.samples, x)
        with pytest.raises(ValueError):
            grid.samples[0] = 0.25
        x[0] = 0.25  # the caller's array stays its own
        assert grid.samples[0] == 0.5

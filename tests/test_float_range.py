"""The library over the whole float range: each public call returns values or
raises a GefError, and none emits a RuntimeWarning."""

import math
import sys
import warnings
from functools import partial

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gefdesign import (
    FilterConstants,
    closed_form,
    default_grid,
    eval_gef,
    eval_sharp,
    extract_numeric,
    level_db,
    phase_rad,
    wavenumber,
)
from gefdesign.biquad import to_sos
from gefdesign.characteristics import FrequencyGrid, _Simpson
from gefdesign.core import eval_v, log_response
from gefdesign.digital import SignalBuffer, apply_fft
from gefdesign.errors import GefError, OutOfRange
from gefdesign.scalar import GAMMA_SERIES_FROM, gamma_ratio, peak_beta

# log-uniform over [1e-300, 1e300], and three subnormals
FULL_RANGE = st.one_of(
    st.floats(-300.0, 300.0).map(lambda exponent: 10.0 ** exponent),
    st.sampled_from([5e-324, 1e-320, 1e-310]),
)


def _extract(theta):
    grid = default_grid(theta)
    return extract_numeric(log_response(theta, grid.samples, ("p",))["p"], grid)


def _calls(theta):
    """Every call the property makes on one set of constants."""
    calls = [partial(closed_form, theta), partial(_extract, theta)]
    for fn in (eval_gef, eval_sharp, eval_v, wavenumber, level_db, phase_rad):
        calls.append(partial(fn, theta, np.array([0.0, theta.b_p, 2.0 * theta.b_p])))
        calls += [partial(fn, theta, beta) for beta in (0.0, theta.b_p, 2.0 * theta.b_p)]
    integer = FilterConstants(theta.a_p, theta.b_p, float(math.ceil(theta.b_u)))
    calls.append(partial(to_sos, integer, 1000.0, 48000.0))
    return calls


def _returns_or_refuses(call):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            call()
        except GefError:
            pass


@settings(max_examples=200, derandomize=True, deadline=None)
@given(a_p=FULL_RANGE, b_p=FULL_RANGE, b_u=FULL_RANGE)
@example(a_p=100.0, b_p=1e-320, b_u=1.0)
@example(a_p=5e-324, b_p=1e-300, b_u=40.0)
@example(a_p=1e-3, b_p=1.0, b_u=200.0)
@example(a_p=5e-324, b_p=1.0, b_u=2.0)
@example(a_p=2.0689598579217e-244, b_p=2.8778115542256177e+201, b_u=2.0)
@example(a_p=7.013041613054649e-164, b_p=2610008.743437733, b_u=0.05)
@example(a_p=1e100, b_p=1e100, b_u=1e75)
def test_every_call_returns_or_raises_a_gef_error(a_p, b_p, b_u):
    for call in _calls(FilterConstants(a_p, b_p, b_u)):
        _returns_or_refuses(call)


class TestReproducers:
    def test_closed_form_forms_q_from_the_widths(self):
        # Q_n = 1e-320 / BW_n is a subnormal; it once failed Q_n * BW_n == b_p
        report = closed_form(FilterConstants(100.0, 1e-320, 1.0))
        assert report.q_n == {n: 1e-320 / bw for n, bw in report.bw_n_beta.items()}

    def test_closed_form_refuses_an_erb_that_underflows(self):
        # the ERB underflows to 0, which once divided b_p by zero
        with pytest.raises(OutOfRange, match="not all finite and > 0"):
            closed_form(FilterConstants(5e-324, 1e-300, 40.0))

    @pytest.mark.parametrize("a_p, b_p", [(10.0, 5e-324), (1e-10, 1e300)])
    def test_closed_form_refuses_a_q_that_underflows_or_overflows(self, a_p, b_p):
        with pytest.raises(OutOfRange, match="quality factors"):
            closed_form(FilterConstants(a_p, b_p, 2.0))

    @pytest.mark.parametrize("fn", [eval_gef, eval_sharp, eval_v])
    def test_evaluators_overflow_silently(self, fn):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert not np.isfinite(fn(FilterConstants(1e-3, 1.0, 200.0), 1.0))

    def test_wavenumber_overflows_silently(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert not np.isfinite(wavenumber(FilterConstants(1e-310, 1.0, 2.0), 1.0))

    def test_grid_refuses_a_step_that_underflows(self):
        with pytest.raises(OutOfRange, match="underflows to 0"):
            default_grid(FilterConstants(5e-324, 1.0, 2.0))

    def test_grid_refuses_steps_that_overflow(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OutOfRange, match="pass the largest float"):
                default_grid(FilterConstants(2.0689598579217e-244, 2.8778115542256177e+201, 2.0))

    def test_s_refuses_a_step_whose_square_underflows(self):
        theta = FilterConstants(7.013041613054649e-164, 2610008.743437733, 0.05)
        assert (4.0 * default_grid(theta).dense_step) ** 2 == 0.0
        with pytest.raises(OutOfRange, match="second difference"):
            _extract(theta)

    def test_weights_that_overflow_are_refused(self):
        # products of steps in the Simpson coefficients
        theta = FilterConstants(6.226171169108189e+154, 6.05868326189651e+166, 483114.8738570269)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OutOfRange, match="overflow its quadrature weights"):
                _extract(theta)

    @pytest.mark.parametrize("a_p, b_p, b_u, parity", [
        (1e104, 3e110, 18962.324811781902, 0),
        (2e104, 1.3e110, 2.0, 1),
    ])
    def test_a_last_step_whose_cube_overflows_extracts_at_either_parity(self, a_p, b_p, b_u,
                                                                        parity):
        theta = FilterConstants(a_p, b_p, b_u)
        x = default_grid(theta).samples
        assert x.size % 2 == parity and x[-1] - x[-2] > sys.float_info.max ** (1.0 / 3.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = _extract(theta)
        assert report.beta_peak == pytest.approx(peak_beta(theta), rel=1e-10)
        assert report.erb_beta == pytest.approx(closed_form(theta).erb_beta, rel=1e-2)

    def test_simpson_correction_past_the_cube_agrees_with_the_scaled_grid(self):
        # an even count, last step past 5e102: the factored correction against
        # scipy's h1 ** 3 on the same grid scaled by 2**-300
        theta = FilterConstants(1e105, 1e111, 18962.0)
        x = default_grid(theta).samples
        assert x.size % 2 == 0 and x[-1] - x[-2] > sys.float_info.max ** (1.0 / 3.0)
        y = np.exp(-((x - theta.b_p) / (50.0 * theta.a_p)) ** 2)
        scale = 2.0 ** -300
        assert _Simpson(x)(y) * scale == pytest.approx(_Simpson(x * scale)(y), rel=1e-14)

    @pytest.mark.parametrize("head, steps", [
        (np.arange(1.0, 16.0), (1e200,)),                  # h1 * h1 past the largest float
        (1e-300 * np.arange(1.0, 15.0), (1e-310, 1e100)),  # h1**2 / (6 h0) past it
    ])
    def test_a_last_interval_correction_that_overflows_is_refused(self, head, steps):
        # 16 samples: only the last two steps enter the correction, and the
        # Simpson pairs before them stay finite
        x = np.concatenate((head, head[-1] + np.cumsum(steps)))
        assert x.size == 16
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OutOfRange, match="overflow its quadrature weights"):
                FrequencyGrid(x, 1.0, 1.0, float(x[-1]), 0)._weights

    def test_widths_that_do_not_grow_with_the_level_are_refused(self):
        # the 3 and 10 dB crossings round to the same floats
        with pytest.raises(OutOfRange, match="10 dB crossings .* give no width above"):
            _extract(FilterConstants(1e100, 1e100, 1e75))

    @pytest.mark.parametrize("a_p, b_p", [(1e153, 1e160), (1e-176, 2e-175)])
    def test_peak_beta_where_its_square_leaves_the_normal_floats(self, a_p, b_p):
        want = b_p * math.sqrt(1.0 - (a_p / b_p) ** 2)
        assert peak_beta(FilterConstants(a_p, b_p, 2.0)) == pytest.approx(want, rel=1e-15, abs=0.0)

    def test_fft_bins_of_a_peak_past_1e154(self):
        # peak_beta once overflowed to inf here, and the bins' betas read nan
        theta = FilterConstants(305334852.0290356, 1.97372189973695e+173, 1e-310)
        signal = SignalBuffer(48000.0, np.random.default_rng(5).standard_normal(256))
        _returns_or_refuses(partial(apply_fft, theta, 1000.0, 48000.0, signal))


class TestGammaRatio:
    """Gamma(b) / Gamma(b - 1/2): log-gamma below GAMMA_SERIES_FROM, its
    asymptotic series from there on."""

    @staticmethod
    def _exact(b):
        # enough digits that b - 1/2 is exact
        with mpmath.workdps(int(math.log10(b)) + 30):
            b = mpmath.mpf(b)
            return mpmath.gamma(b) / mpmath.gamma(b - mpmath.mpf(0.5))

    @pytest.mark.parametrize("b", [
        *(10.0 ** k for k in np.linspace(3.0, 300.0, 67)),
        GAMMA_SERIES_FROM, 1e15, 2e306, sys.float_info.max,
    ])
    def test_matches_mpmath_at_large_exponents(self, b):
        assert abs(gamma_ratio(b) / self._exact(b) - 1) <= 1e-14

    @pytest.mark.parametrize("b", [0.5000001, 1.5, 6.0, 63.9, 79.9,
                                   math.nextafter(GAMMA_SERIES_FROM, 0.0)])
    def test_log_gamma_below_the_series(self, b):
        assert gamma_ratio(b) == math.exp(math.lgamma(b) - math.lgamma(b - 0.5))

    @pytest.mark.parametrize("b", [80.0, 100.0, 200.0, 255.9])
    def test_series_from_80_on(self, b):
        # the log-gamma difference is off by 3.9e-14 at 80, 4.0e-14 at 200 and
        # 2.7e-13 at 255.9; the series by at most 2.2e-15 (at 80)
        with mpmath.workdps(40):
            exact = mpmath.gamma(mpmath.mpf(b)) / mpmath.gamma(mpmath.mpf(b) - mpmath.mpf(0.5))
        assert abs(gamma_ratio(b) / exact - 1) <= 4e-15

    def test_the_two_paths_meet(self):
        below = math.nextafter(GAMMA_SERIES_FROM, 0.0)
        assert gamma_ratio(below) == pytest.approx(gamma_ratio(GAMMA_SERIES_FROM), rel=1e-12)

import ast
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gefdesign import (
    FilterConstants,
    eval_gef,
    eval_sharp,
    eval_v,
    level_db,
    normalized_to_peak,
    peak_beta,
    phase_rad,
    sharpness_check,
    wavenumber,
)
from gefdesign import core, probe
from gefdesign.scalar import DB_PER_LOG, _brentq
from gefdesign.errors import GefError, InfeasibleSpec, NonPositiveConstant

LN10 = math.log(10.0)

positive_constants = st.builds(
    FilterConstants,
    a_p=st.floats(0.01, 0.5),
    b_p=st.floats(0.3, 3.0),
    b_u=st.floats(0.6, 20.0),
)


class TestFilterConstants:
    def test_valid_integer_exponent(self):
        theta = FilterConstants(0.05, 1.0, 6.0)
        assert theta.is_integer_exponent
        assert theta.pole == complex(-0.05, 1.0)

    def test_case2_constants(self):
        theta = FilterConstants(0.1, 1.0, 7.0)
        assert theta.is_integer_exponent
        assert theta.gain == 1.0

    def test_non_integer_flag(self):
        assert not FilterConstants(0.05, 1.0, 5.5).is_integer_exponent
        assert FilterConstants(0.05, 1.0, 6.0 + 1e-13).is_integer_exponent

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(a_p=-0.05, b_p=1.0, b_u=6.0),
            dict(a_p=0.05, b_p=0.0, b_u=6.0),
            dict(a_p=0.05, b_p=1.0, b_u=-1.0),
            dict(a_p=0.05, b_p=1.0, b_u=6.0, gain=0.0),
            dict(a_p=float("nan"), b_p=1.0, b_u=6.0),
        ],
    )
    def test_rejects_non_positive(self, kwargs):
        with pytest.raises(NonPositiveConstant):
            FilterConstants(**kwargs)

    def test_dict_round_trip(self, theta_sharp6):
        assert FilterConstants.from_dict(theta_sharp6.as_dict()) == theta_sharp6

    @pytest.mark.parametrize("data", [
        {"a_p": 0.05, "b_p": 1.0},
        {"a_p": 0.05, "b_p": 1.0, "b_u": 6.0, "c": 1.0},
        {"a_p": "x", "b_p": 1.0, "b_u": 6.0},
        [0.05, 1.0, 6.0],
    ])
    def test_from_dict_rejects_bad_fields(self, data):
        with pytest.raises(InfeasibleSpec):
            FilterConstants.from_dict(data)


class TestEvalGef:
    def test_dc_value_pole_at_minus_one_plus_i(self):
        # ((0 - p)(0 - conj p)) = a^2 + b^2 = 2 at (1, 1, 1)
        assert eval_gef(FilterConstants(1.0, 1.0, 1.0), 0.0) == pytest.approx(
            0.5 + 0.0j, abs=1e-14
        )

    def test_peak_magnitude_matches_closed_level(self, theta_sharp6):
        # |P(1)| from the dB closed form: 119.98 dB
        assert 20.0 * np.log10(abs(eval_gef(theta_sharp6, 1.0))) == pytest.approx(
            119.98, abs=5e-3
        )

    def test_high_frequency_rolloff_order(self, theta_sharp6):
        # |P| ~ beta**(-2 b_u): -40 * b_u dB per decade
        drop = level_db(theta_sharp6, 1e4) - level_db(theta_sharp6, 1e3)
        assert drop == pytest.approx(-40.0 * 6.0, abs=0.05)

    def test_gain_scales_linearly(self, theta_sharp6):
        scaled = theta_sharp6.with_gain(2.5)
        assert eval_gef(scaled, 1.3) == pytest.approx(2.5 * eval_gef(theta_sharp6, 1.3))

    def test_array_evaluation_matches_scalar(self, theta_sharp6):
        betas = np.array([0.2, 0.9, 1.0, 1.7])
        values = eval_gef(theta_sharp6, betas)
        assert values.shape == betas.shape
        for beta, value in zip(betas, values):
            assert value == eval_gef(theta_sharp6, float(beta))

    def test_non_integer_exponent_continuous_in_beta(self):
        # no principal-branch jumps: the sampled phase never steps by ~2 pi
        theta = FilterConstants(0.05, 1.0, 5.5)
        betas = np.linspace(0.0, 6.0, 20001)
        phases = np.angle(eval_gef(theta, betas))
        unwrapped = np.unwrap(phases)
        assert unwrapped[0] == pytest.approx(0.0, abs=1e-12)
        assert np.all(np.diff(unwrapped) < 1e-3)
        # and the analytic continuous phase agrees with the unwrapped samples
        assert np.allclose(unwrapped, phase_rad(theta, betas), atol=1e-9)


# every float FilterConstants accepts, with typical values drawn as often
any_positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


def _positive(lo, hi):
    return st.one_of(st.floats(lo, hi), any_positive)


class TestScalarPath:
    """A number beta gives what a one-element array gives, bit for bit."""

    @settings(max_examples=500, derandomize=True, deadline=None)
    @given(
        theta=st.builds(
            FilterConstants,
            a_p=_positive(1e-4, 2.0),
            b_p=_positive(0.1, 10.0),
            b_u=_positive(0.1, 50.0),
            gain=_positive(1e-3, 1e3),
        ),
        beta=st.floats(0.0, 1e6),
        kind=st.sampled_from([float, int, np.float64]),
    )
    @example(theta=FilterConstants(0.01, 1.0, 300.0), beta=1.0, kind=float)  # exp overflows
    @example(theta=FilterConstants(0.01, 1.0, 1e5), beta=0.5, kind=float)  # exp underflows
    @example(theta=FilterConstants(1e-170, 1.0, 2.0), beta=1.0, kind=float)  # a_p**2 underflows: log(0)
    @example(theta=FilterConstants(1e200, 1.0, 2.0), beta=1.0, kind=float)  # a_p**2 overflows
    @example(theta=FilterConstants(0.05, 1.0, 6.0, 7.0), beta=0.0, kind=float)
    def test_matches_one_element_array(self, theta, beta, kind):
        beta = kind(beta)
        with np.errstate(all="ignore"):
            for fn in (eval_gef, eval_sharp, eval_v):
                scalar = fn(theta, beta)
                array = complex(fn(theta, np.array([beta]))[0])
                assert type(scalar) is complex
                for got, want in ((scalar.real, array.real), (scalar.imag, array.imag)):
                    assert got == want or (math.isnan(got) and math.isnan(want))
                    assert math.copysign(1.0, got) == math.copysign(1.0, want)

    def test_overflowing_peak_still_refuses_normalization(self):
        theta = FilterConstants(0.01, 1.0, 300.0)
        with np.errstate(over="ignore", invalid="ignore"):
            peak = eval_gef(theta, peak_beta(theta))
            assert peak == complex(-math.inf, math.inf)
            with pytest.raises(NonPositiveConstant):
                normalized_to_peak(theta)


class TestEvalSharp:
    def test_magnitude_symmetric_about_peak(self, theta_sharp6):
        delta = 0.02
        hi = abs(eval_sharp(theta_sharp6, 1.0 + delta))
        lo = abs(eval_sharp(theta_sharp6, 1.0 - delta))
        assert abs(hi - lo) <= 1e-12 * hi

    def test_peak_value_is_inverse_power_of_ap(self, theta_sharp6):
        assert abs(eval_sharp(theta_sharp6, 1.0)) == pytest.approx(
            0.05**-6, rel=1e-12
        )
        assert abs(eval_sharp(theta_sharp6, 1.0)) == pytest.approx(6.4e7, rel=1e-9)

    def test_direct_modulus_arithmetic(self):
        # |s - p|^2 = 0.2^2 + 0.2^2 = 0.08 at beta = 1.2 -> |P_sharp| = 12.5
        theta = FilterConstants(0.2, 1.0, 2.0)
        assert abs(eval_sharp(theta, 1.2)) == pytest.approx(1.0 / 0.08, rel=1e-12)


class TestEvalV:
    def test_definitional_product(self, theta_sharp6):
        beta = 1.0
        expected = eval_gef(theta_sharp6, beta) * complex(0.05, 1.0)
        assert eval_v(theta_sharp6, beta) == pytest.approx(expected, rel=1e-12)

    def test_peak_location_near_b_p(self, theta_sharp6):
        betas = np.linspace(0.8, 1.2, 40001)
        mags = np.abs(np.asarray(eval_v(theta_sharp6, betas)))
        beta_star = betas[int(np.argmax(mags))]
        assert abs(beta_star - 1.0) < 0.5 * theta_sharp6.a_p

    def test_real_at_dc(self, theta_wide7):
        value = eval_v(theta_wide7, 0.0)
        assert value.imag == pytest.approx(0.0, abs=1e-15)


class TestWavenumber:
    def test_value_at_peak(self, theta_sharp6):
        expected = 6.0 * (1.0 / 0.05 + 1.0 / (0.05 + 2.0j))
        assert wavenumber(theta_sharp6, 1.0) == pytest.approx(expected, rel=1e-12)

    def test_real_part_at_peak_formula(self):
        for a_p, b_u in ((0.05, 6.0), (0.1, 7.0), (0.02, 3.0)):
            theta = FilterConstants(a_p, 1.0, b_u)
            expected = b_u / a_p * (1.0 + a_p**2 / (a_p**2 + 4.0))
            assert wavenumber(theta, 1.0).real == pytest.approx(expected, rel=1e-12)

    def test_one_sided_form_is_real_at_peak(self, theta_sharp6):
        # dropping the conjugate term leaves b_u/(i b_p - p) = b_u / a_p, purely real
        one_sided = theta_sharp6.b_u / (1j * theta_sharp6.b_p - theta_sharp6.pole)
        assert one_sided.imag == 0.0

    @settings(max_examples=200, deadline=None)
    @given(theta=positive_constants, beta=st.floats(0.0, 10.0))
    def test_partial_fraction_identity(self, theta, beta):
        s = 1j * beta
        single_term = (
            2.0 * theta.b_u * (s + theta.a_p)
            / ((s - theta.pole) * (s - theta.pole_conjugate))
        )
        assert wavenumber(theta, beta) == pytest.approx(single_term, rel=1e-12)

    @pytest.mark.filterwarnings("error")
    def test_limit_at_infinity(self, theta_sharp6):
        # 1j * inf has the real part 0 * inf, nan: k is built from beta as an
        # imaginary part alone
        assert wavenumber(theta_sharp6, math.inf) == 0j
        got = wavenumber(theta_sharp6, [1.0, math.inf])
        assert got[0] == wavenumber(theta_sharp6, 1.0) and got[1] == 0j


class TestLevelAndPhase:
    def test_level_at_peak_closed_form(self, theta_sharp6):
        expected = -(20.0 / LN10) * 3.0 * (math.log(0.0025) + math.log(4.0025))
        assert level_db(theta_sharp6, 1.0) == pytest.approx(expected, rel=1e-12)
        assert level_db(theta_sharp6, 1.0) == pytest.approx(119.98, abs=5e-3)

    def test_level_dc_matches_eval(self):
        theta = FilterConstants(1.0, 1.0, 1.0)
        assert level_db(theta, 0.0) == pytest.approx(20.0 * math.log10(0.5), rel=1e-12)

    def test_level_matches_linear_magnitude_on_grid(self, theta_sharp6):
        betas = np.linspace(0.01, 4.0, 1000)
        direct = 20.0 * np.log10(np.abs(np.asarray(eval_gef(theta_sharp6, betas))))
        assert np.max(np.abs(level_db(theta_sharp6, betas) - direct)) < 1e-9

    def test_gain_term(self, theta_sharp6):
        loud = theta_sharp6.with_gain(10.0)
        assert level_db(loud, 1.3) - level_db(theta_sharp6, 1.3) == pytest.approx(20.0)

    def test_phase_zero_at_dc(self, theta_sharp6):
        assert phase_rad(theta_sharp6, 0.0) == pytest.approx(0.0, abs=1e-14)

    def test_phase_at_peak(self, theta_sharp6):
        assert phase_rad(theta_sharp6, 1.0) == pytest.approx(-6.0 * math.atan(40.0), rel=1e-12)
        assert phase_rad(theta_sharp6, 1.0) == pytest.approx(-9.2748, abs=5e-5)

    @pytest.mark.parametrize("a_p,b_p,b_u", [(0.05, 1.0, 6.0), (0.1, 1.0, 7.0), (0.2, 0.5, 3.5)])
    def test_asymptotic_phase_accumulation(self, a_p, b_p, b_u):
        theta = FilterConstants(a_p, b_p, b_u)
        beta_max = 1e4
        bound = 2.0 * b_u * (a_p + b_p) / beta_max
        assert abs(phase_rad(theta, beta_max) + b_u * math.pi) < bound

    @settings(max_examples=100, deadline=None)
    @given(theta=positive_constants, beta=st.floats(0.0, 8.0))
    def test_conjugate_symmetry(self, theta, beta):
        # evaluation extended to signed beta: P(-beta) = conj(P(beta))
        plus = eval_gef(theta, beta)
        minus = eval_gef(theta, -beta)
        assert minus == pytest.approx(np.conj(plus), rel=1e-12, abs=1e-300)

    def test_derivative_identities(self, theta_sharp6):
        # d(level)/d(beta) = (20/ln10) Im k ; d(phase)/d(beta) = -Re k
        for beta in (0.3, 0.85, 1.15, 1.25, 1.4, 3.0):
            h = 1e-6 * max(1.0, beta)
            d_level = (level_db(theta_sharp6, beta + h) - level_db(theta_sharp6, beta - h)) / (2 * h)
            d_phase = (phase_rad(theta_sharp6, beta + h) - phase_rad(theta_sharp6, beta - h)) / (2 * h)
            k = wavenumber(theta_sharp6, beta)
            assert d_level == pytest.approx(DB_PER_LOG * k.imag, rel=1e-5)
            assert d_phase == pytest.approx(-k.real, rel=1e-5)


class TestOneLevelPhaseFormula:
    """Every level and phase column comes from the log response L = log H.
    Sampled angles (np.angle, np.unwrap) and 20 log10|H| alias and underflow,
    so they stay in the one adapter for complex response callables."""

    PATTERN = re.compile(r"np\.unwrap|np\.angle|log10\(np\.abs")

    def test_sampled_angles_only_in_the_callable_adapter(self):
        offenders = []
        for path in sorted(Path(core.__file__).parent.glob("*.py")):
            text = path.read_text()
            adapter = [
                (node.lineno, node.end_lineno) for node in ast.walk(ast.parse(text))
                if path.name == "grid.py"
                and isinstance(node, ast.FunctionDef) and node.name == "_complex_log"
            ]
            offenders += [
                f"{path.name}:{lineno}: {line.strip()}"
                for lineno, line in enumerate(text.splitlines(), 1)
                if self.PATTERN.search(line)
                and not any(first <= lineno <= last for first, last in adapter)
            ]
        assert offenders == []


class TestLogResponse:
    """log_response gives L = log H of each target from one pass of pole logs."""

    TARGETS = (("p_sharp", eval_sharp), ("p", eval_gef), ("v", eval_v))

    def test_exp_is_the_response_and_im_the_unwrapped_phase(self, theta_sharp6):
        theta = theta_sharp6.with_gain(7.0)
        betas = np.linspace(0.01, 4.0, 2001)
        logs = core.log_response(theta, betas)
        assert tuple(logs) == probe.TARGETS
        for target, fn in self.TARGETS:
            log = logs[target]
            values = np.asarray(fn(theta, betas))
            assert log.betas is betas
            assert np.array_equal(values, np.exp(log.re + 1j * log.im))
            # the same continuous phase, up to the turn the wrapped angle starts in
            offset = log.im - np.unwrap(np.angle(values))
            turns = round(offset[0] / (2.0 * math.pi))
            np.testing.assert_allclose(offset, 2.0 * math.pi * turns, rtol=0.0, atol=1e-9)

    def test_targets_share_the_pole_logs(self, theta_sharp6):
        betas = np.linspace(0.5, 1.5, 11)
        every = core.log_response(theta_sharp6, betas)
        for target in probe.TARGETS:
            alone = core.log_response(theta_sharp6, betas, (target,))
            assert list(alone) == [target]
            assert np.array_equal(alone[target].re, every[target].re)
            assert np.array_equal(alone[target].im, every[target].im)

    def test_level_and_phase_are_its_parts(self, theta_sharp6):
        betas = np.linspace(0.01, 4.0, 101)
        log = core.log_response(theta_sharp6, betas, ("p",))["p"]
        assert np.array_equal(level_db(theta_sharp6, betas), DB_PER_LOG * log.re)
        assert np.array_equal(phase_rad(theta_sharp6, betas), log.im)

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(theta=positive_constants, beta=st.floats(0.0, 100.0))
    def test_scalar_probe_is_the_real_part(self, theta, beta):
        logs = core.log_response(theta.with_gain(3.0), np.array([beta]))
        for target, log in logs.items():
            got = probe._re_at(theta.with_gain(3.0), target)(beta)
            assert type(got) is float
            # a last-bit difference of math.log and numpy's log, times b_u
            tol = 4e-15 * theta.b_u
            assert got == pytest.approx(float(log.re[0]), rel=tol, abs=tol)

    @pytest.mark.filterwarnings("error")
    def test_finite_where_the_response_overflows_or_underflows(self):
        loud, quiet = FilterConstants(0.01, 1.0, 300.0), FilterConstants(1.0, 10.0, 1000.0)
        betas = np.array([0.5, 1.0, 2.0])
        for theta in (loud, quiet):
            for target, log in core.log_response(theta, betas).items():
                assert np.all(np.isfinite(log.re)) and np.all(np.isfinite(log.im))
                assert math.isfinite(probe._re_at(theta, target)(1.0))
        assert core.log_response(loud, betas)["p"].re[1] > 1000.0
        assert core.log_response(quiet, betas)["p"].re[1] < -2000.0

    @pytest.mark.filterwarnings("error")
    def test_finite_where_the_squared_pole_distance_overflows(self):
        # past beta = 1e154, (beta -+ b_p)**2 overflows; |P| is about beta**(-2 b_u)
        theta = FilterConstants(0.05, 1.0, 4.0)
        assert level_db(theta, 1e160) == pytest.approx(-160.0 * 160.0, rel=1e-12)
        betas = np.array([1e150, 1e160, 1e300])
        logs = core.log_response(theta, betas)
        for target, log in logs.items():
            assert np.all(np.isfinite(log.re))
            for beta, re in zip(betas, log.re):
                assert probe._re_at(theta, target)(float(beta)) == pytest.approx(re, rel=1e-14)
        np.testing.assert_allclose(logs["p_sharp"].re, -4.0 * np.log(betas), rtol=1e-15)
        np.testing.assert_allclose(logs["v"].re, -7.0 * np.log(betas), rtol=1e-15)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("theta", [
        FilterConstants(0.05, 1.0, 6.0, gain=3.0),
        FilterConstants(1e-170, 1.0, 4.0),  # a_p * a_p below the normal floats: hypot
        FilterConstants(1.5e-154, 2.0, 2.5),  # a_p * a_p just above them: no hypot
        FilterConstants(0.3, 1e155, 1.5),   # a_p**2 + u**2 overflows in every row
    ])
    def test_rows_of_a_2d_beta_are_row_calls_bit_for_bit(self, theta):
        # the bank exports blocks of channels through one 2-D call; a sum
        # a*a + u*u that overflows in one row must not move the others
        rng = np.random.default_rng(7)
        rows = [
            np.linspace(0.0, 4.0, 33),
            np.sort(rng.uniform(0.0, 3.0, 33)) * theta.b_p,
            np.r_[rng.uniform(0.5, 1.5, 30) * theta.b_p, 1e150, 1e160, 1e300],
            np.full(33, theta.b_p),
            np.geomspace(1e-300, 1e300, 33),
        ]
        block = core.log_response(theta, np.array(rows))
        for target in probe.TARGETS:
            for k, betas in enumerate(rows):
                alone = core.log_response(theta, betas, (target,))[target]
                assert block[target].re[k].tobytes() == alone.re.tobytes(), (target, k)
                assert block[target].im[k].tobytes() == alone.im.tobytes(), (target, k)

    @pytest.mark.filterwarnings("error")
    def test_finite_where_the_squared_pole_distance_underflows(self):
        # below a_p = 1e-162, a_p**2 + (beta - b_p)**2 underflows to 0 at the
        # pole: Re L = -b_u (log a_p + log hypot(a_p, 2 b_p)) there
        theta = FilterConstants(1e-170, 1.0, 4.0)
        want = -4.0 * (math.log(1e-170) + math.log(2.0))
        assert level_db(theta, 1.0) == pytest.approx(DB_PER_LOG * want, rel=1e-14)
        assert level_db(theta, 1.0) == pytest.approx(13576.0, abs=1.0)
        assert probe._re_at(theta, "p")(1.0) == pytest.approx(want, rel=1e-14)
        betas = np.array([0.0, 1.0 - 1e-160, 1.0, 1.0 + 1e-170, 3.0])
        for target, log in core.log_response(theta, betas).items():
            assert np.all(np.isfinite(log.re))
            for beta, re in zip(betas, log.re):
                assert probe._re_at(theta, target)(float(beta)) == re


class TestLogProbe:
    """log_probe: Re L and Im L at one float, the power at offsets from a
    peak (the ERB's node pass), and the limits of Im L, for extract_numeric."""

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(theta=positive_constants, beta=st.floats(0.0, 100.0))
    def test_scalar_phase_is_the_imaginary_part(self, theta, beta):
        logs = core.log_response(theta, np.array([beta]))
        for target, log in logs.items():
            got = probe._im_at(theta, target)(beta)
            assert type(got) is float
            # a last-bit difference of math.atan and numpy's arctan, times b_u
            tol = 4e-15 * theta.b_u
            assert got == pytest.approx(float(log.im[0]), rel=tol, abs=tol)

    @pytest.mark.parametrize("target, at_zero, at_inf", [
        ("p_sharp", lambda a, b, b_u: b_u * math.atan(b / a), lambda b_u: -b_u * math.pi / 2),
        ("p", lambda a, b, b_u: 0.0, lambda b_u: -b_u * math.pi),
        ("v", lambda a, b, b_u: 0.0, lambda b_u: -b_u * math.pi + math.pi / 2),
    ])
    def test_phase_limits(self, target, at_zero, at_inf):
        for theta in (FilterConstants(0.05, 1.0, 6.0), FilterConstants(1e-9, 3.0, 0.8),
                      FilterConstants(2.0, 1e5, 19.5)):
            im_at = probe.log_probe(theta, target).im_at
            a, b, b_u = theta.a_p, theta.b_p, theta.b_u
            assert im_at(0.0) == pytest.approx(at_zero(a, b, b_u), rel=1e-15, abs=1e-300)
            assert im_at(math.inf) == pytest.approx(at_inf(b_u), rel=1e-15)

    @pytest.mark.parametrize("make", [
        lambda theta: probe.log_probe(theta, "P"),
        lambda theta: core.log_response(theta, [1.0], ("P",)),
        lambda theta: core.log_response(theta, [1.0], ("p", "vv")),
    ])
    def test_an_unknown_target_is_refused(self, theta_sharp6, make):
        # log_probe once built v's probes for "P", and log_response raised a bare KeyError
        with pytest.raises(ValueError, match=r"one of \('p_sharp', 'p', 'v'\)"):
            make(theta_sharp6)

    def test_factors_is_the_only_listing_of_a_target(self, monkeypatch):
        # a fourth row, v's factors with log C, reaches every evaluator of L
        # through probe.FACTORS alone
        poles, zeros, _ = probe.FACTORS["v"]
        monkeypatch.setitem(probe.FACTORS, "w", (poles, zeros, True))
        theta = FilterConstants(0.05, 1.0, 6.0, gain=3.0)
        a, b, b_u = theta.a_p, theta.b_p, theta.b_u
        betas = [0.0, 0.3, 0.96, 0.9975, 1.0, 1.02, 1.7, 40.0]
        log = core.log_response(theta, np.array(betas), ("w",))["w"]
        v = core.log_response(theta, np.array(betas), ("v",))["v"]
        np.testing.assert_allclose(log.re - v.re, math.log(3.0), rtol=1e-13)
        np.testing.assert_array_equal(log.im, v.im)
        row = probe.log_probe(theta, "w")
        # each factor a + i u, with its exponent w in L, adds -w a / (a*a + u*u)
        # to -d(Im L)/d(beta) and w (a*a - u*u) / (a*a + u*u)**2 to d2(Re L)/d(beta)2
        factors = [(-b_u, c * b) for c in poles] + [(1.0, c * b) for c in zeros]
        for beta, re, im in zip(betas, log.re, log.im):
            assert row.re_at(beta) == pytest.approx(re, rel=1e-14, abs=1e-14)
            assert row.im_at(beta) == pytest.approx(im, rel=1e-14, abs=1e-14)
            delay = sum(-w * a / (a * a + (beta - c) ** 2) for w, c in factors)
            curvature = sum(w * (a * a - (beta - c) ** 2) / (a * a + (beta - c) ** 2) ** 2
                            for w, c in factors)
            assert row.delay_at(beta) == pytest.approx(delay, rel=1e-13)
            assert row.curvature_at(beta) == pytest.approx(curvature, rel=1e-12)
        x = [-15.0, -2.5, 0.0, 1.25, 10.0, 60.0]
        re = core.log_response(theta, 0.9975 + a * np.array([0.0, *x]), ("w",))["w"].re
        np.testing.assert_allclose(row.power(0.9975, x), np.exp(2.0 * (re[1:] - re[0])),
                                   rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("target", probe.TARGETS)
    def test_offsets_give_the_power_of_the_log_response(self, target):
        # the power at peak + a_p x over the power at the peak is
        # exp(2 (Re L(peak + a_p x) - Re L(peak))), to rounding
        theta = FilterConstants(0.05, 1.0, 6.0, gain=3.0)
        x = [-15.0, -2.5, 0.0, 1.25, 10.0, 60.0, 1e6]
        peak = 0.9975
        got = probe.log_probe(theta, target).power(peak, x)
        re = core.log_response(theta, peak + theta.a_p * np.array([0.0, *x]), (target,))[target].re
        assert type(got) is list and all(type(value) is float for value in got)
        np.testing.assert_allclose(got, np.exp(2.0 * (re[1:] - re[0])), rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("target", probe.TARGETS)
    def test_offsets_below_the_spacing_of_floats_stay_apart(self, target):
        # near b_p = 1e6 floats are 1.2e-10 apart; the offsets from it, in
        # units of a_p = 1e-12, are not rounded to them, so Re L falls as the
        # sharp form's (1 + x**2)**-b_u, half the log of the power
        theta = FilterConstants(1e-12, 1e6, 2.0)
        x = np.array([0.0, 0.5, 1.0, 2.0])
        got = probe.log_probe(theta, target).power(1e6, x.tolist())
        np.testing.assert_allclose(0.5 * np.log(got), -np.log1p(x * x), rtol=1e-9, atol=1e-15)

    @pytest.mark.parametrize("theta", [
        FilterConstants(1e-150, 1e150, 3.0),  # (b_p / a_p)**2 passes the largest float
        FilterConstants(1e150, 1e300, 3.0),
        FilterConstants(2e-160, 1e-150, 2.5),
    ])
    @pytest.mark.parametrize("target", probe.TARGETS)
    def test_power_is_scale_free(self, theta, target):
        # each factor is a ratio to its value at the peak, so the power at
        # the same offsets is the same at any scale of the constants
        x = [-3.0, -0.5, 0.25, 2.0, 40.0]
        unit = FilterConstants(theta.a_p / theta.b_p, 1.0, theta.b_u)
        got = probe.log_probe(theta, target).power(theta.b_p, x)
        want = probe.log_probe(unit, target).power(1.0, x)
        assert all(0.0 < value < 1.0 for value in got)
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)

    def test_a_power_past_the_largest_float_raises_overflow_error(self):
        # against beta = 3, 40 a_p above b_p, the power at b_p is 1601**300
        power = probe.log_probe(FilterConstants(0.05, 1.0, 300.0), "p_sharp").power
        with pytest.raises(OverflowError):
            power(3.0, [-40.0])


class TestSharpness:
    def test_reference_case_is_sharp(self, theta_sharp6):
        report = sharpness_check(theta_sharp6)
        assert report.satisfied
        assert report.alpha_at_peak == pytest.approx(0.025)

    def test_wide_filter_fails(self):
        assert not sharpness_check(FilterConstants(0.3, 1.0, 2.0)).satisfied

    def test_threshold_is_exclusive(self):
        assert sharpness_check(FilterConstants(0.19, 1.0, 4.0)).satisfied
        assert not sharpness_check(FilterConstants(0.2, 1.0, 4.0)).satisfied

    def test_threshold_scales_with_b_p(self):
        assert sharpness_check(FilterConstants(0.3, 2.0, 4.0)).satisfied


class TestSharpValidityTrend:
    def test_deviation_shrinks_with_ap_over_passband(self):
        # deviation between full and one-sided levels (offset removed at the
        # peak), measured over the filter's own 30 dB passband window
        def deviation(a_p, b_u=6.0):
            theta = FilterConstants(a_p, 1.0, b_u)
            half = a_p * math.sqrt(10.0 ** (30.0 / (10.0 * b_u)) - 1.0)
            betas = np.linspace(max(1e-6, 1.0 - half), 1.0 + half, 4001)
            sharp_level = 20.0 * np.log10(np.abs(np.asarray(eval_sharp(theta, betas))))
            diff = level_db(theta, betas) - sharp_level
            ref = level_db(theta, 1.0) - 20.0 * math.log10(abs(eval_sharp(theta, 1.0)))
            return float(np.max(np.abs(diff - ref)))

        d020, d010, d005 = deviation(0.2), deviation(0.1), deviation(0.05)
        assert d020 > d010 > d005


class TestPeakHelpers:
    def test_peak_beta_shift_scale(self, theta_sharp6):
        beta_star = peak_beta(theta_sharp6)
        assert beta_star == pytest.approx(1.0 - 0.05**2 / 2.0, abs=2e-6)
        # it is a true maximum of the level
        assert level_db(theta_sharp6, beta_star) > level_db(theta_sharp6, beta_star + 1e-4)
        assert level_db(theta_sharp6, beta_star) > level_db(theta_sharp6, beta_star - 1e-4)

    def test_normalized_to_peak(self, theta_sharp6):
        unit = normalized_to_peak(theta_sharp6)
        assert abs(eval_gef(unit, peak_beta(unit))) == pytest.approx(1.0, rel=1e-12)

    @settings(max_examples=500, derandomize=True, deadline=None)
    @given(
        theta=st.builds(
            FilterConstants,
            a_p=_positive(1e-4, 2.0),
            b_p=_positive(0.1, 10.0),
            b_u=_positive(0.1, 400.0),
            gain=_positive(1e-3, 1e3),
        )
    )
    @example(theta=FilterConstants(0.01, 1.0, 181.4363))  # peak modulus past the largest float
    @example(theta=FilterConstants(0.01, 1.0, 189.16))  # unit gain 4e-322, a subnormal
    def test_normalized_peak_level_is_zero_or_gef_error(self, theta):
        try:
            unit = normalized_to_peak(theta)
        except GefError:
            return
        assert abs(probe._re_at(unit, "p")(peak_beta(unit))) <= 1e-12

    @settings(max_examples=300, deadline=None)
    @given(
        ratio=st.floats(1e-4, 0.99),
        b_p=st.floats(1e-3, 1e3),
        b_u=st.floats(0.1, 64.0),
    )
    def test_peak_beta_is_the_slope_zero(self, ratio, b_p, b_u):
        theta = FilterConstants(ratio * b_p, b_p, b_u)
        beta_star = peak_beta(theta)
        assert wavenumber(theta, beta_star * (1.0 - 1e-9)).imag > 0.0
        assert wavenumber(theta, beta_star * (1.0 + 1e-9)).imag < 0.0
        assert beta_star == pytest.approx(_bracketed_peak(theta), rel=1e-10, abs=0.0)

    def test_near_degenerate_constants_keep_their_tiny_peak(self):
        # the bracket search found no bracket this close to a_p = b_p
        theta = FilterConstants(1.0 - 1e-12, 1.0, 2.0)
        assert _bracketed_peak(theta) == 0.0
        assert peak_beta(theta) == pytest.approx(math.sqrt(2e-12), rel=1e-3, abs=0.0)

    @pytest.mark.parametrize("a_p", [1.0, 1.5])
    def test_no_bandpass_peak_gives_zero(self, a_p):
        assert peak_beta(FilterConstants(a_p, 1.0, 2.0)) == 0.0


def _bracketed_peak(theta):
    """The bracket search and Brent solve of the magnitude slope that
    peak_beta ran before its closed form, kept as a reference."""
    b = theta.b_p

    def slope(beta):
        return wavenumber(theta, beta).imag

    for lo in (b - theta.a_p, 0.5 * b, 1e-3 * b):
        if lo > 0.0 and slope(lo) > 0.0:
            return _brentq(slope, lo, b, xtol=1e-15 * max(1.0, b), maxiter=200)
    return 0.0


class TestBrentq:
    """scalar._brentq against scipy.optimize.brentq, which stays a test-only
    oracle: the same iterates, root and exceptions."""

    @staticmethod
    def _logged(fn):
        calls = []

        def wrapped(x):
            calls.append(x)
            return fn(x)

        return wrapped, calls

    @staticmethod
    def _functions(rng):
        r, c, k = rng.uniform(0.1, 5.0), rng.uniform(0.5, 3.0), rng.uniform(0.1, 2.0)
        theta = FilterConstants(rng.uniform(0.01, 0.3), rng.uniform(0.5, 2.0), rng.uniform(1.0, 20.0))
        return [
            (lambda x: (x - r) * (x + c) ** 3, 0.0, 2.0 * r + 1.0),
            (lambda x: math.cos(x) - k * x, 0.0, math.pi / 2.0),
            (lambda x: math.exp(k * x) - c - 1.0, -1.0, 10.0 / k),
            (lambda x: math.atan(x - r) ** 3, r - 3.0, r + c),
            (lambda x: wavenumber(theta, x).imag, theta.b_p - theta.a_p, theta.b_p),
            # the inverse quadratic step's denominator underflows to 0
            (lambda x: (x / 1e250) ** 3 - 2.0, 1e250, 2e250),
        ]

    def test_matches_scipy_bit_for_bit(self):
        from scipy.optimize import brentq

        rng = np.random.default_rng(20240611)
        compared = 0
        for _ in range(60):
            xtol = float(10.0 ** rng.uniform(-15, -3))
            rtol = float(4.0 * np.finfo(float).eps * 10.0 ** rng.uniform(0, 6))
            for fn, lo, hi in self._functions(rng):
                if fn(lo) * fn(hi) >= 0.0:
                    continue
                ours, our_calls = self._logged(fn)
                theirs, their_calls = self._logged(fn)
                root = _brentq(ours, lo, hi, xtol=xtol, rtol=rtol, maxiter=200)
                assert root == brentq(theirs, lo, hi, xtol=xtol, rtol=rtol, maxiter=200)
                assert our_calls == their_calls
                compared += 1
        assert compared > 250

    @pytest.mark.parametrize("fn, lo, hi, maxiter, error", [
        (lambda x: x * x + 1.0, -1.0, 1.0, 100, ValueError),
        (lambda x: math.nan if x > 0.5 else x - 0.7, 0.0, 1.0, 100, ValueError),
        (lambda x: math.nan, 0.0, 1.0, 100, ValueError),
        # the first step lands on the nan at 0.5
        (lambda x: math.nan if 0.4 < x < 0.6 else x - 0.5, 0.0, 1.0, 100, ValueError),
        (lambda x: x - 0.3, 0.0, 1.0, 1, RuntimeError),
        (lambda x: x - 0.3, 0.0, 1.0, 0, RuntimeError),
        (lambda x: x - 0.3, 0.0, 1.0, -1, ValueError),
        (lambda x: math.nan, 0.0, 1.0, -1, ValueError),
        # the inverse quadratic step's denominator underflows to 0
        (lambda x: (x / 1e250) ** 3 - 2.0, 1e250, 2e250, 5, RuntimeError),
    ])
    def test_raises_what_scipy_raises(self, fn, lo, hi, maxiter, error):
        from scipy.optimize import brentq

        with pytest.raises(error) as theirs:
            brentq(fn, lo, hi, maxiter=maxiter)
        with pytest.raises(error) as ours:
            _brentq(fn, lo, hi, maxiter=maxiter)
        assert str(ours.value) == str(theirs.value)

    def test_endpoint_roots_returned_as_is(self):
        assert _brentq(lambda x: x - 0.25, 0.25, 1.0) == 0.25
        assert _brentq(lambda x: x - 1.0, 0.25, 1.0) == 1.0

    def test_given_end_values_are_not_evaluated_again(self):
        def fn(x):
            return math.cos(x) - 0.5 * x

        both, calls_both = self._logged(fn)
        root = _brentq(both, 0.0, 2.0)
        for fa, fb in ((fn(0.0), None), (None, fn(2.0)), (fn(0.0), fn(2.0))):
            logged, calls = self._logged(fn)
            assert _brentq(logged, 0.0, 2.0, _fa=fa, _fb=fb) == root
            skipped = [x for x, given in ((0.0, fa), (2.0, fb)) if given is not None]
            assert calls == [x for x in calls_both if x not in skipped]

    def test_a_nan_end_value_raises(self):
        with pytest.raises(ValueError, match="x=2.0 is NaN"):
            _brentq(lambda x: x - 1.0, 0.0, 2.0, _fb=math.nan)

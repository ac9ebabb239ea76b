import json
import math
import struct
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.signal import chirp

from gefdesign import (
    FilterConstants,
    apply_fft,
    apply_sos,
    closed_form,
    digital_response,
    eval_gef,
    extract_numeric,
    normalized_to_peak,
    peak_beta,
    to_sos,
)
from gefdesign import biquad, digital
from gefdesign.biquad import _bilinear_all_pole
from gefdesign.characteristics import FrequencyGrid, default_grid
from gefdesign.digital import (
    DigitalFilter,
    SignalBuffer,
    _block_plan,
    _cascade_log,
    read_signal_csv,
    read_wav,
    save_filter,
    write_wav,
)
from gefdesign.errors import (
    InfeasibleSpec,
    NoInteriorPeak,
    NonIntegerExponent,
    NyquistViolation,
    OutOfRange,
    SampleRateMismatch,
)

FS = 48000.0
F_PEAK = 1000.0


@pytest.fixture(scope="module")
def filt_sharp6():
    return to_sos(FilterConstants(0.05, 1.0, 6.0), F_PEAK, FS)


def rms(x):
    return float(np.sqrt(np.mean(np.square(x))))


def single_transform(theta, f_peak, fs, x):
    """FFT filtering of the whole signal in one transform zero-padded to the
    power of two at or above twice its length: the reference for apply_fft."""
    nfft = 1
    while nfft < 2 * x.size:
        nfft *= 2
    spectrum = np.fft.rfft(x, nfft)
    freqs = np.fft.rfftfreq(nfft, d=1.0 / fs)
    response = np.asarray(eval_gef(theta, freqs * (peak_beta(theta) / f_peak)))
    return np.fft.irfft(spectrum * response, nfft)[:x.size]


def noise(n, seed=0):
    return np.random.default_rng(seed).standard_normal(n)


class TestToSos:
    def test_section_count_and_pole_radius(self, filt_sharp6):
        assert len(filt_sharp6.sections) == 6
        assert len(set(filt_sharp6.sections)) == 1  # identical biquads
        radius = filt_sharp6.pole_radii().max()
        assert radius == pytest.approx(0.9935, abs=5e-4)
        assert radius <= 0.999

    def test_peak_normalized(self, filt_sharp6):
        assert abs(digital_response(filt_sharp6, F_PEAK)) == pytest.approx(1.0, abs=1e-6)

    def test_digital_peak_within_one_fft_bin(self, filt_sharp6):
        nfft = 2**18
        freqs = np.arange(nfft // 2 + 1) * FS / nfft
        response = np.abs(np.asarray(digital_response(filt_sharp6, freqs)))
        peak_freq = freqs[int(np.argmax(response))]
        assert abs(peak_freq - F_PEAK) <= FS / nfft

    def test_nyquist_violation(self, theta_sharp6):
        with pytest.raises(NyquistViolation):
            to_sos(theta_sharp6, 30000.0, FS)

    def test_non_integer_exponent_rejected(self):
        with pytest.raises(NonIntegerExponent):
            to_sos(FilterConstants(0.05, 1.0, 5.5), F_PEAK, FS)

    @pytest.mark.parametrize("f_peak, fs", [
        (F_PEAK, math.nan), (F_PEAK, math.inf),
        (math.nan, FS), (math.inf, FS), (0.0, FS), (-F_PEAK, FS),
    ])
    def test_non_finite_or_non_positive_rates_rejected(self, theta_sharp6, f_peak, fs):
        with pytest.raises(OutOfRange):
            to_sos(theta_sharp6, f_peak, fs)

    def test_constants_without_peak_rejected(self):
        # |P| falls from beta = 0: there is no peak to place at f_peak
        with pytest.raises(NoInteriorPeak):
            to_sos(FilterConstants(1.0, 0.5, 2.0), F_PEAK, FS)

    def test_near_degenerate_constants_discretize(self):
        # a_p within 1e-12 of b_p still has a (tiny) bandpass peak to place
        theta = FilterConstants(1.0 - 1e-12, 1.0, 2.0)
        filt = to_sos(theta, F_PEAK, FS)
        assert np.all(filt.pole_radii() < 1.0)
        assert abs(digital_response(filt, F_PEAK)) == pytest.approx(1.0, rel=1e-9)
        out = apply_fft(theta, F_PEAK, FS, SignalBuffer(FS, np.ones(64)))
        assert np.all(np.isfinite(out.samples))

    @pytest.mark.parametrize("theta, f_peak, fs", [
        (FilterConstants(1e-17, 1.0, 2.0), F_PEAK, FS),  # a2 rounds to 1: poles on the circle
        (FilterConstants(0.05, 1e150, 2.0), F_PEAK, FS),
        (FilterConstants(0.05, 1.0, 4.0), 23999.9999, FS),  # a double pole at -1
        (FilterConstants(0.05, 1.0, 4.0), 1e-300, 1.0),
        # b_p * b_p overflows and a_p / b_p = 1e-455 scales 2 a_p w to 0
        (FilterConstants(1e-300, 1e155, 1.0), F_PEAK, FS),
    ])
    def test_poles_rounded_onto_the_circle_rejected(self, theta, f_peak, fs):
        with pytest.raises(OutOfRange, match="no finite biquad"):
            to_sos(theta, f_peak, fs)

    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    def test_constants_whose_squares_leave_the_normal_floats_discretize(self, scale):
        # a_p**2 + b_p**2 overflows at 1e200 and underflows to 0 at 1e-200
        want = to_sos(FilterConstants(0.1, 1.0, 2.0), F_PEAK, FS).sections
        got = to_sos(FilterConstants(0.1 * scale, scale, 2.0), F_PEAK, FS).sections
        for section, reference in zip(got, want, strict=True):
            assert section == pytest.approx(reference, rel=1e-14)

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(ratio=st.floats(1e-3, 0.95), k=st.integers(-300, 300),
           f_peak=st.floats(20.0, 20000.0))
    def test_sections_depend_on_the_ratio_of_the_constants_alone(self, ratio, k, f_peak):
        # the section maps a_p w and b_p w, w = warped / peak_beta, so scaling
        # a_p and b_p together leaves it unchanged over the whole float range
        want = to_sos(FilterConstants(ratio, 1.0, 2.0), f_peak, FS).sections[0]
        scale = 10.0 ** k
        got = to_sos(FilterConstants(ratio * scale, scale, 2.0), f_peak, FS).sections[0]
        assert got == pytest.approx(want, rel=1e-14)

    @pytest.mark.parametrize("a_p,b_u", [(0.02, 3.0), (0.05, 6.0), (0.1, 7.0), (0.2, 2.0)])
    @pytest.mark.parametrize("f_peak", [200.0, 1000.0, 8000.0])
    def test_stability_preserved(self, a_p, b_u, f_peak):
        filt = to_sos(FilterConstants(a_p, 1.0, b_u), f_peak, FS)
        assert np.all(filt.pole_radii() < 1.0)


class TestBilinearPort:
    """biquad._bilinear_all_pole against scipy.signal.bilinear, which stays
    a test-only oracle."""

    def test_matches_scipy_bit_for_bit(self):
        from scipy.signal import bilinear

        rng = np.random.default_rng(5)
        compared = 0
        for _ in range(500):
            fs = float(rng.choice([8000.0, 16000.0, 44100.0, 48000.0, 96000.0, 192000.0]))
            theta = FilterConstants(rng.uniform(0.005, 0.3), rng.uniform(0.5, 2.0), 2.0)
            f_peak = float(rng.uniform(20.0, 0.45 * fs))
            # to_sos's prewarped scale, with the pole's b_p standing in for its peak
            w = 2.0 * fs * math.tan(math.pi * f_peak / fs) / theta.b_p
            c1, c0 = 2.0 * theta.a_p * w, (theta.a_p**2 + theta.b_p**2) * w * w
            b, a = bilinear([1.0], [1.0, c1, c0], fs=fs)
            if b[0] <= 1e-14:  # scipy trims such leading coefficients; see below
                continue
            ours_b, ours_a = _bilinear_all_pole(c1, c0, fs)
            assert np.array_equal(ours_b, b) and np.array_equal(ours_a, a)
            compared += 1
        assert compared > 400

    @pytest.mark.parametrize("f_peak, fs", [(23900.0, 48000.0), (1e5, 1e8)])
    def test_keeps_double_zero_at_nyquist(self, f_peak, fs):
        # scipy.signal.bilinear drops numerator coefficients below 1e-14, which
        # made these sections (b0, 0, 0): the zeros at z = -1 went missing
        filt = to_sos(FilterConstants(0.05, 1.0, 4.0), f_peak, fs)
        b0, b1, b2 = filt.sections[0][:3]
        assert b1 == 2.0 * b0 and b2 == b0 > 0.0
        assert abs(digital_response(filt, f_peak)) == pytest.approx(1.0, abs=1e-6)
        assert abs(digital_response(filt, 0.5 * fs)) < 1e-12


def schur_cohn_exact(a1, a2):
    """Both roots of z**2 + a1 z + a2 strictly inside the unit circle, in
    rational arithmetic."""
    a1, a2 = Fraction(a1), Fraction(a2)
    return abs(a2) < 1 and abs(a1) < 1 + a2


def near_circle_sections(seed, n):
    """(kind, a1, a2): complex pairs, real roots at +-1 beside a root inside,
    double roots at +-1 (each 1e-16 to 1e-12 from the circle, either side),
    and sections of generic coefficients."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        kind = rng.choice(["complex", "real", "double", "generic"])
        eps = 10.0 ** rng.uniform(-16.0, -12.0) * rng.choice([-1.0, 1.0])
        sign = rng.choice([-1.0, 1.0])
        if kind == "complex":
            r, angle = 1.0 + eps, rng.uniform(1e-3, math.pi - 1e-3)
            a1, a2 = -2.0 * r * math.cos(angle), r * r
        elif kind == "real":
            r1, r2 = sign * (1.0 + eps), rng.uniform(-0.99, 0.99)
            a1, a2 = -(r1 + r2), r1 * r2
        elif kind == "double":
            r = sign * (1.0 + eps)
            a1, a2 = -2.0 * r, r * r
        else:
            a1, a2 = rng.uniform(-3.0, 3.0), rng.uniform(-2.0, 2.0)
        out.append((str(kind), float(a1), float(a2)))
    return out


def accepts(a1, a2):
    try:
        DigitalFilter(FS, sections=((1.0, 0.0, 0.0, a1, a2),))
    except ValueError:
        return False
    return True


def dot_normalized(theta, f_peak, fs):
    """to_sos as it normalized its section when it ran on numpy: by the
    magnitude of the bilinear section at the peak from numpy dot products,
    kept as the reference."""
    w = 2.0 * fs * math.tan(math.pi * f_peak / fs) / peak_beta(theta)
    bz, az = _bilinear_all_pole(2.0 * theta.a_p * w, (theta.a_p**2 + theta.b_p**2) * w * w, fs)
    bz, az = np.array(bz), np.array(az)
    z = np.exp(1j * 2.0 * math.pi * f_peak / fs)
    zv = np.array([1.0, 1.0 / z, 1.0 / z**2])
    bz = bz / abs(np.dot(bz, zv) / np.dot(az, zv))
    section = (bz[0], bz[1], bz[2], az[1], az[2])
    return DigitalFilter(fs, sections=(section,) * int(round(theta.b_u)))


def exact_peak_error(section, f_peak, fs):
    """|H|**2 - 1 of one section, in rational arithmetic, at the angle whose
    squared half-angle sine is the float sin(pi f_peak / fs)**2 (the
    magnitude is stationary at the peak, so that angle's own rounding does
    not show)."""
    b0, b1, b2, a1, a2 = map(Fraction, section)
    t = Fraction(math.sin(math.pi * f_peak / fs) ** 2)
    cos1, sin1_sq = 1 - 2 * t, 4 * t * (1 - t)
    cos2 = 1 - 2 * sin1_sq

    def modulus_sq(c0, c1, c2):
        return (c0 + c1 * cos1 + c2 * cos2) ** 2 + sin1_sq * (c1 + 2 * c2 * cos1) ** 2

    return float(modulus_sq(b0, b1, b2) / modulus_sq(1, a1, a2) - 1)


class TestBiquadNumerics:
    """The stdlib stability test, pole radii and peak normalization of
    gefdesign.biquad against exact arithmetic, np.roots and the np.dot
    normalization they replaced."""

    def test_stability_decision_is_exact(self):
        for kind, a1, a2 in near_circle_sections(20, 4000):
            assert accepts(a1, a2) == schur_cohn_exact(a1, a2), (kind, a1.hex(), a2.hex())

    def test_radii_decide_as_np_roots_off_a_double_root(self):
        # a double root on the circle is ill-conditioned: there neither the
        # closed-form radii nor np.roots decide reliably, and the test above
        # holds the exact decision; elsewhere both agree with it
        for kind, a1, a2 in near_circle_sections(21, 4000):
            if kind == "double":
                continue
            radii = biquad._quadratic_radii(a1, a2)
            np_radii = np.abs(np.roots([1.0, a1, a2]))
            np.testing.assert_allclose(sorted(radii), sorted(np_radii), rtol=1e-12)
            if kind == "generic" or abs(max(np_radii) - 1.0) > 1e-14:
                assert (max(radii) < 1.0) == bool(max(np_radii) < 1.0) == schur_cohn_exact(a1, a2)

    def test_pole_radii_is_an_array_of_both_roots(self, filt_sharp6):
        radii = filt_sharp6.pole_radii()
        assert isinstance(radii, np.ndarray) and radii.shape == (12,)
        _, _, _, a1, a2 = filt_sharp6.sections[0]
        np.testing.assert_allclose(radii[:2], np.abs(np.roots([1.0, a1, a2])), rtol=1e-14)

    def test_peak_normalization_no_worse_than_the_dot_reference(self):
        rng = np.random.default_rng(22)
        worst = {"ours": 0.0, "dot": 0.0}
        worst_exact = {"ours": 0.0, "dot": 0.0}
        for _ in range(1500):
            fs = float(rng.choice([8000.0, 16000.0, 22050.0, 44100.0, 48000.0, 96000.0]))
            theta = FilterConstants(rng.uniform(0.002, 0.6), 1.0, float(rng.integers(1, 9)))
            f_peak = float(rng.uniform(10.0, 0.499 * fs))
            filters = {"ours": to_sos(theta, f_peak, fs), "dot": dot_normalized(theta, f_peak, fs)}
            assert filters["ours"].sections[0][3:] == filters["dot"].sections[0][3:]
            for name, filt in filters.items():
                error = abs(abs(digital_response(filt, f_peak)) - 1.0)
                worst[name] = max(worst[name], error)
                exact = abs(exact_peak_error(filt.sections[0], f_peak, fs))
                worst_exact[name] = max(worst_exact[name], exact)
        assert worst["ours"] <= worst["dot"]
        # what remains is the rounding of the stored a1 and a2
        assert worst_exact["ours"] < 1e-12 < worst_exact["dot"]


class TestDigitalResponse:
    def test_dc_attenuation(self, filt_sharp6):
        level = 20.0 * math.log10(abs(digital_response(filt_sharp6, 0.0)))
        assert level < -60.0

    def test_out_of_range(self, filt_sharp6):
        with pytest.raises(OutOfRange):
            digital_response(filt_sharp6, -1.0)
        with pytest.raises(OutOfRange):
            digital_response(filt_sharp6, FS)

    def test_real_coefficient_symmetry(self, filt_sharp6):
        # H(e^{-i theta}) = conj(H(e^{i theta})) for real sections
        f = 1234.5
        z_inv = np.exp(2j * math.pi * f / FS)  # negative-frequency evaluation
        value = complex(filt_sharp6.gain)
        for b0, b1, b2, a1, a2 in filt_sharp6.sections:
            value *= (b0 + b1 * z_inv + b2 * z_inv**2) / (1.0 + a1 * z_inv + a2 * z_inv**2)
        assert value == pytest.approx(np.conj(digital_response(filt_sharp6, f)), rel=1e-12)

    def test_characteristic_survival_q10(self, filt_sharp6, theta_sharp6):
        grid = default_grid(theta_sharp6)
        hz_grid = FrequencyGrid(
            samples=grid.samples * F_PEAK,
            dense_halfwidth=grid.dense_halfwidth * F_PEAK,
            dense_step=grid.dense_step * F_PEAK,
            tail_max=grid.tail_max * F_PEAK,
            tail_points=grid.tail_points,
        )
        report = extract_numeric(lambda f: digital_response(filt_sharp6, f), hz_grid)
        q10_analog = closed_form(theta_sharp6).q_n[10.0]
        assert abs(report.q_n[10.0] - q10_analog) / q10_analog < 0.03


class TestCascadeLog:
    """_cascade_log sums the sections' continuous logs; digital_response is its exp."""

    @pytest.mark.filterwarnings("error")
    def test_all_zero_numerator_is_minus_inf(self):
        filt = DigitalFilter(FS, sections=((0.0, 0.0, 0.0, -0.5, 0.25),))
        freqs = np.linspace(0.0, 0.5 * FS, 9)
        assert np.all(_cascade_log(filt, freqs).real == -math.inf)
        assert np.all(np.asarray(digital_response(filt, freqs)) == 0.0)

    @pytest.mark.parametrize("numerator", [
        (0.0, 1.0, 0.5),     # a leading zero: z^-1 (1 + 0.5/z)
        (0.0, 0.0, -2.0),    # two: -2 z^-2
        (-1.0, -2.0, -1.0),  # a negative lead with the double zero at -1
        (1.0, -2.5, 1.0),    # roots 2 and 0.5
        (1e-300, 1e10, 1.0),  # a root in z past the largest float: factored in 1/z
        (1.0, 1e10, 1e-300),  # its mirror, factored in z
    ])
    def test_factored_numerators_match_the_section_product(self, numerator):
        filt = DigitalFilter(FS, sections=(numerator + (-0.9, 0.4),))
        freqs = np.linspace(0.0, 0.45 * FS, 4097)
        z_inv = np.exp(-2j * math.pi * freqs / FS)
        product = np.polyval(numerator[::-1], z_inv) / np.polyval((0.4, -0.9, 1.0), z_inv)
        log_h = _cascade_log(filt, freqs)
        np.testing.assert_allclose(np.exp(log_h), product, rtol=1e-12)
        # continuous from f = 0: a dense unwrap, up to whole turns
        unwrapped = np.unwrap(np.angle(product))
        unwrapped += 2.0 * math.pi * round((log_h.imag[0] - unwrapped[0]) / (2.0 * math.pi))
        np.testing.assert_allclose(log_h.imag, unwrapped, rtol=0.0, atol=1e-9)

    def test_root_past_the_largest_float_raises_out_of_range(self):
        # past the largest float in z and in 1/z alike
        filt = DigitalFilter(FS, sections=((1e-300, 1e10, 1e-300, 0.0, 0.0),))
        with pytest.raises(OutOfRange):
            digital_response(filt, 1000.0)


class TestApplySos:
    def test_impulse_response_matches_frequency_response(self, filt_sharp6):
        n = 2**16
        impulse = SignalBuffer(FS, np.r_[1.0, np.zeros(n - 1)])
        h = apply_sos(filt_sharp6, impulse)
        assert h.samples.size == n
        spectrum = np.fft.rfft(h.samples)
        bins = np.arange(spectrum.size) * FS / n
        reference = np.asarray(digital_response(filt_sharp6, bins))
        assert np.max(np.abs(spectrum - reference)) < 1e-9

    def test_zero_in_zero_out(self, filt_sharp6):
        out = apply_sos(filt_sharp6, SignalBuffer(FS, np.zeros(512)))
        assert np.all(out.samples == 0.0)

    def test_sine_steady_state_amplitude(self, filt_sharp6):
        t = np.arange(int(FS)) / FS
        out = apply_sos(filt_sharp6, SignalBuffer(FS, np.sin(2 * np.pi * F_PEAK * t)))
        steady = out.samples[out.samples.size // 2 :]
        assert np.abs(steady).max() == pytest.approx(1.0, rel=0.01)

    def test_sample_rate_mismatch(self, filt_sharp6):
        with pytest.raises(SampleRateMismatch):
            apply_sos(filt_sharp6, SignalBuffer(44100.0, np.zeros(16)))

    def test_superposition(self, filt_sharp6):
        rng = np.random.default_rng(1234)
        x1 = rng.standard_normal(4096)
        x2 = rng.standard_normal(4096)
        a, b = 0.7, -1.3
        y_combined = apply_sos(filt_sharp6, SignalBuffer(FS, a * x1 + b * x2)).samples
        y_parts = (
            a * apply_sos(filt_sharp6, SignalBuffer(FS, x1)).samples
            + b * apply_sos(filt_sharp6, SignalBuffer(FS, x2)).samples
        )
        assert np.max(np.abs(y_combined - y_parts)) < 1e-10 * np.max(np.abs(y_combined))

    def test_time_invariance(self, filt_sharp6):
        rng = np.random.default_rng(99)
        x = rng.standard_normal(2048)
        shift = 37
        y = apply_sos(filt_sharp6, SignalBuffer(FS, x)).samples
        y_shifted = apply_sos(filt_sharp6, SignalBuffer(FS, np.r_[np.zeros(shift), x])).samples
        assert np.max(np.abs(y_shifted[shift:] - y)) < 1e-10


class TestSosfiltKernel:
    """apply_sos runs scipy's compiled cascade loop without importing
    scipy.signal; scipy.signal.sosfilt stays a test-only oracle."""

    @staticmethod
    def _random_filter(rng):
        sections = []
        for _ in range(int(rng.integers(1, 9))):
            radius, angle = rng.uniform(0.1, 0.999), rng.uniform(0.0, np.pi)
            sections.append((*rng.standard_normal(3), -2.0 * radius * np.cos(angle), radius**2))
        return DigitalFilter(FS, tuple(sections), gain=float(rng.uniform(0.1, 10.0)))

    def test_matches_scipy_bit_for_bit(self):
        from scipy.signal import sosfilt

        rng = np.random.default_rng(11)
        for n in (1, 2, 3, 1000, 48000):
            filt = self._random_filter(rng)
            x = rng.standard_normal(n)
            sos = np.array([[b0, b1, b2, 1.0, a1, a2] for b0, b1, b2, a1, a2 in filt.sections])
            ours = apply_sos(filt, SignalBuffer(FS, x)).samples
            assert np.array_equal(ours, sosfilt(sos, x) * filt.gain)

    def test_empty_signal(self, filt_sharp6):
        # scipy.signal.sosfilt raises ValueError on an empty signal
        assert apply_sos(filt_sharp6, SignalBuffer(FS, np.zeros(0))).samples.size == 0

    def test_without_the_kernel_scipy_sosfilt_runs(self, monkeypatch):
        rng = np.random.default_rng(12)
        filt, x = self._random_filter(rng), SignalBuffer(FS, rng.standard_normal(500))
        expected = apply_sos(filt, x).samples
        monkeypatch.setattr(digital, "_sosfilt_kernel", lambda: None)
        assert np.array_equal(apply_sos(filt, x).samples, expected)

    def test_kernel_is_scipy_signals_own(self):
        from scipy.signal import _signaltools

        assert digital._sosfilt_kernel() is _signaltools._sosfilt


class TestApplyFft:
    def test_matches_sos_on_chirp(self, filt_sharp6, theta_sharp6):
        t = np.arange(int(FS)) / FS
        x = SignalBuffer(FS, chirp(t, f0=200.0, f1=2000.0, t1=1.0))
        y_sos = apply_sos(filt_sharp6, x).samples
        y_fft = apply_fft(normalized_to_peak(theta_sharp6), F_PEAK, FS, x).samples
        assert rms(y_sos - y_fft) / rms(y_sos) < 0.01

    def test_non_integer_exponent_runs_real(self):
        theta = FilterConstants(0.05, 1.0, 5.5)
        t = np.arange(4096) / FS
        out = apply_fft(theta, F_PEAK, FS, SignalBuffer(FS, np.sin(2 * np.pi * 900.0 * t)))
        assert out.samples.dtype == np.float64
        assert np.all(np.isfinite(out.samples))
        assert out.samples.size == 4096

    def test_dc_gain(self, theta_sharp6):
        # interior of a long constant signal settles to |P(0)| once the
        # band-pass transient has decayed
        out = apply_fft(theta_sharp6, F_PEAK, FS, SignalBuffer(FS, np.ones(48000)))
        assert out.samples[24000] == pytest.approx(abs(eval_gef(theta_sharp6, 0.0)), rel=1e-9)

    def test_nyquist_violation(self, theta_sharp6):
        with pytest.raises(NyquistViolation):
            apply_fft(theta_sharp6, 30000.0, FS, SignalBuffer(FS, np.zeros(16)))

    def test_constants_without_peak_rejected(self):
        with pytest.raises(NoInteriorPeak):
            apply_fft(FilterConstants(1.0, 0.5, 2.0), F_PEAK, FS, SignalBuffer(FS, np.zeros(16)))

    def test_sample_rate_mismatch(self, theta_sharp6):
        with pytest.raises(SampleRateMismatch):
            apply_fft(theta_sharp6, F_PEAK, FS, SignalBuffer(44100.0, np.zeros(16)))

    @pytest.mark.parametrize("f_peak, fs", [
        (F_PEAK, math.nan), (F_PEAK, math.inf), (math.nan, FS), (math.inf, FS), (0.0, FS),
    ])
    def test_non_finite_or_non_positive_rates_rejected(self, theta_sharp6, f_peak, fs):
        # the rates are checked before the signal's own rate, which a
        # SignalBuffer holds positive and finite
        with pytest.raises(OutOfRange):
            apply_fft(theta_sharp6, f_peak, fs, SignalBuffer(FS, np.zeros(16)))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("n", [100, 48000])
    def test_non_finite_signal_passes_without_warning(self, theta_sharp6, n):
        x = noise(n)
        x[n // 2] = math.inf
        out = apply_fft(theta_sharp6, F_PEAK, FS, SignalBuffer(FS, x))
        assert out.samples.size == n and not np.all(np.isfinite(out.samples))

    @pytest.mark.filterwarnings("error")
    def test_non_finite_response_rejected(self):
        # |P| near the peak is about (2 a_p b_p)**(-b_u) = 0.002**-200, which
        # overflows on bins within 3 Hz of it
        with pytest.raises(OutOfRange):
            apply_fft(FilterConstants(0.001, 1.0, 200.0), F_PEAK, FS, SignalBuffer(FS, np.ones(4800)))


# sharp enough that the blocks are far shorter than a long signal
THETA_BLOCKS = normalized_to_peak(FilterConstants(0.05, 1.0, 6.5))


def block_size(n, theta=THETA_BLOCKS, f_peak=F_PEAK):
    return _block_plan(theta, f_peak, FS, n)[0]


def cap(n):
    """The longest block apply_fft uses on n samples: one transform of all."""
    return 1 << (2 * n - 1).bit_length()


class TestApplyFftBlocks:
    """apply_fft against one transform of the whole signal."""

    def assert_matches_single_transform(self, theta, f_peak, x):
        y = apply_fft(theta, f_peak, FS, SignalBuffer(FS, x)).samples
        y_ref = single_transform(theta, f_peak, FS, x)
        assert y.size == x.size
        assert np.all(np.isfinite(y))
        assert np.max(np.abs(y - y_ref), initial=0.0) <= 1e-10 * np.max(np.abs(y_ref), initial=0.0)
        if x.size and block_size(x.size, theta, f_peak) == cap(x.size):
            assert y.tobytes() == y_ref.tobytes()

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(
        ratio=st.floats(0.005, 0.19),
        b_u=st.floats(1.0, 20.0),
        f_peak=st.floats(20.0, 0.45 * FS),
        n=st.integers(0, 2**18),
    )
    def test_matches_single_transform(self, ratio, b_u, f_peak, n):
        theta = normalized_to_peak(FilterConstants(ratio, 1.0, b_u))
        self.assert_matches_single_transform(theta, f_peak, noise(n, seed=n))

    def test_empty_signal(self):
        out = apply_fft(THETA_BLOCKS, F_PEAK, FS, SignalBuffer(FS, np.zeros(0)))
        assert out.samples.size == 0

    def test_one_sample(self):
        self.assert_matches_single_transform(THETA_BLOCKS, F_PEAK, np.array([0.75]))

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_lengths_around_a_multiple_of_the_hop(self, offset):
        nb, hop, lead, _ = _block_plan(THETA_BLOCKS, F_PEAK, FS, 2**20)
        # the hop is the block less the kernel's support, not half the block
        assert nb // 2 < hop < nb
        n = 5 * hop + offset
        assert _block_plan(THETA_BLOCKS, F_PEAK, FS, n)[:3] == (nb, hop, lead)
        assert nb < cap(n)
        self.assert_matches_single_transform(THETA_BLOCKS, F_PEAK, noise(n))

    def test_lengths_around_the_cap(self):
        nb = block_size(2**20)
        n = nb // 2  # the longest signal whose cap is the kernel's own block
        assert block_size(n) == cap(n) == nb
        self.assert_matches_single_transform(THETA_BLOCKS, F_PEAK, noise(n))
        assert block_size(n + 1) == nb < cap(n + 1)
        self.assert_matches_single_transform(THETA_BLOCKS, F_PEAK, noise(n + 1))

    # kernels that decay within a block shorter than the cap
    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(
        ratio=st.floats(0.01, 0.19),
        b_u=st.floats(3.0, 20.0),
        f_peak=st.floats(200.0, 0.2 * FS),
        n=st.integers(2**15, 2**18),
    )
    def test_block_kernel_support(self, ratio, b_u, f_peak, n):
        # the block's kernel holds at most _ALIAS_ENERGY of its energy
        # outside [-lead, head), the samples one hop's output spans
        theta = normalized_to_peak(FilterConstants(ratio, 1.0, b_u))
        nb, hop, lead, response = _block_plan(theta, f_peak, FS, n)
        assume(nb < cap(n))  # at the cap one block takes the whole signal
        head = nb - hop - lead
        assert 0 <= lead and 0 < head and hop > 0
        energy = np.square(np.fft.irfft(response, nb))
        assert energy[head:nb - lead].sum() <= digital._ALIAS_ENERGY * energy.sum()

    @pytest.mark.parametrize("fs", [12345.678, 44100.0, 48000.0, 96000.0])
    def test_block_does_not_follow_the_signal_length(self, fs):
        # below the cap, a signal one sample past a hop gets the block of a
        # long one: no shorter block is tried
        plan = _block_plan(THETA_BLOCKS, F_PEAK, fs, 2**20)[:3]
        nb, hop, _ = plan
        for n in (hop + 1, 5 * hop):
            assert nb < cap(n)
            assert _block_plan(THETA_BLOCKS, F_PEAK, fs, n)[:3] == plan

    @pytest.mark.parametrize("fs", [12345.678, 44100.0, 48000.0, 96000.0])
    def test_doubling_probe_interleaves_new_bins(self, fs, monkeypatch):
        # this kernel outgrows the first guess once; the doubling evaluates
        # only the odd bins of the new grid
        theta = normalized_to_peak(FilterConstants(0.1012, 1.0, 9.11))
        f_peak = 897.0 * fs / 48000.0
        sizes = []

        def counted(theta, beta):
            sizes.append(np.size(beta))
            return eval_gef(theta, beta)

        monkeypatch.setattr(digital, "eval_gef", counted)
        nb, _, _, response = _block_plan(theta, f_peak, fs, 2**20)
        assert nb < cap(2**20) and sizes == [nb // 4 + 1, nb // 4]
        freqs = np.fft.rfftfreq(nb, d=1.0 / fs)
        fresh = np.asarray(eval_gef(theta, freqs * (peak_beta(theta) / f_peak)))
        assert response.tobytes() == fresh.tobytes()

    @pytest.mark.parametrize("fs", [12345.678, 44100.0, 48000.0, 96000.0])
    def test_cap_jump_keeps_the_old_bins(self, fs, monkeypatch):
        # this kernel doubles once from 8192, then its middle falls less than
        # fourfold and the block jumps to the cap; the jump evaluates only the
        # bins the 16384-point grid lacks
        theta = normalized_to_peak(FilterConstants(0.05, 1.0, 1.2))
        f_peak = 5000.0 * fs / 48000.0
        sizes = []

        def counted(theta, beta):
            sizes.append(np.size(beta))
            return eval_gef(theta, beta)

        monkeypatch.setattr(digital, "eval_gef", counted)
        nb, hop, lead, response = _block_plan(theta, f_peak, fs, 48000)
        assert (nb, hop, lead) == (cap(48000), nb, 0)
        assert sizes == [4097, 4096, nb // 2 - 8192]
        freqs = np.fft.rfftfreq(nb, d=1.0 / fs)
        fresh = np.asarray(eval_gef(theta, freqs * (peak_beta(theta) / f_peak)))
        assert response.tobytes() == fresh.tobytes()

    @pytest.mark.filterwarnings("error")
    def test_decay_rate_underflow(self):
        # r = 2 pi a_p f_peak / (peak_beta fs) underflows to 0
        out = apply_fft(FilterConstants(5e-324, 1.0, 2.5), 1e-300, FS, SignalBuffer(FS, noise(5000)))
        assert np.all(np.isfinite(out.samples))

    def test_memory_stays_near_the_signal(self):
        x = SignalBuffer(FS, noise(2**21))
        tracemalloc.start()
        try:
            apply_fft(THETA_BLOCKS, F_PEAK, FS, x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * x.samples.nbytes


def block_loop(theta, f_peak, fs, x):
    """apply_fft's overlap-add one block at a time, as it ran before the
    blocks were batched: the reference its output equals byte for byte."""
    n = x.size
    nb, hop, lead, response = digital._block_plan(theta, f_peak, fs, n)
    out = np.full(lead + n, -0.0)
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, n, hop):
            block = np.fft.irfft(np.fft.rfft(x[start:start + hop], nb) * response, nb)
            out[start:start + lead] += block[nb - lead:]
            stop = min(start + nb, lead + n)
            out[start + lead:stop] += block[:stop - start - lead]
    return out[lead:]


# a kernel with pre-ringing: 8192-point blocks, hops of 6416, a lead of 286
THETA_LEAD = normalized_to_peak(FilterConstants(0.05, 1.0, 4.5))
F_LEAD = 4000.0


class TestApplyFftBatches:
    """apply_fft, which transforms batches of hops, against block_loop."""

    def check(self, theta, f_peak, x):
        y = apply_fft(theta, f_peak, FS, SignalBuffer(FS, x)).samples
        assert y.tobytes() == block_loop(theta, f_peak, FS, x).tobytes()

    # kernels that mostly decay within a block, so that long signals make
    # from one batch to twenty
    @settings(max_examples=16, derandomize=True, deadline=None)
    @given(
        ratio=st.floats(0.01, 0.19),
        b_u=st.floats(3.0, 20.0),
        f_peak=st.floats(200.0, 0.45 * FS),
        n=st.integers(2**14, 2**21),
    )
    def test_bytes_equal_the_block_loop(self, ratio, b_u, f_peak, n):
        theta = normalized_to_peak(FilterConstants(ratio, 1.0, b_u))
        x = noise(n, seed=n)
        self.check(theta, f_peak, x)

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    @pytest.mark.parametrize("m", [1, 4, 7])
    def test_lengths_around_whole_batches(self, offset, m):
        nb, hop, lead, _ = _block_plan(THETA_LEAD, F_LEAD, FS, 2**20)
        assert lead > 0 and nb // 2 < hop
        n = m * (digital._BATCH_SAMPLES // nb) * hop + offset
        assert _block_plan(THETA_LEAD, F_LEAD, FS, n)[:3] == (nb, hop, lead)
        x = noise(n)
        self.check(THETA_LEAD, F_LEAD, x)

    def test_three_blocks_on_a_sample(self, monkeypatch):
        # a plan that hops by a third of the block adds three blocks or more
        # to each sample, in hop order in both
        nb, _, lead, response = _block_plan(THETA_LEAD, F_LEAD, FS, 2**20)
        monkeypatch.setattr(digital, "_block_plan", lambda *args: (nb, nb // 3, lead, response))
        x = noise(20 * nb + 5)
        self.check(THETA_LEAD, F_LEAD, x)

    @pytest.mark.filterwarnings("error")
    def test_non_finite_batches_pass_without_warning(self):
        x = noise(2**20)
        x[[1000, 400000, 900000]] = 1e308, math.inf, math.nan
        y = apply_fft(THETA_BLOCKS, F_PEAK, FS, SignalBuffer(FS, x)).samples
        assert y.size == x.size and not np.all(np.isfinite(y))


class TestDigitalFilterType:
    def test_rejects_unstable_sections(self):
        with pytest.raises(ValueError):
            DigitalFilter(FS, sections=((1.0, 0.0, 0.0, -2.0, 1.01),))

    @pytest.mark.parametrize("fs", [math.nan, math.inf, 0.0, -FS])
    def test_rejects_non_finite_or_non_positive_rate(self, fs):
        with pytest.raises(ValueError):
            DigitalFilter(fs, sections=((1.0, 0.0, 0.0, 0.0, 0.0),))

    def test_json_round_trip(self, filt_sharp6, tmp_path):
        path = tmp_path / "filter.json"
        save_filter(filt_sharp6, path)
        loaded = DigitalFilter.from_dict(json.loads(path.read_text()))
        assert loaded.sections == filt_sharp6.sections
        assert loaded.sample_rate == filt_sharp6.sample_rate
        assert loaded.f_peak == filt_sharp6.f_peak
        assert loaded.source_theta == filt_sharp6.source_theta
        # the serialized document has the documented shape
        doc = json.loads(path.read_text())
        assert set(doc) >= {"fs", "gain", "sos"}
        assert len(doc["sos"][0]) == 5


    @pytest.mark.parametrize("doc", [
        {"fs": 48000.0},
        {"sos": [[1.0, 0.0, 0.0, 0.0, 0.0]]},
        {"fs": "fast", "sos": [[1.0, 0.0, 0.0, 0.0, 0.0]]},
        {"fs": 48000.0, "sos": [[1.0, 0.0, 0.0, 0.0]]},
        {"fs": 48000.0, "sos": [[1.0, 0.0, 0.0, -2.0, 1.01]]},
        {"fs": math.nan, "sos": [[1.0, 0.0, 0.0, 0.0, 0.0]]},
        {"fs": math.inf, "sos": [[1.0, 0.0, 0.0, 0.0, 0.0]]},
        [1.0, 2.0],
    ])
    def test_from_dict_rejects_bad_documents(self, doc):
        with pytest.raises(InfeasibleSpec):
            DigitalFilter.from_dict(doc)


class TestSignalBuffer:
    @pytest.mark.parametrize("rate", [math.nan, math.inf, -math.inf, 0.0, -FS])
    def test_rejects_non_finite_or_non_positive_rate(self, rate):
        with pytest.raises(ValueError):
            SignalBuffer(rate, np.zeros(16))


class TestSignalIo:
    def test_wav_round_trip(self, tmp_path):
        rng = np.random.default_rng(7)
        signal = SignalBuffer(48000.0, rng.standard_normal(1000) * 0.5)
        path = tmp_path / "x.wav"
        write_wav(path, signal)
        loaded = read_wav(path)
        assert loaded.sample_rate == 48000.0
        assert np.max(np.abs(loaded.samples - signal.samples)) < 1e-7  # float32

    @pytest.mark.parametrize("n", [0, 1, 7, 48000])
    @pytest.mark.parametrize("rate", [8000.0, 44100.0, 48000.4])
    def test_wav_bytes_match_scipy(self, tmp_path, n, rate):
        from scipy.io import wavfile

        signal = SignalBuffer(rate, np.random.default_rng(n).standard_normal(n))
        write_wav(tmp_path / "ours.wav", signal)
        wavfile.write(tmp_path / "scipy.wav", int(round(rate)), signal.samples.astype(np.float32))
        assert (tmp_path / "ours.wav").read_bytes() == (tmp_path / "scipy.wav").read_bytes()

    @pytest.mark.parametrize("dtype", ["float32", "float64", "int16", "int32", "uint8"])
    @pytest.mark.parametrize("channels", [1, 2, 3])
    def test_plain_wav_parsed_as_scipy_reads_it(self, tmp_path, dtype, channels):
        from scipy.io import wavfile

        x = np.random.default_rng(channels).standard_normal((100, channels)).squeeze()
        x = (x * 100).astype(dtype) if np.dtype(dtype).kind in "iu" else x.astype(dtype)
        path = tmp_path / "x.wav"
        wavfile.write(path, 16000, x)
        rate, data = digital._parse_plain_wav(path.read_bytes())
        expected_rate, expected = wavfile.read(path)
        assert rate == expected_rate
        assert data.dtype == expected.dtype and np.array_equal(data, expected)

    def test_other_layouts_go_to_scipy(self, tmp_path):
        from scipy.io import wavfile

        path = tmp_path / "x.wav"
        wavfile.write(path, 8000, np.arange(-3, 4, dtype=np.int64))  # 64-bit PCM
        assert digital._parse_plain_wav(path.read_bytes()) is None
        assert read_wav(path).samples.tolist() == list(range(-3, 4))
        path.write_bytes(path.read_bytes()[:-3])  # a truncated last sample
        assert digital._parse_plain_wav(path.read_bytes()) is None
        with pytest.warns(wavfile.WavFileWarning):
            assert read_wav(path).samples.tolist() == list(range(-3, 3))

    @pytest.mark.parametrize("rate", [0.4, 2.0**30])
    def test_wav_refuses_rates_its_header_cannot_hold(self, tmp_path, rate):
        path = tmp_path / "x.wav"
        with pytest.raises(OutOfRange):
            write_wav(path, SignalBuffer(rate, np.zeros(4)))
        assert not path.exists()

    @pytest.mark.parametrize("channels, align, bits", [(0, 0, 32), (1, 0, 32), (3, 4, 32)])
    def test_damaged_fmt_chunk_is_a_value_error(self, tmp_path, channels, align, bits):
        # scipy.io.wavfile.read raises ZeroDivisionError or TypeError on these
        fmt = struct.pack("<HHIIHH", 3, channels, 8000, 8000 * align, align, bits)
        body = b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt + b"data" + struct.pack("<I", 0)
        path = tmp_path / "x.wav"
        path.write_bytes(b"RIFF" + struct.pack("<I", len(body)) + body)
        with pytest.raises(ValueError):
            read_wav(path)

    @pytest.mark.filterwarnings("error")
    def test_signalling_nan_read_without_warning(self, tmp_path):
        path = tmp_path / "x.wav"
        write_wav(path, SignalBuffer(8000.0, np.zeros(3)))
        raw = bytearray(path.read_bytes())
        raw[-4:] = struct.pack("<I", 0x7F800001)
        path.write_bytes(bytes(raw))
        assert np.isnan(read_wav(path).samples[-1])

    def test_int16_wav_scaled(self, tmp_path):
        from scipy.io import wavfile

        path = tmp_path / "i.wav"
        wavfile.write(path, 8000, (np.array([0.5, -0.5]) * 32767).astype(np.int16))
        loaded = read_wav(path)
        assert loaded.samples == pytest.approx([0.5, -0.5], abs=1e-4)

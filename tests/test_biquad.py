"""The numpy-free pieces behind `response`: the cascade's log response on
cmath, numpy's linspace on floats, and the table columns on math."""

import math
import random

import mpmath
import numpy as np
import pytest

from gefdesign import FilterConstants, digital_response, to_sos
from gefdesign.biquad import DigitalFilter, _cascade_log
from gefdesign.core import _response_columns as array_columns
from gefdesign.core import log_response
from gefdesign.errors import OutOfRange
from gefdesign.scalar import _response_columns, linspace

FS = 48000.0


def cascade_log(filt, freqs):
    return np.array(_cascade_log(filt, np.asarray(freqs, dtype=float).tolist()))


class TestCascadeLog:
    """_cascade_log sums the sections' continuous logs; digital_response is its exp."""

    @pytest.mark.filterwarnings("error")
    def test_all_zero_numerator_is_minus_inf(self):
        filt = DigitalFilter(FS, sections=((0.0, 0.0, 0.0, -0.5, 0.25),))
        freqs = np.linspace(0.0, 0.5 * FS, 9)
        assert np.all(cascade_log(filt, freqs).real == -math.inf)
        assert np.all(np.asarray(digital_response(filt, freqs)) == 0.0)

    @pytest.mark.parametrize("numerator", [
        (0.0, 1.0, 0.5),     # a leading zero: z^-1 (1 + 0.5/z)
        (0.0, 0.0, -2.0),    # two: -2 z^-2
        (-1.0, -2.0, -1.0),  # a negative lead with the double zero at -1
        (1.0, -2.5, 1.0),    # roots 2 and 0.5
        (1e-300, 1e10, 1.0),  # a root in z past the largest float: factored in 1/z
        (1.0, 1e10, 1e-300),  # its mirror, factored in z
        (1e-300, 1e10, 1e-300),  # roots past the largest float in z and in 1/z alike
        (1e300, -2.5e300, 1e300),  # b1 * b1 and b0 * b2 past the largest float
        (1.0, 0.5, 4.0),      # a complex pair outside the circle
        (-3.0, 0.5, 1.0),     # a negative lead, a real pair either side
        (1.0, -1e10, 1.0),    # roots 1e10 and 1e-10: the small one from b0 b2 / q
    ])
    def test_factored_numerators_match_the_section_product(self, numerator):
        filt = DigitalFilter(FS, sections=(numerator + (-0.9, 0.4),))
        freqs = np.linspace(0.0, 0.45 * FS, 4097)
        z_inv = np.exp(-2j * math.pi * freqs / FS)
        product = np.polyval(numerator[::-1], z_inv) / np.polyval((0.4, -0.9, 1.0), z_inv)
        log_h = cascade_log(filt, freqs)
        np.testing.assert_allclose(np.exp(log_h), product, rtol=1e-12)
        # continuous from f = 0: a dense unwrap, up to whole turns
        unwrapped = np.unwrap(np.angle(product))
        unwrapped += 2.0 * math.pi * round((log_h.imag[0] - unwrapped[0]) / (2.0 * math.pi))
        np.testing.assert_allclose(log_h.imag, unwrapped, rtol=0.0, atol=1e-9)

    @pytest.mark.filterwarnings("error")
    def test_roots_past_the_largest_float_give_the_finite_log(self):
        # roots near -1e-310 and -1e310 in z: the log is that of 1e10 / z to
        # within 1e-300 relative, and continuous from f = 0
        filt = DigitalFilter(FS, sections=((1e-300, 1e10, 1e-300, 0.0, 0.0),))
        freqs = np.linspace(0.0, 0.5 * FS, 4097)
        log_z_inv = -2j * math.pi * freqs / FS
        log_h = cascade_log(filt, freqs)
        np.testing.assert_allclose(log_h, math.log(1e10) + log_z_inv, rtol=1e-15, atol=1e-14)
        np.testing.assert_allclose(np.exp(log_h), np.polyval((1e-300, 1e10, 1e-300),
                                                             np.exp(log_z_inv)), rtol=1e-12)
        assert np.max(np.abs(np.diff(log_h.imag))) < 1e-3

    @pytest.mark.parametrize("f", [-1.0, 0.5 * FS * (1.0 + 1e-15), math.nan, math.inf])
    def test_frequencies_outside_the_band_are_refused(self, f):
        filt = to_sos(FilterConstants(0.05, 1.0, 6.0), 1000.0, FS)
        with pytest.raises(OutOfRange):
            _cascade_log(filt, [1000.0, f])

    def test_identical_sections_sum_in_section_order(self):
        # each distinct section's logs are taken once a point, and the sum runs
        # over every section in order: bit for bit the sum of each quadratic's
        # log, read as the numerator of a section with its poles at 0
        a = (0.3, 0.6, 0.3, -1.2, 0.5)
        b = (0.2, -0.1, 0.4, 0.3, 0.2)
        filt = DigitalFilter(FS, sections=(a, b, a, a, b), gain=1.5)
        freqs = linspace(0.0, 0.5 * FS, 101)

        def quadratic(coeffs):
            return _cascade_log(DigitalFilter(FS, sections=(coeffs + (0.0, 0.0),)), freqs)

        logs = {sec: (quadratic(sec[:3]), quadratic((1.0,) + sec[3:])) for sec in (a, b)}
        want = []
        for i in range(len(freqs)):
            log = complex(math.log(1.5))
            for sec in filt.sections:
                log = log + logs[sec][0][i] - logs[sec][1][i]
            want.append(log)
        assert _cascade_log(filt, freqs) == want

    @pytest.mark.parametrize("theta, f_peak, fs", [
        (FilterConstants(0.05, 1.0, 6.0), 1000.0, 48000.0),
        (FilterConstants(0.02, 1.0, 4.0), 3000.0, 16000.0),
        (FilterConstants(0.2, 1.0, 2.0), 9000.0, 44100.0),
    ])
    def test_within_4e_12_of_mpmath(self, theta, f_peak, fs):
        # a stable cascade with to_sos's double zero at -1: L against log H at
        # 40 digits from the exact angle of f, over the band, around the peak
        # and within 1% of fs/2; Im L up to whole turns
        filt = to_sos(theta, f_peak, fs)
        rng = random.Random(7)
        freqs = sorted([rng.uniform(0.0, 0.5 * fs) for _ in range(200)]
                       + [f_peak * rng.uniform(0.97, 1.03) for _ in range(200)]
                       + [0.5 * fs * rng.uniform(0.99, 1.0) for _ in range(200)]
                       + [0.0, f_peak, 0.25 * fs])
        worst = 0.0
        with mpmath.workdps(40):
            for f, log_h in zip(freqs, _cascade_log(filt, freqs)):
                z = mpmath.expjpi(-2 * mpmath.mpf(f) / fs)
                h = mpmath.mpf(filt.gain)
                for b0, b1, b2, a1, a2 in filt.sections:
                    h *= (b0 + b1 * z + b2 * z * z) / (1 + a1 * z + a2 * z * z)
                turn = float((log_h.imag - mpmath.arg(h)) / (2 * mpmath.pi))
                worst = max(worst, abs(log_h.real - float(mpmath.log(abs(h)))),
                            2.0 * math.pi * abs(turn - round(turn)))
        assert worst < 4e-12
        # at fs/2 the double zero gives -inf exactly
        assert _cascade_log(filt, [0.5 * fs])[0].real == -math.inf


class TestLinspace:
    """scalar.linspace is numpy.linspace as floats, bit for bit."""

    def test_seeded_ranges(self):
        rng = random.Random(11)
        for _ in range(500):
            lo = rng.choice([0.0, rng.uniform(-1e4, 1e4), 10.0 ** rng.uniform(-300, 300)])
            hi = rng.choice([lo, rng.uniform(-1e4, 1e4), 10.0 ** rng.uniform(-300, 300)])
            n = rng.choice([1, 2, 3, rng.randrange(2, 3000)])
            assert linspace(lo, hi, n) == np.linspace(lo, hi, n).tolist(), (lo, hi, n)

    @pytest.mark.parametrize("lo, hi, n", [
        (50.0, 50.0, 7),          # lo == hi: a zero step
        (12000.0, 50.0, 33),      # lo > hi
        (50.0, 12000.0, 2),       # two points
        (0.0, 5e-324, 9),         # a step that underflows to 0
        (-0.0, 0.0, 3),
        (1.0, 3.0, 1),
        (1.0, 3.0, 0),
    ])
    def test_edges(self, lo, hi, n):
        assert linspace(lo, hi, n) == np.linspace(lo, hi, n).tolist()


class TestResponseColumns:
    """scalar._response_columns is core._response_columns on lists."""

    def test_equals_the_array_columns(self):
        theta = FilterConstants(0.05, 1.0, 6.0)
        log_h = log_response(theta, np.linspace(0.0, 12.0, 2001), ("p",))["p"]
        want = array_columns(log_h.re, log_h.im, "the filter")
        got = np.array(_response_columns(log_h.re.tolist(), log_h.im.tolist(), "the filter"))
        np.testing.assert_allclose(got, want, rtol=1e-15, atol=0.0)
        # the level and the phase are the same products, bit for bit
        assert got[2:].tolist() == want[2:].tolist()

    def test_a_zero_reads_minus_inf_level(self):
        re, im, level, phase = _response_columns([-math.inf, 0.0], [0.5, 0.0], "h")
        assert (re, im, level, phase) == ([0.0, 1.0], [0.0, 0.0], [-math.inf, 0.0], [0.5, 0.0])

    @pytest.mark.parametrize("bad", [709.79, math.inf, math.nan])
    def test_overflow_and_nan_are_refused_as_on_arrays(self, bad):
        log_re, log_im = [0.0, bad, 0.0], [0.0, 0.0, 0.0]
        with pytest.raises(OutOfRange, match="the source: .H. passes the largest float"):
            array_columns(np.array(log_re), np.array(log_im), "the source")
        with pytest.raises(OutOfRange, match="the source: .H. passes the largest float"):
            _response_columns(log_re, log_im, "the source")

import json
import math

import numpy as np
import pytest
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
    to_sos,
)
from gefdesign import digital
from gefdesign.characteristics import FrequencyGrid, default_grid
from gefdesign.digital import (
    DigitalFilter,
    SignalBuffer,
    _bilinear_all_pole,
    read_signal_csv,
    read_wav,
    save_filter,
    write_signal_csv,
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

    @pytest.mark.parametrize("a_p,b_u", [(0.02, 3.0), (0.05, 6.0), (0.1, 7.0), (0.2, 2.0)])
    @pytest.mark.parametrize("f_peak", [200.0, 1000.0, 8000.0])
    def test_stability_preserved(self, a_p, b_u, f_peak):
        filt = to_sos(FilterConstants(a_p, 1.0, b_u), f_peak, FS)
        assert np.all(filt.pole_radii() < 1.0)


class TestBilinearPort:
    """digital._bilinear_all_pole against scipy.signal.bilinear, which stays
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
        with pytest.raises(OutOfRange):
            apply_fft(theta_sharp6, f_peak, fs, SignalBuffer(fs, np.zeros(16)))


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


class TestSignalIo:
    def test_wav_round_trip(self, tmp_path):
        rng = np.random.default_rng(7)
        signal = SignalBuffer(48000.0, rng.standard_normal(1000) * 0.5)
        path = tmp_path / "x.wav"
        write_wav(path, signal)
        loaded = read_wav(path)
        assert loaded.sample_rate == 48000.0
        assert np.max(np.abs(loaded.samples - signal.samples)) < 1e-7  # float32

    def test_csv_round_trip(self, tmp_path):
        signal = SignalBuffer(8000.0, np.array([0.0, 1.0, -0.25, 3.5e-7]))
        path = tmp_path / "x.csv"
        write_signal_csv(path, signal)
        loaded = read_signal_csv(path, 8000.0)
        assert np.allclose(loaded.samples, signal.samples, rtol=1e-12, atol=1e-18)

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

    def test_int16_wav_scaled(self, tmp_path):
        from scipy.io import wavfile

        path = tmp_path / "i.wav"
        wavfile.write(path, 8000, (np.array([0.5, -0.5]) * 32767).astype(np.int16))
        loaded = read_wav(path)
        assert loaded.samples == pytest.approx([0.5, -0.5], abs=1e-4)

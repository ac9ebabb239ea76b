import json
import math
import warnings
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gefdesign import (
    CfMap,
    CharacteristicSpec,
    DesignRow,
    FilterConstants,
    MultibandBand,
    MultibandSpec,
    build_constant_q_bank,
    cf_at,
    crosstalk_report,
    design,
    eval_gef,
    extract_numeric,
    level_db,
    log_response,
    multiband_response,
    peak_beta,
    phase_rad,
)
from gefdesign.characteristics import FrequencyGrid, default_grid
from gefdesign.core import DB_PER_LOG
from gefdesign.errors import OutOfRange
from gefdesign.filterbank import (
    BankChannel,
    bank_response_rows,
    multiband_from_dict,
    uniform_places,
)

N_SHARP6 = 6.0 / (2.0 * math.pi * 0.05)


@pytest.fixture
def norm_spec():
    return CharacteristicSpec(
        row=DesignRow.PEAK_DELAY_PHASE,
        beta_peak=1.0,
        values={"n_cycles": N_SHARP6, "phi_accum": 3.0},
    )


class TestCfMap:
    def test_at_origin(self):
        assert cf_at(CfMap(20000.0, 1.0, 3.0), 0.0) == 20000.0

    def test_half_octave_algebra(self):
        assert cf_at(CfMap(20000.0, 1.0, 3.0), math.log(2.0)) == pytest.approx(10000.0, rel=1e-12)

    def test_monotone_decreasing(self):
        cf_map = CfMap(20000.0, 0.7, 5.0)
        xs = np.linspace(0.0, 5.0, 40)
        values = [cf_at(cf_map, x) for x in xs]
        assert all(v2 < v1 for v1, v2 in zip(values, values[1:]))

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            cf_at(CfMap(20000.0, 1.0, 3.0), 3.5)
        with pytest.raises(OutOfRange):
            cf_at(CfMap(20000.0, 1.0, 3.0), -0.1)

    @pytest.mark.parametrize("cf0, l, x_max", [
        (math.nan, 1.0, 3.0), (math.inf, 1.0, 3.0), (0.0, 1.0, 3.0), (-1.0, 1.0, 3.0),
        (20000.0, math.nan, 3.0), (20000.0, math.inf, 3.0), (20000.0, 0.0, 3.0),
        (20000.0, 1.0, math.nan), (20000.0, 1.0, math.inf), (20000.0, 1.0, -0.5),
    ])
    def test_rejects_bad_map(self, cf0, l, x_max):
        with pytest.raises(OutOfRange):
            CfMap(cf0, l, x_max)


class TestConstantQBank:
    def test_channels_share_constants(self, norm_spec):
        cf_map = CfMap(20000.0, 1.0, 3.0)
        bank = build_constant_q_bank(cf_map, [0.0, 1.0, 2.5], norm_spec)
        assert len({(c.theta.a_p, c.theta.b_p, c.theta.b_u) for c in bank}) == 1
        assert bank[0].theta.a_p == pytest.approx(0.05, rel=1e-9)
        peaks = [c.f_peak for c in bank]
        assert peaks == sorted(peaks, reverse=True)
        assert len(set(peaks)) == 3

    def test_peak_substitution(self, norm_spec):
        cf_map = CfMap(8000.0, 1.0, 2.0)
        channel = build_constant_q_bank(cf_map, [1.2], norm_spec)[0]
        row = bank_response_rows([channel], [channel.f_peak])[0]
        assert complex(row[1], row[2]) == pytest.approx(
            channel.gain * eval_gef(channel.theta, 1.0), rel=1e-12
        )

    def test_empty_channel_list(self, norm_spec):
        assert build_constant_q_bank(CfMap(8000.0, 1.0, 2.0), [], norm_spec) == []

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
    def test_channel_rejects_bad_peak_or_gain(self, bad):
        theta = FilterConstants(0.05, 1.0, 6.0)
        with pytest.raises(OutOfRange):
            BankChannel(x=0.0, f_peak=bad, theta=theta)
        with pytest.raises(OutOfRange):
            BankChannel(x=0.0, f_peak=1000.0, theta=theta, gain=bad)

    def test_requires_normalized_spec(self):
        spec = CharacteristicSpec(
            row=DesignRow.PEAK_DELAY_PHASE,
            beta_peak=2.0,
            values={"n_cycles": N_SHARP6, "phi_accum": 3.0},
        )
        with pytest.raises(ValueError):
            build_constant_q_bank(CfMap(8000.0, 1.0, 2.0), [0.0], spec)

    def test_uniform_places_is_linspace_bit_for_bit(self):
        rng = np.random.default_rng(23)
        x_maxes = [0.0, 5e-324, 1e-320, 2.2e-308, 1.0, 3.3, 1e300,
                   *rng.uniform(0.0, 10.0, 40), *(10.0 ** rng.uniform(-300.0, 300.0, 40))]
        for x_max in x_maxes:
            for n in (1, 2, 3, 7, 64, int(rng.integers(4, 500))):
                places = uniform_places(CfMap(1000.0, 1.0, float(x_max)), n)
                assert type(places) is list
                want = np.linspace(0.0, x_max, n).tolist()
                assert [x.hex() for x in places] == [x.hex() for x in want], (x_max, n)

    def test_uniform_places_log_uniform_in_cf(self):
        cf_map = CfMap(16000.0, 1.0, 3.0)
        places = uniform_places(cf_map, 4)
        cfs = [cf_at(cf_map, x) for x in places]
        ratios = [c1 / c2 for c1, c2 in zip(cfs, cfs[1:])]
        assert all(r == pytest.approx(ratios[0], rel=1e-12) for r in ratios)

    def test_response_rows_columns(self, norm_spec):
        cf_map = CfMap(2000.0, 1.0, 1.0)
        bank = build_constant_q_bank(cf_map, [0.0, 0.5], norm_spec)
        rows = bank_response_rows(bank, [500.0, 1000.0, 2000.0])
        assert len(rows) == 6
        f_hz, re, im, level, phase, channel_id = rows[0]
        assert f_hz == 500.0 and channel_id == 0
        assert level == pytest.approx(20.0 * math.log10(math.hypot(re, im)), rel=1e-9)


def _log_reference_rows(channels, freqs_hz):
    """The export from each channel's log response, row by row: the array
    version must reproduce it bit for bit."""
    rows = []
    freqs = np.asarray(freqs_hz, dtype=float)
    for idx, channel in enumerate(channels):
        log_h = log_response(channel.theta, freqs / channel.f_peak, ("p",))["p"]
        re = log_h.re + math.log(channel.gain)
        magnitude = np.exp(re)
        for row in zip(freqs, magnitude * np.cos(log_h.im), magnitude * np.sin(log_h.im),
                       DB_PER_LOG * re, log_h.im):
            rows.append((*map(float, row), idx))
    return np.array(rows).reshape(-1, 6)


def _channel_values(channel, freqs_hz):
    """gain * P(f / f_peak) of one channel at the frequencies f in Hz."""
    return channel.gain * np.asarray(eval_gef(channel.theta, freqs_hz / channel.f_peak))


def _complex_reference_rows(channels, freqs_hz):
    """The export from complex response values: 20 log10|H| and
    unwrap(angle H), where the unwrapped phase starts from the wrapped one."""
    blocks = []
    freqs = np.asarray(freqs_hz, dtype=float)
    for idx, channel in enumerate(channels):
        values = _channel_values(channel, freqs)
        with np.errstate(divide="ignore"):
            levels = 20.0 * np.log10(np.abs(values))
        phases = np.unwrap(np.angle(values))
        blocks.append(np.column_stack(
            (freqs, values.real, values.imag, levels, phases, np.full(freqs.size, float(idx)))
        ))
    return np.concatenate(blocks)


class TestBankResponseArray:
    FREQS = np.geomspace(50.0, 20000.0, 257)

    @pytest.fixture
    def mixed_bank(self):
        """Three channels with their own constants and gains."""
        thetas = [
            FilterConstants(0.05, 1.0, 6.0),
            FilterConstants(0.12, 1.0, 2.5),
            FilterConstants(0.08, 1.0, 4.0, gain=0.5),
        ]
        return [
            BankChannel(x=x, f_peak=8000.0 * math.exp(-x), theta=theta, gain=gain)
            for x, theta, gain in zip((0.0, 1.0, 2.5), thetas, (1.0, 3.0, 0.25))
        ]

    def test_bit_identical_to_row_loop(self, mixed_bank):
        assert len({ch.theta for ch in mixed_bank}) == 3
        rows = bank_response_rows(mixed_bank, self.FREQS)
        assert np.array_equal(rows, _log_reference_rows(mixed_bank, self.FREQS))

    def test_seeded_64_channel_bank_bit_identical_to_row_loop(self, norm_spec):
        # the export goes through the same column helper as the response
        # tables, and stays what the per-channel loop writes, bit for bit
        rng = np.random.default_rng(64)
        cf_map = CfMap(16000.0, 1.0, 3.0)
        channels = [
            BankChannel(channel.x, channel.f_peak, channel.theta,
                        gain=10.0 ** rng.uniform(-3.0, 3.0))
            for channel in build_constant_q_bank(cf_map, uniform_places(cf_map, 64), norm_spec)
        ]
        freqs = np.sort(rng.uniform(0.0, 24000.0, 4096))
        rows = bank_response_rows(channels, freqs)
        assert rows.tobytes() == _log_reference_rows(channels, freqs).tobytes()

    def test_close_to_complex_response_rows(self, mixed_bank):
        rows = bank_response_rows(mixed_bank, self.FREQS)
        reference = _complex_reference_rows(mixed_bank, self.FREQS)
        n = self.FREQS.size
        assert np.array_equal(rows[:, [0, 5]], reference[:, [0, 5]])
        for idx in range(len(mixed_bank)):
            block, ref = rows[idx * n:(idx + 1) * n], reference[idx * n:(idx + 1) * n]
            # the unwrapped reference starts from the wrapped phase, Im L from 0
            # at f = 0; the two agree where Im L starts inside (-pi, pi]
            assert -math.pi < block[0, 4] <= math.pi
            scale = np.max(np.hypot(ref[:, 1], ref[:, 2]))
            assert np.max(np.abs(block[:, 1:3] - ref[:, 1:3])) <= 1e-14 * scale
            assert np.max(np.abs(block[:, 3] - ref[:, 3])) <= 1e-12
            assert np.max(np.abs(block[:, 4] - ref[:, 4])) <= 1e-12

    def test_underflowing_magnitude_reads_finite_level(self):
        # |P| at beta = 240 is about 240**-400: 0 as a float, -inf dB as 20 log10|H|
        channel = BankChannel(x=0.0, f_peak=100.0, theta=FilterConstants(0.05, 1.0, 200.0))
        freqs = np.linspace(0.0, 24000.0, 481)
        rows = bank_response_rows([channel], freqs)
        reference = _complex_reference_rows([channel], freqs)
        assert np.any(reference[:, 3] == -math.inf)
        assert np.all(np.isfinite(rows))
        assert rows[-1, 1] == rows[-1, 2] == 0.0
        assert rows[-1, 3] < -1000.0
        assert np.array_equal(rows[:, 4], phase_rad(channel.theta, freqs / channel.f_peak))

    def test_overflowing_magnitude_raises_out_of_range(self):
        # |P| at the peak is about (2 a_p)**-200 = 1e540: past the largest float
        channel = BankChannel(x=0.0, f_peak=100.0, theta=FilterConstants(0.001, 1.0, 200.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OutOfRange):
                bank_response_rows([channel], np.linspace(50.0, 150.0, 101))

    def test_phase_unwrapped_within_each_channel_only(self, mixed_bank):
        rows = bank_response_rows(mixed_bank, self.FREQS)
        n = self.FREQS.size
        for idx, channel in enumerate(mixed_bank):
            block = rows[idx * n:(idx + 1) * n]
            assert np.all(block[:, 5] == idx)
            assert np.array_equal(block[:, 0], self.FREQS)
            phase = block[:, 4]
            wrapped = np.angle(_channel_values(channel, self.FREQS))
            # each channel starts from its own phase, not the last one's
            assert abs(phase[0] - wrapped[0]) <= 1e-12
            # the wrapped phase jumps by a turn somewhere; the exported one never does
            assert np.max(np.abs(np.diff(wrapped))) > math.pi
            assert np.max(np.abs(np.diff(phase))) < math.pi

    @pytest.mark.parametrize("n_channels", [0, 1, 3])
    def test_dtype_and_shape(self, mixed_bank, n_channels):
        rows = bank_response_rows(mixed_bank[:n_channels], self.FREQS)
        assert rows.dtype == np.float64
        assert rows.shape == (n_channels * self.FREQS.size, 6)

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(
        constants=st.lists(st.tuples(st.floats(-3.0, -0.3), st.floats(0.5, 40.0)),
                           min_size=1, max_size=4),
        gains=st.lists(st.floats(-6.0, 6.0), min_size=4, max_size=4),
        freqs=st.lists(st.floats(0.0, 1e5), max_size=40),
    )
    def test_rows_from_log_response(self, constants, gains, freqs):
        # a_p = 10**e, b_u and gain 10**g drawn so the peak magnitude stays finite
        channels = [
            BankChannel(x=0.0, f_peak=1000.0 * (idx + 1), theta=FilterConstants(10.0 ** e, 1.0, b_u),
                        gain=10.0 ** g)
            for idx, ((e, b_u), g) in enumerate(zip(constants, gains))
        ]
        freqs = np.array(freqs)
        rows = bank_response_rows(channels, freqs)
        assert np.array_equal(rows, _log_reference_rows(channels, freqs))
        assert np.all(np.isfinite(rows))
        n = freqs.size
        for idx, channel in enumerate(channels):
            block = rows[idx * n:(idx + 1) * n]
            betas = freqs / channel.f_peak
            assert np.array_equal(block[:, 4], phase_rad(channel.theta, betas))
            level = level_db(channel.theta, betas) + 20.0 * math.log10(channel.gain)
            assert np.allclose(block[:, 3], level, rtol=1e-13, atol=1e-11)
            # re and im reconstruct the level where the magnitude is a normal float
            magnitude = np.hypot(block[:, 1], block[:, 2])
            normal = magnitude > 1e-300
            assert np.allclose(20.0 * np.log10(magnitude[normal]), block[normal, 3],
                               rtol=0.0, atol=1e-11)


class TestDomainConsistency:
    def test_hz_extraction_matches_normalized(self, norm_spec):
        # Q is domain-invariant; BW_f = CF * BW_beta, N_f = N_beta / CF
        theta = design(norm_spec)
        cf = 2000.0
        grid = default_grid(theta)
        hz_grid = FrequencyGrid(
            samples=grid.samples * cf,
            dense_halfwidth=grid.dense_halfwidth * cf,
            dense_step=grid.dense_step * cf,
            tail_max=grid.tail_max * cf,
            tail_points=grid.tail_points,
        )
        in_beta = extract_numeric(partial(eval_gef, theta), grid)
        in_hz = extract_numeric(lambda f: eval_gef(theta, f / cf), hz_grid)
        assert in_hz.q_n[10.0] == pytest.approx(in_beta.q_n[10.0], rel=1e-9)
        assert in_hz.q_erb == pytest.approx(in_beta.q_erb, rel=1e-6)
        assert in_hz.bw_n_beta[10.0] == pytest.approx(cf * in_beta.bw_n_beta[10.0], rel=1e-9)
        assert in_hz.n_beta == pytest.approx(in_beta.n_beta / cf, rel=1e-6)
        assert in_hz.s_beta == pytest.approx(in_beta.s_beta / cf**2, rel=1e-6)


class TestMultiband:
    @pytest.mark.parametrize("f_peak_hz, gain", [
        (math.nan, 1.0), (math.inf, 1.0), (0.0, 1.0), (-1000.0, 1.0),
        (1000.0, math.nan), (1000.0, math.inf), (1000.0, 0.0),
    ])
    def test_band_rejects_non_finite_or_non_positive_peak_and_gain(self, norm_spec, f_peak_hz,
                                                                   gain):
        # an inf peak read a nan crosstalk row, and an inf gain an inf - inf j response
        with pytest.raises(ValueError):
            MultibandBand(f_peak_hz, norm_spec, gain)

    def test_single_band_degenerates(self, norm_spec):
        band = MultibandBand(1000.0, norm_spec, 1.0)
        single = MultibandSpec(bands=(band,))
        theta = design(norm_spec)
        norm = 1.0 / abs(eval_gef(theta, peak_beta(theta)))
        for f in (800.0, 1000.0, 1300.0):
            assert multiband_response(single, f) == pytest.approx(
                norm * eval_gef(theta, f / 1000.0), rel=1e-12
            )

    def test_identical_bands_double(self, norm_spec):
        one = MultibandSpec(bands=(MultibandBand(1000.0, norm_spec, 1.0),))
        # same peak frequency is not allowed in one spec, so sum two specs
        value = multiband_response(one, 950.0)
        two_gain = MultibandSpec(bands=(MultibandBand(1000.0, norm_spec, 2.0),))
        assert multiband_response(two_gain, 950.0) == pytest.approx(2.0 * value, rel=1e-12)

    def test_linearity_over_grid(self, norm_spec):
        spec = MultibandSpec(bands=(
            MultibandBand(1000.0, norm_spec, 1.0),
            MultibandBand(2500.0, norm_spec, 0.5),
            MultibandBand(6000.0, norm_spec, 2.0),
        ))
        freqs = np.linspace(200.0, 8000.0, 400)
        total = multiband_response(spec, freqs)
        parts = sum(
            multiband_response(MultibandSpec(bands=(band,)), freqs)
            for band in spec.bands
        )
        assert np.max(np.abs(total - parts)) < 1e-12 * np.max(np.abs(total))

    def test_wide_separation_preserves_peaks(self, norm_spec):
        spec = MultibandSpec(bands=(
            MultibandBand(1000.0, norm_spec, 1.0),
            MultibandBand(4000.0, norm_spec, 1.0),
        ))
        theta = design(norm_spec)
        beta_star = peak_beta(theta)
        for f_peak in (1000.0, 4000.0):
            both = abs(multiband_response(spec, f_peak * beta_star))
            assert both == pytest.approx(1.0, rel=5e-3)

    def test_band_ordering_enforced(self, norm_spec):
        with pytest.raises(ValueError):
            MultibandSpec(bands=(
                MultibandBand(4000.0, norm_spec, 1.0),
                MultibandBand(1000.0, norm_spec, 1.0),
            ))

    def test_multiband_json_round_trip(self, norm_spec):
        spec = MultibandSpec(bands=(
            MultibandBand(1000.0, norm_spec, 1.0),
            MultibandBand(4000.0, norm_spec, 0.25),
        ))
        data = {"bands": [
            {"f_peak_hz": band.f_peak_hz, "gain": band.gain, "spec": band.spec.as_dict()}
            for band in spec.bands
        ]}
        assert multiband_from_dict(json.loads(json.dumps(data))) == spec


class TestCrosstalk:
    def test_diagonal_zero_and_separation(self, norm_spec):
        spec = MultibandSpec(bands=(
            MultibandBand(1000.0, norm_spec, 1.0),
            MultibandBand(4000.0, norm_spec, 1.0),
        ))
        matrix = crosstalk_report(spec)
        assert matrix.shape == (2, 2)
        assert matrix[0, 0] == pytest.approx(0.0, abs=1e-9)
        assert matrix[1, 1] == pytest.approx(0.0, abs=1e-9)
        assert matrix[0, 1] < -40.0 and matrix[1, 0] < -40.0

    def test_closer_bands_raise_crosstalk(self, norm_spec):
        def off_diag(f2):
            spec = MultibandSpec(bands=(
                MultibandBand(1000.0, norm_spec, 1.0),
                MultibandBand(f2, norm_spec, 1.0),
            ))
            return crosstalk_report(spec)[0, 1]

        levels = [off_diag(f2) for f2 in (4000.0, 2000.0, 1400.0, 1150.0)]
        assert all(l2 > l1 for l1, l2 in zip(levels, levels[1:]))

    def test_needs_two_bands(self, norm_spec):
        with pytest.raises(ValueError):
            crosstalk_report(MultibandSpec(bands=(MultibandBand(1000.0, norm_spec),)))

    def test_overflowing_band_peak_is_out_of_range(self):
        # a_p = 0.01: the peak magnitude (2 a_p b_p)**(-b_u) overflows, which
        # would make every band gain 0 and the output NaN; at b_u = 181.4363
        # the peak value's parts are finite but its modulus is not
        for b_u in (300.0, 181.4363):
            loud = CharacteristicSpec(
                row=DesignRow.PEAK_DELAY_PHASE,
                beta_peak=1.0,
                values={"n_cycles": b_u / (2.0 * math.pi * 0.01), "phi_accum": b_u / 2.0},
            )
            spec = MultibandSpec(bands=(
                MultibandBand(100.0, loud, 1.0),
                MultibandBand(20000.0, loud, 1.0),
            ))
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                with pytest.raises(OutOfRange, match="peak magnitude"):
                    crosstalk_report(spec)
                with pytest.raises(OutOfRange, match="peak magnitude"):
                    multiband_response(spec, np.array([100.0, 20000.0]))

    def test_underflowing_band_level_is_finite(self):
        # b_u = 150 and a_p = 0.01: each band's |P| underflows to 0 at the other
        # band's peak, 200x away, while its own peak stays finite
        sharp = CharacteristicSpec(
            row=DesignRow.PEAK_DELAY_PHASE,
            beta_peak=1.0,
            values={"n_cycles": 150.0 / (2.0 * math.pi * 0.01), "phi_accum": 75.0},
        )
        spec = MultibandSpec(bands=(
            MultibandBand(100.0, sharp, 1.0),
            MultibandBand(20000.0, sharp, 1.0),
        ))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            matrix = crosstalk_report(spec)
        assert np.all(np.isfinite(matrix))
        assert matrix[0, 0] == 0.0 and matrix[1, 1] == 0.0
        assert matrix[0, 1] < -1000.0 and matrix[1, 0] < -1000.0

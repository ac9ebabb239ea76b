import json
import math
from functools import partial

import numpy as np
import pytest

from gefdesign import (
    CfMap,
    CharacteristicSpec,
    DesignRow,
    FilterConstants,
    MultibandBand,
    MultibandSpec,
    build_constant_q_bank,
    cf_at,
    channel_response,
    crosstalk_report,
    design,
    eval_gef,
    extract_numeric,
    multiband_response,
    peak_beta,
)
from gefdesign.characteristics import FrequencyGrid, default_grid
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
        assert channel_response(channel, channel.f_peak) == pytest.approx(
            eval_gef(channel.theta, 1.0), rel=1e-12
        )

    def test_empty_channel_list(self, norm_spec):
        assert build_constant_q_bank(CfMap(8000.0, 1.0, 2.0), [], norm_spec) == []

    def test_requires_normalized_spec(self):
        spec = CharacteristicSpec(
            row=DesignRow.PEAK_DELAY_PHASE,
            beta_peak=2.0,
            values={"n_cycles": N_SHARP6, "phi_accum": 3.0},
        )
        with pytest.raises(ValueError):
            build_constant_q_bank(CfMap(8000.0, 1.0, 2.0), [0.0], spec)

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


def _reference_rows(channels, freqs_hz):
    """The row-by-row export the array version must reproduce bit for bit."""
    rows = []
    freqs = np.asarray(freqs_hz, dtype=float)
    for idx, channel in enumerate(channels):
        values = np.asarray(channel_response(channel, freqs))
        levels = 20.0 * np.log10(np.abs(values))
        phases = np.unwrap(np.angle(values))
        for f, v, lvl, ph in zip(freqs, values, levels, phases):
            rows.append((float(f), float(v.real), float(v.imag), float(lvl), float(ph), idx))
    return rows


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
        assert np.array_equal(rows, np.array(_reference_rows(mixed_bank, self.FREQS)))

    def test_phase_unwrapped_within_each_channel_only(self, mixed_bank):
        rows = bank_response_rows(mixed_bank, self.FREQS)
        n = self.FREQS.size
        for idx, channel in enumerate(mixed_bank):
            block = rows[idx * n:(idx + 1) * n]
            assert np.all(block[:, 5] == idx)
            assert np.array_equal(block[:, 0], self.FREQS)
            phase = block[:, 4]
            wrapped = np.angle(np.asarray(channel_response(channel, self.FREQS)))
            # each channel starts from its own wrapped phase, not the last one's
            assert phase[0] == wrapped[0]
            # the wrapped phase jumps by a turn somewhere; the exported one never does
            assert np.max(np.abs(np.diff(wrapped))) > math.pi
            assert np.max(np.abs(np.diff(phase))) < math.pi

    @pytest.mark.parametrize("n_channels", [0, 1, 3])
    def test_dtype_and_shape(self, mixed_bank, n_channels):
        rows = bank_response_rows(mixed_bank[:n_channels], self.FREQS)
        assert rows.dtype == np.float64
        assert rows.shape == (n_channels * self.FREQS.size, 6)


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

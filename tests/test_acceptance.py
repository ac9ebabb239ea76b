"""Acceptance suite: one test per exit criterion, each printing a pass line.

Tolerances are pinned here and nowhere else; the oracles are written in
terms of independent arithmetic (direct formula plug-ins, mirrored Simpson
quadrature, seeded random identity sweeps) rather than the code paths they
check, wherever the two could be conflated.
"""

import math
import time
import warnings
from functools import partial

import numpy as np
import pytest
from scipy.integrate import simpson
from scipy.signal import chirp

from gefdesign import (
    CharacteristicSpec,
    DesignRow,
    FilterConstants,
    SharpnessWarning,
    apply_fft,
    apply_sos,
    closed_form,
    default_grid,
    design,
    digital_response,
    eval_gef,
    eval_sharp,
    evaluate_case,
    extract_numeric,
    level_db,
    normalized_to_peak,
    phase_rad,
    qerb_approx,
    relative_errors,
    to_sos,
    wavenumber,
)
from gefdesign.characteristics import qerb_closed_form
from gefdesign.digital import SignalBuffer

CASE1 = FilterConstants(0.05, 1.0, 6.0)
CASE2 = FilterConstants(0.1, 1.0, 7.0)

MAGNITUDE_KEYS = (
    "beta_peak", "bw_3_beta", "bw_10_beta", "erb_beta",
    "q_3", "q_10", "q_erb", "s_beta",
)

GRID_AP = (0.01, 0.02, 0.05, 0.1, 0.2)
GRID_BU = tuple(float(b) for b in range(2, 13))
GRID_BP = (0.5, 1.0, 2.0)


def _passed(text):
    print(f"PASS {text}")


def _trio_spec(row, report, n_level=10.0):
    b = report.beta_peak
    values = {
        DesignRow.PEAK_DELAY_PHASE: {"n_cycles": report.n_beta, "phi_accum": report.phi_accum},
        DesignRow.PEAK_DELAY_QERB: {"n_cycles": report.n_beta, "q_erb": report.q_erb},
        DesignRow.PEAK_QERB_PHASE: {"q_erb": report.q_erb, "phi_accum": report.phi_accum},
        DesignRow.PEAK_QN_PHASE: {"q_n": report.q_n[n_level], "phi_accum": report.phi_accum},
        DesignRow.PEAK_CONVEXITY_DELAY: {"s_beta": report.s_beta, "n_cycles": report.n_beta},
        DesignRow.PEAK_CONVEXITY_PHASE: {"s_beta": report.s_beta, "phi_accum": report.phi_accum},
        DesignRow.PEAK_QN_DELAY: {"q_n": report.q_n[n_level], "n_cycles": report.n_beta},
    }[row]
    level = n_level if row in (DesignRow.PEAK_QN_PHASE, DesignRow.PEAK_QN_DELAY) else None
    return CharacteristicSpec(row=row, beta_peak=b, values=values, n_level=level)


def test_criterion_1_sharp_case_closed_form_values():
    report = closed_form(CASE1)
    # timing: best of 100 fresh evaluations
    times = []
    for _ in range(100):
        t0 = time.perf_counter()
        closed_form(CASE1)
        times.append(time.perf_counter() - t0)
    best = min(times)

    assert abs(report.n_beta - 19.10) <= 0.05
    assert report.phi_accum == 3.0
    assert abs(report.q_erb - 25.9) <= 0.1
    assert abs(report.erb_beta - 0.0387) <= 0.0005
    assert abs(report.q_n[10.0] - 14.6) <= 0.05
    assert abs(report.s_beta - 2.08e4) <= 0.01e4
    assert abs(report.q_erb / report.n_beta - 1.35) <= 0.01
    assert abs(report.q_n[10.0] / report.n_beta - 0.77) <= 0.01
    assert abs(report.q_erb / report.q_n[10.0] - 1.77) <= 0.01
    assert best < 1e-3, f"closed_form took {best * 1e3:.3f} ms"
    _passed(
        "criterion 1: sharp-case closed forms match the reference values "
        f"(closed_form best run {best * 1e6:.0f} us)"
    )


def test_criterion_2_wide_case_closed_form_values():
    report = closed_form(CASE2)
    assert abs(report.n_beta - 11.1) <= 0.1
    assert report.phi_accum == 3.5
    assert abs(report.q_erb - 14.1) <= 0.1
    assert abs(report.erb_beta - 0.071) <= 0.001
    assert abs(report.q_n[10.0] - 8.0) <= 0.05
    assert abs(report.bw_n_beta[10.0] - 0.12) <= 0.005
    assert abs(report.s_beta - 6.08e3) <= 0.03e3
    _passed("criterion 2: wide-case closed forms match the reference values")


def test_criterion_3_numeric_extraction_error_bounds():
    start = time.perf_counter()
    desired = closed_form(CASE1)
    errors = relative_errors(
        desired, extract_numeric(partial(eval_gef, CASE1), default_grid(CASE1))
    )
    for key in MAGNITUDE_KEYS:
        assert abs(errors[key]) < 0.015, (key, errors[key])
    assert abs(errors["n_beta"]) < 0.001, errors["n_beta"]
    long_grid = default_grid(CASE1, tail_max=50.0)
    long_errors = relative_errors(
        desired, extract_numeric(partial(eval_gef, CASE1), long_grid)
    )
    assert abs(long_errors["phi_accum"]) < 0.005, long_errors["phi_accum"]
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"extraction took {elapsed:.2f} s"
    _passed(
        "criterion 3: full-filter extraction errors below 1.5% (N below 0.1%, "
        f"phase accumulation {long_errors['phi_accum']:+.3%} at tail 50) in {elapsed:.2f} s"
    )


def test_criterion_4_sharper_filters_are_more_accurate():
    err1 = relative_errors(
        closed_form(CASE1), extract_numeric(partial(eval_gef, CASE1), default_grid(CASE1))
    )
    err2 = relative_errors(
        closed_form(CASE2), extract_numeric(partial(eval_gef, CASE2), default_grid(CASE2))
    )
    for key in MAGNITUDE_KEYS:
        assert abs(err1[key]) < abs(err2[key]), (key, err1[key], err2[key])
    _passed("criterion 4: magnitude-characteristic errors strictly smaller for the sharper case")


def test_criterion_5_design_round_trips():
    closed_rows = (
        (DesignRow.PEAK_DELAY_PHASE, 1e-9),
        (DesignRow.PEAK_QERB_PHASE, 1e-9),
        (DesignRow.PEAK_QN_PHASE, 1e-9),
        (DesignRow.PEAK_CONVEXITY_DELAY, 1e-9),
        (DesignRow.PEAK_CONVEXITY_PHASE, 1e-9),
        (DesignRow.PEAK_DELAY_QERB, 1e-6),
        (DesignRow.PEAK_QN_DELAY, 1e-6),
    )
    start = time.perf_counter()
    checked = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SharpnessWarning)
        for a_p in GRID_AP:
            for b_u in GRID_BU:
                for b_p in GRID_BP:
                    theta = FilterConstants(a_p, b_p, b_u)
                    report = closed_form(theta)
                    for row, tol in closed_rows:
                        got = design(_trio_spec(row, report))
                        assert abs(got.a_p - a_p) <= tol * a_p, (row, a_p, b_u, b_p)
                        assert abs(got.b_p - b_p) <= tol * b_p, (row, a_p, b_u, b_p)
                        assert abs(got.b_u - b_u) <= tol * b_u, (row, a_p, b_u, b_p)
                        checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"round trips took {elapsed:.2f} s"
    _passed(f"criterion 5: {checked} design round trips within tolerance in {elapsed:.2f} s")


def test_criterion_6_qerb_approximation_audit():
    # spot value from the sharp case: about 3.2% at b_u = 6
    spot = abs(qerb_approx(CASE1) - qerb_closed_form(CASE1)) / qerb_closed_form(CASE1)
    assert abs(spot - 0.032) < 0.002, spot
    # the 5% bound holds from b_u ~ 1.9 to 20 (see the companion xfail for
    # the stated lower edge 1.5, where the fit misses by 11.8%)
    worst = 0.0
    for b_u in np.linspace(1.9, 20.0, 363):
        theta = FilterConstants(0.05, 1.0, float(b_u))
        deviation = abs(qerb_approx(theta) - qerb_closed_form(theta)) / qerb_closed_form(theta)
        worst = max(worst, deviation)
    assert worst < 0.05, worst
    _passed(
        "criterion 6: Q_erb power-law audit, spot deviation "
        f"{spot:.2%} at b_u = 6, worst {worst:.2%} on [1.9, 20] "
        "(NOTE: stated bound fails on [1.5, 1.9), tracked as strict xfail)"
    )


@pytest.mark.xfail(
    strict=True,
    reason="stated bound is unattainable: the empirical fit (a = 0.418, b = 1.02) "
    "deviates 11.8% from the gamma-ratio value at b_u = 1.5",
)
def test_criterion_6_stated_interval_includes_lower_edge():
    for b_u in np.linspace(1.5, 20.0, 371):
        theta = FilterConstants(0.05, 1.0, float(b_u))
        deviation = abs(qerb_approx(theta) - qerb_closed_form(theta)) / qerb_closed_form(theta)
        assert deviation < 0.05, (b_u, deviation)


def test_criterion_7_erb_quadrature_equals_gamma_ratio():
    # independent oracle: mirrored composite Simpson quadrature of the
    # one-sided power response over a symmetric window around the peak
    def erb_by_quadrature(theta):
        scaled_core = np.arange(-2400, 2401) / 200.0
        width = max(8.0, 60.0 * theta.a_p) / theta.a_p
        scaled_tail = np.geomspace(12.0, width, 512)[1:]
        offsets = np.concatenate([-scaled_tail[::-1], scaled_core, scaled_tail])
        betas = theta.b_p + theta.a_p * offsets
        peak_power = abs(eval_sharp(theta, theta.b_p)) ** 2
        power = np.abs(np.asarray(eval_sharp(theta, betas))) ** 2 / peak_power
        return float(simpson(power, x=betas))

    worst = 0.0
    for a_p in GRID_AP:
        for b_u in GRID_BU:
            for b_p in GRID_BP:
                theta = FilterConstants(a_p, b_p, b_u)
                numeric = erb_by_quadrature(theta)
                closed = math.sqrt(math.pi) * a_p * math.exp(
                    math.lgamma(b_u - 0.5) - math.lgamma(b_u)
                )
                deviation = abs(numeric - closed) / closed
                worst = max(worst, deviation)
                assert deviation < 0.005, (a_p, b_u, b_p, deviation)
    _passed(f"criterion 7: ERB quadrature matches the gamma ratio, worst deviation {worst:.2e}")


def test_criterion_8_identity_battery():
    rng = np.random.default_rng(20260809)
    n = 10_000
    a_p = rng.uniform(0.01, 0.5, n)
    b_p = rng.uniform(0.3, 3.0, n)
    b_u = rng.uniform(0.6, 20.0, n)
    beta = rng.uniform(0.0, 8.0, n)

    # partial-fraction identity of the log-derivative variable
    s = 1j * beta
    p = -a_p + 1j * b_p
    split = b_u * (1.0 / (s - p) + 1.0 / (s - np.conj(p)))
    single = 2.0 * b_u * (s + a_p) / ((s - p) * (s - np.conj(p)))
    assert np.max(np.abs(split - single) / np.abs(single)) < 1e-12

    # derivative identities against central differences
    theta = CASE1
    for x in (0.3, 0.85, 1.15, 1.4, 3.0):
        h = 1e-6 * max(1.0, x)
        d_level = (level_db(theta, x + h) - level_db(theta, x - h)) / (2 * h)
        d_phase = (phase_rad(theta, x + h) - phase_rad(theta, x - h)) / (2 * h)
        k = wavenumber(theta, x)
        assert abs(d_level - (20.0 / math.log(10.0)) * k.imag) < 1e-5 * abs(d_level)
        assert abs(d_phase + k.real) < 1e-5 * abs(k.real)

    # sharp-magnitude symmetry
    for delta in rng.uniform(0.0, 0.99, 200):
        hi = abs(eval_sharp(theta, 1.0 + delta))
        lo = abs(eval_sharp(theta, 1.0 - delta))
        assert abs(hi - lo) <= 1e-12 * hi

    # asymptotic phase accumulation
    for a, b, u in ((0.05, 1.0, 6.0), (0.1, 1.0, 7.0), (0.2, 0.5, 3.5)):
        th = FilterConstants(a, b, u)
        beta_max = 1e4
        assert abs(phase_rad(th, beta_max) + u * math.pi) < 2.0 * u * (a + b) / beta_max
    _passed("criterion 8: identity battery (partial fraction, derivatives, symmetry, phase limit)")


def test_criterion_9_discretization():
    fs, f_peak = 48000.0, 1000.0
    filt = to_sos(CASE1, f_peak, fs)

    radii = filt.pole_radii()
    assert np.all(radii <= 0.999), radii.max()
    assert radii.max() == pytest.approx(0.9935, abs=5e-4)

    nfft = 2**18
    bins = np.arange(nfft // 2 + 1) * fs / nfft
    response = np.abs(np.asarray(digital_response(filt, bins)))
    peak_bin_freq = bins[int(np.argmax(response))]
    assert abs(peak_bin_freq - f_peak) <= fs / nfft

    base_grid = default_grid(CASE1)
    from gefdesign import FrequencyGrid

    hz_grid = FrequencyGrid(
        samples=base_grid.samples * f_peak,
        dense_halfwidth=base_grid.dense_halfwidth * f_peak,
        dense_step=base_grid.dense_step * f_peak,
        tail_max=base_grid.tail_max * f_peak,
        tail_points=base_grid.tail_points,
    )
    digital_report = extract_numeric(lambda f: digital_response(filt, f), hz_grid)
    q10_analog = closed_form(CASE1).q_n[10.0]
    q10_error = abs(digital_report.q_n[10.0] - q10_analog) / q10_analog
    assert q10_error < 0.03, q10_error

    t = np.arange(int(fs)) / fs
    x = SignalBuffer(fs, chirp(t, f0=200.0, f1=2000.0, t1=1.0))
    y_sos = apply_sos(filt, x).samples
    y_fft = apply_fft(normalized_to_peak(CASE1), f_peak, fs, x).samples
    rms_diff = np.sqrt(np.mean((y_sos - y_fft) ** 2)) / np.sqrt(np.mean(y_sos**2))
    assert rms_diff < 0.01, rms_diff
    _passed(
        "criterion 9: discretization (pole radius "
        f"{radii.max():.4f}, peak bin at {peak_bin_freq:.2f} Hz, digital Q_10 error "
        f"{q10_error:.2%}, cascade-vs-FFT RMS {rms_diff:.2%})"
    )


def test_criterion_10_second_order_reduction():
    theta = FilterConstants(0.05, 1.0, 1.0)
    errors = relative_errors(
        closed_form(theta), extract_numeric(partial(eval_gef, theta), default_grid(theta))
    )
    worst = max(abs(v) for v in errors.values())
    assert worst < 0.02, errors
    _passed(f"criterion 10: second-order reduction within 2% (worst {worst:.2%})")


def test_criterion_11_three_target_error_tables():
    summaries = []
    for theta in (CASE1, CASE2):
        report = closed_form(theta)
        spec = CharacteristicSpec(
            row=DesignRow.PEAK_DELAY_PHASE,
            beta_peak=1.0,
            values={"n_cycles": report.n_beta, "phi_accum": report.phi_accum},
        )
        records = evaluate_case(spec)
        assert [r.target for r in records] == ["p_sharp", "p", "v"]
        by_target = {r.target: r.errors for r in records}
        shared = sorted(set(by_target["p"]) & set(by_target["v"]))
        assert shared
        v_not_worse = [
            key for key in shared if abs(by_target["v"][key]) <= abs(by_target["p"][key])
        ]
        summaries.append(f"{len(v_not_worse)}/{len(shared)}")
    _passed(
        "criterion 11: three-target error tables for both cases; zero-variant "
        f"|error| <= full-filter |error| for {summaries[0]} and {summaries[1]} characteristics "
        "(recorded, not gated)"
    )

"""Frequency-domain filter characteristics: closed forms and a numeric oracle.

Two independent routes produce the same characteristic set
(beta_peak, N, phi_accum, BW_n, Q_n, ERB, Q_erb, S_beta):

* ``closed_form`` evaluates the analytic expressions in terms of the filter
  constants (exact for the one-sided sharp form).
* ``extract_numeric`` recomputes everything from response samples alone:
  golden-section peak refinement, Brent level crossings, Simpson
  quadrature for the ERB, and finite differences for group delay and
  convexity.  It works on the log response L = log H (levels from Re L,
  phase from Im L) and never consults the closed forms, so it can serve as
  an oracle for them.

``default_grid`` samples a uniform window around the peak, then steps that
grow by GRID_GROWTH per sample out to both ends, at any sharpness.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import Callable, Mapping

import numpy as np

from .core import LogResponse
from .scalar import (
    CHARACTERISTIC,
    DB_PER_LOG,
    QERB_FIT_A,
    QERB_FIT_B,
    TWO_PI,
    FilterConstants,
    _LOG_FLOAT_MAX,
    _Record,
    _brentq,
    _erb,
    _golden_max,
    level_factor,
)
from .errors import (
    ApproximationDomain,
    ExponentTooSmallForErb,
    LevelNotReached,
    MissingCharacteristic,
    NoInteriorPeak,
    OutOfRange,
)

DEFAULT_LEVELS_DB = (3.0, 10.0)


def level_label(n_db: float) -> str:
    """Flat-key label for an n-dB characteristic: 3 -> "3", 7.5 -> "7_5"."""
    return f"{n_db:g}".replace(".", "_").replace("-", "m")


GRID_FLOOR = 1e-3
GRID_GROWTH = 1.02


class FrequencyGrid(_Record):
    """Increasing beta samples: a uniform window of half-width
    ``dense_halfwidth`` and step ``dense_step`` around the peak, and graded
    tails out to ``tail_max`` above it and down to the floor below it;
    ``tail_points`` counts the tail samples, those outside the window."""

    _fields = ("samples", "dense_halfwidth", "dense_step", "tail_max", "tail_points")

    def __init__(self, samples: np.ndarray, dense_halfwidth: float, dense_step: float,
                 tail_max: float, tail_points: int):
        # a read-only copy, so the cached weights stay those of the samples
        samples = np.array(samples, dtype=float)
        samples.flags.writeable = False
        if samples.ndim != 1 or samples.size < 16:
            raise ValueError("grid needs a 1-D vector of at least 16 samples")
        if samples[0] <= 0.0:
            raise ValueError("grid samples must be positive")
        if np.any(np.diff(samples) <= 0.0):
            raise ValueError("grid samples must be strictly increasing")
        self.__dict__.update(samples=samples, dense_halfwidth=dense_halfwidth,
                             dense_step=dense_step, tail_max=tail_max, tail_points=tail_points)

    @cached_property
    def _weights(self) -> tuple:
        """The finite-difference and Simpson coefficients of the samples
        (``_Gradient``, ``_Simpson``), computed on first use, so that every
        extraction on this grid shares them.  Raises OutOfRange where a
        product of steps in them passes the largest float (steps past about
        1e154)."""
        try:
            with np.errstate(over="raise"):
                return _Gradient(self.samples), _Simpson(self.samples)
        except FloatingPointError:
            raise OutOfRange("the grid's steps overflow its difference and quadrature "
                             "weights") from None

    def meta(self) -> dict:
        return {
            "n_samples": int(self.samples.size),
            "beta_min": float(self.samples[0]),
            "beta_max": float(self.samples[-1]),
            "dense_halfwidth": float(self.dense_halfwidth),
            "dense_step": float(self.dense_step),
            "tail_max": float(self.tail_max),
            "tail_points": int(self.tail_points),
        }


def _graded_offsets(step: float, span: float) -> np.ndarray:
    """Running sums of the steps step * GRID_GROWTH**j, j >= 1, to one or two
    past span.  Raises OutOfRange when they pass the largest float first."""
    g = GRID_GROWTH
    count = (math.log(max(span, 0.0) * (g - 1.0) / g + step) - math.log(step)) / math.log(g)
    with np.errstate(over="ignore"):
        offsets = step * np.cumsum(g ** np.arange(1, int(count) + 3))
    if not offsets[-1] < math.inf:
        raise OutOfRange(f"steps growing from {step:g} pass the largest float before {span:g}")
    return offsets


def default_grid(theta: FilterConstants, tail_max: float | None = None) -> FrequencyGrid:
    """Build the standard extraction grid for a filter.

    A uniform window [b_p - 12 a_p, b_p + 12 a_p] at step a_p / 200 (kept
    more than half a step above GRID_FLOOR, so that no sample sits next to
    the floor, and always containing b_p exactly).  Out of it each step
    is GRID_GROWTH times the last, up to tail_max = b_p + max(8, 60 a_p)
    unless given, and down to GRID_FLOOR, where no step passes 2% of beta,
    so the low tail ends geometric.  tail_max and GRID_FLOOR are the ends.
    Raises OutOfRange when b_p does not sit half a step above GRID_FLOOR,
    tail_max is not finite and above it, the step underflows to 0, or the
    graded steps pass the largest float before they reach an end.
    """
    a, b = theta.a_p, theta.b_p
    step, halfwidth = a / 200.0, 12.0 * a
    tail_max = b + max(8.0, 60.0 * a) if tail_max is None else tail_max
    if not GRID_FLOOR < tail_max < math.inf:
        raise OutOfRange(f"tail_max = {tail_max:g} must be finite and above {GRID_FLOOR:g}")
    if step == 0.0:
        raise OutOfRange(f"the window step a_p / 200 of a_p = {a:g} underflows to 0")
    k = int(round(halfwidth / step))
    dense = b + step * np.arange(-k, k + 1)
    dense = dense[dense > GRID_FLOOR + 0.5 * step]
    if dense.size == 0 or dense[0] > b:
        raise OutOfRange(f"peak b_p = {b:g} must sit half a step above {GRID_FLOOR:g}")
    high = dense[-1] + _graded_offsets(step, tail_max - dense[-1])
    low = dense[0] - np.append(0.0, _graded_offsets(step, dense[0]))
    # from the first sample whose next step would pass 2% of it, each step is 2%
    j = int(np.argmax(low[:-1] - low[1:] > 0.02 * low[:-1]))
    n = int(math.log(low[j] / GRID_FLOOR) / -math.log(0.98)) + 2
    low = np.append(low[1:j + 1], low[j] * 0.98 ** np.arange(1, n))
    samples = np.concatenate([[GRID_FLOOR], low[low > GRID_FLOOR][::-1], dense,
                              high[high < tail_max], [tail_max]])
    samples = samples[np.concatenate([[True], np.diff(samples) > 0.0])]
    tail_points = np.count_nonzero((samples < dense[0]) | (samples > dense[-1]))
    return FrequencyGrid(samples=samples, dense_halfwidth=halfwidth, dense_step=step,
                         tail_max=float(tail_max), tail_points=int(tail_points))


class CharacteristicReport(_Record):
    """Full characteristic set with provenance.

    Each fact is stored once.  bw_n_beta is keyed by the level in dB, and
    erb_beta is None when the exponent is too small for the ERB to exist
    (b_u <= 1/2 in the closed-form route).  The quality factors derive from
    them, Q = beta_peak / width (q_n, q_erb), and ``method`` from the grid:
    "numeric" when grid_meta is set, "closed_form" otherwise.
    """

    _fields = ("beta_peak", "n_beta", "phi_accum", "s_beta", "bw_n_beta", "erb_beta",
               "grid_meta")

    def __init__(self, beta_peak: float, n_beta: float, phi_accum: float, s_beta: float,
                 bw_n_beta: Mapping[float, float], erb_beta: float | None = None,
                 grid_meta: dict | None = None):
        bw_n_beta = dict(bw_n_beta)
        scalars = {
            "beta_peak": beta_peak,
            "n_beta": n_beta,
            "phi_accum": phi_accum,
            "s_beta": s_beta,
        }
        for name, value in scalars.items():
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be finite and > 0, got {value!r}")
        widths = [bw_n_beta[n] for n in sorted(bw_n_beta)]
        if not all(w2 > w1 for w1, w2 in zip([0.0, *widths], widths)):
            raise ValueError("bw_n_beta must be > 0 and increase with the level n")
        if not (erb_beta is None or erb_beta > 0.0):
            raise ValueError("erb_beta must be > 0")
        self.__dict__.update(scalars, bw_n_beta=bw_n_beta, erb_beta=erb_beta,
                             grid_meta=grid_meta)

    @property
    def q_n(self) -> dict:
        """Q_n = beta_peak / BW_n, keyed by the level in dB."""
        return {n: self.beta_peak / bw for n, bw in self.bw_n_beta.items()}

    @property
    def q_erb(self) -> float | None:
        """Q_erb = beta_peak / ERB, or None without an ERB."""
        return None if self.erb_beta is None else self.beta_peak / self.erb_beta

    @property
    def method(self) -> str:
        return "closed_form" if self.grid_meta is None else "numeric"

    def characteristics(self) -> dict:
        """The characteristics as a flat map: beta_peak, ..., q_3, bw_10_beta."""
        out = {
            "beta_peak": self.beta_peak,
            "n_beta": self.n_beta,
            "phi_accum": self.phi_accum,
            "s_beta": self.s_beta,
        }
        if self.erb_beta is not None:
            out["q_erb"] = self.q_erb
            out["erb_beta"] = self.erb_beta
        for n, q in sorted(self.q_n.items()):
            out[f"q_{level_label(n)}"] = q
            out[f"bw_{level_label(n)}_beta"] = self.bw_n_beta[n]
        return out

    def as_dict(self) -> dict:
        """characteristics() with the method and the grid_* provenance."""
        out = self.characteristics()
        out["method"] = self.method
        if self.grid_meta is not None:
            out.update((f"grid_{key}", value) for key, value in self.grid_meta.items())
        return out


def erb_closed_form(theta: FilterConstants) -> float:
    """ERB in beta: sqrt(pi) * a_p * Gamma(b_u - 1/2) / Gamma(b_u)."""
    if theta.b_u <= 0.5:
        raise ExponentTooSmallForErb(
            f"ERB needs b_u > 1/2, got b_u = {theta.b_u:g}"
        )
    return _erb(theta.a_p, theta.b_u)


def qerb_closed_form(theta: FilterConstants) -> float:
    """Q_erb = b_p / ERB = b_p / (sqrt(pi) a_p) * Gamma(b_u) / Gamma(b_u - 1/2)."""
    return theta.b_p / erb_closed_form(theta)


def qerb_approx(theta: FilterConstants) -> float:
    """Empirical power-law approximation of Q_erb.

    e**1.02 * b_p * b_u**(1 - 0.418) / (2 pi a_p); within 5% of the exact
    gamma-ratio value for b_u in [1.5, 20] (a_p cancels in the ratio).
    """
    if theta.b_u < 1.5:
        raise ApproximationDomain(
            f"approximation valid for b_u >= 3/2, got b_u = {theta.b_u:g}"
        )
    return (
        math.exp(QERB_FIT_B)
        * theta.b_p
        * theta.b_u ** (1.0 - QERB_FIT_A)
        / (TWO_PI * theta.a_p)
    )


def closed_form(
    theta: FilterConstants, n_levels=DEFAULT_LEVELS_DB
) -> CharacteristicReport:
    """Characteristics as analytic functions of the filter constants.

    beta_peak = b_p                      N = b_u / (2 pi a_p)
    phi_accum = b_u / 2                  S = (20/ln 10) b_u / a_p**2
    BW_n = 2 a_p sqrt(10**(n/(10 b_u)) - 1)      Q_n = b_p / BW_n
    ERB  = sqrt(pi) a_p Gamma(b_u - 1/2)/Gamma(b_u)   Q_erb = b_p / ERB

    Only the widths are computed here; the report derives each Q from them.
    The ERB is omitted (None) when b_u <= 1/2.  Raises OutOfRange when a
    characteristic is not a finite positive float: first N, phi_accum, S or
    a width (S underflows to 0 for a_p past about 1e155, the ERB near the
    smallest float), then a quality factor.
    """
    a, b, bu = theta.a_p, theta.b_p, theta.b_u
    bw = {}
    for n in n_levels:
        n = float(n)
        if n <= 0.0:
            raise ValueError(f"dB levels must be > 0, got {n:g}")
        bw[n] = 2.0 * a * level_factor(n, bu)
    try:
        erb = erb_closed_form(theta)
    except ExponentTooSmallForErb:
        erb = None
    n_beta, phi_accum, s_beta = (
        CHARACTERISTIC[key](a, b, bu, None) for key in ("n_cycles", "phi_accum", "s_beta")
    )
    values = [n_beta, phi_accum, s_beta, *bw.values()] + ([] if erb is None else [erb])
    if not all(math.isfinite(value) and value > 0.0 for value in values):
        raise OutOfRange(f"characteristics of {theta} are not all finite and > 0")
    report = CharacteristicReport(
        beta_peak=b, n_beta=n_beta, phi_accum=phi_accum, s_beta=s_beta,
        bw_n_beta=bw, erb_beta=erb,
    )
    values = report.characteristics().values()
    if not all(math.isfinite(value) and value > 0.0 for value in values):
        raise OutOfRange(f"quality factors of {theta} are not all finite and > 0")
    return report


def _level_crossing(level_fn, target, a, b):
    """Brent root of level(beta) == target between two samples bracketing
    the crossing.  The samples bracket it by their vectorized levels; when a
    target within rounding of a sample's level leaves the scalar levels on
    one side, the sample whose level is nearer the target is the crossing."""
    def gap(beta):
        return level_fn(beta) - target

    try:
        return _brentq(gap, a, b, xtol=1e-15 * max(1.0, a, b))
    except ValueError:
        return min(a, b, key=lambda beta: abs(gap(beta)))


def _divide_or_zero(num, den):
    """num / den, and 0 where den is 0."""
    return np.true_divide(num, den, out=np.zeros_like(den), where=den != 0)


class _Gradient:
    """Centered differences at increasing points x, with the coefficients
    that depend on x alone computed once; calling it with samples f gives
    the slope of f at every point.

    A port of numpy.gradient (2.4) for 1-D samples and edge_order 1 that
    keeps its operations and their order, so the slope is bit-identical:
    the three-point non-uniform rule a f[:-2] + b f[1:-1] + c f[2:] inside,
    (f[2:] - f[:-2]) / (2 dx) instead where every step is equal, and
    one-sided differences at the two ends.
    """

    def __init__(self, x: np.ndarray):
        dx = np.diff(x)
        self.first, self.last = dx[0], dx[-1]
        if (dx == dx[0]).all():
            self.two_dx, self.coefficients = 2.0 * dx[0], None
        else:
            dx1, dx2 = dx[0:-1], dx[1:]
            self.coefficients = (
                -dx2 / (dx1 * (dx1 + dx2)),
                (dx2 - dx1) / (dx1 * dx2),
                dx1 / (dx2 * (dx1 + dx2)),
            )

    def __call__(self, f: np.ndarray) -> np.ndarray:
        out = np.empty_like(f)
        if self.coefficients is None:
            out[1:-1] = (f[2:] - f[:-2]) / self.two_dx
        else:
            a, b, c = self.coefficients
            out[1:-1] = a * f[:-2] + b * f[1:-1] + c * f[2:]
        out[0] = (f[1] - f[0]) / self.first
        out[-1] = (f[-1] - f[-2]) / self.last
        return out


class _Simpson:
    """Composite Simpson weights of three or more increasing points x;
    calling it with samples y gives their integral.

    A port of scipy.integrate.simpson (1.17) for 1-D samples that keeps its
    operations and their order, so the result is bit-identical: the
    non-uniform three-point rule over consecutive interval pairs, the sum of
    (hsum / 6) (y0 A + y1 B + y2 C) with A, B, C factors of the interval
    pair, and, for an even sample count, Cartwright's correction for the
    last interval.  Only where the last step's cube passes the largest float
    (steps past about 5e102) does the correction's h1**3 / (6 h0 (h0 + h1))
    depart from scipy, formed as h1 (h1 / h0) (h1 / (h0 + h1)) / 6.
    """

    def __init__(self, x: np.ndarray):
        n = x.size
        self.stop = stop = n - 2 if n % 2 else n - 3
        h = np.diff(x)
        h0, h1 = h[0:stop:2], h[1:stop + 1:2]
        hsum = h0 + h1
        hprod = h0 * h1
        h0divh1 = _divide_or_zero(h0, h1)
        self.hsum6 = hsum / 6.0
        self.factors = (
            2.0 - _divide_or_zero(1.0, h0divh1),
            hsum * _divide_or_zero(hsum, hprod),
            2.0 - h0divh1,
        )
        self.correction = None
        if n % 2 == 0:
            # 0-d arrays, as in scipy, so that h1 ** 3 takes numpy's power loop
            h0, h1 = h[-2:-1].reshape(()), h[-1:].reshape(())
            with np.errstate(over="ignore"):
                cube = h1 ** 3
            if cube < math.inf:
                eta = _divide_or_zero(cube, 6 * h0 * (h0 + h1))
            else:
                eta = h1 * (h1 / h0) * (h1 / (h0 + h1)) / 6
            self.correction = (
                _divide_or_zero(2 * h1 ** 2 + 3 * h0 * h1, 6 * (h1 + h0)),
                _divide_or_zero(h1 ** 2 + 3.0 * h0 * h1, 6 * h0),
                eta,
            )

    def __call__(self, y: np.ndarray):
        stop = self.stop
        a, b, c = self.factors
        result = np.sum(
            self.hsum6 * (y[0:stop:2] * a + y[1:stop + 1:2] * b + y[2:stop + 2:2] * c)
        )
        if self.correction is not None:
            alpha, beta, eta = self.correction
            result += alpha * y[-1] + beta * y[-2] - eta * y[-3]
        return result


def _complex_log(response: Callable, betas: np.ndarray) -> LogResponse:
    """The log response of a complex response callable: log|H| + i unwrap(angle H)
    at the betas, and log|H| at one beta (hypot, not abs, so a modulus past the
    largest float reads inf instead of raising)."""
    # a zero, an overflow or a nan gives a non-finite L, which fails the grid gate
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        values = np.asarray(response(betas), dtype=complex)
        re, im = np.log(np.abs(values)), np.unwrap(np.angle(values))

    def re_at(beta):
        value = complex(response(beta))
        return math.log(math.hypot(value.real, value.imag))

    return LogResponse(betas, re, im, re_at)


def extract_numeric(
    response,
    grid: FrequencyGrid,
    n_levels=DEFAULT_LEVELS_DB,
) -> CharacteristicReport:
    """Recompute the characteristic set from a sampled frequency response.

    Parameters
    ----------
    response : LogResponse or callable
        The log response L = log H sampled at ``grid.samples`` (as
        ``core.log_response`` gives it), or beta -> complex response H, which
        must accept both a scalar and an array of betas (returning values of
        the same shape); its log is log|H| + i unwrap(angle H).
    grid : FrequencyGrid
        Sample locations; the magnitude maximum must be interior.
    n_levels : iterable of float
        dB levels for bandwidths and quality factors.

    Procedure, on L: peak by golden-section refinement of Re L around the
    best sample (ties break to the smallest beta) to within
    min(1e-10, dense_step / 100); BW_n by Brent's method on
    the level (20/ln 10) Re L between bracketing samples on each side; ERB by
    composite Simpson quadrature of the normalized power
    exp(2 (Re L - Re L_peak)) over the full grid span; N as the maximum of
    -(1/2 pi) d(Im L)/d(beta) using centered differences; phi_accum as the
    span of Im L over the grid divided by 2 pi; S by a second-order central
    difference of the level at the peak with step 4 * dense_step.

    The difference and quadrature coefficients depend on the grid alone;
    the grid computes them once and every extraction on it shares them.

    Raises OutOfRange when L is not finite on the grid, when |H| passes the
    largest float somewhere on it, when the quadrature ERB or the
    difference S is not finite and positive, or when the two crossings of a
    level give no width above the last (smaller) level's.
    """
    betas = grid.samples
    if not isinstance(response, LogResponse):
        response = _complex_log(response, betas)
    elif response.betas is not betas and not np.array_equal(response.betas, betas):
        raise ValueError("the log response is not sampled at the grid's betas")
    log_mag, phase, log_mag_at = response.re, response.im, response.re_at
    if not (
        np.all(np.isfinite(log_mag))
        and np.all(np.isfinite(phase))
        and log_mag.max() <= _LOG_FLOAT_MAX
    ):
        raise OutOfRange(
            "the log response must be finite and the magnitude at most the "
            "largest float on the whole grid"
        )

    i_pk = int(np.argmax(log_mag))
    if i_pk == 0 or i_pk == betas.size - 1:
        raise NoInteriorPeak(
            f"magnitude maximum at the grid boundary (beta = {betas[i_pk]:g})"
        )

    def level_at(beta):
        return DB_PER_LOG * log_mag_at(beta)

    # the scalar probes take Python floats, so Brent's method and the golden
    # section do float arithmetic on math
    beta_pk = _golden_max(log_mag_at, float(betas[i_pk - 1]), float(betas[i_pk + 1]),
                          tol=min(1e-10, 0.01 * grid.dense_step))
    peak_log_mag = log_mag_at(beta_pk)
    peak_level = DB_PER_LOG * peak_log_mag

    h = 4.0 * grid.dense_step
    # h * h underflows to 0 for h below about 1e-162, which leaves no S
    s_beta = (-(level_at(beta_pk + h) - 2.0 * peak_level + level_at(beta_pk - h)) / (h * h)
              if h * h > 0.0 else math.nan)
    if not (math.isfinite(s_beta) and s_beta > 0.0):
        # as where the step is below the spacing of floats at the peak
        raise OutOfRange(
            f"the level's second difference at beta_peak = {beta_pk:g} with step "
            f"{h:g} gives S = {s_beta:g}, not a finite positive value"
        )

    levels = DB_PER_LOG * log_mag

    bw = {}
    for n in sorted(float(n) for n in n_levels):
        target = peak_level - n
        # the first sample below the target above the peak, the last below it
        above = np.flatnonzero(levels[i_pk + 1:] < target)
        if above.size == 0:
            raise LevelNotReached(n, "high-frequency")
        j = i_pk + 1 + int(above[0])
        upper = _level_crossing(level_at, target, float(betas[j - 1]), float(betas[j]))
        below = np.flatnonzero(levels[:i_pk] < target)
        if below.size == 0:
            raise LevelNotReached(n, "low-frequency")
        j = int(below[-1])
        lower = _level_crossing(level_at, target, float(betas[j]), float(betas[j + 1]))
        width, last = upper - lower, max(bw.values(), default=0.0)
        if not width > last:
            # both crossings round to one float, or to those of the level below,
            # where the widths are below the spacing of floats
            raise OutOfRange(f"the {n:g} dB crossings at beta = {lower:g} give no width "
                             f"above {last:g}")
        bw[n] = width

    gradient, integral = grid._weights
    power = np.exp(2.0 * (log_mag - peak_log_mag))
    erb = float(integral(power))
    if not erb > 0.0:
        raise OutOfRange(f"Simpson quadrature gives a non-positive ERB of {erb:g}")

    n_beta = float(np.max(-gradient(phase))) / TWO_PI
    phi_accum = float(phase.max() - phase.min()) / TWO_PI

    return CharacteristicReport(
        beta_peak=beta_pk,
        n_beta=n_beta,
        phi_accum=phi_accum,
        s_beta=s_beta,
        bw_n_beta=bw,
        erb_beta=erb,
        grid_meta=grid.meta(),
    )


def relative_errors(
    desired: CharacteristicReport, achieved: CharacteristicReport
) -> dict:
    """Signed relative error per characteristic: (desired - achieved) / desired.

    Raises MissingCharacteristic if the achieved report lacks a field the
    desired report carries.
    """
    return _flat_errors(desired.characteristics(), achieved.characteristics())


def _flat_errors(desired: Mapping[str, float], achieved: Mapping[str, float]) -> dict:
    """(desired - achieved) / desired for each key of the flat map desired;
    raises MissingCharacteristic for a key that achieved lacks."""
    out = {}
    for key, want in desired.items():
        if key not in achieved:
            raise MissingCharacteristic(key)
        out[key] = (want - achieved[key]) / want
    return out

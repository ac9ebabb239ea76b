"""Frequency-domain filter characteristics: closed forms and a numeric oracle.

Two independent routes produce the same characteristic set
(beta_peak, N, phi_accum, BW_n, Q_n, ERB, Q_erb, S_beta):

* ``closed_form`` evaluates the analytic expressions in terms of the filter
  constants (exact for the one-sided sharp form).
* ``extract_numeric`` recomputes everything from response samples alone:
  parabolic vertex steps for the peak and a Richardson-extrapolated second
  difference there for the convexity, Brent level crossings, Simpson
  quadrature for the ERB, a Richardson-extrapolated difference of the
  phase with a parabolic vertex for the group delay, and the span of the
  phase with a parabolic vertex at an interior extremum for phi_accum.  It
  works on the log response L = log H (levels from Re L, phase from Im L)
  and never consults the closed forms, so it can serve as an oracle for
  them.

``default_grid`` samples a uniform window of +-4 a_p around the peak, then
steps that grow by GRID_GROWTH = 1.01 per sample out to both ends, at any
sharpness.  The peak, N, S and, for b_u >= 1, the n-dB crossings read only
the window; the ERB and an interior phase extremum read the graded steps
too, whose slow growth keeps the quadrature accurate.
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
GRID_GROWTH = 1.01


class FrequencyGrid(_Record):
    """Increasing beta samples: a uniform window of half-width
    ``dense_halfwidth`` (4 a_p in ``default_grid``) and step ``dense_step``
    around the peak, and graded tails, each step GRID_GROWTH times the last,
    out to ``tail_max`` above it and down to the floor below it;
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
        # a nan fails every comparison; rising samples below a finite last are finite
        if not ((samples[1:] > samples[:-1]).all() and samples[-1] < math.inf):
            raise ValueError("grid samples must be finite and strictly increasing")
        self.__dict__.update(samples=samples, dense_halfwidth=dense_halfwidth,
                             dense_step=dense_step, tail_max=tail_max, tail_points=tail_points)

    @cached_property
    def _weights(self) -> _Simpson:
        """The Simpson weights of the samples, computed on first use, so that
        every extraction on this grid shares them.  Raises OutOfRange where a
        product of steps in them passes the largest float (steps past about
        1e154)."""
        try:
            with np.errstate(over="raise"):
                return _Simpson(self.samples)
        except FloatingPointError:
            raise OutOfRange("the grid's steps overflow its quadrature weights") from None

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


_growth_sums = np.empty(0)


def _growth_prefix(count: int) -> np.ndarray:
    """cumsum(GRID_GROWTH ** arange(1, count + 1)), read-only: a prefix of
    one array kept here and rebuilt longer when a count passes its length.
    The power is elementwise and the running sum sequential, so every prefix
    is bit-identical to the sums computed at that count alone, whatever
    earlier calls left here."""
    global _growth_sums
    if _growth_sums.size < count:
        with np.errstate(over="ignore"):
            sums = np.cumsum(GRID_GROWTH ** np.arange(1, max(count, 2 * _growth_sums.size) + 1))
        sums.flags.writeable = False
        _growth_sums = sums
    return _growth_sums[:count]


def _graded_offsets(step: float, span: float) -> np.ndarray:
    """Running sums of the steps step * GRID_GROWTH**j, j >= 1, to one or two
    past span.  Raises OutOfRange when they pass the largest float first."""
    g = GRID_GROWTH
    count = (math.log(max(span, 0.0) * (g - 1.0) / g + step) - math.log(step)) / math.log(g)
    with np.errstate(over="ignore"):
        offsets = step * _growth_prefix(int(count) + 2)
    if not offsets[-1] < math.inf:
        raise OutOfRange(f"steps growing from {step:g} pass the largest float before {span:g}")
    return offsets


def default_grid(theta: FilterConstants, tail_max: float | None = None) -> FrequencyGrid:
    """Build the standard extraction grid for a filter.

    A uniform window [b_p - 4 a_p, b_p + 4 a_p] at step a_p / 200 (kept
    more than half a step above GRID_FLOOR, so that no sample sits next to
    the floor, and always containing b_p exactly), which holds every
    sample the peak, N, S and, for b_u >= 1, the crossings read.  Out of
    it each step is GRID_GROWTH = 1.01 times the last, slow enough that
    Simpson's rule on the tails keeps the ERB accurate, up to tail_max =
    b_p + max(8, 60 a_p) unless given, and down to GRID_FLOOR, where no
    step passes 2% of beta, so the low tail ends geometric.  tail_max and
    GRID_FLOOR are the ends.
    Raises OutOfRange when b_p does not sit half a step above GRID_FLOOR,
    tail_max is not finite and above it, the step underflows to 0, the
    graded steps pass the largest float before they reach an end, or
    tail_max is not above the window's top sample.
    """
    a, b = theta.a_p, theta.b_p
    step, halfwidth = a / 200.0, 4.0 * a
    tail_max = b + max(8.0, 60.0 * a) if tail_max is None else tail_max
    if not GRID_FLOOR < tail_max < math.inf:
        raise OutOfRange(f"tail_max = {tail_max:g} must be finite and above {GRID_FLOOR:g}")
    if step == 0.0:
        raise OutOfRange(f"the window step a_p / 200 of a_p = {a:g} underflows to 0")
    k = int(round(halfwidth / step))
    dense = np.arange(-k, k + 1, dtype=float)  # whole numbers, exact below 2**53
    dense *= step
    dense += b
    if not dense[0] > GRID_FLOOR + 0.5 * step:  # else all pass: dense does not decrease
        dense = dense[dense > GRID_FLOOR + 0.5 * step]
    if dense.size == 0 or dense[0] > b:
        raise OutOfRange(f"peak b_p = {b:g} must sit half a step above {GRID_FLOOR:g}")
    high = dense[-1] + _graded_offsets(step, tail_max - dense[-1])
    low = dense[0] - np.concatenate(([0.0], _graded_offsets(step, dense[0])))
    # checked after the offsets, which refuse steps that pass the largest float first
    if not tail_max > dense[-1]:
        raise OutOfRange(f"tail_max = {tail_max:g} must lie above the window's top sample "
                         f"{dense[-1]:g}")
    # from the first sample whose next step would pass 2% of it, each step is 2%
    j = int((low[:-1] - low[1:] > 0.02 * low[:-1]).argmax())
    n = int(math.log(low[j] / GRID_FLOOR) / -math.log(0.98)) + 2
    low = np.concatenate((low[1:j + 1], low[j] * 0.98 ** np.arange(1, n)))
    samples = np.concatenate([[GRID_FLOOR], low[low > GRID_FLOOR][::-1], dense,
                              high[high < tail_max], [tail_max]])
    # every sample is finite, so a step is positive exactly where the sample rises
    rising = samples[1:] > samples[:-1]
    if not rising.all():
        samples = samples[np.concatenate([[True], rising])]
    # the samples increase, so those below and above the window are counted by bisection
    tail_points = (np.searchsorted(samples, dense[0])
                   + samples.size - np.searchsorted(samples, dense[-1], side="right"))
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
        return _brentq(gap, a, b, xtol=1e-15 * max(a, b))
    except ValueError:
        return min(a, b, key=lambda beta: abs(gap(beta)))


def _divide_or_zero(num, den):
    """num / den, and 0 where den is 0."""
    if den.all():
        return np.true_divide(num, den)
    return np.true_divide(num, den, out=np.zeros_like(den), where=den != 0)


def _max_falling_slope(x: np.ndarray, f: np.ndarray) -> float:
    """The maximum of -df/dx over samples f at increasing points x.

    Richardson's (4 D_1 - D_2) / 3 of the centered differences over one
    sample and over two, D_k = (f[i+k] - f[i-k]) / (x[i+k] - x[i-k]), at
    every point two or more inside the ends: on equal steps their h**2 error
    terms cancel.  Its largest value is raised to the vertex of the parabola
    through it and the two beside it, taken as equally spaced, where those
    bend down.  The vertex's y1 + (y2 - y0)**2 / (8 curve) is formed as a
    product of y2 - y0 and a quotient of at most 1, so it does not overflow.
    """
    d1 = np.subtract(f[2:], f[:-2])
    d1 /= x[2:] - x[:-2]
    d2 = np.subtract(f[4:], f[:-4])
    d2 /= x[4:] - x[:-4]
    # three times the falling slope; the vertex scales with it, so 1/3 is taken last
    falls = np.multiply(d1[1:-1], -4.0)
    falls += d2
    k = int(falls.argmax())
    y1 = float(falls[k])
    if 0 < k < falls.size - 1:
        y0, y2 = float(falls[k - 1]), float(falls[k + 1])
        curve = 2.0 * y1 - y0 - y2
        if curve > 0.0:
            y1 += 0.125 * (y2 - y0) * ((y2 - y0) / curve)
    return y1 / 3.0


def _vertex_value(x: np.ndarray, y: np.ndarray, k: int) -> float:
    """y[k], an extreme sample, moved to the vertex of the parabola through
    it and the samples beside it where k is interior.  With s0 and s2 the
    slopes over the steps d0 and d2 beside it, the parabola's slope at x[k]
    is c1 = w / (d0 + d2) and the vertex lies t = w / (2 (s0 - s2)) from
    it, w = s0 d2 + s2 d0; the vertex value is y[k] + c1 t / 2.  t lies
    within the two steps, so the product stays within the samples' rise;
    where a slope overflows, y[k] as it stands."""
    y1 = float(y[k])
    if not 0 < k < y.size - 1:
        return y1
    (x0, x1, x2), (y0, _, y2) = x[k - 1:k + 2].tolist(), y[k - 1:k + 2].tolist()
    d0, d2 = x1 - x0, x2 - x1
    s0, s2 = (y1 - y0) / d0, (y2 - y1) / d2
    if s0 == s2:  # both 0: three equal samples
        return y1
    w = s0 * d2 + s2 * d0
    value = y1 + 0.25 * (w / (d0 + d2)) * (w / (s0 - s2))
    return value if math.isfinite(value) else y1


def _peak_and_convexity(re_at, beta: float, step: float) -> tuple[float, float, float]:
    """The maximizer of Re L from beta, Re L there and S there, from at most
    14 scalar probes: three steps to the vertex of the parabola through Re L
    at beta and beta +- h, h = step, step / 16, step / 256 (a fixed h leaves
    the vertex off by order h**2), that stop where it does not bend down or a
    step rounds to nothing; then S by Richardson's (4 D(h) - D(2 h)) / 3 of
    the level's second differences, h = 2 step.  Each takes the offsets
    actually probed, (beta +- h) - beta.  Raises OutOfRange where a step of S
    rounds to 0 or S is not finite and positive."""
    def stencil(h):
        """The offsets of beta - h and beta + h from beta and the slopes of
        Re L over them, all nan where an offset rounds to 0."""
        lo, hi = beta - h, beta + h
        d0, d2 = beta - lo, hi - beta
        if not (d0 > 0.0 and d2 > 0.0):
            return (math.nan,) * 4
        return d0, d2, (y - re_at(lo)) / d0, (re_at(hi) - y) / d2

    y = re_at(beta)
    for h in (step, step / 16.0, step / 256.0):
        d0, d2, s0, s2 = stencil(h)
        vertex = beta + 0.5 * (s0 * d2 + s2 * d0) / (s0 - s2) if s0 > s2 else beta
        if vertex == beta or not math.isfinite(vertex):  # nan where a slope overflows
            break
        beta, y = vertex, re_at(vertex)
    # D = -2 (s0 - s2) / (d0 + d2) over the probed offsets
    (d0, d2, s0, s2), (e0, e2, t0, t2) = stencil(2.0 * step), stencil(4.0 * step)
    s_beta = DB_PER_LOG * (8.0 * (s0 - s2) / (d0 + d2) - 2.0 * (t0 - t2) / (e0 + e2)) / 3.0
    if not (math.isfinite(s_beta) and s_beta > 0.0):
        raise OutOfRange(
            f"the level's second difference at beta_peak = {beta:g} with step "
            f"{4.0 * step:g} gives S = {s_beta:g}, not a finite positive value"
        )
    return beta, y, s_beta


class _Simpson:
    """Composite Simpson weights of three or more increasing points x;
    calling it with samples y gives their integral.

    The operations of scipy.integrate.simpson (1.17) for 1-D samples, in
    their order, so the result is bit-identical to it: the non-uniform
    three-point rule over consecutive interval pairs, the sum of
    (hsum / 6) (y0 A + y1 B + y2 C) with A, B, C factors of the interval
    pair, and, for an even sample count, Cartwright's correction for the
    last interval.  The factors and the terms of the sum are formed in place
    with scipy's operations in scipy's order; a product or a sum may take its
    two operands the other way round, which gives the same float.  Only where
    the last step's cube passes the largest float (steps past about 5e102)
    does the correction's h1**3 / (6 h0 (h0 + h1)) depart from scipy, formed
    as h1 (h1 / h0) (h1 / (h0 + h1)) / 6.  The correction's three
    coefficients are formed on Python floats, which cost less than numpy's
    0-d operations; where one of their steps overflows it raises
    FloatingPointError, as numpy does under errstate(over="raise").
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
        a = _divide_or_zero(1.0, h0divh1)
        np.subtract(2.0, a, out=a)
        b = _divide_or_zero(hsum, hprod)
        b *= hsum
        self.factors = a, b, np.subtract(2.0, h0divh1, out=h0divh1)
        self.correction = None
        if n % 2 == 0:
            # on Python floats, in scipy's order (its h ** 2 is h * h); only
            # h1 ** 3 takes numpy's power loop, as scipy's does, since
            # Python's pow rounds some cubes otherwise
            h0, h1 = h[-2:].tolist()
            with np.errstate(over="ignore"):
                cube = np.power(h[-1:], 3).item()
            if cube < math.inf:
                eta = (cube, 6 * h0 * (h0 + h1))
            else:
                eta = (h1 * (h1 / h0) * (h1 / (h0 + h1)), 6)
            quotients = ((2 * (h1 * h1) + 3 * h0 * h1, 6 * (h1 + h0)),
                         (h1 * h1 + 3.0 * h0 * h1, 6 * h0), eta)
            self.correction = tuple(num / den if den else 0.0 for num, den in quotients)
            # Python floats overflow to inf without raising; every step feeds
            # a numerator, a denominator or a quotient
            if not all(map(math.isfinite, (*sum(quotients, ()), *self.correction))):
                raise FloatingPointError("overflow in the last interval's correction")

    def __call__(self, y: np.ndarray):
        stop = self.stop
        a, b, c = self.factors
        terms = np.multiply(y[0:stop:2], a)
        term = np.multiply(y[1:stop + 1:2], b)
        terms += term
        np.multiply(y[2:stop + 2:2], c, out=term)
        terms += term
        terms *= self.hsum6
        result = np.sum(terms)
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

    Procedure, on L: peak and S by _peak_and_convexity from the best sample
    (ties break to the smallest beta) with step dense_step; BW_n by Brent's
    method on the level (20/ln 10) Re L between bracketing samples on each
    side; ERB by composite Simpson quadrature of the normalized power
    exp(2 (Re L - Re L_peak)) over the full grid span; N as the maximum of
    -(1/2 pi) d(Im L)/d(beta), by Richardson's (4 D_1 - D_2) / 3 of the
    centered differences over one sample and over two and the vertex of a
    parabola through its largest value and the two beside it; phi_accum as
    the span of Im L over the grid divided by 2 pi, an extremum inside the
    grid (as v's phase maximum) read at the vertex of the parabola through
    its sample and the two beside it.

    The quadrature weights depend on the grid alone; the grid computes them
    once and every extraction on it shares them.

    Raises OutOfRange when L is not finite on the grid, when |H| passes the
    largest float somewhere on it, when the quadrature ERB or the
    difference S is not finite and positive (as where a step of S rounds to
    0), or when the two crossings of a level give no width above the last
    (smaller) level's.
    """
    betas = grid.samples
    if not isinstance(response, LogResponse):
        response = _complex_log(response, betas)
    elif response.betas is not betas and not np.array_equal(response.betas, betas):
        raise ValueError("the log response is not sampled at the grid's betas")
    log_mag, phase, log_mag_at = response.re, response.im, response.re_at
    # a nan makes its array's extremes nan, and fails every comparison here
    i_pk = int(np.argmax(log_mag))
    k_min, k_max = int(phase.argmin()), int(phase.argmax())
    phase_min, phase_max = phase[k_min], phase[k_max]
    if not (
        -math.inf < log_mag.min()
        and log_mag[i_pk] <= _LOG_FLOAT_MAX
        and -math.inf < phase_min
        and phase_max < math.inf
    ):
        raise OutOfRange(
            "the log response must be finite and the magnitude at most the "
            "largest float on the whole grid"
        )

    if i_pk == 0 or i_pk == betas.size - 1:
        raise NoInteriorPeak(
            f"magnitude maximum at the grid boundary (beta = {betas[i_pk]:g})"
        )

    def level_at(beta):
        return DB_PER_LOG * log_mag_at(beta)

    # Python floats, so that Brent's method and the stencil do float arithmetic
    beta_pk, peak_log_mag, s_beta = _peak_and_convexity(log_mag_at, float(betas[i_pk]),
                                                        grid.dense_step)
    peak_level = DB_PER_LOG * peak_log_mag

    levels = DB_PER_LOG * log_mag
    # the levels above the peak, and those below it from the peak down
    high, low = levels[i_pk + 1:], levels[i_pk - 1::-1]

    bw = {}
    for n in sorted(float(n) for n in n_levels):
        target = peak_level - n
        # the first sample below the target above the peak, the last below it
        side = high < target
        k = int(side.argmax())
        if not side[k]:
            raise LevelNotReached(n, "high-frequency")
        j = i_pk + 1 + k
        upper = _level_crossing(level_at, target, float(betas[j - 1]), float(betas[j]))
        side = low < target
        k = int(side.argmax())
        if not side[k]:
            raise LevelNotReached(n, "low-frequency")
        j = i_pk - 1 - k
        lower = _level_crossing(level_at, target, float(betas[j]), float(betas[j + 1]))
        width, last = upper - lower, max(bw.values(), default=0.0)
        if not width > last:
            # both crossings round to one float, or to those of the level below,
            # where the widths are below the spacing of floats
            raise OutOfRange(f"the {n:g} dB crossings at beta = {lower:g} give no width "
                             f"above {last:g}")
        bw[n] = width

    power = np.subtract(log_mag, peak_log_mag)
    power *= 2.0
    erb = float(grid._weights(np.exp(power, out=power)))
    if not erb > 0.0:
        raise OutOfRange(f"Simpson quadrature gives a non-positive ERB of {erb:g}")

    n_beta = _max_falling_slope(betas, phase) / TWO_PI
    phi_accum = (_vertex_value(betas, phase, k_max) - _vertex_value(betas, phase, k_min)) / TWO_PI

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

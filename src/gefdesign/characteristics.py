"""Frequency-domain filter characteristics: closed forms and a numeric oracle.

Two independent routes produce the same characteristic set
(beta_peak, N, phi_accum, BW_n, Q_n, ERB, Q_erb, S_beta):

* ``closed_form`` evaluates the analytic expressions in terms of the filter
  constants (exact for the one-sided sharp form).
* ``extract_numeric`` recomputes everything from response samples alone:
  golden-section peak refinement, Brent level crossings, Simpson
  quadrature for the ERB, and finite differences for group delay and
  convexity.  It never consults the closed forms, so it can serve as an
  oracle for them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .core import DB_PER_LOG, TWO_PI, FilterConstants, _brentq
from .errors import (
    ApproximationDomain,
    ExponentTooSmallForErb,
    LevelNotReached,
    MissingCharacteristic,
    NoInteriorPeak,
    OutOfRange,
)

# empirical power-law fit constants for Q_erb, valid for b_u >= 3/2
QERB_FIT_A = 0.418
QERB_FIT_B = 1.02

DEFAULT_LEVELS_DB = (3.0, 10.0)


def level_label(n_db: float) -> str:
    """Flat-key label for an n-dB characteristic: 3 -> "3", 7.5 -> "7_5"."""
    return f"{n_db:g}".replace(".", "_").replace("-", "m")


@dataclass(frozen=True)
class FrequencyGrid:
    """Nonuniform beta sampling: a dense linear window around the peak plus
    logarithmic tails covering [beta_min, tail_max]."""

    samples: np.ndarray
    dense_halfwidth: float
    dense_step: float
    tail_max: float
    tail_points: int

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=float)
        object.__setattr__(self, "samples", samples)
        if samples.ndim != 1 or samples.size < 16:
            raise ValueError("grid needs a 1-D vector of at least 16 samples")
        if samples[0] <= 0.0:
            raise ValueError("grid samples must be positive")
        if np.any(np.diff(samples) <= 0.0):
            raise ValueError("grid samples must be strictly increasing")

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


def default_grid(
    theta: FilterConstants,
    tail_max: float | None = None,
    beta_min: float = 1e-3,
    tail_points: int = 2048,
) -> FrequencyGrid:
    """Build the standard extraction grid for a filter.

    Dense window [b_p - 12 a_p, b_p + 12 a_p] at step a_p / 200 (clipped to
    positive beta and always containing b_p exactly), log-spaced tails from
    beta_min out to tail_max = b_p + max(8, 60 a_p) unless overridden.
    Raises OutOfRange when b_p does not sit above beta_min.
    """
    a, b = theta.a_p, theta.b_p
    step = a / 200.0
    halfwidth = 12.0 * a
    if tail_max is None:
        tail_max = b + max(8.0, 60.0 * a)
    if tail_max <= beta_min:
        raise ValueError("tail_max must exceed beta_min")
    k = int(round(halfwidth / step))
    dense = b + step * np.arange(-k, k + 1)
    dense = dense[dense > beta_min]
    if dense.size == 0 or dense[0] > b:
        raise OutOfRange(f"peak b_p = {b:g} must sit above beta_min = {beta_min:g}")
    tails = np.geomspace(beta_min, float(tail_max), int(tail_points))
    samples = np.concatenate(
        [tails[tails < dense[0]], dense, tails[tails > dense[-1]]]
    )
    keep = np.concatenate([[True], np.diff(samples) > 0.0])
    return FrequencyGrid(
        samples=samples[keep],
        dense_halfwidth=halfwidth,
        dense_step=step,
        tail_max=float(tail_max),
        tail_points=int(tail_points),
    )


@dataclass(frozen=True)
class CharacteristicReport:
    """Full characteristic set with provenance.

    q_n / bw_n_beta are keyed by the level in dB.  q_erb / erb_beta are
    None when the exponent is too small for the ERB to exist
    (b_u <= 1/2 in the closed-form route).
    """

    beta_peak: float
    n_beta: float
    phi_accum: float
    s_beta: float
    q_n: Mapping[float, float]
    bw_n_beta: Mapping[float, float]
    q_erb: float | None = None
    erb_beta: float | None = None
    method: str = "closed_form"
    grid_meta: dict | None = None

    def __post_init__(self):
        object.__setattr__(self, "q_n", dict(self.q_n))
        object.__setattr__(self, "bw_n_beta", dict(self.bw_n_beta))
        if self.method not in ("closed_form", "numeric"):
            raise ValueError(f"unknown method {self.method!r}")
        scalars = {
            "beta_peak": self.beta_peak,
            "n_beta": self.n_beta,
            "phi_accum": self.phi_accum,
            "s_beta": self.s_beta,
        }
        for name, value in scalars.items():
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be finite and > 0, got {value!r}")
        if set(self.q_n) != set(self.bw_n_beta):
            raise ValueError("q_n and bw_n_beta must share their level keys")
        for n, q in self.q_n.items():
            bw = self.bw_n_beta[n]
            if q <= 0.0 or bw <= 0.0:
                raise ValueError(f"non-positive Q/BW at {n:g} dB")
            if abs(q * bw - self.beta_peak) > 1e-9 * self.beta_peak:
                raise ValueError(f"Q_n * BW_n != beta_peak at {n:g} dB")
        levels = sorted(self.bw_n_beta)
        widths = [self.bw_n_beta[n] for n in levels]
        if any(w2 <= w1 for w1, w2 in zip(widths, widths[1:])):
            raise ValueError("bw_n_beta must increase with the level n")
        if (self.q_erb is None) != (self.erb_beta is None):
            raise ValueError("q_erb and erb_beta must be set together")
        if self.q_erb is not None:
            if self.q_erb <= 0.0 or self.erb_beta <= 0.0:
                raise ValueError("q_erb and erb_beta must be > 0")
            if abs(self.q_erb * self.erb_beta - self.beta_peak) > 1e-9 * self.beta_peak:
                raise ValueError("q_erb * erb_beta != beta_peak")

    def as_dict(self) -> dict:
        """Flat snake_case mapping; dB levels become q_3, bw_10_beta, ..."""
        out = {
            "beta_peak": self.beta_peak,
            "n_beta": self.n_beta,
            "phi_accum": self.phi_accum,
            "s_beta": self.s_beta,
        }
        if self.q_erb is not None:
            out["q_erb"] = self.q_erb
            out["erb_beta"] = self.erb_beta
        for n in sorted(self.q_n):
            out[f"q_{level_label(n)}"] = self.q_n[n]
            out[f"bw_{level_label(n)}_beta"] = self.bw_n_beta[n]
        out["method"] = self.method
        if self.grid_meta is not None:
            for key, value in self.grid_meta.items():
                out[f"grid_{key}"] = value
        return out


def numeric_values(report: CharacteristicReport) -> dict:
    """The numeric characteristic entries of a report as a flat map."""
    return {
        key: value
        for key, value in report.as_dict().items()
        if isinstance(value, float) and not key.startswith("grid_")
    }


SQRT_PI = math.sqrt(math.pi)


def gamma_ratio(b_u: float) -> float:
    """Gamma(b_u) / Gamma(b_u - 1/2) via log-gamma, so large exponents stay
    finite."""
    return math.exp(math.lgamma(b_u) - math.lgamma(b_u - 0.5))


def level_factor(n_db: float, b_u: float) -> float:
    """Half the n-dB bandwidth in units of a_p: sqrt(10**(n/(10 b_u)) - 1).

    Raises OutOfRange when that is not a positive finite float: the power
    overflows for b_u below about n / 3083 and rounds to 1 for b_u above
    about 2e15 n.
    """
    try:
        factor = math.sqrt(10.0 ** (n_db / (10.0 * b_u)) - 1.0)
    except OverflowError:
        factor = math.inf
    if not 0.0 < factor < math.inf:
        raise OutOfRange(
            f"the {n_db:g} dB bandwidth factor of b_u = {b_u:g} is not a positive finite float"
        )
    return factor


def _erb(a_p: float, b_u: float) -> float:
    return SQRT_PI * a_p / gamma_ratio(b_u)


def _s_beta(a_p: float, b_p: float, b_u: float, n_db) -> float:
    """(20/ln 10) b_u / a_p**2.  Below a_p ~ 1e-162, a_p**2 underflows to 0;
    dividing by a_p twice there still gives the (overflowing) value."""
    a2 = a_p * a_p
    return DB_PER_LOG * b_u / a2 if a2 > 0.0 else DB_PER_LOG * b_u / a_p / a_p


# The design characteristics as functions (a_p, b_p, b_u, n_db) -> value;
# n_db is the level of q_n and unused by the other keys.
CHARACTERISTIC = {
    "n_cycles": lambda a_p, b_p, b_u, n_db: b_u / (TWO_PI * a_p),
    "phi_accum": lambda a_p, b_p, b_u, n_db: 0.5 * b_u,
    "q_erb": lambda a_p, b_p, b_u, n_db: b_p / _erb(a_p, b_u),
    "q_n": lambda a_p, b_p, b_u, n_db: b_p / (2.0 * a_p * level_factor(n_db, b_u)),
    "s_beta": _s_beta,
}

# Their inverses for a_p, as functions (b_p, b_u, value, n_db) -> a_p.
# phi_accum = b_u / 2 does not involve a_p, so it has none.
A_P_FROM = {
    "n_cycles": lambda b_p, b_u, value, n_db: b_u / (TWO_PI * value),
    "q_erb": lambda b_p, b_u, value, n_db: b_p * gamma_ratio(b_u) / (SQRT_PI * value),
    "q_n": lambda b_p, b_u, value, n_db: b_p / (2.0 * value * level_factor(n_db, b_u)),
    "s_beta": lambda b_p, b_u, value, n_db: math.sqrt(DB_PER_LOG * b_u / value),
}


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

    The ERB pair is omitted (None) when b_u <= 1/2.  Raises OutOfRange when
    a characteristic of the constants is not a finite float.
    """
    a, b, bu = theta.a_p, theta.b_p, theta.b_u
    q_n, bw = {}, {}
    for n in n_levels:
        n = float(n)
        if n <= 0.0:
            raise ValueError(f"dB levels must be > 0, got {n:g}")
        bw[n] = 2.0 * a * level_factor(n, bu)
        q_n[n] = CHARACTERISTIC["q_n"](a, b, bu, n)
    try:
        erb = erb_closed_form(theta)
        q_erb = CHARACTERISTIC["q_erb"](a, b, bu, None)
    except ExponentTooSmallForErb:
        erb = q_erb = None
    n_beta, phi_accum, s_beta = (
        CHARACTERISTIC[key](a, b, bu, None) for key in ("n_cycles", "phi_accum", "s_beta")
    )
    values = [n_beta, s_beta, *q_n.values(), *bw.values()]
    values += [value for value in (erb, q_erb) if value is not None]
    if not all(math.isfinite(value) for value in values):
        raise OutOfRange(f"characteristics of {theta} are not all finite")
    return CharacteristicReport(
        beta_peak=b,
        n_beta=n_beta,
        phi_accum=phi_accum,
        s_beta=s_beta,
        q_n=q_n,
        bw_n_beta=bw,
        q_erb=q_erb,
        erb_beta=erb,
        method="closed_form",
    )


def _eval_response(response: Callable, betas: np.ndarray) -> np.ndarray:
    """Evaluate a frequency response on the grid, vectorized when possible."""
    try:
        values = np.asarray(response(betas), dtype=complex)
        if values.shape == betas.shape:
            return values
    except (TypeError, ValueError):
        pass
    return np.array([complex(response(b)) for b in betas])


def _golden_max(fn: Callable, lo: float, hi: float, tol: float) -> float:
    """Golden-section search for the maximizer of a unimodal function.  It
    also stops once the interior points no longer fall strictly between the
    ends, which happens before tol where the floats are coarser than tol."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fn(c), fn(d)
    while (b - a) > tol and a < c < d < b:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = fn(d)
    return 0.5 * (a + b)


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


def _simpson(y: np.ndarray, x: np.ndarray):
    """Composite Simpson integral of samples y at increasing points x.

    A port of scipy.integrate.simpson (1.17) for 1-D samples that keeps its
    operations and their order, so the result is bit-identical: the
    non-uniform three-point rule over consecutive interval pairs and, for an
    even sample count, Cartwright's correction for the last interval (the
    trapezoid rule when there are only two samples).
    """
    n = y.size
    if n == 2:
        return 0.5 * (x[-1] - x[-2]) * (y[-1] + y[-2])
    stop = n - 2 if n % 2 else n - 3
    h = np.diff(x)
    h0, h1 = h[0:stop:2], h[1:stop + 1:2]
    hsum = h0 + h1
    hprod = h0 * h1
    h0divh1 = _divide_or_zero(h0, h1)
    result = np.sum(
        hsum / 6.0 * (
            y[0:stop:2] * (2.0 - _divide_or_zero(1.0, h0divh1))
            + y[1:stop + 1:2] * (hsum * _divide_or_zero(hsum, hprod))
            + y[2:stop + 2:2] * (2.0 - h0divh1)
        )
    )
    if n % 2 == 0:
        # 0-d arrays, as in scipy, so that h1 ** 3 takes numpy's power loop
        h0, h1 = h[-2:-1].reshape(()), h[-1:].reshape(())
        alpha = _divide_or_zero(2 * h1 ** 2 + 3 * h0 * h1, 6 * (h1 + h0))
        beta = _divide_or_zero(h1 ** 2 + 3.0 * h0 * h1, 6 * h0)
        eta = _divide_or_zero(h1 ** 3, 6 * h0 * (h0 + h1))
        result += alpha * y[-1] + beta * y[-2] - eta * y[-3]
    return result


def extract_numeric(
    response: Callable,
    grid: FrequencyGrid,
    n_levels=DEFAULT_LEVELS_DB,
) -> CharacteristicReport:
    """Recompute the characteristic set from a sampled frequency response.

    Parameters
    ----------
    response : callable
        beta -> complex response; must accept scalars (arrays are used when
        supported) and be finite on the grid.
    grid : FrequencyGrid
        Sample locations; the magnitude maximum must be interior.
    n_levels : iterable of float
        dB levels for bandwidths and quality factors.

    Procedure: peak by golden-section refinement around the best sample
    (ties break to the smallest beta); BW_n by Brent's method between
    bracketing samples on each side; ERB by composite Simpson quadrature of
    the normalized power response over the full grid span; N as the maximum of
    -(1/2 pi) d(phase)/d(beta) using centered differences of the unwrapped
    phase; phi_accum as the unwrapped phase span over the grid divided by
    2 pi; S by a second-order central difference of the dB level at the
    peak with step 4 * dense_step.

    Raises OutOfRange when the response is not finite on the grid or the
    quadrature ERB is not positive.
    """
    betas = grid.samples
    values = _eval_response(response, betas)
    if not np.all(np.isfinite(values)):
        raise OutOfRange("response must be finite on the whole grid")
    mag = np.abs(values)

    i_pk = int(np.argmax(mag))
    if i_pk == 0 or i_pk == betas.size - 1:
        raise NoInteriorPeak(
            f"magnitude maximum at the grid boundary (beta = {betas[i_pk]:g})"
        )

    def mag_at(beta):
        return abs(complex(response(beta)))

    def level_at(beta):
        return DB_PER_LOG * math.log(mag_at(beta))

    beta_pk = _golden_max(mag_at, betas[i_pk - 1], betas[i_pk + 1], tol=1e-10)
    peak_mag = mag_at(beta_pk)
    peak_level = DB_PER_LOG * math.log(peak_mag)

    levels = DB_PER_LOG * np.log(mag)

    bw, q_n = {}, {}
    for n in sorted(float(n) for n in n_levels):
        target = peak_level - n
        upper = None
        for j in range(i_pk + 1, betas.size):
            if levels[j] < target:
                upper = _level_crossing(level_at, target, betas[j - 1], betas[j])
                break
        if upper is None:
            raise LevelNotReached(n, "high-frequency")
        lower = None
        for j in range(i_pk - 1, -1, -1):
            if levels[j] < target:
                lower = _level_crossing(level_at, target, betas[j], betas[j + 1])
                break
        if lower is None:
            raise LevelNotReached(n, "low-frequency")
        width = upper - lower
        bw[n] = width
        q_n[n] = beta_pk / width

    power = (mag / peak_mag) ** 2
    erb = float(_simpson(power, betas))
    if not erb > 0.0:
        raise OutOfRange(f"Simpson quadrature gives a non-positive ERB of {erb:g}")
    q_erb = beta_pk / erb

    phase = np.unwrap(np.angle(values))
    slope = np.gradient(phase, betas)
    n_beta = float(np.max(-slope)) / TWO_PI
    phi_accum = float(phase.max() - phase.min()) / TWO_PI

    h = 4.0 * grid.dense_step
    s_beta = -(level_at(beta_pk + h) - 2.0 * peak_level + level_at(beta_pk - h)) / (
        h * h
    )

    return CharacteristicReport(
        beta_peak=beta_pk,
        n_beta=n_beta,
        phi_accum=phi_accum,
        s_beta=s_beta,
        q_n=q_n,
        bw_n_beta=bw,
        q_erb=q_erb,
        erb_beta=erb,
        method="numeric",
        grid_meta=grid.meta(),
    )


def relative_errors(
    desired: CharacteristicReport, achieved: CharacteristicReport
) -> dict:
    """Signed relative error per characteristic: (desired - achieved) / desired.

    Raises MissingCharacteristic if the achieved report lacks a field the
    desired report carries.
    """
    desired_map = numeric_values(desired)
    achieved_map = numeric_values(achieved)
    out = {}
    for key, want in desired_map.items():
        if key not in achieved_map:
            raise MissingCharacteristic(key)
        out[key] = (want - achieved_map[key]) / want
    return out

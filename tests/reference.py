"""Test-side reference values of the characteristics of the realized filters.

The audit's oracle, ``extract_numeric``, reads the characteristics from
response samples; ``closed_form`` is exact only for the one-sided sharp form
``p_sharp``.  The functions here give the true values for the full filter
``p`` and the single-zero variant ``v`` from their analytic log responses,
so that tests can state how far the oracle is from the truth on every
target.  They use scipy, which stays a test-only dependency.

Group delay, -d(Im L)/d(beta), of the three targets (see core.log_response):

    p_sharp:  b_u a / (a**2 + (beta - b)**2)
    p:        b_u [a / (a**2 + (beta - b)**2) + a / (a**2 + (beta + b)**2)]
    v:        the delay of p less a / (a**2 + beta**2), the zero's term

N is the maximum of the delay over beta, divided by 2 pi.  The peak is the
maximizer of the level, (20/ln 10) Re L, and S minus the level's second
derivative there, from the same terms: with u the distance from a pole or
the zero, each term (1/2) log(a**2 + u**2) of Re L has the slope
u / (a**2 + u**2) and the second derivative (a**2 - u**2) / (a**2 + u**2)**2.
Each term atan(u / a) of Im L gives the phase.

The ERB integrates the power relative to the peak, exp(2 (Re L - Re L_peak)),
by adaptive quadrature; the n-dB widths are the two roots of the level
n dB below the peak, by Brent's method at a relative tolerance.
"""

from __future__ import annotations

import math
import sys

from scipy.integrate import quad
from scipy.optimize import brentq

from gefdesign import FilterConstants
from gefdesign.scalar import DB_PER_LOG


def _log_terms(theta: FilterConstants, target: str, beta: float, term) -> float:
    """Sum of term(u) over the terms of L of one target at beta, with their
    weights: -b_u at u = beta - b_p (and at beta + b_p on p and v), and +1 at
    u = beta on v."""
    b, b_u = theta.b_p, theta.b_u
    total = -b_u * term(beta - b)
    if target != "p_sharp":
        total -= b_u * term(beta + b)
    if target == "v":
        total += term(beta)
    return total


def group_delay(theta: FilterConstants, target: str, beta: float) -> tuple[float, float]:
    """The group delay -d(Im L)/d(beta) of one target at beta, and its slope:
    each term of Im L, atan(u / a), has the slope a / (a**2 + u**2)."""
    a = theta.a_p
    delay = -_log_terms(theta, target, beta, lambda u: a / (a * a + u * u))
    slope = -_log_terms(theta, target, beta, lambda u: -2.0 * a * u / (a * a + u * u) ** 2)
    return delay, slope


def n_beta(theta: FilterConstants, target: str) -> float:
    """N of one target: the maximum of its group delay over beta, over 2 pi.

    The maximum is the root of the delay's slope, by Brent's method on
    [b_p - a_p, b_p + a_p], where the pole's term dominates for a sharp filter
    (a_p well below b_p); on p_sharp it is b_p itself."""
    a, b = theta.a_p, theta.b_p
    if target == "p_sharp":
        peak = b
    else:
        peak = brentq(lambda beta: group_delay(theta, target, beta)[1], b - a, b + a,
                      xtol=1e-15 * b, rtol=4.0 * sys.float_info.epsilon)
    return group_delay(theta, target, peak)[0] / (2.0 * math.pi)


def beta_peak(theta: FilterConstants, target: str) -> float:
    """The maximizer of the level of one target: b_p on p_sharp, the exact
    sqrt(b_p**2 - a_p**2) on p, and on v the root of the level's slope by
    Brent's method on [b_p - a_p, b_p + a_p]."""
    a, b = theta.a_p, theta.b_p
    if target == "p_sharp":
        return b
    if target == "p":
        return math.sqrt((b - a) * (b + a))

    def slope(beta):
        return _log_terms(theta, target, beta, lambda u: u / (a * a + u * u))

    return brentq(slope, b - a, b + a, xtol=1e-15 * b, rtol=4.0 * sys.float_info.epsilon)


def s_beta(theta: FilterConstants, target: str) -> float:
    """S of one target: minus the second derivative of its level in dB at
    its peak."""
    a2 = theta.a_p * theta.a_p

    def curvature(u):
        return (a2 - u * u) / (a2 + u * u) ** 2

    return -DB_PER_LOG * _log_terms(theta, target, beta_peak(theta, target), curvature)


def phase(theta: FilterConstants, target: str, beta: float) -> float:
    """Im L of one target at beta, the continuous phase."""
    a = theta.a_p
    return _log_terms(theta, target, beta, lambda u: math.atan(u / a))


def v_phase_maximum(theta: FilterConstants) -> float:
    """The beta where the phase of v peaks: the root of its group delay on
    [0, b_p], where the zero's negative term gives way to the poles'."""
    return brentq(lambda beta: group_delay(theta, "v", beta)[0], 0.0, theta.b_p,
                  xtol=1e-15 * theta.b_p, rtol=4.0 * sys.float_info.epsilon)


def _relative_log(theta: FilterConstants, target: str, peak: float):
    """beta -> Re L(beta) - Re L(peak), each term taken as
    (1/2) log1p(d (u + u_pk) / (a**2 + u_pk**2)), d = beta - peak, so that
    the difference keeps its relative accuracy near the peak."""
    a2 = theta.a_p * theta.a_p

    def rel(beta):
        d = beta - peak
        return _log_terms(theta, target, beta,
                          lambda u: 0.5 * math.log1p(d * (2.0 * u - d) / (a2 + (u - d) ** 2)))

    return rel


def erb_beta(theta: FilterConstants, target: str, lo: float = 0.0, hi: float = math.inf) -> float:
    """The ERB of one target over [lo, hi]: the integral of the power relative
    to the peak, by scipy's quad at epsrel 1e-13 on pieces split at the peak
    and at +-1, +-4 and +-20 a_p from it.  Past 20 a_p the power falls as a
    power of the distance from the peak, so those two pieces are integrated
    in the log of that distance, where the integrand decays exponentially;
    an infinite hi is left to quad's own map of the half line."""
    a, peak = theta.a_p, beta_peak(theta, target)
    rel = _relative_log(theta, target, peak)

    def power(beta):
        return math.exp(2.0 * rel(beta))

    def piece(f, x0, x1):
        return quad(f, x0, x1, epsabs=0.0, epsrel=1e-13, limit=200)[0] if x1 > x0 else 0.0

    inner = [min(max(peak + k * a, lo), hi) for k in (-20, -4, -1, 0, 1, 4, 20)]
    total = sum(piece(power, x0, x1) for x0, x1 in zip(inner, inner[1:]))
    # beta = peak -+ e**t, d beta = e**t dt
    far = math.log(20.0 * a)
    if lo < inner[0]:
        total += piece(lambda t: power(peak - math.exp(t)) * math.exp(t), far,
                       math.log(peak - lo))
    if hi == math.inf:
        total += piece(power, inner[-1], hi)
    elif hi > inner[-1]:
        total += piece(lambda t: power(peak + math.exp(t)) * math.exp(t), far,
                       math.log(hi - peak))
    return total


def bw_beta(theta: FilterConstants, target: str, n_db: float) -> float:
    """The n-dB width of one target: the distance between the roots of the
    level n dB below the peak on either side of it, by Brent's method at a
    relative xtol; the upper root is bracketed by doubling steps of a_p, the
    lower by [0, peak], so it raises ValueError where the level at beta = 0
    is less than n dB below the peak (wide filters of p at small b_u)."""
    a, peak = theta.a_p, beta_peak(theta, target)
    rel = _relative_log(theta, target, peak)

    def gap(beta):
        return DB_PER_LOG * rel(beta) + n_db

    step = a
    while gap(peak + step) > 0.0:
        step *= 2.0
    hi = peak + step
    tol = {"xtol": 1e-15 * hi, "rtol": 4.0 * sys.float_info.epsilon}
    return brentq(gap, peak, hi, **tol) - brentq(gap, 0.0, peak, **tol)

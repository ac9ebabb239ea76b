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
n dB below the peak, by Brent's method at a relative tolerance.  Both work
on the offset from the peak, which is never added to it, so that they stay
exact where the floats near the peak are coarser than a_p.
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
    """d -> Re L(peak + d) - Re L(peak), for an offset d from the peak, each
    term taken as (1/2) log1p(d (2 u_pk + d) / (a**2 + u_pk**2)), with
    u_pk = peak - c the peak's distance from the term's pole or zero c.  The
    offset is never added to the peak, so it keeps its relative accuracy
    where the floats near the peak are coarser than a_p."""
    a2, b, b_u = theta.a_p * theta.a_p, theta.b_p, theta.b_u

    def rel(d):
        def term(c):
            u_pk = peak - c
            x = d * (2.0 * u_pk + d) / (a2 + u_pk * u_pk)
            # -1, log1p's pole, at v's zero, d = -peak, where rounding may pass it
            return 0.5 * math.log1p(x) if x > -1.0 else -math.inf

        total = -b_u * term(b)
        if target != "p_sharp":
            total -= b_u * term(-b)
        if target == "v":
            total += term(0.0)
        return total

    return rel


def erb_beta(theta: FilterConstants, target: str, lo: float = 0.0, hi: float = math.inf) -> float:
    """The ERB of one target over [lo, hi]: the integral of the power relative
    to the peak over the offset d from the peak, by scipy's quad at epsrel
    1e-13 on pieces split at d = 0, +-1, +-4 and +-20 a_p.  Past 20 a_p the
    power falls as a power of |d|, so those two pieces are integrated in
    log |d|, where the integrand decays exponentially, and held to 1e-15 of
    the pieces within 20 a_p (their rounding can miss a relative tolerance
    of their own where they are that small).  Past d = 1e150 the power is
    the pure power C d**-(1 + rate) to far below rounding, rate = -1 - 2 w
    with w the sum of the terms' weights (2 b_u - 1 on p_sharp, 4 b_u - 1 on
    p, 4 b_u - 3 on v), so an infinite hi adds its integral there in closed
    form, d power(d) / rate, and gives inf where rate <= 0 and the integral
    diverges."""
    a, peak = theta.a_p, beta_peak(theta, target)
    rel = _relative_log(theta, target, peak)
    below, above = lo - peak, hi - peak

    def power(d):
        return math.exp(2.0 * rel(d))

    def piece(f, x0, x1, epsabs=0.0):
        return quad(f, x0, x1, epsabs=epsabs, epsrel=1e-13, limit=200)[0] if x1 > x0 else 0.0

    inner = [min(max(k * a, below), above) for k in (-20, -4, -1, 0, 1, 4, 20)]
    total = sum(piece(power, x0, x1) for x0, x1 in zip(inner, inner[1:]))
    floor = 1e-15 * total
    # d = -+ e**t, dd = e**t dt
    far = math.log(20.0 * a)
    if below < inner[0]:
        total += piece(lambda t: power(-math.exp(t)) * math.exp(t), far, math.log(-below), floor)
    if above > inner[-1]:
        top = min(above, 1e150)
        total += piece(lambda t: power(math.exp(t)) * math.exp(t), far, math.log(top), floor)
        if above == math.inf:
            rate = -1.0 - 2.0 * _log_terms(theta, target, 0.0, lambda u: 1.0)
            total = total + top * power(top) / rate if rate > 0.0 else math.inf
    return total


def bw_beta(theta: FilterConstants, target: str, n_db: float) -> float:
    """The n-dB width of one target: the distance between the roots of the
    level n dB below the peak on either side of it, by Brent's method on the
    offset from the peak at a relative xtol; the upper root is bracketed by
    doubling steps of a_p, the lower by [-peak, 0], so it raises ValueError
    where the level at beta = 0 is less than n dB below the peak (wide
    filters of p at small b_u)."""
    a, peak = theta.a_p, beta_peak(theta, target)
    rel = _relative_log(theta, target, peak)

    def gap(d):
        return DB_PER_LOG * rel(d) + n_db

    step = a
    while gap(step) > 0.0:
        step *= 2.0
    upper = brentq(gap, 0.0, step, xtol=1e-15 * step, rtol=4.0 * sys.float_info.epsilon)
    lower = brentq(gap, -peak, 0.0, xtol=1e-15 * a, rtol=4.0 * sys.float_info.epsilon)
    return upper - lower

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
"""

from __future__ import annotations

import math
import sys

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

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

N is the maximum of the delay over beta, divided by 2 pi.
"""

from __future__ import annotations

import math
import sys

from scipy.optimize import brentq

from gefdesign import FilterConstants


def _lorentzian(a: float, u: float) -> tuple[float, float]:
    """a / (a**2 + u**2), d(atan(u / a))/du, and its derivative in u."""
    den = a * a + u * u
    return a / den, -2.0 * a * u / (den * den)


def group_delay(theta: FilterConstants, target: str, beta: float) -> tuple[float, float]:
    """The group delay -d(Im L)/d(beta) of one target at beta, and its slope."""
    a, b, b_u = theta.a_p, theta.b_p, theta.b_u
    pole, pole_slope = _lorentzian(a, beta - b)
    if target == "p_sharp":
        return b_u * pole, b_u * pole_slope
    mirror, mirror_slope = _lorentzian(a, beta + b)
    delay, slope = b_u * (pole + mirror), b_u * (pole_slope + mirror_slope)
    if target == "v":
        zero, zero_slope = _lorentzian(a, beta)
        delay, slope = delay - zero, slope - zero_slope
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

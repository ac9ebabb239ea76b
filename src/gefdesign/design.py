"""Inverse maps: filter constants from a named trio of desired characteristics.

Every row fixes b_p = beta_peak and derives (a_p, b_u) from its two other
characteristics.  A row says only where b_u comes from and which of its
keys fixes a_p (the delay key when it has one, otherwise its other key):

    row   keys               b_u from                          a_p from
    II.1  n_cycles, phi      2 phi_accum                       n_cycles
    II.2  n_cycles, q_erb    solve qerb_over_delay (or approx) n_cycles
    II.3  q_erb, phi         2 phi_accum                       q_erb
    II.4  q_n, phi           2 phi_accum                       q_n
    II.5  n_cycles, s_beta   (80 pi^2 / ln 10) N^2 / S         n_cycles
    II.6  s_beta, phi        2 phi_accum                       s_beta
    II.7  n_cycles, q_n      solve qn_over_delay               n_cycles

a_p then comes from the inverse of its key in ``scalar.A_P_FROM``, and both
keys are checked through ``scalar.CHARACTERISTIC``.  The implicit rows solve
a rise-then-fall function of b_u on its falling branch by Brent's method,
from the branch maximum, which has a closed form.  Designing needs only
``math``: this module imports no numpy.
All positive specifications land the pole pair strictly in the left
half-plane, so the designs are inherently stable.
"""

from __future__ import annotations

import enum
import math
import warnings
from typing import Mapping

from .scalar import (
    A_P_FROM,
    CHARACTERISTIC,
    QERB_FIT_A,
    QERB_FIT_B,
    SQRT_PI,
    FilterConstants,
    _Record,
    _brentq,
    _finite_positive,
    gamma_ratio,
    level_factor,
    sharpness_check,
)
from .errors import BracketFailure, ErbRequiresBu, InfeasibleSpec, OutOfRange

LN10 = math.log(10.0)

# The implicit b_u solves: exponent bracket, and Brent's relative tolerance
# (above its floor of 4 eps) and iteration cap.
B_U_BRACKET = (1.0, 64.0)
SOLVE_RTOL = 1e-12
SOLVE_MAXITER = 200

# Each implicit residual peaks where its log derivative in b vanishes (roots
# checked with mpmath at 30 digits).  Q_erb/(beta_p N) = 2 sqrt(pi) Gamma(b) /
# (b Gamma(b - 1/2)) has d/db log = psi(b) - psi(b - 1/2) - 1/b, zero at
# b* = 1.35128417348123135..., where the ratio is 2.10343537993115...
QERB_ARGMAX = 1.3512841734812313
# Q_n/(beta_p N) = (pi/b) (e**t - 1)**(-1/2) with t = n ln 10 / (10 b) has
# d/db log = (t e**t / (2 (e**t - 1)) - 1) / b, zero where 2 (e**t - 1) = t e**t:
# t* = 2 + W0(-2 e**-2) = 1.59362426004004009... (Corless et al. 1996), so
# b* = n ln 10 / (10 t*), below b_u = 1 for n under about 6.92 dB.
QN_ARGMAX_T = 1.59362426004004


def _bu_from_phase(spec: "CharacteristicSpec") -> float:
    return 2.0 * spec.values["phi_accum"]


def _bu_from_convexity_delay(spec: "CharacteristicSpec") -> float:
    v = spec.values
    try:
        return (80.0 * math.pi**2 / LN10) * v["n_cycles"] ** 2 / v["s_beta"]
    except OverflowError:
        raise OutOfRange(f"N = {v['n_cycles']:g} is too large: N**2 overflows") from None


def _over_delay(spec: "CharacteristicSpec", key: str) -> float:
    """The spec's value for key divided by beta_peak * N; OutOfRange when
    that product underflows to 0."""
    scale = spec.beta_peak * spec.values["n_cycles"]
    if scale == 0.0:
        raise OutOfRange(
            f"beta_peak * N = {spec.beta_peak:g} * {spec.values['n_cycles']:g} underflows to 0"
        )
    return spec.values[key] / scale


def _bu_from_qerb_delay(spec: "CharacteristicSpec") -> float:
    ratio = _over_delay(spec, "q_erb")
    if spec.mode == "approx":
        return qerb_delay_approx_exponent(ratio)
    return _solve_decreasing(qerb_over_delay, ratio, QERB_ARGMAX)


def _qn_argmax(n_level: float) -> float:
    """The b_u at which qn_over_delay(b_u, n_level) peaks."""
    return n_level * LN10 / (10.0 * QN_ARGMAX_T)


def _bu_from_qn_delay(spec: "CharacteristicSpec") -> float:
    ratio = _over_delay(spec, "q_n")
    return _solve_decreasing(
        lambda x: qn_over_delay(x, spec.n_level), ratio, _qn_argmax(spec.n_level)
    )


class DesignRow(enum.Enum):
    """Supported characteristic trios; values are the wire codes.

    Each row also carries its two keys, the one whose inverse fixes a_p
    first, and the function giving b_u from a spec.
    """

    PEAK_DELAY_PHASE = ("II.1", ("n_cycles", "phi_accum"), _bu_from_phase)
    PEAK_DELAY_QERB = ("II.2", ("n_cycles", "q_erb"), _bu_from_qerb_delay)
    PEAK_QERB_PHASE = ("II.3", ("q_erb", "phi_accum"), _bu_from_phase)
    PEAK_QN_PHASE = ("II.4", ("q_n", "phi_accum"), _bu_from_phase)
    PEAK_CONVEXITY_DELAY = ("II.5", ("n_cycles", "s_beta"), _bu_from_convexity_delay)
    PEAK_CONVEXITY_PHASE = ("II.6", ("s_beta", "phi_accum"), _bu_from_phase)
    PEAK_QN_DELAY = ("II.7", ("n_cycles", "q_n"), _bu_from_qn_delay)

    def __new__(cls, code, keys, exponent):
        row = object.__new__(cls)
        row._value_ = code
        row.keys = keys
        row.exponent = exponent
        return row

    @classmethod
    def for_keys(cls, keys) -> "DesignRow | None":
        """The row whose two characteristic keys are exactly these, if any."""
        keys = set(keys)
        return next((row for row in cls if set(row.keys) == keys), None)

    @property
    def has_approx(self) -> bool:
        """Only the delay + Q_erb trio has a printed approximate inverse."""
        return self is DesignRow.PEAK_DELAY_QERB


class SharpnessWarning(UserWarning):
    """Designed constants violate the sharp-approximation condition."""


class CharacteristicSpec(_Record):
    """A design request: which trio, and the desired values.

    values holds exactly the two non-peak characteristics of the chosen
    row, keyed by n_cycles / phi_accum / q_erb / q_n / s_beta.  n_level is
    the dB level for Q_n rows.  mode selects the exact implicit solve or
    the printed power-law approximation (delay+Q_erb row only).
    """

    _fields = ("row", "beta_peak", "values", "n_level", "mode")

    def __init__(self, row: DesignRow, beta_peak: float, values: Mapping[str, float],
                 n_level: float | None = None, mode: str = "exact"):
        values = dict(values)
        beta_peak = _finite_positive("beta_peak", beta_peak, InfeasibleSpec)
        required = row.keys
        if set(values) != set(required):
            raise InfeasibleSpec(
                f"row {row.value} needs exactly {sorted(required)}, "
                f"got {sorted(values)}"
            )
        values = {key: _finite_positive(key, value, InfeasibleSpec)
                  for key, value in values.items()}
        if "q_n" in row.keys:
            n_level = _finite_positive("n_level", n_level, InfeasibleSpec)
        elif n_level is not None:
            raise InfeasibleSpec(f"row {row.value} takes no n_level")
        if mode not in ("exact", "approx"):
            raise InfeasibleSpec(f"mode must be 'exact' or 'approx', got {mode!r}")
        if mode == "approx" and not row.has_approx:
            raise InfeasibleSpec(
                f"row {row.value} has no printed approximation; use mode='exact'"
            )
        self.__dict__.update(row=row, beta_peak=beta_peak, values=values, n_level=n_level,
                             mode=mode)

    def as_dict(self) -> dict:
        out = {"row": self.row.value, "beta_peak": self.beta_peak}
        out.update(self.values)
        if self.n_level is not None:
            out["n_level"] = self.n_level
        if self.row.has_approx:
            out["mode"] = self.mode
        return out

    @classmethod
    def from_dict(cls, data: Mapping) -> "CharacteristicSpec":
        try:
            data = dict(data)
            row = DesignRow(str(data.pop("row")))
            beta_peak = float(data.pop("beta_peak"))
            n_level = data.pop("n_level", None)
            mode = str(data.pop("mode", "exact"))
            values = {key: float(value) for key, value in data.items()}
            n_level = None if n_level is None else float(n_level)
        except KeyError as exc:
            raise InfeasibleSpec(f"spec lacks the field {exc}") from None
        except (TypeError, ValueError) as exc:
            raise InfeasibleSpec(f"bad spec: {exc}") from None
        return cls(
            row=row,
            beta_peak=beta_peak,
            values=values,
            n_level=n_level,
            mode=mode,
        )


def qerb_over_delay(b_u: float) -> float:
    """Q_erb / (beta_peak * N) as a function of b_u alone.

    With a_p tied to N, 2 sqrt(pi) Gamma(b_u) / (b_u Gamma(b_u - 1/2)).
    Decreasing for b_u beyond QERB_ARGMAX and ~ 2 sqrt(pi/b_u) asymptotically.
    """
    return 2.0 * SQRT_PI * gamma_ratio(b_u) / b_u


def qn_over_delay(b_u: float, n_level: float) -> float:
    """Q_n / (beta_peak * N) as a function of b_u alone:
    (pi / b_u) * (10**(n/(10 b_u)) - 1)**(-1/2)."""
    return math.pi / (b_u * level_factor(n_level, b_u))


def qerb_delay_approx_exponent(ratio: float) -> float:
    """Printed power-law inverse: b_u ~ e**(b/a) * ratio**(-1/a); inf when
    ratio is so small that the power overflows."""
    try:
        return math.exp(QERB_FIT_B / QERB_FIT_A) * ratio ** (-1.0 / QERB_FIT_A)
    except (OverflowError, ZeroDivisionError):
        return math.inf


def _solve_decreasing(fn, target: float, x_max: float) -> float:
    """Solve fn(b_u) == target on the falling branch of a rise-then-fall
    residual that peaks at x_max: one Brent call from x_max, clipped into
    B_U_BRACKET, to the bracket's upper end, which starts from the two end
    values the checks computed.  Raises BracketFailure when the target is
    above fn(x_max) or below fn at the upper end.
    """
    lo, hi = B_U_BRACKET
    x_max = min(hi, max(lo, x_max))
    f_max, f_hi = fn(x_max), fn(hi)
    if f_max < target:
        raise BracketFailure(f"target {target:g} exceeds the achievable maximum {f_max:g}")
    if f_hi > target:
        raise BracketFailure(f"target {target:g} below fn(b_u_max) = {f_hi:g}")
    return _brentq(lambda x: fn(x) - target, x_max, hi, rtol=SOLVE_RTOL, maxiter=SOLVE_MAXITER,
                   _fa=f_max - target, _fb=f_hi - target)


def design(spec: CharacteristicSpec, integer_snap: bool = False) -> FilterConstants:
    """Construct filter constants realizing the specified trio.

    b_p = beta_peak always.  b_u comes from the row, a_p from the inverse
    of the row's a_p key.  The closed-form rows recover their trio to
    machine precision, the implicit rows (delay + Q_erb exact, delay + Q_n)
    to the solver tolerance; any that misses by over 1e-9 relative raises
    InfeasibleSpec.  mode='approx' applies the printed power-law exponent
    instead of the exact solve.

    integer_snap rounds b_u to the nearest integer (at least 1) afterwards
    and re-derives a_p from the same key, preserving the delay (or, failing
    that, the bandwidth or convexity) value.

    Emits SharpnessWarning when the result violates a_p < 0.2 * b_p.
    """
    row, v, b = spec.row, spec.values, spec.beta_peak
    ap_key = row.keys[0]

    def a_p_for(b_u):
        return A_P_FROM[ap_key](b, b_u, v[ap_key], spec.n_level)

    b_u = row.exponent(spec)
    if "q_erb" in v and b_u <= 0.5:
        raise ErbRequiresBu(f"row {row.value} gives b_u = {b_u:g} <= 1/2, too small for Q_erb")
    a_p = a_p_for(b_u)
    if not (math.isfinite(a_p) and a_p > 0.0 and math.isfinite(b_u) and b_u > 0.0):
        raise InfeasibleSpec(
            f"row {row.value} produced a_p = {a_p!r}, b_u = {b_u!r}"
        )
    if integer_snap:
        b_u = max(1.0, float(round(b_u)))
        a_p = a_p_for(b_u)

    theta = FilterConstants(a_p=a_p, b_p=b, b_u=b_u)

    if not sharpness_check(theta).satisfied:
        warnings.warn(
            f"designed a_p = {a_p:g} is not sharp relative to b_p = {b:g} "
            f"(condition a_p < 0.2 b_p); closed-form characteristics degrade",
            SharpnessWarning,
            stacklevel=2,
        )

    if not integer_snap and spec.mode != "approx":
        for key in row.keys:
            want = v[key]
            got = CHARACTERISTIC[key](a_p, b, b_u, spec.n_level)
            if abs(got - want) > 1e-9 * abs(want):
                raise InfeasibleSpec(
                    f"round-trip check failed for {key}: wanted {want:g}, "
                    f"designed constants give {got:g}"
                )
    return theta


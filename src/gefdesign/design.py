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

a_p then comes from the inverse of its key in ``characteristics.A_P_FROM``,
and both keys are checked through ``characteristics.CHARACTERISTIC``.  The
implicit rows solve a one-dimensional equation by bracketed root finding.
All positive specifications land the pole pair strictly in the left
half-plane, so the designs are inherently stable.
"""

from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .core import FilterConstants, _brentq, sharpness_check
from .characteristics import (
    A_P_FROM,
    CHARACTERISTIC,
    QERB_FIT_A,
    QERB_FIT_B,
    SQRT_PI,
    gamma_ratio,
    level_factor,
)
from .errors import BracketFailure, ErbRequiresBu, InfeasibleSpec, OutOfRange

LN10 = math.log(10.0)

# The implicit b_u solves: exponent bracket, and Brent's relative tolerance
# (above its floor of 4 eps) and iteration cap.
B_U_BRACKET = (1.0, 64.0)
SOLVE_RTOL = 1e-12
SOLVE_MAXITER = 200


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
    seed = qerb_delay_approx_exponent(ratio)
    if spec.mode == "approx":
        return seed
    return _solve_decreasing(qerb_over_delay, ratio, seed=seed)


def _bu_from_qn_delay(spec: "CharacteristicSpec") -> float:
    ratio = _over_delay(spec, "q_n")
    return _solve_decreasing(lambda x: qn_over_delay(x, spec.n_level), ratio)


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


@dataclass(frozen=True)
class CharacteristicSpec:
    """A design request: which trio, and the desired values.

    values holds exactly the two non-peak characteristics of the chosen
    row, keyed by n_cycles / phi_accum / q_erb / q_n / s_beta.  n_level is
    the dB level for Q_n rows.  mode selects the exact implicit solve or
    the printed power-law approximation (delay+Q_erb row only).
    """

    row: DesignRow
    beta_peak: float
    values: Mapping[str, float]
    n_level: float | None = None
    mode: str = "exact"

    def __post_init__(self):
        object.__setattr__(self, "values", dict(self.values))
        if not (math.isfinite(self.beta_peak) and self.beta_peak > 0.0):
            raise InfeasibleSpec(f"beta_peak must be > 0, got {self.beta_peak!r}")
        required = self.row.keys
        if set(self.values) != set(required):
            raise InfeasibleSpec(
                f"row {self.row.value} needs exactly {sorted(required)}, "
                f"got {sorted(self.values)}"
            )
        for key, value in self.values.items():
            if not (math.isfinite(value) and value > 0.0):
                raise InfeasibleSpec(f"{key} must be > 0, got {value!r}")
        if "q_n" in self.row.keys:
            if self.n_level is None or self.n_level <= 0.0:
                raise InfeasibleSpec(
                    f"row {self.row.value} needs a positive n_level in dB"
                )
        elif self.n_level is not None:
            raise InfeasibleSpec(f"row {self.row.value} takes no n_level")
        if self.mode not in ("exact", "approx"):
            raise InfeasibleSpec(f"mode must be 'exact' or 'approx', got {self.mode!r}")
        if self.mode == "approx" and not self.row.has_approx:
            raise InfeasibleSpec(
                f"row {self.row.value} has no printed approximation; use mode='exact'"
            )

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
    Decreasing for b_u beyond ~1.4 and ~ 2 sqrt(pi/b_u) asymptotically.
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


def _solve_decreasing(fn, target: float, seed: float | None = None):
    """Solve fn(b_u) == target on the decreasing branch of a rise-then-fall
    residual, returning the largest root inside the bracket.

    A seed (e.g. the power-law estimate) is tried first as a local bracket;
    otherwise the bracket is scanned geometrically from the residual's
    maximum outward.  Raises BracketFailure when the target is above the
    branch maximum or below fn(b_u_max).
    """
    lo, hi = B_U_BRACKET

    def residual(x):
        return fn(x) - target

    if seed is not None and math.isfinite(seed):
        a = max(lo, 0.5 * seed)
        b = min(hi, 2.0 * seed)
        if a < b:
            fa, fb = residual(a), residual(b)
            if fa == 0.0:
                return a
            if fb == 0.0:
                return b
            if (fa > 0.0) != (fb > 0.0):
                return _brentq(residual, a, b, rtol=SOLVE_RTOL, maxiter=SOLVE_MAXITER)

    grid = np.geomspace(lo, hi, 257)
    vals = np.array([fn(x) for x in grid])
    i_max = int(np.argmax(vals))
    if vals[i_max] < target:
        raise BracketFailure(
            f"target {target:g} exceeds the achievable maximum "
            f"{vals[i_max]:g} on [{lo:g}, {hi:g}]"
        )
    for j in range(i_max, grid.size - 1):
        f_a, f_b = vals[j] - target, vals[j + 1] - target
        if f_a == 0.0:
            return float(grid[j])
        if f_b == 0.0:
            return float(grid[j + 1])
        if (f_a > 0.0) != (f_b > 0.0):
            return _brentq(
                residual, grid[j], grid[j + 1], rtol=SOLVE_RTOL, maxiter=SOLVE_MAXITER
            )
    raise BracketFailure(
        f"target {target:g} below fn(b_u_max) = {vals[-1]:g}; "
        f"no root on [{lo:g}, {hi:g}]"
    )


def design(spec: CharacteristicSpec, integer_snap: bool = False) -> FilterConstants:
    """Construct filter constants realizing the specified trio.

    b_p = beta_peak always.  b_u comes from the row, a_p from the inverse
    of the row's a_p key.  The closed-form rows recover their trio to
    machine precision; the implicit rows (delay + Q_erb exact, delay + Q_n)
    solve a monotone residual by bracketed root finding and reproduce the
    trio to the solver tolerance.  mode='approx' applies the printed
    power-law exponent instead of the exact solve.

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
        tol = 1e-6 if row.exponent in (_bu_from_qerb_delay, _bu_from_qn_delay) else 1e-9
        for key in row.keys:
            want = v[key]
            got = CHARACTERISTIC[key](a_p, b, b_u, spec.n_level)
            if abs(got - want) > tol * abs(want):
                raise InfeasibleSpec(
                    f"round-trip check failed for {key}: wanted {want:g}, "
                    f"designed constants give {got:g}"
                )
    return theta


"""Scalar maps of the generalized-exponent filter, on the standard library.

The design methods are closed-form maps between the filter constants
(a_p, b_p, b_u) and a trio of characteristics, plus at most one scalar
root solve.  This module holds that scalar layer: the constants, their
sharpness check and their exact peak frequency (``peak_beta``), each
characteristic as a function of the constants (``CHARACTERISTIC``), each
inverse for a_p (``A_P_FROM``), the one bracketed root solver, and the
golden-section maximizer of the extractor's peak search.  It imports nothing
beyond the standard library, so designing a filter does not load numpy;
the other modules import these names from here.
"""

from __future__ import annotations

import math
import sys

from .errors import InfeasibleSpec, NonPositiveConstant, OutOfRange

# dB per unit natural log of magnitude: level = (20/ln 10) * ln|H|
DB_PER_LOG = 20.0 / math.log(10.0)

# a log magnitude above this is a magnitude past the largest float
_LOG_FLOAT_MAX = math.log(sys.float_info.max)

TWO_PI = 2.0 * math.pi
SQRT_PI = math.sqrt(math.pi)

# empirical power-law fit constants for Q_erb, valid for b_u >= 3/2
QERB_FIT_A = 0.418
QERB_FIT_B = 1.02


class _Record:
    """Base of the package's frozen value classes.

    A subclass names its fields in order in ``_fields`` and sets them in its
    own ``__init__`` through ``self.__dict__``.  Records of one type are
    equal when their field tuples are, hash as that tuple, print as
    ``Name(field=value, ...)`` and refuse setting or deleting an attribute
    with AttributeError.  The standard library's generated frozen classes
    do the same, but their module costs a cold CLI call some 10 ms of
    imports (``inspect``, ``ast``, ``dis``, ``tokenize``).
    """

    _fields = ()

    def _astuple(self) -> tuple:
        values = self.__dict__
        return tuple([values[name] for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._astuple() == other._astuple()

    def __hash__(self):
        return hash(self._astuple())

    def __repr__(self):
        values = self.__dict__
        fields = ", ".join([f"{name}={values[name]!r}" for name in self._fields])
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class FilterConstants(_Record):
    """Pole geometry and exponent of a generalized-exponent filter.

    Attributes
    ----------
    a_p : float
        Magnitude of the pole pair's real part (> 0).
    b_p : float
        Pole imaginary part, i.e. the normalized peak location (> 0).
    b_u : float
        Exponent applied to the second-order base (> 0, real; integer
        values admit a cascaded digital realization).
    gain : float
        Linear gain constant C (> 0), 1 by default.
    """

    _fields = ("a_p", "b_p", "b_u", "gain")

    def __init__(self, a_p: float, b_p: float, b_u: float, gain: float = 1.0):
        fields = self.__dict__
        for name, value in zip(self._fields, (a_p, b_p, b_u, gain)):
            value = float(value)
            if not math.isfinite(value) or value <= 0.0:
                raise NonPositiveConstant(
                    f"{name} must be finite and > 0, got {value!r}"
                )
            fields[name] = value

    @property
    def pole(self) -> complex:
        return complex(-self.a_p, self.b_p)

    @property
    def pole_conjugate(self) -> complex:
        return complex(-self.a_p, -self.b_p)

    @property
    def is_integer_exponent(self) -> bool:
        return abs(self.b_u - round(self.b_u)) <= 1e-12

    def with_gain(self, gain: float) -> "FilterConstants":
        return FilterConstants(self.a_p, self.b_p, self.b_u, gain)

    def as_dict(self) -> dict:
        return {"a_p": self.a_p, "b_p": self.b_p, "b_u": self.b_u, "gain": self.gain}

    @classmethod
    def from_dict(cls, data) -> "FilterConstants":
        """Constants from a mapping of a_p, b_p, b_u and optionally gain; a
        missing, unknown or non-numeric field raises InfeasibleSpec."""
        try:
            fields = {key: float(value) for key, value in dict(data).items()}
        except (TypeError, ValueError) as exc:
            raise InfeasibleSpec(f"bad constants: {exc}") from None
        missing = {"a_p", "b_p", "b_u"} - set(fields)
        unknown = set(fields) - {"a_p", "b_p", "b_u", "gain"}
        if missing or unknown:
            raise InfeasibleSpec(
                f"constants need a_p, b_p, b_u and optionally gain; "
                f"missing {sorted(missing)}, unknown {sorted(unknown)}"
            )
        return cls(**fields)


def peak_beta(theta: FilterConstants) -> float:
    """Normalized frequency of the exact magnitude maximum of the filter.

    |P(beta)|**2 is proportional to D(beta)**(-b_u) with
    D = (a_p**2 + beta**2 + b_p**2)**2 - 4 b_p**2 beta**2, and
    dD/dbeta = 4 beta (a_p**2 + beta**2 - b_p**2), so for every exponent the
    peak is beta* = sqrt(b_p**2 - a_p**2), slightly below b_p (by about
    a_p**2 / (2 b_p)).  The product (b_p - a_p)(b_p + a_p) avoids
    cancellation when a_p is close to b_p; where it overflows or falls
    below the normal floats (b_p past about 1e154 or below about 1e-154),
    b_p sqrt((1 - r)(1 + r)) with r = a_p / b_p is taken instead.
    Degenerate constants with a_p >= b_p, whose magnitude decreases from
    beta = 0 (no bandpass peak), return 0.
    """
    a, b = theta.a_p, theta.b_p
    if b <= a:
        return 0.0
    squared = (b - a) * (b + a)
    if sys.float_info.min <= squared < math.inf:
        return math.sqrt(squared)
    r = a / b
    return b * math.sqrt((1.0 - r) * (1.0 + r))


class SharpnessReport(_Record):
    """Whether the one-sided approximation of the filter is trustworthy.

    alpha_at_peak is a_p / (2*b_p); the approximation drops the conjugate
    pole factor, which is legitimate when that ratio is small.  The
    practical cutoff is a_p < 0.2 * b_p (exclusive).
    """

    _fields = ("a_p", "alpha_at_peak", "satisfied")

    def __init__(self, a_p: float, alpha_at_peak: float, satisfied: bool):
        self.__dict__.update(a_p=a_p, alpha_at_peak=alpha_at_peak, satisfied=satisfied)


def sharpness_check(theta: FilterConstants) -> SharpnessReport:
    """Report whether the one-sided approximation condition holds.

    The threshold is exclusive: satisfied iff a_p < 0.2 * b_p.
    """
    return SharpnessReport(
        a_p=theta.a_p,
        alpha_at_peak=theta.a_p / (2.0 * theta.b_p),
        satisfied=theta.a_p < 0.2 * theta.b_p,
    )


def _brentq(f, xa, xb, xtol=2e-12, rtol=4.0 * sys.float_info.epsilon, maxiter=100,
            _fa=None, _fb=None):
    """Root of f on the bracket [xa, xb] by Brent's method.

    A step-for-step port of scipy.optimize.brentq (its brentq.c), with its
    defaults, so the iterates, and the root, are bit-identical: the same
    inverse quadratic extrapolation, secant and bisection steps, and the same
    stopping test |xblk - xcur| / 2 < (xtol + rtol |xcur|) / 2; where the
    inverse quadratic step divides by a 0 that underflowed (brackets past
    about 1e154), it bisects, as C's inf or nan step does.  Raises
    ValueError when f(xa) and f(xb) have the same sign or f returns NaN, and
    RuntimeError when maxiter iterations do not converge.  Returns a float.
    A caller that already holds f(xa) or f(xb) passes it as _fa or _fb, and
    f is not evaluated there again.
    """
    if maxiter < 0:
        raise ValueError("maxiter must be >= 0")
    xpre, xcur = float(xa), float(xb)
    xblk = fblk = spre = scur = 0.0
    fpre = f(xpre) if _fa is None else _fa
    if fpre != fpre:
        raise _nan_value(xpre)
    fcur = f(xcur) if _fb is None else _fb
    if fcur != fcur:
        raise _nan_value(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(maxiter):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + rtol * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                den = dblk * dpre * (fblk - fpre)
                # a 0 that underflowed gives C an inf or a nan, which fails the test below
                stry = -fcur * (fblk * dblk - fpre * dpre) / den if den else math.inf
            if 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0.0 else -delta
        fcur = f(xcur)
        if fcur != fcur:
            raise _nan_value(xcur)
    raise RuntimeError(f"Failed to converge after {maxiter} iterations.")


def _nan_value(x) -> ValueError:
    return ValueError(f"The function value at x={x} is NaN; solver cannot continue.")


def _golden_max(fn, lo: float, hi: float, tol: float) -> float:
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


# From this exponent on gamma_ratio sums an asymptotic series, where the
# log-gamma difference has lost bits (relative error 2e-13 at b_u = 300, 1e-7
# at 1e8) or overflows (b_u past about 1e305).
GAMMA_SERIES_FROM = 256.0
# Gamma(b) / Gamma(b - 1/2) = sqrt(b) (1 + sum_k c_k / b**k), c_1 ... c_5; the
# first omitted term is below 2e-18 of the sum from GAMMA_SERIES_FROM on
_GAMMA_SERIES = (-3 / 8, -7 / 128, -9 / 1024, 59 / 32768, 483 / 262144)


def gamma_ratio(b_u: float) -> float:
    """Gamma(b_u) / Gamma(b_u - 1/2): via log-gamma below GAMMA_SERIES_FROM,
    and from there by its asymptotic series in 1/b_u, which stays accurate
    to a few ulp and finite up to the largest float."""
    if b_u < GAMMA_SERIES_FROM:
        return math.exp(math.lgamma(b_u) - math.lgamma(b_u - 0.5))
    t = 1.0 / b_u
    c1, c2, c3, c4, c5 = _GAMMA_SERIES
    return math.sqrt(b_u) * (1.0 + t * (c1 + t * (c2 + t * (c3 + t * (c4 + t * c5)))))


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

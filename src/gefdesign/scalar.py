"""Scalar maps of the generalized-exponent filter, on the standard library.

The design methods are closed-form maps between the filter constants
(a_p, b_p, b_u) and a trio of characteristics, plus at most one scalar
root solve.  This module holds that scalar layer: the constants, their
sharpness check and their exact peak frequency (``peak_beta``), each
characteristic as a function of the constants (``CHARACTERISTIC``), each
inverse for a_p (``A_P_FROM``), and the one bracketed root solver.  It
imports nothing beyond the standard library, so designing a filter does not
load numpy; the other modules import these names from here.

The root solver, ``_brentq``, checks f for NaN and runs scipy's compiled
Brent loop (``_brent_loop``); where scipy cannot be imported it raises
ImportError.  The loop's extension module, ``scipy.optimize._zeros``, is
loaded from its file under its own name on the first solve by
``_scipy_extension``, which imports neither numpy nor the ``scipy`` package;
``digital`` loads scipy's compiled cascade loop and its WAV module,
``scipy.io.wavfile``, through it too.

``_finite_positive`` is the one check of a float field that must be finite
and > 0: every record and entry point calls it with the exception class it
refuses with.  A field with another rule reads its value through
``_as_float``, so a non-number meets that rule's refusal, not a TypeError.
The scalar probes of the log response that the audit reads are in
``probe``, which ``design`` does not import.  ``linspace`` (numpy's, bit for
bit) and ``_response_columns`` build the ``response`` table, and
``bank.uniform_places`` its channel places, on floats.
"""

from __future__ import annotations

import functools
import math
import os
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


def _as_float(value) -> float:
    """value as a float, nan where it is not a number, so that a range check
    on it refuses a non-number as it refuses nan."""
    try:
        return float(value)
    except (TypeError, ValueError):
        return math.nan


def _finite_positive(name: str, value, error=ValueError) -> float:
    """value as a float; raises error unless it is one, finite and > 0."""
    number = _as_float(value)
    if not 0.0 < number < math.inf:
        raise error(f"{name} must be finite and > 0, got {value!r}")
    return number


def linspace(lo: float, hi: float, n: int) -> list[float]:
    """numpy.linspace(lo, hi, n) as a list of floats, bit for bit: i * step +
    lo with step = (hi - lo) / (n - 1), or i / (n - 1) * (hi - lo) + lo where
    the step is 0 (it underflows, or lo == hi), and hi last; one point is
    0 * (hi - lo) + lo."""
    div, delta = n - 1, hi - lo
    if div < 1:
        return [0.0 * delta + lo] * n
    step = delta / div
    if step == 0.0:
        points = [i / div * delta + lo for i in range(div)]
    else:
        points = [i * step + lo for i in range(div)]
    return points + [hi]


def _response_columns(log_re: list, log_im: list, what: str) -> tuple:
    """The lists (re, im, level_db, phase_rad) of H = exp(L) from lists of
    Re L and Im L, on math: |H| cos Im L, sin Im L |H|, DB_PER_LOG * Re L
    (-inf only where H is 0) and Im L, as core._response_columns forms them
    on arrays.  Raises OutOfRange naming ``what`` when |H| passes the
    largest float or Re L is nan."""
    if not all(x <= _LOG_FLOAT_MAX for x in log_re):
        raise OutOfRange(f"{what}: |H| passes the largest float or is nan")
    exp, cos, sin = math.exp, math.cos, math.sin
    moduli = [exp(x) for x in log_re]
    return ([m * cos(y) for m, y in zip(moduli, log_im)],
            [sin(y) * m for m, y in zip(moduli, log_im)],
            [x * DB_PER_LOG for x in log_re], list(log_im))


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
            fields[name] = _finite_positive(name, value, NonPositiveConstant)

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


def _scipy_extension(package: str, name: str):
    """scipy's module ``scipy.<package>.<name>``, compiled or Python source.

    The module is loaded from its file under its own name, without importing
    ``scipy.<package>``, nor the ``scipy`` package unless the module itself
    does; a later import of those finds it in sys.modules and reuses it.
    Where its file cannot be found or does not load, it is imported the usual
    way.  Raises ImportError where scipy cannot be found or the module cannot
    be imported.
    """
    full_name = f"scipy.{package}.{name}"
    module = sys.modules.get(full_name)
    if module is not None:
        return module
    import importlib
    import importlib.machinery
    import importlib.util

    scipy_spec = importlib.util.find_spec("scipy")
    if scipy_spec is None:
        raise ModuleNotFoundError("No module named 'scipy'", name="scipy")
    paths = [os.path.join(directory, package, name + suffix)
             for directory in scipy_spec.submodule_search_locations or ()
             for suffix in importlib.machinery.all_suffixes()]
    path = next((p for p in paths if os.path.isfile(p)), None)
    if path is not None:
        spec = importlib.util.spec_from_file_location(full_name, path)
        try:
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
        except ImportError:
            sys.modules.pop(full_name, None)
        else:
            sys.modules[full_name] = module
            return module
    return importlib.import_module(full_name)


@functools.cache
def _brent_loop():
    """scipy's compiled Brent loop, ``_brentq(f, xa, xb, xtol, rtol, maxiter,
    args, full_output, disp)`` of ``scipy.optimize._zeros``, looked up once,
    on the first call; raises ImportError where scipy cannot be imported."""
    return _scipy_extension("optimize", "_zeros")._brentq


def _brentq(f, xa, xb, xtol=2e-12, rtol=4.0 * sys.float_info.epsilon, maxiter=100,
            _fa=None, _fb=None):
    """Root of f on the bracket [xa, xb] by Brent's method, as
    scipy.optimize.brentq finds it, with its defaults.

    Runs scipy's compiled loop (``_brent_loop``) on f with scipy's check that
    f is not NaN, so it evaluates f at the same points and returns the same
    float.  Raises ValueError when f(xa) and f(xb) have the same sign or f
    returns NaN, RuntimeError when maxiter iterations do not converge, and
    ImportError where scipy cannot be imported.  A caller that already holds
    f(xa) or f(xb) passes it as _fa or _fb, and f is not evaluated there
    again.
    """
    if maxiter < 0:
        raise ValueError("maxiter must be >= 0")
    xa, xb = float(xa), float(xb)
    fa = f(xa) if _fa is None else _fa
    if fa != fa:
        raise _nan_value(xa)
    fb = f(xb) if _fb is None else _fb
    if fb != fb:
        raise _nan_value(xb)
    # the loop's first two probes are xa and xb: they pop the values above
    ends = [fb, fa]

    def probe(x):
        if ends:
            return ends.pop()
        fx = f(x)
        if fx != fx:
            raise _nan_value(x)
        return fx

    return _brent_loop()(probe, xa, xb, xtol, rtol, maxiter, (), 0, True)


def _nan_value(x) -> ValueError:
    return ValueError(f"The function value at x={x} is NaN; solver cannot continue.")


# From this exponent on gamma_ratio sums an asymptotic series, where the
# log-gamma difference has lost bits (relative error 4e-14 at b_u = 80 and
# 200, 3e-13 at 256, 1e-7 at 1e8) or overflows (b_u past about 1e305).
GAMMA_SERIES_FROM = 80.0
# Gamma(b) / Gamma(b - 1/2) = sqrt(b) (1 + sum_k c_k / b**k), c_1 ... c_5; the
# first omitted term, -5.5e-4 / b**6, is below 2.2e-15 of the sum from there on
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

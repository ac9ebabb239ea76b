"""Frequency-domain filter characteristics: closed forms and a numeric oracle.

Two independent routes produce the same characteristic set
(beta_peak, N, phi_accum, BW_n, Q_n, ERB, Q_erb, S_beta):

* ``closed_form`` evaluates the analytic expressions in terms of the filter
  constants (exact for the one-sided sharp form).
* ``extract_numeric`` recomputes everything from probes of the response:
  parabolic vertex steps for the peak, and for the maximum of the group
  delay; the curvature of the level at the peak for the convexity; Brent
  level crossings bracketed by one walk out from the peak; Gauss quadrature
  for the ERB; and the phase's limits at the ends of the span, with its
  value at the Brent root of the delay at an interior extremum, for
  phi_accum.  It works on the log response L = log H (levels from Re L,
  phase from Im L) and never consults the closed forms, so it can serve as
  an oracle for them.

From the constants, ``probe.log_probe`` gives the probes over [0, inf): Re L,
Im L, the exact group delay and curvature at one float, the power at the
ERB's nodes as offsets from the peak, and Im L's exact limits at 0 and inf;
no grid is sampled, and this module and ``probe`` run on the standard
library, so the audit loads no numpy.  A complex response callable is probed
the same way inside the span of a grid (``grid``, which imports numpy, and
which ``extract_numeric`` imports for a callable alone), with Richardson's
differences for the delay and the curvature.  The oracle reads levels from
Re L, so a filter whose |H| passes the largest float extracts like any other.
"""

from __future__ import annotations

import math
from operator import mul
from typing import Mapping

from .probe import LogProbe, _slopes
from .scalar import (
    CHARACTERISTIC,
    DB_PER_LOG,
    QERB_FIT_A,
    QERB_FIT_B,
    TWO_PI,
    FilterConstants,
    _Record,
    _brentq,
    _erb,
    _finite_positive,
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
    """Flat-key label for an n-dB characteristic: 3 -> "3", 7.5 -> "7_5".
    Six significant digits where they read back as n_db, all of its digits
    (repr) otherwise, so two levels never share a label."""
    text = f"{n_db:g}"
    if float(text) != n_db:
        text = repr(n_db)
    return text.replace(".", "_").replace("-", "m")


def _levels(n_levels) -> list[float]:
    """The dB levels of the widths, as floats, sorted and without duplicates;
    raises OutOfRange unless each is finite and > 0."""
    return sorted({_finite_positive("dB levels", n, OutOfRange) for n in n_levels})


class CharacteristicReport(_Record):
    """Full characteristic set with provenance.

    Each fact is stored once.  bw_n_beta is keyed by the level in dB, and
    erb_beta is None when the ERB does not exist (b_u <= 1/2 in the
    closed-form route, a power whose tail does not decay in the numeric
    one).  The quality factors derive from them, Q = beta_peak / width
    (q_n, q_erb), and ``method`` from the provenance: "numeric" when it is
    set (a flat map of how the oracle read the response), "closed_form"
    otherwise.  The flat map of the characteristics is built once, here.
    """

    _fields = ("beta_peak", "n_beta", "phi_accum", "s_beta", "bw_n_beta", "erb_beta",
               "provenance")

    def __init__(self, beta_peak: float, n_beta: float, phi_accum: float, s_beta: float,
                 bw_n_beta: Mapping[float, float], erb_beta: float | None = None,
                 provenance: dict | None = None):
        bw_n_beta = dict(bw_n_beta)
        scalars = {name: _finite_positive(name, value)
                   for name, value in zip(self._fields, (beta_peak, n_beta, phi_accum, s_beta))}
        beta_peak = scalars["beta_peak"]
        levels = sorted(bw_n_beta)
        widths = [bw_n_beta[n] for n in levels]
        if not all(w2 > w1 for w1, w2 in zip([0.0, *widths], widths)):
            raise ValueError("bw_n_beta must be > 0 and increase with the level n")
        if not (erb_beta is None or erb_beta > 0.0):
            raise ValueError("erb_beta must be > 0")
        flat = dict(scalars)
        if erb_beta is not None:
            flat["q_erb"] = beta_peak / erb_beta
            flat["erb_beta"] = erb_beta
        for n, width in zip(levels, widths):
            label = level_label(n)
            flat[f"q_{label}"] = beta_peak / width
            flat[f"bw_{label}_beta"] = width
        self.__dict__.update(scalars, bw_n_beta=bw_n_beta, erb_beta=erb_beta,
                             provenance=provenance, _flat=flat)

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
        return "closed_form" if self.provenance is None else "numeric"

    def characteristics(self) -> dict:
        """The characteristics as a flat map: beta_peak, ..., q_3, bw_10_beta.
        It is the report's own map, built once: copy it before changing it."""
        return self._flat

    def as_dict(self) -> dict:
        """characteristics() with the method and the provenance, a new map."""
        out = dict(self._flat)
        out["method"] = self.method
        if self.provenance is not None:
            out.update(self.provenance)
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
    The ERB is omitted (None) when b_u <= 1/2.  Raises OutOfRange when a dB
    level is not finite and > 0 (duplicates count once), and when a
    characteristic is not a finite positive float: first N, phi_accum, S or
    a width (S underflows to 0 for a_p past about 1e155, the ERB near the
    smallest float), then a quality factor.
    """
    a, b, bu = theta.a_p, theta.b_p, theta.b_u
    bw = {n: 2.0 * a * level_factor(n, bu) for n in _levels(n_levels)}
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


# Gauss-Legendre nodes of the 16-point rule on [-1, 1] in (0, 1), whose
# negatives are the other eight, with their weights; and the nodes and weights
# of the 12-point Gauss-Laguerre rule: numpy.polynomial.legendre.leggauss(16)
# and numpy.polynomial.laguerre.laggauss(12), written out so that importing
# this module loads neither numpy nor scipy.
_LEGENDRE_NODES = (
    0.09501250983763744, 0.2816035507792589, 0.45801677765722737, 0.6178762444026438,
    0.755404408355003, 0.8656312023878318, 0.9445750230732326, 0.9894009349916499,
)
_LEGENDRE_WEIGHTS = (
    0.18945061045506864, 0.18260341504492364, 0.16915651939500265, 0.1495959888165767,
    0.12462897125553407, 0.0951585116824926, 0.062253523938647456, 0.027152459411754176,
)
_LAGUERRE_NODES = (
    0.1157221173580205, 0.6117574845151308, 1.512610269776419, 2.833751337743507,
    4.5992276394183484, 6.844525453115177, 9.621316842456867, 13.006054993306348,
    17.116855187462257, 22.151090379397004, 28.487967250984, 37.09912104446692,
)
_LAGUERRE_WEIGHTS = (
    0.26473137105543654, 0.3777592758731421, 0.24408201131987906, 0.09044922221168182,
    0.020102381154634218, 0.0026639735418653335, 0.0002032315926630013,
    8.365055856819926e-06, 1.6684938765409212e-07, 1.342391030515004e-09,
    3.0616016350351023e-12, 8.148077467426094e-16,
)
_GL_X = tuple(-x for x in _LEGENDRE_NODES[::-1]) + _LEGENDRE_NODES
_GL_W = _LEGENDRE_WEIGHTS[::-1] + _LEGENDRE_WEIGHTS
# each Laguerre weight times e**node
_LAG_WE = tuple(w * math.exp(x) for x, w in zip(_LAGUERRE_NODES, _LAGUERRE_WEIGHTS))
# the ERB's panels about the peak, in units of a_p
_WINDOW_EDGES = (-4.0, -1.0, 0.0, 1.0, 4.0)
# the upper tail's Legendre panel reaches this many times the peak's distance
# from the span's lower end, past which the far decay is taken by its rate
_TAIL_REACH = 8.0
# the longest stretch of log distance one Legendre panel takes
_LOG_PANEL_SPAN = 6.0
# below this decay rate the Laguerre rule gives way to Legendre panels that
# carry the tail e**_FAR_SPAN further out (six panels), past which the power
# is a pure power of the distance to rounding
_LAGUERRE_MIN_RATE = 2.0
_FAR_SPAN = 35.5
# a LogProbe's crossing walk starts this fraction of its placed distance inside it
_MARGIN = 1.0 / 64.0
_XTOL = 1e-15  # Brent's tolerance on a crossing, relative to its bracket's far end
_CLIMB_STEPS = 64


def _climb(re_at, beta: float, step: float, lo: float) -> float:
    """The start of the peak's vertex steps: beta moved by steps of ``step``
    while Re L rises, up the frequency axis first, then down it, where a
    step that would reach lo goes halfway there instead.  Raises
    NoInteriorPeak where Re L still rises after _CLIMB_STEPS steps."""
    y = re_at(beta)
    for h in (step, -step):
        moved = False
        for _ in range(_CLIMB_STEPS):
            x = beta + h
            if not x > lo:
                x = 0.5 * (beta + lo)
                h = x - beta
            y_x = re_at(x)
            if not y_x > y:
                break
            beta, y, moved = x, y_x, True
        else:
            raise NoInteriorPeak(f"the magnitude still rises {_CLIMB_STEPS} steps from the "
                                 f"peak's guess, at beta = {beta:g}")
        if moved:
            break
    return beta


def _level_crossing(re_at, target, a, b, gap_a=None, gap_b=None):
    """Brent root of the level (20/ln 10) re_at(beta) == target between a and
    b, whose gaps to the target (level - target), where already probed, are
    gap_a and gap_b, on either side of 0.  Raises OutOfRange where the level
    is nan at a probe."""
    def gap(beta):
        return DB_PER_LOG * re_at(beta) - target

    try:
        return _brentq(gap, a, b, xtol=_XTOL * max(a, b), _fa=gap_a, _fb=gap_b)
    except ValueError:  # a nan level
        raise OutOfRange(f"the level is nan between beta = {a:g} and {b:g}") from None


def _doublings(base: float, step: float, edge: float):
    """base + step, base + 2 step, base + 4 step, ... short of edge, then
    edge itself where it is finite: a LogProbe's points outward from the
    peak on the side of step's sign."""
    while True:
        x = base + step
        if not (x < edge if step > 0.0 else x > edge):
            if math.isfinite(edge):
                yield edge
            return
        yield x
        step *= 2.0


def _crossing(re_at, target: float, n_db: float, peak: float, points, up: bool) -> float:
    """The crossing of the level target, n_db below the peak's, nearest the
    peak: above it where ``up`` is true, below it otherwise.  ``points`` run
    outward from the peak on that side (_doublings for a LogProbe, a
    callable's grid samples about where its array's levels cross); the first
    whose level is at or below the target brackets the crossing with the
    point before it, the peak for the first, and _level_crossing finds it
    there.  Raises LevelNotReached where the level stays above the target at
    every point, and OutOfRange where it is nan at one."""
    inner, gap_inner = peak, n_db
    for x in points:
        gap = DB_PER_LOG * re_at(x) - target
        if gap != gap:
            raise OutOfRange(f"the level is nan at beta = {x:g}")
        if gap <= 0.0:
            if up:
                return _level_crossing(re_at, target, inner, x, gap_inner, gap)
            return _level_crossing(re_at, target, x, inner, gap, gap_inner)
        inner, gap_inner = x, gap
    raise LevelNotReached(n_db, "high-frequency" if up else "low-frequency")


def _vertex_search(f, x: float, steps, name: str) -> tuple[float, float]:
    """The maximizer of f from x and f there: for each step s in turn, a
    move to the vertex of the parabola through f at x and x +- s (over the
    offsets actually probed, (x +- s) - x), stopping where it does not bend
    down or a step rounds to nothing.  A fixed step leaves the vertex off by
    order s**2, so the steps shrink.  Raises OutOfRange where f at a probe
    is not finite; ``name`` names f in the message."""
    y = f(x)
    for s in steps:
        if not -math.inf < y < math.inf:
            break
        d0, d2, s0, s2 = _slopes(f, x, y, s, name)
        vertex = x + 0.5 * (s0 * d2 + s2 * d0) / (s0 - s2) if s0 > s2 else x
        if vertex == x or not math.isfinite(vertex):  # nan where a slope overflows
            break
        x, y = vertex, f(vertex)
    if not -math.inf < y < math.inf:
        raise OutOfRange(f"{name} at beta = {x:g} is {y}")
    return x, y


def _log_panel(d0: float, d1: float) -> tuple[list, list]:
    """Distances from d0 to d1 and their weights: the 16-point Legendre rule
    in the log of the distance, on as many equal panels as it takes to keep
    each within _LOG_PANEL_SPAN of that log.  A power law whose exponent is
    as steep as 40 is then integrated on a panel to rounding: one 12.5 long
    (a_p / b_p = 1e-6) left it 7e-8 off."""
    t0, t1 = math.log(d0), math.log(d1)
    count = max(1, math.ceil((t1 - t0) / _LOG_PANEL_SPAN))
    half = 0.5 * (t1 - t0) / count
    exp, d, w = math.exp, [], []
    for j in range(1, 2 * count, 2):
        mid = t0 + half * j
        nodes = [exp(mid + half * x) for x in _GL_X]
        d += nodes
        w += [half * c * t for c, t in zip(_GL_W, nodes)]
    return d, w


def _window_panels(lo: float, hi: float) -> tuple[list, list]:
    """The nodes and weights of the 16-point Legendre rule on the ERB's
    panels about the peak, between _WINDOW_EDGES clipped to [lo, hi], in
    units of the panels' unit (lo < 0 < hi)."""
    edges = [min(max(e, lo), hi) for e in _WINDOW_EDGES]
    x, w = [], []
    for e0, e1 in zip(edges, edges[1:]):
        if e1 > e0:
            half, mid = 0.5 * (e1 - e0), 0.5 * (e0 + e1)
            x += [mid + half * t for t in _GL_X]
            w += [half * c for c in _GL_W]
    return x, w


# the panels where the span clips none of them, built once
_WINDOW = _window_panels(-math.inf, math.inf)


def _decay_rate(re_at, peak: float, re_peak: float, start: float) -> tuple[float, float]:
    """The rate at which the ERB's integrand, in s = log(distance / start)
    from the peak, decays past ``start``, taken as exponential between Re L
    at the distances start e and start e**3; and the rounding of that rate,
    eight spacings of the floats at the sum of the two logs it differences."""
    g1, g3 = (2.0 * (re_at(peak + start * math.exp(s)) - re_peak) + s for s in (1.0, 3.0))
    return 0.5 * (g1 - g3), 8.0 * math.ulp(abs(g1) + abs(g3))


def _erb_quadrature(probe: LogProbe, peak: float, re_peak: float,
                    unit: float) -> tuple[float | None, int]:
    """The ERB, the integral of the power exp(2 (Re L - Re L_peak)) over the
    probe's span, and the number of nodes it took; None where the power's
    tail does not decay and the integral diverges.

    The nodes and weights are offsets from the peak in units of a_p, the
    probe's scale.  About the peak, 16-point Legendre panels between the
    offsets 0, +-unit and +-4 unit (unit is a_p, or less where the caller
    narrows it); past them, 16-point Legendre panels in the log of the
    distance from the peak (_log_panel): below, to half the peak's distance
    from the span's lower end, and one plain 16-point panel from there to
    that end, which keeps the nodes away from the pole of p and v at -b_p;
    above, to its upper end, or where that is infinite, out to
    _TAIL_REACH times the peak's distance from the lower end.  From there
    the integrand in that log decays as exp(-rate s), the rate from two
    probes (_decay_rate).  At a rate of _LAGUERRE_MIN_RATE or more the
    12-point Laguerre rule takes the rest.  A slower decay departs from the
    exponential by order e**-s over the first units of s, which that rule
    spreads over too few nodes; its nodes may also pass the largest float.
    There Legendre panels carry the tail e**_FAR_SPAN further out, where the
    power is a pure power of the distance to rounding, and the rest is its
    integral in closed form, (distance) (power) / rate, with the rate
    probed there; a rate within its rounding of 0 or below is no decay.
    Every node goes through one call of the probe's node pass, and the sum
    of the weighted powers is multiplied by a_p once.  Raises OutOfRange
    where the reach or a node passes the largest float, the rate is nan, the
    power at a node passes the largest float, or the sum is not finite and
    positive."""
    a = probe.scale
    down, up = (peak - probe.lo) / a, (probe.hi - peak) / a
    k = unit / a
    near = 4.0 * k
    x, w = _WINDOW if down >= near and up >= near else _window_panels(-down / k, up / k)
    x, w = ([k * t for t in x], [k * c for c in w]) if unit < a else (list(x), list(w))
    if down > near:
        # the log panels stop short of the pole of p and v at -b_p
        mid = max(near, 0.5 * down)
        if mid > near:
            d, dw = _log_panel(near, mid)
            x += [-t for t in d]
            w += dw
        center, half = 0.5 * (down + mid), 0.5 * (down - mid)
        x += [-center - half * t for t in _GL_X]
        w += [half * c for c in _GL_W]
    reach = up if up < math.inf else _TAIL_REACH * down
    if not reach < math.inf:
        raise OutOfRange(f"the ERB's tail from beta = {peak:g} passes the largest float")
    if reach > near:
        d, dw = _log_panel(near, reach)
        x += d
        w += dw
        near = reach
    if up == math.inf:
        rate = _decay_rate(probe.re_at, peak, re_peak, a * near)[0]
        if rate >= _LAGUERRE_MIN_RATE:
            d = [near * math.exp(t / rate) for t in _LAGUERRE_NODES]
            if not d[-1] < math.inf:
                raise OutOfRange(f"the ERB's tail at decay rate {rate:g} passes the "
                                 "largest float")
            x += d
            w += [c / rate * t for c, t in zip(_LAG_WE, d)]
        else:
            far = near * math.exp(_FAR_SPAN)
            # the rate is probed at the distance a_p far e**3, and the nodes reach far
            if not max(a, 1.0) * far * math.exp(3.0) < math.inf:
                raise OutOfRange(f"the ERB's tail from beta = {peak:g} passes the "
                                 "largest float")
            rate, rounding = _decay_rate(probe.re_at, peak, re_peak, a * far)
            if not rate > rounding:
                if rate <= rounding:
                    return None, 0
                raise OutOfRange(f"the power's decay past beta = {peak + a * far:g} is {rate}")
            d, dw = _log_panel(near, far)
            x += d + [far]
            w += dw + [far / rate]
    try:
        power = probe.power(peak, x)
    except (OverflowError, ZeroDivisionError):
        raise OutOfRange(f"the power about beta = {peak:g} passes the largest float") from None
    erb = a * sum(map(mul, w, power))
    if not 0.0 < erb < math.inf:
        raise OutOfRange(f"the quadrature gives an ERB of {erb:g}, not a finite positive value")
    return erb, len(x)


def extract_numeric(response, grid=None,
                    n_levels=DEFAULT_LEVELS_DB) -> CharacteristicReport:
    """Recompute the characteristic set of a response from probes of it.

    Parameters
    ----------
    response : probe.LogProbe or callable
        The probes of a target's log response L = log H over [0, inf) (as
        ``probe.log_probe`` gives them from the constants), or beta -> complex
        response H, which must accept both a scalar and an array of betas
        (returning values of the same shape), read over the grid's span.
    grid : grid.FrequencyGrid
        With a callable only: its span, and its samples for the one array
        call that unwraps the phase (see _complex_log).
    n_levels : iterable of float
        dB levels for bandwidths and quality factors, each finite and > 0
        (duplicates count once), as ``closed_form`` takes them.

    Procedure, on L, with a_p the probe's scale: the peak by _vertex_search
    on Re L at steps of a_p / 200, / 16 and / 256 from the climb of Re L in
    steps of a_p / 2 from the probe's start (a callable's best sample); S as
    -(20/ln 10) times the curvature there; BW_n by Brent's method on the
    level (20/ln 10) Re L between the two probes that bracket each crossing
    (_crossing), the first at or below the target on a walk out from the
    peak and the one before it: for a LogProbe, from _MARGIN inside and
    outside the distance where a pure power with that S crosses, for a
    callable, from its grid samples about the crossing of its array's
    levels; the ERB by Gauss quadrature of the normalized power over the
    span (_erb_quadrature, on panels of a_p, or of four of the power's
    standard widths where S makes that narrower); N as the maximum of the
    delay by _vertex_search at steps of a_p / 8, / 64 and / 512, over 2 pi;
    phi_accum as the span of Im L over 2 pi: its values at the span's ends
    (the exact limits at 0 and inf for a LogProbe) and at an interior
    extremum, the Brent root of the delay (v's phase maximum).

    The report's provenance is the grid's geometry (grid_*) for a callable,
    and for a LogProbe the probes' scale and the ERB's node count
    (probe_scale, probe_erb_nodes).

    The levels are read from Re L, never from |H|, so a LogProbe whose |H|
    passes the largest float at the peak extracts like any other.

    Raises OutOfRange when a level is not finite and > 0, for a callable
    when L is not finite on its grid (as where |H| passes the largest
    float), when the ERB or S is not finite and positive (as where a step
    of a callable's S rounds to 0), when Re L at a probe of the peak or the
    delay at a probe of N is not finite, or Re L is nan at a probe of a
    crossing, when a level's width passes the last level's (0 for the first)
    by no more than its crossings' Brent tolerance, or N or phi_accum is not
    finite and positive; NoInteriorPeak when the peak is not inside the span;
    LevelNotReached when a level is not crossed on one side.
    """
    if isinstance(response, LogProbe):
        if grid is not None:
            raise ValueError("a LogProbe is read over its own span; give no grid")
        probe, extremes, runs = response, None, None
    else:
        if grid is None:
            raise ValueError("a response callable is read over a grid; give one")
        from .grid import _complex_log

        probe, extremes, runs = _complex_log(response, grid)
    re_at, im_at, a, lo, hi = probe.re_at, probe.im_at, probe.scale, probe.lo, probe.hi
    start = _climb(re_at, probe.start, 0.5 * a, lo)
    step = a / 200.0
    if step == 0.0:
        raise OutOfRange(f"the peak's step a_p / 200 of a_p = {a:g} underflows to 0")

    beta_pk, re_pk = _vertex_search(re_at, start, (step, step / 16.0, step / 256.0), "Re L")
    # a callable's stencil of S reaches 4 steps either side; a LogProbe keeps the refusal
    if not lo + 4.0 * step < beta_pk < hi - 4.0 * step:
        raise NoInteriorPeak(f"the magnitude maximum at beta = {beta_pk:g} is not inside "
                             f"[{lo:g}, {hi:g}] by S's stencil, 4 a_p / 200")
    s_beta = -DB_PER_LOG * probe.curvature_at(beta_pk)
    if not (math.isfinite(s_beta) and s_beta > 0.0):
        raise OutOfRange(f"the level's curvature at beta_peak = {beta_pk:g} gives S = "
                         f"{s_beta:g}, not a finite positive value")

    peak_level = DB_PER_LOG * re_pk
    bw = {}
    for n in _levels(n_levels):
        target = peak_level - n
        if runs is None:
            # where (1 + x**2)**-k, x = (beta - peak) / a_p, with S's k crosses the
            # level, up to e**4 a_p out; the margin keeps the walk's steps off 0
            reach = a * math.sqrt(math.expm1(min(2.0 * n / (s_beta * a * a), 8.0)))
            m = max(_MARGIN * reach, math.ulp(beta_pk))
            high = _doublings(beta_pk + (reach - 3.0 * m), 2.0 * m, hi)
            low = _doublings(beta_pk - (reach - 3.0 * m), -2.0 * m, lo)
        else:
            high, low = runs(target)
        upper = _crossing(re_at, target, n, beta_pk, high, True)
        lower = _crossing(re_at, target, n, beta_pk, low, False)
        width, last = upper - lower, max(bw.values(), default=0.0)
        if not width - last > _XTOL * (upper + lower):
            # both crossings are found within Brent's tolerance of one float, or
            # of those of the level below: the width is not resolved
            raise OutOfRange(f"the {n:g} dB crossings at beta = {lower:g} give no width "
                             f"above {last:g} by more than their tolerance")
        bw[n] = width

    # the power's bell narrows below a_p where b_u passes 16 on p_sharp: the
    # panels then take four of its standard widths, sqrt((20/ln 10) / S), as unit
    erb, nodes = _erb_quadrature(probe, beta_pk, re_pk,
                                 min(a, 4.0 * math.sqrt(DB_PER_LOG / s_beta)))
    n_beta = _vertex_search(probe.delay_at, beta_pk, (a / 8.0, a / 64.0, a / 512.0),
                            "the group delay")[1] / TWO_PI

    top, bottom = im_at(lo), im_at(hi)
    if extremes is None:
        extremes = [(lo, beta_pk, None)]
    for x0, x1, sample in extremes:
        # Im L at the Brent root of the delay, or the sample where the delay has
        # one sign at both ends or cannot be read: an error d in the root moves
        # Im L by order d**2 there, so Brent's tolerance need not be fine
        try:
            value = im_at(_brentq(probe.delay_at, x0, x1, xtol=1e-7 * x1))
        except (ValueError, RuntimeError, OutOfRange):
            value = sample
        if value is not None:
            top, bottom = max(top, value), min(bottom, value)
    phi_accum = (top - bottom) / TWO_PI
    if not (0.0 < n_beta < math.inf and 0.0 < phi_accum < math.inf):
        raise OutOfRange(f"the phase gives N = {n_beta:g} and phi_accum = {phi_accum:g}, "
                         "not both finite and positive")

    provenance = ({"probe_scale": a, "probe_erb_nodes": nodes} if grid is None
                  else {f"grid_{key}": value for key, value in grid.meta().items()})
    return CharacteristicReport(
        beta_peak=beta_pk,
        n_beta=n_beta,
        phi_accum=phi_accum,
        s_beta=s_beta,
        bw_n_beta=bw,
        erb_beta=erb,
        provenance=provenance,
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

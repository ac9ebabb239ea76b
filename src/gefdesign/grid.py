"""The sampled frequency grid: response tables and response callables.

``default_grid`` samples a uniform window of +-4 a_p around the peak, then
distances from it that grow by GRID_GROWTH = 1.01 a sample out to ends in
units of b_p, so that it scales with the constants.  It serves the response
tables (``harness.response_table``, ``evaluate --response-out``) and the span
of a complex response callable, which ``_complex_log`` turns into the
probes ``characteristics.extract_numeric`` reads (with Richardson's
differences for the group delay and the curvature), and the samples its
crossings' walk steps over.  In the package only those two paths import this
module, which imports nothing of ``characteristics``, so the audit from the
constants loads no numpy.
"""

from __future__ import annotations

import bisect
import math
import sys
from typing import Callable

import numpy as np

from .errors import NoInteriorPeak, OutOfRange
from .probe import LogProbe, _slopes
from .scalar import DB_PER_LOG, TWO_PI, FilterConstants, _finite_positive, _Record

# the floor, in units of b_p, and the growth of the distances from b_p
GRID_FLOOR = 1e-3
GRID_GROWTH = 1.01
# the step of a callable's differences of Im L for its group delay, in units
# of its scale
_DELAY_STEP = 1.0 / 1024.0


class FrequencyGrid(_Record):
    """Increasing beta samples: a uniform window of half-width
    ``dense_halfwidth`` (4 a_p in ``default_grid``) and step ``dense_step``
    around the peak, and tails out to ``tail_max`` above it and down to the
    floor below it; ``tail_points`` counts the tail samples, those outside
    the window.  A quarter of the half-width is the scale a callable is
    probed by.  Raises ValueError unless the samples are positive, finite
    and strictly increasing, and the half-width and the step finite and > 0."""

    _fields = ("samples", "dense_halfwidth", "dense_step", "tail_max", "tail_points")

    def __init__(self, samples: np.ndarray, dense_halfwidth: float, dense_step: float,
                 tail_max: float, tail_points: int):
        # a read-only copy, so the samples stay those that were checked
        samples = np.array(samples, dtype=float)
        samples.flags.writeable = False
        if samples.ndim != 1 or samples.size < 16:
            raise ValueError("grid needs a 1-D vector of at least 16 samples")
        if samples[0] <= 0.0:
            raise ValueError("grid samples must be positive")
        # a nan fails every comparison; rising samples below a finite last are finite
        if not ((samples[1:] > samples[:-1]).all() and samples[-1] < math.inf):
            raise ValueError("grid samples must be finite and strictly increasing")
        self.__dict__.update(samples=samples,
                             dense_halfwidth=_finite_positive("dense_halfwidth", dense_halfwidth),
                             dense_step=_finite_positive("dense_step", dense_step),
                             tail_max=tail_max, tail_points=tail_points)

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


def default_grid(theta: FilterConstants, tail_max: float | None = None) -> FrequencyGrid:
    """The grid of response tables and of a callable's span.

    A uniform window b_p + (a_p / 200) k, k = -800 ... 800, cut at the floor
    GRID_FLOOR b_p.  Outside it the distances from b_p are 4 a_p
    GRID_GROWTH**j, j = 1, 2, ..., formed in log space, so that each step is
    1% of the distance, up to tail_max = b_p + max(8 b_p, 60 a_p) unless
    given (the largest float where that sum overflows), and down to the
    floor, where from the first sample whose next step would pass 2% of
    beta (below about b_p / 3) each step is 2% of beta.  The floor and
    tail_max are the ends, so the grid scales with the constants.
    Raises OutOfRange when the floor or the step a_p / 200 underflows to 0,
    or tail_max is not finite and above the window's top sample.
    """
    a, b = theta.a_p, theta.b_p
    step, floor = a / 200.0, GRID_FLOOR * b
    if tail_max is None:
        tail_max = min(b + max(8.0 * b, 60.0 * a), sys.float_info.max)
    if floor == 0.0:
        raise OutOfRange(f"the floor {GRID_FLOOR:g} b_p of b_p = {b:g} underflows to 0")
    if step == 0.0:
        raise OutOfRange(f"the window step a_p / 200 of a_p = {a:g} underflows to 0")
    # a sample past the largest float reads inf, above tail_max: the window's
    # top is refused, a tail sample dropped
    with np.errstate(over="ignore"):
        dense = np.arange(-800, 801, dtype=float)  # whole numbers, exact
        dense *= step
        dense += b
        dense = dense[dense > floor]
        if not dense[-1] < tail_max < math.inf:
            raise OutOfRange(f"tail_max = {tail_max:g} must be finite and above the window's "
                             f"top sample {dense[-1]:g}")
        # the distances run one or two past tail_max above and past b_p below
        start, log_g = math.log(4.0) + math.log(a), math.log(GRID_GROWTH)
        count = int((math.log(max(tail_max - b, b)) - start) / log_g) + 2
        d = np.exp(np.arange(1, count + 1) * log_g + start)
        high = b + d
    # the closing 0 is a sample whose step passes 2% of the one before it
    low = np.concatenate(([dense[0]], b - d[d < b], [0.0]))
    j = int((low[:-1] - low[1:] > 0.02 * low[:-1]).argmax())
    n = int(math.log(low[j] / floor) / -math.log(0.98)) + 2
    low = np.concatenate((low[1:j + 1], low[j] * 0.98 ** np.arange(1, n)))
    samples = np.concatenate([[floor], low[low > floor][::-1], dense,
                              high[high < tail_max], [tail_max]])
    # every sample is finite, so a step is positive exactly where the sample rises
    rising = samples[1:] > samples[:-1]
    if not rising.all():
        samples = samples[np.concatenate([[True], rising])]
    # the samples increase, so those below and above the window are counted by bisection
    tail_points = (np.searchsorted(samples, dense[0])
                   + samples.size - np.searchsorted(samples, dense[-1], side="right"))
    return FrequencyGrid(samples=samples, dense_halfwidth=4.0 * a, dense_step=step,
                         tail_max=float(tail_max), tail_points=int(tail_points))


def _delay(im_at, h: float) -> Callable[[float], float]:
    """The group delay -d(Im L)/d(beta) at x as Richardson's
    (r**2 D_1 - D_2) / (r**2 - 1) of the centered differences of im_at over
    x +- h and x +- 2 h, where r is the ratio of the spans actually probed
    (2 where the floats resolve h, which gives (4 D_1 - D_2) / 3), as a
    function of x.  It raises OutOfRange where h or 2 h rounds to no wider
    span."""
    def delay_at(x):
        lo1, hi1, lo2, hi2 = x - h, x + h, x - 2.0 * h, x + 2.0 * h
        w1, w2 = hi1 - lo1, hi2 - lo2
        if not 0.0 < w1 < w2:
            raise OutOfRange(f"the phase's steps {h:g} and {2.0 * h:g} at beta = {x:g} "
                             "round to no wider spans")
        r2 = (w2 / w1) ** 2
        return (r2 * (im_at(lo1) - im_at(hi1)) / w1 - (im_at(lo2) - im_at(hi2)) / w2) / (r2 - 1.0)

    return delay_at


def _curvature(re_at, h: float) -> Callable[[float], float]:
    """d2(Re L)/d(beta)2 at x as Richardson's (r**2 D(2 h) - D(4 h)) / (r**2 - 1)
    of the second differences of re_at over x +- 2 h and x +- 4 h, where r
    is the ratio of the two spans actually probed (2 where the floats
    resolve h), as a function of x.  Each difference is divided before it is
    scaled, so it overflows only past the largest float.  It raises
    OutOfRange where Re L at a probe is not finite, or where a span rounds
    to 0 or to the other's width, which no ratio extrapolates."""
    def curvature_at(x):
        y = re_at(x)
        # D = -2 (s0 - s2) / (d0 + d2) over the probed offsets; r = 2 gives (4 D - D') / 3
        d0, d2, s0, s2 = _slopes(re_at, x, y, 2.0 * h, "Re L")
        e0, e2, t0, t2 = _slopes(re_at, x, y, 4.0 * h, "Re L")
        r2 = ((e0 + e2) / (d0 + d2)) ** 2  # nan where the spans are nan
        if not r2 > 1.0:
            raise OutOfRange(f"the level's second differences at beta = {x:g} with step "
                             f"{4.0 * h:g} round to no wider spans")
        return ((s0 - s2) / (d0 + d2) - (t0 - t2) / (e0 + e2) / r2) * (r2 / (r2 - 1.0)) * -2.0

    return curvature_at


def _complex_log(response: Callable, grid: FrequencyGrid):
    """The probes of a complex response callable over the grid's span, from
    log H = log|H| + i unwrap(angle H) (hypot, not abs, at one beta, so a
    modulus past the largest float reads inf instead of raising, and a zero
    reads -inf), the brackets of its phase's interior extremes, and the
    function of a level that gives the two runs of samples, up and down the
    frequency axis, that each crossing's walk reads Re L at
    (characteristics._crossing).  Its group delay and curvature are
    Richardson's differences of im_at and re_at (_delay at a_p / 1024 and
    _curvature at a_p / 200, a_p the scale).

    The grid serves twice: its ends stand in for 0 and infinity, and its
    samples' one array call gives the best sample (ties to the smallest
    beta), where the peak's climb starts, the extremes of the unwrapped
    phase, the turn at the nearest sample that im_at unwraps its angle by,
    and the levels that start each run: at the sample before the first one
    out from the best whose level is at or below the target (at the grid's
    end on that side where none is), so that the walk reads the scalar level
    at the two samples that bracket the crossing, and walks on from there
    where the scalar level is still above the target.  The scale is a
    quarter of the window's half-width, a_p on a default_grid.  The
    ERB's node pass is one more array call, at the peak and its nodes, whose
    power it divides by the peak's.  Raises OutOfRange where log H is not
    finite on the grid (where |H| passes the largest float, log |H| reads
    inf), and NoInteriorPeak where the best sample is an end."""
    betas, scale = grid.samples, 0.25 * grid.dense_halfwidth
    # a zero, an overflow (of |H| too) or a nan gives a non-finite L, which fails the gate
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        values = np.asarray(response(betas), dtype=complex)
        log_mag, phase = np.log(np.abs(values)), np.unwrap(np.angle(values))
    k_pk, k_min, k_max = int(np.argmax(log_mag)), int(phase.argmin()), int(phase.argmax())
    # a nan makes its array's extremes nan, and fails every comparison here
    if not (-math.inf < log_mag.min() and log_mag[k_pk] < math.inf
            and -math.inf < phase[k_min] and phase[k_max] < math.inf):
        raise OutOfRange("the log response must be finite on the whole grid")
    samples, turns = betas.tolist(), phase.tolist()
    last = len(samples) - 1
    if k_pk == 0 or k_pk == last:
        raise NoInteriorPeak(f"magnitude maximum at the grid boundary (beta = {samples[k_pk]:g})")

    def re_at(beta):
        value = complex(response(beta))
        modulus = math.hypot(value.real, value.imag)
        return math.log(modulus) if modulus else -math.inf

    def im_at(beta):
        k = bisect.bisect(samples, beta)
        if k > last or (k > 0 and beta - samples[k - 1] <= samples[k] - beta):
            k -= 1
        value = complex(response(beta))
        return turns[k] + math.remainder(math.atan2(value.imag, value.real) - turns[k], TWO_PI)

    def power(peak, x):
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            at = peak + scale * np.array([0.0, *x])
            log_at = np.log(np.abs(np.asarray(response(at), dtype=complex)))
            return np.exp(2.0 * (log_at[1:] - log_at[0])).tolist()

    levels = DB_PER_LOG * log_mag

    def runs(target):
        def below(run):  # the index in run of its first sample at or below the target
            k = int(run.argmax())
            return k if run[k] else run.size

        at_or_below = levels <= target
        up = k_pk + below(at_or_below[k_pk:])
        down = k_pk - below(at_or_below[k_pk::-1])
        return samples[max(up - 1, k_pk):], samples[min(down + 1, k_pk)::-1]

    extremes = [(samples[k - 1], samples[k + 1], turns[k]) for k in (k_max, k_min)
                if 0 < k < last]
    probe = LogProbe(re_at, im_at, _delay(im_at, scale * _DELAY_STEP),
                     _curvature(re_at, scale / 200.0), power, scale, samples[k_pk],
                     samples[0], samples[-1])
    return probe, extremes, runs

"""Signal filtering with discretized prototypes, and their responses.

Integer exponents become a cascade of b_u identical biquad sections via the
bilinear transform, prewarped so the digital magnitude peak lands exactly
on the requested peak frequency; that map (``to_sos``, ``DigitalFilter``),
the one writer of filter documents (``filter_json``, which ``save_filter``
writes to a file) and the cascade's log response (``_cascade_log``) need no
numpy and live in ``biquad``, and this module re-exports the first two;
``digital_response`` is the exp of that log on arrays.  ``apply_sos`` runs
the cascade in scipy's compiled loop alone, loaded from its file by
``scalar._scipy_extension`` without ``scipy.signal``, and ``read_wav`` and
``write_wav`` call ``scipy.io.wavfile``, loaded the same way without
``scipy.io``; where scipy cannot be imported they raise ImportError.
Non-integer exponents are supported
through FFT-domain filtering: the analog response is sampled at the bins of
a block whose length follows the impulse response's decay, the kernel's
support is measured from that block, and the signal is filtered block by
block (overlap-add) in hops of the block length less that support, so
memory stays near the signal's own and the output drifts from one
whole-signal transform by about 1e-12 of its peak at most.  Batches of hops
are transformed together and added in hop order.
"""

from __future__ import annotations

import math

import numpy as np

from .biquad import (
    DigitalFilter,
    _bandpass_peak,
    _cascade_log,
    _check_rates,
    filter_json,
    to_sos,
)
from .core import _maybe_scalar, eval_gef
from .errors import OutOfRange, SampleRateMismatch
from .scalar import FilterConstants, _finite_positive, _Record, _scipy_extension


class SignalBuffer(_Record):
    """A sampled real signal."""

    _fields = ("sample_rate", "samples")

    def __init__(self, sample_rate: float, samples: np.ndarray):
        self.__dict__.update(sample_rate=_finite_positive("sample_rate", sample_rate),
                             samples=np.asarray(samples, dtype=float).ravel())


def digital_response(filt: DigitalFilter, f_hz):
    """Frequency response of the section cascade at f (Hz), a number or an
    array, 0 <= f <= fs/2: exp of biquad._cascade_log, not finite where it
    overflows, without a warning.  Raises OutOfRange at any other f, a nan
    included."""
    f = np.asarray(f_hz, dtype=float)
    log_h = np.array(_cascade_log(filt, f.ravel().tolist()), dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        return _maybe_scalar(np.exp(log_h).reshape(f.shape))


def apply_sos(filt: DigitalFilter, signal: SignalBuffer) -> SignalBuffer:
    """Run the cascade over a signal (direct form II transposed, zero
    initial state) in scipy's compiled loop.  Output length equals input
    length.  A cascade that overflows gives samples that are not finite,
    without a warning; callers check for that.  Raises ImportError where
    scipy cannot be imported."""
    if signal.sample_rate != filt.sample_rate:
        raise SampleRateMismatch(
            f"signal at {signal.sample_rate:g} Hz, filter at {filt.sample_rate:g} Hz"
        )
    sos = np.array(
        [[b0, b1, b2, 1.0, a1, a2] for b0, b1, b2, a1, a2 in filt.sections]
    )
    # what scipy.signal.sosfilt does for one float64 signal at rest
    rows = signal.samples.reshape(1, -1).copy()
    _sosfilt_kernel()(sos, rows, np.zeros((1, len(sos), 2)))
    out = rows[0]
    with np.errstate(over="ignore", invalid="ignore"):
        out *= filt.gain
    return SignalBuffer(sample_rate=signal.sample_rate, samples=out)


def _sosfilt_kernel():
    """scipy's compiled cascade loop `_sosfilt(sos, x, zi)`, which filters
    the rows of x in place; ImportError where scipy cannot be imported.

    `from scipy.signal import sosfilt` loads all of scipy.signal: about 1.3 s
    on a 2-core Xeon and 60 MB, most of a cold `filter` call.  The extension
    module needs only numpy and the scipy package, so it is loaded from its
    file under its own name (see scalar._scipy_extension).
    """
    return _scipy_extension("signal", "_sosfilt")._sosfilt


# The kernel of an nb-point block passes when the middle half of
# irfft(H, nb) holds at most this share of its energy.
_ALIAS_ENERGY = 1e-24
# Time constants of the impulse-response envelope past its peak in the first
# guess at the kernel length.
_DECAY_CONSTANTS = 40.0
# Shortest block: below it the Python loop costs more than the transforms.
_MIN_BLOCK = 4096
# Longest batch of hops that apply_fft transforms in one 2-D call, in samples.
_BATCH_SAMPLES = 1 << 17


def _sampled_response(theta: FilterConstants, f_peak: float, scale: float, freqs):
    """The analog response at freqs (Hz), bin f mapped to beta = f * scale
    (inf where that passes the largest float; the response there is 0).
    Raises OutOfRange when it is not finite."""
    with np.errstate(over="ignore"):
        betas = freqs * scale
    response = np.asarray(eval_gef(theta, betas))
    if not np.all(np.isfinite(response)):
        raise OutOfRange(f"the response of {theta} at f_peak = {f_peak:g} Hz is not finite")
    return response


def _block_plan(theta: FilterConstants, f_peak: float, fs: float, n: int):
    """(nb, hop, lead, response): the block apply_fft filters n samples in,
    the samples it takes per block, the samples of pre-ringing before them,
    and the analog response on the block's rfft grid.

    The kernel irfft(H, nb) holds the causal impulse response at its start
    and, at its end, the pre-ringing from the cut at fs/2.  The response
    decays like t**(b_u - 1) exp(-r t), r = 2 pi a_p f_peak / (peak_beta fs)
    per sample, so nb starts at the power of two at or above four times
    (b_u - 1) / r + 40 / r, and at least 4096.  It grows until the middle
    half of the kernel holds at most 1e-24 of its energy: it doubles while a
    doubling cuts the middle's energy at least fourfold, else it jumps to the
    cap, the power of two at or above 2 n, where one block takes the whole
    signal (a middle that falls slower is the 1/nb tail of the cut at fs/2,
    which lasts until the cap).  Every (grown // nb)-th bin of a grown grid
    is an old bin, bit for bit, so a step evaluates only the others.  The
    support [-tail, head) is the shortest head and tail that each leave at
    most half of 1e-24 of the energy on their side of the middle (head +
    tail < nb: the two middle samples cannot both hold over half of what the
    middle half holds); the hops are nb - (head + tail) samples, and a
    block's output runs from tail samples before its hop to head samples
    past it.  Raises OutOfRange when the sampled response is not finite.
    """
    nfft = 1 << (2 * n - 1).bit_length()
    scale = _bandpass_peak(theta) / f_peak
    # four times the kernel length in samples; r could underflow to 0, so 1 / r
    # is formed directly (it may overflow to inf, which reaches the cap)
    span = 4.0 * (max(theta.b_u - 1.0, 0.0) + _DECAY_CONSTANTS) * (
        scale * fs / (2.0 * math.pi * theta.a_p))
    nb = min(_MIN_BLOCK, nfft)
    while nb < nfft and nb < span:
        nb *= 2
    response = _sampled_response(theta, f_peak, scale, np.fft.rfftfreq(nb, d=1.0 / fs))
    previous = math.inf
    while nb < nfft:
        energy = np.square(np.fft.irfft(response, nb))
        total = energy.sum()
        middle = energy[nb // 4:3 * nb // 4].sum()
        if middle <= _ALIAS_ENERGY * total:
            half = nb // 2
            budget = 0.5 * _ALIAS_ENERGY * total
            head = half - np.searchsorted(np.cumsum(energy[half - 1::-1]), budget, side="right")
            tail = half - np.searchsorted(np.cumsum(energy[half:]), budget, side="right")
            return nb, nb - int(head + tail), int(tail), response
        grown = 2 * nb if 4.0 * middle < previous else nfft
        freqs = np.fft.rfftfreq(grown, d=1.0 / fs)
        new = np.ones(freqs.size, dtype=bool)
        new[::grown // nb] = False
        old, response = response, np.empty(freqs.size, dtype=complex)
        response[::grown // nb] = old
        response[new] = _sampled_response(theta, f_peak, scale, freqs[new])
        nb, previous = grown, middle
    return nb, nb, 0, response


def apply_fft(
    theta: FilterConstants, f_peak: float, fs: float, signal: SignalBuffer
) -> SignalBuffer:
    """Filter by multiplying the signal spectrum with the analog response,
    block by block (overlap-add).

    Works for any positive exponent, including non-integer b_u.  The analog
    response H is sampled once, at the rfft bins of an nb-point block whose
    length follows the impulse response's decay, and the kernel's support
    [-tail, head) is measured from that block (see _block_plan).  The signal
    goes through in hops of nb - (head + tail) samples, each zero-padded to
    nb points, multiplied by H and transformed back; the block's first
    nb - tail samples are added in place from the hop's start and its last
    tail samples, the pre-ringing, just before it.  The output is exactly
    real and as long as the input.  Against one transform of the whole
    signal the blocks drift by about 1e-12 of max|y| at most (the kernel
    holds at most 1e-24 of its energy outside its support); when the block
    reaches its cap, one block is that transform and the output is the same
    bit for bit.

    Consecutive hops go through in batches of at most 2**17 samples, one
    2-D rfft/irfft pair a batch; a last hop cut short by the signal's end
    is a batch of its own.  The blocks are added in hop order, so each
    output sample is the same sum, in the same order, as block by block,
    bit for bit.  Memory is the output plus one batch.

    Bin k maps to beta = peak_beta(theta) * f_k / f_peak: the response is
    placed so its magnitude peak sits exactly at f_peak, matching the
    cascade realization from to_sos (the magnitude peak sits slightly below
    b_p in beta, so the naive f/f_peak mapping would misplace the filter by
    about a_p**2/2 relative).  Gain follows theta.gain; combine with
    normalized_to_peak for a unit-peak filter.  Raises OutOfRange when the
    sampled response is not finite.  A signal that is not finite, or one
    whose output overflows, gives samples that are not finite, without a
    warning; callers check for that.
    """
    f_peak, fs = _check_rates(f_peak, fs)
    if signal.sample_rate != fs:
        raise SampleRateMismatch(
            f"signal at {signal.sample_rate:g} Hz, requested fs = {fs:g} Hz"
        )
    x = signal.samples
    n = x.size
    if n == 0:
        return SignalBuffer(sample_rate=fs, samples=x.copy())
    nb, hop, lead, response = _block_plan(theta, f_peak, fs, n)
    # (start, chunks): each batch's hops as rows of a view of x
    full = n - n % hop
    step = max(1, _BATCH_SAMPLES // nb) * hop
    batches = [(start, x[start:min(start + step, full)].reshape(-1, hop))
               for start in range(0, full, step)]
    if full < n:
        batches.append((full, x[full:].reshape(1, -1)))
    # out[i] is output sample i - lead; -0.0 is the additive identity, so a
    # single block comes out bit for bit
    out = np.full(lead + n, -0.0)

    def add(start, chunks):
        # a function, so that one batch's transforms are freed before the next
        spectra = np.fft.rfft(chunks, nb, axis=1)
        spectra *= response
        for block in np.fft.irfft(spectra, nb, axis=1):
            out[start:start + lead] += block[nb - lead:]
            stop = min(start + nb, lead + n)
            out[start + lead:stop] += block[:stop - start - lead]
            start += hop

    with np.errstate(over="ignore", invalid="ignore"):
        for start, chunks in batches:
            add(start, chunks)
    return SignalBuffer(sample_rate=fs, samples=out[lead:])


# ---------------------------------------------------------------------------
# file I/O: filter JSON, float WAV, headerless CSV (one sample per line)
# ---------------------------------------------------------------------------


def save_filter(filt: DigitalFilter, path) -> None:
    """Write the filter's document (biquad.filter_json) to path."""
    with open(path, "w") as fh:
        fh.write(filter_json(filt))


def write_wav(path, signal: SignalBuffer) -> None:
    """Mono 32-bit float WAV, written by scipy.io.wavfile.write.  A rate that
    rounds to 0 Hz, or whose byte rate (4 bytes a sample) a 32-bit field
    cannot hold, raises OutOfRange and writes no file."""
    rate = int(round(signal.sample_rate))
    if not 0 < rate <= 0xFFFFFFFF // 4:
        raise OutOfRange(f"a float WAV file cannot hold a sample rate of {signal.sample_rate:g} Hz")
    _scipy_extension("io", "wavfile").write(path, rate, signal.samples.astype("<f4"))


def read_wav(path) -> SignalBuffer:
    """A WAV file as a mono float signal, read by scipy.io.wavfile.read:
    integer PCM is scaled to [-1, 1), then channels are averaged.  A damaged
    file raises ValueError, the TypeError, ZeroDivisionError or
    UnboundLocalError that scipy raises on some (a damaged fmt chunk, no
    data chunk) included.  A header sample rate of 0 raises OutOfRange."""
    try:
        rate, data = _scipy_extension("io", "wavfile").read(path)
    except (TypeError, ZeroDivisionError, UnboundLocalError) as exc:
        raise ValueError(f"damaged WAV file: {exc}") from None
    if rate <= 0:
        raise OutOfRange(f"{path} gives a sample rate of {rate} Hz")
    # samples that are not finite (or a signalling NaN) stay so, without a
    # warning; callers check for that
    with np.errstate(over="ignore", invalid="ignore"):
        if data.dtype == np.int16:
            data = data / 32768.0
        elif data.dtype == np.int32:
            data = data / 2147483648.0
        elif data.dtype == np.uint8:
            data = (data.astype(float) - 128.0) / 128.0
        data = data.astype(float)
        if data.ndim > 1:
            data = data.mean(axis=1)
    return SignalBuffer(sample_rate=float(rate), samples=data)


def read_signal_csv(path, sample_rate: float) -> SignalBuffer:
    return SignalBuffer(sample_rate=sample_rate, samples=np.loadtxt(path, ndmin=1))

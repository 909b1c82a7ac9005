"""STFT analysis/synthesis and long-term spectral statistics.

Square-root Hann windows are used on both the analysis and the synthesis
side at 50% overlap, so the overlapped window product sums to one and the
round trip is exact up to float rounding.  Signals are zero-padded by one
hop on either side before framing, which keeps every input sample under
full window coverage (no edge taper on the reconstruction).  A spectrum
is a plain complex array shaped (channels, frames, bins); the functions
that take one raise ValueError on any other shape.

Every per-frame pass is a function of one chunk of frames, and
_by_chunks runs it over fixed chunks, whose edges depend on the input's
length alone, dealt out in contiguous runs, one per usable CPU, at the
same time.  No pass holds a scratch array the size of its input, and as
each chunk is computed by the same operations whatever the runs, the
results do not depend on the CPU count.  The analysis pass windows the
frames straight from the signal, with no zero-padded copy, and can hand
each chunk's spectrum to a function as soon as it is made, so a
spectrum that is shaped or summed per chunk (each scene source's, the
scene's self noise) takes no pass of its own.  The overlap-add pass can
likewise take its spectrum a chunk at a time from a function, so a
spectrum made per chunk (pipeline.render's) is never held whole.
"""

import contextvars
import math
import os
import struct
import threading
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

__all__ = [
    "FrameParams",
    "sqrt_hann",
    "analyze",
    "synthesize",
    "long_term_psd",
    "WAV_DATA_LIMIT",
    "WAV_RATE_LIMIT",
    "write_wav",
]

# the most sample bytes one WAV file can hold: its RIFF size field is 32
# bits and counts the 50 bytes of header after it too
WAV_DATA_LIMIT = 2**32 - 1 - 50

# the most samples per second one mono float32 WAV file can declare: its
# byte rate, 4 * channels * rate, is a 32-bit header field
WAV_RATE_LIMIT = (2**32 - 1) // 4

# frames per chunk of a pass; and bins per chunk and channel of
# long_term_psd: a chunk conjugates one channel of _BIN_CHUNK * channels
# bins, as many values as 16 bins of every channel, 6% of a 257-bin
# spectrum; narrower chunks cost the einsum more per bin
_CHUNK = 64
_BIN_CHUNK = 16


@dataclass(frozen=True)
class FrameParams:
    """STFT framing at 50% overlap: the hop is half the frame."""

    sample_rate: int
    frame_len: int

    def __post_init__(self):
        if self.frame_len <= 0 or self.frame_len % 2:
            raise ValueError("frame_len must be positive and even")

    @classmethod
    def from_ms(cls, sample_rate, frame_ms=32.0):
        # the frame in samples, so a frame_ms that overflows is caught too
        frame_len = sample_rate * frame_ms / 1000.0
        if not 0.0 < frame_len < math.inf:
            raise ValueError("frame_ms must be positive and finite")
        frame_len = int(round(frame_len))
        if frame_len % 2:
            frame_len += 1
        return cls(sample_rate, frame_len)

    @property
    def hop(self):
        return self.frame_len // 2

    @property
    def bins(self):
        return self.frame_len // 2 + 1

    @property
    def freqs(self):
        """Center frequency of each one-sided bin in Hz."""
        return np.fft.rfftfreq(self.frame_len, 1.0 / self.sample_rate)


def _spectrum(spec):
    """spec as an array, which must be (channels, frames, bins)."""
    if np.ndim(spec) != 3:
        raise ValueError("a spectrum must be (channels, frames, bins)")
    return np.asarray(spec)


def _usable_cpus():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        return os.cpu_count() or 1


def _by_chunks(n, fn, width=_CHUNK):
    """Run fn(c, e) on each chunk [c, e) = [k * width, (k + 1) * width)
    of range(n), cut at n, so the chunks depend on n and width alone.
    Whole chunks are dealt out in contiguous runs, one run per usable
    CPU, and the runs go at the same time.

    The caller makes the first run, and a thread started for this call
    makes each of the others in a copy of the caller's context, so
    np.errstate holds in every run.  An error in any run is raised here
    once every run is done.  fn calls numpy only, and writes with out=
    or in place into arrays the caller made, only into its own chunk of
    them; it allocates at most scratch for its chunk: a thread that
    allocated its own share would keep it in a malloc arena of its own.
    """
    chunks = -(-n // width)
    runs = max(1, min(_usable_cpus(), chunks))
    edges = [k * chunks // runs * width for k in range(runs + 1)]
    errors = []

    def run(a, b):
        try:
            for c in range(a, b, width):
                fn(c, min(c + width, n))
        except Exception as error:
            errors.append(error)

    threads = [threading.Thread(target=contextvars.copy_context().run,
                                args=(run, a, b))
               for a, b in zip(edges[1:-1], edges[2:])]
    for thread in threads:
        thread.start()
    try:
        run(0, edges[1])
    finally:
        for thread in threads:
            thread.join()
    if errors:
        raise errors[0]


def sqrt_hann(frame_len):
    """Square root of the periodic Hann window: w[n] = sin(pi*n/N).

    The squared window overlap-adds to exactly one at 50% hop because
    sin^2 + cos^2 = 1 for half-frame shifts.
    """
    n = np.arange(frame_len)
    return np.sin(np.pi * n / frame_len)


def analyze(signal, params):
    """STFT of a mono (n,) or multichannel (channels, n) signal.

    Returns the one-sided spectrum, a complex array shaped (channels,
    frames, bins) in C order: a pass over one channel reads contiguous
    memory.
    """
    x = np.atleast_2d(np.asarray(signal, dtype=np.float64))
    if x.ndim != 2:
        raise ValueError("signal must be 1-D or 2-D")
    data = np.empty((x.shape[0], _frame_count(x.shape[1], params),
                     params.bins), dtype=complex)
    _analysis(x, params, data)
    return data


def _frame_count(n, params):
    """Frames of an n-sample signal: one hop of zeros in front, and
    zeros to the end of the last frame; ValueError if under one frame."""
    if n < params.frame_len:
        raise ValueError("insufficient samples: shorter than one frame")
    return int(np.ceil(n / params.hop)) + 1


def _analysis(x, params, data, each_chunk=None):
    """analyze's pass over x, (channels, n), in chunks of _CHUNK frames:
    the rfft of each windowed frame goes to its frames of data,
    or, where data is None, to scratch for the chunk.  each_chunk(c, e,
    part), if given, is then called with the spectrum of frames [c, e);
    it may rewrite part in place, and follows _by_chunks's rules.

    No padded copy of x is made: frames 1 to n // hop - 1 lie wholly in
    x, and the first and the last one or two are windowed from small
    copies of x's ends with the padding's zeros."""
    channels, n = x.shape
    hop, size = params.hop, params.frame_len
    n_frames = _frame_count(n, params)
    inner = n // hop - 1
    head = np.zeros((channels, 1, size))
    head[:, 0, hop:] = x[:, :hop]
    tail = np.zeros((channels, (n_frames - inner) * hop))
    tail[:, :n - inner * hop] = x[:, inner * hop:]
    window = sqrt_hann(size)
    # (frames, first frame) of each source of frames, in order
    sources = ((head, 0),
               (sliding_window_view(x, size, axis=1)[:, ::hop], 1),
               (sliding_window_view(tail, size, axis=1)[:, ::hop],
                inner + 1))

    def chunk(c, e):
        part = np.empty((channels, e - c, size))
        for src, first in sources:
            lo, hi = max(c, first), min(e, first + src.shape[1])
            if lo < hi:
                np.multiply(src[:, lo - first:hi - first], window,
                            out=part[:, lo - c:hi - c])
        out = np.fft.rfft(part, n=size, axis=2,
                          out=None if data is None else data[:, c:e])
        if each_chunk is not None:
            each_chunk(c, e, out)

    _by_chunks(n_frames, chunk)


def synthesize(spec, params, num_samples):
    """Overlap-add inverse STFT, shaped (channels, num_samples).

    The output is trimmed or zero-extended to ``num_samples``, a
    nonnegative integer.
    """
    data = _spectrum(spec)
    if not isinstance(num_samples, (int, np.integer)) or num_samples < 0:
        raise ValueError("num_samples must be a nonnegative integer")
    channels, n_frames, bins = data.shape
    if bins != params.bins:
        raise ValueError("bin count does not match frame parameters")
    return _overlap_add(lambda c, e: data[:, c:e], channels, n_frames,
                        params, num_samples)


def _overlap_add(rows, channels, n_frames, params, num_samples):
    """synthesize's overlap-add pass over a spectrum of (channels,
    n_frames) frames given by rows: rows(c, e) returns frames [c, e),
    (channels, e - c, bins), as a view or as scratch it makes for one
    chunk.  It is called for at most _CHUNK frames at a time, from
    every run, so it follows _by_chunks's rules.

    The signal starts one hop in, so its hop-block i is the second half
    of frame i plus the first half of frame i + 1; adding both into
    zeros, in that order, gives a sum per sample equal to frame-by-frame
    overlap-add.  A chunk writes hop-blocks [c, e) and reads frames
    [c, e + 1), cut at n_frames, so frame e is made in this chunk and
    in the next alike."""
    window = sqrt_hann(params.frame_len)
    hop = params.hop
    y = np.zeros((channels, max(-(-num_samples // hop), n_frames), hop))

    def chunk(c, e):
        f = min(e + 1, n_frames)
        part = np.fft.irfft(rows(c, f), n=params.frame_len, axis=2)
        part *= window
        y[:, c:e] += part[:, :e - c, hop:]
        y[:, c:f - 1] += part[:, 1:, :hop]

    _by_chunks(n_frames, chunk, _CHUNK - 1)
    return y.reshape(channels, -1)[:, :num_samples]


def long_term_psd(spec):
    """Per-bin long-term PSD matrix, the mean of x[t,k] x[t,k]^H over frames.

    Returns an array of shape (bins, channels, channels); Hermitian and
    positive semi-definite per bin by construction.  Raises ValueError
    on a spectrum without frames.
    """
    data = _spectrum(spec)
    channels, n_frames, bins = data.shape
    if n_frames == 0:
        raise ValueError("the spectrum's frame axis is empty")
    # laid out (channels, channels, bins), as one einsum over every bin
    # lays out its result
    psd = np.empty((channels, channels, bins), dtype=complex)
    psd = psd.transpose(2, 0, 1)

    # mean over t of the outer product across channels; exactly
    # Hermitian, as entry (n, m) sums the conjugates of (m, n)'s products.
    # Column n comes from one einsum against channel n's conjugate, over
    # a chunk of bins at a time, and sums each product in the same order
    # as one einsum over every channel and bin
    def chunk(c, e):
        part = data[..., c:e]
        for n in range(channels):
            np.einsum("mtk,tk->km", part, np.conj(part[n]),
                      out=psd[c:e, :, n])

    _by_chunks(bins, chunk, _BIN_CHUNK * channels)
    psd /= n_frames
    return psd


def write_wav(path, rate, data):
    """Write mono (n,) or multichannel (channels, n) audio as float32 WAV.

    Raises ValueError, before the file is opened, if any sample is not
    finite, float32 rounding included, if the samples exceed
    WAV_DATA_LIMIT bytes, or if the header cannot hold the rate: a
    channel count times the rate above WAV_RATE_LIMIT, or more than
    16383 channels (the 16-bit block size is 4 * channels).
    """
    data = np.atleast_2d(np.asarray(data))
    if 4 * data.size > WAV_DATA_LIMIT:
        raise ValueError("too many samples for one WAV file")
    channels = data.shape[0]
    if not (0 < rate and channels * rate <= WAV_RATE_LIMIT
            and 4 * channels <= 0xFFFF):
        raise ValueError("the sample rate or channel count does not fit "
                         "a WAV header")
    with np.errstate(over="ignore"):  # overflow is caught below
        samples = data.T.astype("<f4")  # (n, channels), interleaved
    if not np.all(np.isfinite(samples)):
        raise ValueError("refusing to write non-finite samples")
    n = samples.shape[0]
    # RIFF of an IEEE-float file (format tag 3): an 18-byte fmt chunk,
    # a fact chunk holding the frame count, then the data chunk
    with open(path, "wb") as fh:
        fh.write(struct.pack("<4sI4s4sIHHIIHHH4sII4sI", b"RIFF",
                             50 + samples.nbytes, b"WAVE", b"fmt ", 18, 3,
                             channels, rate, 4 * channels * rate,
                             4 * channels, 32, 0, b"fact", 4, n, b"data",
                             samples.nbytes))
        samples.tofile(fh)

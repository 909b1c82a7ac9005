"""STFT analysis/synthesis and long-term spectral statistics.

Square-root Hann windows are used on both the analysis and the synthesis
side at 50% overlap, so the overlapped window product sums to one and the
round trip is exact up to float rounding.  Signals are zero-padded by one
hop on either side before framing, which keeps every input sample under
full window coverage (no edge taper on the reconstruction).

The per-frame passes run in contiguous blocks of frames, one per usable
CPU, at the same time, and each block in chunks of _CHUNK frames, so no
pass holds a scratch array the size of its input.  Each frame is
computed by the same operations in the same order whatever the blocks
and chunks, so the results do not depend on them.  The analysis pass
windows the frames straight from the signal, with no zero-padded copy,
and can hand each chunk's spectrum to a function as soon as it is made,
so a spectrum that is shaped or summed per chunk (scene.make_source's,
the scene's self noise) takes no pass of its own.  The overlap-add pass
can likewise take its spectrum a chunk at a time from a function, so a
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
    "Spectrogram",
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

# frames per chunk of a block's pass, and bins per chunk and channel of
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


@dataclass
class Spectrogram:
    """One-sided STFT data with shape (channels, frames, bins), in C
    order: a pass over one channel reads contiguous memory."""

    data: np.ndarray

    def __post_init__(self):
        self.data = np.asarray(self.data)
        if self.data.ndim != 3:
            raise ValueError("spectrogram data must be (channels, frames, bins)")

    @property
    def channels(self):
        return self.data.shape[0]

    @property
    def frames(self):
        return self.data.shape[1]


def _usable_cpus():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        return os.cpu_count() or 1


# the number of usable CPUs that a thread running beside the frame
# blocks, such as the scene's draw thread, takes at the moment: a pass
# started while it runs cuts one block fewer, so that no block waits
# for a CPU while the others are done
_busy_cpus = contextvars.ContextVar("busy_cpus", default=lambda: 0)


def _by_frames(n_frames, fn):
    """Run fn(a, b) on contiguous blocks [a, b) of range(n_frames), one
    block per usable CPU that _busy_cpus leaves free, at the same time.
    (long_term_psd cuts its bins the same way.)

    The caller runs the first block, and a thread started for this call
    runs each of the others in a copy of the caller's context, so
    np.errstate holds in every block.  An error in any block is raised
    here once every block is done.  fn calls numpy only, and writes with
    out= or in place into arrays the caller made, only into its own
    frames of them; it allocates at most scratch of a few chunks: a
    thread that allocated its own share would keep it in a malloc arena
    of its own.
    """
    blocks = max(1, min(_usable_cpus() - _busy_cpus.get()(), n_frames))
    edges = [k * n_frames // blocks for k in range(blocks + 1)]
    errors = []

    def block(a, b):
        try:
            fn(a, b)
        except Exception as error:
            errors.append(error)

    threads = [threading.Thread(target=contextvars.copy_context().run,
                                args=(block, a, b))
               for a, b in zip(edges[1:-1], edges[2:])]
    for thread in threads:
        thread.start()
    try:
        fn(0, edges[1])
    finally:
        for thread in threads:
            thread.join()
    if errors:
        raise errors[0]


def _by_chunks(n, fn, chunk=_CHUNK):
    """Run fn(c, e) on each chunk [c, e) of at most ``chunk`` of
    range(n), the chunks of each block of _by_frames in turn; fn follows
    _by_frames's rules."""
    def block(a, b):
        for c in range(a, b, chunk):
            fn(c, min(c + chunk, b))

    _by_frames(n, block)


def sqrt_hann(frame_len):
    """Square root of the periodic Hann window: w[n] = sin(pi*n/N).

    The squared window overlap-adds to exactly one at 50% hop because
    sin^2 + cos^2 = 1 for half-frame shifts.
    """
    n = np.arange(frame_len)
    return np.sin(np.pi * n / frame_len)


def analyze(signal, params):
    """STFT of a mono (n,) or multichannel (channels, n) signal.

    Returns a Spectrogram with data shaped (channels, frames, bins).
    """
    x = np.atleast_2d(np.asarray(signal, dtype=np.float64))
    if x.ndim != 2:
        raise ValueError("signal must be 1-D or 2-D")
    data = np.empty((x.shape[0], _frame_count(x.shape[1], params),
                     params.bins), dtype=complex)
    _analysis(x, params, data)
    return Spectrogram(data)


def _frame_count(n, params):
    """Frames of an n-sample signal: one hop of zeros in front, and
    zeros to the end of the last frame."""
    if n < params.frame_len:
        raise ValueError("insufficient samples")
    return int(np.ceil(n / params.hop)) + 1


def _analysis(x, params, data, each_chunk=None):
    """analyze's pass over x, (channels, n): the rfft of each windowed
    frame goes to its frames of data, or, where data is None, to chunk
    scratch.  each_chunk(c, e, part), if given, is then called with the
    spectrum of frames [c, e); it may rewrite part in place, and follows
    _by_frames's rules.

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

    def block(a, b):
        width = min(_CHUNK, b - a)
        frames = np.empty((channels, width, size))
        spec = (np.empty((channels, width, params.bins), dtype=complex)
                if data is None else None)
        for c in range(a, b, _CHUNK):
            e = min(c + _CHUNK, b)
            part = frames[:, :e - c]
            for src, first in sources:
                lo, hi = max(c, first), min(e, first + src.shape[1])
                if lo < hi:
                    np.multiply(src[:, lo - first:hi - first], window,
                                out=part[:, lo - c:hi - c])
            out = spec[:, :e - c] if data is None else data[:, c:e]
            np.fft.rfft(part, n=size, axis=2, out=out)
            if each_chunk is not None:
                each_chunk(c, e, out)

    _by_frames(n_frames, block)


def synthesize(spec, params, num_samples):
    """Overlap-add inverse STFT, shaped (channels, num_samples).

    The output is trimmed or zero-extended to ``num_samples``.
    """
    data = spec.data
    channels, n_frames, bins = data.shape
    if bins != params.bins:
        raise ValueError("bin count does not match frame parameters")
    return _overlap_add(lambda c, e: data[:, c:e], channels, n_frames,
                        params, num_samples)


def _overlap_add(rows, channels, n_frames, params, num_samples):
    """synthesize's overlap-add pass over a spectrum of (channels,
    n_frames) frames given by rows: rows(c, e) returns frames [c, e),
    (channels, e - c, bins), as a view or as scratch it makes for one
    chunk.  It is called from every frame block, for at most _CHUNK
    frames at a time, so it follows _by_frames's rules."""
    window = sqrt_hann(params.frame_len)

    # the signal starts one hop in, so its hop-block i is the second half
    # of frame i plus the first half of frame i + 1; adding both into
    # zeros, in that order, gives a sum per sample equal to
    # frame-by-frame overlap-add
    hop = params.hop
    y = np.zeros((channels, max(-(-num_samples // hop), n_frames), hop))

    def block(a, b):
        frames = np.empty((channels, min(_CHUNK, b - a), params.frame_len))
        for c in range(a, b, _CHUNK):
            e = min(c + _CHUNK, b)
            part = frames[:, :e - c]
            np.fft.irfft(rows(c, e), n=params.frame_len, axis=2, out=part)
            part *= window
            y[:, c:e] += part[..., hop:]
            # the chunk before added frame c - 1's second half already;
            # frame a's first half is the block before's
            lo = max(c, a + 1)
            y[:, lo - 1:e - 1] += part[:, lo - c:, :hop]
        if b < n_frames:
            # the next block makes frame b too; its first half is made
            # again here from the same spectrum row
            head = np.fft.irfft(rows(b, b + 1)[:, 0],
                                n=params.frame_len)[:, :hop]
            head *= window[:hop]
            y[:, b - 1] += head

    _by_frames(n_frames, block)
    return y.reshape(channels, -1)[:, :num_samples]


def long_term_psd(spec):
    """Per-bin long-term PSD matrix, the mean of x[t,k] x[t,k]^H over frames.

    Returns an array of shape (bins, channels, channels); Hermitian and
    positive semi-definite per bin by construction.  Raises ValueError
    on a spectrogram without frames.
    """
    data = spec.data
    channels, n_frames, bins = data.shape
    if n_frames == 0:
        raise ValueError("the spectrogram's frame axis is empty")
    # laid out (channels, channels, bins), as one einsum over every bin
    # lays out its result
    psd = np.empty((channels, channels, bins), dtype=complex)
    psd = psd.transpose(2, 0, 1)

    # mean over t of the outer product across channels; exactly
    # Hermitian, as entry (n, m) sums the conjugates of (m, n)'s products.
    # Column n comes from one einsum against channel n's conjugate, over
    # a chunk of bins at a time, and sums each product in the same order
    # as one einsum over every channel and bin
    width = _BIN_CHUNK * channels

    def block(a, b):
        for c in range(a, b, width):
            e = min(c + width, b)
            part = data[..., c:e]
            for n in range(channels):
                np.einsum("mtk,tk->km", part, np.conj(part[n]),
                          out=psd[c:e, :, n])

    _by_frames(bins, block)
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

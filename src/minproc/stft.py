"""STFT analysis/synthesis and long-term spectral statistics.

Square-root Hann windows are used on both the analysis and the synthesis
side at 50% overlap, so the overlapped window product sums to one and the
round trip is exact up to float rounding.  Signals are zero-padded by one
hop on either side before framing, which keeps every input sample under
full window coverage (no edge taper on the reconstruction).
"""

import math
import struct
from dataclasses import dataclass

import numpy as np

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
    n = x.shape[1]
    if n < params.frame_len:
        raise ValueError("insufficient samples")

    # zero-pad by one hop in front and to the end of the last frame
    n_frames = int(np.ceil(n / params.hop)) + 1
    padded = np.zeros((x.shape[0], (n_frames + 1) * params.hop))
    padded[:, params.hop:params.hop + n] = x

    window = sqrt_hann(params.frame_len)
    frames = np.lib.stride_tricks.sliding_window_view(
        padded, params.frame_len, axis=1)[:, ::params.hop, :] * window
    return Spectrogram(np.fft.rfft(frames, n=params.frame_len, axis=2))


def synthesize(spec, params, num_samples):
    """Overlap-add inverse STFT, shaped (channels, num_samples).

    The output is trimmed or zero-extended to ``num_samples``.
    """
    data = spec.data
    channels, n_frames, bins = data.shape
    if bins != params.bins:
        raise ValueError("bin count does not match frame parameters")

    frames = np.fft.irfft(data, n=params.frame_len, axis=2)
    frames *= sqrt_hann(params.frame_len)

    # the signal starts one hop in, so its hop-block i is the second half
    # of frame i plus the first half of frame i + 1; adding both into
    # zeros gives a sum per sample equal to frame-by-frame overlap-add
    hop = params.hop
    y = np.zeros((channels, max(-(-num_samples // hop), n_frames), hop))
    y[:, :n_frames] += frames[..., hop:]
    y[:, :n_frames - 1] += frames[:, 1:, :hop]
    return y.reshape(channels, -1)[:, :num_samples]


def long_term_psd(spec):
    """Per-bin long-term PSD matrix, the mean of x[t,k] x[t,k]^H over frames.

    Returns an array of shape (bins, channels, channels); Hermitian and
    positive semi-definite per bin by construction.
    """
    data = spec.data
    # mean over t of the outer product across channels; exactly
    # Hermitian, as entry (n, m) sums the conjugates of (m, n)'s products
    return np.einsum("mtk,ntk->kmn", data, np.conj(data)) / data.shape[1]


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

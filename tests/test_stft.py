"""STFT round-trip, Parseval, and long-term PSD checks."""

import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.io import wavfile

from minproc import stft
from minproc.stft import (WAV_DATA_LIMIT, WAV_RATE_LIMIT, FrameParams,
                          Spectrogram, analyze, long_term_psd, sqrt_hann,
                          synthesize, write_wav)
from oracles import analyze_by_frame, overlap_add, psd_by_whole_einsum

PARAMS = FrameParams.from_ms(16000, 32.0)

# block counts: one on the calling thread, and two, three and seven
# blocks, down to one frame per block
BLOCKS = (1, 2, 3, 7)

# frame counts around the 64-frame chunks of a block
CHUNK_EDGES = (63, 64, 65, 129)


def split_frames(monkeypatch, blocks):
    monkeypatch.setattr(stft, "_usable_cpus", lambda: blocks)


def signed_zero_signal(channels, n, seed):
    """Noise with a silent channel, a silent stretch and negative zeros."""
    x = np.random.default_rng(seed).standard_normal((channels, n))
    x[:, n // 3:n // 2] = 0.0
    x[-1, -5:] = -0.0
    if channels > 1:
        x[1] = -0.0
    return x


def test_frame_params_defaults():
    assert PARAMS.frame_len == 512
    assert PARAMS.hop == 256
    assert PARAMS.bins == 257
    assert PARAMS.freqs[0] == 0.0
    assert PARAMS.freqs[-1] == 8000.0


@pytest.mark.parametrize("frame_len", [511, 0, -2])
def test_frame_params_rejects_odd_or_empty_frame(frame_len):
    with pytest.raises(ValueError, match="frame_len"):
        FrameParams(16000, frame_len)


def test_window_overlap_adds_to_one():
    # squared sqrt-Hann at 50% hop must overlap-add to exactly 1
    w2 = sqrt_hann(512) ** 2
    cola = w2[:256] + w2[256:]
    assert np.max(np.abs(cola - 1.0)) <= 1e-10


def test_round_trip_exact():
    rng = np.random.default_rng(1234)
    x = rng.standard_normal(16000)
    y = synthesize(analyze(x, PARAMS), PARAMS, num_samples=x.size)
    assert y.shape == (1, x.size)  # one channel keeps its channel axis
    err = np.linalg.norm(y[0] - x) / np.linalg.norm(x)
    assert err <= 1e-8


def test_round_trip_multichannel():
    rng = np.random.default_rng(7)
    x = rng.standard_normal((3, 5000))
    spec = analyze(x, PARAMS)
    assert spec.channels == 3
    assert spec.data.shape[2] == 257
    y = synthesize(spec, PARAMS, num_samples=5000)
    assert y.shape == (3, 5000)
    assert np.max(np.abs(y - x)) <= 1e-10 * np.max(np.abs(x))


def test_round_trip_awkward_length():
    # length not a multiple of the hop
    rng = np.random.default_rng(99)
    x = rng.standard_normal(10000 + 123)
    y = synthesize(analyze(x, PARAMS), PARAMS, num_samples=x.size)[0]
    assert np.linalg.norm(y - x) / np.linalg.norm(x) <= 1e-8


# analyze needs a full frame, so it makes at least three frames
@pytest.mark.parametrize("blocks", BLOCKS)
@pytest.mark.parametrize("channels", [1, 2, 3])
@pytest.mark.parametrize("n, n_frames", [
    (512, 3), (600, 4), (4000, 17),
    *(((f - 1) * PARAMS.hop, f) for f in CHUNK_EDGES)])
def test_analysis_matches_frame_loop_bit_for_bit(monkeypatch, blocks,
                                                 channels, n, n_frames):
    split_frames(monkeypatch, blocks)
    x = signed_zero_signal(channels, n, seed=channels)
    expected = analyze_by_frame(x, PARAMS)
    assert expected.shape == (channels, n_frames, PARAMS.bins)
    data = analyze(x, PARAMS).data
    assert np.array_equal(data, expected)
    assert np.array_equal(np.signbit(data.real), np.signbit(expected.real))
    assert np.array_equal(np.signbit(data.imag), np.signbit(expected.imag))


def test_synthesis_matches_frame_loop_bit_for_bit(monkeypatch):
    # signed zeros included: a silent channel and a silent stretch
    rng = np.random.default_rng(31)
    x = rng.standard_normal((3, 4000))
    x[1] = 0.0
    x[2, 1000:2500] = 0.0
    data = analyze(x, PARAMS).data
    data[0, 5] = -0.0
    cases = [(data, (4000, 600, 4351, 4352, 4353, 9000))]
    # 2, 3, 5 frames and the chunk edges at 1-3 channels, negative zeros
    # in every channel
    for channels in (1, 2, 3):
        for n_frames in (2, 3, 5, *CHUNK_EDGES):
            spec = (rng.standard_normal((channels, n_frames, PARAMS.bins))
                    + 1j * rng.standard_normal((channels, n_frames,
                                                PARAMS.bins)))
            spec[:, n_frames // 2] = -0.0
            cases.append((spec, (1, PARAMS.hop * n_frames - 1,
                                 PARAMS.hop * (n_frames + 2))))
    for spec, lengths in cases:
        channels, n_frames, _ = spec.shape
        frames = np.fft.irfft(spec, n=PARAMS.frame_len, axis=2) \
            * sqrt_hann(PARAMS.frame_len)
        pad = PARAMS.frame_len - PARAMS.hop
        span = overlap_add(frames, PARAMS.hop)[:, pad:]
        # the 17 frames of x span 4352 samples after the first hop:
        # shorter outputs are trimmed, longer ones zero-extended
        for num_samples in lengths:
            expected = np.zeros((channels, num_samples))
            m = min(num_samples, span.shape[1])
            expected[:, :m] = span[:, :m]
            for blocks in BLOCKS:
                split_frames(monkeypatch, blocks)
                y = synthesize(Spectrogram(spec), PARAMS, num_samples)
                assert np.array_equal(y, expected)
                assert np.array_equal(np.signbit(y), np.signbit(expected))


def test_synthesis_of_no_frames_is_silence():
    spec = Spectrogram(np.zeros((2, 0, PARAMS.bins), dtype=complex))
    for num_samples in (0, 1, 600):
        y = synthesize(spec, PARAMS, num_samples)
        assert y.shape == (2, num_samples) and not np.any(y)


def traced_peak(fn, *args):
    """fn(*args) and the most memory tracemalloc saw it hold beyond what
    was held before the call."""
    fn(*args)  # first-call allocations stay out
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        result = fn(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak - before


# 2 channels of 1001 frames: a scratch array of every frame would take
# (2 * 1001 * 512) floats, 8.2 MB, and two blocks' 64-frame chunks
# take 13% of that; the signal is read in place, with no zero-padded
# copy of it (4.1 MB)
def test_analysis_holds_no_full_size_scratch(monkeypatch):
    split_frames(monkeypatch, 2)
    x = np.random.default_rng(3).standard_normal((2, 1000 * PARAMS.hop))
    spec, peak = traced_peak(analyze, x, PARAMS)
    full = 2 * spec.frames * PARAMS.frame_len * 8
    assert peak <= spec.data.nbytes + full // 4


def test_synthesis_holds_no_full_size_scratch(monkeypatch):
    split_frames(monkeypatch, 2)
    rng = np.random.default_rng(4)
    shape = (2, 1001, PARAMS.bins)
    spec = Spectrogram(rng.standard_normal(shape)
                       + 1j * rng.standard_normal(shape))
    y, peak = traced_peak(synthesize, spec, PARAMS, 1000 * PARAMS.hop)
    full = 2 * spec.frames * PARAMS.frame_len * 8
    assert peak <= y.base.nbytes + full // 4


def test_long_term_psd_holds_no_full_size_conjugate(monkeypatch):
    # a conjugate of every bin would be as large as the data; two
    # blocks' 16-bin chunks take 12% of it
    split_frames(monkeypatch, 2)
    rng = np.random.default_rng(5)
    shape = (2, 1001, PARAMS.bins)
    spec = Spectrogram(rng.standard_normal(shape)
                       + 1j * rng.standard_normal(shape))
    psd, peak = traced_peak(long_term_psd, spec)
    assert peak <= psd.nbytes + spec.data.nbytes // 4


def overflow_in_a_worker(a, b):
    """Overflows in every block but the first, which the caller runs."""
    if a > 0:
        np.multiply(np.full(3, 1e308), 10.0, out=np.empty(3))


def test_worker_blocks_keep_the_callers_errstate(monkeypatch):
    split_frames(monkeypatch, 2)
    with np.errstate(over="raise"):
        with pytest.raises(FloatingPointError, match="overflow"):
            stft._by_frames(2, overflow_in_a_worker)
    calls = []
    with np.errstate(over="call", call=lambda err, flag: calls.append(err)):
        stft._by_frames(2, overflow_in_a_worker)
    assert calls == ["overflow"]


def test_worker_block_warnings_reach_the_caller(monkeypatch):
    split_frames(monkeypatch, 2)
    # as under the suite's error::RuntimeWarning filter
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(RuntimeWarning, match="overflow"):
            stft._by_frames(2, overflow_in_a_worker)
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        stft._by_frames(2, overflow_in_a_worker)
    assert [str(w.message) for w in seen] \
        == ["overflow encountered in multiply"]


def test_blocks_cover_every_frame_once_under_contention(monkeypatch):
    # eight blocks on fewer cores, switching threads as often as they can
    split_frames(monkeypatch, 8)
    runs = np.zeros(5000, dtype=int)

    def block(a, b):
        runs[a:b] += 1

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        stft._by_frames(runs.size, block)
    finally:
        sys.setswitchinterval(interval)
    assert np.all(runs == 1)


def test_a_busy_cpu_takes_a_block(monkeypatch):
    # a thread running beside the passes takes a CPU: a pass started
    # meanwhile cuts one block fewer, and never fewer than one
    split_frames(monkeypatch, 3)
    for busy, blocks in ((0, 3), (1, 2), (3, 1)):
        seen = []
        token = stft._busy_cpus.set(lambda: busy)
        try:
            stft._by_frames(30, lambda a, b: seen.append((a, b)))
        finally:
            stft._busy_cpus.reset(token)
        assert len(seen) == blocks
        assert sum(b - a for a, b in seen) == 30


def test_insufficient_samples():
    with pytest.raises(ValueError, match="insufficient samples"):
        analyze(np.zeros(100), PARAMS)


def test_parseval():
    """One-sided spectral power equals time-domain power.

    Every real sample sits under full (unit) window coverage thanks to the
    edge padding, so the windowed-frame energy telescopes to the signal
    energy and the DFT maps it 1:1 into the spectrum.
    """
    rng = np.random.default_rng(42)
    x = rng.standard_normal(48000)
    spec = analyze(x, PARAMS)
    weights = np.full(PARAMS.bins, 2.0)
    weights[0] = weights[-1] = 1.0
    p_spec = np.sum(weights * np.abs(spec.data[0]) ** 2) / PARAMS.frame_len
    p_time = np.sum(x ** 2)
    assert abs(p_spec - p_time) / p_time <= 1e-6


def _windowed_tone_dft(k0, psi, n_fft):
    """Closed-form one-sided DFT of sin(pi*n/N) * cos(2*pi*k0*n/N + psi)."""
    def dirichlet(u):
        u = np.mod(u + np.pi, 2 * np.pi) - np.pi
        small = np.abs(u) < 1e-12
        num = np.sin(n_fft * u / 2.0)
        den = np.sin(u / 2.0)
        out = np.where(small, float(n_fft),
                       np.where(small, 1.0, num) / np.where(small, 1.0, den))
        return out * np.exp(1j * u * (n_fft - 1) / 2.0)

    k = np.arange(n_fft // 2 + 1)
    w_tone = 2 * np.pi * k0 / n_fft
    w_half = np.pi / n_fft
    w_bin = 2 * np.pi * k / n_fft
    ep, em = np.exp(1j * psi), np.exp(-1j * psi)
    x = (ep * dirichlet(w_half + w_tone - w_bin)
         - em * dirichlet(-w_half - w_tone - w_bin)
         + em * dirichlet(w_half - w_tone - w_bin)
         - ep * dirichlet(-w_half + w_tone - w_bin))
    return x / 4j


def test_pure_tone_concentrates():
    """A tone on an exact bin stays inside the window mainlobe."""
    k0, phi = 32, 0.7
    f0 = k0 * PARAMS.sample_rate / PARAMS.frame_len
    n = np.arange(4 * PARAMS.frame_len)
    x = np.cos(2 * np.pi * f0 / PARAMS.sample_rate * n + phi)
    spec = analyze(x, PARAMS)

    # frame t starts at sample t*hop - pad = (t-1)*hop of the input
    t = 3
    offset = (t - 1) * PARAMS.hop
    psi = 2 * np.pi * k0 * offset / PARAMS.frame_len + phi
    expected = _windowed_tone_dft(k0, psi, PARAMS.frame_len)
    frame = spec.data[0, t]
    assert np.max(np.abs(frame - expected)) <= 1e-10 * np.max(np.abs(expected))

    energy = np.abs(frame) ** 2
    near = energy[k0 - 2:k0 + 3].sum()
    assert near / energy.sum() >= 0.99


def test_white_noise_psd_flat():
    """Mean per-bin power of white noise approaches sigma^2 * N/2."""
    rng = np.random.default_rng(2024)
    n_frames = 10_000
    x = rng.standard_normal((n_frames - 1) * PARAMS.hop)
    psd = long_term_psd(analyze(x, PARAMS))[:, 0, 0].real
    expected = PARAMS.frame_len / 2.0
    rel = np.abs(psd - expected) / expected
    assert np.max(rel) <= 0.10


def test_long_term_psd_structure():
    rng = np.random.default_rng(5)
    x1 = rng.standard_normal(40000)
    x = np.stack([x1, 0.5 * x1])
    psd = long_term_psd(analyze(x, PARAMS))
    assert psd.shape == (257, 2, 2)
    assert np.array_equal(psd, np.conj(psd).transpose(0, 2, 1))
    # fully coherent channels: off-diagonal = scaled diagonal
    assert np.allclose(psd[:, 0, 1].real, 0.5 * psd[:, 0, 0].real)
    eigs = np.linalg.eigvalsh(psd)
    assert eigs.min() >= -1e-9 * eigs.max()


@pytest.mark.parametrize("channels, frames", [(1, 3), (2, 40), (3, 1876),
                                             (4, 17), (6, 250)])
def test_long_term_psd_needs_no_symmetrising(channels, frames):
    # the einsum is exactly Hermitian, so symmetrising it as
    # 0.5 * (psd + psd^H) changes no bit, signed zeros included
    rng = np.random.default_rng(channels)
    for level in (1e-6, 1.0, 1e3):
        data = level * (rng.standard_normal((channels, frames, 9))
                        + 1j * rng.standard_normal((channels, frames, 9)))
        psd = long_term_psd(Spectrogram(data))
        old = 0.5 * (psd + np.conj(psd).transpose(0, 2, 1))
        assert psd.tobytes() == old.tobytes()


@pytest.mark.parametrize("blocks", BLOCKS)
@pytest.mark.parametrize("bins", [9, 31, 32, 33, 257])
def test_long_term_psd_is_one_einsum_byte_for_byte(monkeypatch, blocks,
                                                    bins):
    # one einsum per conjugated channel, over chunks of bins within each
    # block: the same sum over frames, per entry, as one einsum over
    # every channel and bin, for negative zeros, subnormals, infinities
    # and NaNs too; a NaN made by inf - inf takes its sign from the
    # einsum's inner loop, which depends on the chunk's width, so NaNs
    # match only as NaNs
    split_frames(monkeypatch, blocks)
    rng = np.random.default_rng(bins)
    special = np.array([np.inf, -np.inf, np.nan, 5e-324, -2.5e-310])
    for channels, frames in ((1, 3), (2, 40), (3, 129)):
        shape = (channels, frames, bins)
        data = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        data[:, :, bins // 2] = -0.0
        plain = long_term_psd(Spectrogram(data))
        assert plain.tobytes() == psd_by_whole_einsum(data).tobytes()
        for part in (data.real, data.imag):
            at = rng.random(shape) < 0.02
            part[at] = rng.choice(special, np.count_nonzero(at))
        with np.errstate(invalid="ignore"):  # inf - inf in the sums
            psd = long_term_psd(Spectrogram(data))
            expected = psd_by_whole_einsum(data)
        psd, expected = (np.ascontiguousarray(a).view(float)
                         for a in (psd, expected))
        nan = np.isnan(expected)
        assert np.array_equal(np.isnan(psd), nan)
        assert psd[~nan].tobytes() == expected[~nan].tobytes()


def test_long_term_psd_needs_frames():
    with pytest.raises(ValueError, match="frame axis is empty"):
        long_term_psd(Spectrogram(np.zeros((2, 0, PARAMS.bins),
                                           dtype=complex)))


def test_spectrogram_shape_checks():
    for shape in ((5,), (4, 257)):
        with pytest.raises(ValueError):
            Spectrogram(np.zeros(shape, dtype=complex))
    s = Spectrogram(np.zeros((1, 4, 257), dtype=complex))
    assert s.channels == 1 and s.frames == 4


def test_wav_round_trip(tmp_path):
    rng = np.random.default_rng(11)
    x = 0.9 * rng.uniform(-1.0, 1.0, size=(2, 4000))
    path = tmp_path / "x.wav"
    write_wav(path, 16000, x)
    rate, y = wavfile.read(path)
    assert rate == 16000
    assert y.dtype == np.float32
    assert y.T.shape == x.shape
    assert np.max(np.abs(y.T - x)) <= 1e-6


def test_wav_mono(tmp_path):
    x = np.sin(np.linspace(0, 20, 1000))
    path = tmp_path / "mono.wav"
    write_wav(path, 16000, x)
    _, y = wavfile.read(path)
    assert y.shape == (1000,)
    assert np.allclose(y, x, atol=1e-6)


@pytest.mark.parametrize("channels", [1, 2, 3])
def test_wav_bytes_match_scipy(tmp_path, channels):
    x = np.random.default_rng(channels).standard_normal((channels, 777))
    ours, ref = tmp_path / "ours.wav", tmp_path / "ref.wav"
    write_wav(ours, 16000, x[0] if channels == 1 else x)
    wavfile.write(ref, 16000, (x[0] if channels == 1 else x.T)
                  .astype(np.float32))
    assert ours.read_bytes() == ref.read_bytes()


@pytest.mark.parametrize("bad", [np.nan, -np.inf, 1e300],
                         ids=lambda bad: f"float32-{bad}")
def test_wav_rejects_non_finite_samples(tmp_path, bad):
    x = np.zeros((2, 1000))
    x[1, 500] = bad  # 1e300 is finite, but not as float32
    path = tmp_path / "bad.wav"
    with pytest.raises(ValueError, match="non-finite"):
        write_wav(path, 16000, x)
    assert not path.exists()


def test_wav_rejects_too_many_samples(tmp_path):
    # the RIFF size field is 32 bits; a broadcast view of one sample
    # stands in for the 4 GiB of data
    path = tmp_path / "long.wav"
    with pytest.raises(ValueError, match="too many samples"):
        write_wav(path, 16000, np.broadcast_to(0.0, (WAV_DATA_LIMIT // 4 + 1,)))
    assert not path.exists()


@pytest.mark.parametrize("rate, channels", [
    (WAV_RATE_LIMIT + 1, 1), (WAV_RATE_LIMIT // 2 + 1, 2), (16000, 16384),
    (0, 1)])
def test_wav_rejects_rate_beyond_header(tmp_path, rate, channels):
    # the byte rate 4 * channels * rate is a 32-bit header field and the
    # block size 4 * channels a 16-bit one
    path = tmp_path / "fast.wav"
    with pytest.raises(ValueError, match="WAV header"):
        write_wav(path, rate, np.zeros((channels, 4)))
    assert not path.exists()


def test_wav_header_holds_highest_mono_rate(tmp_path):
    path = tmp_path / "fast.wav"
    write_wav(path, WAV_RATE_LIMIT, np.zeros(4))
    rate, y = wavfile.read(path)
    assert rate == WAV_RATE_LIMIT and y.shape == (4,)

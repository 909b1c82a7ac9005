"""Synthetic acoustic scenes with oracle spectral statistics.

A single talker and a set of point noise sources are placed in free space
and propagated to the microphones with anechoic direct-path transfer
functions.  Each source is drawn once in the time domain and shaped per
STFT bin (``make_source``), and mixing happens in the STFT domain, so the
multichannel mixture decomposes per bin exactly as x = d*s + u; the
matching waveforms are overlap-add syntheses of those spectra.

Statistics use the reference microphone (index 0) as the level anchor:
the steering vector is normalized to mic 0 and the speech power is the
clean speech power observed there.  This keeps the processed output of a
distortionless beamformer, the unprocessed passthrough, and the near-end
noise on one common scale.
"""

import math
from dataclasses import dataclass, field

import numpy as np

# analyze stays a name of this module, though the scene analyses through
# _analysis: perfbench/tracing.py wraps it here
from .stft import (WAV_DATA_LIMIT, WAV_RATE_LIMIT, _analysis, _by_chunks,
                   _frame_count, _overlap_add, analyze, long_term_psd,
                   synthesize)

__all__ = [
    "SceneConfig",
    "SceneSignals",
    "SpectralStats",
    "SOURCE_KINDS",
    "DB_LIMIT",
    "DISTANCE_LIMITS",
    "transfer_function",
    "steering_matrix",
    "lowpass_response",
    "make_source",
    "synthesize_scene",
]

SOURCE_KINDS = ("speech", "speech_shaped", "babble_like", "car_like", "white")

# default geometry in metres: two mics 2 cm apart, talker 1 m broadside
_TALKER = (1.50, 3.00, 1.00)
_NOISES = ((0.50, 1.00, 1.00), (0.75, 3.00, 1.00), (3.00, 1.60, 1.00))
_MICS = ((1.50, 2.00, 1.00), (1.50, 2.02, 1.00))

# finite level keys lie within +-DB_LIMIT dB: far beyond any physical
# level difference, and it keeps every power ratio 10^(dB/10) and every
# float32 WAV sample finite
DB_LIMIT = 300.0

# every source lies within these distances in metres of every mic: far
# beyond any acoustic scene, and they keep the 1/(4*pi*r) spreading and
# every power and covariance built from it finite
DISTANCE_LIMITS = (1e-6, 1e6)


@dataclass
class SceneConfig:
    sample_rate: int = 16000
    duration: float = 10.0
    seed: int = 0
    fe_noise_kind: str = "babble_like"
    ne_noise_kind: str = "car_like"
    fe_snr_db: float = 0.0
    ne_snr_db: float = -30.0
    mic_selfnoise_snr_db: float = 60.0
    talker_pos: tuple = _TALKER
    noise_positions: tuple = _NOISES
    mic_positions: tuple = _MICS
    speed_of_sound: float = 343.0

    def validate(self):
        if isinstance(self.seed, bool) or not isinstance(
                self.seed, (int, np.integer)) or self.seed < 0:
            raise ValueError("seed must be a nonnegative integer")
        if not isinstance(self.sample_rate, (int, np.integer)) \
                or self.sample_rate <= 0:
            raise ValueError("sample rate must be a positive integer")
        if not 0.0 < float(self.duration) < math.inf:
            raise ValueError("duration must be positive and finite")
        # each scene waveform is written as one mono float32 WAV: its
        # samples fit WAV_DATA_LIMIT bytes, and its header holds the byte
        # rate 4 * sample_rate in 32 bits
        n = float(self.duration) * self.sample_rate
        if not (math.isfinite(n) and 4 * round(n) <= WAV_DATA_LIMIT):
            raise ValueError("duration is too long: a scene's float32 WAV "
                             f"holds at most {WAV_DATA_LIMIT // 4} samples")
        if self.sample_rate > WAV_RATE_LIMIT:
            raise ValueError("sample_rate is too high: a mono float32 WAV "
                             f"header holds at most {WAV_RATE_LIMIT} Hz")
        for kind in (self.fe_noise_kind, self.ne_noise_kind):
            if kind not in SOURCE_KINDS:
                raise ValueError(f"unknown noise kind: {kind}")
        # +inf means the noise is absent; -inf would be noise alone
        for name in ("fe_snr_db", "ne_snr_db", "mic_selfnoise_snr_db"):
            v = float(getattr(self, name))
            if math.isnan(v) or v == -math.inf:
                raise ValueError(f"{name} must not be NaN or -inf")
            if abs(v) > DB_LIMIT and v != math.inf:
                raise ValueError(f"{name} must lie within +-{DB_LIMIT:g} dB "
                                 "or be inf")
        mics = np.atleast_2d(np.asarray(self.mic_positions, dtype=float))
        if mics.shape[0] < 1 or mics.shape[1] != 3:
            raise ValueError("need at least one microphone position in 3-D")
        noises = np.atleast_2d(np.asarray(self.noise_positions, dtype=float))
        if noises.shape[0] < 1 or noises.shape[1] != 3:
            raise ValueError("need at least one noise position in 3-D")
        talker = np.asarray(self.talker_pos, dtype=float)
        if talker.shape != (3,):
            raise ValueError("talker position must be 3-D")
        for name, pos in (("mic_positions", mics), ("talker_pos", talker),
                          ("noise_positions", noises)):
            if not np.all(np.isfinite(pos)):
                raise ValueError(f"{name} must be finite")
        # transfer_function divides by each source-to-mic distance
        lo, hi = DISTANCE_LIMITS
        r_max = 0.0
        for name, srcs in (("talker_pos", talker[None]),
                           ("noise_positions", noises)):
            with np.errstate(over="ignore"):  # an inf offset fails below
                offset = np.abs(srcs[:, None] - mics[None])
            # the per-axis bound comes first, so the norm cannot overflow
            dist = (np.linalg.norm(offset, axis=-1)
                    if np.all(offset <= hi) else np.inf)
            if not np.all((lo <= dist) & (dist <= hi)):
                raise ValueError(f"{name} must lie between {lo:g} m and "
                                 f"{hi:g} m from every microphone")
            r_max = max(r_max, float(np.max(dist)))
        # the propagation phase 2*pi*f*r/c must stay finite up to Nyquist;
        # the bound checked is twice that phase, a margin for rounding
        c = float(self.speed_of_sound)
        if not (0.0 < c < math.inf and math.isfinite(
                2.0 * math.pi * self.sample_rate * r_max / c)):
            raise ValueError("speed_of_sound must be positive and finite, "
                             "and keep the propagation phase finite")


@dataclass
class SpectralStats:
    """Oracle long-term statistics, referenced to microphone 0.

    sigma_s2[k]: clean speech power per bin at the reference mic.
    d[k, m]:     steering vector with d[k, 0] = 1.
    c_u[k]:      far-end noise covariance across mics (Hermitian PSD).
    sigma_n2[k]: near-end noise power per bin.
    """

    sigma_s2: np.ndarray
    d: np.ndarray
    c_u: np.ndarray
    sigma_n2: np.ndarray

    def validate(self):
        k, m = self.d.shape
        if self.sigma_s2.shape != (k,) or self.sigma_n2.shape != (k,):
            raise ValueError("stats shapes disagree")
        if self.c_u.shape != (k, m, m):
            raise ValueError("stats shapes disagree")
        if np.any(self.sigma_s2 < 0) or np.any(self.sigma_n2 < 0):
            raise ValueError("powers must be nonnegative")
        if not np.allclose(self.c_u, np.conj(self.c_u).transpose(0, 2, 1)):
            raise ValueError("noise covariance must be Hermitian")

    @property
    def bins(self):
        return self.d.shape[0]

    @property
    def channels(self):
        return self.d.shape[1]


@dataclass
class SceneSignals:
    """The reference-mic (mic 0) mixture waveform and the near-end noise,
    plus the mixture spectrum at every mic.

    Clean speech and far-end noise are not kept apart: their statistics
    are in SpectralStats, and only their sum ``spec_x`` is read.
    """

    x: np.ndarray
    ne_noise: np.ndarray
    spec_x: np.ndarray = field(repr=False)


def transfer_function(src_pos, mic_pos, freqs, speed_of_sound=343.0):
    """Anechoic direct-path response exp(-2j*pi*f*r/c) / (4*pi*r)."""
    r = float(np.linalg.norm(np.asarray(mic_pos, float) - np.asarray(src_pos, float)))
    if r <= 0.0:
        raise ValueError("zero distance")
    freqs = np.asarray(freqs, dtype=float)
    return np.exp(-2j * np.pi * freqs * r / speed_of_sound) / (4.0 * np.pi * r)


def steering_matrix(src_pos, mic_positions, freqs, speed_of_sound=343.0):
    """Stack transfer functions over mics; shape (len(freqs), n_mics)."""
    mics = np.atleast_2d(np.asarray(mic_positions, dtype=float))
    cols = [transfer_function(src_pos, mic, freqs, speed_of_sound) for mic in mics]
    return np.stack(cols, axis=1)


def _add_at_mics(acc, steer, rows):
    """acc += steer.T[:, None, :] * X through the (bins, mics) steering
    matrix, a chunk at a time: rows(c, e) returns frames [c, e) of the
    (1, frames, bins) source X, so no full-size product is made."""
    steer = np.ascontiguousarray(steer.T)[:, None, :]

    def add(c, e):
        acc[:, c:e] += steer * rows(c, e)

    _by_chunks(acc.shape[1], add)


def _levelled(data, scale):
    """rows(c, e) of _raw_source's (data, scale): frames [c, e) of the
    unit-power source data / scale, divided where read, never copied."""
    return lambda c, e: np.divide(data[:, c:e], scale)


# first-order Butterworth low-pass cutoff (Hz) of each shaped source kind
_CUTOFF_HZ = {"speech": 500.0, "speech_shaped": 500.0, "babble_like": 500.0,
              "car_like": 200.0}


def lowpass_response(freqs, cutoff, fs, order=1):
    """Complex response at ``freqs`` (Hz) of the bilinear-transform
    Butterworth low-pass of ``order``: prod_k K c / (j s - p_k K c), with
    c, s = cos, sin(pi f/fs), K = tan(pi cutoff/fs) and the analog poles
    p_k, so Nyquist maps to 0.  A cutoff at or above Nyquist passes every
    frequency."""
    f = np.asarray(freqs, dtype=float)[..., None] * (np.pi / fs)
    if 2.0 * cutoff >= fs:
        return np.ones(f.shape[:-1], dtype=complex)
    kc = math.tan(math.pi * cutoff / fs) * np.cos(f)
    poles = np.exp(1j * np.pi * (2 * np.arange(order) + order + 1)
                   / (2 * order))
    return np.prod(kc / (1j * np.sin(f) - poles * kc), axis=-1)


def _babble_envelope(n_frames, frame_rate, rng):
    """Per frame, sqrt(mean_i m_i^2) over eight talkers' AM envelopes
    m_i = max(1 + 0.5 e_i, 0.05): e_i is white noise at the frame rate,
    low-passed at 4 Hz in its rfft domain, at unit standard deviation.
    Eight independent talkers under m_i sum, frame by frame, to the power
    of one talker under this envelope."""
    freqs = np.fft.rfftfreq(n_frames, 1.0 / frame_rate)
    env = np.fft.irfft(np.fft.rfft(rng.standard_normal((8, n_frames)))
                       * lowpass_response(freqs, 4.0, frame_rate, order=2),
                       n=n_frames)
    std = env.std(axis=1, keepdims=True)
    np.divide(env, std, out=env, where=std > 0)
    return np.sqrt(np.mean(np.maximum(1.0 + 0.5 * env, 0.05) ** 2, axis=0))


# samples per chunk of a normal draw, each drawn by a generator of its own
_DRAW_CHUNK = 2**16


def _child(seq, *keys):
    """seq's child at ``keys``, as seq.spawn spawns it, but with no count
    kept: the same keys give the same child every time."""
    return np.random.SeedSequence(seq.entropy, pool_size=seq.pool_size,
                                  spawn_key=(*seq.spawn_key, *keys))


def _normal(n, seq, each_chunk=None):
    """n standard normal samples from the stream seq in one chunked pass,
    chunk k from seq's child k; each_chunk(c, e, part), if given, may then
    rewrite samples [c, e) in place, and follows _by_chunks's rules."""
    out = np.empty(n)

    def draw(c, e):
        part = out[c:e]
        np.random.default_rng(_child(seq, c // _DRAW_CHUNK)).standard_normal(
            out=part)
        if each_chunk is not None:
            each_chunk(c, e, part)

    _by_chunks(n, draw, _DRAW_CHUNK)
    return out


def make_source(kind, n_samples, params, seed):
    """One unit-power (mean |X|^2 = 1) source spectrum, (1, frames, bins):
    one time-domain draw, analysed once and shaped per bin by its low-pass
    response; babble is also scaled by its per-frame envelope.

    ``seed``, a numpy SeedSequence, alone decides the spectrum: the draw
    comes from its child 0, the pitch phase or babble envelope from 1."""
    data, scale = _raw_source(kind, n_samples, params, seed)
    # into a new array: normalising in place left the heap in a state
    # that gave a 10 s CLI sweep 3.6 times the page faults
    out = np.empty_like(data)
    _by_chunks(data.shape[1], lambda c, e: np.divide(
        data[:, c:e], scale, out=out[:, c:e]))
    return out


def _raw_source(kind, n_samples, params, seed):
    """make_source's spectrum before its normalisation, and the scale
    that normalises it: the root of its mean |X|^2, which every draw
    makes positive.  The shaping and the |X|^2 scratch are applied to
    each chunk of the analysis as soon as it is made."""
    if kind not in SOURCE_KINDS:
        raise ValueError(f"unknown source kind: {kind}")
    draw = (_pulse_train(n_samples, params, seed) if kind == "speech"
            else _normal(n_samples, _child(seed, 0)))
    data = np.empty((1, _frame_count(n_samples, params), params.bins),
                    dtype=complex)
    response = (lowpass_response(params.freqs, _CUTOFF_HZ[kind],
                                 params.sample_rate)
                if kind in _CUTOFF_HZ else None)
    envelope = (_babble_envelope(data.shape[1], params.sample_rate / params.hop,
                                 np.random.default_rng(_child(seed, 1)))[:, None]
                if kind == "babble_like" else None)
    sq = np.empty(data.shape)

    def shape(c, e, part):
        if response is not None:
            part *= response
        if envelope is not None:
            part *= envelope[c:e]
        np.abs(part, out=sq[:, c:e])
        np.square(sq[:, c:e], out=sq[:, c:e])

    _analysis(draw[None], params, data, shape)
    del draw  # read by the analysis only
    # one mean over the whole array, so its pairwise sum is unchanged
    return data, math.sqrt(np.mean(sq))


def _pulse_train(n_samples, params, seed):
    """The speech source's draw: a unit pulse wherever a pitch drifting
    around 110 Hz starts a cycle, plus 0.03 of white noise.  The cycle
    count is the floor of the pitch's integral from 0, in closed form, so
    each chunk of the draw makes its own pulses."""
    fs = params.sample_rate
    phase = np.random.default_rng(_child(seed, 1)).uniform(0.0, 2.0 * np.pi)

    def pulses(c, e, part):
        part *= 0.03
        # sample i > 0 has a pulse where the cycle count rises from
        # sample i - 1, so the chunk's counts start one sample early
        lo = max(c - 1, 0)
        # in place: each worker's malloc arena keeps what a chunk frees
        t = np.arange(lo, e, dtype=float)
        t /= fs
        arg = np.multiply(t, 2.0 * np.pi * 0.4)
        np.cos(np.add(arg, phase, out=arg), out=arg)
        np.subtract(np.cos(phase), arg, out=arg)
        arg *= 11.0 / (0.8 * np.pi)
        t *= 110.0
        np.floor(np.add(t, arg, out=t), out=t)
        part[lo + 1 - c:] += t[1:] > t[:-1]

    return _normal(n_samples, _child(seed, 0), pulses)


def _power_per_bin(rows, n_frames, bins):
    """np.mean(np.abs(X) ** 2, axis=0) of a (n_frames, bins) spectrum X
    given by rows: rows(c, e) returns frames [c, e), as chunk scratch.
    |X|^2 is filled a chunk at a time into one buffer, which one mean
    reduces."""
    power = np.empty((n_frames, bins))

    def fill(c, e):
        np.abs(rows(c, e), out=power[c:e])
        np.square(power[c:e], out=power[c:e])

    _by_chunks(n_frames, fill)
    return np.mean(power, axis=0)


def _snr_gain(ref_power, raw_power, snr_db):
    """Amplitude gain that scales a raw signal to the requested SNR."""
    if snr_db == math.inf or raw_power <= 0.0:
        return 0.0
    return math.sqrt(ref_power / (raw_power * 10.0 ** (snr_db / 10.0)))


def synthesize_scene(cfg, params):
    """Build the far-end mixture and near-end noise for one scenario.

    Returns (signals, stats).  The mixture spectrum is the clean speech
    plus the far-end noise at every mic, and the broadband SNRs at mic 0
    match the configured values.  An infinite SNR disables the
    corresponding noise entirely.  The clean speech at the mics and each
    normalised noise are formed a chunk of frames at a time where they
    are read, never whole; each source's spectrum is kept only until it
    is read, and the talker's one-channel source until it joins the
    far-end noise; the mixture spectrum is the one kept.
    """
    cfg.validate()
    if params.sample_rate != cfg.sample_rate:
        raise ValueError("frame parameters and scene sample rate disagree")
    n = int(round(cfg.duration * cfg.sample_rate))
    mics = np.atleast_2d(np.asarray(cfg.mic_positions, dtype=float))
    noises = np.atleast_2d(np.asarray(cfg.noise_positions, dtype=float))
    # one stream per draw, spawned from the seed: 0 the talker's, (1, i)
    # point noise i's, (2, m) mic m's self noise's, 3 the near-end noise's
    root = np.random.SeedSequence(cfg.seed)

    # the talker's one-channel source is kept; its product through the
    # steering vector, the clean speech at the mics, is formed a chunk at
    # a time, for the speech power at the reference mic and the clean
    # power per mic
    d_abs = steering_matrix(cfg.talker_pos, mics, params.freqs,
                            cfg.speed_of_sound)
    steer = np.ascontiguousarray(d_abs.T)[:, None, :]
    speech = make_source("speech", n, params, _child(root, 0))
    n_frames = speech.shape[1]
    sigma_s2 = _power_per_bin(lambda c, e: steer[0] * speech[0, c:e],
                              n_frames, params.bins)
    # clean speech power at each mic, the level reference
    clean = _overlap_add(lambda c, e: steer * speech[:, c:e], len(mics),
                         n_frames, params, n)
    p_clean = [np.mean(np.square(row, out=row)) for row in clean]
    del clean

    # point noise sources, mixed at the mics, then scaled to the far-end
    # SNR, which only mic 0's waveform sets
    fe_data = np.zeros((len(mics), n_frames, params.bins), complex)
    for i, pos in enumerate(noises):
        a_i = steering_matrix(pos, mics, params.freqs, cfg.speed_of_sound)
        _add_at_mics(fe_data, a_i, _levelled(*_raw_source(
            cfg.fe_noise_kind, n, params, _child(root, 1, i))))
    fe_0 = synthesize(fe_data[:1], params, n)[0]
    gain = _snr_gain(p_clean[0], np.mean(np.square(fe_0, out=fe_0)),
                     cfg.fe_snr_db)
    del fe_0

    # microphone self noise, referenced to the clean speech at each mic;
    # drawn one mic at a time, so no (mics, n) draw sits next to fe_data.
    # Each mic's far-end noise is scaled by the gain in the pass that
    # adds its self noise
    square = np.empty(n)
    for m in range(mics.shape[0]):
        row = _normal(n, _child(root, 2, m))
        row *= _snr_gain(p_clean[m], np.mean(np.square(row, out=square)),
                         cfg.mic_selfnoise_snr_db)

        def add(c, e, part):
            acc = fe_data[m, c:e]
            acc *= gain
            acc += part[0]

        _analysis(row[None], params, None, add)
    del row, square
    # C_U is taken before the clean speech joins the far-end noise in
    # place, making the mixture: fe + clean equals clean + fe bit for bit
    c_u = long_term_psd(fe_data)
    _add_at_mics(fe_data, d_abs, lambda c, e: speech[:, c:e])
    del speech
    # only the reference mic's mixture waveform is read
    x = synthesize(fe_data[:1], params, n)[0]

    # the near-end noise is levelled where its spectrum is read, and
    # scaled by gamma in the pass that takes its power per bin
    ne_rows = _levelled(*_raw_source(cfg.ne_noise_kind, n, params,
                                     _child(root, 3)))
    ne_noise = _overlap_add(ne_rows, 1, n_frames, params, n)[0]
    gamma = _snr_gain(p_clean[0], np.mean(ne_noise ** 2), cfg.ne_snr_db)
    ne_noise *= gamma
    sigma_n2 = _power_per_bin(lambda c, e: ne_rows(c, e)[0] * gamma,
                              n_frames, params.bins)

    stats = SpectralStats(sigma_s2, d_abs / d_abs[:, :1], c_u, sigma_n2)
    stats.validate()
    return SceneSignals(x, ne_noise, fe_data), stats

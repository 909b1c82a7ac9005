"""Synthetic acoustic scenes with oracle spectral statistics.

A single talker and a set of point noise sources are placed in free space
and propagated to the microphones with anechoic direct-path transfer
functions.  Mixing happens in the STFT domain, so the multichannel
mixture decomposes per bin exactly as x = d*s + u; the matching
waveforms are produced by overlap-add synthesis of those spectra.

Statistics use the reference microphone (index 0) as the level anchor:
the steering vector is normalized to mic 0 and the speech power is the
clean speech power observed there.  This keeps the processed output of a
distortionless beamformer, the unprocessed passthrough, and the near-end
noise on one common scale.
"""

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from scipy import signal as sig

from .stft import Spectrogram, analyze, long_term_psd, synthesize

__all__ = [
    "SceneConfig",
    "SceneSignals",
    "SpectralStats",
    "SOURCE_KINDS",
    "DB_LIMIT",
    "transfer_function",
    "steering_matrix",
    "make_source",
    "synthesize_scene",
    "estimate_stats",
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
        if not isinstance(self.sample_rate, (int, np.integer)) \
                or self.sample_rate <= 0:
            raise ValueError("sample rate must be a positive integer")
        if not 0.0 < self.duration < math.inf:
            raise ValueError("duration must be positive and finite")
        if self.fe_noise_kind not in SOURCE_KINDS:
            raise ValueError(f"unknown noise kind: {self.fe_noise_kind}")
        if self.ne_noise_kind not in SOURCE_KINDS:
            raise ValueError(f"unknown noise kind: {self.ne_noise_kind}")
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
        if np.asarray(self.talker_pos, dtype=float).shape != (3,):
            raise ValueError("talker position must be 3-D")

    @property
    def n_mics(self):
        return np.atleast_2d(np.asarray(self.mic_positions)).shape[0]


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
    """Time-domain components plus the spectra they were mixed from.

    The far-end noise is kept as its spectrum only; synthesize
    ``spec_fe_noise`` to get its waveform.
    """

    clean_at_mics: np.ndarray
    x: np.ndarray
    ne_noise: np.ndarray
    spec_clean: Spectrogram = field(repr=False, default=None)
    spec_fe_noise: Spectrogram = field(repr=False, default=None)
    spec_x: Spectrogram = field(repr=False, default=None)
    spec_ne: Spectrogram = field(repr=False, default=None)


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


def _shape_filter(kind, sample_rate):
    if kind == "speech_shaped":
        return sig.butter(1, 500.0, fs=sample_rate, btype="low")
    if kind == "car_like":
        return sig.butter(1, 200.0, fs=sample_rate, btype="low")
    raise ValueError(f"no shaping filter for kind: {kind}")


def _unit_rms(x):
    rms = np.sqrt(np.mean(x ** 2))
    return x / rms if rms > 0 else x


def _babble(n_samples, sample_rate, rng):
    """Eight independent speech-shaped talkers with slow random AM.

    Talker i shapes a (talker, envelope) noise pair drawn as one (2, n)
    fill, which holds exactly the values of two consecutive
    ``standard_normal(n)`` calls.  A helper thread draws pair i + 1 into
    the other of two caller-owned buffers while this thread shapes pair
    i; both steps release the GIL.  The draws keep their order, so the
    output and the final ``rng`` state match a one-thread loop bit for
    bit.  The helper only draws: allocations on it would grow its own
    heap arena, and a call to a module function would run outside the
    caller's call stack, where wrappers that time those functions
    cannot nest it.
    """
    b, a = _shape_filter("speech_shaped", sample_rate)
    be, ae = sig.butter(2, 4.0, fs=sample_rate, btype="low")
    talkers = 8
    total = np.zeros(n_samples)
    bufs = (np.empty((2, n_samples)), np.empty((2, n_samples)))
    with ThreadPoolExecutor(max_workers=1) as helper:
        pending = helper.submit(rng.standard_normal, out=bufs[0])
        for i in range(talkers):
            noise = pending.result()
            if i + 1 < talkers:
                pending = helper.submit(rng.standard_normal,
                                        out=bufs[(i + 1) % 2])
            talker = sig.lfilter(b, a, noise[0])
            env = sig.lfilter(be, ae, noise[1])
            env_std = np.std(env)
            if env_std > 0:
                env = env / env_std
            total += talker * np.maximum(1.0 + 0.5 * env, 0.05)
    return _unit_rms(total)


def make_source(kind, n_samples, sample_rate, rng):
    """Generate one unit-RMS source waveform of the given kind."""
    if kind == "white":
        return _unit_rms(rng.standard_normal(n_samples))

    if kind in ("speech_shaped", "car_like"):
        b, a = _shape_filter(kind, sample_rate)
        return _unit_rms(sig.lfilter(b, a, rng.standard_normal(n_samples)))

    if kind == "babble_like":
        return _babble(n_samples, sample_rate, rng)

    if kind == "speech":
        # harmonic pulse train with drifting pitch, then speech shaping
        t = np.arange(n_samples) / sample_rate
        drift_phase = rng.uniform(0.0, 2.0 * np.pi)
        f0 = 110.0 * (1.0 + 0.1 * np.sin(2.0 * np.pi * 0.4 * t + drift_phase))
        phase = 2.0 * np.pi * np.cumsum(f0) / sample_rate
        cycles = np.floor(phase / (2.0 * np.pi))
        pulses = np.zeros(n_samples)
        pulses[1:] = (np.diff(cycles) > 0).astype(float)
        pulses += 0.03 * rng.standard_normal(n_samples)
        b, a = _shape_filter("speech_shaped", sample_rate)
        return _unit_rms(sig.lfilter(b, a, pulses))

    raise ValueError(f"unknown source kind: {kind}")


def _snr_gain(ref_power, raw_power, snr_db):
    """Amplitude gain that scales a raw signal to the requested SNR."""
    if math.isinf(snr_db) and snr_db > 0:
        return 0.0
    if raw_power <= 0.0:
        return 0.0
    return math.sqrt(ref_power / (raw_power * 10.0 ** (snr_db / 10.0)))


def synthesize_scene(cfg, params):
    """Build the far-end mixture and near-end noise for one scenario.

    Returns (signals, stats).  The mixture spectrum satisfies
    spec_x = spec_clean + spec_fe_noise exactly, by construction, and the
    broadband SNRs at mic 0 match the configured values.  An infinite
    SNR disables the corresponding noise entirely.
    """
    cfg.validate()
    if params.sample_rate != cfg.sample_rate:
        raise ValueError("frame parameters and scene sample rate disagree")
    rng = np.random.default_rng(cfg.seed)
    n = int(round(cfg.duration * cfg.sample_rate))
    if n < params.frame_len:
        raise ValueError("insufficient samples")
    freqs = params.freqs
    mics = np.atleast_2d(np.asarray(cfg.mic_positions, dtype=float))
    n_mics = mics.shape[0]

    # talker through its steering vector
    source = make_source("speech", n, cfg.sample_rate, rng)
    spec_src = analyze(source, params)
    d_abs = steering_matrix(cfg.talker_pos, mics, freqs, cfg.speed_of_sound)
    clean_data = d_abs.T[:, None, :] * spec_src.data[0][None, :, :]
    spec_clean = Spectrogram(clean_data)
    clean_at_mics = np.atleast_2d(synthesize(spec_clean, params, n))

    # point noise sources, mixed at the mics before any scaling
    noises = np.atleast_2d(np.asarray(cfg.noise_positions, dtype=float))
    pts_data = np.zeros_like(clean_data)
    for pos in noises:
        v = make_source(cfg.fe_noise_kind, n, cfg.sample_rate, rng)
        a_i = steering_matrix(pos, mics, freqs, cfg.speed_of_sound)
        pts_data += a_i.T[:, None, :] * analyze(v, params).data[0][None, :, :]
    pts_wave = np.atleast_2d(synthesize(Spectrogram(pts_data), params, n))

    # microphone self noise, referenced to the clean speech at each mic
    selfnoise = rng.standard_normal((n_mics, n))
    for m in range(n_mics):
        selfnoise[m] *= _snr_gain(np.mean(clean_at_mics[m] ** 2),
                                  np.mean(selfnoise[m] ** 2),
                                  cfg.mic_selfnoise_snr_db)

    p_clean_ref = np.mean(clean_at_mics[0] ** 2)
    beta = _snr_gain(p_clean_ref, np.mean(pts_wave[0] ** 2), cfg.fe_snr_db)
    spec_fe = Spectrogram(beta * pts_data + analyze(selfnoise, params).data)

    spec_x = Spectrogram(spec_clean.data + spec_fe.data)
    x = np.atleast_2d(synthesize(spec_x, params, n))

    ne_noise = make_source(cfg.ne_noise_kind, n, cfg.sample_rate, rng)
    ne_noise = ne_noise * _snr_gain(p_clean_ref, np.mean(ne_noise ** 2),
                                    cfg.ne_snr_db)
    spec_ne = analyze(ne_noise, params)

    d_norm = d_abs / d_abs[:, :1]
    stats = estimate_stats(spec_clean, spec_fe, spec_ne, d_norm)
    signals = SceneSignals(clean_at_mics, x, ne_noise,
                           spec_clean, spec_fe, spec_x, spec_ne)
    return signals, stats


def estimate_stats(clean, noise_fe, noise_ne, d):
    """Long-term statistics from separated component spectrograms.

    The speech power is taken at the reference mic (channel 0 of
    ``clean``), matching the normalization of the steering vector ``d``.
    """
    sigma_s2 = np.mean(np.abs(clean.data[0]) ** 2, axis=0)
    c_u = long_term_psd(noise_fe)
    sigma_n2 = np.mean(np.abs(noise_ne.data[0]) ** 2, axis=0)
    stats = SpectralStats(sigma_s2, np.asarray(d, dtype=complex), c_u, sigma_n2)
    stats.validate()
    return stats

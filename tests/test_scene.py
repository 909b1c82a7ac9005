"""Scene synthesis: transfer functions, calibration, oracle statistics."""

import math
import threading

import numpy as np
import pytest

from minproc.scene import (SceneConfig, estimate_stats, make_source,
                           steering_matrix, synthesize_scene,
                           transfer_function)
from minproc.stft import FrameParams, analyze, long_term_psd, synthesize
from oracles import design_response, serial_babble

PARAMS = FrameParams.from_ms(16000, 32.0)


def short_cfg(**kw):
    kw.setdefault("duration", 3.0)
    return SceneConfig(**kw)


def fe_noise(signals):
    """The far-end noise at the mics, synthesized from its spectrum."""
    return synthesize(signals.spec_fe_noise, PARAMS, signals.x.shape[-1])


def test_transfer_function_values():
    freqs = np.array([0.0, 1000.0, 4000.0])
    h = transfer_function((0, 0, 0), (2.0, 0, 0), freqs, speed_of_sound=343.0)
    assert np.allclose(np.abs(h), 1.0 / (4.0 * np.pi * 2.0), rtol=1e-12)
    assert np.allclose(np.angle(h), np.angle(
        np.exp(-2j * np.pi * freqs * 2.0 / 343.0)))
    assert h[0] == pytest.approx(1.0 / (8.0 * np.pi))


def test_zero_distance_error():
    with pytest.raises(ValueError, match="zero distance"):
        transfer_function((1, 1, 1), (1, 1, 1), np.array([100.0]))


def test_steering_matrix_shape():
    d = steering_matrix((0, 0, 0), [(1, 0, 0), (2, 0, 0)], PARAMS.freqs)
    assert d.shape == (257, 2)
    assert np.abs(d[0, 0]) > np.abs(d[0, 1])  # nearer mic is louder


def test_mixture_identity_bitwise():
    signals, _ = synthesize_scene(short_cfg(seed=5), PARAMS)
    assert np.array_equal(signals.spec_x.data,
                          signals.spec_clean.data + signals.spec_fe_noise.data)


@pytest.mark.parametrize("snr_db", [-10.0, 0.0, 12.0])
def test_fe_snr_calibration(snr_db):
    signals, _ = synthesize_scene(short_cfg(seed=1, fe_snr_db=snr_db), PARAMS)
    p_clean = np.mean(signals.clean_at_mics[0] ** 2)
    p_noise = np.mean(fe_noise(signals)[0] ** 2)
    measured = 10.0 * np.log10(p_clean / p_noise)
    assert abs(measured - snr_db) <= 0.1


@pytest.mark.parametrize("snr_db", [-30.0, -5.0, 20.0])
def test_ne_snr_calibration(snr_db):
    signals, _ = synthesize_scene(short_cfg(seed=2, ne_snr_db=snr_db), PARAMS)
    p_clean = np.mean(signals.clean_at_mics[0] ** 2)
    p_noise = np.mean(signals.ne_noise ** 2)
    measured = 10.0 * np.log10(p_clean / p_noise)
    assert abs(measured - snr_db) <= 1e-9


def test_infinite_snr_gives_clean_mixture():
    cfg = short_cfg(seed=3, fe_snr_db=math.inf, mic_selfnoise_snr_db=math.inf,
                    ne_snr_db=math.inf)
    signals, _ = synthesize_scene(cfg, PARAMS)
    assert np.array_equal(signals.spec_x.data, signals.spec_clean.data)
    assert np.array_equal(signals.x, signals.clean_at_mics)
    assert np.all(fe_noise(signals) == 0.0)
    assert np.all(signals.ne_noise == 0.0)


def test_mic_selfnoise_level():
    # with the point sources muted, the residual is the 60 dB self noise
    cfg = short_cfg(seed=4, fe_snr_db=math.inf)
    signals, _ = synthesize_scene(cfg, PARAMS)
    p_clean = np.mean(signals.clean_at_mics[0] ** 2)
    p_noise = np.mean(fe_noise(signals)[0] ** 2)
    assert abs(10.0 * np.log10(p_clean / p_noise) - 60.0) <= 0.1


def test_stats_reference_normalization():
    signals, stats = synthesize_scene(short_cfg(seed=6), PARAMS)
    assert np.allclose(stats.d[:, 0], 1.0)
    assert np.all(stats.sigma_s2 >= 0.0)
    assert np.all(stats.sigma_n2 >= 0.0)
    assert np.allclose(stats.c_u, np.conj(stats.c_u).transpose(0, 2, 1))
    # speech covariance is rank one: sigma_s2 * d d^H reproduces the
    # long-term PSD of the clean spectrogram
    psd_clean = long_term_psd(signals.spec_clean)
    model = stats.sigma_s2[:, None, None] * np.einsum(
        "km,kn->kmn", stats.d, np.conj(stats.d))
    assert np.allclose(psd_clean, model, atol=1e-10 * np.max(np.abs(psd_clean)))


def test_determinism():
    cfg = short_cfg(seed=11)
    s1, t1 = synthesize_scene(cfg, PARAMS)
    s2, t2 = synthesize_scene(cfg, PARAMS)
    assert np.array_equal(s1.x, s2.x)
    assert np.array_equal(s1.ne_noise, s2.ne_noise)
    assert np.array_equal(t1.c_u, t2.c_u)
    s3, _ = synthesize_scene(short_cfg(seed=12), PARAMS)
    assert not np.array_equal(s1.x, s3.x)


def test_sample_rate_mismatch():
    cfg = short_cfg(sample_rate=8000)
    with pytest.raises(ValueError):
        synthesize_scene(cfg, PARAMS)


def test_config_validation():
    with pytest.raises(ValueError):
        short_cfg(fe_noise_kind="pink").validate()
    with pytest.raises(ValueError):
        short_cfg(ne_snr_db=float("nan")).validate()
    with pytest.raises(ValueError):
        short_cfg(mic_positions=((1, 2), (3, 4))).validate()
    with pytest.raises(ValueError):
        short_cfg(duration=-1.0).validate()


def _fit_scale(emp, model):
    num = np.sum(np.conj(model) * emp).real
    den = np.sum(np.abs(model) ** 2)
    return num / den


def test_noise_covariance_monte_carlo():
    """Empirical C_U approaches the ensemble model over 10^4 frames.

    For white point sources the ensemble covariance per bin is a common
    scale times sum_i a_i a_i^H; the scale is fitted globally, so any
    spatial or spectral mismatch shows up as per-bin error.
    """
    n_frames = 10_000
    duration = (n_frames - 1) * PARAMS.hop / PARAMS.sample_rate
    cfg = SceneConfig(duration=duration, seed=7, fe_noise_kind="white",
                      mic_selfnoise_snr_db=math.inf)
    _, stats = synthesize_scene(cfg, PARAMS)

    model = np.zeros_like(stats.c_u)
    for pos in cfg.noise_positions:
        a = steering_matrix(pos, cfg.mic_positions, PARAMS.freqs)
        model += np.einsum("km,kn->kmn", a, np.conj(a))
    scale = _fit_scale(stats.c_u, model)
    model = scale * model

    num = np.linalg.norm(stats.c_u - model, axis=(1, 2))
    den = np.linalg.norm(model, axis=(1, 2))
    assert np.max(num / den) <= 0.10


def test_speech_shaped_psd_matches_design():
    """Long-term source PSD tracks the shaping filter magnitude squared."""
    n_frames = 10_000
    n = (n_frames - 1) * PARAMS.hop
    rng = np.random.default_rng(13)
    x = make_source("speech_shaped", n, 16000, rng)
    psd = long_term_psd(analyze(x, PARAMS))[:, 0, 0].real
    h2 = design_response("speech_shaped", PARAMS.freqs, 16000) ** 2
    mask = h2 > 1e-4 * h2.max()
    scale = _fit_scale(psd[mask], h2[mask])
    rel = np.abs(psd[mask] - scale * h2[mask]) / (scale * h2[mask])
    assert np.max(rel) <= 0.10


def test_design_response_kinds():
    f = PARAMS.freqs
    assert np.all(design_response("white", f, 16000) == 1.0)
    car = design_response("car_like", f, 16000)
    # first-order lowpass at 200 Hz: half power at the cutoff, monotone
    cut = np.searchsorted(f, 200.0)
    assert np.isclose(car[cut], 1.0 / np.sqrt(2.0), atol=0.05)
    assert np.all(np.diff(car) <= 1e-12)
    with pytest.raises(ValueError):
        design_response("babble_like", f, 16000)


@pytest.mark.parametrize("kind", ["white", "speech_shaped", "babble_like",
                                  "car_like", "speech"])
def test_sources_unit_rms(kind):
    rng = np.random.default_rng(17)
    x = make_source(kind, 32000, 16000, rng)
    assert x.shape == (32000,)
    assert np.isclose(np.sqrt(np.mean(x ** 2)), 1.0, rtol=1e-9)


@pytest.mark.parametrize("seed, n", [(0, 32000), (1, 4001), (7, 1),
                                     (12, 16000 * 3 + 1)])
def test_babble_matches_serial_reference(seed, n):
    """The pipelined babble draws the same stream in the same order."""
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    x = make_source("babble_like", n, 16000, rng)
    assert np.array_equal(x, serial_babble(n, 16000, ref_rng))
    # later draws of synthesize_scene (self noise, near end) are unchanged
    assert rng.bit_generator.state == ref_rng.bit_generator.state


class _FailingRng:
    """Draws like a Generator until its third standard_normal call."""

    def __init__(self):
        self.calls = 0
        self.rng = np.random.default_rng(0)
        self.error = RuntimeError("draw failed")

    def standard_normal(self, *args, **kwargs):
        self.calls += 1
        if self.calls == 3:
            raise self.error
        return self.rng.standard_normal(*args, **kwargs)


def test_babble_draw_failure_propagates():
    before = threading.active_count()
    rng = _FailingRng()
    with pytest.raises(RuntimeError) as excinfo:
        make_source("babble_like", 8000, 16000, rng)
    assert excinfo.value is rng.error
    assert rng.calls == 3
    assert threading.active_count() == before


def test_car_like_is_lowpass():
    rng = np.random.default_rng(19)
    x = make_source("car_like", 160000, 16000, rng)
    psd = long_term_psd(analyze(x, PARAMS))[:, 0, 0].real
    f = PARAMS.freqs
    low = psd[(f > 0) & (f < 400)].mean()
    high = psd[f > 2000].mean()
    assert low / high > 30.0


def test_speech_source_is_harmonic():
    rng = np.random.default_rng(23)
    x = make_source("speech", 160000, 16000, rng)
    psd = long_term_psd(analyze(x, PARAMS))[:, 0, 0].real
    f = PARAMS.freqs
    # pitch near 110 Hz: strong energy in the first harmonics band
    voiced = psd[(f >= 80) & (f <= 500)].mean()
    floor = psd[f >= 6000].mean()
    assert voiced / floor > 100.0


def test_estimate_stats_shapes():
    rng = np.random.default_rng(29)
    clean = analyze(rng.standard_normal((2, 8000)), PARAMS)
    fe = analyze(rng.standard_normal((2, 8000)), PARAMS)
    ne = analyze(rng.standard_normal(8000), PARAMS)
    d = np.ones((PARAMS.bins, 2), dtype=complex)
    stats = estimate_stats(clean, fe, ne, d)
    assert stats.bins == 257 and stats.channels == 2
    assert np.allclose(stats.sigma_s2,
                       np.mean(np.abs(clean.data[0]) ** 2, axis=0))

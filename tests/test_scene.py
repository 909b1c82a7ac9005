"""Scene synthesis: transfer functions, calibration, oracle statistics."""

import dataclasses
import hashlib
import math
import multiprocessing
import threading
import tracemalloc

import numpy as np
import pytest
from scipy import signal as sig

from minproc import scene, stft
from minproc.beamform import apply_beamformer
from minproc.scene import (SOURCE_KINDS, SceneConfig, SceneSignals,
                           lowpass_response, make_source, steering_matrix,
                           synthesize_scene, transfer_function)
from minproc.stft import FrameParams, analyze, long_term_psd, synthesize
from oracles import (DRAW_CHUNK, babble_envelope, design_response,
                     normal_draw, pulse_train, scene_components)

PARAMS = FrameParams.from_ms(16000, 32.0)
MICS = SceneConfig().mic_positions
THREE_MICS = MICS + ((1.50, 2.04, 1.00),)


def short_cfg(**kw):
    kw.setdefault("duration", 3.0)
    return SceneConfig(**kw)


def clean_and_fe_noise(cfg):
    """The clean speech and far-end noise waveforms at the mics, from
    the oracle's component spectra of ``cfg``'s scene."""
    parts = scene_components(cfg, PARAMS)
    n = round(cfg.duration * cfg.sample_rate)
    return (synthesize(parts.clean, PARAMS, n),
            synthesize(parts.fe_noise, PARAMS, n))


# the scenes the oracle composition is checked on; the scene's draws
# depend on the noise kinds, so every kind is the far-end noise once and
# the near-end noise once, at one mic and at three
SCENES = {
    "default": {},
    "3-mic": {"mic_positions": THREE_MICS},
    "one-mic": {"mic_positions": MICS[:1]},
    "noise-free": {"fe_snr_db": math.inf, "mic_selfnoise_snr_db": math.inf,
                   "ne_snr_db": math.inf},
    **{f"{fe}+{ne}-{len(mics)}-mic": {"fe_noise_kind": fe,
                                      "ne_noise_kind": ne,
                                      "mic_positions": mics}
       for fe, ne in zip(SOURCE_KINDS, SOURCE_KINDS[1:] + SOURCE_KINDS[:1])
       for mics in (MICS[:1], THREE_MICS)},
}


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


@pytest.mark.parametrize("kw", SCENES.values(), ids=SCENES)
def test_scene_is_oracle_composition_bit_for_bit(kw):
    """The mixture is clean speech plus far-end noise, and each statistic
    is taken from its own component, bit for bit as the oracle composes
    them."""
    cfg = short_cfg(seed=4, **kw)
    signals, stats = synthesize_scene(cfg, PARAMS)
    parts = scene_components(cfg, PARAMS)
    spec_x = parts.clean + parts.fe_noise
    assert np.array_equal(signals.spec_x, spec_x)
    assert np.array_equal(signals.x, synthesize(spec_x[:1], PARAMS, 48000)[0])
    assert np.array_equal(signals.ne_noise, parts.ne_noise)
    assert np.array_equal(stats.sigma_s2,
                          np.mean(np.abs(parts.clean[0]) ** 2, axis=0))
    assert np.array_equal(stats.d, parts.d)
    assert np.array_equal(stats.c_u, long_term_psd(parts.fe_noise))
    assert np.array_equal(stats.sigma_n2,
                          np.mean(np.abs(parts.ne_spec[0]) ** 2, axis=0))


def test_failed_scene_leaves_no_draw_running(monkeypatch):
    """A scene whose third analysis fails raises, and leaves no thread
    running: every pass, its draws' among them, joins its runs."""
    calls = []
    analysis = scene._analysis

    def fail_third_analysis(x, params, data, each_chunk=None):
        calls.append(None)
        if len(calls) == 3:
            raise ArithmeticError("the third analysis failed")
        return analysis(x, params, data, each_chunk)

    monkeypatch.setattr(scene, "_analysis", fail_third_analysis)
    monkeypatch.setattr(stft, "_usable_cpus", lambda: 2)
    threads = threading.active_count()
    with pytest.raises(ArithmeticError, match="third analysis"):
        synthesize_scene(short_cfg(duration=1.0), PARAMS)
    assert threading.active_count() == threads


def test_scene_holds_only_what_a_run_reads():
    """A returned scene holds the two waveforms, the mixture spectrum and
    the statistics; the component spectra are gone."""
    assert [f.name for f in dataclasses.fields(SceneSignals)] \
        == ["x", "ne_noise", "spec_x"]
    cfg = short_cfg(seed=4)
    synthesize_scene(cfg, PARAMS)  # first-call allocations stay out
    tracemalloc.start()
    try:
        signals, stats = synthesize_scene(cfg, PARAMS)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    arrays = (signals.x, signals.ne_noise, signals.spec_x,
              stats.sigma_s2, stats.d, stats.c_u, stats.sigma_n2)
    # the slack covers the waveforms' few trailing padding samples and
    # the objects around the arrays; one component spectrum is 1.5 MB
    assert held <= sum(a.nbytes for a in arrays) + 64 * 1024


def test_scene_holds_one_full_size_copy_at_a_time(monkeypatch):
    """While a point noise is analysed, the scene holds the two-mic
    far-end sum (2 spectra), the talker's one-channel source (1) and
    that noise's spectrum (1), with its draw and its |X|^2 scratch (2
    waveforms); the noise is normalised where the far-end sum reads it,
    with no normalised copy.  Holding the two-mic clean spectrum instead
    of the source, as well as the |X|^2 scratch beside a normalised
    output, came to about 6 spectra and 2 waveforms.  Every pass makes
    two runs at once."""
    monkeypatch.setattr(stft, "_usable_cpus", lambda: 2)
    cfg = short_cfg(duration=10.0, seed=4)
    synthesize_scene(cfg, PARAMS)  # first-call allocations stay out
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        signals, _ = synthesize_scene(cfg, PARAMS)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    spectrum = signals.spec_x[0].nbytes
    waveform = signals.x.nbytes
    # a third of a spectrum (0.9 MB here) covers both runs' chunks and
    # the small arrays
    assert peak - before <= 4 * spectrum + 3 * waveform + spectrum // 3


@pytest.mark.parametrize("kind", SOURCE_KINDS)
def test_make_source_is_the_same_at_any_block_count(monkeypatch, kind):
    # 4000 samples make 17 frames, one chunk; 57344 make 225 frames,
    # 4 chunks of the analysis and of the normalisation, dealt out in
    # 1, 2, 3 and 7 runs
    for n in (4000, 57344):
        spectra = []
        for runs in (1, 2, 3, 7):
            monkeypatch.setattr(stft, "_usable_cpus", lambda: runs)
            spectra.append(make_source(kind, n, PARAMS,
                                       np.random.SeedSequence(9)))
        for data in spectra[1:]:
            assert data.tobytes() == spectra[0].tobytes()


@pytest.mark.parametrize("kind", SOURCE_KINDS)
def test_one_seed_makes_one_source(kind):
    """make_source derives its streams from the seed's spawn key alone:
    a second call with the same SeedSequence, after it has spawned
    children of its own, gives the same bytes."""
    seq = np.random.SeedSequence(9)
    first = make_source(kind, 4000, PARAMS, seq)
    seq.spawn(3)
    assert make_source(kind, 4000, PARAMS, seq).tobytes() == first.tobytes()


@pytest.mark.parametrize("n", [4000, DRAW_CHUNK, DRAW_CHUNK + 1, 960000])
def test_draw_is_the_oracles_chunk_loop_bit_for_bit(monkeypatch, n):
    """A normal draw is the oracle's serial loop over spawned chunk
    streams bit for bit, at 1, 2, 3 and 7 runs."""
    seq = np.random.SeedSequence(8, spawn_key=(2, 1))
    ref = normal_draw(n, seq).tobytes()
    for runs in (1, 2, 3, 7):
        monkeypatch.setattr(stft, "_usable_cpus", lambda: runs)
        assert scene._normal(n, seq).tobytes() == ref


@pytest.mark.parametrize("n", [512, 4001, DRAW_CHUNK + 1, 960000])
def test_pulse_train_is_one_pass_bit_for_bit(n):
    """The speech draw, made a chunk at a time, is the oracle's one-pass
    expression bit for bit."""
    seq = np.random.SeedSequence(8)
    draw = scene._pulse_train(n, PARAMS, seq)
    assert draw.tobytes() == pulse_train(n, 16000, seq).tobytes()


def scene_digest(cfg):
    signals, stats = synthesize_scene(cfg, PARAMS)
    h = hashlib.sha256()
    for a in (signals.x, signals.ne_noise, signals.spec_x,
              *dataclasses.astuple(stats)):
        h.update(a.tobytes())
    return h.hexdigest()


def send_scene_digest(conn, cfg):
    try:
        conn.send(scene_digest(cfg))
    finally:
        conn.close()


def test_scene_is_the_same_at_any_cpu_count(monkeypatch):
    """The scene depends on its seed alone: 30 s make 8 chunks of each
    draw and 30 of each analysis, dealt out in 1, 2, 3 and 7 runs."""
    cfg = short_cfg(seed=6, duration=30.0)
    digests = set()
    for runs in (1, 2, 3, 7):
        monkeypatch.setattr(stft, "_usable_cpus", lambda: runs)
        digests.add(scene_digest(cfg))
    assert len(digests) == 1


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="no fork on this platform")
def test_forked_child_makes_the_same_scene(monkeypatch):
    """A child forked after passes ran on threads of the parent starts
    threads of its own, and its scene equals the parent's."""
    monkeypatch.setattr(stft, "_usable_cpus", lambda: 2)
    cfg = short_cfg(seed=6, duration=1.0)
    parent = scene_digest(cfg)
    ctx = multiprocessing.get_context("fork")
    recv, send = ctx.Pipe(duplex=False)
    child = ctx.Process(target=send_scene_digest, args=(send, cfg))
    child.start()
    send.close()
    try:
        # a child waiting on the parent's threads would hang here
        assert recv.poll(60), "the forked child sent no scene in 60 s"
        assert recv.recv() == parent
    finally:
        child.join(5)
        if child.is_alive():
            child.kill()
            child.join()
    assert child.exitcode == 0


@pytest.mark.parametrize("mics", [MICS[:1], MICS, THREE_MICS])
def test_mixture_waveform_is_reference_mic_synthesis(mics):
    """x is the mono mic-0 waveform, bit for bit the first channel of a
    synthesis of every mic."""
    signals, _ = synthesize_scene(short_cfg(seed=5, mic_positions=mics),
                                  PARAMS)
    full = synthesize(signals.spec_x, PARAMS, 48000)
    assert signals.x.shape == (48000,)
    assert np.array_equal(signals.x, full[0])
    assert np.array_equal(np.signbit(signals.x), np.signbit(full[0]))


@pytest.mark.parametrize("mics", [MICS[:1], MICS, THREE_MICS])
def test_every_spectrum_is_c_contiguous(mics):
    """Spectra are stored in C order (channels, frames, bins), so a pass
    over one channel reads contiguous memory.  (The oracle composition
    multiplies in the interleaved order, so the bit-for-bit test above
    checks independently that the layout moves no bit.)"""
    m = len(mics)
    rng = np.random.default_rng(6)
    sources = [make_source(kind, 16000, PARAMS, np.random.SeedSequence(6))
               for kind in ("speech", "babble_like", "car_like", "white")]
    signals, _ = synthesize_scene(short_cfg(duration=1.0, seed=6,
                                            mic_positions=mics), PARAMS)
    spectra = [*sources, analyze(rng.standard_normal((m, 16000)), PARAMS),
               signals.spec_x,
               apply_beamformer(signals.spec_x, np.ones((PARAMS.bins, m)))]
    for spec in spectra:
        assert type(spec) is np.ndarray and spec.flags.c_contiguous
    assert signals.spec_x.shape[0] == m


@pytest.mark.parametrize("snr_db", [-10.0, 0.0, 12.0])
def test_fe_snr_calibration(snr_db):
    clean, fe = clean_and_fe_noise(short_cfg(seed=1, fe_snr_db=snr_db))
    p_clean = np.mean(clean[0] ** 2)
    p_noise = np.mean(fe[0] ** 2)
    measured = 10.0 * np.log10(p_clean / p_noise)
    assert abs(measured - snr_db) <= 0.1


@pytest.mark.parametrize("snr_db", [-30.0, -5.0, 20.0])
def test_ne_snr_calibration(snr_db):
    cfg = short_cfg(seed=2, ne_snr_db=snr_db)
    signals, _ = synthesize_scene(cfg, PARAMS)
    p_clean = np.mean(clean_and_fe_noise(cfg)[0][0] ** 2)
    p_noise = np.mean(signals.ne_noise ** 2)
    measured = 10.0 * np.log10(p_clean / p_noise)
    assert abs(measured - snr_db) <= 1e-9


def test_infinite_snr_gives_clean_mixture():
    cfg = short_cfg(seed=3, fe_snr_db=math.inf, mic_selfnoise_snr_db=math.inf,
                    ne_snr_db=math.inf)
    signals, stats = synthesize_scene(cfg, PARAMS)
    clean, fe = clean_and_fe_noise(cfg)
    assert np.array_equal(signals.x, clean[0])
    assert np.all(fe == 0.0)
    assert np.all(stats.c_u == 0.0) and np.all(stats.sigma_n2 == 0.0)
    assert np.all(signals.ne_noise == 0.0)


def test_mic_selfnoise_level():
    # with the point sources muted, the residual is the 60 dB self noise
    clean, fe = clean_and_fe_noise(short_cfg(seed=4, fe_snr_db=math.inf))
    p_clean = np.mean(clean[0] ** 2)
    p_noise = np.mean(fe[0] ** 2)
    assert abs(10.0 * np.log10(p_clean / p_noise) - 60.0) <= 0.1


def test_stats_reference_normalization():
    cfg = short_cfg(seed=6)
    _, stats = synthesize_scene(cfg, PARAMS)
    assert np.allclose(stats.d[:, 0], 1.0)
    assert np.all(stats.sigma_s2 >= 0.0)
    assert np.all(stats.sigma_n2 >= 0.0)
    assert np.allclose(stats.c_u, np.conj(stats.c_u).transpose(0, 2, 1))
    # speech covariance is rank one: sigma_s2 * d d^H reproduces the
    # long-term PSD of the clean spectrogram
    psd_clean = long_term_psd(scene_components(cfg, PARAMS).clean)
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
    # the propagation phase 2*pi*f*r/c must stay finite up to Nyquist
    with pytest.raises(ValueError, match="speed_of_sound"):
        short_cfg(speed_of_sound=1e-305).validate()
    short_cfg(speed_of_sound=1e-290).validate()
    # a scene's mono float32 WAV holds at most WAV_DATA_LIMIT // 4
    # samples: 1073741811, 67108.86 s at 16 kHz
    short_cfg(duration=67108.0).validate()
    for duration in (67109.0, 1e12, 1e300):
        with pytest.raises(ValueError, match="duration"):
            short_cfg(duration=duration).validate()
    # the seed is checked before any draw, whose numpy errors would not
    # name it; a numpy integer is a seed, a bool is not
    for seed in (1.5, -1, True):
        with pytest.raises(ValueError, match="seed must be a nonnegative"):
            synthesize_scene(short_cfg(seed=seed), PARAMS)
    short_cfg(seed=np.uint32(3)).validate()


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


def _source_psd(kind, seed, n_frames=10_000):
    """Long-term PSD of one source spectrum over n_frames frames."""
    n = (n_frames - 1) * PARAMS.hop
    spec = make_source(kind, n, PARAMS, np.random.SeedSequence(seed))
    return long_term_psd(spec)[:, 0, 0].real


def _assert_psd_tracks_speech_shaping(kind):
    psd = _source_psd(kind, 13)
    h2 = design_response("speech_shaped", PARAMS.freqs, 16000) ** 2
    mask = h2 > 1e-4 * h2.max()
    scale = _fit_scale(psd[mask], h2[mask])
    rel = np.abs(psd[mask] - scale * h2[mask]) / (scale * h2[mask])
    assert np.max(rel) <= 0.10


def test_speech_shaped_psd_matches_design():
    """Long-term source PSD tracks the shaping filter magnitude squared."""
    _assert_psd_tracks_speech_shaping("speech_shaped")


def test_babble_psd_matches_speech_shaping():
    """Babble's slow envelope scales every bin alike, so its long-term PSD
    is proportional to the speech shaping's magnitude squared too."""
    _assert_psd_tracks_speech_shaping("babble_like")


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


@pytest.mark.parametrize("order, cutoff, fs, freqs", [
    (1, 500.0, 16000, PARAMS.freqs),
    (1, 200.0, 16000, PARAMS.freqs),
    (2, 500.0, 16000, PARAMS.freqs),
    (2, 4.0, 62.5, np.fft.rfftfreq(626, 1.0 / 62.5)),
])
def test_lowpass_response_matches_scipy_design(order, cutoff, fs, freqs):
    """The closed form equals freqz of scipy's bilinear Butterworth.

    Below Nyquist the two agree to 1e-12 relative; at Nyquist both are
    zero up to rounding, where freqz's (1 + z^-1)^order cancels.
    """
    b, a = sig.butter(order, cutoff, fs=fs)
    _, ref = sig.freqz(b, a, worN=freqs, fs=fs)
    h = lowpass_response(freqs, cutoff, fs, order)
    assert np.all(np.abs(h - ref)[:-1] <= 1e-12 * np.abs(ref)[:-1])
    assert abs(h[-1]) <= 1e-15 and abs(ref[-1]) <= 1e-15


def test_lowpass_cutoff_at_nyquist_passes_everything():
    assert np.all(lowpass_response(PARAMS.freqs, 8000.0, 16000) == 1.0)


@pytest.mark.parametrize("kind", ["white", "speech_shaped", "babble_like",
                                  "car_like", "speech"])
def test_sources_unit_rms(kind):
    """Every source spectrum has unit power: mean |X|^2 over frames and
    bins is 1."""
    x = make_source(kind, 32000, PARAMS, np.random.SeedSequence(17))
    assert x.shape == (1, 126, PARAMS.bins)
    assert np.isclose(np.mean(np.abs(x) ** 2), 1.0, rtol=1e-12)


@pytest.mark.parametrize("params", [
    FrameParams(16000, 512), FrameParams(800, 8), FrameParams(16000, 2)],
    ids=["512", "cutoff-above-nyquist", "2"])
def test_every_source_scale_is_positive(params):
    """The scale that levels a source, the root of its raw mean |X|^2,
    is finite and positive for every kind, from one frame of samples up:
    so the scene has no zero-power branch to take."""
    lengths = (params.frame_len, params.frame_len + 1, 4 * params.sample_rate)
    for kind in SOURCE_KINDS:
        for n in lengths:
            for seed in range(4):
                _, scale = scene._raw_source(kind, n, params,
                                             np.random.SeedSequence(seed))
                assert math.isfinite(scale) and scale > 0.0, (kind, n, seed)


@pytest.mark.parametrize("seed, n", [(0, 32000), (1, 4001), (12, 48001)])
def test_babble_is_speech_shaped_under_oracle_envelope(seed, n):
    """Babble is the speech-shaped draw of the same seed times the
    eight-talker envelope the oracle builds talker by talker from the
    seed's second child."""
    seq = np.random.SeedSequence(seed)
    x = make_source("babble_like", n, PARAMS, seq)
    shaped = make_source("speech_shaped", n, PARAMS, seq)
    env = babble_envelope(shaped.shape[1], 16000 / PARAMS.hop,
                          np.random.default_rng(seq.spawn(2)[1]))
    ref = shaped * env[:, None]
    ref /= np.sqrt(np.mean(np.abs(ref) ** 2))
    assert np.allclose(x, ref, rtol=1e-9, atol=1e-12)


def test_car_like_is_lowpass():
    psd = _source_psd("car_like", 19, n_frames=626)
    f = PARAMS.freqs
    low = psd[(f > 0) & (f < 400)].mean()
    high = psd[f > 2000].mean()
    assert low / high > 30.0


def test_speech_source_is_harmonic():
    psd = _source_psd("speech", 23, n_frames=626)
    f = PARAMS.freqs
    # pitch near 110 Hz: strong energy in the first harmonics band
    voiced = psd[(f >= 80) & (f <= 500)].mean()
    floor = psd[f >= 6000].mean()
    assert voiced / floor > 100.0


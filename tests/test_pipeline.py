"""End-to-end methods: recombination, rendering, blind baseline."""

import numpy as np

from minproc.beamform import BeamformerSet, build_beamformers
from minproc.filterbank import build_filterbank
from minproc.pipeline import (
    Method,
    blind_gain,
    recombine,
    render,
    run_blind_concat,
    run_joint,
    run_unprocessed,
)
from minproc.scene import SceneConfig, synthesize_scene
from minproc.solver import BandStatus
from minproc.stft import FrameParams, long_term_psd

PARAMS = FrameParams.from_ms(16000, 32.0)


def make_scene(fe_snr_db, ne_snr_db, seed=1, duration=2.0, **kw):
    cfg = SceneConfig(duration=duration, fe_snr_db=fe_snr_db,
                      ne_snr_db=ne_snr_db, seed=seed, **kw)
    signals, stats = synthesize_scene(cfg, PARAMS)
    return signals, stats, build_beamformers(stats), build_filterbank(PARAMS)


def test_favorable_scene_is_passthrough():
    # quiet everywhere: every band keeps the reference filter at unit
    # gain, and recombination reproduces it bin-exactly
    _, stats, bset, fb = make_scene(30.0, 30.0)
    res = run_joint(stats, bset, fb, a_star=0.7)
    assert all(s.status is BandStatus.FEASIBLE for s in res.band_solutions)
    assert np.all(res.alphas == 1.0) and np.all(res.gains == 1.0)
    # recombination weights sum to one per bin, so agreeing bands
    # reproduce the shared filter up to float summation
    assert np.allclose(res.w_mp, bset.w_ref, rtol=0.0, atol=1e-12)
    assert np.allclose(res.g_mp, 1.0, rtol=0.0, atol=1e-12)


def test_recombine_agreeing_bands_reproduce_value():
    rng = np.random.default_rng(0)
    fb = build_filterbank(PARAMS)
    shape = (PARAMS.bins, 2)
    w_ref = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    w_nr = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    bset = BeamformerSet(w_ref=w_ref, w_nr=w_nr)

    w_mp, g_mp = recombine(bset, fb, np.full(fb.n_bands, 0.5),
                           np.full(fb.n_bands, 2.0))
    covered = fb.covered()
    expect = 0.5 * (w_ref + w_nr)
    assert np.allclose(w_mp[covered], expect[covered], atol=1e-12)
    assert np.allclose(g_mp[covered], 2.0)
    # uncovered bins fall back to the reference at unit gain
    assert np.allclose(w_mp[~covered], w_ref[~covered])
    assert np.all(g_mp[~covered] == 1.0)


def test_recombine_overlap_bins_blend_by_eta():
    rng = np.random.default_rng(4)
    fb = build_filterbank(PARAMS)
    shape = (PARAMS.bins, 2)
    bset = BeamformerSet(
        w_ref=rng.standard_normal(shape) + 1j * rng.standard_normal(shape),
        w_nr=rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    alphas = rng.uniform(0.0, 1.0, fb.n_bands)
    gains = rng.uniform(1.0, 3.0, fb.n_bands)
    w_mp, g_mp = recombine(bset, fb, alphas, gains)

    # spell the sum out per bin and compare
    for k in np.flatnonzero(fb.covered())[::37]:
        w_hand = np.zeros(2, dtype=complex)
        g_hand = 0.0
        for j in range(fb.n_bands):
            eta = fb.recomb[j, k]
            if eta == 0.0:
                continue
            w_hand += eta * (alphas[j] * bset.w_ref[k]
                             + (1.0 - alphas[j]) * bset.w_nr[k])
            g_hand += eta * gains[j]
        assert np.allclose(w_mp[k], w_hand, atol=1e-12)
        assert abs(g_mp[k] - g_hand) < 1e-12


def test_unprocessed_renders_mic_plus_near_noise():
    signals, stats, _, fb = make_scene(0.0, -10.0)
    res = run_unprocessed(stats, fb)
    y, z = render(signals, res, PARAMS)
    assert np.allclose(y, signals.x[0], atol=1e-8)
    assert np.allclose(z, signals.x[0] + signals.ne_noise, atol=1e-8)


def test_zero_gain_renders_noise_only():
    signals, stats, _, fb = make_scene(0.0, -10.0)
    res = run_unprocessed(stats, fb)
    res.g_mp = np.zeros_like(res.g_mp)
    _, z = render(signals, res, PARAMS)
    assert np.array_equal(z, signals.ne_noise)


def test_rendered_energy_matches_spectral_power():
    signals, stats, bset, fb = make_scene(0.0, -30.0)
    res = run_joint(stats, bset, fb)
    _, z = render(signals, res, PARAMS)
    gy = z - signals.ne_noise

    c_x = long_term_psd(signals.spec_x)
    quad = np.einsum("km,kmn,kn->k", np.conj(res.w_mp), c_x, res.w_mp).real
    pw = np.full(PARAMS.bins, 2.0)
    pw[0] = pw[-1] = 1.0
    frames = signals.spec_x.data.shape[1]
    predicted = frames / PARAMS.fft_len * np.sum(pw * res.g_mp**2 * quad)

    # in the spectral domain the quadratic form is an identity
    z_spec = res.g_mp[None, :] * np.einsum("km,mtk->tk", np.conj(res.w_mp),
                                           signals.spec_x.data)
    e_spec = np.sum(pw[None, :] * np.abs(z_spec) ** 2) / PARAMS.fft_len
    assert abs(e_spec - predicted) < 1e-10 * predicted
    # the waveform realizes that energy only up to the overlap-add
    # projection: per-bin filtering leaves frames that are not the
    # analysis of any signal, and synthesis sheds the inconsistent part
    assert abs(np.sum(gy**2) - predicted) < 0.25 * predicted


def test_blind_without_far_noise_keeps_reference():
    # no far-end noise at all: the first stage has nothing to remove
    # and the distortionless reference gives a zero-error ratio
    _, stats, bset, fb = make_scene(np.inf, -10.0,
                                    mic_selfnoise_snr_db=np.inf)
    assert np.all(stats.c_u == 0.0)
    res = run_blind_concat(stats, bset, fb)
    assert np.all(res.alphas == 1.0)
    assert all(s.status is BandStatus.FEASIBLE for s in res.band_solutions)


def test_blind_without_near_noise_keeps_unit_gain():
    _, stats, bset, fb = make_scene(0.0, np.inf)
    assert np.all(stats.sigma_n2 == 0.0)
    res = run_blind_concat(stats, bset, fb)
    assert np.all(res.gains == 1.0)


def test_joint_without_near_noise_leaves_c2_inactive():
    # no near-end noise: nothing to cap, so no band can lose C2, and
    # nothing to lift speech above, so no band needs gain
    _, stats, bset, fb = make_scene(0.0, np.inf)
    assert np.all(stats.sigma_n2 == 0.0)
    res = run_joint(stats, bset, fb)
    statuses = {s.status for s in res.band_solutions}
    assert statuses <= {BandStatus.FEASIBLE, BandStatus.C1_INFEASIBLE}
    assert BandStatus.FEASIBLE in statuses
    assert np.all(res.gains == 1.0)


def test_blind_gain_rule():
    assert blind_gain(2.0, 1.0, 1.0) == 1.0  # already above target
    assert abs(blind_gain(0.5, 1.0, 7.0 / 3.0) - np.sqrt(14.0 / 3.0)) < 1e-12
    assert blind_gain(0.0, 1.0, 1.0) == 1.0  # nothing received


def test_blind_mistakes_noise_for_speech():
    # residual far-end noise inflates the blind stage's power estimate,
    # so its gain undershoots the joint method's wherever the joint
    # method amplifies
    _, stats, bset, fb = make_scene(0.0, -20.0)
    joint = run_joint(stats, bset, fb)
    blind = run_blind_concat(stats, bset, fb)
    mask = np.array([s.status is BandStatus.FEASIBLE
                     for s in joint.band_solutions]) & (joint.gains > 1.01)
    assert mask.sum() >= 5
    assert np.all(blind.gains[mask] <= joint.gains[mask] * (1.0 + 1e-6))
    assert blind.gains[mask].mean() < joint.gains[mask].mean()


def test_joint_never_below_unprocessed_in_feasible_bands():
    signals, stats, bset, fb = make_scene(0.0, -10.0)
    joint = run_joint(stats, bset, fb)
    unproc = run_unprocessed(stats, fb)
    for j, sol in enumerate(joint.band_solutions):
        if sol.status is not BandStatus.FEASIBLE:
            continue
        floor = min(joint.target_snrs[j], unproc.band_solutions[j].xi)
        assert sol.xi >= floor - 1e-9


def test_method_labels():
    assert Method.JOINT.value == "joint"
    assert Method.BLIND_CONCAT.value == "blind"
    assert Method.UNPROCESSED.value == "unprocessed"

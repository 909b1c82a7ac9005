"""Evaluation: ASII arithmetic, report invariants, broadband SNR oracle."""

import numpy as np
import pytest

from minproc.beamform import apply_beamformer, build_beamformers
from minproc.filterbank import build_filterbank
from minproc.metrics import asii, evaluate
from minproc.pipeline import render, run_joint, run_unprocessed
from minproc.scene import SceneConfig, synthesize_scene
from minproc.solver import BandStatus, subband_snr
from minproc.stft import FrameParams, synthesize

PARAMS = FrameParams.from_ms(16000, 32.0)


def make_scene(fe_snr_db, ne_snr_db, seed=1, **kw):
    cfg = SceneConfig(duration=2.0, fe_snr_db=fe_snr_db, ne_snr_db=ne_snr_db,
                      seed=seed, **kw)
    signals, stats = synthesize_scene(cfg, PARAMS)
    return signals, stats, build_beamformers(stats), build_filterbank(PARAMS)


def test_asii_known_values():
    gamma = np.full(4, 0.25)
    assert asii(np.ones(4), gamma) == pytest.approx(0.5, abs=1e-12)
    assert asii(np.full(4, 7.0 / 3.0), gamma) == pytest.approx(0.7, abs=1e-12)
    assert asii(np.zeros(4), gamma) == 0.0


def test_asii_rejects_negative_snr():
    with pytest.raises(ValueError, match="negative subband SNR"):
        asii(np.array([0.5, -0.1]), np.array([0.5, 0.5]))


def test_asii_monotone_in_each_band():
    rng = np.random.default_rng(8)
    gamma = rng.uniform(0.5, 1.5, 10)
    gamma /= gamma.sum()
    xi = rng.uniform(0.0, 5.0, 10)
    base = asii(xi, gamma)
    for j in range(10):
        bumped = xi.copy()
        bumped[j] += 0.1
        assert asii(bumped, gamma) > base


def test_feasible_bands_never_short_of_target():
    _, stats, bset, fb = make_scene(0.0, -20.0)
    res = run_joint(stats, bset, fb, a_star=0.7)
    report = evaluate(stats, res, fb)
    for j, status in enumerate(report.per_band_status):
        if status is BandStatus.FEASIBLE:
            assert report.xi[j] >= res.target_snrs[j] * (1.0 - 1e-9)


def test_all_feasible_run_reaches_target_asii():
    _, stats, bset, fb = make_scene(30.0, 30.0)
    res = run_joint(stats, bset, fb, a_star=0.7)
    assert all(s.status is BandStatus.FEASIBLE for s in res.band_solutions)
    report = evaluate(stats, res, fb)
    assert report.asii >= 0.7 - 1e-6


def test_quiet_near_end_equals_reference_passthrough():
    # with no near-end noise and healthy margins, the joint method is
    # the reference beamformer at (1, 1); its score must equal a direct
    # evaluation of that passthrough
    _, stats, bset, fb = make_scene(30.0, np.inf)
    res = run_joint(stats, bset, fb)
    assert np.all(res.alphas == 1.0) and np.all(res.gains == 1.0)
    report = evaluate(stats, res, fb)
    xi_ref = np.array([subband_snr(t, 1.0, 1.0) for t in res.terms])
    assert report.asii == pytest.approx(asii(xi_ref, fb.importance), abs=1e-12)


def test_report_carries_band_diagnostics():
    _, stats, bset, fb = make_scene(0.0, -20.0)
    res = run_joint(stats, bset, fb)
    report = evaluate(stats, res, fb)
    assert report.method == "joint"
    assert len(report.per_band_status) == fb.n_bands
    assert report.xi.shape == (fb.n_bands,)
    assert np.all(report.fe_snr > 0.0)
    assert res.report is report


def test_broadband_snr_matches_waveform_oracle():
    # keep every noise path analysis-consistent (no point sources, just
    # sensor noise) and the talker close by: overlap-add realizes the
    # spectral powers only approximately once per-bin filtering is in
    # play, and long propagation delays widen that gap
    signals, stats, bset, fb = make_scene(np.inf, -10.0, seed=3,
                                          talker_pos=(1.5, 2.3, 1.0))
    res = run_joint(stats, bset, fb)
    render(signals, res, PARAMS)
    report = evaluate(stats, res, fb)

    n = signals.x.shape[-1]
    speech = synthesize(apply_beamformer(signals.spec_clean, res.w_mp,
                                         res.g_mp), PARAMS, n)
    fe = synthesize(apply_beamformer(signals.spec_fe_noise, res.w_mp,
                                     res.g_mp), PARAMS, n)
    p_noise = np.sum(fe**2) + np.sum(signals.ne_noise**2)
    wave_db = 10.0 * np.log10(np.sum(speech**2) / p_noise)
    assert abs(wave_db - report.broadband_out_snr_db) < 0.5


def test_unprocessed_out_snr_matches_input_snr():
    # passthrough at the reference mic: output SNR is the scene's
    # near-end-dominated input SNR
    signals, stats, _, fb = make_scene(30.0, -10.0)
    res = run_unprocessed(stats, fb)
    report = evaluate(stats, res, fb)
    # near-end noise dominates: broadband SNR close to ne_snr_db
    assert report.broadband_out_snr_db == pytest.approx(-10.0, abs=1.0)

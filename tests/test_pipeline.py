"""End-to-end methods: recombination, rendering, blind baseline."""

import tracemalloc
from collections import Counter
from dataclasses import fields

import numpy as np
import pytest
import oracles
from oracles import (SCAN_POINTS, band_terms_by_members, blind_by_band,
                     blind_gain_by_band, covered_bins, recombine_by_mix,
                     reference_filter_pair, xi_by_band)

from minproc import beamform, pipeline, solver, stft
from minproc.beamform import (BeamformerSet, apply_beamformer,
                              build_beamformers)
from minproc.filterbank import allocate_targets, build_filterbank
from minproc.metrics import asii, evaluate
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
from minproc.solver import (REL_TOL, BandStatus, SolverTerms,
                            band_term_table, band_terms, solve_band,
                            subband_snr)
from minproc.stft import FrameParams, long_term_psd, synthesize

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
    assert np.all(res.statuses == BandStatus.FEASIBLE)
    assert np.all(res.alphas == 1.0) and np.all(res.gains == 1.0)
    # bands that pass through add nothing to the reference filter and
    # unit gain, so recombination reproduces both bit for bit
    assert np.array_equal(res.w_mp, bset.w_ref)
    assert np.array_equal(res.g_mp, np.ones(PARAMS.bins))


@pytest.mark.parametrize("mics", [2, 3])
def test_recombine_closed_form_matches_mix(mics):
    # the closed form sums the same per-bin average as 0.4.0's mix of
    # every band's combined filter, only in another order; half the
    # draws put some bands at alpha = 0 or 1, so bins mix both ends
    positions = tuple((1.50, 2.00 + 0.02 * m, 1.00) for m in range(mics))
    _, stats, bset, fb = make_scene(0.0, -30.0, mic_positions=positions)
    assert bset.w_ref.shape == (PARAMS.bins, mics)
    for seed in range(10):
        rng = np.random.default_rng(seed)
        alphas = rng.uniform(0.0, 1.0, fb.n_bands)
        if seed % 2:
            ends = rng.choice([0.0, 1.0], fb.n_bands)
            alphas = np.where(rng.uniform(size=fb.n_bands) < 0.5, ends,
                              alphas)
        gains = rng.uniform(1.0, 3.0, fb.n_bands)
        w_mp, g_mp = recombine(bset, fb, alphas, gains)
        w_ref, g_ref = recombine_by_mix(bset, fb, alphas, gains)
        assert np.all(np.linalg.norm(w_mp - w_ref, axis=1)
                      <= 1e-14 * np.linalg.norm(w_ref, axis=1))
        assert np.all(np.abs(g_mp - g_ref) <= 1e-14 * g_ref)


def test_recombine_is_exact_at_both_ends():
    # every band at alpha = 0 gives exactly w_nr, every band at alpha = 1
    # exactly w_ref, and unit gains exactly 1, on every covered bin; w_nr
    # spans 30 decades, so parts of it lie below the rounding of w_ref
    rng = np.random.default_rng(2)
    fb = build_filterbank(PARAMS)
    shape = (PARAMS.bins, 2)
    scale = 10.0 ** rng.uniform(-30.0, 0.0, shape)
    bset = BeamformerSet(
        w_ref=rng.standard_normal(shape) + 1j * rng.standard_normal(shape),
        w_nr=scale * (rng.standard_normal(shape)
                      + 1j * rng.standard_normal(shape)))
    covered = covered_bins(fb)
    ones = np.ones(fb.n_bands)
    for alpha, expect in ((0.0, bset.w_nr), (1.0, bset.w_ref)):
        w_mp, g_mp = recombine(bset, fb, np.full(fb.n_bands, alpha), ones)
        assert np.array_equal(w_mp[covered], expect[covered]), alpha
        assert np.array_equal(w_mp[~covered], bset.w_ref[~covered])
        assert np.array_equal(g_mp, np.ones(PARAMS.bins))


def test_recombine_agreeing_bands_reproduce_value():
    rng = np.random.default_rng(0)
    fb = build_filterbank(PARAMS)
    shape = (PARAMS.bins, 2)
    w_ref = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    w_nr = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    bset = BeamformerSet(w_ref=w_ref, w_nr=w_nr)

    w_mp, g_mp = recombine(bset, fb, np.full(fb.n_bands, 0.5),
                           np.full(fb.n_bands, 2.0))
    covered = covered_bins(fb)
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
    for k in np.flatnonzero(covered_bins(fb))[::37]:
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


@pytest.fixture
def stft_calls(monkeypatch):
    """Counts of render's apply_beamformer and synthesize calls."""
    calls = {"apply_beamformer": 0, "synthesize": 0}

    def counted(name):
        inner = getattr(pipeline, name)

        def call(*args):
            calls[name] += 1
            return inner(*args)
        monkeypatch.setattr(pipeline, name, call)

    counted("apply_beamformer")
    counted("synthesize")
    return calls


def test_unprocessed_renders_mic_plus_near_noise(stft_calls):
    # the mic-0 selector at unit gain: Y is the scene's mixture spectrum,
    # whose waveform the scene already holds
    signals, stats, _, fb = make_scene(0.0, -10.0)
    res = run_unprocessed(stats, fb)
    e1 = np.zeros((PARAMS.bins, 2), dtype=complex)
    e1[:, 0] = 1.0
    assert np.array_equal(res.w_mp, e1)
    assert np.array_equal(res.g_mp, np.ones(PARAMS.bins))
    y, z = render(signals, res, PARAMS)
    assert stft_calls == {"apply_beamformer": 0, "synthesize": 0}
    assert np.array_equal(y, signals.x) and y is not signals.x
    # y is the scene's own waveform, read-only so that writing into the
    # result cannot change the scene
    assert np.shares_memory(y, signals.x) and not y.flags.writeable
    assert np.array_equal(z, signals.x + signals.ne_noise)


@pytest.fixture
def render_passes(monkeypatch):
    """The channel count of each of render's overlap-add passes, and the
    frame count of each spectrum it beamforms."""
    seen = {"channels": [], "frames": []}

    def overlap_add(rows, channels, *args):
        seen["channels"].append(channels)
        return stft._overlap_add(rows, channels, *args)

    def filtered(weights, data, out=None):
        seen["frames"].append(data.shape[1])
        return beamform._beamform(weights, data, out=out)

    monkeypatch.setattr(pipeline, "_overlap_add", overlap_add)
    monkeypatch.setattr(pipeline, "_beamform", filtered)
    return seen


def test_unit_gain_render_synthesizes_once(render_passes, stft_calls):
    # acceptance criterion 4's favorable scene: every band passes
    # through, so gY is Y and the one pass has one channel; the
    # unprocessed result makes no pass at all
    signals, stats, bset, fb = make_scene(30.0, 30.0, seed=0)
    render(signals, run_unprocessed(stats, fb), PARAMS)
    assert render_passes == {"channels": [], "frames": []}
    res = run_joint(stats, bset, fb)
    assert np.all(res.g_mp == 1.0)
    y, z = render(signals, res, PARAMS)
    assert render_passes["channels"] == [1]
    # Y is beamformed a chunk at a time, never whole
    assert 0 < max(render_passes["frames"]) <= stft._CHUNK
    assert np.array_equal(z, y + signals.ne_noise)
    # the pass's threads look up neither name that the benchmark's
    # tracer times, whose span stack is not thread-safe
    assert stft_calls == {"apply_beamformer": 0, "synthesize": 0}


def test_processed_render_synthesizes_y_and_gy(render_passes, stft_calls):
    # y and gY are the two channels of one pass
    signals, stats, bset, fb = make_scene(0.0, -30.0)
    res = run_joint(stats, bset, fb)
    assert np.any(res.g_mp != 1.0)
    render(signals, res, PARAMS)
    assert render_passes["channels"] == [2]
    assert 0 < max(render_passes["frames"]) <= stft._CHUNK
    assert stft_calls == {"apply_beamformer": 0, "synthesize": 0}


@pytest.mark.parametrize("blocks", [1, 2, 3])
def test_render_equals_whole_spectrum_synthesis(monkeypatch, blocks):
    # the whole Y spectrum and g_mp times it, each synthesized alone
    monkeypatch.setattr(stft, "_usable_cpus", lambda: blocks)
    signals, stats, bset, fb = make_scene(0.0, -30.0, duration=1.0)
    res = run_joint(stats, bset, fb)
    y, z = render(signals, res, PARAMS)
    n = signals.x.shape[-1]
    y_spec = apply_beamformer(signals.spec_x, res.w_mp)
    gy = synthesize(y_spec * res.g_mp, PARAMS, n)[0]
    assert y.tobytes() == synthesize(y_spec, PARAMS, n)[0].tobytes()
    assert z.tobytes() == (gy + signals.ne_noise).tobytes()


def test_processed_render_holds_no_full_size_spectrum(monkeypatch):
    monkeypatch.setattr(stft, "_usable_cpus", lambda: 2)
    signals, stats, bset, fb = make_scene(0.0, -30.0, duration=10.0)
    res = run_joint(stats, bset, fb)
    assert np.any(res.g_mp != 1.0)
    render(signals, res, PARAMS)  # first-call allocations stay out
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        y, z = render(signals, res, PARAMS)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the output is one buffer holding y and z; each of the two runs
    # holds one chunk's two-channel spectrum and frames; a quarter of a
    # spectrum (0.6 MB here) covers the small arrays.  Y and gY, whole,
    # would be two spectra more
    assert z.base is y.base
    chunk = 2 * stft._CHUNK * (PARAMS.bins * 16 + PARAMS.frame_len * 8)
    spectrum = signals.spec_x[0].nbytes
    assert peak - before <= y.base.nbytes + 2 * chunk + spectrum // 4


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
    frames = signals.spec_x.shape[1]
    predicted = frames / PARAMS.frame_len * np.sum(pw * res.g_mp**2 * quad)

    # in the spectral domain the quadratic form is an identity
    z_spec = res.g_mp[None, :] * np.einsum("km,mtk->tk", np.conj(res.w_mp),
                                           signals.spec_x)
    e_spec = np.sum(pw[None, :] * np.abs(z_spec) ** 2) / PARAMS.frame_len
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
    assert np.all(res.statuses == BandStatus.FEASIBLE)


def test_noise_free_scene_scores_full_intelligibility():
    # no noise anywhere: every band delivers speech over zero noise, an
    # infinite SNR that ASII counts at its limit of one
    _, stats, bset, fb = make_scene(np.inf, np.inf,
                                    mic_selfnoise_snr_db=np.inf)
    assert np.all(stats.c_u == 0.0) and np.all(stats.sigma_n2 == 0.0)
    for res in (run_joint(stats, bset, fb), run_blind_concat(stats, bset, fb),
                run_unprocessed(stats, fb)):
        report = evaluate(stats, res, fb)
        assert report.asii == 1.0, res.method
        assert np.all(report.xi == np.inf), res.method
        assert np.all(res.statuses == BandStatus.FEASIBLE), res.method


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
    statuses = set(res.statuses)
    assert statuses <= {BandStatus.FEASIBLE, BandStatus.C1_INFEASIBLE}
    assert BandStatus.FEASIBLE in statuses
    assert np.all(res.gains == 1.0)


def test_infinite_mu_nr_is_the_zero_filter_limit():
    # mu_nr -> inf drives the noise-reduction Wiener filter to zero; the
    # joint method still solves and renders finite output
    signals, stats, _, fb = make_scene(0.0, -10.0)
    bset = build_beamformers(stats, 0.0, np.inf)
    assert np.all(bset.w_nr == 0.0)
    res = run_joint(stats, bset, fb)
    y, z = render(signals, res, PARAMS)
    assert np.all(np.isfinite(y)) and np.all(np.isfinite(z))
    assert np.all(np.isfinite(res.alphas)) and np.all(np.isfinite(res.gains))


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
    mask = (joint.statuses == BandStatus.FEASIBLE) & (joint.gains > 1.01)
    assert mask.sum() >= 5
    assert np.all(blind.gains[mask] <= joint.gains[mask] * (1.0 + 1e-6))
    assert blind.gains[mask].mean() < joint.gains[mask].mean()


def test_joint_never_below_unprocessed_in_feasible_bands():
    signals, stats, bset, fb = make_scene(0.0, -10.0)
    joint = run_joint(stats, bset, fb)
    unproc = run_unprocessed(stats, fb)
    xi_joint = evaluate(stats, joint, fb).xi
    xi_unproc = evaluate(stats, unproc, fb).xi
    feasible = joint.statuses == BandStatus.FEASIBLE
    assert feasible.any()
    floor = np.minimum(joint.table.target_snr, xi_unproc)
    assert np.all(xi_joint[feasible] >= floor[feasible] - 1e-9)


def test_method_labels():
    assert Method.JOINT.value == "joint"
    assert Method.BLIND_CONCAT.value == "blind"
    assert Method.UNPROCESSED.value == "unprocessed"


# scenes of the band-core checks: microphone counts, no noise at all,
# a quiet near end (the joint method loses the noise cap at
# delta_u_db = -6) and the zero-filter limit mu_nr = inf
MIC = (1.50, 2.00, 1.00)
CORE_SCENES = {
    "quiet_near_end": dict(ne_snr_db=10.0),
    "one_mic": dict(mic_positions=(MIC,)),
    "two_mics": {},
    "three_mics": dict(mic_positions=(MIC, (1.50, 2.02, 1.00),
                                      (1.52, 2.00, 1.00))),
    "noise_free": dict(fe_snr_db=np.inf, ne_snr_db=np.inf,
                       mic_selfnoise_snr_db=np.inf),
    "mu_nr_inf": {},
}


def core_scene(name):
    kw = {"fe_snr_db": 0.0, "ne_snr_db": -30.0, **CORE_SCENES[name]}
    _, stats, bset, fb = make_scene(kw.pop("fe_snr_db"),
                                    kw.pop("ne_snr_db"), seed=5, **kw)
    if name == "mu_nr_inf":
        bset = build_beamformers(stats, 0.0, np.inf)
    return stats, bset, fb


def assert_close(new, old):
    """Equal to 1e-12 relative; infinities equal."""
    new, old = np.asarray(new, dtype=float), np.asarray(old, dtype=float)
    assert np.array_equal(np.isinf(new), np.isinf(old))
    fin = np.isfinite(old)
    assert np.all(np.abs(new[fin] - old[fin]) <= 1e-12 * np.abs(old[fin]))


@pytest.mark.parametrize("name", sorted(CORE_SCENES))
@pytest.mark.parametrize("a_star", [0.6, 0.8])
def test_band_core_matches_per_band_integration(name, a_star):
    # the one-product band table against 0.3.0's band-by-band
    # integration and blind loop: same statuses, and alpha, g, xi and
    # ASII equal to 1e-12 relative.  The blind first stage's alpha, which
    # the oracle finds by a dense scan, agrees to the scan's step, and
    # its second stage is checked at the library's alpha
    stats, bset, fb = core_scene(name)
    _, targets = allocate_targets(a_star, fb)

    def per_band(pair):
        return [band_terms_by_members(stats, pair, fb, j, targets[j])
                for j in range(fb.n_bands)]

    joint_terms = per_band(bset)
    blind_res = run_blind_concat(stats, bset, fb, a_star)
    blind = blind_by_band(stats, bset, fb, joint_terms)
    step = 1.0 / (SCAN_POINTS - 1)
    assert np.all(np.abs(blind_res.alphas - [a for a, _ in blind]) <= step)
    unproc_terms = per_band(reference_filter_pair(stats))
    met = [xi_by_band(t, 1.0, 1.0) >= t.target_snr * (1.0 - REL_TOL)
           for t in unproc_terms]
    feasible = {True: BandStatus.FEASIBLE, False: BandStatus.C1_INFEASIBLE}
    runs = [(blind_res, joint_terms,
             [(a, blind_gain_by_band(t, a), feasible[m]) for t, a, (_, m)
              in zip(joint_terms, blind_res.alphas.tolist(), blind)]),
            (run_unprocessed(stats, fb, a_star), unproc_terms,
             [(1.0, 1.0, feasible[m]) for m in met])]
    for delta_u_db in (12.0, -6.0):
        runs.append((run_joint(stats, bset, fb, a_star, delta_u_db),
                     joint_terms,
                     [(s.alpha, s.gain, s.status) for s in
                      (solve_band(t, delta_u_db) for t in joint_terms)]))
    for res, terms, old in runs:
        assert res.statuses.tolist() == [o[2] for o in old]
        assert_close(res.alphas, [o[0] for o in old])
        assert_close(res.gains, [o[1] for o in old])
        report = evaluate(stats, res, fb)
        old_xi = [xi_by_band(t, a, g) for t, (a, g, _) in zip(terms, old)]
        assert_close(report.xi, old_xi)
        assert_close(report.asii, asii(old_xi, fb.importance))


def test_blind_first_stage_matches_dense_scan():
    # stage 1 takes the largest alpha whose clean-to-error ratio meets
    # the target, which a 200 001-point scan finds to within its step,
    # and where none does, the best ratio, which no scan point beats by
    # 1e-9 relative.  Error powers from random bands, the last three
    # with a double root, vanishing and flat, two bands without speech
    # and a target-0 band, met at alpha = 1
    rng = np.random.default_rng(35)
    bands = []
    for _ in range(1000):
        t = oracles.random_terms(rng)
        bands.append((t.sigma_n2, (t.ds_ref + t.du_ref, t.ds_nr + t.du_nr,
                                   t.ds_cross + t.du_cross), t.target_snr))
    bands += [(1.0, (1.0, 1.0, -2.0), 4.0), (1.0, (0.0, 0.0, 0.0), 1.0),
              (0.1, (1.0, 1.0, 2.0), 1.0), (0.0, (1.0, 2.0, 0.5), 1.0),
              (0.0, (0.0, 1.0, 0.0), 1.0), (1.0, (1.0, 2.0, 0.5), 0.0)]
    step = 1.0 / (SCAN_POINTS - 1)
    met = Counter()
    for clean, eps, target in bands:
        floor = target * (1.0 - REL_TOL)
        alpha, hit = solver._blind_alpha(clean, eps, floor)
        scan_alpha, scan_hit = oracles.first_stage_scan(clean, eps, floor)
        assert hit == scan_hit, (clean, eps, target)
        met[hit] += 1
        if hit:
            assert abs(alpha - scan_alpha) <= step, (clean, eps, target)
            # the alpha itself passes the stage's test: the margin
            # quadratic clean - floor * eps(alpha) is at least 0 there
            margin = [c - floor * e
                      for c, e in zip((clean, clean, 2.0 * clean), eps)]
            assert solver._at(alpha, margin) >= 0.0, (clean, eps, target)
        else:
            ratio = oracles.first_stage_ratio(clean, eps, [alpha, scan_alpha])
            assert ratio[0] >= ratio[1] * (1.0 - 1e-9), (clean, eps, target)
    assert met[True] >= 100 and met[False] >= 100, met


@pytest.mark.parametrize("name", sorted(CORE_SCENES))
def test_band_terms_is_a_row_of_the_table(name):
    stats, bset, fb = core_scene(name)
    targets = np.linspace(0.5, 3.0, fb.n_bands)
    table = band_term_table(stats, bset, fb, targets)
    assert isinstance(table, SolverTerms)
    columns = [getattr(table, f.name) for f in fields(SolverTerms)]
    assert all(c.shape == (fb.n_bands,) for c in columns)
    assert np.array_equal(table.target_snr, targets)
    for j in range(fb.n_bands):
        terms = band_terms(stats, bset, fb, j, targets[j])
        row = [getattr(terms, f.name) for f in fields(SolverTerms)]
        assert all(type(v) is float for v in row)
        assert np.array_equal(row, [c[j] for c in columns])


@pytest.mark.parametrize("name", sorted(CORE_SCENES))
def test_blind_distortion_is_the_error_pair_speech(name, monkeypatch):
    # the blind stage integrates the three speech columns of the error
    # pair (e1 - w_ref, e1 - w_nr) and no second filter pair
    stats, bset, fb = core_scene(name)
    e1 = reference_filter_pair(stats).w_ref
    error = BeamformerSet(w_ref=e1 - bset.w_ref, w_nr=e1 - bset.w_nr)
    distortion = pipeline._distortion_table(stats, bset, fb)
    assert distortion.shape == (fb.n_bands, 3)
    old = [band_terms_by_members(stats, error, fb, j, 1.0)
           for j in range(fb.n_bands)]
    for col, term in zip(distortion.T, ("ds_ref", "ds_nr", "ds_cross")):
        assert_close(col, [getattr(t, term) for t in old])
    monkeypatch.setattr(pipeline, "BeamformerSet", None)
    run_blind_concat(stats, bset, fb)


@pytest.mark.parametrize("name", sorted(CORE_SCENES))
def test_array_xi_is_per_band_subband_snr(name):
    # evaluate's one array expression against subband_snr band by band,
    # bit for bit
    stats, bset, fb = core_scene(name)
    for res in (run_joint(stats, bset, fb), run_blind_concat(stats, bset, fb),
                run_unprocessed(stats, fb)):
        xi = evaluate(stats, res, fb).xi
        # the per-band views read the arrays, built afresh each time
        solutions = res.band_solutions
        assert solutions is not res.band_solutions
        per_band = [subband_snr(t, s.alpha, s.gain)
                    for t, s in zip(res.terms, solutions)]
        assert np.array_equal(xi, per_band), res.method
        assert np.array_equal(res.alphas, [s.alpha for s in solutions])
        assert np.array_equal(res.gains, [s.gain for s in solutions])
        assert res.statuses.tolist() == [s.status for s in solutions]
        assert [t.target_snr for t in res.terms] \
            == res.table.target_snr.tolist()


def test_unprocessed_render_holds_one_full_size_waveform():
    signals, stats, _, fb = make_scene(0.0, -30.0, duration=10.0)
    res = run_unprocessed(stats, fb)
    render(signals, res, PARAMS)  # first-call allocations stay out
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        y, z = render(signals, res, PARAMS)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # z is the one new waveform; the selector and gain checks make
    # per-bin arrays, which a per-bin filter's size (8 kB here) covers.
    # A copy of y would be one waveform (1.3 MB) more
    assert peak - before <= z.nbytes + res.w_mp.nbytes

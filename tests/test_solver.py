"""Per-band solver: boundary candidates, grid search, fallbacks."""

import dataclasses

import numpy as np
import pytest
from scipy.optimize import brentq

from minproc.beamform import build_beamformers
from minproc.filterbank import build_filterbank
from minproc.scene import SpectralStats
from minproc.solver import (
    ALPHAS,
    BandStatus,
    SolverTerms,
    band_terms,
    boundary_solution,
    constraint_bounds,
    snr_margin,
    solve_band,
    subband_snr,
)
from minproc.stft import FrameParams

import oracles


def scalar_mwf_terms(sigma_n2, target_snr, sigma_s2=1.0, sigma_u2=0.01):
    """One-mic band: reference filter is 1, the aggressive one is the
    single-channel Wiener-style gain sigma_s2/C / (5 + sigma_s2/C)."""
    wn = (sigma_s2 / sigma_u2) / (5.0 + sigma_s2 / sigma_u2)
    return SolverTerms(
        ds_ref=sigma_s2,
        ds_nr=sigma_s2 * wn**2,
        ds_cross=sigma_s2 * 2.0 * wn,
        du_ref=sigma_u2,
        du_nr=sigma_u2 * wn**2,
        du_cross=sigma_u2 * 2.0 * wn,
        sigma_n2=sigma_n2,
        target_snr=target_snr,
    )


def test_do_nothing_point_when_already_intelligible():
    # quiet near end: margin 0.99 >= rhs 0.01, noise under the cap
    terms = scalar_mwf_terms(sigma_n2=0.01, target_snr=1.0)
    sol = solve_band(terms)
    assert sol.status is BandStatus.FEASIBLE
    assert sol.alpha == 1.0
    assert sol.gain == 1.0
    assert sol.penalty == 0.0


def test_boundary_gain_makes_constraint_tight():
    # louder near end: rhs 2.0 > margin 0.99, so g = sqrt(2/0.99)
    terms = scalar_mwf_terms(sigma_n2=2.0, target_snr=1.0)
    sol = solve_band(terms)
    assert sol.status is BandStatus.FEASIBLE
    assert sol.alpha == 1.0
    assert abs(sol.gain - np.sqrt(2.0 / 0.99)) < 1e-12
    # C1 holds with equality at the returned gain
    rhs = terms.sigma_n2 * terms.target_snr
    assert abs(sol.gain**2 * snr_margin(terms, 1.0) - rhs) < 1e-9 * rhs


def test_boundary_checks_alpha_one_first():
    # both alpha=1 (ii) and alpha=0 (i) apply; order picks alpha=1
    terms = SolverTerms(1.0, 5.0, 0.0, 0.01, 0.01, 0.0, 1.0, 2.0)
    sol = boundary_solution(terms)
    assert sol is not None
    assert sol.alpha == 1.0
    assert sol.gain > 1.0


def test_boundary_none_when_margins_negative():
    terms = SolverTerms(0.1, 0.1, 0.2, 1.0, 1.0, 2.0, 1.0, 1.0)
    assert boundary_solution(terms) is None


def test_grid_never_beaten_by_brute_force():
    compared = 0
    for seed in range(50):
        rng = np.random.default_rng(seed)
        terms = oracles.random_terms(rng)
        sol = solve_band(terms, 12.0, 10.0)
        brute = oracles.brute_force_band(terms, 12.0)
        if sol.status is BandStatus.FEASIBLE:
            if brute is not None:
                assert sol.penalty <= brute[2] + 1e-6
                compared += 1
        else:
            assert brute is None
            assert not oracles.feasible_exists(terms, 12.0)
    assert compared >= 20


def test_feasible_solutions_respect_all_constraints():
    rng = np.random.default_rng(11)
    n_feasible = n_degraded = 0
    for _ in range(200):
        terms = oracles.random_terms(rng)
        sol = solve_band(terms, 12.0, 10.0)
        rhs, cap = oracles.constraint_bounds(terms, 12.0)
        # the grid holds both endpoints, so a closed-form boundary
        # candidate can never beat it
        candidate = boundary_solution(terms, 12.0)
        if candidate is not None:
            assert sol.status is BandStatus.FEASIBLE
            assert sol.penalty <= candidate.penalty
        if sol.status is BandStatus.FEASIBLE:
            n_feasible += 1
            assert 0.0 <= sol.alpha <= 1.0
            assert sol.gain >= 1.0 - 1e-12
            assert sol.gain**2 * snr_margin(terms, sol.alpha) \
                >= rhs * (1.0 - 2e-9)
            assert sol.gain**2 * terms.noise_power(sol.alpha) \
                <= cap * (1.0 + 2e-9)
        else:
            n_degraded += 1
    assert n_feasible > 0 and n_degraded > 0


def test_margin_sign_decides_constraint():
    # xi(alpha, g) >= target  <=>  g^2 p(alpha) >= sigma_n2 * target
    rng = np.random.default_rng(5)
    checked = 0
    while checked < 2000:
        terms = oracles.random_terms(rng)
        alpha = rng.uniform()
        g = 10.0 ** rng.uniform(-1.0, 1.0)
        lhs = g * g * snr_margin(terms, alpha)
        rhs = terms.sigma_n2 * terms.target_snr
        if abs(lhs - rhs) <= 1e-9 * max(abs(lhs), rhs):
            continue  # too close to the boundary to classify
        reached = subband_snr(terms, alpha, g) >= terms.target_snr
        assert reached == (lhs >= rhs)
        checked += 1


def test_c1_fallback_gain_clips_to_unity():
    # flat parallel filters, target unreachable, quiet near end
    terms = SolverTerms(0.1, 0.1, 0.2, 1.0, 1.0, 2.0, 1.0, 1.0)
    sol = solve_band(terms)
    assert sol.status is BandStatus.C1_INFEASIBLE
    assert sol.alpha == 1.0
    assert sol.gain == 1.0
    assert sol.penalty == 0.0


def test_c1_fallback_gain_matches_root_finder():
    # same shape, loud near end: the boost is active and solves
    # xi(alpha*, g) = theta * far_end_snr(alpha*) exactly
    terms = SolverTerms(0.1, 0.1, 0.2, 1.0, 1.0, 2.0, 100.0, 1.0)
    sol = solve_band(terms, delta_n_db=10.0)
    assert sol.status is BandStatus.C1_INFEASIBLE
    assert sol.alpha == 1.0
    theta_snr = 0.1 * (0.1 / 1.0)
    root = brentq(lambda g: subband_snr(terms, 1.0, g) - theta_snr,
                  1e-6, 1e3)
    assert abs(sol.gain - root) < 1e-8
    assert abs(sol.gain - 10.0 / 3.0) < 1e-12


def test_c1_fallback_cap_overrides_unity_gain():
    # best-ratio alpha sits where the noise cap only admits g < 1
    terms = SolverTerms(0.01, 0.5, 0.0, 0.1, 1.0, 0.0, 0.01, 100.0)
    sol = solve_band(terms)
    assert sol.status is BandStatus.BOTH_INFEASIBLE
    assert sol.alpha == 0.0
    _, cap = oracles.constraint_bounds(terms, 12.0)
    assert sol.gain < 1.0
    assert abs(sol.gain**2 * terms.noise_power(0.0) - cap) < 1e-9 * cap


def test_c2_fallback_keeps_unit_gain():
    terms = SolverTerms(30.0, 30.0, 60.0, 10.0, 10.0, 20.0, 0.1, 1.0)
    sol = solve_band(terms)
    assert sol.status is BandStatus.C2_INFEASIBLE
    assert sol.gain == 1.0
    assert sol.alpha == 1.0  # flat xi, tie goes to the larger alpha
    assert sol.penalty == 0.0


def test_both_fallback_runs_gain_at_cap():
    terms = SolverTerms(0.5, 0.5, 1.0, 10.0, 10.0, 20.0, 0.1, 1.0)
    sol = solve_band(terms)
    assert sol.status is BandStatus.BOTH_INFEASIBLE
    _, cap = oracles.constraint_bounds(terms, 12.0)
    lhs = sol.gain**2 * terms.noise_power(sol.alpha)
    assert abs(lhs - cap) < 1e-9 * cap
    assert sol.gain < 1.0  # the cap wins over g >= 1


def test_residual_corner_degrades_as_both():
    # C1 is nominally reachable (at alpha where the cap gain is < 1)
    # and the cap is nominally satisfiable (at alpha where the target
    # is out of reach), yet no single point satisfies everything.
    terms = SolverTerms(12000.0, 100.0, 0.0, 100.0, 10.0, 0.0, 1.0, 100.0)
    rhs, cap = oracles.constraint_bounds(terms, 12.0)
    alphas = np.linspace(0.0, 1.0, 2001)
    du = terms.noise_power(alphas)
    reach = snr_margin(terms, alphas) * cap / du
    assert reach.max() >= rhs  # the C1-empty test does not fire
    assert du.min() <= cap  # the C2-empty test does not fire
    assert not oracles.feasible_exists(terms, 12.0)
    sol = solve_band(terms)
    assert sol.status is BandStatus.BOTH_INFEASIBLE
    lhs = sol.gain**2 * terms.noise_power(sol.alpha)
    assert abs(lhs - cap) < 1e-9 * cap


def test_zero_far_end_noise_needs_only_gain():
    terms = SolverTerms(1.0, 1.0, 2.0, 0.0, 0.0, 0.0, 1.0, 2.0)
    sol = solve_band(terms)
    assert sol.status is BandStatus.FEASIBLE
    assert sol.alpha == 1.0
    assert abs(sol.gain - np.sqrt(2.0)) < 1e-15


def test_alpha_grid_is_fixed_and_exact_at_the_ends():
    assert not ALPHAS.flags.writeable
    with pytest.raises(ValueError):
        ALPHAS[0] = 0.5
    assert np.array_equal(ALPHAS, np.linspace(0, 1, 2001))
    # the do-nothing point alpha = 1 must be reachable exactly
    assert ALPHAS[0] == 0.0 and ALPHAS[-1] == 1.0
    assert ALPHAS.size == 2001


def test_no_near_end_noise_leaves_c2_inactive():
    # sigma_n2 = 0: no near-end noise to cap, so C2 never binds, the
    # same as delta_u_db = inf
    reachable = SolverTerms(1.0, 0.9, 1.8, 0.05, 0.01, 0.04, 0.0, 1.0)
    assert constraint_bounds(reachable, 12.0) == (0.0, np.inf)
    sol = solve_band(reachable)
    assert sol.status is BandStatus.FEASIBLE
    assert (sol.alpha, sol.gain) == (1.0, 1.0)
    assert sol == solve_band(reachable, delta_u_db=np.inf)
    # a target the far-end SNR cannot reach leaves only C1 lost
    out_of_reach = dataclasses.replace(reachable, target_snr=1e6)
    sol = solve_band(out_of_reach)
    assert sol.status is BandStatus.C1_INFEASIBLE
    assert sol.gain == 1.0


def test_zero_speech_band_degrades_quietly():
    terms = SolverTerms(0.0, 0.0, 0.0, 1.0, 1.0, 2.0, 1.0, 1.0)
    sol = solve_band(terms)
    assert sol.status is BandStatus.C1_INFEASIBLE
    assert sol.alpha == 1.0  # flat ratio, tie to larger alpha
    assert sol.gain == 1.0  # raw boost below one clips up to unity
    assert sol.xi == 0.0


def test_zero_target_is_free():
    terms = SolverTerms(0.3, 0.2, 0.1, 0.02, 0.05, 0.01, 1.0, 0.0)
    sol = solve_band(terms)
    assert sol.status is BandStatus.FEASIBLE
    assert (sol.alpha, sol.gain) == (1.0, 1.0)


def test_penalty_monotone_while_feasible():
    terms0 = SolverTerms(1.0, 0.9, 1.8, 0.05, 0.01, 0.04, 0.5, 1.0)
    targets = 10.0 ** np.linspace(-2.0, 2.5, 30)
    sols = [solve_band(dataclasses.replace(terms0, target_snr=t))
            for t in targets]
    feas = [s.status is BandStatus.FEASIBLE for s in sols]
    # the feasible set shrinks as the target grows: statuses are a prefix
    first_bad = feas.index(False) if False in feas else len(feas)
    assert all(feas[:first_bad]) and not any(feas[first_bad:])
    assert first_bad >= 2
    pens = [s.penalty for s in sols[:first_bad]]
    assert all(b >= a - 1e-12 for a, b in zip(pens, pens[1:]))


def test_band_terms_match_direct_filter_powers():
    rng = np.random.default_rng(17)
    params = FrameParams.from_ms(16000, 32)
    n_bins, n_mics = params.bins, 3

    a = rng.standard_normal((n_bins, n_mics, n_mics)) \
        + 1j * rng.standard_normal((n_bins, n_mics, n_mics))
    c_u = a @ a.conj().transpose(0, 2, 1) + 0.1 * np.eye(n_mics)
    d = rng.standard_normal((n_bins, n_mics)) \
        + 1j * rng.standard_normal((n_bins, n_mics))
    d /= d[:, :1]
    stats = SpectralStats(
        sigma_s2=rng.uniform(0.1, 2.0, n_bins),
        d=d,
        c_u=c_u,
        sigma_n2=rng.uniform(0.01, 0.5, n_bins),
    )
    bset = build_beamformers(stats)
    fb = build_filterbank(params, n_bands=8)

    for j in (0, 3, 7):
        terms = band_terms(stats, bset, fb, j, target_snr=1.5)
        for alpha in (0.0, 0.3, 1.0):
            w = alpha * bset.w_ref + (1.0 - alpha) * bset.w_nr
            noise = speech = 0.0
            for k in fb.members[j]:
                wk = w[k]
                noise += fb.weight[j, k] * (wk.conj() @ c_u[k] @ wk).real
                proj = np.abs(wk.conj() @ d[k]) ** 2
                speech += fb.weight[j, k] * stats.sigma_s2[k] * proj
            assert terms.noise_power(alpha) == pytest.approx(noise, rel=1e-10)
            assert terms.speech_power(alpha) == pytest.approx(speech, rel=1e-10)

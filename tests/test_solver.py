"""Per-band solver: boundary candidates, exact search, fallbacks."""

import dataclasses
import hashlib
import itertools
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from minproc import solver
from minproc.beamform import build_beamformers
from minproc.filterbank import build_filterbank
from minproc.scene import SpectralStats
from minproc.solver import (
    REL_TOL,
    BandSolution,
    BandStatus,
    SolverTerms,
    band_terms,
    boost_fraction,
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


def test_brute_force_bisection_matches_dense_scan():
    """The brute force bisects each row for its first admissible gain;
    on criterion 1's 100 draws, testing every grid point agrees."""
    rng = np.random.default_rng(101)
    for _ in range(100):
        target = rng.choice([0.25, 1.0, 7.0 / 3.0])
        du_db = rng.choice([0.0, 12.0])
        terms = dataclasses.replace(oracles.random_terms(rng),
                                    target_snr=target)
        assert oracles.brute_force_band(terms, du_db) \
            == oracles.dense_brute_force_band(terms, du_db)


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


def test_solver_never_beaten_by_dense_alpha_scan():
    # the search is exact: no point of a 200 001-point scan under the
    # same tests beats a Feasible answer, and where the solver finds
    # nothing admissible, neither does the scan
    rng = np.random.default_rng(33)
    delta_u_dbs = (12.0, 0.0, -6.0, np.inf)
    compared = 0
    for _ in range(1000):
        terms = oracles.random_terms(rng)
        scans = oracles.alpha_scan(terms, delta_u_dbs)
        for delta_u_db, scan in zip(delta_u_dbs, scans):
            sol = solve_band(terms, delta_u_db)
            if sol.status is BandStatus.FEASIBLE:
                assert scan is not None
                assert sol.penalty <= scan[0] * (1.0 + 1e-9), \
                    (terms, delta_u_db, sol, scan)
                compared += 1
                # a root candidate lies on its constraint, not at the
                # edge of its REL_TOL test, so arithmetic in another order
                # (the oracle's, the benchmark's) admits it with room to
                # spare: a tenth of REL_TOL covers the margin's
                # cancellation in ds - du * target_snr
                rhs, cap = oracles.constraint_bounds(terms, delta_u_db)
                g2, a = sol.gain * sol.gain, sol.alpha
                du = oracles.combo_quad(a, terms.du_ref, terms.du_nr,
                                        terms.du_cross)
                ds = oracles.combo_quad(a, terms.ds_ref, terms.ds_nr,
                                        terms.ds_cross)
                tol = 0.1 * REL_TOL
                assert g2 * (ds - du * terms.target_snr) >= rhs * (1.0 - tol)
                assert g2 * du <= cap * (1.0 + tol)
            else:
                assert scan is None, (terms, delta_u_db, sol)
    assert compared >= 1000


def test_feasible_solutions_respect_all_constraints():
    rng = np.random.default_rng(11)
    n_feasible = n_degraded = 0
    for _ in range(200):
        terms = oracles.random_terms(rng)
        sol = solve_band(terms, 12.0, 10.0)
        rhs, cap = oracles.constraint_bounds(terms, 12.0)
        # alpha = 0 and alpha = 1 are candidates of every search, so a
        # closed-form boundary candidate can never beat it
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
    # the second band passes neither speech nor far-end noise at
    # alpha = 1: nothing to cap there, so no inf gain and no warning.
    # Its speech cross term is not positive-semidefinite: the margin is
    # positive only below alpha ~ 1e-3, where the noise is far above the
    # cap.  (With ds_cross = 0 the noise falls under the cap at unit gain
    # for 1 - alpha in [3.2e-5, 1.3e-4], a sliver between grid points.)
    for terms in (SolverTerms(0.5, 0.5, 1.0, 10.0, 10.0, 20.0, 0.1, 1.0),
                  SolverTerms(0.0, 2e9, -2e12, 0.0, 1e9, 0.0, 1.0, 1.0)):
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


def test_zero_margin_under_infinite_cap_is_c1_infeasible():
    # the margin is identically 0 and delta_u_db = inf removes the cap:
    # no gain reaches the target, so only C1 is lost, as at 12 dB
    terms = SolverTerms(1.0, 1.0, 2.0, 1.0, 1.0, 2.0, 1.0, 1.0)
    for delta_u_db in (np.inf, 12.0):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            sol = solve_band(terms, delta_u_db)
        assert (sol.alpha, sol.gain, sol.status) \
            == (1.0, 1.0, BandStatus.C1_INFEASIBLE)


def test_zero_margin_where_cap_over_du_overflows_is_c1_infeasible():
    # du is 5e-324 at alpha = 1, where the margin is exactly 0: cap/du
    # overflows there, and inf * 0 must not hide that every other alpha
    # reaches about 1.6e-11, below the target 0.1.  The far-end ratio
    # (0.1 + 1e-12) / (1 + 5e-324 alpha^2 / (1 - alpha)^2) is greatest
    # at alpha = 0
    terms = SolverTerms(0.0, 0.1 + 1e-12, 0.0, 5e-324, 1.0, 0.0, 1.0, 0.1)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        sol = solve_band(terms, 12.0)
    assert (sol.alpha, sol.status) == (0.0, BandStatus.C1_INFEASIBLE)


def test_infinite_best_ratio_picks_its_last_alpha_quietly():
    # du = (1 - 2 alpha)^2 * 1e-6 vanishes only at alpha = 0.5, where
    # speech still arrives: the best far-end ratio is inf there alone,
    # and a relative tolerance around inf would be NaN
    terms = SolverTerms(0.0, 1e-300, -0.0, 1e-6, 1e-6, -2e-6, 1.0, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        sol = solve_band(terms)
    assert (sol.alpha, sol.gain, sol.status) \
        == (0.5, 1.0, BandStatus.C1_INFEASIBLE)


def test_solutions_invariant_under_power_of_two_scaling():
    # the problem is homogeneous of degree one in the seven powers, and
    # the solver divides them by a power of two of their own: powers
    # scaled by 2^e give the same bits, with no warning
    names = [f.name for f in dataclasses.fields(SolverTerms)][:7]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for t in _pinned_terms():
            want = solve_band(t)
            for e in (-1000, -600, 600, 1000):
                scaled = dataclasses.replace(t, **{
                    name: np.ldexp(getattr(t, name), e) for name in names})
                assert solve_band(scaled) == want, (t, e)


def _short_mantissas(t, rng):
    """t with each power cut to 8 significant bits and a power-of-two
    target of at least 1, so that shifting the band down into the
    subnormal range, and forming its margin and rhs there, rounds
    nothing."""
    names = [f.name for f in dataclasses.fields(SolverTerms)][:7]
    cut = {}
    for name in names:
        m, e = np.frexp(getattr(t, name))
        cut[name] = float(np.ldexp(np.round(np.ldexp(m, 8)), e - 8))
    return dataclasses.replace(t, target_snr=2.0 ** int(rng.integers(0, 4)),
                               **cut)


def test_subnormal_powers_solve_as_their_normal_twins():
    # a band shifted so that its least power's last bit is 2^-1074:
    # the solver's scale lifts every power back into the normal range,
    # so the band solves as the unshifted one, bit for bit.  Caps of
    # 0 dB and inf: 10^(delta_u_db / 10) is 1 or inf, which shifts exactly
    names = [f.name for f in dataclasses.fields(SolverTerms)][:7]
    rng = np.random.default_rng(5)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for t in _pinned_terms()[:300]:
            t = _short_mantissas(t, rng)
            least = min(np.frexp(abs(getattr(t, n)))[1] for n in names
                        if getattr(t, n))
            e = -1074 - (least - 9)
            shifted = dataclasses.replace(t, **{
                n: float(np.ldexp(getattr(t, n), e)) for n in names})
            assert 0.0 < min(abs(getattr(shifted, n)) for n in names) \
                < np.finfo(float).tiny
            for delta_u_db in (0.0, np.inf):
                assert solve_band(shifted, delta_u_db) \
                    == solve_band(t, delta_u_db), (t, delta_u_db)


def test_subnormal_power_keeps_its_sign():
    # p(alpha) = -5e-324 alpha^2 < 0 = rhs beyond alpha = 0: a scale
    # that rounded the least power to -0 would admit alpha = 1
    terms = SolverTerms(-5e-324, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0)
    assert solve_band(terms, np.inf) \
        == BandSolution(0.0, 1.0, BandStatus.FEASIBLE)


def test_powers_spanning_more_than_the_float_range_solve_quietly():
    # 1e308 and 5e-324 in one band: lifting the least power out of the
    # subnormal range would push the largest past the float range, so
    # the scale stops short of that and no ldexp overflows
    terms = SolverTerms(5e-324, 1e308, 0.0, 1e300, 5e-324, 0.0, 1e-300, 10.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for delta_u_db in (12.0, -6.0, np.inf):
            sol = solve_band(terms, delta_u_db)
            assert 0.0 <= sol.alpha <= 1.0 and np.isfinite(sol.gain), sol


def test_vanishing_margin_with_far_end_noise_solves_quietly():
    # p = 1e-300 alpha^2: the least gain 1e150/alpha squares past the
    # float range below alpha = 1, where no far-end noise passes
    terms = SolverTerms(1e-300, 1e6, 0.0, 0.0, 1e6, -0.0, 1.0, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        sol = solve_band(terms)
    assert (sol.alpha, sol.gain, sol.status) \
        == (1.0, 1e150, BandStatus.FEASIBLE)


# sha256 of every (alpha, gain, status) of
# test_solutions_unchanged_bit_for_bit.  It changes only with a
# deliberate change of the solver's numerics, recorded in CHANGES.md
# (as 0.8.0 replaced the grid optimum by the exact one, and 0.9.0 the
# fallbacks' grid searches by closed-form candidates); a speed-up must
# leave it as it is.  The draw is exact (random_terms), so the digest
# holds whichever SIMD code numpy dispatches.
SOLUTIONS_SHA256 = \
    "3a92a87565d42bc817bea7bd555bfe963bb37627e6a1cad2466db66c20d38f22"
# the same for test_edge_solutions_unchanged_bit_for_bit
EDGE_SOLUTIONS_SHA256 = \
    "9b877d4d6ea7c8ab809a49ba6f3d5670a095a762f8619eb7bf7397c6e107b7ff"


def _pinned_terms():
    rng = np.random.default_rng(2024)
    return [oracles.random_terms(rng) for _ in range(1500)]


def _solutions_digest(terms, delta_u_dbs):
    digest = hashlib.sha256()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for delta_u_db in delta_u_dbs:
            for t in terms:
                sol = solve_band(t, delta_u_db)
                digest.update(f"{sol.alpha.hex()} {sol.gain.hex()} "
                              f"{sol.status.value}\n".encode())
    return digest.hexdigest()


def test_solutions_unchanged_bit_for_bit():
    assert _solutions_digest(_pinned_terms(), (12.0, 0.0, -6.0, np.inf)) \
        == SOLUTIONS_SHA256


def _edge_terms():
    """The corners of test_solver_invariants' domain, which random_terms
    never draws: zero and extreme powers, filters fully correlated,
    anti-correlated or uncorrelated, no near-end noise, a zero target."""
    powers, rhos, off_on = (0.0, 1e-6, 1.0, 1e6), (-1.0, 0.0, 1.0), (0.0, 1.0)
    for s_ref, s_nr, u_ref, u_nr in itertools.product(powers, repeat=4):
        for rho_s, rho_u, sigma_n2, target in itertools.product(
                rhos, rhos, off_on, off_on):
            yield SolverTerms(s_ref, s_nr, 2.0 * rho_s * np.sqrt(s_ref * s_nr),
                              u_ref, u_nr, 2.0 * rho_u * np.sqrt(u_ref * u_nr),
                              sigma_n2, target)


def test_edge_solutions_unchanged_bit_for_bit():
    # 36 864 solves: the edge at-unit and C1-empty tests read p == 0,
    # du == 0, rhs == 0 and an infinite or vanishing cap, all of it here
    delta_u_dbs = (12.0, 0.0, -300.0, np.inf)
    assert _solutions_digest(list(_edge_terms()), delta_u_dbs) \
        == EDGE_SOLUTIONS_SHA256


def _counting(routes, name, fn):
    def counted(*args, **kwargs):
        out = fn(*args, **kwargs)
        routes[name] += 1
        if name == "fallback_c1":
            routes[f"fallback_c1 {out.status}"] += 1
        # the far-end noise power, args[1]: positive on the whole of
        # [0, 1], or with a zero there, where a ratio over it is guarded
        du_min = solver._extreme(args[1], False)
        routes[f"{name} du {'> 0' if du_min > 0.0 else 'has 0'}"] += 1
        return out
    return counted


def test_pinned_draw_reaches_every_route(monkeypatch):
    # the digests above only guard the routes their draws take
    routes = Counter()
    for name in ("fallback_c1", "fallback_c2", "fallback_both"):
        monkeypatch.setattr(solver, name,
                            _counting(routes, name, getattr(solver, name)))
    terms = _pinned_terms()
    for delta_u_db in (12.0, 0.0, -6.0, np.inf):
        for t in terms:
            sol = solve_band(t, delta_u_db)
            if sol.status is BandStatus.FEASIBLE:
                routes["passthrough" if (sol.alpha, sol.gain) == (1.0, 1.0)
                       else "searched"] += 1
    for route in ("passthrough", "searched", "fallback_c1 C1Infeasible",
                  "fallback_c1 BothInfeasible", "fallback_c2",
                  "fallback_both"):
        assert routes[route] > 0, route
    # the edge draw adds the bands whose du has a zero in [0, 1]
    for delta_u_db in (12.0, 0.0, -300.0, np.inf):
        for t in _edge_terms():
            solve_band(t, delta_u_db)
    for route in ("fallback_c1 du > 0", "fallback_c1 du has 0",
                  "fallback_c2 du > 0", "fallback_both du > 0"):
        assert routes[route] > 0, route


def _candidate_kind(terms, delta_u_db, sol):
    """Which candidate of the search a Feasible answer is, read off the
    answer: an end, a root where C1 at unit gain or C2 turns tight, or
    a stationary point of the penalty, where the gain exceeds 1 and
    neither holds with equality."""
    alpha, g = sol.alpha, sol.gain
    if alpha in (0.0, 1.0):
        return f"alpha = {alpha:g}"
    rhs, cap = constraint_bounds(terms, delta_u_db)
    margin = solver._margin_coefs(terms)
    if g == 1.0 and abs(snr_margin(terms, alpha) - rhs) \
            <= 1e-8 * max(rhs, *map(abs, margin)):
        return "p = rhs"
    if abs(g * g * terms.noise_power(alpha) - cap) <= 1e-8 * cap:
        return "C2 tight"
    # p = A alpha^2 + B alpha + C; sqrt(rhs/p), and with it the penalty,
    # is convex wherever 2p'^2 + D >= 0, D = B^2 - 4AC
    at_one, at_zero, cross = margin
    a, b, c = at_one + at_zero - cross, cross - 2.0 * at_zero, at_zero
    disc = b * b - 4.0 * a * c
    slope = 2.0 * a * alpha + b
    if a <= 0.0 or disc >= 0.0:
        return "stationary, convex window"
    if 2.0 * slope * slope + disc < 0.0:
        return "stationary, - + - window"
    return "stationary"


def test_pinned_draws_reach_every_candidate_kind():
    # every kind of candidate the search admits wins on some band: the
    # ends, each kind of root, a stationary point where f is certified
    # convex (p concave or with real roots), and one where sqrt(rhs/p)
    # is concave at the answer, which only the - + - bracket finds
    kinds = Counter()
    for draw, delta_u_dbs in ((_pinned_terms(), (12.0, 0.0, -6.0, np.inf)),
                              (list(_edge_terms()), (12.0, 0.0, -300.0))):
        for delta_u_db in delta_u_dbs:
            for t in draw:
                sol = solve_band(t, delta_u_db)
                if sol.status is BandStatus.FEASIBLE:
                    kinds[_candidate_kind(t, delta_u_db, sol)] += 1
    for kind in ("alpha = 1", "alpha = 0", "p = rhs", "C2 tight",
                 "stationary, convex window", "stationary, - + - window"):
        assert kinds[kind] > 0, (kind, kinds)


def test_pinned_draw_reaches_every_search_shortcut():
    # the digest guards the dead-constraint shortcut of grid_solve only
    # on the bands its draw holds: bands that C2 alone sends past the
    # search, bands that C1 alone sends past it, and fallback bands that
    # run the whole search.  A grid's least du (largest p) bounds the
    # one over [0, 1], which the solver takes in closed form, so a band
    # dead there is dead on the grid.
    routes = Counter()
    terms = _pinned_terms()
    alphas = np.linspace(0.0, 1.0, 2001)
    for delta_u_db in (12.0, 0.0, -6.0, np.inf):
        for t in terms:
            rhs, cap = constraint_bounds(t, delta_u_db)
            du, p = t.noise_power(alphas), snr_margin(t, alphas)
            c2_dead = du.min() > cap * (1.0 + REL_TOL)
            c1_dead = rhs > 0.0 and not (p > 0.0).any()
            feasible = solve_band(t, delta_u_db).status is BandStatus.FEASIBLE
            if c2_dead or c1_dead:
                routes[c2_dead, c1_dead] += 1
            elif not feasible:
                routes["searched fallback"] += 1
    assert routes[True, False] > 0  # C2 alone
    assert routes[False, True] > 0  # C1 alone
    assert routes["searched fallback"] > 0


def _recording_fallbacks(monkeypatch):
    """A list that each fallback appends its route name to when called."""
    called = []
    for route in ("c1", "c2", "both"):
        fn = getattr(solver, f"fallback_{route}")

        def recording(*args, fn=fn, route=route):
            called.append(route)
            return fn(*args)
        monkeypatch.setattr(solver, f"fallback_{route}", recording)
    return called


def test_fallbacks_never_beaten_by_dense_alpha_scan(monkeypatch):
    # each fallback's alpha is exact on the fallback's own objective: no
    # point of a 200 001-point scan beats it by 1e-9 relative (the far-end
    # ratio) or by 1e-9 * max(residual, target) (the SNR's residual)
    called = _recording_fallbacks(monkeypatch)
    rng = np.random.default_rng(34)
    draw = [oracles.random_terms(rng) for _ in range(1000)]
    routes = Counter()
    for t in draw + list(_edge_terms()):
        for delta_u_db in (12.0, 0.0, -6.0, np.inf):
            called.clear()
            sol = solve_band(t, delta_u_db)
            if not called:
                continue
            route, = called
            best = oracles.fallback_objective(t, delta_u_db, route)
            got = oracles.fallback_objective(t, delta_u_db, route, sol.alpha)
            slack = abs(best) if route == "c1" else max(best, t.target_snr)
            assert got <= best + 1e-9 * slack if np.isfinite(best) \
                else got <= best, (t, delta_u_db, route, sol, got, best)
            routes[route] += 1
    assert min(routes["c1"], routes["c2"], routes["both"]) >= 300, routes


def test_steering_ties_go_to_the_larger_alpha(monkeypatch):
    # ds = c (1 + x) and du = u + w x with x = alpha (1 - alpha), so each
    # SNR meets its target at x = 2/9, alpha = 1/3 and alpha = 2/3, and
    # both routes take 2/3.  fallback_c2: du = 1 > cap = 0.1 everywhere,
    # and at the cap gain the SNR reaches the target where x > 0.22.
    # fallback_both: du(0) = 0.9 <= cap = 1 and du(2/9) = 1.08 > 1, and
    # at the cap gain the SNR c (1 + x) / (2 (0.9 + 0.81 x)) rises with
    # x, so C1 holds only where C2 does not.  At some scales c the
    # residual at 1/3 rounds lower than at 2/3 (at c = 1.17 for the
    # first, 1.02 for the second), so a tolerance relative to the least
    # residual alone would not tie them
    called = _recording_fallbacks(monkeypatch)
    for c in (1.0, 1.02, 1.17):
        for route, du, sigma_n2, delta_u_db, target in (
                ("c2", (1.0, 1.0, 2.0), 1e-4, 30.0,
                 c * (1.0 + 2.0 / 9.0) / (1.0 + 1e-4)),
                ("both", (0.9, 0.9, 2.61), 1.0, 0.0,
                 c * 0.5 * (1.0 + 2.0 / 9.0) / (0.9 + 0.81 * 2.0 / 9.0))):
            terms = SolverTerms(c, c, 3.0 * c, *du, sigma_n2, target)
            called.clear()
            sol = solve_band(terms, delta_u_db)
            assert called == [route]
            assert sol.alpha == pytest.approx(2.0 / 3.0, rel=1e-12), \
                (c, route, sol)
            assert subband_snr(terms, sol.alpha, sol.gain) \
                == pytest.approx(target, rel=1e-12)


def test_nonpositive_delta_n_db_is_rejected_on_every_band():
    # validated once per solve, not only on the bands that reach
    # fallback_c1; -1e4 would overflow 10^(-delta_n_db / 10), and the
    # positive subnormal 1e-320 rounds it to 1
    passthrough = SolverTerms(1.0, 0.9, 1.8, 0.05, 0.01, 0.04, 0.5, 1.0)
    c1_lost = SolverTerms(0.1, 0.1, 0.2, 1.0, 1.0, 2.0, 1.0, 1.0)
    sol = solve_band(passthrough)
    assert (sol.alpha, sol.gain, sol.status) == (1.0, 1.0, BandStatus.FEASIBLE)
    assert solve_band(c1_lost).status is BandStatus.C1_INFEASIBLE
    for delta_n_db in (-5.0, 0.0, -1e4, np.inf, np.nan, 1e-320):
        for terms in (passthrough, c1_lost):
            with pytest.raises(ValueError, match="delta_n_db"):
                solve_band(terms, delta_n_db=delta_n_db)
    assert boost_fraction(10.0) == 0.1


def _psd_pair(draw, magnitude):
    """at_one, at_zero, cross of a power quadratic that is nonnegative
    on [0, 1]: cross = 2*rho*sqrt(at_one*at_zero), |rho| <= 1."""
    ref, nr = draw(magnitude), draw(magnitude)
    rho = draw(st.floats(-1.0, 1.0))
    return ref, nr, 2.0 * rho * np.sqrt(ref * nr)


@st.composite
def psd_terms(draw):
    magnitude = st.one_of(st.just(0.0), st.floats(1e-6, 1e6))
    ds = _psd_pair(draw, magnitude)
    du = _psd_pair(draw, magnitude)
    return SolverTerms(*ds, *du, sigma_n2=draw(magnitude),
                       target_snr=draw(st.one_of(st.just(0.0),
                                                 st.floats(1e-3, 1e3))))


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(terms=psd_terms(),
       delta_u_db=st.one_of(st.just(np.inf), st.floats(-300.0, 300.0)))
def test_solver_invariants(terms, delta_u_db):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        sol = solve_band(terms, delta_u_db)
    assert 0.0 <= sol.alpha <= 1.0
    if sol.status is not BandStatus.BOTH_INFEASIBLE:
        assert sol.gain >= 1.0
    rhs, cap = oracles.constraint_bounds(terms, delta_u_db)
    if sol.status is BandStatus.FEASIBLE:
        g2 = sol.gain * sol.gain
        assert g2 * snr_margin(terms, sol.alpha) >= rhs * (1.0 - REL_TOL)
        assert g2 * terms.noise_power(sol.alpha) <= cap * (1.0 + REL_TOL)
    # the do-nothing point, wherever it is admissible
    margin = terms.ds_ref - terms.du_ref * terms.target_snr
    if margin >= rhs * (1.0 - REL_TOL) and terms.du_ref <= cap * (1.0 + REL_TOL):
        assert (sol.alpha, sol.gain, sol.status) \
            == (1.0, 1.0, BandStatus.FEASIBLE)


def test_zero_far_end_noise_needs_only_gain():
    terms = SolverTerms(1.0, 1.0, 2.0, 0.0, 0.0, 0.0, 1.0, 2.0)
    sol = solve_band(terms)
    assert sol.status is BandStatus.FEASIBLE
    assert sol.alpha == 1.0
    assert abs(sol.gain - np.sqrt(2.0)) < 1e-15


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
    assert subband_snr(terms, sol.alpha, sol.gain) == 0.0


def test_subband_snr_on_zero_denominator():
    # no noise of either kind: speech that arrives is an infinite SNR,
    # and a band where nothing arrives stays at zero
    quiet = SolverTerms(1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0)
    assert subband_snr(quiet, 1.0, 1.0) == np.inf
    assert subband_snr(quiet, 0.0, 1.0) == 0.0
    assert subband_snr(quiet, 1.0, 0.0) == 0.0
    xi = subband_snr(quiet, np.array([0.0, 0.5, 1.0]), 1.0)
    assert np.array_equal(xi, [0.0, np.inf, np.inf])


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
            for k in np.flatnonzero(fb.weight[j] > 0.0):
                wk = w[k]
                noise += fb.weight[j, k] * (wk.conj() @ c_u[k] @ wk).real
                proj = np.abs(wk.conj() @ d[k]) ** 2
                speech += fb.weight[j, k] * stats.sigma_s2[k] * proj
            assert terms.noise_power(alpha) == pytest.approx(noise, rel=1e-10)
            assert terms.speech_power(alpha) == pytest.approx(speech, rel=1e-10)

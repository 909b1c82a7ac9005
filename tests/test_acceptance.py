"""Acceptance gate: ten numbered end-to-end checks, one per release
criterion.  Each test finishes by printing a single summary line, so a
verbose run reads as a checklist.  Reference values come from the
independent implementations in oracles.py or are recomputed inline from
first principles, never from the code under test.
"""

import dataclasses
import time

import numpy as np

from oracles import brute_force_band, combo_quad, mwf, random_terms
from minproc.beamform import DIAG_LOAD, build_beamformers, apply_beamformer
from minproc.filterbank import allocate_targets, build_filterbank
from minproc.metrics import asii, evaluate
from minproc.pipeline import render, run_blind_concat, run_joint, \
    run_unprocessed
from minproc.scene import SceneConfig, synthesize_scene
from minproc.solver import BandStatus, SolverTerms, band_terms, solve_band
from minproc.stft import FrameParams, analyze, synthesize

REL = 1e-9

# The two benchmark scenarios.  The second one uses a single interferer:
# with three spatial noise sources and two microphones no band is ever
# feasible, and ranking methods in an all-infeasible regime says nothing
# about the optimizer (see the project notes).
SCENARIO_A = dict(duration=2.0, fe_noise_kind="babble_like",
                  ne_noise_kind="car_like", fe_snr_db=0.0, ne_snr_db=-30.0)
SCENARIO_B = dict(duration=2.0, fe_noise_kind="car_like",
                  ne_noise_kind="babble_like", fe_snr_db=-10.0,
                  ne_snr_db=-20.0, noise_positions=((0.5, 1.0, 1.0),))


def _scene(seed, **kw):
    cfg = SceneConfig(seed=seed, **kw)
    params = FrameParams.from_ms(cfg.sample_rate)
    signals, stats = synthesize_scene(cfg, params)
    return cfg, params, signals, stats


def _draw_terms(rng, target_snr):
    return dataclasses.replace(random_terms(rng), target_snr=target_snr)


def _band_arrays(terms, delta_u_db, n_alpha=2001):
    """Quadratic coefficients on the alpha grid plus the two bounds."""
    alphas = np.linspace(0.0, 1.0, n_alpha)
    ds = combo_quad(alphas, terms.ds_ref, terms.ds_nr, terms.ds_cross)
    du = combo_quad(alphas, terms.du_ref, terms.du_nr, terms.du_cross)
    margin = ds - du * terms.target_snr
    rhs = terms.sigma_n2 * terms.target_snr
    cap = terms.sigma_n2 * 10.0 ** (delta_u_db / 10.0)
    return alphas, ds, du, margin, rhs, cap


def _grid_feasible(terms, delta_u_db, n_alpha=2001):
    """Any (alpha, g) admissible? g is exact: max(1, sqrt(rhs/margin))."""
    _, _, du, margin, rhs, cap = _band_arrays(terms, delta_u_db, n_alpha)
    with np.errstate(divide="ignore", invalid="ignore"):
        g2 = np.where(margin >= rhs * (1.0 - REL), 1.0,
                      np.where(margin > 0.0, rhs / margin, np.inf))
    ok = np.isfinite(g2) & (g2 * du <= cap * (1.0 + REL))
    return ok


def _contract_best_xi(terms, delta_u_db=12.0, delta_n_db=10.0):
    """Delivered subband SNR of the best per-band decision, enumerated
    independently of the solver: exhaustive alpha grid with the exact
    per-alpha gain, and the documented fallback rules otherwise."""
    alphas, ds, du, margin, rhs, cap = _band_arrays(terms, delta_u_db)
    sn2 = terms.sigma_n2
    with np.errstate(divide="ignore", invalid="ignore"):
        g2 = np.where(margin >= rhs * (1.0 - REL), 1.0,
                      np.where(margin > 0.0, rhs / margin, np.inf))
    ok = np.isfinite(g2) & (g2 * du <= cap * (1.0 + REL))
    if ok.any():
        pen = np.where(ok, (1.0 - alphas) ** 2 + (1.0 - np.sqrt(g2)) ** 2,
                       np.inf)
        i = int(np.flatnonzero(pen == pen.min())[-1])
        return g2[i] * ds[i] / (g2[i] * du[i] + sn2)
    with np.errstate(divide="ignore", invalid="ignore"):
        reach = np.where(du > 0.0, margin * (cap / du),
                         np.where(margin > 0.0, np.inf, 0.0))
    c1_dead = (reach.max() < rhs * (1.0 - REL)) if rhs > 0.0 \
        else (reach.max() < 0.0)
    c2_dead = du.min() > cap * (1.0 + REL)
    if c1_dead and not c2_dead:
        with np.errstate(divide="ignore", invalid="ignore"):
            snr = np.where(du > 0.0, ds / du,
                           np.where(ds > 0.0, np.inf, 0.0))
        i = int(np.flatnonzero(snr == snr.max())[-1])
        theta = 10.0 ** (-delta_n_db / 10.0)
        g = np.sqrt(theta * sn2 / ((1.0 - theta) * du[i])) \
            if du[i] > 0.0 else 1.0
        hi = np.sqrt(cap / du[i]) if du[i] > 0.0 else np.inf
        g = min(max(g, 1.0), hi) if hi >= 1.0 else hi
    elif c2_dead and not c1_dead:
        with np.errstate(divide="ignore", invalid="ignore"):
            xi1 = ds / (du + sn2)
        i = int(np.flatnonzero(np.abs(xi1 - terms.target_snr)
                               == np.abs(xi1 - terms.target_snr).min())[-1])
        g = 1.0
    else:
        with np.errstate(divide="ignore", invalid="ignore"):
            gc = np.sqrt(np.where(du > 0.0, cap / du, np.inf))
            xic = gc ** 2 * ds / (gc ** 2 * du + sn2)
            xic = np.where(np.isfinite(gc), xic, ds / du)
            xic = np.nan_to_num(xic, nan=0.0, posinf=np.inf)
        dev = np.abs(xic - terms.target_snr)
        i = int(np.flatnonzero(dev == dev.min())[-1])
        g = gc[i] if np.isfinite(gc[i]) else 1.0
    return g * g * ds[i] / (g * g * du[i] + sn2)


def _run_all(stats, bset, fb):
    return {"joint": run_joint(stats, bset, fb),
            "blind": run_blind_concat(stats, bset, fb),
            "unprocessed": run_unprocessed(stats, fb)}


def test_criterion_01_solver_within_brute_force_tolerance():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst = -np.inf
    for _ in range(100):
        target = rng.choice([0.25, 1.0, 7.0 / 3.0])
        du_db = rng.choice([0.0, 12.0])
        terms = _draw_terms(rng, target)
        sol = solve_band(terms, delta_u_db=du_db)
        brute = brute_force_band(terms, du_db)
        if brute is None:
            assert sol.status is not BandStatus.FEASIBLE
        else:
            worst = max(worst, sol.penalty - brute[2])
            assert sol.penalty <= brute[2] + 1e-6
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    print(f"criterion 1 PASS: 100 terms, max penalty excess "
          f"{worst:.2e} (tol 1e-6), {elapsed:.2f}s (< 5s)")


def test_criterion_02_feasibility_statuses_confirmed():
    rng = np.random.default_rng(202)
    counts = {s: 0 for s in BandStatus}
    for _ in range(1000):
        target = rng.choice([0.25, 1.0, 7.0 / 3.0])
        du_db = rng.choice([0.0, 12.0])
        terms = _draw_terms(rng, target)
        sol = solve_band(terms, delta_u_db=du_db)
        counts[sol.status] += 1
        if sol.status is BandStatus.FEASIBLE:
            a, g = sol.alpha, sol.gain
            ds = combo_quad(a, terms.ds_ref, terms.ds_nr, terms.ds_cross)
            du = combo_quad(a, terms.du_ref, terms.du_nr, terms.du_cross)
            rhs = terms.sigma_n2 * terms.target_snr
            cap = terms.sigma_n2 * 10.0 ** (du_db / 10.0)
            slack = 1.05e-9  # criterion tolerance + recomputation ulps
            assert g * g * (ds - du * terms.target_snr) \
                >= rhs * (1.0 - slack)
            assert g * g * du <= cap * (1.0 + slack)
            assert 0.0 <= a <= 1.0 and g >= 1.0 - 1e-15
        else:
            assert not _grid_feasible(terms, du_db).any()
    n_feas = counts[BandStatus.FEASIBLE]
    print(f"criterion 2 PASS: 1000 terms, {n_feas} feasible verified to "
          f"C1-C4, {1000 - n_feas} infeasible verdicts confirmed")


def test_criterion_03_boundary_closed_forms_exact():
    w_nr = 100.0 / 105.0  # scalar noise-reduction filter for s2/u2 = 100
    scalar = dict(ds_ref=1.0, ds_nr=w_nr ** 2, ds_cross=2.0 * w_nr,
                  du_ref=0.01, du_nr=0.01 * w_nr ** 2,
                  du_cross=0.02 * w_nr, target_snr=1.0)
    blocked = dict(du_ref=1e10, ds_cross=0.0, du_cross=0.0, target_snr=1.0)
    cases = [
        ("alpha=1 unit gain",
         SolverTerms(sigma_n2=0.01, **scalar), 1.0, 1.0),
        ("alpha=1 amplified",
         SolverTerms(sigma_n2=2.0, **scalar), 1.0, np.sqrt(2.0 / 0.99)),
        ("alpha=0 unit gain",
         SolverTerms(ds_ref=1.0, ds_nr=5.0, du_nr=0.01, sigma_n2=1.0,
                     **blocked), 0.0, 1.0),
        ("alpha=0 amplified",
         SolverTerms(ds_ref=1.0, ds_nr=0.5, du_nr=0.01, sigma_n2=2.0,
                     **blocked), 0.0, np.sqrt(2.0 / 0.49)),
    ]
    for name, terms, a_want, g_want in cases:
        sol = solve_band(terms, delta_u_db=12.0)
        assert sol.status is BandStatus.FEASIBLE, name
        assert sol.alpha == a_want, name
        assert abs(sol.gain - g_want) <= 1e-9 * g_want, name
        brute = brute_force_band(terms, 12.0)
        assert brute is not None, name
        assert brute[0] == a_want, name
        assert sol.penalty <= brute[2] + 1e-6, name
        assert brute[2] <= sol.penalty + 5e-3, name  # coarse gain grid
    print("criterion 3 PASS: four boundary constructions exact "
          "(alpha error 0, gain rel err <= 1e-9) and match brute force")


def test_criterion_04_favorable_scene_is_passthrough():
    cfg, params, signals, stats = _scene(0, duration=2.0, fe_snr_db=30.0,
                                         ne_snr_db=30.0)
    bset = build_beamformers(stats)
    fb = build_filterbank(params)
    res = run_joint(stats, bset, fb, a_star=0.7)
    alphas, gains = res.alphas, res.gains
    assert np.all(alphas == 1.0) and np.all(gains == 1.0)
    total = float(sum(s.penalty for s in res.band_solutions))
    assert total < 1e-9
    y, _ = render(signals, res, params)
    ref = synthesize(apply_beamformer(signals.spec_x, bset.w_ref), params,
                     signals.x.shape[-1])
    err = np.linalg.norm(y - ref) / np.linalg.norm(ref)
    assert err <= 1e-8
    print(f"criterion 4 PASS: 30/30 bands at (1,1), total penalty "
          f"{total:.1e}, rendered output matches reference within "
          f"{err:.1e} (tol 1e-8)")


def test_criterion_05_intelligibility_ordering():
    t0 = time.perf_counter()
    for label, spec in (("babble->car", SCENARIO_A),
                        ("car->babble", SCENARIO_B)):
        ordered = 0
        scores = None
        for seed in range(10):
            cfg, params, signals, stats = _scene(seed, **spec)
            bset = build_beamformers(stats)
            fb = build_filterbank(params)
            res = _run_all(stats, bset, fb)
            a = {k: evaluate(stats, v, fb).asii for k, v in res.items()}
            if a["joint"] >= a["blind"] - 1e-12 \
                    and a["blind"] >= a["unprocessed"] - 1e-12:
                ordered += 1
            _, tsnrs = allocate_targets(0.7, fb)
            best_xi = [_contract_best_xi(band_terms(stats, bset, fb, j,
                                                    tsnrs[j]))
                       for j in range(fb.n_bands)]
            bound = 0.95 * min(0.7, asii(best_xi, fb.importance))
            assert a["joint"] >= bound - 1e-12, (label, seed)
            if seed == 0:
                scores = a
        assert ordered >= 9, (label, ordered)
        print(f"criterion 5 PASS [{label}]: ordering on {ordered}/10 seeds, "
              f"seed-0 ASII joint/blind/unproc = "
              f"{scores['joint']:.3f}/{scores['blind']:.3f}/"
              f"{scores['unprocessed']:.3f}, joint >= 0.95*min(A*, best)")
    print(f"criterion 5 total {time.perf_counter() - t0:.1f}s")


def test_criterion_06_constraint_sign_identity():
    rng = np.random.default_rng(606)
    checked = 0
    for _ in range(10 ** 4):
        terms = random_terms(rng)
        a = rng.uniform()
        g = 10.0 ** rng.uniform(-2.0, 2.0)
        ds = combo_quad(a, terms.ds_ref, terms.ds_nr, terms.ds_cross)
        du = combo_quad(a, terms.du_ref, terms.du_nr, terms.du_cross)
        xi = g * g * ds / (g * g * du + terms.sigma_n2)
        if abs(xi - terms.target_snr) <= 1e-12:
            continue
        lhs = g * g * (ds - du * terms.target_snr) \
            - terms.sigma_n2 * terms.target_snr
        assert np.sign(lhs) == np.sign(xi - terms.target_snr)
        checked += 1
    assert checked > 9000
    print(f"criterion 6 PASS: sign identity on {checked} sampled points")


def test_criterion_07_wiener_filter_forms_agree():
    rng = np.random.default_rng(707)
    worst = 0.0
    for m in (2, 3):
        for _ in range(50):
            a = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
            c_u = a @ a.conj().T + 0.1 * np.eye(m)
            d = rng.standard_normal(m) + 1j * rng.standard_normal(m)
            d = d / d[0]
            s2 = 10.0 ** rng.uniform(-2.0, 2.0)
            loaded = c_u + DIAG_LOAD * np.real(np.trace(c_u)) / m * np.eye(m)
            for mu in (0.1, 1.0, 5.0, 20.0):
                w = mwf(s2, d, c_u, mu)
                direct = np.linalg.solve(
                    s2 * np.outer(d, d.conj()) + mu * loaded, s2 * d)
                worst = max(worst, float(np.max(np.abs(w - direct))
                                         / np.max(np.abs(direct))))
                assert np.allclose(w, direct, rtol=0.0, atol=1e-10
                                   * np.max(np.abs(direct)))
            w0 = mwf(s2, d, c_u, 0.0)
            assert abs(np.vdot(w0, d) - 1.0) <= 1e-10
    print(f"criterion 7 PASS: rank-one and direct filters agree, worst "
          f"rel err {worst:.1e} (tol 1e-10); mu=0 is distortionless")


def test_criterion_08_stft_round_trip_and_power():
    rng = np.random.default_rng(808)
    params = FrameParams.from_ms(16000)
    x = rng.standard_normal(16000)
    spec = analyze(x, params)
    back = synthesize(spec, params, x.shape[-1])
    interior = slice(params.frame_len, -params.frame_len)
    rt = np.linalg.norm(back[interior] - x[interior]) \
        / np.linalg.norm(x[interior])
    assert rt <= 1e-8
    weights = np.full(params.fft_len // 2 + 1, 2.0)
    weights[0] = weights[-1] = 1.0
    e_spec = float(np.sum(weights * np.abs(spec.data[0]) ** 2)
                   / params.fft_len)
    e_time = float(np.sum(x ** 2))
    pm = abs(e_spec - e_time) / e_time
    assert pm <= 1e-6
    print(f"criterion 8 PASS: round-trip err {rt:.1e} (tol 1e-8), "
          f"power match {pm:.1e} (tol 1e-6)")


def test_criterion_09_penalty_monotone_in_target():
    # Monotonicity is a property of the constrained optimum, so each
    # sweep is checked over its leading run of Feasible statuses; once a
    # band falls back the penalty is no longer the P0 objective (see the
    # project notes for a worked inversion example).
    targets = [a / (1.0 - a) for a in (0.1, 0.3, 0.5, 0.7)]
    violations = 0
    checked = 0
    for seed in range(100):
        rng = np.random.default_rng(900 + seed)
        base = random_terms(rng)
        pens = []
        for t in targets:
            sol = solve_band(dataclasses.replace(base, target_snr=t))
            if sol.status is not BandStatus.FEASIBLE:
                break
            pens.append(sol.penalty)
        if len(pens) >= 2:
            checked += 1
            diffs = np.diff(pens)
            if np.any(diffs < -1e-12 * np.maximum(1.0, np.abs(pens[:-1]))):
                violations += 1
    assert violations == 0
    assert checked >= 30  # the sweep must actually exercise the property
    print(f"criterion 9 PASS: penalty non-decreasing over the feasible "
          f"prefix of the A* sweep, 0 violations "
          f"({checked}/100 seeds with >= 2 feasible steps)")


def test_criterion_10_runtime_envelope():
    t0 = time.perf_counter()
    cfg, params, signals, stats = _scene(0, duration=10.0)
    bset = build_beamformers(stats)
    fb = build_filterbank(params)
    for res in _run_all(stats, bset, fb).values():
        render(signals, res, params)
        evaluate(stats, res, fb)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    assert cfg.n_mics == 2 and fb.n_bands == 30
    print(f"criterion 10 PASS: 10 s scene, 2 mics, 3 methods, 30 bands "
          f"in {elapsed:.2f}s (< 10s)")

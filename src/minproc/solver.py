"""Per-band joint selection of beamformer mix and playback gain.

Each band solves the minimum-processing problem

    minimize (1 - alpha)^2 + (1 - g)^2

subject to
    C1: the processed near-end SNR reaches the band target,
        g^2 * p(alpha) >= sigma_n2 * target_snr, with
        p(alpha) = speech_power(alpha) - noise_power(alpha) * target_snr,
    C2: the processed far-end noise stays under the cap,
        g^2 * noise_power(alpha) <= sigma_n2 * 10^(delta_u_db / 10),
        inactive when the band has no near-end noise (sigma_n2 = 0),
    C3: alpha in [0, 1],
    C4: g >= 1.

alpha = 1, g = 1 is the do-nothing point: the reference beamformer at
unit gain.  Both processed powers are quadratics in alpha because the
filter is a convex combination of two fixed filters, so for each alpha
the smallest admissible gain is closed form and a search over the
fixed alpha grid ALPHAS solves the problem.  The grid holds alpha = 0
and alpha = 1 exactly and applies the same C1/C2 tests there as the
closed-form boundary cases of boundary_solution, so whenever a boundary
candidate exists the grid answer is feasible and at least as good.

When no (alpha, g) is admissible the solver degrades deliberately:

* fallback_c1 (target unreachable): maximize the far-end SNR over
  alpha, then raise the gain just enough that the near-end noise costs
  at most delta_n_db of that SNR, clipped into [1, C2 cap].
* fallback_c2 (noise cap unreachable even at g = 1): keep g = 1 and
  choose alpha whose SNR lands closest to the target.
* fallback_both: run the gain at the C2 cap (dropping C4 if the cap
  sits below one; the cap wins) and choose alpha as above.
"""

from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = [
    "REL_TOL",
    "ALPHAS",
    "DELTA_U_DB",
    "DELTA_N_DB",
    "BandStatus",
    "SolverTerms",
    "BandSolution",
    "band_terms",
    "snr_margin",
    "subband_snr",
    "constraint_bounds",
    "boundary_solution",
    "grid_solve",
    "fallback_c1",
    "fallback_c2",
    "fallback_both",
    "solve_band",
]

# relative tolerance for constraint comparisons
REL_TOL = 1e-9
DELTA_U_DB = 12.0
DELTA_N_DB = 10.0

# the alpha grid of every search; it holds 0.0 and 1.0 exactly
ALPHAS = np.linspace(0.0, 1.0, 2001)
ALPHAS.flags.writeable = False


class BandStatus(Enum):
    FEASIBLE = "Feasible"
    C1_INFEASIBLE = "C1Infeasible"
    C2_INFEASIBLE = "C2Infeasible"
    BOTH_INFEASIBLE = "BothInfeasible"

    def __str__(self):
        return self.value


def _quad(alpha, at_one, at_zero, cross):
    """alpha^2 * at_one + (1-alpha)^2 * at_zero + alpha*(1-alpha) * cross."""
    a = np.asarray(alpha, dtype=float)
    return a * a * at_one + (1.0 - a) * (1.0 - a) * at_zero + a * (1.0 - a) * cross


@dataclass(frozen=True)
class SolverTerms:
    """Band-integrated powers of the combined filter as quadratics in alpha.

    *_ref belongs to alpha = 1 (the low-distortion reference filter),
    *_nr to alpha = 0 (the noise-reduction filter), and *_cross carries
    the interference term 2*Re{w_nr^H C w_ref}.  sigma_n2 is the
    near-end noise power in the band and target_snr the SNR-domain
    intelligibility target.
    """

    ds_ref: float
    ds_nr: float
    ds_cross: float
    du_ref: float
    du_nr: float
    du_cross: float
    sigma_n2: float
    target_snr: float

    def speech_power(self, alpha):
        return _quad(alpha, self.ds_ref, self.ds_nr, self.ds_cross)

    def noise_power(self, alpha):
        return _quad(alpha, self.du_ref, self.du_nr, self.du_cross)

    # margin coefficients: m(alpha) = speech - noise * target_snr
    @property
    def m_ref(self):
        return self.ds_ref - self.du_ref * self.target_snr

    @property
    def m_nr(self):
        return self.ds_nr - self.du_nr * self.target_snr

    @property
    def m_cross(self):
        return self.ds_cross - self.du_cross * self.target_snr


@dataclass(frozen=True)
class BandSolution:
    alpha: float
    gain: float
    status: BandStatus
    penalty: float
    xi: float


def band_terms(stats, bset, fb, band_idx, target_snr):
    """Integrate per-bin filter powers into one band's SolverTerms."""
    members = fb.members[band_idx]
    w = fb.weight[band_idx, members]
    d = stats.d[members]
    cu = stats.c_u[members]
    s2 = stats.sigma_s2[members]
    wr = bset.w_ref[members]
    wn = bset.w_nr[members]

    cu_wr = np.einsum("kmn,kn->km", cu, wr)
    cu_wn = np.einsum("kmn,kn->km", cu, wn)
    du_ref = float(w @ np.einsum("km,km->k", np.conj(wr), cu_wr).real)
    du_nr = float(w @ np.einsum("km,km->k", np.conj(wn), cu_wn).real)
    du_cross = float(w @ (2.0 * np.einsum("km,km->k", np.conj(wn), cu_wr).real))

    h_ref = np.einsum("km,km->k", np.conj(wr), d)
    h_nr = np.einsum("km,km->k", np.conj(wn), d)
    ds_ref = float(w @ (s2 * np.abs(h_ref) ** 2))
    ds_nr = float(w @ (s2 * np.abs(h_nr) ** 2))
    ds_cross = float(w @ (s2 * 2.0 * (h_nr * np.conj(h_ref)).real))

    sigma_n2 = float(w @ stats.sigma_n2[members])
    return SolverTerms(ds_ref, ds_nr, ds_cross, du_ref, du_nr, du_cross,
                       sigma_n2, float(target_snr))


def snr_margin(terms, alpha):
    """p(alpha): positive where the SNR target is reachable by gain alone."""
    return _quad(alpha, terms.m_ref, terms.m_nr, terms.m_cross)


def subband_snr(terms, alpha, g):
    """Near-end SNR g^2*speech / (g^2*noise + sigma_n2); 0 on a zero denominator."""
    g = np.asarray(g, dtype=float)
    num = g * g * terms.speech_power(alpha)
    den = g * g * terms.noise_power(alpha) + terms.sigma_n2
    out = np.divide(num, den, out=np.zeros_like(num + 0.0), where=den > 0.0)
    if out.ndim == 0:
        return float(out)
    return out


def _pick_last(values, mode="min"):
    """Index of the best value, ties (to 1e-12 relative) going to the
    largest index, i.e. toward larger alpha on an increasing grid."""
    v = np.asarray(values, dtype=float)
    if mode == "min":
        best = np.min(v)
        mask = v <= best + 1e-12 * max(abs(best), 1e-300)
    else:
        best = np.max(v)
        mask = v >= best - 1e-12 * max(abs(best), 1e-300)
    return int(np.flatnonzero(mask)[-1])


def _solution(terms, alpha, g, status):
    penalty = (1.0 - alpha) ** 2 + (1.0 - g) ** 2
    return BandSolution(float(alpha), float(g), status, float(penalty),
                        subband_snr(terms, alpha, g))


def constraint_bounds(terms, delta_u_db=DELTA_U_DB):
    """(rhs, cap): the C1 right-hand side sigma_n2 * target_snr and the
    C2 cap sigma_n2 * 10^(delta_u_db / 10).  Without near-end noise
    (sigma_n2 = 0) there is nothing to cap, so C2 is inactive (cap =
    inf), as it is for delta_u_db = inf."""
    rhs = terms.sigma_n2 * terms.target_snr
    if terms.sigma_n2 == 0.0:
        return rhs, np.inf
    return rhs, terms.sigma_n2 * 10.0 ** (delta_u_db / 10.0)


def boundary_solution(terms, delta_u_db=DELTA_U_DB):
    """Closed-form boundary candidates, checked in the order
    alpha=1 (i), alpha=1 (ii), alpha=0 (i), alpha=0 (ii).

    Condition (i): the margin already covers the near-end noise at unit
    gain and the noise cap holds, so (alpha, 1) is admissible.
    Condition (ii): the margin is positive but short, so the exact gain
    g = sqrt(sigma_n2*target_snr / margin) makes C1 tight; admissible if
    that gain respects the cap.  Returns None when nothing applies.
    """
    rhs, cap = constraint_bounds(terms, delta_u_db)
    for alpha, margin, du in ((1.0, terms.m_ref, terms.du_ref),
                              (0.0, terms.m_nr, terms.du_nr)):
        if margin >= rhs * (1.0 - REL_TOL) and du <= cap * (1.0 + REL_TOL):
            return _solution(terms, alpha, 1.0, BandStatus.FEASIBLE)
        if 0.0 < margin < rhs:
            g2 = rhs / margin
            if g2 * du <= cap * (1.0 + REL_TOL):
                return _solution(terms, alpha, np.sqrt(g2), BandStatus.FEASIBLE)
    return None


def grid_solve(terms, delta_u_db=DELTA_U_DB, delta_n_db=DELTA_N_DB):
    """Grid search over alpha with the closed-form minimal gain per point.

    Dispatches to the matching fallback when no point is admissible.
    """
    du = terms.noise_power(ALPHAS)
    p = snr_margin(terms, ALPHAS)
    rhs, cap = constraint_bounds(terms, delta_u_db)

    # smallest gain meeting C1 at each alpha: 1 where the margin already
    # covers the target, sqrt(rhs/p) where it is positive but short
    at_unit = p >= rhs * (1.0 - REL_TOL)
    amp = (~at_unit) & (p > 0.0)
    g = np.ones_like(ALPHAS)
    g[amp] = np.sqrt(rhs / p[amp])
    c1_ok = at_unit | amp
    c2_ok = g * g * du <= cap * (1.0 + REL_TOL)
    feasible = c1_ok & c2_ok

    if np.any(feasible):
        idx = np.flatnonzero(feasible)
        penalty = (1.0 - ALPHAS[idx]) ** 2 + (1.0 - g[idx]) ** 2
        best = idx[_pick_last(penalty, "min")]
        return _solution(terms, ALPHAS[best], g[best], BandStatus.FEASIBLE)

    # classify which constraint is empty; the handlers re-search alpha
    safe_du = np.where(du > 0.0, du, 1.0)
    reach = np.where(du > 0.0, p * (cap / safe_du),
                     np.where(p > 0.0, np.inf, 0.0))
    c1_gone = np.max(reach) < rhs * (1.0 - REL_TOL) if rhs > 0.0 \
        else np.max(reach) < 0.0
    c2_gone = np.min(du) > cap * (1.0 + REL_TOL)

    if c1_gone and not c2_gone:
        return fallback_c1(terms, delta_u_db, delta_n_db)
    if c2_gone and not c1_gone:
        return fallback_c2(terms)
    return fallback_both(terms, delta_u_db)


def fallback_c1(terms, delta_u_db=DELTA_U_DB, delta_n_db=DELTA_N_DB):
    """Target unreachable: best far-end SNR, then a bounded near-end boost.

    alpha maximizes speech/noise over the grid.  The raw gain makes the
    near-end noise cost exactly delta_n_db of that SNR,

        g^2 = theta * sigma_n2 / ((1 - theta) * noise_power(alpha)),
        theta = 10^(-delta_n_db / 10),

    which follows from solving subband_snr(alpha, g) = theta * fe_snr
    for g.  The gain is then clipped into [1, C2 cap]; when the cap
    itself sits below one it wins and the status reports both
    constraints lost.
    """
    if not 0.0 < 10.0 ** (-delta_n_db / 10.0) < 1.0:
        raise ValueError("delta_n_db must be positive")
    ds = terms.speech_power(ALPHAS)
    du = terms.noise_power(ALPHAS)
    ratio = np.where(du > 0.0, ds / np.where(du > 0.0, du, 1.0),
                     np.where(ds > 0.0, np.inf, 0.0))
    best = _pick_last(ratio, "max")
    alpha = ALPHAS[best]
    du_best = du[best]

    theta = 10.0 ** (-delta_n_db / 10.0)
    if du_best > 0.0:
        g = np.sqrt(theta * terms.sigma_n2 / ((1.0 - theta) * du_best))
    else:
        g = 1.0

    _, cap = constraint_bounds(terms, delta_u_db)
    g_cap = np.sqrt(cap / du_best) if du_best > 0.0 else np.inf
    if g_cap < 1.0:
        return _solution(terms, alpha, g_cap, BandStatus.BOTH_INFEASIBLE)
    return _solution(terms, alpha, min(max(g, 1.0), g_cap),
                     BandStatus.C1_INFEASIBLE)


def fallback_c2(terms):
    """Noise cap unreachable even unamplified: keep g = 1 and steer the
    SNR as close to the target as the combination allows."""
    xi = subband_snr(terms, ALPHAS, 1.0)
    best = _pick_last(np.abs(xi - terms.target_snr), "min")
    return _solution(terms, ALPHAS[best], 1.0, BandStatus.C2_INFEASIBLE)


def fallback_both(terms, delta_u_db=DELTA_U_DB):
    """Both constraints lost: run the gain at the C2 cap and steer the
    SNR toward the target; the cap wins over g >= 1."""
    du = terms.noise_power(ALPHAS)
    _, cap = constraint_bounds(terms, delta_u_db)
    g = np.sqrt(np.where(du > 0.0, cap / np.where(du > 0.0, du, 1.0), np.inf))
    xi = subband_snr(terms, ALPHAS, g)
    best = _pick_last(np.abs(xi - terms.target_snr), "min")
    g_best = g[best] if np.isfinite(g[best]) else 1.0
    return _solution(terms, ALPHAS[best], g_best, BandStatus.BOTH_INFEASIBLE)


def solve_band(terms, delta_u_db=DELTA_U_DB, delta_n_db=DELTA_N_DB):
    """Solve one band: the grid optimum, or the matching fallback."""
    return grid_solve(terms, delta_u_db, delta_n_db)

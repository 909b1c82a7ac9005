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
unit gain.  Both processed powers are quadratics in alpha, so for each
alpha the smallest admissible gain is closed form, and a search over
the fixed grid ALPHAS, which holds 0 and 1 exactly, solves the problem;
the fallbacks take the bands where no point is admissible.

Every grid value is one einsum contraction (_on_grid) that multiplies
and then adds in _quad's single-alpha order, so it equals the value at
a single alpha; an exact zero may lose its sign (the sum starts from
+0), and no decision reads that sign.

The fallbacks and the C1-reach test divide by the far-end noise power
du directly.  Their guards apply only where du has a zero on the grid,
for fallback_both's SNR also where sigma_n2 = 0, and for the reach test
also where cap/du overflows (an infinite cap included).  C2-dead bands,
the only ones fallback_c2 gets, never need them: du > cap >= 0 at every
alpha under a finite cap.
"""

import math
from dataclasses import dataclass, fields
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
    "band_term_table",
    "band_rows",
    "band_terms",
    "snr_margin",
    "subband_snr",
    "constraint_bounds",
    "boost_fraction",
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


def _basis(a):
    """alpha^2, (1-alpha)^2 and alpha*(1-alpha): the quadratic basis."""
    return a * a, (1.0 - a) * (1.0 - a), a * (1.0 - a)


# the alpha grid of every search; it holds 0.0 and 1.0 exactly
ALPHAS = np.linspace(0.0, 1.0, 2001)
# its basis, formed once as (3, 2001) stacked rows, and unit gain over it
_BASIS = np.array(_basis(ALPHAS))
_ONES = np.ones_like(ALPHAS)
for _read_only in (ALPHAS, _BASIS, _ONES):
    _read_only.flags.writeable = False


class BandStatus(Enum):
    FEASIBLE = "Feasible"
    C1_INFEASIBLE = "C1Infeasible"
    C2_INFEASIBLE = "C2Infeasible"
    BOTH_INFEASIBLE = "BothInfeasible"

    def __str__(self):
        return self.value


def _on_grid(coefs):
    """Each (at_one, at_zero, cross) row's quadratic over ALPHAS: (n, 3)
    coefficients, (n, 2001) values, summed in _quad's order."""
    return np.einsum("ij,jk->ik", coefs, _BASIS)


def _quad(alpha, at_one, at_zero, cross):
    """alpha^2 * at_one + (1-alpha)^2 * at_zero + alpha*(1-alpha) * cross."""
    a2, b2, ab = _basis(np.asarray(alpha, dtype=float))
    # in place, fewer temporaries; the sum keeps its left-to-right order
    out = a2 * at_one
    out += b2 * at_zero
    out += ab * cross
    return out


@dataclass(frozen=True)
class SolverTerms:
    """Band-integrated powers of the combined filter as quadratics in alpha.

    *_ref belongs to alpha = 1 (the low-distortion reference filter),
    *_nr to alpha = 0 (the noise-reduction filter), and *_cross carries
    the interference term 2*Re{w_nr^H C w_ref}.  sigma_n2 is the
    near-end noise power in the band and target_snr the SNR-domain
    intelligibility target.  Fields are floats for one band, or
    (n_bands,) arrays for every band at once (band_term_table); the
    methods and subband_snr work elementwise on either.
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


@dataclass(frozen=True)
class BandSolution:
    """One band's decision; the penalty follows from it."""

    alpha: float
    gain: float
    status: BandStatus

    @property
    def penalty(self):
        return (1.0 - self.alpha) ** 2 + (1.0 - self.gain) ** 2


def _speech_per_bin(stats, w_ref, w_nr):
    """Per-bin ds_ref, ds_nr and ds_cross of the filter pair (w_ref, w_nr)."""
    h_ref = np.einsum("km,km->k", np.conj(w_ref), stats.d)
    h_nr = np.einsum("km,km->k", np.conj(w_nr), stats.d)
    s2 = stats.sigma_s2
    return [s2 * np.abs(h_ref) ** 2, s2 * np.abs(h_nr) ** 2,
            s2 * 2.0 * (h_nr * np.conj(h_ref)).real]


def band_term_table(stats, bset, fb, target_snrs):
    """Every band's SolverTerms at once, in (n_bands,) columns.  The seven
    per-bin powers of the filter pair are formed once over all bins and
    integrated under the band weights in one product."""
    cu, wr, wn = stats.c_u, bset.w_ref, bset.w_nr
    cu_wr = np.einsum("kmn,kn->km", cu, wr)
    cu_wn = np.einsum("kmn,kn->km", cu, wn)
    per_bin = np.stack([
        *_speech_per_bin(stats, wr, wn),
        np.einsum("km,km->k", np.conj(wr), cu_wr).real,
        np.einsum("km,km->k", np.conj(wn), cu_wn).real,
        2.0 * np.einsum("km,km->k", np.conj(wn), cu_wr).real,
        stats.sigma_n2,
    ], axis=1)
    return SolverTerms(*(fb.weight @ per_bin).T,
                       np.asarray(target_snrs, dtype=float))


def band_rows(terms):
    """One float SolverTerms per band of an array SolverTerms."""
    columns = [np.asarray(getattr(terms, f.name)).tolist()
               for f in fields(SolverTerms)]
    return [SolverTerms(*row) for row in zip(*columns)]


def band_terms(stats, bset, fb, band_idx, target_snr):
    """Band band_idx's SolverTerms: row band_idx of band_term_table."""
    targets = np.full(fb.n_bands, float(target_snr))
    return band_rows(band_term_table(stats, bset, fb, targets))[band_idx]


def _margin_coefs(terms):
    """at_one, at_zero and cross of the margin quadratic p(alpha)."""
    t = terms.target_snr
    return (terms.ds_ref - terms.du_ref * t, terms.ds_nr - terms.du_nr * t,
            terms.ds_cross - terms.du_cross * t)


def snr_margin(terms, alpha):
    """p(alpha) = speech - noise * target_snr: positive where the SNR
    target is reachable by gain alone."""
    return _quad(alpha, *_margin_coefs(terms))


def _ratio(num, den):
    """num / den where den > 0; elsewhere inf where num > 0 and 0 where
    not."""
    return np.divide(num, den, out=np.where(num > 0.0, np.inf, 0.0),
                     where=den > 0.0)


def _snr(g2, speech, noise, sigma_n2):
    """subband_snr from the squared gain and the two processed powers."""
    return _ratio(g2 * speech, g2 * noise + sigma_n2)


def subband_snr(terms, alpha, g):
    """Near-end SNR g^2*speech / (g^2*noise + sigma_n2).  On a zero
    denominator it is inf where speech arrives and 0 where it does not."""
    g = np.asarray(g, dtype=float)
    out = _snr(g * g, terms.speech_power(alpha), terms.noise_power(alpha),
               terms.sigma_n2)
    if out.ndim == 0:
        return float(out)
    return out


def _last_true(mask):
    """Index of the last True entry of a boolean array."""
    return mask.size - 1 - int(mask[::-1].argmax())


def _pick_last(values):
    """Index of the smallest value, NaN entries left out, ties (to 1e-12
    relative) going to the largest index, i.e. toward larger alpha on an
    increasing grid.  Pass the negated values to pick the largest.  An
    infinite best has no relative tolerance: the last entry equal to it
    wins."""
    best = np.fmin.reduce(values)
    if not math.isfinite(best):
        return _last_true(values == best)
    return _last_true(values <= best + 1e-12 * max(abs(best), 1e-300))


def _solution(alpha, g, status):
    return BandSolution(float(alpha), float(g), status)


def constraint_bounds(terms, delta_u_db=DELTA_U_DB):
    """(rhs, cap): the C1 right-hand side sigma_n2 * target_snr and the
    C2 cap sigma_n2 * 10^(delta_u_db / 10).  Without near-end noise
    (sigma_n2 = 0) there is nothing to cap, so C2 is inactive (cap =
    inf), as it is for delta_u_db = inf."""
    rhs = terms.sigma_n2 * terms.target_snr
    if terms.sigma_n2 == 0.0:
        return rhs, np.inf
    return rhs, terms.sigma_n2 * 10.0 ** (delta_u_db / 10.0)


def boost_fraction(delta_n_db):
    """fallback_c1's theta = 10^(-delta_n_db / 10); ValueError unless
    delta_n_db is finite with 0 < theta < 1 in floats.  That rejects
    delta_n_db <= 0, NaN and inf, values above about 3236, whose theta
    underflows to 0, and positive values below about 1e-16, such as
    1e-320, whose theta rounds to 1."""
    theta = 10.0 ** (-max(delta_n_db, 0.0) / 10.0)  # max(): no overflow
    if not 0.0 < theta < 1.0:
        raise ValueError("delta_n_db must be finite, with "
                         "0 < 10^(-delta_n_db / 10) < 1")
    return theta


def _unit_gain_ok(margin, du, rhs, cap):
    """C1 and C2 hold at g = 1, each to REL_TOL."""
    return margin >= rhs * (1.0 - REL_TOL) and du <= cap * (1.0 + REL_TOL)


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
    for alpha in (1.0, 0.0):
        margin, du = snr_margin(terms, alpha), terms.noise_power(alpha)
        if _unit_gain_ok(margin, du, rhs, cap):
            return _solution(alpha, 1.0, BandStatus.FEASIBLE)
        if 0.0 < margin < rhs:
            g2 = rhs / margin
            if g2 * du <= cap * (1.0 + REL_TOL):
                return _solution(alpha, np.sqrt(g2), BandStatus.FEASIBLE)
    return None


def grid_solve(terms, delta_u_db=DELTA_U_DB, delta_n_db=DELTA_N_DB):
    """Grid search over alpha with the closed-form minimal gain per point.

    The do-nothing point is answered first: where alpha = 1 at unit gain
    is admissible its penalty 0 is the minimum and ties go to the larger
    alpha, so the search would return it too.  Dispatches to the
    matching fallback when no point is admissible.  Every band checks
    delta_n_db (boost_fraction), whichever route it takes.

    A dead constraint skips the gain search, which could admit nothing:
    C2 is dead where the noise power exceeds the cap at every alpha,
    since every gain is at least 1 and so, in floats too, g^2 * du >= du;
    C1 is dead where rhs > 0 and the margin is nowhere positive, since no
    gain lifts it.
    """
    theta = boost_fraction(delta_n_db)
    rhs, cap = constraint_bounds(terms, delta_u_db)
    margin = _margin_coefs(terms)
    if _unit_gain_ok(margin[0], terms.du_ref, rhs, cap):
        return _solution(1.0, 1.0, BandStatus.FEASIBLE)

    du, p = _on_grid(np.array(
        [(terms.du_ref, terms.du_nr, terms.du_cross), margin]))
    cap_hi = cap * (1.0 + REL_TOL)
    pos = p > 0.0
    du_min = du.min()
    c2_gone = du_min > cap_hi
    c1_gone = rhs > 0.0 and not pos[pos.argmax()]

    if not (c1_gone or c2_gone):
        # smallest gain meeting C1 at each alpha: 1 where the margin
        # already covers the target, sqrt(rhs/p) where it is positive
        # but short (pos > at_unit)
        at_unit = p >= rhs * (1.0 - REL_TOL)
        g = _ONES.copy()
        np.divide(rhs, p, out=g, where=pos > at_unit)
        np.sqrt(g, out=g)
        load = g * g
        load *= du
        # at_unit | pos: a margin covering rhs <= 0 includes every
        # positive one, and a margin covering rhs > 0 is positive
        feasible = load <= cap_hi
        feasible &= at_unit if rhs <= 0.0 else pos
        if feasible[feasible.argmax()]:
            # (1-alpha)^2 + (1-g)^2, NaN leaving inadmissible points out
            penalty = np.full_like(load, np.nan)
            np.add(np.square(1.0 - g, out=load), _BASIS[1], out=penalty,
                   where=feasible)
            best = _pick_last(penalty)
            return _solution(ALPHAS[best], g[best], BandStatus.FEASIBLE)

    # classify which constraint is empty; the handlers re-search alpha
    ds = _on_grid(np.array([(terms.ds_ref, terms.ds_nr, terms.ds_cross)],
                           dtype=float))[0]
    if not c1_gone:
        # the largest C1 left-hand side the cap admits, p*cap/du; where
        # du has a zero or cap/du may overflow (an infinite cap included),
        # a positive margin without far-end noise reaches any target, a
        # zero margin nothing.  du >= du_min bounds cap/du at every alpha:
        # below 2^1020 where du_min > cap * 2^-1020, checked undivided.
        if du_min > cap * 2.0 ** -1020:
            reach = cap / du
            reach *= p
        else:
            reach = np.where(pos, np.inf, 0.0)
            live = du > 0.0
            with np.errstate(over="ignore"):
                ratio = np.divide(cap, du, out=_ONES.copy(), where=live)
            np.multiply(p, ratio, out=reach, where=live & (p != 0.0))
        c1_gone = reach.max() < (rhs * (1.0 - REL_TOL) if rhs > 0.0
                                 else 0.0)

    if c1_gone and not c2_gone:
        return fallback_c1(terms, ds, du, cap, theta)
    if c2_gone and not c1_gone:
        return fallback_c2(terms, ds, du)
    return fallback_both(terms, ds, du, cap)


def fallback_c1(terms, ds, du, cap, theta):
    """Target unreachable: best far-end SNR, then a bounded near-end boost.

    ds and du are speech_power and noise_power over ALPHAS, cap the C2
    cap of constraint_bounds and theta the boost_fraction.  alpha
    maximizes speech/noise over the grid.  The raw gain makes the
    near-end noise cost exactly delta_n_db of that SNR,

        g^2 = theta * sigma_n2 / ((1 - theta) * noise_power(alpha)),
        theta = 10^(-delta_n_db / 10),

    which follows from solving subband_snr(alpha, g) = theta * fe_snr
    for g.  The gain is then clipped into [1, C2 cap]; when the cap
    itself sits below one it wins and the status reports both
    constraints lost.

    The ratio is guarded only where du has a zero on the grid: there it
    is inf if speech still arrives and 0 if not.
    """
    ratio = ds / du if du.min() > 0.0 else _ratio(ds, du)
    best = _pick_last(np.negative(ratio, out=ratio))
    alpha = ALPHAS[best]
    du_best = du[best]

    if du_best > 0.0:
        g = np.sqrt(theta * terms.sigma_n2 / ((1.0 - theta) * du_best))
    else:
        g = 1.0

    g_cap = np.sqrt(cap / du_best) if du_best > 0.0 else np.inf
    if g_cap < 1.0:
        return _solution(alpha, g_cap, BandStatus.BOTH_INFEASIBLE)
    return _solution(alpha, min(max(g, 1.0), g_cap),
                     BandStatus.C1_INFEASIBLE)


def _steer(terms, xi, g, status):
    """Pick the alpha whose SNR xi (over ALPHAS, at the kept gain g)
    lands closest to the target."""
    xi -= terms.target_snr
    best = _pick_last(np.abs(xi, out=xi))
    return _solution(ALPHAS[best], g[best], status)


def fallback_c2(terms, ds, du):
    """Noise cap unreachable even unamplified: keep g = 1 and steer the
    SNR as close to the target as the combination allows.

    Needs what grid_solve's C2-dead bands have: du > cap >= 0 at every
    alpha under a finite cap, so du > 0 and sigma_n2 > 0, and the SNR
    ds / (du + sigma_n2) divides directly.
    """
    return _steer(terms, ds / (du + terms.sigma_n2), _ONES,
                  BandStatus.C2_INFEASIBLE)


def fallback_both(terms, ds, du, cap):
    """Both constraints lost: run the gain at the C2 cap and steer the
    SNR toward the target; the cap wins over g >= 1.  Where no far-end
    noise passes (du = 0) there is nothing to cap and the gain is 1.
    That guard applies only where du has a zero on the grid, the SNR's
    also where sigma_n2 = 0; a C2-dead band needs neither."""
    direct = du.min() > 0.0
    if direct:
        g = cap / du
    else:
        g = np.divide(cap, du, out=_ONES.copy(), where=du > 0.0)
    np.sqrt(g, out=g)
    g2 = g * g
    if direct and terms.sigma_n2 > 0.0:
        xi = g2 * ds
        xi /= g2 * du + terms.sigma_n2
    else:
        xi = _snr(g2, ds, du, terms.sigma_n2)
    return _steer(terms, xi, g, BandStatus.BOTH_INFEASIBLE)


def solve_band(terms, delta_u_db=DELTA_U_DB, delta_n_db=DELTA_N_DB):
    """Solve one band: the grid optimum, or the matching fallback."""
    return grid_solve(terms, delta_u_db, delta_n_db)

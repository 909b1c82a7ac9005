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
alpha the smallest admissible gain is closed form, and grid_solve takes
the optimum over alpha from closed-form candidates:
  - alpha = 0 and alpha = 1;
  - the roots in (0, 1) of p = rhs, p = 0, du = cap and rhs*du = cap*p,
    which lie on the constraints, inside their REL_TOL tests, so that
    arithmetic in another order admits them too, and the vertices of
    those quadratics, which catch tangencies within REL_TOL;
  - the minimum of f(alpha) = (1 - alpha)^2 + (1 - sqrt(rhs/p))^2 inside
    each stretch where 0 < p < rhs and p falls; where p rises f falls.
    f is convex where 2p'^2 + D >= 0 (D = B^2 - 4AC of p), always so
    where p is concave or has real roots, and safeguarded Newton finds
    its one stationary point.  Elsewhere f' runs - + - at most, and the
    root of a sextic brackets the minimum (_Band.stationary).
Each candidate is admitted by the REL_TOL tests of C1 and C2 at its own
alpha, and ties go to the larger alpha.  Where none is, a fallback takes
the band; its objective is a ratio of quadratics, whose optimum lies
among closed-form candidates too: 0, 1, the ratio's turns and the roots
where it meets its target or its denominator vanishes.  No alpha grid
remains.  All of it runs on the band's powers divided by 2^e, e the
frexp exponent of the largest, lowered where needed so that none turns
subnormal (_exponent): the problem is homogeneous of degree one in
them, so that moves no rounding and keeps the root arithmetic far from
overflow.  It runs on Python floats, which overflow to inf without a
warning and raise on a zero divisor; every divisor it forms is checked
nonzero or positive first.

One search serves both methods.  The blind method's far-end stage
(_blind_alpha) is the same search at unit gain on its own, unscaled
powers: C1 on the margin clean - target * eps(alpha), with rhs = 0 and
no cap, whose least penalty is the largest alpha that meets it; where
none does, it takes fallback_c1's best ratio (_best_ratio).
"""

import math
from dataclasses import dataclass, fields
from enum import Enum

import numpy as np

__all__ = [
    "REL_TOL",
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


class BandStatus(Enum):
    FEASIBLE = "Feasible"
    C1_INFEASIBLE = "C1Infeasible"
    C2_INFEASIBLE = "C2Infeasible"
    BOTH_INFEASIBLE = "BothInfeasible"

    def __str__(self):
        return self.value


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
        return _at(np.asarray(alpha, dtype=float),
                   (self.ds_ref, self.ds_nr, self.ds_cross))

    def noise_power(self, alpha):
        return _at(np.asarray(alpha, dtype=float),
                   (self.du_ref, self.du_nr, self.du_cross))


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
    return _at(np.asarray(alpha, dtype=float), _margin_coefs(terms))


def subband_snr(terms, alpha, g):
    """Near-end SNR g^2*speech / (g^2*noise + sigma_n2).  On a zero
    denominator it is inf where speech arrives and 0 where it does not."""
    g2 = np.square(np.asarray(g, dtype=float))
    num = g2 * terms.speech_power(alpha)
    den = g2 * terms.noise_power(alpha) + terms.sigma_n2
    out = np.divide(num, den, out=np.where(num > 0.0, np.inf, 0.0),
                    where=den > 0.0)
    return float(out) if out.ndim == 0 else out


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


def boundary_solution(terms, delta_u_db=DELTA_U_DB):
    """Closed-form boundary candidates, checked in the order
    alpha=1 (i), alpha=1 (ii), alpha=0 (i), alpha=0 (ii).

    Condition (i): the margin already covers the near-end noise at unit
    gain and the noise cap holds, so (alpha, 1) is admissible.
    Condition (ii): the margin is positive but short, so the exact gain
    g = sqrt(sigma_n2*target_snr / margin) makes C1 tight; admissible if
    that gain respects the cap (_Band.gain).  Returns None when nothing
    applies.
    """
    band = _Band(_margin_coefs(terms),
                 (terms.du_ref, terms.du_nr, terms.du_cross),
                 *constraint_bounds(terms, delta_u_db))
    for alpha in (1.0, 0.0):
        g = band.gain(alpha)
        if g is not None:
            return _solution(alpha, g, BandStatus.FEASIBLE)
    return None


def _std(c):
    """Power-basis coefficients (A, B, C) of A*alpha^2 + B*alpha + C from
    an (at_one, at_zero, cross) triple."""
    at_one, at_zero, cross = c
    return at_one + at_zero - cross, cross - 2.0 * at_zero, at_zero


def _at(alpha, c):
    """alpha^2 * at_one + (1-alpha)^2 * at_zero + alpha*(1-alpha) * cross
    of an (at_one, at_zero, cross) triple c, summed left to right, at a
    float alpha or elementwise on arrays."""
    b = 1.0 - alpha
    return alpha * alpha * c[0] + b * b * c[1] + alpha * b * c[2]


def _roots(a, b, c):
    """The vertex -b/(2a) of a*x^2 + b*x + c and its real roots, from the
    form that never subtracts near-equal terms; where a = 0, the root of
    b*x + c."""
    if a == 0.0:
        return (-c / b,) if b != 0.0 else ()
    vertex = -b / (2.0 * a)
    disc = b * b - 4.0 * a * c
    if not disc >= 0.0:
        return (vertex,)
    q = -0.5 * (b + math.copysign(math.sqrt(disc), b))
    return (vertex, q / a, c / q) if q != 0.0 else (vertex,)


def _extreme(c, top):
    """The largest (top) or the smallest value of a quadratic over
    [0, 1]: at an end, or at its vertex where that lies inside."""
    a, b, _ = _std(c)
    values = [c[1], c[0]]
    if a != 0.0 and 0.0 < -b / (2.0 * a) < 1.0:
        values.append(_at(-b / (2.0 * a), c))
    return max(values) if top else min(values)


def _inside(*cuts):
    """0, 1 and those of cuts that lie inside (0, 1), largest first."""
    return sorted({0.0, 1.0, *(x for x in cuts if 0.0 < x < 1.0)},
                  reverse=True)


def _cuts(c):
    """The alphas in (0, 1) where an (at_one, at_zero, cross) triple's
    quadratic vanishes, or may turn: it is (1 - alpha)^2 (c[0] z^2 +
    c[2] z + c[1]), z = alpha / (1 - alpha), whose vertex and roots z > 0
    map to alpha = z / (1 + z); z keeps a root near an end apart from it,
    where the power basis would not."""
    return [z / (1.0 + z) for z in _roots(c[0], c[2], c[1]) if z > 0.0]


def _turns(num, den):
    """Where num/den may turn, two triples: in z its slope's numerator
    is a quadratic (the cubic terms cancel), whose _cuts these are."""
    n1, n0, nc = num
    d1, d0, dc = den
    return _cuts((n1 * dc - nc * d1, nc * d0 - n0 * dc,
                  2.0 * (n1 * d0 - n0 * d1)))


def _div(num, den):
    """num / den where den > 0; elsewhere inf where num > 0 and 0 where
    not, as subband_snr reads a zero denominator."""
    return num / den if den > 0.0 else (math.inf if num > 0.0 else 0.0)


def _pick(found, floor=1e-300):
    """(alpha, extra) of the largest alpha among found's (value, alpha,
    extra) within 1e-12 * max(|best|, floor) of the least value, best;
    an infinite best ties only with its equals."""
    best = min(found)[0]
    tie = best + 1e-12 * max(abs(best), floor) if math.isfinite(best) \
        else best
    return max((x, extra) for value, x, extra in found if value <= tie)


def _inward(admits, alpha, toward):
    """The first float from alpha on the way to toward that admits, in
    doubling steps, or toward itself: a root of p = 0 (the C1 edge where
    rhs = 0) or a vertex at a tangency may round to the wrong side of
    its test."""
    step = math.copysign(math.ulp(alpha if alpha else toward),
                         toward - alpha)
    while True:
        alpha += step
        if (toward - alpha) * step <= 0.0:
            return toward
        if admits(alpha):
            return alpha
        step *= 2.0


def _take(found, alpha, g):
    """Append (penalty, alpha, g) to found; return the penalty."""
    pen = (1.0 - g) * (1.0 - g) + (1.0 - alpha) * (1.0 - alpha)
    found.append((pen, alpha, g))
    return pen


def _zero(fn, lo, hi):
    """The zero of fn in (lo, hi), given fn(lo) < 0 < fn(hi) and one sign
    change between: Newton steps on fn(x) = (value, slope), bisecting
    where a step would leave the bracket."""
    x = 0.5 * (lo + hi)
    for _ in range(200):
        s, ds = fn(x)
        if s < 0.0:
            lo = x
        elif s > 0.0:
            hi = x
        else:
            return x
        nx = x - s / ds if ds > 0.0 else math.nan
        if abs(nx - x) <= 4e-16 * abs(x):
            return nx
        if not lo < nx < hi:
            nx = 0.5 * (lo + hi)
            if nx == lo or nx == hi:
                return nx
        x = nx
    return x


class _Band:
    """One band's search over alpha: margin and noise are (at_one,
    at_zero, cross) triples of p and du."""

    __slots__ = ("margin", "noise", "rhs", "cap", "rhs_lo", "cap_hi", "pa",
                 "pb", "pc")

    def __init__(self, margin, noise, rhs, cap):
        self.margin, self.noise, self.rhs, self.cap = margin, noise, rhs, cap
        self.rhs_lo, self.cap_hi = rhs * (1.0 - REL_TOL), cap * (1.0 + REL_TOL)
        self.pa, self.pb, self.pc = _std(margin)

    def gain(self, alpha):
        """The least gain meeting C1 at one alpha (1 where the margin
        covers rhs to REL_TOL), or None where C1 or C2 fails its REL_TOL
        test there.  p and du are _at's values, inlined."""
        b = 1.0 - alpha
        a2, b2, ab = alpha * alpha, b * b, alpha * b
        m, u = self.margin, self.noise
        p = a2 * m[0] + b2 * m[1] + ab * m[2]
        if p >= self.rhs_lo:
            g = 1.0
        elif self.rhs > 0.0 and p > 0.0:
            g = math.sqrt(self.rhs / p)
        else:
            return None
        du = a2 * u[0] + b2 * u[1] + ab * u[2]
        return g if g * g * du <= self.cap_hi else None

    def slope(self, alpha):
        """f'(alpha) of f = (1-alpha)^2 + (1-g)^2, g = sqrt(rhs/p), and
        f''(alpha); f' is +inf where p has reached 0."""
        p = _at(alpha, self.margin)
        if p <= 0.0:
            return math.inf, math.inf
        g = math.sqrt(self.rhs / p)
        dp = 2.0 * self.pa * alpha + self.pb
        dg = -0.5 * g * dp / p
        d2g = g * (0.75 * dp * dp / p - self.pa) / p
        return (-2.0 * (1.0 - alpha) + 2.0 * (g - 1.0) * dg,
                2.0 + 2.0 * dg * dg + 2.0 * (g - 1.0) * d2g)

    def stationary(self, lo, hi):
        """The minimum of f inside (lo, hi), where p falls and 0 < p <
        rhs, or None.

        (1 - sqrt(rhs/p))^2 is convex where sqrt(rhs/p) is, that is where
        3p'^2 - 2p p'' = 2p'^2 + D >= 0 (D = B^2 - 4AC of p): wherever p
        is concave or has real roots, and elsewhere where |p'| is large
        enough; |p'| is least at hi.  Convex f has one stationary point.

        Elsewhere p = A((m - alpha)^2 + k) with A, k > 0.  With R = rhs/A
        and y = sqrt(rhs/p), which rises with alpha, f' has the sign of
        Psi(y) - R(1 - m), Psi(y) = sqrt(R/y^2 - k) (y^4 - y^3 - R).  Psi
        rises where y^4 - y^3 < R; beyond that, d ln Psi/dy has the sign
        of zeta(y) = -4k y^6 + 3k y^5 + 3R y^4 - 2R y^3 + R^2, which is
        positive at y = 1 (R > k, as p < rhs) and changes sign once on
        y > 1, since zeta'/(3y^2) is concave there.  So Psi rises to the
        root y* of zeta and then falls, f' runs - + - at most, and the
        minimum is f''s one zero before y*.
        """
        pa, pb, pc = self.pa, self.pb, self.pc
        disc = pb * pb - 4.0 * pa * pc
        dp = 2.0 * pa * hi + pb
        if pa > 0.0 and 2.0 * dp * dp + disc < 0.0:
            k, r = -disc / (4.0 * pa * pa), self.rhs / pa

            def falls(y):
                """-zeta(y) and its slope: zeta falls through 0 at y*."""
                y2 = y * y
                return (((((4.0 * k * y - 3.0 * k) * y - 3.0 * r) * y
                          + 2.0 * r) * y2 * y - r * r),
                        3.0 * y2 * (((8.0 * k * y - 5.0 * k) * y - 4.0 * r)
                                    * y + 2.0 * r))

            # y at the ends; p >= A k, its least value, rounding aside
            y_lo = math.sqrt(self.rhs / _at(lo, self.margin))
            y_hi = math.sqrt(self.rhs / max(_at(hi, self.margin), pa * k))
            if falls(y_hi)[0] > 0.0:
                if falls(y_lo)[0] >= 0.0:
                    return None  # past y* already: f' runs + -
                y = _zero(falls, y_lo, y_hi)
                hi = min(hi, -pb / (2.0 * pa)
                         - math.sqrt(max(r / (y * y) - k, 0.0)))
                if not lo < hi:
                    return None
        # f' changes sign at most once in (lo, hi), from - to + at a minimum
        if not self.slope(lo)[0] < 0.0 < self.slope(hi)[0]:
            return None
        return _zero(self.slope, lo, hi)

    def search(self):
        """(alpha, g) of the least penalty among the candidates, ties
        going to the larger alpha, or None where none is admissible."""
        noise, rhs, cap = self.noise, self.rhs, self.cap
        pa, pb, pc = self.pa, self.pb, self.pc
        cuts = [*_roots(pa, pb, pc - rhs)]
        if rhs > 0.0:
            cuts += _roots(pa, pb, pc)
        if cap < math.inf:
            ua, ub, uc = _std(noise)
            cuts += _roots(ua, ub, uc - cap)
            if rhs > 0.0:
                cuts += _roots(cap * pa - rhs * ua, cap * pb - rhs * ub,
                               cap * pc - rhs * uc)
        points = _inside(*cuts)
        # right to left: no alpha left of hi beats (1 - hi)^2
        found, best = [], math.inf
        hi, g_hi = 1.0, self.gain(1.0)
        if g_hi is not None:
            best = _take(found, hi, g_hi)
        for lo in points[1:]:
            if (1.0 - hi) * (1.0 - hi) >= best:
                break
            g_lo = self.gain(lo)
            if g_lo is not None:
                best = min(best, _take(found, lo, g_lo))
            mid = 0.5 * (lo + hi)
            # the tests keep their signs between cuts: where an end
            # fails, the midpoint tells whether the interval admits any
            # point (then that end is a root that rounded outside)
            if g_lo is None or g_hi is None:
                if self.gain(mid) is None:
                    hi, g_hi = lo, g_lo
                    continue
                if g_hi is None:
                    hi = _inward(self.gain, hi, mid)
                    best = min(best, _take(found, hi, self.gain(hi)))
                if g_lo is None:
                    x = _inward(self.gain, lo, mid)
                    best = min(best, _take(found, x, self.gain(x)))
            p = _at(mid, self.margin)
            if 0.0 < p < self.rhs_lo and 2.0 * pa * mid + pb < 0.0:
                x = self.stationary(found[-1][1] if g_lo is None else lo, hi)
                g = None if x is None else self.gain(x)
                if g is not None:
                    best = min(best, _take(found, x, g))
            hi, g_hi = lo, g_lo
        return _pick(found) if found else None

    def reach(self):
        """Whether the largest C1 left-hand side the cap admits, cap*p/du,
        meets the target somewhere: where rhs > 0, cap*p - rhs(1-REL_TOL)
        *du >= 0 somewhere p > 0; otherwise p >= rhs(1-REL_TOL), which
        unit gain meets, somewhere."""
        margin, noise, cap = self.margin, self.noise, self.cap
        if self.rhs <= 0.0:
            return _extreme(margin, True) >= self.rhs_lo
        if cap == math.inf:
            return _extreme(margin, True) > 0.0
        h = [cap * m - self.rhs_lo * u for m, u in zip(margin, noise)]
        a, b, _ = _std(h)
        return any(0.0 <= x <= 1.0 and _at(x, margin) > 0.0
                   and _at(x, h) >= 0.0
                   for x in (0.0, 1.0, -b / (2.0 * a) if a else 0.0))


def _exponent(powers, derived):
    """The e of grid_solve's scale 2^-e: the frexp exponent of the
    largest nonzero power, lowered to the least's + 1021 so that none
    turns subnormal, but not so far that a finite value overflows."""
    mags = [abs(v) for v in powers if v]
    if not mags:
        return 0
    e = math.frexp(max(mags))[1]
    low = math.frexp(min(mags))[1] + 1021
    if low < e:  # the powers span more than the normal range
        top = max(v for v in map(abs, (*mags, *derived)) if v < math.inf)
        e = max(low, math.frexp(top)[1] - 1024)
    return e


def grid_solve(terms, delta_u_db=DELTA_U_DB, delta_n_db=DELTA_N_DB):
    """The exact optimum over alpha from closed-form candidates, with the
    minimal gain at each.

    The do-nothing point is answered first: where alpha = 1 at unit gain
    is admissible its penalty 0 is the minimum and ties go to the larger
    alpha.  Dispatches to the matching fallback when no point is
    admissible.  Every band checks delta_n_db (boost_fraction), whichever
    route it takes.

    A dead constraint skips the search, which could admit nothing: C2 is
    dead where the noise power exceeds the cap at every alpha, since
    every gain is at least 1; C1 is dead where rhs > 0 and the margin is
    nowhere positive, since no gain lifts it.
    """
    theta = boost_fraction(delta_n_db)
    rhs, cap = constraint_bounds(terms, delta_u_db)
    margin = _margin_coefs(terms)
    if margin[0] >= rhs * (1.0 - REL_TOL) \
            and terms.du_ref <= cap * (1.0 + REL_TOL):
        return _solution(1.0, 1.0, BandStatus.FEASIBLE)

    noise = (terms.du_ref, terms.du_nr, terms.du_cross)
    e = _exponent((terms.ds_ref, terms.ds_nr, terms.ds_cross, *noise,
                   terms.sigma_n2), (*margin, rhs, cap))
    scaled = [math.ldexp(v, -e) for v in (*margin, *noise, rhs, cap)]
    band = _Band(scaled[0:3], scaled[3:6], *scaled[6:])
    c2_gone = _extreme(band.noise, False) > band.cap_hi
    c1_gone = rhs > 0.0 and not _extreme(band.margin, True) > 0.0
    if not (c1_gone or c2_gone):
        best = band.search()
        if best is not None:
            return _solution(*best, BandStatus.FEASIBLE)
    if not c1_gone:
        c1_gone = not band.reach()

    *speech, sigma_n2 = [math.ldexp(v, -e) for v in (
        terms.ds_ref, terms.ds_nr, terms.ds_cross, terms.sigma_n2)]
    if c1_gone and not c2_gone:
        return fallback_c1(speech, band.noise, sigma_n2, band.cap, theta)
    if c2_gone and not c1_gone:
        return fallback_c2(speech, band.noise, sigma_n2, terms.target_snr)
    return fallback_both(speech, band.noise, sigma_n2, band.cap,
                         terms.target_snr)


def fallback_c1(speech, noise, sigma_n2, cap, theta):
    """Target unreachable: best far-end SNR, then a bounded near-end boost.

    speech and noise are the triples of speech_power and noise_power,
    in one power-of-two scale with sigma_n2 and the C2 cap; theta is
    the boost_fraction.  alpha maximizes ds/du over [0, 1] (_best_ratio).
    The raw gain makes the near-end noise cost exactly delta_n_db of
    that SNR,

        g^2 = theta * sigma_n2 / ((1 - theta) * noise_power(alpha)),
        theta = 10^(-delta_n_db / 10),

    which follows from solving subband_snr(alpha, g) = theta * fe_snr
    for g.  The gain is then clipped into [1, C2 cap]; when the cap
    itself sits below one it wins and the status reports both
    constraints lost.
    """
    alpha = _best_ratio(speech, noise)
    du = _at(alpha, noise)
    if not du > 0.0:
        return _solution(alpha, 1.0, BandStatus.C1_INFEASIBLE)
    g = math.sqrt(theta * sigma_n2 / ((1.0 - theta) * du))
    g_cap = math.sqrt(cap / du)
    if g_cap < 1.0:
        return _solution(alpha, g_cap, BandStatus.BOTH_INFEASIBLE)
    return _solution(alpha, min(max(g, 1.0), g_cap),
                     BandStatus.C1_INFEASIBLE)


def _steer(points, target, status):
    """The (xi, alpha, g) of points whose SNR xi lands closest to the
    target: residuals within 1e-12 * max(best, target) of the least,
    best, tie, so every alpha on target ties; ties go to the larger."""
    found = [(abs(xi - target), x, g) for xi, x, g in points]
    return _solution(*_pick(found, target), status)


def fallback_c2(speech, noise, sigma_n2, target):
    """Noise cap unreachable even unamplified: keep g = 1 and steer the
    SNR ds / (du + sigma_n2) toward target (_steer), at 0, 1, a root of
    ds - target (du + sigma_n2) or a turn.  Arguments as fallback_c1's."""
    # du + sigma_n2 as a triple, the constant c being (c, c, 2c)
    total = [u + w * sigma_n2 for u, w in zip(noise, (1.0, 1.0, 2.0))]
    cuts = (*_cuts([s - target * u for s, u in zip(speech, total)]),
            *_turns(speech, total))
    return _steer([(_div(_at(x, speech), _at(x, noise) + sigma_n2), x, 1.0)
                   for x in _inside(*cuts)],
                  target, BandStatus.C2_INFEASIBLE)


def fallback_both(speech, noise, sigma_n2, cap, target):
    """Both constraints lost: run the gain at the C2 cap, g^2 = cap/du,
    and steer the SNR k ds/du, k = cap / (cap + sigma_n2), toward target
    (_steer), at 0, 1, a root of k ds - target du or a turn of ds/du;
    the cap wins over g >= 1.  Where du = 0 there is nothing to cap:
    unit gain.  No inner root of du is a candidate: where ds > 0 there,
    points beside it are admissible, and where ds = 0 too, semidefinite
    powers share that double root and make ds/du flat."""
    k = cap / (cap + sigma_n2) if cap < math.inf else 1.0
    points = []
    for x in _inside(*_turns(speech, noise), *_cuts(
            [k * s - target * u for s, u in zip(speech, noise)])):
        ds, du = _at(x, speech), _at(x, noise)
        points.append((k * ds / du, x, math.sqrt(cap / du)) if du > 0.0
                      else (_div(ds, du + sigma_n2), x, 1.0))
    return _steer(points, target, BandStatus.BOTH_INFEASIBLE)


def _best_ratio(num, den):
    """The alpha of the largest num/den over [0, 1], two triples: at 0,
    1, a turn (_turns) or a root of den, where it reads inf if num still
    arrives (_div); ties, to 1e-12 relative, go to the larger alpha."""
    return _pick([(-_div(_at(x, num), _at(x, den)), x, None)
                  for x in _inside(*_turns(num, den), *_cuts(den))])[0]


def _blind_alpha(clean, eps, floor):
    """The blind first stage on one band, eps the error power's triple
    and floor the target times 1 - REL_TOL: (alpha, met).  At rhs = 0
    and no cap every admitted alpha has g = 1, so the search's least
    penalty is the largest alpha whose margin quadratic clean - floor *
    eps(alpha) is at least 0; where none is, the best ratio clean / eps."""
    flat = (clean, clean, 2.0 * clean)  # the constant clean as a triple
    best = _Band([c - floor * e for c, e in zip(flat, eps)], (0.0, 0.0, 0.0),
                 0.0, math.inf).search()
    return (best[0], True) if best else (_best_ratio(flat, eps), False)


def solve_band(terms, delta_u_db=DELTA_U_DB, delta_n_db=DELTA_N_DB):
    """Solve one band: the exact optimum, or the matching fallback."""
    return grid_solve(terms, delta_u_db, delta_n_db)

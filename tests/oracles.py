"""Independent reference implementations the tests compare against.

Everything here recomputes results from first principles (dense scans,
closed-form interval checks, textbook formulas) without calling into
the library's own search logic, so agreement is meaningful.
"""

import functools
import math
from types import SimpleNamespace

import numpy as np
from scipy import signal as sig

from minproc.beamform import BeamformerSet, mwf_all
from minproc.scene import SpectralStats, make_source, steering_matrix
from minproc.solver import REL_TOL, SolverTerms
from minproc.stft import analyze, synthesize


def combo_quad(alpha, at_one, at_zero, cross):
    a = np.asarray(alpha, dtype=float)
    return at_one * a**2 + at_zero * (1.0 - a) ** 2 + cross * a * (1.0 - a)


def constraint_bounds(terms, delta_u_db):
    """rhs of C1 and the C2 cap; a band without near-end noise has no
    cap."""
    rhs = terms.sigma_n2 * terms.target_snr
    if terms.sigma_n2 <= 0.0:
        return rhs, np.inf
    cap = terms.sigma_n2 * 10.0 ** (delta_u_db / 10.0)
    return rhs, cap


def gain_interval(terms, alpha, delta_u_db):
    """Exact admissible gain interval [lo, hi] at one alpha, or None.

    C1 with a positive margin puts a floor under g, C2 a ceiling, and
    g >= 1 is folded into the floor.  A non-positive margin kills C1
    outright unless the rhs is zero too.
    """
    rhs, cap = constraint_bounds(terms, delta_u_db)
    ds = combo_quad(alpha, terms.ds_ref, terms.ds_nr, terms.ds_cross)
    du = combo_quad(alpha, terms.du_ref, terms.du_nr, terms.du_cross)
    p = ds - du * terms.target_snr

    if p > 0.0:
        lo = max(1.0, np.sqrt(rhs / p) if rhs > 0.0 else 1.0)
    elif rhs <= 0.0 and p >= 0.0:
        lo = 1.0
    else:
        return None
    hi = np.sqrt(cap * (1.0 + REL_TOL) / du) if du > 0.0 else np.inf
    if lo > hi * (1.0 + REL_TOL):
        return None
    return lo, hi


def feasible_exists(terms, delta_u_db, n_alpha=2001):
    return any(gain_interval(terms, a, delta_u_db) is not None
               for a in np.linspace(0.0, 1.0, n_alpha))


# points of the dense alpha scans, both ends included: a step of 5e-6
SCAN_POINTS = 200001


@functools.lru_cache(maxsize=1)
def _scan_basis(n_alpha):
    """alpha over [0, 1] and its basis alpha^2, (1-alpha)^2, alpha*(1-alpha),
    read-only, since every caller shares them."""
    alphas = np.linspace(0.0, 1.0, n_alpha)
    arrays = (alphas, alphas * alphas, (1.0 - alphas) ** 2,
              alphas * (1.0 - alphas))
    for a in arrays:
        a.flags.writeable = False
    return arrays


def alpha_scan(terms, delta_u_dbs, n_alpha=SCAN_POINTS):
    """Per C2 cap delta_u_db, (penalty, alpha) of the best admissible
    point of a dense alpha scan, or None if it admits none.

    At each alpha the least gain meeting C1 is closed form: 1 where the
    margin p covers rhs to REL_TOL, sqrt(rhs/p) where p is positive but
    short; the point is admissible where that gain meets C2 to REL_TOL.
    These are the solver's own tests, so the scan and the solver admit
    the same points.  Neither the gain nor the penalty depends on the
    cap, so one scan serves every delta_u_db.
    """
    rhs, _ = constraint_bounds(terms, 0.0)
    alphas, a2, b2, ab = _scan_basis(n_alpha)
    du = terms.du_ref * a2 + terms.du_nr * b2 + terms.du_cross * ab
    p = terms.ds_ref * a2 + terms.ds_nr * b2 + terms.ds_cross * ab
    p -= du * terms.target_snr
    at_unit = p >= rhs * (1.0 - REL_TOL)
    g = np.ones_like(alphas)
    np.divide(rhs, p, out=g, where=(p > 0.0) & ~at_unit)
    np.sqrt(g, out=g)
    load = g * g * du
    # the penalty where C1 holds, inf elsewhere
    penalty = np.where(at_unit if rhs <= 0.0 else p > 0.0,
                       b2 + (1.0 - g) ** 2, np.inf)
    out = []
    for delta_u_db in delta_u_dbs:
        _, cap = constraint_bounds(terms, delta_u_db)
        masked = np.where(load <= cap * (1.0 + REL_TOL), penalty, np.inf)
        best = int(masked.argmin())
        out.append(None if masked[best] == np.inf
                   else (float(masked[best]), float(alphas[best])))
    return out


def _over(num, den):
    """num / den elementwise where den > 0; elsewhere inf where num > 0
    and 0 where not."""
    num, den = np.broadcast_arrays(np.asarray(num, dtype=float),
                                   np.asarray(den, dtype=float))
    return np.divide(num, den, out=np.where(num > 0.0, np.inf, 0.0),
                     where=den > 0.0)


def _powers(terms, a2, b2, ab):
    """(ds, du, trusted) over the basis values a2, b2, ab.  trusted marks
    where neither power loses more than five digits to cancellation,
    |q| >= 1e-5 times the sum of its terms' magnitudes, so that a ratio
    of them holds to about 1e-10 relative; near a double root shared by
    ds and du their ratio is rounding alone.  A triple with nonnegative
    ends and |cross| <= 2 (1 - 1e-4) sqrt(at_one at_zero) is trusted
    everywhere: q / sum >= (1 - |rho|) / (1 + |rho|) there."""
    out, trusted = [], True
    for c in ((terms.ds_ref, terms.ds_nr, terms.ds_cross),
              (terms.du_ref, terms.du_nr, terms.du_cross)):
        q = c[0] * a2 + c[1] * b2 + c[2] * ab
        if not (min(c[0], c[1]) >= 0.0 and (
                c[2] >= 0.0
                or -c[2] <= 2.0 * (1.0 - 1e-4) * math.sqrt(c[0] * c[1]))):
            size = abs(c[0]) * a2 + abs(c[1]) * b2 + abs(c[2]) * np.abs(ab)
            trusted = trusted & (np.abs(q) >= 1e-5 * size)
        out.append(q)
    return (*out, trusted)


@functools.lru_cache(maxsize=4)
def _scan_powers(powers):
    """_powers over the dense scan for the six powers of a band."""
    _, a2, b2, ab = _scan_basis(SCAN_POINTS)
    return _powers(SolverTerms(*powers, 0.0, 0.0), a2, b2, ab)


def fallback_objective(terms, delta_u_db, route, alpha=None):
    """A fallback's own objective at alpha, in this module's arithmetic,
    to be minimized; without alpha, its least over the dense scan's
    trusted points (_powers):

    * "c1": the negated far-end ratio -ds/du;
    * "c2": the residual |xi - target| of the SNR at unit gain;
    * "both": that residual at the cap gain g^2 = cap/du, where xi =
      ds / (du (1 + sigma_n2/cap)); at unit gain where du <= 0.

    A ratio over a non-positive denominator reads inf where its
    numerator is positive and 0 where not."""
    if alpha is None:
        ds, du, trusted = _scan_powers((terms.ds_ref, terms.ds_nr,
                                        terms.ds_cross, terms.du_ref,
                                        terms.du_nr, terms.du_cross))
    else:
        a = float(alpha)
        ds, du, trusted = _powers(terms, a * a, (1.0 - a) ** 2, a * (1.0 - a))
    if route == "c1":
        value = -_over(ds, du)
    else:
        sigma_n2 = terms.sigma_n2
        if route == "both":
            _, cap = constraint_bounds(terms, delta_u_db)
            load = np.where(du > 0.0, du * (1.0 + sigma_n2 / cap),
                            du + sigma_n2)
        else:
            load = du + sigma_n2
        value = np.abs(_over(ds, load) - terms.target_snr)
    if alpha is not None:
        return float(value)
    return float(np.where(trusted, value, np.inf).min())


def first_stage_ratio(clean, eps, alpha=None):
    """The blind first stage's ratio clean / eps at alpha (default: the
    dense scan's alphas), eps an (at_one, at_zero, cross) triple; inf
    where eps <= 0."""
    if alpha is None:
        _, a2, b2, ab = _scan_basis(SCAN_POINTS)
    else:
        a = np.asarray(alpha, dtype=float)
        a2, b2, ab = a * a, (1.0 - a) ** 2, a * (1.0 - a)
    e = eps[0] * a2 + eps[1] * b2 + eps[2] * ab
    return np.divide(clean, e, out=np.full_like(e, np.inf), where=e > 0.0)


def first_stage_scan(clean, eps, floor):
    """Blind stage 1 by a dense scan: (alpha, met) of the largest scan
    alpha whose ratio clean / eps(alpha) reaches floor (inf where eps <=
    0), eps an (at_one, at_zero, cross) triple; where none does, the
    largest alpha within 1e-12 relative of the best ratio."""
    alphas = _scan_basis(SCAN_POINTS)[0]
    ratio = first_stage_ratio(clean, eps)
    ok = ratio >= floor
    if ok.any():
        return float(alphas[np.flatnonzero(ok)[-1]]), True
    best = ratio.max()
    near = ratio >= best - 1e-12 * abs(best)
    return float(alphas[np.flatnonzero(near)[-1]]), False


def _true_run(suffix, holds, n):
    """Per row, the run [start, stop) of indices in [0, n) where
    ``holds(idx)`` is true, given that it is true on a suffix of the row
    where ``suffix`` is set and on a prefix elsewhere.  Bisects, per row,
    for the first index where the truth value equals ``suffix``."""
    lo = np.zeros(suffix.size, dtype=int)
    hi = np.full(suffix.size, n)
    while np.any(lo < hi):
        mid = (lo + hi) // 2
        turned = holds(np.minimum(mid, n - 1)) == suffix
        hi = np.where(turned & (lo < hi), mid, hi)
        lo = np.where(~turned & (lo < hi), mid + 1, lo)
    return np.where(suffix, lo, 0), np.where(suffix, n, lo)


def _scan_grid(terms, delta_u_db, n_alpha, n_g):
    """The brute force's grid: alphas, gains, p and du per alpha, and the
    C1 and C2 tests c1(i), c2(i) of gain indices i, one per alpha (or
    broadcast against the alphas).

    The gain axis spans [1, g_hi] where g_hi generously covers every
    gain any alpha could need or be allowed.
    """
    alphas = np.linspace(0.0, 1.0, n_alpha)
    ds = combo_quad(alphas, terms.ds_ref, terms.ds_nr, terms.ds_cross)
    du = combo_quad(alphas, terms.du_ref, terms.du_nr, terms.du_cross)
    p = ds - du * terms.target_snr
    rhs, cap = constraint_bounds(terms, delta_u_db)

    need = np.sqrt(np.where(p > 0.0, rhs / np.where(p > 0.0, p, 1.0), np.inf))
    allow = np.sqrt(np.where(du > 0.0, cap / np.where(du > 0.0, du, 1.0),
                             np.inf))
    finite = np.minimum(need, allow)
    finite = finite[np.isfinite(finite)]
    g_hi = max(2.0, 1.05 * finite.max()) if finite.size else 2.0
    gs = np.linspace(1.0, g_hi, n_g)
    g2 = gs * gs
    return (alphas, gs, p, du,
            lambda i: p * g2[i] >= rhs * (1.0 - REL_TOL),
            lambda i: du * g2[i] <= cap * (1.0 + REL_TOL))


def _best_point(alphas, gs, first, admissible):
    """(alpha, g, penalty) of the best row's first admissible gain, or
    None if no row has one."""
    rows = np.flatnonzero(admissible)
    if rows.size == 0:
        return None
    pen = (1.0 - alphas[rows]) ** 2 + (1.0 - gs[first[rows]]) ** 2
    best = int(pen.argmin())
    row = rows[best]
    return float(alphas[row]), float(gs[first[row]]), float(pen[best])


def brute_force_band(terms, delta_u_db, n_alpha=2001, n_g=2001):
    """Scan of the 2-D (alpha, g) grid.  Returns (alpha, g, penalty) of
    the best admissible grid point, or None if the scan finds nothing.

    Within a row the penalty grows with g, so the first admissible gain
    is the row's best.  The row products p*g^2 and du*g^2 are monotone
    in g, so each row's admissible gains form one run, found by
    bisection with the same float comparisons a dense scan makes
    (``dense_brute_force_band``).
    """
    alphas, gs, p, du, c1, c2 = _scan_grid(terms, delta_u_db, n_alpha, n_g)
    lo1, hi1 = _true_run(p > 0.0, c1, n_g)
    lo2, hi2 = _true_run(du < 0.0, c2, n_g)
    first = np.maximum(lo1, lo2)
    return _best_point(alphas, gs, first, first < np.minimum(hi1, hi2))


def dense_brute_force_band(terms, delta_u_db, n_alpha=2001, n_g=2001):
    """``brute_force_band`` by testing every grid point: the reference
    for its bisection."""
    alphas, gs, _, _, c1, c2 = _scan_grid(terms, delta_u_db, n_alpha, n_g)
    every = np.arange(n_g)[:, None]
    ok = c1(every) & c2(every)  # (gains, alphas)
    first = ok.argmax(axis=0)
    return _best_point(alphas, gs, first, ok[first, np.arange(n_alpha)])


def random_terms(rng, target_span=(-2.0, 1.0)):
    """Random band terms with valid (positive-semidefinite) power
    quadratics: cross terms are 2*rho*sqrt(product), |rho| < 1.

    Each power is a mantissa uniform in [1, 2) times a uniform integer
    power of two spanning the decades of [-4, 2] and, for target_snr,
    target_span (np.ldexp).  Every operation of the draw is exactly
    rounded, so it draws the same bits on every host; numpy's float64
    power, as in 10.0 ** x, rounds differently in its AVX512 and its
    AVX2 or baseline code."""
    def log_uniform(lo, hi, size=None):
        octaves = (math.floor(lo * math.log2(10.0)),
                   math.ceil(hi * math.log2(10.0)))
        return np.ldexp(rng.uniform(1.0, 2.0, size),
                        rng.integers(*octaves, size=size))

    ds_ref, ds_nr, du_ref, du_nr = log_uniform(-4.0, 2.0, size=4)
    rho_s, rho_u = rng.uniform(-0.95, 0.95, size=2)
    return SolverTerms(
        ds_ref=ds_ref,
        ds_nr=ds_nr,
        ds_cross=2.0 * rho_s * np.sqrt(ds_ref * ds_nr),
        du_ref=du_ref,
        du_nr=du_nr,
        du_cross=2.0 * rho_u * np.sqrt(du_ref * du_nr),
        sigma_n2=log_uniform(-4.0, 2.0),
        target_snr=log_uniform(*target_span),
    )


def mwf(sigma_s2, d, c_u, mu):
    """The library's Wiener filter for a single bin, shape (channels,)."""
    d = np.asarray(d, dtype=complex)
    one_bin = SpectralStats(np.array([float(sigma_s2)]), d[None],
                            np.asarray(c_u, dtype=complex)[None], np.zeros(1))
    return mwf_all(one_bin, mu)[0]


# first-order Butterworth low-pass cutoffs (Hz) of the shaped noise kinds
_SHAPE_CUTOFF_HZ = {"speech_shaped": 500.0, "car_like": 200.0}


def design_response(kind, freqs, sample_rate):
    """Magnitude response of the shaping filter behind a noise kind.

    Only kinds with a closed-form spectrum are supported: 'white',
    'speech_shaped' and 'car_like'.
    """
    freqs = np.asarray(freqs, dtype=float)
    if kind == "white":
        return np.ones_like(freqs)
    if kind not in _SHAPE_CUTOFF_HZ:
        raise ValueError(f"no shaping filter for kind: {kind}")
    b, a = sig.butter(1, _SHAPE_CUTOFF_HZ[kind], fs=sample_rate, btype="low")
    _, h = sig.freqz(b, a, worN=freqs, fs=sample_rate)
    return np.abs(h)


def babble_envelope(n_frames, frame_rate, rng):
    """Per-frame babble envelope sqrt(mean_i m_i^2), talker by talker.

    Talker i draws white noise at the frame rate, filters it in its rfft
    domain by scipy's second-order 4 Hz Butterworth, scales it to unit
    standard deviation as e_i and modulates by m_i = max(1 + 0.5 e_i,
    0.05).
    """
    b, a = sig.butter(2, 4.0, fs=frame_rate)
    _, h = sig.freqz(b, a, worN=np.fft.rfftfreq(n_frames, 1.0 / frame_rate),
                     fs=frame_rate)
    power = np.zeros(n_frames)
    for _ in range(8):
        env = np.fft.irfft(np.fft.rfft(rng.standard_normal(n_frames)) * h,
                           n=n_frames)
        if np.std(env) > 0:
            env = env / np.std(env)
        power += np.maximum(1.0 + 0.5 * env, 0.05) ** 2
    return np.sqrt(power / 8)


# samples per chunk of a source's normal draw
DRAW_CHUNK = 2**16


def fresh(seq):
    """A SeedSequence equal to seq that has spawned no children yet."""
    return np.random.SeedSequence(seq.entropy, spawn_key=seq.spawn_key,
                                  pool_size=seq.pool_size)


def normal_draw(n, seq):
    """n standard normal samples from the stream seq, one chunk after
    another: chunk k of DRAW_CHUNK samples comes from a generator on the
    k-th child that seq spawns."""
    children = fresh(seq).spawn(-(-n // DRAW_CHUNK))
    out = np.empty(n)
    for k, child in enumerate(children):
        chunk = out[k * DRAW_CHUNK:(k + 1) * DRAW_CHUNK]
        chunk[:] = np.random.default_rng(child).standard_normal(chunk.size)
    return out


def pulse_train(n_samples, sample_rate, seq):
    """The speech source's draw in one pass over every sample: a unit
    pulse wherever the cycle count of a pitch drifting around 110 Hz
    rises, plus 0.03 of white noise.  The count is the floor of the
    pitch's integral, 110 t + 11 / (0.8 pi) (cos phi - cos(2 pi 0.4 t +
    phi)); the noise is seq's first child's stream, and the phase phi
    is drawn from its second."""
    noise, drift = fresh(seq).spawn(2)
    t = np.arange(n_samples) / sample_rate
    drift_phase = np.random.default_rng(drift).uniform(0.0, 2.0 * np.pi)
    cycles = np.floor(110.0 * t + 11.0 / (0.8 * np.pi) * (
        np.cos(drift_phase) - np.cos(2.0 * np.pi * 0.4 * t + drift_phase)))
    draw = np.zeros(n_samples)
    draw[1:] = (np.diff(cycles) > 0).astype(float)
    draw += 0.03 * normal_draw(n_samples, noise)
    return draw


def analyze_by_frame(signal, params):
    """STFT of a (channels, n) signal one frame at a time: zero-padded by
    one hop in front and to the end of the last frame, and each frame
    windowed by sin(pi*n/N) and transformed by its own rfft call.

    Returns the (channels, frames, bins) spectrum.
    """
    x = np.atleast_2d(signal)
    hop, frame_len = params.hop, params.frame_len
    n_frames = -(-x.shape[1] // hop) + 1
    padded = np.zeros((x.shape[0], (n_frames + 1) * hop))
    padded[:, hop:hop + x.shape[1]] = x
    window = np.sin(np.pi * np.arange(frame_len) / frame_len)
    out = np.empty((x.shape[0], n_frames, frame_len // 2 + 1), dtype=complex)
    for c in range(x.shape[0]):
        for t in range(n_frames):
            out[c, t] = np.fft.rfft(padded[c, t * hop:t * hop + frame_len]
                                    * window)
    return out


def overlap_add(frames, hop):
    """Frame-by-frame overlap-add of (channels, frames, 2*hop) frames.

    Returns the full (channels, (frames + 1) * hop) sum, each frame added
    at offset t*hop in frame order.
    """
    channels, n_frames, frame_len = frames.shape
    out = np.zeros((channels, (n_frames - 1) * hop + frame_len))
    for t in range(n_frames):
        out[:, t * hop:t * hop + frame_len] += frames[:, t, :]
    return out


def psd_by_whole_einsum(data):
    """Long-term PSD of (channels, frames, bins) data as one einsum over
    every bin: the mean over frames of x x^H, shaped (bins, channels,
    channels)."""
    return np.einsum("mtk,ntk->kmn", data, np.conj(data)) / data.shape[1]


def band_terms_by_members(stats, bset, fb, band_idx, target_snr):
    """0.3.0's band integration: one band's powers from its member bins
    alone, each term its own weighted dot product."""
    members = np.flatnonzero(fb.weight[band_idx] > 0.0)
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
    du_cross = float(w @ (2.0 * np.einsum("km,km->k", np.conj(wn),
                                          cu_wr).real))

    h_ref = np.einsum("km,km->k", np.conj(wr), d)
    h_nr = np.einsum("km,km->k", np.conj(wn), d)
    ds_ref = float(w @ (s2 * np.abs(h_ref) ** 2))
    ds_nr = float(w @ (s2 * np.abs(h_nr) ** 2))
    ds_cross = float(w @ (s2 * 2.0 * (h_nr * np.conj(h_ref)).real))

    sigma_n2 = float(w @ stats.sigma_n2[members])
    return SolverTerms(ds_ref, ds_nr, ds_cross, du_ref, du_nr, du_cross,
                       sigma_n2, float(target_snr))


def reference_filter_pair(stats):
    """The filter pair (e1, e1) that selects the reference microphone."""
    e1 = np.zeros((stats.sigma_s2.size, stats.d.shape[1]), dtype=complex)
    e1[:, 0] = 1.0
    return BeamformerSet(w_ref=e1, w_nr=e1)


def blind_by_band(stats, bset, fb, terms):
    """0.3.0's blind first stage, band by band on ``terms`` (one
    SolverTerms per band) and by a dense scan (first_stage_scan):
    [(alpha, met)], met telling whether it reached the band target.
    Its error power is the distortion of the error pair (e1 - w_ref,
    e1 - w_nr) plus the residual far-end noise."""
    e1 = reference_filter_pair(stats).w_ref
    error = BeamformerSet(w_ref=e1 - bset.w_ref, w_nr=e1 - bset.w_nr)
    out = []
    for j, t in enumerate(terms):
        members = np.flatnonzero(fb.weight[j] > 0.0)
        clean = float(fb.weight[j, members] @ stats.sigma_s2[members])
        d = band_terms_by_members(stats, error, fb, j, t.target_snr)
        eps = (d.ds_ref + t.du_ref, d.ds_nr + t.du_nr,
               d.ds_cross + t.du_cross)
        out.append(first_stage_scan(clean, eps,
                                    t.target_snr * (1.0 - REL_TOL)))
    return out


def blind_gain_by_band(terms, alpha):
    """0.3.0's blind second stage at one band's alpha: lift the apparent
    SNR of the delivered power to the target, never below unit gain."""
    delta_y = float(combo_quad(alpha, terms.ds_ref, terms.ds_nr,
                               terms.ds_cross)
                    + combo_quad(alpha, terms.du_ref, terms.du_nr,
                                 terms.du_cross))
    if delta_y <= 0.0:
        return 1.0
    return float(np.sqrt(max(1.0, terms.sigma_n2 * terms.target_snr
                             / delta_y)))


def xi_by_band(terms, alpha, gain):
    """One band's delivered SNR g^2*speech / (g^2*noise + sigma_n2); on a
    zero denominator inf where speech arrives and 0 where it does not."""
    g2 = gain * gain
    num = g2 * combo_quad(alpha, terms.ds_ref, terms.ds_nr, terms.ds_cross)
    den = g2 * combo_quad(alpha, terms.du_ref, terms.du_nr, terms.du_cross) \
        + terms.sigma_n2
    if den > 0.0:
        return float(num / den)
    return np.inf if num > 0.0 else 0.0


def covered_bins(fb):
    """Boolean mask of bins claimed by at least one band."""
    return fb.weight.sum(axis=0) > 0.0


def recombine_by_mix(bset, fb, alphas, gains):
    """Recombination as 0.4.0 computed it: every band's combined filter
    alpha*w_ref + (1 - alpha)*w_nr and its gain, averaged per bin under
    fb.recomb; an uncovered bin keeps w_ref at unit gain."""
    alphas = np.asarray(alphas, dtype=float)
    mix = alphas[:, None, None] * bset.w_ref[None] \
        + (1.0 - alphas)[:, None, None] * bset.w_nr[None]
    w_mp = np.einsum("jk,jkm->km", fb.recomb, mix)
    g_mp = fb.recomb.T @ np.asarray(gains, dtype=float)
    open_bins = ~covered_bins(fb)
    w_mp[open_bins] = bset.w_ref[open_bins]
    g_mp[open_bins] = 1.0
    return w_mp, g_mp


def _snr_gain(ref_power, raw_power, snr_db):
    """Amplitude gain putting raw_power snr_db below ref_power; 0 for an
    absent (+inf dB) or a silent noise."""
    if snr_db == np.inf or raw_power <= 0.0:
        return 0.0
    return math.sqrt(ref_power / (raw_power * 10.0 ** (snr_db / 10.0)))


def scene_components(cfg, params):
    """synthesize_scene's scene as its separate components, each drawn
    from its own stream spawned from the seed: the talker's, one per
    point noise, one per mic's self noise and the near-end noise's.

    Returns a namespace of ``clean`` and ``fe_noise``, the clean speech
    and far-end noise spectra at every mic, ``ne_spec`` and ``ne_noise``,
    the scaled near-end noise spectrum and waveform, and ``d``, the
    talker's steering vector normalized to mic 0.
    """
    n = int(round(cfg.duration * cfg.sample_rate))
    mics = np.atleast_2d(np.asarray(cfg.mic_positions, dtype=float))
    noises = np.atleast_2d(np.asarray(cfg.noise_positions, dtype=float))
    talker, points, selfnoises, near_end = \
        np.random.SeedSequence(cfg.seed).spawn(4)

    def at_mics(pos, kind, seq):
        a = steering_matrix(pos, mics, params.freqs, cfg.speed_of_sound)
        return a, a.T[:, None, :] * make_source(kind, n, params, seq)

    d, clean = at_mics(cfg.talker_pos, "speech", talker)
    p_clean = [np.mean(c ** 2) for c in synthesize(clean, params, n)]
    fe = np.zeros_like(clean)
    for pos, seq in zip(noises, points.spawn(len(noises))):
        fe += at_mics(pos, cfg.fe_noise_kind, seq)[1]
    p_pts = np.mean(synthesize(fe[:1], params, n)[0] ** 2)
    fe *= _snr_gain(p_clean[0], p_pts, cfg.fe_snr_db)
    selfnoise = np.stack([normal_draw(n, seq)
                          for seq in selfnoises.spawn(len(mics))])
    for m, row in enumerate(selfnoise):
        row *= _snr_gain(p_clean[m], np.mean(row ** 2),
                         cfg.mic_selfnoise_snr_db)
    fe += analyze(selfnoise, params)

    ne = make_source(cfg.ne_noise_kind, n, params, near_end)
    ne_wave = synthesize(ne, params, n)[0]
    gamma = _snr_gain(p_clean[0], np.mean(ne_wave ** 2), cfg.ne_snr_db)
    return SimpleNamespace(clean=clean, fe_noise=fe, ne_spec=gamma * ne,
                           ne_noise=gamma * ne_wave, d=d / d[:, :1])

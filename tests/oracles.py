"""Independent reference implementations the tests compare against.

Everything here recomputes results from first principles (dense scans,
closed-form interval checks, textbook formulas) without calling into
the library's own search logic, so agreement is meaningful.
"""

import numpy as np
from scipy import signal as sig

from minproc.beamform import mwf_all
from minproc.scene import SpectralStats
from minproc.solver import REL_TOL, SolverTerms

_SCRATCH = {}


def _buf(key, shape):
    buf = _SCRATCH.get(key)
    if buf is None or buf.shape != shape:
        buf = np.empty(shape)
        _SCRATCH[key] = buf
    return buf


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


def brute_force_band(terms, delta_u_db, n_alpha=2001, n_g=2001):
    """Dense 2-D scan over (alpha, g).  Returns (alpha, g, penalty) of
    the best admissible grid point, or None if the scan finds nothing.

    The gain axis spans [1, g_hi] where g_hi generously covers every
    gain any alpha could need or be allowed.  Within a row the penalty
    grows with g, so the first admissible gain is the row's best.
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
    shape = (n_alpha, n_g)
    lhs1 = _buf("lhs1", shape)
    lhs2 = _buf("lhs2", shape)
    np.multiply(p[:, None], g2[None, :], out=lhs1)
    np.multiply(du[:, None], g2[None, :], out=lhs2)
    ok = (lhs1 >= rhs * (1.0 - REL_TOL)) & (lhs2 <= cap * (1.0 + REL_TOL))

    first = ok.argmax(axis=1)
    rows = np.flatnonzero(ok[np.arange(n_alpha), first])
    if rows.size == 0:
        return None
    pen = (1.0 - alphas[rows]) ** 2 + (1.0 - gs[first[rows]]) ** 2
    best = int(pen.argmin())
    row = rows[best]
    return float(alphas[row]), float(gs[first[row]]), float(pen[best])


def random_terms(rng, target_span=(-2.0, 1.0)):
    """Random band terms with valid (positive-semidefinite) power
    quadratics: cross terms are 2*rho*sqrt(product), |rho| < 1."""
    ds_ref, ds_nr, du_ref, du_nr = 10.0 ** rng.uniform(-4.0, 2.0, size=4)
    rho_s, rho_u = rng.uniform(-0.95, 0.95, size=2)
    return SolverTerms(
        ds_ref=ds_ref,
        ds_nr=ds_nr,
        ds_cross=2.0 * rho_s * np.sqrt(ds_ref * ds_nr),
        du_ref=du_ref,
        du_nr=du_nr,
        du_cross=2.0 * rho_u * np.sqrt(du_ref * du_nr),
        sigma_n2=10.0 ** rng.uniform(-4.0, 2.0),
        target_snr=10.0 ** rng.uniform(*target_span),
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


def serial_babble(n_samples, sample_rate, rng):
    """The babble_like source drawn and shaped talker by talker on one
    thread: eight speech-shaped talkers, each with a slow random AM
    envelope normalized to unit standard deviation, summed to unit RMS.
    """
    b, a = sig.butter(1, _SHAPE_CUTOFF_HZ["speech_shaped"], fs=sample_rate,
                      btype="low")
    be, ae = sig.butter(2, 4.0, fs=sample_rate, btype="low")
    total = np.zeros(n_samples)
    for _ in range(8):
        talker = sig.lfilter(b, a, rng.standard_normal(n_samples))
        env = sig.lfilter(be, ae, rng.standard_normal(n_samples))
        env_std = np.std(env)
        if env_std > 0:
            env = env / env_std
        total += talker * np.maximum(1.0 + 0.5 * env, 0.05)
    rms = np.sqrt(np.mean(total ** 2))
    return total / rms if rms > 0 else total


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

"""End-to-end enhancement methods and rendering.

Three methods share one skeleton -- solve every band, recombine the
per-band decisions into per-bin filter weights and gains, then render
the far-end output Y and the near-end observation Z = g*Y + N:

* joint: the per-band constrained solver with full knowledge of both
  noise fields.
* blind concatenation: a far-end stage that never sees the near-end
  noise followed by a near-end gain stage that only sees total received
  power, so residual far-end noise masquerades as speech.  This is an
  operational stand-in for running the two minimum-processing stages
  back to back without shared noise knowledge; the exact constraint
  bookkeeping inside the original stages is not restated here.
* unprocessed: reference-microphone passthrough at unit gain.

Bins outside every band pass through the low-distortion reference
beamformer at unit gain: the minimum-processing default.
"""

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .beamform import BeamformerSet, apply_beamformer
from .filterbank import allocate_targets
from .solver import (
    ALPHAS,
    DELTA_N_DB,
    DELTA_U_DB,
    REL_TOL,
    BandSolution,
    BandStatus,
    _pick_last,
    _quad,
    band_terms,
    solve_band,
    subband_snr,
)
from .stft import synthesize

__all__ = [
    "Method",
    "EnhancementResult",
    "recombine",
    "run_joint",
    "run_blind_concat",
    "run_unprocessed",
    "blind_gain",
    "render",
]


class Method(Enum):
    JOINT = "joint"
    BLIND_CONCAT = "blind"
    UNPROCESSED = "unprocessed"


@dataclass
class EnhancementResult:
    method: Method
    band_solutions: list
    terms: list
    target_snrs: np.ndarray
    w_mp: np.ndarray
    g_mp: np.ndarray
    y: np.ndarray = field(default=None, repr=False)
    z: np.ndarray = field(default=None, repr=False)
    report: object = None

    @property
    def alphas(self):
        return np.array([s.alpha for s in self.band_solutions])

    @property
    def gains(self):
        return np.array([s.gain for s in self.band_solutions])


def recombine(bset, fb, alphas, gains):
    """Blend per-band (alpha, g) into per-bin weights and gains.

    Each covered bin takes the per-bin-normalized average of its bands'
    combined filters and gains, so bands agreeing on a value reproduce
    it exactly.  Uncovered bins default to the reference filter at unit
    gain.
    """
    alphas = np.asarray(alphas, dtype=float)
    mix = alphas[:, None, None] * bset.w_ref[None] \
        + (1.0 - alphas)[:, None, None] * bset.w_nr[None]
    w_mp = np.einsum("jk,jkm->km", fb.recomb, mix)
    g_mp = fb.recomb.T @ np.asarray(gains, dtype=float)
    open_bins = ~fb.covered()
    w_mp[open_bins] = bset.w_ref[open_bins]
    g_mp[open_bins] = 1.0
    return w_mp, g_mp


def _run(method, stats, bset, fb, a_star, decide):
    """The shared skeleton: integrate every band's terms, let
    ``decide(j, terms)`` return the band's BandSolution, recombine."""
    _, target_snrs = allocate_targets(a_star, fb)
    terms = [band_terms(stats, bset, fb, j, target_snrs[j])
             for j in range(fb.n_bands)]
    solutions = [decide(j, t) for j, t in enumerate(terms)]
    w_mp, g_mp = recombine(bset, fb,
                           [s.alpha for s in solutions],
                           [s.gain for s in solutions])
    return EnhancementResult(method, solutions, terms, target_snrs, w_mp, g_mp)


def run_joint(stats, bset, fb, a_star=0.7, delta_u_db=DELTA_U_DB,
              delta_n_db=DELTA_N_DB):
    """Solve every band jointly over beamformer mix and playback gain."""
    return _run(Method.JOINT, stats, bset, fb, a_star,
                lambda j, t: solve_band(t, delta_u_db, delta_n_db))


def blind_gain(delta_y, sigma_n2, target_snr):
    """Near-end gain from total received band power alone.

    The stage treats everything it receives as speech: g lifts the
    apparent SNR delta_y / sigma_n2 up to the target, never below unit
    gain, with no cap on what that does to residual far-end noise.
    """
    if delta_y <= 0.0:
        return 1.0
    return float(np.sqrt(max(1.0, sigma_n2 * target_snr / delta_y)))


def run_blind_concat(stats, bset, fb, a_star=0.7):
    """Far-end stage then near-end stage, no shared noise knowledge.

    Stage 1 picks the largest alpha of the solver's grid ALPHAS whose
    clean-speech-to-error ratio (speech distortion plus residual noise
    in place of the near-end noise it cannot see) reaches the band
    target; failing that, the alpha with the best ratio.  Stage 2
    applies blind_gain to the total power the first stage delivers.
    """

    def decide(j, t):
        members = fb.members[j]
        w = fb.weight[j, members]
        s2 = stats.sigma_s2[members]
        clean = float(w @ s2)

        # distortion power |S - Y|^2 is a quadratic in alpha through
        # the endpoint responses e = 1 - w^H d
        e_ref = 1.0 - np.einsum("km,km->k", np.conj(bset.w_ref[members]),
                                stats.d[members])
        e_nr = 1.0 - np.einsum("km,km->k", np.conj(bset.w_nr[members]),
                               stats.d[members])
        d_ref = float(w @ (s2 * np.abs(e_ref) ** 2))
        d_nr = float(w @ (s2 * np.abs(e_nr) ** 2))
        d_cross = float(w @ (s2 * 2.0 * (e_nr * np.conj(e_ref)).real))

        eps = _quad(ALPHAS, d_ref, d_nr, d_cross) + t.noise_power(ALPHAS)
        ratio = np.divide(clean, eps, out=np.full_like(eps, np.inf),
                          where=eps > 0.0)
        ok = ratio >= t.target_snr * (1.0 - REL_TOL)
        if np.any(ok):
            alpha = float(ALPHAS[np.flatnonzero(ok)[-1]])
            status = BandStatus.FEASIBLE
        else:
            alpha = float(ALPHAS[_pick_last(ratio, "max")])
            status = BandStatus.C1_INFEASIBLE

        delta_y = t.speech_power(alpha) + t.noise_power(alpha)
        g = blind_gain(delta_y, t.sigma_n2, t.target_snr)
        penalty = (1.0 - alpha) ** 2 + (1.0 - g) ** 2
        return BandSolution(alpha, g, status, penalty,
                            subband_snr(t, alpha, g))

    return _run(Method.BLIND_CONCAT, stats, bset, fb, a_star, decide)


def run_unprocessed(stats, fb, a_star=0.7):
    """Reference-microphone passthrough at unit gain.

    Band statuses report whether the untouched signal already meets
    each target, so downstream tables read the same way as for the
    other methods.
    """
    e1 = np.zeros((stats.bins, stats.channels), dtype=complex)
    e1[:, 0] = 1.0

    def decide(j, t):
        xi = subband_snr(t, 1.0, 1.0)
        met = xi >= t.target_snr * (1.0 - REL_TOL)
        status = BandStatus.FEASIBLE if met else BandStatus.C1_INFEASIBLE
        return BandSolution(1.0, 1.0, status, 0.0, xi)

    return _run(Method.UNPROCESSED, stats, BeamformerSet(w_ref=e1, w_nr=e1),
                fb, a_star, decide)


def render(signals, result, params):
    """Produce the far-end output Y and near-end observation Z = gY + N.

    Mismatched lengths are trimmed to the common prefix.  The rendered
    waveforms are also stored on the result.
    """
    n = signals.x.shape[-1]
    y_spec = apply_beamformer(signals.spec_x, result.w_mp)
    z_spec = apply_beamformer(signals.spec_x, result.w_mp, result.g_mp)
    y = synthesize(y_spec, params, n)
    gy = synthesize(z_spec, params, n)
    m = min(gy.shape[-1], signals.ne_noise.shape[-1])
    z = gy[..., :m] + signals.ne_noise[..., :m]
    result.y, result.z = y, z
    return y, z

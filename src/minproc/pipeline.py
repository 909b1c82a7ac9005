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

from .beamform import (
    BeamformerSet,
    _beamform,
    apply_beamformer,  # noqa: F401 -- perfbench's tracer times this site
)
from .filterbank import allocate_targets
from .solver import (
    ALPHAS,
    DELTA_N_DB,
    DELTA_U_DB,
    REL_TOL,
    BandSolution,
    BandStatus,
    SolverTerms,
    _last_true,
    _on_grid,
    _pick_last,
    _speech_per_bin,
    band_rows,
    band_term_table,
    band_terms,  # noqa: F401 -- perfbench's tracer times this lookup site
    solve_band,
    subband_snr,
)
from .stft import (
    _overlap_add,
    synthesize,  # noqa: F401 -- perfbench's tracer times this lookup site
)

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
    """A method's per-band decisions and the per-bin filter they make.

    table holds every band's terms as one SolverTerms of (n_bands,)
    arrays; alphas, gains and statuses (an object array of BandStatus)
    hold the decisions, one entry per band.  render fills in y and z; a
    mic-0 passthrough's y is a read-only view of the scene's signals.x.
    """

    method: Method
    table: SolverTerms
    alphas: np.ndarray
    gains: np.ndarray
    statuses: np.ndarray
    w_mp: np.ndarray
    g_mp: np.ndarray
    y: np.ndarray = field(default=None, repr=False)
    z: np.ndarray = field(default=None, repr=False)
    report: object = None

    @property
    def terms(self):
        """One float SolverTerms per band, built on each access."""
        return band_rows(self.table)

    @property
    def band_solutions(self):
        """One BandSolution per band, built on each access."""
        return [BandSolution(*d) for d in zip(
            self.alphas.tolist(), self.gains.tolist(), self.statuses)]


def recombine(bset, fb, alphas, gains):
    """Blend per-band (alpha, g) into per-bin weights and gains.

    Each covered bin averages its bands' filters alpha*w_ref + (1 -
    alpha)*w_nr and their gains under recomb, whose weights sum to one.
    With a and c the averages of alpha and 1 - alpha, that filter is
    w_nr + a*(w_ref - w_nr) where a < c, else w_ref + c*(w_nr - w_ref), so
    bands all at alpha = 0 give exactly w_nr and all at 1 exactly w_ref.
    The gain is 1 plus the average of g - 1.  An uncovered bin has a = c
    = 0: w_ref at unit gain.
    """
    alphas = np.asarray(alphas, dtype=float)
    a, c = fb.recomb.T @ alphas, fb.recomb.T @ (1.0 - alphas)
    step = bset.w_nr - bset.w_ref
    w_mp = np.where((a < c)[:, None], bset.w_nr - a[:, None] * step,
                    bset.w_ref + c[:, None] * step)
    g_mp = 1.0 + fb.recomb.T @ (np.asarray(gains, dtype=float) - 1.0)
    return w_mp, g_mp


def _run(method, stats, bset, fb, a_star, decide):
    """The shared skeleton: integrate every band's terms in one table,
    let ``decide(table)`` return the per-band alphas, gains and
    statuses, recombine."""
    _, target_snrs = allocate_targets(a_star, fb)
    table = band_term_table(stats, bset, fb, target_snrs)
    alphas, gains, statuses = decide(table)
    w_mp, g_mp = recombine(bset, fb, alphas, gains)
    return EnhancementResult(method, table, alphas, gains, statuses,
                             w_mp, g_mp)


def run_joint(stats, bset, fb, a_star=0.7, delta_u_db=DELTA_U_DB,
              delta_n_db=DELTA_N_DB):
    """Solve every band jointly over beamformer mix and playback gain."""

    def decide(table):
        solutions = [solve_band(t, delta_u_db, delta_n_db)
                     for t in band_rows(table)]
        return (np.array([s.alpha for s in solutions]),
                np.array([s.gain for s in solutions]),
                np.array([s.status for s in solutions], dtype=object))

    return _run(Method.JOINT, stats, bset, fb, a_star, decide)


def blind_gain(delta_y, sigma_n2, target_snr):
    """Near-end gain from total received band power alone, elementwise.

    The stage treats everything it receives as speech: g lifts the
    apparent SNR delta_y / sigma_n2 up to the target, never below unit
    gain, with no cap on what that does to residual far-end noise.
    """
    delta_y = np.asarray(delta_y, dtype=float)
    lift = np.divide(sigma_n2 * target_snr, delta_y,
                     out=np.ones_like(delta_y), where=delta_y > 0.0)
    return np.sqrt(np.fmax(1.0, lift))


def run_blind_concat(stats, bset, fb, a_star=0.7):
    """Far-end stage then near-end stage, no shared noise knowledge.

    Stage 1 picks the largest alpha of the solver's grid ALPHAS whose
    clean-speech-to-error ratio (speech distortion plus residual noise
    in place of the near-end noise it cannot see) reaches the band
    target; failing that, the alpha with the best ratio.  Stage 2
    applies blind_gain to the total power the first stage delivers.
    """

    def decide(t):
        clean = fb.weight @ stats.sigma_s2
        eps = _on_grid(_distortion_table(stats, bset, fb))
        eps += _on_grid(np.column_stack((t.du_ref, t.du_nr, t.du_cross)))
        ratio = np.divide(clean[:, None], eps, out=np.full_like(eps, np.inf),
                          where=eps > 0.0)
        ok = ratio >= (t.target_snr * (1.0 - REL_TOL))[:, None]
        met = ok.any(axis=1)
        alphas = ALPHAS[[_last_true(row) if m else _pick_last(-r)
                         for row, r, m in zip(ok, ratio, met)]]

        delta_y = t.speech_power(alphas) + t.noise_power(alphas)
        return (alphas, blind_gain(delta_y, t.sigma_n2, t.target_snr),
                _met_status(met))

    return _run(Method.BLIND_CONCAT, stats, bset, fb, a_star, decide)


def _distortion_table(stats, bset, fb):
    """Every band's distortion |S - Y|^2, the speech passed by e1 - w (as
    d[:, 0] = 1): the (n_bands, 3) speech columns of that error pair."""
    e1 = _reference_mic(stats)
    per_bin = _speech_per_bin(stats, e1 - bset.w_ref, e1 - bset.w_nr)
    return fb.weight @ np.stack(per_bin, axis=1)


def _met_status(met):
    """Feasible where a band's target is met, C1Infeasible elsewhere."""
    return np.where(met, BandStatus.FEASIBLE, BandStatus.C1_INFEASIBLE)


def _reference_mic(stats):
    """The per-bin filter e1 that selects the reference microphone."""
    e1 = np.zeros((stats.bins, stats.channels), dtype=complex)
    e1[:, 0] = 1.0
    return e1


def run_unprocessed(stats, fb, a_star=0.7):
    """Reference-microphone passthrough at unit gain.

    Band statuses report whether the untouched signal already meets
    each target, so downstream tables read the same way as for the
    other methods.
    """
    e1 = _reference_mic(stats)

    def decide(t):
        met = subband_snr(t, 1.0, 1.0) >= t.target_snr * (1.0 - REL_TOL)
        return np.ones(met.shape), np.ones(met.shape), _met_status(met)

    return _run(Method.UNPROCESSED, stats, BeamformerSet(w_ref=e1, w_nr=e1),
                fb, a_star, decide)


def render(signals, result, params):
    """Produce the far-end output Y and near-end observation Z = gY + N,
    both as long as the scene.  They are also stored on the result.

    Y's spectrum is w_mp^H x per frame and gY's is g_mp times that.  One
    overlap-add pass synthesizes both as two channels, forming them a
    chunk of frames at a time, so neither spectrum is held whole, and z
    is formed in gY's buffer.  A waveform already at hand is not
    synthesized again:

    * where w_mp selects mic 0 on every bin, Y is the scene's mic-0
      mixture spectrum, which the scene already synthesized, so y is a
      read-only view of signals.x;
    * where g_mp is 1 on every bin, gY is Y, so z = y + N.

    The unprocessed method meets both rules and renders without an STFT.
    """
    data = signals.spec_x
    w, g = result.w_mp, result.g_mp
    mic0 = np.all(w[:, 0] == 1.0) and not np.any(w[:, 1:])
    unit = np.all(g == 1.0)
    # the pass's channels: Y unless it is mic 0's, then gY unless it is Y
    channels = (not mic0) + (not unit)

    def rows(c, e):
        out = np.empty((channels, e - c, data.shape[2]), dtype=complex)
        y = data[0, c:e] if mic0 else _beamform(w, data[:, c:e], out=out[0])
        if not unit:
            np.multiply(y, g, out=out[-1])
        return out

    n = signals.x.shape[-1]
    if channels:
        waves = _overlap_add(rows, channels, data.shape[1], params, n)
    y = signals.x.view() if mic0 else waves[0]
    if mic0:  # read-only, so writing into a result cannot change the scene
        y.flags.writeable = False
    if unit:
        z = y + signals.ne_noise
    else:
        z = np.add(waves[-1], signals.ne_noise, out=waves[-1])
    result.y, result.z = y, z
    return y, z

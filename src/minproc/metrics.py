"""Evaluation of delivered solutions: subband SNR, ASII, broadband SNR.

The approximated intelligibility index compresses each band's SNR
through x/(1+x) and sums under the band importance weights, so it lives
in [0, 1] and is monotone in every band.
"""

from dataclasses import dataclass, field

import numpy as np

from .solver import subband_snr

__all__ = ["EvalReport", "asii", "evaluate"]


@dataclass
class EvalReport:
    method: str
    xi: np.ndarray
    asii: float
    fe_snr: np.ndarray
    broadband_out_snr_db: float
    per_band_status: list = field(default_factory=list)


def asii(xi, gamma):
    """Importance-weighted sum of xi/(1+xi) over bands."""
    xi = np.asarray(xi, dtype=float)
    gamma = np.asarray(gamma, dtype=float)
    if np.any(xi < 0.0):
        raise ValueError("negative subband SNR")
    return float(np.sum(gamma * xi / (1.0 + xi)))


def evaluate(stats, result, fb):
    """Score a finished enhancement result.

    Per-band SNRs are recomputed from the delivered (alpha, g) through
    the band terms the method was solved with, never read back from the
    solver's bookkeeping.  The broadband output SNR weighs per-bin
    powers with the one-sided spectrum weights (interior bins count
    twice) and includes the near-end noise in the denominator.
    """
    xi = np.array([subband_snr(t, s.alpha, s.gain)
                   for t, s in zip(result.terms, result.band_solutions)])

    ds = np.array([t.speech_power(s.alpha)
                   for t, s in zip(result.terms, result.band_solutions)])
    du = np.array([t.noise_power(s.alpha)
                   for t, s in zip(result.terms, result.band_solutions)])
    fe_snr = np.divide(ds, du, out=np.full_like(ds, np.inf), where=du > 0.0)

    pw = np.full(stats.bins, 2.0)
    pw[0] = pw[-1] = 1.0
    g2 = result.g_mp**2
    proj = np.abs(np.einsum("km,km->k", np.conj(result.w_mp), stats.d)) ** 2
    p_speech = float(pw @ (g2 * stats.sigma_s2 * proj))
    cw = np.einsum("kmn,kn->km", stats.c_u, result.w_mp)
    noise_bin = np.einsum("km,km->k", np.conj(result.w_mp), cw).real
    p_noise = float(pw @ (g2 * noise_bin + stats.sigma_n2))
    out_db = 10.0 * np.log10(p_speech / p_noise) if p_noise > 0.0 else np.inf

    report = EvalReport(
        method=result.method.value,
        xi=xi,
        asii=asii(xi, fb.importance),
        fe_snr=fe_snr,
        broadband_out_snr_db=out_db,
        per_band_status=[s.status for s in result.band_solutions],
    )
    result.report = report
    return report


"""Evaluation of delivered solutions: subband SNR, ASII, broadband SNR.

The approximated intelligibility index compresses each band's SNR
through x/(1+x) and sums under the band importance weights, so it lives
in [0, 1] and is monotone in every band.
"""

from dataclasses import dataclass

import numpy as np

from .solver import subband_snr

__all__ = ["EvalReport", "asii", "evaluate"]


@dataclass
class EvalReport:
    xi: np.ndarray
    asii: float
    broadband_out_snr_db: float


def asii(xi, gamma):
    """Importance-weighted sum of xi/(1+xi) over bands; an infinite xi
    counts as 1, its limit."""
    xi = np.asarray(xi, dtype=float)
    gamma = np.asarray(gamma, dtype=float)
    if np.any(xi < 0.0):
        raise ValueError("negative subband SNR")
    inf = np.isinf(xi)
    finite = np.where(inf, 0.0, xi)
    return float(np.sum(np.where(inf, gamma, gamma * finite / (1.0 + finite))))


def evaluate(stats, result, fb):
    """Score a finished enhancement result.

    Per-band SNRs are computed here, and only here, from the delivered
    (alpha, g) through the band terms the method was solved with, all
    bands in one array expression.  The broadband output SNR weighs
    per-bin powers with the one-sided spectrum weights (interior bins
    count twice) and includes the near-end noise in the denominator.
    """
    xi = subband_snr(result.table, result.alphas, result.gains)

    pw = np.full(stats.bins, 2.0)
    pw[0] = pw[-1] = 1.0
    g2 = result.g_mp**2
    proj = np.abs(np.einsum("km,km->k", np.conj(result.w_mp), stats.d)) ** 2
    p_speech = float(pw @ (g2 * stats.sigma_s2 * proj))
    cw = np.einsum("kmn,kn->km", stats.c_u, result.w_mp)
    noise_bin = np.einsum("km,km->k", np.conj(result.w_mp), cw).real
    p_noise = float(pw @ (g2 * noise_bin + stats.sigma_n2))
    out_db = 10.0 * np.log10(p_speech / p_noise) if p_noise > 0.0 else np.inf

    report = EvalReport(xi=xi, asii=asii(xi, fb.importance),
                        broadband_out_snr_db=out_db)
    result.report = report
    return report


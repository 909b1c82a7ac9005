"""Speech-distortion-weighted multichannel Wiener filters.

The speech covariance is rank one (a single talker), so the Wiener
solution with distortion weight mu

    w = (sigma_s2 d d^H + mu C_U)^{-1} sigma_s2 d

reduces by the matrix inversion lemma to

    w = sigma_s2 C_U^{-1} d / (mu + sigma_s2 d^H C_U^{-1} d)

which stays well defined at mu = 0 where the direct inverse does not
exist; that limit is the MVDR solution with w^H d = 1.  All filters for
one noise field are parallel, differing only in a real scale.
"""

from dataclasses import dataclass

import numpy as np

from .stft import Spectrogram

__all__ = ["BeamformerSet", "mwf_all", "apply_beamformer",
           "build_beamformers", "DIAG_LOAD"]

# relative diagonal loading applied to C_U before inversion so that
# numerically singular noise estimates survive
DIAG_LOAD = 1e-10


@dataclass
class BeamformerSet:
    """Per-bin filter pair: reference (low distortion) and noise-reduction."""

    w_ref: np.ndarray   # (bins, channels), distortion weight mu_ref
    w_nr: np.ndarray    # (bins, channels), distortion weight mu_nr
    mu_ref: float = 0.0
    mu_nr: float = 5.0


def _solve_loaded(c_u, d):
    """C_U^{-1} d with relative diagonal loading; batched over bins.

    Bins whose noise covariance is exactly zero are returned as NaN and
    resolved by the caller (the filter limit there is the matched filter).
    """
    c_u = np.asarray(c_u)
    m = c_u.shape[-1]
    tr = np.trace(c_u, axis1=-2, axis2=-1).real
    load = DIAG_LOAD * tr / m
    loaded = c_u + load[..., None, None] * np.eye(m)
    zero = tr <= 0.0
    if np.any(zero):
        loaded = np.where(zero[..., None, None], np.eye(m), loaded)
    try:
        x = np.linalg.solve(loaded, d[..., None])[..., 0]
    except np.linalg.LinAlgError as exc:
        raise ValueError("noise covariance singular") from exc
    if np.any(zero):
        x = np.where(zero[..., None], np.nan, x)
    return x, zero


def mwf_all(stats, mu):
    """Vectorized MWF across all bins of a SpectralStats. Returns (bins, M)."""
    if mu < 0.0:
        raise ValueError("distortion weight must be nonnegative")
    d = np.asarray(stats.d, dtype=complex)
    sigma_s2 = np.asarray(stats.sigma_s2, dtype=float)
    x, zero = _solve_loaded(np.asarray(stats.c_u, dtype=complex), d)
    if np.any(zero):
        matched = d / np.einsum("km,km->k", np.conj(d), d).real[:, None]
        x = np.where(zero[:, None], matched, x)
    lam = sigma_s2 * np.einsum("km,km->k", np.conj(d), x).real
    denom = np.where(zero, 1.0, mu + lam)
    scale = np.where(zero, 1.0, sigma_s2 / np.where(denom > 0.0, denom, 1.0))
    w = np.where(zero[:, None], x, scale[:, None] * x)
    return np.where((sigma_s2 > 0.0)[:, None], w, 0.0)


def build_beamformers(stats, mu_ref=0.0, mu_nr=5.0):
    """Compute the filter pair used by the alpha combination."""
    return BeamformerSet(mwf_all(stats, mu_ref), mwf_all(stats, mu_nr),
                         mu_ref, mu_nr)


def apply_beamformer(spec, weights, gain=None):
    """Apply per-bin filters (and optional per-bin gain) to a spectrogram.

    weights has shape (bins, channels); the output is the single-channel
    spectrogram y[t, k] = g[k] * w[k]^H x[t, k].
    """
    data = spec.data if isinstance(spec, Spectrogram) else np.asarray(spec)
    if data.shape[0] != weights.shape[1] or data.shape[2] != weights.shape[0]:
        raise ValueError("weight shape does not match spectrogram")
    y = np.einsum("km,mtk->tk", np.conj(weights), data)
    if gain is not None:
        y = y * np.asarray(gain)[None, :]
    return Spectrogram(y[None, :, :])

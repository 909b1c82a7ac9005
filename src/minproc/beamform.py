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

from .stft import _spectrum

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


def mwf_all(stats, mu):
    """Vectorized MWF across all bins of a SpectralStats. Returns (bins, M).

    C_U gets a relative diagonal loading before the solve.  A bin whose
    noise covariance is exactly zero solves against the identity only to
    keep the batch regular; its filter is the zero-noise limit, the
    matched filter d / ||d||^2, whatever mu.
    """
    if mu < 0.0:
        raise ValueError("distortion weight must be nonnegative")
    d = np.asarray(stats.d, dtype=complex)
    sigma_s2 = np.asarray(stats.sigma_s2, dtype=float)
    c_u = np.asarray(stats.c_u, dtype=complex)
    m = c_u.shape[-1]
    tr = np.trace(c_u, axis1=-2, axis2=-1).real
    loaded = c_u + (DIAG_LOAD * tr / m)[:, None, None] * np.eye(m)
    zero = tr <= 0.0
    loaded[zero] = np.eye(m)
    try:
        x = np.linalg.solve(loaded, d[..., None])[..., 0]
    except np.linalg.LinAlgError as exc:
        raise ValueError("noise covariance singular") from exc
    denom = mu + sigma_s2 * np.einsum("km,km->k", np.conj(d), x).real
    w = (sigma_s2 / np.where(denom > 0.0, denom, 1.0))[:, None] * x
    d0 = d[zero]
    w[zero] = d0 / np.einsum("km,km->k", np.conj(d0), d0).real[:, None]
    return np.where((sigma_s2 > 0.0)[:, None], w, 0.0)


def build_beamformers(stats, mu_ref=0.0, mu_nr=5.0):
    """Compute the filter pair used by the alpha combination."""
    return BeamformerSet(mwf_all(stats, mu_ref), mwf_all(stats, mu_nr))


def apply_beamformer(spec, weights):
    """Apply per-bin filters to a (channels, frames, bins) spectrum.

    weights has shape (bins, channels); the output is the one-channel
    spectrum y[t, k] = w[k]^H x[t, k], shaped (1, frames, bins).  This is
    the library form of the expression that render applies a chunk of
    frames at a time through _beamform.  The package does not call it,
    but the benchmark's tracer looks it up through pipeline.
    """
    data = _spectrum(spec)
    if data.shape[0] != weights.shape[1] or data.shape[2] != weights.shape[0]:
        raise ValueError("weight shape does not match spectrum")
    return _beamform(weights, data)[None, :, :]


def _beamform(weights, data, out=None):
    """y[t, k] = w[k]^H x[:, t, k] of (channels, frames, bins) data, as
    (frames, bins), into ``out`` if given."""
    return np.einsum("km,mtk->tk", np.conj(weights), data, out=out)

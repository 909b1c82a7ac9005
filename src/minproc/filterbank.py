"""Perceptual subband decomposition on the ERB-rate scale.

Band centers are spaced uniformly in ERB-rate between the band edges and
each band applies a squared-cosine weight to the STFT bins within one
center spacing, so interior bins see weights that sum to one.  A second
copy of the weights, normalized per bin across bands, is kept for
recombining per-band decisions back to per-bin values.
"""

import warnings
from dataclasses import dataclass

import numpy as np

__all__ = [
    "erb_rate",
    "Filterbank",
    "build_filterbank",
    "allocate_targets",
    "load_band_importance",
]


def erb_rate(freq_hz):
    """Map frequency in Hz to the ERB-rate scale (Glasberg and Moore)."""
    return 21.4 * np.log10(1.0 + 0.00437 * np.asarray(freq_hz, dtype=float))


@dataclass
class Filterbank:
    """Squared-cosine band weights over STFT bins.

    weight[j, k] is the analysis weight of bin k in band j; recomb[j, k]
    is the same weight normalized per bin so that columns with any
    coverage sum to one.  importance[j] sums to one across bands.
    """

    centers_hz: np.ndarray
    weight: np.ndarray
    recomb: np.ndarray
    importance: np.ndarray
    bin_freqs: np.ndarray

    @property
    def n_bands(self):
        return self.weight.shape[0]


def build_filterbank(params, n_bands=30, f_lo=150.0, f_hi=8000.0,
                     importance=None):
    """Construct the ERB-spaced filterbank for the given frame parameters.

    Arguments
    ---------
    params: FrameParams giving the bin grid.
    n_bands: number of bands spaced on the ERB-rate scale.
    f_lo, f_hi: band center range in Hz.
    importance: optional two-column (center_hz, weight) table,
        interpolated at the band centers and normalized to sum to one.
        Default is uniform.
    """
    if n_bands < 2:
        raise ValueError("need at least two bands")
    # a band needs a bin within one center spacing, and a bin lies within
    # one spacing of at most two centers; refuse before any allocation
    if n_bands > 2 * params.bins:
        raise ValueError("empty band: n_bands exceeds twice the bin count")
    if not (0.0 < f_lo < f_hi):
        raise ValueError("band edges must satisfy 0 < f_lo < f_hi")
    if f_hi > params.sample_rate / 2.0 + 1e-9:
        raise ValueError("f_hi exceeds the Nyquist frequency")

    freqs = params.freqs
    e_bins = erb_rate(freqs)
    e_lo, e_hi = erb_rate(f_lo), erb_rate(f_hi)
    e_centers = np.linspace(e_lo, e_hi, n_bands)
    spacing = (e_hi - e_lo) / (n_bands - 1)
    centers_hz = (10.0 ** (e_centers / 21.4) - 1.0) / 0.00437

    dist = np.abs(e_bins[None, :] - e_centers[:, None]) / spacing
    weight = np.where(dist < 1.0, np.cos(0.5 * np.pi * dist) ** 2, 0.0)

    if not np.all(np.any(weight > 0.0, axis=1)):
        raise ValueError("empty band")

    colsum = weight.sum(axis=0)
    recomb = np.divide(weight, colsum, out=np.zeros_like(weight),
                       where=colsum > 0.0)

    gamma = _resolve_importance(importance, n_bands, centers_hz)
    return Filterbank(centers_hz, weight, recomb, gamma, freqs)


def _resolve_importance(importance, n_bands, centers_hz):
    if importance is None:
        return np.full(n_bands, 1.0 / n_bands)
    table = np.asarray(importance, dtype=float)
    if table.ndim != 2 or table.shape[1] != 2:
        raise ValueError("importance must be a (center_hz, weight) table")
    order = np.argsort(table[:, 0])
    values = np.interp(centers_hz, table[order, 0], table[order, 1])
    if not np.all(values >= 0.0) or not 0.0 < values.sum() < np.inf:
        raise ValueError("importance weights must be finite and "
                         "nonnegative with a positive sum")
    return values / values.sum()


def load_band_importance(path):
    """Load a two-column (center_hz, weight) text table."""
    with warnings.catch_warnings():
        # loadtxt only warns on a file without data
        warnings.simplefilter("error", UserWarning)
        try:
            table = np.loadtxt(path, ndmin=2)
        except UserWarning:
            raise ValueError("importance table holds no data") from None
    if table.shape[1] != 2:
        raise ValueError("importance table must have two columns")
    return table


def allocate_targets(a_star, fb):
    """Per-band intelligibility targets and their SNR-domain equivalents.

    Every band receives the same target a_star in [0, 1); the SNR form is
    the saturation inverse t / (1 - t), which diverges as the target
    approaches one.  Returns (targets, target_snrs).
    """
    if not (0.0 <= a_star):
        raise ValueError("target must be nonnegative")
    if a_star >= 1.0:
        raise ValueError("target SNR unbounded")
    targets = np.full(fb.n_bands, float(a_star))
    target_snrs = targets / (1.0 - targets)
    return targets, target_snrs

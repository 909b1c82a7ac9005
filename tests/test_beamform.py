"""MWF rank-1 form against direct inversion, plus apply."""

import numpy as np
import pytest

from minproc.beamform import DIAG_LOAD, apply_beamformer, mwf_all
from minproc.stft import Spectrogram
from oracles import mwf


def random_hpd(rng, m, scale=1.0):
    a = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    return scale * (a @ a.conj().T + 1e-3 * np.eye(m))


def direct_mwf(sigma_s2, d, c_u, mu):
    """Straight matrix-inverse evaluation of the distortion-weighted MWF.

    Applies the same diagonal loading as the library so the comparison
    isolates the matrix-inversion-lemma algebra.
    """
    c_u = np.asarray(c_u)
    m = c_u.shape[0]
    loaded = c_u + DIAG_LOAD * np.trace(c_u).real / m * np.eye(m)
    c_x = sigma_s2 * np.outer(d, np.conj(d)) + mu * loaded
    return np.linalg.solve(c_x, sigma_s2 * d)


def test_scalar_worked_example():
    # single channel, unit powers, mu = 5: w = 1 / (5 + 1) = 1/6
    w = mwf(1.0, np.array([1.0 + 0j]), np.array([[1.0 + 0j]]), 5.0)
    assert np.isclose(w[0], 1.0 / 6.0, rtol=1e-12)


def test_rank1_matches_direct_inverse():
    rng = np.random.default_rng(31)
    for _ in range(50):
        m = rng.integers(2, 4)
        d = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        c_u = random_hpd(rng, m)
        sigma_s2 = 10.0 ** rng.uniform(-2, 2)
        for mu in (0.1, 1.0, 5.0, 20.0):
            w = mwf(sigma_s2, d, c_u, mu)
            w_direct = direct_mwf(sigma_s2, d, c_u, mu)
            assert np.max(np.abs(w - w_direct)) <= 1e-10 * max(1.0, np.max(np.abs(w)))


def test_mvdr_limit_distortionless():
    rng = np.random.default_rng(17)
    for _ in range(25):
        m = int(rng.integers(2, 5))
        d = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        c_u = random_hpd(rng, m)
        w = mwf(1.7, d, c_u, 0.0)
        assert abs(np.vdot(w, d) - 1.0) <= 1e-10


def test_filters_are_parallel():
    # with a rank-one speech model every mu gives the same direction
    rng = np.random.default_rng(3)
    d = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    c_u = random_hpd(rng, 3)
    w0 = mwf(2.0, d, c_u, 0.0)
    w5 = mwf(2.0, d, c_u, 5.0)
    cos = np.abs(np.vdot(w0, w5)) / (np.linalg.norm(w0) * np.linalg.norm(w5))
    assert np.isclose(cos, 1.0, atol=1e-12)
    # and the scale ratio is real positive
    ratio = np.vdot(w0, w5) / np.vdot(w0, w0)
    assert ratio.real > 0 and abs(ratio.imag) <= 1e-12 * ratio.real


def test_zero_speech_power():
    w = mwf(0.0, np.ones(2, dtype=complex), np.eye(2, dtype=complex), 5.0)
    assert np.all(w == 0.0)


def test_rank_deficient_noise_survives_loading():
    # rank-1 noise field with nonzero trace: loading keeps the solve finite
    d = np.array([1.0, 0.5 + 0.5j])
    a = np.array([1.0, -1.0 + 0j])
    c_u = np.outer(a, np.conj(a))
    w = mwf(1.0, d, c_u, 0.0)
    assert np.all(np.isfinite(w))
    assert abs(np.vdot(w, d) - 1.0) <= 1e-6


def test_zero_noise_matched_filter():
    d = np.array([1.0 + 1j, 2.0 - 1j])
    for mu in (0.0, 5.0):
        w = mwf(1.0, d, np.zeros((2, 2), dtype=complex), mu)
        assert abs(np.vdot(w, d) - 1.0) <= 1e-12
        assert np.allclose(w, d / np.vdot(d, d))


def test_negative_mu_rejected():
    with pytest.raises(ValueError):
        mwf(1.0, np.ones(2, dtype=complex), np.eye(2, dtype=complex), -1.0)


class _Stats:
    def __init__(self, sigma_s2, d, c_u):
        self.sigma_s2, self.d, self.c_u = sigma_s2, d, c_u


def test_mwf_all_matches_per_bin():
    rng = np.random.default_rng(8)
    bins, m = 17, 2
    d = rng.standard_normal((bins, m)) + 1j * rng.standard_normal((bins, m))
    c_u = np.stack([random_hpd(rng, m) for _ in range(bins)])
    sigma_s2 = 10.0 ** rng.uniform(-2, 2, bins)
    sigma_s2[5] = 0.0
    stats = _Stats(sigma_s2, d, c_u)
    for mu in (0.0, 5.0):
        w_all = mwf_all(stats, mu)
        for k in range(bins):
            w_k = mwf(sigma_s2[k], d[k], c_u[k], mu)
            assert np.allclose(w_all[k], w_k, atol=1e-12)


def test_apply_selector_passthrough():
    rng = np.random.default_rng(4)
    data = rng.standard_normal((2, 6, 9)) + 1j * rng.standard_normal((2, 6, 9))
    spec = Spectrogram(data)
    e1 = np.zeros((9, 2), dtype=complex)
    e1[:, 0] = 1.0
    out = apply_beamformer(spec, e1)
    assert np.allclose(out.data[0], data[0])
    gained = apply_beamformer(spec, e1, gain=2.0 * np.ones(9))
    assert np.allclose(gained.data[0], 2.0 * data[0])


def test_apply_shape_mismatch():
    spec = Spectrogram(np.zeros((2, 4, 9), dtype=complex))
    with pytest.raises(ValueError):
        apply_beamformer(spec, np.zeros((8, 2), dtype=complex))

"""ERB filterbank construction and target allocation."""

import numpy as np
import pytest
from oracles import covered_bins

from minproc.filterbank import (allocate_targets, build_filterbank, erb_rate,
                                load_band_importance)
from minproc.stft import FrameParams

PARAMS = FrameParams.from_ms(16000, 32.0)


def test_erb_rate_values():
    # 21.4 * log10(1 + 0.00437 f), checked at a few round frequencies
    assert np.isclose(erb_rate(0.0), 0.0)
    assert np.isclose(erb_rate(150.0), 4.685084560885066, rtol=1e-12)
    assert np.isclose(erb_rate(1000.0), 15.621449713970488, rtol=1e-12)
    assert np.isclose(erb_rate(8000.0), 33.29454121750949, rtol=1e-12)


def test_centers_equispaced_in_erb():
    fb = build_filterbank(PARAMS, 30, 150.0, 8000.0)
    e = erb_rate(fb.centers_hz)
    d = np.diff(e)
    assert np.allclose(d, d[0], rtol=1e-10)
    assert np.isclose(fb.centers_hz[0], 150.0, rtol=1e-9)
    assert np.isclose(fb.centers_hz[-1], 8000.0, rtol=1e-9)


def test_partition_of_unity_interior():
    fb = build_filterbank(PARAMS, 30, 150.0, 8000.0)
    colsum = fb.weight.sum(axis=0)
    interior = (fb.bin_freqs >= fb.centers_hz[0]) & (fb.bin_freqs <= fb.centers_hz[-1])
    assert interior.sum() > 200
    assert np.max(np.abs(colsum[interior] - 1.0)) <= 1e-12


def test_full_coverage_of_passband():
    fb = build_filterbank(PARAMS, 30, 150.0, 8000.0)
    inband = (fb.bin_freqs >= 150.0) & (fb.bin_freqs <= 8000.0)
    assert not np.any(inband & ~covered_bins(fb))
    # bins well below the first center stay unclaimed
    assert not covered_bins(fb)[0]


def test_recomb_rows_normalized():
    fb = build_filterbank(PARAMS, 30, 150.0, 8000.0)
    colsum = fb.recomb.sum(axis=0)
    cov = covered_bins(fb)
    assert np.allclose(colsum[cov], 1.0, atol=1e-12)
    assert np.all(colsum[~cov] == 0.0)


def test_weights_nonnegative_and_local():
    fb = build_filterbank(PARAMS, 12, 150.0, 8000.0)
    assert np.all(fb.weight >= 0.0)
    spacing = np.diff(erb_rate(fb.centers_hz))[0]
    e_bins = erb_rate(fb.bin_freqs)
    for j in range(fb.n_bands):
        members = np.flatnonzero(fb.weight[j] > 0.0)
        assert members.size > 0
        dist = np.abs(e_bins[members] - erb_rate(fb.centers_hz[j]))
        assert np.all(dist < spacing)


def test_empty_band_error():
    # far more bands than bins in the range forces an empty band
    with pytest.raises(ValueError, match="empty band"):
        build_filterbank(PARAMS, 200, 150.0, 8000.0)


def test_importance_default_uniform():
    fb = build_filterbank(PARAMS, 30, 150.0, 8000.0)
    assert np.allclose(fb.importance, 1.0 / 30)
    assert np.isclose(fb.importance.sum(), 1.0)


def test_importance_from_table(tmp_path):
    path = tmp_path / "weights.txt"
    path.write_text("100 1.0\n1000 2.0\n8000 4.0\n")
    table = load_band_importance(path)
    fb = build_filterbank(PARAMS, 10, 150.0, 8000.0, importance=table)
    assert np.isclose(fb.importance.sum(), 1.0)
    # interpolated weights grow with frequency for this table
    assert fb.importance[-1] > fb.importance[0]
    path.write_text("100\n1000\n")
    with pytest.raises(ValueError, match="two columns"):
        load_band_importance(path)


def test_importance_vector_and_errors():
    # importance is a (center_hz, weight) table; a bare vector is refused
    with pytest.raises(ValueError):
        build_filterbank(PARAMS, 5, 150.0, 8000.0, importance=[1, 2])
    with pytest.raises(ValueError):
        build_filterbank(PARAMS, 5, 150.0, 8000.0, importance=[-1, 1, 1, 1, 1])
    with pytest.raises(ValueError, match="nonnegative"):
        build_filterbank(PARAMS, 5, 150.0, 8000.0,
                         importance=[[100.0, -1.0], [8000.0, 1.0]])


def test_allocate_targets():
    fb = build_filterbank(PARAMS, 30, 150.0, 8000.0)
    targets, snrs = allocate_targets(0.7, fb)
    assert targets.shape == (30,)
    assert np.allclose(targets, 0.7)
    assert np.allclose(snrs, 7.0 / 3.0, rtol=1e-12)
    t2, s2 = allocate_targets(0.0, fb)
    assert np.all(s2 == 0.0)


def test_target_snr_unbounded():
    fb = build_filterbank(PARAMS, 30, 150.0, 8000.0)
    with pytest.raises(ValueError, match="target SNR unbounded"):
        allocate_targets(1.0, fb)
    with pytest.raises(ValueError):
        allocate_targets(-0.1, fb)


def test_band_edges_validation():
    with pytest.raises(ValueError):
        build_filterbank(PARAMS, 10, 8000.0, 150.0)
    with pytest.raises(ValueError):
        build_filterbank(PARAMS, 10, 150.0, 9000.0)

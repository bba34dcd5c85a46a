"""Frequency selection, lossless decomposition, and support overlap."""

import numpy as np
import pytest

from dema.errors import ConfigError, ContractError
from dema.spectral import amplitude_rank, decompose, support_overlap


def test_rank_constant_window_selects_dc():
    sel = amplitude_rank(np.full((2, 16), 3.0), theta=0.05)
    assert sel == (0,)


def test_rank_sine_top1_is_bin2():
    t = np.arange(16)
    x = np.sin(2 * np.pi * t / 8)
    # direct DFT amplitude oracle
    amps = [abs(sum(x[n] * np.exp(-2j * np.pi * k * n / 16) for n in range(16)))
            for k in range(9)]
    assert int(np.argmax(amps)) == 2
    assert amplitude_rank(x[None, :], theta=0.1) == (2,)


def test_rank_theta_one_selects_all():
    sel = amplitude_rank(np.random.default_rng(0).standard_normal((3, 16)), 1.0)
    assert sel == tuple(range(9))


def test_rank_tie_prefers_lower_index():
    # white impulse: all bins have equal amplitude
    x = np.zeros(8)
    x[0] = 1.0
    assert amplitude_rank(x[None, :], theta=0.5) == (0, 1, 2)


def test_rank_rejects_bad_theta():
    for theta in (0.0, -0.2, 1.5):
        with pytest.raises(ConfigError):
            amplitude_rank(np.ones((1, 8)), theta)


def test_decompose_rejects_short_windows():
    for length in (0, 1):
        with pytest.raises(ContractError):
            decompose(np.zeros((2, length)), 0.5)
        with pytest.raises(ContractError):
            amplitude_rank(np.zeros((2, length)), 0.5)


def test_decompose_batch_matches_each_window(rng):
    x = rng.standard_normal((2, 3, 4, 32))
    x[0, 1] = np.sin(2 * np.pi * np.arange(32) * 3 / 32)  # its own top bin
    split = decompose(x, 0.2)
    assert split.cross_time.shape == x.shape
    for g, h in np.ndindex(2, 3):
        single = decompose(x[g, h], 0.2)
        np.testing.assert_array_equal(split.cross_time[g, h],
                                      single.cross_time)
        np.testing.assert_array_equal(split.cross_variate[g, h],
                                      single.cross_variate)
        assert split.selected[g][h] == single.selected
        assert amplitude_rank(x, 0.2)[g][h] == single.selected
    assert 3 in split.selected[0][1]


def test_decompose_theta_one_is_identity(rng):
    x = rng.standard_normal((3, 32))
    split = decompose(x, 1.0)
    assert np.max(np.abs(split.cross_time - x)) <= 1e-12
    assert np.max(np.abs(split.cross_variate)) <= 1e-12


def test_decompose_inband_sinusoid_leaves_no_residual():
    t = np.arange(64)
    x = np.sin(2 * np.pi * t * 4 / 64)[None, :]
    split = decompose(x, theta=0.1)
    assert 4 in split.selected
    assert np.max(np.abs(split.cross_variate)) <= 1e-9


def test_decompose_is_lossless(rng):
    for theta in (0.1, 0.3, 0.7, 1.0):
        x = rng.standard_normal((4, 96))
        split = decompose(x, theta)
        recon = split.cross_time + split.cross_variate
        assert np.max(np.abs(recon - x)) <= 1e-9


def test_decompose_components_are_spectrally_disjoint(rng):
    x = rng.standard_normal((2, 32))
    split = decompose(x, 0.3)
    kept = np.fft.rfft(split.cross_time, axis=-1)
    rest = np.fft.rfft(split.cross_variate, axis=-1)
    sel = np.array(split.selected)
    others = np.setdiff1d(np.arange(17), sel)
    assert np.max(np.abs(kept[:, others])) <= 1e-9
    assert np.max(np.abs(rest[:, sel])) <= 1e-9


def test_overlap_disjoint_standard_basis():
    e = np.eye(4)
    assert support_overlap(e[0], e[1], e) is False
    assert abs(e[0] @ e[1]) == 0.0


def test_overlap_shared_component():
    e = np.eye(4)
    u = e[0] + e[1]
    assert support_overlap(u, e[1], e) is True
    assert u @ e[1] == 1.0


def test_overlap_random_nonorthogonal_pairs(rng):
    basis = np.eye(8)
    for _ in range(200):
        u = rng.standard_normal(8)
        v = rng.standard_normal(8)
        if abs(u @ v) < 1e-8:
            v = v + 0.1 * u  # force non-orthogonality
        assert support_overlap(u, v, basis) is True


def test_overlap_rejects_bad_basis():
    with pytest.raises(ContractError):
        support_overlap(np.ones(2), np.ones(2), np.array([[1.0, 0.0],
                                                          [1.0, 1.0]]))
    with pytest.raises(ContractError):
        support_overlap(np.ones(2), np.ones(2), np.zeros((2, 2)))

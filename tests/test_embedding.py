"""Instance normalization, patching, and embedding into token streams."""

import numpy as np
import pytest

from dema import tensor as T
from dema.embedding import (PatchEncoder, embed_patches, patch_count,
                            patchify, revin_denormalize, revin_normalize)
from dema.errors import ConfigError


def test_revin_fixed_point(rng):
    x = rng.standard_normal((3, 96))
    x = (x - x.mean(axis=-1, keepdims=True)) / x.std(axis=-1, keepdims=True)
    normalized, _ = revin_normalize(x)
    assert np.max(np.abs(normalized - x)) <= 1e-9


def test_revin_roundtrip(rng):
    x = rng.standard_normal((4, 64)) * 3.0 + 7.0
    normalized, stats = revin_normalize(x)
    back = revin_denormalize(normalized, stats)
    assert np.max(np.abs(back - x)) <= 1e-9


def test_revin_constant_variate():
    x = np.full((1, 32), 5.0)
    normalized, stats = revin_normalize(x)
    np.testing.assert_array_equal(normalized, 0.0)
    assert stats.std[0] >= 1e-5


def test_revin_denormalize_tensor_path(rng):
    x = rng.standard_normal((2, 48))
    normalized, stats = revin_normalize(x)
    back = revin_denormalize(T.Tensor(normalized), stats)
    assert isinstance(back, T.Tensor)
    assert np.max(np.abs(back.data - x)) <= 1e-9


def test_patch_count_whole_window():
    assert patch_count(10, 10, 1) == 1


def test_patch_count_forced_padding():
    assert patch_count(9, 8, 8) == 2


def test_patch_count_rejects_bad_sizes():
    with pytest.raises(ConfigError):
        patch_count(10, 0, 1)
    with pytest.raises(ConfigError):
        patch_count(4, 8, 8)


def test_patchify_replicates_right_edge():
    x = np.arange(9.0)[None, :]
    patches = patchify(x, 8, 8)
    assert patches.shape == (1, 2, 8)
    np.testing.assert_array_equal(patches[0, 0], np.arange(8.0))
    np.testing.assert_array_equal(patches[0, 1], [8.0] * 8)


def test_patchify_exact_cover(rng):
    x = rng.standard_normal((2, 32))
    patches = patchify(x, 8, 8)
    assert patches.shape == (2, 4, 8)
    np.testing.assert_array_equal(patches.reshape(2, 32), x)


def test_embed_zero_patches_zero_bias():
    enc = PatchEncoder.init(8, 16, np.random.default_rng(0))
    tokens = embed_patches(np.zeros((2, 4, 8)), enc)
    np.testing.assert_array_equal(tokens.data, 0.0)


def test_embed_shape_and_determinism(rng):
    enc = PatchEncoder.init(8, 16, np.random.default_rng(1))
    patches = rng.standard_normal((3, 5, 8))
    t1 = embed_patches(patches, enc)
    t2 = embed_patches(patches, enc)
    assert isinstance(t1, T.Tensor)
    assert t1.shape == (3, 5, 16)
    np.testing.assert_array_equal(t1.data, t2.data)
    # identical patches give identical embeddings
    same = np.broadcast_to(patches[0, 0], (1, 2, 8))
    t3 = embed_patches(same, enc)
    np.testing.assert_array_equal(t3.data[0, 0], t3.data[0, 1])


def test_layout_index_law(rng):
    # token (n, l) of the one layout [N, L, D] embeds patch l of variate n
    enc = PatchEncoder.init(8, 4, np.random.default_rng(2))
    enc.bias.data = rng.standard_normal(4)
    patches = rng.standard_normal((3, 5, 8))
    tokens = embed_patches(patches, enc).data
    for n in range(3):
        for l in range(5):
            np.testing.assert_allclose(
                tokens[n, l], patches[n, l] @ enc.weight.data + enc.bias.data,
                rtol=0, atol=1e-12)


def test_layout_degenerate_single_variate(rng):
    # one variate keeps its variate axis
    enc = PatchEncoder.init(8, 4, np.random.default_rng(3))
    window = rng.standard_normal((1, 40))
    tokens = embed_patches(patchify(window, 8, 8), enc)
    assert tokens.shape == (1, 5, 4)
    np.testing.assert_allclose(tokens.data[0],
                               window.reshape(5, 8) @ enc.weight.data,
                               rtol=0, atol=1e-12)

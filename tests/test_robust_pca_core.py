"""The exact robust-PCA matrix on its N x N core: the block structure of the
embedded matrix, and phase-estimation sampling on the core with its null
dimension against sampling on the whole embedded matrix."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aqml import embedding, qpca
from aqml.util import stream


def tag0_indices(dim, count):
    """Indices (feature f, tag 0) of the embedded layout f * (2 N_v + 1) + t."""
    return np.arange(dim) * (2 * count + 1)


@st.composite
def raw_datasets(draw, min_count=3, max_count=8):
    """Vectors on a small integer grid, so equal entries (ties in every
    median) and zero rows are common, under a norm bound R that is tight,
    loose or (for all-zero data) 0."""
    count = draw(st.integers(min_count, max_count))
    dim = draw(st.integers(1, 4))
    grid = st.integers(-2, 2)
    rows = draw(st.lists(st.lists(grid, min_size=dim, max_size=dim),
                         min_size=count, max_size=count))
    vecs = np.array(rows, dtype=np.float64) * draw(st.sampled_from([0.1, 1.0, 3.0]))
    top = float(np.max(np.linalg.norm(vecs, axis=1)))
    if top == 0.0 or draw(st.integers(0, 4)) == 0:
        vecs = np.zeros_like(vecs)
        bound = draw(st.sampled_from([0.0, 1.0]))
    else:
        bound = top * draw(st.sampled_from([1.0, 1.5, 4.0]))
    return embedding.RawDataset(vecs, norm_bound=bound)


@settings(max_examples=200, deadline=None)
@given(raw_datasets())
def test_core_is_the_tag0_block_and_the_rest_is_zero(raw):
    full = embedding.robust_pca_matrix(embedding.embed(raw))
    core, null_dim = embedding.robust_pca_core(raw)
    idx = tag0_indices(raw.dim, raw.count)
    assert core.shape == (raw.dim, raw.dim)
    assert null_dim == full.shape[0] - raw.dim
    assert embedding.robust_pca_dim(raw.count, raw.dim) == raw.dim
    assert np.max(np.abs(core - full[np.ix_(idx, idx)])) <= 1e-15
    rest = np.ones(full.shape, dtype=bool)
    rest[np.ix_(idx, idx)] = False
    assert np.all(full[rest] == 0.0)
    if raw.norm_bound == 0.0:
        assert np.all(core == 0.0)


@settings(max_examples=50, deadline=None)
@given(raw_datasets(min_count=1, max_count=2))
def test_fewer_than_three_vectors_fall_back_to_the_full_matrix(raw):
    full = embedding.robust_pca_matrix(embedding.embed(raw))
    core, null_dim = embedding.robust_pca_core(raw)
    assert null_dim == 0
    assert embedding.robust_pca_dim(raw.count, raw.dim) == full.shape[0]
    assert np.array_equal(core, full)


@pytest.mark.parametrize("count", [3, 4, 8])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_sampling_the_core_matches_sampling_the_embedded_matrix(count, seed):
    rng = stream(seed, "core", str(count))
    vecs = rng.uniform(-1, 1, (count, 4))
    vecs *= 0.9 / np.max(np.linalg.norm(vecs, axis=1))
    raw = embedding.RawDataset(vecs, norm_bound=1.0)
    full = embedding.robust_pca_matrix(embedding.embed(raw))
    core, null_dim = embedding.robust_pca_core(raw)
    x_full = np.eye(full.shape[0])[0]
    x_core = np.eye(core.shape[0])[0]  # feature 0, tag 0 in both layouts

    spec_full = qpca.qpca_spectrum(full, x_full, bits=10)
    spec_core = qpca.qpca_spectrum(core, x_core, bits=10, null_dim=null_dim)
    counts_full = stream(seed, "core-draw").multinomial(10**4, spec_full.distribution)
    counts_core = stream(seed, "core-draw").multinomial(10**4, spec_core.distribution)
    assert np.array_equal(counts_full, counts_core)

    rep_full = qpca.qpca_sample(full, x_full, bits=10, shots=10**4,
                                rng=stream(seed, "core-sample"))
    rep_core = qpca.qpca_sample(core, x_core, bits=10, shots=10**4,
                                rng=stream(seed, "core-sample"), null_dim=null_dim)
    assert rep_core.histogram.keys() == rep_full.histogram.keys()
    assert rep_core.histogram == rep_full.histogram
    assert rep_core.lambda_measured == pytest.approx(rep_full.lambda_measured,
                                                     rel=1e-12, abs=0.0)


def test_spectrum_null_dimension_is_a_zero_bin_with_no_overlap():
    M = np.diag([0.5, -0.25])
    spec = qpca.qpca_spectrum(M, np.array([1.0, 0.0]), bits=8, null_dim=3)
    assert spec.bins.tolist() == [-0.25, 0.0, 0.5]
    assert spec.overlaps.tolist() == [0.0, 0.0, 1.0]
    with pytest.raises(ValueError):
        qpca.qpca_spectrum(M, np.array([1.0, 0.0]), null_dim=-1)

"""The exact robust-PCA matrix on its N x N core: the block structure of the
embedded matrix, and phase-estimation sampling on the core with its null
dimension against sampling on the whole embedded matrix."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aqml import embedding, linalg, qpca
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
    core, null_dim = embedding.robust_pca_core(raw.vectors, raw.norm_bound)
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
    core, null_dim = embedding.robust_pca_core(raw.vectors, raw.norm_bound)
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
    core, null_dim = embedding.robust_pca_core(raw.vectors, raw.norm_bound)
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


@pytest.mark.parametrize("M", [
    np.diag([0.5, 0.0, -0.25]),
    np.diag([-1e-15, 0.5]),
    embedding.robust_pca_core(
        stream(0, "null-bin").uniform(-0.3, 0.3, (6, 4)), 1.0)[0],
], ids=["zero-eigenvalue", "rounds-to-zero", "core"])
def test_spectrum_null_space_of_one_dimension_is_the_null_space_of_many(M):
    x = np.eye(len(M))[0]
    one = qpca.qpca_spectrum(M, x, bits=8, null_dim=1)
    many = qpca.qpca_spectrum(M, x, bits=8, null_dim=10**6)
    for field in ("bins", "overlaps", "distribution", "outcome_bins"):
        a, b = getattr(one, field), getattr(many, field)
        assert np.array_equal(a, b)
        assert np.array_equal(np.signbit(a), np.signbit(b))
    assert one.unresolved == many.unresolved


def robust_pca_matrix_loop(ips):
    """The former build of robust_pca_matrix, one row k at a time, kept as
    the reference for the batched median."""
    dev = ips - np.median(ips, axis=0, keepdims=True)
    dim = ips.shape[1]
    M = np.empty((dim, dim))
    for k in range(dim):
        M[k] = np.median(dev[:, k, None] * dev, axis=0)
    return (M + M.T) / 2.0


def robust_pca_core_loop(raw):
    """The former per-dataset robust_pca_core on the loop reference."""
    side = embedding.robust_pca_dim(raw.count, raw.dim)
    full = raw.dim * (2 * raw.count + 1)
    if side == full:
        return robust_pca_matrix_loop(embedding.embed(raw).vectors), 0
    if raw.norm_bound == 0:
        return np.zeros((side, side)), full - side
    return robust_pca_matrix_loop(raw.vectors / raw.norm_bound), full - side


@st.composite
def dataset_stacks(draw):
    """1-4 datasets of one count (1-9) and dim on a small integer grid, so
    ties and zero rows are common; some rows repeat an earlier one, and the
    shared norm bound is tight or, for all-zero data, 0."""
    size = draw(st.integers(1, 4))
    count = draw(st.integers(1, 9))
    dim = draw(st.integers(1, 4))
    grid = st.lists(st.integers(-2, 2), min_size=count * dim, max_size=count * dim)
    vecs = np.array([draw(grid) for _ in range(size)], dtype=np.float64)
    vecs = vecs.reshape(size, count, dim) * draw(st.sampled_from([0.1, 1.0, 3.0]))
    for j, src in enumerate(draw(st.lists(st.integers(0, count - 1),
                                          min_size=count, max_size=count))):
        if src < j and draw(st.booleans()):
            vecs[:, j] = vecs[:, src]
    if draw(st.integers(0, 4)) == 0:
        vecs[:] = 0.0
    top = float(np.max(np.linalg.norm(vecs, axis=-1)))
    bound = top if top > 0.0 else draw(st.sampled_from([0.0, 1.0]))
    return [embedding.RawDataset(v, norm_bound=bound) for v in vecs]


@settings(max_examples=300, deadline=None)
@given(raws=dataset_stacks(), block_values=st.sampled_from([1, 5, 2**20]))
def test_stacked_median_matrix_matches_the_row_loop(raws, block_values):
    # a small block budget splits the products into several median calls
    stack = np.stack([r.vectors for r in raws])
    with pytest.MonkeyPatch.context() as m:
        m.setattr(embedding, "_MEDIAN_BLOCK_VALUES", block_values)
        got = embedding.robust_pca_matrix(stack)
    assert np.array_equal(got, np.stack([robust_pca_matrix_loop(v) for v in stack]))
    assert np.array_equal(embedding.robust_pca_matrix(raws[0]), got[0])


@settings(max_examples=300, deadline=None)
@given(raws=dataset_stacks(), block_values=st.sampled_from([1, 5, 2**20]))
def test_stacked_core_matches_one_call_per_dataset(raws, block_values):
    # covers the N_v < 3 full embedding and the R = 0 zero core
    bound = raws[0].norm_bound
    with pytest.MonkeyPatch.context() as m:
        m.setattr(embedding, "_MEDIAN_BLOCK_VALUES", block_values)
        cores, null_dim = embedding.robust_pca_core(np.stack([r.vectors for r in raws]), bound)
    assert cores.shape[0] == len(raws)
    for raw, core in zip(raws, cores):
        want, want_null = robust_pca_core_loop(raw)
        own, own_null = embedding.robust_pca_core(raw.vectors, bound)
        assert null_dim == want_null == own_null
        assert np.array_equal(core, want)
        assert np.array_equal(own, want)


@settings(max_examples=200, deadline=None)
@given(
    raws=dataset_stacks(),
    alphas=st.lists(st.sampled_from([0.0, 0.1, 0.25, 0.34, 0.49]), max_size=4),
    strategy=st.sampled_from(["spike-direction", "replace-prefix"]),
)
def test_stacked_poisoning_norms_match_linalg_norm(raws, alphas, strategy):
    raw = raws[0]
    specs = [embedding.ContaminationSpec(alpha=a, strategy=strategy, seed=i)
             for i, a in enumerate(alphas)]
    (M, null_dim), reports = qpca.poisoning_sweep(raw, specs, L=2.0)
    want_M, want_null = embedding.robust_pca_core(raw.vectors, raw.norm_bound)
    assert np.array_equal(M, want_M) and null_dim == want_null
    C = embedding.classical_pca_matrix(raw)
    assert len(reports) == len(specs)
    for spec, rep in zip(specs, reports):
        poisoned = embedding.poison(raw, spec)
        Mp = embedding.robust_pca_core(poisoned, raw.norm_bound)[0]
        Cp = embedding.classical_pca_matrix(poisoned)
        assert rep["norm"] == linalg.norm(M - Mp)
        assert rep["mean_method_norm"] == linalg.norm(C - Cp)
        assert rep == qpca.poisoning_experiment(raw, spec, L=2.0)

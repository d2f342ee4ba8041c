"""Isometry embedding, median statistics, robust and classical PCA
matrices, contamination model."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from aqml import embedding
from aqml.util import stream


def test_embed_zero_norm_bound():
    raw = embedding.RawDataset(np.zeros((3, 2)), norm_bound=0.0)
    unit = embedding.embed(raw)
    for j in range(3):
        for k in range(3):
            assert unit.dagger_vectors[j] @ unit.vectors[k] == pytest.approx(
                0.0, abs=1e-12
            )
    assert np.allclose(np.linalg.norm(unit.vectors, axis=1), 1.0, atol=1e-12)


def test_embed_unit_vectors_r_one():
    vecs = np.eye(3)
    raw = embedding.RawDataset(vecs, norm_bound=1.0)
    unit = embedding.embed(raw)
    for j in range(3):
        for k in range(3):
            assert unit.dagger_vectors[j] @ unit.vectors[k] == pytest.approx(
                vecs[j] @ vecs[k], abs=1e-12
            )


def test_embed_specific_inner_product():
    raw = embedding.RawDataset(np.array([[3.0, 4.0], [5.0, 0.0]]), norm_bound=5.0)
    unit = embedding.embed(raw)
    assert unit.dagger_vectors[0] @ unit.vectors[1] == pytest.approx(0.6, abs=1e-12)


def test_embed_isometry_random():
    rng = stream(0, "emb", "iso")
    for _ in range(20):
        dim = int(rng.integers(1, 8))
        count = int(rng.integers(1, 10))
        vecs = rng.normal(size=(count, dim))
        R = float(np.max(np.linalg.norm(vecs, axis=1))) * (1.0 + rng.random())
        unit = embedding.embed(embedding.RawDataset(vecs, norm_bound=R))
        ips = unit.dagger_vectors @ unit.vectors.T
        assert np.max(np.abs(ips - vecs @ vecs.T / R**2)) <= 1e-10
        assert np.max(np.abs(np.linalg.norm(unit.vectors, axis=1) - 1.0)) <= 1e-12


def test_embed_rejects_norm_violation():
    with pytest.raises(ValueError):
        embedding.RawDataset(np.array([[2.0, 0.0]]), norm_bound=1.0)


def _ref_embed(raw):
    """One vector at a time: the tag and direction of row j, then their
    Kronecker product."""
    N, Nv, R = raw.dim, raw.count, raw.norm_bound
    tag_dim = 2 * Nv + 1
    out = np.zeros((Nv, N * tag_dim))
    out_dag = np.zeros((Nv, N * tag_dim))
    for j, x in enumerate(raw.vectors):
        nrm = np.linalg.norm(x)
        direction = np.zeros(N)
        if nrm > 0:
            direction = x / nrm
        else:
            direction[0] = 1.0  # weight on this factor is zero anyway
        if R == 0:
            tag = np.zeros(tag_dim)
            tag[1 + j] = 1.0
            tag_dag = np.zeros(tag_dim)
            tag_dag[1 + Nv + j] = 1.0
            direction = np.zeros(N)
            direction[0] = 1.0
        else:
            w = nrm / R
            tag = np.zeros(tag_dim)
            tag[0] = w
            tag[1 + j] = math.sqrt(max(0.0, 1.0 - w * w))
            tag_dag = np.zeros(tag_dim)
            tag_dag[0] = w
            tag_dag[1 + Nv + j] = math.sqrt(max(0.0, 1.0 - w * w))
        out[j] = np.kron(direction, tag)
        out_dag[j] = np.kron(direction, tag_dag)
    return out, out_dag


@st.composite
def _raw_datasets(draw):
    # grid rows with ties and zero rows, or arbitrary floats; R tight (the
    # largest norm), loose (above it) or 0 (zero data only)
    dim = draw(st.integers(1, 5))
    entry = st.one_of(st.sampled_from([0.0, 0.5, -0.5, 1.0, -3.0]),
                      st.floats(-1e3, 1e3, allow_subnormal=False))
    rows = draw(st.lists(st.one_of(st.just([0.0] * dim),
                                   st.lists(entry, min_size=dim, max_size=dim)),
                         min_size=1, max_size=7))
    vecs = np.array(rows, dtype=np.float64)
    largest = float(np.max(np.linalg.norm(vecs, axis=1)))
    bound = draw(st.sampled_from(["tight", "loose", "zero"]))
    if bound == "zero" or largest == 0.0:
        vecs[:] = 0.0
        R = 0.0 if bound == "zero" else draw(st.floats(0.0, 10.0))
    else:
        R = largest * (1.0 if bound == "tight" else draw(st.floats(1.0, 4.0)))
    return embedding.RawDataset(vecs, norm_bound=R)


@settings(max_examples=200, deadline=None)
@given(raw=_raw_datasets())
@example(raw=embedding.RawDataset(np.zeros((3, 2)), norm_bound=0.0))
@example(raw=embedding.RawDataset(np.array([[3.0, -4.0], [0.0, 0.0], [-5.0, 0.0]]),
                                  norm_bound=5.0))
def test_embed_matches_per_vector_reference(raw):
    unit = embedding.embed(raw)
    want, want_dag = _ref_embed(raw)
    for got, ref in ((unit.vectors, want), (unit.dagger_vectors, want_dag)):
        assert np.array_equal(got, ref)
        assert np.array_equal(np.signbit(got), np.signbit(ref))


def test_robust_pca_identical_vectors():
    data = np.tile([0.3, -0.2, 0.5], (3, 1))
    assert np.allclose(embedding.robust_pca_matrix(data), 0.0, atol=1e-14)


def test_robust_pca_two_point():
    data = np.array([[1.0, 0.0], [-1.0, 0.0]])
    M = embedding.robust_pca_matrix(data)
    assert M[0, 0] == pytest.approx(1.0)
    assert np.allclose(M[1], 0.0)


def brute_force_robust_matrix(vecs):
    # independent straight-line evaluation of the median-covariance entry
    n, dim = vecs.shape
    M = np.zeros((dim, dim))
    for k in range(dim):
        for l in range(dim):
            mk = np.median(vecs[:, k])
            ml = np.median(vecs[:, l])
            M[k, l] = np.median((vecs[:, k] - mk) * (vecs[:, l] - ml))
    return (M + M.T) / 2.0


def test_robust_pca_brute_force():
    vecs = stream(0, "emb", "brute").normal(size=(20, 6))
    assert np.max(
        np.abs(embedding.robust_pca_matrix(vecs) - brute_force_robust_matrix(vecs))
    ) <= 1e-12


def test_robust_pca_symmetric_and_permutation_invariant():
    rng = stream(0, "emb", "perm")
    vecs = rng.normal(size=(15, 4))
    M = embedding.robust_pca_matrix(vecs)
    assert np.array_equal(M, M.T)
    perm = rng.permutation(15)
    assert np.allclose(embedding.robust_pca_matrix(vecs[perm]), M, atol=1e-14)


def test_classical_pca_single_vector():
    assert np.allclose(embedding.classical_pca_matrix(np.array([[1.0, 2.0]])), 0.0)


def test_classical_pca_two_point():
    data = np.array([[1.0, 0.0], [-1.0, 0.0]])
    assert embedding.classical_pca_matrix(data)[0, 0] == pytest.approx(1.0)


def test_classical_pca_matches_numpy_cov():
    vecs = stream(0, "emb", "cov").normal(size=(30, 5))
    M = embedding.classical_pca_matrix(vecs)
    ref = np.cov(vecs, rowvar=False, bias=True)
    assert np.max(np.abs(M - ref)) <= 1e-12


def test_poison_alpha_zero():
    raw = embedding.RawDataset(stream(0, "emb", "p0").normal(size=(8, 3)) / 10, 1.0)
    out = embedding.poison(raw, embedding.ContaminationSpec(alpha=0.0))
    assert np.array_equal(out.vectors, raw.vectors)


def test_poison_replace_prefix_count():
    raw = embedding.RawDataset(np.zeros((10, 2)), norm_bound=1.0)
    out = embedding.poison(
        raw, embedding.ContaminationSpec(alpha=0.49, strategy="replace-prefix")
    )
    changed = np.any(out.vectors != raw.vectors, axis=1)
    assert changed[: int(0.49 * 10)].all() and not changed[4:].any()


def test_poison_spike_mean_vs_median():
    # the spike attack moves the mean of the spiked component by about
    # alpha * R while the median stays within alpha * L
    rng = stream(0, "emb", "spike")
    dist = embedding.uniform_dist()
    n, alpha, R = 4000, 0.2, 10.0
    col = dist.inverse_cdf(rng.random(n))
    vecs = np.zeros((n, 2))
    vecs[:, 0] = col
    raw = embedding.RawDataset(vecs, norm_bound=R)
    out = embedding.poison(
        raw,
        embedding.ContaminationSpec(
            alpha=alpha, strategy="spike-direction", spike_direction=np.array([1.0, 0])
        ),
    )
    mean_shift = abs(out.vectors[:, 0].mean() - vecs[:, 0].mean())
    median_shift = abs(
        np.median(out.vectors[:, 0]) - np.median(vecs[:, 0])
    )
    assert mean_shift >= 0.5 * alpha * R
    assert median_shift <= alpha * dist.lipschitz + 0.1


def test_poison_rejects_oversized_adversary():
    raw = embedding.RawDataset(np.zeros((4, 2)), norm_bound=1.0)
    spec = embedding.ContaminationSpec(
        alpha=0.5, strategy="custom", adversary_vectors=np.array([[5.0, 0], [0, 5.0]])
    )
    with pytest.raises(ValueError):
        embedding.poison(raw, spec)


def test_median_stability_alpha_zero():
    rep = embedding.median_stability_check(
        embedding.uniform_dist(), 0.0, trials=3, n_samples=10**4,
        rng=stream(0, "emb", "ms0"),
    )
    assert rep["max_shift"] == 0.0


def test_median_stability_uniform():
    rep = embedding.median_stability_check(
        embedding.uniform_dist(), 0.1, trials=5, n_samples=10**4,
        rng=stream(0, "emb", "ms"),
    )
    assert rep["ok"]
    assert rep["bound"] == pytest.approx(0.2)


def test_median_stability_saturates():
    # one-sided adversarial placement pushes the median to the (1/2 + alpha)
    # quantile, saturating the alpha L bound within 10%
    rep = embedding.median_stability_check(
        embedding.uniform_dist(), 0.2, trials=5, n_samples=10**5,
        rng=stream(0, "emb", "sat"),
    )
    assert rep["max_shift"] >= 0.9 * rep["bound"]


def test_distribution_spec_rejects_lipschitz_violation():
    with pytest.raises(ValueError):
        embedding.DistributionSpec(lambda u: np.tan(3.0 * (u - 0.5)), 1.0)


def test_distribution_spec_rejects_decreasing_inverse_cdf():
    with pytest.raises(ValueError, match="decreases"):
        embedding.DistributionSpec(lambda u: 1 - 2 * u, 2.0)


@pytest.mark.parametrize("trials, n_samples", [(0, 10), (-1, 10), (3, 0), (3, -5)])
def test_median_stability_rejects_empty_runs(trials, n_samples):
    with pytest.raises(ValueError, match="at least 1"):
        embedding.median_stability_check(embedding.uniform_dist(), 0.1, trials, n_samples)


def _full_array_stability(dist, alpha, trials, n_samples, rng):
    """(max_shift, mean_shift, ok) the direct way: Q on every draw and
    np.median of the clean and the poisoned sample."""
    L = dist.lipschitz
    bound = alpha * L + 3.0 * L / (2.0 * math.sqrt(n_samples))
    shifts = []
    for _ in range(trials):
        u = rng.random(n_samples)
        clean = dist.inverse_cdf(u)
        n_poison = int(math.floor(alpha * n_samples))
        poisoned = clean.copy()
        if n_poison:
            low = np.flatnonzero(u < 0.5)[:n_poison]
            poisoned[low] = dist.inverse_cdf(1.0)
        shifts.append(float(abs(np.median(poisoned) - np.median(clean))))
    shifts = np.array(shifts)
    return float(shifts.max()), float(shifts.mean()), bool(np.all(shifts <= bound))


_FAMILIES = [embedding.uniform_dist(), embedding.sine_dist(), embedding.cubic_dist()]


@settings(max_examples=150, deadline=None)
@given(dist=st.sampled_from(_FAMILIES),
       # small alphas give floor(alpha n) = 0 at small n
       alpha=st.one_of(st.just(0.0), st.floats(0.0, 0.5, exclude_max=True),
                       st.floats(0.0, 1e-3)),
       n=st.integers(1, 2000), trials=st.integers(1, 3),
       seed=st.integers(0, 2**32 - 1))
@example(dist=_FAMILIES[0], alpha=0.2, n=10**5, trials=1, seed=0)
@example(dist=_FAMILIES[1], alpha=0.05, n=10**5, trials=1, seed=1)
@example(dist=_FAMILIES[2], alpha=0.1, n=10**5, trials=2, seed=2)
@example(dist=_FAMILIES[2], alpha=0.0, n=10**5 + 1, trials=1, seed=3)
# 49 871 draws below 1/2, fewer than the 49 900 to move
@example(dist=_FAMILIES[0], alpha=0.499, n=10**5, trials=1, seed=2)
# more than the lower middle rank + floor(alpha n) draws below 1/2, and a
# moved draw above the kept middle ranks: the poisoned copy is built, and
# u's order statistics at the middle ranks + shift would be wrong
@example(dist=_FAMILIES[1], alpha=1e-4, n=10**5, trials=1, seed=13)
@example(dist=_FAMILIES[2], alpha=1e-3, n=10**5, trials=1, seed=181)
@example(dist=_FAMILIES[1], alpha=0.1, n=10**5 + 1, trials=1, seed=4)
# the draw buffer refilled by later trials
@example(dist=_FAMILIES[0], alpha=0.2, n=10**5, trials=3, seed=5)
def test_median_stability_matches_full_array_medians(dist, alpha, n, trials, seed):
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    rep = embedding.median_stability_check(dist, alpha, trials, n, rng=rng)
    assert (rep["max_shift"], rep["mean_shift"], rep["ok"]) == _full_array_stability(
        dist, alpha, trials, n, ref_rng)
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def _rank_lists(n, shift):
    """Rank lists of length 1, 2 and 4 over n entries: the end ranks 0 and
    n - 1, the middle ranks moved up by shift (where they fit), and the ends
    with the moved middle ranks (capped at n - 1)."""
    middle = np.unique([(n - 1) // 2, n // 2]) + shift
    capped = np.minimum(np.array([(n - 1) // 2, n // 2]) + shift, n - 1)
    lists = [[0], [n - 1], [0, n - 1], [0, *capped, n - 1]]
    if middle[-1] < n:
        lists.append(list(middle))
    return lists


def _check_order_statistics(x, ranks):
    ranks = np.asarray(ranks)
    values, offset, window = embedding._order_statistics(x, ranks)
    assert np.array_equal(values, np.sort(x)[ranks])
    # the window is the run of sorted(x) from rank offset, and holds every rank
    assert offset <= ranks[0] and ranks[-1] < offset + window.size
    assert np.array_equal(np.sort(window), np.sort(x)[offset:offset + window.size])


@pytest.mark.parametrize("n", [1, 2, 999, 1000])
@pytest.mark.parametrize("make", [
    lambda rng, n: rng.uniform(0.9, 1.0, n),  # window at 1/2 is empty
    lambda rng, n: rng.uniform(0.0, 0.1, n),  # every entry below the window
    lambda rng, n: np.full(n, 0.5),
    lambda rng, n: np.zeros(n),
    lambda rng, n: np.where(rng.random(n) < 0.5, 0.0, 0.99),
    lambda rng, n: rng.random(n) ** 6,
    # the window holds all but the top middle rank, or all but the bottom one
    lambda rng, n: np.repeat([0.5, 0.9], [n // 2, n - n // 2]),
    lambda rng, n: np.repeat([0.1, 0.5], [n - n // 2, n // 2]),
])
@pytest.mark.parametrize("shift", [0, 1, 7])
def test_middle_order_statistics_skewed(n, make, shift):
    x = make(stream(n, "emb", "mos"), n)
    for ranks in _rank_lists(n, shift):
        _check_order_statistics(x, ranks)


@st.composite
def _values_and_ranks(draw):
    values = draw(st.lists(st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 0.5, 1.0])),
                           min_size=1, max_size=300))
    n = len(values)
    # any ranks, or only the end ranks 0 and n - 1
    rank = st.one_of(st.integers(0, n - 1), st.sampled_from([0, n - 1]))
    return np.array(values), sorted(draw(st.lists(rank, min_size=1, max_size=4)))


@settings(max_examples=100, deadline=None)
@given(case=_values_and_ranks())
def test_middle_order_statistics_any_values(case):
    _check_order_statistics(*case)

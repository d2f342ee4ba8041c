"""Property tests for the array-backed k-means input: the vectorized
nearest-centroid assignment against the row-by-row reference, the Lloyd
step and the protocol round against per-cluster mask references, and the
`Participants` validation."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from aqml import kmeans
from aqml.util import stream


def assign_clusters_rowwise(vectors, centroids, rng=None):
    """Reference: one row at a time, drawing a tie-break only for rows
    tied between two or more centroids."""
    d2 = np.sum((vectors[:, None, :] - centroids[None, :, :]) ** 2, axis=2)
    best = np.min(d2, axis=1)
    assign = np.empty(len(vectors), dtype=np.int64)
    for j in range(len(vectors)):
        ties = np.flatnonzero(d2[j] <= best[j] + 1e-15)
        if len(ties) == 1 or rng is None:
            assign[j] = ties[0]
        else:
            assign[j] = ties[rng.integers(0, len(ties))]
    return assign


@st.composite
def tied_instances(draw):
    """Points and centroids on a small integer grid (scaled into [-1, 1]),
    with centroids drawn from a few grid points so duplicates are common;
    both make exact distance ties frequent.  Half-integer coordinates give
    exact squared distances, so sums of 8 or more terms tie exactly too."""
    d = draw(st.integers(1, 9))
    k = draw(st.integers(1, 5))
    n = draw(st.integers(0, 40))
    grid = st.integers(-2, 2)
    pool = draw(st.lists(st.lists(grid, min_size=d, max_size=d),
                         min_size=1, max_size=3))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=k, max_size=k))
    centroids = np.array([pool[i] for i in picks], dtype=np.float64) / 2.0
    vectors = np.array(
        draw(st.lists(st.lists(grid, min_size=d, max_size=d),
                      min_size=n, max_size=n)),
        dtype=np.float64,
    ).reshape(n, d) / 2.0
    return vectors, centroids


@settings(max_examples=300, deadline=None)
@given(tied_instances(), st.integers(0, 2**32 - 1))
def test_assign_clusters_matches_rowwise_reference(instance, seed):
    vectors, centroids = instance
    rng_ref = np.random.default_rng(seed)
    rng_new = np.random.default_rng(seed)
    expected = assign_clusters_rowwise(vectors, centroids, rng_ref)
    got = kmeans.assign_clusters(vectors, centroids, rng_new)
    assert got.dtype == expected.dtype
    np.testing.assert_array_equal(got, expected)
    assert rng_new.bit_generator.state == rng_ref.bit_generator.state

    # without a generator nothing is drawn, not even from numpy's global one
    state = np.random.get_state()
    np.testing.assert_array_equal(
        kmeans.assign_clusters(vectors, centroids, None),
        assign_clusters_rowwise(vectors, centroids, None),
    )
    after = np.random.get_state()
    assert state[0] == after[0] and state[2:] == after[2:]
    np.testing.assert_array_equal(state[1], after[1])


@st.composite
def float_instances(draw):
    """Uniform random points in [-1, 1]^d, d <= 7, and centroids drawn with
    repeats, so some rows tie exactly between equal centroids."""
    d = draw(st.integers(1, 7))
    k = draw(st.integers(1, 5))
    n = draw(st.sampled_from([0, 1, 17, 1000, 10_000]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pool = rng.uniform(-1.0, 1.0, (draw(st.integers(1, k)), d))
    centroids = pool[rng.integers(0, len(pool), k)]
    return rng.uniform(-1.0, 1.0, (n, d)), centroids


@settings(max_examples=40, deadline=None)
@given(float_instances(), st.integers(0, 2**32 - 1))
def test_assign_clusters_matches_rowwise_reference_on_floats(instance, seed):
    vectors, centroids = instance
    rng_ref = np.random.default_rng(seed)
    rng_new = np.random.default_rng(seed)
    expected = assign_clusters_rowwise(vectors, centroids, rng_ref)
    got = kmeans.assign_clusters(vectors, centroids, rng_new)
    np.testing.assert_array_equal(got, expected)
    assert rng_new.bit_generator.state == rng_ref.bit_generator.state


def test_assign_clusters_draws_once_per_tied_row():
    # rows 0 and 2 are tied between both centroids; row 1 is not
    vectors = np.array([[0.0, 0.0], [0.9, 0.0], [0.0, 0.5]])
    centroids = np.array([[1.0, 0.0], [-1.0, 0.0]])
    rng = stream(3, "km", "ties")
    kmeans.assign_clusters(vectors, centroids, rng)
    ref = stream(3, "km", "ties")
    ref.integers(0, 2)
    ref.integers(0, 2)
    assert rng.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("vectors, centroids", [
    # a NaN row next to a row tied between both centroids
    (np.array([[math.nan, 0.0], [0.0, 0.0]]), np.array([[1.0, 0.0], [-1.0, 0.0]])),
    (np.array([[0.5, math.nan]]), np.array([[1.0, 0.0], [-1.0, 0.0]])),
    # a NaN centroid, and an infinite row against an infinite centroid
    (np.array([[0.5, 0.0]]), np.array([[math.nan, 0.0], [-1.0, 0.0]])),
    (np.array([[math.inf, 0.0]]), np.array([[math.inf, 0.0], [-1.0, 0.0]])),
])
def test_assign_clusters_rejects_a_nan_distance(vectors, centroids):
    rng = stream(3, "km", "nan")
    state = rng.bit_generator.state
    for draws in (rng, None):
        # inf - inf is the NaN of the last case
        with pytest.raises(ValueError, match="NaN"), np.errstate(invalid="ignore"):
            kmeans.assign_clusters(vectors, centroids, draws, return_first=True)
    assert rng.bit_generator.state == state


@settings(max_examples=200, deadline=None)
@given(tied_instances(), st.integers(0, 2**32 - 1))
def test_first_tie_assignment_is_the_one_before_tie_breaks(instance, seed):
    vectors, centroids = instance
    rng_ref = np.random.default_rng(seed)
    rng_new = np.random.default_rng(seed)
    assign, first = kmeans.assign_clusters(vectors, centroids, rng_new,
                                           return_first=True)
    np.testing.assert_array_equal(assign, kmeans.assign_clusters(vectors, centroids, rng_ref))
    np.testing.assert_array_equal(first, assign_clusters_rowwise(vectors, centroids))
    assert rng_new.bit_generator.state == rng_ref.bit_generator.state


@settings(max_examples=40, deadline=None)
@given(float_instances(), st.integers(0, 2**32 - 1))
def test_assign_clusters_draws_nothing_without_multiple_ties(instance, seed):
    vectors, centroids = instance
    centroids = centroids + np.arange(len(centroids))[:, None]  # all distinct
    rng = np.random.default_rng(seed)
    state = rng.bit_generator.state
    assign, first = kmeans.assign_clusters(vectors, centroids, rng,
                                           return_first=True)
    assert rng.bit_generator.state == state
    assert assign is first
    np.testing.assert_array_equal(assign, kmeans.assign_clusters(vectors, centroids))


def test_participants_defaults_and_clipping():
    parts = kmeans.Participants([[1.0 + 1e-13, -0.5], [0.2, -1.0 - 1e-13]])
    assert len(parts) == 2
    assert parts.active.shape == (2, 2)
    assert np.max(np.abs(parts.active)) == 1.0


@pytest.mark.parametrize(
    "x",
    [
        np.array([[np.nan, 0.0], [0.1, 0.2]]),
        np.array([[0.1, np.inf]]),
        np.array([[0.1, 0.2], [0.3, -1.5]]),
        np.array([0.1, 0.2]),
    ],
    ids=["nan", "inf", "out-of-range", "1d-x"],
)
def test_participants_rejects(x):
    with pytest.raises(ValueError):
        kmeans.Participants(x)


def classical_iteration_masked(vectors, centroids):
    """Reference Lloyd step: one boolean mask per cluster, then the mean of
    the masked rows."""
    assign = assign_clusters_rowwise(vectors, centroids)
    new = centroids.copy()
    probs = np.zeros(len(centroids))
    for p in range(len(centroids)):
        members = assign == p
        probs[p] = members.mean() if len(vectors) else 0.0
        if members.any():
            new[p] = vectors[members].mean(axis=0)
    return new, probs, assign


@st.composite
def lloyd_instances(draw):
    """Uniform points in [-1, 1]^d, d <= 8, up to 10^5 rows, in C or Fortran
    order.  Centroids repeat (every row tied between equal centroids goes to
    the first, so the later copies are empty clusters) and one may sit in a
    corner far from the data; grid instances add exact distance ties
    between distinct centroids."""
    d = draw(st.integers(1, 8))
    k = draw(st.integers(1, 5))
    n = draw(st.sampled_from([0, 1, 2, 17, 1000, 10_000, 100_000]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        vectors = rng.integers(-2, 3, (n, d)) / 2.0
        pool = rng.integers(-2, 3, (draw(st.integers(1, k)), d)) / 2.0
    else:
        vectors = rng.uniform(-1.0, 1.0, (n, d))
        pool = rng.uniform(-1.0, 1.0, (draw(st.integers(1, k)), d))
    centroids = pool[rng.integers(0, len(pool), k)]
    if draw(st.booleans()):
        centroids[-1] = 4.0  # farther than any point from [-1, 1]^d
    if draw(st.booleans()):
        vectors = np.asfortranarray(vectors)
    return vectors, centroids


def uniform_instance(n, d, k, seed, order):
    rng = np.random.default_rng(seed)
    vectors = np.asarray(rng.uniform(-1.0, 1.0, (n, d)), order=order)
    return vectors, rng.uniform(-1.0, 1.0, (k, d))


@settings(max_examples=60, deadline=None)
@given(lloyd_instances())
@example(uniform_instance(100_000, 2, 3, 0, "C"))
@example(uniform_instance(100_000, 5, 2, 1, "F"))
@example(uniform_instance(100_000, 8, 4, 2, "F"))
@example(uniform_instance(100_000, 1, 3, 3, "C"))
@example((np.zeros((0, 3)), np.zeros((2, 3))))
@example((np.zeros((5, 1)), np.array([[0.5], [0.5], [-0.5]])))
def test_classical_iteration_matches_masked_means(instance):
    vectors, centroids = instance
    new, probs, assign = kmeans.classical_iteration(vectors, centroids)
    ref_new, ref_probs, ref_assign = classical_iteration_masked(vectors, centroids)
    assert np.array_equal(assign, ref_assign)
    assert np.array_equal(probs, ref_probs)
    if vectors.shape[1] >= 2:
        # row-order sums, the order in which the mean adds an (n, d) block
        assert np.array_equal(new, ref_new)
        return
    # at d = 1 the mean of an (n, 1) block is a pairwise sum: the two means
    # agree to the error bound of a length-n sum of entries in [-1, 1]
    counts = np.bincount(assign, minlength=len(centroids))
    tol = 2.0 * np.maximum(counts, 1) * np.finfo(np.float64).eps
    assert np.all(np.abs(new[:, 0] - ref_new[:, 0]) <= tol)
    assert np.array_equal(new[counts == 0], centroids[counts == 0])


def run_round_masked(participants, centroids, cfg, rng):
    """Reference protocol round: one boolean mask per cluster, component
    sums over `vecs[members, q]`, and the empty clusters as a list."""
    k, d = centroids.shape
    N = cfg.n_participants
    vecs = np.ascontiguousarray(participants.active)
    assign = (kmeans.assign_clusters(vecs, centroids, rng) if len(vecs)
              else np.array([], int))
    eps_coarse = cfg.epsilon / 4.0
    probs = np.zeros(k)
    sums_est = np.zeros((k, d))
    empty = []
    for p in range(k):
        members = assign == p
        true_p = members.sum() / N
        coarse = kmeans._phase_readout(true_p, eps_coarse, rng)
        if coarse <= cfg.epsilon:
            probs[p] = coarse
            empty.append(p)
            continue
        eps_fine = cfg.epsilon * coarse / 4.0
        probs[p] = max(kmeans._phase_readout(true_p, eps_fine, rng), eps_fine)
        for q in range(d):
            true_s = vecs[members, q].sum() / N if members.any() else 0.0
            sums_est[p, q] = kmeans._phase_readout(true_s, eps_fine, rng, lo=-1.0)
    new_centroids = centroids.copy()
    for p in range(k):
        if p not in empty:
            new_centroids[p] = sums_est[p] / probs[p]
    if empty and len(vecs):
        dist = np.min(np.sum((vecs[:, None, :] - centroids[None, :, :]) ** 2,
                             axis=2), axis=1)
        new_centroids[empty] = vecs[np.argmax(dist)]
    new_centroids = np.clip(new_centroids, -1.0, 1.0)
    read = probs[probs > cfg.epsilon]
    min_p = float(np.min(read)) if len(read) else 1.0
    budget = kmeans.rotation_budget(replace(cfg, rounds=1),
                                    max(min_p, cfg.epsilon * 1.0001))
    return new_centroids, probs, budget


@settings(max_examples=30, deadline=None)
@given(
    st.integers(1, 4),
    st.integers(1, 4),
    st.sampled_from([1, 50, 1000, 100_000]),
    st.floats(0.0, 1.0),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
@example(2, 2, 100_000, 0.7, False, 0)
@example(3, 2, 100_000, 0.4, True, 1)
def test_run_round_matches_masked_sums(k, d, n, share, corner, seed):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.0, 1.0, (n, d))
    parts = kmeans.Participants(x[rng.random(n) < share])
    centroids = rng.uniform(-1.0, 1.0, (k, d))
    if corner:
        centroids[0] = 1.0  # a corner centroid may hold no participant
    cfg = kmeans.ProtocolConfig(k=k, d=d, n_participants=n, epsilon=0.05)
    rng_new = np.random.default_rng(seed + 1)
    rng_ref = np.random.default_rng(seed + 1)
    res = kmeans.run_round(parts, centroids, cfg, rng_new)
    ref_centroids, ref_probs, ref_budget = run_round_masked(
        parts, centroids, cfg, rng_ref)
    assert np.array_equal(res.centroids, ref_centroids)
    assert np.array_equal(res.probs, ref_probs)
    assert res.budget == ref_budget
    assert rng_new.bit_generator.state == rng_ref.bit_generator.state


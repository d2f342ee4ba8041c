"""Property tests for the array-backed k-means input: the vectorized
nearest-centroid assignment against the row-by-row reference, and the
`Participants` validation."""

import numpy as np
import pytest
from hypothesis import given, settings
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


def test_participants_defaults_and_clipping():
    parts = kmeans.Participants([[1.0 + 1e-13, -0.5], [0.2, -1.0 - 1e-13]])
    assert len(parts) == 2
    assert parts.x.shape == (2, 2)
    assert np.max(np.abs(parts.x)) == 1.0
    np.testing.assert_array_equal(parts.participating, [True, True])


@pytest.mark.parametrize(
    "x, mask",
    [
        (np.array([[np.nan, 0.0], [0.1, 0.2]]), None),
        (np.array([[0.1, np.inf]]), None),
        (np.array([[0.1, 0.2], [0.3, -1.5]]), None),
        (np.zeros((3, 2)), np.ones(2, dtype=bool)),
        (np.zeros((3, 2)), np.ones((3, 1), dtype=bool)),
        (np.array([0.1, 0.2]), None),
    ],
    ids=["nan", "inf", "out-of-range", "short-mask", "2d-mask", "1d-x"],
)
def test_participants_rejects(x, mask):
    with pytest.raises(ValueError):
        kmeans.Participants(x, mask)


def test_run_round_mask_equals_dropping_rows():
    rng = stream(0, "km", "mask")
    x = np.clip(rng.normal(0.0, 0.4, (300, 2)), -1, 1)
    mask = rng.random(300) < 0.7
    cfg = kmeans.ProtocolConfig(k=2, d=2, n_participants=300, epsilon=0.05)
    init = np.array([[0.3, 0.3], [-0.3, -0.3]])
    masked = kmeans.run_round(kmeans.Participants(x, mask), init, cfg,
                              stream(1, "km", "mask"))
    dropped = kmeans.run_round(kmeans.Participants(x[mask]), init, cfg,
                               stream(1, "km", "mask"))
    np.testing.assert_array_equal(masked.centroids, dropped.centroids)
    np.testing.assert_array_equal(masked.probs, dropped.probs)

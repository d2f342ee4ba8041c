"""Private k-means protocol: GHZ phase aggregation, rotation budgets,
round simulation and distinguishability analysis."""

import math

import numpy as np
import pytest

from aqml import kmeans
from aqml.util import stream


def make_blobs(rng, centers, sigma, n):
    # row i sits at centers[i % k]; one draw of n rows is the same normal
    # stream, in the same order, as n draws of one row each
    centers = np.asarray(centers, dtype=np.float64)
    c = centers[np.arange(n) % len(centers)]
    return kmeans.Participants(
        np.clip(c + rng.normal(scale=sigma, size=c.shape), -1, 1)
    )


def test_ghz_channel_closed_form():
    thetas = [0.3, -0.1, 0.2]
    total = sum(thetas)
    assert kmeans.ghz_phase_channel(thetas) == pytest.approx(
        math.cos(total / 2.0) ** 2
    )
    assert kmeans.ghz_phase_channel([0.0] * 5) == pytest.approx(1.0)


def test_ghz_channel_rejects_wrap():
    with pytest.raises(ValueError):
        kmeans.ghz_phase_channel([2.0, 2.0])


def test_ghz_statevector_matches_channel():
    rng = stream(0, "km", "ghz")
    for trial in range(20):
        thetas = rng.uniform(-0.4, 0.4, 6)
        a = kmeans.ghz_phase_channel(thetas)
        b = kmeans.ghz_phase_statevector(thetas)
        assert abs(a - b) <= 1e-12


def test_rotation_budget_example():
    cfg = kmeans.ProtocolConfig(k=2, d=2, n_participants=1000, epsilon=0.1,
                                rounds=1)
    budget = kmeans.rotation_budget(cfg, min_p=0.5)
    # c = AE_CONSTANT = 8: q1 = 8 / 0.1, q2 = 8 * 2 / (0.5 * 0.1)
    assert budget.q1 == 80
    assert budget.q2 == 320
    assert budget.total == 400


def test_rotation_budget_zero_dim_and_halving():
    with pytest.raises(ValueError, match="d >= 1"):
        kmeans.ProtocolConfig(k=2, d=0, n_participants=100, epsilon=0.1)
    cfg = kmeans.ProtocolConfig(k=2, d=2, n_participants=1000, epsilon=0.2)
    half = kmeans.rotation_budget(cfg, min_p=0.5)
    assert half.q1 == 40 and half.q2 == 160  # doubling epsilon halves both


@pytest.mark.parametrize("d", [0, -1])
def test_protocol_config_rejects_nonpositive_dim(d):
    # d = 0 used to pass here and crash run_protocol on an empty np.max
    with pytest.raises(ValueError, match="d >= 1"):
        kmeans.ProtocolConfig(k=2, d=d, n_participants=4, epsilon=0.1)
    cfg = kmeans.ProtocolConfig(k=2, d=1, n_participants=4, epsilon=0.1)
    res = kmeans.run_protocol(kmeans.Participants(np.zeros((4, 1))), cfg,
                              np.array([[0.5], [-0.5]]), stream(0, "km", "d1"))
    assert len(res.trajectory) == 2


@pytest.mark.parametrize("eps,rounds", [(1e-320, 1), (5e-324, 0), (0.05, 10**400)])
def test_rotation_budget_rejects_counts_that_are_not_finite(eps, rounds):
    # 8 / 1e-320 overflows a float, min_p * 5e-324 underflows to 0, and
    # 10^400 rounds do not fit a float
    cfg = kmeans.ProtocolConfig(k=2, d=2, n_participants=100, epsilon=eps,
                                rounds=rounds)
    with pytest.raises(ValueError, match="not finite"):
        kmeans.rotation_budget(cfg, min_p=0.5)


@pytest.mark.parametrize("eps,rounds,d,min_p", [
    (0.05, 5, 2, 0.5), (0.05, 1, 2, 0.5), (0.1, 3, 8, 1 / 3), (1e-300, 2, 3, 0.5),
    (0.05, 1, 2, 0.05 * 1.0001),
])
def test_rotation_budget_counts_unchanged(eps, rounds, d, min_p):
    # the counts of the plain formula wherever it is finite
    cfg = kmeans.ProtocolConfig(k=2, d=d, n_participants=10, epsilon=eps,
                                rounds=rounds)
    budget = kmeans.rotation_budget(cfg, min_p)
    c = kmeans.AE_CONSTANT
    assert budget.q1 == int(math.ceil(c * rounds / eps))
    assert budget.q2 == int(math.ceil(c * rounds * d / (min_p * eps)))


def test_rotation_budget_rejects_small_min_p():
    cfg = kmeans.ProtocolConfig(k=2, d=2, n_participants=100, epsilon=0.1)
    with pytest.raises(ValueError):
        kmeans.rotation_budget(cfg, min_p=0.05)


def test_participant_validation():
    with pytest.raises(ValueError):
        kmeans.Participants(np.array([[1.5, 0.0]]))
    with pytest.raises(ValueError):
        kmeans.Participants(np.array([[np.nan, 0.0]]))


def test_run_round_two_clusters_accuracy():
    rng = stream(0, "km", "round")
    cfg = kmeans.ProtocolConfig(k=2, d=2, n_participants=2000, epsilon=0.05)
    parts = make_blobs(rng, [[0.8, 0.8], [-0.8, -0.8]], 0.05, 2000)
    init = np.array([[0.5, 0.5], [-0.5, -0.5]])
    res = kmeans.run_round(parts, init, cfg, rng)
    vecs = parts.x
    exact, exact_probs, _ = kmeans.classical_iteration(vecs, init)
    assert np.max(np.abs(res.centroids - exact)) <= cfg.epsilon
    assert np.max(np.abs(res.probs - exact_probs)) <= cfg.epsilon
    assert not res.aborted


def test_run_round_zero_participation_aborts():
    rng = stream(0, "km", "idle")
    cfg = kmeans.ProtocolConfig(k=2, d=1, n_participants=100, epsilon=0.05)
    parts = kmeans.Participants(np.full((100, 1), 0.5),
                                participating=np.zeros(100, dtype=bool))
    res = kmeans.run_round(parts, np.array([[0.5], [-0.5]]), cfg, rng)
    assert res.aborted
    assert sorted(res.empty_clusters) == [0, 1]


def test_ratio_error_inequality():
    # |S/P - S/(P + e)| <= |S| e / P^2 for the ratio readout error model
    rng = stream(0, "km", "ratio")
    for trial in range(200):
        P = rng.uniform(0.1, 1.0)
        S = rng.uniform(-P, P)
        e = rng.uniform(0, P / 2)
        lhs = abs(S / P - S / (P + e))
        assert lhs <= abs(S) * e / P**2 + 1e-12


def test_privacy_idle_participant_is_half():
    report = kmeans.privacy_analysis(
        kmeans.RotationBudget(q1=0, q2=0), n_participants=100
    )
    assert report.p_opt_exact == 0.5
    assert report.bound == 0.0


def test_privacy_example_value():
    # q = 10 rotations among N = 100 participants
    closed = kmeans.privacy_closed_form(10, 100)
    assert closed == pytest.approx(0.5 + 0.5 * math.sin(0.05), abs=1e-12)
    assert closed == pytest.approx(0.52498, abs=1e-5)
    exact = kmeans.privacy_density_matrix(10, 100, qubits=8)
    assert abs(exact - closed) <= 1e-9


def test_privacy_density_matrix_matches_closed_form():
    for q, N in [(1, 10), (5, 50), (25, 100), (99, 200)]:
        closed = kmeans.privacy_closed_form(q, N)
        exact = kmeans.privacy_density_matrix(q, N, qubits=6)
        assert abs(exact - closed) <= 1e-9


def test_privacy_bound_envelope_and_monotonicity():
    prev = 0.5
    for q in range(0, 100, 5):
        p = kmeans.privacy_closed_form(q, 100)
        assert p - 0.5 <= q / 200.0 + 1e-12
        assert p >= prev - 1e-12
        prev = p


def test_privacy_precondition_rejected():
    budget = kmeans.RotationBudget(q1=60, q2=60)
    with pytest.raises(ValueError):
        kmeans.privacy_analysis(budget, n_participants=100)


def test_run_protocol_tracks_lloyd():
    rng = stream(0, "km", "proto")
    n = 4000
    cfg = kmeans.ProtocolConfig(k=2, d=2, n_participants=n, epsilon=0.05,
                                rounds=4)
    parts = make_blobs(rng, [[0.6, 0.6], [-0.6, -0.6]], 0.05, n)
    init = np.array([[0.3, 0.2], [-0.3, -0.2]])
    out = kmeans.run_protocol(parts, cfg, init, rng)
    assert np.max(np.abs(out.trajectory[-1] - out.classical_reference[-1])) <= (
        2.0 * cfg.epsilon
    )
    assert out.privacy is not None
    assert out.privacy.p_opt_exact <= 0.5 + out.privacy.bound + 1e-9


@pytest.mark.parametrize("masked", [False, True])
def test_classical_reference_aligned_with_trajectory(masked):
    rng = stream(0, "km", "ref", str(masked))
    n = 2000
    parts = make_blobs(rng, [[0.6, 0.6], [-0.6, -0.6]], 0.05, n)
    if masked:
        parts = kmeans.Participants(parts.x, rng.random(n) < 0.7)
    cfg = kmeans.ProtocolConfig(k=2, d=2, n_participants=n, epsilon=0.05,
                                rounds=3, convergence_tol=0.0)
    init = np.array([[0.3, 0.2], [-0.3, -0.2]])
    out = kmeans.run_protocol(parts, cfg, init, rng)
    assert len(out.trajectory) == 4
    assert len(out.classical_reference) == len(out.trajectory)
    ref = init
    for entry in out.classical_reference:
        assert np.array_equal(entry, ref)
        ref, _, _ = kmeans.classical_iteration(parts.active, ref)


def test_run_protocol_privacy_delta_zero_runs_nothing():
    rng = stream(0, "km", "pd0")
    cfg = kmeans.ProtocolConfig(k=2, d=1, n_participants=1000, epsilon=0.1,
                                rounds=3, privacy_delta=0.0)
    parts = make_blobs(rng, [[0.5], [-0.5]], 0.05, 200)
    out = kmeans.run_protocol(parts, cfg, np.array([[0.4], [-0.4]]), rng)
    assert out.privacy_exhausted
    assert len(out.trajectory) == 1
    assert out.budget.total == 0


def test_assign_clusters_deterministic_ties():
    vecs = np.array([[0.0, 0.0]])
    cents = np.array([[1.0, 0.0], [-1.0, 0.0]])
    a1 = kmeans.assign_clusters(vecs, cents, stream(7, "km", "tie"))
    a2 = kmeans.assign_clusters(vecs, cents, stream(7, "km", "tie"))
    assert a1[0] == a2[0]


@pytest.mark.parametrize("d", [1, 2, 5])
def test_empty_cluster_reseeded_at_farthest_participant(d):
    # centroid 0 sits in the far corner, away from every point, so its
    # cluster is empty and it is reseeded at the participant farthest from
    # all current centroids (the first one on a tie)
    rng = stream(0, "km", "reseed", str(d))
    parts = make_blobs(rng, [[-0.5] * d, [-0.2] * d], 0.2, 500)
    init = np.array([[1.0] * d, [-0.5] * d, [-0.2] * d])
    cfg = kmeans.ProtocolConfig(k=3, d=d, n_participants=500, epsilon=0.05)
    res = kmeans.run_round(parts, init, cfg, rng)
    assert res.empty_clusters == [0]
    vecs = parts.active
    dist = np.min(np.sum((vecs[:, None, :] - init[None, :, :]) ** 2, axis=2),
                  axis=1)
    np.testing.assert_array_equal(res.centroids[0], vecs[np.argmax(dist)])


@pytest.mark.parametrize("mask", [[True, False, True], None])
def test_participants_active_is_computed_once(mask):
    x = np.array([[0.1, 0.2], [0.3, 0.4], [-0.5, 0.6]])
    parts = kmeans.Participants(x, mask)
    assert parts.active is parts.active
    np.testing.assert_array_equal(parts.active, x[parts.participating])
    with pytest.raises(ValueError):
        parts.active[0, 0] = 0.0
    # the read-only rows are a copy: x stays writable, and writing it
    # leaves active as it was, whatever the mask
    before = parts.active.copy()
    parts.x[0, 0] = 0.9
    np.testing.assert_array_equal(parts.active, before)

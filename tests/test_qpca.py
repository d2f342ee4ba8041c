"""Robust PCA pipeline: matrix construction, eigenvalue sampling by phase
estimation, poisoning bounds, and spectral perturbation checks."""

import math

import numpy as np
import pytest

from aqml import embedding, linalg, qpca
from aqml.util import stream


def unit_rows(rng, n, dim):
    v = rng.normal(size=(n, dim))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def test_build_matrix_identical_vectors_zero():
    vecs = np.tile([1.0, 0.0, 0.0], (8, 1))
    unit = embedding.UnitDataset(vecs, vecs.copy())
    M = qpca.build_matrix(unit, mode="exact-median")
    assert np.abs(M).max() <= 1e-12
    # per-entry failures are probabilistic; delta is kept small so the whole
    # 3x3 draw succeeds at this seed
    Mq = qpca.build_matrix(
        unit, mode="quantum-median", gamma=0.1, delta=0.001,
        rng=stream(0, "qpca", "ident"),
    )
    assert np.abs(Mq).max() <= 0.1


def test_build_matrix_quantum_close_to_exact():
    rng = stream(0, "qpca", "q-vs-exact")
    vecs = unit_rows(rng, 12, 3)
    data = embedding.UnitDataset(vecs, vecs.copy())
    exact = qpca.build_matrix(data, mode="exact-median")
    quantum = qpca.build_matrix(
        data, mode="quantum-median", gamma=0.2, delta=0.02, rng=rng
    )
    assert np.abs(quantum - exact).max() <= 0.2 + 0.05


def test_build_matrix_symmetry_exact():
    rng = stream(1, "qpca", "sym")
    vecs = unit_rows(rng, 10, 4)
    data = embedding.UnitDataset(vecs, vecs.copy())
    M = qpca.build_matrix(
        data, mode="quantum-median", gamma=0.3, delta=0.1, rng=rng
    )
    assert np.array_equal(M, M.T)


def test_build_matrix_rejects_unknown_mode():
    data = embedding.RawDataset(np.eye(2), norm_bound=1.0)
    with pytest.raises(ValueError):
        qpca.build_matrix(data, mode="bogus")


def test_qpca_sample_eigenvector_concentrates():
    M = np.diag([0.9, 0.1])
    rep = qpca.qpca_sample(
        M, np.array([1.0, 0.0]), bits=10, shots=4000,
        rng=stream(0, "qpca", "conc"),
    )
    assert rep.histogram[0.9] >= 0.99
    assert not rep.unresolved


def test_qpca_sample_superposition_splits_mass():
    M = np.diag([0.9, 0.1])
    x = np.array([1.0, 1.0]) / math.sqrt(2.0)
    shots = 10**4
    rep = qpca.qpca_sample(M, x, bits=10, shots=shots,
                           rng=stream(0, "qpca", "split"))
    sigma = math.sqrt(0.25 / shots)
    assert abs(rep.histogram[0.9] - 0.5) <= 3.0 * sigma + 0.01
    assert rep.lambda_measured <= 3.0 * sigma + 0.01


@pytest.mark.parametrize("size", [0.0, 1e-13])
def test_qpca_spectrum_of_zero_and_subthreshold_matrices(size):
    # no entry above the sparsity threshold: d_eff is 1, so the scale
    # 1 / (2 max_norm d_eff) stays finite
    spec = qpca.qpca_spectrum(size * np.eye(2), np.array([1.0, 0.0]), bits=8)
    assert spec.bins.tolist() == [0.0]
    rep = qpca.qpca_draw(spec, 100, stream(0, "qpca", "tiny"))
    assert rep.histogram == {0.0: 1.0}


def test_qpca_sample_rejects_bad_input():
    M = np.diag([0.5, -0.5])
    with pytest.raises(ValueError):
        qpca.qpca_sample(M, np.array([1.0, 1.0]))  # not unit norm


def test_qpca_sample_lcu_noisy_mode_runs():
    from aqml import lcu

    rng = stream(0, "qpca", "lcu")
    M = np.diag([0.8, 0.3, -0.2, -0.7])
    cfg = lcu.TaylorConfig(order=8, m_disc=10**5, eta=1e-3, delta=0.0,
                           n_trials=100)
    rep = qpca.qpca_sample(M, np.array([1.0, 0, 0, 0]), bits=10, shots=2000,
                           sim_mode="lcu-noisy", rng=rng, lcu_cfg=cfg)
    assert rep.norm_shift > 0.0
    assert rep.histogram[0.8] >= 0.95


def test_poisoning_alpha_zero_no_shift():
    rng = stream(0, "qpca", "p0")
    data = embedding.RawDataset(rng.uniform(-0.5, 0.5, (16, 3)), norm_bound=1.0)
    spec = embedding.ContaminationSpec(alpha=0.0, strategy="replace-prefix", seed=1)
    out = qpca.poisoning_experiment(data, spec, L=2.0)
    assert out["norm"] == pytest.approx(0.0, abs=1e-12)
    assert out["ok"]


def test_poisoning_bound_holds():
    rng = stream(0, "qpca", "pb")
    for seed in range(10):
        data = embedding.RawDataset(
            rng.uniform(-0.5, 0.5, (20, 2)), norm_bound=1.0
        )
        spec = embedding.ContaminationSpec(
            alpha=0.2, strategy="spike-direction", seed=seed
        )
        out = qpca.poisoning_experiment(data, spec, L=2.0)
        assert out["ok"], out
        assert out["bound"] == pytest.approx(5.0 * 0.2 * 2.0 * (out["d"] + 2))


def test_split_spectrum_and_projector_resolution():
    M = np.diag([0.8, 0.6, -0.5, -0.9])
    split = qpca.split_spectrum(M, plus_min=0.5, minus_max=-0.4)
    assert split.p_plus.shape[1] == 2
    assert split.p_minus.shape[1] == 2
    assert split.lam == pytest.approx(1.1)
    total = (
        split.projector("plus") + split.projector("minus") + split.projector("rest")
    )
    assert np.allclose(total, np.eye(4), atol=1e-12)


def test_projector_check_identity_perturbation():
    M = np.diag([0.8, -0.8])
    split = qpca.split_spectrum(M, plus_min=0.0, minus_max=0.0)
    out = qpca.projector_perturbation_check(
        M, M, split, probes=np.eye(2)
    )
    assert out["sigma"] == 0.0
    assert out["max_projector_shift"] <= 1e-14
    assert out["weyl_ok"]


def test_projector_check_small_perturbation():
    rng = stream(0, "qpca", "proj")
    M = np.diag([1.0, 0.5, -0.5, -1.0])
    split = qpca.split_spectrum(M, plus_min=0.4, minus_max=-0.4)
    E = rng.normal(size=(4, 4))
    E = (E + E.T) / 2
    sigma = split.lam / 100.0
    Mp = M + sigma * E / linalg.norm(E, "spectral")
    probes = unit_rows(rng, 20, 4)
    out = qpca.projector_perturbation_check(M, Mp, split, probes)
    assert out["projector_ok"]
    assert out["weyl_ok"]
    assert out["eig_first_order_ok"]


def test_eigenvalue_derivative_zero_case():
    # diag(1,-1) perturbed by sigma X: first-order eigenvalue response is 0
    M = np.diag([1.0, -1.0])
    sigma = 1e-3
    Mp = M + sigma * np.array([[0.0, 1.0], [1.0, 0.0]])
    split = qpca.split_spectrum(M, plus_min=0.0, minus_max=0.0)
    out = qpca.projector_perturbation_check(M, Mp, split, probes=np.eye(2))
    # exact shift is sqrt(1+sigma^2) - 1 ~ sigma^2/2, a pure second-order term
    assert out["eig_residual"] == pytest.approx(
        math.sqrt(1.0 + sigma**2) - 1.0, rel=1e-6
    )
    assert out["eig_first_order_ok"]


def test_weyl_bound_random_pairs():
    rng = stream(0, "qpca", "weyl")
    for trial in range(20):
        A = rng.normal(size=(5, 5))
        A = (A + A.T) / 2
        E = rng.normal(size=(5, 5))
        E = (E + E.T) / 2
        B = A + 0.1 * E
        ea = np.sort(np.linalg.eigvalsh(A))
        eb = np.sort(np.linalg.eigvalsh(B))
        assert np.max(np.abs(ea - eb)) <= linalg.norm(B - A, "spectral") + 1e-12

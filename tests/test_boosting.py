"""Reflection classifiers, eigenspace vs mean-expectation classification,
bootstrap training, and bounded-fraction adversary experiments."""

import math

import numpy as np
import pytest

from aqml import boosting, linalg
from aqml.util import stream


def two_reflections_spec():
    # normals along e1 and (e1+e2)/sqrt2: C has eigenvalues +-1/sqrt2
    c1 = boosting.WeakClassifier(np.array([1.0, 0.0]))
    c2 = boosting.WeakClassifier(np.array([1.0, 1.0]))
    return boosting.EnsembleSpec([c1, c2], np.array([0.5, 0.5]))


def test_classifier_operator_is_reflection():
    R = boosting.classifier_operator(boosting.WeakClassifier(np.array([3.0, 4.0])))
    assert np.allclose(R @ R, np.eye(2), atol=1e-12)
    assert np.allclose(R, R.T, atol=1e-12)
    vals = np.sort(np.linalg.eigvalsh(R))
    assert np.allclose(vals, [-1.0, 1.0], atol=1e-12)
    w = np.array([0.6, 0.8])
    assert np.allclose(R @ w, w, atol=1e-12)


def test_anticommuting_pair_eigenvalues():
    # equal weights on two reflections about normals at 45 degrees give
    # C = (R1 + R2)/2 with eigenvalues +-1/sqrt2
    C = boosting.ensemble_operator(two_reflections_spec())
    vals = np.sort(np.linalg.eigvalsh(C))
    assert vals[0] == pytest.approx(-1.0 / math.sqrt(2.0), abs=1e-12)
    assert vals[1] == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-12)


def test_ensemble_norm_at_most_one():
    rng = stream(0, "boost", "norm")
    for trial in range(10):
        n = int(rng.integers(2, 6))
        cls = [boosting.WeakClassifier(rng.normal(size=3)) for _ in range(n)]
        w = rng.random(n)
        spec = boosting.EnsembleSpec(cls, w / w.sum())
        C = boosting.ensemble_operator(spec)
        assert linalg.norm(C, "spectral") <= 1.0 + 1e-10


def test_weights_validation():
    c = [boosting.WeakClassifier(np.array([1.0, 0.0]))] * 2
    with pytest.raises(ValueError):
        boosting.EnsembleSpec(c, np.array([0.7, 0.2]))
    with pytest.raises(ValueError):
        boosting.EnsembleSpec(c, np.array([1.0, 0.0]))


def test_eigenspace_classification_on_eigenvectors():
    spec = two_reflections_spec()
    C = boosting.ensemble_operator(spec)
    dec = linalg.eig_hermitian(C)
    plus = dec.eigenvectors[:, np.argmax(dec.eigenvalues)]
    minus = dec.eigenvectors[:, np.argmin(dec.eigenvalues)]
    res_p = boosting.classify_by_eigenspace(plus, C, bits=10)
    res_m = boosting.classify_by_eigenspace(minus, C, bits=10)
    assert res_p.label == 1 and res_p.mass_plus >= 0.99
    assert res_m.label == -1 and res_m.mass_plus <= 0.01


def test_eigenspace_classification_sampled_mode():
    spec = two_reflections_spec()
    C = boosting.ensemble_operator(spec)
    dec = linalg.eig_hermitian(C)
    plus = dec.eigenvectors[:, np.argmax(dec.eigenvalues)]
    res = boosting.classify_by_eigenspace(
        plus, C, bits=10, shots=2000, rng=stream(0, "boost", "shot")
    )
    assert res.label == 1
    assert res.mass_plus >= 0.95


def test_classify_by_mean_matches_expectation_sign():
    spec = two_reflections_spec()
    res = boosting.classify_by_mean(np.array([1.0, 0.0]), spec)
    C = boosting.ensemble_operator(spec)
    expect = float(np.array([1.0, 0.0]) @ C @ np.array([1.0, 0.0]))
    assert res.label == (1 if expect > 0 else -1)
    assert res.confidence == pytest.approx(abs(expect))


def test_bootstrap_training_basics():
    rng = stream(0, "boost", "train")
    n = 80
    X = np.vstack([
        rng.normal(loc=1.0, scale=0.3, size=(n // 2, 2)),
        rng.normal(loc=-1.0, scale=0.3, size=(n // 2, 2)),
    ])
    y = np.array([1] * (n // 2) + [-1] * (n // 2))
    spec = boosting.train_bootstrap_ensemble(X, y, count=8, rng=rng)
    assert len(spec.classifiers) == 8
    assert len(spec.resample_indices) == 8
    assert spec.weights.sum() == pytest.approx(1.0)
    # bootstrap resamples exclude roughly a 1/e fraction of rows
    excluded = [1.0 - len(np.unique(idx)) / n for idx in spec.resample_indices]
    assert 0.25 <= float(np.mean(excluded)) <= 0.5


def test_bootstrap_single_member_duplicated():
    rng = stream(1, "boost", "single")
    X = rng.normal(size=(40, 2))
    y = np.array([1] * 20 + [-1] * 20)
    spec = boosting.train_bootstrap_ensemble(X, y, count=1, rng=rng)
    assert len(spec.classifiers) == 2
    assert np.allclose(spec.classifiers[0].w, spec.classifiers[1].w)


def test_attack_alpha_zero_is_identity():
    spec = two_reflections_spec()
    rep = boosting.attack_ensemble(spec, boosting.AttackSpec(alpha=0.0))
    assert rep.norm_shift == pytest.approx(0.0, abs=1e-14)
    assert rep.alpha_used == 0.0


def test_attack_one_of_three_exact_shift():
    # flipping one of three equal-weight classifiers shifts the operator by
    # exactly 2/3 in spectral norm
    cls = [
        boosting.WeakClassifier(np.array([1.0, 0.0, 0.0])),
        boosting.WeakClassifier(np.array([0.0, 1.0, 0.0])),
        boosting.WeakClassifier(np.array([0.0, 0.0, 1.0])),
    ]
    spec = boosting.EnsembleSpec(cls, np.full(3, 1.0 / 3.0))
    attack = boosting.AttackSpec(alpha=1.0 / 3.0, strategy="replace-target",
                                 target_indices=(0,))
    rep = boosting.attack_ensemble(spec, attack)
    assert rep.norm_shift == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert rep.alpha_used == pytest.approx(1.0 / 3.0)


def test_attack_eig_shifts_bounded():
    rng = stream(0, "boost", "atk")
    for trial in range(30):
        n = int(rng.integers(3, 8))
        cls = [boosting.WeakClassifier(rng.normal(size=4)) for _ in range(n)]
        spec = boosting.EnsembleSpec(cls, np.full(n, 1.0 / n))
        alpha = float(rng.choice([0.1, 0.2, 0.3]))
        rep = boosting.attack_ensemble(spec, boosting.AttackSpec(alpha=alpha))
        assert rep.norm_shift <= 2.0 * rep.alpha_used + 1e-10
        assert rep.eig_shift_max <= 2.0 * rep.alpha_used + 1e-10


def test_attack_custom_replacement_validated():
    spec = two_reflections_spec()
    bad = np.array([[1.0, 0.5], [0.0, 1.0]])
    attack = boosting.AttackSpec(alpha=0.5, strategy="custom",
                                 target_indices=(0,), replacements=(bad,))
    with pytest.raises(ValueError):
        boosting.attack_ensemble(spec, attack)


def test_attack_unknown_strategy_rejected():
    # on two_reflections_spec() no weight of 1/2 fits alpha = 0.4, so the
    # attack loop never reads the strategy; the spec itself must reject it
    with pytest.raises(ValueError, match="unknown attack strategy"):
        boosting.AttackSpec(alpha=0.4, strategy="bogus")


def test_eigenspace_stable_under_small_attack():
    # with gap gamma and alpha < gamma/4 the eigenspace decision on a
    # simultaneous eigenvector cannot flip
    cls = [
        boosting.WeakClassifier(np.array([1.0, 0.0])),
        boosting.WeakClassifier(np.array([1.0, 0.0])),
        boosting.WeakClassifier(np.array([1.0, 0.0])),
        boosting.WeakClassifier(np.array([0.0, 1.0])),
    ]
    spec = boosting.EnsembleSpec(cls, np.full(4, 0.25))
    C = boosting.ensemble_operator(spec)
    gamma = 2.0 * float(np.min(np.abs(np.linalg.eigvalsh(C))))
    psi = np.array([1.0, 0.0])
    clean = boosting.classify_by_eigenspace(psi, C, bits=10)
    alpha = gamma / 4.0 - 0.05
    assert alpha > 0
    rep = boosting.attack_ensemble(
        spec, boosting.AttackSpec(alpha=alpha, strategy="replace-target",
                                  target_indices=(3,))
    )
    attacked = boosting.classify_by_eigenspace(psi, rep.operator, bits=10)
    assert attacked.label == clean.label


def test_mean_attack_flips_sign():
    # honest expectations are +1/(2N); a single flipped member drives the
    # ensemble expectation negative, so mean classification always flips
    for n in (2, 5, 10, 25):
        out = boosting.mean_attack_construction(n)
        assert out["clean_class"] == 1
        assert out["honest_expectation"] == pytest.approx(1.0 / (2.0 * n))
        assert out["attacked_expectation"] < 0.0


def test_ambient_dim_embedding():
    c = boosting.WeakClassifier(np.array([1.0]))
    R = boosting.classifier_operator(c, ambient_dim=3)
    assert R.shape == (3, 3)
    assert np.allclose(np.linalg.eigvalsh(R), [-1.0, -1.0, 1.0], atol=1e-12)
    with pytest.raises(ValueError):
        boosting.classifier_operator(boosting.WeakClassifier(np.ones(4)), 3)

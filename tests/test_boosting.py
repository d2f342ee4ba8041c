"""Reflection classifiers, eigenspace vs mean-expectation classification,
bootstrap training, and bounded-fraction adversary experiments."""

import copy
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aqml import boosting, linalg
from aqml.util import stream


def two_reflections_spec():
    # normals along e1 and (e1+e2)/sqrt2: C has eigenvalues +-1/sqrt2
    normals = np.array([[1.0, 0.0], [1.0, 1.0]])
    return boosting.EnsembleSpec(normals, np.array([0.5, 0.5]))


def reflection_sum_loop(normals, weights):
    """Reference: sum_j b_j (2 w_hat_j w_hat_j^T - I), one classifier at a time."""
    m = normals.shape[1]
    C = np.zeros((m, m))
    for w, b in zip(normals, weights):
        w_hat = w / np.linalg.norm(w)
        C += b * (2.0 * np.outer(w_hat, w_hat) - np.eye(m))
    return C


def flip_set_loop(weights, alpha, targets=()):
    """Reference for `boosting._flip_set`: walk the classifiers heaviest
    first, or in `targets` order, one at a time, negating each whose weight
    is positive, that is not negated yet and that still fits in alpha."""
    flipped = np.zeros(len(weights), dtype=bool)
    used = 0.0
    for j in targets or np.argsort(-weights):
        b = float(weights[j])
        if b <= 0 or flipped[j] or used + b > alpha + 1e-12:
            continue
        flipped[j] = True
        used += b
    return flipped, used


def flip_attack_loop(normals, weights, alpha, targets=()):
    """Reference flip attack: negate classifiers heaviest first, or in
    `targets` order, while their weight still fits in alpha; each classifier
    is negated at most once. Then sum the signed reflections."""
    flipped, used = flip_set_loop(weights, alpha, targets)
    signs = np.where(flipped, -1.0, 1.0)
    return reflection_sum_loop(normals, signs * weights), used


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 400),
    kind=st.sampled_from(["uniform", "random", "few-values", "geometric", "signed"]),
    zero_frac=st.sampled_from([0.0, 0.2, 0.9]),
    targeted=st.booleans(),
    alpha=st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0)),
)
def test_flip_set_matches_the_loop(seed, n, kind, zero_frac, targeted, alpha):
    # ties, zero and negative weights, repeated and negative target indices
    rng = np.random.default_rng(seed)
    w = {
        "uniform": np.ones(n),
        "random": rng.random(n),
        "few-values": rng.integers(1, 4, n).astype(np.float64),
        "geometric": 0.5 ** rng.integers(0, 30, n),
        "signed": rng.uniform(-1.0, 1.0, n),
    }[kind]
    w[rng.random(n) < zero_frac] = 0.0
    total = np.abs(w).sum()
    w = w / total if total > 0 else w
    targets = tuple(rng.integers(-n, n, rng.integers(1, 2 * n + 1))) if targeted else ()
    flipped, used = boosting._flip_set(w, alpha, targets)
    flipped_ref, used_ref = flip_set_loop(w, alpha, targets)
    assert np.array_equal(flipped, flipped_ref)
    assert used == used_ref


@st.composite
def weighted_ensembles(draw):
    """Each normal repeats one of three base rows, sits 1e-9 from one
    (near-parallel), or is fresh; weights are random or uniform (ties), with
    some zeros but at least two positive. Attack targets may repeat."""
    n = draw(st.integers(2, 12))
    m = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    base = rng.standard_normal((3, m))
    rows = []
    for kind in draw(st.lists(st.sampled_from(["repeat", "near", "fresh"]),
                              min_size=n, max_size=n)):
        b = base[rng.integers(3)]
        if kind == "repeat":
            rows.append(b)
        elif kind == "near":
            rows.append(b + 1e-9 * rng.standard_normal(m))
        else:
            rows.append(rng.standard_normal(m))
    w = np.ones(n) if draw(st.booleans()) else rng.random(n)
    zeros = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    w[2:][np.array(zeros[2:], dtype=bool)] = 0.0
    targets = tuple(draw(st.lists(st.integers(0, n - 1), max_size=2 * n)))
    return np.array(rows), w / w.sum(), targets


@settings(max_examples=200, deadline=None)
@given(weighted_ensembles(), st.floats(0.0, 1.0, exclude_max=True))
def test_operators_match_per_classifier_loop(ensemble, alpha):
    normals, weights, targets = ensemble
    spec = boosting.EnsembleSpec(normals, weights)
    C = boosting.ensemble_operator(spec)
    assert np.max(np.abs(C - reflection_sum_loop(normals, weights))) <= 1e-12
    Cp_ref, used_ref = flip_attack_loop(normals, weights, alpha, targets)
    rep = boosting.attack_ensemble(
        spec, boosting.AttackSpec(alpha=alpha, target_indices=targets)
    )
    assert np.max(np.abs(rep.operator - Cp_ref)) <= 1e-12
    assert rep.alpha_used == used_ref


def test_classifier_operator_is_reflection():
    R = boosting.classifier_operator(np.array([3.0, 4.0]))
    assert np.allclose(R @ R, np.eye(2), atol=1e-12)
    assert np.allclose(R, R.T, atol=1e-12)
    vals = np.sort(np.linalg.eigvalsh(R))
    assert np.allclose(vals, [-1.0, 1.0], atol=1e-12)
    w = np.array([0.6, 0.8])
    assert np.allclose(R @ w, w, atol=1e-12)
    with pytest.raises(ValueError):
        boosting.classifier_operator(np.zeros(2))


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
        normals = rng.normal(size=(n, 3))
        w = rng.random(n)
        spec = boosting.EnsembleSpec(normals, w / w.sum())
        C = boosting.ensemble_operator(spec)
        assert linalg.norm(C) <= 1.0 + 1e-10


def test_weights_validation():
    c = np.array([[1.0, 0.0], [1.0, 0.0]])
    for normals, weights in [
        (c, [0.7, 0.2]),
        (c, [1.0, 0.0]),
        ([[1.0, 0.0], [0.0, 0.0]], [0.5, 0.5]),  # a zero normal
        ([1.0, 0.0], [0.5, 0.5]),  # 1-D normals
        ([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]], [0.5, 0.5]),  # 3 rows, 2 weights
    ]:
        with pytest.raises(ValueError):
            boosting.EnsembleSpec(np.array(normals), np.array(weights))


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


def test_classify_by_mean_matches_expectation_sign():
    spec = two_reflections_spec()
    C = boosting.ensemble_operator(spec)
    res = boosting.classify_by_mean(np.array([1.0, 0.0]), C)
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
    replay = copy.deepcopy(rng)
    spec, C, dec = boosting.train_bootstrap_ensemble(X, y, count=8, rng=rng)
    assert spec.normals.shape == (8, 3)
    assert spec.weights.sum() == pytest.approx(1.0)
    # the returned operator and decomposition are the spec's
    assert np.array_equal(C, boosting.ensemble_operator(spec))
    own = linalg.eig_hermitian(C)
    assert np.array_equal(dec.eigenvalues, own.eigenvalues)
    assert np.array_equal(dec.eigenvectors, own.eigenvectors)
    excluded = []
    for row in spec.normals:
        idx = replay.integers(0, n, size=n)
        assert len(np.unique(y[idx])) == 2  # no redraw, so the replay stays in step
        mu_plus = X[idx][y[idx] == 1].mean(axis=0)
        mu_minus = X[idx][y[idx] == -1].mean(axis=0)
        w = mu_plus - mu_minus
        lifted = np.concatenate([w, [-float(w @ (mu_plus + mu_minus)) / 2.0]])
        np.testing.assert_allclose(row, lifted, rtol=1e-12, atol=1e-15)
        excluded.append(1.0 - len(np.unique(idx)) / n)
    assert replay.bit_generator.state == rng.bit_generator.state
    # bootstrap resamples exclude roughly a 1/e fraction of rows
    assert 0.25 <= float(np.mean(excluded)) <= 0.5


def bootstrap_loop(X, y, count, rng):
    """Reference: one size-n draw per resample, redrawn while single-class,
    and the class means of the selected rows."""
    n = len(X)
    normals = np.empty((count, X.shape[1] + 1))
    for i in range(count):
        while True:
            idx = rng.integers(0, n, size=n)
            ys = y[idx]
            if len(np.unique(ys)) == 2:
                break
        Xs = X[idx]
        mu_plus = Xs[ys == np.max(ys)].mean(axis=0)
        mu_minus = Xs[ys == np.min(ys)].mean(axis=0)
        w = mu_plus - mu_minus
        normals[i, :-1] = w
        normals[i, -1] = -float(w @ (mu_plus + mu_minus)) / 2.0
    return normals


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(2, 30),
    dim=st.integers(1, 6),
    count=st.integers(2, 60),
    labels=st.sampled_from([(-1, 1), (0, 1), (7, 3)]),
    batch_values=st.sampled_from([1, 50, 2**20]),
    seed=st.integers(0, 2**32 - 1),
)
def test_batched_bootstrap_matches_per_resample_draws(
    n, dim, count, labels, batch_values, seed
):
    # small n makes single-class resamples (redraws) common; a small batch
    # budget splits the draw into many calls
    data = np.random.default_rng([seed, 0])
    X = data.normal(size=(n, dim)) * 10.0 ** data.uniform(-2, 2, size=(n, 1))
    y = np.array([labels[0], labels[1]] + list(data.choice(labels, n - 2)))
    ref_rng, rng = np.random.default_rng(seed), np.random.default_rng(seed)
    want = bootstrap_loop(X, y, count, ref_rng)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(boosting, "_BOOTSTRAP_BATCH_VALUES", batch_values)
        spec = boosting.train_bootstrap_ensemble(X, y, count, rng)[0]
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    if dim > 1:
        # the per-resample mean of a (rows, dim) block adds rows in order
        assert np.array_equal(spec.normals, want)
    else:
        # numpy sums a single column pairwise, so the last digits may differ
        np.testing.assert_allclose(spec.normals, want, rtol=1e-12, atol=1e-300)


def test_attack_reuses_the_callers_operator_and_eigenvalues():
    rng = stream(0, "boost", "reuse")
    spec = boosting.EnsembleSpec(rng.normal(size=(7, 4)), np.full(7, 1.0 / 7.0))
    C = boosting.ensemble_operator(spec)
    dec = linalg.eig_hermitian(C)
    psi = rng.normal(size=4)
    psi /= np.linalg.norm(psi)
    for alpha in (0.0, 0.2, 0.45):
        attack = boosting.AttackSpec(alpha=alpha)
        own = boosting.attack_ensemble(spec, attack)
        reused = boosting.attack_ensemble(spec, attack, C, dec.eigenvalues)
        assert np.array_equal(own.operator, reused.operator)
        assert (own.norm_shift, own.eig_shift_max) == (reused.norm_shift,
                                                      reused.eig_shift_max)
        # the report's decomposition is the one the classifier would take
        from_operator = boosting.classify_by_eigenspace(psi, own.operator)
        from_decomposition = boosting.classify_by_eigenspace(psi, own.decomposition)
        assert from_operator == from_decomposition
    assert boosting.classify_by_eigenspace(psi, C) == boosting.classify_by_eigenspace(psi, dec)


def test_bootstrap_single_member_duplicated():
    rng = stream(1, "boost", "single")
    X = rng.normal(size=(40, 2))
    y = np.array([1] * 20 + [-1] * 20)
    spec = boosting.train_bootstrap_ensemble(X, y, count=1, rng=rng)[0]
    assert spec.normals.shape == (2, 3)
    assert np.allclose(spec.normals[0], spec.normals[1])


def test_attack_alpha_zero_is_identity():
    spec = two_reflections_spec()
    rep = boosting.attack_ensemble(spec, boosting.AttackSpec(alpha=0.0))
    assert rep.norm_shift == pytest.approx(0.0, abs=1e-14)
    assert rep.alpha_used == 0.0


def test_attack_one_of_three_exact_shift():
    # flipping one of three equal-weight classifiers shifts the operator by
    # exactly 2/3 in spectral norm
    spec = boosting.EnsembleSpec(np.eye(3), np.full(3, 1.0 / 3.0))
    attack = boosting.AttackSpec(alpha=1.0 / 3.0, target_indices=(0,))
    rep = boosting.attack_ensemble(spec, attack)
    assert rep.norm_shift == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert rep.alpha_used == pytest.approx(1.0 / 3.0)


def test_attack_eig_shifts_bounded():
    rng = stream(0, "boost", "atk")
    for trial in range(30):
        n = int(rng.integers(3, 8))
        spec = boosting.EnsembleSpec(rng.normal(size=(n, 4)), np.full(n, 1.0 / n))
        alpha = float(rng.choice([0.1, 0.2, 0.3]))
        rep = boosting.attack_ensemble(spec, boosting.AttackSpec(alpha=alpha))
        assert rep.norm_shift <= 2.0 * rep.alpha_used + 1e-10
        assert rep.eig_shift_max <= 2.0 * rep.alpha_used + 1e-10


def test_eigenspace_stable_under_small_attack():
    # with gap gamma and alpha < gamma/4 the eigenspace decision on a
    # simultaneous eigenvector cannot flip
    normals = np.array([[1.0, 0.0], [1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    spec = boosting.EnsembleSpec(normals, np.full(4, 0.25))
    C = boosting.ensemble_operator(spec)
    gamma = 2.0 * float(np.min(np.abs(np.linalg.eigvalsh(C))))
    psi = np.array([1.0, 0.0])
    clean = boosting.classify_by_eigenspace(psi, C, bits=10)
    alpha = gamma / 4.0 - 0.05
    assert alpha > 0
    rep = boosting.attack_ensemble(
        spec, boosting.AttackSpec(alpha=alpha, target_indices=(3,))
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


"""Fast cross-module invariant suite: one self-contained check per core
guarantee, used by the `verify` CLI subcommand and by CI as a smoke gate."""

from __future__ import annotations

import numpy as np

from . import boosting, embedding, kmeans, lcu, linalg, median_oracle, qpca, statevec
from .util import stream


def _check_embedding_isometry(rng):
    raw = embedding.RawDataset(rng.uniform(-1, 1, (12, 5)) * 0.5, norm_bound=1.0)
    unit = embedding.embed(raw)
    ips = unit.dagger_vectors @ unit.vectors.T
    exact = raw.vectors @ raw.vectors.T / raw.norm_bound**2
    err = float(np.max(np.abs(ips - exact)))
    return err <= 1e-10, f"max inner-product error {err:.2e}"


def _check_hadamard_test(rng):
    vecs = rng.standard_normal((6, 8))
    vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
    worst = 0.0
    for j in range(6):
        for k in range(8):
            p0 = statevec.hadamard_test(vecs, j, k)
            worst = max(worst, abs(p0 - (1.0 + vecs[j, k]) / 2.0))
    return worst <= 1e-10, f"max probability error {worst:.2e}"


def _check_median_budget(rng):
    ok = (
        median_oracle.iteration_budget(0.1, 0.02) == 4
        and median_oracle.iteration_budget(0.05, 0.01) == 6
    )
    return ok, "iteration budgets 4 and 6 at the reference settings"


def _check_binary_search(rng):
    samples = rng.uniform(-1.0, 1.0, 4001)
    cfg = median_oracle.MedianSearchConfig(epsilon=0.05, epsilon_prime=0.01, lipschitz=2.0)
    res = median_oracle.binary_search_median(median_oracle.exact_cdf_oracle(samples), cfg)
    err = abs(res.value - float(np.median(samples)))
    tol = 2.0 * (2.0 ** (-cfg.p_max - 1) + (cfg.epsilon_prime + 2.0 * cfg.epsilon0) * (1 - 2.0 ** (-cfg.p_max)))
    return err <= tol, f"median error {err:.4f} vs budget {tol:.4f}"


def _check_one_sparse(rng):
    A = rng.uniform(-0.3, 0.3, (10, 10))
    A = (A + A.T) / 2
    terms = lcu.one_sparse_decompose(A)
    recon = float(np.max(np.abs(np.sum(terms, axis=0) - A)))
    norms_ok = all(
        abs(linalg.norm(t) - np.max(np.abs(t))) <= 1e-10 for t in terms
    )
    return recon <= 1e-14 and norms_ok, (
        f"reconstruction error {recon:.1e}; one-sparse norm = max entry: {norms_ok}"
    )


def _check_taylor(rng):
    A = rng.uniform(-0.2, 0.2, (8, 8))
    A = (A + A.T) / 2
    S, _ = lcu.taylor_segment(A, 1.0, 14)
    err = linalg.norm(S - np.array(linalg.operator_exp(A, 1.0)))
    bound = max(lcu.taylor_remainder_bound(linalg.norm(A), 1.0, 14), 1e-12)
    return err <= bound, f"truncation error {err:.2e} vs bound {bound:.2e}"


def _check_reflections(rng):
    worst = 0.0
    for w in rng.standard_normal((20, 6)):
        R = boosting.classifier_operator(w)
        worst = max(worst, float(np.max(np.abs(R @ R - np.eye(6)))))
    return worst <= 1e-10, f"max ||R^2 - I|| entry {worst:.1e}"


def _check_attack_bound(rng):
    spec = boosting.EnsembleSpec(rng.standard_normal((5, 5)), np.full(5, 0.2))
    rep = boosting.attack_ensemble(spec, boosting.AttackSpec(alpha=0.4))
    ok = rep.eig_shift_max <= 2 * rep.alpha_used + 1e-10
    return ok, f"eig shift {rep.eig_shift_max:.3f} <= 2 alpha = {2*rep.alpha_used:.3f}"


def _check_ghz(rng):
    th = rng.uniform(-0.1, 0.1, 8)
    a = kmeans.ghz_phase_channel(th, 2)
    b = kmeans.ghz_phase_statevector(th, 2)
    return abs(a - b) <= 1e-12, f"scalar vs state-vector gap {abs(a-b):.1e}"


def _check_privacy(rng):
    rep = kmeans.privacy_analysis(kmeans.RotationBudget(4, 6), 100)
    ok = abs(rep.p_opt_exact - rep.p_opt_closed_form) <= 1e-9
    ok = ok and rep.p_opt_exact - 0.5 <= rep.bound + 1e-12
    return ok, f"p_opt {rep.p_opt_exact:.6f}, bound 1/2 + {rep.bound:.4f}"


def _check_weyl(rng):
    A = rng.standard_normal((8, 8))
    A = (A + A.T) / 2
    P = rng.standard_normal((8, 8))
    P = (P + P.T) / 2 * 0.1
    shift = float(np.max(np.abs(np.linalg.eigvalsh(A) - np.linalg.eigvalsh(A + P))))
    return shift <= linalg.norm(P) + 1e-12, (
        f"max eigenvalue shift {shift:.4f} <= perturbation norm"
    )


def _check_poisoning(rng):
    raw = embedding.RawDataset(rng.uniform(-0.5, 0.5, (20, 4)), norm_bound=1.0)
    spec = embedding.ContaminationSpec(
        alpha=0.2, strategy="spike-direction", spike_direction=np.eye(4)[0], seed=3
    )
    out = qpca.poisoning_experiment(raw, spec, L=2.0)
    return out["ok"], f"norm {out['norm']:.3f} <= bound {out['bound']:.3f}"


CHECKS = [
    ("embedding-isometry", _check_embedding_isometry),
    ("hadamard-test", _check_hadamard_test),
    ("median-iteration-budget", _check_median_budget),
    ("binary-search-median", _check_binary_search),
    ("one-sparse-decomposition", _check_one_sparse),
    ("taylor-truncation", _check_taylor),
    ("classifier-reflections", _check_reflections),
    ("attack-eigenvalue-bound", _check_attack_bound),
    ("ghz-phase-equivalence", _check_ghz),
    ("privacy-closed-form", _check_privacy),
    ("weyl-stability", _check_weyl),
    ("poisoning-bound", _check_poisoning),
]


def run_all(seed: int = 0) -> list:
    results = []
    for name, fn in CHECKS:
        rng = stream(seed, "verify", name)
        try:
            ok, detail = fn(rng)
        except Exception as exc:  # a crash is a failure with the reason shown
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append((name, bool(ok), detail))
    return results


def format_table(results) -> str:
    width = max(len(name) for name, _, _ in results)
    lines = []
    for name, ok, detail in results:
        lines.append(f"{name.ljust(width)}  {'PASS' if ok else 'FAIL'}  {detail}")
    n_ok = sum(1 for _, ok, _ in results if ok)
    lines.append(f"{n_ok}/{len(results)} checks passed")
    return "\n".join(lines)

"""End-to-end acceptance suite.

Each test verifies one numbered guarantee of the toolkit at its stated
tolerance and prints a single [PASS]/[FAIL] line (visible with pytest -s
or in captured output).  Tolerances are pinned here on purpose; loosening
them is a behavior change, not a test fix.
"""

import json
import math
import os
import time

import numpy as np
import pytest

from aqml import (
    boosting,
    cli,
    embedding,
    kmeans,
    lcu,
    linalg,
    median_oracle as mo,
    qpca,
    statevec,
)
from aqml.util import QueryCounter, stream


def _report(num: int, name: str, ok: bool, detail: str = ""):
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{tag}] criterion {num:02d}: {name}{suffix}")
    assert ok, f"criterion {num:02d} {name}: {detail}"


def random_sparse_symmetric(rng, dim, d):
    A = np.zeros((dim, dim))
    for i in range(dim):
        cols = rng.choice(dim, size=d, replace=False)
        for j in cols:
            v = rng.uniform(-1, 1)
            A[i, j] = v
            A[j, i] = v
    for i in range(dim):
        nz = np.flatnonzero(A[i])
        while len(nz) > d:
            j = nz[-1]
            A[i, j] = 0.0
            A[j, i] = 0.0
            nz = np.flatnonzero(A[i])
    m = np.abs(A).max()
    return A / m if m > 1 else A


def test_criterion_01_embedding_isometry():
    rng = stream(0, "acc", "c1")
    t0 = time.time()
    worst = 0.0
    for trial in range(1000):
        dim = int(rng.integers(1, 17))
        nv = int(rng.integers(2, 33))
        R = float(rng.uniform(0.5, 4.0))
        vecs = rng.uniform(-1.0, 1.0, (nv, dim))
        norms = np.linalg.norm(vecs, axis=1)
        vecs *= (R * rng.uniform(0.05, 1.0, nv) / np.maximum(norms, 1e-12))[:, None]
        unit = embedding.embed(embedding.RawDataset(vecs, norm_bound=R))
        gram = unit.dagger_vectors @ unit.vectors.T
        target = vecs @ vecs.T / R**2
        worst = max(worst, float(np.max(np.abs(gram - target))))
    elapsed = time.time() - t0
    ok = worst <= 1e-10 and elapsed < 5.0
    _report(1, "embedding isometry", ok,
            f"max deviation {worst:.2e}, {elapsed:.2f}s")


def test_criterion_02_hadamard_test():
    rng = stream(0, "acc", "c2")
    t0 = time.time()
    worst = 0.0
    for trial in range(200):
        dim = int(rng.integers(2, 9))
        v = rng.normal(size=(3, dim))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        j = int(rng.integers(0, 3))
        k = int(rng.integers(0, dim))
        p0 = statevec.hadamard_test(v, j, k)
        worst = max(worst, abs(p0 - (1.0 + v[j, k]) / 2.0))
    elapsed = time.time() - t0
    ok = worst <= 1e-10 and elapsed < 10.0
    _report(2, "circuit-level overlap readout", ok,
            f"max deviation {worst:.2e}, {elapsed:.2f}s")


def test_criterion_03_median_stability():
    rng = stream(0, "acc", "c3")
    families = [embedding.uniform_dist(), embedding.sine_dist(),
                embedding.cubic_dist()]
    ok = True
    worst = ""
    for dist in families:
        for alpha in (0.05, 0.1, 0.2):
            out = embedding.median_stability_check(
                dist, alpha, trials=100, n_samples=10**5, rng=rng
            )
            if not out["ok"]:
                ok = False
                worst = (f"{dist.name} alpha={alpha}: shift {out['max_shift']:.4f}"
                         f" > {out['bound'] + out['slack']:.4f}")
    _report(3, "median shift bounded by alpha L plus sampling slack", ok, worst)


def test_criterion_04_binary_search_median():
    rng = stream(0, "acc", "c4")
    # exact-oracle closed form, every iteration depth
    cfg = mo.MedianSearchConfig(epsilon=0.05, epsilon_prime=0.01, lipschitz=2.0)
    widen = cfg.epsilon_prime + cfg.lipschitz * cfg.epsilon0
    closed_ok = True
    for trial in range(200):
        vals = np.sort(rng.uniform(-1, 1, 999))
        med = float(np.median(vals))
        res = mo.binary_search_median(mo.exact_cdf_oracle(vals), cfg)
        for p in range(1, cfg.p_max + 1):
            est = res.trace[p][0] if p < cfg.p_max else (res.value + 1.0) / 2.0
            err = abs((-1.0 + 2.0 * est) - med) / 2.0
            if err > 2.0 ** (-p - 1) + widen * (1.0 - 2.0**-p) + 1e-9:
                closed_ok = False

    # noisy oracle failure accounting at delta0 = 0.01 over 1e4 runs
    ncfg = mo.MedianSearchConfig(epsilon=0.05, epsilon_prime=0.01, delta0=0.01,
                                 lipschitz=2.0)
    tol = 2.0 * (2.0 ** (-ncfg.p_max - 1) + widen * (1.0 - 2.0**-ncfg.p_max))
    vals = np.sort(stream(1, "acc", "c4").uniform(-1, 1, 4001))
    med = float(np.median(vals))
    runs, fails = 10**4, 0
    for _ in range(runs):
        oracle = mo.noisy_cdf_oracle(vals, ncfg, rng)
        res = mo.binary_search_median(oracle, ncfg)
        if abs(res.value - med) > tol + 1e-9:
            fails += 1
    budget = ncfg.p_max * ncfg.delta0
    sigma = math.sqrt(budget * (1.0 - budget) / runs)
    fail_ok = fails / runs <= budget + 3.0 * sigma

    # iteration budget formula on a 20-point grid, evaluated independently
    grid_ok = True
    for eps in np.linspace(0.02, 0.24, 20):
        for eps_p in (0.0, eps / 8.0):
            expect = (1.0 - 4.0 * eps) / (2.0 * (eps - 4.0 * eps_p))
            expect = 0 if expect <= 1.0 else math.ceil(math.log(expect) / math.log(2.0))
            if mo.iteration_budget(float(eps), float(eps_p)) != expect:
                grid_ok = False
    ok = closed_ok and fail_ok and grid_ok
    _report(4, "binary-search median error and failure accounting", ok,
            f"closed-form {closed_ok}, failures {fails}/{runs} "
            f"(budget {budget + 3 * sigma:.4f}), grid {grid_ok}")


def test_criterion_05_one_sparse_machinery():
    rng = stream(0, "acc", "c5")
    recon_ok = True
    for trial in range(50):
        A = random_sparse_symmetric(rng, 16, int(rng.integers(1, 5)))
        terms = lcu.one_sparse_decompose(A)
        if np.abs(np.sum(terms, axis=0) - A).max() > 1e-12:
            recon_ok = False

    norm_ok = True
    for trial in range(500):
        A = random_sparse_symmetric(rng, 8, 3)
        terms = lcu.one_sparse_decompose(A)
        t = terms[int(rng.integers(0, len(terms)))]
        if abs(linalg.norm(t) - np.abs(t).max()) > 1e-12:
            norm_ok = False

    diff_ok = True
    d2_checked = 0
    for trial in range(200):
        d = int(rng.integers(1, 4))
        A = random_sparse_symmetric(rng, 12, d)
        B = random_sparse_symmetric(rng, 12, d)
        diff = A - B
        layers = len(lcu.one_sparse_decompose(diff))
        max_entry = float(np.abs(diff).max())
        spectral = linalg.norm(diff)
        if spectral > layers * max_entry + 1e-12:
            diff_ok = False
        d_diff = int(np.max(np.sum(np.abs(diff) > 1e-12, axis=1)))
        if layers <= d_diff + 2:
            d2_checked += 1
            if spectral > (d_diff + 2) * max_entry + 1e-12:
                diff_ok = False
    ok = recon_ok and norm_ok and diff_ok
    _report(5, "one-sparse decomposition and norm bounds", ok,
            f"reconstruct {recon_ok}, norms {norm_ok}, "
            f"difference bounds {diff_ok} ({d2_checked} d+2 cases)")


def test_criterion_06_noisy_lcu_grid():
    t0 = time.time()
    noise_grid = [0.0, 1e-3, 1e-2]
    instances = [(8, 2), (16, 3)]
    fitted_c = 0.0
    worst_cell = ""
    noiseless_ok = True
    for dim, d in instances:
        for eta in noise_grid:
            for delta in noise_grid:
                if eta == 0.0 and delta == 0.0:
                    # deterministic cell: check the analytic truncation bound
                    rng = stream(0, "acc", "c6", str(dim))
                    A = random_sparse_symmetric(rng, dim, d)
                    cfg = lcu.TaylorConfig(order=8, m_disc=10**4, n_trials=1,
                                           time=0.5)
                    rep = lcu.simulate_noisy(A, cfg, rng)
                    exact = linalg.operator_exp(A, 0.5)
                    h = linalg.norm(A)
                    trunc = rep.segments * lcu.taylor_remainder_bound(
                        h, 0.5 / rep.segments, cfg.order
                    )
                    disc = dim**2 / cfg.m_disc * rep.segments
                    err = linalg.norm(rep.effective_channel - exact)
                    if err > trunc + disc + 1e-10:
                        noiseless_ok = False
                    continue
                devs, scales = [], []
                for seed in range(100):
                    rng = stream(seed, "acc", "c6", str(dim), str(eta), str(delta))
                    A = random_sparse_symmetric(rng, dim, d)
                    cfg = lcu.TaylorConfig(order=6, m_disc=10**4, eta=eta,
                                           delta=delta, n_trials=400,
                                           failure_mode="worst-case", time=0.5)
                    rep = lcu.simulate_noisy(A, cfg, rng)
                    devs.append(rep.deviation_spectral)
                    scales.append(rep.bound_scale)
                c_cell = float(np.mean(devs) / np.mean(scales))
                if c_cell > fitted_c:
                    fitted_c = c_cell
                    worst_cell = f"dim={dim} eta={eta} delta={delta}"
    elapsed = time.time() - t0
    ok = fitted_c <= 4.0 and noiseless_ok and elapsed < 600.0
    _report(6, "noisy-oracle evolution tracks the average generator", ok,
            f"fitted c {fitted_c:.2f} at {worst_cell}, noiseless {noiseless_ok}, "
            f"{elapsed:.0f}s")


def _gapped_instance(rng):
    """8x8 instance with eigenvalues +-0.25, +-0.75 (multiplicity 2 each)."""
    evals = np.array([-0.75, -0.75, -0.25, -0.25, 0.25, 0.25, 0.75, 0.75])
    V, _ = np.linalg.qr(rng.normal(size=(8, 8)))
    M = V @ np.diag(evals) @ V.T
    a = rng.uniform(0.3, 1.0, 8) * rng.choice([-1.0, 1.0], 8)
    a /= np.linalg.norm(a)
    return M, V @ a


def test_criterion_07_qpca_sampling():
    shots = 10**4
    leak = 0.005  # spectral-leakage slack of the finite phase grid
    exact_ok = True
    worst = 0.0
    for seed in range(10):
        rng = stream(seed, "acc", "c7")
        M, x = _gapped_instance(rng)
        rep = qpca.qpca_sample(M, x, bits=16, shots=shots,
                               rng=stream(seed, "acc", "c7s"))
        for v, mass in rep.histogram.items():
            p = rep.overlaps[v]
            sigma = math.sqrt(max(p * (1.0 - p), 0.25 / shots) / shots)
            dev = abs(mass - p)
            worst = max(worst, dev - 3.0 * sigma)
            if dev > 3.0 * sigma + leak:
                exact_ok = False

    noisy_ok = True
    lam = 0.5  # spacing between adjacent bands of the constructed spectrum
    for seed in range(5):
        rng = stream(seed, "acc", "c7n")
        M, x = _gapped_instance(rng)
        cfg = lcu.TaylorConfig(order=8, m_disc=10**4, eta=1e-3, delta=0.0,
                               n_trials=300)
        rep = qpca.qpca_sample(M, x, bits=12, shots=shots, sim_mode="lcu-noisy",
                               rng=stream(seed, "acc", "c7ns"), lcu_cfg=cfg)
        sigma_mult = 3.0 * math.sqrt(0.25 / shots)
        budget = 4.0 * rep.norm_shift / lam + sigma_mult + leak
        if rep.lambda_measured > budget:
            noisy_ok = False
    ok = exact_ok and noisy_ok
    _report(7, "eigenvalue sampling matches overlaps", ok,
            f"exact {exact_ok} (worst 3-sigma excess {worst:.4f}), "
            f"noisy-channel {noisy_ok}")


def test_criterion_08_poisoning_bound():
    rng = stream(0, "acc", "c8")
    L, R = 2.0, 10.0
    robust_ok = True
    mean_violates = True
    for alpha in np.arange(0.05, 0.46, 0.05):
        alpha = round(float(alpha), 2)
        for seed in range(50):
            vecs = rng.uniform(-0.1, 0.1, (20, 2)) * R
            data = embedding.RawDataset(vecs, norm_bound=R)
            spec = embedding.ContaminationSpec(
                alpha=alpha, strategy="spike-direction",
                spike_direction=np.array([1.0, 0.0]), seed=seed,
            )
            out = qpca.poisoning_experiment(data, spec, L=L)
            if not out["ok"]:
                robust_ok = False
            if alpha >= 0.1 and out["mean_method_norm"] <= out["bound"]:
                mean_violates = False
    ok = robust_ok and mean_violates
    _report(8, "median matrix obeys 5 alpha L (d+2); mean matrix does not", ok,
            f"robust {robust_ok}, mean fragility {mean_violates}")


def test_criterion_09_projector_perturbation():
    rng = stream(0, "acc", "c9")
    proj_ok = True
    for trial in range(200):
        evals = np.concatenate([rng.uniform(0.3, 1.0, 3),
                                rng.uniform(-1.0, -0.3, 3)])
        V, _ = np.linalg.qr(rng.normal(size=(6, 6)))
        M = V @ np.diag(evals) @ V.T
        split = qpca.split_spectrum(M, plus_min=0.2, minus_max=-0.2)
        E = rng.normal(size=(6, 6))
        E = (E + E.T) / 2.0
        E /= linalg.norm(E)
        sigma = float(rng.uniform(0.1, 1.0)) * split.lam / 10.0
        probes = rng.normal(size=(5, 6))
        out = qpca.projector_perturbation_check(M, M + sigma * E, split, probes)
        if not out["projector_ok"]:
            proj_ok = False

    # quadratic remainder of the first-order eigenvalue rule
    rng2 = stream(1, "acc", "c9")
    A = rng2.normal(size=(6, 6))
    M = (A + A.T) / 2.0
    D = rng2.normal(size=(6, 6))
    Delta = (D + D.T) / 2.0
    Delta /= linalg.norm(Delta)
    dec = linalg.eig_hermitian(M)
    sigmas = np.array([1e-1, 1e-2, 1e-3, 1e-4])
    residuals = []
    for s in sigmas:
        decp = linalg.eig_hermitian(M + s * Delta)
        resid = 0.0
        for n in range(6):
            v = dec.eigenvectors[:, n]
            deriv = float(np.real(v.conj() @ Delta @ v))
            resid = max(resid, abs(decp.eigenvalues[n] - dec.eigenvalues[n]
                                   - s * deriv))
        residuals.append(resid)
    slope = float(np.polyfit(np.log(sigmas), np.log(residuals), 1)[0])
    slope_ok = abs(slope - 2.0) <= 0.1
    ok = proj_ok and slope_ok
    _report(9, "projector shift within 4 sigma / lambda; quadratic remainder",
            ok, f"projector {proj_ok}, remainder slope {slope:.3f}")


def test_criterion_10_boosting_adversary():
    rng = stream(0, "acc", "c10")
    shift_ok = True
    for trial in range(200):
        n = int(rng.integers(3, 9))
        spec = boosting.EnsembleSpec(rng.normal(size=(n, 4)), np.full(n, 1.0 / n))
        alpha = float(rng.uniform(0.0, 0.5))
        rep = boosting.attack_ensemble(spec, boosting.AttackSpec(alpha=alpha))
        if rep.eig_shift_max > 2.0 * rep.alpha_used + 1e-10:
            shift_ok = False

    # exhaustive stability at 3 classifiers: gap 2, every single-member
    # attack has alpha = 1/3 < gamma/4 = 1/2 and must not flip the label
    w = np.array([0.6, 0.8, 0.0])
    spec3 = boosting.EnsembleSpec(np.tile(w, (3, 1)), np.full(3, 1.0 / 3.0))
    psi3 = np.concatenate([w[:2] / np.linalg.norm(w[:2]), [0.0]])
    clean3 = boosting.classify_by_eigenspace(psi3, spec3.decomposition, bits=10).label
    exhaustive_ok = True
    for j in range(3):
        rep = boosting.attack_ensemble(
            spec3, boosting.AttackSpec(alpha=1.0 / 3.0, target_indices=(j,))
        )
        att = boosting.classify_by_eigenspace(psi3, rep.decomposition, bits=10)
        if att.label != clean3:
            exhaustive_ok = False

    # randomized ensembles of 10-25 classifiers sharing e1 as a joint
    # eigenvector; attacks below gamma/4 must keep its class
    rand_ok = True
    for trial in range(30):
        n = int(rng.integers(10, 26))
        dim = 4
        cls = []
        for _ in range(n):
            if rng.random() < 0.6:
                v = np.zeros(dim)
                v[0] = 1.0
            else:
                v = np.concatenate([[0.0], rng.normal(size=dim - 1)])
            cls.append(v)
        wts = rng.random(n)
        wts /= wts.sum()
        spec = boosting.EnsembleSpec(np.array(cls), wts)
        C = spec.operator
        gamma = 2.0 * float(np.min(np.abs(np.linalg.eigvalsh(C))))
        if gamma < 0.05:
            continue
        psi = np.zeros(dim)
        psi[0] = 1.0
        clean = boosting.classify_by_eigenspace(psi, spec.decomposition, bits=10).label
        rep = boosting.attack_ensemble(
            spec, boosting.AttackSpec(alpha=0.9 * gamma / 4.0)
        )
        att = boosting.classify_by_eigenspace(psi, rep.decomposition, bits=10)
        if att.label != clean:
            rand_ok = False

    mean_ok = True
    for n in range(2, 13):
        out = boosting.mean_attack_construction(n)
        if out["clean_class"] != 1 or out["attacked_expectation"] >= 0.0:
            mean_ok = False
    ok = shift_ok and exhaustive_ok and rand_ok and mean_ok
    _report(10, "eigenspace classification resists bounded attacks", ok,
            f"shifts {shift_ok}, exhaustive {exhaustive_ok}, "
            f"randomized {rand_ok}, mean flip {mean_ok}")


def _blob_participants(rng, centers, sigma, n):
    # one (n, d) draw is the same normal stream as n row draws in order
    centers = np.asarray(centers, dtype=np.float64)
    c = centers[np.arange(n) % len(centers)]
    return kmeans.Participants(
        np.clip(c + rng.normal(scale=sigma, size=c.shape), -1, 1)
    )


def test_criterion_11_kmeans_correctness():
    layouts = {
        "2-blob": (np.array([[0.6, 0.6], [-0.6, -0.6]]),
                   np.array([[0.3, 0.3], [-0.3, -0.3]])),
        "3-blob": (np.array([[0.7, 0.0], [-0.6, 0.6], [-0.6, -0.6]]),
                   np.array([[0.5, 0.0], [-0.4, 0.4], [-0.4, -0.4]])),
    }
    acc_ok = True
    detail = []
    N = 10**4
    for name, (centers, init) in layouts.items():
        for eps in (0.1, 0.05, 0.02):
            rng = stream(0, "acc", "c11", name, str(eps))
            parts = _blob_participants(rng, centers, 0.05, N)
            cfg = kmeans.ProtocolConfig(k=len(centers), d=2, n_participants=N,
                                        epsilon=eps, rounds=3)
            out = kmeans.run_protocol(parts, cfg, init, rng)
            err = float(np.max(np.abs(out.trajectory[-1]
                                      - out.classical_reference[-1])))
            if err > eps:
                acc_ok = False
                detail.append(f"{name} eps={eps}: {err:.4f}")

    # scalar channel vs explicit state vector at N <= 10
    sv_ok = True
    rng = stream(1, "acc", "c11")
    for trial in range(50):
        n = int(rng.integers(2, 11))
        thetas = rng.uniform(-0.3, 0.3, n)
        if abs(kmeans.ghz_phase_channel(thetas)
               - kmeans.ghz_phase_statevector(thetas)) > 1e-12:
            sv_ok = False
    ok = acc_ok and sv_ok
    _report(11, "private k-means tracks the exact iteration", ok,
            f"accuracy {acc_ok} {'; '.join(detail)}, statevector {sv_ok}")


def test_criterion_12_privacy():
    closed_ok = True
    for q, N, qubits in [(1, 10, 2), (10, 100, 10), (7, 40, 6), (50, 200, 8),
                         (99, 100, 10)]:
        closed = kmeans.privacy_closed_form(q, N)
        exact = kmeans.privacy_density_matrix(q, N, qubits=qubits)
        if abs(exact - closed) > 1e-9:
            closed_ok = False

    envelope_ok = True
    N = 1000
    for ratio in (0.01, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5):
        q = int(round(ratio * N))
        p = kmeans.privacy_closed_form(q, N)
        if p - 0.5 > q / (2.0 * N) + 1e-12:
            envelope_ok = False

    idle = kmeans.privacy_density_matrix(0, 50, qubits=6)
    report = kmeans.privacy_analysis(kmeans.RotationBudget(0, 0), 100)
    idle_ok = idle == 0.5 and report.p_opt_exact == 0.5
    ok = closed_ok and envelope_ok and idle_ok
    _report(12, "distinguishability matches the closed form and envelope", ok,
            f"closed form {closed_ok}, envelope {envelope_ok}, idle {idle_ok}")


def test_criterion_13_query_scaling_trends():
    vals = np.sort(stream(0, "acc", "c13").uniform(-1, 1, 4001))

    def data_queries(eps):
        cfg = mo.MedianSearchConfig(epsilon=eps, epsilon_prime=eps / 5.0,
                                    delta0=0.01, lipschitz=2.0)
        counter = QueryCounter()
        mo.quantum_median(vals, cfg, stream(1, "acc", "c13", str(eps)),
                          counter=counter)
        return counter.charges["data_oracle"]

    wide = [0.1, 0.05, 0.02, 0.01, 0.005, 0.002, 0.001]
    q = [data_queries(e) for e in wide]
    slope = float(np.polyfit(np.log(wide), np.log(q), 1)[0])
    slope_ok = -2.3 <= slope <= -1.7
    trend = [data_queries(e) for e in (0.2, 0.1, 0.05, 0.025)]
    monotone_ok = all(a < b for a, b in zip(trend, trend[1:]))

    # segmented-evolution charges grow as the product of segment count and
    # truncation order
    rng = stream(2, "acc", "c13")
    A = random_sparse_symmetric(rng, 8, 2)
    lcu_ok = True
    for t, K in [(0.5, 4), (0.5, 8), (2.0, 4), (4.0, 8)]:
        cfg = lcu.TaylorConfig(order=K, m_disc=10**4, n_trials=10, time=t)
        rep = lcu.simulate_noisy(A, cfg, rng)
        if rep.queries.charges["lcu_segment_queries"] != 10 * rep.segments * K:
            lcu_ok = False
    ok = slope_ok and monotone_ok and lcu_ok
    _report(13, "query counts scale with the precision budget", ok,
            f"slope {slope:.2f}, monotone {monotone_ok}, "
            f"segment charges {lcu_ok}")


def test_criterion_14_deterministic_artifacts(tmp_path):
    jobs = [
        ("qpca", {"seeds": 2, "n_vectors": 10, "sample_shots": 2000}),
        ("boost", {"seeds": 2, "n_points": 30}),
        ("kmeans", {"n_participants": 4000, "rounds": 2}),
        ("verify", {}),
    ]
    ok = True
    mismatches = []
    for sub, payload in jobs:
        cfg = tmp_path / f"{sub}.json"
        cfg.write_text(json.dumps(payload))
        dirs = []
        for run in ("a", "b"):
            out = tmp_path / f"{sub}-{run}"
            rc = cli.main([sub, "--config", str(cfg), "--seed", "7",
                           "--out", str(out)])
            if rc != 0:
                ok = False
                mismatches.append(f"{sub} exit {rc}")
            dirs.append(out)
        for name in sorted(os.listdir(dirs[0])):
            if not name.endswith(".csv"):
                continue
            a = (dirs[0] / name).read_bytes()
            b = (dirs[1] / name).read_bytes()
            if a != b:
                ok = False
                mismatches.append(f"{sub}/{name}")
    _report(14, "repeated runs emit byte-identical artifacts", ok,
            "; ".join(mismatches))

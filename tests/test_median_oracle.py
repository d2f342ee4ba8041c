"""Binary-search median over noisy CDF oracles and the approximate
matrix-element oracle."""

import math

import numpy as np
import pytest

from aqml import embedding, median_oracle as mo
from aqml.util import QueryCounter, stream


def test_iteration_budget_examples():
    assert mo.iteration_budget(0.1, 0.02) == 4
    assert mo.iteration_budget(0.05, 0.01) == 6
    # budget collapses as epsilon approaches 1/4 with epsilon_prime = 0
    assert mo.iteration_budget(0.2499, 0.0) == 0


def test_iteration_budget_rejects_inadmissible():
    with pytest.raises(ValueError):
        mo.iteration_budget(0.3, 0.01)
    with pytest.raises(ValueError):
        mo.iteration_budget(0.1, 0.05)


def test_config_invariants():
    with pytest.raises(ValueError):
        mo.MedianSearchConfig(epsilon=0.3, epsilon_prime=0.01)
    with pytest.raises(ValueError):
        mo.MedianSearchConfig(epsilon=0.1, epsilon_prime=0.05)
    cfg = mo.MedianSearchConfig(epsilon=0.1, epsilon_prime=0.02, lipschitz=2.0)
    assert cfg.p_max == mo.iteration_budget(0.1, 0.02)
    assert cfg.epsilon0 == pytest.approx(0.01)
    with pytest.raises(ValueError):
        mo.MedianSearchConfig(epsilon=0.1, epsilon_prime=0.02, p_max=1)


def test_point_mass_median():
    cfg = mo.MedianSearchConfig(epsilon=0.05, epsilon_prime=0.0, lipschitz=1.0)
    oracle = mo.exact_cdf_oracle(np.full(101, 0.3))
    res = mo.binary_search_median(oracle, cfg, stream(0, "mo", "pm"))
    # the point-mass error is half the final normalized interval on [-1, 1]
    assert abs(res.value - 0.3) <= 2.0 * cfg.epsilon


def test_uniform_median_exact_oracle():
    cfg = mo.MedianSearchConfig(epsilon=0.01, epsilon_prime=0.002, lipschitz=1.0)
    u = np.sort(stream(0, "mo", "uni").random(200001))
    oracle = mo.exact_cdf_oracle(u)
    res = mo.binary_search_median(
        oracle, cfg, stream(1, "mo", "uni"), domain=(0.0, 1.0)
    )
    assert 0.49 <= res.value <= 0.51


def test_geometric_error_closed_form():
    # with a noiseless oracle the interval error after p steps obeys
    # 2^{-p-1} + (eps' + L eps0)(1 - 2^{-p}) in normalized units
    cfg = mo.MedianSearchConfig(epsilon=0.05, epsilon_prime=0.01, lipschitz=2.0)
    widen = cfg.epsilon_prime + cfg.lipschitz * cfg.epsilon0
    rng = stream(0, "mo", "geom")
    for trial in range(50):
        vals = np.sort(rng.uniform(-1, 1, 999))
        true_med = float(np.median(vals))
        oracle = mo.exact_cdf_oracle(vals)
        res = mo.binary_search_median(oracle, cfg, rng)
        # the trace midpoint at step p+1 is the estimate after p steps
        for p in range(1, cfg.p_max + 1):
            if p < cfg.p_max:
                est_norm = res.trace[p][0]
            else:
                est_norm = (res.value + 1.0) / 2.0
            err = abs((-1.0 + 2.0 * est_norm) - true_med) / 2.0
            bound = 2.0 ** (-p - 1) + widen * (1.0 - 2.0**-p)
            assert err <= bound + 1e-9


def test_noisy_failure_accounting():
    cfg = mo.MedianSearchConfig(
        epsilon=0.05, epsilon_prime=0.01, delta0=0.02, lipschitz=2.0,
    )
    widen = cfg.epsilon_prime + cfg.lipschitz * cfg.epsilon0
    tol = 2.0 * (2.0 ** (-cfg.p_max - 1) + widen * (1.0 - 2.0**-cfg.p_max))
    vals = np.sort(stream(0, "mo", "vals").uniform(-1, 1, 4001))
    true_med = float(np.median(vals))
    runs, fails = 2000, 0
    rng = stream(0, "mo", "fail")
    for _ in range(runs):
        oracle = mo.noisy_cdf_oracle(vals, cfg, rng)
        res = mo.binary_search_median(oracle, cfg, rng)
        if abs(res.value - true_med) > tol + 1e-9:
            fails += 1
    budget = cfg.p_max * cfg.delta0
    sigma = math.sqrt(budget * (1 - budget) / runs)
    assert fails / runs <= budget + 3.0 * sigma


def test_query_charges_accumulate():
    cfg = mo.MedianSearchConfig(
        epsilon=0.05, epsilon_prime=0.01, delta0=0.01, lipschitz=1.0
    )
    counter = QueryCounter()
    vals = np.sort(stream(0, "mo", "qc").uniform(-1, 1, 501))
    mo.quantum_median(vals, cfg, stream(1, "mo", "qc"), counter=counter)
    assert counter.charges["cdf_oracle"] == cfg.p_max
    # per CDF call: one amplitude estimation (1/(eps0 delta0) charge) whose
    # comparator makes ceil(1/eps') inner-product queries
    import aqml.statevec as sv

    ae = sv.ae_query_charge(cfg.epsilon0, cfg.delta0)
    ip = math.ceil(1.0 / cfg.epsilon_prime)
    assert counter.charges["amplitude_estimation"] == cfg.p_max * ae
    assert counter.charges["data_oracle"] == cfg.p_max * ae * ip


def test_matrix_element_identical_vectors():
    data = np.tile([0.2, -0.4, 0.1], (9, 1))
    val = mo.matrix_element_oracle(
        data, 0, 1, gamma=0.1, delta=0.05, rng=stream(0, "mo", "me0")
    )
    assert abs(val) <= 0.1


def test_matrix_element_two_point():
    data = np.array([[1.0, 0.0], [-1.0, 0.0], [1.0, 0.0], [-1.0, 0.0]])
    val = mo.matrix_element_oracle(
        data, 0, 0, gamma=0.1, delta=0.05, rng=stream(0, "mo", "me1")
    )
    assert abs(val - 1.0) <= 0.1


def test_matrix_element_random_entries():
    rng = stream(0, "mo", "me2")
    vecs = rng.uniform(-1, 1, (16, 4)) * 0.9
    exact = embedding.robust_pca_matrix(vecs)
    gamma, delta = 0.2, 0.1
    trials, good = 60, 0
    for t in range(trials):
        k = int(rng.integers(0, 4))
        l = int(rng.integers(0, 4))
        val = mo.matrix_element_oracle(
            vecs, k, l, gamma=gamma, delta=delta, rng=rng
        )
        if abs(val - exact[k, l]) <= gamma:
            good += 1
    sigma = math.sqrt(delta * (1 - delta) / trials)
    assert good / trials >= 1.0 - delta - 3.0 * sigma


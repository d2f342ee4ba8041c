"""The four benchmark workloads, their seeded trial lists, output checks and
size sweeps.

Each workload draws a fixed list of trials from the workload seed and a
pool of recorded inputs; the program receives only the generated inputs
(config files and CLI seeds, matrices, datasets).  Every trial's output is
compared with the value recorded in ``references.json`` for the same input,
and with the invariant the construction guarantees.

Why these four: ``qpca-cli`` is the config-to-CSV path and the embedded
dimension D = 4(2 N_v + 1) hot spot; ``noisy-lcu`` is the only user of
``lcu``; ``kmeans-cli`` is per-participant Python work that scales with N;
``median-oracle`` is the only path through the binary-search median, the
amplitude-estimation contract and the per-sample inverse CDF.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _import_program():
    """Import aqml from this checkout's ``src`` and nowhere else."""
    if not (SRC / "aqml" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program source under {SRC}")
    sys.path.insert(0, str(SRC))
    import aqml

    if Path(aqml.__file__).resolve().parent != (SRC / "aqml").resolve():
        raise SystemExit(f"perfbench: imported aqml from {aqml.__file__}, not {SRC}")


_import_program()

from aqml import cli, embedding, lcu, qpca  # noqa: E402
from aqml.util import QueryCounter  # noqa: E402

PACKAGE = "aqml"
LAYERS = ("cli", "qpca", "embedding", "median_oracle", "lcu", "statevec",
          "linalg", "boosting", "kmeans")
REFERENCES = Path(__file__).resolve().parent / "references.json"

# Outputs are compared with the recorded references at this tolerance.
# Reordering floating-point sums moves them by ~1e-15 relative; any change in
# a sampled outcome (a multinomial count, a failed oracle read, a tie-break)
# moves them by far more than 1e-9.
REL_TOL = 1e-9
ABS_TOL = 1e-12

# acceptance criterion 6 pins deviation <= 4 * d (max_norm delta + eta)
LCU_BOUND_CONSTANT = 4.0


def close(got, want) -> bool:
    """Recursive comparison of nested dicts and lists of numbers and labels."""
    if isinstance(want, dict):
        return (isinstance(got, dict) and got.keys() == want.keys()
                and all(close(got[k], want[k]) for k in want))
    if isinstance(want, list):
        return (isinstance(got, list) and len(got) == len(want)
                and all(close(g, w) for g, w in zip(got, want)))
    if isinstance(want, (int, float)) and not isinstance(want, bool):
        return (isinstance(got, (int, float))
                and abs(got - want) <= ABS_TOL + REL_TOL * abs(want))
    return got == want


def _read_csv(path) -> list:
    with open(path, newline="") as fh:
        return list(csv.DictReader(line for line in fh if not line.startswith("#")))


def _call_cli(argv) -> int:
    """Run one CLI invocation as a user would, with its console output
    captured (the benchmark owns stdout)."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


def _write_config(path: Path, payload: dict) -> str:
    path.write_text(json.dumps(payload))
    return str(path)


def random_sparse_symmetric(rng, dim: int, d: int) -> np.ndarray:
    """Random real symmetric matrix with at most d nonzeros per row and
    max-norm <= 1 (the instance family of acceptance criterion 6)."""
    A = np.zeros((dim, dim))
    for i in range(dim):
        for j in rng.choice(dim, size=d, replace=False):
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


def _bounded_dataset(rng, count: int, dim: int) -> "embedding.RawDataset":
    vecs = rng.uniform(-1, 1, (count, dim))
    vecs *= 0.9 / np.max(np.linalg.norm(vecs, axis=1))
    return embedding.RawDataset(vecs, norm_bound=1.0)


def interleave(rng, cells: int, pool: int) -> list:
    """Every (cell, pool entry) pair once; trial i is in cell i % cells and
    each cell walks its own permutation of the pool."""
    perms = [rng.permutation(pool) for _ in range(cells)]
    return [(i % cells, int(perms[i % cells][i // cells])) for i in range(cells * pool)]


class Workload:
    """A seeded trial list plus the program call, output check and size
    sweep of one workload.  ``run`` is the timed part; everything else is
    set-up or checking."""

    name = ""
    index = 0
    sweep_modules: tuple = ()

    def __init__(self, seed: int, workdir: Path, references: dict | None):
        self.seed = seed
        self.workdir = Path(workdir)
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.references = references
        self.trials = self.make_trials(np.random.default_rng([seed, self.index]))

    def make_trials(self, rng) -> list:
        raise NotImplementedError

    def key(self, trial) -> str:
        raise NotImplementedError

    def run(self, trial):
        raise NotImplementedError

    def observe(self, trial, output):
        """The reference-shaped part of a trial's output."""
        raise NotImplementedError

    def invariant(self, trial, output) -> bool:
        return True

    def counts(self, trial, output) -> dict:
        """Per-trial measures the benchmark computes from a trial's output."""
        return {}

    def check(self, trial, output) -> bool:
        want = self.references[self.key(trial)]
        return self.invariant(trial, output) and close(self.observe(trial, output), want)

    def sweep(self) -> list:
        """(size, program call) pairs of the size sweep; each call returns
        whether its output is sound."""
        raise NotImplementedError


class QpcaCli(Workload):
    name = "qpca-cli"
    index = 1
    sizes = (8, 16, 24)
    pool = 64
    sweep_sizes = (8, 16, 32, 64)
    sweep_modules = ("embedding", "linalg", "statevec", "cli")

    def make_trials(self, rng):
        self.out = str(self.workdir / "out")
        cfg = self.workdir / "cfg"
        cfg.mkdir(exist_ok=True)
        self.configs = {
            n: _write_config(cfg / f"qpca-{n}.json", {"seeds": 1, "n_vectors": n})
            for n in set(self.sizes) | set(self.sweep_sizes)
        }
        self.boost_config = _write_config(cfg / "boost.json", {"seeds": 1})
        return [(self.sizes[c], s) for c, s in interleave(rng, len(self.sizes), self.pool)]

    def key(self, trial):
        return f"{trial[0]}:{trial[1]}"

    def run(self, trial):
        n, s = trial
        return (
            _call_cli(["qpca", "--config", self.configs[n], "--seed", str(s),
                       "--out", self.out]),
            _call_cli(["boost", "--config", self.boost_config, "--seed", str(s),
                       "--out", self.out]),
        )

    def invariant(self, trial, output):
        return output == (0, 0)

    def observe(self, trial, output):
        q = _read_csv(os.path.join(self.out, "qpca.csv"))
        b = _read_csv(os.path.join(self.out, "boost.csv"))
        return {
            "qpca": [[float(r["norm"]), float(r["bound"]), float(r["lambda_measured"])]
                     for r in q],
            "boost": [[int(r["class"]), float(r["confidence"])] for r in b],
        }

    def sweep(self):
        s = self.trials[0][1]
        return [(n, lambda n=n: _call_cli(["qpca", "--config", self.configs[n], "--seed",
                                           str(s), "--out", self.out]) == 0)
                for n in self.sweep_sizes]


class NoisyLcu(Workload):
    name = "noisy-lcu"
    index = 2
    dim = 16
    sparsity = 3
    pool = 64
    # the 8 noisy (eta, delta) cells of acceptance criterion 6
    cells = [(eta, delta) for eta in (0.0, 1e-3, 1e-2) for delta in (0.0, 1e-3, 1e-2)
             if eta or delta]
    sweep_sizes = (8, 16, 32)
    sweep_modules = ("lcu",)

    def make_trials(self, rng):
        self.matrices = {}
        trials = interleave(rng, len(self.cells), self.pool)
        for c, s in trials:
            self.matrices[s] = random_sparse_symmetric(
                np.random.default_rng([s, self.index, 0]), self.dim, self.sparsity)
        return trials

    def config(self, cell: int):
        eta, delta = self.cells[cell]
        return lcu.TaylorConfig(order=6, m_disc=10**4, eta=eta, delta=delta,
                                n_trials=400, failure_mode="worst-case", time=0.5)

    def key(self, trial):
        return f"{trial[0]}:{trial[1]}"

    def run(self, trial):
        c, s = trial
        rng = np.random.default_rng([s, self.index, 1, c])
        return lcu.simulate_noisy(self.matrices[s], self.config(c), rng)

    def observe(self, trial, output):
        return output.deviation_spectral

    def invariant(self, trial, output):
        return output.deviation_spectral <= LCU_BOUND_CONSTANT * output.bound_scale

    def sweep(self):
        rng = np.random.default_rng([self.seed, self.index, 2])
        cfg = self.config(len(self.cells) - 1)
        points = []
        for dim in self.sweep_sizes:
            A = random_sparse_symmetric(rng, dim, self.sparsity)
            sim_rng = np.random.default_rng([self.seed, self.index, 3, dim])
            points.append((dim, lambda A=A, r=sim_rng: self.invariant(
                None, lcu.simulate_noisy(A, cfg, r))))
        return points


class KmeansCli(Workload):
    name = "kmeans-cli"
    index = 3
    participants = 5000
    pool = 128
    sweep_sizes = (5000, 20000, 100000)
    sweep_modules = ("kmeans", "cli")

    def make_trials(self, rng):
        self.out = str(self.workdir / "out")
        cfg = self.workdir / "cfg"
        cfg.mkdir(exist_ok=True)
        self.configs = {
            n: _write_config(cfg / f"kmeans-{n}.json", {"n_participants": n})
            for n in set(self.sweep_sizes) | {self.participants}
        }
        return [int(s) for s in rng.permutation(self.pool)]

    def key(self, trial):
        return str(trial)

    def run(self, trial):
        return _call_cli(["kmeans", "--config", self.configs[self.participants],
                          "--seed", str(trial), "--out", self.out])

    def invariant(self, trial, output):
        return output == 0

    def observe(self, trial, output):
        traj = _read_csv(os.path.join(self.out, "kmeans_trajectory.csv"))
        priv = _read_csv(os.path.join(self.out, "kmeans_privacy.csv"))
        return {
            "estimate": [float(r["estimate"]) for r in traj],
            "privacy": [[float(r["p_opt_exact"]), float(r["bound"])] for r in priv],
        }

    def sweep(self):
        s = self.trials[0]
        return [(n, lambda n=n: _call_cli(["kmeans", "--config", self.configs[n],
                                           "--seed", str(s), "--out", self.out]) == 0)
                for n in self.sweep_sizes]


class MedianOracle(Workload):
    name = "median-oracle"
    index = 4
    n_vectors = 3
    dim = 2
    pool = 64
    gamma = 0.05
    delta = 0.05
    alphas = (0.05, 0.1, 0.2)
    sweep_sizes = (3, 4, 6)
    sweep_modules = ("median_oracle", "statevec")

    def make_trials(self, rng):
        families = [embedding.uniform_dist(), embedding.sine_dist(), embedding.cubic_dist()]
        # the 9 (family, alpha) cells of acceptance criterion 3
        self.cells = [(f, a) for f in families for a in self.alphas]
        trials = interleave(rng, len(self.cells), self.pool)
        self.datasets, self.exact = {}, {}
        for _, s in trials:
            if s not in self.datasets:
                raw = _bounded_dataset(np.random.default_rng([s, self.index, 0]),
                                       self.n_vectors, self.dim)
                self.datasets[s] = raw
                self.exact[s] = embedding.robust_pca_matrix(embedding.embed(raw))
        return trials

    def key(self, trial):
        return str(trial[1])

    def run(self, trial):
        c, s = trial
        counter = QueryCounter()
        M = qpca.build_matrix(self.datasets[s], mode="quantum-median",
                              gamma=self.gamma, delta=self.delta,
                              rng=np.random.default_rng([s, self.index, 1]),
                              counter=counter)
        family, alpha = self.cells[c]
        stability = embedding.median_stability_check(
            family, alpha, trials=2, n_samples=10**5,
            rng=np.random.default_rng([s, self.index, 2, c]))
        return M, stability

    def observe(self, trial, output):
        M = output[0]
        return M[np.triu_indices(M.shape[0])].tolist()

    def invariant(self, trial, output):
        return bool(output[1]["ok"])

    def counts(self, trial, output):
        err = np.abs(output[0] - self.exact[trial[1]])
        return {"median_oracle.within_gamma_frac": float(np.mean(err <= self.gamma))}

    def sweep(self):
        points = []
        for n in self.sweep_sizes:
            raw = _bounded_dataset(np.random.default_rng([self.seed, self.index, 3, n]),
                                   n, self.dim)
            rng = np.random.default_rng([self.seed, self.index, 4, n])
            points.append((n, lambda raw=raw, rng=rng: np.all(np.isfinite(qpca.build_matrix(
                raw, mode="quantum-median", gamma=self.gamma, delta=self.delta,
                rng=rng, counter=QueryCounter())))))
        return points


WORKLOADS = {w.name: w for w in (QpcaCli, NoisyLcu, KmeansCli, MedianOracle)}


def load_references(name: str) -> dict:
    with open(REFERENCES) as fh:
        return json.load(fh)[name]


# --- counts read from the program's return values in the traced run --------
#
# Each observer sees (args, kwargs, result) of one traced call and adds to a
# tally; "sum" tallies are reported per trial, "mean" tallies per event.  A
# workload that never reaches a counted call reports 0.

COUNTS = {  # name -> (kind, unit)
    "embedding.dim": ("mean", "count"),
    "qpca.queries.qpe_shots": ("sum", "count"),
    "median_oracle.queries.cdf_oracle": ("sum", "count"),
    "median_oracle.queries.amplitude_estimation": ("sum", "count"),
    "median_oracle.queries.data_oracle": ("sum", "count"),
    "median_oracle.within_gamma_frac": ("mean", "fraction"),
    "statevec.qpe_flops_computed": ("sum", "flop"),
    "lcu.segments": ("sum", "count"),
    "lcu.layers": ("sum", "count"),
    "lcu.flops_computed": ("sum", "flop"),
    "lcu.queries.matrix_element_oracle": ("sum", "count"),
    "lcu.queries.lcu_segment_queries": ("sum", "count"),
    "kmeans.rounds_run": ("sum", "count"),
    "kmeans.participants": ("mean", "count"),
    "kmeans.converged_frac": ("mean", "fraction"),
}

def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def new_tally() -> dict:
    """name -> [summed value, number of events]."""
    return {name: [0.0, 0] for name in COUNTS}


def add(tally: dict, name: str, value) -> None:
    tally[name][0] += value
    tally[name][1] += 1


def make_observers(tally):

    def embed(args, kwargs, result):
        add(tally, "embedding.dim", result.vectors.shape[1])

    def qpca_sample(args, kwargs, result):
        add(tally, "qpca.queries.qpe_shots", result.queries.charges.get("qpe_shots", 0))

    def build_matrix(args, kwargs, result):
        counter = kwargs.get("counter")
        if counter is not None:
            for channel in ("cdf_oracle", "amplitude_estimation", "data_oracle"):
                add(tally, f"median_oracle.queries.{channel}", counter.charges.get(channel, 0))

    def phase_estimate_distribution(args, kwargs, result):
        # computed complex-matmul work, 8 real flops per multiply-add: each
        # of `bits` controlled powers touches half the control rows, and
        # bits - 1 squarings build the powers
        U = np.asarray(_arg(args, kwargs, 0, "U"))
        bits = _arg(args, kwargs, 2, "bits")
        dim = U.shape[0]
        rows = 2 ** bits // 2
        add(tally, "statevec.qpe_flops_computed",
            8.0 * (bits * rows * dim**2 + (bits - 1) * dim**3))

    def simulate_noisy(args, kwargs, result):
        cfg = _arg(args, kwargs, 1, "cfg")
        dim = result.effective_channel.shape[0]
        add(tally, "lcu.segments", result.segments)
        add(tally, "lcu.layers", result.achieved_layers)
        # computed batched series work: per segment `order` power products
        # and one product into the running channel, each a (dim x dim)
        # complex matmul per Monte Carlo trial
        add(tally, "lcu.flops_computed",
            8.0 * result.segments * (result.order + 1) * cfg.n_trials * dim**3)
        for channel in ("matrix_element_oracle", "lcu_segment_queries"):
            add(tally, f"lcu.queries.{channel}", result.queries.charges.get(channel, 0))

    def run_protocol(args, kwargs, result):
        add(tally, "kmeans.rounds_run", len(result.trajectory) - 1)
        add(tally, "kmeans.participants", len(_arg(args, kwargs, 0, "participants")))
        add(tally, "kmeans.converged_frac", float(result.converged))

    return {
        "embedding.embed": embed,
        "qpca.qpca_sample": qpca_sample,
        "qpca.build_matrix": build_matrix,
        "statevec.phase_estimate_distribution": phase_estimate_distribution,
        "lcu.simulate_noisy": simulate_noisy,
        "kmeans.run_protocol": run_protocol,
    }


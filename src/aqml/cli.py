"""Experiment runner: JSON config in, deterministic CSV artifacts out.

Subcommands: qpca (poisoning sweep + eigenvalue-sampling report), boost
(attack sweep), kmeans (protocol trajectory + privacy report), verify
(invariant suite)."""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import json
import math
import os
import sys
import traceback

import numpy as np

from . import boosting, embedding, kmeans, linalg, qpca, statevec, verify
from .util import check_seed, fmt_float, stream

CSV_SCHEMA_VERSION = "aqml-csv-1"


def _write_csv(path, columns, rows):
    """Write one artifact as a new file.  An existing file (or symlink) at
    `path` is unlinked first: truncating a non-empty file in place can cost
    a writeback when it is closed, which creating a new one does not."""
    try:
        os.unlink(path)
    except FileNotFoundError:
        pass
    with open(path, "w", newline="") as fh:
        fh.write(f"# {CSV_SCHEMA_VERSION}\n")
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow(
                [fmt_float(v) if isinstance(v, float) else v for v in row]
            )


# every config key: its default and, for a bounded key, its inclusive
# [low, high]; the default fixes the key's JSON type
_INT_MAX = 2**63 - 1  # numpy's largest integer count
_FLOAT_CAP = 1e150  # squares and products of values up to this stay finite

_SCHEMAS = {
    "qpca": {
        "n_vectors": (16, 1, math.inf),
        "dim": (4, 1, math.inf),
        "norm_bound": (1.0, 0.0, _FLOAT_CAP),
        "alphas": ([0.05, 0.1, 0.2],),
        "lipschitz": (2.0, 0.0, _FLOAT_CAP),
        "seeds": (5, 0, math.inf),
        "sample_bits": (10, 1, statevec.PHASE_BITS_CAP),
        "sample_shots": (10000, 1, _INT_MAX),
    },
    "boost": {
        "n_classifiers": (10, 1, math.inf),
        "dim": (4, 1, math.inf),
        "n_points": (60, 2, math.inf),
        "alphas": ([0.1, 0.2],),
        "seeds": (5, 0, math.inf),
        "bits": (10, 1, statevec.PHASE_BITS_CAP),
    },
    "kmeans": {
        "k": (2, 1, math.inf),
        "d": (2, 1, math.inf),
        "n_participants": (10000, 1, math.inf),
        "epsilon": (0.05,),
        "rounds": (5,),
        "blob_centers": ([[0.6, 0.6], [-0.6, -0.6]],),
        "blob_sigma": (0.05, 0.0, _FLOAT_CAP),
    },
    "verify": {},
}


def parse_config(subcommand: str, path: str | None) -> dict:
    if subcommand not in _SCHEMAS:
        raise ValueError(f"unknown subcommand {subcommand!r}")
    defaults = {key: entry[0] for key, entry in _SCHEMAS[subcommand].items()}
    if path is None:
        cfg = defaults
    else:
        with open(path) as fh:
            user = json.load(fh, parse_constant=_reject_constant)
        if not isinstance(user, dict):
            raise ValueError("config file must hold a JSON object")
        unknown = sorted(set(user) - set(defaults))
        if unknown:
            raise ValueError(
                f"unknown config keys for {subcommand!r}: {', '.join(unknown)}"
            )
        for key, value in user.items():
            _check_type(key, value, defaults[key])
        cfg = {**defaults, **user}
    _validate(subcommand, cfg)
    return cfg


def _reject_constant(name: str):
    raise ValueError(f"{name} is not a JSON number")


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _numbers_or_lists(value: list) -> bool:
    return all(_numbers_or_lists(v) if isinstance(v, list) else _is_number(v)
               for v in value)


def _check_type(key: str, value, default) -> None:
    """A value must have the JSON type of its default: an int default takes
    an int, a float default an int or a float, a list default a list whose
    elements, at any depth, are numbers or lists."""
    if isinstance(default, list):
        ok = isinstance(value, list)
        if ok and not _numbers_or_lists(value):
            raise TypeError(f"{key}: list elements must be numbers or lists")
    elif isinstance(default, int):
        ok = isinstance(value, int) and not isinstance(value, bool)
    else:
        ok = _is_number(value)
    if not ok:
        raise TypeError(
            f"{key}: expected {type(default).__name__}, got {type(value).__name__}"
        )


def _validate(subcommand: str, cfg: dict) -> None:
    for key, (_, *bounds) in _SCHEMAS[subcommand].items():
        if bounds and not bounds[0] <= cfg[key] <= bounds[1]:
            raise ValueError(f"{key} must lie in [{bounds[0]}, {bounds[1]}]")
    if subcommand == "qpca":
        if cfg["lipschitz"] <= 0.0:
            raise ValueError("lipschitz must be positive")
        if any(not (0.0 <= a < 0.5) for a in cfg["alphas"]):
            raise ValueError("contamination fractions must lie in [0, 1/2)")
        if any(a * cfg["lipschitz"] > 1.0 for a in cfg["alphas"]):
            raise ValueError("alpha * lipschitz must be <= 1 for every alpha")
        side = embedding.robust_pca_dim(cfg["n_vectors"], cfg["dim"])
        if side > linalg.DIM_CAP:
            raise ValueError(
                f"robust PCA matrix side {side} exceeds the cap {linalg.DIM_CAP}"
            )
    elif subcommand == "boost":
        if any(not (0.0 <= a < 1.0) for a in cfg["alphas"]):
            raise ValueError("attack fractions must lie in [0, 1)")
        # the ensemble operator acts on the dim features plus the affine one
        side = cfg["dim"] + 1
        if side > linalg.DIM_CAP:
            raise ValueError(
                f"ensemble operator side {side} exceeds the cap {linalg.DIM_CAP}"
            )
    elif subcommand == "kmeans":
        try:
            centers = np.asarray(cfg["blob_centers"], dtype=np.float64)
        except OverflowError:
            raise ValueError("blob_centers entries must fit a float") from None
        if centers.shape != (cfg["k"], cfg["d"]):
            raise ValueError(
                f"blob_centers shape {centers.shape} must be (k, d) = "
                f"({cfg['k']}, {cfg['d']})"
            )
        pc = kmeans.ProtocolConfig(
            k=cfg["k"], d=cfg["d"], n_participants=cfg["n_participants"],
            epsilon=cfg["epsilon"], rounds=cfg["rounds"],
        )
        # a cluster whose coarse read (within epsilon/4) falls to epsilon is
        # reseeded as empty, so the smallest blob must stay above 1.25 epsilon
        share = (pc.n_participants // pc.k) / pc.n_participants
        if 1.25 * pc.epsilon > share:
            raise ValueError(
                f"1.25 * epsilon must be <= the smallest blob's share {share}"
            )
        # run_protocol plans a one-round budget even when no round runs
        kmeans.planned_budget(dataclasses.replace(pc, rounds=1))
        kmeans.planned_budget(pc).check_privacy_precondition(pc.n_participants)


def run_qpca(cfg: dict, seed: int, out_dir: str) -> int:
    rows = []
    status = 0
    for s in range(cfg["seeds"]):
        rng = stream(seed, "qpca", str(s))
        raw_vecs = rng.uniform(-1, 1, (cfg["n_vectors"], cfg["dim"]))
        raw_vecs *= 0.9 * cfg["norm_bound"] / np.max(np.linalg.norm(raw_vecs, axis=1))
        raw = embedding.RawDataset(raw_vecs, norm_bound=cfg["norm_bound"])
        specs = [
            embedding.ContaminationSpec(
                alpha=alpha, strategy="spike-direction",
                spike_direction=np.eye(cfg["dim"])[0], seed=s,
            )
            for alpha in cfg["alphas"]
        ]
        # the sweep builds the clean core with every poisoned one; the clean
        # core's QPE distribution does not depend on alpha
        (M, null_dim), reports = qpca.poisoning_sweep(raw, specs, L=cfg["lipschitz"])
        x = np.zeros(M.shape[0])
        x[0] = 1.0
        spectrum = qpca.qpca_spectrum(
            M, x, bits=cfg["sample_bits"], null_dim=null_dim
        )
        for alpha, rep in zip(cfg["alphas"], reports):
            samp = qpca.qpca_draw(
                spectrum, cfg["sample_shots"],
                stream(seed, "qpca-sample", str(s), str(alpha)),
            )
            if not rep["ok"]:
                status = 1
            rows.append(
                [s, alpha, cfg["lipschitz"], rep["d"], rep["norm"], rep["bound"],
                 samp.lambda_measured, samp.queries.total, int(samp.unresolved)]
            )
    _write_csv(
        os.path.join(out_dir, "qpca.csv"),
        ["seed", "alpha", "L", "d", "norm", "bound", "lambda_measured", "queries",
         "unresolved"],
        rows,
    )
    return status


def run_boost(cfg: dict, seed: int, out_dir: str) -> int:
    rows = []
    for s in range(cfg["seeds"]):
        rng = stream(seed, "boost", str(s))
        n = cfg["n_points"]
        X = np.vstack(
            [rng.normal(1.5, 0.4, (n // 2, cfg["dim"])),
             rng.normal(-1.5, 0.4, (n - n // 2, cfg["dim"]))]
        )
        y = np.array([1] * (n // 2) + [-1] * (n - n // 2))
        # the spec holds C and its decomposition; the gap, the run and every
        # attack read both from it
        spec = boosting.train_bootstrap_ensemble(X, y, cfg["n_classifiers"], rng)
        gap = float(2.0 * np.min(np.abs(spec.decomposition.eigenvalues)))
        v = np.concatenate([X[0], [1.0]])
        psi = v / np.linalg.norm(v)
        clean = boosting.classify_by_eigenspace(
            psi, spec.decomposition, bits=cfg["bits"]
        )
        mean = boosting.classify_by_mean(psi, spec.operator)
        for alpha in cfg["alphas"]:
            # attack_ensemble asserts the 2 alpha bound on both shifts
            rep = boosting.attack_ensemble(spec, boosting.AttackSpec(alpha=alpha))
            attacked = boosting.classify_by_eigenspace(
                psi, rep.decomposition, bits=cfg["bits"]
            )
            rows.append(
                [s, alpha, gap, "eigenspace", clean.label,
                 clean.confidence, rep.norm_shift, rep.eig_shift_max]
            )
            rows.append(
                [s, alpha, gap, "eigenspace-attacked", attacked.label,
                 attacked.confidence, rep.norm_shift, rep.eig_shift_max]
            )
            rows.append(
                [s, alpha, gap, "mean", mean.label, mean.confidence,
                 rep.norm_shift, rep.eig_shift_max]
            )
    _write_csv(
        os.path.join(out_dir, "boost.csv"),
        ["seed", "alpha", "gamma", "method", "class", "confidence",
         "norm_shift", "eig_shift_max"],
        rows,
    )
    return 0


def _blobs(rng, centers: np.ndarray, sigma: float, n: int) -> np.ndarray:
    """n points in shuffled order from k = len(centers) Gaussian blobs of
    width |sigma|, clipped to [-1, 1]: blob i holds n // k points, one more
    for i < n % k.  One standard normal draw, scaled and shifted per blob,
    gives the bits and the generator state of one
    `rng.normal(center, sigma, (m, d))` per blob (which rejects the -0.0
    that the sigma range admits)."""
    k = len(centers)
    X = rng.standard_normal((n, centers.shape[1]))
    X *= abs(sigma)
    stop = 0
    for i, c in enumerate(centers):
        start, stop = stop, stop + n // k + (i < n % k)
        X[start:stop] += c
    np.clip(X, -1, 1, out=X)
    return np.take(X, rng.permutation(n), axis=0)


def run_kmeans(cfg: dict, seed: int, out_dir: str) -> int:
    rng = stream(seed, "kmeans")
    centers = np.asarray(cfg["blob_centers"], dtype=np.float64)
    k, d = cfg["k"], cfg["d"]
    N = cfg["n_participants"]
    participants = kmeans.Participants(
        _blobs(rng, centers, cfg["blob_sigma"], N))
    pc = kmeans.ProtocolConfig(
        k=k, d=d, n_participants=N, epsilon=cfg["epsilon"], rounds=cfg["rounds"],
    )
    # clipping the centers first keeps the product finite
    init = np.clip(1.5 * np.clip(centers, -1, 1), -1, 1)
    result = kmeans.run_protocol(participants, pc, init, rng)

    traj_rows = []
    status = 0
    for r in range(1, len(result.trajectory)):
        ref = result.classical_reference[r]
        est = result.trajectory[r]
        for p in range(k):
            for q in range(d):
                err = abs(est[p, q] - ref[p, q])
                traj_rows.append([r, p, q, float(est[p, q]), float(ref[p, q]), err])
                if err > pc.epsilon:
                    status = 1
    _write_csv(
        os.path.join(out_dir, "kmeans_trajectory.csv"),
        ["round", "cluster", "component", "estimate", "exact", "error"],
        traj_rows,
    )
    priv_rows = []
    rep = result.privacy
    if rep is not None:
        priv_rows.append(
            [result.budget.q1, result.budget.q2, N,
             rep.p_opt_exact, rep.p_opt_closed_form, rep.bound]
        )
    _write_csv(
        os.path.join(out_dir, "kmeans_privacy.csv"),
        ["q1", "q2", "N", "p_opt_exact", "p_opt_closed", "bound"],
        priv_rows,
    )
    return status


def run_verify(cfg: dict, seed: int, out_dir: str) -> int:
    results = verify.run_all(seed)
    print(verify.format_table(results))
    _write_csv(
        os.path.join(out_dir, "verify.csv"),
        ["check", "status", "detail"],
        [[name, "PASS" if ok else "FAIL", detail] for name, ok, detail in results],
    )
    return 0 if all(ok for _, ok, _ in results) else 1


_RUNNERS = {
    "qpca": run_qpca,
    "boost": run_boost,
    "kmeans": run_kmeans,
    "verify": run_verify,
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; parsing leaves it
    unchanged, so every `main` call reuses it."""
    parser = argparse.ArgumentParser(
        prog="aqml",
        description="adversarially robust quantum ML experiment runner",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in _RUNNERS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="JSON config file")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default=".", help="output directory")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    # a JSONDecodeError is a ValueError; a RecursionError is a config nested
    # deeper than the decoder or the type check can follow
    try:
        check_seed(args.seed)
        cfg = parse_config(args.subcommand, args.config)
        # an existing file at --out, or a path under one, cannot hold the
        # artifacts
        os.makedirs(args.out, exist_ok=True)
    except (ValueError, TypeError, OSError, RecursionError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    header = {"subcommand": args.subcommand, "seed": args.seed, "config": cfg}
    print(json.dumps(header, sort_keys=True))
    try:
        status = _RUNNERS[args.subcommand](cfg, args.seed, args.out)
    except MemoryError as exc:  # a config too large for this machine
        print(f"config error: needs more memory than is available: {exc}",
              file=sys.stderr)
        return 2
    except Exception as exc:  # a crash is never reported as a violated bound
        traceback.print_exc()
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    if status != 0:
        print("bound violation or failed check; see artifacts", file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main())

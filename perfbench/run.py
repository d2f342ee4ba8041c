"""Benchmark of the aqml pipelines: four closed-loop workloads, one client
each, every trial's output checked against recorded references.

    python3 perfbench/run.py --workload qpca-cli --seed 0 --seconds 28 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 28
    python3 perfbench/run.py --self-test

Workloads: qpca-cli, noisy-lcu, kmeans-cli, median-oracle (see workloads.py
for why each exists).  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` is a separate run over the same trial list that alternates an
untraced and a traced execution of each trial, reports per-layer self times
and counts, the tracing overhead, and a size sweep of every workload.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it hold the run
record (machine, versions, BLAS threads, seed, trial count) and a table of
every metric with its unit.  ``fail_frac`` is ``failed / attempted``.

The bounded times are calibrated: each trial's wall time (and each set-up
probe's) is divided by the host's load factor, measured shortly before it
(around it, for a set-up probe) by timing fixed calibration kernels.  The
kernels use no program code, so a change to the program moves the
calibrated time as it moves the wall time, while most of the load other
tenants put on a shared host cancels: in 4-minute traces of qpca-cli,
noisy-lcu and kmeans-cli on a shared 2-vCPU host, the quartile spread of the
median trial time of 30 s windows was up to 20 % of its median as wall
time and 2-5 % once calibrated.  The raw wall figures are printed as
``wall.*`` and the median load factor as ``load_factor``.

Run it from a checkout of the repository: it imports ``aqml`` from the
checkout's ``src`` and exits nonzero if there is none.  Scratch files go to
``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

import numpy as np

import workloads as wl
from tracer import ROOT_LABEL, Tracer

OUT = wl.ROOT / ".bench_out"
BENCHMARK_JSON = wl.ROOT / "BENCHMARK.json"
SETUP_PROBES = 3
# Calibration kernels: the kinds of work the program does (interpreter
# loops, batched small complex matmuls, a sort, and a LAPACK
# eigendecomposition and a complex matrix product large enough to run on
# every BLAS thread), none of it program code.  Each kernel's reference is
# its time on an unloaded Intel Xeon (2 vCPU) host, so a calibrated second
# is close to a wall second there.  The load changes over seconds, so the
# factor is measured again once CALIBRATION_INTERVAL_S has passed.
_KERNEL_RNG = np.random.default_rng(0)
_BATCH = (_KERNEL_RNG.standard_normal((64, 16, 16))
          + 1j * _KERNEL_RNG.standard_normal((64, 16, 16)))
_KEYS = _KERNEL_RNG.standard_normal(20000)
_SYMMETRIC = _KERNEL_RNG.standard_normal((192, 192))
_SYMMETRIC += _SYMMETRIC.T
_SQUARE = (_KERNEL_RNG.standard_normal((192, 192))
           + 1j * _KERNEL_RNG.standard_normal((192, 192)))
CALIBRATION_INTERVAL_S = 0.25
MAX_LOGGED_FAILURES = 3


# --- run record -------------------------------------------------------------

def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_info() -> tuple:
    """(library description, thread count in effect or None)."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        name, blas = "unknown", {}
    candidates = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                        "numpy.libs", "*blas*"))
    if blas.get("lib directory"):
        candidates += glob.glob(os.path.join(blas["lib directory"], "*blas*.so*"))
    for path in candidates:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return name, int(fn())
    return name, None


def run_record(name: str, seed: int, seconds: int, trace: bool, attempted: int) -> dict:
    blas, threads = _blas_info()
    return {
        "workload": name,
        "seed": seed,
        "run_seconds": seconds,
        "trace": int(trace),
        "trials_attempted": attempted,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": threads,
        "thread_env": {k: os.environ[k] for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
                       if k in os.environ},
    }


# --- trials -------------------------------------------------------------------

def _interpreter_kernel():
    x = 0
    for i in range(30000):
        x += (i * i) % 7


def _matmul_kernel():
    a = _BATCH
    for _ in range(20):
        a = a @ _BATCH
        a /= 16.0


def _sort_kernel():
    for _ in range(4):
        np.sort(_KEYS)


def _eigh_kernel():
    np.linalg.eigh(_SYMMETRIC)


def _product_kernel():
    for _ in range(4):
        _SQUARE @ _SQUARE


KERNELS = ((_interpreter_kernel, 0.0018), (_matmul_kernel, 0.0024),
           (_sort_kernel, 0.00036), (_eigh_kernel, 0.0032), (_product_kernel, 0.0019))


def load_factor() -> float:
    """How much slower than its reference the host runs the calibration
    kernels right now: the mean over kernels of time over reference, each
    time the faster of two passes, so the first can absorb what the
    previous trial left behind."""
    ratios = []
    for kernel, reference in KERNELS:
        best = math.inf
        for _ in range(2):
            t0 = time.perf_counter()
            kernel()
            best = min(best, time.perf_counter() - t0)
        ratios.append(best / reference)
    return statistics.fmean(ratios)


class Tally:
    """Attempted and failed trial counts, logging the first few failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, ok: bool, what: str, exc: BaseException | None = None) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if self.failed <= MAX_LOGGED_FAILURES:
                detail = "".join(traceback.format_exception(exc)) if exc else "output check failed"
                print(f"trial failed: {what}: {detail}", file=sys.stderr)
        return ok


def timed_trial(workload, trial, tally: Tally, tracer: Tracer | None = None):
    """Run one trial; returns (wall seconds, output) or None if it failed."""
    try:
        if tracer is None:
            t0 = time.perf_counter()
            out = workload.run(trial)
            wall = time.perf_counter() - t0
        else:
            tracer.install()
            idx = tracer.begin_trial()
            try:
                out = workload.run(trial)
            finally:
                wall = tracer.end_trial(idx)
                tracer.uninstall()
        ok = workload.check(trial, out)
    except Exception as exc:  # a failing trial is counted, not fatal
        tally.record(False, f"{workload.name} {trial}", exc)
        return None
    return (wall, out) if tally.record(ok, f"{workload.name} {trial}") else None


def make_workload(name: str, seed: int, references: dict | None = None):
    workdir = OUT / f"{name}-{os.getpid()}"
    refs = references if references is not None else wl.load_references(name)
    return wl.WORKLOADS[name](seed, workdir, refs)


def measure_setup(name: str, seed: int, probes: int) -> tuple:
    """Median (calibrated, wall) seconds from the start of a fresh process,
    through importing aqml, generating the inputs and one untimed warm-up
    trial."""
    times, walls = [], []
    for _ in range(probes):
        before = load_factor()
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), "--setup-probe",
             "--workload", name, "--seed", str(seed)],
            stdout=subprocess.PIPE, text=True)
        with proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"setup probe for {name} failed (exit {proc.returncode})")
        walls.append(elapsed)
        # a probe is long next to the kernels, so both sides calibrate it
        times.append(elapsed / statistics.fmean((before, load_factor())))
    return statistics.median(times), statistics.median(walls)


def setup_probe(name: str, seed: int) -> int:
    workload = make_workload(name, seed)
    try:
        trial = workload.trials[0]
        ok = workload.check(trial, workload.run(trial))
    finally:
        shutil.rmtree(workload.workdir, ignore_errors=True)
    if not ok:
        return 1
    print("ready", flush=True)
    return 0


# --- untraced run -----------------------------------------------------------

def run_untraced(workload, seconds: float, tally: Tally, max_trials: int | None) -> dict:
    walls, factors = [], []
    t_start = time.perf_counter()
    calibrated_at = -CALIBRATION_INTERVAL_S
    i = 0
    while time.perf_counter() - t_start < seconds and (max_trials is None or i < max_trials):
        if time.perf_counter() - calibrated_at >= CALIBRATION_INTERVAL_S:
            factor = load_factor()
            calibrated_at = time.perf_counter()
        done = timed_trial(workload, workload.trials[i % len(workload.trials)], tally)
        i += 1
        if done is not None:
            walls.append(done[0])
            factors.append(factor)
    if not walls:
        raise RuntimeError("no trial completed")
    walls = np.array(walls)
    calibrated = walls / np.array(factors)
    metrics = {"load_factor": (float(np.median(factors)), "ratio")}
    for prefix, times in (("", calibrated), ("wall.", walls)):
        metrics[prefix + "trials_per_s"] = (len(times) / float(times.sum()), "1/s")
        metrics[prefix + "trial_s.p50"] = (float(np.percentile(times, 50)), "s")
        metrics[prefix + "trial_s.p90"] = (float(np.percentile(times, 90)), "s")
    return metrics


# --- traced run -------------------------------------------------------------

def run_traced(workload, seconds: float, tally: Tally, max_trials: int | None):
    """Alternate an untraced and a traced execution of each trial; return
    the per-layer metrics and the tracer holding every span."""
    counts = wl.new_tally()
    tracer = Tracer(wl.PACKAGE, wl.LAYERS, observers=wl.make_observers(counts))
    traced, untraced = [], []
    cpu0, t_start = time.process_time(), time.perf_counter()
    i = 0
    while (time.perf_counter() - t_start < seconds or i == 0) and (
            max_trials is None or i < max_trials):
        trial = workload.trials[i % len(workload.trials)]
        i += 1
        plain = timed_trial(workload, trial, tally)
        done = timed_trial(workload, trial, tally, tracer)
        if done is None:
            continue
        traced.append(done[0])
        for name, value in workload.counts(trial, done[1]).items():
            wl.add(counts, name, value)
        if plain is not None:
            untraced.append((plain[0], done[0]))
    cpu_wall = (time.process_time() - cpu0) / (time.perf_counter() - t_start)
    n = len(traced)
    if not n:
        raise RuntimeError("no traced trial completed")

    own = tracer.self_times()
    metrics = {}
    for label, (self_s, calls) in own.items():
        if label == ROOT_LABEL:
            continue
        metrics[f"{label}.self_s"] = (self_s / n, "s")
        metrics[f"{label}.calls"] = (calls / n, "count")
    for module in wl.LAYERS:
        parts = [v for label, v in own.items() if label.split(".")[0] == module]
        metrics[f"{module}.self_s"] = (sum(p[0] for p in parts) / n, "s")
        metrics[f"{module}.calls"] = (sum(p[1] for p in parts) / n, "count")
    for name, (total, events) in counts.items():
        kind, unit = wl.COUNTS[name]
        metrics[name] = (total / (n if kind == "sum" else max(events, 1)), unit)
    metrics["traced.trial_s"] = (sum(traced) / n, "s")
    metrics["traced.remainder_s"] = (own[ROOT_LABEL][0] / n, "s")
    plain_s = sum(p for p, _ in untraced)
    metrics["trace_overhead"] = (
        sum(t for _, t in untraced) / plain_s - 1.0 if plain_s else 0.0, "ratio")
    metrics["cpu_wall_ratio"] = (cpu_wall, "ratio")
    return metrics, tracer


def run_sweeps(seed: int, tally: Tally) -> dict:
    """One traced program call per size of every workload's sweep; records
    the self seconds of the modules that sweep is about.  Traced runs of
    every workload report all four sweeps."""
    metrics = {}
    for name, cls in wl.WORKLOADS.items():
        workload = cls(seed, OUT / f"sweep-{name}-{os.getpid()}", None)
        try:
            points = workload.sweep()
            # untraced warm-up, so the smallest size does not carry the
            # process's first-call costs
            points[0][1]()
            for size, call in points:
                tracer = Tracer(wl.PACKAGE, wl.LAYERS)
                tracer.install()
                idx = tracer.begin_trial()
                try:
                    ok = bool(call())
                except Exception as exc:  # counted like a failed trial
                    tally.record(False, f"sweep {name} {size}", exc)
                    continue
                finally:
                    tracer.end_trial(idx)
                    tracer.uninstall()
                tally.record(ok, f"sweep {name} {size}")
                own = tracer.self_times()
                for module in workload.sweep_modules:
                    metrics[f"sweep.{name}.{size}.{module}.self_s"] = (
                        sum(v[0] for label, v in own.items()
                            if label.split(".")[0] == module), "s")
        finally:
            shutil.rmtree(workload.workdir, ignore_errors=True)
    return metrics


# --- one workload -------------------------------------------------------------

def declared_metrics() -> tuple:
    """name -> unit of the end-to-end and of the per-layer metrics."""
    with open(BENCHMARK_JSON) as fh:
        spec = json.load(fh)
    return tuple({m["name"]: m["unit"] for m in spec[kind]}
                 for kind in ("end_to_end", "per_layer"))


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 probes: int = SETUP_PROBES, max_trials: int | None = None,
                 references: dict | None = None, sweep_metrics: dict | None = None):
    """Returns (result object for the last output line, every measured
    metric as name -> (value, unit), run record)."""
    tally = Tally()
    setup = measure_setup(name, seed, probes) if probes and not trace else None
    workload = make_workload(name, seed, references)
    try:
        warm = workload.trials[0]
        workload.check(warm, workload.run(warm))
        if trace:
            # the sweep counts against the run's seconds, so a traced run
            # takes as long as an untraced one
            t0 = time.perf_counter()
            if sweep_metrics is None:
                sweep_metrics = run_sweeps(seed, tally)
            window = seconds - (time.perf_counter() - t0)
            measured, tracer = run_traced(workload, window, tally, max_trials)
            measured.update(sweep_metrics)
            OUT.mkdir(exist_ok=True)
            tracer.save(OUT / f"spans-{name}.npz")
        else:
            measured = run_untraced(workload, seconds, tally, max_trials)
            if setup is not None:
                measured["setup_s"] = (setup[0], "s")
                measured["wall.setup_s"] = (setup[1], "s")
            rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            measured["peak_rss_mib"] = (rss / 1024.0, "MiB")
    finally:
        shutil.rmtree(workload.workdir, ignore_errors=True)
    measured["fail_frac"] = (tally.failed / max(tally.attempted, 1), "fraction")

    end_to_end, per_layer = declared_metrics()
    wanted = per_layer if trace else end_to_end
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        # a declared layer function the program no longer has ran 0 s
        "metrics": {m: {"value": measured.get(m, (0.0,))[0], "unit": unit}
                    for m, unit in wanted.items()},
    }
    return result, measured, run_record(name, seed, seconds, trace, tally.attempted)


def print_report(result: dict, measured: dict, record: dict) -> None:
    print(json.dumps({"run_record": record}, sort_keys=True))
    width = max(len(m) for m in measured)
    for m, (value, unit) in sorted(measured.items()):
        print(f"{record['workload']:14s} {m:{width}s} {value:.6g} {unit}")
    print(json.dumps(result))


# --- whole benchmark and self-test --------------------------------------------

def run_all(seed: int, seconds: int, trace: bool) -> int:
    """Every workload in its own process, one after the other."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in wl.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
            stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if not lines:
            print(f"{name}: no output (exit {proc.returncode})", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for m, v in result["metrics"].items():
            combined["metrics"][f"{name}.{m}"] = v
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def self_test() -> int:
    """A few trials of every workload: every declared metric is emitted, the
    layer self times account for the traced trial time, and a corrupted
    reference value is counted as a failed trial."""
    end_to_end, per_layer = declared_metrics()
    sweep_tally = Tally()
    sweeps = run_sweeps(0, sweep_tally)
    require(sweep_tally.failed == 0, "size sweep failed")
    for name in wl.WORKLOADS:
        result, measured, _ = run_workload(name, 0, 60, False, probes=1, max_trials=3)
        require(result["failed"] == 0, f"{name}: trial failed")
        wrong = [m for m, unit in end_to_end.items() if measured.get(m, (0, ""))[1] != unit]
        require(not wrong, f"{name}: end-to-end metrics missing or in other units: {wrong}")
        require("fail_frac" in measured, f"{name}: fail_frac not measured")

        result, measured, _ = run_workload(name, 0, 60, True, probes=0, max_trials=2,
                                           sweep_metrics=sweeps)
        require(result["failed"] == 0, f"{name}: traced trial failed")
        wrong = [m for m, unit in per_layer.items() if measured.get(m, (0, ""))[1] != unit]
        require(not wrong, f"{name}: per-layer metrics missing or in other units: {wrong}")
        layers = sum(measured[f"{m}.self_s"][0] for m in wl.LAYERS)
        total = measured["traced.trial_s"][0]
        gap = layers + measured["traced.remainder_s"][0] - total
        require(abs(gap) <= 1e-9 * total, f"{name}: self times miss {gap} s of the trial")

        refs = wl.load_references(name)
        first = make_workload(name, 0, refs)
        shutil.rmtree(first.workdir, ignore_errors=True)
        key = first.key(first.trials[0])
        refs[key] = _corrupt(refs[key])
        print(f"self-test {name}: corrupted reference, one failed trial expected", flush=True)
        result, measured, _ = run_workload(name, 0, 60, False, probes=0, max_trials=2,
                                           references=refs)
        require(result["failed"] == 1 and measured["fail_frac"][0] == 0.5,
                f"{name}: corrupted reference not counted: {result}")
        print(f"self-test {name}: ok", flush=True)
    print("self-test: ok")
    return 0


def require(ok: bool, message: str) -> None:
    if not ok:
        raise SystemExit(f"self-test failed: {message}")


def _corrupt(value):
    """The value with its first number moved by one part in a million."""
    if isinstance(value, dict):
        first = next(iter(value))
        return {**value, first: _corrupt(value[first])}
    if isinstance(value, list):
        return [_corrupt(value[0])] + value[1:]
    return value * (1 + 1e-6) + 1e-6


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*wl.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=28)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.self_test:
        return self_test()
    if args.workload is None:
        parser.error("--workload is required")
    if args.setup_probe:
        return setup_probe(args.workload, args.seed)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    result, measured, record = run_workload(args.workload, args.seed, args.seconds,
                                            bool(args.trace))
    print_report(result, measured, record)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

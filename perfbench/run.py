"""fedkme benchmark: one workload, timed end to end or traced layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports fedkme from ``src/``.  The
workloads are in ``common.py``.  One sample is one in-process ``fedkme run``
(``fedkme.cli.main``) of the workload's config with master seed N, so every
sample of a run does the same work and must write the same bytes.

Steps of a run:

1. set-up: ``prepare.py`` imports fedkme and writes the config, in a fresh
   interpreter, several times; ``setup_s`` is the median start-to-exit time;
2. warm-up: one run of the workload's tiny variant;
3. samples back to back (a closed loop, one client) until S seconds have
   passed; each sample's outputs are checked (``checks.py``) outside its
   timed region, and a sample that fails a check counts as failed, not fast;
4. ``qagg_objective`` and ``fw_gap`` are computed from the checked
   ``weights.csv`` (``objective.py``).

With ``--trace 1`` the samples alternate untraced and traced, and the traced
ones record spans around every layer (``spans.py``); the per-layer metrics
are per repetition, and ``trace.overhead_pct`` compares the two kinds.

Human-readable lines go first; the last line of standard output is one JSON
object with ``correct``, ``attempted`` and ``failed`` (in repetitions) and the
metrics.  The full record, machine included, goes to
``.bench_work/result-<workload>-seed<N>-trace<T>.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import checks
import common

SETUP_REPEATS = 11


@dataclass
class Sample:
    index: int
    traced: bool
    wall_s: float
    check: checks.SampleCheck


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(common.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke-test scale (self-tests only)")
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must fit in an unsigned 64-bit integer")
    return args


def _blas_threads_in_effect(np) -> str:
    libs_dir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libs_dir / "*openblas*")):
        lib = ctypes.CDLL(path)  # already loaded by numpy; this returns the same handle
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return str(fn())
    return "unknown"


def machine_info(np) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads_setting": common.BLAS_THREADS,
        "blas_threads_in_effect": _blas_threads_in_effect(np),
    }


def time_setup(workload: str, seed: int, tiny: bool) -> list[float]:
    """Start-to-exit wall time of ``prepare.py`` in a fresh interpreter."""
    cmd = [sys.executable, str(Path(__file__).with_name("prepare.py")), "--workload", workload, "--seed", str(seed)]
    if tiny:
        cmd.append("--tiny")
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return times


def run_sample(cfg_path: Path, out_dir: Path, threads: int) -> tuple[float, int]:
    """One ``fedkme run``; returns (wall seconds, exit code)."""
    from fedkme import cli

    shutil.rmtree(out_dir, ignore_errors=True)
    argv = ["run", "--config", str(cfg_path), "--out", str(out_dir), "--threads", str(threads)]
    sink = io.StringIO()  # main() prints the output paths
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        start = time.perf_counter()
        code = cli.main(argv)
        wall = time.perf_counter() - start
    return wall, code


@dataclass
class Measurement:
    samples: list[Sample]
    reference: Sample | None  # first sample that passed every check; its outputs are kept
    trace_sums: dict[str, float]
    not_traced: set[str]


def measure(workload, cfg, cfg_path: Path, work: Path, seconds: float, trace: bool) -> Measurement:
    """Samples back to back until ``seconds`` have passed; odd samples traced if ``trace``."""
    import spans

    m = Measurement([], None, {}, set())
    start = time.perf_counter()
    while len(m.samples) < (2 if trace else 1) or time.perf_counter() - start < seconds:
        index = len(m.samples)
        traced = trace and index % 2 == 1
        out_dir = work / f"sample{index}"
        if traced:
            tracer = spans.Tracer()
            with tracer.patched():
                wall, code = run_sample(cfg_path, out_dir, workload.threads)
            for key, value in spans.summarize(tracer, workload.threads).items():
                m.trace_sums[key] = m.trace_sums.get(key, 0.0) + value
            m.not_traced.update(tracer.missing)
        else:
            wall, code = run_sample(cfg_path, out_dir, workload.threads)
        check = checks.check_sample(cfg, code, out_dir)
        sample = Sample(index, traced, wall, check)
        if check.ok and m.reference is None:
            m.reference = sample
        elif check.ok and check.digests != m.reference.check.digests:
            check.errors.append(f"output bytes differ from sample {m.reference.index}")
        if sample is not m.reference:
            shutil.rmtree(out_dir, ignore_errors=True)
        m.samples.append(sample)
    return m


def timed(samples: list[Sample], traced: bool = False) -> list[Sample]:
    """The samples whose times count: the passing ones, or all if none passed."""
    kind = [s for s in samples if s.traced == traced]
    return [s for s in kind if s.check.ok] or kind


def median_wall(samples: list[Sample], traced: bool = False) -> float:
    return statistics.median(s.wall_s for s in timed(samples, traced))


def main(argv=None) -> int:
    args = parse_args(argv)
    common.pin_blas_threads()
    common.import_fedkme()

    import numpy as np

    import objective
    import spans
    from fedkme import cli

    spec = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    workload = common.WORKLOADS[args.workload]
    machine = machine_info(np)

    setup_times = time_setup(workload.name, args.seed, args.tiny)
    cfg_path = common.input_path(workload.name, args.tiny)
    cfg = cli.load_config(cfg_path)
    work = cfg_path.parent / f"seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    run_sample(common.write_inputs(workload, args.seed, tiny=True), work / "warmup", workload.threads)

    m = measure(workload, cfg, cfg_path, work, args.seconds, bool(args.trace))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    reps = cfg.repetitions
    attempted = len(m.samples) * reps
    failed = sum(reps if s.check.errors else min(s.check.error_rows, reps) for s in m.samples)
    ref_dir = work / f"sample{m.reference.index}" if m.reference else None
    comm = checks.comm_totals(ref_dir / "comm.csv") if ref_dir else {}
    notes = {}
    if args.trace:
        metrics = spans.per_layer(m.trace_sums, sum(1 for s in m.samples if s.traced) * reps)
        ratio = 0.0
        if ref_dir:
            rows = checks.read_results(ref_dir / "results.csv")
            mse = {k: statistics.fmean(float(r["mse_or_accuracy"]) for r in rows if r["method"] == k) for k in ("Qagg", "Oracle")}
            ratio = mse["Qagg"] / mse["Oracle"]
        metrics["models.mse_ratio_oracle"] = ratio
        for kind in ("rff_coefficients", "kme", "kernel_bound", "model_round_trip"):
            metrics[f"fedsim.scalars.{kind}"] = float(comm.get(kind, 0))
        traced_wall, untraced_wall = median_wall(m.samples, True), median_wall(m.samples)
        metrics["trace.overhead_pct"] = 100.0 * (traced_wall / untraced_wall - 1.0)
        # trace.self_sum_s matches the traced wall per repetition (times the
        # busy threads if a workload runs the pool with more than one)
        notes["traced_wall_per_rep_s"] = traced_wall / reps
        notes["untraced_wall_per_rep_s"] = untraced_wall / reps
    else:
        quality = {"qagg_objective": 0.0, "fw_gap": 0.0, "fw_gap_raw_median": 0.0}  # no sample passed
        if ref_dir:
            quality = objective.certify(cfg, checks.read_weights(ref_dir / "weights.csv"))
        notes["fw_gap_raw_median"] = quality["fw_gap_raw_median"]
        metrics = {
            "setup_s": statistics.median(setup_times),
            "targets_per_s": statistics.median(reps * cfg.agents / s.wall_s for s in timed(m.samples)),
            "run_s": median_wall(m.samples),
            "peak_rss_mb": peak_rss_mb,
            "comm_scalars": float(sum(comm.values())),
            "qagg_objective": quality["qagg_objective"],
            "fw_gap": quality["fw_gap"],
        }
    shutil.rmtree(work, ignore_errors=True)

    units = {entry["name"]: entry["unit"] for entry in spec["per_layer" if args.trace else "end_to_end"]}
    result = {
        "correct": m.reference is not None and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    shares = spans.layer_shares(m.trace_sums) if args.trace else {}

    print(f"machine: {' '.join(f'{k}={v}' for k, v in machine.items())}")
    print(f"workload {workload.name}: seed {args.seed}, threads {workload.threads}, "
          f"{len(m.samples)} samples x {reps} repetitions x {cfg.agents} targets, "
          f"{sum(1 for s in m.samples if s.traced)} traced")
    walls = sorted(s.wall_s for s in m.samples)
    print(f"  sample wall: min {walls[0]:.4f} s, median {statistics.median(walls):.4f} s, max {walls[-1]:.4f} s")
    for s in m.samples:
        if not s.check.ok:
            print(f"  sample {s.index} failed: {'; '.join(s.check.errors) or f'{s.check.error_rows} error rows'}")
    for name, digest in (m.reference.check.digests if m.reference else {}).items():
        print(f"  sha256 {name} {digest}")
    print(f"error_rate = {failed / attempted:.4f} ratio ({failed} of {attempted} repetitions failed)")
    for name, entry in result["metrics"].items():
        print(f"{name} = {entry['value']:.6g} {entry['unit']}")
    for name, value in notes.items():
        print(f"  ({name} = {value:.6g}, reported, not gated)")
    if shares:
        print("layer shares of traced self time: " + ", ".join(f"{k} {v:.1%}" for k, v in shares.items()))
    if m.not_traced:
        print(f"not traced (name not found): {', '.join(sorted(m.not_traced))}")

    record = {
        "workload": workload.name, "seed": args.seed, "trace": args.trace, "seconds": args.seconds,
        "tiny": args.tiny, "machine": machine, "threads": workload.threads,
        "config": workload.config_text(args.seed, args.tiny),
        "setup_times_s": setup_times,
        "samples": [
            {"index": s.index, "traced": s.traced, "wall_s": s.wall_s, "errors": s.check.errors,
             "error_rows": s.check.error_rows}
            for s in m.samples
        ],
        "digests": m.reference.check.digests if m.reference else {},
        "layer_shares": shares, "not_traced": sorted(m.not_traced), "notes": notes, **result,
    }
    result_path = common.WORK / f"result-{workload.name}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

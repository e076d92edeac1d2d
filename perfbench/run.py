#!/usr/bin/env python3
"""Benchmark of the logriesz package: certify, convolve, classify and cli.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one process
    python3 perfbench/run.py --workload cli --smoke    # minimal inputs

Run it from the root of a checkout.  The package is imported from ./src; BLAS
and OpenMP pools get one thread, here and in every child process.

With --trace 0 it prints the end-to-end metrics: setup_s (median of several
fresh processes that import, build the inputs and make one warm-up call)
and pass_ref_s (median pass time); both are scaled to the baseline host's
speed by a calibration loop timed around each spawn and each pass (see
reference_s), and the raw times are printed beside them.  With --trace 1
it spends half of --seconds untraced and half traced, and prints the
per-layer metrics (layers.py), the untraced call latencies api.call_ms_p50
and api.call_ms_p90, and trace.overhead_s, the traced minus the untraced
pass time.

The last stdout line is one JSON object {correct, attempted, failed, metrics}.
Exit status: 0 when every output checked out, 1 when a check failed, 2 when
the package cannot be imported from ./src or the arguments are wrong.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SETUP_SPAWNS = 3
# calibration_s() on the baseline host when no other tenant slows it down
REF_CALIBRATION_S = 0.011
SPAWN_TIMEOUT_S = 120


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=["certify", "convolve", "classify", "cli", "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--smoke", action="store_true", help="minimal inputs for each workload")
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def hermetic_environment():
    """One BLAS/OpenMP thread and the package from ./src, here and in children.

    Must run before numpy is first imported.
    """
    os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
                      PYTHONPATH=str(SRC))
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def load_package():
    """Import the benchmark's modules, which import logriesz from ./src."""
    import logriesz

    if Path(logriesz.__file__).resolve().parent.parent != SRC:
        raise ImportError(f"logriesz imported from {logriesz.__file__}, not from {SRC}")
    import layers
    import tracing
    import workloads
    return workloads, layers, tracing


def metadata():
    import numpy
    import scipy

    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        sha = proc.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": sha,
        "src_lines": sum(len(p.read_text().splitlines()) for p in sorted((SRC / "logriesz").glob("*.py"))),
    }


def setup_seconds(name, seed, smoke):
    """Set-up time of fresh processes, spawn to the end of the warm-up call.

    Returns the raw median and the median scaled to the baseline host's
    speed by the calibration times measured before and after each spawn.
    """
    argv = [sys.executable, __file__, "--workload", name, "--seed", str(seed), "--setup-only"]
    if smoke:
        argv.append("--smoke")
    raw, scaled = [], []
    before = calibration_s()
    for _ in range(1 if smoke else SETUP_SPAWNS):
        t0 = time.perf_counter()
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=SPAWN_TIMEOUT_S)
        raw.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"setup of {name} failed: {proc.stderr.strip()[-500:]}")
        after = calibration_s()
        scaled.append(raw[-1] * 2.0 * REF_CALIBRATION_S / (before + after))
        before = after
    return statistics.median(raw), statistics.median(scaled)


def calibration_s(reps=5):
    """Median time of a fixed loop that never touches logriesz.

    It mixes small numpy calls with dict and float work, as the workloads
    do, so that it slows down with them when other tenants load the host.
    """
    import numpy as np

    x = np.linspace(0.1, 1.0, 64)
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        total = 0.0
        for i in range(2000):
            total += float(np.sum(np.sin(x * i))) + math.sqrt(i)
        counts = {}
        for i in range(20000):
            counts[i % 97] = counts.get(i % 97, 0) + i
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def passes_for(workload, seconds):
    """Closed loop of whole passes, as many as bring the total nearest to `seconds`.

    At least one pass runs, so a workload whose pass outlasts `seconds`
    (certify) always measures exactly one.  The calibration loop runs before
    the first pass and after each, outside the pass times.
    """
    passes = []
    before = calibration_s()
    start = time.perf_counter()
    while not passes or (time.perf_counter() - start) * (1.0 + 0.5 / len(passes)) < seconds:
        ps = workload.run_pass(calibration_s)
        after = calibration_s()
        if not ps.calibrations:
            ps.calibrations = [before, after]
        passes.append(ps)
        before = after
    return passes


def reference_s(ps):
    """A pass's wall time scaled to the baseline host's speed.

    The factor is REF_CALIBRATION_S over the mean calibration time measured
    around the pass (and between its calls, for workloads whose calls last
    seconds).  On the baseline host the calibration time moves by a factor
    1.8 within minutes, and raw pass times move with it.
    """
    return ps.wall_s * REF_CALIBRATION_S / statistics.fmean(ps.calibrations)


def end_to_end(passes, setup_s):
    return {
        "setup_s": (setup_s, "s"),
        "pass_ref_s": (statistics.median(reference_s(ps) for ps in passes), "s"),
    }


def run_workload(pkg, name, args, tmpdir):
    """Measure one workload; returns (workload, metrics, passes, failure messages)."""
    W, layers, tracing = pkg
    kwargs = {"tmpdir": tmpdir} if name == "cli" else {}
    raw_setup_s, setup_s = (None, None) if args.trace else setup_seconds(name, args.seed, args.smoke)
    wl = W.WORKLOADS[name](args.seed, args.smoke, **kwargs)
    wl.warmup()
    if not args.trace:
        passes = passes_for(wl, args.seconds)
        print(f"{name} raw pass_s = {statistics.median(ps.wall_s for ps in passes)!r} s, "
              f"raw setup_s = {raw_setup_s!r} s, "
              f"calibration = {statistics.median(c for ps in passes for c in ps.calibrations) * 1e3!r} ms")
        return wl, end_to_end(passes, setup_s), passes, wl.check(passes)

    plain = passes_for(wl, args.seconds / 2.0)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = passes_for(wl, args.seconds / 2.0)
    finally:
        tracer.restore()
    metrics = layers.traced_metrics(tracer, len(traced))
    metrics.update(layers.call_percentiles(plain))
    metrics.update(layers.workload_metrics(wl, plain))
    metrics.update(layers.probe_metrics(args.seed, args.smoke, tmpdir))
    overhead = statistics.median(ps.wall_s for ps in traced) - statistics.median(ps.wall_s for ps in plain)
    metrics["trace.overhead_s"] = (overhead, "s")
    passes = plain + traced
    metrics["host.pass_s"] = (statistics.median(ps.wall_s for ps in plain), "s")
    metrics["host.calibration_ms"] = (statistics.median(c for ps in passes for c in ps.calibrations) * 1e3, "ms")
    return wl, metrics, passes, wl.check(passes)


def outcome(passes, failures):
    """(attempted, failed) operations of one workload."""
    return sum(ps.ops for ps in passes), sum(len(ps.errors) for ps in passes) + len(failures)


def summary(results, layers):
    """Per-workload headline figures under their own names, from an untraced --workload all run."""
    out = {}
    for name, (wl, metrics, passes, failures) in results.items():
        attempted, failed = outcome(passes, failures)
        out[f"setup_s.{name}"] = metrics["setup_s"]
        out[f"error_rate.{name}"] = (failed / attempted, "ratio")
        if name == "certify":
            out["certify_s"] = (statistics.median(ps.wall_s for ps in passes), "s")
        elif name == "convolve":
            calls = layers.call_percentiles(passes)
            out["convolve_ms_p50"] = calls["api.call_ms_p50"]
            out["convolve_ms_p90"] = calls["api.call_ms_p90"]
        elif name == "classify":
            sweep_s = statistics.median(ps.extra["sweep_s"] for ps in passes)
            out["classify_per_s"] = (len(wl.tuples) / sweep_s, "1/s")
        else:
            out.update((key.replace(".", "_"), value) for key, value in wl.layer_metrics(passes).items())
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    hermetic_environment()
    try:
        pkg = load_package()
    except ImportError as exc:
        print(f"cannot import the package from {SRC}: {exc}", file=sys.stderr)
        return 2

    if args.setup_only:
        pkg[0].WORKLOADS[args.workload](args.seed, args.smoke).warmup()
        return 0

    names = list(pkg[0].WORKLOADS) if args.workload == "all" else [args.workload]
    print("meta =", json.dumps(metadata()), flush=True)
    results = {}
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        for name in names:
            results[name] = run_workload(pkg, name, args, Path(tmp))

    attempted = failed = 0
    metrics = {}
    for name, (_, wl_metrics, passes, failures) in results.items():
        n_ops, n_failed = outcome(passes, failures)
        attempted += n_ops
        failed += n_failed
        messages = [e for ps in passes for e in ps.errors] + failures
        for msg in messages[:20]:
            print(f"FAILED {msg}", file=sys.stderr)
        if len(messages) > 20:
            print(f"FAILED ... {len(messages) - 20} more in {name}", file=sys.stderr)
        for key, (value, unit) in wl_metrics.items():
            print(f"{name} {key} = {value!r} {unit}")
            metrics[key if len(names) == 1 else f"{name}.{key}"] = {"value": value, "unit": unit}
    if len(names) > 1 and not args.trace:
        metrics = {key: {"value": value, "unit": unit} for key, (value, unit) in summary(results, pkg[1]).items()}
        for key, m in metrics.items():
            print(f"{key} = {m['value']!r} {m['unit']}")
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

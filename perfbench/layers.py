"""Per-layer metrics of a traced run.

The layers are the package's modules: convolution, ansatz, classifier and
cli (which covers import).  Counts are per traced pass and repeat exactly for
a given seed; times per call or per certificate are means, and the
classifier's per-side latencies are medians.  A layer the workload never
calls reads 0.

`call_percentiles` and `workload_metrics` read the untraced passes.
`probe_metrics` holds what is measured the same way on every workload,
outside the passes: import cost, the interpreter floor, the CLI's
convolve --out work per row and the two accuracy ratios.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import statistics
import subprocess
import sys
import time
from collections import defaultdict

import numpy as np

from logriesz import cli, convolution
from logriesz.ansatz import AnsatzParams, u_eval

import workloads
from tracing import Tracer

PROBE_SPAWNS = 3


def _mean(values):
    return sum(values) / len(values) if values else 0.0


def _median(values):
    return statistics.median(values) if values else 0.0


def traced_metrics(tracer: Tracer, n_passes: int) -> dict:
    spans = defaultdict(list)
    for sp in tracer.spans:
        spans[sp.name].append(sp)
    ang_calls, ang_s = tracer.leaves["angular_factor"]
    conv = spans["convolve_radial"]
    verify = spans["verify_supersolution"]
    n_verify = max(len(verify), 1)
    in_verify = [sp for sp in conv if sp.parent is not None and sp.parent.name == "verify_supersolution"]
    side = {"P+": [], "P-": []}
    for sp in spans["classify"]:
        side[sp.tag].append(sp.duration)
    return {
        "convolution.angular_factor_calls": (ang_calls / n_passes, "count"),
        "convolution.angular_factor_us": (ang_s / ang_calls * 1e6 if ang_calls else 0.0, "us"),
        "convolution.evaluations": (tracer.counters["evaluations"] / n_passes, "count"),
        "convolution.quad_calls": (tracer.leaves["quad"][0] / n_passes, "count"),
        "convolution.convolve_calls": (len(conv) / n_passes, "count"),
        "convolution.convolve_self_ms": (_mean([sp.self_s("angular_factor") for sp in conv]) * 1e3, "ms"),
        "convolution.potential_calls": (len(spans["newtonian_potential_radial"]) / n_passes, "count"),
        "convolution.potential_s": (sum(sp.duration for sp in spans["newtonian_potential_radial"]) / n_passes, "s"),
        "ansatz.potential_table_s": (sum(sp.duration for sp in spans["PotentialTable"]) / n_verify, "s"),
        "ansatz.table_eval_calls": (tracer.leaves["table_eval"][0] / n_passes, "count"),
        "ansatz.verify_convolutions": (len(in_verify) / n_verify, "count"),
        "ansatz.verify_conv_s": (sum(sp.duration for sp in in_verify) / n_verify, "s"),
        "ansatz.lambda_star_ms": (_mean([sp.duration for sp in spans["lambda_star"]]) * 1e3, "ms"),
        "ansatz.verify_self_s": (sum(sp.self_s() for sp in verify) / n_verify, "s"),
        "classifier.classify_pplus_us": (_median(side["P+"]) * 1e6, "us"),
        "classifier.classify_pminus_us": (_median(side["P-"]) * 1e6, "us"),
        "classifier.regime_table_ms": (_mean([sp.duration for sp in spans["emit_regime_table"]]) * 1e3, "ms"),
    }


def nearest_rank(values, q):
    ordered = sorted(values)
    return ordered[max(0, math.ceil(len(ordered) * q) - 1)] if ordered else 0.0


def call_percentiles(passes) -> dict:
    """Median and 90th percentile latency of the workload's own calls."""
    latencies = [t for ps in passes for t in ps.latencies if t is not None]
    return {
        "api.call_ms_p50": (_median(latencies) * 1e3, "ms"),
        "api.call_ms_p90": (nearest_rank(latencies, 0.9) * 1e3, "ms"),
    }


# Filled by Workload.layer_metrics on the one workload whose outputs give them.
WORKLOAD_ONLY = {
    "classifier.exists_share": "ratio",
    "classifier.tuples": "count",
    "cli.classify_s": "s",
    "cli.table_s": "s",
    "cli.convolve_s": "s",
}


def workload_metrics(wl, passes) -> dict:
    metrics = {name: (0.0, unit) for name, unit in WORKLOAD_ONLY.items()}
    metrics.update(wl.layer_metrics(passes))
    return metrics


def _spawn_s(code: str) -> tuple[float, str]:
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=workloads.CHILD_TIMEOUT_S, check=True)
    return time.perf_counter() - t0, proc.stdout


def _convolve_out_calls_per_row(tmpdir) -> float:
    tracer = Tracer()
    tracer.patch(convolution, "convolve_radial", tracer.span(convolution.convolve_radial, "convolve_radial"))
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(workloads.README_CONVOLVE + ["--out", str(tmpdir / "probe_rows.csv")])
    finally:
        tracer.restore()
    if code != 0:
        raise RuntimeError(f"cli convolve --out exited {code}")
    rows = json.loads(buf.getvalue())["result"]["rows"]
    return len(tracer.spans) / len(rows)


def u_max_relerr() -> float:
    """u_eval against u = asinh(r/sqrt(A))/r for (N, gamma, tau, A) = (3, 3, 0, 10)."""
    params = AnsatzParams(3, 3.0, 0.0, 10.0)
    radii = np.geomspace(1e-2, 1e9, 45)
    exact = np.arcsinh(radii / math.sqrt(params.A)) / radii
    got = np.array([u_eval(params, float(r)) for r in radii])
    return float(np.max(np.abs(got - exact) / exact))


def probe_metrics(seed: int, smoke: bool, tmpdir) -> dict:
    imports = [float(_spawn_s("import time; t = time.perf_counter(); import logriesz.cli; "
                              "print(time.perf_counter() - t)")[1]) for _ in range(PROBE_SPAWNS)]
    floor = [_spawn_s("import numpy")[0] for _ in range(PROBE_SPAWNS)]
    sweep = workloads.Convolve(seed, smoke)
    pairs = [(value, convolution.convolve_radial(*sweep.inputs(row)))
             for row, value, _ in sweep.oracle_rows()]
    hits = sum(abs(res.value - value) <= res.error_estimate for value, res in pairs)
    return {
        "cli.import_s": (statistics.median(imports), "s"),
        "cli.interpreter_floor_s": (statistics.median(floor), "s"),
        "cli.convolve_out_calls_per_row": (_convolve_out_calls_per_row(tmpdir), "calls/row"),
        "convolution.err_covered_ratio": (float(hits) / len(pairs), "ratio"),
        "convolution.oracle_rows": (float(len(pairs)), "count"),
        "ansatz.u_max_relerr": (u_max_relerr(), "ratio"),
    }

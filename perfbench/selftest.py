#!/usr/bin/env python3
"""Self-test of the benchmark.  Run from the root of a checkout:

    python3 perfbench/selftest.py

1. Every workload at smoke size, untraced and traced, exits 0 with
   correct = true and emits every metric BENCHMARK.json names, with its unit.
2. A wrong answer from the library fails the run: faults injected into
   convolve_radial, classify and verify_supersolution each make run.main
   return nonzero, and the CLI check rejects a bad envelope.
3. In a directory that holds only BENCHMARK.json and the benchmark, the run
   exits nonzero without printing a result.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TIMEOUT_S = 300


def _result(stdout: str):
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def check_metrics_emitted():
    run = [sys.executable, str(HERE / "run.py"), "--seed", "1", "--seconds", "1", "--smoke"]
    for workload in SPEC["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = subprocess.run(run + ["--workload", workload["name"], "--trace", str(trace)],
                                  cwd=ROOT, capture_output=True, text=True, timeout=TIMEOUT_S)
            res = _result(proc.stdout)
            where = f"{workload['name']} --trace {trace}"
            assert proc.returncode == 0 and res and res["correct"], f"{where}: {proc.stderr[-2000:]}"
            assert set(res) == {"correct", "attempted", "failed", "metrics"}, where
            assert res["attempted"] >= 1 and res["failed"] == 0, where
            want = {m["name"]: m["unit"] for m in SPEC[key]}
            got = {name: m["unit"] for name, m in res["metrics"].items()}
            assert got == want, f"{where}: metrics differ from BENCHMARK.json: {set(got) ^ set(want)}"
            assert all(isinstance(m["value"], (int, float)) for m in res["metrics"].values()), where
            print(f"ok   {where}: {len(got)} metrics", flush=True)


def _run_main(argv):
    import run

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = run.main(argv)
    return code, _result(out.getvalue())


@contextlib.contextmanager
def _patched(owner, attr, make):
    original = getattr(owner, attr)
    setattr(owner, attr, make(original))
    try:
        yield
    finally:
        setattr(owner, attr, original)


def check_faults_fail_the_run():
    sys.path.insert(0, str(HERE))
    import run

    run.hermetic_environment()
    from logriesz import ansatz, classifier, convolution
    from logriesz.errors import QuadratureFailure

    def off_by_1e_3(fn):
        def wrapped(*args, **kwargs):
            res = fn(*args, **kwargs)
            return dataclasses.replace(res, value=res.value * (1.0 + 1e-3))
        return wrapped

    def no_construction(fn):
        def wrapped(params):
            return dataclasses.replace(fn(params), construction=None)
        return wrapped

    def raises(fn):
        def wrapped(*args, **kwargs):
            raise QuadratureFailure("injected")
        return wrapped

    faults = (("convolve", convolution, "convolve_radial", off_by_1e_3),
              ("classify", classifier, "classify", no_construction),
              ("certify", ansatz, "verify_supersolution", raises))
    argv = ["--seed", "1", "--seconds", "0.1", "--trace", "0", "--smoke"]
    for workload, owner, attr, make in faults:
        with _patched(owner, attr, make):
            code, res = _run_main(argv + ["--workload", workload])
        assert code != 0 and res is not None and not res["correct"] and res["failed"] > 0, workload
        print(f"ok   {workload}: injected fault gives exit {code}, failed={res['failed']}", flush=True)

    import workloads

    bad_envelope = json.dumps({"command": "classify", "inputs": {}, "result": {}, "version": "0", "extra": 1})
    proc = subprocess.CompletedProcess([], 0, stdout=bad_envelope, stderr="")
    assert workloads.Cli.check_output("classify", proc, None), "cli check accepted an extra envelope key"
    print("ok   cli: check rejects an envelope with an extra key", flush=True)


def check_fails_without_package():
    with tempfile.TemporaryDirectory(prefix=".perfbench-selftest-", dir=ROOT) as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(HERE, Path(tmp) / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        proc = subprocess.run([sys.executable, str(Path(HERE.name) / "run.py"), "--workload", "convolve",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=tmp, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
    assert proc.returncode != 0 and _result(proc.stdout) is None, proc.stdout[-500:]
    print(f"ok   without ./src: exit {proc.returncode}, no result line", flush=True)


if __name__ == "__main__":
    check_fails_without_package()
    check_metrics_emitted()
    check_faults_fail_the_run()
    print("selftest passed")

"""Seeded workloads of the logriesz benchmark.

Every workload is a closed loop: one caller, one call at a time, no threads.
Inputs come from the seed alone.  A pass runs every input once and records
each call's latency and output; `check` then validates the outputs outside
the timed region and returns one message per failed operation.

Library functions are looked up through their module at call time
(`ansatz.verify_supersolution`, `convolution.convolve_radial`, ...), so the
tracer can wrap module attributes without the package being edited.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from scipy import integrate

from logriesz import ansatz, classifier, cli, convolution
from logriesz.ansatz import AnsatzParams
from logriesz.classifier import ProblemParams, Side, UClass, Verdict
from logriesz.convolution import ball_profile, power_profile, unit_sphere_area
from logriesz.kernel import KernelParams, approx_eq

ROOT = Path(__file__).resolve().parent.parent


@dataclass
class Pass:
    """One run over every input of a workload."""

    wall_s: float = 0.0
    ops: int = 0                                    # operations attempted
    calibrations: list = field(default_factory=list)  # host calibration times around the pass
    latencies: list = field(default_factory=list)   # seconds per input, None when it raised
    outputs: list = field(default_factory=list)     # per input, None when it raised
    errors: list = field(default_factory=list)      # messages of operations that raised
    extra: dict = field(default_factory=dict)


def _timed(fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - t0


class Workload:
    name = ""

    def __init__(self, seed: int):
        self.rng = random.Random(seed)

    def warmup(self) -> None:
        raise NotImplementedError

    def run_pass(self, calibrate) -> Pass:
        """One pass.  Workloads whose single calls last seconds also call
        `calibrate()` before and after each call, outside the timed calls,
        and keep the results in Pass.calibrations."""
        raise NotImplementedError

    def check(self, passes: list[Pass]) -> list[str]:
        raise NotImplementedError

    def layer_metrics(self, passes: list[Pass]) -> dict:
        """Per-layer metrics that only this workload's outputs can give."""
        return {}


# ---------------------------------------------------------------------------
# certify


# (case id, N, alpha, beta, p, q, S at the seed commit 073b213)
CERTIFY_CASES = (
    ("2", 3, 1.0, -1.5, 2.0, 4.0, 74.35884089844578),
    ("1a", 5, 1.0, 1.0, 1.5, 2.0, 48.914662496998034),
    ("T4-2", 3, 3.0, 1.0, 4.0, 1.0, 154.3295567113246),
)
# The convolutions run at rel_tol 1e-8 and the potential table is off by
# ~6e-7, so a correct reimplementation moves S far less than this.
S_REL_TOL = 1e-4


class Certify(Workload):
    """verify_supersolution on criterion-08 cases 2, 1a (N=5) and T4-2."""

    name = "certify"

    def __init__(self, seed, smoke):
        super().__init__(seed)
        rows = [c for c in CERTIFY_CASES if c[0] == "1a"] if smoke else list(CERTIFY_CASES)
        self.rng.shuffle(rows)
        self.cases = []
        for case_id, N, alpha, beta, p, q, s_seed in rows:
            case = ansatz.choose_case_params(case_id, N, alpha, beta, p, q)
            self.cases.append((case, KernelParams(N, alpha, beta), p, q, s_seed))

    def warmup(self):
        case, kernel, _, _, _ = self.cases[0]
        ansatz.lambda_star(AnsatzParams(kernel.N, case.gamma, case.tau, 10.0))
        convolution.convolve_radial(kernel, ball_profile(1.0), 1.0)

    def run_pass(self, calibrate):
        out = Pass(calibrations=[calibrate()])
        t0 = time.perf_counter()
        for case, kernel, p, q, _ in self.cases:
            try:
                report, dt = _timed(ansatz.verify_supersolution, case, kernel, p, q)
            except Exception as exc:  # a failed operation is counted, not fatal
                out.errors.append(f"certify {case.case_id}: {exc!r}")
                report, dt = None, None
            out.latencies.append(dt)
            out.outputs.append(report)
            out.calibrations.append(calibrate())
        out.wall_s = time.perf_counter() - t0 - sum(out.calibrations[1:])
        out.ops = len(self.cases)
        return out

    def check(self, passes):
        bad = []
        for ps in passes:
            for (case, _, _, _, s_seed), rep in zip(self.cases, ps.outputs):
                if rep is None:
                    continue
                if not (rep.passed and rep.stable and math.isfinite(rep.S)
                        and abs(rep.S - s_seed) <= S_REL_TOL * s_seed):
                    bad.append(f"certify {case.case_id}: passed={rep.passed} "
                               f"stable={rep.stable} S={rep.S!r}, seed S={s_seed!r}")
        return bad


# ---------------------------------------------------------------------------
# convolve


# Irrational multipliers that pair the parameter strata the same way for every seed.
GOLDEN = tuple(math.sqrt(p) % 1.0 for p in (2, 3, 5, 7, 11, 13))


class Convolve(Workload):
    """Stratified sweep over N, three profile regimes, radii and kernel/profile parameters.

    Per (N, regime), row k takes each parameter from a fixed one of `per`
    equal strata (k times an irrational, mod 1) at a seeded point inside it,
    so two seeds give different inputs with the same mix of cost.
    """

    name = "convolve"
    REGIMES = ("compact", "fast", "critical")

    def __init__(self, seed, smoke):
        super().__init__(seed)
        per = 1 if smoke else 12
        self.rows = []
        for N in (3, 4, 5):
            for regime in self.REGIMES:
                for k in range(per):
                    u = [(math.floor(((k + 0.5) * g) % 1.0 * per) + self.rng.random()) / per for g in GOLDEN]
                    self.rows.append(self._row(N, regime, k, u))

    @staticmethod
    def _row(N, regime, k, u):
        ur, ua, ub, us, uk, uA = u
        r = 10.0 ** (-2.0 + 8.0 * ur)
        alpha = 0.5 + (N - 1.0) * ua
        if regime == "compact":
            kind = ("newton", "mass", "log")[k % 3]
            if kind == "newton":
                alpha, beta = N - 2.0, 0.0
            elif kind == "mass":
                alpha, beta = 0.0, 0.0
            else:
                lo = max(-0.5, alpha - N + 0.3)
                beta = lo + (1.0 - lo) * ub
            return dict(N=N, regime=regime, kind=kind, alpha=alpha, beta=beta,
                        profile=("ball", 1.0), r=r)
        A = 2.0 + 18.0 * uA
        if regime == "fast":
            kind = ("mass", "log", "log")[k % 3]
            lo = max(-0.5, alpha - N + 0.3)
            alpha, beta = (0.0, 0.0) if kind == "mass" else (alpha, lo + (1.0 - lo) * ub)
            profile = ("power", N + 0.5 + 2.0 * us, -1.0 + 2.0 * uk, A)
        else:
            # sigma = N - alpha with 1 + beta + kappa < 0: finite, slow log tail
            kind = "log"
            lo = max(-0.8, alpha - N + 0.3)
            beta = lo + (0.5 - lo) * ub
            profile = ("power", N - alpha, -(1.0 + beta) - 0.3 - 1.2 * uk, A)
        return dict(N=N, regime=regime, kind=kind, alpha=alpha, beta=beta,
                    profile=profile, r=r)

    @staticmethod
    def inputs(row):
        shape = row["profile"]
        f = ball_profile(shape[1]) if shape[0] == "ball" else power_profile(*shape[1:])
        return KernelParams(row["N"], row["alpha"], row["beta"]), f, row["r"]

    def warmup(self):
        convolution.convolve_radial(*self.inputs(self.rows[0]))

    def run_pass(self, calibrate):
        out = Pass()
        inputs = [self.inputs(row) for row in self.rows]
        t0 = time.perf_counter()
        for row, (kernel, f, r) in zip(self.rows, inputs):
            try:
                res, dt = _timed(convolution.convolve_radial, kernel, f, r)
            except Exception as exc:
                out.errors.append(f"convolve {row}: {exc!r}")
                res, dt = None, None
            out.latencies.append(dt)
            out.outputs.append(res)
        out.wall_s = time.perf_counter() - t0
        out.ops = len(self.rows)
        return out

    @staticmethod
    def oracle(row):
        """Closed-form value and its tolerance, or None for rows without one.

        alpha = N-2, beta = 0 on the unit ball is the Newtonian potential
        |S^(N-1)| (1/2 - (N-2) r^2 / (2N)) inside and |S^(N-1)| r^(2-N) / N
        outside, which is (4 pi/3)/r at N = 3 (criterion 03, 1e-6).  alpha = 0
        gives the total mass at every radius (criterion 04, 1e-8).
        """
        N, r, shape = row["N"], row["r"], row["profile"]
        area = unit_sphere_area(N)
        if row["kind"] == "newton":
            value = area / N * r ** (2 - N) if r >= 1.0 else area * (0.5 - (N - 2) * r * r / (2.0 * N))
            return value, 1e-6
        if row["kind"] != "mass":
            return None
        if shape[0] == "ball":
            return area * shape[1] ** N / N, 1e-8
        _, sigma, kappa, A = shape
        mass = integrate.quad(lambda s: s ** (N - 1) * (A + s) ** -sigma * math.log(A + s) ** kappa,
                              0.0, math.inf, epsabs=0.0, epsrel=1e-11, limit=500)[0]
        return area * mass, 1e-8

    def oracle_rows(self):
        return [(row, *o) for row in self.rows if (o := self.oracle(row)) is not None]

    def check(self, passes):
        oracles = {id(row): (value, tol) for row, value, tol in self.oracle_rows()}
        bad = []
        for ps in passes:
            for row, res in zip(self.rows, ps.outputs):
                if res is None:
                    continue
                ok = (not res.divergent and math.isfinite(res.value) and res.value > 0.0
                      and math.isfinite(res.error_estimate) and res.error_estimate >= 0.0)
                if ok and id(row) in oracles:
                    value, tol = oracles[id(row)]
                    ok = abs(res.value - value) <= tol * value
                if not ok:
                    bad.append(f"convolve {row}: value={res.value!r} err={res.error_estimate!r}")
        return bad


# ---------------------------------------------------------------------------
# classify


class Classify(Workload):
    """100k (side, u_class, N, p, q, alpha, beta) tuples plus two regime tables.

    About one tuple in ten puts p, q or p+q exactly on a rational threshold
    t1 = (N-alpha)/(N-2), tN = N/(N-2) or t2 = (2N-alpha)/(N-2), so the
    equality rows and choose_case_params run.
    """

    name = "classify"

    def __init__(self, seed, smoke):
        super().__init__(seed)
        n = 1000 if smoke else 100_000
        self.tuples = [self._tuple() for _ in range(n)]

    def _tuple(self):
        rng = self.rng
        side = Side.PPLUS if rng.random() < 0.7 else Side.PMINUS
        u_class = rng.choice(tuple(UClass))
        N = rng.choice((3, 4, 5))

        def expo():
            return math.exp(rng.uniform(math.log(0.25), math.log(8.0)))

        p, q = expo(), expo()
        if rng.random() < 0.1:
            alpha = rng.choice((0.5, 1.0, 1.5, 2.0))
            t1, tn, t2 = (N - alpha) / (N - 2.0), N / (N - 2.0), (2.0 * N - alpha) / (N - 2.0)
            pick = rng.randrange(5)
            if pick == 0:
                p = t1
            elif pick == 1:
                p = tn
            elif pick == 2:
                q = t1
            elif pick == 3:
                q = tn
            else:
                p = rng.uniform(0.1, t2 - 0.1)
                q = t2 - p
            betas = [b for b in (-2.5, -2.0, -1.5, -1.0, -0.5, 0.5) if b > alpha - N]
            beta = rng.choice(betas) if rng.random() < 0.5 else rng.uniform(max(alpha - N, -3.0) + 1e-3, 2.0)
        else:
            if side is Side.PMINUS:
                alpha = rng.uniform(0.05, N - 0.05)
            elif rng.random() < 0.05:
                alpha = float(N)
            else:
                alpha = rng.uniform(0.0, N)
            beta = rng.uniform(max(alpha - N, -3.0) + 1e-3, 3.0)
        return ProblemParams(side, N, p, q, alpha, beta, u_class=u_class)

    def warmup(self):
        classifier.classify(self.tuples[0])

    def run_pass(self, calibrate):
        out = Pass()
        lat = out.latencies
        t0 = time.perf_counter()
        for params in self.tuples:
            t = time.perf_counter()
            try:
                decision = classifier.classify(params)
                lat.append(time.perf_counter() - t)
            except Exception as exc:
                out.errors.append(f"classify {params}: {exc!r}")
                decision = None
                lat.append(None)
            out.outputs.append(decision)
        sweep = time.perf_counter() - t0
        tables = []
        for N in (3, 5):
            try:
                tables.append(classifier.emit_regime_table(N))
            except Exception as exc:
                out.errors.append(f"emit_regime_table({N}): {exc!r}")
        out.wall_s = time.perf_counter() - t0
        out.ops = len(self.tuples) + 2
        out.extra = {"sweep_s": sweep, "tables": tables}
        return out

    @staticmethod
    def pminus_oracle(params):
        if params.p >= 1.0 or approx_eq(params.p, 1.0):
            return Verdict.NOT_EXISTS, "Thm1(i)"
        return {UClass.BOUNDED: (Verdict.NOT_EXISTS, "Thm1(ii)"),
                UClass.RADIAL: (Verdict.NOT_EXISTS, "Thm1(iii)")}.get(
                    params.u_class, (Verdict.OPEN, "uncharted"))

    def layer_metrics(self, passes):
        decisions = passes[-1].outputs
        exists = sum(d is not None and d.verdict is Verdict.EXISTS for d in decisions)
        return {"classifier.exists_share": (exists / len(decisions), "ratio"),
                "classifier.tuples": (float(len(decisions)), "count")}

    def check(self, passes):
        bad = []
        for params in self.tuples:
            if params.side is Side.PPLUS and not approx_eq(params.alpha, float(params.N)):
                args = (params.N, params.p, params.q, params.alpha, params.beta)
                if classifier.thm2_clause(*args) and classifier.thm3_clause(*args):
                    bad.append(f"classify {params}: Thm2 and Thm3 both fire")
        first = [None if d is None else (d.verdict, d.clause) for d in passes[0].outputs]
        for ps in passes:
            for params, d, ref in zip(self.tuples, ps.outputs, first):
                if d is None:
                    continue
                if d.verdict is Verdict.EXISTS and d.construction is None:
                    bad.append(f"classify {params}: Exists without a construction")
                elif (d.verdict, d.clause) != ref:
                    bad.append(f"classify {params}: verdict changed between passes")
                elif params.side is Side.PMINUS and (d.verdict, d.clause) != self.pminus_oracle(params):
                    bad.append(f"classify {params}: got {d.verdict.value}/{d.clause}")
            for records in ps.extra["tables"]:
                bad.extend(f"table row {rec.row_id} at alpha={rec.alpha}: {rec.clause}"
                           for rec in records if not rec.match)
        return bad


# ---------------------------------------------------------------------------
# cli


README_CLASSIFY = ["classify", "--side", "P+", "--N", "3", "--p", "2", "--q", "4",
                   "--alpha", "1", "--beta", "-1.5"]
README_TABLE = ["table", "--N", "3"]
README_CONVOLVE = ["convolve", "--N", "3", "--alpha", "1", "--beta", "0",
                   "--profile", "ball:1", "--radii", "1:1e3:7"]
ENVELOPE_KEYS = {"command", "inputs", "result", "version"}
CHILD_TIMEOUT_S = 60


def run_cli(args):
    """One fresh CLI process; it inherits the benchmark's hermetic environment."""
    return subprocess.run([sys.executable, "-m", "logriesz.cli", *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)


class Cli(Workload):
    """The three README commands, each a fresh `python -m logriesz.cli` process.

    The order of the commands in each round is drawn from the seed.
    """

    name = "cli"

    def __init__(self, seed, smoke, tmpdir=ROOT):
        super().__init__(seed)
        self.csv_path = Path(tmpdir) / "rows.csv"
        self.commands = {
            "classify": README_CLASSIFY,
            "table": README_TABLE,
            "convolve": README_CONVOLVE + ["--out", str(self.csv_path)],
        }

    def warmup(self):
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(README_CLASSIFY)

    def run_pass(self, calibrate):
        """One round; latencies and outputs are stored in self.commands order."""
        names = list(self.commands)
        out = Pass(latencies=[None] * len(names), outputs=[None] * len(names), ops=len(names))
        order = names[:]
        self.rng.shuffle(order)
        t0 = time.perf_counter()
        for name in order:
            self.csv_path.unlink(missing_ok=True)
            try:
                proc, dt = _timed(run_cli, self.commands[name])
            except Exception as exc:
                out.errors.append(f"cli {name}: {exc!r}")
                continue
            i = names.index(name)
            out.latencies[i] = dt
            out.outputs[i] = (name, proc, self._read_csv())
        out.wall_s = time.perf_counter() - t0
        return out

    def _read_csv(self):
        try:
            with open(self.csv_path, newline="") as fh:
                return list(csv.reader(fh))
        except FileNotFoundError:
            return None

    @staticmethod
    def check_output(name, proc, csv_rows):
        """Return a failure message, or None when the command's output is right."""
        if proc.returncode != 0:
            return f"exit code {proc.returncode}: {proc.stderr.strip()[-300:]}"
        try:
            env = json.loads(proc.stdout)
        except json.JSONDecodeError as exc:
            return f"stdout is not a JSON envelope: {exc}"
        if set(env) != ENVELOPE_KEYS or env["command"] != name:
            return f"envelope keys {sorted(env)} for command {env.get('command')!r}"
        result = env["result"]
        if name == "classify":
            if (result["verdict"], result["clause"]) != ("Exists", "Thm3(ii)") or not result["construction"]:
                return f"classify result {result}"
        elif name == "table":
            if not (result["all_match"] and result["records"]):
                return "regime table mismatch"
        else:
            rows = result["rows"]
            if csv_rows is None or csv_rows[0] != ["r", "value", "error_estimate"]:
                return "convolve --out wrote no CSV header"
            table = [[float(x) for x in line] for line in csv_rows[1:]]
            if table != [[row["r"], row["value"], row["error_estimate"]] for row in rows]:
                return "CSV rows differ from JSON rows"
            mass = 4.0 * math.pi / 3.0
            if len(rows) != 7 or any(abs(row["value"] - mass / max(row["r"], 1.0)) > 1e-6 * mass / row["r"]
                                     for row in rows):
                return "convolve rows miss the unit-ball oracle"
        return None

    def layer_metrics(self, passes):
        """Median latency of each command over the rounds."""
        return {f"cli.{name}_s": (statistics.median(t for ps in passes if (t := ps.latencies[i]) is not None), "s")
                for i, name in enumerate(self.commands)}

    def check(self, passes):
        bad = []
        for ps in passes:
            for output in ps.outputs:
                if output is not None and (msg := self.check_output(*output)):
                    bad.append(f"cli {output[0]}: {msg}")
        return bad


WORKLOADS = {cls.name: cls for cls in (Certify, Convolve, Classify, Cli)}

"""Verdict logic for the damped and driven inequalities."""

import ast
import collections
import dataclasses
import hashlib
import itertools
import json
import math
import os
import random
import subprocess
import sys
import textwrap

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logriesz import (
    HypothesisViolated,
    InvalidBeta,
    ParameterError,
    ProblemParams,
    Side,
    UClass,
    Verdict,
    choose_case_params,
    classifier,
    classify_pminus,
    classify_pplus,
    emit_regime_table,
    thm2_clause,
    thm3_clause,
)

EXISTS_NOTE = "for some sufficiently large lambda > 0"
NOT_EXISTS_NOTE = "for every lambda > 0"


def pplus(N, p, q, alpha, beta):
    return classify_pplus(ProblemParams(Side.PPLUS, N, p, q, alpha, beta))


class TestDampedSide:
    def test_large_p_has_no_supersolution(self):
        d = classify_pminus(ProblemParams(Side.PMINUS, 3, 2.0, 1.0, 1.0, 0.0))
        assert d.verdict == Verdict.NOT_EXISTS
        assert d.clause == "Thm1(i)"
        assert d.note == NOT_EXISTS_NOTE

    def test_small_p_bounded_class(self):
        d = classify_pminus(
            ProblemParams(Side.PMINUS, 3, 0.5, 1.0, 1.0, 0.0, u_class=UClass.BOUNDED)
        )
        assert d.verdict == Verdict.NOT_EXISTS
        assert d.clause == "Thm1(ii)"

    def test_small_p_radial_class(self):
        d = classify_pminus(
            ProblemParams(Side.PMINUS, 3, 0.5, 1.0, 1.0, 0.0, u_class=UClass.RADIAL)
        )
        assert d.verdict == Verdict.NOT_EXISTS
        assert d.clause == "Thm1(iii)"

    def test_small_p_general_class_unresolved(self):
        d = classify_pminus(ProblemParams(Side.PMINUS, 3, 0.5, 1.0, 1.0, 0.0))
        assert d.verdict == Verdict.OPEN
        assert d.clause == "uncharted"
        assert d.to_dict() == {
            "verdict": "Open",
            "clause": "uncharted",
            "note": "p < 1 with unbounded non-radial u is unresolved",
            "construction": None,
        }

    def test_requires_interior_alpha(self):
        for alpha in (0.0, 3.0):
            with pytest.raises(HypothesisViolated):
                classify_pminus(ProblemParams(Side.PMINUS, 3, 2.0, 1.0, alpha, 0.5))


# N = 3 instances pinned one per clause; (p, q, alpha, beta) -> clause, verdict
N3_CLAUSE_TABLE = [
    ((1.0, 0.5, 0.0, -2.4), "Thm2(ii)", Verdict.NOT_EXISTS),
    ((1.0, 0.5, 2.0, -0.8), "Thm2(iii)", Verdict.NOT_EXISTS),
    ((1.0, 0.5, 2.5, 0.0), "Thm2(iv)", Verdict.NOT_EXISTS),
    ((1.0, 2.5, 2.5, 0.0), "Thm2(v)", Verdict.NOT_EXISTS),
    ((0.5, 1.5, 0.0, -2.4), "Thm2(vi)", Verdict.NOT_EXISTS),
    ((0.5, 2.0, 1.0, 0.0), "Thm2(vii)", Verdict.NOT_EXISTS),
    ((3.0, 2.0, 1.0, -0.8), "Thm2(viii)", Verdict.NOT_EXISTS),
    ((2.0, 3.0, 1.0, -1.5), "Thm2(ix)", Verdict.NOT_EXISTS),
    ((0.5, 3.0, 2.9, 0.0), "Thm3(i)", Verdict.EXISTS),
    ((2.0, 4.0, 1.0, -1.5), "Thm3(ii)", Verdict.EXISTS),
    ((4.0, 2.0, 1.0, -1.5), "Thm3(iii)", Verdict.EXISTS),
    ((2.5, 2.5, 1.0, -1.5), "Thm3(iv)", Verdict.EXISTS),
    ((2.5, 3.0, 0.5, -2.4), "Thm3(v)", Verdict.EXISTS),
    ((3.0, 2.5, 0.5, -2.4), "Thm3(vi)", Verdict.EXISTS),
    ((5.0, 1.0, 0.0, -2.4), "Cor1.5(i)", Verdict.NOT_EXISTS),
    ((4.0, 1.0, 2.0, 1.0), "Cor1.5(ii)", Verdict.NOT_EXISTS),
    ((1.5, 2.5, 2.0, -0.8), "Table1-row1", Verdict.OPEN),
    ((2.0, 3.0, 1.0, -1.9), "Table1-row2", Verdict.OPEN),
    ((3.0, 2.0, 1.0, -1.5), "Table1-row3", Verdict.OPEN),
    ((4.0, 2.0, 1.0, -0.8), "Table1-row4", Verdict.OPEN),
    ((4.0, 1.0, 1.0, -1.5), "Table1-row5", Verdict.OPEN),
    ((4.0, 0.5, 2.0, -0.8), "Table1-row6", Verdict.OPEN),
    ((0.5, 0.5, 0.0, -2.4), "uncharted", Verdict.OPEN),
]


class TestDrivenSide:
    def test_low_dimension_always_fails(self):
        d = pplus(2, 2.0, 2.0, 1.0, 0.0)
        assert d.verdict == Verdict.NOT_EXISTS
        assert d.clause == "Thm2(i)"

    def test_small_p_window_in_dimension_five(self):
        d = pplus(5, 7.0 / 6.0, 1.0, 1.0, 0.0)
        assert d.verdict == Verdict.NOT_EXISTS
        assert d.clause == "Thm2(ii)"

    @pytest.mark.parametrize("tup,clause,verdict", N3_CLAUSE_TABLE)
    def test_clause_instances(self, tup, clause, verdict):
        p, q, alpha, beta = tup
        d = pplus(3, p, q, alpha, beta)
        assert d.clause == clause
        assert d.verdict == verdict
        if verdict == Verdict.EXISTS:
            assert d.construction is not None
            assert d.note == EXISTS_NOTE
        elif verdict == Verdict.NOT_EXISTS:
            assert d.construction is None
            assert d.note == NOT_EXISTS_NOTE

    def test_existence_decision_carries_construction(self):
        d = pplus(3, 2.0, 4.0, 1.0, -1.5)
        assert d.construction.case_id == "2"
        dd = d.to_dict()
        assert set(dd["construction"]) == {"case_id", "gamma", "tau", "constraint_notes"}
        assert 2.0 < dd["construction"]["gamma"] <= 3.0
        assert -1.0 < dd["construction"]["tau"] < 1.0

    def test_endpoint_kernel_family(self):
        d = pplus(3, 2.0, 1.5, 3.0, 1.0)
        assert (d.verdict, d.clause) == (Verdict.EXISTS, "Thm4")
        assert d.construction.case_id == "T4-1"

        d = pplus(3, 4.0, 1.0, 3.0, 1.0)
        assert (d.verdict, d.clause) == (Verdict.EXISTS, "Thm4")
        assert d.construction.case_id == "T4-2"

        d = pplus(3, 2.0, 0.5, 3.0, 1.0)
        assert (d.verdict, d.clause) == (Verdict.NOT_EXISTS, "Thm4")

        d = pplus(3, 0.5, 1.0, 3.0, 1.0)
        assert d.verdict == Verdict.OPEN

    def test_rejects_nonpositive_exponents(self):
        with pytest.raises(ParameterError):
            pplus(3, -1.0, 2.0, 1.0, 0.0)
        with pytest.raises(ParameterError):
            pplus(3, 2.0, 0.0, 1.0, 0.0)

    def test_rejects_inadmissible_kernel(self):
        with pytest.raises(InvalidBeta):
            pplus(3, 2.0, 2.0, 1.0, -2.5)

    def test_alpha_decided_as_n_is_validated_as_n(self):
        # alpha within 1e-12 of N takes the alpha = N branch, whose kernel needs beta > 0
        with pytest.raises(InvalidBeta):
            pplus(3, 2.0, 1.5, 3 - 1e-13, -5e-14)


@given(
    alpha=st.floats(0.0, 3.0),
    beta_off=st.floats(0.01, 4.0),
    p=st.floats(0.1, 8.0),
    q=st.floats(0.1, 8.0),
)
@settings(max_examples=400, deadline=None)
def test_nonexistence_and_existence_clauses_never_overlap(alpha, beta_off, p, q):
    beta = alpha - 3.0 + beta_off
    c2 = thm2_clause(3, p, q, alpha, beta)
    c3 = thm3_clause(3, p, q, alpha, beta)
    assert c2 is None or c3 is None


@given(
    alpha=st.floats(0.0, 3.0),
    beta_off=st.floats(0.01, 4.0),
    p=st.floats(0.1, 8.0),
    q=st.floats(0.1, 8.0),
)
@settings(max_examples=300, deadline=None)
def test_decisions_are_internally_consistent(alpha, beta_off, p, q):
    beta = alpha - 3.0 + beta_off
    d = pplus(3, p, q, alpha, beta)
    if d.verdict == Verdict.EXISTS:
        assert d.construction is not None
        assert d.note == EXISTS_NOTE
    elif d.verdict == Verdict.NOT_EXISTS:
        assert d.construction is None
        assert d.note == NOT_EXISTS_NOTE
    else:
        assert d.verdict == Verdict.OPEN


CASE_IDS = ("1a", "1b", "2", "3", "4", "5", "6", "T4-1", "T4-2")
NEAR = (-1e-13, 0.0, 1e-13)  # relative offsets inside the 1e-12 comparison tolerance


@pytest.mark.parametrize("N", (3, 4, 5))
@pytest.mark.parametrize("alpha", (0.5, 1.0, 2.0, None))
def test_case_hypotheses_agree_with_classifier_near_thresholds(N, alpha):
    """On and next to t1, tN and t2, a case that choose_case_params accepts is an
    Exists verdict, and an Exists verdict's construction is what it returns."""
    alpha = float(N) if alpha is None else alpha
    t1, tn, t2 = (N - alpha) / (N - 2.0), N / (N - 2.0), (2.0 * N - alpha) / (N - 2.0)
    free = (0.8, 1.0, 2.5, 4.5)
    ps = [t * (1.0 + e) for t in (t1, tn) for e in NEAR] + list(free)
    betas = [b * (1.0 + e) for b in (-2.0, -1.0) for e in NEAR] + [-3.0, -1.5, -0.5, 0.5, 1.0]
    checked = 0
    for p, beta in itertools.product(ps, betas):
        if not (p > 0.0 and beta > alpha - N):
            continue
        qs = [t * (1.0 + e) for t in (t1, tn) for e in NEAR] + list(free)
        qs += [t2 * (1.0 + e) - p for e in NEAR]
        for q in (q for q in qs if q > 0.0):
            decision = classify_pplus(ProblemParams(Side.PPLUS, N, p, q, alpha, beta))
            for case_id in CASE_IDS:
                try:
                    choose_case_params(case_id, N, alpha, beta, p, q)
                except ParameterError:
                    continue
                assert decision.verdict is Verdict.EXISTS, (case_id, N, alpha, beta, p, q, decision)
            if decision.verdict is Verdict.EXISTS:
                case = decision.construction
                assert choose_case_params(case.case_id, N, alpha, beta, p, q) == case
                checked += 1
    assert checked > 0


def test_classifier_imports_only_the_decision_layer():
    """The decision layer stays free of the numerical stack (ansatz, convolution, scipy)."""
    with open(classifier.__file__) as fh:
        tree = ast.parse(fh.read())
    package = {node.module for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.level > 0}
    absolute = {alias.name.split(".")[0] for node in ast.walk(tree)
                if isinstance(node, ast.Import) for alias in node.names}
    absolute |= {node.module.split(".")[0] for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom) and node.level == 0}
    assert package <= {"errors", "kernel"}
    assert "logriesz" not in absolute


def test_classifier_imports_nothing_outside_the_standard_library():
    """Besides kernel and errors, every import of classifier.py is from the standard
    library: numpy-backed helpers such as the certificate series live in probes.py."""
    with open(classifier.__file__) as fh:
        tree = ast.parse(fh.read())
    absolute = {alias.name.split(".")[0] for node in ast.walk(tree)
                if isinstance(node, ast.Import) for alias in node.names}
    absolute |= {node.module.split(".")[0] for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom) and node.level == 0}
    assert absolute <= sys.stdlib_module_names, absolute - sys.stdlib_module_names


def test_decision_commands_run_without_scipy(tmp_path):
    """In a fresh process the README classify, table and ball-profile convolve,
    a power-profile convolve with its analytic tail, lambda_star and
    PotentialTable leave scipy unimported."""
    script = textwrap.dedent(f"""
        import contextlib, io, math, sys
        from logriesz import cli

        def scipy_modules():
            return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

        for argv in (
            "classify --side P+ --N 3 --p 2 --q 4 --alpha 1 --beta -1.5",
            "table --N 3",
            "convolve --N 3 --alpha 1 --beta 0 --profile ball:1 --radii 1:1e3:7 --out {tmp_path / 'rows.csv'}",
        ):
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(argv.split()) in (0, 3, 4), argv
        assert scipy_modules() == [], scipy_modules()

        from logriesz import (AnsatzParams, KernelParams, PotentialTable, convolve_radial,
                              lambda_star, power_profile)
        res = convolve_radial(KernelParams(3, 1.0, 0.0), power_profile(4.0, 0.0), 2.0)
        assert math.isfinite(res.value) and res.value > 0.0
        assert scipy_modules() == [], scipy_modules()
        params = AnsatzParams(3, 3.0, 0.0, 10.0)
        assert lambda_star(params) >= 0.0
        table = PotentialTable(params, r_max=1e4)
        assert math.isclose(float(table(2.0)), math.asinh(2.0 / math.sqrt(10.0)) / 2.0, rel_tol=1e-6)
        assert scipy_modules() == [], scipy_modules()
    """)
    package_root = os.path.dirname(os.path.dirname(classifier.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (package_root, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_commands_run_with_scipy_blocked():
    """In a fresh process where importing scipy fails, the README classify and
    ansatz, a power-profile convolve and verify --case 2 exit 0, and verify passes."""
    script = textwrap.dedent("""
        import contextlib, io, json, sys
        sys.modules["scipy"] = None
        from logriesz import cli

        for argv in (
            "classify --side P+ --N 3 --p 2 --q 4 --alpha 1 --beta -1.5",
            "ansatz --N 3 --gamma 3 --tau 0",
            "convolve --N 3 --alpha 1 --beta 0 --profile power:4:0:10 --radii 1:1e3:4",
            "verify --case 2 --N 3 --alpha 1 --beta -1.5 --p 2 --q 4",
        ):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert cli.main(argv.split()) == 0, argv
        assert json.loads(out.getvalue())["result"]["pass"] is True
    """)
    package_root = os.path.dirname(os.path.dirname(classifier.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (package_root, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_only_the_integrate_hook_imports_scipy():
    """No module of the package imports scipy, except convolution.__getattr__,
    which keeps convolution.integrate resolvable for perfbench's tracer."""
    package = os.path.dirname(classifier.__file__)
    found = set()
    for name in sorted(os.listdir(package)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(package, name)) as fh:
            tree = ast.parse(fh.read())
        for scope in ast.walk(tree):
            for node in ast.iter_child_nodes(scope):
                if isinstance(node, ast.Import):
                    modules = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    modules = [node.module]
                else:
                    continue
                if any(m.split(".")[0] == "scipy" for m in modules):
                    found.add((name, getattr(scope, "name", None)))
    assert found == {("convolution.py", "__getattr__")}


def test_only_the_cli_writes_output():
    """No module of the package but cli.py imports json or calls open(): the envelope and
    every --out file are written in one place."""
    package = os.path.dirname(classifier.__file__)
    found = set()
    for name in sorted(os.listdir(package)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(package, name)) as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                modules = []
            if any(m.split(".")[0] == "json" for m in modules):
                found.add((name, "json"))
            if isinstance(node, ast.Call) and "open" in (getattr(node.func, "id", None),
                                                         getattr(node.func, "attr", None)):
                found.add((name, "open"))
    assert found == {("cli.py", "json"), ("cli.py", "open")}


def test_no_module_calls_validate():
    """KernelParams checks its exponents where it is built, so no module of the package
    calls kernel.validate, which stays exported for user code."""
    package = os.path.dirname(classifier.__file__)
    calls = []
    for name in sorted(os.listdir(package)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(package, name)) as fh:
            tree = ast.parse(fh.read())
        calls += [(name, node.lineno) for node in ast.walk(tree) if isinstance(node, ast.Call)
                  and "validate" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))]
    assert calls == []


class TestRegimeTable:
    def test_dimension_three_catalog(self):
        records = emit_regime_table(3)
        assert len(records) == 125
        assert len({r.row_id for r in records}) == 26
        assert all(r.match for r in records)

    def test_dimension_five_catalog(self):
        records = emit_regime_table(5)
        assert len(records) == 151
        assert all(r.match for r in records)

    def test_records_compare_expected_to_actual(self):
        records = emit_regime_table(3)
        for r in records:
            assert r.match == (r.expected_verdict == r.verdict and r.expected_clause == r.clause)
            assert isinstance(r.description, str) and r.description

    @pytest.mark.parametrize("N, count, digest", [
        (3, 125, "ddf4debedc56c5e9e05065195c926725f5373e15ff43f0460b0b335a0185405f"),
        (4, 145, "293c8c90e8bab7358b174a18bdb650d64023e31e0c13de403e31feb305e90424"),
        (5, 151, "3cd07787ee94d97cef30b0a869261f17ee836703a024c7d0b49a158abdc58c44"),
        (6, 151, "a00a3ad2624d8e46393a7dab109d39b325ecbf37c54a4f8642a4d612b45074e1"),
        (7, 151, "3c9a0c05a777f1ab82d42a96b9d3413b561670f244f012fccd8a1e1114a4c940"),
        (8, 151, "6aa871c14b9a26ad40df671c8b5000adb2855ed7dfec1df884fd068cd91ad601"),
    ])
    def test_table_records_are_pinned(self, N, count, digest):
        # every record's exact (alpha, p, q, beta), expectation and outcome, in order
        records = emit_regime_table(N)
        assert len(records) == count
        blob = json.dumps([r.to_dict() for r in records])
        assert hashlib.sha256(blob.encode()).hexdigest() == digest


def _golden_tuples(n, seed):
    """The benchmark's classify mix: 70 % P+, every UClass, N = 3..6, about 10 % of tuples
    exactly on t1, tN or t2 (p = t1, q = tN and the swap among them) and 5 % at alpha = N."""
    rng = random.Random(seed)
    tuples = []
    for _ in range(n):
        side = Side.PPLUS if rng.random() < 0.7 else Side.PMINUS
        u_class = rng.choice(tuple(UClass))
        N = rng.choice((3, 4, 5, 6))
        p, q = (math.exp(rng.uniform(math.log(0.25), math.log(8.0))) for _ in range(2))
        if rng.random() < 0.1:
            alpha = rng.choice((0.5, 1.0, 1.5, 2.0))
            t1, tn, t2 = (N - alpha) / (N - 2.0), N / (N - 2.0), (2.0 * N - alpha) / (N - 2.0)
            pick = rng.randrange(7)
            if pick < 6:
                p, q = ((t1, q), (tn, q), (p, t1), (p, tn), (t1, tn), (tn, t1))[pick]
            else:
                p = rng.uniform(0.1, t2 - 0.1)
                q = t2 - p
            beta = rng.choice([b for b in (-2.5, -2.0, -1.5, -1.0, -0.5, 0.5) if b > alpha - N])
        else:
            if side is Side.PMINUS:
                alpha = rng.uniform(0.05, N - 0.05)
            elif rng.random() < 0.08:
                alpha = float(N)
            else:
                alpha = rng.uniform(0.0, N)
            beta = rng.uniform(max(alpha - N, -3.0) + 1e-3, 3.0)
        tuples.append(ProblemParams(side, N, p, q, alpha, beta, u_class=u_class))
    return tuples


# (verdict, clause) counts of the 20,000 golden tuples
GOLDEN_COUNTS = {
    ("Exists", "Thm3(i)"): 4786, ("Exists", "Thm3(ii)"): 31, ("Exists", "Thm3(iii)"): 26,
    ("Exists", "Thm3(iv)"): 13, ("Exists", "Thm3(v)"): 22, ("Exists", "Thm3(vi)"): 26,
    ("Exists", "Thm4"): 570,
    ("NotExists", "Cor1.5(ii)"): 3, ("NotExists", "Thm1(i)"): 3774, ("NotExists", "Thm1(ii)"): 755,
    ("NotExists", "Thm1(iii)"): 740, ("NotExists", "Thm2(ii)"): 706, ("NotExists", "Thm2(iii)"): 223,
    ("NotExists", "Thm2(iv)"): 1243, ("NotExists", "Thm2(v)"): 145, ("NotExists", "Thm2(vi)"): 454,
    ("NotExists", "Thm2(vii)"): 25, ("NotExists", "Thm2(viii)"): 32, ("NotExists", "Thm2(ix)"): 2,
    ("NotExists", "Thm4"): 48,
    ("Open", "Table1-row1"): 9, ("Open", "Table1-row2"): 48, ("Open", "Table1-row3"): 53,
    ("Open", "Table1-row4"): 34, ("Open", "Table1-row5"): 38, ("Open", "Table1-row6"): 1104,
    ("Open", "uncharted"): 5090,
}


def test_classify_json_is_golden():
    """Per-(verdict, clause) counts of 20,000 seeded tuples, so a clause that moves shows
    by name, and one digest of their JSON lines with the records of
    emit_regime_table(3..6)."""
    tuples = _golden_tuples(20_000, seed=11)
    assert 0.04 < sum(t.alpha == t.N for t in tuples) / len(tuples) < 0.06
    decisions = [classifier.classify(t) for t in tuples]
    counts = collections.Counter((d.verdict.value, d.clause) for d in decisions)
    assert dict(counts) == GOLDEN_COUNTS
    lines = [json.dumps(d.to_dict()) for d in decisions]
    lines += [json.dumps(r.to_dict()) for N in range(3, 7) for r in emit_regime_table(N)]
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "c676324f9f6da5a0e64e17d888a5e62edeba45680e294b7454497dcd9a053e10"


def test_decisions_without_a_construction_are_shared_and_frozen():
    """Two tuples with the same NotExists or Open clause get the same object; it and an
    Exists decision refuse assignment and still take dataclasses.replace."""
    for a, b, clause in [((3, 1.0, 0.5, 2.5, 0.0), (3, 1.1, 0.6, 2.4, 0.5), "Thm2(iv)"),
                         ((3, 4.0, 0.5, 2.0, -0.8), (3, 5.0, 0.7, 1.8, 0.0), "Table1-row6"),
                         ((3, 0.5, 0.5, 0.0, -2.4), (3, 0.6, 0.4, 0.0, -2.0), "uncharted")]:
        assert pplus(*a) is pplus(*b) and pplus(*a).clause == clause
    damped = [classify_pminus(ProblemParams(Side.PMINUS, 3, p, 1.0, 1.0, 0.0)) for p in (0.5, 0.6)]
    assert damped[0] is damped[1] and damped[0].clause == "uncharted"
    exists, shared = pplus(3, 2.0, 4.0, 1.0, -1.5), pplus(3, 1.0, 0.5, 2.5, 0.0)
    assert exists.verdict is Verdict.EXISTS and exists is not pplus(3, 2.0, 4.0, 1.0, -1.5)
    for decision in (exists, shared):
        with pytest.raises(dataclasses.FrozenInstanceError):
            decision.clause = "changed"
        with pytest.raises(dataclasses.FrozenInstanceError):
            decision.construction = None
        stripped = dataclasses.replace(decision, construction=None)
        assert stripped.construction is None and stripped.clause == decision.clause
    assert shared.clause == "Thm2(iv)" and shared.to_dict()["note"] == NOT_EXISTS_NOTE

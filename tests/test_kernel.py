"""Kernel evaluation and asymptotic exponent extraction."""

import ast
import dataclasses
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logriesz import (
    AnsatzParams,
    AsymptoticSpec,
    InvalidAlpha,
    InvalidBeta,
    InvalidDimension,
    KernelParams,
    NonpositiveRadius,
    ParameterError,
    ProblemParams,
    Regime,
    Side,
    approx_eq,
    ball_profile,
    choose_case_params,
    classify,
    divergence_certificate,
    eval_kernel,
    harnack_mass,
    kernel_asymptotics,
    lower_bound_chain,
    rhs_upper_bound,
    validate,
)
from logriesz import kernel


def test_validate_accepts_admissible_ranges():
    validate(KernelParams(3, 1.0, 0.0))
    # numpy integers are numbers.Integral
    validate(KernelParams(np.int64(3), 1.0, 0.0))
    validate(KernelParams(3, 0.0, 2.5))
    validate(KernelParams(5, 5.0, 0.5))
    # beta may go negative as long as it stays above alpha - N
    validate(KernelParams(3, 2.0, -0.999))


def test_validate_rejects_bad_dimension():
    with pytest.raises(InvalidDimension):
        validate(KernelParams(0, 0.0, 0.0))
    with pytest.raises(InvalidDimension):
        validate(KernelParams(-2, 1.0, 0.0))


def test_validate_rejects_alpha_outside_range():
    with pytest.raises(InvalidAlpha):
        validate(KernelParams(3, -0.5, 0.0))
    with pytest.raises(InvalidAlpha):
        validate(KernelParams(3, 3.5, 0.0))


def test_validate_rejects_beta_at_or_below_floor():
    with pytest.raises(InvalidBeta):
        validate(KernelParams(3, 1.0, -2.0))
    with pytest.raises(InvalidBeta) as err:
        validate(KernelParams(3, 0.0, -3.1))
    assert "beta must exceed alpha - N" in str(err.value)


@pytest.mark.parametrize("args, error", [((0, 0, 0), InvalidDimension), ((3, 5.0, 0), InvalidAlpha),
                                         ((3, 1.0, -2.0), InvalidBeta), ((3.5, 1, 0), InvalidDimension)])
def test_inadmissible_kernel_raises_where_it_is_built(args, error):
    """No KernelParams outside the admissible range exists, so eval_kernel, angular_factor
    and every other function that takes one never see it."""
    with pytest.raises(error):
        KernelParams(*args)


def test_replaced_kernel_is_checked_again():
    with pytest.raises(InvalidAlpha):
        dataclasses.replace(KernelParams(3, 1, 0), alpha=9.0)


# each entry point that takes reaction exponents, called with admissible ones elsewhere;
# the last two take p alone
POWER_ENTRY_POINTS = {
    "ProblemParams": lambda p, q: classify(ProblemParams(Side.PPLUS, 3, p, q, 1.0, -1.5)),
    "choose_case_params": lambda p, q: choose_case_params("2", 3, 1.0, -1.5, p, q),
    "rhs_upper_bound": lambda p, q: rhs_upper_bound(AnsatzParams(3, 3.0, 0.0, 10.0), KernelParams(3, 1.0, 0.0), p, q),
    "divergence_certificate": lambda p, q: divergence_certificate(3, p, q, 0.0, 0.0),
    "lower_bound_chain": lambda p, q: lower_bound_chain(3, 1.0, 0.0, p, [1.0, 10.0]),
    "harnack_mass": lambda p, q: harnack_mass(ball_profile(1.0), p, 10.0),
}


@pytest.mark.parametrize("value", [math.nan, math.inf, 0.0, -1.0])
@pytest.mark.parametrize("entry", POWER_ENTRY_POINTS)
def test_reaction_exponents_must_be_positive_and_finite(entry, value):
    """NaN, inf, 0 and -1 are refused by name wherever p (and q) enter, not decided, fitted
    or integrated."""
    call = POWER_ENTRY_POINTS[entry]
    with pytest.raises(ParameterError, match="exponent p must be positive and finite"):
        call(value, 2.0)
    if entry not in ("lower_bound_chain", "harnack_mass"):
        with pytest.raises(ParameterError, match="exponent q must be positive and finite"):
            call(2.0, value)


def test_eval_kernel_known_values():
    k = KernelParams(3, 1.0, 0.0)
    assert math.isclose(eval_kernel(k, 2.0), 0.5, rel_tol=1e-15)

    k2 = KernelParams(3, 0.0, 1.0)
    assert math.isclose(eval_kernel(k2, math.e - 1.0), 1.0, rel_tol=1e-14)

    k3 = KernelParams(3, 2.0, 2.0)
    t = 3.0
    expected = t ** -2.0 * math.log(4.0) ** 2
    assert math.isclose(eval_kernel(k3, t), expected, rel_tol=1e-14)


def test_eval_kernel_rejects_nonpositive_radius():
    k = KernelParams(3, 1.0, 0.0)
    with pytest.raises(NonpositiveRadius):
        eval_kernel(k, 0.0)
    with pytest.raises(NonpositiveRadius):
        eval_kernel(k, -1.0)


@pytest.mark.parametrize("t", [math.inf, math.nan, [1.0, math.inf]])
def test_eval_kernel_rejects_non_finite_radius(t):
    """log K at t = inf is 0 * inf for alpha = 0 = beta: refused, not a NaN."""
    with pytest.raises(NonpositiveRadius, match="finite"):
        eval_kernel(KernelParams(3, 0.0, 0.0), t)


def test_eval_kernel_returns_scalar_float():
    k = KernelParams(3, 1.0, 0.5)
    v = eval_kernel(k, 1.0)
    assert isinstance(v, float)


def test_asymptotics_at_zero_and_infinity():
    k = KernelParams(3, 1.0, 2.0)
    assert kernel_asymptotics(k, Regime.AT_ZERO) == AsymptoticSpec(1.0, 0.0)
    assert kernel_asymptotics(k, Regime.AT_INFINITY) == AsymptoticSpec(-1.0, 2.0)

    # log factor flips its role between the two ends
    k2 = KernelParams(5, 2.0, -0.5)
    assert kernel_asymptotics(k2, Regime.AT_ZERO) == AsymptoticSpec(-2.5, 0.0)
    assert kernel_asymptotics(k2, Regime.AT_INFINITY) == AsymptoticSpec(-2.0, -0.5)


def test_asymptotics_rejects_bad_regime():
    k = KernelParams(3, 1.0, 0.0)
    with pytest.raises(TypeError):
        kernel_asymptotics(k, "at_zero")


def test_zero_regime_ratio_converges():
    """K(t) ~ t^(beta-alpha) near zero, with log(1+t) ~ t."""
    k = KernelParams(3, 1.5, 0.75)
    spec = kernel_asymptotics(k, Regime.AT_ZERO)
    assert spec.logpower == 0.0
    devs = []
    for t in (1e-3, 1e-5, 1e-7):
        ratio = eval_kernel(k, t) / t ** spec.power
        devs.append(abs(ratio - 1.0))
    assert devs[0] > devs[1] > devs[2]
    assert devs[-1] < 1e-6


def test_infinity_regime_ratio_converges():
    k = KernelParams(3, 1.5, 0.75)
    spec = kernel_asymptotics(k, Regime.AT_INFINITY)
    devs = []
    for t in (1e3, 1e5, 1e7):
        model = t ** spec.power * math.log(t) ** spec.logpower
        devs.append(abs(eval_kernel(k, t) / model - 1.0))
    assert devs[0] > devs[1] > devs[2]
    assert devs[-1] < 0.05


@given(
    alpha=st.floats(0.0, 3.0),
    beta_off=st.floats(0.001, 4.0),
    t=st.floats(1e-8, 1e8),
)
@settings(max_examples=150, deadline=None)
def test_kernel_positive_on_admissible_params(alpha, beta_off, t):
    k = KernelParams(3, alpha, alpha - 3.0 + beta_off)
    validate(k)
    assert eval_kernel(k, t) > 0.0


@given(t=st.floats(1e-6, 1e6), scale=st.floats(1.001, 100.0))
@settings(max_examples=100, deadline=None)
def test_kernel_monotone_decreasing_for_positive_alpha_negative_beta(t, scale):
    # both factors decrease when alpha > 0 and beta <= 0
    k = KernelParams(3, 2.0, -0.5)
    assert eval_kernel(k, t) > eval_kernel(k, t * scale)


def test_approx_eq_mixed_tolerance():
    assert approx_eq(1.0, 1.0 + 5e-13)
    assert not approx_eq(1.0, 1.0 + 5e-12)
    assert approx_eq(0.0, 5e-13)
    assert approx_eq(1e20, 1e20 * (1.0 + 1e-13))


def _approx_eq_max_form(a, b):
    return abs(a - b) <= 1e-12 * max(1.0, abs(a), abs(b))


BIG = 1.7976931348623157e308
APPROX_EQ_EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-12, -1e-12, 1.0, -1.0,
                   BIG, -BIG, BIG * (1.0 - 2e-12), -1.79e308, math.inf, -math.inf, math.nan]


def test_approx_eq_equals_the_max_form_on_edge_values():
    """approx_eq is abs(a - b) <= 1e-12 max(1, |a|, |b|) bit for bit: at +-0, subnormals,
    +-inf, NaN, next to +-BIG and on pairs within 3e-12 relative of each other."""
    near = [x * (1.0 + e) for x in (1.0, -3.0, 1e300, BIG, -BIG / 2.0, 2.0 ** -1000, 1e-12)
            for e in (-3e-12, -1.0000001e-12, -1e-12, -5e-13, 0.0, 5e-13, 1e-12, 1.0000001e-12, 3e-12)]
    values = APPROX_EQ_EDGES + near
    for a in values:
        for b in values:
            assert approx_eq(a, b) is _approx_eq_max_form(a, b), (a, b)


@given(a=st.floats(), b=st.floats(), rel=st.floats(-3e-12, 3e-12))
@settings(max_examples=3000, deadline=None)
def test_approx_eq_equals_the_max_form(a, b, rel):
    for x, y in ((a, b), (a, a * (1.0 + rel)), (a, a + rel), (b, b * (1.0 - rel))):
        assert approx_eq(x, y) is _approx_eq_max_form(x, y), (x, y)


def test_kernel_imports_only_the_standard_library_and_errors():
    """At module level kernel.py imports the standard library and .errors only, so
    classifier.py, which imports it, loads no numpy; AsymptoticSpec's methods import
    numpy in their bodies, when they evaluate."""
    with open(kernel.__file__) as fh:
        tree = ast.parse(fh.read())
    package = {node.module for node in tree.body if isinstance(node, ast.ImportFrom) and node.level > 0}
    absolute = {alias.name.split(".")[0] for node in tree.body
                if isinstance(node, ast.Import) for alias in node.names}
    absolute |= {node.module.split(".")[0] for node in tree.body
                 if isinstance(node, ast.ImportFrom) and node.level == 0}
    assert package == {"errors"}
    assert absolute <= sys.stdlib_module_names, absolute - sys.stdlib_module_names

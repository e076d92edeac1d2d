"""Explicit supersolution profiles: closed forms, thresholds, certification."""

import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
import mpmath as mp
from scipy import integrate, optimize

from logriesz import (
    AnsatzParams,
    AsymptoticSpec,
    EmptyParameterInterval,
    ExistenceCase,
    HypothesisViolated,
    InvalidBeta,
    InvalidDimension,
    KernelParams,
    OutOfHypothesis,
    ParameterError,
    PotentialTable,
    ProblemParams,
    RadialProfile,
    ScalingUndefined,
    Side,
    approx_eq,
    biharmonic_closed_form,
    choose_case_params,
    classify,
    convolve_radial,
    eval_kernel,
    fit_asymptotics,
    lambda_star,
    newtonian_potential_radial,
    rhs_upper_bound,
    source_eval,
    source_profile,
    u_eval,
    u_upper_bound,
    unit_sphere_area,
    upper_bound_prediction,
    verify_supersolution,
    w_eval,
)
from logriesz import ansatz, convolution
from logriesz.ansatz import _powered_spec


class TestAnsatzParams:
    def test_accepts_interior_values(self):
        AnsatzParams(N=3, gamma=2.5, tau=0.3, A=10.0)
        AnsatzParams(N=5, gamma=5.0, tau=-0.99, A=2.8)
        # numpy integers are numbers.Integral
        AnsatzParams(N=np.int64(3), gamma=2.5, tau=0.3, A=10.0)

    def test_rejects_low_dimension(self):
        with pytest.raises(InvalidDimension):
            AnsatzParams(N=2, gamma=2.5, tau=0.0, A=10.0)

    def test_rejects_gamma_outside_window(self):
        with pytest.raises(ParameterError):
            AnsatzParams(N=3, gamma=2.0, tau=0.0, A=10.0)
        with pytest.raises(ParameterError):
            AnsatzParams(N=3, gamma=3.5, tau=0.0, A=10.0)

    def test_rejects_tau_at_endpoints(self):
        with pytest.raises(ParameterError):
            AnsatzParams(N=3, gamma=2.5, tau=1.0, A=10.0)
        with pytest.raises(ParameterError):
            AnsatzParams(N=3, gamma=2.5, tau=-1.0, A=10.0)

    def test_rejects_small_scale(self):
        # A stays above e so log w > 1/2 everywhere
        with pytest.raises(ParameterError):
            AnsatzParams(N=3, gamma=2.5, tau=0.0, A=2.5)

    @pytest.mark.parametrize("A", [math.inf, math.nan])
    def test_rejects_scale_that_is_not_finite(self, A):
        with pytest.raises(ParameterError):
            AnsatzParams(N=3, gamma=3.0, tau=0.0, A=A)

    def test_source_below_the_float_range_reads_in_logs(self):
        """v(0) = A^(-gamma/2) (log(A)/2)^tau = 1e-375 is below the float range, but
        the profile carries log v, so u(r) = asinh(r/sqrt(A))/r reads 1e-125 at r = 0
        and asinh(1e-125) at r = 1, within its error_estimate."""
        params = AnsatzParams(N=3, gamma=3.0, tau=0.0, A=1e250)
        profile = source_profile(params)
        assert source_eval(params, 0.0) == 0.0
        assert profile.log_evaluate(np.array([0.0]))[0] == pytest.approx(-375.0 * math.log(10.0), rel=1e-15)
        res = newtonian_potential_radial(3, profile, [0.0, 1.0])
        exact = np.array([1e-125, math.asinh(1e-125)])
        assert np.all(np.abs(res.value - exact) <= res.error_estimate)
        assert np.all(res.error_estimate <= 1e-10 * exact)


def test_w_eval_closed_values():
    p = AnsatzParams(N=3, gamma=2.5, tau=0.0, A=10.0)
    assert math.isclose(w_eval(p, 0.0), math.sqrt(10.0), rel_tol=1e-15)
    assert math.isclose(w_eval(p, math.sqrt(6.0)), 4.0, rel_tol=1e-15)
    # r^2 overflows here, w does not
    assert w_eval(p, 1e200) == 1e200


def test_source_eval_closed_values():
    p = AnsatzParams(N=3, gamma=3.0, tau=0.0, A=10.0)
    assert math.isclose(source_eval(p, 0.0), 10.0 ** -1.5, rel_tol=1e-13)

    p2 = AnsatzParams(N=3, gamma=3.0, tau=-0.5, A=10.0)
    expected = 10.0 ** -1.5 * math.log(math.sqrt(10.0)) ** -0.5
    assert math.isclose(source_eval(p2, 0.0), expected, rel_tol=1e-13)


def test_source_profile_metadata():
    p = AnsatzParams(N=3, gamma=2.5, tau=0.25, A=10.0)
    prof = source_profile(p)
    assert prof.infinity_spec == AsymptoticSpec(-2.5, 0.25)
    assert math.isclose(prof.scale, math.sqrt(10.0), rel_tol=1e-15)
    assert prof.positive_mass_near_zero
    assert math.isclose(prof.evaluate(0.0), source_eval(p, 0.0), rel_tol=1e-14)


def test_u_eval_is_the_newtonian_potential_of_the_source():
    p = AnsatzParams(N=3, gamma=2.5, tau=0.3, A=10.0)
    for r in (0.0, 1.0, 7.5, 40.0):
        assert math.isclose(
            u_eval(p, r), newtonian_potential_radial(3, source_profile(p), r), rel_tol=1e-9
        )


def test_u_eval_matches_closed_form_potential():
    """For (N, gamma, tau) = (3, 3, 0) the potential is asinh(r/sqrt(A))/r; the
    analytic tail carries a growing share of it at large r."""
    p = AnsatzParams(N=3, gamma=3.0, tau=0.0, A=10.0)
    for r in np.geomspace(1e-2, 1e9, 45):
        exact = math.asinh(r / math.sqrt(p.A)) / r
        assert math.isclose(u_eval(p, float(r)), exact, rel_tol=1e-6)


def test_u_eval_inverts_the_laplacian():
    """Central differences of u reproduce -source to 1e-3."""
    p = AnsatzParams(N=3, gamma=2.5, tau=0.3, A=10.0)
    for r in (1.0, 5.0, 20.0):
        h = 0.01 * r
        um, u0, up = u_eval(p, r - h), u_eval(p, r), u_eval(p, r + h)
        lap = (up - 2.0 * u0 + um) / (h * h) + (p.N - 1) / r * (up - um) / (2.0 * h)
        assert math.isclose(-lap, source_eval(p, r), rel_tol=1e-3)


def test_biharmonic_closed_form_at_origin():
    # gamma = N, tau = 0, lam = 0 collapses to N^2 A^(-(N+2)/2)
    for N, A in ((3, 10.0), (5, 20.0)):
        p = AnsatzParams(N=N, gamma=float(N), tau=0.0, A=A)
        assert math.isclose(
            biharmonic_closed_form(p, 0.0, 0.0), N * N * A ** (-(N + 2) / 2.0), rel_tol=1e-12
        )


def test_biharmonic_closed_form_matches_finite_differences():
    """Lap^2 u - lam Lap u from five-point stencils, Richardson extrapolated."""
    p = AnsatzParams(N=3, gamma=2.5, tau=0.3, A=10.0)
    lam = 0.5
    N = p.N

    def drift_fd(r, h):
        v = [u_eval(p, r + k * h) for k in (-2, -1, 0, 1, 2)]
        d1 = (v[0] - 8 * v[1] + 8 * v[3] - v[4]) / (12 * h)
        d2 = (-v[0] + 16 * v[1] - 30 * v[2] + 16 * v[3] - v[4]) / (12 * h * h)
        d3 = (-v[0] + 2 * v[1] - 2 * v[3] + v[4]) / (2 * h ** 3)
        d4 = (v[0] - 4 * v[1] + 6 * v[2] - 4 * v[3] + v[4]) / h ** 4
        bilap = (
            d4
            + 2 * (N - 1) * d3 / r
            + (N - 1) * (N - 3) * d2 / r ** 2
            - (N - 1) * (N - 3) * d1 / r ** 3
        )
        lap = d2 + (N - 1) * d1 / r
        return bilap - lam * lap

    for r, h0 in ((1.0, 0.1), (10.0, 1.0)):
        coarse, fine = drift_fd(r, h0), drift_fd(r, h0 / 2.0)
        rich = (4.0 * fine - coarse) / 3.0
        assert math.isclose(rich, biharmonic_closed_form(p, lam, r), rel_tol=1e-4)


class TestLambdaStar:
    def test_closed_form_at_log_free_endpoint(self):
        # gamma = N, tau = 0: threshold is exactly 2N / (A (N + 2))
        p3 = AnsatzParams(N=3, gamma=3.0, tau=0.0, A=10.0)
        assert math.isclose(lambda_star(p3), 0.12, rel_tol=1e-4)
        p5 = AnsatzParams(N=5, gamma=5.0, tau=0.0, A=20.0)
        assert math.isclose(lambda_star(p5), 1.0 / 14.0, rel_tol=1e-4)

    @pytest.mark.parametrize("A", [10.0, 1e16, 1e100, 1e200])
    def test_log_free_endpoint_at_large_scale(self, A):
        """(N, gamma, tau) = (3, 3, 0): the maximum 1.2/A of Lap(v)/v sits at r = 2 sqrt(A),
        past r = 1e8 from A = 2.5e15 on, and the w^(-gamma-4) terms of Lap(v) underflow
        from A ~ 1e62 on."""
        assert math.isclose(lambda_star(AnsatzParams(N=3, gamma=3.0, tau=0.0, A=A)), 1.2 / A, rel_tol=1e-9)

    def test_nonincreasing_in_scale(self):
        vals = [lambda_star(AnsatzParams(N=3, gamma=3.0, tau=0.0, A=A)) for A in (10.0, 20.0, 40.0)]
        assert vals[0] >= vals[1] >= vals[2]

    def test_certificate_grid_nonnegative_above_threshold(self):
        for N, A in ((3, 10.0), (5, 20.0)):
            p = AnsatzParams(N=N, gamma=float(N), tau=0.0, A=A)
            lam = 1.001 * lambda_star(p)
            grid = np.concatenate(([0.0], np.geomspace(1e-3, 1e8, 200)))
            vals = np.array([biharmonic_closed_form(p, lam, float(r)) for r in grid])
            assert np.min(vals) >= 0.0


    @pytest.mark.parametrize("case_id, N, alpha, beta, p, q", [
        ("1a", 5, 1.0, 1.0, 1.5, 2.0), ("1b", 3, 1.0, 0.0, 4.0, 3.0), ("2", 3, 1.0, -1.5, 2.0, 4.0),
        ("3", 3, 1.0, -1.5, 4.0, 2.0), ("4", 3, 1.0, -1.5, 2.4, 2.6), ("5", 3, 0.5, -2.25, 2.5, 3.0),
        ("6", 3, 0.5, -2.25, 3.0, 2.5), ("T4-1", 3, 3.0, 1.0, 2.0, 1.5), ("T4-2", 3, 3.0, 1.0, 4.0, 1.0)])
    def test_zoom_matches_a_bounded_scalar_search(self, case_id, N, alpha, beta, p, q):
        """Against scipy's bounded minimize_scalar (xatol 1e-12 in x = log(sqrt(A) + r))
        between the neighbours of the best of the same 401 grid radii."""
        case = choose_case_params(case_id, N, alpha, beta, p, q)
        params = AnsatzParams(N, case.gamma, case.tau, 10.0)
        root_a = math.sqrt(params.A)

        def h(r):
            return -2.0 * biharmonic_closed_form(params, 0.0, r) / source_eval(params, r)

        grid = np.concatenate(([0.0], np.geomspace(1e-4 * root_a, 1e8, 400)))
        vals = h(grid)
        i = int(np.argmax(vals))
        res = optimize.minimize_scalar(
            lambda x: -h(max(math.exp(x) - root_a, 0.0)), method="bounded", options={"xatol": 1e-12},
            bounds=(math.log(root_a + grid[max(i - 1, 0)]), math.log(root_a + grid[i + 1])))
        expected = max(float(vals[i]), float(-res.fun), 0.0)
        assert math.isclose(lambda_star(params), expected, rel_tol=1e-12)


class TestUUpperBound:
    def test_spec_below_log_endpoint(self):
        p = AnsatzParams(N=3, gamma=2.5, tau=0.25, A=10.0)
        b = u_upper_bound(p)
        assert b.spec == AsymptoticSpec(-0.5, 0.25)
        assert math.isclose(b.scale, math.sqrt(10.0), rel_tol=1e-15)

    def test_spec_at_log_endpoint(self):
        p = AnsatzParams(N=3, gamma=3.0, tau=-0.5, A=10.0)
        b = u_upper_bound(p)
        assert b.spec == AsymptoticSpec(-1.0, 0.5)

    def test_envelope_tracks_potential_within_factor_ten(self):
        p = AnsatzParams(N=3, gamma=2.5, tau=0.0, A=10.0)
        b = u_upper_bound(p)
        radii = np.geomspace(1.0, 1e6, 12)
        ratios = np.array([u_eval(p, float(r)) / b.shape(float(r)) for r in radii])
        assert np.all(ratios > 0.0)
        assert np.max(ratios) / np.min(ratios) < 10.0

    def test_high_dimension_power_plateau(self):
        # N = 5, gamma = 4: u decays like r^-2 with no log
        p = AnsatzParams(N=5, gamma=4.0, tau=0.0, A=10.0)
        scaled = [u_eval(p, r) * r ** 2 for r in (1e3, 1e4, 1e5, 1e6)]
        for v in scaled[1:]:
            assert math.isclose(v, scaled[0], rel_tol=0.1)


class TestRhsUpperBound:
    def test_combined_exponent_below_endpoint(self):
        p = AnsatzParams(N=5, gamma=4.8, tau=0.0, A=10.0)
        b = rhs_upper_bound(p, KernelParams(5, 1.0, 1.0), 1.5, 2.0)
        assert math.isclose(b.spec.power, -5.8, abs_tol=1e-12)
        assert math.isclose(b.spec.logpower, 1.0, abs_tol=1e-12)

    def test_log_endpoint_mass_regime(self):
        p = AnsatzParams(N=3, gamma=3.0, tau=-0.5, A=10.0)
        b = rhs_upper_bound(p, KernelParams(3, 1.0, 0.5), 4.0, 1.0)
        assert math.isclose(b.spec.power, -2.0, abs_tol=1e-12)
        assert math.isclose(b.spec.logpower, 1.0, abs_tol=1e-12)

    def test_saturated_kernel_specs(self):
        k = KernelParams(3, 3.0, 0.5)
        below = rhs_upper_bound(AnsatzParams(N=3, gamma=2.5, tau=0.0, A=10.0), k, 4.0, 1.0)
        assert math.isclose(below.spec.power, -2.5, abs_tol=1e-12)
        assert math.isclose(below.spec.logpower, 1.5, abs_tol=1e-12)
        at = rhs_upper_bound(AnsatzParams(N=3, gamma=3.0, tau=0.0, A=10.0), k, 4.0, 1.0)
        assert math.isclose(at.spec.power, -4.0, abs_tol=1e-12)
        assert math.isclose(at.spec.logpower, 1.5, abs_tol=1e-12)

    def test_snapped_saturated_kernel_refuses_nonpositive_beta(self):
        """alpha within approx_eq of N snaps to N, where beta must exceed 0, so the snapped
        kernel refuses beta = -5e-14, as classify refuses the same tuple."""
        k = KernelParams(3, 3 - 1e-13, -5e-14)
        with pytest.raises(InvalidBeta):
            rhs_upper_bound(AnsatzParams(3, 3, 0, 10), k, 4, 1)
        with pytest.raises(InvalidBeta):
            classify(ProblemParams(Side.PPLUS, 3, 4.0, 1.0, k.alpha, k.beta))

    def test_dimension_mismatch(self):
        p = AnsatzParams(N=3, gamma=2.5, tau=0.0, A=10.0)
        with pytest.raises(HypothesisViolated):
            rhs_upper_bound(p, KernelParams(5, 1.0, 0.0), 2.0, 2.0)

    def test_nonpositive_exponents(self):
        p = AnsatzParams(N=3, gamma=2.5, tau=0.0, A=10.0)
        with pytest.raises(ParameterError):
            rhs_upper_bound(p, KernelParams(3, 1.0, 0.0), 0.0, 2.0)

    def test_saturated_kernel_needs_log_free_profile(self):
        p = AnsatzParams(N=3, gamma=2.5, tau=0.3, A=10.0)
        with pytest.raises(OutOfHypothesis):
            rhs_upper_bound(p, KernelParams(3, 3.0, 0.5), 4.0, 1.0)

    def test_saturated_kernel_power_ceiling(self):
        p = AnsatzParams(N=3, gamma=2.5, tau=0.0, A=10.0)
        with pytest.raises(OutOfHypothesis):
            rhs_upper_bound(p, KernelParams(3, 3.0, 0.5), 6.0, 1.0)

    def test_saturated_kernel_log_endpoint_floor(self):
        p = AnsatzParams(N=3, gamma=3.0, tau=0.0, A=10.0)
        with pytest.raises(OutOfHypothesis):
            rhs_upper_bound(p, KernelParams(3, 3.0, 0.5), 3.0, 1.0)

    def test_critical_power_needs_heavy_negative_log(self):
        # p = (N - alpha)/(gamma - 2) is allowed only when beta + tau p < -1
        ok = AnsatzParams(N=3, gamma=2.5, tau=-0.2, A=10.0)
        rhs_upper_bound(ok, KernelParams(3, 1.0, -0.5), 4.0, 1.0)
        bad = AnsatzParams(N=3, gamma=2.5, tau=0.0, A=10.0)
        with pytest.raises(OutOfHypothesis):
            rhs_upper_bound(bad, KernelParams(3, 1.0, -0.5), 4.0, 1.0)

    def test_subcritical_power_rejected(self):
        p = AnsatzParams(N=3, gamma=2.5, tau=0.0, A=10.0)
        with pytest.raises(OutOfHypothesis):
            rhs_upper_bound(p, KernelParams(3, 1.0, 0.0), 3.0, 1.0)

    def test_upper_power_edge_needs_mild_log(self):
        # p = N/(gamma - 2) is allowed only when tau p > -1
        ok = AnsatzParams(N=3, gamma=2.5, tau=0.0, A=3.0)
        rhs_upper_bound(ok, KernelParams(3, 1.0, -0.3), 6.0, 1.0)
        bad = AnsatzParams(N=3, gamma=2.5, tau=-0.2, A=3.0)
        with pytest.raises(OutOfHypothesis):
            rhs_upper_bound(bad, KernelParams(3, 1.0, -0.3), 6.0, 1.0)


# (label, N, alpha, beta, gamma, tau, p, q, A); all fit over [1e3, 1e7]
SHAPE_CASES = [
    ("below-endpoint-critical-p", 3, 1.0, -0.5, 2.5, -0.2, 4.0, 1.0, 10.0),
    ("below-endpoint-interior", 3, 1.0, 0.0, 2.5, 0.25, 5.0, 1.0, 10.0),
    ("below-endpoint-upper-edge", 3, 1.0, -0.3, 2.5, 0.0, 6.0, 1.0, 3.0),
    ("below-endpoint-above-edge", 3, 1.0, 0.4, 2.5, 0.0, 8.0, 1.0, 10.0),
    ("at-endpoint-critical-p", 3, 1.0, -1.9, 3.0, -0.85, 2.0, 1.5, 10.0),
    ("at-endpoint-interior", 3, 1.0, 0.5, 3.0, -0.8, 2.5, 0.5, 10.0),
    ("at-endpoint-upper-edge", 3, 1.0, -0.4, 3.0, -0.9, 3.0, 0.5, 3.0),
    ("at-endpoint-above-edge", 3, 1.0, 0.0, 3.0, -0.8, 4.0, 0.5, 10.0),
]


def _powered_envelope(params, p):
    """The declared potential envelope raised to the p-th power."""
    bound = u_upper_bound(params)
    e_pow, e_log = bound.spec.power, bound.spec.logpower
    A = params.A

    def ev(s):
        s = np.asarray(s, dtype=float)
        w2 = A + s * s
        return (np.exp(0.5 * e_pow * np.log(w2)) * (0.5 * np.log(w2)) ** e_log)[()]

    sigma = -e_pow * p
    return ev, RadialProfile(
        lambda s: p * np.log(ev(s)),
        infinity_spec=AsymptoticSpec(-sigma, e_log * p),
        scale=math.sqrt(A),
        positive_mass_near_zero=True,
    )


@pytest.mark.parametrize("label,N,alpha,beta,gamma,tau,p,q,A", SHAPE_CASES)
def test_rhs_envelope_matches_measured_shape(label, N, alpha, beta, gamma, tau, p, q, A):
    """Fitting the measured reaction term recovers the predicted exponents."""
    kernel = KernelParams(N, alpha, beta)
    params = AnsatzParams(N=N, gamma=gamma, tau=tau, A=A)
    bound = rhs_upper_bound(params, kernel, p, q)

    ev, powered = _powered_envelope(params, p)
    sigma = -powered.infinity_spec.power
    if abs(sigma - (N - alpha)) < 1e-9:
        powered = RadialProfile(
            powered.log_evaluate,
            infinity_spec=AsymptoticSpec(-(N - alpha), powered.infinity_spec.logpower),
            scale=powered.scale,
            positive_mass_near_zero=True,
        )

    radii = np.geomspace(1e3, 1e7, 8)
    vals = [convolve_radial(kernel, powered, float(r)).value * float(ev(r)) ** q for r in radii]
    fit = fit_asymptotics(list(zip(radii, vals)), A=bound.scale)
    assert abs(fit.power_est - bound.spec.power) < 0.05
    assert abs(fit.logpower_est - bound.spec.logpower) < 0.2


def test_rhs_envelope_on_a_rounded_critical_line():
    """(N, alpha, beta, gamma, tau) = (3, 1.1, -1.5, 2.46, 0), p = (N-alpha)/(gamma-2):
    p (gamma - 2) = 1.8999999999999997 as declared diverges, and u^p's spec puts it
    on the critical line 1.9, where K * u^p is finite with the ladder's critical row."""
    N, alpha, beta, q = 3, 1.1, -1.5, 1.0
    params = AnsatzParams(N=N, gamma=2.46, tau=0.0, A=10.0)
    kernel = KernelParams(N, alpha, beta)
    p = (N - alpha) / (params.gamma - 2.0)
    _, declared = _powered_envelope(params, p)
    assert -declared.infinity_spec.power != N - alpha
    assert convolve_radial(kernel, declared, 10.0).divergent
    spec = _powered_spec(params, kernel, p)
    assert spec == AsymptoticSpec(-(N - alpha), 0.0)
    powered = RadialProfile(declared.log_evaluate, infinity_spec=spec,
                            scale=declared.scale, positive_mass_near_zero=True)
    for r in (0.0, 10.0, 1e4):
        assert math.isfinite(convolve_radial(kernel, powered, r).value)
    row = upper_bound_prediction(kernel, powered)
    assert row.spec == AsymptoticSpec(0.0, 1.0 + beta)
    u = u_upper_bound(params).spec
    rhs = rhs_upper_bound(params, kernel, p, q)
    assert rhs.spec == AsymptoticSpec(row.spec.power + q * u.power, row.spec.logpower + q * u.logpower)


def _gt(a, b):
    return a > b and not approx_eq(a, b)


def _lt(a, b):
    return a < b and not approx_eq(a, b)


def _expected_rhs(N, alpha, beta, gamma, tau, p, q):
    """The product-estimate table, transcribed with tolerant comparisons;
    None where no bound is catalogued."""
    g2 = gamma - 2.0
    gamma_is_n = approx_eq(gamma, float(N))
    if approx_eq(alpha, float(N)):
        if not approx_eq(tau, 0.0):
            return None
        if gamma_is_n:
            return (-N - (N - 2.0) * q, beta + q) if _gt(p, N / (N - 2.0)) else None
        return (-g2 * (p + q), 1.0 + beta) if _lt(p, N / g2) else None
    t = 1.0 + tau if gamma_is_n else tau
    p_low, p_high = (N - alpha) / g2, N / g2
    if approx_eq(p, p_low):
        return (-g2 * q, 1.0 + beta + t * (p + q)) if _lt(beta + t * p, -1.0) else None
    if approx_eq(p, p_high):
        return (-alpha - g2 * q, 1.0 + beta + t * (p + q)) if _gt(t * p, -1.0) else None
    if _gt(p, p_low) and _lt(p, p_high):
        return (N - alpha - g2 * (p + q), beta + t * (p + q))
    if _gt(p, p_high):
        return (-alpha - g2 * q, beta + t * q)
    return None


@st.composite
def _rhs_inputs(draw):
    N = draw(st.integers(3, 5))
    alpha = draw(st.sampled_from([0.5, 1.0, 2.0, float(N)]))
    gamma = draw(st.one_of(st.just(float(N)), st.floats(2.1, N - 0.01)))
    tau = draw(st.one_of(st.just(0.0), st.floats(-0.95, 0.95)))
    g2 = gamma - 2.0
    p_low, p_high = (N - alpha) / g2, N / g2
    u = draw(st.floats(0.01, 0.99))
    base = draw(st.sampled_from([p_low, p_high, p_low + u * (p_high - p_low), p_high * (1.0 + u), p_low * (1.0 - u)]))
    p = base * (1.0 + draw(st.sampled_from([-1e-13, 0.0, 1e-13])))
    beta = alpha - N + draw(st.floats(0.001, 4.0))
    q = draw(st.floats(0.1, 4.0))
    return N, alpha, beta, gamma, tau, p, q


@given(_rhs_inputs())
@settings(max_examples=200, deadline=None)
def test_rhs_envelope_agrees_with_the_product_table_near_thresholds(inputs):
    """On and within 1e-13 of p = (N-alpha)/(gamma-2) (sigma = N - alpha) and
    p = N/(gamma-2), the envelope is the table's row, or both refuse."""
    N, alpha, beta, gamma, tau, p, q = inputs
    assume(p > 0.0)
    t = 1.0 + tau if approx_eq(gamma, float(N)) else tau
    # the table's log thresholds are not what this test probes
    assume(abs(beta + t * p + 1.0) > 1e-9 and abs(t * p + 1.0) > 1e-9)
    expected = _expected_rhs(N, alpha, beta, gamma, tau, p, q)
    params, kernel = AnsatzParams(N=N, gamma=gamma, tau=tau, A=10.0), KernelParams(N, alpha, beta)
    if expected is None:
        with pytest.raises(OutOfHypothesis):
            rhs_upper_bound(params, kernel, p, q)
        return
    spec = rhs_upper_bound(params, kernel, p, q).spec
    assert math.isclose(spec.power, expected[0], rel_tol=0.0, abs_tol=1e-12)
    assert math.isclose(spec.logpower, expected[1], rel_tol=0.0, abs_tol=1e-12)


def test_saturated_kernel_near_diagonal_ratio():
    """alpha = N, sigma < N: the reaction concentrates near s = r.

    conv / (|S^(N-1)| f(r) Lambda(r)) drifts down toward 1, where Lambda
    collects the kernel's cumulative log mass.
    """
    kernel = KernelParams(3, 3.0, 0.5)
    params = AnsatzParams(N=3, gamma=2.5, tau=0.0, A=10.0)
    _, powered = _powered_envelope(params, 4.0)

    def cumulative(r):
        val, _ = integrate.quad(
            lambda t: math.log1p(t) ** kernel.beta / t,
            0.0, r, points=[1e-6, 1.0, min(100.0, r / 2.0)], limit=200,
        )
        return val

    ratios = []
    for r in (1e4, 1e6, 1e8):
        conv = convolve_radial(kernel, powered, r).value
        model = unit_sphere_area(3) * powered.evaluate(r) * cumulative(r)
        ratios.append(conv / model)
    assert all(0.9 < x < 1.3 for x in ratios)
    assert ratios[0] > ratios[1] > ratios[2]


def test_saturated_kernel_mass_dominated_ratio():
    """alpha = N, sigma > N: the reaction looks like total mass times K(r)."""
    kernel = KernelParams(3, 3.0, 0.5)
    params = AnsatzParams(N=3, gamma=3.0, tau=0.0, A=10.0)
    _, powered = _powered_envelope(params, 4.0)

    inner, _ = integrate.quad(
        lambda s: powered.evaluate(s) * s * s, 0.0, 1e3, points=[1.0, 30.0], limit=200
    )
    outer, _ = integrate.quad(lambda s: powered.evaluate(s) * s * s, 1e3, math.inf)
    mass = unit_sphere_area(3) * (inner + outer)
    assert math.isclose(mass, 294.43829192, rel_tol=1e-6)

    ratios = []
    for r in (1e4, 1e6, 1e8):
        conv = convolve_radial(kernel, powered, r).value
        ratios.append(conv / (mass * eval_kernel(kernel, r)))
    assert all(0.9 < x < 1.3 for x in ratios)
    assert ratios[0] > ratios[1] > ratios[2]


def test_potential_table_matches_direct_quadrature():
    params = AnsatzParams(N=3, gamma=2.5, tau=0.3, A=10.0)
    table = PotentialTable(params, r_max=1e6)
    for r in (0.0, 0.5, 7.3, 123.4, 5e4):
        assert math.isclose(table(r), u_eval(params, r), rel_tol=1e-5)


# u(0) = int_sqrt(A)^inf w^(-1.5) log(w)^0.3 dw for (N, gamma, tau, A) = (3, 2.5, 0.3, 10),
# by mpmath quad at 30 digits
SLOW_LOG_U0 = 1.5342122738476517


def test_u_eval_at_origin_with_slow_log_decay():
    """About 5 % of u(0) lies past s = 1e3 sqrt(A); a sweep that handed over to the
    tail model there was 3.9e-5 off."""
    assert abs(u_eval(AnsatzParams(3, 2.5, 0.3, 10.0), 0.0) - SLOW_LOG_U0) <= 1e-10


def test_potential_table_nodes_match_closed_form():
    """(N, gamma, tau) = (3, 3, 0): u = asinh(r/sqrt(A))/r, 1/sqrt(A) at r = 0, on every
    node up to r = 1e9; error_estimate covers the worst node without being vacuous."""
    params = AnsatzParams(N=3, gamma=3.0, tau=0.0, A=10.0)
    table = PotentialTable(params, r_max=1e9)
    root_a = math.sqrt(params.A)
    radii = np.geomspace(1e-3 * root_a, 1e9, 480)
    exact = np.concatenate(([1.0 / root_a], np.arcsinh(radii / root_a) / radii))
    relerr = np.abs(table(np.concatenate(([0.0], radii))) - exact) / exact
    assert relerr.max() <= 1e-12
    assert relerr.max() <= table.error_estimate <= 1e-8


def test_potential_table_error_estimate_covers_slow_log_decay():
    table = PotentialTable(AnsatzParams(N=3, gamma=2.5, tau=0.3, A=10.0), r_max=1e6)
    assert abs(table(0.0) - SLOW_LOG_U0) <= table.error_estimate * SLOW_LOG_U0
    assert table.error_estimate <= 1e-8


@pytest.mark.parametrize("params", [(3, 3.0, 0.0, 10.0), (3, 2.5, 0.3, 10.0), (5, 4.83, 0.0, 10.0),
                                    (3, 3.0, -0.875, 10.0)])
def test_potential_table_error_estimate_covers_the_spline_between_nodes(params):
    """At 20,001 radii up to the certificate's r_max = 4e9, against asinh(r/sqrt(A))/r
    for (3, 3, 0) and against a direct sweep over those radii otherwise."""
    p = AnsatzParams(*params)
    table = PotentialTable(p, r_max=4e9)
    radii = np.geomspace(1e-3 * math.sqrt(p.A), 4e9, 20001)
    if params == (3, 3.0, 0.0, 10.0):
        exact = np.arcsinh(radii / math.sqrt(p.A)) / radii
    else:
        exact = newtonian_potential_radial(p.N, source_profile(p), radii).value
    assert np.max(np.abs(table(radii) / exact - 1.0)) <= table.error_estimate


@pytest.mark.parametrize("params, most", [
    ((3, 3.0, 0.0, 10.0), 1e-11), ((3, 2.5, 0.3, 10.0), 1e-11), ((3, 3.0, -0.875, 10.0), 1e-11),
    # the sweep's own error bound at r_max: QUADPACK's estimate for the one-octave
    # panels of s v ~ s^-3.83 past r_max, where the values are good to 1e-14
    ((5, 4.83, 0.0, 10.0), 1e-9)])
def test_potential_table_reads_the_layer_cake(params, most):
    """At 20,001 radii up to r_max = 4e9 the read is good to 1e-13, against
    asinh(r/sqrt(A))/r for (3, 3, 0) and against a direct sweep over those radii
    otherwise, and error_estimate covers it."""
    p = AnsatzParams(*params)
    table = PotentialTable(p, r_max=4e9)
    radii = np.geomspace(1e-3 * math.sqrt(p.A), 4e9, 20001)
    if params == (3, 3.0, 0.0, 10.0):
        exact = np.arcsinh(radii / math.sqrt(p.A)) / radii
    else:
        exact = newtonian_potential_radial(p.N, source_profile(p), radii).value
    relerr = np.max(np.abs(table(radii) / exact - 1.0))
    assert relerr <= 1e-13
    assert relerr <= table.error_estimate <= most


def _case2_potential(r: float) -> float:
    """u(r) for (N, gamma, tau, A) = (3, 3, -0.875, 10) by mpmath at 30 digits:
    u = M/r + T with T = int_(log w(r))^inf e^-x x^tau dx (x = log w, s ds = w dw)
    and M = int_0^r s^2 v ds, in x = log s past s = 1."""
    with mp.workdps(30):
        A, tau = mp.mpf(10), mp.mpf(-0.875)
        total = mp.quad(lambda x: mp.exp(-x) * x ** tau, [mp.log(mp.sqrt(A + mp.mpf(r) ** 2)), mp.inf])
        if r == 0.0:
            return float(total)

        def shell(s):
            w = mp.sqrt(A + s * s)
            return s * s * w ** -3 * mp.log(w) ** tau

        mass = mp.quad(shell, [0, min(mp.mpf(r), 1)])
        if r > 1.0:
            mass += mp.quad(lambda x: mp.exp(x) * shell(mp.exp(x)), mp.linspace(0, mp.log(r), 60))
        return float(mass / r + total)


def test_potential_table_reaches_past_the_source_float_range():
    """Case 2's source v = w^-3 log(w)^-0.875 is subnormal from s ~ 6e106 and 0.0 from
    1.5e107; read in logs, the table to r_max = 4e126 builds, and its error_estimate
    covers the error against mpmath from r = 0 to r_max."""
    table = PotentialTable(AnsatzParams(3, 3.0, -0.875, 10.0), 4e126)
    assert table.error_estimate <= 1e-5
    for r in (0.0, 1.0, 1e5, 1e40, 1e107, 4e126):
        exact = _case2_potential(r)
        assert abs(table(r) / exact - 1.0) <= table.error_estimate, r


def test_potential_of_a_source_that_is_subnormal_far_out():
    """At A = 1e200 the source w^-3 is subnormal past s ~ 1e103, where s^2 v is not;
    in logs u(1) matches asinh(1e-100) within its error_estimate (it read 1.24e-8 off
    against an estimate of 7.1e-9 in floats)."""
    res = newtonian_potential_radial(3, source_profile(AnsatzParams(3, 3.0, 0.0, 1e200)), [1.0])
    exact = math.asinh(1e-100)
    assert abs(res.value[0] - exact) <= res.error_estimate[0] <= 1e-10 * exact


def test_potential_where_the_weight_squared_overflows():
    """w = hypot(sqrt(A), r) stays finite where A + r^2 overflows (r > 1.3e154): for the
    source w^-3 the potential is asinh(r/sqrt(A))/r, 1/sqrt(A) at r = 0, and a table whose
    sweep runs past 1e154 builds without a RuntimeWarning."""
    A = 1e300
    res = newtonian_potential_radial(3, source_profile(AnsatzParams(3, 3, 0, A)), [0.0, 1e150])
    exact = np.array([1.0 / math.sqrt(A), math.asinh(1e150 / math.sqrt(A)) / 1e150])
    assert np.all(np.abs(res.value / exact - 1.0) <= 1e-12)
    table = PotentialTable(AnsatzParams(3, 3, 0, 10), r_max=1e152)
    assert abs(table(1e152) / (math.asinh(1e152 / math.sqrt(10.0)) / 1e152) - 1.0) <= table.error_estimate


def test_potential_table_nodes_ascend_below_the_scale():
    """For r_max below 1e-3 sqrt(A) the nodes start at 1e-3 r_max, so the reads
    match asinh(r/sqrt(A))/r on [0, r_max]."""
    params = AnsatzParams(3, 3.0, 0.0, 1e6)
    table = PotentialTable(params, r_max=0.1)
    assert np.all(np.diff(table._nodes) > 0.0)
    radii = np.array([0.0, 1e-6, 1e-3, 0.05, 0.1])
    exact = np.where(radii > 0.0, np.arcsinh(radii / 1e3) / np.where(radii > 0.0, radii, 1.0), 1e-3)
    assert np.max(np.abs(table(radii) / exact - 1.0)) <= max(table.error_estimate, 1e-14)


def test_potential_table_refuses_radii_past_r_max():
    table = PotentialTable(AnsatzParams(N=3, gamma=2.5, tau=0.3, A=10.0), r_max=1e6)
    assert math.isfinite(table(1e6))
    for r in (1.01e6, np.array([0.0, 1.01e6])):
        with pytest.raises(ParameterError):
            table(r)


def test_potential_that_is_not_positive_is_refused():
    """At N = 40 and r_max = 1e10 the potential underflows to 0 at the outer nodes."""
    with pytest.raises(ParameterError, match="potential must be positive"):
        PotentialTable(AnsatzParams(40, 40.0, 0.0, 10.0), r_max=1e10)


# r^(2-N) overflows at the innermost radius, for a table 1e-3 min(sqrt(A), r_max)
@pytest.mark.parametrize("build, r, N", [
    (lambda: u_eval(AnsatzParams(130, 130.0, 0.0, 10.0), 1e-3), 1e-3, 130),
    (lambda: PotentialTable(AnsatzParams(130, 130.0, 0.0, 10.0), r_max=10.0), 1e-3 * math.sqrt(10.0), 130),
    (lambda: PotentialTable(AnsatzParams(126, 126.0, 0.0, 10.0)), 1e-3 * math.sqrt(10.0), 126),
])
def test_potential_past_the_float_range_is_refused(build, r, N):
    with pytest.raises(ParameterError, match=re.escape(f"float range at r = {r!r} for N = {N}")):
        build()


def test_default_certificate_stays_inside_its_table(monkeypatch):
    """verify_supersolution sizes r_max for its own outermost tail probe,
    2 s_max at the last extension radius, which lands on r_max."""
    reach = []
    call = PotentialTable.__call__

    def spy(self, r):
        reach.append(float(np.max(r)) / self.r_max)
        return call(self, r)

    monkeypatch.setattr(PotentialTable, "__call__", spy)
    case = choose_case_params("2", 3, 1.0, -1.5, 2.0, 4.0)
    assert verify_supersolution(case, KernelParams(3, 1.0, -1.5), 2.0, 4.0).passed
    assert max(reach) == 1.0


@pytest.mark.parametrize("case_id, N, alpha, beta, p, q, most, exact", [
    # alpha = N: e = N - 1 + beta - alpha = 0, a log cusp graded with u^4
    # (83,445 evaluations with the u^2 grading)
    ("T4-2", 3, 3.0, 1.0, 4.0, 1.0, 30_300, False),
    # e = -1/2 keeps its u^2 grading, so its count stays exact: 15 per G7-K15 panel
    ("2", 3, 1.0, -1.5, 2.0, 4.0, 13_050, True),
])
def test_certificate_convolution_work(monkeypatch, case_id, N, alpha, beta, p, q, most, exact):
    """Integrand evaluations summed over one certificate's convolutions: a
    deterministic work counter, so a cusp grading that falls back to a bisection
    chain shows up without a timer."""
    evaluations = []
    convolve = ansatz.convolve_radial

    def counted(*args):
        res = convolve(*args)
        evaluations.append(res.evaluations)
        return res

    monkeypatch.setattr(ansatz, "convolve_radial", counted)
    case = choose_case_params(case_id, N, alpha, beta, p, q)
    assert verify_supersolution(case, KernelParams(N, alpha, beta), p, q).passed
    total = sum(evaluations)
    assert total == most if exact else total <= most, total


class TestVerifySupersolution:
    def test_small_grid_certificate(self):
        kernel = KernelParams(3, 1.0, -1.5)
        case = choose_case_params("2", 3, 1.0, -1.5, 2.0, 4.0)
        rep = verify_supersolution(case, kernel, 2.0, 4.0, grid=[0.0, 1.0, 10.0, 100.0])
        assert rep.passed and rep.stable
        assert rep.S > 0.0 and math.isfinite(rep.S)
        assert math.isclose(rep.C, rep.S ** (-1.0 / 5.0), rel_tol=1e-12)
        assert rep.lam > rep.lam_threshold
        d = rep.to_dict()
        assert set(d) == {
            "case_id", "params", "lambda", "lambda_star", "S", "C",
            "stable", "pass", "margin_profile",
        }
        assert d["pass"] is True
        assert set(d["params"]) == {"N", "alpha", "beta", "p", "q", "gamma", "tau", "A"}
        assert len(rep.margin_profile) == 4 + 8

    def test_lambda_below_threshold_refused(self):
        kernel = KernelParams(3, 3.0, 1.0)
        case = choose_case_params("T4-1", 3, 3.0, 1.0, 2.0, 1.5)
        thr = lambda_star(AnsatzParams(N=3, gamma=case.gamma, tau=case.tau, A=10.0))
        assert thr > 0.0
        with pytest.raises(HypothesisViolated):
            verify_supersolution(case, kernel, 2.0, 1.5, lam=0.5 * thr)

    def test_scaling_undefined_on_unit_exponent_sum(self):
        kernel = KernelParams(3, 1.0, -1.5)
        case = choose_case_params("2", 3, 1.0, -1.5, 2.0, 4.0)
        with pytest.raises(ScalingUndefined):
            verify_supersolution(case, kernel, 0.5, 0.5, grid=[0.0, 1.0, 10.0, 100.0])

    def test_unit_exponent_sum_with_s_at_most_one_keeps_u(self):
        """At p + q = 1 no C moves S; where S <= 1 already, u itself is the answer, C = 1.
        The same call on the default grid reaches S > 1 and is refused."""
        case, kernel = ExistenceCase("1b", 3.0, 0.0), KernelParams(3, 2.9, 0.5)
        rep = verify_supersolution(case, kernel, 0.5, 0.5, lam=1e8, grid=[0.0, 1.0, 2.0])
        assert 0.0 < rep.S <= 1.0 and rep.C == 1.0
        with pytest.raises(ScalingUndefined, match="p \\+ q = 1 admits no scaling fix"):
            verify_supersolution(case, kernel, 0.5, 0.5, lam=1e8)

    @pytest.mark.parametrize("grid", [
        [],
        [0.0],
        [0.0, 1.0, -1.0],
        [0.0, 1.0, math.inf],
        [0.0, 1.0, math.nan],
    ], ids=["empty", "no-positive-radius", "negative", "inf", "nan"])
    def test_bad_grid_refused_by_name(self, grid, monkeypatch):
        def no_work(*args):
            raise AssertionError("work done before the grid was checked")

        monkeypatch.setattr(ansatz, "lambda_star", no_work)
        case = choose_case_params("2", 3, 1.0, -1.5, 2.0, 4.0)
        with pytest.raises(ParameterError, match="grid must hold finite radii"):
            verify_supersolution(case, KernelParams(3, 1.0, -1.5), 2.0, 4.0, grid=grid)

    @pytest.mark.parametrize("case_id, N, alpha, beta, p, q, A", [
        ("T4-2", 3, 3.0, 1.0, 4.0, 1.0, 1e150),
        ("1b", 3, 1.0, 0.0, 4.0, 3.0, 1e200),
    ])
    def test_drift_below_the_float_range_refused(self, case_id, N, alpha, beta, p, q, A):
        """Past the float range the reaction is wrong too (T4-2) or 0 (1b), so the
        drift side's refusal is what keeps these certificates from passing."""
        case = choose_case_params(case_id, N, alpha, beta, p, q)
        with pytest.raises(ParameterError, match="drift side underflows to 0 at r = 0.0"):
            verify_supersolution(case, KernelParams(N, alpha, beta), p, q, A=A)


class TestChooseCaseParams:
    # the nine catalogued constructions on admissible exponents
    CATALOG = [
        ("1a", 5, 1.0, 1.0, 1.5, 2.0),
        ("1b", 3, 1.0, 0.0, 4.0, 3.0),
        ("2", 3, 1.0, -1.5, 2.0, 4.0),
        ("3", 3, 1.0, -1.5, 4.0, 2.0),
        ("4", 3, 1.0, -1.5, 2.4, 2.6),
        ("5", 3, 0.5, -2.25, 2.5, 3.0),
        ("6", 3, 0.5, -2.25, 3.0, 2.5),
        ("T4-1", 3, 3.0, 1.0, 2.0, 1.5),
        ("T4-2", 3, 3.0, 1.0, 4.0, 1.0),
    ]

    @pytest.mark.parametrize("case_id,N,alpha,beta,p,q", CATALOG)
    def test_catalog_produces_admissible_params(self, case_id, N, alpha, beta, p, q):
        case = choose_case_params(case_id, N, alpha, beta, p, q)
        assert case.case_id == case_id
        # must be constructible
        AnsatzParams(N=N, gamma=case.gamma, tau=case.tau, A=10.0)

    def test_midpoint_selection_is_deterministic(self):
        case = choose_case_params("2", 5, 2.0, -1.5, 1.0, 2.0)
        assert case.gamma == 5.0
        assert case.tau == -0.75
        assert "tau" in case.constraint_notes

    def test_endpoint_kernel_redirected(self):
        with pytest.raises(HypothesisViolated) as err:
            choose_case_params("2", 3, 3.0, 0.5, 1.0, 4.0)
        assert "T4" in str(err.value)

    def test_t4_needs_endpoint_kernel(self):
        with pytest.raises(HypothesisViolated):
            choose_case_params("T4-1", 3, 1.0, 1.0, 2.0, 1.5)

    def test_exponent_hypothesis_enforced(self):
        with pytest.raises(HypothesisViolated):
            choose_case_params("5", 3, 0.5, -1.5, 2.5, 3.0)

    def test_empty_interval_reported(self):
        with pytest.raises(EmptyParameterInterval):
            choose_case_params("1a", 3, 0.5, -1.5, 4.0, 3.0)

    def test_unknown_case_id(self):
        with pytest.raises(ParameterError):
            choose_case_params("9z", 3, 1.0, 0.0, 2.0, 2.0)

    def test_low_dimension_refused(self):
        # N = 2 passes the kernel check, so the constructions refuse it themselves
        with pytest.raises(InvalidDimension, match="N >= 3"):
            choose_case_params("1b", 2, 1.0, 0.0, 4.0, 3.0)

    def test_case_three_below_q_one(self):
        """q = t1 = 0.75 < 1: since beta < -1, every tau in (-1, 1) has tau > beta + (1+tau)q."""
        case = choose_case_params("3", 4, 2.5, -1.2, 3.0, 0.75)
        assert (case.gamma, case.tau, case.constraint_notes) == (4.0, 0.0, "gamma = N, tau in (-1, 1)")
        d = classify(ProblemParams(Side.PPLUS, 4, 3.0, 0.75, 2.5, -1.2))
        assert (d.verdict.value, d.clause, d.construction) == ("Exists", "Thm3(iii)", case)


def test_certificate_runs_one_convolution_sweep(monkeypatch):
    """A work counter that no timer noise moves: one case-2 certificate makes one
    array convolve_radial call for the grid and its extension together, so one
    outer sweep and one tail sweep, plus the table's layer cake and its tail.  Every
    evaluation lies on a G7-K15 panel (no separate node at the cusp)."""
    calls, sweeps = [], []
    convolve, sweep = ansatz.convolve_radial, convolution._integrate_marks

    def counted_convolve(*args):
        res = convolve(*args)
        calls.append(res.evaluations)
        return res

    def counted_sweep(*args, **kwargs):
        sweeps.append(len(args[1]))
        return sweep(*args, **kwargs)

    monkeypatch.setattr(ansatz, "convolve_radial", counted_convolve)
    monkeypatch.setattr(convolution, "_integrate_marks", counted_sweep)
    case = choose_case_params("2", 3, 1.0, -1.5, 2.0, 4.0)
    assert verify_supersolution(case, KernelParams(3, 1.0, -1.5), 2.0, 4.0).passed
    assert len(calls) == 1
    assert len(sweeps) <= 4, sweeps
    assert sum(calls) == 13_050

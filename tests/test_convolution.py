"""Radial convolution quadrature against closed forms and independent oracles."""

import math
import os
import subprocess
import sys
import textwrap
from decimal import Decimal, localcontext

import mpmath as mp
import numpy as np
import pytest
from scipy import integrate

from logriesz import (
    AsymptoticSpec,
    DivergentIntegral,
    InvalidDimension,
    KernelParams,
    MissingAsymptoticSpec,
    ParameterError,
    QuadratureFailure,
    RadialProfile,
    angular_factor,
    ball_profile,
    colatitude_total,
    convolve_radial,
    detect_divergence,
    eval_kernel,
    newtonian_potential_radial,
    power_profile,
    unit_sphere_area,
)
from logriesz import cli, convolution
from logriesz.convolution import _Offsets
from logriesz.errors import NonpositiveRadius
from oracles import angular_closed_form, angular_cos_mpmath, angular_mpmath, angular_power_closed_form

NEWTONIAN = KernelParams(3, 1.0, 0.0)


def test_unit_sphere_area_low_dimensions():
    assert math.isclose(unit_sphere_area(1), 2.0, rel_tol=1e-15)
    assert math.isclose(unit_sphere_area(2), 2.0 * math.pi, rel_tol=1e-15)
    assert math.isclose(unit_sphere_area(3), 4.0 * math.pi, rel_tol=1e-15)
    assert math.isclose(unit_sphere_area(4), 2.0 * math.pi ** 2, rel_tol=1e-14)


def test_colatitude_total_matches_sine_integral():
    for N in (2, 3, 4, 5, 7):
        direct, _ = integrate.quad(lambda t, n=N: math.sin(t) ** (n - 2), 0.0, math.pi)
        assert math.isclose(colatitude_total(N), direct, rel_tol=1e-10)


def _sphere_constant_errors(dimensions):
    """Largest relative errors of unit_sphere_area and colatitude_total over
    the dimensions, against 40-digit gamma ratios."""
    area_err = colatitude_err = 0.0
    with mp.workdps(40):
        for N in dimensions:
            half = mp.mpf(N) / 2
            area = 2 * mp.pi ** half / mp.gamma(half)
            area_err = max(area_err, float(abs(unit_sphere_area(N) - area) / area))
            if N >= 2:
                total = mp.sqrt(mp.pi) * mp.gamma(half - mp.mpf(1) / 2) / mp.gamma(half)
                colatitude_err = max(colatitude_err, float(abs(colatitude_total(N) - total) / total))
    return area_err, colatitude_err


def test_sphere_constants_match_mpmath_past_the_gamma_range():
    """math.gamma(N / 2) overflows from N = 344 on; both constants stay finite
    and accurate there (the area may underflow to 0.0, from N = 456)."""
    assert max(_sphere_constant_errors(range(1, 41))) <= 1e-15
    assert max(_sphere_constant_errors(range(41, 401))) <= 1e-13
    dimensions = list(range(401, 10_001, 97)) + [9_999, 10_000]
    assert _sphere_constant_errors(dimensions)[1] <= 1e-10
    assert unit_sphere_area(10_000) == 0.0


def test_convolution_in_high_dimension_stays_finite():
    """Past the math.gamma range the prefactors stay finite and nonzero (not an
    OverflowError).  Only finiteness is checked here; at this N the constant
    kernel reads the ball volume to within 2.8e-14."""
    res = convolve_radial(KernelParams(400, 1.0, 0.0), ball_profile(1.0), 2.0)
    assert math.isfinite(res.value) and res.value > 0.0
    assert math.isfinite(res.error_estimate)


def test_tails_run_with_scipy_integrate_blocked():
    """The analytic tails run on the package's own sweep: in a fresh process
    where importing scipy.integrate fails, a power-profile convolution, an
    array potential and the case 2 certificate still compute.
    convolution.integrate, which perfbench's tracer wraps, still resolves."""
    script = textwrap.dedent("""
        import math, sys
        sys.modules["scipy.integrate"] = None
        import numpy as np
        from logriesz import (KernelParams, choose_case_params, convolve_radial,
                              newtonian_potential_radial, power_profile, verify_supersolution)
        res = convolve_radial(KernelParams(3, 1.0, 0.0), power_profile(4.0, 0.0), 2.0)
        assert math.isfinite(res.value) and res.value > 0.0, res
        pot = newtonian_potential_radial(3, power_profile(2.5, 0.3), np.array([0.0, 2.0, 1e3]))
        assert np.all(np.isfinite(pot.value)) and np.all(pot.value > 0.0), pot
        case = choose_case_params("2", 3, 1.0, -1.5, 2.0, 4.0)
        report = verify_supersolution(case, KernelParams(3, 1.0, -1.5), 2.0, 4.0)
        assert report.passed and math.isclose(report.S, 74.3588397278631, rel_tol=1e-12), report.S
    """)
    package_root = os.path.dirname(os.path.dirname(convolution.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (package_root, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert convolution.integrate.quad is integrate.quad


def test_angular_factor_newtonian_closed_form():
    # N = 3, alpha = 1, beta = 0 collapses to 2 / max(r, s)
    assert math.isclose(angular_factor(3, 1.0, 1.0, NEWTONIAN), 2.0, rel_tol=1e-13)
    assert math.isclose(angular_factor(3, 2.0, 1.0, NEWTONIAN), 1.0, rel_tol=1e-13)
    assert math.isclose(angular_factor(3, 1.0, 2.0, NEWTONIAN), 1.0, rel_tol=1e-13)


def test_angular_factor_at_origin():
    # r = 0: every direction sits at distance s, so the factor is
    # colatitude_total(N) * K(s)
    flat = KernelParams(2, 0.0, 0.0)
    assert math.isclose(angular_factor(2, 0.0, 3.7, flat), math.pi, rel_tol=1e-13)
    k = KernelParams(3, 1.0, 0.5)
    s = 2.5
    assert math.isclose(
        angular_factor(3, 0.0, s, k), 2.0 * eval_kernel(k, s), rel_tol=1e-13
    )


def test_angular_factor_diagonal_divergence():
    # on s == r the integrand behaves like theta^(N-2+beta-alpha); the
    # factor is infinite once that exponent drops to -1
    k = KernelParams(3, 2.5, 0.3)
    assert angular_factor(3, 1.0, 1.0, k) == math.inf
    k_ok = KernelParams(3, 1.8, 0.0)
    assert math.isfinite(angular_factor(3, 1.0, 1.0, k_ok))


def test_angular_factor_matches_colatitude_quadrature():
    """Closed-form N = 3 reduction against direct theta quadrature."""
    k = KernelParams(3, 1.2, 0.7)
    grid = np.geomspace(0.1, 10.0, 10)
    for r in grid:
        for s in grid:
            if math.isclose(r, s, rel_tol=1e-12):
                continue

            def theta_integrand(t):
                d = math.sqrt(r * r + s * s - 2.0 * r * s * math.cos(t))
                return eval_kernel(k, d) * math.sin(t)

            direct, _ = integrate.quad(theta_integrand, 0.0, math.pi, epsabs=1e-13)
            assert math.isclose(angular_factor(3, r, s, k), direct, rel_tol=1e-8)


def test_angular_factor_accepts_arrays():
    k = KernelParams(3, 1.8, 0.4)
    for r in (0.0, 0.7):
        s = np.array([0.01, 0.5, 0.7, 0.7 + 1e-12, 3.0, 1e4])
        got = angular_factor(3, r, s, k)
        assert isinstance(got, np.ndarray) and got.shape == s.shape
        for si, gi in zip(s, got):
            assert math.isclose(gi, angular_factor(3, r, float(si), k), rel_tol=1e-15)
    assert type(angular_factor(3, 0.7, 0.7, k)) is float
    assert type(angular_factor(4, 0.0, 2.0, k)) is float
    assert angular_factor(4, 1.0, np.ones((2, 3)), k).shape == (2, 3)


def test_angular_factor_scales_homogeneously():
    """alpha = 1, beta = 0: angular(lam r, lam s) = angular(r, s) / lam, with no
    product r s to under- or overflow near the ends of the float range."""
    assert math.isclose(angular_factor(3, 1e-200, 2e-200, NEWTONIAN), 1e200, rel_tol=1e-13)
    assert math.isclose(angular_factor(3, 1e200, 2e200, NEWTONIAN), 1e-200, rel_tol=1e-13)
    for N in (3, 4, 5):
        k = KernelParams(N, 1.0, 0.0)
        for ratio in (0.5, 2.0):
            ref = angular_factor(N, 1.0, ratio, k)
            for lam in (1e-300, 1e-200, 1e200, 1e300):
                got = angular_factor(N, lam, lam * ratio, k)
                assert math.isclose(got * lam, ref, rel_tol=1e-13), (N, ratio, lam, got)


def test_angular_factor_diagonal_large_beta():
    # at s = r = 1, N = 3, alpha = 1: angular = int_0^2 log(1+t)^beta dt (mpmath values)
    assert math.isclose(angular_factor(3, 1.0, 1.0, KernelParams(3, 1.0, 60.0)), 14.985554445345941, rel_tol=1e-12)
    assert math.isclose(angular_factor(3, 1.0, 1.0, KernelParams(3, 1.0, 300.0)), 1.9550504035268768e10, rel_tol=1e-12)
    # off the diagonal no diagonal rule runs (a RuntimeWarning is an error in this suite):
    # angular(1, 3) = (1/3) int_2^4 log(1+t)^300 dt
    assert math.isclose(angular_factor(3, 1.0, 3.0, KernelParams(3, 1.0, 300.0)), 8.910793179145335e59, rel_tol=1e-12)


def test_kernel_where_power_underflows_and_log_overflows():
    # at t = 1e110, t^-3 underflows and log(1+t)^150 overflows; K itself is finite
    kernel = KernelParams(3, 3.0, 150.0)
    with mp.workdps(40):
        exact = float(mp.mpf("1e110") ** -3 * mp.log1p(mp.mpf("1e110")) ** 150)
    assert math.isclose(eval_kernel(kernel, 1e110), exact, rel_tol=1e-12)
    # from the origin the sphere of radius s sits at distance s: angular = B_3 K(s) = 2 K(s)
    assert math.isclose(angular_factor(3, 0.0, 1e110, kernel), 2.0 * exact, rel_tol=1e-12)


OFFSETS = (1e-30, 1e-20, 1e-10, 1e-5, 1e-2, 0.3, 1.0, 3.0, math.exp(3), math.exp(7),
           -1e-30, -1e-20, -1e-10, -1e-5, -1e-2, -0.3, -0.9, -0.999)


def _angular_at_offset(N, r, rel, k):
    # the exact offset delta = r rel reaches the rule, as from convolve_radial
    delta = np.array([r * rel])
    return angular_factor(N, r, _Offsets(r + delta, delta), k)[0]


@pytest.mark.parametrize("N,alpha", [(3, 0.5), (3, 1.5), (3, 2.5), (3, 2.9), (5, 1.0), (5, 3.3), (5, 4.6)])
def test_angular_factor_matches_polynomial_weight_closed_form(N, alpha):
    k = KernelParams(N, alpha, 0.0)
    for r in (0.013, 2.0, 900.0):
        for rel in OFFSETS:
            exact = angular_closed_form(N, alpha, r, r * rel)
            assert math.isclose(_angular_at_offset(N, r, rel, k), exact, rel_tol=1e-12), (r, rel, exact)


# s - r = r rel with rho = min(r, s)/max(r, s) < 1/4, on both sides of the diagonal
FAR_RELS = (-0.999, -0.76, 3.1, math.exp(7))
# alpha near N, on FAR_RELS only: test_angular_factor_next_to_the_diagonal_at_alpha_near_N
# records where the panel chain misses at these kernels
ALPHA_NEAR_N = [(7, 6.9, 0.0, 30.0), (9, 8.5, 0.5, 30.0), (9, 8.8, -0.15, 30.0)]


@pytest.mark.parametrize("N,alpha,beta,r", [
    (2, 1.2, 0.7, 0.7), (3, 1.6, -0.4, 30.0), (4, 3.1, 1.5, 0.7), (5, 4.3, -0.5, 30.0),
    (6, 5.5, 0.9, 0.7), (2, 0.5, 0.0, 30.0), (4, 2.0, 0.0, 0.7), (6, 4.7, 0.0, 30.0), *ALPHA_NEAR_N,
])
def test_angular_factor_matches_mpmath(N, alpha, beta, r):
    """Even N and beta != 0, where the weight is not a polynomial; the far grid runs
    the Gauss-Gegenbauer panel, also where t^-alpha falls below 1e-40."""
    k = KernelParams(N, alpha, beta)
    near = () if (N, alpha, beta, r) in ALPHA_NEAR_N else (1e-30, 1e-6, 0.5, -1e-30, -1e-3)
    for rel in near + FAR_RELS:
        exact = angular_mpmath(N, alpha, beta, r, rel)
        assert math.isclose(_angular_at_offset(N, r, rel, k), exact, rel_tol=1e-12), (rel, exact)


@pytest.mark.xfail(strict=True, reason="near-cusp panel chain (ROADMAP smaller findings, CHANGES.md FOUND): "
                                       "at alpha near N it misses the oracle by 1.3e-12 and 1.1e-11")
def test_angular_factor_next_to_the_diagonal_at_alpha_near_N():
    """At r = 30, s - r = -0.03 the panel chain serves both kernels."""
    for N, alpha, beta in ((7, 6.9, 0.0), (9, 8.8, -0.15)):
        exact = angular_mpmath(N, alpha, beta, 30.0, -1e-3)
        got = _angular_at_offset(N, 30.0, -1e-3, KernelParams(N, alpha, beta))
        assert math.isclose(got, exact, rel_tol=1e-12), (N, alpha, beta, got / exact - 1.0)


@pytest.mark.parametrize("N,alpha,beta,M,rho", [
    (3, 1.0, 300.0, 0.7, 0.2), (3, 1.0, 600.0, 0.7, 0.1), (400, 399.0, 1.0, 1.5, 0.2),
    (400, 399.0, 1.0, 1.5, 0.249), (60, 11.25, 591.0, 1e100, 0.249),
])
def test_far_field_panel_admits_only_kernels_it_resolves(N, alpha, beta, M, rho):
    """rho < 1/4, but log K varies by 94-203 e-folds over t in [M - m, M + m] for the first
    four, where one Gauss-Gegenbauer panel errs by 4.5e-7 to 6.6e-3, and by 7 for the last."""
    got = angular_factor(N, M, rho * M, KernelParams(N, alpha, beta))
    exact = angular_cos_mpmath(N, alpha, beta, M, rho)
    assert math.isclose(got, exact, rel_tol=1e-12), got / exact - 1.0


# (r, s - r) pairs of the N = 3 table rows: every offset from +-1e-30 r to +-r/2 and radii 1e-3 to 1e6
TABLE_ROWS = [(1e-3, 1e-33), (1e-3, -5e-4), (30.0, -3e-29), (30.0, 3e-5), (1e6, -1.0), (1e6, 5e5)]


def _table_call(k, rows):
    """angular_factor at N = 3 on all rows in one _Offsets call, as from convolve_radial, with
    the mask of the rows _angular_table serves."""
    r, delta = (np.array(v) for v in zip(*rows))
    served, _ = convolution._angular_table(r, r + delta, delta, k.alpha, k.beta)
    return angular_factor(3, r, _Offsets(r + delta, delta), k), served


@pytest.mark.parametrize("alpha,beta,served", [
    # T4-2: int t K converges at infinity only, the least cell is the last
    (3.0, 1.0, [1, 1, 1, 1, 1, 1]),
    # case 2: at neither end, the least cell lies inside the lattice
    (1.0, -1.5, [1, 1, 1, 1, 1, 1]),
    # at 0 only, the least cell is the first
    (0.5, 1.0, [1, 1, 1, 1, 1, 1]),
    # at both ends: t^2 K rises from the first cell up to t = 3.9 and falls past it, so at the
    # last row G(D) - G(d) is 1/290 of G(D), and the chain serves it
    (2.5, 1.0, [1, 1, 1, 1, 1, 0]),
    # log(1+t)^60 varies by more than _LOG_SPREAD / 2 e-folds per cell below t = 35: the chain
    # serves every row whose d lies there
    (1.0, 60.0, [0, 0, 0, 0, 0, 1]),
])
def test_angular_table_matches_mpmath(alpha, beta, served):
    k = KernelParams(3, alpha, beta)
    got, table = _table_call(k, TABLE_ROWS)
    assert table.tolist() == [bool(x) for x in served]
    for (r, delta), value in zip(TABLE_ROWS, got):
        exact = angular_mpmath(3, alpha, beta, r, delta / r)
        assert math.isclose(value, exact, rel_tol=1e-12), (r, delta, value / exact - 1.0)
        # the public scalar entry, where s - r is the offset itself
        if (r + delta) - r == delta:
            assert math.isclose(angular_factor(3, r, r + delta, k), value, rel_tol=1e-13), (r, delta)


@pytest.mark.parametrize("alpha", [0.0, 1.0, 2.0, 2.9])
def test_angular_table_matches_power_closed_form(alpha):
    """beta = 0 in one call over every radius and offset: one lattice spans 1e-33 to 3e6, and at
    alpha = 2, where t^2 K is flat, G grows by the same amount per cell on either side of its anchor."""
    rows = [(r, r * rel) for r in (1e-3, 0.7, 30.0, 1e6) for rel in (1e-30, 1e-10, 1e-3, 0.1, 0.5, -1e-30, -1e-3, -0.5)]
    got, table = _table_call(KernelParams(3, alpha, 0.0), rows)
    # at alpha = 2 a row far from the anchor may cancel by more than _TABLE_ERR allows: the chain
    assert table.all() if alpha != 2.0 else (~table).sum() <= 2
    for (r, delta), value in zip(rows, got):
        exact = angular_power_closed_form(alpha, r, delta)
        assert math.isclose(value, exact, rel_tol=1e-12), (r, delta, value / exact - 1.0)


def test_angular_table_leaves_the_ends_of_the_float_range_to_the_chain():
    """Logs of t near 1e+-200 round by more than _TABLE_ERR allows (see test_angular_factor_scales_homogeneously)."""
    r = np.array([1e-200, 1e200, 1.0])
    served, _ = convolution._angular_table(r, 2.0 * r, r, 1.0, 0.0)
    assert served.tolist() == [False, False, True]


@pytest.mark.parametrize("a,b", [(-0.5, -0.5), (0.0, 0.0), (1.0, 1.0), (198.5, 198.5), (3.2, 0.0)])
def test_jacobi_rule_is_exact_up_to_degree_2n_minus_1(a, b):
    """The 16-point rule for y^a (1-y)^b on [0, 1] (a = b = (N-3)/2 for N = 2, 3, 5, 400,
    and the origin panel's b = 0) against Beta-function ratios for every y^i (1-y)^j, i + j <= 31."""
    y, w = convolution._jacobi_rule(a, b)
    with mp.workdps(30):
        for i in range(32):
            for j in range(32 - i):
                exact = mp.beta(a + i + 1, b + j + 1) / mp.beta(a + 1, b + 1)
                assert math.isclose(float(np.dot(w, y ** i * (1.0 - y) ** j)), exact, rel_tol=1e-13), (i, j)


@pytest.mark.parametrize("N", [2, 3, 9, 400])
def test_far_field_weights_sum_to_the_colatitude_total(N):
    """Mapped to x = 2y - 1, the weights integrate (1 - x^2)^((N-3)/2) = 2^(N-2) B((N-1)/2, (N-1)/2)."""
    a = (N - 3) / 2.0
    _, w = convolution._jacobi_rule(a, a)
    with mp.workdps(30):
        exact = mp.mpf(2) ** (N - 2) * mp.beta(a + 1, a + 1)
    assert math.isclose(colatitude_total(N) * w.sum(), exact, rel_tol=1e-14)


def _ball_riesz_closed_form(alpha, r):
    """(K * 1_B)(r) in R^3 for K = t^(-alpha), from the N = 3 angular factor
    ((r+s)^c - |r-s|^c) / (c r s), c = 2 - alpha, in 60-digit arithmetic."""
    with localcontext() as ctx:
        ctx.prec = 60
        a, r = Decimal(alpha), Decimal(r)
        c = 2 - a

        def F(x):
            return x ** (c + 2) / (c + 2)

        def G(x):
            return x ** (c + 1) / (c + 1)

        near = F(r + 1) - F(r) - r * (G(r + 1) - G(r))
        if r <= 1:
            far = r * G(r) - F(r) + F(1 - r) + r * G(1 - r)
        else:
            far = r * (G(r) - G(r - 1)) - (F(r) - F(r - 1))
        pi = Decimal("3.14159265358979323846264338327950288419716939937510582097494")
        return float(2 * pi * (near - far) / (c * r))


def test_error_estimate_covers_closed_form():
    """|value - exact| <= error_estimate on the unit ball, up to alpha = 2.999.

    Near alpha = N the cusp at s = r carries most of the value, spread over
    hundreds of decades of |s - r|; the estimate has to cover that, not just
    look small.
    """
    f = ball_profile(1.0)
    for alpha in (0.3, 1.0, 1.7, 2.2, 2.5, 2.8, 2.95, 2.99, 2.999):
        k = KernelParams(3, alpha, 0.0)
        for r in (0.01, 0.3, 0.5, 0.999, 1.0, 1.5, 7.0, 1e3):
            res = convolve_radial(k, f, r)
            exact = _ball_riesz_closed_form(alpha, r)
            assert abs(res.value - exact) <= res.error_estimate, (alpha, r, res, exact)
            assert res.error_estimate <= 1e-8 * exact


@pytest.mark.parametrize("N", [4, 5])
def test_error_estimate_covers_newtonian_ball_even_dimension(N):
    """alpha = N - 2, beta = 0 on the unit ball: |S^(N-1)| (1/2 - (N-2) r^2/(2N))
    inside, |S^(N-1)| r^(2-N) / N outside."""
    k = KernelParams(N, N - 2.0, 0.0)
    area = unit_sphere_area(N)
    for r in (0.01, 0.3, 0.5, 0.999, 1.0, 1.001, 1.5, 7.0, 1e3):
        exact = area * (0.5 - (N - 2) * r * r / (2.0 * N)) if r <= 1.0 else area * r ** (2 - N) / N
        res = convolve_radial(k, ball_profile(1.0), r)
        assert abs(res.value - exact) <= res.error_estimate, (r, res, exact)


def test_non_finite_radius_rejected():
    for r in (math.nan, math.inf):
        with pytest.raises(NonpositiveRadius):
            convolve_radial(NEWTONIAN, ball_profile(1.0), r)
        with pytest.raises(NonpositiveRadius):
            newtonian_potential_radial(3, ball_profile(1.0), r)
        with pytest.raises(NonpositiveRadius):
            angular_factor(3, r, 1.0, NEWTONIAN)
        with pytest.raises(NonpositiveRadius):
            angular_factor(3, 1.0, r, NEWTONIAN)


@pytest.mark.parametrize("alpha, beta", [(0.0, 1.0), (1.0, 0.0), (0.0, 0.0)])
def test_angular_factor_rejects_r_plus_s_past_the_float_range(alpha, beta):
    """Scalar and array s raise NonpositiveRadius, not an overflow warning, once r + s
    leaves the float range; just inside it the value is finite."""
    k = KernelParams(3, alpha, beta)
    with pytest.raises(NonpositiveRadius, match="float range"):
        angular_factor(3, 1.5e308, 3.3e307, k)
    with pytest.raises(NonpositiveRadius, match="float range"):
        angular_factor(3, 1.5e308, np.array([1.0, 3.3e307]), k)
    assert math.isfinite(angular_factor(3, 1.5e308, 2.9e307, k))
    assert np.all(np.isfinite(angular_factor(3, 1.5e308, np.array([1.0, 2.9e307]), k)))


def test_non_finite_integrand_raises_quadrature_failure():
    bad = RadialProfile(
        lambda s: np.where(np.asarray(s) < 0.5, 0.0, np.inf),
        support_radius=1.0,
    )
    with pytest.raises(QuadratureFailure) as err:
        convolve_radial(NEWTONIAN, bad, 0.3)
    # the refusal names the node as a plain float
    assert "np.float64" not in str(err.value) and "non-finite integrand at s = 0." in str(err.value)


def test_ball_convolution_newtonian_exact():
    """Unit ball under the alpha = 1 kernel in R^3: mass / max(r, 1)."""
    f = ball_profile(1.0)
    mass = 4.0 * math.pi / 3.0
    for r in (2.0, 10.0, 1e3):
        res = convolve_radial(NEWTONIAN, f, r)
        assert math.isclose(res.value, mass / r, rel_tol=1e-10)
        assert res.error_estimate < 1e-8 * abs(res.value)
        assert res.evaluations > 0
        assert not res.divergent


def test_ball_convolution_inside_values():
    # (K * 1_B)(r) for K = 1/t in R^3 equals 4 pi (1/2 - r^2 / 6) inside
    f = ball_profile(1.0)
    for r in (0.0, 0.3, 0.7, 1.0):
        res = convolve_radial(NEWTONIAN, f, r)
        exact = 4.0 * math.pi * (0.5 - r * r / 6.0)
        assert math.isclose(res.value, exact, rel_tol=1e-9)


def test_constant_kernel_returns_total_mass():
    """alpha = beta = 0 makes the convolution r-independent."""
    flat = KernelParams(3, 0.0, 0.0)
    f = ball_profile(1.0)
    mass = 4.0 * math.pi / 3.0
    for r in (0.0, 1.0, 10.0):
        res = convolve_radial(flat, f, r)
        assert math.isclose(res.value, mass, rel_tol=1e-10)


def test_one_dimensional_reduction():
    # N = 1 with a flat kernel integrates f over the whole line
    flat = KernelParams(1, 0.0, 0.0)
    f = ball_profile(1.0)
    for r in (0.0, 0.4, 3.0):
        res = convolve_radial(flat, f, r)
        assert math.isclose(res.value, 2.0, rel_tol=1e-10)


def test_linearity_in_the_profile():
    k = KernelParams(3, 1.5, 0.5)
    f = power_profile(4.0, 0.0, A=10.0)
    g = ball_profile(2.0)
    c = 2.75
    r = 3.0

    combo = RadialProfile(
        lambda s: np.logaddexp(math.log(c) + f.log_evaluate(s), g.log_evaluate(s)),
        infinity_spec=f.infinity_spec,
        scale=f.scale,
    )
    v_combo = convolve_radial(k, combo, r).value
    v_parts = c * convolve_radial(k, f, r).value + convolve_radial(k, g, r).value
    assert math.isclose(v_combo, v_parts, rel_tol=1e-8)


def test_detect_divergence_cases():
    assert detect_divergence(NEWTONIAN, power_profile(1.0, 0.0)) is True
    assert detect_divergence(NEWTONIAN, power_profile(4.0, 0.0)) is False
    assert detect_divergence(NEWTONIAN, ball_profile(1.0)) is False
    # border decay: sigma == N - alpha, combined log weight decides
    assert detect_divergence(KernelParams(3, 1.0, -0.5), power_profile(2.0, -0.5)) is True
    assert detect_divergence(KernelParams(3, 1.0, -0.5), power_profile(2.0, -0.6)) is False

    bare = RadialProfile(lambda s: -np.log1p(s))
    with pytest.raises(MissingAsymptoticSpec):
        detect_divergence(NEWTONIAN, bare)


def test_divergent_convolution_flagged_not_computed():
    slow = RadialProfile(
        lambda s: -np.log1p(s),
        infinity_spec=AsymptoticSpec(-1.0, 0.0),
    )
    res = convolve_radial(NEWTONIAN, slow, 1.0)
    assert res.divergent
    assert res.value == math.inf
    assert res.evaluations == 0


def test_newtonian_oracle_ball_profile():
    f = ball_profile(1.0)
    u2 = newtonian_potential_radial(3, f, 2.0)
    u0 = newtonian_potential_radial(3, f, 0.0)
    u1 = newtonian_potential_radial(3, f, 1.0)
    assert math.isclose(u2, 1.0 / 6.0, rel_tol=1e-10)
    assert math.isclose(u0, 0.5, rel_tol=1e-10)
    assert math.isclose(u1, 1.0 / 3.0, rel_tol=1e-10)


def test_newtonian_oracle_rejects_fat_tails():
    with pytest.raises(DivergentIntegral):
        newtonian_potential_radial(3, power_profile(2.0, 0.0), 1.0)


def test_riesz_kernel_matches_newtonian_oracle():
    """alpha = N - 2, beta = 0 reproduces the Poisson potential.

    20 random profile/radius pairs across N = 3 and N = 5; the two code
    paths share nothing past the profile object.
    """
    rng = np.random.default_rng(42)
    for trial in range(20):
        N = 3 if trial % 2 == 0 else 5
        kernel = KernelParams(N, float(N - 2), 0.0)
        sigma = float(rng.uniform(N + 0.5, N + 3.0))
        A = float(rng.uniform(2.0, 30.0))
        f = power_profile(sigma, 0.0, A=A)
        r = float(rng.uniform(0.0, 20.0))
        conv = convolve_radial(kernel, f, r).value
        direct = newtonian_potential_radial(N, f, r)
        assert math.isclose(conv / ((N - 2) * unit_sphere_area(N)), direct, rel_tol=1e-6)


def test_write_convolution_csv_roundtrip(tmp_path, capsys):
    """convolve --out writes the header and one row per radius that reads back as
    convolve_radial's values."""
    out = tmp_path / "rows.csv"
    assert cli.main(["convolve", "--N", "3", "--alpha", "1", "--beta", "0", "--profile", "ball:1",
                     "--radii", "1:10:3", "--out", str(out)]) == 0
    capsys.readouterr()
    radii = np.geomspace(1.0, 10.0, 3)
    res = convolve_radial(NEWTONIAN, ball_profile(1.0), radii)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "r,value,error_estimate"
    assert len(lines) == 4
    for r, value, line in zip(radii, res.value, lines[1:]):
        cols = line.split(",")
        assert math.isclose(float(cols[0]), r, rel_tol=1e-15)
        assert math.isclose(float(cols[1]), value, rel_tol=1e-12)


def test_power_profile_requires_wide_scale():
    with pytest.raises(ParameterError):
        power_profile(3.0, 0.0, A=0.5)


@pytest.mark.parametrize("r0", [math.inf, math.nan, -math.inf, 0.0])
def test_ball_radius_must_be_positive_and_finite(r0):
    with pytest.raises(NonpositiveRadius):
        ball_profile(r0)


def test_ball_support_past_half_the_float_range_is_refused():
    """A support radius of 1e308 puts s_max past half the float range; the refusal names
    the support, not a tail probe (a compact profile has none)."""
    with pytest.raises(NonpositiveRadius, match="support radius") as info:
        convolve_radial(NEWTONIAN, ball_profile(1e308), np.array([1.0, 10.0]))
    assert "tail probe" not in str(info.value)


@pytest.mark.parametrize("r0", [1e154, 1e200, 1e307])
def test_ball_whose_convolution_leaves_the_float_range_is_refused(r0):
    """Near r = 0 the ball's convolution is about 2 pi r0^2, past the float range from
    r0 ~ 5.3e153 on; the call refuses it by its support radius before the sweep, from
    r0 ~ 3.8e153 on, where its estimate |S^2| r0^3 K(r0) = 4 pi r0^2 gets there, with no
    RuntimeWarning (which the test configuration turns into an error)."""
    with pytest.raises(NonpositiveRadius, match="support radius"):
        convolve_radial(NEWTONIAN, ball_profile(r0), np.array([1.0, 3.0, 10.0]))


def test_ball_just_inside_the_float_range_keeps_its_value():
    """r0 = 1e153: (K * 1_B)(r) = 2 pi r0^2 - 2 pi r^2 / 3 for r <= r0, 6.28e306."""
    res = convolve_radial(NEWTONIAN, ball_profile(1e153), 1.0)
    assert math.isclose(res.value, 2.0 * math.pi * 1e306, rel_tol=1e-12)


@pytest.mark.xfail(strict=True, raises=QuadratureFailure,
                   reason="ROADMAP item 6 (CHANGES.md FOUND): the angular rule hands the sweep K(s) in "
                          "floats, subnormal past s ~ 1e106 at alpha = 2.9, so the sweep cannot converge")
def test_ball_whose_kernel_is_subnormal_at_the_edge_keeps_its_value():
    """At r = 0, (K * 1_B)(0) = 4 pi int_0^R s^(2-alpha) ds = 4 pi R^0.1 / 0.1 for alpha = 2.9
    and R = 1e110, well inside the float range; only K(s) near the edge is subnormal."""
    res = convolve_radial(KernelParams(3, 2.9, 0.0), ball_profile(1e110), 0.0)
    assert math.isclose(res.value, 4.0 * math.pi * 1e110 ** 0.1 / 0.1, rel_tol=1e-12)


@pytest.mark.parametrize("sigma,kappa,A", [(math.nan, 0.0, 10.0), (4.0, math.nan, 10.0), (math.inf, 0.0, 10.0),
                                           (4.0, -math.inf, 10.0), (4.0, 0.0, math.inf), (4.0, 0.0, math.nan)])
def test_power_profile_needs_finite_parameters(sigma, kappa, A):
    with pytest.raises(ParameterError):
        power_profile(sigma, kappa, A)


def test_ball_profile_reads_one_inside_and_zero_outside():
    """log f is 0 and -inf, so evaluate is exactly 1.0 up to r0 and 0.0 past it."""
    f = ball_profile(1.0)
    s = np.array([0.0, 0.5, 1.0, np.nextafter(1.0, 2.0), 3.0])
    assert f.evaluate(s).tolist() == [1.0, 1.0, 1.0, 0.0, 0.0]
    assert f.evaluate(1.0) == 1.0 and f.evaluate(1.5) == 0.0


def test_profile_is_stated_by_its_logarithm_only():
    """log_evaluate is the one callable field; evaluate is its exp, not a field."""
    with pytest.raises(TypeError):
        RadialProfile(evaluate=lambda s: 1.0)
    f = RadialProfile(lambda s: -np.log1p(s))
    assert math.isclose(f.evaluate(3.0), 0.25, rel_tol=1e-15)


def test_power_profile_below_the_float_range_reads_in_logs():
    """f(0) = A^-sigma log(A)^kappa = 1e-400 log(1e200)^-1.5 is below the float range;
    log_evaluate carries it, and evaluate is its exp (1e-300 at A = 1e150)."""
    f = power_profile(2.0, -1.5, A=1e200)
    log_a = 200.0 * math.log(10.0)
    expected = -2.0 * log_a - 1.5 * math.log(log_a)
    assert f.log_evaluate(np.array([0.0]))[0] == pytest.approx(expected, rel=1e-15)
    assert f.evaluate(0.0) == 0.0
    assert power_profile(2.0, 0.0, A=1e150).evaluate(0.0) == pytest.approx(1e-300, rel=1e-13)


def test_potential_of_a_profile_below_the_float_range():
    """power_profile(2, -1.5, A=1e200) is below the float range for s < 1e200, where
    s f is not: its potential at r = 1 is int_(log(A+1))^inf (1 - A e^-x) x^-1.5 dx
    (x = log(A + s); the mass inside r = 1 is 1e-400), 0.0931 by mpmath, and
    convolve_radial with the Newton kernel gives 4 pi times it."""
    with mp.workdps(30):
        big = mp.mpf(10) ** 200
        exact = float(mp.quad(lambda x: (1 - big * mp.exp(-x)) * x ** -1.5,
                              [mp.log(big + 1), mp.log(big) + 1, mp.log(big) + 10, mp.inf]))
    f = power_profile(2.0, -1.5, A=1e200)
    res = newtonian_potential_radial(3, f, [1.0])
    assert abs(res.value[0] - exact) <= res.error_estimate[0] <= 1e-10 * exact
    conv = convolve_radial(KernelParams(3, 1.0, 0.0), f, 1.0)
    assert abs(conv.value - 4.0 * math.pi * exact) <= conv.error_estimate <= 1e-7 * conv.value


def test_log_endpoint_kernel_far_field():
    """alpha = N: values shrink to 1e-15, far below any absolute tolerance.

    The normalized value v * r^2 / log(r)^1.5 must keep falling and the
    reported error must stay far below the value itself.
    """
    k = KernelParams(3, 3.0, 0.5)
    f = power_profile(2.0, 0.0, A=10.0)
    frozen = {1e5: 10.2182, 1e7: 9.6109, 1e9: 9.2949}
    prev = math.inf
    for r, target in frozen.items():
        res = convolve_radial(k, f, r)
        norm = res.value * r * r / math.log(r) ** 1.5
        assert math.isclose(norm, target, rel_tol=2e-3)
        assert res.error_estimate <= 1e-5 * res.value
        assert norm < prev
        prev = norm


@pytest.mark.parametrize("r", [1e35, 1e60])
def test_graded_cusp_far_out_matches_mass_times_kernel(r):
    """Past r = 1e35 the ungraded rows reach s ** grading overflow; the value is
    the far field M K(r), M = |S^2| int s^2 (10 + s)^-3.5 ds = 4 pi 10^-0.5 16/15."""
    k = KernelParams(3, 2.9, 0.0)
    res = convolve_radial(k, power_profile(3.5, 0.0), r)
    mass = 4.0 * math.pi * 10.0 ** -0.5 * 16.0 / 15.0
    assert math.isfinite(res.value)
    assert math.isclose(res.value, mass * eval_kernel(k, r), rel_tol=1e-6)


@pytest.mark.parametrize("N", [3, 4, 5])
def test_power_law_mass_converges_in_one_round(N):
    """With K = 1 the value is the total mass |S^(N-1)| A^(N-sigma) B(N, sigma - N) of
    (A + s)^-sigma at every r.  Off 0 the segments run in log s, where s^(N-1) f is an
    exponential over each decade, so the first panel of every segment meets REL_TOL:
    15 evaluations per segment, no bisection."""
    sigma, A, r = N + 0.5, 10.0, 7.0
    f = power_profile(sigma, 0.0, A)
    res = convolve_radial(KernelParams(N, 0.0, 0.0), f, r)
    exact = unit_sphere_area(N) * A ** (N - sigma) * math.gamma(N) * math.gamma(sigma - N) / math.gamma(sigma)
    segments = len(convolution._grid_marks(r, f, convolution.TRUNCATION_FACTOR * A)) - 1
    assert res.evaluations == 15 * segments
    assert abs(res.value - exact) <= res.error_estimate


def test_segment_wider_than_a_decade_keeps_its_mass():
    """With K = 1 the ball's value is its volume 4 pi / 3 at every r.  At r = 1e-300 the
    segment from 2r to the first decade mark 1/100 spans 298 decades; in log s its mass
    e^(3x) sits within a few units below the top, between the panel's last nodes, which
    would miss 1e-6 of the value, so it runs in s."""
    res = convolve_radial(KernelParams(3, 0.0, 0.0), ball_profile(1.0), 1e-300)
    assert abs(res.value - 4.0 * math.pi / 3.0) <= min(res.error_estimate, 1e-12)


@pytest.mark.parametrize("f", [ball_profile(1.0), power_profile(2.0, -2.0)], ids=["ball", "critical"])
def test_newtonian_potential_of_many_radii_matches_scalar_calls(f):
    """One sweep over an array of radii gives each radius its scalar-call value."""
    radii = np.array([0.0, 0.3, 1.0, 2.0, 7.5, 1e3, 1e5, 1e8])
    res = newtonian_potential_radial(3, f, radii)
    scalar = [newtonian_potential_radial(3, f, float(r)) for r in radii]
    np.testing.assert_allclose(res.value, scalar, rtol=1e-12, atol=0.0)
    assert np.all(res.error_estimate <= 1e-10 * res.value)


def test_newtonian_potential_error_estimates_cover_ball_closed_form():
    """Unit ball in R^3: u = 1/2 - r^2/6 inside, 1/(3r) outside."""
    radii = np.array([0.0, 0.01, 0.5, 0.999, 1.0, 1.001, 2.0, 1e3])
    res = newtonian_potential_radial(3, ball_profile(1.0), radii)
    exact = np.where(radii <= 1.0, 0.5 - radii ** 2 / 6.0, 1.0 / (3.0 * np.maximum(radii, 1.0)))
    assert np.all(np.abs(res.value - exact) <= res.error_estimate)


@pytest.mark.parametrize("N, sigma, r, mass", [(5, 6.0, 1e75, 0.02), (3, 4.0, 1e152, 1.0 / 30.0)])
def test_newtonian_potential_near_overflow_is_its_far_field(N, sigma, r, mass):
    """The sweep runs to 1e3 r, where s^(N-1) overflows; u(r) is the far field
    M / ((N-2) r^(N-2)), M = int s^(N-1) (10 + s)^-sigma ds = B(N, sigma - N) 10^(N - sigma)."""
    u = newtonian_potential_radial(N, power_profile(sigma, 0.0), r)
    assert math.isclose(u, mass / ((N - 2) * r ** (N - 2)), rel_tol=1e-12)


@pytest.mark.parametrize("kappa", [-1.5, -2.0, -3.0])
def test_newtonian_oracle_on_the_critical_line(kappa):
    """sigma = 2 with kappa < -1 keeps int s f ds finite:
    u(0) = int_10^inf (w - 10) w^-2 log^kappa w dw = ln(10)^(1+kappa)/(-1-kappa) - 10 Gamma(1+kappa, ln 10)."""
    exact = mp.log(10) ** (1 + kappa) / (-1 - kappa) - 10 * mp.gammainc(1 + kappa, mp.log(10))
    assert math.isclose(newtonian_potential_radial(3, power_profile(2.0, kappa), 0.0), float(exact), rel_tol=1e-10)


def _tail_oracle(N, alpha, beta, sigma, kappa, A, R):
    """int_R^inf (A+s)^-sigma log(A+s)^kappa s^(N-1) K(s) ds in 30 digits: mpmath in
    x = log s on [log R, 300], and past x = 300, where A e^-x < 1e-128, the closed form
    of int x^k e^(gap x) dx, k = beta + kappa, gap = N - alpha - sigma.  mpmath's quad
    stops on an absolute error, so the head is integrated relative to its value at log R."""
    gap, k = N - alpha - sigma, mp.mpf(beta) + kappa
    with mp.workdps(30):
        def g(x):
            a, b = mp.log1p(A * mp.exp(-x)), mp.log1p(mp.exp(-x))
            return mp.exp(gap * x - sigma * a) * (x + a) ** kappa * (x + b) ** beta
        L = mp.log(R)
        breaks = [L + 2 ** j - 1 for j in range(9) if L + 2 ** j - 1 < 300] + [300]
        scale = g(L)
        head = scale * mp.quad(lambda x: g(x) / scale, breaks)
        if gap == 0.0:
            return head + mp.mpf(300) ** (k + 1) / -(k + 1)
        return head + mp.gammainc(k + 1, -gap * 300) / mp.mpf(-gap) ** (k + 1)


@pytest.mark.parametrize("N, alpha, beta, sigma, kappa, A, R", [
    # critical line sigma = N - alpha, 1 + beta + kappa in {-0.005, -0.3, -1}
    (3, 1.0, 0.0, 2.0, -1.005, 10.0, 1e4),
    (4, 1.5, 0.4, 2.5, -1.7, 3.0, 1e6),
    (5, 2.5, -0.5, 2.5, -1.5, 20.0, 1e9),
    (5, 0.5, 1.0, 4.5, -2.005, 2.0, 1e7),
    (3, 2.5, -0.2, 0.5, -1.1, 13.0, 1e9),
    (4, 3.0, 2.0, 1.0, -4.0, 6.0, 1e5),
    # the A e^-x correction near t = 1 that a single graded segment [0, 1] misses by 1.7e-8
    (3, 1.0, 0.0, 2.0, -1.005, 13.0, 5.09e5),
    # off the line: gap = N - alpha - sigma in {-0.01, -2}
    (3, 1.0, 0.5, 2.01, -1.2, 10.0, 1e4),
    (4, 2.0, -0.3, 4.0, 0.7, 3.0, 1e6),
    (5, 1.5, 1.5, 3.51, 2.0, 20.0, 1e9),
    (3, 0.5, 0.0, 4.5, -0.5, 2.0, 1e8),
    # the potential's tails: beta = 0, R = 1e9 sqrt(A)
    (3, 1.0, 0.0, 2.5, 0.3, math.sqrt(10.0), 1e9 * math.sqrt(10.0)),
    (5, 3.0, 0.0, 2.0, -1.5, 10.0, 1e9 * math.sqrt(10.0)),
    # critical line with 1 + beta + kappa < -4: grading m = -1/(1+beta+kappa) below 1/4
    (3, 1.0, 0.0, 2.0, -5.5, 10.0, 1e4),
    (3, 1.0, 0.0, 2.0, -11.0, 10.0, 1e6),
])
def test_tail_integral_matches_mpmath(N, alpha, beta, sigma, kappa, A, R):
    value, estimate = convolution._tail_integral_1d(KernelParams(N, alpha, beta), sigma, kappa, A, R)
    exact = _tail_oracle(N, alpha, beta, sigma, kappa, A, R)
    error = abs(float((value - exact) / exact))
    assert error <= 1e-12, error
    assert error * value <= estimate + 1e-13 * value, (error, estimate / value)


@pytest.mark.parametrize("N", [20, 50, 200])
def test_angular_factor_of_constant_kernel_in_high_dimension(N):
    """With K = 1 the colatitude integral is B_N at every s: the panels have to
    resolve the weight sin(theta)^(N-3), which narrows as N grows."""
    s = np.array([1e-3, 0.5, 1.0, 1.9, 2.0, 2.1, 3.0, 10.0, 1e3])
    got = angular_factor(N, 2.0, s, KernelParams(N, 0.0, 0.0))
    assert np.allclose(got, colatitude_total(N), rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("N", [50, 200])
def test_constant_kernel_ball_volume_in_high_dimension(N):
    res = convolve_radial(KernelParams(N, 0.0, 0.0), ball_profile(1.0), 2.0)
    assert math.isclose(res.value, unit_sphere_area(N) / N, rel_tol=1e-12)


@pytest.mark.parametrize("N", [10, 20, 50])
def test_newtonian_potential_at_the_ball_edge_in_high_dimension(N):
    """At r = 1 the outer integrand of the alpha = N - 2 kernel has a cusp at the
    ball's edge s = 1, graded on both sides, with the profile's jump on it."""
    res = convolve_radial(KernelParams(N, N - 2.0, 0.0), ball_profile(1.0), 1.0)
    assert math.isclose(res.value, unit_sphere_area(N) / N, rel_tol=1e-12)


@pytest.mark.parametrize("N", [10, 20, 50])
def test_newtonian_angular_factor_next_to_the_diagonal(N):
    """At |s - r| = 1e-12, t^(2-N) overflows on the first panels from N = 28 on, where
    the node value K(t) (t/M) sin(theta)^(N-3) stays finite: every N forms it as one exp
    of logs.  The mean value property gives |S^(N-1)| / |S^(N-2)| max(r, s)^(2-N)."""
    s = np.array([1.0 - 1e-12, 1.0 + 1e-12])
    got = angular_factor(N, 1.0, s, KernelParams(N, N - 2.0, 0.0))
    exact = unit_sphere_area(N) / unit_sphere_area(N - 1) * np.maximum(1.0, s) ** (2.0 - N)
    assert np.allclose(got, exact, rtol=1e-13, atol=0.0), got / exact - 1.0


def test_graded_cusp_offsets_stay_on_the_sweep(monkeypatch):
    """Every node of a graded outer sweep lies on a G7-K15 panel, so the evaluations
    are 15 per panel, and the offsets |s - r| stay where the panels put them: with
    grading m = 2 here, the least is about 1e-5 r, nowhere near the 1e-40 h floor."""
    offsets = []
    angular = convolution.angular_factor

    def spy(N, r, s, kernel):
        offsets.append(np.min(np.abs(s.delta) / r))
        return angular(N, r, s, kernel)

    monkeypatch.setattr(convolution, "angular_factor", spy)
    res = convolve_radial(KernelParams(3, 1.0, 0.5), power_profile(4.2, -0.5, 5.0), 3.0)
    assert min(offsets) >= 1e-6, min(offsets)
    assert res.evaluations % 15 == 0, res.evaluations


def _log_cusp_oracle(r):
    """(K * 1_B)(r) for K(t) = t^-2 in R^3 and the unit ball B, in 30 digits: the
    closed form 2 pi [1 + (1 - r^2)/(2r) log|(1+r)/(1-r)|], which cancels in floats
    for r >> 1."""
    with mp.workdps(30):
        r = mp.mpf(r)
        return 2 * mp.pi * (1 + (1 - r * r) / (2 * r) * mp.log(abs((1 + r) / (1 - r))))


def test_log_cusp_oracle_matches_its_integral():
    """The closed form equals 2 pi int_0^1 (s/r) log((r+s)/|r-s|) ds, the radial
    reduction of int_B |x - y|^-2 dy."""
    with mp.workdps(30):
        for r in (mp.mpf("0.3"), mp.mpf(2)):
            direct = 2 * mp.pi * mp.quad(lambda s: s / r * mp.log((r + s) / abs(r - s)), [0, min(r, 1), 1])
            assert abs(direct / _log_cusp_oracle(r) - 1) < mp.mpf(10) ** -25


@pytest.mark.parametrize("r", [0.01, 0.1, 0.3, 0.5, 0.9, 0.99, 1.01, 2.0, 10.0])
def test_log_cusp_is_graded_by_its_exponent(r):
    """alpha = N - 1 + beta puts a log cusp c1 log|s - r| in the outer integrand.
    Graded with s = r -+ h u^4 it reads u^3 log u, so the sweep needs no bisection
    chain towards the cusp: inside the ball, where the cusp carries mass, it stays
    under 300 evaluations (617-647 with the u^2 grading, which leaves u log u)."""
    res = convolve_radial(KernelParams(3, 2.0, 0.0), ball_profile(1.0), r)
    exact = _log_cusp_oracle(r)
    error = abs(float(res.value - exact))
    assert error <= 1e-10 * float(exact)
    assert error <= res.error_estimate
    if r < 1.0:
        assert res.evaluations <= 300, res.evaluations


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_outer_integrands_never_form_an_overflowing_shell():
    """At r = 1e300 the sweep runs through s <= r where s^2 overflows; f s^2 is the
    finite (here 0) product.  With M = int s^2 (10 + s)^-4 ds = 1/30, the value is
    the far field: 4 pi M / r for the Newton kernel, M / r for the potential."""
    r, f = 1e300, power_profile(4.0, 0.0)
    res = convolve_radial(NEWTONIAN, f, r)
    assert math.isclose(res.value, 4.0 * math.pi / (30.0 * r), rel_tol=1e-10)
    assert math.isclose(newtonian_potential_radial(3, f, r), 1.0 / (30.0 * r), rel_tol=1e-10)


def test_outer_integrand_past_the_float_range_fails_without_a_warning():
    """At r = 1e100, s^4 f(s) with f = (16 + s)^-0.8 log(16 + s)^-1.05 overflows near
    s = 1e97 while the angular factor of alpha = 4.2 underflows to 0; in the layer cake
    of the ball of radius 1e110, s^2 is a float but s^2 times the Jacobian s of log s
    is not.  Each sweep raises QuadratureFailure, and no RuntimeWarning (an error in this
    suite) leaks."""
    with pytest.raises(QuadratureFailure, match="non-finite integrand at s = "):
        convolve_radial(KernelParams(5, 4.2, -0.3), power_profile(0.8, -1.05, 16.0), np.array([1e100, 1e101]))
    with pytest.raises(QuadratureFailure, match="non-finite integrand at s = "):
        newtonian_potential_radial(3, ball_profile(1e110), [1e110])


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_radius_whose_tail_probe_leaves_the_float_range_is_refused():
    """The outermost tail probe sits at 2 s_max = 2e3 r: at r = 1e305 that is past
    the float range, a ParameterError; at r = 8e304 it is 1.6e308 and the value is
    finite (near the 4 pi / (30 r) far field)."""
    f = power_profile(4.0, 0.0)
    with pytest.raises(ParameterError):
        convolve_radial(NEWTONIAN, f, 1e305)
    res = convolve_radial(NEWTONIAN, f, 8e304)
    assert math.isfinite(res.value) and math.isclose(res.value, 4.0 * math.pi / (30.0 * 8e304), rel_tol=1e-6)


# per dimension: a kernel, and the critical-line profile sigma = N - alpha, kappa < -(1 + beta)
ARRAY_KERNELS = {1: KernelParams(1, 0.5, 0.0), 2: KernelParams(2, 1.0, 0.5),
                 3: KernelParams(3, 1.0, 0.0), 5: KernelParams(5, 2.5, -0.5)}


@pytest.mark.parametrize("radii", [[3.0, 0.0, 1.0, 0.25, 1.0], [2.0]], ids=["mixed", "one"])
@pytest.mark.parametrize("profile", ["ball", "fast", "critical"])
@pytest.mark.parametrize("N", sorted(ARRAY_KERNELS))
def test_array_call_matches_scalar_calls(N, profile, radii):
    """One array call runs every radius as a group of one sweep; each radius gets the
    panels of its own scalar call.  The mixed radii hold r = 0, the ball's edge r = 1
    (a mark) twice, and are unsorted."""
    k = ARRAY_KERNELS[N]
    f = {"ball": ball_profile(1.0), "fast": power_profile(N + 1.5, 0.5, A=4.0),
         "critical": power_profile(N - k.alpha, -(1.0 + k.beta) - 0.5, A=4.0)}[profile]
    res = convolve_radial(k, f, np.array(radii))
    singles = [convolve_radial(k, f, r) for r in radii]
    assert res.value.shape == res.error_estimate.shape == (len(radii),) and not res.divergent
    for v, e, one in zip(res.value, res.error_estimate, singles):
        assert type(one.value) is float and type(one.error_estimate) is float
        assert math.isclose(v, one.value, rel_tol=1e-14), (v, one.value)
        assert math.isclose(e, one.error_estimate, rel_tol=1e-6), (e, one.error_estimate)
    assert res.evaluations == sum(one.evaluations for one in singles)


def test_array_call_keeps_the_shape_of_r_and_reports_divergence_once():
    grid = np.array([[0.5, 2.0], [10.0, 1e3]])
    res = convolve_radial(NEWTONIAN, ball_profile(1.0), grid)
    assert res.value.shape == grid.shape
    assert np.allclose(res.value[grid >= 1.0], 4.0 * math.pi / 3.0 / grid[grid >= 1.0], rtol=1e-12)
    slow = convolve_radial(NEWTONIAN, power_profile(1.5, 0.0), np.array([1.0, 2.0, 3.0]))
    assert slow.divergent and slow.evaluations == 0
    assert slow.value.shape == (3,) and np.all(np.isinf(slow.value)) and np.all(np.isinf(slow.error_estimate))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_array_radii_are_checked_one_by_one():
    """A bad entry raises NonpositiveRadius naming it; the float-range check on the
    tail probe 2 s_max applies to each radius; an empty array gives empty arrays."""
    f = power_profile(4.0, 0.0)
    for bad in (-1.0, math.nan, math.inf):
        with pytest.raises(NonpositiveRadius, match=repr(bad)):
            convolve_radial(NEWTONIAN, f, np.array([1.0, bad, 2.0]))
    with pytest.raises(NonpositiveRadius, match="1e\\+305"):
        convolve_radial(NEWTONIAN, f, np.array([2.0, 1e305]))
    res = convolve_radial(NEWTONIAN, f, np.array([2.0, 8e304]))
    assert np.all(np.isfinite(res.value))
    assert math.isclose(res.value[1], 4.0 * math.pi / (30.0 * 8e304), rel_tol=1e-6)
    for g in (f, ball_profile(1.0)):
        empty = convolve_radial(NEWTONIAN, g, np.array([]))
        assert empty.value.shape == empty.error_estimate.shape == (0,) and empty.evaluations == 0


def test_eval_kernel_on_an_array_returns_an_array():
    t = np.array([0.5, 2.0, 8.0])
    k = eval_kernel(KernelParams(3, 1.0, 0.0), t)
    assert isinstance(k, np.ndarray) and k.shape == (3,)
    np.testing.assert_allclose(k, 1.0 / t, rtol=1e-15)


def test_dimensions_below_the_reduction_are_refused():
    with pytest.raises(InvalidDimension, match="N >= 2"):
        angular_factor(1, 1.0, 2.0, KernelParams(1, 0.5, 0.0))
    with pytest.raises(InvalidDimension, match="N >= 3"):
        newtonian_potential_radial(2, ball_profile(1.0), 1.0)


def test_newtonian_potential_past_the_float_range_is_refused():
    """At N = 130, r^(2-N) = 1e384 at r = 1e-3 and M(r) underflows to 0: a ParameterError
    that names the radius, not the NaN of inf * 0."""
    with pytest.raises(ParameterError, match=r"float range at r = 0\.001 for N = 130"):
        newtonian_potential_radial(130, ball_profile(1.0), 1e-3)


def test_tail_ratio_past_the_float_range_is_refused():
    """A profile that decays far slower than the shape it declares has a ratio to that shape
    past the float range at the tail probes s_max = 1e3, 1.5e3, 2e3: refused, naming the probe."""
    f = RadialProfile(lambda s: -4.0 * np.log1p(s), infinity_spec=AsymptoticSpec(-1e6, 0.0))
    with pytest.raises(ParameterError, match=r"not finite at s = 1000\.0"):
        convolve_radial(KernelParams(3, 1.0, 0.0), f, 1.0)


def test_reach_is_the_top_tail_probe():
    """2 s_max with s_max = 1e3 max(r, scale, 1): 4e9 for verify's default grid, whose last
    radius is 2e6, at scale sqrt(10)."""
    assert convolution._reach(2e6, math.sqrt(10.0)) == 4e9
    assert convolution._reach(0.5, 0.0) == 2e3

"""Radial convolution quadrature against closed forms and independent oracles."""

import math
from decimal import Decimal, localcontext

import mpmath as mp
import numpy as np
import pytest
from scipy import integrate

from logriesz import (
    AsymptoticSpec,
    DivergentIntegral,
    KernelParams,
    MissingAsymptoticSpec,
    ParameterError,
    QuadratureFailure,
    RadialProfile,
    angular_factor,
    ball_profile,
    colatitude_total,
    convolution_rows,
    convolve_radial,
    detect_divergence,
    eval_kernel,
    newtonian_potential_radial,
    power_profile,
    unit_sphere_area,
    write_convolution_csv,
)
from logriesz.convolution import _Offsets
from logriesz.errors import NonpositiveRadius

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


def _angular_closed_form(N, alpha, r, delta):
    """(r s)^-1 int_d^D t^(1-alpha) [(t^2 - d^2)(D^2 - t^2) / (4 r^2 s^2)]^((N-3)/2) dt
    for N = 3 and 5, where the weight is a polynomial, in 60-digit arithmetic."""
    with localcontext() as ctx:
        ctx.prec = 60
        r, delta = Decimal(r), Decimal(delta)
        s, c = r + delta, 2 - Decimal(alpha)
        d, D = abs(delta), r + s

        def F(j):
            return (D ** (c + j) - d ** (c + j)) / (c + j)

        if N == 3:
            return float(F(0) / (r * s))
        return float((-F(4) + (d * d + D * D) * F(2) - d * d * D * D * F(0)) / (4 * r ** 3 * s ** 3))


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
            exact = _angular_closed_form(N, alpha, r, r * rel)
            assert math.isclose(_angular_at_offset(N, r, rel, k), exact, rel_tol=1e-12), (r, rel, exact)


def _angular_mpmath(N, alpha, beta, r, rel):
    """The t-integral in mpmath: in x = log(t - d) on [d, M], where the kernel's
    scale d and the factor (t - d)^((N-3)/2) become smooth, and in v = sqrt(D - t)
    on [M, D], where (D - t)^((N-3)/2) becomes smooth."""
    with mp.workdps(24):
        r, a, b, e = mp.mpf(r), mp.mpf(1 - alpha), mp.mpf(beta), mp.mpf(N - 3) / 2
        d, s = abs(r * rel), r + r * rel
        D, m = r + s, min(r, s)
        scale = 1 / (4 * r * r * s * s)

        def g(t, od, oD):
            log_q = mp.log(od * (t + d) * oD * (D + t) * scale)
            return mp.exp(a * mp.log(t) + b * mp.log(mp.log1p(t)) + e * log_q)

        cuts = [mp.log(d) - 4, mp.log(d) + 4] if d < m * mp.exp(-4) else []
        near = mp.quad(lambda x: g(d + mp.exp(x), mp.exp(x), 2 * m - mp.exp(x)) * mp.exp(x),
                       [-mp.inf] + cuts + [mp.log(m)])
        far = mp.quad(lambda v: g(D - v * v, 2 * m - v * v, v * v) * 2 * v, [0, mp.sqrt(m)])
        return float((near + far) / (r * s))


@pytest.mark.parametrize("N,alpha,beta,r", [
    (2, 1.2, 0.7, 0.7), (3, 1.6, -0.4, 30.0), (4, 3.1, 1.5, 0.7), (5, 4.3, -0.5, 30.0),
    (6, 5.5, 0.9, 0.7), (2, 0.5, 0.0, 30.0), (4, 2.0, 0.0, 0.7), (6, 4.7, 0.0, 30.0),
])
def test_angular_factor_matches_mpmath(N, alpha, beta, r):
    """Even N and beta != 0, where the weight is not a polynomial."""
    k = KernelParams(N, alpha, beta)
    for rel in (1e-30, 1e-6, 0.5, math.exp(7), -1e-30, -1e-3, -0.999):
        exact = _angular_mpmath(N, alpha, beta, r, rel)
        assert math.isclose(_angular_at_offset(N, r, rel, k), exact, rel_tol=1e-12), (rel, exact)


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


def test_non_finite_integrand_raises_quadrature_failure():
    bad = RadialProfile(
        evaluate=lambda s: np.where(np.asarray(s) < 0.5, 1.0, np.inf),
        zero_spec=AsymptoticSpec(0.0, 0.0),
        support_radius=1.0,
    )
    with pytest.raises(QuadratureFailure):
        convolve_radial(NEWTONIAN, bad, 0.3)


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
        evaluate=lambda s: c * f.evaluate(s) + g.evaluate(s),
        zero_spec=f.zero_spec,
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

    bare = RadialProfile(evaluate=lambda s: 1.0 / (1.0 + s), zero_spec=None)
    with pytest.raises(MissingAsymptoticSpec):
        detect_divergence(NEWTONIAN, bare)


def test_divergent_convolution_flagged_not_computed():
    slow = RadialProfile(
        evaluate=lambda s: 1.0 / (1.0 + s),
        zero_spec=None,
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


def test_convolution_rows_monotone_for_ball():
    radii = [1.0, 2.0, 10.0, 100.0]
    rows = convolution_rows(NEWTONIAN, ball_profile(1.0), radii)
    assert [r for r, _ in rows] == radii
    vals = [res.value for _, res in rows]
    assert vals[0] > vals[1] > vals[2] > vals[3] > 0.0


def test_write_convolution_csv_roundtrip(tmp_path):
    out = tmp_path / "rows.csv"
    radii = [1.0, 2.0, 10.0]
    rows = convolution_rows(NEWTONIAN, ball_profile(1.0), radii)
    write_convolution_csv(out, rows)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "r,value,error_estimate"
    assert len(lines) == 4
    for (r, res), line in zip(rows, lines[1:]):
        cols = line.split(",")
        assert math.isclose(float(cols[0]), r, rel_tol=1e-15)
        assert math.isclose(float(cols[1]), res.value, rel_tol=1e-12)


def test_power_profile_requires_wide_scale():
    with pytest.raises(ParameterError):
        power_profile(3.0, 0.0, A=0.5)


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

"""Radial convolution quadrature against closed forms and independent oracles."""

import math

import numpy as np
import pytest
from scipy import integrate

from logriesz import (
    AsymptoticSpec,
    DivergentIntegral,
    KernelParams,
    MissingAsymptoticSpec,
    ParameterError,
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
    """alpha = N needs the rescaled absolute floor; values shrink to 1e-15.

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

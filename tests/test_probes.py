"""Structural probes: cutoffs, mass growth, certificates, iteration floors."""

import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logriesz import (
    AsymptoticSpec,
    BumpProfile,
    HypothesisViolated,
    ParameterError,
    RadialProfile,
    divergence_certificate,
    harnack_mass,
    lower_bound_chain,
    write_certificate_csv,
)
from logriesz import test_function_bound as annulus_bound
from logriesz import TestFunctionSpec as FunctionSpec


class TestBumpProfile:
    def test_plateau_and_support(self):
        psi = BumpProfile()
        assert psi.value(0.0) == 1.0
        assert psi.value(0.7) == 1.0
        assert psi.value(1.0) == 1.0
        assert math.isclose(psi.value(1.5), 0.5, rel_tol=1e-13)
        assert psi.value(2.0) == 0.0
        assert psi.value(3.5) == 0.0

    def test_four_derivatives_vanish_at_joints(self):
        psi = BumpProfile()
        for order in (1, 2, 3, 4):
            assert psi.pow_deriv(1.0, 5, order) == 0.0
            assert psi.pow_deriv(2.0, 5, order) == 0.0
            # and the approach to each joint is continuous
            assert abs(psi.pow_deriv(1.0 + 1e-8, 5, order)) < 1e-3
            assert abs(psi.pow_deriv(2.0 - 1e-8, 3, order)) < 1e-3

    def test_derivative_consistency_by_differencing(self):
        psi = BumpProfile()
        h = 1e-6
        for t in (1.2, 1.5, 1.8):
            for order in (1, 2, 3):
                fd = (psi.pow_deriv(t + h, 3, order - 1) - psi.pow_deriv(t - h, 3, order - 1)) / (2 * h)
                assert math.isclose(fd, psi.pow_deriv(t, 3, order), rel_tol=1e-5, abs_tol=1e-6)

    def test_parameter_validation(self):
        psi = BumpProfile()
        with pytest.raises(ParameterError):
            psi.pow_deriv(1.5, 0, 0)
        with pytest.raises(ParameterError):
            psi.pow_deriv(1.5, 1.5, 0)
        with pytest.raises(ParameterError):
            psi.pow_deriv(1.5, 2, 5)

    def test_vectorized_evaluation(self):
        psi = BumpProfile()
        t = np.array([0.5, 1.25, 1.75, 2.5])
        v = psi.pow_deriv(t, 2, 0)
        assert v.shape == t.shape
        assert v[0] == 1.0 and v[3] == 0.0
        assert 0.0 < v[2] < v[1] < 1.0


class TestFunctionSpecValidation:
    def test_accepts_standard_parameters(self):
        spec = FunctionSpec(k=5, delta=2.0, R=10.0)
        assert spec.delta_power_valid

    def test_delta_power_threshold(self):
        assert not FunctionSpec(k=3, delta=2.0, R=10.0).delta_power_valid
        assert FunctionSpec(k=9, delta=1.5, R=10.0).delta_power_valid

    def test_rejects_bad_parameters(self):
        with pytest.raises(ParameterError):
            FunctionSpec(k=0, delta=2.0, R=10.0)
        with pytest.raises(ParameterError):
            FunctionSpec(k=5, delta=1.0, R=10.0)
        with pytest.raises(ParameterError):
            FunctionSpec(k=5, delta=2.0, R=0.0)


class TestFunctionBound:
    def test_vanishes_on_the_plateau(self):
        spec = FunctionSpec(k=5, delta=2.0, R=10.0)
        grid = np.linspace(0.1 * spec.R, 0.99 * spec.R, 200)
        assert annulus_bound(spec, 5.0, grid=grid) == 0.0

    def test_frozen_annulus_constant(self):
        spec = FunctionSpec(k=5, delta=2.0, R=10.0)
        assert math.isclose(annulus_bound(spec, 5.0), 886.1142, rel_tol=1e-5)
        assert math.isclose(annulus_bound(spec, 10.0), 1473.0009, rel_tol=1e-5)

    def test_doubling_lambda_at_most_doubles(self):
        spec = FunctionSpec(k=5, delta=2.0, R=10.0)
        c1 = annulus_bound(spec, 5.0)
        c2 = annulus_bound(spec, 10.0)
        assert c1 < c2 <= 2.0 * c1

    def test_constant_stays_bounded_in_r(self):
        vals = [
            annulus_bound(FunctionSpec(k=5, delta=2.0, R=R), 5.0)
            for R in (10.0, 100.0, 1000.0)
        ]
        assert max(vals) / min(vals) < 2.0


def _ones_profile():
    return RadialProfile(
        evaluate=lambda s: np.ones_like(np.asarray(s, dtype=float))[()],
        zero_spec=AsymptoticSpec(0.0, 0.0),
        positive_mass_near_zero=True,
    )


def _truncated_newton_profile():
    return RadialProfile(
        evaluate=lambda s: np.maximum(1.0, np.asarray(s, dtype=float)) ** -1.0,
        zero_spec=AsymptoticSpec(0.0, 0.0),
        infinity_spec=AsymptoticSpec(-1.0, 0.0),
        positive_mass_near_zero=True,
    )


class TestHarnackMass:
    def test_constant_profile_volume_ratio(self):
        for R in (1.0, 10.0, 250.0):
            h = harnack_mass(_ones_profile(), 2.0, R)
            assert math.isclose(h.mass, 4.0 * math.pi * R ** 3 / 3.0, rel_tol=1e-10)
            assert math.isclose(h.ratio, 4.0 * math.pi / 3.0, rel_tol=1e-10)
            assert h.R == R

    def test_decaying_profile_quadratic_growth(self):
        u = _truncated_newton_profile()
        m10 = harnack_mass(u, 1.0, 10.0)
        m100 = harnack_mass(u, 1.0, 100.0)
        assert math.isclose(m10.mass, 626.22413562, rel_tol=1e-8)
        assert math.isclose(m100.mass, 62829.75867669, rel_tol=1e-8)
        # closed form 4 pi (1/3 + (R^2 - 1)/2); mass/R^3 must fall
        for m in (m10, m100):
            exact = 4.0 * math.pi * (1.0 / 3.0 + (m.R ** 2 - 1.0) / 2.0)
            assert math.isclose(m.mass, exact, rel_tol=1e-8)
        assert m100.ratio < m10.ratio

    def test_parameter_validation(self):
        with pytest.raises(ParameterError):
            harnack_mass(_ones_profile(), 1.0, 0.0)
        with pytest.raises(ParameterError):
            harnack_mass(_ones_profile(), 0.0, 1.0)


class TestDivergenceCertificate:
    def test_combined_mass_power_clause(self):
        s = divergence_certificate(3, 2.0, 2.0, 0.0, 0.0)
        assert s.clause == "Thm2(iv)"
        assert s.strictly_increasing and s.unbounded
        # R^2 over six decades
        assert math.isclose(s.growth_ratio, 1e12, rel_tol=1e-6)
        assert len(s.radii) == 25

    def test_combined_mass_log_clause(self):
        s = divergence_certificate(3, 4.0, 2.0, 0.0, 7.0)
        assert s.clause == "Thm2(v)"
        assert s.strictly_increasing and s.unbounded
        expected = (math.log1p(4e8) / math.log1p(4e2)) ** 7
        assert math.isclose(s.growth_ratio, expected, rel_tol=1e-9)

    def test_theta_window_certificate(self):
        s = divergence_certificate(3, 3.0, 3.0, 0.0, -0.5, theta=0.25)
        assert s.clause == "Thm2(v)"
        assert s.theta == 0.25
        # log(R)^(beta + (s-1) theta) = log(R)^0.75
        expected = (math.log(1e8) / math.log(1e2)) ** 0.75
        assert math.isclose(s.growth_ratio, expected, rel_tol=0.05)
        assert s.strictly_increasing and s.unbounded

    def test_theta_window_enforced(self):
        for theta in (0.05, 0.6):
            with pytest.raises(HypothesisViolated) as err:
                divergence_certificate(3, 3.0, 3.0, 0.0, -0.5, theta=theta)
            assert "(0.1, 0.5)" in str(err.value)

    def test_turnaround_profile_reported(self):
        s = divergence_certificate(3, 1.05, 8.0, 1.9, -1.0)
        assert s.clause == "Thm2(ii)"
        assert not s.strictly_increasing
        assert s.unbounded

    def test_large_beta_certificate_grows_without_overflow(self):
        # log1p(4R)^249 leaves the float range; the growth is read off the logs
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            s = divergence_certificate(3, 4.0, 0.004, 0.0, 249.0)
        assert s.clause == "Thm2(iv)"
        assert s.strictly_increasing and s.unbounded
        expected = 6.0 * 1.996 + 249.0 * math.log10(math.log1p(4e8) / math.log1p(4e2))
        assert math.isclose(math.log10(s.growth_ratio), expected, rel_tol=1e-12)
        assert math.isclose(expected, 141.23, rel_tol=1e-4)
        assert math.isinf(s.values[-1]) and math.isfinite(s.values[0])

    def test_existence_region_has_no_certificate(self):
        with pytest.raises(HypothesisViolated):
            divergence_certificate(3, 4.0, 2.0, 1.0, -1.5)

    def test_low_dimension_rejected(self):
        with pytest.raises(HypothesisViolated):
            divergence_certificate(2, 2.0, 2.0, 1.0, 0.0)

    def test_parameter_validation(self):
        with pytest.raises(ParameterError):
            divergence_certificate(3, 0.0, 2.0, 0.0, 0.0)
        with pytest.raises(ParameterError):
            divergence_certificate(3, 2.0, 2.0, 0.0, 0.0, R_list=[10.0])
        with pytest.raises(ParameterError):
            divergence_certificate(3, 2.0, 2.0, 0.0, 0.0, R_list=[100.0, 50.0])

    def test_serialization_roundtrip(self):
        s = divergence_certificate(3, 2.0, 2.0, 0.0, 0.0)
        d = s.to_dict()
        assert set(d) == {
            "clause", "radii", "values", "theta",
            "strictly_increasing", "growth_ratio", "unbounded",
        }
        assert json.loads(s.to_json()) == d

    def test_csv_output(self, tmp_path):
        s = divergence_certificate(3, 2.0, 2.0, 0.0, 0.0, R_list=[1e2, 1e3, 1e4])
        out = tmp_path / "cert.csv"
        write_certificate_csv(out, s)
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "R,certificate_value,clause"
        assert len(lines) == 4
        assert lines[1].endswith("Thm2(iv)")

    @given(
        alpha=st.floats(0.0, 1.5),
        beta=st.floats(0.0, 3.0),
        frac=st.floats(0.2, 0.95),
    )
    @settings(max_examples=60, deadline=None)
    def test_power_clause_certificates_grow(self, alpha, beta, frac):
        # below the combined-mass line the certificate must climb without bound
        t2 = (6.0 - alpha) / 1.0
        s_total = 2.0 + frac * (t2 - 2.0 - 0.01)
        p = q = s_total / 2.0
        series = divergence_certificate(3, p, q, alpha, beta)
        assert series.strictly_increasing
        assert series.unbounded
        assert series.growth_ratio > 1.0


class TestLowerBoundChain:
    GRID = np.geomspace(1e3, 1e7, 8)

    def test_default_seed_supercritical(self):
        c = lower_bound_chain(3, 1.0, 0.0, 3.0, self.GRID)
        assert c.predicted == AsymptoticSpec(-1.0, 0.0)
        assert not c.divergent
        # the floor's power is saturated; the log exponent may exceed it
        assert abs(c.fitted.power_est - c.predicted.power) < 0.05
        assert c.fitted.logpower_est > c.predicted.logpower - 0.05

    def test_default_seed_subcritical(self):
        c = lower_bound_chain(3, 1.0, 0.0, 2.2, self.GRID)
        assert math.isclose(c.predicted.power, -0.2, abs_tol=1e-12)
        assert abs(c.fitted.power_est - c.predicted.power) < 0.05
        assert abs(c.fitted.logpower_est - c.predicted.logpower) < 0.2

    def test_divergent_iteration_flagged(self):
        c = lower_bound_chain(3, 0.0, 0.5, 2.0, self.GRID)
        assert c.divergent
        assert c.predicted == AsymptoticSpec(1.0, 0.5)
        assert c.fitted is None
        assert np.all(np.isinf(c.values))

    def test_zero_seed_produces_zero_data(self):
        zero = RadialProfile(
            evaluate=lambda r: np.zeros_like(np.asarray(r, dtype=float))[()],
            zero_spec=AsymptoticSpec(0.0, 0.0),
            support_radius=1.0,
        )
        c = lower_bound_chain(3, 1.0, 0.0, 2.0, self.GRID, u0=zero)
        assert c.predicted is None
        assert c.fitted is None
        assert np.max(np.abs(c.values)) == 0.0

    def test_short_grid_skips_fit(self):
        c = lower_bound_chain(3, 1.0, 0.0, 3.0, [1.0, 10.0, 100.0])
        assert c.fitted is None
        assert len(c.values) == 3

    def test_dimension_floor(self):
        with pytest.raises(ParameterError):
            lower_bound_chain(2, 1.0, 0.0, 2.0, self.GRID)

    def test_serialization_keys(self):
        c = lower_bound_chain(3, 1.0, 0.0, 3.0, [1.0, 10.0, 100.0])
        assert set(c.to_dict()) == {"radii", "values", "predicted", "fitted", "divergent"}

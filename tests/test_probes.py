"""Structural probes: cutoffs, mass growth, certificates, iteration floors."""

import json
import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from logriesz import (
    AsymptoticSpec,
    BumpProfile,
    HypothesisViolated,
    InvalidBeta,
    InvalidDimension,
    ParameterError,
    ProblemParams,
    RadialProfile,
    Side,
    ball_profile,
    classify_pplus,
    divergence_certificate,
    harnack_mass,
    lower_bound_chain,
    thm2_clause,
)
from logriesz.classifier import combined_mass_clause, thresholds
from logriesz import cli
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

    def test_powers_match_mpmath(self):
        """Absolute error against mpmath's derivatives of the power of the decay piece
        1 - (126x^5 - 420x^6 + 540x^7 - 315x^8 + 70x^9), x = t - 1, within 1e-12 of
        the largest |value| over [1, 2], for powers 1-20 and orders 0-4."""
        psi = BumpProfile()
        t = np.linspace(1.0, 2.0, 21)

        def decay(x):
            return 1 - (126 * x ** 5 - 420 * x ** 6 + 540 * x ** 7 - 315 * x ** 8 + 70 * x ** 9)

        with mpmath.workdps(40):
            for power in range(1, 21):
                for order in range(5):
                    exact = np.array([float(mpmath.diff(lambda x: decay(x) ** power, mpmath.mpf(s) - 1, order))
                                      for s in t])
                    err = np.max(np.abs(psi.pow_deriv(t, power, order) - exact))
                    assert err <= 1e-12 * np.max(np.abs(exact)), (power, order, err)

    def test_parameter_validation(self):
        psi = BumpProfile()
        with pytest.raises(ParameterError):
            psi.pow_deriv(1.5, 0, 0)
        with pytest.raises(ParameterError):
            psi.pow_deriv(1.5, 1.5, 0)
        with pytest.raises(ParameterError):
            psi.pow_deriv(1.5, 2, 5)
        with pytest.raises(ParameterError):
            psi.pow_deriv(1.5, 2, 1.5)

    @pytest.mark.parametrize("power", [math.inf, math.nan])
    def test_power_that_is_not_finite_rejected(self, power):
        with pytest.raises(ParameterError):
            BumpProfile().pow_derivs(1.5, power, 0)

    def test_all_orders_from_one_pass(self):
        """pow_derivs stacks orders 0..order; each row is pow_deriv's value bit for bit,
        since order k of a truncated product reads only the coefficients up to k."""
        psi = BumpProfile()
        t = np.linspace(0.0, 3.0, 61)
        for power in (1, 7, 20):
            d = psi.pow_derivs(t, power, 4)
            assert d.shape == (5,) + t.shape
            for order in range(5):
                assert np.array_equal(d[order], psi.pow_deriv(t, power, order))

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

    def test_is_its_three_numbers(self):
        """The spec holds no bump of its own, so equal numbers make equal specs."""
        assert FunctionSpec(5, 2.0, 10.0) == FunctionSpec(5, 2.0, 10.0)
        assert repr(FunctionSpec(5, 2.0, 10.0)) == "TestFunctionSpec(k=5, delta=2.0, R=10.0)"

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

    @pytest.mark.parametrize("k", [math.inf, math.nan])
    def test_rejects_k_that_is_not_finite(self, k):
        with pytest.raises(ParameterError):
            FunctionSpec(k=k, delta=2.0, R=10.0)


class TestFunctionBound:
    def test_vanishes_on_the_plateau(self):
        spec = FunctionSpec(k=5, delta=2.0, R=10.0)
        grid = np.linspace(0.1 * spec.R, 0.99 * spec.R, 200)
        assert annulus_bound(spec, 5.0, grid=grid) == 0.0

    def test_frozen_annulus_constant(self):
        spec = FunctionSpec(k=5, delta=2.0, R=10.0)
        assert math.isclose(annulus_bound(spec, 5.0), 886.1142, rel_tol=1e-5)
        assert math.isclose(annulus_bound(spec, 10.0), 1473.0009, rel_tol=1e-5)

    def test_constant_forms_no_power_of_R(self):
        """C(R) = max |bilap_t / R^2 - lam lap_t| / phi in t = r/R: flat for large R,
        R^-2 times a fixed number for small R, with no R^m to overflow."""
        def bound(R):
            return annulus_bound(FunctionSpec(k=5, delta=2.0, R=R), 0.3, N=5)

        assert math.isclose(bound(10.0), 705.2167133574136, rel_tol=1e-13)
        assert math.isclose(bound(1e80), bound(1e150), rel_tol=1e-13)
        assert math.isclose(bound(1e-100) * 1e-200, bound(1e-50) * 1e-100, rel_tol=1e-12)

    def test_grid_beyond_the_support_gives_zero(self):
        """phi = 0 at t = 3 and 4, so no grid point is left and the constant is 0."""
        assert annulus_bound(FunctionSpec(5, 2.0, 10.0), 1.0, grid=np.array([30.0, 40.0])) == 0.0

    @pytest.mark.parametrize("N", [0, -3, 2.5])
    def test_dimension_that_is_not_a_positive_integer(self, N):
        with pytest.raises(InvalidDimension, match="dimension must be a positive integer"):
            annulus_bound(FunctionSpec(5, 2.0, 10.0), 1.0, N=N)

    def test_constant_past_the_float_range_is_rejected(self):
        with pytest.raises(ParameterError, match="R = 1e-160"):
            annulus_bound(FunctionSpec(k=5, delta=2.0, R=1e-160), 0.3, N=5)

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
        lambda s: np.zeros_like(np.asarray(s, dtype=float))[()],
        positive_mass_near_zero=True,
    )


def _truncated_newton_profile():
    return RadialProfile(
        lambda s: -np.log(np.maximum(1.0, np.asarray(s, dtype=float))),
        infinity_spec=AsymptoticSpec(-1.0, 0.0),
        positive_mass_near_zero=True,
    )


class TestHarnackMass:
    @pytest.mark.parametrize("R", [1e-200, 1e-120, 1e120, 1e200])
    def test_ball_mass_and_ratio_at_extreme_radii(self, R):
        """Mass 4 pi/3 min(R, 1)^3 and ratio 4 pi/3 min(1, R^-3), or 0.0 where
        they underflow; no R^N is formed to overflow."""
        h = harnack_mass(ball_profile(1.0), 2.0, R)
        for got, exact in ((h.mass, min(R, 1.0) ** 3), (h.ratio, min(1.0, 1.0 / R) ** 3)):
            assert math.isclose(got, 4.0 * math.pi / 3.0 * exact, rel_tol=1e-12), (got, exact)

    def test_infinite_radius_rejected(self):
        with pytest.raises(ParameterError):
            harnack_mass(_ones_profile(), 1.0, math.inf)
        with pytest.raises(ParameterError):
            FunctionSpec(k=5, delta=2.0, R=math.inf)

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

    @pytest.mark.parametrize("N", [0, -3, 2.5])
    def test_dimension_that_is_not_a_positive_integer(self, N):
        with pytest.raises(InvalidDimension, match="dimension must be a positive integer"):
            harnack_mass(ball_profile(1.0), 2.0, 10.0, N=N)


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

    @pytest.mark.parametrize("args, tag", [
        ((3, 3.07, 1.0, 1.98, 1.11), "Cor1.5(ii)"),
        ((5, 4.89, 1.0, 1.95, -2.91), "Cor1.5(i)"),
    ])
    def test_corollary_verdict_is_named_in_the_refusal(self, args, tag):
        assert classify_pplus(ProblemParams(Side.PPLUS, *args)).clause == tag
        with pytest.raises(HypothesisViolated) as err:
            divergence_certificate(*args)
        assert str(err.value).startswith(f"{tag}: no divergence series")

    def test_low_dimension_rejected(self):
        with pytest.raises(HypothesisViolated):
            divergence_certificate(2, 2.0, 2.0, 1.0, 0.0)

    def test_loglog_series_needs_radii_past_e_minus_one(self):
        """Thm2(iii) at beta = -1 reads log(log(1 + R)), which is not positive for R <= e - 1."""
        with pytest.raises(ParameterError, match="needs R > e - 1"):
            divergence_certificate(3, 2, 4, 1, -1, R_list=[1, 10])

    def test_alpha_decided_as_n_is_checked_as_n(self):
        """alpha within 1e-12 of N with alpha - N < beta <= 0 is refused as classify refuses it:
        the alpha = N kernel needs beta > 0."""
        assert combined_mass_clause(1.2, 1.7, -5e-14, 3.0) == "Thm2(iv)"
        with pytest.raises(InvalidBeta, match="beta must exceed alpha - N = 0.0"):
            divergence_certificate(3, 1.2, 0.5, 3 - 1e-13, -5e-14)

    def test_parameter_validation(self):
        with pytest.raises(ParameterError):
            divergence_certificate(3, 0.0, 2.0, 0.0, 0.0)
        with pytest.raises(ParameterError):
            divergence_certificate(3, 2.0, 2.0, 0.0, 0.0, R_list=[10.0])
        with pytest.raises(ParameterError):
            divergence_certificate(3, 2.0, 2.0, 0.0, 0.0, R_list=[100.0, 50.0])

    @pytest.mark.parametrize("R_list", [[0.0, 10.0], [-5.0, 10.0], [1e2, math.inf], [math.nan, 1.0]])
    def test_radii_must_be_positive_and_finite(self, R_list):
        """A zero, negative, infinite or NaN radius is refused by name, not read as a log
        warning or a NaN series."""
        with pytest.raises(ParameterError, match="positive and finite"):
            divergence_certificate(3, 1.2, 0.5, 1.0, 0.0, R_list=R_list)

    def test_csv_output(self, tmp_path, capsys):
        out = tmp_path / "cert.csv"
        assert cli.main(["probe", "--kind", "certificate", "--N", "3", "--p", "2", "--q", "2",
                         "--alpha", "0", "--beta", "0", "--radii", "1e2:1e4:3", "--out", str(out)]) == 0
        capsys.readouterr()
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "R,certificate_value,clause"
        assert len(lines) == 4
        assert lines[1].endswith("Thm2(iv)")

    def test_serialization_roundtrip(self):
        s = divergence_certificate(3, 2.0, 2.0, 0.0, 0.0)
        d = s.to_dict()
        assert set(d) == {
            "clause", "radii", "values", "theta",
            "strictly_increasing", "growth_ratio", "unbounded",
        }
        assert json.loads(json.dumps(d)) == d

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


# log1p(c R) and log R ratios between the ends of the default radii 1e2..1e8
_LOG1P_1 = math.log1p(1e8) / math.log1p(1e2)
_LOG1P_4 = math.log1p(4e8) / math.log1p(4e2)
_LOG_R = math.log(1e8) / math.log(1e2)


class TestCertificateClosedForms:
    """growth_ratio = value(1e8) / value(1e2) from each clause's series, with theta
    at the midpoint of its window where the log exponent b = beta (+1) is <= 0."""

    @pytest.mark.parametrize("args, clause, theta, ratio", [
        # power rows R^a log(1 + c R)^beta, a = mN - alpha - (N-2) x
        ((3, 1.5, 5.0, 0.0, 0.5), "Thm2(ii)", None, 1e9 * _LOG1P_1 ** 0.5),
        ((3, 2.0, 2.0, 0.0, 0.5), "Thm2(iv)", None, 1e12 * _LOG1P_4 ** 0.5),
        ((3, 0.5, 2.0, 0.0, 0.5), "Thm2(vi)", None, 1e6 * _LOG1P_1 ** 0.5),
        # log(1 + R)^(1 + beta), and log log(1 + R) at beta = -1
        ((3, 2.0, 4.0, 1.0, 0.5), "Thm2(iii)", None, _LOG1P_1 ** 1.5),
        ((3, 2.0, 4.0, 1.0, -1.0), "Thm2(iii)", None,
         math.log(math.log1p(1e8)) / math.log(math.log1p(1e2))),
        # log rows: log(1 + c R)^b for b > 0, else log(R)^(b + (x-1) theta)
        ((3, 3.0, 3.0, 0.0, -0.5), "Thm2(v)", 0.3, _LOG_R ** 1.0),
        ((3, 0.5, 3.0, 0.0, 0.5), "Thm2(vii)", None, _LOG1P_1 ** 0.5),
        ((3, 0.5, 3.0, 0.0, -0.5), "Thm2(vii)", 0.375, _LOG_R ** 0.25),
        ((3, 3.0, 2.0, 1.0, -0.9), "Thm2(viii)", None, _LOG1P_1 ** 0.1),
        ((3, 3.0, 2.0, 1.0, -1.2), "Thm2(viii)", 0.5, _LOG_R ** 0.3),
        ((3, 2.0, 3.0, 1.0, -1.2), "Thm2(ix)", 0.45, _LOG_R ** 0.7),
    ])
    def test_growth_ratio(self, args, clause, theta, ratio):
        s = divergence_certificate(*args)
        assert s.clause == clause
        assert s.theta == (None if theta is None else pytest.approx(theta, rel=1e-14))
        assert math.isclose(s.growth_ratio, ratio, rel_tol=1e-12), (s.growth_ratio, ratio)
        assert s.unbounded and s.strictly_increasing


class TestCertificateFollowsTheClassifier:
    """The certificate's clause is Thm2(iv)/(v) exactly when the classifier's
    combined_mass_clause holds, with its tolerant comparisons, and otherwise
    thm2_clause's answer."""

    def test_p_within_tolerance_of_one_is_one(self):
        args = (3, 1.0 - 1e-13, 1.0, 0.0, 0.0)
        assert thm2_clause(*args) == "Thm2(ii)"
        s = divergence_certificate(*args)
        assert s.clause == "Thm2(iv)"
        # R^(6 - (p + q)) over six decades
        assert math.isclose(s.growth_ratio, 1e24, rel_tol=1e-9)

    def test_beta_within_tolerance_of_the_window_edge_fails_thm2_v(self):
        args = (3, 3.0, 3.0, 0.0, 1.0 / 6.0 - 1.0 + 1e-15)
        assert thm2_clause(*args) == "Thm2(iii)"
        s = divergence_certificate(*args)
        assert s.clause == "Thm2(iii)" and s.theta is None
        assert math.isclose(s.growth_ratio, _LOG1P_1 ** (1.0 / 6.0 + 1e-15), rel_tol=1e-12)
        assert math.isclose(s.growth_ratio, 1.2595, rel_tol=1e-4)

    @given(
        N=st.sampled_from((3, 4, 5, 7)),
        alpha=st.sampled_from((0.0, 0.5, 1.0, 2.0)) | st.floats(0.0, 2.9),
        p=st.sampled_from(("1", "t1", "tn")) | st.floats(0.3, 6.0),
        q=st.sampled_from(("1", "t1", "tn", "t2 - p")) | st.floats(0.3, 6.0),
        beta=st.sampled_from(("1/s - 1", "1/q - 1", "-1", "-2 + 1/q")) | st.floats(-2.5, 2.5),
        nudge=st.sampled_from((-1e-13, 0.0, 1e-13)),
    )
    @settings(max_examples=300, deadline=None)
    def test_clause_matches_the_classifier(self, N, alpha, p, q, beta, nudge):
        t1, tn, t2 = thresholds(N, alpha)
        p = {"1": 1.0, "t1": t1, "tn": tn}.get(p, p) * (1.0 + nudge)
        q = {"1": 1.0, "t1": t1, "tn": tn, "t2 - p": t2 - p}.get(q, q) * (1.0 - nudge)
        s = p + q
        beta = {"1/s - 1": 1.0 / s - 1.0, "1/q - 1": 1.0 / q - 1.0, "-1": -1.0,
                "-2 + 1/q": -2.0 + 1.0 / q}.get(beta, beta) + nudge
        assume(q > 0.0 and beta > alpha - N)
        expected = combined_mass_clause(p, s, beta, t2) or thm2_clause(N, p, q, alpha, beta)
        if expected is None:
            tag = classify_pplus(ProblemParams(Side.PPLUS, N, p, q, alpha, beta)).clause
            with pytest.raises(HypothesisViolated, match="no nonexistence clause") as err:
                divergence_certificate(N, p, q, alpha, beta)
            assert str(err.value).startswith("Cor1.5") == tag.startswith("Cor1.5")
        else:
            assert divergence_certificate(N, p, q, alpha, beta).clause == expected


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

    def test_short_grid_skips_fit(self):
        c = lower_bound_chain(3, 1.0, 0.0, 3.0, [1.0, 10.0, 100.0])
        assert c.fitted is None
        assert len(c.values) == 3

    def test_dimension_floor(self):
        with pytest.raises(ParameterError):
            lower_bound_chain(2, 1.0, 0.0, 2.0, self.GRID)

    def test_fit_that_fails_leaves_fitted_none(self):
        """Six tail radii are enough to try a fit; one that raises leaves fitted None."""
        c = lower_bound_chain(3, 1, 0, 3, np.geomspace(50, 1000, 6))
        assert c.fitted is None
        assert np.all(np.isfinite(c.values))

    def test_serialization_keys(self):
        c = lower_bound_chain(3, 1.0, 0.0, 3.0, [1.0, 10.0, 100.0])
        assert set(c.to_dict()) == {"radii", "values", "predicted", "fitted", "divergent"}

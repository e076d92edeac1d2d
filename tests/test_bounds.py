"""Envelope predictions and the log-log fitting harness."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from logriesz import (
    AsymptoticSpec,
    BoundKind,
    DegenerateSamples,
    KernelParams,
    MissingAsymptoticSpec,
    OutOfHypothesis,
    PredictedBound,
    RadialProfile,
    ball_profile,
    check_bound,
    convolve_radial,
    fit_asymptotics,
    lower_bound_prediction,
    power_profile,
    upper_bound_prediction,
)

K310 = KernelParams(3, 1.0, 0.0)


def spec_close(spec, power, logpower):
    return math.isclose(spec.power, power, abs_tol=1e-12) and math.isclose(
        spec.logpower, logpower, abs_tol=1e-12
    )


class TestLowerBoundPrediction:
    def test_mass_term_for_fast_decay(self):
        b = lower_bound_prediction(K310, power_profile(4.0, 0.0))
        assert b.kind == BoundKind.LOWER
        assert b.spec == AsymptoticSpec(-1.0, 0.0)

    def test_compact_support_uses_mass_only(self):
        b = lower_bound_prediction(K310, ball_profile(1.0))
        assert b.spec == AsymptoticSpec(-1.0, 0.0)

    def test_tail_term_dominates_for_slow_decay(self):
        # sigma between N - alpha and N: tail power N - alpha - sigma wins
        b = lower_bound_prediction(K310, power_profile(2.2, 0.0))
        assert spec_close(b.spec, -0.2, 0.0)

    def test_log_improvement_at_newtonian_decay(self):
        # sigma = N with beta <= 0 picks up a full extra log
        k = KernelParams(3, 1.0, -0.5)
        b = lower_bound_prediction(k, power_profile(3.0, 0.0))
        assert b.spec == AsymptoticSpec(-1.0, 0.5)

    def test_divergence_for_fat_tail(self):
        b = lower_bound_prediction(K310, power_profile(1.0, 0.0))
        assert b.kind == BoundKind.DIVERGENT
        assert b.spec is None
        with pytest.raises(OutOfHypothesis):
            b.shape(10.0)

    def test_critical_decay_log_weight_decides(self):
        k = KernelParams(3, 1.0, -0.5)
        assert lower_bound_prediction(k, power_profile(2.0, -0.5)).kind == BoundKind.DIVERGENT
        b = lower_bound_prediction(k, power_profile(2.0, -0.6))
        assert b.kind == BoundKind.LOWER
        assert spec_close(b.spec, 0.0, -0.1)

    def test_requires_some_declared_structure(self):
        silent = RadialProfile(
            lambda s: -s,
            support_radius=5.0,
            positive_mass_near_zero=False,
        )
        with pytest.raises(MissingAsymptoticSpec):
            lower_bound_prediction(K310, silent)


@pytest.mark.parametrize("predict", [lower_bound_prediction, upper_bound_prediction])
def test_profile_without_a_declared_tail_is_refused(predict):
    """A profile that declares neither a tail shape nor compact support gives no envelope."""
    with pytest.raises(MissingAsymptoticSpec, match="need a declared tail"):
        predict(K310, RadialProfile(lambda s: -np.square(s)))


class TestUpperBoundPrediction:
    def test_mass_regime(self):
        b = upper_bound_prediction(K310, power_profile(4.0, 0.0, A=10.0))
        assert b.spec == AsymptoticSpec(-1.0, 0.0)
        assert b.scale == 10.0

    def test_tail_regime(self):
        b = upper_bound_prediction(K310, power_profile(2.2, 0.0, A=3.0))
        assert spec_close(b.spec, -0.2, 0.0)
        assert b.scale == 3.0

    def test_newtonian_decay_gains_log(self):
        b = upper_bound_prediction(K310, power_profile(3.0, 0.0, A=1.05))
        assert b.spec == AsymptoticSpec(-1.0, 1.0)

    def test_newtonian_decay_heavy_negative_log(self):
        b = upper_bound_prediction(K310, power_profile(3.0, -4.0, A=1.05))
        assert b.spec == AsymptoticSpec(-1.0, 0.0)

    def test_critical_decay_log_envelope(self):
        # sigma = N - alpha with enough negative log weight: flat power,
        # slowly vanishing log
        b = upper_bound_prediction(K310, power_profile(2.0, -1.3, A=10.0))
        assert spec_close(b.spec, 0.0, -0.3)

    def test_loglog_correction_at_minus_one(self):
        b = upper_bound_prediction(K310, power_profile(3.0, -1.0, A=10.0))
        assert b.extra_loglog
        assert b.spec == AsymptoticSpec(-1.0, 0.0)
        r = 100.0
        A = 10.0
        expected = (A + r) ** -1.0 * math.log(math.log(math.e + r))
        assert math.isclose(b.shape(r), expected, rel_tol=1e-12)

    def test_endpoint_alpha_equals_n(self):
        k = KernelParams(3, 3.0, 0.5)
        assert upper_bound_prediction(k, power_profile(2.0, 0.0)).spec == AsymptoticSpec(-2.0, 1.5)
        assert upper_bound_prediction(k, power_profile(4.0, 0.0)).spec == AsymptoticSpec(-3.0, 0.5)

    def test_out_of_hypothesis_cases(self):
        with pytest.raises(OutOfHypothesis):
            upper_bound_prediction(K310, power_profile(1.5, 0.0))
        with pytest.raises(OutOfHypothesis):
            upper_bound_prediction(K310, power_profile(2.0, -1.0))
        narrow = RadialProfile(
            lambda s: -2.0 * np.log1p(s * s),
            infinity_spec=AsymptoticSpec(-4.0, 0.0),
            scale=1.0,
        )
        with pytest.raises(OutOfHypothesis):
            upper_bound_prediction(K310, narrow)
        grower = RadialProfile(
            lambda s: np.log1p(s),
            infinity_spec=AsymptoticSpec(0.5, 0.0),
            scale=2.0,
        )
        with pytest.raises(OutOfHypothesis):
            upper_bound_prediction(KernelParams(3, 3.0, 0.5), grower)


def _expected_upper(N, alpha, beta, sigma, kappa):
    """Independent transcription of the published envelope case table."""
    if sigma < N - alpha:
        return None
    if sigma == N - alpha:
        if 1.0 + beta + kappa < 0.0:
            return (0.0, 1.0 + beta + kappa, False)
        return None
    top = -alpha if alpha < N else -N
    if alpha == N and sigma < N:
        return (-sigma, 1.0 + beta + kappa, False)
    if alpha < N and sigma < N:
        return (N - alpha - sigma, beta + kappa, False)
    if sigma > N:
        return (top, beta, False)
    if kappa > -1.0:
        return (top, 1.0 + beta + kappa, False)
    if kappa < -1.0:
        return (top, beta, False)
    return (top, beta, True)


@given(
    alpha=st.floats(0.0, 3.0),
    beta_off=st.floats(0.001, 3.0),
    sigma=st.floats(0.1, 6.0),
    kappa=st.floats(-3.0, 3.0),
)
@settings(max_examples=300, deadline=None)
def test_upper_prediction_covers_every_admissible_tail(alpha, beta_off, sigma, kappa):
    """Each (sigma, kappa) either raises or lands in exactly one case."""
    beta = alpha - 3.0 + beta_off
    k = KernelParams(3, alpha, beta)
    f = RadialProfile(
        lambda s: 0.0,
        infinity_spec=AsymptoticSpec(-sigma, kappa),
        scale=4.0,
    )
    expected = _expected_upper(3, alpha, beta, sigma, kappa)
    if alpha == 3.0 and sigma <= 0.0:
        expected = None
    if expected is None:
        with pytest.raises(OutOfHypothesis):
            upper_bound_prediction(k, f)
        return
    b = upper_bound_prediction(k, f)
    power, logpower, loglog = expected
    assert math.isclose(b.spec.power, power, abs_tol=1e-12)
    assert math.isclose(b.spec.logpower, logpower, abs_tol=1e-12)
    assert b.extra_loglog == loglog


class TestFitAsymptotics:
    @given(
        p=st.floats(-3.0, 3.0),
        q=st.floats(-2.0, 2.0),
        logc=st.floats(-2.0, 2.0),
    )
    @settings(max_examples=120, deadline=None)
    def test_recovers_exact_model(self, p, q, logc):
        radii = np.geomspace(1e3, 1e7, 10)
        c = math.exp(logc)
        samples = [(r, c * (1.0 + r) ** p * math.log(1.0 + r) ** q) for r in radii]
        fit = fit_asymptotics(samples, A=1.0)
        assert abs(fit.power_est - p) < 1e-6
        assert abs(fit.logpower_est - q) < 1e-4
        assert fit.residual < 1e-8

    def test_rejects_too_few_samples(self):
        samples = [(10.0 ** i, 10.0 ** -i) for i in range(5)]
        with pytest.raises(DegenerateSamples):
            fit_asymptotics(samples)

    def test_rejects_narrow_window(self):
        radii = np.geomspace(1e3, 5e3, 8)
        with pytest.raises(DegenerateSamples):
            fit_asymptotics([(r, 1.0 / r) for r in radii])

    def test_rejects_nonpositive_values(self):
        radii = np.geomspace(1e3, 1e7, 8)
        samples = [(r, 1.0 / r) for r in radii]
        samples[3] = (samples[3][0], 0.0)
        with pytest.raises(DegenerateSamples):
            fit_asymptotics(samples)

    @pytest.mark.parametrize("radius", [math.nan, math.inf])
    def test_rejects_non_finite_radius(self, radius, capfd):
        """A NaN or inf radius is refused before the least-squares solve, which would
        raise LinAlgError and print LAPACK complaints on stderr."""
        samples = [(r, 1.0 / r) for r in np.geomspace(1e3, 1e7, 8)]
        samples[2] = (radius, samples[2][1])
        with pytest.raises(DegenerateSamples, match="radii"):
            fit_asymptotics(samples)
        assert capfd.readouterr().err == ""

    def test_rejects_radii_inside_log_knee(self):
        radii = np.geomspace(0.01, 100.0, 8)
        with pytest.raises(DegenerateSamples):
            fit_asymptotics([(r, 1.0 / (1.0 + r)) for r in radii])


class TestCheckBound:
    def test_sandwich_fast_decay(self):
        """Lower and upper agree on (-1, 0); the measured curve sits between."""
        f = power_profile(4.0, 0.0, A=10.0)
        lo = lower_bound_prediction(K310, f)
        up = upper_bound_prediction(K310, f)
        assert lo.spec == up.spec
        rep_lo = check_bound(K310, f, lo, (1e3, 1e7), case_id="sandwich-lo")
        rep_up = check_bound(K310, f, up, (1e3, 1e7), case_id="sandwich-up")
        assert rep_lo.passed and rep_up.passed
        assert rep_lo.margin < 10.0 and rep_up.margin < 10.0

    def test_report_dict_shape(self):
        f = power_profile(4.0, 0.0, A=10.0)
        rep = check_bound(K310, f, upper_bound_prediction(K310, f), (1e3, 1e6), case_id="d")
        d = rep.to_dict()
        assert set(d) == {"case_id", "predicted", "fitted", "margin", "pass"}
        assert set(d["predicted"]) == {"power", "logpower", "loglog"}
        assert set(d["fitted"]) == {"power", "logpower", "residual"}
        assert d["case_id"] == "d"
        assert d["pass"] is True

    def test_divergent_bound_rejected(self):
        f = power_profile(1.0, 0.0)
        b = lower_bound_prediction(K310, f)
        with pytest.raises(OutOfHypothesis):
            check_bound(K310, f, b, (1e3, 1e7))

    def test_divergent_convolution_rejected(self):
        fake = PredictedBound(BoundKind.LOWER, AsymptoticSpec(-1.0, 0.0))
        with pytest.raises(OutOfHypothesis):
            check_bound(K310, power_profile(1.0, 0.0), fake, (1e3, 1e7))

    def test_bad_window_rejected(self):
        f = power_profile(4.0, 0.0, A=10.0)
        b = upper_bound_prediction(K310, f)
        with pytest.raises(DegenerateSamples):
            check_bound(K310, f, b, (1e5, 1e3))

    @pytest.mark.parametrize("window", [(1e3, math.inf), (math.nan, 1e7), (1e3, math.nan), (math.inf, math.inf)])
    def test_window_that_is_not_finite_rejected(self, window):
        """Refused before np.geomspace would warn on it."""
        f = power_profile(4.0, 0.0, A=10.0)
        with pytest.raises(DegenerateSamples):
            check_bound(K310, f, upper_bound_prediction(K310, f), window)

    def test_improved_lower_log_shows_up_in_fit(self):
        """For s^-N data under a beta = -1/2 kernel the measured log
        exponent must clear 0.4, confirming the extra log is real."""
        k = KernelParams(3, 1.0, -0.5)
        f = power_profile(3.0, 0.0, A=10.0)
        b = lower_bound_prediction(k, f)
        assert b.spec == AsymptoticSpec(-1.0, 0.5)
        radii = np.geomspace(1e3, 1e7, 8)
        samples = [(r, convolve_radial(k, f, r).value) for r in radii]
        fit = fit_asymptotics(samples, A=10.0)
        assert fit.logpower_est >= 0.4
        assert abs(fit.power_est + 1.0) < 0.05

    def test_loglog_envelope_behaviour(self):
        """kappa = -1 tail: envelope needs the loglog factor.

        Three scale-free checks: the loglog-corrected envelope tracks the
        curve within a factor 2, r * u keeps rising (no plateau), and the
        plain log fit sees a positive log exponent.
        """
        f = power_profile(3.0, -1.0, A=10.0)
        b = upper_bound_prediction(K310, f)
        assert b.extra_loglog
        rep = check_bound(K310, f, b, (1e3, 1e7), case_id="loglog")
        assert rep.passed
        assert rep.margin < 2.0

        radii = np.geomspace(1e3, 1e7, 8)
        vals = np.array([convolve_radial(K310, f, r).value for r in radii])
        scaled = vals * radii
        assert np.all(np.diff(scaled) > 0.0)
        assert scaled[-1] / scaled[0] > 1.2

        fit = fit_asymptotics([(r, v) for r, v in zip(radii, vals)], A=10.0)
        assert fit.logpower_est > 0.0

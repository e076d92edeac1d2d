"""Predicted growth/decay envelopes for K * f and their numerical checks.

The predictions mirror the sharp two-sided estimates for kernels
t^(-alpha) log(1+t)^beta against profiles with declared power-log decay
(A + r)^(-sigma) log(A + r)^kappa.  Convergence is convolution._tail_gap's
test.  Every threshold compares the declared exponents exactly, except that alpha within
approx_eq of N is N, as KernelParams admits it and classify decides it; an exponent derived
in rounded arithmetic is put on its threshold where it is derived (ansatz._powered_spec).

lower bounds (valid for r large, shapes in (1 + r)-form)
  * baseline (-alpha, beta) whenever the profile holds positive mass near 0;
  * improved (-alpha, 1 + beta) when beta <= 0 and the profile dominates
    c r^(-N) at infinity (declared decay no faster than r^(-N));
  * tail-driven (N - alpha - sigma, beta + kappa) when sigma > N - alpha,
    or (0, 1 + beta + kappa) on the critical line sigma = N - alpha with
    1 + beta + kappa < 0; divergence otherwise.

upper bounds, shapes in (A + r)-form
  sigma < N - alpha            out of hypothesis (divergent)
  sigma = N - alpha            (0, 1+beta+kappa) if 1+beta+kappa < 0, else divergent
  N - alpha < sigma < N        (N-alpha-sigma, beta+kappa); at alpha = N the mass of K
                               near the diagonal adds a log: (-sigma, 1+beta+kappa)
  sigma = N, kappa > -1        (-alpha, 1+beta+kappa)
  sigma = N, kappa = -1        (-alpha, beta) with an extra loglog factor
  sigma = N, kappa < -1        (-alpha, beta)
  sigma > N                    (-alpha, beta)
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .convolution import RadialProfile, _tail_gap, convolve_radial
from .errors import DegenerateSamples, MissingAsymptoticSpec, OutOfHypothesis
from .kernel import AsymptoticSpec, KernelParams, approx_eq


class BoundKind(enum.Enum):
    LOWER = "lower"
    UPPER = "upper"
    DIVERGENT = "divergent"


@dataclass(frozen=True)
class PredictedBound:
    kind: BoundKind
    spec: AsymptoticSpec | None
    extra_loglog: bool = False
    scale: float = 1.0

    def shape(self, r):
        """Evaluate the predicted envelope (A+r)^p log(A+r)^q [loglog(e+r)]."""
        if self.spec is None:
            raise OutOfHypothesis("divergent prediction has no finite shape")
        r = np.asarray(r, dtype=float)
        out = self.spec.shape(r, self.scale)
        if self.extra_loglog:
            out = out * np.log(np.log(math.e + r))
        return out[()]


@dataclass(frozen=True)
class FitResult:
    power_est: float
    logpower_est: float
    residual: float


def lower_bound_prediction(kernel: KernelParams, f: RadialProfile) -> PredictedBound:
    """Strongest applicable lower envelope for (K * f)(r) at large r."""
    N, alpha, beta = kernel.N, kernel.alpha, kernel.beta
    candidates: list[tuple[float, float]] = []

    if f.support_radius is None:
        if f.infinity_spec is None:
            raise MissingAsymptoticSpec("lower bounds need a declared tail or compact support")
        sigma = -f.infinity_spec.power
        kappa = f.infinity_spec.logpower
        gap = _tail_gap(kernel, sigma, kappa)
        if gap is None:
            return PredictedBound(kind=BoundKind.DIVERGENT, spec=None)
        candidates.append((gap, beta + kappa) if gap < 0.0 else (0.0, 1.0 + beta + kappa))
        dominates_newton = sigma < N or (sigma == N and kappa >= 0.0)
        if beta <= 0.0 and dominates_newton:
            candidates.append((-alpha, 1.0 + beta))

    if f.positive_mass_near_zero:
        candidates.append((-alpha, beta))

    if not candidates:
        raise MissingAsymptoticSpec(
            "no lower bound applies: declare a tail shape or positive mass near zero"
        )
    power, logpower = max(candidates)
    return PredictedBound(kind=BoundKind.LOWER, spec=AsymptoticSpec(power, logpower), scale=1.0)


def _upper_ladder(kernel: KernelParams, sigma: float, kappa: float) -> tuple[AsymptoticSpec, bool]:
    """The upper table of the module docstring: the envelope of K * f for
    f ~ s^-sigma log^kappa s, and whether it carries the extra loglog factor."""
    N, alpha, beta = kernel.N, kernel.alpha, kernel.beta
    gap = _tail_gap(kernel, sigma, kappa)
    if gap is None:
        raise OutOfHypothesis("declared decay too slow for the kernel: the convolution diverges")
    if gap == 0.0:
        return AsymptoticSpec(0.0, 1.0 + beta + kappa), False
    if sigma < N:
        return AsymptoticSpec(gap, 1.0 + beta + kappa if approx_eq(alpha, N) else beta + kappa), False
    if sigma > N or kappa < -1.0:
        return AsymptoticSpec(-alpha, beta), False
    if kappa > -1.0:
        return AsymptoticSpec(-alpha, 1.0 + beta + kappa), False
    return AsymptoticSpec(-alpha, beta), True


def upper_bound_prediction(kernel: KernelParams, f: RadialProfile) -> PredictedBound:
    """Sharp upper envelope for (K * f)(r), (A + r)-form with the profile's A."""
    if f.infinity_spec is None:
        raise MissingAsymptoticSpec("upper bounds need a declared tail shape")
    if f.scale <= 1.0:
        raise OutOfHypothesis("upper envelopes are stated for profiles with scale A > 1")
    spec, loglog = _upper_ladder(kernel, -f.infinity_spec.power, f.infinity_spec.logpower)
    return PredictedBound(BoundKind.UPPER, spec, extra_loglog=loglog, scale=f.scale)


def fit_asymptotics(samples: Sequence[tuple[float, float]], A: float = 1.0) -> FitResult:
    """Least squares of log v on {1, log(A+r), loglog(A+r)}.

    Exact (up to conditioning) on pure shapes c (A+r)^a log(A+r)^b.  Needs
    at least 6 samples spanning 3 decades, with finite positive radii and values.
    """
    arr = np.asarray(samples, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2 or arr.shape[0] < 6:
        raise DegenerateSamples("need at least 6 (radius, value) samples")
    radii, values = arr[:, 0], arr[:, 1]
    if not np.all((arr > 0.0) & (arr < math.inf)):
        raise DegenerateSamples("sample radii and values must be positive and finite")
    if radii.max() / radii.min() < 1e3:
        raise DegenerateSamples("sample radii must span at least 3 decades")
    logs = np.log(A + radii)
    if logs.min() <= 1.0:
        raise DegenerateSamples("A + r must exceed e for the loglog basis column")
    X = np.column_stack([np.ones_like(logs), logs, np.log(logs)])
    y = np.log(values)
    coef, *_ = np.linalg.lstsq(X, y, rcond=None)
    fitted = X @ coef
    residual = float(np.max(np.abs(np.expm1(fitted - y))))
    return FitResult(power_est=float(coef[1]), logpower_est=float(coef[2]), residual=residual)


@dataclass(frozen=True)
class BoundCheckReport:
    case_id: str
    predicted: PredictedBound
    fitted: FitResult
    margin: float
    passed: bool
    radii: tuple
    values: tuple

    def to_dict(self) -> dict:
        return {
            "case_id": self.case_id,
            "predicted": {
                "power": self.predicted.spec.power,
                "logpower": self.predicted.spec.logpower,
                "loglog": self.predicted.extra_loglog,
            },
            "fitted": {
                "power": self.fitted.power_est,
                "logpower": self.fitted.logpower_est,
                "residual": self.fitted.residual,
            },
            "margin": self.margin,
            "pass": self.passed,
        }


def check_bound(
    kernel: KernelParams,
    f: RadialProfile,
    bound: PredictedBound,
    window: tuple[float, float],
    case_id: str = "",
) -> BoundCheckReport:
    """Sample K * f on 8 log-spaced radii and compare against the envelope.

    Passes when the value/shape ratio stays within a factor 10 across the
    window (constants are not tracked, shapes are).
    """
    if bound.kind is BoundKind.DIVERGENT or bound.spec is None:
        raise OutOfHypothesis("cannot window-check a divergent prediction")
    lo, hi = window
    if not (0.0 < lo < hi < math.inf):
        raise DegenerateSamples(f"window must satisfy 0 < lo < hi < inf, got {window!r}")
    radii = np.geomspace(lo, hi, 8)
    res = convolve_radial(kernel, f, radii)
    if res.divergent:
        raise OutOfHypothesis("convolution divergent inside the check window")
    values = res.value
    ratios = values / np.asarray(bound.shape(radii), dtype=float)
    margin = float(ratios.max() / ratios.min())
    passed = bool(margin < 10.0 and ratios.min() > 0.0)
    fitted = fit_asymptotics(np.column_stack([radii, values]), A=bound.scale)
    return BoundCheckReport(
        case_id=case_id,
        predicted=bound,
        fitted=fitted,
        margin=margin,
        passed=passed,
        radii=tuple(float(x) for x in radii),
        values=tuple(float(x) for x in values),
    )

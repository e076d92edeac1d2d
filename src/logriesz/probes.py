"""Computable quantities behind the nonexistence arguments.

Three families: the empirical constant in the rescaled test-function bound
|D2(phi^2) - lam*D(phi^2)| <= (C/R^2) phi, the mass growth of a candidate
solution over balls, and the divergence certificates attached to each
nonexistence clause (the quantity that must stay bounded if a solution
exists, evaluated on a growing sequence of radii).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .bounds import FitResult, fit_asymptotics
from .classifier import ProblemParams, Side, classify_pplus, combined_mass_clause, thm2_clause, thresholds
from .convolution import RadialProfile, _integrate_marks, convolve_radial, unit_sphere_area
from .errors import HypothesisViolated, ParameterError
from .kernel import AsymptoticSpec, KernelParams, _validate_dimension, _validate_powers, approx_eq


# Taylor coefficients d^(k)(x)/k!, k = 0..4, of the decay piece 1 - smootherstep (_DECAY holds its
# coefficients of x^0..x^9), each a polynomial stated highest power first, as np.polyval reads it
_DECAY = (1.0, 0.0, 0.0, 0.0, 0.0, -126.0, 420.0, -540.0, 315.0, -70.0)
_DECAY_TAYLOR = [np.array([math.perm(j, k) * _DECAY[j] for j in range(9, k - 1, -1)]) / math.factorial(k)
                 for k in range(5)]


class BumpProfile:
    """Radial cutoff of class C^4: equal to 1 on [0,1], 0 beyond 2.

    The decay piece is the degree-9 smootherstep 126x^5 - 420x^6 + 540x^7
    - 315x^8 + 70x^9 whose first four derivatives vanish at both joints,
    so every positive integer power of the bump stays C^4.  Derivatives of
    powers come from the Taylor coefficients d^(k)/k! of the decay piece at
    each point, raised to the power by truncated products: expanding
    (bump)^power into one monomial-basis polynomial is catastrophically
    ill-conditioned (degree 9*power coefficients cancel to O(1) values).
    The decay piece itself is accurate to near machine precision in
    absolute terms only: next to t = 2 its value cancels to far below its
    rounding error (at t = 2 - 1e-6 power 10 reads 3.9e-137, not 1.0e-279).
    """

    def pow_derivs(self, t, power: int = 1, order: int = 0) -> np.ndarray:
        """d^k/dt^k of (bump)^power for every k = 0..order, stacked along a new first
        axis, from one pass of truncated products; vectorized over t >= 0."""
        if not (float(power).is_integer() and power >= 1 and float(order).is_integer() and 0 <= order <= 4):
            raise ParameterError("power must be an integer >= 1 and order an integer in 0..4")
        t = np.asarray(t, dtype=float)
        out = np.zeros((order + 1,) + t.shape)
        out[0] = np.where(t < 1.0, 1.0, 0.0)
        mid = (t >= 1.0) & (t <= 2.0)
        if np.any(mid):
            base = [np.polyval(poly, t[mid] - 1.0) for poly in _DECAY_TAYLOR[:order + 1]]
            coeffs = base
            for _ in range(int(power) - 1):
                # truncated Cauchy product: Taylor coefficients of the next power
                coeffs = [sum(coeffs[j] * base[k - j] for j in range(k + 1)) for k in range(order + 1)]
            out[:, mid] = [math.factorial(k) * c for k, c in enumerate(coeffs)]
        return out

    def pow_deriv(self, t, power: int = 1, order: int = 0):
        """d^order/dt^order of (bump)^power, vectorized over t >= 0."""
        out = self.pow_derivs(t, power, order)[order]
        return out if out.ndim else float(out)

    def value(self, t):
        return self.pow_deriv(t, 1, 0)


@dataclass(frozen=True)
class TestFunctionSpec:
    k: int
    delta: float
    R: float

    def __post_init__(self) -> None:
        if not (float(self.k).is_integer() and self.k >= 1):
            raise ParameterError("k must be an integer >= 1")
        if not self.delta > 1.0:
            raise ParameterError("delta must exceed 1")
        if not 0.0 < self.R < np.inf:
            raise ParameterError("scale R must be positive and finite")

    @property
    def delta_power_valid(self) -> bool:
        # needed whenever phi^(-1/(delta-1)) integrability is invoked
        return self.k > 4.0 / (self.delta - 1.0)


_BUMP = BumpProfile()


def test_function_bound(spec: TestFunctionSpec, lam: float,
                        grid: np.ndarray | None = None, N: int = 3) -> float:
    """Empirical constant C(R) = max |D2(phi^2) - lam*D(phi^2)| R^2 / phi.

    phi = psi(|x|/R)^k.  The maximum runs over grid points with phi >= 1e-6;
    inside the plateau the quantity vanishes identically, so the default
    grid concentrates on the annulus [R, 2R].  In t = r/R, D(phi^2) = lap_t / R^2 and
    D2(phi^2) = bilap_t / R^4; a C past the float range raises ParameterError.
    """
    _validate_dimension(N)
    if not math.isfinite(lam):
        raise ParameterError(f"lambda must be finite, got {lam!r}")
    R = spec.R
    t = (np.concatenate([np.linspace(0.05, 0.999, 64), np.linspace(1.0, 2.0, 2049)]) if grid is None
         else np.asarray(grid, dtype=float) / R)
    phi = _BUMP.pow_deriv(t, spec.k, 0)
    mask = (t > 0.0) & (phi >= 1e-6)
    if not np.any(mask):
        return 0.0
    t, phi = t[mask], phi[mask]
    d = _BUMP.pow_derivs(t, 2 * spec.k, 4)
    lap = d[2] + (N - 1.0) * d[1] / t
    bilap = (d[4] + 2.0 * (N - 1.0) * d[3] / t
             + (N - 1.0) * (N - 3.0) * d[2] / t ** 2
             - (N - 1.0) * (N - 3.0) * d[1] / t ** 3)
    with np.errstate(over="ignore"):  # a C past the float range is caught below
        constant = float(np.max(np.abs(bilap / R / R - lam * lap) / phi))
    if not np.isfinite(constant):
        raise ParameterError(f"test-function constant at R = {R!r} exceeds the float range")
    return constant


@dataclass(frozen=True)
class HarnackMass:
    mass: float
    ratio: float
    R: float


def harnack_mass(u: RadialProfile, p: float, R: float, N: int = 3) -> HarnackMass:
    """Mass of u^p over the ball of radius R and its ratio to R^N, from one sweep of
    s^(N-1) u^p and (s/R)^(N-1) u^p / R, each one exp of logs that forms no power of R."""
    _validate_dimension(N)
    if not 0.0 < R < np.inf:
        raise ParameterError("harnack_mass needs finite R > 0")
    _validate_powers(p)

    def integrand(s: np.ndarray, *_) -> np.ndarray:
        log_up, log_s = p * u.log_evaluate(s), np.log(s)
        return np.exp(np.stack((log_up + (N - 1) * log_s, log_up + (N - 1) * (log_s - math.log(R)) - math.log(R))))

    # break at the support edge and decades so every segment is smooth
    marks = {0.0, R}
    if u.support_radius is not None and 0.0 < u.support_radius < R:
        marks.add(u.support_radius)
    d = 1.0
    while d < R:
        marks.add(d)
        d *= 10.0
    # a non-finite integrand raises QuadratureFailure
    segments, _, _ = _integrate_marks(integrand, [sorted(marks)])
    mass, ratio = unit_sphere_area(N) * segments.sum(axis=1)
    return HarnackMass(mass=float(mass), ratio=float(ratio), R=R)


@dataclass(frozen=True)
class CertificateSeries:
    clause: str
    radii: np.ndarray
    values: np.ndarray
    theta: float | None
    strictly_increasing: bool
    growth_ratio: float
    unbounded: bool

    def to_dict(self) -> dict:
        return {
            "clause": self.clause,
            "theta": self.theta,
            "radii": [float(x) for x in self.radii],
            "values": [float(x) for x in self.values],
            "strictly_increasing": self.strictly_increasing,
            "growth_ratio": self.growth_ratio,
            "unbounded": self.unbounded,
        }


def _theta_or_mid(theta: float | None, lo: float, hi: float, label: str) -> float:
    if not lo < hi:
        raise HypothesisViolated(f"empty log-exponent window for {label}")
    if theta is None:
        return 0.5 * (lo + hi)
    if not (lo < theta < hi):
        raise HypothesisViolated(
            f"theta={theta} outside ({lo}, {hi}) required by {label}")
    return theta


# Series rows by clause tag; the exponent x is p, q or s = p + q and c scales log(1 + c R).
# A power row (m, x, c) reads R^a log(1 + c R)^beta with a = mN - alpha - (N-2) x; a log
# row (shift, x, c) reads log(1 + c R)^b with b = beta + shift when b > 0, and otherwise
# log(R)^(b + (x-1) theta) with theta in the window (-b/(x-1), 1 + b).  Thm2(iii) is
# written out in divergence_certificate.
_POWER_ROWS = {"Thm2(ii)": (1, "p", 1.0), "Thm2(iv)": (2, "s", 4.0), "Thm2(vi)": (1, "q", 1.0)}
_LOG_ROWS = {"Thm2(v)": (0.0, "s", 4.0), "Thm2(vii)": (0.0, "q", 1.0),
             "Thm2(viii)": (1.0, "q", 1.0), "Thm2(ix)": (1.0, "q", 1.0)}


def divergence_certificate(N: int, p: float, q: float, alpha: float, beta: float,
                           theta: float | None = None,
                           R_list: Sequence[float] | None = None) -> CertificateSeries:
    """Evaluate the divergence quantity of the matching nonexistence clause.

    The combined-mass quantity (sum of exponents against the doubled radius)
    is the master estimate of the argument, so its clauses Thm2(iv)/(v) are
    preferred whenever they apply; otherwise the clause is thm2_clause's.
    theta is consulted only by the clauses whose proofs run through a
    log-exponent window, and is validated against that window when given.
    `unbounded` reports the asymptotic verdict of the series formula;
    `strictly_increasing` reports the sampled window, which can disagree
    for slowly turning power-log combinations.  Both it and `growth_ratio`
    are read off the logarithms of the series, so they hold where a value
    exceeds the float range; such values (and such a ratio) are inf.
    """
    params = ProblemParams(Side.PPLUS, N, p, q, alpha, beta)
    if N <= 2:
        raise HypothesisViolated("certificates are defined for N >= 3")
    s = p + q
    clause = combined_mass_clause(p, s, beta, thresholds(N, alpha)[2]) or thm2_clause(N, p, q, alpha, beta)
    if clause is None:
        # the only-if corollary is a verdict without a series of its own
        tag = classify_pplus(params).clause
        if tag.startswith("Cor1.5"):
            raise HypothesisViolated(f"{tag}: no divergence series is implemented for this clause; "
                                     "it matches no nonexistence clause of Thm2")
        raise HypothesisViolated("parameters match no nonexistence clause")
    if R_list is None:
        R_list = np.geomspace(1e2, 1e8, 25)
    R = np.asarray(R_list, dtype=float)
    if not np.all((R > 0.0) & (R < math.inf)):
        raise ParameterError(f"R_list radii must be positive and finite, got {R_list!r}")
    if R.size < 2 or np.any(np.diff(R) <= 0.0):
        raise ParameterError("R_list must be increasing with at least 2 entries")

    x = {"p": p, "q": q, "s": s}
    t_used = None
    log_r = np.log(R)
    if clause in _POWER_ROWS:
        m, key, c = _POWER_ROWS[clause]
        a = m * N - alpha - (N - 2.0) * x[key]
        log_series = a * log_r + beta * np.log(np.log1p(c * R))
        unbounded = a > 0.0
    elif clause == "Thm2(iii)":
        if approx_eq(beta, -1.0):
            if R[0] <= np.e - 1.0:
                raise ParameterError("the series log(log(1+R)) of Thm2(iii) needs R > e - 1")
            log_series = np.log(np.log(np.log1p(R)))
        else:
            log_series = (1.0 + beta) * np.log(np.log1p(R))
        unbounded = beta >= -1.0
    else:
        shift, key, c = _LOG_ROWS[clause]
        b = beta + shift
        if b > 0.0:
            log_series = b * np.log(np.log1p(c * R))
            e = b
        else:
            t_used = _theta_or_mid(theta, (-shift - beta) / (x[key] - 1.0), (1.0 + shift) + beta, clause)
            e = b + (x[key] - 1.0) * t_used
            log_series = e * np.log(log_r)
        unbounded = e > 0.0

    increasing = bool(np.all(np.diff(log_series) > 0.0))
    with np.errstate(over="ignore"):
        values = np.exp(log_series)
        ratio = float(np.exp(log_series[-1] - log_series[0]))
    return CertificateSeries(clause=clause, radii=R, values=values, theta=t_used,
                             strictly_increasing=increasing, growth_ratio=ratio,
                             unbounded=bool(unbounded))


@dataclass(frozen=True)
class ChainResult:
    radii: np.ndarray
    values: np.ndarray
    predicted: AsymptoticSpec
    fitted: FitResult | None
    divergent: bool

    def to_dict(self) -> dict:
        d = {
            "radii": [float(x) for x in self.radii],
            "values": [float(x) for x in self.values],
            "predicted": {"power": self.predicted.power, "logpower": self.predicted.logpower},
            "divergent": self.divergent,
        }
        if self.fitted is not None:
            d["fitted"] = {"power": self.fitted.power_est,
                           "logpower": self.fitted.logpower_est,
                           "residual": self.fitted.residual}
        else:
            d["fitted"] = None
        return d


def lower_bound_chain(N: int, alpha: float, beta: float, p: float, grid: Sequence[float]) -> ChainResult:
    """Convolution profile of u0^p against the kernel, with exponent check.

    u0 is the truncated fundamental-solution shape max(1, r)^(2-N).
    `predicted` is the guaranteed floor (N - alpha - p(N-2), beta); on
    critical lines the true profile can carry one extra log, so fits may
    exceed the floor's log exponent.
    """
    if N < 3:
        raise ParameterError("the chain estimate needs N >= 3")
    kernel = KernelParams(N=N, alpha=alpha, beta=beta)
    _validate_powers(p)
    grid = np.asarray(grid, dtype=float)
    # p times log u0, in this order: (p * (2 - N)) * log(...) moves the last digits
    f = RadialProfile(lambda r: p * ((2.0 - N) * np.log(np.maximum(1.0, r))),
                      infinity_spec=AsymptoticSpec(p * (2.0 - N), 0.0), positive_mass_near_zero=True)
    predicted = AsymptoticSpec(N - alpha - p * (N - 2.0), beta)

    res = convolve_radial(kernel, f, grid)
    fitted = None
    tail = grid >= 50.0
    if not res.divergent and np.count_nonzero(tail) >= 6:
        try:
            fitted = fit_asymptotics(list(zip(grid[tail], res.value[tail])))
        except ParameterError:
            fitted = None
    return ChainResult(radii=grid, values=res.value, predicted=predicted,
                       fitted=fitted, divergent=res.divergent)

"""Computable quantities behind the nonexistence arguments.

Three families: the empirical constant in the rescaled test-function bound
|D2(phi^2) - lam*D(phi^2)| <= (C/R^2) phi, the mass growth of a candidate
solution over balls, and the divergence certificates attached to each
nonexistence clause (the quantity that must stay bounded if a solution
exists, evaluated on a growing sequence of radii).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from numpy.polynomial import Polynomial

from .bounds import FitResult, fit_asymptotics, lower_bound_prediction
from .classifier import thm2_clause, thresholds
from .convolution import RadialProfile, _integrate_marks, convolve_radial, unit_sphere_area
from .errors import HypothesisViolated, ParameterError
from .kernel import AsymptoticSpec, KernelParams, approx_eq, validate


class BumpProfile:
    """Radial cutoff of class C^4: equal to 1 on [0,1], 0 beyond 2.

    The decay piece is the degree-9 smootherstep 126x^5 - 420x^6 + 540x^7
    - 315x^8 + 70x^9 whose first four derivatives vanish at both joints,
    so every positive integer power of the bump stays C^4.  Derivatives of
    powers are assembled from the base piece via the chain rule: expanding
    (bump)^power into one monomial-basis polynomial is catastrophically
    ill-conditioned (degree 9*power coefficients cancel to O(1) values),
    while the base piece itself evaluates to near machine accuracy.
    """

    def __init__(self) -> None:
        ramp = Polynomial([0.0, 0.0, 0.0, 0.0, 0.0, 126.0, -420.0, 540.0, -315.0, 70.0])
        decay = Polynomial([1.0]) - ramp
        self._derivs = [decay]
        for _ in range(4):
            self._derivs.append(self._derivs[-1].deriv())

    def pow_deriv(self, t, power: int = 1, order: int = 0):
        """d^order/dt^order of (bump)^power, vectorized over t >= 0."""
        if int(power) != power or power < 1 or order < 0 or order > 4:
            raise ParameterError("power must be an integer >= 1 and 0 <= order <= 4")
        t = np.asarray(t, dtype=float)
        out = np.zeros_like(t)
        inner = t < 1.0
        if order == 0:
            out[inner] = 1.0
        mid = (t >= 1.0) & (t <= 2.0)
        if np.any(mid):
            x = t[mid] - 1.0
            d = [poly(x) for poly in self._derivs[:order + 1]]
            n = float(power)

            def term(coeff: float, exp: float, factor):
                # skip zero coefficients so 0 * d0^(negative) never evaluates
                if coeff == 0.0:
                    return 0.0
                return coeff * d[0] ** exp * factor

            if order == 0:
                val = d[0] ** n
            elif order == 1:
                val = term(n, n - 1, d[1])
            elif order == 2:
                val = (term(n * (n - 1), n - 2, d[1] ** 2)
                       + term(n, n - 1, d[2]))
            elif order == 3:
                val = (term(n * (n - 1) * (n - 2), n - 3, d[1] ** 3)
                       + term(3 * n * (n - 1), n - 2, d[1] * d[2])
                       + term(n, n - 1, d[3]))
            else:
                val = (term(n * (n - 1) * (n - 2) * (n - 3), n - 4, d[1] ** 4)
                       + term(6 * n * (n - 1) * (n - 2), n - 3, d[1] ** 2 * d[2])
                       + term(n * (n - 1), n - 2, 3.0 * d[2] ** 2 + 4.0 * d[1] * d[3])
                       + term(n, n - 1, d[4]))
            out[mid] = val
        return out if out.ndim else float(out)

    def value(self, t):
        return self.pow_deriv(t, 1, 0)


@dataclass(frozen=True)
class TestFunctionSpec:
    k: int
    delta: float
    R: float
    psi: BumpProfile = field(default_factory=BumpProfile)

    def __post_init__(self) -> None:
        if int(self.k) != self.k or self.k < 1:
            raise ParameterError("k must be an integer >= 1")
        if not self.delta > 1.0:
            raise ParameterError("delta must exceed 1")
        if not self.R > 0.0:
            raise ParameterError("scale R must be positive")

    @property
    def delta_power_valid(self) -> bool:
        # needed whenever phi^(-1/(delta-1)) integrability is invoked
        return self.k > 4.0 / (self.delta - 1.0)


def test_function_bound(spec: TestFunctionSpec, lam: float,
                        grid: np.ndarray | None = None, N: int = 3) -> float:
    """Empirical constant C(R) = max |D2(phi^2) - lam*D(phi^2)| R^2 / phi.

    phi = psi(|x|/R)^k.  The maximum runs over grid points with phi >= 1e-6;
    inside the plateau the quantity vanishes identically, so the default
    grid concentrates on the annulus [R, 2R].
    """
    R = spec.R
    if grid is None:
        grid = np.concatenate([
            np.linspace(0.05 * R, 0.999 * R, 64),
            np.linspace(R, 2.0 * R, 2049),
        ])
    r = np.asarray(grid, dtype=float)
    t = r / R
    phi = spec.psi.pow_deriv(t, spec.k, 0)
    mask = (r > 0.0) & (phi >= 1e-6)
    if not np.any(mask):
        return 0.0
    r = r[mask]
    t = t[mask]
    phi = phi[mask]
    g = [spec.psi.pow_deriv(t, 2 * spec.k, m) / R ** m for m in range(5)]
    lap = g[2] + (N - 1.0) * g[1] / r
    bilap = (g[4] + 2.0 * (N - 1.0) * g[3] / r
             + (N - 1.0) * (N - 3.0) * g[2] / r ** 2
             - (N - 1.0) * (N - 3.0) * g[1] / r ** 3)
    quantity = np.abs(bilap - lam * lap) * R ** 2 / phi
    return float(np.max(quantity))


@dataclass(frozen=True)
class HarnackMass:
    mass: float
    ratio: float
    R: float


def harnack_mass(u: RadialProfile, p: float, R: float, N: int = 3) -> HarnackMass:
    """Mass of u^p over the ball of radius R and its ratio to R^N."""
    if R <= 0.0 or p <= 0.0:
        raise ParameterError("harnack_mass needs R > 0 and p > 0")

    def integrand(s: np.ndarray, *_) -> np.ndarray:
        return u.evaluate(s) ** p * s ** (N - 1)

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
    mass = unit_sphere_area(N) * float(segments.sum())
    return HarnackMass(mass=mass, ratio=mass / R ** N, R=R)


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

    def to_json(self) -> str:
        return json.dumps(self.to_dict())


def _theta_or_mid(theta: float | None, lo: float, hi: float, label: str) -> float:
    if not lo < hi:
        raise HypothesisViolated(f"empty log-exponent window for {label}")
    if theta is None:
        return 0.5 * (lo + hi)
    if not (lo < theta < hi):
        raise HypothesisViolated(
            f"theta={theta} outside ({lo}, {hi}) required by {label}")
    return theta


def _certificate_clause(N: int, p: float, q: float, alpha: float, beta: float) -> str | None:
    """Clause attribution for certificate purposes.

    The combined-mass quantity (sum of exponents against the doubled radius)
    is the master estimate of the argument, so its two clauses are preferred
    whenever several apply; the classifier keeps statement order instead.
    """
    s = p + q
    t2 = thresholds(N, alpha)[2]
    if p >= 1.0 and s < t2 and not approx_eq(s, t2):
        return "Thm2(iv)"
    if p >= 1.0 and approx_eq(s, t2) and beta > 1.0 / s - 1.0:
        return "Thm2(v)"
    return thm2_clause(N, p, q, alpha, beta)


def divergence_certificate(N: int, p: float, q: float, alpha: float, beta: float,
                           theta: float | None = None,
                           R_list: Sequence[float] | None = None) -> CertificateSeries:
    """Evaluate the divergence quantity of the matching nonexistence clause.

    theta is consulted only by the clauses whose proofs run through a
    log-exponent window, and is validated against that window when given.
    `unbounded` reports the asymptotic verdict of the series formula;
    `strictly_increasing` reports the sampled window, which can disagree
    for slowly turning power-log combinations.  Both it and `growth_ratio`
    are read off the logarithms of the series, so they hold where a value
    exceeds the float range; such values (and such a ratio) are inf.
    """
    validate(KernelParams(N=N, alpha=alpha, beta=beta))
    if p <= 0.0 or q <= 0.0:
        raise ParameterError("exponents p, q must be positive")
    if N <= 2:
        raise HypothesisViolated("certificates are defined for N >= 3")
    clause = _certificate_clause(N, p, q, alpha, beta)
    if clause is None:
        raise HypothesisViolated("parameters match no nonexistence clause")
    if R_list is None:
        R_list = np.geomspace(1e2, 1e8, 25)
    R = np.asarray(R_list, dtype=float)
    if R.size < 2 or np.any(np.diff(R) <= 0.0):
        raise ParameterError("R_list must be increasing with at least 2 entries")

    s = p + q
    t_used = None
    log_r = np.log(R)
    if clause == "Thm2(ii)":
        a = N - alpha - (N - 2.0) * p
        log_values = a * log_r + beta * np.log(np.log1p(R))
        unbounded = a > 0.0
    elif clause == "Thm2(iii)":
        if approx_eq(beta, -1.0):
            if R[0] <= np.e - 1.0:
                raise ParameterError("the series log(log(1+R)) of Thm2(iii) needs R > e - 1")
            log_values = np.log(np.log(np.log1p(R)))
        else:
            log_values = (1.0 + beta) * np.log(np.log1p(R))
        unbounded = beta >= -1.0
    elif clause == "Thm2(iv)":
        a = 2.0 * N - alpha - (N - 2.0) * s
        log_values = a * log_r + beta * np.log(np.log1p(4.0 * R))
        unbounded = a > 0.0
    elif clause == "Thm2(v)":
        if beta > 0.0:
            log_values = beta * np.log(np.log1p(4.0 * R))
            e = beta
        else:
            t_used = _theta_or_mid(theta, -beta / (s - 1.0), 1.0 + beta, clause)
            e = beta + (s - 1.0) * t_used
            log_values = e * np.log(log_r)
        unbounded = e > 0.0
    elif clause == "Thm2(vi)":
        a = N - alpha - (N - 2.0) * q
        log_values = a * log_r + beta * np.log(np.log1p(R))
        unbounded = a > 0.0
    elif clause == "Thm2(vii)":
        if beta > 0.0:
            log_values = beta * np.log(np.log1p(R))
            e = beta
        else:
            t_used = _theta_or_mid(theta, -beta / (q - 1.0), 1.0 + beta, clause)
            e = beta + (q - 1.0) * t_used
            log_values = e * np.log(log_r)
        unbounded = e > 0.0
    else:  # Thm2(viii) or Thm2(ix)
        if beta > -1.0:
            log_values = (1.0 + beta) * np.log(np.log1p(R))
            e = 1.0 + beta
        else:
            t_used = _theta_or_mid(theta, (-1.0 - beta) / (q - 1.0), 2.0 + beta, clause)
            e = 1.0 + beta + (q - 1.0) * t_used
            log_values = e * np.log(log_r)
        unbounded = e > 0.0

    increasing = bool(np.all(np.diff(log_values) > 0.0))
    with np.errstate(over="ignore"):
        values = np.exp(log_values)
        ratio = float(np.exp(log_values[-1] - log_values[0]))
    return CertificateSeries(clause=clause, radii=R, values=values, theta=t_used,
                             strictly_increasing=increasing, growth_ratio=ratio,
                             unbounded=bool(unbounded))


def write_certificate_csv(path: str, series: CertificateSeries) -> None:
    with open(path, "w") as fh:
        fh.write("R,certificate_value,clause\n")
        for r, v in zip(series.radii, series.values):
            fh.write(f"{r:.17g},{v:.17g},{series.clause}\n")


@dataclass(frozen=True)
class ChainResult:
    radii: np.ndarray
    values: np.ndarray
    predicted: AsymptoticSpec | None
    fitted: FitResult | None
    divergent: bool

    def to_dict(self) -> dict:
        d = {
            "radii": [float(x) for x in self.radii],
            "values": [float(x) for x in self.values],
            "predicted": None if self.predicted is None else
                {"power": self.predicted.power, "logpower": self.predicted.logpower},
            "divergent": self.divergent,
        }
        if self.fitted is not None:
            d["fitted"] = {"power": self.fitted.power_est,
                           "logpower": self.fitted.logpower_est,
                           "residual": self.fitted.residual}
        else:
            d["fitted"] = None
        return d


def lower_bound_chain(N: int, alpha: float, beta: float, p: float,
                      grid: Sequence[float], u0: RadialProfile | None = None) -> ChainResult:
    """Convolution profile of u0^p against the kernel, with exponent check.

    Default u0 is the truncated fundamental-solution shape max(1, r)^(2-N).
    `predicted` is the guaranteed floor (N - alpha - p(N-2), beta) for that
    default; on critical lines the true profile can carry one extra log, so
    fits may exceed the floor's log exponent.  For a custom u0 the
    prediction comes from the generic lower-bound machinery instead.
    """
    if N < 3:
        raise ParameterError("the chain estimate needs N >= 3")
    kernel = KernelParams(N=N, alpha=alpha, beta=beta)
    validate(kernel)
    if p <= 0.0:
        raise ParameterError("p must be positive")
    grid = np.asarray(grid, dtype=float)

    if u0 is None:
        sigma = p * (N - 2.0)

        def powered(r):
            return np.maximum(1.0, np.asarray(r, dtype=float)) ** (-sigma)

        f = RadialProfile(evaluate=powered, infinity_spec=AsymptoticSpec(-sigma, 0.0),
                          positive_mass_near_zero=True)
        predicted = AsymptoticSpec(N - alpha - sigma, beta)
    else:
        def powered(r, base=u0):
            return np.asarray(base.evaluate(r), dtype=float) ** p

        inf_spec = None
        if u0.infinity_spec is not None:
            inf_spec = AsymptoticSpec(p * u0.infinity_spec.power,
                                      p * u0.infinity_spec.logpower)
        f = RadialProfile(evaluate=powered, infinity_spec=inf_spec, scale=u0.scale,
                          support_radius=u0.support_radius,
                          positive_mass_near_zero=u0.positive_mass_near_zero)
        try:
            predicted = lower_bound_prediction(kernel, f).spec
        except ParameterError:
            # no claimable lower envelope (e.g. the zero profile): data only
            predicted = None

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

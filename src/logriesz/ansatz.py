"""Explicit supersolution family built from w(x) = sqrt(A + |x|^2).

The source v = w^(-gamma) log(w)^tau has a decaying potential u with
-Laplace(u) = v, and the fourth-order drift expression evaluates in closed
form (r^2 = w^2 - A, L = log w):

    Lap^2(u) - lam*Lap(u) = -Lap(v) + lam*v
      = gamma(N-gamma-2) w^(-gamma-2) L^tau
      + tau(2gamma+2-N)  w^(-gamma-2) L^(tau-1)
      + A gamma(gamma+2) w^(-gamma-4) L^tau
      - A tau(2gamma+2)  w^(-gamma-4) L^(tau-1)
      + tau(1-tau) r^2   w^(-gamma-4) L^(tau-2)
      + lam w^(-gamma) L^tau.

The half-drift certificate -Lap(v) + (lam/2) v is nonnegative for every
lam >= lambda_star = 2 max(0, sup_r Lap(v)/v); above that threshold the
left side dominates (lam/2) v, which is what the case catalogue compares
the reaction term against.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .bounds import BoundKind, PredictedBound, _upper_ladder
# ExistenceCase and choose_case_params live in the classifier; perfbench/workloads.py
# still reaches choose_case_params as ansatz.choose_case_params
from .classifier import ExistenceCase, choose_case_params
from .convolution import (
    RadialProfile,
    _jacobi_rule,
    _layer_cake,
    _reach,
    convolve_radial,
    newtonian_potential_radial,
)
from .errors import (
    HypothesisViolated,
    InvalidDimension,
    OutOfHypothesis,
    ParameterError,
    ScalingUndefined,
)
from .kernel import AsymptoticSpec, KernelParams, _sign, _validate_powers, approx_eq


@dataclass(frozen=True)
class AnsatzParams:
    N: int
    gamma: float
    tau: float
    A: float

    def __post_init__(self) -> None:
        if not isinstance(self.N, numbers.Integral) or self.N < 3:
            raise InvalidDimension("ansatz family needs integer N >= 3")
        if not (2.0 < self.gamma <= self.N):
            raise ParameterError(f"gamma must lie in (2, N], got {self.gamma}")
        if not (-1.0 < self.tau < 1.0):
            raise ParameterError(f"tau must lie in (-1, 1), got {self.tau}")
        if not (math.e < self.A < math.inf):
            raise ParameterError(f"A must be finite and exceed e so log(w) > 1/2 everywhere, got {self.A}")


def w_eval(params: AnsatzParams, r):
    """w(r) = sqrt(A + r^2), formed as hypot(sqrt(A), r): finite where r^2 overflows."""
    return np.hypot(math.sqrt(params.A), np.asarray(r, dtype=float))[()]


def _log_source(params: AnsatzParams, r):
    """log v(r) = -gamma log(w) + tau log(log(w)); log(w) > 1/2 since A > e."""
    log_w = np.log(w_eval(params, r))
    return (-params.gamma * log_w + params.tau * np.log(log_w))[()]


def source_eval(params: AnsatzParams, r):
    """v(r) = w^(-gamma) log(w)^tau, the exp of _log_source."""
    return np.exp(_log_source(params, r))


def source_profile(params: AnsatzParams) -> RadialProfile:
    return RadialProfile(
        lambda s: _log_source(params, s),
        infinity_spec=AsymptoticSpec(-params.gamma, params.tau),
        scale=math.sqrt(params.A),
        positive_mass_near_zero=True,
    )


def u_eval(params: AnsatzParams, r: float) -> float:
    """Potential of the source: -Laplace(u) = v, u decaying (gamma > 2)."""
    return newtonian_potential_radial(params.N, source_profile(params), r)


def _drift_over_source(params: AnsatzParams, r):
    """-Lap(v)/v at radius r (vectorized): the display above at lam = 0 divided by
    w^(-gamma) L^tau term by term, so no power of w is formed to underflow."""
    N, g, tau, A = params.N, params.gamma, params.tau, params.A
    r = np.asarray(r, dtype=float)
    w = w_eval(params, r)
    L = np.log(w)
    # w^2 overflows past r = 1.3e154, so each division by it is two by w and r^2/w^2 is (r/w)^2
    return (g * (N - g - 2.0) + tau * (2.0 * g + 2.0 - N) / L
            + A * (g * (g + 2.0) - tau * (2.0 * g + 2.0) / L) / w / w
            + tau * (1.0 - tau) * (r / w) ** 2 / L ** 2) / w / w


def biharmonic_closed_form(params: AnsatzParams, lam: float, r):
    """Lap^2(u) - lam*Lap(u) at radius r (vectorized), from the display above."""
    return source_eval(params, r) * (_drift_over_source(params, r) + lam)


def lambda_star(params: AnsatzParams) -> float:
    """Smallest lam with -Lap(v) + (lam/2) v >= 0 everywhere.

    Equals 2 sup_r Lap(v)/v clipped at 0: the best of 401 grid radii up to
    r = max(1e8, 1e4 sqrt(A)), then three zoom rounds of 401 points in
    x = log(sqrt(A) + r) between the neighbours of the current best.
    """
    root_a = math.sqrt(params.A)
    r = np.concatenate(([0.0], np.geomspace(1e-4 * root_a, max(1e8, 1e4 * root_a), 400)))
    best = 0.0
    for _ in range(4):
        vals = -2.0 * _drift_over_source(params, r)
        i = int(np.argmax(vals))
        best = max(best, float(vals[i]))
        x = np.log(root_a + r[[max(i - 1, 0), min(i + 1, len(r) - 1)]])
        r = np.maximum(np.exp(np.linspace(x[0], x[1], 401)) - root_a, 0.0)
    return best


def u_upper_bound(params: AnsatzParams) -> PredictedBound:
    """Sharp envelope of the potential: w^(2-gamma) log^tau w for gamma < N,
    w^(2-N) log^(1+tau) w at gamma = N; stated in (sqrt(A)+r)-form."""
    g, N, tau = params.gamma, params.N, params.tau
    if approx_eq(g, float(N)):
        spec = AsymptoticSpec(-(N - 2.0), 1.0 + tau)
    else:
        spec = AsymptoticSpec(-(g - 2.0), tau)
    return PredictedBound(BoundKind.UPPER, spec, scale=math.sqrt(params.A))


def _powered_spec(params: AnsatzParams, kernel: KernelParams, p: float) -> AsymptoticSpec:
    """Tail of u^p: p times u_upper_bound's spec, with sigma = p (gamma - 2) put on
    N - alpha or N within approx_eq, since it rounds off the thresholds the catalogue
    puts it on (p = 1.9 / (2.46 - 2) gives 1.8999999999999997)."""
    u = u_upper_bound(params).spec
    sigma = -p * u.power
    for line in (kernel.N - kernel.alpha, float(kernel.N)):
        if approx_eq(sigma, line):
            sigma = line
    return AsymptoticSpec(-sigma, p * u.logpower)


def rhs_upper_bound(params: AnsatzParams, kernel: KernelParams, p: float, q: float) -> PredictedBound:
    """Envelope of (K * u^p) u^q from the sharp product estimates.

    The upper ladder (bounds.py) applied to u^p's envelope, p times
    u_upper_bound's, shifted by q times u_upper_bound's.  For gamma < N,
    with g2 = gamma - 2, that reads
      p = (N-alpha)/g2, beta + tau*p < -1   (-g2*q, 1+beta+tau(p+q))
      (N-alpha)/g2 < p < N/g2              (N-alpha-g2(p+q), beta+tau(p+q))
      p = N/g2, tau*p > -1                 (-alpha-g2*q, 1+beta+tau(p+q))
      p > N/g2                             (-alpha-g2*q, beta+tau*q)
    and for gamma = N the same with 1+tau for tau in every log exponent.
    The ladder raises where K * u^p diverges.  As in the catalogue, alpha
    within approx_eq of N is N, and u^p's sigma is put on N - alpha and N
    within approx_eq (_powered_spec).  Refused as uncatalogued, though the
    ladder covers them: alpha = N with tau != 0, p >= N/(gamma-2) (gamma < N)
    or p <= N/(N-2) (gamma = N); p = N/(gamma-2) with gamma < N, alpha > 0 and
    tau*p <= -1.
    """
    if kernel.N != params.N:
        raise HypothesisViolated("kernel and ansatz dimensions disagree")
    _validate_powers(p, q)
    N, g, tau = params.N, params.gamma, params.tau
    p_high = N / (g - 2.0)
    gamma_is_n = approx_eq(g, float(N))
    if approx_eq(kernel.alpha, float(N)):
        if not approx_eq(tau, 0.0):
            raise OutOfHypothesis("alpha = N product bounds are stated for tau = 0 only")
        if not gamma_is_n and _sign(p, p_high) >= 0:
            raise OutOfHypothesis("alpha = N, gamma < N bound needs p < N/(gamma-2)")
        if gamma_is_n and _sign(p, p_high) <= 0:
            raise OutOfHypothesis("alpha = N, gamma = N bound needs p > N/(N-2)")
        kernel = KernelParams(N, float(N), kernel.beta)
    elif not gamma_is_n and _sign(kernel.alpha, 0.0) > 0 and approx_eq(p, p_high) and _sign(tau * p, -1.0) <= 0:
        raise OutOfHypothesis("p = N/(gamma-2) with tau*p <= -1 has no catalogued product bound")

    powered = _powered_spec(params, kernel, p)
    spec, _ = _upper_ladder(kernel, -powered.power, powered.logpower)
    u = u_upper_bound(params)
    shifted = AsymptoticSpec(spec.power + q * u.spec.power, spec.logpower + q * u.spec.logpower)
    return PredictedBound(BoundKind.UPPER, shifted, scale=u.scale)


# 4-point Gauss-Legendre nodes and weights on [0, 1]
_GL4_U, _GL4_W = _jacobi_rule(0.0, 0.0, 4)


class PotentialTable:
    """The potential u on [0, r_max], read from its layer cake.

    One _layer_cake sweep gives M_i = int_0^(r_i) s^(N-1) v ds and T_i = int_(r_i)^inf s v ds
    at 481 nodes r_i, 0 and 480 radii geometric from 1e-3 min(sqrt(A), r_max) to r_max; for r in [r_i, r_(i+1)),
        (N-2) u(r) = r^(2-N) [M_i + int_(r_i)^r s^(N-1) v ds] + T_i - int_(r_i)^r s v ds,
    both integrals on one 4-point Gauss-Legendre panel, each weighted value one exp of logs
    (far out v is below the float range where h s v is not).  error_estimate
    is the sweep's largest relative error bound at the nodes plus the largest relative
    difference, at each node r_(i+1), between the read from r_i (the widest panel used)
    and the sweep's value.  Radii outside [0, r_max] raise ParameterError.
    """

    def __init__(self, params: AnsatzParams, r_max: float = 1e10):
        self.params = params
        self.r_max = float(r_max)
        N = params.N
        self._nodes = np.concatenate(([0.0], np.geomspace(1e-3 * min(math.sqrt(params.A), self.r_max), self.r_max, 480)))
        # r_i^(2-N) M_i (0 at r_0 = 0) and T_i
        self._inner, self._beyond, err, _ = _layer_cake(N, source_profile(params), self._nodes)
        u = (self._inner + self._beyond) / (N - 2)
        if np.any(u <= 0.0):
            raise ParameterError("potential must be positive")
        widest = self._read(self._nodes[1:], np.arange(len(u) - 1)) / u[1:] - 1.0
        self.error_estimate = float(np.max(err / (N - 2) / u) + np.max(np.abs(widest)))

    def _read(self, r: np.ndarray, i: np.ndarray) -> np.ndarray:
        """u at radii r from the layer cake at nodes r_i <= r."""
        N, r_i = self.params.N, self._nodes[i]
        h = r - r_i
        # at r = 0 only T_0 is left: r_i = h = 0 there, so any finite divisor does
        r_safe = np.where(r > 0.0, r, 1.0)
        s = r_i + h * _GL4_U[:, None]
        with np.errstate(divide="ignore"):  # log h = -inf at r = r_i makes both panels 0
            log_hv = _log_source(self.params, s) + np.log(h)
            inner, beyond = _GL4_W @ np.exp(np.stack((log_hv + (N - 1) * np.log(s / r_safe) + np.log(r),
                                                      log_hv + np.log(s))))
        return ((r_i / r_safe) ** (N - 2) * self._inner[i] + inner + self._beyond[i] - beyond) / (N - 2)

    def __call__(self, r):
        r = np.asarray(r, dtype=float)
        flat = r.ravel()
        if not (flat.min(initial=0.0) >= 0.0 and flat.max(initial=0.0) <= self.r_max):
            raise ParameterError(
                f"potential table covers 0 <= r <= {self.r_max}, asked for r in [{flat.min()}, {flat.max()}]")
        return self._read(flat, np.searchsorted(self._nodes, flat, side="right") - 1).reshape(r.shape)[()]


@dataclass(frozen=True)
class VerificationReport:
    case_id: str
    N: int
    alpha: float
    beta: float
    p: float
    q: float
    gamma: float
    tau: float
    A: float
    lam: float
    lam_threshold: float
    S: float
    C: float
    stable: bool
    passed: bool
    margin_profile: tuple

    def to_dict(self) -> dict:
        return {
            "case_id": self.case_id,
            "params": {
                "N": self.N, "alpha": self.alpha, "beta": self.beta,
                "p": self.p, "q": self.q,
                "gamma": self.gamma, "tau": self.tau, "A": self.A,
            },
            "lambda": self.lam,
            "lambda_star": self.lam_threshold,
            "S": self.S,
            "C": self.C,
            "stable": self.stable,
            "pass": self.passed,
            "margin_profile": [list(row) for row in self.margin_profile],
        }


def verify_supersolution(
    case: ExistenceCase,
    kernel: KernelParams,
    p: float,
    q: float,
    lam: float | None = None,
    A: float = 10.0,
    grid: Sequence[float] | None = None,
) -> VerificationReport:
    """Certify L(r) = Lap^2(u) - lam*Lap(u) >= S^(-1) (K * u^p)(r) u(r)^q on a grid.

    S is the largest reaction/drift ratio on the grid; the scaled profile
    C u with C = S^(-1/(p+q-1)) then satisfies the inequality at every grid
    point.  Stability demands the grid extension to twice the outer radius
    move S by less than 10 percent.
    """
    _validate_powers(p, q)
    if lam is not None and not math.isfinite(lam):
        raise ParameterError(f"lambda must be finite, got {lam!r}")
    grid = np.concatenate(([0.0], np.geomspace(1e-2, 1e6, 59))) if grid is None else np.asarray(grid, dtype=float)
    if not (grid.size and np.isfinite(grid).all() and grid.min() >= 0.0 and grid.max() > 0.0):
        raise ParameterError(f"grid must hold finite radii r >= 0, at least one positive, got {grid.tolist()}")
    params = AnsatzParams(N=kernel.N, gamma=case.gamma, tau=case.tau, A=A)
    threshold = lambda_star(params)
    if lam is None:
        lam = 2.0 * threshold if threshold > 0.0 else 1.0
    if lam <= threshold:
        raise HypothesisViolated(f"lambda must exceed the drift threshold {threshold}")

    r_out = float(grid.max())
    ext = np.geomspace(r_out * 1.09, 2.0 * r_out, 8)

    # the table covers every radius convolve_radial reads u^p at, up to r = ext[-1] = 2 r_out
    table = PotentialTable(params, r_max=_reach(ext[-1], math.sqrt(A)))

    powered = RadialProfile(
        lambda s: p * np.log(table(s)),
        infinity_spec=_powered_spec(params, kernel, p),
        scale=math.sqrt(A),
        positive_mass_near_zero=True,
    )

    # grid and extension in one convolve_radial call; each radius is its own group of the sweep
    radii = np.concatenate((grid, ext))
    drift = biharmonic_closed_form(params, lam, radii)
    # This refusal guards the reaction too: where the drift side leaves the float range, so
    # does the reaction.  For T4-2 at A = 1e150, K * u^p at r = 0 reads 2.31e-306 (estimate
    # 1.49e-306) where the profile scaled by e^600 gives 1.55e-295, because convolve_radial's
    # sweep depends on the scale of f; for 1b at A = 1e200 the reaction (K * u^p) u^q is 0.0.
    if (low := ~(drift > 0.0)).any():
        raise ParameterError(f"the drift side underflows to 0 at r = {float(radii[low][0])!r} for A = {A!r}")
    reaction = convolve_radial(kernel, powered, radii).value * table(radii) ** q
    rows = list(zip(radii.tolist(), drift.tolist(), reaction.tolist()))
    ratios = [rhs / lhs for _, lhs, rhs in rows]
    s_main = max(ratios[:len(grid)])
    s_final = max(ratios)
    stable = bool(abs(s_final - s_main) <= 0.1 * s_main)
    passed = bool(math.isfinite(s_final) and s_final > 0.0 and stable)

    if approx_eq(p + q, 1.0):
        if s_final <= 1.0:
            scale_c = 1.0
        else:
            raise ScalingUndefined("p + q = 1 admits no scaling fix when S > 1")
    else:
        scale_c = s_final ** (-1.0 / (p + q - 1.0))

    return VerificationReport(
        case_id=case.case_id,
        N=kernel.N, alpha=kernel.alpha, beta=kernel.beta, p=p, q=q,
        gamma=case.gamma, tau=case.tau, A=A,
        lam=float(lam), lam_threshold=float(threshold),
        S=float(s_final), C=float(scale_c),
        stable=stable, passed=passed,
        margin_profile=tuple(rows),
    )

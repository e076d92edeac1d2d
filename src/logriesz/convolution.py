"""Radial reduction of K * f for radial profiles f.

For N >= 2 the convolution of a radial profile with the kernel
K(t) = t^(-alpha) log(1+t)^beta reduces to

    (K * f)(r) = |S^(N-2)| * int_0^inf f(s) s^(N-1) * angular(r, s) ds,
    angular(r, s) = int_0^pi K(sqrt(r^2 + s^2 - 2 r s cos(theta))) sin(theta)^(N-2) dtheta,

and for N = 1 to int_0^inf f(s) [K(|r-s|) + K(r+s)] ds.  The outer integral
is split at {r/2, r, 2r} plus geometric marks (the angular factor has an
integrable cusp at s = r), truncated at TRUNCATION_FACTOR * max(r, A, 1),
and completed with an analytic tail computed from the profile's declared
decay shape.  Tails matter: on the critical line sigma = N - alpha a
macroscopic fraction of the value comes from arbitrarily large s, so plain
truncation would bias every critical-case result.

Near theta = 0 with s = r the angular integrand behaves like
theta^(N-2+beta-alpha); the theta-integral itself is finite only when
beta > alpha - N + 1, and angular_factor returns inf below that line.  The
outer split keeps quadrature nodes off s = r, so the full convolution is
still produced whenever the declared shapes say it converges.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np
from scipy import integrate
from scipy.special import gamma as _gamma
from scipy.special import roots_jacobi

from .errors import (
    DivergentIntegral,
    InvalidDimension,
    MissingAsymptoticSpec,
    NonpositiveRadius,
    ParameterError,
    QuadratureFailure,
)
from .kernel import AsymptoticSpec, KernelParams, validate

# Quadrature policy of every outer integral.
REL_TOL = 1e-8
ABS_TOL = 1e-12
MAX_SUBDIVISIONS = 2000
# s_max = TRUNCATION_FACTOR * max(r, A, 1).  It must stay >= 10: below that
# the marks r/2, r, 2r no longer bracket the cusp at s = r inside [0, s_max],
# and the tail's far-field error term 10 (r/s_max)^2 stops being small.
TRUNCATION_FACTOR = 1e3


@dataclass(frozen=True)
class RadialProfile:
    """Nonnegative radial profile with declared endpoint behavior.

    evaluate must accept scalars and numpy arrays.  zero_spec/infinity_spec
    declare power-log shapes in the (A + r)-form with A = scale; the
    infinity spec is what divergence detection and tail completion trust,
    so it must match the actual decay.  positive_mass_near_zero opts the
    profile into lower bounds that integrate over a neighborhood of 0.
    """

    evaluate: Callable
    zero_spec: AsymptoticSpec
    infinity_spec: AsymptoticSpec | None = None
    scale: float = 1.0
    support_radius: float | None = None
    positive_mass_near_zero: bool = False


@dataclass(frozen=True)
class ConvolutionResult:
    value: float
    error_estimate: float
    evaluations: int
    divergent: bool = False


def unit_sphere_area(N: int) -> float:
    """Surface measure of the unit sphere in R^N (N >= 1; equals 2 for N = 1)."""
    return 2.0 * math.pi ** (N / 2.0) / _gamma(N / 2.0)


def colatitude_total(N: int) -> float:
    """B_N = int_0^pi sin(theta)^(N-2) dtheta for N >= 2."""
    return math.sqrt(math.pi) * _gamma((N - 1) / 2.0) / _gamma(N / 2.0)


_GL_X, _GL_W = np.polynomial.legendre.leggauss(16)


@lru_cache(maxsize=64)
def _jacobi_rule(exponent: float):
    # weight (1+x)^exponent on [-1, 1]
    return roots_jacobi(24, 0.0, exponent)


def _angular_integrand(theta, N: int, r: float, s: float, alpha: float, beta: float):
    d = np.hypot(r - s, 2.0 * math.sqrt(r * s) * np.sin(theta / 2.0))
    return np.sin(theta) ** (N - 2) * d ** (-alpha) * np.log1p(d) ** beta


def angular_factor(N: int, r: float, s: float, kernel: KernelParams) -> float:
    """Colatitude integral of K over the sphere of radius s seen from radius r.

    Returns inf at s == r when beta <= alpha - N + 1 (genuine divergence of
    the theta-integral; the two-dimensional (s, theta) integral is still
    finite there).
    """
    if N < 2:
        raise InvalidDimension("angular reduction needs N >= 2")
    if s <= 0.0:
        raise NonpositiveRadius("angular_factor needs s > 0")
    if r < 0.0:
        raise NonpositiveRadius("angular_factor needs r >= 0")
    alpha, beta = kernel.alpha, kernel.beta
    if r == 0.0:
        return colatitude_total(N) * s ** (-alpha) * math.log1p(s) ** beta

    if r == s:
        a = N - 2 + beta - alpha
        if a <= -1.0:
            return math.inf
        # geometric panels down to theta_c, then a Gauss-Jacobi panel with
        # weight theta^a for the power singularity at theta = 0
        levels = 12
        edges = np.pi * 2.0 ** (-np.arange(levels, -1, -1, dtype=float))
        total = _composite_gl(edges, N, r, s, alpha, beta)
        theta_c = float(edges[0])
        x, w = _jacobi_rule(a)
        t = theta_c * (1.0 + x) / 2.0
        g = _angular_integrand(t, N, r, s, alpha, beta) / t ** a
        total += (theta_c / 2.0) ** (a + 1.0) * float(np.dot(w, g))
        return total

    theta_t = abs(r - s) / math.sqrt(r * s)
    theta_t = min(max(theta_t, 1e-14), 2.0)
    levels = int(np.clip(math.ceil(math.log2(math.pi / theta_t)) + 3, 4, 56))
    edges = np.concatenate(([0.0], np.pi * 2.0 ** (-np.arange(levels, -1, -1, dtype=float))))
    return _composite_gl(edges, N, r, s, alpha, beta)


def _composite_gl(edges: np.ndarray, N: int, r: float, s: float, alpha: float, beta: float) -> float:
    a = edges[:-1]
    b = edges[1:]
    mid = 0.5 * (a + b)[:, None]
    half = 0.5 * (b - a)[:, None]
    nodes = mid + half * _GL_X[None, :]
    vals = _angular_integrand(nodes.ravel(), N, r, s, alpha, beta)
    return float(np.dot(vals, (half * _GL_W[None, :]).ravel()))


def detect_divergence(kernel: KernelParams, f: RadialProfile) -> bool:
    """Symbolic finiteness test from the declared tail shape.

    The convolution is infinite at every radius iff the mass integrand
    f(s) s^(N-1) K(s) fails to be integrable at infinity: power gap
    N - alpha - sigma positive, or zero with log exponent 1 + beta + kappa >= 0.
    """
    validate(kernel)
    if f.support_radius is not None:
        return False
    if f.infinity_spec is None:
        raise MissingAsymptoticSpec("profile declares no tail shape and no compact support")
    sigma = -f.infinity_spec.power
    kappa = f.infinity_spec.logpower
    gap = kernel.N - kernel.alpha - sigma
    return gap > 0.0 or (gap == 0.0 and 1.0 + kernel.beta + kappa >= 0.0)


def _log_shifted(x, A: float):
    # log(A + e^x) without overflow
    x = np.asarray(x, dtype=float)
    out = np.where(x > 40.0, x + np.log1p(A * np.exp(-x.clip(max=745.0))), np.log(A + np.exp(np.minimum(x, 40.0))))
    return out


def _tail_integral_1d(kernel: KernelParams, sigma: float, kappa: float, A: float, R: float) -> tuple[float, float]:
    """int_R^inf (A+s)^(-sigma) log(A+s)^kappa s^(N-1) K(s) ds in log coordinates."""
    N, alpha, beta = kernel.N, kernel.alpha, kernel.beta

    def g(x):
        la = _log_shifted(x, A)     # log(A + s)
        expo = (N - alpha) * x - sigma * la
        out = np.exp(expo) * la ** kappa
        # log(1 + s)^0 = 1: the potential's tail (beta = 0) skips the second log
        return out * _log_shifted(x, 1.0) ** beta if beta else out

    val, err = integrate.quad(g, math.log(R), np.inf, epsabs=0.0, epsrel=1e-10, limit=400)
    return val, err


def _grid_marks(r: float, f: RadialProfile, s_max: float) -> list[float]:
    marks = {0.0, s_max}
    for m in (r / 2.0, r, 2.0 * r):
        if 0.0 < m < s_max:
            marks.add(m)
    anchor = max(f.scale, 1.0)
    m = anchor / 100.0
    while m < s_max:
        if m > 0.0:
            marks.add(m)
        m *= 10.0
    return sorted(marks)


def _integrate_marks(
    integrand: Callable[[float], float],
    marks: Sequence[float],
) -> tuple[float, float]:
    """Sum quad over consecutive segments, rescaling the absolute floor.

    A fixed epsabs is meaningless before the integral's magnitude is known:
    at huge radii the whole value can sit below it and quad would "converge"
    instantly to noise.  The first sweep measures the magnitude; if its
    accumulated error misses the relative target, every segment is redone
    with epsabs tied to the measured total.
    """
    nseg = max(len(marks) - 1, 1)

    def sweep(epsabs: float) -> tuple[float, float, tuple | None]:
        total = 0.0
        err = 0.0
        worst = None
        for a, b in zip(marks[:-1], marks[1:]):
            res = integrate.quad(
                integrand, a, b,
                epsabs=epsabs,
                epsrel=REL_TOL,
                limit=MAX_SUBDIVISIONS,
                full_output=1,
            )
            seg_val, seg_err = res[0], res[1]
            if not math.isfinite(seg_val):
                raise QuadratureFailure(f"non-finite segment value on [{a}, {b}]")
            if len(res) > 3 and seg_err > 0.01 * abs(seg_val) + 100.0 * epsabs:
                worst = (a, b, res[3])
            total += seg_val
            err += seg_err
        return total, err, worst

    first_eps = ABS_TOL / nseg
    total, err, worst = sweep(first_eps)
    rescaled = abs(total) * REL_TOL / nseg
    if (err > 10.0 * REL_TOL * abs(total) or worst is not None) and 0.0 < rescaled < first_eps:
        total, err, worst = sweep(max(rescaled, 5e-306))
    if worst is not None:
        a, b, msg = worst
        raise QuadratureFailure(f"segment [{a}, {b}] did not converge: {msg}")
    return total, err


def convolve_radial(kernel: KernelParams, f: RadialProfile, r: float) -> ConvolutionResult:
    """Evaluate (K * f)(r) with certified truncation.

    Divergent cases are detected symbolically from the declared tail shape
    and reported with value = inf rather than raised; quadrature that cannot
    reach tolerance raises QuadratureFailure.
    """
    validate(kernel)
    if r < 0.0:
        raise NonpositiveRadius("evaluation radius must be nonnegative")
    N = kernel.N

    compact = f.support_radius is not None
    if not compact:
        if detect_divergence(kernel, f):
            return ConvolutionResult(value=math.inf, error_estimate=math.inf, evaluations=0, divergent=True)
        s_max = TRUNCATION_FACTOR * max(r, f.scale, 1.0)
    else:
        s_max = float(f.support_radius)

    count = [0]
    if N >= 2:
        prefactor = unit_sphere_area(N - 1)

        def integrand(s: float) -> float:
            count[0] += 1
            return float(f.evaluate(s)) * s ** (N - 1) * angular_factor(N, r, s, kernel)

    else:
        prefactor = 1.0
        alpha, beta = kernel.alpha, kernel.beta

        def integrand(s: float) -> float:
            count[0] += 1
            near = abs(r - s)
            k_near = near ** (-alpha) * math.log1p(near) ** beta if near > 0.0 else math.inf
            far = r + s
            return float(f.evaluate(s)) * (k_near + far ** (-alpha) * math.log1p(far) ** beta)

    marks = _grid_marks(r, f, s_max)
    total, err = _integrate_marks(integrand, marks)
    total *= prefactor
    err *= prefactor

    if not compact:
        tail, tail_err = _tail_addon(kernel, f, r, s_max)
        total += tail
        err += tail_err

    return ConvolutionResult(value=total, error_estimate=err, evaluations=count[0])


def _tail_addon(kernel: KernelParams, f: RadialProfile, r: float, s_max: float) -> tuple[float, float]:
    spec = f.infinity_spec
    sigma = -spec.power
    kappa = spec.logpower
    A = f.scale

    probes = s_max * np.array([1.0, 1.5, 2.0])
    shape = spec.shape(probes, A)
    fv = np.asarray(f.evaluate(probes), dtype=float)
    with np.errstate(invalid="ignore", divide="ignore"):
        ratios = np.where(shape > 0.0, fv / shape, 0.0)
    c = float(np.median(ratios))
    if c <= 0.0:
        return 0.0, 0.0
    spread = float((ratios.max() - ratios.min()) / c)

    tail_1d, q_err = _tail_integral_1d(kernel, sigma, kappa, A, s_max)
    sigma_n = unit_sphere_area(kernel.N)
    tail = sigma_n * c * tail_1d
    # calibration spread, far-field angular error O((r/s)^2), and 1-d quadrature error
    tail_err = abs(tail) * (2.0 * spread + 10.0 * (r / s_max) ** 2) + sigma_n * c * q_err
    return tail, tail_err


def newtonian_potential_radial(N: int, f: RadialProfile, r: float) -> float:
    """Decaying solution u of -Laplace(u) = f for radial f, N >= 3.

    Layer-cake form: (N-2) u(r) = r^(2-N) int_0^r s^(N-1) f ds + int_r^inf s f ds.
    Relates to convolve_radial with the pure power kernel (alpha = N-2,
    beta = 0) through the factor (N-2) * |S^(N-1)|.
    """
    if N < 3:
        raise InvalidDimension("decaying potentials need N >= 3")
    if r < 0.0:
        raise NonpositiveRadius("evaluation radius must be nonnegative")
    compact = f.support_radius is not None
    if not compact:
        if f.infinity_spec is None:
            raise MissingAsymptoticSpec("profile declares no tail shape and no compact support")
        sigma = -f.infinity_spec.power
        if sigma <= 2.0:
            raise DivergentIntegral("tail mass int s f ds diverges: declared decay power <= 2")
        s_max = TRUNCATION_FACTOR * max(r, f.scale, 1.0)
    else:
        s_max = float(f.support_radius)

    def inner(s: float) -> float:
        return float(f.evaluate(s)) * s ** (N - 1)

    def outer(s: float) -> float:
        return float(f.evaluate(s)) * s

    inner_val = 0.0
    r_in = min(r, s_max)
    if r_in > 0.0:
        marks = [m for m in _grid_marks(r_in / 2.0, f, r_in)]
        inner_val = _integrate_marks(inner, marks)[0]

    outer_val = 0.0
    if r < s_max:
        marks = [m for m in _grid_marks(r, f, s_max) if m >= r]
        if marks[0] > r:
            marks.insert(0, r)
        outer_val = _integrate_marks(outer, marks)[0]
    if not compact:
        # with K(t) = t^(2-N), s^(N-1) K(s) f(s) = s f(s): the convolution tail
        # is |S^(N-1)| times the layer-cake tail int_{s_max}^inf s f ds
        outer_val += _tail_addon(KernelParams(N, N - 2.0, 0.0), f, r, s_max)[0] / unit_sphere_area(N)

    pot = inner_val * r ** (2 - N) if r > 0.0 else 0.0
    return (pot + outer_val) / (N - 2)


def ball_profile(r0: float) -> RadialProfile:
    """Indicator of the ball of radius r0."""
    if r0 <= 0.0:
        raise NonpositiveRadius("ball radius must be positive")

    def evaluate(s):
        return np.where(np.asarray(s, dtype=float) <= r0, 1.0, 0.0)[()]

    return RadialProfile(
        evaluate=evaluate,
        zero_spec=AsymptoticSpec(0.0, 0.0),
        infinity_spec=None,
        scale=1.0,
        support_radius=r0,
        positive_mass_near_zero=True,
    )


def power_profile(sigma: float, kappa: float, A: float = 10.0) -> RadialProfile:
    """f(r) = (A + r)^(-sigma) * log(A + r)^kappa with A > 1."""
    if A <= 1.0:
        raise ParameterError("power profiles need A > 1 so the log factor stays positive")

    spec = AsymptoticSpec(-sigma, kappa)

    def evaluate(s):
        return spec.shape(np.asarray(s, dtype=float), A)[()]

    return RadialProfile(
        evaluate=evaluate,
        zero_spec=AsymptoticSpec(0.0, 0.0),
        infinity_spec=spec,
        scale=A,
        positive_mass_near_zero=True,
    )


def convolution_rows(
    kernel: KernelParams,
    f: RadialProfile,
    radii: Sequence[float],
) -> list[tuple[float, ConvolutionResult]]:
    return [(float(r), convolve_radial(kernel, f, float(r))) for r in radii]


def write_convolution_csv(out, rows: Sequence[tuple[float, ConvolutionResult]]) -> None:
    """Write convolution_rows output as r,value,error_estimate (17 significant digits)."""
    close = False
    if isinstance(out, (str, bytes, os.PathLike)):
        handle = open(out, "w", newline="")
        close = True
    else:
        handle = out
    try:
        writer = csv.writer(handle)
        writer.writerow(["r", "value", "error_estimate"])
        for r, res in rows:
            writer.writerow([format(r, ".17g"), format(res.value, ".17g"), format(res.error_estimate, ".17g")])
    finally:
        if close:
            handle.close()

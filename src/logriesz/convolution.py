"""Radial reduction of K * f for radial profiles f.

For N >= 2 the convolution of a radial profile with the kernel
K(t) = t^(-alpha) log(1+t)^beta reduces to

    (K * f)(r) = |S^(N-2)| * int_0^inf f(s) s^(N-1) * angular(r, s) ds,
    angular(r, s) = int_0^pi K(sqrt(r^2 + s^2 - 2 r s cos(theta))) sin(theta)^(N-2) dtheta,

and for N = 1 to int_0^inf f(s) [K(|r-s|) + K(r+s)] ds.  The outer integral
is split at {r/2, r, 2r} plus geometric marks, truncated at
TRUNCATION_FACTOR * max(r, A, 1), and completed with an analytic tail
computed from the profile's declared decay shape (one scipy quad in log
coordinates).  Tails matter: on the critical line sigma = N - alpha a
macroscopic fraction of the value comes from arbitrarily large s, so plain
truncation would bias every critical-case result.

The outer integral is one batched, globally adaptive Gauss-Kronrod (G7-K15)
sweep over all segments: each round calls the integrand once, on the nodes
of every new panel.  Panel errors are QUADPACK's, including its roundoff
floor 50 eps int |f|, so an error estimate never claims more than double
precision delivers; the sweep stops at REL_TOL relative error.

angular_factor integrates in the distance t = |x - y| (Funk-Hecke):
angular(r, s) = (r s)^-1 int_{|s-r|}^{r+s} K(t) t sin(theta)^(N-3) dt, on
16-point Gauss-Legendre panels, geometric from |s - r| up to max(r, s), with
the endpoint factors (t - |s-r|)^((N-3)/2) and (r + s - t)^((N-3)/2) made
smooth by t = endpoint -+ h u^2; the panels of all s form one ragged batch.

The cusp at s = r: there the t-integrand behaves like t^(N-2+beta-alpha), so
angular(r, r) is finite only when beta > alpha - N + 1 (angular_factor
returns inf below that line), and the outer integrand behaves like |s - r|^mu,
mu = min(0, N-1+beta-alpha) > -1.  The two segments that touch r are graded,
s = r -+ h u^m with m = 1/(1+mu) (m = 2 when mu = 0), which makes the
integrand tend to a constant in u.  Their offsets h u^m reach the angular rule
exactly: as mu nears -1 much of the value lies at |s - r| far below the
spacing of floats around r.  The innermost slab |s - r| < 1e-40 h, where the
integrand in u is that constant to working precision, is added as one rectangle.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, NamedTuple, Sequence

import numpy as np
from scipy import integrate
from scipy.special import gamma as _gamma

from .errors import (
    DivergentIntegral,
    InvalidDimension,
    MissingAsymptoticSpec,
    NonpositiveRadius,
    ParameterError,
    QuadratureFailure,
)
from .kernel import AsymptoticSpec, KernelParams, eval_kernel, validate

# Quadrature policy of every outer integral.
REL_TOL = 1e-8
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


# 16-point Gauss-Legendre nodes and weights on [0, 1]
_GL_X, _GL_W = np.polynomial.legendre.leggauss(16)
_GL_U, _GL_W = 0.5 * (1.0 + _GL_X), 0.5 * _GL_W
# Panels span a ratio of t of at most 4 and at most _LOG_SPREAD e-folds of
# log(1+t)^beta (16 nodes integrate e^(20 u) over [0, 1] to 2e-15).
_LOG_RATIO = math.log(4.0)
_LOG_SPREAD = 12.0


@lru_cache(maxsize=64)
def _jacobi_rule(a: float) -> tuple[np.ndarray, np.ndarray]:
    """16-point Gauss-Jacobi rule on [0, 1] for the weight y^a, a > -1, by Golub-Welsch
    (scipy's roots_jacobi overflows in 2^(a+1) past a = 1000 and is less accurate)."""
    k = np.arange(1.0, 16.0)
    diag = np.concatenate(([a / (a + 2.0)], a * a / ((2.0 * k + a) * (2.0 * k + a + 2.0))))
    off = 2.0 * k * (k + a) / ((2.0 * k + a) * np.sqrt((2.0 * k + a + 1.0) * (2.0 * k + a - 1.0)))
    x, v = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    return 0.5 * (1.0 + x), v[0] ** 2 / (a + 1.0)


class _Offsets(NamedTuple):
    """Outer nodes s with their exact offsets delta = s - r, which convolve_radial
    hands to angular_factor: next to the cusp s - r would round them away."""

    s: np.ndarray
    delta: np.ndarray


def angular_factor(N: int, r: float, s, kernel: KernelParams):
    """Colatitude integral of K over the sphere of radius s seen from radius r.

    s may be a scalar (the result is a float) or an array (the result is an
    array of the same shape).  Returns inf at s == r when beta <= alpha - N + 1
    (genuine divergence of the theta-integral; the two-dimensional (s, theta)
    integral is still finite there).
    """
    if isinstance(s, _Offsets):
        return _angular(N, r, s.s, s.delta, kernel.alpha, kernel.beta)
    if N < 2:
        raise InvalidDimension("angular reduction needs N >= 2")
    s_arr = np.asarray(s, dtype=float)
    if not (np.all((s_arr > 0.0) & (s_arr < math.inf)) and 0.0 <= r < math.inf):
        raise NonpositiveRadius("angular_factor needs finite s > 0 and r >= 0")
    flat = s_arr.ravel()
    out = _angular(N, r, flat, flat - r, kernel.alpha, kernel.beta).reshape(s_arr.shape)
    return float(out) if out.ndim == 0 else out


def _angular(N: int, r: float, s: np.ndarray, delta: np.ndarray, alpha: float, beta: float) -> np.ndarray:
    """angular(r, s) at 1-d arrays s > 0 and their exact offsets delta = s - r.

    With d = |delta|, D = r + s, M = max(r, s) and w = 2 min(r, s) = D - d,
    sin(theta)^2 = 4 [(t - d)/w] [(D - t)/w] [(t + d)/2M] [(D + t)/2M], a
    product of factors of at most 2, so no r s is formed to under- or
    overflow.  At s == r the geometric panels start at min(r, 1) and
    _angular_origin_panel adds the rest.  Offsets so small that K overflows
    give inf, which convolve_radial reports as a QuadratureFailure.
    """
    if r == 0.0:
        return colatitude_total(N) * s ** (-alpha) * np.log1p(s) ** beta
    d, m, M, D = np.abs(delta), np.minimum(r, s), np.maximum(r, s), r + s
    diagonal = d == 0.0
    t0 = np.where(diagonal, np.minimum(M, 1.0), d)
    spread = abs(beta) / _LOG_SPREAD
    n = np.maximum(np.ceil(np.maximum((np.log(M) - np.log(t0)) / _LOG_RATIO,
                                      spread * (np.log(np.log1p(M)) - np.log(np.log1p(t0))))), ~diagonal)
    n_last = np.maximum(np.ceil(spread * (np.log(np.log1p(D)) - np.log(np.log1p(M)))), 1.0)
    # panel k < n spans the offsets x_k..x_(k+1) from d, x_k = t0 (M/t0)^(k/n) - d;
    # panel k >= n spans m / n_last [j, j + 1] from D, j = n + n_last - 1 - k
    counts = (n + n_last).astype(np.int64)
    starts = np.cumsum(counts) - counts
    owner = np.repeat(np.arange(len(s)), counts)
    k = np.arange(len(owner)) - starts[owner]
    d, m, M, D, t0, n, n_last = (v[owner] for v in (d, m, M, D, t0, n, n_last))
    last, j = k >= n, n + n_last - 1 - k
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        log_ratio = (np.log(M) - np.log(t0)) / n
        x0 = t0 * np.expm1(k * log_ratio) + (t0 - d)
        x1 = np.where(k + 1 == n, m, t0 * np.expm1((k + 1) * log_ratio) + (t0 - d))
        # nodes t = d + o on [d, M], t = D + o (o < 0) on [M, D]; o = lo + h u or lo + h u^2
        sign = np.where(last, -1.0, 1.0)
        lo = sign * np.where(last, j * m / n_last, x0)
        h = sign * np.where(last, m / n_last, x1 - x0)
        squared = np.where(last, j == 0, (k == 0) & ~diagonal[owner])
        o = lo + h * np.where(squared, (_GL_U * _GL_U)[:, None], _GL_U[:, None])
        t = np.where(last, D, d) + o
        tau = t / M
        # K in logs when beta != 0: t^-alpha may underflow where log(1+t)^beta overflows
        vals = (np.exp(beta * np.log(np.log1p(t)) - alpha * np.log(t)) if beta else t ** (-alpha)) * tau
        if N != 3:
            nu = o * (sign / (2.0 * m))
            vals *= (nu * (1.0 - nu) * (tau + d / M) * (tau + D / M)) ** ((N - 3) / 2.0)
    panel = np.where(squared, (2.0 * _GL_U * _GL_W) @ vals, _GL_W @ vals) * (np.abs(h) / m)
    out = np.add.reduceat(panel, starts)
    if diagonal.any():
        out[diagonal] += _angular_origin_panel(N, r, alpha, beta)
    return out


def _angular_origin_panel(N: int, r: float, alpha: float, beta: float) -> float:
    """The part t < t1 = min(r, 1) of angular(r, r): r^(1-N) int t^a g(t) dt,
    a = N - 2 + beta - alpha, g = (log(1+t)/t)^beta (1 - (t/2r)^2)^((N-3)/2), on one
    Gauss-Jacobi panel with weight t^a (never divided out); inf when a <= -1."""
    a = N - 2 + beta - alpha
    if a <= -1.0:
        return math.inf
    t1 = min(r, 1.0)
    y, w = _jacobi_rule(a)
    t = t1 * y
    g = (np.log1p(t) / t) ** beta * ((1.0 - t / (2.0 * r)) * (1.0 + t / (2.0 * r))) ** ((N - 3) / 2.0)
    return (t1 / r) ** (N - 1) * t1 ** (beta - alpha) * float(np.dot(w, g))


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


def _tail_integral_1d(kernel: KernelParams, sigma: float, kappa: float, A: float, R: float) -> tuple[float, float]:
    """int_R^inf (A+s)^(-sigma) log(A+s)^kappa s^(N-1) K(s) ds in log coordinates."""
    N, alpha, beta = kernel.N, kernel.alpha, kernel.beta

    def log_shifted(x: float, c: float) -> float:
        # log(c + e^x) without overflow
        return x + math.log1p(c * math.exp(-x)) if x > 40.0 else math.log(c + math.exp(x))

    def g(x: float) -> float:
        la = log_shifted(x, A)
        out = math.exp((N - alpha) * x - sigma * la) * la ** kappa
        # log(1 + s)^0 = 1: the potential's tail (beta = 0) skips the second log
        return out * log_shifted(x, 1.0) ** beta if beta else out

    return integrate.quad(g, math.log(R), math.inf, epsabs=0.0, epsrel=1e-10, limit=400)[:2]


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


# Gauss-Kronrod G7-K15 (QUADPACK qk15) on [-1, 1]: the 15 Kronrod nodes and
# weights, and the 7-point Gauss weights, which sit at the odd-indexed nodes
_XGK = np.array([0.99145537112081264, 0.94910791234275852, 0.86486442335976907, 0.74153118559939444,
                 0.58608723546769113, 0.40584515137739717, 0.20778495500789847])
_WGK = np.array([0.022935322010529225, 0.063092092629978553, 0.10479001032225019, 0.14065325971552592,
                 0.16900472663926790, 0.19035057806478541, 0.20443294007529889])
_WG = np.array([0.12948496616886969, 0.27970539148927667, 0.38183005050511894])
_KX = np.concatenate((-_XGK, [0.0], _XGK[::-1]))
_KW = np.concatenate((_WGK, [0.20948214108472783], _WGK[::-1]))
_GW = np.zeros(15)
_GW[1:14:2] = np.concatenate((_WG, [0.41795918367346939], _WG[::-1]))
_EPS = np.finfo(float).eps


# Inside |s - cusp| < _CUSP_SLAB |h| the graded integrand is its limit to
# O(_CUSP_SLAB^-mu); outside, no offset is small enough to overflow K.
_CUSP_SLAB = 1e-40


def _integrate_marks(
    integrand: Callable[[np.ndarray, np.ndarray], np.ndarray],
    marks: Sequence[float],
    cusp: float = 0.0,
    grading: float = 1.0,
) -> tuple[float, float, int]:
    """Globally adaptive G7-K15 over the segments between consecutive marks.

    integrand(s, delta) takes 1-d arrays of nodes s and their offsets
    delta = s - cusp.  With grading m != 1, the segments that end at the
    cusp run in u, s = cusp -+ h u^m and delta = -+ h u^m, which turns a
    factor |s - cusp|^mu, mu = 1/m - 1, into a limit g(0) in u.  The sweep
    covers u in [u_f, 1], u_f = _CUSP_SLAB^(1/m), and adds u_f g(u_f).

    Each round evaluates the 15 nodes of every new panel in one call.  Panel
    errors follow QUADPACK: resasc * min(1, (200 |K - G| / resasc)^1.5),
    floored at 50 eps int |f|.  The sweep stops once the summed error is at
    most REL_TOL |total|; until then every panel whose error exceeds its
    share of that target is bisected.  Returns (total, error, evaluations).
    """
    a, b = np.array(marks[:-1], dtype=float), np.array(marks[1:], dtype=float)
    # h != 0 marks a graded segment, run in u
    h = np.where(b == cusp, a - b, np.where(a == cusp, b - a, 0.0)) if grading != 1.0 else np.zeros_like(a)
    u_f = _CUSP_SLAB ** (1.0 / grading)
    lo, hi = np.where(h != 0.0, u_f, a), np.where(h != 0.0, 1.0, b)

    def g(x, h):
        # the integrand in each row's own variable, at node coordinates x
        s, delta, jac = x, x - cusp, 1.0
        if grading != 1.0:
            graded = (h != 0.0)[:, None]
            delta = np.where(graded, h[:, None] * x ** grading, delta)
            s = np.where(graded, cusp + delta, x)
            jac = np.where(graded, np.abs(h)[:, None] * grading * x ** (grading - 1.0), 1.0)
        fx = integrand(s.ravel(), delta.ravel()).reshape(s.shape) * jac
        if not np.all(np.isfinite(fx)):
            raise QuadratureFailure(f"non-finite integrand at s = {s[~np.isfinite(fx)][0]!r} on [{marks[0]}, {marks[-1]}]")
        return fx

    def panels(lo, hi, h):
        half = 0.5 * (hi - lo)
        fx = g((0.5 * (lo + hi))[:, None] + half[:, None] * _KX, h)
        resk = fx @ _KW
        resasc = np.abs(fx - 0.5 * resk[:, None]) @ _KW * half
        err = np.abs(resk - fx @ _GW) * half
        with np.errstate(divide="ignore", invalid="ignore"):
            scaled = np.where(resasc > 0.0, resasc * np.minimum(1.0, (200.0 * err / resasc) ** 1.5), err)
        return resk * half, np.maximum(scaled, 50.0 * _EPS * (np.abs(fx) @ _KW) * half)

    slab_h = h[h != 0.0]
    slab = u_f * float(np.sum(g(np.full((len(slab_h), 1), u_f), slab_h)))
    val, err = panels(lo, hi, h)
    evaluations = 15 * len(lo) + len(slab_h)
    while True:
        total = slab + float(np.sum(val))
        target = REL_TOL * abs(total)
        err_sum = float(np.sum(err))
        if err_sum <= target:
            return total, err_sum, evaluations
        split = err > target / len(err)
        if len(err) + np.count_nonzero(split) > MAX_SUBDIVISIONS:
            raise QuadratureFailure(
                f"no convergence within {MAX_SUBDIVISIONS} panels on [{marks[0]}, {marks[-1]}]: "
                f"error {err_sum:.3g} against target {target:.3g}")
        keep, mid = ~split, 0.5 * (lo[split] + hi[split])
        halves = (np.concatenate((lo[split], mid)), np.concatenate((mid, hi[split])), np.tile(h[split], 2))
        lo, hi, h = (np.concatenate((old[keep], new)) for old, new in zip((lo, hi, h), halves))
        new_val, new_err = panels(*halves)
        evaluations += 15 * len(mid) * 2
        val, err = np.concatenate((val[keep], new_val)), np.concatenate((err[keep], new_err))


def convolve_radial(kernel: KernelParams, f: RadialProfile, r: float) -> ConvolutionResult:
    """Evaluate (K * f)(r) with certified truncation.

    Divergent cases are detected symbolically from the declared tail shape
    and reported with value = inf rather than raised; quadrature that cannot
    reach tolerance raises QuadratureFailure.
    """
    validate(kernel)
    if not 0.0 <= r < math.inf:
        raise NonpositiveRadius(f"evaluation radius must be finite and nonnegative, got {r!r}")
    N, alpha, beta = kernel.N, kernel.alpha, kernel.beta

    compact = f.support_radius is not None
    if not compact:
        if detect_divergence(kernel, f):
            return ConvolutionResult(value=math.inf, error_estimate=math.inf, evaluations=0, divergent=True)
        s_max = TRUNCATION_FACTOR * max(r, f.scale, 1.0)
    else:
        s_max = float(f.support_radius)

    if N >= 2:
        prefactor = unit_sphere_area(N - 1)

        def integrand(s: np.ndarray, delta: np.ndarray) -> np.ndarray:
            return f.evaluate(s) * s ** (N - 1) * angular_factor(N, r, _Offsets(s, delta), kernel)

    else:
        prefactor = 1.0

        def integrand(s: np.ndarray, delta: np.ndarray) -> np.ndarray:
            return f.evaluate(s) * (eval_kernel(kernel, np.abs(delta)) + eval_kernel(kernel, r + s))

    # the outer integrand behaves like |s - r|^mu at the cusp
    mu = min(0.0, N - 1 + beta - alpha)
    grading = 1.0 / (1.0 + mu) if mu < 0.0 else 2.0
    total, err, evaluations = _integrate_marks(integrand, _grid_marks(r, f, s_max), cusp=r, grading=grading)
    total *= prefactor
    err *= prefactor

    if not compact:
        tail, tail_err = _tail_addon(kernel, f, r, s_max)
        total += tail
        err += tail_err

    return ConvolutionResult(value=total, error_estimate=err, evaluations=evaluations)


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

    Layer-cake form: (N-2) u(r) = r^(2-N) int_0^r s^(N-1) f ds + int_r^inf s f ds,
    integrated in one sweep as int_0^inf s^(N-1) max(r, s)^(2-N) f ds.
    Relates to convolve_radial with the pure power kernel (alpha = N-2,
    beta = 0) through the factor (N-2) * |S^(N-1)|.
    """
    if N < 3:
        raise InvalidDimension("decaying potentials need N >= 3")
    if not 0.0 <= r < math.inf:
        raise NonpositiveRadius(f"evaluation radius must be finite and nonnegative, got {r!r}")
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

    r_in = min(r, s_max)
    marks = sorted(set(_grid_marks(r_in / 2.0, f, r_in) + _grid_marks(r, f, s_max)))
    layer_cake = _integrate_marks(lambda s, _: f.evaluate(s) * s ** (N - 1) * np.maximum(r, s) ** (2 - N), marks)[0]
    if not compact:
        # with K(t) = t^(2-N), s^(N-1) K(s) f(s) = s f(s): the convolution tail
        # is |S^(N-1)| times the layer-cake tail int_{s_max}^inf s f ds
        layer_cake += _tail_addon(KernelParams(N, N - 2.0, 0.0), f, r, s_max)[0] / unit_sphere_area(N)
    return layer_cake / (N - 2)


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

"""Radial reduction of K * f for radial profiles f.

For N >= 2 the convolution of a radial profile with the kernel
K(t) = t^(-alpha) log(1+t)^beta reduces to

    (K * f)(r) = |S^(N-2)| * int_0^inf f(s) s^(N-1) * angular(r, s) ds,
    angular(r, s) = int_0^pi K(sqrt(r^2 + s^2 - 2 r s cos(theta))) sin(theta)^(N-2) dtheta,

and for N = 1 to int_0^inf f(s) [K(|r-s|) + K(r+s)] ds.  One mark rule (_marks) cuts this
sweep, the layer cake and probes.harnack_mass: 0, the end, the special points inside and a
ladder below the end; here {r/2, r, 2r} and the decades from max(A, 1)/100.  Every segment of
at most a decade that starts above 0 and is not graded at the cusp runs in x = log s, where
s^mu is the exponential e^((mu+1) x) and one panel reaches roundoff.  The integral
is truncated at TRUNCATION_FACTOR * max(r, A, 1), and completed with an analytic tail
computed from the profile's declared decay shape, integrated in
t = log s_max / log s.  Tails matter: on the critical line sigma = N - alpha
a macroscopic fraction of the value comes from arbitrarily large s, so plain
truncation would bias every critical-case result.

The outer integrals of all radii of one convolve_radial call form one batched,
globally adaptive Gauss-Kronrod (G7-K15) sweep, their tails a second.  Each
radius is a group with its own cusp, REL_TOL target and MAX_SUBDIVISIONS panel
budget, and stops splitting once converged, so it gets the panels of a sweep
of its own; each round calls the integrand once, on every new panel.  Panel
errors are QUADPACK's, including its roundoff floor 50 eps int |f|, so an
error estimate never claims more than double precision delivers.

The Newtonian potential takes the layer-cake form (N-2) u(r) = r^(2-N) M(r)
+ T(r), with M(r) = int_0^r s^(N-1) f ds and T(r) = int_r^inf s f ds.  One
sweep integrates both integrands up to s_end = max(TRUNCATION_FACTOR max r, POTENTIAL_REACH
max(A, 1)), cut at every requested radius and the octaves (not decades) from max(A, 1)/100.
M is the forward cumulative sum of the segment integrals, T the sum from the far end plus one
analytic tail past s_end.
Both integrands are positive, so every radius keeps the relative accuracy of
its segments; an octave segment runs in log s, where one G7-K15 panel
reaches roundoff on a power-log integrand.  A table of 481 radii costs one
sweep.

Every integrand that multiplies a profile f by powers of s or r, and every
node value of K, is one exp of a sum of logs, log f (RadialProfile.log_evaluate)
and log K (_log_kernel) among them: far out f may lie below the float range
where its product with s^(N-1) does not.

angular_factor serves the far field, min(r, s) < max(r, s)/4, on one 16-point Gauss-Gegenbauer
panel in cos(theta) where the kernel is smooth enough (_angular).  Elsewhere it integrates in the
distance t = |x - y| (Funk-Hecke): angular(r, s) = (r s)^-1 int_{|s-r|}^{r+s} K(t) t
sin(theta)^(N-3) dt.  At N = 3 the weight is 1, so off the diagonal angular = [G_1(r+s) -
G_1(|r-s|)] / (r s) with G_k' = t^k K(t); at N = 5 it is a polynomial in t^2, and angular is
[-dG_5 + (d^2 + D^2) dG_3 - d^2 D^2 dG_1] / (4 r^3 s^3), d = |r-s|, D = r+s, dG_k = G_k(D) -
G_k(d).  Each call builds these moments once on one half-octave lattice in log t, each summed from
the node where its integrand is least, and reads them at every node it serves with one panel of 4
points where the slope of log t^(k+1) K keeps a half cell within 0.2 e-folds, 8 elsewhere
(_angular_table).  It serves a node where each moment's integrand varies by at most
_LOG_SPREAD / 2 e-folds per cell and the sum keeps its digits to _TABLE_ERR, and only a slice of
at least _TABLE_NODES such nodes whose lattice holds no more cells than it has nodes.  The other
nodes, the diagonal s == r and every other N take 16-point Gauss-Legendre panels, geometric from
|s - r| up to max(r, s) (at least (N-3)/8 panels on either side of it, as sin(theta)^(N-3) needs),
with the endpoint factors (t - |s-r|)^((N-3)/2) and (r + s - t)^((N-3)/2) made smooth by
t = endpoint -+ h u^2; the panels of all s form one ragged batch.

The cusp at s = r: there the t-integrand behaves like t^(N-2+beta-alpha), so
angular(r, r) is finite only when beta > alpha - N + 1 (angular_factor
returns inf below that line).  Near r the outer integrand is c0 + c1 |s - r|^e,
e = N-1+beta-alpha > -1, with c1 log|s - r| in place of the power at e = 0.  The
two segments that touch r are graded, s = r -+ h u^m, with the least m that
turns each term into an integer power of u or one of order u^3 or higher, so no
panel chain bisects towards u = 0: m = max(1, ceil(4/(1+e))) for e >= 0 (4 at
the log cusp, 1 from e = 3 on), and m = k/(1+e) for e < 0, with the least
integer k that makes m an integer or at least 4 (k = 1 at e = -1/2 or -3/4).
Their offsets h u^m reach the angular rule exactly: as e nears -1 much of the
value lies at |s - r| far below the spacing of floats around r.  Inside the
sweep u is floored at 1e-40^(1/m), so no offset falls below 1e-40 h: the
stretch |s - r| < 1e-40 h takes the integrand's value there, exact in the limit
where the integrand in u tends to a constant (k = 1); where k > 1, 1 + e > 1/4
and the stretch holds under 1e-10 of the c1 term.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from .errors import (
    DivergentIntegral,
    InvalidDimension,
    MissingAsymptoticSpec,
    NonpositiveRadius,
    ParameterError,
    QuadratureFailure,
)
from .kernel import AsymptoticSpec, KernelParams

# Quadrature policy of every outer integral.
REL_TOL = 1e-8
MAX_SUBDIVISIONS = 2000
# s_max = TRUNCATION_FACTOR * max(r, A, 1).  It must stay >= 10: below that
# the marks r/2, r, 2r no longer bracket the cusp at s = r inside [0, s_max],
# and the tail's far-field error term 10 (r/s_max)^2 stops being small.
TRUNCATION_FACTOR = 1e3
# newtonian_potential_radial sweeps to at least POTENTIAL_REACH * max(A, 1):
# the tail addon's calibration error is O(A / s_end) of the tail.  For the
# ansatz source w^-2.5 log^0.3 w, A = sqrt(10), it puts u(0) off by 3.9e-5 at
# s_end = 1e3 A, 1.4e-9 at 1e6 A and 5e-14 at 1e9 A.
POTENTIAL_REACH = 1e9


@dataclass(frozen=True)
class RadialProfile:
    """Nonnegative radial profile with declared endpoint behavior, stated as its logarithm.

    log_evaluate returns log f at a scalar or an array s (-inf where f is 0), also where f
    leaves the float range; every quadrature reads f through it, and evaluate(s) is its exp.
    infinity_spec declares the power-log decay shape in the (A + r)-form with A = scale;
    divergence detection and tail completion trust it, so it must match the actual
    decay.  positive_mass_near_zero opts the profile into lower bounds that
    integrate over a neighborhood of 0.
    """

    log_evaluate: Callable
    infinity_spec: AsymptoticSpec | None = None
    scale: float = 1.0
    support_radius: float | None = None
    positive_mass_near_zero: bool = False

    def evaluate(self, s):
        """f at s, the exp of log_evaluate(s)."""
        return np.exp(self.log_evaluate(s))


@dataclass(frozen=True)
class ConvolutionResult:
    value: float | np.ndarray
    error_estimate: float | np.ndarray
    evaluations: int
    divergent: bool = False


def __getattr__(name: str):
    """convolution.integrate is scipy.integrate, imported on access (perfbench's
    tracer wraps its quad); nothing in the package calls it."""
    if name != "integrate":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from scipy import integrate
    return integrate


def _log_kernel(t: np.ndarray, alpha: float, beta: float) -> np.ndarray:
    """log K at an array t > 0 without checks, finite where t^-alpha underflows or
    log(1+t)^beta overflows.  One expression, so numpy reuses its temporaries."""
    return beta * np.log(np.log1p(t)) - alpha * np.log(t) if beta else -alpha * np.log(t)


def eval_kernel(params: KernelParams, t):
    """Evaluate K at finite t > 0 (scalar or array), the exp of its logarithm.

    log1p keeps log(1+t) accurate for t near 0, where 1 + t rounds away the
    digits of t in float arithmetic.
    """
    t_arr = np.asarray(t, dtype=float)
    if not np.all((t_arr > 0.0) & (t_arr < math.inf)):
        raise NonpositiveRadius("kernel argument must be positive and finite")
    out = np.exp(_log_kernel(t_arr, params.alpha, params.beta))
    if np.isscalar(t) or t_arr.ndim == 0:
        return float(out)
    return out


# math.gamma(N / 2) overflows from N = 344 on.  Past _GAMMA_DIMENSION both
# constants step up from the closed form at the largest dimension n0 of N's
# parity below it, by S_n = 2 pi S_(n-2) / (n-2) and B_n = B_(n-2) (n-3) / (n-2):
# lgamma differences would lose 2e-13 relative at N = 400.
_GAMMA_DIMENSION = 340


def _gamma_base(N: int) -> int:
    return _GAMMA_DIMENSION - (N - _GAMMA_DIMENSION) % 2


def unit_sphere_area(N: int) -> float:
    """Surface measure of the unit sphere in R^N (N >= 1; equals 2 for N = 1);
    subnormal from N = 439 and 0.0 from N = 456 on."""
    if N <= _GAMMA_DIMENSION:
        return 2.0 * math.pi ** (N / 2.0) / math.gamma(N / 2.0)
    n0 = _gamma_base(N)
    return math.prod((2.0 * math.pi / (n - 2) for n in range(n0 + 2, N + 1, 2)), start=unit_sphere_area(n0))


def colatitude_total(N: int) -> float:
    """B_N = int_0^pi sin(theta)^(N-2) dtheta for N >= 2."""
    if N <= _GAMMA_DIMENSION:
        return math.sqrt(math.pi) * math.gamma((N - 1) / 2.0) / math.gamma(N / 2.0)
    n0 = _gamma_base(N)
    return math.prod(((n - 3) / (n - 2) for n in range(n0 + 2, N + 1, 2)), start=colatitude_total(n0))


@lru_cache(maxsize=64)
def _jacobi_rule(a: float, b: float, n: int = 16) -> tuple[np.ndarray, np.ndarray]:
    """n-point Gauss-Jacobi rule on [0, 1] for the weight y^a (1-y)^b, a, b > -1 (Gauss-Legendre at
    a = b = 0), by Golub-Welsch (scipy's roots_jacobi overflows in 2^(a+b+1) past a = 1000 and is
    less accurate).  The weights sum to 1: callers scale them by int_0^1 y^a (1-y)^b dy."""
    k, c = np.arange(1.0, n), a + b
    m = 2.0 * k + c
    # (k + c) / (m - 1) is 1 at k = 1, also at c = -1 where both vanish
    ratio = np.divide(k + c, m - 1.0, out=np.ones_like(k), where=k > 1.0)
    diag = np.concatenate(([(a - b) / (c + 2.0)], (a - b) * c / (m * (m + 2.0))))
    off = 2.0 / m * np.sqrt(k * (k + a) * (k + b) * ratio / (m + 1.0))
    x, v = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    return 0.5 * (1.0 + x), v[0] ** 2


# 16-point Gauss-Legendre nodes and weights on [0, 1]
_GL_U, _GL_W = _jacobi_rule(0.0, 0.0)
# Panels span a ratio of t of at most 4 and at most _LOG_SPREAD e-folds of
# log(1+t)^beta (16 nodes integrate e^(20 u) over [0, 1] to 2e-15).
_LOG_RATIO = math.log(4.0)
_LOG_SPREAD = 12.0
_FAR_RHO = 0.25  # min(r, s)/max(r, s) below which _angular's far-field panel may serve a node
# Outer nodes per _angular slice: at 1.5-3 panels of 16 nodes each, its work arrays stay
# near 1 MB.  Unsliced rounds of 10^4 nodes took 1.7-1.9 times as long (2 MiB L2 Xeon).
_ANGULAR_BATCH = 2000
# _angular_table: its lattice step in x = log t (half an octave), its 8- and 4-point read panels, and
# the bound on its estimated rounding error (which keeps |log t| below 450, where e^x is a normal float)
_CELL = math.log(2.0) / 2.0
_GL8_U, _GL8_W = _jacobi_rule(0.0, 0.0, 8)
_GL4_U, _GL4_W = _jacobi_rule(0.0, 0.0, 4)
_TABLE_ERR = 1e-13
# The fewest near nodes a slice hands to _angular_table: below it the table's fixed cost, some 60 numpy
# calls on the lattice and the nodes, exceeds the chain's (on a 2-core Xeon VM they break even near 120
# nodes at N = 3 and 200 at N = 5; certify's slices hold 500 to 2000, the convolve workload's about 60)
_TABLE_NODES = 160


class _Offsets(NamedTuple):
    """Outer nodes s with their exact offsets delta = s - r (one r per node), which
    convolve_radial hands to angular_factor: next to the cusp s - r rounds them away."""

    s: np.ndarray
    delta: np.ndarray


def angular_factor(N: int, r: float, s, kernel: KernelParams):
    """Colatitude integral of K over the sphere of radius s seen from radius r.

    s may be a scalar (the result is a float) or an array (the result is an
    array of the same shape); with the _Offsets of convolve_radial, r may hold
    one radius per node.  Returns inf at s == r when beta <= alpha - N + 1
    (genuine divergence of the theta-integral; the two-dimensional (s, theta)
    integral is still finite there).
    """
    if isinstance(s, _Offsets):
        return _angular(N, np.full_like(s.s, r), s.s, s.delta, kernel.alpha, kernel.beta)
    if N < 2:
        raise InvalidDimension("angular reduction needs N >= 2")
    s_arr = np.asarray(s, dtype=float)
    if not (np.all((s_arr > 0.0) & (s_arr < math.inf)) and 0.0 <= r < math.inf):
        raise NonpositiveRadius("angular_factor needs finite s > 0 and r >= 0")
    if not r + float(s_arr.max(initial=0.0)) < math.inf:
        raise NonpositiveRadius(f"r + s lies past the float range (r = {r!r})")
    flat = s_arr.ravel()
    out = _angular(N, np.full(flat.shape, float(r)), flat, flat - r, kernel.alpha, kernel.beta).reshape(s_arr.shape)
    return float(out) if out.ndim == 0 else out


def _angular(N: int, r: np.ndarray, s: np.ndarray, delta: np.ndarray, alpha: float, beta: float) -> np.ndarray:
    """angular(r, s) at 1-d arrays r >= 0, s > 0 and the exact offsets delta = s - r.

    Far field, rho = min(r, s)/M < _FAR_RHO = 1/4 with M = max(r, s): the integrand of angular =
    int_{-1}^1 K(M sqrt((1-rho)^2 + 2 rho (1-x))) (1 - x^2)^((N-3)/2) dx is analytic up to
    x = (1 + rho^2)/(2 rho), so n = 16 Gauss-Gegenbauer nodes err by O(rho^(2n)), rho0^32 = 5.4e-20,
    once K's own variation is resolved: a node is admitted where t^alpha log(1+t)^|beta| varies by at
    most _LOG_SPREAD e-folds over t in [M - m, M + m], m = rho M (always at r = 0, where t = s).
    The other nodes take the chain: with d = |delta|, D = r + s and w = 2 min(r, s) = D - d,
    sin(theta)^2 = 4 [(t - d)/w] [(D - t)/w] [(t + d)/2M] [(D + t)/2M], a product of factors of
    at most 2, so no r s is formed to under- or overflow.  At s == r the geometric panels start at
    min(r, 1) and _angular_origin_panel adds the rest.  Each node value K(t) (t/M) sin(theta)^(N-3)
    is one exp of logs: next to the cusp K alone may overflow where the product does not.
    At N = 3 and 5, _angular_table serves the near nodes off the diagonal first, from one table of
    the moments G_k(t) = int t^k K dt per slice, and the chain takes the nodes it refuses.  A slice
    goes to the chain whole where the table would cost more than the chain it spares: with fewer
    than _TABLE_NODES such nodes, or a lattice of more cells (from its least log |s - r| to its
    largest log (r + s)) than nodes.  Larger batches than _ANGULAR_BATCH nodes run in slices of
    that size.
    """
    if len(s) > _ANGULAR_BATCH:
        return np.concatenate([_angular(N, *(v[i:i + _ANGULAR_BATCH] for v in (r, s, delta)), alpha, beta)
                               for i in range(0, len(s), _ANGULAR_BATCH)])
    m, M = np.minimum(r, s), np.maximum(r, s)
    rho = np.minimum(m / M, _FAR_RHO)
    efolds = _log_kernel(M * (1.0 + rho), -alpha, abs(beta)) - _log_kernel(M * (1.0 - rho), -alpha, abs(beta))
    far, out = (rho < _FAR_RHO) & (efolds <= _LOG_SPREAD), np.empty(len(s))
    # by the rule's symmetry y may stand for 1 - y: t^2 = M^2 ((1 - rho)^2 + 4 rho y)
    y, w = _jacobi_rule((N - 3) / 2.0, (N - 3) / 2.0)
    t = M[far] * np.sqrt((1.0 - rho[far]) ** 2 + 4.0 * rho[far] * y[:, None])
    with np.errstate(over="ignore"):
        out[far] = colatitude_total(N) * np.exp(np.log(w)[:, None] + _log_kernel(t, alpha, beta)).sum(axis=0)
    if far.all():
        return out
    near = ~far
    if N in (3, 5) and len(index := np.flatnonzero(near & (delta != 0.0))) >= _TABLE_NODES:
        # no table whose lattice would hold more cells than it has nodes to serve
        d_min, D_max = float(np.abs(delta[index]).min()), float((r[index] + s[index]).max())
        if round(math.log(D_max) / _CELL) - round(math.log(d_min) / _CELL) <= len(index):
            served, values = _angular_table(N, r[index], s[index], delta[index], alpha, beta)
            out[index[served]] = values
            near[index[served]] = False
            if not near.any():
                return out
    r, s, delta, m, M = r[near], s[near], delta[near], m[near], M[near]
    d, D = np.abs(delta), r + s
    diagonal = d == 0.0
    t0 = np.where(diagonal, np.minimum(M, 1.0), d)
    spread = abs(beta) / _LOG_SPREAD
    least = max(1.0, math.ceil((N - 3) / 8.0))
    span = (log_M := np.log(M)) - np.log(t0)
    n = np.maximum(np.ceil(np.maximum(span / _LOG_RATIO,
                                      spread * (np.log(np.log1p(M)) - np.log(np.log1p(t0))))), least * ~diagonal)
    n_last = np.maximum(np.ceil(spread * (np.log(np.log1p(D)) - np.log(np.log1p(M)))), least)
    # panel k < n spans the offsets x_k..x_(k+1) from d, x_k = t0 (M/t0)^(k/n) - d;
    # panel k >= n spans m / n_last [j, j + 1] from D, j = n + n_last - 1 - k
    counts = (n + n_last).astype(np.int64)
    starts = np.cumsum(counts) - counts
    owner = np.repeat(np.arange(len(s)), counts)
    k = np.arange(len(owner)) - starts[owner]
    d, m, M, D, t0, span, n, n_last, log_M = (v[owner] for v in (d, m, M, D, t0, span, n, n_last, log_M))
    last, j = k >= n, n + n_last - 1 - k
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        log_ratio = span / n
        x0 = t0 * np.expm1(k * log_ratio) + (t0 - d)
        x1 = np.where(k + 1 == n, m, t0 * np.expm1((k + 1) * log_ratio) + (t0 - d))
        # nodes t = d + o on [d, M], t = D + o (o < 0) on [M, D]; o = lo + h u or lo + h u^2
        sign = np.where(last, -1.0, 1.0)
        lo = sign * np.where(last, j * m / n_last, x0)
        h = sign * np.where(last, m / n_last, x1 - x0)
        squared = np.where(last, j == 0, (k == 0) & ~diagonal[owner])
        o = lo + h * np.where(squared, (_GL_U * _GL_U)[:, None], _GL_U[:, None])
        t = np.where(last, D, d) + o
        # K(t) (t/M) sin(theta)^(N-3), with t K(t) the kernel of alpha - 1
        log_vals = _log_kernel(t, alpha - 1.0, beta) - log_M
        if N != 3:
            nu, tau = o * (sign / (2.0 * m)), t / M
            log_vals += (N - 3) / 2.0 * np.log(nu * (1.0 - nu) * (tau + d / M) * (tau + D / M))
        vals = np.exp(log_vals)
    panel = np.where(squared, (2.0 * _GL_U * _GL_W) @ vals, _GL_W @ vals) * (np.abs(h) / m)
    chain = np.add.reduceat(panel, starts)
    if diagonal.any():
        for r_d in np.unique(r[diagonal]):
            chain[diagonal & (r == r_d)] += _angular_origin_panel(N, float(r_d), alpha, beta)
    out[near] = chain
    return out


def _angular_table(N: int, r: np.ndarray, s: np.ndarray, delta: np.ndarray, alpha: float,
                   beta: float) -> tuple[np.ndarray, np.ndarray]:
    """angular(r, s) at N = 3 or 5 for the nodes the table serves: (served, their values).

    With d = |delta|, D = r + s and G_k' = t^k K, dG_k = G_k(D) - G_k(d): at N = 3 angular =
    dG_1 / (r s), and at N = 5, where sin(theta)^2 = (t^2 - d^2)(D^2 - t^2) / (4 r^2 s^2),
    angular = [-dG_5 + (d^2 + D^2) dG_3 - d^2 D^2 dG_1] / (4 r^3 s^3).  In x = log t, dG_k/dx =
    t^(k+1) K, and the moments share every kernel node: t^4 K and t^6 K are t^2 K times e^(2x) and
    e^(4x).  The lattice x_j = j _CELL runs from the nearest node of the least log d to that of the
    largest log D, with one Gauss-Legendre panel per cell.  Each G_k is 0 at the lattice node where
    t^(k+1) K is least and summed outward from it, so on either side each sum starts where its
    integrand is least.  G_k(t) is G_k at the nearest lattice node plus one panel over at most half a
    cell.  The slope (k+1-alpha) + beta phi(t) of log(t^(k+1) K) in x, 0 < phi <= 1, makes that span
    at most c = max(|k+1-alpha|, |k+1-alpha+beta|) _CELL / 2 e-folds, and a cell 2 c; each panel
    takes the points _panel_rule gives for its span: 4 for a read where c <= 0.2 (they integrate
    e^(c u) over [0, 1] to 5.6e-10 c^8, 1.4e-15 there), 8 elsewhere, and 8 or 16 for a cell.

    Every panel and G_k is held as a ratio to t^(k+1) K at a lattice node t_j: inside a panel that is
    (t / t_j)^(k+1-alpha) (log(1+t) / log(1+t_j))^beta, an exp of small numbers, and G_k(t_j) /
    t_j^(k+1) K follow from the steps G_k(t_(j+1)) = G_k(t_j) + cell_j as one linear recurrence
    (_affine_scan).  A node's terms are taken over the top moment's t^(k+1) K at the lattice node of
    its log D, the d side's offset formed from lattice steps.  So the cancellation of the moments
    (about 1.4 digits at N = 5) multiplies eps times these small logs, not eps |log t^6 K|, no r s,
    t^(k+1) K or G_k itself is formed, and a term past the float range refuses its node.

    A node is served where t^a log(1+t)^|beta|, a the largest |k+1-alpha| of the moments, varies by
    at most _LOG_SPREAD / 2 e-folds per cell from half a cell below d on (an 8-point panel then sees
    at most 3, and integrates e^(3 u) over [0, 1] to 6e-16), and where the rounding estimate is at
    most _TABLE_ERR: eps times the sum over the terms of |term| (|log of its scale| + 1), with the
    scan's (2 n + 3) eps_long / eps more on each G_k term of a lattice of n cells (_affine_scan), over
    |their sum|, plus eps (|log angular - log sum| + |log d| + |log D|).  That refuses the ends
    of the float range, where log t itself rounds by more, and a node past the peak of a t^2 K that
    rises from the anchor and falls again.
    """
    # the moments k = 1 (N = 3), or 1, 3 and 5 (N = 5), by the slopes k + 1 - alpha of log t^(k+1) K
    slope_list = [k + 1.0 - alpha for k in ((1,) if N == 3 else (1, 3, 5))]
    slopes, m, top = np.array(slope_list), len(slope_list), slope_list[-1]

    served, d, D = np.zeros(len(s), dtype=bool), np.abs(delta), r + s
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        x_d, x_D = np.log(d), np.log(D)
        candidate = _EPS * (np.abs(x_d) + np.abs(x_D)) <= _TABLE_ERR
        # log log(1+t) rises by less than one per unit of x: below this bound every cell passes
        a, b = max(map(abs, slope_list)), abs(beta)
        if (a + b) * _CELL > _LOG_SPREAD / 2.0:
            rise = np.log(np.log1p(np.exp(x_d + 0.5 * _CELL)) / np.log1p(np.exp(x_d - 0.5 * _CELL)))
            candidate &= a * _CELL + b * rise <= _LOG_SPREAD / 2.0
        if not candidate.any():
            return served, np.empty(0)
        x_d, x_D, r, s, D = x_d[candidate], x_D[candidate], r[candidate], s[candidate], D[candidate]
        x, n = np.concatenate((x_D, x_d)), len(r)
        k = np.rint(x / _CELL)
        j0 = k[n:].min()
        z = _CELL * (j0 + np.arange(max(k[:n].max() - j0, 1.0) + 1.0))
        t_z = np.exp(z)
        log_l = np.log(l_z := np.log1p(t_z))
        # log t^(k+1) K rises by at most c e-folds over a read, 2 c over a cell
        c = max(max(abs(q), abs(q + beta)) for q in slope_list) * _CELL / 2.0
        # per moment and cell: its integral over t^(k+1) K at its left node, and the step from that
        # value to the one at its right node
        step = np.exp(slopes[:, None] * -_CELL - beta * np.log(l_z[1:] / l_z[:-1]))
        cell = np.broadcast_to(_moment_panels(slopes, beta, t_z[:-1], l_z[:-1], _CELL, *_panel_rule(2.0 * c)),
                               step.shape)
        # g = G_k / t^(k+1) K at the lattice nodes, 0 at the anchor, the node where t^(k+1) K is least:
        # above it g_(j+1) = (g_j + cell_j) step_j, below it -g_j = -g_(j+1) / step_j + cell_j
        g, step, cell = np.zeros((m, len(z))), step.astype(np.longdouble), cell.astype(np.longdouble)
        for i, anchor in enumerate(np.argmin(slopes[:, None] * z + beta * log_l, axis=1).tolist()):
            if anchor < len(z) - 1:
                g[i, anchor + 1:] = _affine_scan(step[i, anchor:], cell[i, anchor:] * step[i, anchor:])
            if anchor:
                g[i, :anchor] = -_affine_scan(1.0 / step[i, anchor - 1::-1], cell[i, anchor - 1::-1])[::-1]
        # the scan's bound on the relative rounding of each g before it is rounded to a float, in eps
        scan = (2.0 * len(z) + 3.0) * _EPS_LONG / _EPS
        # by column (log D, then log d): G_k over t^(k+1) K at the nearest lattice node, and the panel
        # from there
        j = (k - j0).astype(np.int64)
        span = x - z[j]
        lattice, read = g[:, j], _moment_panels(slopes, beta, t_z[j], l_z[j], span, *_panel_rule(c))
        # the terms over the top moment's t^(k+1) K at the lattice node of log D: the d side's log offset
        # from it is formed from lattice steps, and G_k(d) takes a minus sign
        jD, jd = j[:n], j[n:]
        if N == 3:
            scale, sign = np.zeros((1, 2 * n)), 1.0
        else:
            # the coefficients -d^2 D^2, d^2 + D^2 and -1 of dG_1, dG_3 and dG_5, times t^(k-5) at the node
            lq_d, lq_D = np.concatenate((x_d, x_d)) - z[j], np.concatenate((x_D, x_D)) - z[j]
            scale = np.stack((2.0 * (lq_d + lq_D), np.logaddexp(2.0 * lq_d, 2.0 * lq_D), np.zeros(2 * n)))
            sign = np.array([[-1.0], [1.0], [-1.0]])
        scale[:, n:] += top * _CELL * (jd - jD) + beta * np.log(l_z[jd] / l_z[jD])
        size = np.exp(scale)
        diff = ((lattice + read) * size * sign).sum(axis=0)
        roundings = (np.abs(lattice) + np.abs(read)) * (np.abs(scale) + 1.0) + scan * np.abs(lattice)
        rounding = (roundings * size).sum(axis=0)
        diff, rounding = diff[:n] - diff[n:], rounding[:n] + rounding[n:]
        # that reference over (r s)^(N-2) 4^((N-3)/2), with top x_D - (N-2) log(r s) = (N-2) log(D^2 / (r s))
        # - alpha x_D formed from small numbers
        exponent = (beta * log_l[jD] - top * span[:n] - alpha * x_D + (N - 2.0) * np.log(D / r * (D / s))
                    - (N - 3) * math.log(2.0))
        error = _EPS * (rounding / diff + np.abs(exponent) + np.abs(x_d) + np.abs(x_D))
    ok = (diff > 0.0) & (error <= _TABLE_ERR)
    served[np.flatnonzero(candidate)[ok]] = True
    return served, np.exp(exponent[ok] + np.log(diff[ok]))


def _moment_panels(slopes: np.ndarray, beta: float, t0: np.ndarray, l0: np.ndarray, span: np.ndarray | float,
                   u: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Per moment and column, int t^(k+1) K dx over [log t0, log t0 + span] over t^(k+1) K at t0, for
    the slopes k + 1 - alpha and l0 = log(1 + t0), on the rule (u, w): one kernel node per point and
    column, which every moment shares."""
    h = span * u[:, None]
    v = slopes[:, None, None] * h
    if beta:
        v = v + beta * np.log(np.log1p(t0 * np.exp(h)) / l0)
    return span * (w @ np.exp(v))


def _panel_rule(c: float) -> tuple[np.ndarray, np.ndarray]:
    """The Gauss-Legendre rule for a panel over which the log of its integrand spans at most c e-folds:
    4 points integrate e^(c u) over [0, 1] to 1.6e-15 up to c = 0.2, 8 to roundoff up to c = 3 (and
    to 1.6e-11 at 6, the most a table cell spans), 16 beyond."""
    return (_GL4_U, _GL4_W) if c <= 0.2 else (_GL8_U, _GL8_W) if c <= 3.0 else (_GL_U, _GL_W)


def _affine_scan(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """y_1 .. y_n of y_(j+1) = a_j y_j + b_j from y_0 = 0, for 1-d a, b >= 0: each within
    (2 n + 3) eps_long relative of its value to first order, then rounded to a float once.

    By blocks of 100, y = P (y_in + cumsum(b / P)) with P the running product of a over the block
    and y_in the last block's end; 100 cells of at most _LOG_SPREAD / 2 e-folds each keep P within
    1e+-261.  The ratio of two running products P_j / P_i is j - i roundings from the product it
    stands for, and b_i / P_i meets as many additions in the cumsum, so b_i reaches y_j with at most
    2 (j - i) + 3 roundings, in np.longdouble (eps_long = 1.1e-19 on x86, where 2 n + 3 of them
    stay below eps up to n = 1000; eps where it is a double)."""
    a, b = np.asarray(a, dtype=np.longdouble), np.asarray(b, dtype=np.longdouble)
    y, block = np.empty_like(b), 100
    for i in range(0, len(a), block):
        product = np.cumprod(a[i:i + block])
        y[i:i + block] = product * (np.cumsum(b[i:i + block] / product) + (y[i - 1] if i else 0.0))
    return y.astype(float)


def _angular_origin_panel(N: int, r: float, alpha: float, beta: float) -> float:
    """The part t < t1 = min(r, 1) of angular(r, r): r^(1-N) int t^a g(t) dt,
    a = N - 2 + beta - alpha, g = (log(1+t)/t)^beta (1 - (t/2r)^2)^((N-3)/2), on one
    Gauss-Jacobi panel with weight t^a (never divided out); inf when a <= -1."""
    a = N - 2 + beta - alpha
    if a <= -1.0:
        return math.inf
    t1 = min(r, 1.0)
    y, w = _jacobi_rule(a, 0.0)
    t = t1 * y
    g = (np.log1p(t) / t) ** beta * ((1.0 - t / (2.0 * r)) * (1.0 + t / (2.0 * r))) ** ((N - 3) / 2.0)
    return (t1 / r) ** (N - 1) * t1 ** (beta - alpha) * float(np.dot(w, g)) / (a + 1.0)


def _tail_gap(kernel: KernelParams, sigma: float, kappa: float) -> float | None:
    """Power gap N - alpha - sigma of int_r^inf s^(N-1) K(s) f(s) ds for f ~ s^-sigma
    log^kappa s: the tail ~ r^gap log^(beta+kappa) r for gap < 0, and on the critical
    line gap = 0 it ~ log^(1+beta+kappa) r.  None when the integral diverges."""
    gap = kernel.N - kernel.alpha - sigma
    if gap == 0.0:
        return gap if 1.0 + kernel.beta + kappa < 0.0 else None
    return gap if gap < 0.0 else None


def detect_divergence(kernel: KernelParams, f: RadialProfile) -> bool:
    """Symbolic finiteness test from the declared tail shape: the convolution
    is infinite at every radius iff the mass integrand f(s) s^(N-1) K(s) fails
    to be integrable at infinity (_tail_gap)."""
    if f.support_radius is not None:
        return False
    if f.infinity_spec is None:
        raise MissingAsymptoticSpec("profile declares no tail shape and no compact support")
    return _tail_gap(kernel, -f.infinity_spec.power, f.infinity_spec.logpower) is None


def _tail_integral_1d(kernel: KernelParams, sigma: float, kappa: float, A: float, R) -> tuple[np.ndarray, np.ndarray]:
    """int_R^inf (A+s)^(-sigma) log(A+s)^kappa s^(N-1) K(s) ds for R > 1, and its error bound,
    shaped like R (a scalar or an array).

    One sweep in t = log R / x on (0, 1], x = log s, that never forms s: log(A+s) = x +
    log1p(A e^-x).  On the critical line gap = N - alpha - sigma = 0 the integrand behaves
    like t^-(2+beta+kappa) at t = 0, and the segment there is graded with m = -1/(1+beta+kappa),
    which makes it a constant in u.  The octave marks 2^-10..1 keep the A e^-x correction,
    which lives near t = 1, out of that graded segment, and the marks 1/t - 1 = 4^j / L,
    j = 0, 1, 2, resolve it: it falls by e per 1/L of 1/t - 1, which one panel over the octave
    [1/2, 1] steps over at large L (it missed 1.6e-13 of the potential of (A + s)^-2
    log(A + s)^-1.5 at A = 1e200, three times its error estimate).  Off the line, gap < 0, the
    integrand lives within a few 1/(|gap| L) below t = 1; the marks follow that scale, and the
    segment [0, 1/(1 + 32/(|gap| L))] holds the e^-32 rest.

    Several R form one sweep of suffix sums: with R_1 < ... < R_n those of distinct log R, group
    j < n holds the piece [R_j, R_(j+1)] alone, in its own t = log R_j / x on [log R_j / log R_(j+1),
    1] with R_j's marks in the half of it next to t = 1 (one nearer R_(j+1) would only cut a sliver
    off) and t = 1 always, so a piece an ulp of log R wide keeps its segment,
    group n the whole tail of R_n, and the tail of R_i and its error are the sums over the groups
    j >= i.  A single R is the one group of the whole tail."""
    # the groups are the distinct log R: R a few ulps apart may share one
    L = np.array([math.log(x) for x in np.ravel(R)])
    L, back = (L, [0]) if L.size == 1 else np.unique(L, return_inverse=True)
    gap, beta = kernel.N - kernel.alpha - sigma, kernel.beta

    def integrand(t: np.ndarray, _, group: np.ndarray) -> np.ndarray:
        x = (log_r := L[group]) / t
        a, b = np.log1p(A * (decay := np.exp(-x))), np.log1p(decay)
        with np.errstate(over="ignore"):  # a tail past the float range fails the sweep
            return np.exp(gap * x - sigma * a + kappa * np.log(x + a) + beta * np.log(x + b)) * (log_r / t ** 2)

    if gap == 0.0:
        grading = -1.0 / (1.0 + beta + kappa)
        marks = [[0.0, *sorted({*(2.0 ** k for k in range(-10, 1)), *(1.0 / (1.0 + 4.0 ** j / l) for j in range(3))})]
                 for l in L.tolist()]
    else:
        # in y = 1/t - 1 the integrand decays like e^(-y/d), d = 1/(|gap| L): marks at
        # y = d 2^j up to 32 d and the octaves y = 2^k - 1 below that take one round
        grading, marks = 1.0, []
        for d in (-1.0 / (gap * L)).tolist():
            y = {*(d * 2.0 ** j for j in range(6)), *(o for k in range(1, 11) if (o := 2.0 ** k - 1.0) < 32.0 * d)}
            marks.append([0.0, *(1.0 / (1.0 + v) for v in sorted(y, reverse=True)), 1.0])
    for i, end in enumerate((L[:-1] / L[1:]).tolist()):
        marks[i] = [end, *(m for m in marks[i][1:-1] if m > 0.5 * (1.0 + end)), 1.0]
    values, errors, _ = _integrate_marks(integrand, marks, grading=grading)
    sums = [np.cumsum(_group_sums(v, marks)[::-1])[::-1][back] for v in (values, errors)]
    return tuple(v.reshape(np.shape(R))[()] for v in sums)


def _group_sums(v: np.ndarray, marks: Sequence[Sequence[float]]) -> np.ndarray:
    """Each group's total over its segments, the columns of v from _integrate_marks, in one reduceat;
    a single group, that of a single-radius call, keeps numpy's pairwise sum."""
    if len(marks) == 1:
        return np.array([v.sum()])
    return np.add.reduceat(v.sum(axis=0), [0, *itertools.accumulate(len(m) - 1 for m in marks[:-1])])


def _marks(end: float, start: float, points: Iterable[float] = (), ratio: float = 10.0) -> list[float]:
    """The marks of an outer sweep over [0, end], sorted: 0 and end, the points strictly inside,
    and the ladder start ratio^k (start > 0, ratio > 1) below end, each rung the last times ratio."""
    marks = {0.0, end, *(x for x in points if 0.0 < x < end)}
    while start < end:
        marks.add(start)
        start *= ratio
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
_KG, _EPS, _FLOAT_MAX = _KW - _GW, np.finfo(float).eps, np.finfo(float).max
_EPS_LONG = float(np.finfo(np.longdouble).eps)


# Graded offsets stop at _CUSP_FLOOR |h|: below it the integrand in u is its
# limit to O(_CUSP_FLOOR^-mu), and an offset never underflows to 0.
_CUSP_FLOOR = 1e-40


def _integrate_marks(
    integrand: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray],
    marks: Sequence[Sequence[float]],
    cusp=0.0,
    grading: float = 1.0,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Globally adaptive G7-K15 over the segments between consecutive marks, in groups.

    marks holds one sequence of marks per group, cusp one cusp per group (or one for
    all).  integrand(s, delta, group) takes 1-d arrays of nodes s, their offsets
    delta = s - cusp and the group of each node, and returns one value per node, or
    k components of them (shape (k, len(s))) that share the panels.  With grading
    m != 1, the segments that end at their group's cusp run in u, s = cusp -+ h u^m and
    delta = -+ h u^m, which turns a factor |s - cusp|^mu, mu = 1/m - 1, into a limit
    g(0) in u.  The sweep covers u in [0, 1] with u floored at u_f = _CUSP_FLOOR^(1/m), so
    no offset falls below _CUSP_FLOOR |h|, and it holds g(u_f) on u < u_f.  Every other
    segment [a, b] with 0 < a and b <= 10 a runs in x = log(s/a), s = a e^x with Jacobian
    s, where a power s^mu is a^mu e^((mu+1) x).  The rest run in s: a segment from 0,
    and a wider one, as from 2r up to the first decade mark at a small r, where in log s
    the mass of s^mu would sit within a few units of its top, between a panel's last
    nodes, out of sight of the error estimate.  Bisection halves each row's own variable.

    Each round evaluates the 15 nodes of every new panel in one call.  Panel errors
    follow QUADPACK: resasc * min(1, (200 |K - G| / resasc)^1.5), floored at
    50 eps int |f|.  Until each component's summed error in a group is at most
    REL_TOL |its total|, each panel of the group whose error in some component exceeds
    that component's share of the target is bisected, within MAX_SUBDIVISIONS panels
    per group.  Returns (integrals, errors, evaluations), the first two of shape
    (k, segments): each component's integral and error on every segment, by group.
    """
    groups = len(marks)
    group = np.repeat(np.arange(groups), [len(m) - 1 for m in marks])
    a = np.concatenate([m[:-1] for m in marks], dtype=float)
    b = np.concatenate([m[1:] for m in marks], dtype=float)
    c = np.full(groups, cusp, dtype=float)[group]
    # h != 0 marks a graded segment, run in u; the others of at most a decade off 0 run in log s
    h = np.where(b == c, a - b, np.where(a == c, b - a, 0.0)) if grading != 1.0 else np.zeros_like(a)
    in_log = (a > 0.0) & (b <= 10.0 * a) & (h == 0.0)
    u_f = _CUSP_FLOOR ** (1.0 / grading)
    lo, hi, seg = np.where(h != 0.0, 0.0, a), np.where(h != 0.0, 1.0, b), np.arange(len(a))
    # x counts from the segment's start, s = a e^x, so a node's rounding stays that of x <= log 10
    lo[in_log], hi[in_log] = 0.0, np.log(b[in_log] / a[in_log])

    def g(x, h, seg):
        # the integrand's components in each row's own variable, at node coordinates x
        cusp, logged = c[seg][:, None], in_log[seg]
        s = x.copy()
        # exp and x ** grading only on their own rows: on the others x = s may overflow them
        s[logged] = a[seg[logged], None] * np.exp(x[logged])
        jac = np.where(logged[:, None], s, 1.0)
        delta = s - cusp
        if grading != 1.0 and (graded := h != 0.0).any():
            u, h_g = np.maximum(x[graded], u_f), h[graded, None]
            delta[graded] = h_g * u ** grading
            s[graded] = cusp[graded] + delta[graded]
            jac[graded] = np.abs(h_g) * grading * u ** (grading - 1.0)
        out = integrand(s.ravel(), delta.ravel(), group[seg].repeat(x.shape[1]))
        with np.errstate(over="ignore"):  # an integral past the float range fails below
            fx = out.reshape(out.shape[:-1] + s.shape) * jac
        if not np.all(np.isfinite(fx)):
            bad = ~np.isfinite(fx).reshape((-1,) + s.shape).all(axis=0)
            own = marks[group[seg[bad.any(axis=1)][0]]]
            raise QuadratureFailure(f"non-finite integrand at s = {float(s[bad][0])!r} on [{own[0]}, {own[-1]}]")
        return fx

    def panels(lo, hi, h, seg):
        half = 0.5 * (hi - lo)
        fx = g((0.5 * (lo + hi))[:, None] + half[:, None] * _KX, h, seg)
        resk = fx @ _KW
        resasc = np.abs(fx - 0.5 * resk[..., None]) @ _KW * half
        # einsum sums each row in one order, so |K - G| is the same wherever the panel sits
        err = np.abs(np.einsum("...j,j->...", fx, _KG)) * half
        with np.errstate(divide="ignore", invalid="ignore"):
            scaled = np.where(resasc > 0.0, resasc * np.minimum(1.0, (200.0 * err / resasc) ** 1.5), err)
        return resk * half, np.maximum(scaled, 50.0 * _EPS * (np.abs(fx) @ _KW) * half)

    def summed(v, owner, bins):
        # each component's total over the entries of each bin, shape v.shape[:-1] + (bins,)
        return np.bincount(owner, v, bins) if v.ndim == 1 else np.array([np.bincount(owner, row, bins) for row in v])

    val, err = panels(lo, hi, h, seg)
    evaluations = 15 * len(lo)
    while True:
        owner = group[seg]
        target, err_sum = REL_TOL * np.abs(summed(val, owner, groups)), summed(err, owner, groups)
        done = (err_sum <= target).reshape(-1, groups).all(axis=0)
        if done.all():
            return np.atleast_2d(summed(val, seg, len(a))), np.atleast_2d(summed(err, seg, len(a))), evaluations
        panel_count = np.bincount(owner, minlength=groups)
        split = (err > (target / panel_count)[..., owner]).reshape(-1, len(seg)).any(axis=0)
        if done.any():  # a converged group's panels stay as they are
            split &= ~done[owner]
        if len(seg) + np.count_nonzero(split) > MAX_SUBDIVISIONS and (
                over := panel_count + np.bincount(owner[split], minlength=groups) > MAX_SUBDIVISIONS).any():
            i = np.argmax(over)
            e, t = err_sum.reshape(-1, groups)[:, i], target.reshape(-1, groups)[:, i]
            raise QuadratureFailure(f"no convergence within {MAX_SUBDIVISIONS} panels on [{marks[i][0]}, {marks[i][-1]}]: "
                                    f"error {e[np.argmax(e - t)]:.3g} against target {t[np.argmax(e - t)]:.3g}")
        keep, mid = ~split, 0.5 * (lo[split] + hi[split])
        halves = [np.concatenate(pair) for pair in ((lo[split], mid), (mid, hi[split]), (h[split],) * 2, (seg[split],) * 2)]
        lo, hi, h, seg = (np.concatenate((old[keep], new)) for old, new in zip((lo, hi, h, seg), halves))
        new_val, new_err = panels(*halves)
        evaluations += 15 * len(mid) * 2
        val, err = np.concatenate((val[..., keep], new_val), axis=-1), np.concatenate((err[..., keep], new_err), axis=-1)


def convolve_radial(kernel: KernelParams, f: RadialProfile, r) -> ConvolutionResult:
    """Evaluate (K * f)(r) with certified truncation at a radius r, or at every radius of
    an array r in one sweep: value and error_estimate are then arrays of r's shape and
    evaluations is the sum over the radii.

    Divergent cases (one flag for all radii: it depends on the kernel and the profile)
    are detected symbolically from the declared tail shape and reported with value =
    inf rather than raised; quadrature that cannot reach tolerance raises
    QuadratureFailure.
    """
    flat = (radii := np.asarray(r, dtype=float)).ravel()
    if (bad := flat[~((flat >= 0.0) & (flat < math.inf))]).size:
        raise NonpositiveRadius(f"evaluation radius must be finite and nonnegative, got {float(bad[0])!r}")
    N, alpha, beta = kernel.N, kernel.alpha, kernel.beta

    def result(value, err, evaluations=0, divergent=False):
        value, err = (float(v[0]) if radii.ndim == 0 else v.reshape(radii.shape) for v in (value, err))
        return ConvolutionResult(value, err, evaluations, divergent)

    compact = f.support_radius is not None
    if not compact and detect_divergence(kernel, f):
        return result(np.full(flat.shape, math.inf), np.full(flat.shape, math.inf), divergent=True)
    if not flat.size:
        return result(flat, flat)
    with np.errstate(over="ignore"):
        s_max = np.full(flat.shape, float(f.support_radius)) if compact else TRUNCATION_FACTOR * np.maximum(flat, max(f.scale, 1.0))
    if (far := ~(s_max <= _FLOAT_MAX / 2.0)).any():
        raise NonpositiveRadius(f"support radius {f.support_radius!r} lies past half the float range" if compact else
                                f"radius {float(flat[far][0])!r} puts the tail probe 2 s_max past the float range")
    if compact:
        # for f of order one up to the support radius R, the sweep forms s^(N-1) there and
        # the value is of order |S^(N-1)| R^N K(R) (the ball's value at r = 0 is that over N - alpha)
        R = float(f.support_radius)
        log_weight = (N - 1) * math.log(R)
        log_sphere = math.log(2.0) + 0.5 * N * math.log(math.pi) - math.lgamma(0.5 * N)  # finite for every N
        log_value = log_weight + log_sphere + _log_kernel(R, alpha - 1.0, beta)
        if max(log_weight, log_value) > math.log(_FLOAT_MAX):
            raise NonpositiveRadius(f"support radius {R!r} puts the convolution past the float range")

    prefactor = unit_sphere_area(N - 1) if N >= 2 else 1.0

    def integrand(s: np.ndarray, delta: np.ndarray, group: np.ndarray) -> np.ndarray:
        # an integrand past the float range (inf, or inf * 0) fails the sweep
        with np.errstate(over="ignore", invalid="ignore"):
            if N == 1:
                log_f = f.log_evaluate(s)
                return sum(np.exp(log_f + _log_kernel(t, alpha, beta)) for t in (np.abs(delta), flat[group] + s))
            return np.exp(f.log_evaluate(s) + (N - 1) * np.log(s)) * angular_factor(N, flat[group], _Offsets(s, delta), kernel)

    # near the cusp the outer integrand is c0 + c1 |s - r|^e (c1 log|s - r| at e = 0);
    # the least grading m that turns each term into an integer power of u or u^3 or higher
    e = N - 1 + beta - alpha
    grading = (max(1, math.ceil(4.0 / (1.0 + e))) if e >= 0.0 else
               next(m for m in (k / (1.0 + e) for k in range(1, 5)) if m.is_integer() or m >= 4.0))
    marks = [_marks(si, max(f.scale, 1.0) / 100.0, (ri / 2.0, ri, 2.0 * ri)) for ri, si in zip(flat.tolist(), s_max.tolist())]
    values, errors, evaluations = _integrate_marks(integrand, marks, cusp=flat, grading=grading)
    total, err = (prefactor * _group_sums(v, marks) for v in (values, errors))
    if not compact:
        tail, tail_err = _tail_addon(kernel, f, flat, s_max)
        total, err = total + tail, err + tail_err
    return result(total, err, evaluations)


def _reach(r: float, scale: float) -> float:
    """The outermost radius convolve_radial reads f at for radii up to r and a profile of this
    scale: the top tail probe 2 s_max, with s_max = TRUNCATION_FACTOR * max(r, scale, 1)."""
    return 2.0 * TRUNCATION_FACTOR * max(r, scale, 1.0)


def _tail_addon(kernel: KernelParams, f: RadialProfile, r: np.ndarray, s_max: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Analytic tail past s_max, and its error bound, at every radius of the 1-d array r: f's
    ratio to its declared shape at (1, 1.5, 2) s_max (in logs) times _tail_integral_1d (0 if not > 0)."""
    spec, A = f.infinity_spec, f.scale
    probes = s_max[:, None] * np.array([1.0, 1.5, 2.0])
    with np.errstate(over="ignore", invalid="ignore"):
        ratios = np.exp(f.log_evaluate(probes.ravel()).reshape(probes.shape) - spec.log_shape(probes, A))
    if (bad := ~np.isfinite(ratios)).any():
        raise ParameterError(f"the profile's ratio to its declared tail shape is not finite at s = {float(probes[bad][0])!r}")
    c = np.sort(ratios, axis=1)[:, 1]  # the median
    tail, tail_err = np.zeros(len(r)), np.zeros(len(r))
    if (live := c > 0.0).any():
        scale = unit_sphere_area(kernel.N) * c[live]
        tail_1d, q_err = _tail_integral_1d(kernel, -spec.power, spec.logpower, A, s_max[live])
        tail[live] = scale * tail_1d
        # calibration spread, far-field angular error O((r/s)^2), and 1-d quadrature error
        spread = (ratios[live].max(axis=1) - ratios[live].min(axis=1)) / c[live]
        tail_err[live] = np.abs(tail[live]) * (2.0 * spread + 10.0 * (r[live] / s_max[live]) ** 2) + scale * q_err
    return tail, tail_err


def _layer_cake(N: int, f: RadialProfile, r) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """r^(2-N) M(r) and T(r) at every radius of r (0 for the first at r = 0), with the error bound
    of their sum, from the one sweep of the module docstring (_marks at the radii and the octaves
    2^k max(A, 1)/100: decades put the bound of a source below the float range past 1e-10; s^(N-1)
    f weighs 0 past max r; s_end is the support radius for compact f); returns the evaluations too."""
    if N < 3:
        raise InvalidDimension("decaying potentials need N >= 3")
    radii = np.asarray(r, dtype=float)
    if not np.all((radii >= 0.0) & (radii < math.inf)):
        raise NonpositiveRadius(f"evaluation radii must be finite and nonnegative, got {r!r}")
    compact = f.support_radius is not None
    # with K(t) = t^(2-N), s^(N-1) K(s) f(s) = s f(s): the convolution tail
    # is |S^(N-1)| times the layer-cake tail int_{s_end}^inf s f ds
    newton = KernelParams(N, N - 2.0, 0.0)
    if not compact and detect_divergence(newton, f):
        raise DivergentIntegral("tail mass int s f ds diverges: declared decay too slow")
    anchor, r_top = max(f.scale, 1.0), float(radii.max(initial=0.0))
    s_end = float(f.support_radius) if compact else max(TRUNCATION_FACTOR * r_top, POTENTIAL_REACH * anchor)
    if not (compact or 2.0 * s_end <= _FLOAT_MAX):
        raise NonpositiveRadius(f"radius {r_top!r} at scale {f.scale!r} puts the tail probe 2 s_end past the "
                                "float range")
    marks = _marks(s_end, anchor / 100.0, radii.ravel().tolist(), ratio=2.0)

    def integrand(s: np.ndarray, *_) -> np.ndarray:
        log_f, log_s = f.log_evaluate(s), np.log(s)
        # M is read at the radii only: past the largest, s^(N-1) f gets log weight -inf, so never overflows
        return np.exp(np.stack((log_f + np.where(s <= r_top, (N - 1) * log_s, -math.inf), log_f + log_s)))

    (m_seg, t_seg), (m_err, t_err), evaluations = _integrate_marks(integrand, [marks])
    # int_{s_end}^inf s f ds and its error: the Newton convolution's tail at r = 0,
    # where its far field is exact
    tail = (0.0, 0.0) if compact else np.divide(_tail_addon(newton, f, np.zeros(1), np.full(1, s_end)), unit_sphere_area(N))
    # M and T with their error bounds at every mark
    mass, mass_err = (np.concatenate(([0.0], np.cumsum(v))) for v in (m_seg, m_err))
    beyond, beyond_err = (np.concatenate((np.cumsum(v[::-1])[::-1], [0.0])) + w
                          for v, w in zip((t_seg, t_err), tail))
    i = np.searchsorted(marks, np.minimum(radii, s_end))
    # M(0) = 0, so r = 0 may take any finite weight
    with np.errstate(over="ignore", invalid="ignore"):  # r^(2-N) or M past the float range: refused below
        weight = np.where(radii > 0.0, radii, 1.0) ** (2.0 - N)
        inner, inner_err = weight * mass[i], weight * mass_err[i]
    if (bad := ~np.isfinite(inner + inner_err)).any():
        raise ParameterError(f"r^(2-N) M(r) leaves the float range at r = {float(radii[bad][0])!r} for N = {N}")
    return inner, beyond[i], inner_err + beyond_err[i], evaluations


def newtonian_potential_radial(N: int, f: RadialProfile, r):
    """Decaying solution u of -Laplace(u) = f for radial f, N >= 3, at a radius r or at
    every radius of an array r: (N-2) u = r^(2-N) M + T from one _layer_cake sweep.  Radii
    that put its tail probe 2 s_end past the float range are refused (NonpositiveRadius).

    Returns a float for a scalar r, and for an array r a ConvolutionResult whose value
    and error_estimate (propagated from the segment errors and the tail's) are arrays of
    r's shape.  Relates to convolve_radial with the pure power kernel (alpha = N-2,
    beta = 0) through the factor (N-2) * |S^(N-1)|.
    """
    inner, beyond, err, evaluations = _layer_cake(N, f, r)
    u = (inner + beyond) / (N - 2)
    if u.ndim == 0:
        return float(u)
    return ConvolutionResult(value=u, error_estimate=err / (N - 2), evaluations=evaluations)


def ball_profile(r0: float) -> RadialProfile:
    """Indicator of the ball of radius r0: log f is 0 inside and -inf outside."""
    if not 0.0 < r0 < math.inf:
        raise NonpositiveRadius(f"ball radius must be positive and finite, got {r0!r}")

    def log_evaluate(s):
        return np.where(np.asarray(s, dtype=float) <= r0, 0.0, -math.inf)[()]

    return RadialProfile(log_evaluate, support_radius=r0, positive_mass_near_zero=True)


def power_profile(sigma: float, kappa: float, A: float = 10.0) -> RadialProfile:
    """f(r) = (A + r)^(-sigma) * log(A + r)^kappa with finite sigma, kappa and 1 < A < inf,
    evaluated in logs."""
    if not 1.0 < A < math.inf:
        raise ParameterError(f"power profiles need finite A > 1 so the log factor stays positive, got A = {A!r}")
    if not (math.isfinite(sigma) and math.isfinite(kappa)):
        raise ParameterError(f"power profiles need finite sigma and kappa, got {sigma!r}, {kappa!r}")

    spec = AsymptoticSpec(-sigma, kappa)

    def log_evaluate(s):
        return spec.log_shape(np.asarray(s, dtype=float), A)[()]

    return RadialProfile(log_evaluate, infinity_spec=spec, scale=A, positive_mass_near_zero=True)


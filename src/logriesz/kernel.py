"""Log-weighted Riesz kernel: K(t) = t^(-alpha) * log(1+t)^beta.

Admissible exponents keep K locally integrable in dimension N:
0 <= alpha <= N and beta > alpha - N.  KernelParams checks them where it is
built, so an inadmissible kernel raises a ParameterError there (CLI exit 2)
and no other function checks a kernel again.  Near t = 0 the weight log(1+t)
behaves like t, so K(t) ~ t^(beta-alpha); at infinity K(t) ~
t^(-alpha) * log(t)^beta.

This module imports no numpy, so the decision layer (classifier.py) that
checks exponents here loads none; K is evaluated on arrays by
convolution.eval_kernel, and AsymptoticSpec imports numpy when it evaluates.
"""

from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass

from .errors import InvalidAlpha, InvalidBeta, InvalidDimension, ParameterError


def approx_eq(a: float, b: float) -> bool:
    """Relative equality to 1e-12, for critical-exponent comparisons on user-supplied reals:
    abs(a - b) <= 1e-12 max(1, |a|, |b|) bit for bit, as rounding 1e-12 x is monotone in x."""
    d = abs(a - b)
    return d <= 1e-12 or d <= 1e-12 * abs(a) or d <= 1e-12 * abs(b)


def _ge(a: float, b: float) -> bool:
    return a > b or approx_eq(a, b)


def _gt(a: float, b: float) -> bool:
    return a > b and not approx_eq(a, b)


def _lt(a: float, b: float) -> bool:
    return a < b and not approx_eq(a, b)


@dataclass(frozen=True)
class AsymptoticSpec:
    """Power-log shape (A + r)^power * log(A + r)^logpower (A supplied by context)."""

    power: float
    logpower: float

    def shape(self, r, A: float):
        import numpy as np

        base = A + r
        return base ** self.power * np.log(base) ** self.logpower

    def log_shape(self, r, A: float):
        """log of shape(r, A) for A + r > 1, finite where the shape under- or overflows."""
        import numpy as np

        log_base = np.log(A + r)
        return self.power * log_base + self.logpower * np.log(log_base)


class Regime(enum.Enum):
    AT_ZERO = "at_zero"
    AT_INFINITY = "at_infinity"


@dataclass(frozen=True)
class KernelParams:
    """Kernel exponents, checked where they are built: no function that takes one checks again."""

    N: int
    alpha: float
    beta: float

    def __post_init__(self) -> None:
        _validate_exponents(self.N, self.alpha, self.beta)


def validate(params: KernelParams) -> None:
    """Reject kernels that are not locally integrable in dimension N (as building one does)."""
    _validate_exponents(params.N, params.alpha, params.beta)


def _validate_exponents(N, alpha: float, beta: float) -> None:
    """validate on (N, alpha, beta) without building a KernelParams."""
    if not (isinstance(N, int) or isinstance(N, numbers.Integral)) or N < 1:  # int first: the ABC check costs 0.7 us
        raise InvalidDimension(f"dimension must be a positive integer, got {N!r}")
    if not (0.0 <= alpha <= N):
        raise InvalidAlpha(f"alpha must lie in [0, {N}], got {alpha}")
    if not (beta > alpha - N):
        raise InvalidBeta(f"beta must exceed alpha - N = {alpha - N}, got {beta}")


def _validate_powers(p: float, q: float = 1.0) -> None:
    """Reject reaction exponents p, q that are not positive and finite; the probes that
    take p alone leave q at 1.  The chained test is False for NaN, which passes p <= 0."""
    if not 0.0 < p < math.inf:
        raise ParameterError(f"exponent p must be positive and finite, got {p!r}")
    if not 0.0 < q < math.inf:
        raise ParameterError(f"exponent q must be positive and finite, got {q!r}")


def kernel_asymptotics(params: KernelParams, regime: Regime) -> AsymptoticSpec:
    """Exact leading shape of K at zero (power beta-alpha, no log) or infinity."""
    if regime is Regime.AT_ZERO:
        return AsymptoticSpec(power=params.beta - params.alpha, logpower=0.0)
    if regime is Regime.AT_INFINITY:
        return AsymptoticSpec(power=-params.alpha, logpower=params.beta)
    raise TypeError(f"unknown regime {regime!r}")

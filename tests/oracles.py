"""Exact references for the tests, independent of the package's quadrature.

Test code, so mpmath and Decimal arithmetic may be used here; the package itself depends
on numpy alone.  Each oracle returns a float, except tail_oracle and log_cusp_oracle, which
return their 30-digit mpf for the tests to compare in mpmath.
"""

from decimal import Decimal, localcontext

import mpmath as mp


def angular_closed_form(N, alpha, r, delta):
    """(r s)^-1 int_d^D t^(1-alpha) [(t^2 - d^2)(D^2 - t^2) / (4 r^2 s^2)]^((N-3)/2) dt
    for N = 3 and 5, where the weight is a polynomial, in 60-digit arithmetic."""
    with localcontext() as ctx:
        ctx.prec = 60
        r, delta = Decimal(r), Decimal(delta)
        s, c = r + delta, 2 - Decimal(alpha)
        d, D = abs(delta), r + s

        def F(j):
            return (D ** (c + j) - d ** (c + j)) / (c + j)

        if N == 3:
            return float(F(0) / (r * s))
        return float((-F(4) + (d * d + D * D) * F(2) - d * d * D * D * F(0)) / (4 * r ** 3 * s ** 3))


def angular_power_closed_form(alpha, r, delta):
    """angular(r, s) at N = 3 and beta = 0, s = r + delta, in 40-digit arithmetic:
    ((r+s)^(2-alpha) - |r-s|^(2-alpha)) / ((2-alpha) r s), and log((r+s)/|r-s|) / (r s) at
    alpha = 2; at s == r, (2r)^(2-alpha) / ((2-alpha) r^2) for alpha < 2."""
    with mp.workdps(40):
        r, delta = mp.mpf(r), mp.mpf(delta)
        s, c = r + delta, 2 - mp.mpf(alpha)
        d, D = abs(delta), 2 * r + delta
        if c == 0:
            return float(mp.log(D / d) / (r * s))
        return float((D ** c - d ** c) / (c * r * s))


def angular_mpmath(N, alpha, beta, r, rel):
    """The t-integral in mpmath: in x = log(t - d) on [d, M], where the kernel's
    scale d and the factor (t - d)^((N-3)/2) become smooth, and in v = sqrt(D - t)
    on [M, D], where (D - t)^((N-3)/2) becomes smooth.  mp.quad stops on an absolute
    error, so the integrand is scaled by its kernel part t K(t) at t = M."""
    with mp.workdps(40):
        r, a, b, e = mp.mpf(r), mp.mpf(1 - alpha), mp.mpf(beta), mp.mpf(N - 3) / 2
        d, s = abs(r * rel), r + r * rel
        D, m = r + s, min(r, s)
        scale = 1 / (4 * r * r * s * s)

        def log_tk(t):
            return a * mp.log(t) + b * mp.log(mp.log1p(t))

        c = log_tk(max(r, s))

        def g(t, od, oD):
            log_q = mp.log(od * (t + d) * oD * (D + t) * scale)
            return mp.exp(log_tk(t) - c + e * log_q)

        cuts = [mp.log(d) - 4, mp.log(d) + 4] if d < m * mp.exp(-4) else []
        near = mp.quad(lambda x: g(d + mp.exp(x), mp.exp(x), 2 * m - mp.exp(x)) * mp.exp(x),
                       [-mp.inf] + cuts + [mp.log(m)])
        far = mp.quad(lambda v: g(D - v * v, 2 * m - v * v, v * v) * 2 * v, [0, mp.sqrt(m)])
        return float((near + far) * mp.exp(c) / (r * s))


def angular_cos_mpmath(N, alpha, beta, M, rho):
    """angular(M, rho M) = int_{-1}^1 K(M sqrt((1-rho)^2 + 2 rho (1-x))) (1-x^2)^((N-3)/2) dx in
    mpmath, scaled by K(M) (mp.quad stops on an absolute error)."""
    with mp.workdps(40):
        M, rho, e = mp.mpf(M), mp.mpf(rho), mp.mpf(N - 3) / 2

        def log_k(t):
            return beta * mp.log(mp.log1p(t)) - alpha * mp.log(t)

        c = log_k(M)

        def f(x):
            return mp.exp(log_k(M * mp.sqrt((1 - rho) ** 2 + 2 * rho * (1 - x))) - c + e * mp.log1p(-x * x))

        return float(mp.quad(f, mp.linspace(-1, 1, 9)) * mp.exp(c))


def ball_riesz_closed_form(alpha, r):
    """(K * 1_B)(r) in R^3 for K = t^(-alpha), from the N = 3 angular factor
    ((r+s)^c - |r-s|^c) / (c r s), c = 2 - alpha, in 60-digit arithmetic."""
    with localcontext() as ctx:
        ctx.prec = 60
        a, r = Decimal(alpha), Decimal(r)
        c = 2 - a

        def F(x):
            return x ** (c + 2) / (c + 2)

        def G(x):
            return x ** (c + 1) / (c + 1)

        near = F(r + 1) - F(r) - r * (G(r + 1) - G(r))
        if r <= 1:
            far = r * G(r) - F(r) + F(1 - r) + r * G(1 - r)
        else:
            far = r * (G(r) - G(r - 1)) - (F(r) - F(r - 1))
        pi = Decimal("3.14159265358979323846264338327950288419716939937510582097494")
        return float(2 * pi * (near - far) / (c * r))


def tail_oracle(N, alpha, beta, sigma, kappa, A, R):
    """int_R^inf (A+s)^-sigma log(A+s)^kappa s^(N-1) K(s) ds in 30 digits: mpmath in
    x = log s on [log R, 300], and past x = 300, where A e^-x < 1e-128, the closed form
    of int x^k e^(gap x) dx, k = beta + kappa, gap = N - alpha - sigma.  mpmath's quad
    stops on an absolute error, so the head is integrated relative to its value at log R."""
    gap, k = N - alpha - sigma, mp.mpf(beta) + kappa
    with mp.workdps(30):
        def g(x):
            a, b = mp.log1p(A * mp.exp(-x)), mp.log1p(mp.exp(-x))
            return mp.exp(gap * x - sigma * a) * (x + a) ** kappa * (x + b) ** beta
        L = mp.log(R)
        breaks = [L + 2 ** j - 1 for j in range(9) if L + 2 ** j - 1 < 300] + [300]
        scale = g(L)
        head = scale * mp.quad(lambda x: g(x) / scale, breaks)
        if gap == 0.0:
            return head + mp.mpf(300) ** (k + 1) / -(k + 1)
        return head + mp.gammainc(k + 1, -gap * 300) / mp.mpf(-gap) ** (k + 1)


def log_cusp_oracle(r):
    """(K * 1_B)(r) for K(t) = t^-2 in R^3 and the unit ball B, in 30 digits: the
    closed form 2 pi [1 + (1 - r^2)/(2r) log|(1+r)/(1-r)|], which cancels in floats
    for r >> 1."""
    with mp.workdps(30):
        r = mp.mpf(r)
        return 2 * mp.pi * (1 + (1 - r * r) / (2 * r) * mp.log(abs((1 + r) / (1 - r))))


def case2_potential(r: float) -> float:
    """u(r) for (N, gamma, tau, A) = (3, 3, -0.875, 10) by mpmath at 30 digits:
    u = M/r + T with T = int_(log w(r))^inf e^-x x^tau dx (x = log w, s ds = w dw)
    and M = int_0^r s^2 v ds, in x = log s past s = 1."""
    with mp.workdps(30):
        A, tau = mp.mpf(10), mp.mpf(-0.875)
        total = mp.quad(lambda x: mp.exp(-x) * x ** tau, [mp.log(mp.sqrt(A + mp.mpf(r) ** 2)), mp.inf])
        if r == 0.0:
            return float(total)

        def shell(s):
            w = mp.sqrt(A + s * s)
            return s * s * w ** -3 * mp.log(w) ** tau

        mass = mp.quad(shell, [0, min(mp.mpf(r), 1)])
        if r > 1.0:
            mass += mp.quad(lambda x: mp.exp(x) * shell(mp.exp(x)), mp.linspace(0, mp.log(r), 60))
        return float(mass / r + total)

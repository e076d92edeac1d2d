"""Evaluate the log-weighted Riesz potential of two radial sources.

The first source is the indicator of the unit ball, for which the
Newtonian case (N=3, alpha=1, beta=0) has the closed form

    (K * f)(r) = (4 pi / 3) / max(r, 1),

so the printed relative errors measure raw quadrature quality.  The
second source decays like (A+r)^(-2.2), slow enough that the tail of
the integral, not the mass near the origin, controls the far field.
"""

import math

import numpy as np

from logriesz import KernelParams, ball_profile, convolve_radial, power_profile

kernel = KernelParams(N=3, alpha=1.0, beta=0.0)
ball = ball_profile(1.0)
mass = 4.0 * math.pi / 3.0

print("unit ball against the Newtonian kernel")
print(f"{'r':>10} {'computed':>24} {'closed form':>24} {'rel err':>10}")
for r in (0.5, 1.0, 2.0, 10.0, 1e3, 1e6):
    res = convolve_radial(kernel, ball, r)
    if r >= 1.0:
        exact = mass / r
        rel = abs(res.value - exact) / exact
        print(f"{r:>10g} {res.value:>24.17g} {exact:>24.17g} {rel:>10.2e}")
    else:
        # inside the ball the potential flattens out
        print(f"{r:>10g} {res.value:>24.17g} {'(interior)':>24} {'':>10}")

# A slowly decaying source: the convolution inherits the tail exponent
# N - alpha - sigma = -0.2 instead of the mass exponent -alpha = -1.
slow = power_profile(2.2, 0.0, A=3.0)
print()
print("slow tail (sigma=2.2): local slope of log value vs log r")
radii = np.geomspace(1e2, 1e8, 7)
values = convolve_radial(kernel, slow, radii).value
for i in range(1, len(radii)):
    slope = (math.log(values[i]) - math.log(values[i - 1])) / (
        math.log(radii[i]) - math.log(radii[i - 1]))
    print(f"  r in [{radii[i-1]:9.3g}, {radii[i]:9.3g}]  slope = {slope:+.4f}")
print("expected limit slope: -0.2")

"""Bootstrap a lower bound by iterating the convolution once.

Any positive solution dominates a multiple of max(1, r)^(2-N) far out
(a Harnack-type floor).  Feeding that floor through u -> K * u^p gives a
second, usually stronger, floor whose decay exponents are predictable.
The chain probe evaluates one such step and fits the resulting decay.

Also shown: the two cheap geometric probes the nonexistence arguments
lean on, a cutoff-drift constant that stays bounded as the annulus
scales, and the p-mass of a truncated Newtonian profile.
"""

import numpy as np

from logriesz import KernelParams, lower_bound_chain
from logriesz import TestFunctionSpec, harnack_mass, test_function_bound
from logriesz.convolution import RadialProfile
from logriesz.kernel import AsymptoticSpec

# one bootstrap step for the Newtonian kernel, supercritical p
chain = lower_bound_chain(3, 1.0, 0.0, 3.0, np.geomspace(1e3, 1e7, 8))
print("chain step with p = 3 (seed floor max(1,r)^-1 cubed):")
print(f"  predicted decay : r^{chain.predicted.power:+g} "
      f"log^{chain.predicted.logpower:+g} r")
print(f"  fitted decay    : r^{chain.fitted.power_est:+.4f} "
      f"log^{chain.fitted.logpower_est:+.4f} r")

# drift constant of the squared cutoff, three annulus scales
spec_kwargs = dict(k=5, delta=2.0)
print()
print("cutoff drift constant C(R) at lam = 5:")
for R in (10.0, 100.0, 1000.0):
    c = test_function_bound(TestFunctionSpec(R=R, **spec_kwargs), 5.0, N=3)
    print(f"  R = {R:>6g}   C = {c:.6g}")

# p-mass of the truncated Newtonian floor over growing balls
floor = RadialProfile(
    lambda s: -np.log(np.maximum(s, 1.0)),
    infinity_spec=AsymptoticSpec(-1.0, 0.0),
    scale=1.0,
    positive_mass_near_zero=True,
)
print()
print("first-power mass of min(1, 1/r) over B_R (grows like R^2):")
for R in (10.0, 100.0):
    m = harnack_mass(floor, 1.0, R, N=3)
    print(f"  R = {R:>6g}   mass = {m.mass:.8f}   mass/R^2 = {m.mass / R**2:.6f}")

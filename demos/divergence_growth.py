"""Watch a nonexistence certificate diverge.

In the regimes where no positive solution exists, an averaged quantity
over balls of radius R must stay bounded for a solution, yet grows
without bound.  The probe evaluates that quantity on a log grid of R and
reports the growth ratio between the last and first entries.
"""

import numpy as np

from logriesz import divergence_certificate

# supercritical power clause: certificate grows like a power of R
series = divergence_certificate(3, 2.0, 2.0, 0.0, 0.0)
print(f"clause {series.clause}: power-type growth")
print(f"  R from {series.radii[0]:g} to {series.radii[-1]:g} "
      f"({len(series.radii)} points)")
print(f"  strictly increasing: {series.strictly_increasing}")
print(f"  growth ratio       : {series.growth_ratio:.6g}")

print("  as a CSV file: logriesz probe --kind certificate --N 3 --p 2 --q 2 --alpha 0 --beta 0 "
      "--out certificate_power.csv")
print()

# borderline clause: growth is only logarithmic, still unbounded
series = divergence_certificate(3, 4.0, 2.0, 0.0, 7.0)
print(f"clause {series.clause}: log-type growth")
print(f"  strictly increasing: {series.strictly_increasing}")
print(f"  growth ratio       : {series.growth_ratio:.6g}")

# theta-averaged variant used when the exponents sit inside the window
series = divergence_certificate(3, 3.0, 3.0, 0.0, -0.5, theta=0.25,
                                R_list=np.geomspace(1e2, 1e8, 13))
print()
print(f"clause {series.clause} with theta = {series.theta}")
print(f"  growth ratio       : {series.growth_ratio:.6g}")

"""Where the critical time comes from, on one worked example.

The kernel margin 2(G - tG')^2 - t^2 G G'', taken over G^2, starts at 2
at t = 0 and its first zero is the critical time.  For arrivals that put
mass 1/28 on two cars (mean 1/14) everything is algebraic: t_c = 3, the
critical density is 7/8, and the zero-flux generating function value at
the critical density is 4 sqrt(6) / 9.
"""

import math
from fractions import Fraction

from parkcrit import (
    binary0k,
    classify,
    critical_quantities,
    density_from_time,
    find_critical_time,
    flux_zero_gf,
    kernel_margin,
    time_from_density,
)

law = binary0k(Fraction(1, 14))

print("margin along the time axis:")
for t in (0.5, 1.0, 2.0, 2.5, 2.9, 3.0, 3.1):
    print(f"  t = {t:4.2f}   margin = {kernel_margin(law, t):+.6f}")

info = find_critical_time(law)
print(f"\nfirst zero at t_c = {info.t:.12f} (margin vanishes: {info.margin_vanishes})")

q = critical_quantities(law)
print(f"critical density x_c = {q.crit_density:.12f}  (exact value 7/8 = {7/8})")
print(f"zero-flux gf at x_c  = {q.gf_at_crit:.12f}  (exact value 4*sqrt(6)/9 = {4*math.sqrt(6)/9:.12f})")

r = classify(law)
print(f"\nregime: {r.regime}")
print(f"empty prob p = {r.empty_prob}")
print(f"occupied-no-flux prob = {r.occupied_no_flux_prob:.12f}")

# the density curve is increasing up to t_c and inverts cleanly
print("\ndensity along the way to t_c, and the round trip back:")
for frac in (0.25, 0.5, 0.75, 1.0):
    t = frac * info.t
    x = density_from_time(law, t)
    back = time_from_density(law, x)
    print(f"  t = {t:.4f} -> x = {x:.6f} -> t = {back:.4f}")

# the fixed point identity mu0 * x * F0(x)^2 = 1 pins the empty probability
x = r.empty_prob
residual = float(law.mu0) * x * flux_zero_gf(law, x) ** 2 - 1
print(f"\nfixed point residual at p: {residual:.3e}")

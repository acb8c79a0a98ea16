"""Tour of the regime classifier across all built-in families.

Each arrival law gets sorted into subcritical / critical / supercritical,
and for the non-supercritical ones we print the root-is-empty probability.
Run it from anywhere, it only needs the installed package.
"""

from fractions import Fraction

from parkcrit import classify, find_alpha_c, binary0k, geometric, nongeneric_example, poisson

laws = [
    binary0k(Fraction(1, 28)),          # half the critical mean
    binary0k(Fraction(1, 14)),          # exactly critical
    binary0k(Fraction(1, 7)),           # twice the critical mean
    binary0k(Fraction(1, 20), k=3),
    poisson(0.1),
    poisson(3 - 2 * 2 ** 0.5),          # critical mean for poisson arrivals
    poisson(0.25),
    geometric(Fraction(1, 8)),
    geometric(0.05),
    nongeneric_example(1),
    nongeneric_example(0.1),
]

print(f"{'law':38s} {'regime':14s} {'t_c':10s} {'empty prob':10s}")
for law in laws:
    r = classify(law)
    t_c = f"{r.critical_time:.6f}" if r.critical_time is not None else "-"
    p = f"{r.empty_prob:.6f}" if r.empty_prob is not None else "-"
    print(f"{law.describe():38s} {r.regime:14s} {t_c:10s} {p:10s}")

print()
print("critical mean per family (root search on the regime gap):")
for family, k in (("binary0k", 2), ("binary0k", 3), ("poisson", None), ("geometric", None)):
    a = find_alpha_c(family, k=k)
    label = family if k is None else f"{family} k={k}"
    print(f"  {label:14s} alpha_c = {a:.9f}")

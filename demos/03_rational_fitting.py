"""Exact rational interpolation, from samples to whole maps.

A rational function of degree d is pinned down by its values at 2d+1
distinct nodes: multiplying through by the denominator turns interpolation
into a homogeneous linear system.  Whole projective maps are fitted the
same way, with all components in one system per degree, and a function
P/Q of two variables is the map [Q : P] to RP^1, fitted as such.
"""

from fractions import Fraction

from planarize import reduce_map, variables
from planarize.jetplan import ExactMapSource
from planarize.ratfit import fit_bi, fit_map, fit_uni, DegreeTooLow

# One variable: recover (u^2 + 1)/(u - 2) from five exact samples.
planted = lambda u: Fraction(u * u + 1, u - 2)
samples = [(u, planted(u)) for u in (0, 1, 3, 4, 5)]
fit = fit_uni(samples, 2)
print("univariate:", list(fit.num), "/", list(fit.den))

# Degree bounds are honest: a cubic cannot masquerade as degree 2.
try:
    fit_uni([(u, u**3) for u in range(7)], 2)
except DegreeTooLow as exc:
    print("cubic at degree 2 rejected:", exc)

# Two variables: f = P/Q is fitted as the graph map [1 : f] = [Q : P].
g = fit_bi(lambda u, v: Fraction(u + v) / Fraction(1 + u * u), 2)
print("bivariate numerator:", g.num)
print("bivariate denominator:", g.den)

# A whole map: sample a quadratic RP^2 -> RP^3 on a grid and rebuild it.
x0, x1, x2 = variables(3)
F = reduce_map([x0 * x0, x0 * x1, x0 * x2, x1 * x2])
model = fit_map(ExactMapSource(F), 2)
print("map recovered exactly:", model.projectively_equal(F))

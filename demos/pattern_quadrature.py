#!/usr/bin/env python3
"""Check the sampler-free integration oracle against the closed forms.

outcome_probabilities() integrates the detector patterns directly (exact
r-segments between the pattern cuts, Gauss-Legendre in phi), so it shares
no sampling code with the Monte Carlo engine.  Its 3x3 joint table,
no-detection cells included, should land on the closed-form joint_table()
to near machine precision for every pattern kind.
"""

import math

from singlet_lhv import PatternKind, joint_table, solve_params
from singlet_lhv.quadrature import outcome_probabilities

THETA = math.pi / 3.0
SIGNS = {-1: "-", 0: "0", 1: "+"}

for name, kind, eta, v in (
    ("sinusoidal", PatternKind.SYMMETRIZED_SINUSOIDAL, 0.7, 0.8),
    ("staircase", PatternKind.SYMMETRIZED_STAIRCASE, 0.7, 0.8),
    ("unsymmetrized", PatternKind.UNSYMMETRIZED_SINUSOIDAL, 0.7, 1.0),
):
    params = solve_params(eta, v, kind)
    # Both tables are indexed [o1 + 1, o2 + 1]; row and column 1 hold no detection.
    table = outcome_probabilities(params, 0.25, 0.25 + THETA).table
    oracle = joint_table(params, THETA)
    print(f"--- {name}, eta = {eta}, v = {v}, theta = pi/3 ---")
    print("cell   integrated          closed form         |diff|")
    for o1 in (1, -1, 0):
        for o2 in (1, -1, 0):
            got = table[o1 + 1, o2 + 1]
            want = oracle[o1 + 1, o2 + 1]
            print(f"{SIGNS[o1]}{SIGNS[o2]}     {got:.15f}  {want:.15f}  {abs(got - want):.2e}")
    for station, rates in ((1, table.sum(axis=1)), (2, table.sum(axis=0))):
        print(f"station {station} detects {rates[0] + rates[2]:.12f} of pairs")
    print(f"total mass: {table.sum():.15f}\n")

# The unsymmetrized pattern is one-sided: station one carries the sinusoid
# (detection rate 2a/pi) and never fires alone; station two is the flat band
# (rate b).  Conditioned on coincidence it still gives the full -cos(theta).
params = solve_params(0.7, 1.0, PatternKind.UNSYMMETRIZED_SINUSOIDAL)
print(f"unsymmetrized: 2a/pi = {2 * params.a / math.pi:.12f}, b = {params.b}")
table = outcome_probabilities(params, 0.0, THETA).table
(p_mm, _, p_mp), _, (p_pm, _, p_pp) = table.tolist()
corr = (p_pp - p_pm - p_mp + p_mm) / (p_pp + p_pm + p_mp + p_mm)
print(f"conditional correlation {corr:.12f} vs -cos(pi/3) = {-math.cos(THETA):.12f}")

"""Parametrized solution families of y1^2 = y2^3 and a tower deformation.

Given one solution of y1^2 = y2^3 over a single variable, the whole
one-parameter family through it can be written down from the valuation of
the first component; verification is pure substitution with computed
residuals.  The same machinery verifies a solution family of a tower's
preparation identities and builds the deformation F(t, x).
"""

from equijet import Jet, VarContext
from equijet.deform import TowerSolution, binomial_family, build_deformation
from equijet.tower import build_tower, check_family

X = VarContext.make(["x"])
x = Jet.variable(X, "x")

print("== the binomial family through (x^6, x^4) ==")
sf, rep = binomial_family(x ** 6, x ** 4)
print(f"family : ({sf.family[0]}, {sf.family[1]})")
print(f"witness: {sf.witness[0]}")
print(f"equation residuals: {[str(r) for r in rep.equation_residuals]}")
print(f"target residuals  : {[str(r) for r in rep.target_residuals]}")
print(f"passes: {rep.passed}")

print()
print("== a tower solution with genuine auxiliary dependence ==")
ctx = VarContext.make(["x1", "x2"])
x1 = Jet.variable(ctx, "x1")
x2 = Jet.variable(ctx, "x2")
germ = x2 ** 2 - x1 ** 4 * (1 + x1 ** 2)
tower = build_tower(germ)
print(f"germ  : {germ}")
print(f"tower : degrees {tower.degree_sequence}, indices {tower.index_sequence}")

fam_ctx = VarContext.make(["x1", "x2", "z1"])
fx1 = Jet.variable(fam_ctx, "x1")
fz = Jet.variable(fam_ctx, "z1")
zero = Jet.zero(fam_ctx)
solution = TowerSolution(
    tower=tower,
    families={2: (zero, -(fx1 ** 4) * (1 + fz)), 1: (zero,) * 4},
    units={1: Jet.constant(fam_ctx, 4) * (1 + fz), 0: Jet.constant(fam_ctx, 4)},
    witness=(Jet.variable(ctx, "x1") ** 2,),
    z_names=("z1",),
    tau={1: 1, 0: 0},
)
result = build_deformation(solution)
print(f"deformation     : {result.deformation}")
print(f"fiber at t = 1  : matches the prepared germ: {result.fiber_one_matches}")
print(f"fiber at t = 0  : {result.fiber_zero}   (polynomial: {result.fiber_zero_polynomial})")
family_verdict = check_family(result.deformation)
print(f"family check    : {family_verdict.verdict}")

"""Divisor analysis of the 1-form of a two-variable meromorphic germ.

For f/g in factored form, the reduced logarithmic form theta is computed by
exact division; its divisors pair with constants c (h divides f - c g with
one extra power), the reduced form omega has a constant coefficient gcd,
and the relations are emitted as a polynomial system satisfied exactly by
the factors, divisors, and cofactors.
"""

from fractions import Fraction

from equijet import Jet, VarContext
from equijet.deform import SolutionFamily
from equijet.mero import FactoredGerm, analyze, build_mero_deformation, emit_system
from equijet.scalars import scalar_to_text

ctx = VarContext.make(["x1", "x2"])
x1 = Jet.variable(ctx, "x1")
x2 = Jet.variable(ctx, "x2")

f = FactoredGerm.build([(x1, 1), (x2, 1)])      # x1 * x2
g = FactoredGerm.build([(x1 + x2, 2)])          # (x1 + x2)^2

print("== analysis of (x1*x2) / (x1+x2)^2 ==")
an = analyze(f, g)
print(f"theta = ({an.theta.a}) dx1 + ({an.theta.b}) dx2")
for rec in an.records:
    print(f"divisor h = {rec.h}: c = {scalar_to_text(rec.c)}, mu = {rec.mu}, "
          f"cofactor rho = {rec.rho}")
print(f"omega = ({an.omega.a}) dx1 + ({an.omega.b}) dx2   "
      "(coefficient gcd is constant: isolated singularity)")
print(f"reality of the constants: {an.reality}")

print()
print("== the emitted polynomial system ==")
sysS = emit_system(an)
for lhs, rhs in sysS.equations:
    print(f"  {lhs} = {rhs}")
print("reference solution: "
      + ", ".join(str(s) for s in sysS.solution))
subst = {name: s.with_order(40) for name, s in zip(sysS.y_ctx.names, sysS.solution)}
residuals = [(lhs - rhs).compose(subst, allow_constant=True) for lhs, rhs in sysS.equations]
print(f"substitution check: {all(r.is_zero() and r.exact for r in residuals)}")

print()
print("== deformation slices of the identity family ==")
y_names = sysS.y1_names + sysS.y2_names + sysS.y3_names + sysS.y4_names
sys_ctx = VarContext.make(ctx.names + y_names)
family = SolutionFamily(
    x_names=ctx.names, y_names=y_names, z_names=(),
    system=tuple((lhs - rhs).in_context(sys_ctx) for lhs, rhs in sysS.equations),
    family=tuple(s.in_context(ctx) for s in sysS.solution),
    witness=(),
    target=tuple(s.in_context(ctx) for s in sysS.solution))
report = build_mero_deformation(an, family, [Fraction(0), Fraction(1, 2), Fraction(1)],
                                k0=4)
for sl in report.slices:
    print(f"  t = {scalar_to_text(sl.t_value)}: divisions exact {sl.division_exact}, "
          f"isolated singularity {sl.isolated_singularity}, "
          f"polynomial data {sl.polynomial_data}")

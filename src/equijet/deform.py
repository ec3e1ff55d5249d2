"""Verification of parametrized solution families and deformation building.

A :class:`SolutionFamily` packages a polynomial system ``f(x, y)``, a family
of candidate solutions ``y(x, z)`` in auxiliary variables ``z``, a witness
``z(x)`` vanishing at the origin, and the target solution ``y_hat(x)`` the
family is supposed to pass through.  Verification is pure substitution: the
residuals are computed, never thresholded.  One nesting rule, ``_nesting``,
serves :func:`verify_nested` and :func:`build_deformation`: a component may
use only its x-prefix and z-prefix, and the witness of each z in that prefix
only the same x-prefix.

General solution *synthesis* is out of scope; the one constructive case
carried here is the binomial family for ``y1^2 = y2^3`` over a single
variable, where the whole family can be written down from the valuation of
the target.  On top of that, :func:`build_deformation` turns a verified
solution of a tower's discriminant/preparation identities into the
one-parameter deformation ``F(t, x)`` whose ``t = 1`` fiber is the original
distinguished polynomial and whose ``t = 0`` fiber has the witness set to
zero.  A failed identity or nesting raises :class:`NotASolutionError`;
malformed input (a tower with a parameter or without levels, witness entries
off the origin or not one per z-variable, ``tau`` negative or beyond the
z-variables, a missing or ill-sized family, a missing unit) raises
:class:`PreconditionError`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Mapping, Optional, Tuple

from .errors import (
    ContextMismatchError,
    NotASolutionError,
    PreconditionError,
)
from .jets import INFINITE_ORDER, Jet, VarContext
from .pseudopoly import PseudoPolynomial, generalized_discriminants
from .scalars import scalar_inverse, scalar_nth_root
from .tower import Tower, TowerLevel


@dataclass(frozen=True)
class SolutionFamily:
    """A system, a parametrized family of solutions, and the target it hits.

    Contexts are rigid by construction: system entries live in
    ``(x..., y...)``, family entries in ``(x..., z...)``, witness and target
    entries in ``(x...)``, with the names supplied explicitly.
    """

    x_names: Tuple[str, ...]
    y_names: Tuple[str, ...]
    z_names: Tuple[str, ...]
    system: Tuple[Jet, ...]
    family: Tuple[Jet, ...]
    witness: Tuple[Jet, ...]
    target: Tuple[Jet, ...]

    def __post_init__(self):
        if len(self.family) != len(self.y_names):
            raise PreconditionError("one family entry per y-variable is required")
        if len(self.witness) != len(self.z_names):
            raise PreconditionError("one witness entry per z-variable is required")
        if len(self.target) != len(self.y_names):
            raise PreconditionError("one target entry per y-variable is required")
        sys_ctx = VarContext.make(self.x_names + self.y_names)
        fam_ctx = VarContext.make(self.x_names + self.z_names)
        x_ctx = VarContext.make(self.x_names)
        for eq in self.system:
            if eq.ctx != sys_ctx:
                raise ContextMismatchError("system entry context must be (x..., y...)")
        for comp in self.family:
            if comp.ctx != fam_ctx:
                raise ContextMismatchError("family entry context must be (x..., z...)")
        for w in self.witness:
            if w.ctx != x_ctx:
                raise ContextMismatchError("witness context must be (x...)")
            if w.constant_term():
                raise PreconditionError("witness entries must vanish at the origin")
        for tgt in self.target:
            if tgt.ctx != x_ctx:
                raise ContextMismatchError("target context must be (x...)")

    @property
    def x_ctx(self) -> VarContext:
        return VarContext.make(self.x_names)


@dataclass(frozen=True)
class NestedShape:
    """Per-component prefixes: solution component i may use ``x_1..x_sigma(i)``
    and ``z_1..z_tau(i)``; both maps must be nondecreasing."""

    sigma: Tuple[int, ...]
    tau: Tuple[int, ...]

    def __post_init__(self):
        for seq, label in ((self.sigma, "sigma"), (self.tau, "tau")):
            if any(b < a for a, b in zip(seq, seq[1:])):
                raise PreconditionError(f"{label} must be nondecreasing")
            if any(v < 0 for v in seq):
                raise PreconditionError(f"{label} must be nonnegative")


@dataclass(frozen=True)
class FamilyVerification:
    equation_residuals: Tuple[Jet, ...]
    target_residuals: Tuple[Jet, ...]
    order: int

    @property
    def equations_hold(self) -> bool:
        return all(r.is_zero() for r in self.equation_residuals)

    @property
    def target_hit(self) -> bool:
        return all(r.is_zero() for r in self.target_residuals)

    @property
    def passed(self) -> bool:
        return self.equations_hold and self.target_hit


def verify_family(sf: SolutionFamily, order: Optional[int] = None) -> FamilyVerification:
    """Check ``f(x, y(x,z)) == 0`` and ``y(x, z(x)) == y_hat(x)`` modulo the
    order, reporting the residuals themselves."""
    subst = dict(zip(sf.y_names, sf.family))
    eq_residuals = []
    for eq in sf.system:
        res = eq.compose(subst, allow_constant=True)
        if order is not None:
            res = res.truncate(order)
        eq_residuals.append(res)
    wsubst = dict(zip(sf.z_names, sf.witness))
    tgt_residuals = []
    for comp, tgt in zip(sf.family, sf.target):
        through = comp.compose(wsubst) if wsubst else comp.in_context(sf.x_ctx)
        res = through - tgt
        if order is not None:
            res = res.truncate(order)
        tgt_residuals.append(res)
    all_orders = [r.order for r in eq_residuals + tgt_residuals]
    return FamilyVerification(tuple(eq_residuals), tuple(tgt_residuals),
                              order=min(all_orders) if all_orders else (order or 0))


@dataclass(frozen=True)
class NestingViolation:
    component: str
    variable: str
    reason: str


def _nesting(component: str, jet: Jet, xs: Tuple[str, ...], zs: Tuple[str, ...],
             witness: Tuple[Jet, ...]) -> List[NestingViolation]:
    """The nesting rule: ``jet`` uses only the x-prefix ``xs`` and the
    z-prefix ``zs``, and the witness of each z in ``zs`` (``witness`` is
    aligned with the z-variables) uses only ``xs``."""
    out = [NestingViolation(component, name, f"component {component} may only use "
                                             f"x-prefix {len(xs)} and z-prefix {len(zs)}")
           for name in jet.occurring() if name not in xs + zs]
    return out + [NestingViolation(z, name, f"witness {z} must depend only on x-prefix "
                                            f"{len(xs)} (required by {component})")
                  for z, w in zip(zs, witness) for name in w.occurring() if name not in xs]


def verify_nested(sf: SolutionFamily, shape: NestedShape,
                  order: Optional[int] = None):
    """Run :func:`verify_family` and additionally check the nested shape:
    component i uses only its allowed x- and z-prefix, and every z the
    component may use depends only on the same x-prefix."""
    if len(shape.sigma) != len(sf.y_names) or len(shape.tau) != len(sf.y_names):
        raise PreconditionError("shape length must match the number of y-components")
    if shape.tau and max(shape.tau) > len(sf.z_names):
        raise PreconditionError("tau exceeds the number of z-variables")
    if shape.sigma and max(shape.sigma) > len(sf.x_names):
        raise PreconditionError("sigma exceeds the number of x-variables")
    violations: List[NestingViolation] = []
    for y, comp, sigma, tau in zip(sf.y_names, sf.family, shape.sigma, shape.tau):
        violations += _nesting(y, comp, sf.x_names[:sigma], sf.z_names[:tau], sf.witness)
    return verify_family(sf, order), tuple(violations)


def jet_nth_root(a: Jet, n: int) -> Jet:
    """Exact n-th root of a single-variable jet, coefficient by coefficient
    from the lowest term.

    The jet must have a finite order, its valuation must be divisible by n
    and its leading coefficient must have an n-th root in the scalar field.
    """
    if len(a.ctx.names) != 1:
        raise PreconditionError("root extraction is implemented for one variable")
    if a.is_zero():
        raise NotASolutionError("cannot extract a root of zero")
    val = a.order_of()
    if val % n:
        raise NotASolutionError(f"valuation {val} is not divisible by {n}")
    x = a.ctx.names[0]
    lead = a.coefficient((val,))
    lead_root = scalar_nth_root(lead, n)
    if lead_root is None:
        raise NotASolutionError(
            f"leading coefficient {lead} has no {n}-th root in the scalar field")
    if a.order == INFINITE_ORDER:
        raise PreconditionError("root extraction needs a finite order")
    # a = lead * x^val * (1 + B); solve (1 + C)^n = 1 + B degree by degree
    u = a.shift(x, -val).scale(scalar_inverse(lead))
    # w ** n is formed again only when w changes; the starting constant 1
    # is its own n-th power
    w = power = Jet.constant(a.ctx, 1, u.order, exact=False)
    for d in range(1, u.order):
        coeff = (u - power).coefficient((d,))
        if coeff:
            w = w + Jet.monomial(a.ctx, (d,), coeff * Fraction(1, n), order=u.order)
            power = w ** n
    root = w.scale(lead_root).shift(x, val // n)
    # certify exactness when the power genuinely reproduces the input
    if a.exact:
        lifted = Jet.polynomial(a.ctx, root.graded_items(), a.order)
        if (lifted.with_order(INFINITE_ORDER) ** n - a.with_order(INFINITE_ORDER)).is_zero():
            return lifted
    if ((root ** n) - a.truncate(root.order)).is_zero():
        return root
    raise NotASolutionError(f"input is not an exact {n}-th power to its order")


def binomial_family(y1_hat: Jet, y2_hat: Jet) -> Tuple[SolutionFamily, FamilyVerification]:
    """The explicit one-z family through a solution of ``y1^2 = y2^3`` over a
    single variable, with its verification.

    With d the valuation of the first target component (necessarily a
    multiple of 3) and ``e = d/3 - 1``, the family is
    ``(x^{3e} z^3, x^{2e} z^2)`` and the witness is the cube root of
    ``y1_hat / x^{3e}``.  Returns ``(family, verification)``, the
    verification being :func:`verify_family` at the targets' least order,
    which has passed: a family that does not reproduce the targets raises
    :class:`NotASolutionError`.
    """
    if y1_hat.ctx != y2_hat.ctx or len(y1_hat.ctx.names) != 1:
        raise PreconditionError("targets must share a single-variable context")
    if y1_hat.is_zero():
        raise NotASolutionError("first target component vanishes to its order")
    x_name = y1_hat.ctx.names[0]
    if not (y1_hat ** 2 - y2_hat ** 3).is_zero():
        raise NotASolutionError("targets do not satisfy y1^2 = y2^3 to the order")
    d = y1_hat.order_of()
    if d % 3:
        raise NotASolutionError(f"valuation {d} of the first component is not in 3Z")
    if not d:
        raise NotASolutionError("the targets are units; the family needs a witness "
                                "that vanishes at the origin")
    e = d // 3 - 1
    witness = jet_nth_root(y1_hat.shift(x_name, -3 * e), 3)
    order = min(y1_hat.order, y2_hat.order)
    # the report prints the witness at the targets' order
    witness = witness.with_order(order) if witness.exact else witness.truncate(order)

    x_names = (x_name,)
    y_names = ("y1", "y2") if x_name not in ("y1", "y2") else ("yy1", "yy2")
    z_names = ("z",)
    fam_ctx = VarContext.make(x_names + z_names)
    sys_ctx = VarContext.make(x_names + y_names)
    z = Jet.variable(fam_ctx, "z", order)
    xv = Jet.variable(fam_ctx, x_name, order)
    family = (z ** 3, z ** 2)
    if e:
        family = (xv ** (3 * e) * family[0], xv ** (2 * e) * family[1])
    system = (Jet.variable(sys_ctx, y_names[0], order) ** 2
              - Jet.variable(sys_ctx, y_names[1], order) ** 3,)
    sf = SolutionFamily(
        x_names=x_names, y_names=y_names, z_names=z_names,
        system=system, family=family,
        witness=(witness,),
        target=(y1_hat, y2_hat))
    check = verify_family(sf, order)
    if not check.passed:
        raise NotASolutionError("extracted family does not reproduce the targets")
    return sf, check


# -- deformation of a tower solution ------------------------------------


@dataclass(frozen=True)
class TowerSolution:
    """A parametrized solution of a tower's preparation identities.

    ``families`` maps a level index (as in the tower) to the families for
    that level's coefficient vector, in the family context ``(x..., z...)``;
    ``units`` maps the level index *below* each descent to the unit family.
    ``tau`` bounds the z-prefix allowed at each level; witnesses in the
    prefix of level i must depend on ``x_1..x_i`` only.
    """

    tower: Tower
    families: Mapping[int, Tuple[Jet, ...]]
    units: Mapping[int, Jet]
    witness: Tuple[Jet, ...]
    z_names: Tuple[str, ...]
    tau: Mapping[int, int]


@dataclass(frozen=True)
class DeformationResult:
    deformation: Jet
    parameter: str
    fiber_one_matches: bool
    fiber_zero: Jet
    fiber_zero_polynomial: bool


def _family(tsol: TowerSolution, level: TowerLevel, fam_ctx: VarContext) -> PseudoPolynomial:
    """The family of ``level`` as a pseudopolynomial in ``(x..., z...)``."""
    fam = tsol.families.get(level.index)
    if fam is None or len(fam) != level.degree:
        raise PreconditionError(f"missing or ill-sized family for level {level.index}")
    return PseudoPolynomial(fam_ctx.names[level.index - 1], [c.in_context(fam_ctx) for c in fam])


def build_deformation(tsol: TowerSolution) -> DeformationResult:
    """Substitute ``z -> t * z(x)`` into the top-level coefficient families.

    One walk over the levels first verifies the families: each coefficient
    ``a[i,j]`` composed with the witness gives the tower's coefficient, and
    the descent below level i (or the terminal one) is the unit family
    ``u[k]`` times the family of level k.  ``a[i,j]`` is nested with x-prefix
    ``i - 1`` and z-prefix ``tau(i - 1)``, ``u[k]`` with ``k`` and ``tau(k)``.
    """
    tower = tsol.tower
    ctx = tower.source.ctx
    if ctx.n_params:
        raise PreconditionError("the tower must be parameter-free")
    if not tower.levels:
        raise PreconditionError("the tower has no level to deform")
    if len(tsol.witness) != len(tsol.z_names):
        raise PreconditionError("one witness entry per z-variable is required")
    if any(w.constant_term() for w in tsol.witness):
        raise PreconditionError("witness entries must vanish at the origin")
    if min(tsol.tau.values(), default=0) < 0:
        raise PreconditionError("tau must be nonnegative")
    if max(tsol.tau.values(), default=0) > len(tsol.z_names):
        raise PreconditionError("tau exceeds the number of z-variables")
    x_names = ctx.coords
    z_names = tuple(tsol.z_names)
    fam_ctx = VarContext.make(x_names + z_names)
    x_ctx = VarContext.make(x_names)
    wsubst = {name: w.in_context(x_ctx) for name, w in zip(z_names, tsol.witness)}

    def nesting(component, jet, k):
        return _nesting(component, jet, x_names[:k], z_names[:tsol.tau.get(k, 0)], tsol.witness)

    residuals: List[Jet] = []
    violations: List[NestingViolation] = []
    levels = tower.levels
    for level, below in zip(levels, levels[1:] + (None,)):
        i = level.index
        fam = _family(tsol, level, fam_ctx)
        for j, (a, want) in enumerate(zip(fam.coeffs, level.poly.coeffs), start=1):
            violations += nesting(f"a[{i},{j}]", a, i - 1)
            through = a.compose(wsubst) if wsubst else a.in_context(x_ctx)
            residuals.append(through - want.in_context(x_ctx))
        if below is None and tower.terminal_disc_index is None:
            continue
        k, l = ((below.index, below.disc_index) if below is not None
                else (tower.terminal_index, tower.terminal_disc_index))
        unit = tsol.units.get(k)
        if unit is None:
            raise PreconditionError(f"missing unit family for level {k}")
        violations += nesting(f"u[{k}]", unit, k)
        rhs = unit.in_context(fam_ctx)
        if below is not None:
            rhs = rhs * _family(tsol, below, fam_ctx).as_jet()
        residuals.extend(generalized_discriminants(fam).descent_residuals(l, rhs))

    bad = [r for r in residuals if not r.is_zero()]
    if bad:
        raise NotASolutionError(
            f"{len(bad)} tower identities fail on the supplied families; "
            f"first nonzero residual: {bad[0]}")
    if violations:
        raise NotASolutionError(
            f"nesting violated: {violations[0].reason} (variable {violations[0].variable})")

    top = levels[0]
    def_ctx = VarContext.make(x_names, params=("t",))
    tvar = Jet.variable(def_ctx, "t", tower.order)
    subst = {name: tvar * w.in_context(def_ctx) for name, w in zip(z_names, tsol.witness)}
    v = Jet.variable(def_ctx, x_names[top.index - 1], tower.order)
    F = v ** top.degree
    for j, a in enumerate(_family(tsol, top, fam_ctx).coeffs, start=1):
        F = F + (a.compose(subst) if subst else a.in_context(def_ctx)) * v ** (top.degree - j)

    fiber_one = F.restrict({"t": 1}, drop=True)
    matches = (fiber_one - top.poly.as_jet().in_context(fiber_one.ctx)).is_zero()
    fiber_zero = F.restrict({"t": 0}, drop=True)
    return DeformationResult(deformation=F, parameter="t", fiber_one_matches=matches,
                             fiber_zero=fiber_zero, fiber_zero_polynomial=fiber_zero.exact)

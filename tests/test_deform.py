import re
import sys
from collections import Counter
from fractions import Fraction

import pytest

from equijet.deform import (
    NestedShape,
    SolutionFamily,
    TowerSolution,
    binomial_family,
    build_deformation,
    jet_nth_root,
    verify_family,
    verify_nested,
)
from equijet.errors import NotASolutionError, PreconditionError
from equijet.jets import INFINITE_ORDER, Jet, VarContext
from equijet.tower import build_tower, check_family

X = VarContext.make(["x"])
XZ = VarContext.make(["x", "z"])
XY = VarContext.make(["x", "y1", "y2"])


def xv(ctx=X, order=16):
    return Jet.variable(ctx, "x", order)


def cusp_system(order=16):
    return (Jet.variable(XY, "y1", order) ** 2 - Jet.variable(XY, "y2", order) ** 3,)


def make_family(family, witness, target, order=16):
    return SolutionFamily(
        x_names=("x",), y_names=("y1", "y2"), z_names=("z",),
        system=cusp_system(order), family=family, witness=witness, target=target)


def test_verify_family_binomial_example():
    z = Jet.variable(XZ, "z")
    x = Jet.variable(XZ, "x")
    sf = make_family(
        family=(x ** 3 * z ** 3, x ** 2 * z ** 2),
        witness=(xv(),),
        target=(xv() ** 6, xv() ** 4))
    rep = verify_family(sf)
    assert rep.passed
    assert all(r.is_zero() and r.exact for r in rep.equation_residuals)


def test_verify_family_whole_solution_set_shape():
    z = Jet.variable(XZ, "z")
    sf = make_family(
        family=(z ** 3, z ** 2),
        witness=(xv() ** 2,),
        target=(xv() ** 6, xv() ** 4))
    assert verify_family(sf).passed


def test_verify_family_broken_family_fails():
    z = Jet.variable(XZ, "z")
    x = Jet.variable(XZ, "x")
    sf = make_family(
        family=(x ** 3 * z ** 3, x ** 2 * z),
        witness=(xv(),),
        target=(xv() ** 6, xv() ** 3))
    rep = verify_family(sf)
    assert not rep.equations_hold
    assert not rep.equation_residuals[0].is_zero()


def test_verify_nested_passes_on_prefix_respecting_family():
    z = Jet.variable(XZ, "z")
    x = Jet.variable(XZ, "x")
    sf = make_family(
        family=(x ** 3 * z ** 3, x ** 2 * z ** 2),
        witness=(xv(),),
        target=(xv() ** 6, xv() ** 4))
    rep, violations = verify_nested(sf, NestedShape(sigma=(1, 1), tau=(1, 1)))
    assert rep.passed and not violations


def test_verify_nested_flags_offending_variable():
    ctx = VarContext.make(["x1", "x2", "z"])
    sys_ctx = VarContext.make(["x1", "x2", "y1"])
    sf = SolutionFamily(
        x_names=("x1", "x2"), y_names=("y1",), z_names=("z",),
        system=(Jet.variable(sys_ctx, "y1") - Jet.variable(sys_ctx, "y1"),),
        family=(Jet.variable(ctx, "x2") * Jet.variable(ctx, "z"),),
        witness=(Jet.variable(VarContext.make(["x1", "x2"]), "x1"),),
        target=(Jet.zero(VarContext.make(["x1", "x2"])),))
    _, violations = verify_nested(sf, NestedShape(sigma=(1,), tau=(1,)))
    assert violations
    assert violations[0].variable == "x2"


def test_verify_nested_empty_z_vacuous():
    sys_ctx = VarContext.make(["x", "y1"])
    x_only = VarContext.make(["x"])
    sf = SolutionFamily(
        x_names=("x",), y_names=("y1",), z_names=(),
        system=(Jet.variable(sys_ctx, "y1") - Jet.variable(sys_ctx, "x"),),
        family=(Jet.variable(x_only, "x"),),
        witness=(), target=(Jet.variable(x_only, "x"),))
    rep, violations = verify_nested(sf, NestedShape(sigma=(1,), tau=(0,)))
    assert rep.passed and not violations


def test_jet_nth_root_exact_cube():
    a = (xv() * (1 + xv())) ** 3
    root = jet_nth_root(a, 3)
    assert root.exact
    assert root == xv() * (1 + xv())


def test_jet_nth_root_truncated_series():
    # (1+x)^(1/2) as a jet: root of an exact non-square must still verify
    a = 1 + xv(order=6)
    root = jet_nth_root(a, 2)
    assert not root.exact
    assert ((root ** 2) - a.truncate(root.order)).is_zero()


def nth_root_series_by_powers(u, n):
    """The series loop of :func:`jet_nth_root`, forming ``w ** n`` at every
    degree from the constant 1 on."""
    w = Jet.constant(u.ctx, 1, u.order, exact=False)
    for d in range(1, u.order):
        coeff = (u - w ** n).coefficient((d,))
        if coeff:
            w = w + Jet.monomial(u.ctx, (d,), coeff * Fraction(1, n), order=u.order)
    return w


@pytest.mark.parametrize("a, n, lead_root", [
    ((xv() * (1 + xv())) ** 3, 3, 1),
    (1 + xv(order=6), 2, 1),
    (Jet(X, 9, {(4,): Fraction(1), (5,): Fraction(-3), (7,): Fraction(1)}, False), 2, 1),
    (Jet.polynomial(X, {(2,): 4, (5,): 4, (8,): 1}, 12), 2, 2),
], ids=["exact-cube", "series-root", "truncated", "exact-square"])
def test_jet_nth_root_forms_no_product_with_the_constant_1(a, n, lead_root, monkeypatch):
    # the root is the one that the loop forming w ** n at every degree
    # gives, and the starting constant 1 is never multiplied
    val = a.order_of()
    u = a.shift("x", -val).scale(Fraction(1, a.coefficient((val,))))
    expected = nth_root_series_by_powers(u, n).scale(lead_root).shift("x", val // n)
    callers = Counter()
    mul = Jet.__mul__

    def spy(x, y):
        if any(j.graded_items() == [((0,), 1)] for j in (x, y)):
            frame = sys._getframe(1)
            while frame.f_code.co_name == "__pow__":
                frame = frame.f_back
            callers[frame.f_code.co_name] += 1
        return mul(x, y)

    monkeypatch.setattr(Jet, "__mul__", spy)
    monkeypatch.setattr(Jet, "__rmul__", spy)
    root = jet_nth_root(a, n)
    assert not callers
    # an exact power is certified as the polynomial of the same terms
    assert root == (Jet.polynomial(X, expected.graded_items(), a.order) if root.exact
                    else expected)


def test_jet_nth_root_of_a_jet_known_to_every_order_is_a_precondition_error():
    # an exact square at INFINITE_ORDER has no finite degree to stop the
    # series loop at, so it is refused before the loop
    a = ((xv() * (1 + xv())) ** 2).with_order(INFINITE_ORDER)
    with pytest.raises(PreconditionError, match="root extraction needs a finite order"):
        jet_nth_root(a, 2)


def test_jet_nth_root_rejects_bad_valuation():
    with pytest.raises(NotASolutionError):
        jet_nth_root(xv() ** 2, 3)


def test_jet_nth_root_rejects_bad_leading_coefficient():
    with pytest.raises(NotASolutionError):
        jet_nth_root(xv().scale(2) ** 2 + xv() ** 2, 2)  # 5x^2 has no rational sqrt


def test_binomial_family_golden():
    sf, check = binomial_family(xv() ** 6, xv() ** 4)
    assert check == verify_family(sf, 16)
    x = Jet.variable(XZ, "x")
    z = Jet.variable(XZ, "z")
    assert sf.family == (x ** 3 * z ** 3, x ** 2 * z ** 2)
    assert sf.witness == (xv(),)
    rep = verify_family(sf)
    assert rep.passed
    assert all(r.is_zero() for r in rep.target_residuals)


def test_binomial_family_unit_series():
    y1 = (xv() * (1 + xv())) ** 3
    y2 = (xv() * (1 + xv())) ** 2
    sf, check = binomial_family(y1, y2)
    assert check == verify_family(sf, 16)
    # d = 3, e = 0, witness x(1+x)
    assert sf.witness[0] == xv() * (1 + xv())
    assert verify_family(sf).passed


def test_binomial_family_of_unit_targets_forms_no_product_by_one(monkeypatch):
    # d = 3, e = 0: the family is (z^3, z^2), with no x^0 multiplied in
    def is_one(j):
        return j.exact and j.graded_items() == [((0,) * len(j.ctx.names), 1)]

    ones = []
    mul = Jet.__mul__

    def spy(a, b):
        if isinstance(b, Jet) and (is_one(a) or is_one(b)):
            ones.append((a, b))
        return mul(a, b)

    y = xv() * (1 + xv())
    monkeypatch.setattr(Jet, "__mul__", spy)
    sf, check = binomial_family(y ** 3, y ** 2)
    monkeypatch.undo()
    z = Jet.variable(XZ, "z")
    assert sf.family == (z ** 3, z ** 2)
    assert check.passed
    assert ones == []


def test_binomial_family_rejects_bad_order():
    with pytest.raises(NotASolutionError):
        binomial_family(xv() ** 4, xv() ** 3)


def test_binomial_family_rejects_non_solution():
    with pytest.raises(NotASolutionError):
        binomial_family(xv() ** 6, xv() ** 4 + xv() ** 5)


def _cusp_trivial_solution(z_names=(), families_extra=None):
    ctx = VarContext.make(["x1", "x2"])
    f = Jet.variable(ctx, "x2") ** 2 - Jet.variable(ctx, "x1") ** 3
    tower = build_tower(f)
    x_ctx = VarContext.make(("x1", "x2"))
    fam_ctx = VarContext.make(("x1", "x2") + z_names)
    families = {
        2: tuple(c.in_context(fam_ctx) for c in tower.levels[0].poly.coeffs),
        1: tuple(c.in_context(fam_ctx) for c in tower.levels[1].poly.coeffs),
    }
    units = {
        1: tower.levels[1].unit.in_context(fam_ctx),
        0: tower.terminal_unit.in_context(fam_ctx),
    }
    return tower, families, units, fam_ctx


def test_build_deformation_trivial_family_is_constant_in_t():
    tower, families, units, _ = _cusp_trivial_solution()
    tsol = TowerSolution(tower=tower, families=families, units=units,
                         witness=(), z_names=(), tau={})
    res = build_deformation(tsol)
    assert res.fiber_one_matches
    assert res.fiber_zero_polynomial
    x_ctx = VarContext.make(["x1", "x2"])
    assert (res.fiber_zero - tower.source.in_context(x_ctx)).is_zero()
    rep = check_family(res.deformation)
    assert rep.verdict == "equisingular"


def test_build_deformation_with_genuine_z_dependence():
    # f = x2^2 - x1^4*(1+x1^2): family a(x1,z) = -x1^4*(1+z), witness z = x1^2
    ctx = VarContext.make(["x1", "x2"])
    x1 = Jet.variable(ctx, "x1")
    x2 = Jet.variable(ctx, "x2")
    f = x2 ** 2 - x1 ** 4 * (1 + x1 ** 2)
    tower = build_tower(f)
    assert tower.degree_sequence == (2, 4)

    fam_ctx = VarContext.make(["x1", "x2", "z1"])
    fx1 = Jet.variable(fam_ctx, "x1")
    fz = Jet.variable(fam_ctx, "z1")
    zero = Jet.zero(fam_ctx)
    families = {
        2: (zero, -(fx1 ** 4) * (1 + fz)),
        1: (zero, zero, zero, zero),
    }
    units = {
        1: Jet.constant(fam_ctx, 4) * (1 + fz),
        0: Jet.constant(fam_ctx, 4),
    }
    witness = (Jet.variable(VarContext.make(["x1", "x2"]), "x1") ** 2,)
    tsol = TowerSolution(tower=tower, families=families, units=units,
                         witness=witness, z_names=("z1",), tau={1: 1, 0: 0})
    res = build_deformation(tsol)
    assert res.fiber_one_matches
    assert res.fiber_zero_polynomial
    # t = 0 fiber is the z -> 0 substitution
    x_ctx = VarContext.make(["x1", "x2"])
    want = Jet.variable(x_ctx, "x2") ** 2 - Jet.variable(x_ctx, "x1") ** 4
    assert (res.fiber_zero - want).is_zero()
    rep = check_family(res.deformation)
    assert rep.verdict == "equisingular"


def test_build_deformation_degenerate_one_z_witness():
    # a one-z solution whose coefficients never use z: F stays the cusp
    tower, families, units, fam_ctx = _cusp_trivial_solution(z_names=("z1",))
    witness = (Jet.variable(VarContext.make(["x1", "x2"]), "x1"),)
    tsol = TowerSolution(tower=tower, families=families, units=units,
                         witness=witness, z_names=("z1",), tau={1: 1, 0: 0})
    res = build_deformation(tsol)
    assert res.fiber_one_matches
    x_ctx = VarContext.make(["x1", "x2"])
    cusp_jet = Jet.variable(x_ctx, "x2") ** 2 - Jet.variable(x_ctx, "x1") ** 3
    assert (res.fiber_zero - cusp_jet).is_zero()
    assert (res.deformation - cusp_jet.in_context(res.deformation.ctx)).is_zero()


def test_build_deformation_rejects_wrong_families():
    tower, families, units, fam_ctx = _cusp_trivial_solution()
    families = dict(families)
    families[1] = (Jet.zero(fam_ctx), Jet.zero(fam_ctx), Jet.constant(fam_ctx, 1))
    tsol = TowerSolution(tower=tower, families=families, units=units,
                         witness=(), z_names=(), tau={})
    with pytest.raises(NotASolutionError):
        build_deformation(tsol)


def test_build_deformation_rejects_nesting_violation():
    tower, families, units, _ = _cusp_trivial_solution(z_names=("z1",))
    # witness depends on x2 but the z-prefix allowed at level 2 must live
    # over x1 alone
    witness = (Jet.variable(VarContext.make(["x1", "x2"]), "x2"),)
    tsol = TowerSolution(tower=tower, families=families, units=units,
                         witness=witness, z_names=("z1",), tau={1: 1, 0: 0})
    with pytest.raises(NotASolutionError):
        build_deformation(tsol)


def _malformed(case):
    """The cusp's trivial one-z solution with one part broken."""
    # two z-variables for a negative tau, whose z-prefix z_names[:-1] is not empty
    z_names = ("z1", "z2") if case == "tau-negative" else ("z1",)
    tower, families, units, fam_ctx = _cusp_trivial_solution(z_names=z_names)
    families, units = dict(families), dict(units)
    x1 = Jet.variable(VarContext.make(["x1", "x2"]), "x1")
    witness, tau = (x1,) * len(z_names), {1: 1, 0: 0}
    if case == "lower-family-missing":
        del families[1]
    elif case == "tau-beyond-z":
        tau = {1: 2, 0: 0}
    elif case == "tau-negative":
        tau = {1: -1, 0: 0}
    elif case == "extra-witness":
        witness = (x1, x1)
    elif case == "no-witness":
        witness = ()
    elif case == "unit-missing":
        del units[0]
    elif case == "family-wrong-size":
        families[2] = families[2][:1]
    return TowerSolution(tower=tower, families=families, units=units,
                         witness=witness, z_names=z_names, tau=tau)


MALFORMED = {
    "lower-family-missing": "missing or ill-sized family for level 1",
    "tau-beyond-z": "tau exceeds the number of z-variables",
    "tau-negative": "tau must be nonnegative",
    "extra-witness": "one witness entry per z-variable is required",
    "no-witness": "one witness entry per z-variable is required",
    "unit-missing": "missing unit family for level 0",
    "family-wrong-size": "missing or ill-sized family for level 2",
}


@pytest.mark.parametrize("case", MALFORMED)
def test_build_deformation_rejects_malformed_solutions(case):
    with pytest.raises(PreconditionError) as info:
        build_deformation(_malformed(case))
    assert type(info.value) is PreconditionError
    assert str(info.value) == MALFORMED[case]


def test_build_deformation_rejects_a_tower_without_levels():
    ctx = VarContext.make(["x1", "x2"])
    tower = build_tower(1 + Jet.variable(ctx, "x1"))
    assert not tower.levels
    tsol = TowerSolution(tower=tower, families={}, units={}, witness=(), z_names=(), tau={})
    with pytest.raises(PreconditionError, match="no level"):
        build_deformation(tsol)


def test_nesting_rule_is_shared_by_verify_nested_and_build_deformation():
    # one violation in both: the witness of z1 uses x2, only x1 is allowed
    x_ctx = VarContext.make(["x1", "x2"])
    fam_ctx = VarContext.make(["x1", "x2", "z1"])
    sys_ctx = VarContext.make(["x1", "x2", "y1"])
    sf = SolutionFamily(
        x_names=("x1", "x2"), y_names=("y1",), z_names=("z1",),
        system=(Jet.variable(sys_ctx, "y1") - Jet.variable(sys_ctx, "y1"),),
        family=(Jet.variable(fam_ctx, "x1"),),
        witness=(Jet.variable(x_ctx, "x2"),),
        target=(Jet.variable(x_ctx, "x1"),))
    _, violations = verify_nested(sf, NestedShape(sigma=(1,), tau=(1,)))
    assert [(v.component, v.variable) for v in violations] == [("z1", "x2")]
    reason = violations[0].reason
    assert reason == "witness z1 must depend only on x-prefix 1 (required by y1)"

    tower, families, units, _ = _cusp_trivial_solution(z_names=("z1",))
    tsol = TowerSolution(tower=tower, families=families, units=units,
                         witness=(Jet.variable(x_ctx, "x2"),), z_names=("z1",),
                         tau={1: 1, 0: 0})
    with pytest.raises(NotASolutionError) as info:
        build_deformation(tsol)
    want = reason.replace("(required by y1)", "(required by a[2,1])")
    assert str(info.value) == f"nesting violated: {want} (variable x2)"


def test_build_deformation_names_the_offending_coefficient():
    # the genuine solution of x2^2 - x1^4*(1+x1^2) with tau(1) = 0: a[2,2]
    # and u[1] use z1, which level 2 and the unit below it may not
    ctx = VarContext.make(["x1", "x2"])
    tower = build_tower(Jet.variable(ctx, "x2") ** 2
                        - Jet.variable(ctx, "x1") ** 4 * (1 + Jet.variable(ctx, "x1") ** 2))
    fam_ctx = VarContext.make(["x1", "x2", "z1"])
    fz = Jet.variable(fam_ctx, "z1")
    zero = Jet.zero(fam_ctx)
    tsol = TowerSolution(
        tower=tower, families={2: (zero, -(Jet.variable(fam_ctx, "x1") ** 4) * (1 + fz)),
                               1: (zero,) * 4},
        units={1: Jet.constant(fam_ctx, 4) * (1 + fz), 0: Jet.constant(fam_ctx, 4)},
        witness=(Jet.variable(ctx, "x1") ** 2,), z_names=("z1",), tau={1: 0, 0: 0})
    with pytest.raises(NotASolutionError, match=re.escape(
            "nesting violated: component a[2,2] may only use x-prefix 1 and "
            "z-prefix 0 (variable z1)")):
        build_deformation(tsol)

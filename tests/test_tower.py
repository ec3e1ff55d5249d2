from fractions import Fraction

import pytest

from equijet.errors import InconclusiveError, PreconditionError
from equijet.jets import Jet, VarContext
from equijet.pseudopoly import PseudoPolynomial, generalized_discriminants
from equijet.weierstrass import LinearChange
from equijet.tower import (
    LevelVerification,
    Tower,
    TowerLevel,
    TowerVerification,
    build_tower,
    build_tower_system,
    check_family,
    verify_tower,
)

X2 = VarContext.make(["x1", "x2"])
TX2 = VarContext.make(["x1", "x2"], params=["t"])


def x1(ctx=X2, order=16):
    return Jet.variable(ctx, "x1", order)


def x2(ctx=X2, order=16):
    return Jet.variable(ctx, "x2", order)


def t(order=16):
    return Jet.variable(TX2, "t", order)


def cusp(ctx=X2):
    return Jet.variable(ctx, "x2") ** 2 - Jet.variable(ctx, "x1") ** 3


def test_cusp_tower_golden():
    tw = build_tower(cusp())
    assert tw.degree_sequence == (2, 3)
    assert tw.index_sequence == (1, 3)
    assert tw.kind == "unit-reached"
    assert tw.levels[1].unit == Jet.constant(X2, 4, 16)
    assert tw.terminal_unit == Jet.constant(X2, 3, 16)
    assert tw.levels[1].poly.as_jet() == x1() ** 3
    assert tw.conclusive


def test_smooth_germ_terminates_immediately():
    tw = build_tower(x2())
    assert tw.degree_sequence == (1,)
    assert tw.terminal_unit.constant_term() == 1
    assert tw.kind == "trivial"
    assert tw.terminal_index == 1


def test_non_reduced_cusp_square_takes_higher_index():
    f = cusp() ** 2
    tw = build_tower(f)
    assert tw.levels[0].degree == 4
    assert tw.index_sequence[0] == 3
    assert tw.conclusive


def test_unit_input_gives_empty_trivial_tower():
    tw = build_tower(1 + x1())
    assert tw.levels == ()
    assert tw.kind == "trivial"
    assert (tw.terminal_unit - (1 + x1())).is_zero()


def test_tower_needs_nonzero_input():
    with pytest.raises(PreconditionError):
        build_tower(Jet.zero(X2))


def test_system_tower_needs_a_coordinate():
    with pytest.raises(PreconditionError, match="need at least one coordinate"):
        build_tower_system([Jet.constant(VarContext.make([]), 1, 5)])


def test_tower_inconclusive_on_truncated_zero_claims():
    # x2^2 - x1^20 at order 8 stores only x2^2, non-exact; the descent would
    # have to trust an uncertified vanishing, so it must refuse
    f = Jet(X2, 8, {(0, 2): 1, (20, 0): -1}, True)
    assert not f.exact
    with pytest.raises(InconclusiveError):
        build_tower(f)


def test_tower_after_inverse_change_matches():
    f = x1() * x2() * (x1() + x2())
    tw = build_tower(f, seed=4)
    top_change = tw.levels[0].change
    assert not top_change.is_identity
    for transformed in (top_change.apply(f), top_change.inverse().apply(f)):
        again = build_tower(transformed, seed=4)
        assert again.degree_sequence == tw.degree_sequence
        assert again.index_sequence == tw.index_sequence


def test_verify_tower_passes_on_built_towers():
    for f in (cusp(), cusp() ** 2, x2() ** 2 - x1() ** 2, (1 + x1()) * x2() ** 2 - x1() ** 2):
        tw = build_tower(f)
        rep = verify_tower(tw)
        assert rep.all_passed


def test_verify_tower_catches_tampering():
    tw = build_tower(cusp())
    tampered_levels = list(tw.levels)
    lv = tampered_levels[1]
    tampered_levels[1] = TowerLevel(
        index=lv.index, poly=lv.poly, unit=Jet.constant(X2, 5, 16),
        disc_index=lv.disc_index, change=lv.change)
    tampered = Tower(
        input_jet=tw.input_jet, source=tw.source, levels=tuple(tampered_levels),
        terminal_index=tw.terminal_index, terminal_disc_index=tw.terminal_disc_index,
        terminal_unit=tw.terminal_unit, kind=tw.kind, order=tw.order,
        seed=tw.seed, caveats=tw.caveats)
    rep = verify_tower(tampered)
    assert not rep.all_passed
    assert not rep.levels[1].identity_holds


def test_descent_residuals_above_index_one():
    # (x3 - x1)^2 (x3 - x2) has a double root, so Delta_1 vanishes and the
    # top level descends at index 2; so does the level (x2 - x1)^2 below it
    X3 = VarContext.make(["x1", "x2", "x3"])
    x = {name: Jet.variable(X3, name, 12) for name in X3.names}
    tw = build_tower((x["x3"] - x["x1"]) ** 2 * (x["x3"] - x["x2"]))
    assert tw.index_sequence == (2, 2)
    top, below = tw.levels
    rhs = below.unit * below.poly.as_jet()
    gd = generalized_discriminants(top.poly)
    residuals = gd.descent_residuals(2, rhs)
    assert residuals == (gd.entries[0], gd.entries[1] - rhs)
    assert all(r.is_zero() and r.exact for r in residuals)
    # a wrong right-hand side shows in the last residual only
    off = gd.descent_residuals(2, below.poly.as_jet())
    assert off[0].is_zero() and not off[1].is_zero()
    # descending at index 1 would skip no vanishing and miss the identity
    assert len(gd.descent_residuals(1, rhs)) == 1
    assert not gd.descent_residuals(1, rhs)[0].is_zero()
    terminal = generalized_discriminants(below.poly).descent_residuals(2, tw.terminal_unit)
    assert all(r.is_zero() for r in terminal)
    assert verify_tower(tw).all_passed


def test_verify_empty_tower_vacuous():
    tw = build_tower(1 + x2())
    assert verify_tower(tw).all_passed


def test_system_of_two_lines():
    tw = build_tower_system([x2() - x1(), x2() + x1()])
    assert tw.factors is not None and len(tw.factors) == 2
    assert tw.levels[0].degree == 2
    assert tw.index_sequence[0] == 1
    assert verify_tower(tw).all_passed
    # the descent continues on x1^2: degree-2 level below
    assert tw.degree_sequence == (2, 2)


def test_system_carries_factors_source_and_unit_through_a_lower_shear():
    X3 = VarContext.make(["x1", "x2", "x3"])
    v = {n: Jet.variable(X3, n, 10) for n in X3.names}
    tw = build_tower_system([v["x3"] - v["x1"] * v["x2"], v["x3"] + v["x1"] * v["x2"]])
    assert not tw.levels[1].change.is_identity
    top = tw.levels[0]
    assert tw.factors[0].as_jet() * tw.factors[1].as_jet() == top.poly.as_jet()
    assert top.unit * top.poly.as_jet() == tw.source
    assert verify_tower(tw).all_passed


def test_system_prepares_the_product_once(monkeypatch):
    import equijet.tower as tower
    import equijet.weierstrass as weierstrass

    calls = []
    real = weierstrass.weierstrass_prepare

    def counted(f, var):
        calls.append(f)
        return real(f, var)

    monkeypatch.setattr(weierstrass, "weierstrass_prepare", counted)
    monkeypatch.setattr(tower, "weierstrass_prepare", counted)
    build_tower_system([x2() - x1(), x2() + x1()])
    # one per entry, then the level below; the product is not prepared again
    assert len(calls) == 3


def test_parameter_free_bottom_level_is_exactly_a_power():
    # the top distinguished polynomial is a genuine series
    tw = build_tower((1 + x1()) * x2() ** 2 - x1() ** 2)
    assert not tw.levels[0].poly.exact
    bottom = tw.levels[-1]
    assert bottom.index == 1 and bottom.poly.exact
    assert bottom.poly.as_jet() == x1(order=bottom.poly.order) ** bottom.degree
    assert verify_tower(tw).all_passed


def test_bottom_rung_of_a_cusp_tower_takes_the_closed_forms(monkeypatch):
    # the series of level 1 is 4*x1^3: its preparation runs no division and
    # the discriminants of its x1^3 no image pass, in the build and in the
    # verification; the top level x2^2 - x1^3 runs both as before
    import equijet.pseudopoly as pseudopoly
    import equijet.weierstrass as weierstrass

    seen = {}

    def spy(module, name, key):
        real = getattr(module, name)
        calls = seen[name] = []

        def recording(*args):
            calls.append(key(*args))
            return real(*args)

        monkeypatch.setattr(module, name, recording)

    # each call is recorded by what tells the levels apart
    spy(weierstrass, "weierstrass_divide", lambda g, f, var: var)
    spy(weierstrass, "exact_divide", lambda a, b: a.ctx.names)
    spy(pseudopoly, "hankel_images", lambda coeffs, k: len(coeffs))
    f = x2(order=8) ** 2 - x1(order=8) ** 3
    tw = build_tower(f)
    rep = verify_tower(tw)
    assert seen == {"weierstrass_divide": ["x2"], "exact_divide": [("x1", "x2")],
                    "hankel_images": [2, 2]}
    zero = Jet.zero(X2, 8)
    top = TowerLevel(index=2, poly=PseudoPolynomial("x2", [zero, -x1(order=8) ** 3]),
                     unit=Jet.constant(X2, 1, 8), disc_index=None,
                     change=LinearChange(("x1", "x2"), "x2", (0,)))
    bottom = TowerLevel(index=1, poly=PseudoPolynomial("x1", [zero] * 3),
                        unit=Jet.constant(X2, 4, 8), disc_index=1,
                        change=LinearChange(("x1",), "x1", ()))
    assert tw == Tower(input_jet=f, source=f, levels=(top, bottom), terminal_index=0,
                       terminal_disc_index=3, terminal_unit=Jet.constant(X2, 3, 8),
                       kind="unit-reached", order=8, seed=0, caveats=())
    assert rep == TowerVerification(levels=(LevelVerification(2, True, True, ""),
                                            LevelVerification(1, True, True, "")),
                                    terminal_ok=True, all_passed=True)


def test_system_singleton_matches_plain_tower():
    tw_sys = build_tower_system([x2() ** 2 - x1() ** 3])
    tw = build_tower(cusp())
    assert tw_sys.degree_sequence == tw.degree_sequence
    assert tw_sys.index_sequence == tw.index_sequence


def test_system_with_repeated_entry():
    tw = build_tower_system([x2(), x2()])
    assert tw.levels[0].degree == 2
    assert tw.index_sequence[0] == 2  # repeated factor kills the discriminant
    assert verify_tower(tw).all_passed


def test_system_of_units_is_trivial():
    # like a single unit germ: empty zero set, no levels, the product as unit
    tw = build_tower_system([1 + x1(), 1 + x2()])
    assert tw.kind == "trivial" and tw.levels == ()
    assert tw.terminal_unit == (1 + x1()) * (1 + x2())
    assert [fac.degree for fac in tw.factors] == [0, 0]
    assert verify_tower(tw).all_passed


def test_family_equisingular_unit_deformation():
    F = x2(TX2) ** 2 - (1 + t()) * x1(TX2) ** 3
    rep = check_family(F)
    assert rep.verdict == "equisingular"
    assert [lc.degree for lc in rep.levels] == [2, 3]
    assert rep.terminal_unit.constant_term() == 3
    assert not rep.uncertified


def test_family_not_equisingular_with_witness():
    F = x2(TX2) ** 2 - x1(TX2) ** 3 - t() * x1(TX2) ** 2
    rep = check_family(F)
    assert rep.verdict == "not-equisingular"
    assert rep.witness == Jet(TX2, 16, {(2, 0, 0): 2}, True)  # 2*t^2
    # negative certificate: witness vanishes at t=0, not at sampled t
    w = rep.witness
    assert w.restrict({"t": 0}).is_zero()
    assert not w.restrict({"t": Fraction(1, 7)}).is_zero()


def test_family_without_parameters_trivially_equisingular():
    rep = check_family(cusp())
    assert rep.verdict == "equisingular"


def test_family_failing_axis_condition():
    # does not contain the parameter axis at all
    F = x2(TX2) ** 2 - x1(TX2) ** 3 + t()
    rep = check_family(F)
    assert rep.verdict == "not-equisingular"
    assert rep.witness is not None and not rep.witness.is_zero()
    assert "axis" in rep.witness_note


def test_family_slice_consistency_positive():
    F = x2(TX2) ** 2 - (1 + t()) * x1(TX2) ** 3
    rep = check_family(F)
    assert rep.verdict == "equisingular"
    shapes = []
    for t0 in (0, Fraction(1, 7), Fraction(-1, 5)):
        slice_f = F.restrict({"t": t0}, drop=True)
        shapes.append(build_tower(slice_f).shape)
    assert shapes[0] == shapes[1] == shapes[2]
    assert [d for d, _ in shapes[0]] == [lc.degree for lc in rep.levels]


def test_family_slice_divergence_negative():
    F = x2(TX2) ** 2 - x1(TX2) ** 3 - t() * x1(TX2) ** 2
    shapes = {}
    for t0 in (0, Fraction(1, 7), Fraction(-1, 5)):
        slice_f = F.restrict({"t": t0}, drop=True)
        shapes[t0] = build_tower(slice_f).shape
    assert shapes[0] == ((2, 1), (3, 3))
    assert shapes[Fraction(1, 7)] == ((2, 1), (2, 2))
    assert shapes[Fraction(1, 7)] == shapes[Fraction(-1, 5)]
    assert shapes[0] != shapes[Fraction(1, 7)]


def test_family_inconclusive_on_truncated_data():
    F = Jet(TX2, 8, {(0, 0, 2): 1, (0, 20, 0): -1}, True)  # x2^2 - x1^20, truncated
    rep = check_family(F)
    assert rep.verdict == "inconclusive"
    assert rep.uncertified


def test_truncated_top_polynomial_is_stated_modulo_the_order():
    # the coefficient orders are 15 and 16, yet each term a_j*x2^(2-j) of W
    # is known modulo 16
    f = (1 + x1()) * x2() ** 2 - x1() ** 2 + x2() ** 3
    tw = build_tower(f)
    top = tw.levels[0]
    assert [c.order for c in top.poly.coeffs] == [15, 16]
    assert top.poly.as_jet().order == 16
    assert verify_tower(tw).all_passed


def test_system_with_a_genuine_series_factor_is_conclusive():
    def system(order):
        y1, y2 = x1(order=order), x2(order=order)
        return [y2 ** 2 - 3 * y1 ** 3 + y2 ** 3, y2 + 2 * y1 + y1 ** 3]

    tw = build_tower_system(system(10))
    assert tw.degree_sequence == (3, 7)
    assert tw.index_sequence == (1, 7)
    assert verify_tower(tw).all_passed
    high = build_tower_system(system(22))
    assert (high.degree_sequence, high.index_sequence) == (tw.degree_sequence, tw.index_sequence)

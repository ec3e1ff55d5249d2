"""The equisingularity ladder: one descent, with a policy for towers and
one for parametrized families.

The ladder of a germ ``f`` in coordinates ``x_1..x_n`` is built top down by
one loop, :meth:`_Ladder.run`; a system of germs enters that loop with its
top level prepared, as the product of its entries' preparations.  At level
``i`` the current series is prepared in ``x_i``, after a regularizing
linear change of ``x_1..x_i`` when it is not regular in ``x_i``; the levels
already recorded are carried through that change.  Each level is prepared
in its own coordinates ``x_1..x_i``, with the parameters kept: a truncated
coefficient is then known to be a series in those variables only, and
without parameters the level of index 1 is exactly ``x_1^p``: on exact data
its preparation is the quotient by ``x_1^p`` and its discriminants those of
``x_1^p``, both in closed form, with no division and no Berkowitz pass
(:func:`~equijet.weierstrass.weierstrass_prepare`,
:func:`~equijet.pseudopoly.hankel_minors`).  The unit and
the coefficients are widened back to the full context, so reports keep
full-width exponents.  The level is recorded, and the first nonzero
generalized discriminant of its distinguished polynomial becomes the series
of level ``i - 1``.  Each level records the discriminant index, the unit
and the coordinate change used, so the whole ladder can be re-verified from
its stored data.

What the callers add is the policy applied at each level:

* towers (:func:`build_tower`, :func:`build_tower_system`) stop at the first
  discriminant that is a unit, end as ``"trivial"`` when a preparation has
  degree 0 (the series is a unit), and raise :class:`InconclusiveError`
  when a discriminant below the first nonzero one vanishes only modulo the
  certification order on non-exact data;
* families (:func:`check_family`) hold the parameters ``t`` inert, so
  coordinate changes act on the ``x`` block only, and at every level both
  the prepared polynomial and the chosen discriminant must vanish
  identically on the parameter axis ``{x = 0}``.  A discriminant that
  vanishes at ``t = 0`` without vanishing identically is the negative
  witness.  Any "vanishes identically" claim that rests on truncated
  non-exact data is collected in ``uncertified`` and downgrades the verdict
  to inconclusive rather than guessing.

Analytic conditions (polydisc radii, root localization) are not symbolically
decidable and are outside every verdict issued here; reports say so.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple

from .errors import (
    ConsistencyError,
    InconclusiveError,
    PreconditionError,
)
from .jets import Jet
from .pseudopoly import (
    GenDiscSequence,
    PseudoPolynomial,
    generalized_discriminants,
)
from .weierstrass import (
    LinearChange,
    PreparedForm,
    prepare_in,
    regularizing_change,
    weierstrass_prepare,
)

SCOPE_NOTE = ("verdicts cover the discriminant-ladder conditions only; "
              "polydisc radii and root-localization are analytic conditions "
              "outside symbolic reach")


@dataclass(frozen=True)
class TowerLevel:
    """One rung of the ladder.

    ``disc_index`` is the first-nonzero discriminant index used to descend
    *to* this level from the one above (None at the top).  The stored
    identity is ``Delta_{disc_index}(coefficients of parent) == unit * poly``
    to the certification order; at the top it is ``source == unit * poly``.
    """

    index: int
    poly: PseudoPolynomial
    unit: Jet
    disc_index: Optional[int]
    change: LinearChange

    @property
    def degree(self) -> int:
        return self.poly.degree

    @property
    def axis_vanishing_exact(self) -> bool:
        """Exactness of the vanishing on the parameter axis ``{x = 0}``, where
        only the constant coefficient survives; linear changes keep it."""
        return self.poly.coeffs[-1].exact

    def remapped(self, change: LinearChange) -> "TowerLevel":
        """The same level in the coordinates after ``change``."""
        return replace(self, poly=self.poly.map_coeffs(change.apply),
                       unit=change.apply(self.unit))


@dataclass(frozen=True)
class Tower:
    """The full ladder for one germ (or one system of germs)."""

    input_jet: Jet
    source: Jet  # input after all recorded coordinate changes
    levels: Tuple[TowerLevel, ...]
    terminal_index: int
    terminal_disc_index: Optional[int]
    terminal_unit: Jet
    kind: str  # "unit-reached" (full descent) or "trivial" (early unit)
    order: int
    seed: int
    caveats: Tuple[str, ...]  # always empty: towers raise instead
    factors: Optional[Tuple[PseudoPolynomial, ...]] = None

    @property
    def conclusive(self) -> bool:
        return not self.caveats

    @property
    def degree_sequence(self) -> Tuple[int, ...]:
        return tuple(level.degree for level in self.levels)

    @property
    def index_sequence(self) -> Tuple[int, ...]:
        """The discriminant indices l, from the top descent downwards."""
        out = [level.disc_index for level in self.levels if level.disc_index is not None]
        if self.terminal_disc_index is not None:
            out.append(self.terminal_disc_index)
        return tuple(out)

    @property
    def shape(self) -> Tuple[Tuple[int, int], ...]:
        """(degree, descent index) pairs; the invariant fingerprint."""
        degs = self.degree_sequence
        idxs = self.index_sequence
        return tuple(zip(degs, idxs))


@dataclass(frozen=True)
class FamilyReport:
    verdict: str  # "equisingular" | "not-equisingular" | "inconclusive"
    levels: Tuple[TowerLevel, ...]
    witness: Optional[Jet]
    witness_note: str
    terminal_unit: Optional[Jet]
    uncertified: Tuple[str, ...]
    order: int
    seed: int
    scope_note: str = SCOPE_NOTE


def _gendisc_caveats(gd: GenDiscSequence, level: int) -> List[str]:
    return [
        f"descent to level {level}: vanishing of discriminant index {l} "
        f"is certified only modulo degree {gd.entries[l - 1].order}"
        for l in gd.uncertified_below
    ]


class _Ladder:
    """The descent shared by towers and families.

    :meth:`run` walks down the ladder of ``f``, from ``top`` (the prepared
    form and change of the top level) when the caller has it, and calls the
    policy hooks of the subclass: ``on_unit(index, disc_index, unit)`` when
    the series of level ``index`` is the unit ``unit``; ``on_level(level)``
    when a level is prepared, before it is recorded;
    ``on_discriminant(index, gd)`` with the discriminants of the last
    recorded level, whose first nonzero entry is the series of level
    ``index``.  A hook that returns anything but None ends the descent with
    that value.  A system's ``factors``, given in the top coordinates, are
    carried through the lower changes like the recorded levels.
    """

    def __init__(self, f: Jet, seed: int,
                 factors: Optional[Tuple[PseudoPolynomial, ...]] = None):
        if not f.ctx.coords:
            raise PreconditionError("need at least one coordinate")
        if f.is_zero():
            raise PreconditionError(f"input vanishes to order {f.order}")
        self.f = f
        self.seed = seed
        self.factors = factors
        self.levels: List[TowerLevel] = []

    def run(self, top: Optional[Tuple[PreparedForm, LinearChange]] = None):
        ctx = self.f.ctx
        xs = ctx.coords
        current = self.f
        disc_index: Optional[int] = None
        for i in range(len(xs), 0, -1):
            # the series of level i is one in x_1..x_i and the parameters
            prepared, change = top or prepare_in(current.in_context(ctx.without(xs[i:])),
                                                 xs[i - 1], xs[:i], self.seed)
            top = None
            if self.levels and not change.is_identity:
                # a lower change: the top one is already in the factors
                self.levels = [lv.remapped(change) for lv in self.levels]
                if self.factors:
                    self.factors = tuple(fac.map_coeffs(change.apply) for fac in self.factors)
            unit = prepared.unit.in_context(ctx)
            if prepared.poly.degree == 0:
                return self.on_unit(i, disc_index, unit)
            poly = prepared.poly.map_coeffs(lambda c: c.in_context(ctx))
            level = TowerLevel(index=i, poly=poly, unit=unit,
                               disc_index=disc_index, change=change)
            done = self.on_level(level)
            if done is not None:
                return done
            self.levels.append(level)
            gd = generalized_discriminants(level.poly)
            done = self.on_discriminant(i - 1, gd)
            if done is not None:
                return done
            disc_index, current = gd.first_nonzero, gd.first_entry
        # the bottom discriminants are constants, so a tower always stops
        # above; a family gets here only with an unwitnessed non-unit
        raise ConsistencyError("descent reached the bottom without a unit discriminant")

    def on_level(self, level: TowerLevel):
        return None


class _TowerLadder(_Ladder):
    def on_unit(self, index, disc_index, unit):
        # the whole germ is a unit; empty zero set, nothing to ladder
        return self._tower(index, disc_index, unit, "trivial")

    def on_discriminant(self, index, gd):
        caveats = _gendisc_caveats(gd, index)
        if caveats:
            raise InconclusiveError("; ".join(caveats))
        if gd.first_entry.is_unit():
            kind = "unit-reached" if index == 0 else "trivial"
            return self._tower(index, gd.first_nonzero, gd.first_entry, kind)
        return None

    def _tower(self, index, disc_index, unit, kind) -> Tower:
        source = self.f
        for lv in self.levels:
            source = lv.change.apply(source)
        return Tower(
            input_jet=self.f, source=source, levels=tuple(self.levels),
            terminal_index=index, terminal_disc_index=disc_index,
            terminal_unit=unit, kind=kind,
            order=self.f.order, seed=self.seed, caveats=(), factors=self.factors)


def build_tower(f: Jet, seed: int = 0) -> Tower:
    """Build the ladder for a single germ in pure coordinates.

    Raises :class:`InconclusiveError` when a level's first-nonzero choice
    would have to skip a vanishing claim that only holds modulo the
    certification order on non-exact data.
    """
    if f.ctx.n_params:
        raise PreconditionError("build_tower expects a parameter-free context")
    return _TowerLadder(f, seed).run()


def build_tower_system(gs: Sequence[Jet], seed: int = 0) -> Tower:
    """Ladder for a finite system of germs.  Each entry is prepared once,
    under the change that regularizes their product; the top level is the
    product of these preparations, and the one descent continues from there.
    The per-factor coefficient blocks are kept in the report."""
    gs = list(gs)
    if not gs:
        raise PreconditionError("empty system")
    ctx = gs[0].ctx
    if ctx.n_params:
        raise PreconditionError("build_tower_system expects a parameter-free context")
    if not ctx.coords:
        raise PreconditionError("need at least one coordinate")
    for g in gs:
        if g.ctx != ctx:
            raise PreconditionError("system entries in different contexts")
        if g.is_zero():
            raise PreconditionError("system entry vanishes to the certification order")
    var = ctx.coords[-1]
    product = math.prod(gs[1:], start=gs[0])
    if product.is_zero():
        raise PreconditionError("product of the system vanishes to the certification order")
    change = regularizing_change(product, var, ctx.coords, seed)
    prepared = [weierstrass_prepare(change.apply(g), var) for g in gs]
    factors = tuple(pf.poly for pf in prepared)
    unit = math.prod((pf.unit for pf in prepared), start=Jet.constant(ctx, 1, product.order))
    top_jet = math.prod((fac.as_jet() for fac in factors[1:]), start=factors[0].as_jet())
    top = PreparedForm(unit, PseudoPolynomial.from_jet(top_jet, var), product.order)
    return _TowerLadder(product, seed, factors).run((top, change))


@dataclass(frozen=True)
class LevelVerification:
    index: int
    identity_holds: bool
    vanishing_holds: bool
    note: str


@dataclass(frozen=True)
class TowerVerification:
    levels: Tuple[LevelVerification, ...]
    terminal_ok: bool
    all_passed: bool


def verify_tower(tw: Tower) -> TowerVerification:
    """Recompute both sides of every stored identity and the vanishing lists.

    Failures are report entries, never exceptions.
    """
    results: List[LevelVerification] = []
    for pos, level in enumerate(tw.levels):
        rhs = level.unit * level.poly.as_jet()
        if pos == 0:
            residuals = (tw.source - rhs,)
        else:
            gd = generalized_discriminants(tw.levels[pos - 1].poly)
            residuals = gd.descent_residuals(level.disc_index, rhs)
        ok = residuals[-1].is_zero()
        vanish_ok = all(r.is_zero() for r in residuals[:-1])
        note = "" if ok and vanish_ok else "identity or vanishing fails"
        results.append(LevelVerification(level.index, ok, vanish_ok, note))

    terminal_ok = True
    if tw.levels and tw.terminal_disc_index is not None:
        gd = generalized_discriminants(tw.levels[-1].poly)
        terminal_ok = (all(r.is_zero() for r in gd.descent_residuals(
                           tw.terminal_disc_index, tw.terminal_unit))
                       and tw.terminal_unit.is_unit())
    all_passed = terminal_ok and all(r.identity_holds and r.vanishing_holds for r in results)
    return TowerVerification(tuple(results), terminal_ok, all_passed)


class _FamilyLadder(_Ladder):
    def __init__(self, F: Jet, seed: int):
        super().__init__(F, seed)
        self.zero_x = {name: 0 for name in F.ctx.coords}
        self.uncertified: List[str] = []

    def run(self):
        negative = self._on_axis(self.f, "vanishing of the family on the parameter axis",
                                 "the family does not vanish on the parameter axis")
        return negative if negative is not None else super().run()

    def on_unit(self, index, disc_index, unit):
        raise ConsistencyError("family preparation degenerated to a unit")

    def on_level(self, level):
        # only reachable when a vanishing claim above was uncertified
        return self._on_axis(
            level.poly.coeffs[-1],
            f"level {level.index}: vanishing of the prepared polynomial on the parameter axis",
            "prepared polynomial does not vanish on the parameter axis")

    def on_discriminant(self, index, gd):
        self.uncertified.extend(_gendisc_caveats(gd, index))
        delta = gd.first_entry
        if delta.is_unit():
            if self.uncertified:
                return self._report("inconclusive", None, "", delta)
            return self._report("equisingular", None,
                                "descent terminated at a unit discriminant", delta)
        return self._on_axis(
            delta, f"level {index}: vanishing of the discriminant on the parameter axis",
            "discriminant vanishes at the origin but not along the parameter axis")

    def _on_axis(self, j: Jet, claim: str, note: str) -> Optional[FamilyReport]:
        """The negative report when ``j`` does not vanish on the parameter
        axis; else None, after noting an uncertified vanishing."""
        axis = j.restrict(self.zero_x)
        if axis.is_zero():
            if not axis.exact:
                self.uncertified.append(f"{claim} is certified only modulo degree {axis.order}")
            return None
        if self.uncertified:
            return self._report("inconclusive", axis,
                                f"candidate witness: {note}; but earlier vanishing "
                                "claims were not exact", None)
        return self._report("not-equisingular", axis, note, None)

    def _report(self, verdict, witness, note, terminal_unit) -> FamilyReport:
        return FamilyReport(
            verdict=verdict, levels=tuple(self.levels), witness=witness,
            witness_note=note, terminal_unit=terminal_unit,
            uncertified=tuple(self.uncertified), order=self.f.order, seed=self.seed)


def check_family(F: Jet, seed: int = 0) -> FamilyReport:
    """Decide Zariski equisingularity of a parametrized family.

    The parameter block of the context is inert: all coordinate changes act
    on the coordinate block only.  See the module docstring for the verdict
    semantics; inconclusive is returned, never guessed past.
    """
    return _FamilyLadder(F, seed).run()

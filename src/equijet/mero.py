"""Two-variable meromorphic germ analysis.

Given coprime factored germs f and g, the holomorphic 1-form

    theta = F G (df/f - dg/g),  F = f_1...f_p and G = g_1...g_q,

is a sum of products of the declared factors and their derivatives, so it
is computed by exact polynomial arithmetic and nothing is divided.  Divisors
of theta -- common factors of its two coefficients -- are located through
the constant test: an irreducible h coprime to f*g divides theta exactly
when some constant c makes h divide f - c*g, and then the h-power in
f - c*g exceeds the h-power in theta by one.  Constants are found by
eliminating one variable with a resultant and taking the gcd of the
resulting coefficients as polynomials in c; algebraic constants are carried
in a simple extension field, and the analysis stops with a precondition
error when a divisor's constants need one of degree above 2.  A germ's
expanded product is formed only when the constant test reads it.

Declared factorizations are validated for pairwise coprimality and
squarefreeness, but irreducibility over the complex numbers is *not*
decided; a reducible declared factor surfaces downstream as a
lemma-violation error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Iterable, List, Optional, Sequence, Tuple

from .deform import SolutionFamily, verify_family
from .errors import (
    ConsistencyError,
    CoprimalityError,
    LemmaViolationError,
    PreconditionError,
)
from .jets import INFINITE_ORDER, Jet, VarContext
from .polygcd import (
    content_split,
    exact_divide,
    exact_power_dividing,
    is_constant,
    jet_gcd,
    jet_gcd_many,
    rational_roots,
    squarefree_decomposition,
    sturm_real_root_count,
    x2_content,
)
from .pseudopoly import resultant_jets
from .scalars import (
    FieldElement,
    NumberField,
    Scalar,
    scalar_inverse,
    scalar_is_rational,
    uni_deg,
    uni_divmod,
    uni_scale,
    uni_squarefree_part,
)

_C_NAME = "cconst"


@dataclass(frozen=True)
class FactoredGerm:
    """A germ supplied in factored form: ``prod base_i ^ exp_i``.  Only the
    factors are stored; ``product`` is expanded the first time it is read.

    A germ is checked on construction, by the dataclass constructor as well
    as by :meth:`build`: every factor is an exact, nonconstant, squarefree
    polynomial vanishing at the origin of one two-coordinate context, with an
    exponent of at least 1, and no two factors share a divisor; anything else
    raises :class:`PreconditionError`.  So no unchecked germ exists, which
    :func:`build_mero_deformation` relies on when it takes the analysed
    germ's slice without rebuilding it.
    """

    factors: Tuple[Tuple[Jet, int], ...]

    def __post_init__(self):
        factors = self.factors
        if not factors:
            raise PreconditionError("a factored germ needs at least one factor")
        ctx = factors[0][0].ctx
        if len(ctx.names) != 2 or ctx.n_params:
            raise PreconditionError("meromorphic analysis works in two coordinates")
        x1, x2 = ctx.names
        for base, exp in factors:
            if base.ctx != ctx:
                raise PreconditionError("factors in different contexts")
            if exp < 1:
                raise PreconditionError("factor exponents must be >= 1")
            if not base.exact:
                raise PreconditionError("factors must be exact polynomials")
            if base.is_zero() or is_constant(base):
                raise PreconditionError(f"factors must be nonconstant: {base}")
            if base.constant_term():
                raise PreconditionError("factors must vanish at the origin")
            sq = jet_gcd_many([base, base.derivative(x1), base.derivative(x2)])
            if not is_constant(sq):
                raise PreconditionError(f"declared factor is not squarefree: {base}")
        for i in range(len(factors)):
            for j in range(i + 1, len(factors)):
                if not is_constant(jet_gcd(factors[i][0], factors[j][0])):
                    raise PreconditionError(
                        f"declared factors share a divisor: {factors[i][0]} and {factors[j][0]}")

    @classmethod
    def build(cls, factors: Sequence[Tuple[Jet, int]]) -> "FactoredGerm":
        """The checked germ of ``(base, exponent)`` pairs, the exponents
        taken as ints."""
        return cls(factors=tuple((base, int(exp)) for base, exp in factors))

    @cached_property
    def product(self) -> Jet:
        return _product(*zip(*self.factors))

    @property
    def ctx(self) -> VarContext:
        return self.factors[0][0].ctx


@dataclass(frozen=True)
class OneForm:
    """``a dx1 + b dx2`` with exact polynomial jet coefficients."""

    a: Jet
    b: Jet

    def divided(self, pairs: Iterable[Tuple[Jet, int]]) -> Optional["OneForm"]:
        """The form divided by ``h^times`` for each pair ``(h, times)`` in
        turn, or None as soon as a division is not exact; no pair is drawn
        after that."""
        a, b = self.a, self.b
        for h, times in pairs:
            for _ in range(times):
                qa, qb = exact_divide(a, h), exact_divide(b, h)
                if qa is None or qb is None:
                    return None
                a, b = qa, qb
        return OneForm(a=a, b=b)

    def coefficient_gcd(self) -> Jet:
        return jet_gcd(self.a, self.b)


@dataclass(frozen=True)
class DivisorRecord:
    h: Jet
    c: Scalar
    mu: int
    rho: Jet

    @property
    def minpoly(self) -> Optional[Tuple[Fraction, ...]]:
        """The minimal polynomial of ``c`` when it is algebraic."""
        return self.c.field.minpoly if isinstance(self.c, FieldElement) else None


@dataclass(frozen=True)
class MeroAnalysis:
    """What :func:`analyze` found for the germs ``f`` and ``g``, which it
    keeps, so that the analysis cannot be paired with other germs."""

    f: FactoredGerm
    g: FactoredGerm
    theta: OneForm
    records: Tuple[DivisorRecord, ...]
    omega: OneForm
    informational: Tuple[DivisorRecord, ...]  # mu = 0: constant exists, no theta-divisor
    reality: str  # "rational" | "real" | "not-real" | "indeterminate"

    @property
    def e(self) -> int:
        return len(self.records)


def _lift_order(f: FactoredGerm, g: FactoredGerm) -> int:
    """An order above the degree of ``f*g*F*G``: theta, omega and rho are
    computed at it and print it, so it stays finite."""
    return sum((2 * e + 1) * base.total_degree() for base, e in f.factors + g.factors) + 4


def _lift_pair(f: FactoredGerm, g: FactoredGerm) -> Tuple[Jet, Jet]:
    """Both products at :func:`_lift_order`, for omega and rho; theta is a
    sum of products of the declared factors and needs neither."""
    bound = _lift_order(f, g)
    return f.product.with_order(bound), g.product.with_order(bound)


def theta(f: FactoredGerm, g: FactoredGerm) -> OneForm:
    """The reduced-numerator logarithmic 1-form ``F*G*(df/f - dg/g)`` of f/g.

    Its coefficient along each coordinate v is the sum, over the bases b of
    f and of g, of ``e_b * d_v b`` times the product of the other bases, with
    e_b the exponent of b in f or minus its exponent in g: a sum of products
    of the declared factors, so nothing is divided.
    """
    if f.ctx != g.ctx:
        raise PreconditionError("germs in different contexts")
    if any(not is_constant(jet_gcd(b, c)) for b, _ in f.factors for c, _ in g.factors):
        raise CoprimalityError("f and g share a factor")
    bases = [base.with_order(INFINITE_ORDER) for base, _ in f.factors + g.factors]
    exps = [e for _, e in f.factors] + [-e for _, e in g.factors]
    others = [math.prod(bases[:i] + bases[i + 1:]) for i in range(len(bases))]
    zero, bound = Jet.zero(f.ctx, INFINITE_ORDER), _lift_order(f, g)
    a, b = (Jet.dot([base.derivative(v).scale(e) for base, e in zip(bases, exps)], others, zero)
            for v in f.ctx.names)
    return OneForm(*(Jet.polynomial(f.ctx, c.graded_items(), bound) for c in (a, b)))


def _constants_for(h: Jet, fp: Jet, gp: Jet) -> List[Scalar]:
    """Admissible constants c with ``h | f - c g`` possible, by elimination.

    Returns every rational candidate plus at most one algebraic candidate
    represented by a generator of a fresh extension field.
    """
    ctx = h.ctx
    elim = ctx.names[1] if (h.degree_in(ctx.names[1]) or 0) >= 1 else ctx.names[0]
    keep = ctx.names[0] if elim == ctx.names[1] else ctx.names[1]
    ctx3 = VarContext.make((ctx.names[0], ctx.names[1], _C_NAME))
    f3 = fp.in_context(ctx3).with_order(INFINITE_ORDER)
    g3 = gp.in_context(ctx3).with_order(INFINITE_ORDER)
    cvar = Jet.variable(ctx3, _C_NAME, INFINITE_ORDER)
    res = resultant_jets(h.in_context(ctx3), f3 - cvar * g3, elim)
    if res.is_zero():
        raise LemmaViolationError(
            "elimination degenerated: the resultant vanishes identically")
    gcd_c = x2_content(res.in_context(VarContext.make((_C_NAME, keep))))
    if uni_deg(gcd_c) < 1:
        return []
    core = uni_squarefree_part(gcd_c)
    core = uni_scale(core, scalar_inverse(core[-1]))
    out: List[Scalar] = list(rational_roots(core))
    leftover = list(core)
    for r in out:
        leftover, rem = uni_divmod(leftover, [-r, Fraction(1)])
        if rem:
            raise ConsistencyError("root division failed")
    if uni_deg(leftover) >= 2:
        # a candidate algebraic constant; its minimal polynomial is this
        # factor (irreducible for degree <= 3 since no rational roots remain)
        if any(not scalar_is_rational(c) for c in leftover):
            raise PreconditionError(
                "a second algebraic extension would be needed; the scalar "
                "tower supports a single one")
        field = NumberField([Fraction(c) for c in leftover], name=_C_NAME + "0")
        gen = field.generator()
        out.append(gen)
        if field.degree == 2:
            # the conjugate root lives in the same field
            out.append(-leftover[1] / leftover[2] - gen)
    elif uni_deg(leftover) == 1:
        out.append(-leftover[0] / leftover[1])
    return out


def divisor_constant(h: Jet, f: FactoredGerm, g: FactoredGerm) -> Optional[DivisorRecord]:
    """The constant attached to an irreducible candidate divisor.

    Returns the record ``(h, c, mu, rho)`` with ``f - c g = h^(mu+1) rho``
    and rho coprime to h, or None when no constant exists.  mu = 0 records a
    constant whose divisor power in the 1-form is zero.
    """
    if not h.exact:
        raise PreconditionError("candidate divisor must be an exact polynomial")
    if h.is_zero() or is_constant(h):
        raise PreconditionError("candidate divisor must be nonconstant")
    fp, gp = _lift_pair(f, g)
    if not is_constant(jet_gcd(h, fp)):
        raise PreconditionError("candidate divisor divides f")
    if not is_constant(jet_gcd(h, gp)):
        raise PreconditionError("candidate divisor divides g")
    hits: List[DivisorRecord] = []
    for c in _constants_for(h, fp, gp):
        target = fp - gp.scale(c)
        m, rho = exact_power_dividing(target, h)
        if m >= 1:
            hits.append(DivisorRecord(h=h, c=c, mu=m - 1, rho=rho))
    if not hits:
        return None
    if len(hits) > 1:
        raise LemmaViolationError(
            "several constants divide through the same candidate; "
            "the candidate is not irreducible")
    return hits[0]


def _reality_flag(records: Sequence[DivisorRecord]) -> str:
    if all(scalar_is_rational(r.c) for r in records):
        return "rational"
    flags = []
    for r in records:
        if scalar_is_rational(r.c):
            continue
        n_real = sturm_real_root_count(list(r.minpoly))
        deg = len(r.minpoly) - 1
        if n_real == deg:
            flags.append("real")
        elif n_real == 0:
            flags.append("not-real")
        else:
            flags.append("indeterminate")
    if all(fl == "real" for fl in flags):
        return "real"
    if all(fl == "not-real" for fl in flags):
        return "not-real"
    return "indeterminate"


def _records_for(piece: Jet, mult: int, f: FactoredGerm, g: FactoredGerm) -> List[DivisorRecord]:
    """Split a squarefree piece of the 1-form's divisor, of multiplicity
    ``mult``, by the constants found for it; the records must multiply back
    to the piece."""
    fp, gp = _lift_pair(f, g)
    records: List[DivisorRecord] = []
    remaining = piece
    for c in _constants_for(piece, fp, gp):
        shifted = fp - gp.scale(c)
        hc = jet_gcd(piece, shifted)
        if is_constant(hc):
            continue
        if isinstance(c, FieldElement) and c.field.degree > 2:
            raise PreconditionError("a divisor constant of degree above 2 would need further "
                                    "extensions; the scalar tower supports a single one")
        dc_m, rho = exact_power_dividing(shifted, hc)
        if dc_m - 1 != mult:
            raise LemmaViolationError(
                f"power bookkeeping fails for divisor {hc}: power {dc_m} in "
                f"f - c g vs multiplicity {mult} in the form")
        records.append(DivisorRecord(h=hc, c=c, mu=mult, rho=rho))
        q = exact_divide(remaining, hc)
        if q is None:
            raise LemmaViolationError(
                "constant-split factors do not multiply back into the divisor")
        remaining = q
    if not is_constant(remaining):
        raise LemmaViolationError(
            f"divisor {remaining} of the 1-form admits no constant; "
            "a declared factor was not irreducible")
    return records


def analyze(f: FactoredGerm, g: FactoredGerm,
            candidates: Sequence[Jet] = ()) -> MeroAnalysis:
    """Full divisor analysis of the 1-form of f/g.

    The coefficient gcd of theta is split by squarefree decomposition, each
    piece into its x2-content and the rest, and those by the constants found
    for them; every divisor must admit
    a constant (anything else is a lemma violation signalling a reducible
    declared factor).  User candidates are checked informationally; those
    with mu = 0 never enter the divisor product.
    """
    th = theta(f, g)
    d = th.coefficient_gcd()
    records: List[DivisorRecord] = []
    for piece, mult in squarefree_decomposition(d):
        # eliminating x2 finds no constant for a factor in x1 alone, so
        # the x2-content of each piece is searched apart from the rest
        for part in content_split(piece):
            if not is_constant(part):
                records += _records_for(part, mult, f, g)
    omega = th.divided((rec.h, rec.mu) for rec in records)
    if omega is None:
        raise ConsistencyError("dividing the form by its divisors failed")
    # with nothing divided out omega is theta, whose coefficient gcd is d
    if not is_constant(omega.coefficient_gcd() if records else d):
        raise ConsistencyError("the reduced form still has a nonconstant coefficient gcd")

    informational: List[DivisorRecord] = []
    for cand in candidates:
        if any(exact_divide(rec.h, cand) is not None and exact_divide(cand, rec.h) is not None
               for rec in records):
            continue
        found = divisor_constant(cand, f, g)
        if found is not None:
            informational.append(found)
    return MeroAnalysis(f=f, g=g, theta=th, records=tuple(records), omega=omega,
                        informational=tuple(informational),
                        reality=_reality_flag(records))


# -- the emitted polynomial system ---------------------------------------


@dataclass(frozen=True)
class SystemS:
    """The polynomial system tying the factors, divisors, and cofactors.

    Equation k reads ``prod y1_i^(l_i) - c_k prod y2_j^(k_j) =
    y3_k^(mu_k+1) y4_k``; the reference solution is the vector of the
    declared factors, divisors, and cofactors, and :func:`emit_system`
    raises unless substituting it into every equation gives exact zero.  The
    constants, exponents and powers are those of the analysis and the germs.
    """

    y_ctx: VarContext
    y1_names: Tuple[str, ...]
    y2_names: Tuple[str, ...]
    y3_names: Tuple[str, ...]
    y4_names: Tuple[str, ...]
    equations: Tuple[Tuple[Jet, Jet], ...]  # (lhs, rhs) pairs
    solution: Tuple[Jet, ...]


def emit_system(analysis: MeroAnalysis) -> SystemS:
    """Emit the equations over fresh variables plus the reference solution."""
    f, g = analysis.f, analysis.g
    p, q, e = len(f.factors), len(g.factors), analysis.e
    y1 = tuple(f"y1_{i}" for i in range(1, p + 1))
    y2 = tuple(f"y2_{j}" for j in range(1, q + 1))
    y3 = tuple(f"y3_{k}" for k in range(1, e + 1))
    y4 = tuple(f"y4_{k}" for k in range(1, e + 1))
    y_ctx = VarContext.make(y1 + y2 + y3 + y4)

    solution = tuple(base for base, _ in f.factors) + tuple(base for base, _ in g.factors) \
        + tuple(rec.h for rec in analysis.records) + tuple(rec.rho for rec in analysis.records)
    deg_cap = max((s.total_degree() or 0 for s in solution), default=1)
    ell = tuple(exp for _, exp in f.factors)
    kk = tuple(exp for _, exp in g.factors)
    weight = max(sum(ell), sum(kk), max((rec.mu + 2 for rec in analysis.records), default=1))
    # the equations print this order
    order = deg_cap * weight + 2
    y = {name: Jet.variable(y_ctx, name, order) for name in y_ctx.names}

    lhs_core = _product([y[name] for name in y1], ell)
    g_core = _product([y[name] for name in y2], kk)
    equations = tuple((lhs_core - g_core.scale(rec.c), y[y3[k]] ** (rec.mu + 1) * y[y4[k]])
                      for k, rec in enumerate(analysis.records))

    subst = {name: sol.with_order(order) for name, sol in zip(y_ctx.names, solution)}
    for lhs, rhs in equations:
        resid = (lhs - rhs).compose(subst, allow_constant=True)
        if not (resid.is_zero() and resid.exact):
            raise ConsistencyError("the reference solution does not satisfy the emitted system")
    return SystemS(y_ctx=y_ctx, y1_names=y1, y2_names=y2, y3_names=y3, y4_names=y4,
                   equations=equations, solution=solution)


# -- deformation slices ---------------------------------------------------


@dataclass(frozen=True)
class SliceReport:
    t_value: Scalar
    division_exact: bool
    isolated_singularity: Optional[bool]
    reproduces_quotient: Optional[bool]  # checked at t = 0 when polynomial_data
    polynomial_data: bool
    note: str


@dataclass(frozen=True)
class MeroDeformationReport:
    k0: int
    slices: Tuple[SliceReport, ...]


def build_mero_deformation(analysis: MeroAnalysis, family: SolutionFamily,
                           t_grid: Sequence[Scalar], k0: int) -> MeroDeformationReport:
    """Slice a solution family of the system emitted for ``analysis`` of the
    germs f and g at sampled t.

    The witness is split as ``z = z_trunc + tail`` at degree k0; the slice at
    t substitutes ``z_trunc + (1-t) tail``.  For every sampled t the report
    records whether the divisor powers divide the slice form exactly and
    whether the reduced slice form has a constant coefficient gcd.  Division
    failures and truncated slices are per-slice report entries, not fatal
    errors: the t = 0 quotient check runs only on exact slices.

    A slice whose f-, g- and h-components are exact and equal, as
    polynomials, to the declared factors of f and g and the ``h`` of
    ``analysis.records``, in order, is the analysed germ, and nothing is
    worked out for it: f and g passed the checks of :class:`FactoredGerm`
    on construction, and ``analyze`` built their 1-form, divided it by the
    same ``h^mu`` and found a constant gcd of the reduced form, or raised.
    Its outcome ``(division_exact, isolated_singularity, note)`` is
    ``(True, True, "")``, and at t = 0 with polynomial data it reproduces
    the quotient, since its products are f and g.  Every other slice is
    worked out from its own components.
    """
    check = verify_family(family)
    if not check.passed:
        raise PreconditionError("the family does not satisfy the emitted system")
    f, g = analysis.f, analysis.g
    f_exps, g_exps = [exp for _, exp in f.factors], [exp for _, exp in g.factors]
    mus = [rec.mu for rec in analysis.records]
    p, q, e = len(f_exps), len(g_exps), len(mus)
    if len(family.family) != p + q + 2 * e:
        raise PreconditionError("family component count does not match the system")

    x_ctx = family.x_ctx
    germ = [_lifted(j) for j in [base for base, _ in f.factors + g.factors]
            + [rec.h for rec in analysis.records]]
    slices: List[SliceReport] = []
    for t0 in t_grid:
        subst = {}
        for name, w in zip(family.z_names, family.witness):
            trunc = w.polynomial_part(min(k0, w.order - 1))
            tail = w - trunc
            subst[name] = trunc + tail.scale(1 - t0)
        comps = [(comp.compose(subst) if subst else comp.in_context(x_ctx))
                 for comp in family.family]
        poly_data = all(c.exact for c in comps)
        f_slices, g_slices = comps[:p], comps[p:p + q]
        analysed = all(c.exact and _lifted(c) == r for c, r in zip(comps, germ))
        if analysed:
            division_exact, isolated, note = True, True, ""
        else:
            division_exact, isolated, note = _slice_outcome(
                f_slices, f_exps, g_slices, g_exps, comps[p + q:p + q + e], mus)

        reproduces = None
        if t0 == 0 and poly_data:
            # the analysed germ's products are f and g
            reproduces = True
            if not analysed:
                fprod = _product(f_slices, f_exps).with_order(INFINITE_ORDER)
                gprod = _product(g_slices, g_exps).with_order(INFINITE_ORDER)
                fp = f.product.in_context(x_ctx).with_order(INFINITE_ORDER)
                gp = g.product.in_context(x_ctx).with_order(INFINITE_ORDER)
                reproduces = (fprod * gp - fp * gprod).is_zero()
        slices.append(SliceReport(
            t_value=t0, division_exact=division_exact,
            isolated_singularity=isolated, reproduces_quotient=reproduces,
            polynomial_data=poly_data, note=note))
    return MeroDeformationReport(k0=k0, slices=tuple(slices))


def _lifted(j: Jet) -> Optional[Jet]:
    """An exact jet at ``INFINITE_ORDER``, so that two compare equal when
    they are the same polynomial, whatever their orders; None otherwise."""
    return j.with_order(INFINITE_ORDER) if j.exact else None


def _slice_outcome(f_slices: Sequence[Jet], f_exps: Sequence[int],
                   g_slices: Sequence[Jet], g_exps: Sequence[int],
                   h_slices: Sequence[Jet], mus: Sequence[int]
                   ) -> Tuple[bool, Optional[bool], str]:
    """``(division_exact, isolated_singularity, note)`` of one slice: the
    slice germs' 1-form divided by ``hk^mu``, and whether the reduced form
    has a constant coefficient gcd.  A precondition failure is the slice's
    note."""
    try:
        fg_f = FactoredGerm.build(list(zip(f_slices, f_exps)))
        fg_g = FactoredGerm.build(list(zip(g_slices, g_exps)))
        th = theta(fg_f, fg_g)
        # a lift of a truncated hk raises: none is made after a failed division
        omega = th.divided((hk.with_order(th.a.order), mu) for hk, mu in zip(h_slices, mus))
        if omega is None:
            return False, None, ""
        return True, is_constant(omega.coefficient_gcd()), ""
    except PreconditionError as err:
        return False, None, str(err)


def _product(jets: Sequence[Jet], exps: Sequence[int]) -> Jet:
    """The exact product of exact polynomials, at their least order.  It
    starts at the first factor's power, never at the constant 1."""
    powers = [j.with_order(INFINITE_ORDER) ** e for j, e in zip(jets, exps)]
    acc = powers[0]
    for power in powers[1:]:
        acc = acc * power
    return Jet.polynomial(acc.ctx, acc.graded_items(), min(j.order for j in jets))

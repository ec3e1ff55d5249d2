"""Weierstrass division and preparation at finite order.

The division ``g = q f + r`` is computed by the standard order-by-order
fixed-point iteration; it converges within the certification order because
the low part of a regular series has positive valuation in the remaining
variables.

Preparation carries one extra step worth calling out: the unit and the
distinguished polynomial produced by the finite-order iteration are, in
general, only known modulo the order.  When the input is an exact polynomial
the candidate distinguished factor, lifted to an exact polynomial, is
checked by :func:`polygcd.exact_divide`; on success the factorization is
certified exact, which is what later lets vanishing claims about
discriminants stay sound.  In a one-variable context the distinguished
polynomial is exactly ``var^p`` whatever the input, because a series in one
variable is a unit times a power of it.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import (
    ConsistencyError,
    NoRegularDirectionError,
    NotRegularError,
    PreconditionError,
)
from .jets import INFINITE_ORDER, Jet, VarContext
from .polygcd import exact_divide
from .pseudopoly import PseudoPolynomial

#: How many integer directions the regularizing search will try.
CHANGE_BUDGET = 200


@dataclass(frozen=True)
class LinearChange:
    """An invertible integer matrix acting on a block of variables.

    The change substitutes ``x_i -> sum_j M[i][j] x_j`` for the block
    variables and fixes everything else, so parameters are never mixed into
    coordinates as long as the block stays inside the coordinate part.
    """

    block: Tuple[str, ...]
    matrix: Tuple[Tuple[Fraction, ...], ...]

    def __post_init__(self):
        k = len(self.block)
        if len(self.matrix) != k or any(len(row) != k for row in self.matrix):
            raise PreconditionError("linear change matrix does not match its block")
        _mat_inverse(self.matrix)  # raises PreconditionError when singular

    @classmethod
    def identity(cls, block: Sequence[str]) -> "LinearChange":
        k = len(block)
        rows = tuple(tuple(Fraction(1) if i == j else Fraction(0) for j in range(k))
                     for i in range(k))
        return cls(tuple(block), rows)

    @classmethod
    def shear(cls, block: Sequence[str], target: str, coeffs: Sequence[int]) -> "LinearChange":
        """``x_j -> x_j + c_j * target`` for each block variable except the
        target itself."""
        block = tuple(block)
        t = block.index(target)
        k = len(block)
        rows = [[Fraction(1) if i == j else Fraction(0) for j in range(k)] for i in range(k)]
        for i, c in zip((i for i in range(k) if i != t), coeffs):
            rows[i][t] = Fraction(c)
        return cls(block, tuple(tuple(row) for row in rows))

    @property
    def is_identity(self) -> bool:
        k = len(self.block)
        return all(self.matrix[i][j] == (1 if i == j else 0)
                   for i in range(k) for j in range(k))

    def inverse(self) -> "LinearChange":
        return LinearChange(self.block, _mat_inverse(self.matrix))

    def apply(self, f: Jet) -> Jet:
        if self.is_identity:
            return f
        subst = {}
        for i, name in enumerate(self.block):
            form = Jet.zero(f.ctx, f.order)
            for j, other in enumerate(self.block):
                c = self.matrix[i][j]
                if c:
                    form = form + Jet.variable(f.ctx, other, f.order).scale(c)
            subst[name] = form
        return f.compose(subst)

    def describe(self) -> dict:
        return {
            "block": list(self.block),
            "matrix": [[str(c) for c in row] for row in self.matrix],
        }


def _mat_inverse(matrix) -> Tuple[Tuple[Fraction, ...], ...]:
    n = len(matrix)
    m = [list(row) + [Fraction(1) if i == j else Fraction(0) for j in range(n)]
         for i, row in enumerate(matrix)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col]), None)
        if pivot is None:
            raise PreconditionError("linear change matrix is singular")
        m[col], m[pivot] = m[pivot], m[col]
        inv = 1 / m[col][col]
        m[col] = [a * inv for a in m[col]]
        for r in range(n):
            if r != col and m[r][col]:
                factor = m[r][col]
                m[r] = [a - factor * b for a, b in zip(m[r], m[col])]
    return tuple(tuple(row[n:]) for row in m)


@dataclass(frozen=True)
class PreparedForm:
    """``unit * poly == source`` modulo the certification order."""

    unit: Jet
    poly: PseudoPolynomial
    order: int

    @property
    def exact(self) -> bool:
        return self.unit.exact and self.poly.exact


def regularity_order(f: Jet, var: str):
    """Valuation of ``f`` restricted to the axis of ``var``.

    INFINITE_ORDER means the restriction vanishes to the certification
    order (identically, when the jet is exact).
    """
    idx = f.ctx.index(var)
    best = None
    for key, _ in f.terms.items():
        if any(e for i, e in enumerate(key) if i != idx):
            continue
        d = key[idx]
        if best is None or d < best:
            best = d
    return INFINITE_ORDER if best is None else best


def _directional_order(f: Jet, block_idx: List[int], v_pos: int, direction: List[int]):
    """Regularity order after the shear with the given direction vector.

    ``direction`` is indexed like ``block_idx`` with a 1 at ``v_pos``.  Only
    terms supported inside the block can contribute.
    """
    sums: Dict[int, object] = {}
    block = set(block_idx)
    for key, coeff in f.terms.items():
        if any(e for i, e in enumerate(key) if e and i not in block):
            continue
        val = coeff
        ok = True
        for pos, i in enumerate(block_idx):
            e = key[i]
            if not e:
                continue
            c = direction[pos]
            if c == 0:
                ok = False
                break
            val = val * Fraction(c) ** e
        if not ok:
            continue
        d = sum(key)
        cur = sums.get(d)
        sums[d] = val if cur is None else cur + val
    live = [d for d, v in sums.items() if v]
    return min(live) if live else None


def find_regular_change(f: Jet, var: str, block: Sequence[str], seed: int = 0,
                        budget: int = CHANGE_BUDGET) -> LinearChange:
    """Search for an integer shear making ``f`` regular in ``var``.

    Deterministic for a fixed seed: candidate directions are enumerated by
    growing maximal entry, each shell shuffled by the seeded generator, with
    the identity always tried first.  Among the tried candidates the lowest
    resulting regularity order wins (ties go to the earliest candidate); the
    search stops early once the valuation of ``f`` itself is achieved, since
    no direction can do better.
    """
    if f.is_zero():
        raise PreconditionError("cannot regularize the zero jet")
    block = tuple(block)
    if var not in block:
        raise PreconditionError(f"target variable {var!r} not in block {block}")
    block_idx = [f.ctx.index(b) for b in block]
    v_pos = block.index(var)
    floor = None
    for key in f.terms:
        if any(e for i, e in enumerate(key) if e and i not in set(block_idx)):
            continue
        d = sum(key)
        if floor is None or d < floor:
            floor = d
    if floor is None:
        raise NoRegularDirectionError(
            f"no term of f is supported in the block {block}; tried 0 of {budget} candidates")

    free = len(block) - 1
    rng = random.Random(seed)

    def candidates():
        yield (0,) * free
        bound = 1
        while True:
            shell = [c for c in itertools.product(range(-bound, bound + 1), repeat=free)
                     if max((abs(x) for x in c), default=0) == bound]
            rng.shuffle(shell)
            yield from shell
            bound += 1

    best: Optional[Tuple[int, Tuple[int, ...]]] = None
    tried = 0
    for cand in candidates():
        if tried >= budget:
            break
        tried += 1
        direction = list(cand[:v_pos]) + [1] + list(cand[v_pos:])
        order = _directional_order(f, block_idx, v_pos, direction)
        if order is None:
            continue
        if best is None or order < best[0]:
            best = (order, cand)
            if order == floor:
                break
        if free == 0:
            break
    if best is None:
        raise NoRegularDirectionError(
            f"no regular direction found within the budget of {budget} candidates")
    # all-zero coefficients give the identity
    return LinearChange.shear(block, var, best[1])


def _split(f: Jet, var: str, p: int) -> Tuple[Jet, Jet]:
    """Return (low, high) with ``f = low + var^p * high`` and deg_var(low) < p."""
    idx = f.ctx.index(var)
    low: Dict[Tuple[int, ...], object] = {}
    high: Dict[Tuple[int, ...], object] = {}
    for key, coeff in f.terms.items():
        if key[idx] < p:
            low[key] = coeff
        else:
            nk = list(key)
            nk[idx] = key[idx] - p
            high[tuple(nk)] = coeff
    return Jet(f.ctx, f.order, low, f.exact), Jet(f.ctx, f.order, high, f.exact)


def weierstrass_divide(g: Jet, f: Jet, var: str) -> Tuple[Jet, Jet]:
    """Divide ``g`` by a ``var``-regular series: ``g = q f + r`` mod the order,
    with deg_var(r) < p."""
    p = regularity_order(f, var)
    if p == INFINITE_ORDER:
        raise NotRegularError(f"divisor is not regular in {var!r} to order {f.order}")
    order = min(g.order, f.order)
    g = g.truncate(order)
    f = f.truncate(order)
    if p == 0:
        return g * f.invert_unit(), Jet.zero(f.ctx, order)
    f_low, w = _split(f, var, p)
    winv = w.invert_unit()
    q = Jet.zero(f.ctx, order)
    for _ in range(order + 1):
        _, high = _split(g - q * f_low, var, p)
        q_next = winv * high
        if q_next.terms == q.terms:
            q = q_next
            break
        q = q_next
    r = g - q * f
    if max((key[r.ctx.index(var)] for key in r.terms), default=0) >= p:
        raise ConsistencyError("division iteration failed to reduce the remainder")
    return q, r


def weierstrass_prepare(f: Jet, var: str) -> PreparedForm:
    """Factor ``f = unit * W`` with ``W`` monic distinguished in ``var``.

    Requires finite regularity order ``p``; computed by dividing ``var^p`` by
    ``f``.  In a one-variable context ``W`` is exactly ``var^p``.  For exact
    input the candidate ``W`` is certified by :func:`polygcd.exact_divide`;
    on success ``W`` is exact, and so is the unit unless the quotient
    reaches the certification order.
    """
    p = regularity_order(f, var)
    if p == INFINITE_ORDER:
        raise NotRegularError(f"not regular in {var!r} to order {f.order}")
    order = f.order
    if p >= order:
        raise PreconditionError(
            f"regularity order {p} reaches the certification order {order}")
    if p == 0:
        unit = f
        poly = PseudoPolynomial(var, (), ctx=f.ctx, order=order)
        return PreparedForm(unit=unit, poly=poly, order=order)
    vp = Jet.monomial(f.ctx, _unit_key(f.ctx, var, p), order=order)
    q, r = weierstrass_divide(vp, f, var)
    if not q.is_unit():
        raise ConsistencyError("division quotient is not a unit; input was not regular")
    unit = q.invert_unit()
    candidate = PseudoPolynomial.from_jet(vp - r, var)
    if any(c.constant_term() for c in candidate.coeffs):
        raise ConsistencyError("prepared polynomial is not distinguished")
    # the coefficients hold only terms below the order, so nothing is dropped
    lifted = candidate.map_coeffs(lambda c: Jet(c.ctx, order, c.terms, True))
    if len(f.ctx.names) == 1:
        # a one-variable series is a unit times var^p
        candidate = lifted
    if f.exact:
        exact_q = exact_divide(f, lifted.as_jet())
        if exact_q is not None:
            unit, candidate = exact_q.truncate(order), lifted
    return PreparedForm(unit=unit, poly=candidate, order=order)


def regularizing_change(f: Jet, var: str, block: Sequence[str],
                        seed: int = 0) -> LinearChange:
    """The identity when ``f`` is regular in ``var``, else a shear of the
    ``block`` variables found by :func:`find_regular_change`."""
    if regularity_order(f, var) == INFINITE_ORDER:
        return find_regular_change(f, var, block, seed=seed)
    return LinearChange.identity(block)


def prepare_in(f: Jet, var: str, block: Sequence[str],
               seed: int = 0) -> Tuple[PreparedForm, LinearChange]:
    """Prepare ``f`` in ``var`` after :func:`regularizing_change`.

    Returns the prepared form of the changed series and the change used.
    """
    change = regularizing_change(f, var, block, seed)
    return weierstrass_prepare(change.apply(f), var), change


def _unit_key(ctx: VarContext, var: str, e: int) -> Tuple[int, ...]:
    key = [0] * len(ctx.names)
    key[ctx.index(var)] = e
    return tuple(key)

"""Monic polynomials in one distinguished variable with jet coefficients.

The key invariants computed here are the generalized discriminants of a
monic polynomial: with ``s_k`` the Newton power sums of the roots, let
``d_k`` be the determinant of the k-by-k Hankel matrix ``(s_{i+j})``.
Classically ``d_k`` equals the sum over all k-element root subsets of the
squared Vandermonde of the subset, so ``d_k`` vanishes exactly when the
polynomial has fewer than k distinct roots.  This package fixes the indexing
convention

    Delta_l := d_{p - l + 1},   l = 1..p,

so that ``Delta_1`` is the classical discriminant (up to the usual constant)
and the first nonzero index detects the number of distinct roots:
``first_nonzero = p - #distinct + 1``.

The coefficient ring (jets) has zero divisors, so a determinant on jets is
computed division-free (Berkowitz's algorithm).  Its pass meets the
determinant of every leading principal submatrix on the way, so one pass over
the p-by-p Hankel matrix gives the whole sequence ``Delta_1..Delta_p``.
Newton's identities, which give the power sums from the coefficients, are
division-free too.  Both recursions are written once, over any commutative
ring (:func:`_newton`, :func:`_berkowitz`), and each input takes one of two
routes, onto Kronecker images (plain integers: each input packed once, each
minor unpacked once) or onto jets (one :meth:`Jet.dot`, a loop of jet
products, per step), except ``v^p``, whose minors :func:`hankel_minors`
states in closed form:

* a polynomial (:func:`hankel_minors`) runs Newton's identities and then
  the minors' pass on images when :func:`~equijet.jets.hankel_images` gives
  them, else on jets;
* a matrix handed to :func:`berkowitz_minors` (the Sylvester matrices of
  :func:`resultant_jets`) runs the minors' pass on images when
  :func:`~equijet.jets.minor_images` gives them, else on jets.

The images live in Z when every input is known to every order, and modulo
a power of 2 when the inputs are truncated and flag the minors as not
exact.  Images in Z take exact division: the minors' pass there is
fraction-free elimination (:func:`_bareiss`), whose pivots are the leading
minors, in O(n^3) products where Berkowitz takes O(n^4); a zero pivot
whose block does not vanish hands the matrix to the Berkowitz pass.  Images
modulo a power of 2 and jets take the Berkowitz pass.  Jets take rational
or ``Q(alpha)`` coefficients, and truncated input whose flags each
product's own truncation decides.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .errors import (
    ContextMismatchError,
    DegreeCapError,
    InconclusiveError,
    PreconditionError,
)
from .jets import INFINITE_ORDER, Jet, VarContext, hankel_images, minor_images

#: Determinant expansion cost grows quickly; keep the artifact at desk scale.
MAX_DEGREE = 12


class PseudoPolynomial:
    """``v^p + a_1 v^(p-1) + ... + a_p`` with jet coefficients free of ``v``.

    ``coeffs`` is the tuple ``(a_1, ..., a_p)``.  All coefficients live in
    the full ambient context (with zero exponent on the distinguished
    variable), which keeps conversions to and from jets trivial.
    """

    __slots__ = ("var", "ctx", "coeffs", "order")

    def __init__(self, var: str, coeffs: Sequence[Jet], ctx: Optional[VarContext] = None,
                 order: Optional[int] = None):
        coeffs = tuple(coeffs)
        if coeffs:
            ctx = coeffs[0].ctx
            order = min(c.order for c in coeffs)
        if ctx is None or order is None:
            raise PreconditionError("degree-0 pseudopolynomial needs an explicit context and order")
        ctx.index(var)  # rejects an unknown variable
        for c in coeffs:
            if c.ctx != ctx:
                raise ContextMismatchError("pseudopolynomial coefficients in mixed contexts")
            if c.degree_in(var):
                raise PreconditionError(
                    f"coefficient involves the distinguished variable {var!r}")
        if len(coeffs) > MAX_DEGREE:
            raise DegreeCapError(
                f"degree {len(coeffs)} exceeds the cap {MAX_DEGREE}")
        self.var = var
        self.ctx = ctx
        self.coeffs = coeffs
        self.order = order

    @property
    def degree(self) -> int:
        return len(self.coeffs)

    @property
    def is_distinguished(self) -> bool:
        """True when every coefficient vanishes at the origin."""
        return all(not c.constant_term() for c in self.coeffs)

    @property
    def exact(self) -> bool:
        return all(c.exact for c in self.coeffs)

    @classmethod
    def from_jet(cls, f: Jet, var: str) -> "PseudoPolynomial":
        """Interpret a jet as a monic polynomial in ``var``.

        The leading coefficient must be the constant 1 as stored.
        """
        by_power = f.coefficients_in(var)
        if not by_power:
            raise PreconditionError("zero jet is not a monic polynomial")
        p = max(by_power)
        lead = by_power[p]
        if lead.constant_term() != 1 or lead.total_degree() != 0:
            if p > 0:
                raise PreconditionError(f"not monic in {var!r}: leading coefficient {lead}")
            raise PreconditionError("a degree-0 pseudopolynomial must be the constant 1")
        if p == 0:
            return cls(var, (), ctx=f.ctx, order=f.order)
        # an absent coefficient is known to the order coefficients_in gives
        return cls(var, [by_power[e] if e in by_power else Jet.zero(
            f.ctx, f.order if f.exact else f.order - e, exact=f.exact) for e in reversed(range(p))])

    @classmethod
    def from_roots(cls, ctx: VarContext, var: str, roots, order: Optional[int] = None) -> "PseudoPolynomial":
        """Expand ``prod (v - root)`` for explicit scalar roots."""
        from .jets import DEFAULT_ORDER

        order = order if order is not None else DEFAULT_ORDER
        poly = Jet.constant(ctx, 1, order)
        v = Jet.variable(ctx, var, order)
        for r in roots:
            poly = poly * (v - Jet.constant(ctx, r, order))
        return cls.from_jet(poly, var)

    def as_jet(self) -> Jet:
        """``v^p + a_1 v^(p-1) + ... + a_p`` as one jet.

        The term ``a_j v^(p-j)`` is known modulo ``order(a_j) + p - j``, so
        the jet is stated modulo the least of these (the polynomial's own
        order at degree 0); ``v^p`` at ``order + p`` never lowers it.
        """
        p = self.degree
        lead = Jet.constant(self.ctx, 1, self.order).shift(self.var, p)
        return sum((a.shift(self.var, p - j) for j, a in enumerate(self.coeffs, start=1)), lead)

    def map_coeffs(self, fn) -> "PseudoPolynomial":
        if not self.coeffs:
            return self
        return PseudoPolynomial(self.var, tuple(fn(c) for c in self.coeffs))

    def __eq__(self, other):
        if not isinstance(other, PseudoPolynomial):
            return NotImplemented
        return self.var == other.var and self.coeffs == other.coeffs and self.ctx == other.ctx

    def __repr__(self):
        return f"<PseudoPolynomial deg {self.degree} in {self.var}>"

    def __str__(self):
        if self.degree == 0:
            return "1"
        parts = [f"{self.var}^{self.degree}" if self.degree != 1 else self.var]
        for j, a in enumerate(self.coeffs, start=1):
            if a.is_zero():
                continue
            power = self.degree - j
            mono = "" if power == 0 else (f"*{self.var}" if power == 1 else f"*{self.var}^{power}")
            parts.append(f"({a}){mono}")
        return " + ".join(parts)


@dataclass(frozen=True)
class GenDiscSequence:
    """The values ``Delta_1..Delta_p`` with the first-nonzero bookkeeping.

    ``uncertified_below`` lists indices ``l < first_nonzero`` whose vanishing
    is known only modulo the certification order (the entry is not exact).
    """

    degree: int
    entries: Tuple[Jet, ...]
    first_nonzero: int
    order: int
    uncertified_below: Tuple[int, ...]

    @property
    def first_entry(self) -> Jet:
        return self.entries[self.first_nonzero - 1]

    @property
    def certified(self) -> bool:
        return not self.uncertified_below

    def descent_residuals(self, l: int, rhs: Jet) -> Tuple[Jet, ...]:
        """``(Delta_1, ..., Delta_{l-1}, Delta_l - rhs)``: all zero exactly
        when descending at index ``l`` onto ``rhs`` is correct."""
        return self.entries[:l - 1] + (self.entries[l - 1] - rhs,)


def _exact_lift(P: PseudoPolynomial) -> PseudoPolynomial:
    """An exact polynomial known to every order, so that the determinant
    arithmetic that follows cannot truncate; a no-op on inexact input."""
    if not P.coeffs or not P.exact:
        return P
    return P.map_coeffs(lambda c: c.with_order(INFINITE_ORDER))


def _settle(entry: Jet, base_order: int) -> Jet:
    """Bring a lift-computed value back to the smallest order that keeps it
    exact and covers the caller's certification order."""
    return Jet.polynomial(entry.ctx, entry.graded_items(), base_order) if entry.exact else entry


def _newton(coeffs, count: int, s0, zero, dot, scale) -> list:
    """Newton power sums ``s_0..s_(count-1)`` of the roots of
    ``v^p + a_1 v^(p-1) + ... + a_p`` over any commutative ring, from
    ``s_0`` (``p``) and the coefficients, with sums of products
    ``dot(xs, ys, zero)`` and multiples ``scale(a, k)``:
    ``s_k = -(a_1 s_(k-1) + ... + a_m s_(k-m)) - k a_k``, ``m = min(k-1, p)``,
    the last term only for ``k <= p``.  No division is needed."""
    p = len(coeffs)
    sums = [s0]
    for k in range(1, count):
        m = min(k - 1, p)
        acc = dot(coeffs[:m], sums[k - m:k][::-1], zero)
        if k <= p:
            acc = acc + scale(coeffs[k - 1], k)
        sums.append(-acc)
    return sums


def power_sums(P: PseudoPolynomial, count: int) -> List[Jet]:
    """Newton power sums ``s_0..s_{count-1}`` of the roots, from the
    coefficients.

    Newton's identities in this direction need no division at all, so the
    computation stays inside the jet ring (:func:`_newton` on jets).  Each
    ``s_k`` is one dot product of coefficients and earlier sums
    (:meth:`Jet.dot`, one jet product per pair).  Exact input is processed
    at every order so the sums come out exact whatever their degree.
    :func:`hankel_minors` runs the same recursion itself and does not call
    this.
    """
    if count < 1:
        raise PreconditionError("count must be >= 1")
    base_order = P.order
    P = _exact_lift(P)
    sums = _newton(P.coeffs, count, Jet.constant(P.ctx, P.degree, P.order),
                   Jet.zero(P.ctx, P.order), Jet.dot, Jet.scale)
    return [_settle(s, base_order) for s in sums]


def _berkowitz(rows, diagonal, one, zero, dot) -> list:
    """The determinants of the leading principal submatrices, top-left 1-by-1
    block first, from one Berkowitz pass over any commutative ring: it
    extends each block's characteristic polynomial to the next with sums of
    products ``dot(xs, ys, zero)``, and places ``-diagonal[r]`` for the
    corner ``rows[r][r]`` of each block."""
    n = len(rows)
    # charpoly coefficient vector of the 1x1 leading principal submatrix
    vec = [one, -diagonal[0]]
    minors = [-vec[-1]]
    for r in range(1, n):
        # Toeplitz factor of the block [[M, C], [R, a]]: 1, -a, -R.C, -R.M.C, ...
        col0 = [one, -diagonal[r]]
        w = [rows[i][r] for i in range(r)]
        for _ in range(r):
            col0.append(-dot(rows[r][:r], w, zero))
            w = [dot(rows[i][:r], w, zero) for i in range(r)]
        vec = [dot(col0[i::-1], vec[:min(i, r) + 1], zero) for i in range(r + 2)]
        minors.append(vec[-1] if r % 2 == 1 else -vec[-1])
    return minors


def _bareiss(rows: Sequence[Sequence[int]]) -> Optional[List[int]]:
    """The leading principal minors ``d_1..d_n`` of a square matrix of
    Kronecker images in Z (the exact box of
    :func:`~equijet.jets.minor_images` or
    :func:`~equijet.jets.hankel_images`) by fraction-free elimination
    (Bareiss, Math. Comp. 22, 1968), in O(n^3) products; None when a pivot
    is 0 and the rank stop below does not apply, and the Berkowitz pass
    must run.

    With ``d_0 = 1``, step ``k = 1..n`` takes the pivot ``d_k``, the
    top-left entry of the remaining block, drops its row and column, and
    sets every other entry of the block to
    ``a_ij <- (d_k*a_ij - a_ik*a_kj) // d_(k-1)``.  Let ``M`` be the matrix
    of polynomials whose images these are.  After step ``k`` the entry
    ``(i, j)`` (``i, j > k``) is the image of the bordered minor of ``M`` on
    the rows ``1..k, i`` and the columns ``1..k, j``; its top-left entry is
    ``d_(k+1)``:

    * exact division: Sylvester's identity says that ``d_k`` times a
      bordered minor of step ``k - 1``, less the product of two others,
      is ``d_(k-1)`` times the bordered minor of step ``k``, in ``Z[x]``.
      Evaluation at ``x_v = 2^(8*w*weight_v)`` is a ring homomorphism onto
      Z, so the identity holds for the images, and ``d_(k-1)`` was taken
      as a pivot only with a nonzero image: ``//`` divides exactly, and the
      quotient is the image of the bordered minor;
    * pivots read back as before: the pivots are the images of the minors
      ``d_k``, the same integers that the Berkowitz pass forms in Z;
    * the rank stop is sound: every bordered minor is a minor of ``M``, and
      every minor of ``M`` fits the box and the digits of the images.  In
      the box of :func:`~equijet.jets.minor_images` a subset of the rows
      has a sum of greatest degrees no larger than that over all rows.  In
      the box of :func:`~equijet.jets.hankel_images`, on the ``K``-by-``K``
      matrix ``(s_(i+j))`` from ``i, j = 0``, the bordered minor of step
      ``k`` at ``(i, j)`` is isobaric of weight
      ``k*(k-1) + i + j <= (K-1)*(K-2) + 2*(K-1) = K*(K-1)``.  The digits
      hold :func:`~equijet.jets._hadamard`, the product over all rows of
      ``max(1, row 2-norm)``, which bounds a minor on any rows and columns.
      So the image of a bordered minor is 0 exactly when the minor is the
      zero polynomial.  When the pivot ``d_k`` is 0 and so is every entry
      of the block, every minor of ``M`` bordering the leading
      ``(k-1)``-by-``(k-1)`` block, whose minor ``d_(k-1)`` is not 0, is
      zero, and by the bordering theorem ``M`` has rank ``k - 1`` over
      ``Q(x)``: ``d_k..d_n`` are exact zeros.

    Every value kept is a bordered minor, so it never outgrows the digits
    and the box of the minors; only the products before each division are
    wider.  No entry of ``rows`` is changed."""
    block, previous, minors = rows, 1, []
    while block:
        top = block[0]
        pivot = top[0]
        if not pivot:
            # rank k - 1 when the whole block vanishes, else Berkowitz
            return None if any(map(any, block)) else minors + [0] * len(block)
        minors.append(pivot)
        tail = top[1:]
        block = [[(pivot * x - row[0] * y) // previous for x, y in zip(row[1:], tail)]
                 for row in block[1:]]
        previous = pivot
    return minors


def _image_dot(mask: Optional[int]):
    """The dot product of the ring of Kronecker images with this mask:
    plain integers for None, else every sum reduced modulo ``2^M = mask + 1``
    to its balanced residue, in ``[-2^(M-1), 2^(M-1))``.

    The balanced residue is a representative of the same class modulo
    ``2^M`` as the residue in ``[0, 2^M)``, so the pass still runs in
    ``Z/2^M``, the image of the homomorphism from ``Z[x]/(deg >= N)``
    (:func:`~equijet.jets.minor_images`), and :func:`~equijet.jets._digits`,
    which reads the lowest ``M`` bits of any representative, reads the same
    minors.  But a value whose image ``v`` in Z is negative keeps the width
    of its degree, where its residue in ``[0, 2^M)``, ``2^M - |v|``, would
    fill the whole window, so later products multiply narrower integers."""
    if mask is None:
        return lambda xs, ys, acc: sum(map(operator.mul, xs, ys), acc)
    half = (mask + 1) >> 1
    return lambda xs, ys, acc: ((sum(map(operator.mul, xs, ys), acc) + half) & mask) - half


def _image_minors(rows: Sequence[Sequence[int]], mask: Optional[int]) -> List[int]:
    """The images of the leading principal minors of a matrix of Kronecker
    images in the ring of this mask (:func:`_image_dot`): by :func:`_bareiss`
    in Z, unless it returns None, else by the Berkowitz pass."""
    minors = _bareiss(rows) if mask is None else None
    if minors is None:
        minors = _berkowitz(rows, [rows[r][r] for r in range(len(rows))], 1, 0, _image_dot(mask))
    return minors


def berkowitz_minors(rows: Sequence[Sequence[Jet]]) -> List[Jet]:
    """The determinants of the leading principal submatrices of a square
    matrix of jets, top-left 1-by-1 block first, each modulo the least order
    ``N`` in the matrix, from one pass: fraction-free elimination
    (:func:`_bareiss`) on integer images in Z, else the division-free
    Berkowitz pass (it extends each block's characteristic polynomial to the
    next).

    This serves the matrices handed to it, the Sylvester matrices of
    :func:`resultant_jets` among them; :func:`hankel_minors` runs its own
    pass.  A matrix of integer polynomials runs the pass on plain integers,
    their Kronecker images (:func:`minor_images`): each entry is packed once
    and each minor but the first (the entry ``rows[0][0]`` at order ``N``)
    unpacked once.  It does so in one of two boxes:

    * every entry exact at ``INFINITE_ORDER`` (the exact Sylvester matrices
      of :func:`resultant_jets`): the box is, per variable, the sum over
      rows of the row's greatest degree, and the pass runs in Z, by
      :func:`_bareiss` unless a pivot is 0 and its block is not;
    * ``N`` finite and at least 1, with an entry of the leading 2-by-2
      block not exact: the box is graded by total degree below ``N``, and
      the Berkowitz pass runs modulo ``2^(8*w*N^(#active))``, where
      evaluation is a ring homomorphism from ``Z[x]/(deg >= N)``; every
      minor from the second on is not exact, as it is on jets.

    In both, the digits hold Hadamard's bound, the product over all rows of
    ``max(1, sqrt(sum_j ||M_ij||_1^2))``, which bounds every minor, plus a
    sign bit.

    Every other matrix (rational or ``Q(alpha)`` coefficients, or a leading
    2-by-2 block exact at a finite order, where each product's own
    truncation decides its flag) runs the pass on jets, where every step is
    a dot product ``sum x*y`` (:meth:`Jet.dot`), one jet product per pair.
    A product of two exact operands, one of them zero, is not formed; a
    zero known only modulo its order is still multiplied, because it clears
    the exact flag."""
    n = len(rows)
    if n == 0 or any(len(r) != n for r in rows):
        raise PreconditionError("a determinant needs a nonempty square matrix")
    order = min(e.order for r in rows for e in r)
    images = minor_images(rows)
    if images is not None:
        packed, unpack, mask = images
        return [rows[0][0].truncate(order)] + [unpack(m) for m in _image_minors(packed, mask)[1:]]
    ctx = rows[0][0].ctx
    return _berkowitz(rows, [rows[r][r].truncate(order) for r in range(n)],
                      Jet.constant(ctx, 1, order), Jet.zero(ctx, order), Jet.dot)


def berkowitz_det(rows: Sequence[Sequence[Jet]]) -> Jet:
    """Division-free determinant of a square matrix of jets."""
    return berkowitz_minors(rows)[-1]


def hankel_minors(P: PseudoPolynomial, k: int) -> List[Jet]:
    """``d_1..d_k``, the leading principal minors of the k-by-k Hankel matrix
    of power sums ``(s_(i+j))``, from one pass of Newton's identities and
    one pass of the minors: fraction-free elimination on images in Z, else
    the Berkowitz pass.

    ``d_j`` is the sum over all j-element root subsets of the squared
    Vandermonde of the subset.  Exact coefficients are lifted to every
    order, so certified answers stay exact whatever their degree.

    :func:`~equijet.jets.hankel_images` alone picks the ring, on which
    :func:`_newton` and the minors' pass run once each.  It gives integer
    Kronecker images for integer coefficients, ``p >= 2``, and ``P`` exact,
    or truncated at an order ``N >= 1`` with ``a_1`` or ``a_2`` not exact:
    each ``a_i`` is packed once, the passes run on the integers, and each
    minor but the first is unpacked once, so the power sums are never
    formed as jets.  Exact ``P`` has images in Z, where :func:`_bareiss`
    runs, unless a pivot is 0 and its block is not; truncated ``P`` has
    images modulo a power of 2, where :func:`_berkowitz` runs.  The box and
    the digit width hold every minor of the Hankel matrix, by bounds on the
    degrees and norms of the power sums proved there.  Every other ``P``
    runs :func:`_newton` and :func:`_berkowitz` on jets, one
    :meth:`Jet.dot` per step.  All give the same terms, order and flag.

    ``v^p``, every coefficient an exact zero, runs no pass: its only root
    is 0, so ``d_1 = s_0 = p``, and every subset of two or more roots
    repeats it, so ``d_k = 0`` for ``k >= 2``.  These exact values are
    settled at ``P.order`` as the passes settle theirs.  A zero known only
    modulo its order takes the passes, whose minors carry its flag.
    """
    if not (1 <= k <= P.degree):
        raise PreconditionError(f"k={k} out of range 1..{P.degree}")
    base_order = P.order
    if all(a.exact and a.is_zero() for a in P.coeffs):
        # v^p: its one root is 0, so d_1 = p and every larger root subset repeats it
        minors = [Jet.constant(P.ctx, P.degree, INFINITE_ORDER)]
        minors += [Jet.zero(P.ctx, INFINITE_ORDER)] * (k - 1)
        return [_settle(d, base_order) for d in minors]
    P = _exact_lift(P)
    images = hankel_images(P.coeffs, k)
    if images is None:
        coeffs, one, zero = P.coeffs, Jet.constant(P.ctx, 1, P.order), Jet.zero(P.ctx, P.order)
        dot, scale = Jet.dot, Jet.scale
    else:
        coeffs, unpack, mask = images
        one, zero, dot, scale = 1, 0, _image_dot(mask), operator.mul
    sums = _newton(coeffs, 2 * k - 1, scale(one, P.degree), zero, dot, scale)
    rows = [[sums[i + j] for j in range(k)] for i in range(k)]
    if images is None:
        minors = _berkowitz(rows, [rows[r][r] for r in range(k)], one, zero, dot)
    else:
        minors = [Jet.constant(P.ctx, P.degree, P.order)]
        minors += [unpack(m) for m in _image_minors(rows, mask)[1:]]
    return [_settle(d, base_order) for d in minors]


def hankel_minor(P: PseudoPolynomial, k: int) -> Jet:
    """``d_k``, the determinant of the k-by-k Hankel matrix of power sums:
    the last of :func:`hankel_minors`."""
    return hankel_minors(P, k)[-1]


def generalized_discriminants(P: PseudoPolynomial) -> GenDiscSequence:
    """All ``Delta_l`` of a monic polynomial, with first-nonzero bookkeeping.

    The entries are ``hankel_minors(P, p)`` read backwards: one pass.

    Raises :class:`InconclusiveError` if every entry vanishes to the
    certification order without being exactly zero (cannot happen for honest
    monic input in characteristic zero, where ``Delta_p`` is the degree).
    """
    p = P.degree
    if p < 1:
        raise PreconditionError("generalized discriminants need degree >= 1")
    entries = tuple(reversed(hankel_minors(P, p)))
    first = next((l for l, entry in enumerate(entries, start=1) if not entry.is_zero()), None)
    if first is None:
        raise InconclusiveError(
            f"all generalized discriminants vanish to order {P.order}")
    return GenDiscSequence(
        degree=p,
        entries=entries,
        first_nonzero=first,
        order=P.order,
        uncertified_below=tuple(l for l in range(1, first) if not entries[l - 1].exact),
    )


def resultant_jets(A: Jet, B: Jet, var: str) -> Jet:
    """Resultant with respect to ``var`` via the Sylvester determinant.

    Degrees are read from the stored terms, so for truncated inputs the
    caller must know the degree structure is trustworthy (monic inputs, or
    exact polynomials).
    """
    if A.ctx != B.ctx:
        raise ContextMismatchError("resultant operands in different contexts")
    ctx = A.ctx
    base_order = min(A.order, B.order)
    if A.exact and B.exact:
        A, B = A.with_order(INFINITE_ORDER), B.with_order(INFINITE_ORDER)
    order = min(A.order, B.order)
    ca = A.coefficients_in(var)
    cb = B.coefficients_in(var)
    if not ca or not cb:
        return Jet.zero(ctx, base_order, exact=A.exact and B.exact)
    da, db = max(ca), max(cb)
    if da == 0 and db == 0:
        return Jet.constant(ctx, 1, base_order)
    if db == 0:
        return _settle(cb[0] ** da, base_order)
    if da == 0:
        return _settle(ca[0] ** db, base_order)
    zero = Jet.zero(ctx, order)
    arow = [ca.get(da - i, zero) for i in range(da + 1)]
    brow = [cb.get(db - i, zero) for i in range(db + 1)]
    n = da + db
    rows = []
    for i in range(db):
        rows.append([zero] * i + arow + [zero] * (n - i - da - 1))
    for i in range(da):
        rows.append([zero] * i + brow + [zero] * (n - i - db - 1))
    return _settle(berkowitz_det(rows), base_order)


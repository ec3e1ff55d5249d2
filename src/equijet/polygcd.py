"""Exact gcd machinery for the two-variable analysis.

Univariate polynomials over the scalar field are ascending coefficient
lists.  A bivariate polynomial is a list of *columns* indexed by its degree
in the second variable, each column the univariate coefficient list of that
degree in the first.  Gcds are computed by the primitive pseudo-remainder
sequence on columns, with every column operation done by the ``uni_*``
helpers of :mod:`.scalars`.  :func:`jet_gcd`, :func:`x2_content` and
:func:`content_split` convert each jet to columns once (from
``graded_items``) and their result back once (``Jet.polynomial``), and
compute each content once.  Everything is exact; no scalar division is
performed outside the field operations.

Most gcds the analysis asks for are constant.  Before the sequence runs,
:func:`jet_gcd` tries to prove that: it reduces rational operands modulo
the prime :data:`_P` and evaluates each variable in turn at a fixed large
point (:func:`_coprime_images`; Brown, JACM 1971).  A proof ends the call;
anything else, including ``Q(alpha)`` coefficients and every gcd that is
not constant, runs the pseudo-remainder sequence as before.

The jet-facing entry points (:func:`jet_gcd`, :func:`exact_divide`,
:func:`squarefree_decomposition`) require exact polynomial jets.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import PreconditionError
from .jets import Jet, term_sort_key
from .scalars import (
    Scalar,
    Uni,
    scalar_inverse,
    scalar_is_rational,
    uni_deg,
    uni_derivative,
    uni_divmod,
    uni_eval,
    uni_gcd,
    uni_mul,
    uni_neg,
    uni_squarefree_part,
    uni_sub,
    uni_trim,
)

#: How many times :func:`exact_power_dividing` divides before giving up.
POWER_CAP = 64


def rational_roots(a: Uni) -> List[Fraction]:
    """All rational roots of a polynomial with rational coefficients.

    With integer coefficients ``c_0..c_d`` a root ``p/q`` has ``q | c_d``, so
    ``y = c_d * x`` makes the roots integer roots of a monic integer
    polynomial; Sturm bisection on integer endpoints isolates those without
    factoring any coefficient.
    """
    a = uni_trim(list(a))
    if not a or any(not scalar_is_rational(c) for c in a):
        return []
    # clear denominators to integer coefficients
    den = math.lcm(*(c.denominator for c in a))
    ints = [int(c * den) for c in a]
    shift = next(k for k, c in enumerate(ints) if c)
    roots = [Fraction(0)] if shift else []
    ints = ints[shift:]
    d, lead = len(ints) - 1, ints[-1]
    if d < 1:
        return roots
    monic = [Fraction(c * lead ** (d - 1 - k)) for k, c in enumerate(ints[:-1])] + [Fraction(1)]
    chain, bound = _sturm(uni_squarefree_part(monic))
    todo = [(-bound, bound, _sign_changes(chain, -bound), _sign_changes(chain, bound))]
    while todo:
        lo, hi, v_lo, v_hi = todo.pop()
        if v_lo == v_hi:
            continue
        if hi - lo == 1:
            if not uni_eval(chain[0], hi):
                roots.append(Fraction(hi, lead))
            continue
        mid = (lo + hi) // 2
        v_mid = _sign_changes(chain, mid)
        todo += [(lo, mid, v_lo, v_mid), (mid, hi, v_mid, v_hi)]
    return sorted(roots)


def _sturm(a: Uni) -> Tuple[List[List[int]], int]:
    """The Sturm chain of a squarefree rational ``a``, each entry scaled by a
    positive number to integer coefficients, and an integer ``B`` with every
    real root of ``a`` in ``(-B, B)``."""
    chain = [list(a), uni_derivative(a)]
    while uni_deg(chain[-1]) > 0:
        _, r = uni_divmod(chain[-2], chain[-1])
        if not r:
            break
        chain.append(uni_neg(r))
    bound = math.ceil(1 + max(abs(c / a[-1]) for c in a[:-1]))
    scales = [math.lcm(*(c.denominator for c in p)) for p in chain]
    return [[int(c * m) for c in p] for p, m in zip(chain, scales)], bound


def _sign_changes(chain: List[List[int]], x: int) -> int:
    signs = [v > 0 for v in (uni_eval(p, x) for p in chain) if v]
    return sum(s != t for s, t in zip(signs, signs[1:]))


def sturm_real_root_count(a: Uni) -> int:
    """Number of distinct real roots of a squarefree rational polynomial."""
    a = uni_trim([Fraction(c) for c in a])
    if uni_deg(a) < 1:
        return 0
    chain, bound = _sturm(a)
    return _sign_changes(chain, -bound) - _sign_changes(chain, bound)


# -- jets <-> columns ---------------------------------------------------

def _require_exact(j: Jet, what: str) -> None:
    if not j.exact:
        raise PreconditionError(f"{what} needs an exact polynomial jet")


def _columns(j: Jet) -> List[Uni]:
    """``j`` as a list indexed by the degree in the second variable, each
    entry the ascending coefficient list of that column in the first."""
    if len(j.ctx.names) != 2:
        raise PreconditionError("bivariate machinery needs a two-variable context")
    cols: List[Uni] = []
    for (e1, e2), c in j.graded_items():
        cols.extend([] for _ in range(e2 + 1 - len(cols)))
        col = cols[e2]
        col.extend(Fraction(0) for _ in range(e1 + 1 - len(col)))
        col[e1] = c
    return cols


def _terms(cols: List[Uni]) -> Dict[Tuple[int, int], Scalar]:
    return {(e1, e2): c for e2, col in enumerate(cols) for e1, c in enumerate(col) if c}


def _monic(terms: Dict[Tuple[int, ...], Scalar]) -> Dict[Tuple[int, ...], Scalar]:
    """``terms`` scaled so that the graded-lex leading coefficient is 1."""
    if not terms:
        return terms
    lead = terms[max(terms, key=term_sort_key)]
    if lead == 1:
        return terms
    inv = scalar_inverse(lead)
    return {k: v * inv for k, v in terms.items()}


def _content(cols: List[Uni]) -> Uni:
    """The monic gcd of the nonzero columns."""
    content: Uni = []
    for col in cols:
        if col:
            content = uni_gcd(content, col)
            if len(content) == 1:
                break
    return content


def _divide_columns(cols: List[Uni], content: Uni) -> List[Uni]:
    """Each column divided by ``content``, which divides all of them."""
    if len(content) == 1:
        return cols
    return [uni_divmod(col, content)[0] for col in cols]


def x2_content(j: Jet) -> Uni:
    """The content of a bivariate polynomial viewed as a polynomial in the
    second variable: the monic gcd of its coefficients, a polynomial in the
    first variable alone."""
    return _content(_columns(j))


def content_split(j: Jet) -> Tuple[Jet, Jet]:
    """``(content, primitive)`` of an exact bivariate polynomial, with the
    content :func:`x2_content`."""
    cols = _columns(j)
    content = _content(cols)
    return (Jet.polynomial(j.ctx, _terms([content]), j.order),
            Jet.polynomial(j.ctx, _terms(_divide_columns(cols, content)), j.order))


def _prem(a: List[Uni], b: List[Uni]) -> List[Uni]:
    """Pseudo-remainder of ``a`` by ``b`` in the second variable."""
    db = len(b) - 1
    r = a
    while len(r) > db:
        # r <- lead_b * r - lead_r * x2^shift * b
        lead_r, shift = r[-1], len(r) - 1 - db
        r = [uni_mul(b[-1], col) for col in r]
        for i, col in enumerate(b):
            r[shift + i] = uni_sub(r[shift + i], uni_mul(lead_r, col))
        uni_trim(r)
    return r


def _gcd(a: List[Uni], b: List[Uni]) -> List[Uni]:
    """A gcd by the primitive pseudo-remainder sequence: the gcd of the
    contents times the last nonzero primitive remainder."""
    if not a or not b:
        return a or b
    content_a, content_b = _content(a), _content(b)
    cont = uni_gcd(content_a, content_b)
    if len(a) == 1 or len(b) == 1:
        return [cont]
    f1, f2 = _divide_columns(a, content_a), _divide_columns(b, content_b)
    if len(f1) < len(f2):
        f1, f2 = f2, f1
    while f2:
        r = _prem(f1, f2)
        f1, f2 = f2, _divide_columns(r, _content(r))
    return f1 if len(cont) == 1 else [uni_mul(cont, col) for col in f1]


# -- coprimality certificate --------------------------------------------

#: The prime of the modular images, and the points at which the first and
#: the second variable are evaluated.  The points are large: curves through
#: the origin often meet again on a line such as ``x1 = 2``, rarely on one
#: of these.
_P = (1 << 61) - 1
_POINTS = (0x1234_5678_9ABC_DEF1, 0x1EDC_BA98_7654_3211)


def _residues(j: Jet) -> Optional[List[Tuple[Tuple[int, int], int]]]:
    """The terms of a nonzero rational ``j`` with coefficients mod ``_P``,
    or None when ``j`` is zero, has a coefficient outside Q, or has a
    denominator divisible by ``_P``."""
    out = []
    for key, c in j.graded_items():
        if not scalar_is_rational(c) or not c.denominator % _P:
            return None
        out.append((key, c.numerator * pow(c.denominator, -1, _P) % _P))
    return out or None


def _unit_gcd_mod_p(f: List[int], g: List[int]) -> bool:
    """Whether the gcd of two polynomials over GF(_P), ascending and trimmed,
    is a nonzero constant."""
    while g:
        inv, dg = pow(g[-1], -1, _P), len(g) - 1
        r = f
        while len(r) > dg:
            c, shift = r[-1] * inv % _P, len(r) - 1 - dg
            r = r[:-1]
            for i, gc in enumerate(g[:-1]):
                r[shift + i] = (r[shift + i] - c * gc) % _P
            uni_trim(r)
        f, g = g, r
    return len(f) == 1


def _coprime_images(a: Jet, b: Jet) -> bool:
    """True only when the gcd of ``a`` and ``b`` is a constant.

    For ``v`` each variable in turn, both operands are reduced mod ``_P`` and
    ``v`` is set to its point ``t``, which gives images in GF(_P)[w], ``w``
    the other variable.  The gcd is certified constant when, for both
    ``v``, one image keeps the operand's degree in ``w`` and the two images
    have a unit gcd.

    Proof.  Let ``h`` be the primitive integer gcd and ``D`` clear the
    denominators of ``a``, so that ``h*k = D*a`` over Z (Gauss's lemma);
    ``D`` is a unit mod ``_P`` because no denominator is divisible by it.
    Reduction mod ``_P`` followed by ``v = t`` is a ring homomorphism, so
    the image of ``h`` divides both images, and its leading coefficient in
    ``w`` divides that of ``a``.  If ``a`` keeps its degree (the roles of
    ``a`` and ``b`` are symmetric), that coefficient is nonzero, so the
    image of ``h`` has degree ``deg_w h``; dividing the unit gcd of the
    images, it has degree 0.  Both variables give
    ``deg_x1 h = deg_x2 h = 0``, so ``h`` is constant.
    """
    ra, rb = _residues(a), _residues(b)
    if ra is None or rb is None:
        return False
    for v, t in enumerate(_POINTS):
        w, images, keeps = 1 - v, [], False
        for terms in (ra, rb):
            image = [0] * (1 + max(key[w] for key, _ in terms))
            for key, c in terms:
                image[key[w]] = (image[key[w]] + c * pow(t, key[v], _P)) % _P
            keeps = keeps or image[-1] != 0
            images.append(uni_trim(image))
        if not keeps or not _unit_gcd_mod_p(*images):
            return False
    return True


# -- jet-level API -------------------------------------------------------

def jet_gcd(a: Jet, b: Jet) -> Jet:
    """Normalized gcd of two exact bivariate polynomial jets.

    A pair that :func:`_coprime_images` certifies coprime gets the constant
    1 without the pseudo-remainder sequence; that needs both operands
    nonzero with rational coefficients.  Every other pair, and every pair
    whose gcd is not constant, runs the sequence (:func:`_gcd`).
    """
    _require_exact(a, "gcd")
    _require_exact(b, "gcd")
    if a.ctx != b.ctx:
        raise PreconditionError("gcd operands in different contexts")
    if len(a.ctx.names) == 2 and _coprime_images(a, b):
        return Jet.polynomial(a.ctx, {(0, 0): Fraction(1)}, min(a.order, b.order))
    g = _gcd(_columns(a), _columns(b))
    return Jet.polynomial(a.ctx, _monic(_terms(g)), min(a.order, b.order))


def jet_gcd_many(jets: Sequence[Jet]) -> Jet:
    if not jets:
        raise PreconditionError("gcd of an empty list")
    acc = jets[0]
    for j in jets[1:]:
        acc = jet_gcd(acc, j)
    return acc


def is_constant(j: Jet) -> bool:
    return j.total_degree() in (None, 0)


def exact_divide(a: Jet, b: Jet) -> Optional[Jet]:
    """Exact quotient a / b of exact polynomial jets, or None.

    Leading-term reduction in graded-lex order: valid as a divisibility test
    against a single divisor over an integral coefficient domain.
    """
    _require_exact(a, "exact division")
    _require_exact(b, "exact division")
    if a.ctx != b.ctx:
        raise PreconditionError("division operands in different contexts")
    if b.is_zero():
        return None
    if a.is_zero():
        return Jet.zero(a.ctx, a.order)
    rem = dict(a.graded_items())
    b_items = b.graded_items()
    lead_key, lead = b_items[-1]
    inv = scalar_inverse(lead)
    quot: Dict[Tuple[int, ...], Scalar] = {}
    while rem:
        rk = max(rem, key=term_sort_key)
        diff = tuple(x - y for x, y in zip(rk, lead_key))
        if any(d < 0 for d in diff):
            return None
        c = rem[rk] * inv
        quot[diff] = c
        for bk, bv in b_items:
            key = tuple(x + y for x, y in zip(diff, bk))
            cur = rem.get(key)
            val = (cur if cur is not None else Fraction(0)) - c * bv
            if val:
                rem[key] = val
            else:
                rem.pop(key, None)
    return Jet.polynomial(a.ctx, quot, a.order)


def exact_power_dividing(a: Jet, h: Jet) -> Tuple[int, Jet]:
    """Largest m with h^m dividing a exactly; returns (m, cofactor)."""
    if a.is_zero():
        raise PreconditionError("zero has no finite divisor power")
    m = 0
    cof = a
    while m < POWER_CAP:
        q = exact_divide(cof, h)
        if q is None:
            return m, cof
        m += 1
        cof = q
    raise PreconditionError("divisor power exceeded the cap")


def squarefree_decomposition(d: Jet) -> List[Tuple[Jet, int]]:
    """Write an exact bivariate polynomial as ``prod p_m^m`` with the p_m
    squarefree and pairwise coprime (constant factors dropped).

    Uses repeated gcds with the partial derivatives, which is valid in
    characteristic zero.
    """
    _require_exact(d, "squarefree decomposition")
    if d.is_zero() or is_constant(d):
        return []
    x1, x2 = d.ctx.names
    # with d = prod p_k^k, chain[m] is prod p_k^(k - m) over k > m
    chain = [d]
    while not is_constant(chain[-1]):
        nxt = jet_gcd_many([chain[-1], chain[-1].derivative(x1), chain[-1].derivative(x2)])
        chain.append(_strip_constant(nxt))
    # sq[m] has the factors of multiplicity > m, each once
    sq = [_strip_constant(_divide(c, nxt)) for c, nxt in zip(chain, chain[1:])]
    sq.append(chain[-1])
    parts: List[Tuple[Jet, int]] = []
    for m in range(len(sq) - 1):
        piece, upper = sq[m], sq[m + 1]
        if not is_constant(upper):
            piece = _divide(piece, upper)
        if not is_constant(piece):
            parts.append((Jet.polynomial(d.ctx, _monic(dict(piece.graded_items())), d.order), m + 1))
    return parts


def _divide(a: Jet, b: Jet) -> Jet:
    q = exact_divide(a, b)
    if q is None:
        raise PreconditionError("squarefree decomposition division failed")
    return q


def _strip_constant(j: Jet) -> Jet:
    return Jet.polynomial(j.ctx, _monic(dict(j.graded_items())), j.order)

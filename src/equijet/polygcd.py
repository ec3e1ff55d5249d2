"""Exact gcd machinery for the two-variable analysis.

Univariate polynomials over the scalar field are ascending coefficient
lists; bivariate polynomials are handled as polynomials in the second
variable whose coefficients are univariate in the first, with gcds computed
by the primitive pseudo-remainder sequence.  Everything is exact; no scalar
division is performed outside the field operations.

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
    uni_deg,
    uni_derivative,
    uni_divmod,
    uni_eval,
    uni_gcd,
    uni_neg,
    uni_trim,
)

Biv = Dict[Tuple[int, int], Scalar]  # (e1, e2) -> coefficient

#: How many times :func:`exact_power_dividing` divides before giving up.
POWER_CAP = 64


def rational_roots(a: Uni) -> List[Fraction]:
    """All rational roots of a polynomial with rational coefficients."""
    a = uni_trim(list(a))
    if not a or any(not isinstance(c, Fraction) for c in a):
        return []
    # clear denominators to integer coefficients
    den = math.lcm(*(c.denominator for c in a))
    ints = [int(c * den) for c in a]
    shift = 0
    while ints[shift] == 0:
        shift += 1
    roots = [Fraction(0)] if shift else []
    ints = ints[shift:]
    a0, an = abs(ints[0]), abs(ints[-1])
    for p in _divisors(a0):
        for q in _divisors(an):
            for cand in (Fraction(p, q), Fraction(-p, q)):
                if cand not in roots and uni_eval(a, cand) == 0:
                    roots.append(cand)
    return sorted(roots)


def _divisors(n: int) -> List[int]:
    n = abs(n)
    if n == 0:
        return [1]
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return sorted(out)


def sturm_real_root_count(a: Uni) -> int:
    """Number of distinct real roots of a squarefree rational polynomial."""
    a = uni_trim([Fraction(c) for c in a])
    if uni_deg(a) < 1:
        return 0
    chain = [list(a), uni_derivative(a)]
    while uni_deg(chain[-1]) > 0:
        _, r = uni_divmod(chain[-2], chain[-1])
        if not r:
            break
        chain.append(uni_neg(r))
    def sign_changes(at_inf: int) -> int:
        signs = []
        for p in chain:
            if not p:
                continue
            lead = p[-1]
            s = 1 if lead > 0 else -1
            if at_inf < 0 and uni_deg(p) % 2 == 1:
                s = -s
            signs.append(s)
        return sum(1 for x, y in zip(signs, signs[1:]) if x != y)
    return sign_changes(-1) - sign_changes(1)


# -- jets <-> structures ------------------------------------------------

def _require_exact(j: Jet, what: str) -> None:
    if not j.exact:
        raise PreconditionError(f"{what} needs an exact polynomial jet")


def to_biv(j: Jet) -> Biv:
    if len(j.ctx.names) != 2:
        raise PreconditionError("bivariate machinery needs a two-variable context")
    return dict(j.graded_items())


def _biv_coeffs_in_x2(b: Biv) -> Dict[int, Uni]:
    out: Dict[int, Uni] = {}
    for (e1, e2), c in b.items():
        col = out.setdefault(e2, [])
        while len(col) <= e1:
            col.append(Fraction(0))
        col[e1] = c
    return {e2: uni_trim(col) for e2, col in out.items() if uni_trim(list(col))}


def _biv_from_x2(cols: Dict[int, Uni]) -> Biv:
    out: Biv = {}
    for e2, col in cols.items():
        for e1, c in enumerate(col):
            if c:
                out[(e1, e2)] = c
    return out


def biv_deg_x2(b: Biv) -> int:
    return max((e2 for (_, e2) in b), default=-1)


def _biv_mul(a: Biv, b: Biv) -> Biv:
    out: Biv = {}
    for (i1, j1), x in a.items():
        for (i2, j2), y in b.items():
            key = (i1 + i2, j1 + j2)
            cur = out.get(key)
            val = x * y
            out[key] = val if cur is None else cur + val
    return {k: v for k, v in out.items() if v}


def _biv_sub(a: Biv, b: Biv) -> Biv:
    out = dict(a)
    for k, v in b.items():
        cur = out.get(k)
        out[k] = -v if cur is None else cur - v
    return {k: v for k, v in out.items() if v}


def _content_x2(b: Biv) -> Uni:
    cols = _biv_coeffs_in_x2(b)
    content: Uni = []
    for col in cols.values():
        content = uni_gcd(content, col) if content else uni_gcd(col, [])
    return content


def _biv_divide_by_uni(b: Biv, c: Uni) -> Biv:
    cols = _biv_coeffs_in_x2(b)
    out: Dict[int, Uni] = {}
    for e2, col in cols.items():
        q, r = uni_divmod(col, c)
        if r:
            raise PreconditionError("content division left a remainder")
        out[e2] = q
    return _biv_from_x2(out)


def x2_content(j: Jet) -> Uni:
    """The content of a bivariate polynomial viewed as a polynomial in the
    second variable: the monic gcd of its coefficients, a polynomial in the
    first variable alone."""
    return _content_x2(to_biv(j))


def content_split(j: Jet) -> Tuple[Jet, Jet]:
    """``(content, primitive)`` of an exact bivariate polynomial, with the
    content :func:`x2_content`."""
    b = to_biv(j)
    content = x2_content(j)
    return (Jet.polynomial(j.ctx, {(e1, 0): c for e1, c in enumerate(content) if c}, j.order),
            Jet.polynomial(j.ctx, _biv_divide_by_uni(b, content), j.order))


def _biv_prem(a: Biv, b: Biv) -> Biv:
    """Pseudo-remainder of a by b in the second variable."""
    db = biv_deg_x2(b)
    cols_b = _biv_coeffs_in_x2(b)
    lead_b = cols_b.get(db, [])
    r = dict(a)
    while True:
        dr = biv_deg_x2(r)
        if dr < db or dr < 0:
            return r
        cols_r = _biv_coeffs_in_x2(r)
        lead_r = cols_r.get(dr, [])
        # r <- lead_b * r - lead_r * x2^(dr-db) * b
        scaled_r = _biv_mul(r, {(e1, 0): c for e1, c in enumerate(lead_b) if c})
        shift = {(e1, dr - db): c for e1, c in enumerate(lead_r) if c}
        r = _biv_sub(scaled_r, _biv_mul(shift, b))


def _biv_primitive(b: Biv) -> Biv:
    if not b:
        return b
    content = _content_x2(b)
    if uni_deg(content) < 1 and content and content[0] == 1:
        return b
    return _biv_divide_by_uni(b, content)


def _biv_gcd(a: Biv, b: Biv) -> Biv:
    if not a:
        return dict(b)
    if not b:
        return dict(a)
    da, db = biv_deg_x2(a), biv_deg_x2(b)
    if da == 0 or db == 0:
        flat, other = (a, b) if da == 0 else (b, a)
        g = uni_gcd(_content_x2(flat), _content_x2(other))
        return {(e1, 0): c for e1, c in enumerate(g) if c}
    cont = uni_gcd(_content_x2(a), _content_x2(b))
    f1, f2 = _biv_primitive(a), _biv_primitive(b)
    if biv_deg_x2(f1) < biv_deg_x2(f2):
        f1, f2 = f2, f1
    while f2:
        r = _biv_prem(f1, f2)
        f1, f2 = f2, _biv_primitive(r) if r else {}
    g = _biv_primitive(f1)
    if uni_deg(cont) >= 1 or (cont and cont[0] != 1):
        g = _biv_mul(g, {(e1, 0): c for e1, c in enumerate(cont) if c})
    return g


def _biv_normalize(b: Biv) -> Biv:
    """Scale so the graded-lex leading coefficient is 1."""
    if not b:
        return b
    lead_key = max(b, key=term_sort_key)
    lead = b[lead_key]
    if lead == 1:
        return b
    inv = scalar_inverse(lead)
    return {k: v * inv for k, v in b.items()}


# -- jet-level API -------------------------------------------------------

def jet_gcd(a: Jet, b: Jet) -> Jet:
    """Normalized gcd of two exact bivariate polynomial jets."""
    _require_exact(a, "gcd")
    _require_exact(b, "gcd")
    if a.ctx != b.ctx:
        raise PreconditionError("gcd operands in different contexts")
    g = _biv_normalize(_biv_gcd(to_biv(a), to_biv(b)))
    return Jet.polynomial(a.ctx, g, min(a.order, b.order))


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
            parts.append((Jet.polynomial(d.ctx, _biv_normalize(to_biv(piece)), d.order), m + 1))
    return parts


def _divide(a: Jet, b: Jet) -> Jet:
    q = exact_divide(a, b)
    if q is None:
        raise PreconditionError("squarefree decomposition division failed")
    return q


def _strip_constant(j: Jet) -> Jet:
    b = _biv_normalize(to_biv(j))
    return Jet.polynomial(j.ctx, b, j.order)

"""Independent correctness oracles for the benchmark.

Nothing here calls into ``equijet``: polynomials are plain dicts mapping
exponent tuples to ``Fraction`` coefficients, and every identity the
program claims is recomputed with this module's own arithmetic (or with
``sympy`` where noted).  Program objects are only *read*: a ``Jet`` is
turned into a dict through its ``terms``, ``order`` and ``exact`` fields.

Each ``check_*`` function returns a list of failure messages; an empty list
means the output passed.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import Dict, List, Optional, Sequence, Tuple

Poly = Dict[Tuple[int, ...], Fraction]


# -- dict polynomial arithmetic ------------------------------------------------

def clean(a: Poly) -> Poly:
    return {k: v for k, v in a.items() if v}


def add(a: Poly, b: Poly, sign: int = 1) -> Poly:
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, 0) + sign * v
    return clean(out)


def sub(a: Poly, b: Poly) -> Poly:
    return add(a, b, -1)


def mul(a: Poly, b: Poly, order: Optional[int] = None) -> Poly:
    """Product of two dict polynomials; with ``order`` only terms of total
    degree below it are formed."""
    out: Poly = {}
    bs = [(kb, vb, sum(kb)) for kb, vb in b.items()]
    for ka, va in a.items():
        da = sum(ka)
        for kb, vb, db in bs:
            if order is not None and da + db >= order:
                continue
            k = tuple(x + y for x, y in zip(ka, kb))
            out[k] = out.get(k, 0) + va * vb
    return clean(out)


def power(a: Poly, n: int, width: int, order: Optional[int] = None) -> Poly:
    out: Poly = {(0,) * width: Fraction(1)}
    for _ in range(n):
        out = mul(out, a, order)
    return out


def scale(a: Poly, c) -> Poly:
    return clean({k: v * c for k, v in a.items()})


def trunc(a: Poly, order: int) -> Poly:
    return {k: v for k, v in a.items() if sum(k) < order}


def const(c, width: int) -> Poly:
    return clean({(0,) * width: Fraction(c)})


def var(i: int, width: int) -> Poly:
    key = [0] * width
    key[i] = 1
    return {tuple(key): Fraction(1)}


def derivative(a: Poly, i: int) -> Poly:
    out: Poly = {}
    for k, v in a.items():
        if k[i]:
            nk = list(k)
            nk[i] -= 1
            out[tuple(nk)] = v * k[i]
    return out


def equal_mod(a: Poly, b: Poly, order: int) -> bool:
    return not trunc(sub(a, b), order)


def jet_dict(j) -> Poly:
    """Read a program ``Jet`` (or a report jet entry) into a dict."""
    if isinstance(j, dict):
        return clean({tuple(t["exponents"]): Fraction(t["coefficient"]) for t in j["terms"]})
    return clean({k: Fraction(v) for k, v in j.terms.items()})


def pseudo_dict(P) -> Poly:
    """``v^p + a_1 v^(p-1) + ... + a_p`` of a program pseudopolynomial."""
    idx = P.ctx.index(P.var)
    width = len(P.ctx.names)
    top = [0] * width
    top[idx] = P.degree
    out: Poly = {tuple(top): Fraction(1)}
    for j, c in enumerate(P.coeffs, start=1):
        for k, v in c.terms.items():
            nk = list(k)
            nk[idx] += P.degree - j
            out[tuple(nk)] = out.get(tuple(nk), 0) + Fraction(v)
    return clean(out)


def total_degree(a: Poly) -> int:
    return max((sum(k) for k in a), default=0)


# -- linear changes and substitution -------------------------------------------

def apply_change(a: Poly, block_idx: Sequence[int], matrix, width: int,
                 order: Optional[int]) -> Poly:
    """Substitute ``x_i -> sum_j M[i][j] x_j`` on the block variables."""
    values = {i: var(i, width) for i in range(width)}
    for r, i in enumerate(block_idx):
        form: Poly = {}
        for c, j in enumerate(block_idx):
            if matrix[r][c]:
                form = add(form, scale(var(j, width), Fraction(matrix[r][c])))
        values[i] = form
    return evaluate(a, values, width, order)


def evaluate(a: Poly, values: Dict[int, Poly], width: int, order: Optional[int] = None) -> Poly:
    """Replace every variable ``i`` of ``a`` by ``values[i]``, a polynomial
    in ``width`` variables."""
    cache: Dict[Tuple[int, int], Poly] = {}

    def pw(i: int, e: int) -> Poly:
        if (i, e) not in cache:
            cache[(i, e)] = const(1, width) if e == 0 else mul(pw(i, e - 1), values[i], order)
        return cache[(i, e)]

    out: Poly = {}
    for k, v in a.items():
        term = const(v, width)
        for i, e in enumerate(k):
            if e:
                term = mul(term, pw(i, e), order)
        out = add(out, term)
    return out


# -- generalized discriminants, from the definition ---------------------------

def power_sums(coeffs: Sequence[Poly], count: int, width: int, order: Optional[int]) -> List[Poly]:
    """Newton power sums of the roots of ``v^p + a_1 v^(p-1) + ... + a_p``."""
    p = len(coeffs)
    sums = [const(p, width)]
    for m in range(1, count):
        acc: Poly = {}
        for i in range(1, min(m, p) + 1):
            term = scale(coeffs[i - 1], m) if i == m else mul(coeffs[i - 1], sums[m - i], order)
            acc = add(acc, term)
        sums.append(scale(acc, -1))
    return sums


def determinant(rows: List[List[Poly]], width: int, order: Optional[int]) -> Poly:
    """Determinant by expansion over column subsets (division free), or by
    Gaussian elimination when every entry is a constant."""
    n = len(rows)
    zero_key = (0,) * width
    if all(set(e) <= {zero_key} for r in rows for e in r):
        m = [[e.get(zero_key, Fraction(0)) for e in r] for r in rows]
        det = Fraction(1)
        for c in range(n):
            piv = next((r for r in range(c, n) if m[r][c]), None)
            if piv is None:
                return {}
            if piv != c:
                m[c], m[piv] = m[piv], m[c]
                det = -det
            det *= m[c][c]
            for r in range(c + 1, n):
                f = m[r][c] / m[c][c]
                if f:
                    m[r] = [x - f * y for x, y in zip(m[r], m[c])]
        return const(det, width)
    minors: Dict[int, Poly] = {0: const(1, width)}
    for r in range(n):
        nxt: Dict[int, Poly] = {}
        for mask, val in minors.items():
            if not val:
                continue
            for c in range(n):
                if mask >> c & 1:
                    continue
                sign = -1 if bin(mask >> c).count("1") % 2 else 1
                term = mul(val, rows[r][c], order)
                key = mask | (1 << c)
                nxt[key] = add(nxt.get(key, {}), term, sign)
        minors = nxt
    return minors.get((1 << n) - 1, {})


def gendisc(coeffs: Sequence[Poly], width: int, order: Optional[int]) -> List[Poly]:
    """``Delta_l = det(s_{i+j})_{k x k}`` with ``k = p - l + 1``, l = 1..p."""
    p = len(coeffs)
    sums = power_sums(coeffs, 2 * p - 1, width, order)
    out = []
    for l in range(1, p + 1):
        k = p - l + 1
        out.append(determinant([[sums[i + j] for j in range(k)] for i in range(k)], width, order))
    return out


def vandermonde_gendisc(roots: Sequence[Poly], width: int, order: Optional[int]) -> List[Poly]:
    """``d_k = sum over k-subsets of prod (r_i - r_j)^2``, as ``Delta_1..Delta_p``."""
    p = len(roots)
    diffs = {(i, j): mul(sub(roots[i], roots[j]), sub(roots[i], roots[j]), order)
             for i in range(p) for j in range(i + 1, p)}
    out = []
    for l in range(1, p + 1):
        k = p - l + 1
        total: Poly = {}
        for subset in combinations(range(p), k):
            term = const(1, width)
            for i, j in combinations(subset, 2):
                term = mul(term, diffs[(i, j)], order)
            total = add(total, term)
        out.append(total)
    return out


# -- checks on program outputs --------------------------------------------------

def levels_source(f: Poly, levels, ctx, order: Optional[int]) -> Poly:
    """The input after every recorded level change, applied top down."""
    width = len(ctx.names)
    src = f
    for lv in levels:
        ch = lv.change
        if all(ch.matrix[i][j] == (1 if i == j else 0)
               for i in range(len(ch.block)) for j in range(len(ch.block))):
            continue
        src = apply_change(src, [ctx.index(b) for b in ch.block], ch.matrix, width, order)
    return src


def check_identity(lhs: Poly, lhs_exact: bool, unit, poly, order: int, what: str) -> List[str]:
    """``unit * W == lhs`` modulo ``order``, and exactly when both factors
    claim to be exact."""
    u = jet_dict(unit)
    w = pseudo_dict(poly)
    errs = []
    if not equal_mod(mul(u, w, order), lhs, order):
        errs.append(f"{what}: unit*W differs from its source modulo degree {order}")
    if unit.exact and poly.exact:
        if not lhs_exact:
            errs.append(f"{what}: exact factors claimed for a truncated source")
        elif sub(mul(u, w), lhs):
            errs.append(f"{what}: claimed exact, but unit*W is not identically the source")
    return errs


def check_preparation(f: Poly, f_exact: bool, prepared, order: int) -> List[str]:
    """``check_identity`` for a ``PreparedForm`` of ``f``."""
    return check_identity(f, f_exact, prepared.unit, prepared.poly, order, "preparation")


def check_levels(f: Poly, f_exact: bool, levels, ctx, order: int,
                 terminal=None) -> List[str]:
    """Re-verify a ladder (tower or family certificate) from its stored data.

    The top level must prepare the input after the recorded coordinate changes;
    every lower level must prepare ``Delta_l`` of the level above, with
    ``Delta_1..Delta_{l-1}`` vanishing; ``terminal`` is ``(index, unit)``
    for the closing discriminant.
    """
    width = len(ctx.names)
    errs: List[str] = []
    if not levels:
        return errs
    changed = levels_source(f, levels, ctx, None if f_exact else order)
    errs += check_identity(changed, f_exact, levels[0].unit, levels[0].poly, order, "level 1")
    steps = [(levels[i - 1], levels[i].disc_index, levels[i]) for i in range(1, len(levels))]
    if terminal is not None and terminal[0] is not None:
        steps.append((levels[-1], terminal[0], None))
    for pos, (parent, l, child) in enumerate(steps, start=2):
        exact = parent.poly.exact
        coeffs = [jet_dict(c) for c in parent.poly.coeffs]
        deltas = gendisc(coeffs, width, None if exact else order)
        for j in range(l - 1):
            if trunc(deltas[j], order) or (deltas[j] and exact):
                errs.append(f"level {pos}: Delta_{j + 1} of the level above does not vanish")
            elif not exact:
                errs.append(f"level {pos}: vanishing of Delta_{j + 1} claimed from truncated data")
        if child is not None:
            errs += check_identity(deltas[l - 1], exact, child.unit, child.poly, order,
                                   f"level {pos}")
        else:
            unit = jet_dict(terminal[1])
            if not equal_mod(unit, deltas[l - 1], order):
                errs.append("terminal discriminant differs from the stored terminal unit")
            if not unit.get((0,) * width):
                errs.append("terminal discriminant is not a unit")
    return errs


def distinct_roots(coeffs: Sequence[Poly], names: Sequence[str], var_name: str) -> int:
    """Number of distinct roots in ``var_name`` over the function field, by
    ``sympy``: ``p - deg gcd(P, dP/dv)``."""
    import sympy

    syms = sympy.symbols(list(names))
    v = syms[list(names).index(var_name)]
    p = len(coeffs)
    expr = v ** p
    for j, c in enumerate(coeffs, start=1):
        term = sum(sympy.Rational(val.numerator, val.denominator)
                   * sympy.Mul(*[s ** e for s, e in zip(syms, k)])
                   for k, val in c.items()) if c else 0
        expr += term * v ** (p - j)
    P = sympy.Poly(expr, *syms)
    g = sympy.gcd(P, P.diff(v))
    return p - sympy.degree(g, v)

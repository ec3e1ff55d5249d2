"""Exact scalar arithmetic: rationals plus one simple algebraic extension.

Coefficients throughout the package are rational values or
``FieldElement`` values living in Q(alpha) for a stored monic minimal
polynomial.  Nothing is ever rounded.  Results that happen to be rational
are demoted back to plain ``Fraction``, so extension elements only appear
where the extension is genuinely needed.  A jet stores a rational value as
an ``int`` when it is integral and as a ``Fraction`` otherwise, so a value
read from a jet is inverted with :func:`scalar_inverse`, never ``1 / s``.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import zip_longest
from typing import List, Tuple, Union

from .errors import PreconditionError


def _frac(v) -> Fraction:
    if isinstance(v, Fraction):
        return v
    if isinstance(v, int):
        return Fraction(v)
    raise TypeError(f"not a rational value: {v!r}")


def scalar_inverse(s: "Scalar") -> "Scalar":
    return Fraction(1) / s if isinstance(s, (int, Fraction)) else s.inverse()


# -- univariate polynomials over the scalars (ascending coefficient lists) ----
# The one set of helpers for the extension field below, ``polygcd`` and
# ``mero``.

Uni = List["Scalar"]


def uni_trim(p: Uni) -> Uni:
    while p and not p[-1]:
        p.pop()
    return p


def uni_deg(p: Uni) -> int:
    return len(p) - 1


def uni_neg(a: Uni) -> Uni:
    return [-c for c in a]


def uni_sub(a: Uni, b: Uni) -> Uni:
    return uni_trim([x - y for x, y in zip_longest(a, b, fillvalue=Fraction(0))])


def uni_mul(a: Uni, b: Uni) -> Uni:
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if not x:
            continue
        for j, y in enumerate(b):
            if y:
                out[i + j] = out[i + j] + x * y
    return uni_trim(out)


def uni_scale(a: Uni, s: "Scalar") -> Uni:
    if not s:
        return []
    return [c * s for c in a]


def uni_divmod(a: Uni, b: Uni) -> Tuple[Uni, Uni]:
    if not b:
        raise ZeroDivisionError("univariate division by zero")
    a = list(a)
    q: Uni = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    inv = scalar_inverse(b[-1])
    while a and len(a) >= len(b):
        if not a[-1]:
            a.pop()
            continue
        shift = len(a) - len(b)
        c = a[-1] * inv
        q[shift] = c
        for i, y in enumerate(b):
            a[shift + i] = a[shift + i] - c * y
        uni_trim(a)
    return uni_trim(q), a


def uni_gcd(a: Uni, b: Uni) -> Uni:
    """Monic gcd over the scalar field."""
    a, b = uni_trim(list(a)), uni_trim(list(b))
    while b:
        _, r = uni_divmod(a, b)
        a, b = b, r
    if not a:
        return []
    inv = scalar_inverse(a[-1])
    return [c * inv for c in a]


def uni_derivative(a: Uni) -> Uni:
    return uni_trim([c * i for i, c in enumerate(a)][1:])


def uni_squarefree_part(a: Uni) -> Uni:
    g = uni_gcd(a, uni_derivative(a))
    if uni_deg(g) < 1:
        return list(a)
    q, r = uni_divmod(a, g)
    if r:
        raise PreconditionError("squarefree part division left a remainder")
    return q


def uni_eval(a: Uni, x: "Scalar") -> "Scalar":
    """Horner evaluation; integer coefficients at an integer give an integer."""
    acc = 0
    for c in reversed(a):
        acc = acc * x + c
    return acc


def _uni_inverse_mod(a: Uni, m: Uni) -> Tuple[Uni, Uni]:
    """Return (g, s) with s*a = g modulo m, g = gcd(a, m) up to a scalar."""
    r0, r1 = list(a), list(m)
    s0, s1 = [Fraction(1)], []
    while uni_trim(r1):
        q, r = uni_divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, uni_sub(s0, uni_mul(q, s1))
    return r0, s0


class NumberField:
    """Q(alpha) for a monic minimal polynomial with rational coefficients.

    ``minpoly`` is stored as an ascending coefficient tuple including the
    leading 1.  The polynomial is assumed irreducible over Q; the package
    checks what it can (degree, monicity) and treats a reducible modulus as a
    downstream consistency failure.
    """

    __slots__ = ("minpoly", "name")

    def __init__(self, minpoly, name="alpha"):
        coeffs = tuple(_frac(c) for c in minpoly)
        if len(coeffs) < 3:
            raise ValueError("minimal polynomial must have degree >= 2")
        if coeffs[-1] != 1:
            raise ValueError("minimal polynomial must be monic")
        self.minpoly = coeffs
        self.name = name

    @property
    def degree(self) -> int:
        return len(self.minpoly) - 1

    def element(self, coeffs) -> "Scalar":
        vec = [_frac(c) for c in coeffs]
        if len(vec) >= len(self.minpoly):
            _, vec = uni_divmod(vec, list(self.minpoly))
        vec = vec + [Fraction(0)] * (self.degree - len(vec))
        if all(c == 0 for c in vec[1:]):
            return vec[0]
        return FieldElement(self, tuple(vec))

    def generator(self) -> "FieldElement":
        gen = [Fraction(0)] * self.degree
        gen[1] = Fraction(1)
        return FieldElement(self, tuple(gen))

    def __eq__(self, other):
        return isinstance(other, NumberField) and self.minpoly == other.minpoly and self.name == other.name

    def __hash__(self):
        return hash((self.minpoly, self.name))

    def __repr__(self):
        return f"NumberField({list(self.minpoly)}, name={self.name!r})"


class FieldElement:
    """An element of a NumberField, reduced modulo the minimal polynomial.

    Instances are normalized: at least one coefficient beyond the constant is
    nonzero (rational values are plain Fractions instead).
    """

    __slots__ = ("field", "coeffs")

    def __init__(self, field: NumberField, coeffs):
        self.field = field
        self.coeffs = tuple(coeffs)

    def _lift(self, other):
        if isinstance(other, FieldElement):
            if other.field != self.field:
                raise ValueError("mixing elements of different extension fields")
            return list(other.coeffs)
        if isinstance(other, (int, Fraction)):
            return [_frac(other)] + [Fraction(0)] * (self.field.degree - 1)
        return None

    def __add__(self, other):
        vec = self._lift(other)
        if vec is None:
            return NotImplemented
        return self.field.element([a + b for a, b in zip(self.coeffs, vec)])

    __radd__ = __add__

    def __neg__(self):
        return FieldElement(self.field, tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        vec = self._lift(other)
        if vec is None:
            return NotImplemented
        return self.field.element([a - b for a, b in zip(self.coeffs, vec)])

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return Fraction(0)
            return self.field.element([c * other for c in self.coeffs])
        vec = self._lift(other)
        if vec is None:
            return NotImplemented
        return self.field.element(uni_mul(list(self.coeffs), vec))

    __rmul__ = __mul__

    def inverse(self) -> "Scalar":
        g, s = _uni_inverse_mod(list(self.coeffs), list(self.field.minpoly))
        if len(g) != 1:
            # gcd with the modulus is nonconstant: the modulus was reducible
            raise ZeroDivisionError("element is a zero divisor; minimal polynomial is not irreducible")
        scale = 1 / g[0]
        return self.field.element([c * scale for c in s])

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * (1 / _frac(other))
        if isinstance(other, FieldElement):
            return self * other.inverse()
        return NotImplemented

    def __rtruediv__(self, other):
        inv = self.inverse()
        return inv * other

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("only nonnegative integer powers of field elements")
        out: Scalar = Fraction(1)
        base: Scalar = self
        while n:
            if n & 1:
                out = base * out
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other):
        if isinstance(other, FieldElement):
            return self.field == other.field and self.coeffs == other.coeffs
        # normalized elements are never rational
        if isinstance(other, (int, Fraction)):
            return False
        return NotImplemented

    def __hash__(self):
        return hash((self.field.minpoly, self.coeffs))

    def __bool__(self):
        return any(self.coeffs)

    def __repr__(self):
        return f"FieldElement({scalar_to_text(self)})"


Scalar = Union[int, Fraction, FieldElement]


def as_scalar(v) -> Scalar:
    if isinstance(v, FieldElement):
        return v
    return _frac(v)


def scalar_is_rational(s: Scalar) -> bool:
    return isinstance(s, (int, Fraction))


def scalar_to_text(s: Scalar) -> str:
    if isinstance(s, (int, Fraction)):
        return str(s)
    parts = []
    for i, c in enumerate(s.coeffs):
        if c == 0:
            continue
        name = s.field.name
        if i == 0:
            parts.append(str(c))
        elif i == 1:
            parts.append(f"{c}*{name}" if c != 1 else name)
        else:
            parts.append(f"{c}*{name}^{i}" if c != 1 else f"{name}^{i}")
    return " + ".join(parts) if parts else "0"


def _int_nth_root(a: int, n: int):
    """Exact integer n-th root of a >= 0, or None."""
    if a < 0:
        raise ValueError("negative radicand")
    if a in (0, 1):
        return a
    hi = 1
    while hi ** n < a:
        hi <<= 1
    lo = hi >> 1
    while lo <= hi:
        mid = (lo + hi) // 2
        m = mid ** n
        if m == a:
            return mid
        if m < a:
            lo = mid + 1
        else:
            hi = mid - 1
    return None


def scalar_nth_root(s: Scalar, n: int):
    """Exact n-th root within the scalar field, or None if there is none.

    Rational values get exact integer-root extraction of numerator and
    denominator.  Roots of genuine extension elements are not searched for.
    """
    if n == 1:
        return s
    if isinstance(s, FieldElement):
        return None
    s = _frac(s)
    sign = 1
    if s < 0:
        if n % 2 == 0:
            return None
        sign = -1
        s = -s
    num = _int_nth_root(s.numerator, n)
    den = _int_nth_root(s.denominator, n)
    if num is None or den is None:
        return None
    return Fraction(sign * num, den)

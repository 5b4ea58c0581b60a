"""Exact arithmetic in cyclotomic fields Q(zeta_n).

A scalar is a polynomial in zeta_n with rational coefficients, kept reduced
modulo the n-th cyclotomic polynomial Phi_n.  It is stored as one tuple of
integer numerators over one positive common denominator, in lowest terms,
so equality is a comparison of integers and every operation is exact.
Phi_n is monic with integer coefficients, so products reduce modulo it
without leaving the integers.  Conductor n = 1 gives plain rationals.
Python integers have arbitrary precision, since echelon forms blow up
coefficients; QQ (fractions.Fraction) is met only at the boundary: parsing,
printing and sorting.

An irrational scalar a is inverted through its Galois norm: with P the
product of its conjugates sigma_k(a), zeta -> zeta^k for the units k != 1
modulo n, the norm N(a) = a * P is a nonzero rational, so 1/a = P / N(a).

Also here: polynomial helpers over scalars and linear-factor extraction,
which the Wedderburn splitting downstream depends on.
"""

from __future__ import annotations

import math
from fractions import Fraction as QQ
from functools import lru_cache
from math import gcd
from operator import add, sub

from .errors import NotSplitError


def as_rational(x) -> QQ:
    """Coerce an int, string like "3/4", or rational into QQ; a float is
    refused, since its binary value is seldom the rational meant."""
    if isinstance(x, float):
        raise TypeError(f"float {x!r} is not an exact rational; pass an int, a QQ or a string")
    return QQ(x)


def _intpoly_exact_div(num: list[int], den: list[int]) -> list[int]:
    # den monic, division exact; ascending coefficients
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for k in range(len(out) - 1, -1, -1):
        c = num[k + len(den) - 1]
        out[k] = c
        if c:
            for i, d in enumerate(den):
                num[k + i] -= c * d
    return out


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Integer coefficients of Phi_n, ascending degree."""
    if n == 1:
        return (-1, 1)
    poly = [-1] + [0] * (n - 1) + [1]  # x^n - 1
    for d in range(1, n):
        if n % d == 0:
            poly = _intpoly_exact_div(poly, list(cyclotomic_polynomial(d)))
    return tuple(poly)


class CyclotomicField:
    """The field Q(zeta_n) for a fixed conductor n >= 1.

    Instances are interned per conductor.  Scalars from different fields do
    not mix; use Scalar.embed to move into a larger field.
    """

    _instances: dict[int, "CyclotomicField"] = {}

    def __new__(cls, conductor: int):
        if conductor in cls._instances:
            return cls._instances[conductor]
        if conductor < 1:
            raise ValueError("conductor must be >= 1")
        self = super().__new__(cls)
        self.conductor = conductor
        mod = cyclotomic_polynomial(conductor)
        self.degree = len(mod) - 1
        # integer reduced form of zeta^degree, used to cascade higher powers down
        self._zeta_deg = tuple(-c for c in mod[:-1])
        self.zero = _build(self, (0,) * self.degree, 1)
        self.one = self.from_rational(1)
        self._units = None
        cls._instances[conductor] = self
        return self

    def __repr__(self):
        return "Q" if self.conductor == 1 else f"Q(zeta_{self.conductor})"

    def __reduce__(self):
        return (CyclotomicField, (self.conductor,))

    def from_rational(self, q) -> "Scalar":
        if isinstance(q, int):
            num, den = int(q), 1
        else:
            q = as_rational(q)
            num, den = q.numerator, q.denominator
        return _build(self, (num,) + self.zero.num[1:], den)

    def from_coeffs(self, seq) -> "Scalar":
        coeffs = [as_rational(c) for c in seq]
        den = math.lcm(*(c.denominator for c in coeffs))
        num = [c.numerator * (den // c.denominator) for c in coeffs]
        return _normalized(self, self._reduce(num), den)

    def scalar(self, value) -> "Scalar":
        if isinstance(value, Scalar):
            if value.field is not self:
                raise ValueError(f"scalar belongs to {value.field}, not {self}")
            return value
        if isinstance(value, str):
            return parse_scalar(self, value)
        return self.from_rational(value)

    @property
    def zeta(self) -> "Scalar":
        return self.zeta_power(1)

    def zeta_power(self, k: int) -> "Scalar":
        k %= self.conductor
        coeffs = [0] * (k + 1)
        coeffs[k] = 1
        return self.from_coeffs(coeffs)

    def _reduce(self, coeffs: list) -> list:
        # reduce an integer coefficient list of any length modulo Phi_n in
        # place, cascading zeta^m = zeta^(m-d) * zeta^d from the top down;
        # returns the list cut or padded to length d
        d = self.degree
        zeta_d = self._zeta_deg
        for m in range(len(coeffs) - 1, d - 1, -1):
            top = coeffs[m]
            if top:
                off = m - d
                for i, r in enumerate(zeta_d):
                    if r:
                        coeffs[off + i] += top * r
        del coeffs[d:]
        coeffs += [0] * (d - len(coeffs))
        return coeffs

    def roots_of_unity(self) -> tuple["Scalar", ...]:
        """All roots of unity contained in the field: <-1, zeta_n>."""
        if self._units is None:
            seen = {}
            for k in range(self.conductor):
                for sign in (1, -1):
                    u = self.zeta_power(k)
                    if sign < 0:
                        u = -u
                    seen.setdefault(u.num, u)  # roots of unity have den 1
            self._units = tuple(sorted(seen.values(), key=lambda s: s.sort_key()))
        return self._units


class Scalar:
    """Element of a CyclotomicField in canonical reduced form.

    ``num`` is a tuple of ``field.degree`` ints and ``den`` a positive int
    with gcd(den, *num) == 1; the value is sum_k (num[k] / den) zeta^k, and
    zero is ((0, ..., 0), 1).  Immutable; arithmetic via the usual
    operators.  Ints and rationals coerce on the fly, scalars from distinct
    fields do not.  Build instances through the field (from_rational,
    from_coeffs, scalar), not by calling the class.
    """

    __slots__ = ("field", "num", "den")

    def __setattr__(self, *args):
        raise AttributeError("Scalar is immutable")

    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        return self

    def __reduce__(self):
        return (_rebuild_scalar, (self.field.conductor, tuple(str(c) for c in self.coeffs)))

    @property
    def coeffs(self) -> tuple:
        """The coefficients of 1, zeta, ..., zeta^(degree-1) as QQ values."""
        den = self.den
        return tuple(QQ(n, den) for n in self.num)

    # -- predicates ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.num)

    def is_one(self) -> bool:
        return self.den == 1 and self.num == self.field.one.num

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def is_integer(self) -> bool:
        return self.den == 1 and self.is_rational()

    def integer_value(self) -> int:
        if not self.is_integer():
            raise ValueError(f"{self} is not an integer")
        return self.num[0]

    # -- arithmetic ---------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Scalar):
            if other.field is not self.field:
                raise ValueError("scalars from different cyclotomic fields")
            return other
        if isinstance(other, (int, QQ)):
            return self.field.from_rational(other)
        return NotImplemented

    def _add_or_sub(self, other, op):
        # op is operator.add or operator.sub; equal denominators (the common
        # case, often 1) need no cross-multiplication
        if other.__class__ is not Scalar or other.field is not self.field:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        a, b = self.den, other.den
        if a == b:
            num = tuple(map(op, self.num, other.num))
            if a == 1:
                return _build(self.field, num, 1)
            return _normalized(self.field, num, a)
        g = gcd(a, b)
        a, b = a // g, b // g
        return _normalized(self.field, [op(x * b, y * a) for x, y in zip(self.num, other.num)], a * b * g)

    def __add__(self, other):
        return self._add_or_sub(other, add)

    __radd__ = __add__

    def __sub__(self, other):
        return self._add_or_sub(other, sub)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __neg__(self):
        return _build(self.field, tuple(-x for x in self.num), self.den)

    def __mul__(self, other):
        if other.__class__ is not Scalar or other.field is not self.field:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        field = self.field
        den = self.den * other.den
        a, b = self.num, other.num
        d = field.degree
        if d == 1:
            n = a[0] * b[0]
            if den != 1:
                g = gcd(n, den)
                if g != 1:
                    n //= g
                    den //= g
            return _build(field, (n,), den)
        conv = [0] * (2 * d - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        conv[i + j] += ai * bj
        return _normalized(field, field._reduce(conv), den)

    __rmul__ = __mul__

    def inverse(self) -> "Scalar":
        if self.is_zero():
            raise ZeroDivisionError("scalar division by zero")
        if self.is_rational():
            n = self.num[0]
            return _build(self.field, (self.den if n > 0 else -self.den,) + self.num[1:], abs(n))
        # 1/a = P / N(a), P the product of the conjugates sigma_k(a), k != 1
        field = self.field
        n = field.conductor
        conjugates = field.one
        for k in range(2, n):
            if gcd(k, n) == 1:
                conjugates = conjugates * self._substitute(field, k)
        return conjugates * (self * conjugates).inverse()

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        out = self.field.one
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- comparison ---------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, Scalar):
            return self.field is other.field and self.num == other.num and self.den == other.den
        if isinstance(other, (int, QQ)):
            # ints and QQ values are in lowest terms with a positive denominator
            return (self.num[0] == other.numerator and self.den == other.denominator
                    and self.is_rational())
        return NotImplemented

    def __hash__(self):
        return hash((self.field.conductor, self.num, self.den))

    def __bool__(self):
        return not self.is_zero()

    def sort_key(self):
        return tuple((c.numerator, c.denominator) for c in self.coeffs)

    # -- conversion ---------------------------------------------------------

    def embed(self, target: CyclotomicField) -> "Scalar":
        """Image under zeta_n -> zeta_m^(m/n); requires n | m."""
        if target is self.field:
            return self
        m, n = target.conductor, self.field.conductor
        if m % n != 0:
            raise ValueError(f"cannot embed {self.field} into {target}")
        return self._substitute(target, m // n)

    def _substitute(self, target: CyclotomicField, s: int) -> "Scalar":
        # the image under zeta_n -> zeta_m^s for m = target.conductor, reduced;
        # a ring map when zeta_m^s has order n (the Galois conjugates and embed)
        m = target.conductor
        spread = [0] * m
        for k, c in enumerate(self.num):
            if c:
                spread[k * s % m] += c
        return _normalized(target, target._reduce(spread), self.den)

    def __str__(self):
        return scalar_to_string(self)

    def __repr__(self):
        return f"Scalar({scalar_to_string(self)} @ {self.field!r})"


_new_scalar = object.__new__
_set_field = Scalar.field.__set__
_set_num = Scalar.num.__set__
_set_den = Scalar.den.__set__


def _build(field, num: tuple, den: int) -> Scalar:
    """The Scalar num/den of field; num and den already in canonical form."""
    s = _new_scalar(Scalar)
    _set_field(s, field)
    _set_num(s, num)
    _set_den(s, den)
    return s


def _normalized(field, num, den: int) -> Scalar:
    """The Scalar num/den of field, for integer num of length field.degree
    and den > 0, brought to lowest terms."""
    if den != 1:
        g = gcd(den, *num)
        if g != 1:
            return _build(field, tuple([x // g for x in num]), den // g)
    return _build(field, tuple(num), den)


def _rebuild_scalar(conductor, coeff_strings):
    field = CyclotomicField(conductor)
    return field.from_coeffs(coeff_strings)


# -- scalar string form -------------------------------------------------------


def scalar_to_string(s: Scalar) -> str:
    """Canonical text form: "p/q" for rationals, else terms in z = zeta_n,
    e.g. "1/2 + 1/2*z^2" or "1 - z"."""
    if s.is_rational():
        return str(s.coeffs[0])
    parts = []
    for k, c in enumerate(s.coeffs):
        if not c:
            continue
        if k == 0:
            body = str(c)
        else:
            z = "z" if k == 1 else f"z^{k}"
            mag = abs(c)
            body = z if mag == 1 else f"{str(mag)}*{z}"
            if c < 0:
                body = "-" + body
        parts.append(body)
    out = parts[0]
    for part in parts[1:]:
        if part.startswith("-"):
            out += " - " + part[1:]
        else:
            out += " + " + part
    return out


def parse_scalar(field: CyclotomicField, text: str) -> Scalar:
    """Parse the format emitted by scalar_to_string (whitespace-tolerant)."""
    cleaned = text.replace(" ", "")
    if not cleaned:
        raise ValueError("empty scalar string")
    cleaned = cleaned.replace("-", "+-").lstrip("+")
    if cleaned.startswith("-+"):  # came from a leading "-"
        cleaned = "-" + cleaned[2:]
    coeffs = [QQ(0)] * field.conductor  # by power of z, reduced once at the end
    for term in cleaned.split("+"):
        if not term:
            continue
        neg = term.startswith("-")
        if neg:
            term = term[1:]
        if "z" in term:
            coeff_part, _, z_part = term.partition("z")
            coeff_part = coeff_part.rstrip("*")
            coeff = QQ(coeff_part) if coeff_part else QQ(1)
            power = int(z_part[1:]) if z_part.startswith("^") else (1 if not z_part else None)
            if power is None:
                raise ValueError(f"bad scalar term {term!r} in {text!r}")
        else:
            coeff = QQ(term)
            power = 0
        if power >= field.conductor:
            raise ValueError(f"power z^{power} out of range for conductor {field.conductor}")
        coeffs[power] += -coeff if neg else coeff
    return field.from_coeffs(coeffs)


# -- polynomials over Scalar --------------------------------------------------
# A polynomial is a list of Scalars, ascending degree, no trailing zeros.


def poly_trim(p: list) -> list:
    while p and p[-1].is_zero():
        p.pop()
    return p


def poly_add(a, b):
    if not (a or b):
        return []
    n = max(len(a), len(b))
    field = (a or b)[0].field
    out = []
    for i in range(n):
        x = a[i] if i < len(a) else field.zero
        y = b[i] if i < len(b) else field.zero
        out.append(x + y)
    return poly_trim(out)


def poly_sub(a, b):
    return poly_add(a, [-c for c in b])


def poly_scale(a, s: Scalar):
    if s.is_zero():
        return []
    return [c * s for c in a]


def poly_mul(a, b):
    if not a or not b:
        return []
    field = a[0].field
    out = [field.zero] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if not ai.is_zero():
            for j, bj in enumerate(b):
                if not bj.is_zero():
                    out[i + j] = out[i + j] + ai * bj
    return poly_trim(out)


def poly_divmod(a, b):
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    a = list(a)
    inv_lead = b[-1].inverse()
    q = [b[-1].field.zero] * max(len(a) - len(b) + 1, 0)
    for k in range(len(q) - 1, -1, -1):
        if len(a) < k + len(b):
            continue
        c = a[k + len(b) - 1] * inv_lead
        q[k] = c
        if not c.is_zero():
            for i, d in enumerate(b):
                a[k + i] = a[k + i] - c * d
    return poly_trim(q), poly_trim(a[: len(b) - 1])


def poly_monic(p):
    if not p:
        return []
    lead = p[-1]
    if lead.is_one():
        return list(p)
    inv = lead.inverse()
    return [c * inv for c in p]


def poly_extgcd(a, b):
    """Monic g with s*a + t*b = g."""
    field = (a or b)[0].field
    r0, r1 = poly_trim(list(a)), poly_trim(list(b))
    s0, s1 = [field.one], []
    t0, t1 = [], [field.one]
    while r1:
        q, r = poly_divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, poly_sub(s0, poly_mul(q, s1))
        t0, t1 = t1, poly_sub(t0, poly_mul(q, t1))
    if not r0:
        return [], [], []
    lead_inv = r0[-1].inverse()
    return poly_scale(r0, lead_inv), poly_scale(s0, lead_inv), poly_scale(t0, lead_inv)


def poly_eval(p, x: Scalar) -> Scalar:
    out = x.field.zero
    for c in reversed(p):
        out = out * x + c
    return out


def poly_from_roots(field, roots_with_mult):
    out = [field.one]
    for root, mult in roots_with_mult:
        factor = [-root, field.one]
        for _ in range(mult):
            out = poly_mul(out, factor)
    return out


def poly_to_string(p, var="x") -> str:
    if not p:
        return "0"
    parts = []
    for k in range(len(p) - 1, -1, -1):
        c = p[k]
        if c.is_zero():
            continue
        if k == 0:
            parts.append(f"({scalar_to_string(c)})")
        else:
            v = var if k == 1 else f"{var}^{k}"
            parts.append(v if c.is_one() else f"({scalar_to_string(c)})*{v}")
    return " + ".join(parts)


# -- linear factor extraction -------------------------------------------------


def _rational_root_candidates(p) -> list:
    """Rational candidates via the rational root theorem applied to the
    rational-coordinate polynomial of a monic p (coordinate 0 has lead 1)."""
    coords = [c.coeffs[0] for c in p]
    denom_lcm = math.lcm(*(q.denominator for q in coords))
    ints = [int(q * denom_lcm) for q in coords]
    while ints and ints[0] == 0:
        ints = ints[1:]
    if not ints:
        return [QQ(0)]
    a0, ad = abs(ints[0]), abs(ints[-1])
    ps = [d for d in range(1, a0 + 1) if a0 % d == 0]
    qs = [d for d in range(1, ad + 1) if ad % d == 0]
    seen, out = set(), [QQ(0)]
    for num in ps:
        for den in qs:
            for sign in (1, -1):
                cand = QQ(sign * num, den)
                if cand not in seen:
                    seen.add(cand)
                    out.append(cand)
    return out


def _sympy_linear_factors(p, field):
    """Complete fallback: factor over Q(zeta_n) with sympy, return
    (roots list, leftover nonlinear factors as scalar polys)."""
    import sympy

    x = sympy.Symbol("x")
    if field.conductor == 1:
        dom = sympy.QQ
        to_expr = lambda c: sympy.Rational(c.coeffs[0].numerator, c.coeffs[0].denominator)
        def from_dom(elem):
            q = sympy.Rational(elem)
            return field.from_rational(QQ(int(q.p), int(q.q)))
    else:
        zeta = sympy.exp(2 * sympy.I * sympy.pi * sympy.Rational(1, field.conductor))
        dom = sympy.QQ.algebraic_field(zeta)

        def to_expr(c):
            return sum(
                sympy.Rational(q.numerator, q.denominator) * zeta**k
                for k, q in enumerate(c.coeffs)
                if q
            )

        def from_dom(elem):
            rep = list(reversed(elem.to_list()))  # ascending
            return field.from_coeffs([QQ(int(q.numerator), int(q.denominator)) for q in rep])

    expr = sum(to_expr(c) * x**k for k, c in enumerate(p))
    poly = sympy.Poly(sympy.expand(expr), x, domain=dom)
    roots, leftovers = [], []
    _, factors = poly.factor_list()
    for fac, mult in factors:
        if fac.degree() == 1:
            monic = fac.monic()
            root = dom.from_sympy(sympy.expand(-monic.all_coeffs()[1]))
            roots.append((from_dom(root), mult))
        else:
            coeffs = [dom.from_sympy(sympy.expand(c)) for c in reversed(fac.all_coeffs())]
            leftovers.append(poly_monic([from_dom(c) for c in coeffs]))
    return roots, leftovers


def factor_into_linears(p, field=None):
    """All roots of a monic polynomial in the field, with multiplicities.

    Fast path searches rational candidates, roots of unity, and their
    products, deflating as it goes; anything left is settled by an exact
    factorization over the field.  Raises NotSplitError when an irreducible
    non-linear factor survives, which signals that the conductor is too
    small for this polynomial.
    """
    p = poly_trim(list(p))
    if not p:
        raise ValueError("cannot factor the zero polynomial")
    if field is None:
        field = p[0].field
    p = poly_monic(p)
    if len(p) == 1:
        return []

    candidates = []
    rationals = _rational_root_candidates(p)
    units = field.roots_of_unity()
    candidates.extend(field.from_rational(q) for q in rationals)
    candidates.extend(units)
    if field.degree > 1:
        seen = set(candidates)
        for q in rationals:
            if q in (0, 1, -1):
                continue
            for u in units:
                cand = u * q
                if cand not in seen:
                    seen.add(cand)
                    candidates.append(cand)

    roots = []
    rem = p
    for cand in candidates:
        while len(rem) > 1 and poly_eval(rem, cand).is_zero():
            rem, _ = poly_divmod(rem, [-cand, field.one])
            roots.append(cand)
        if len(rem) == 1:
            break

    counted = {}
    for r in roots:
        counted[r] = counted.get(r, 0) + 1
    result = [(r, m) for r, m in counted.items()]

    if len(rem) > 1:
        extra, leftovers = _sympy_linear_factors(rem, field)
        result.extend(extra)
        if leftovers:
            worst = max(leftovers, key=len)
            raise NotSplitError(poly_to_string(worst))

    result.sort(key=lambda rm: rm[0].sort_key())
    return result

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

Also here: polynomial helpers over scalars and the roots of a polynomial
in the field, which the Wedderburn splitting downstream depends on.  The
roots of a monic squarefree q of degree m come from one modular search:

1. Scale q to f(y) = D^m q(y/D), D the lcm of the denominators.  f is monic
   over Z[zeta], so each root of f in the field lies in Z[zeta] and has
   integer coordinates in the power basis, d = phi(n) of them.
2. Every complex conjugate of a root is a root of a conjugate of f, so by
   Fujiwara's bound it has absolute value at most
   B = 2 max_i ||f_(m-i)||_1^(1/i) (||.||_1 the sum of absolute
   coordinates).  Hence T2(a) = sum_k |sigma_k(a)|^2 <= d B^2, and T2 is the
   quadratic form of the trace form G_ij = Tr(zeta^(i-j)).
3. Take the smallest prime p = 1 mod n above m at which the image f_r of f
   under zeta -> r (r a root of Phi_n modulo p) has only simple roots in
   F_p.  The kernel of zeta -> r modulo p^K is the ideal P^K of the prime
   P = (p, zeta - r) of degree 1, a lattice L of index p^K in Z^d.
4. A root a of f maps to a root of f_r, and by Hensel's lemma to the lift x
   of a simple root modulo p.  So a lies in the coset (x, 0, ..., 0) + L.
   LLL-reduce L under G and decode x by Babai's nearest plane, which returns
   the coset vector whose Gram-Schmidt coordinates all lie in [-1/2, 1/2].
   Once every |b_i*|^2 exceeds 4 d B^2, a has such coordinates, so it is
   what the decoding returns.  K is the least with p^(2K) > (2^(d+1) B^2)^d,
   which makes it so: every nonzero v in P^K has T2(v) >= d p^(2K/d) (its
   norm is a multiple of p^K), and LLL keeps every |b_i*|^2 >= 2^(1-d)
   min_v T2(v).  The search checks the |b_i*|^2 all the same.

The search is complete, since every root is the decoding of one of the at
most m lifted roots, and exact, since each decoded candidate is checked to
be a root by exact evaluation.  Its cost is polynomial in m and d: one LLL
reduction of a d-dimensional lattice and at most m decodings.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction as QQ
from functools import lru_cache
from math import gcd
from operator import add, sub

from .errors import NotSplitError


_RATIONAL_TEXT = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")
_POWER_TEXT = re.compile(r"(\^[0-9]+)?")


def _rational_from_text(text: str) -> QQ:
    """The rational that "p" or "p/q", after an optional sign, spells.  Any
    other text, decimals, exponents and underscores included, raises
    ValueError, so a short string cannot stand for a huge number."""
    if not _RATIONAL_TEXT.fullmatch(text):
        raise ValueError(f"{text!r} is not a rational p or p/q")
    return QQ(text)


def as_rational(x) -> QQ:
    """Coerce an int, string like "3/4", or rational into QQ; a float is
    refused, since its binary value is seldom the rational meant."""
    if isinstance(x, float):
        raise TypeError(f"float {x!r} is not an exact rational; pass an int, a QQ or a string")
    return _rational_from_text(x) if isinstance(x, str) else QQ(x)


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
        # num[1:] of every rational scalar, the one test of rationality
        self._zero_tail = (0,) * (self.degree - 1)
        self.zero = _build(self, (0,) + self._zero_tail, 1)
        self.one = self.from_rational(1)
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
        return _build(self, (num,) + self._zero_tail, den)

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
        return self.num == self.field.zero.num

    def is_one(self) -> bool:
        return self.den == 1 and self.num == self.field.one.num

    def is_rational(self) -> bool:
        return self.num[1:] == self.field._zero_tail

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
        # op is operator.add or operator.sub; x +- 0 is x and 0 + y is y, and
        # equal denominators (the common case, often 1) need no
        # cross-multiplication
        if other.__class__ is not Scalar or other.field is not self.field:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        zero = self.field.zero.num
        if other.num == zero:
            return self
        if op is add and self.num == zero:
            return other
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
        tail = field._zero_tail
        if other.num[1:] == tail:
            x, r = self, other
        elif self.num[1:] == tail:
            x, r = other, self
        else:
            conv = [0] * (2 * field.degree - 1)
            for i, ai in enumerate(self.num):
                if ai:
                    for j, bj in enumerate(other.num):
                        if bj:
                            conv[i + j] += ai * bj
            return _normalized(field, field._reduce(conv), self.den * other.den)
        # the rational factor r scales x's numerators: no convolution
        n, den = r.num[0], r.den
        if den == 1:
            if n == 1:
                return x
            if n == 0:
                return field.zero
        return _normalized(field, [c * n for c in x.num], x.den * den)

    __rmul__ = __mul__

    def inverse(self) -> "Scalar":
        if self.is_zero():
            raise ZeroDivisionError("scalar division by zero")
        if self.is_rational():
            n = self.num[0]
            return _build(self.field, (self.den if n > 0 else -self.den,) + self.field._zero_tail, abs(n))
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
        # a rational value hashes as the int or QQ it equals
        if self.is_rational():
            return hash(QQ(self.num[0], self.den))
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
    coeffs = [QQ(0)] * field.conductor  # by power of z, reduced once at the end
    for term in cleaned.replace("-", "+-").split("+"):  # each term keeps its sign
        if not term:
            continue
        coeff_part, z, z_part = term.partition("z")
        if z:
            coeff_part = coeff_part.removesuffix("*")
            if coeff_part in ("", "-"):
                coeff_part += "1"
            if not _POWER_TEXT.fullmatch(z_part):
                raise ValueError(f"bad scalar term {term!r} in {text!r}")
            power = int(z_part[1:]) if z_part else 1
        else:
            power = 0
        coeff = _rational_from_text(coeff_part)
        if power >= field.conductor:
            raise ValueError(f"power z^{power} out of range for conductor {field.conductor}")
        coeffs[power] += coeff
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


def poly_gcd(a, b):
    """The monic gcd of a and b.  Unlike poly_extgcd it keeps no cofactors
    and makes each remainder monic, which holds coefficient growth down."""
    a, b = poly_trim(list(a)), poly_trim(list(b))
    while b:
        a, b = b, poly_monic(poly_divmod(a, b)[1])
    return poly_monic(a)


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


# -- roots in the field ------------------------------------------------------


@lru_cache(maxsize=None)
def _trace_form(conductor: int) -> tuple:
    """G_ij = Tr(zeta^(i-j)) on the power basis, so that a^T G a =
    T2(a) = sum_k |sigma_k(a)|^2 over the complex embeddings sigma_k."""
    field = CyclotomicField(conductor)
    units = [k for k in range(1, conductor + 1) if gcd(k, conductor) == 1]
    trace = [sum((field.zeta_power(k * u) for u in units), field.zero).integer_value()
             for k in range(conductor)]
    return tuple(tuple(trace[(i - j) % conductor] for j in range(field.degree))
                 for i in range(field.degree))


def _ceil_root(a: int, k: int) -> int:
    """The least integer t >= 0 with t^k >= a."""
    lo, hi = 0, 1 << (a.bit_length() // k + 1)
    while lo < hi:
        mid = (lo + hi) // 2
        lo, hi = (mid + 1, hi) if mid ** k < a else (lo, mid)
    return lo


def _is_prime(m: int) -> bool:
    return m > 1 and all(m % k for k in range(2, math.isqrt(m) + 1))


def _eval_mod(coeffs, x: int, modulus: int) -> int:
    out = 0
    for c in reversed(coeffs):
        out = (out * x + c) % modulus
    return out


def _derivative(coeffs):
    # over ints or scalars
    return [i * c for i, c in enumerate(coeffs)][1:]


def _hensel_lift(coeffs, x: int, prime: int, modulus: int) -> int:
    """The root modulo modulus = prime^K over the simple root x of the
    integer polynomial coeffs modulo prime, by Newton steps that square the
    modulus until it reaches prime^K."""
    deriv = _derivative(coeffs)
    m = prime
    while m < modulus:
        m = min(m * m, modulus)
        x = (x - _eval_mod(coeffs, x, m) * pow(_eval_mod(deriv, x, m), -1, m)) % m
    return x


def _embedding_image(f, w: int, modulus: int) -> list:
    """The image of f (coefficients as integer numerator tuples) under
    zeta -> w, reduced modulo modulus."""
    powers = [pow(w, j, modulus) for j in range(len(f[0]))]
    return [sum(c * wj for c, wj in zip(num, powers)) % modulus for num in f]


def _split_prime(f, n: int):
    """(p, r, roots of f_r in F_p) for the smallest prime p = 1 mod n above
    deg f at which the image f_r of f under zeta -> r has only simple roots
    in F_p; r is a root of Phi_n modulo p."""
    phi = cyclotomic_polynomial(n)
    prime = len(f) + (1 - len(f)) % n  # the least 1 mod n that exceeds deg f
    while True:
        if _is_prime(prime):
            r = next(y for y in (pow(x, (prime - 1) // n, prime) for x in range(1, prime))
                     if _eval_mod(phi, y, prime) == 0)
            image = _embedding_image(f, r, prime)
            deriv = _derivative(image)
            found = [x for x in range(prime) if _eval_mod(image, x, prime) == 0]
            if all(_eval_mod(deriv, x, prime) for x in found):
                return prime, r, found
        prime += n


def _lll(basis, gram):
    """LLL-reduce (delta = 3/4) integer row vectors under the inner product
    x^T gram y, by Cohen's integral algorithm (A Course in Computational
    Algebraic Number Theory, 2.6.7).  Returns the reduced basis, the Gram
    determinants dd (dd[i] = prod_(j<=i) |b_j*|^2, dd[0] = 1, one-based
    below) and the scaled Gram-Schmidt coefficients lam[k][j] = dd[j] mu_kj."""
    def dot(x, y):
        return sum(xi * sum(g * yj for g, yj in zip(row, y)) for xi, row in zip(x, gram))

    n = len(basis)
    b = [None] + [list(v) for v in basis]
    lam = [[0] * (n + 1) for _ in range(n + 1)]
    dd = [1, dot(b[1], b[1])] + [0] * (n - 1)

    def reduce(k, l):
        if 2 * abs(lam[k][l]) > dd[l]:
            q = (2 * lam[k][l] + dd[l]) // (2 * dd[l])
            b[k] = [x - q * y for x, y in zip(b[k], b[l])]
            lam[k][l] -= q * dd[l]
            for i in range(1, l):
                lam[k][i] -= q * lam[l][i]

    k, kmax = 2, 1
    while k <= n:
        if k > kmax:
            kmax = k
            for j in range(1, k + 1):
                u = dot(b[k], b[j])
                for i in range(1, j):
                    u = (dd[i] * u - lam[k][i] * lam[j][i]) // dd[i - 1]
                if j < k:
                    lam[k][j] = u
                else:
                    dd[k] = u
        reduce(k, k - 1)
        if 4 * dd[k] * dd[k - 2] < 3 * dd[k - 1] ** 2 - 4 * lam[k][k - 1] ** 2:
            b[k], b[k - 1] = b[k - 1], b[k]
            for j in range(1, k - 1):
                lam[k][j], lam[k - 1][j] = lam[k - 1][j], lam[k][j]
            mu = lam[k][k - 1]
            swapped = (dd[k - 2] * dd[k] + mu * mu) // dd[k - 1]
            for i in range(k + 1, kmax + 1):
                t = lam[i][k]
                lam[i][k] = (dd[k] * lam[i][k - 1] - mu * t) // dd[k - 1]
                lam[i][k - 1] = (swapped * t + mu * lam[i][k]) // dd[k]
            dd[k - 1] = swapped
            k = max(2, k - 1)
        else:
            for l in range(k - 2, 0, -1):
                reduce(k, l)
            k += 1
    return b[1:], dd, lam


@lru_cache(maxsize=256)
def _embedding_lattice(n: int, prime: int, r: int, modulus: int):
    """The lattice of coordinate vectors v with sum_j v_j r^j = 0 modulo
    modulus = prime^K, r Hensel-lifted on Phi_n: the ideal P^K for the
    prime P = (prime, zeta - r) of degree 1.  Returns the lifted r, an
    LLL-reduced basis b_i under the trace form G, the rows G b_i* and the
    squared lengths |b_i*|^2, which is what nearest-plane decoding needs,
    as tuples: it depends only on its arguments, so it is cached."""
    r = _hensel_lift(cyclotomic_polynomial(n), r, prime, modulus)
    gram = _trace_form(n)
    d = len(gram)
    start = [[modulus] + [0] * (d - 1)]
    start += [[-pow(r, j, modulus)] + [int(i == j) for i in range(1, d)] for j in range(1, d)]
    basis, dd, lam = _lll(start, gram)
    stars = []
    for i, v in enumerate(basis, 1):
        star = [QQ(x) for x in v]
        for j, s in enumerate(stars, 1):
            mu = QQ(lam[i][j], dd[j])
            star = [x - mu * y for x, y in zip(star, s)]
        stars.append(star)
    projections = tuple(tuple(sum(g * x for g, x in zip(row, star)) for row in gram)
                        for star in stars)
    return (r, tuple(map(tuple, basis)), projections,
            tuple(QQ(dd[i], dd[i - 1]) for i in range(1, d + 1)))


def _nearest_in_coset(x: int, basis, projections, norms) -> list:
    """Babai's nearest plane: the vector v of the coset (x, 0, ..., 0) + L
    whose Gram-Schmidt coordinates all lie in [-1/2, 1/2]."""
    v = [x] + [0] * (len(basis) - 1)
    for b, g, norm in zip(reversed(basis), reversed(projections), reversed(norms)):
        c = round(sum(a * w for a, w in zip(v, g)) / norm)
        v = [a - c * e for a, e in zip(v, b)]
    return v


def _roots_of_squarefree(q, field):
    """The roots in field of a monic squarefree q of positive degree, by
    the modular search described in the module docstring."""
    n, m, d = field.conductor, len(q) - 1, field.degree
    den = math.lcm(*(c.den for c in q))
    # f(y) = den^m q(y/den) is monic over Z[zeta]
    f = [[x * (den ** (m - i) // c.den) for x in c.num] for i, c in enumerate(q)]
    # Fujiwara: every conjugate of a root is at most bound, so T2 <= d * bound^2
    bound = 2 * max(_ceil_root(sum(map(abs, c)), m - i) for i, c in enumerate(f[:-1]))
    prime, r, roots_mod_p = _split_prime(f, n)
    # the least modulus = prime^K with modulus^2 > (2^(d+1) bound^2)^d
    modulus = prime
    while modulus ** 2 <= (2 ** (d + 1) * bound ** 2) ** d:
        modulus *= prime
    r_lifted, basis, projections, norms = _embedding_lattice(n, prime, r, modulus)
    if 4 * d * bound ** 2 >= min(norms):
        # the LLL bound of the module docstring rules this out
        raise RuntimeError(f"reduced basis too short to decode roots over {field!r}")
    image = _embedding_image(f, r_lifted, modulus)
    out = []
    for x in roots_mod_p:
        coords = _nearest_in_coset(_hensel_lift(image, x, prime, modulus), basis, projections, norms)
        root = _normalized(field, coords, den)
        if poly_eval(q, root).is_zero():
            out.append(root)
    return out


def _sympy_linear_factors(p, field):
    """Reference oracle for tests: factor p over Q(zeta_n) with sympy and
    return (roots with multiplicities, the monic non-linear factors).

    The library never calls it.  It stays in this module under this name
    because the benchmark's tracer resolves it as a span target.
    """
    import sympy

    rational = field.conductor == 1
    # the algebraic field keeps its elements in the power basis of zeta
    dom = sympy.QQ if rational else sympy.QQ.algebraic_field(
        sympy.exp(2 * sympy.I * sympy.pi / field.conductor))

    def to_dom(c):
        coeffs = [sympy.QQ(q.numerator, q.denominator) for q in c.coeffs]
        return coeffs[0] if rational else dom(coeffs[::-1])

    def from_dom(elem):
        rep = [elem] if rational else elem.to_list()[::-1]
        return field.from_coeffs([QQ(int(q.numerator), int(q.denominator)) for q in rep])

    poly = sympy.Poly([to_dom(c) for c in reversed(p)], sympy.Symbol("x"), domain=dom)
    roots, leftovers = [], []
    for fac, mult in poly.factor_list()[1]:
        coeffs = [from_dom(c) for c in reversed(fac.monic().rep.to_list())]
        if len(coeffs) == 2:
            roots.append((-coeffs[0], mult))
        else:
            leftovers.append(coeffs)
    return roots, leftovers


def factor_into_linears(p, field=None):
    """All roots of a polynomial in the field, with multiplicities, sorted
    by sort key.

    The roots of the squarefree part q = p / g, g = gcd(p, p'), come from
    the complete modular search of the module docstring, each one checked
    exactly; a root's multiplicity in p is one more than its multiplicity
    in g.  Raises NotSplitError naming the rootless part (p divided by its
    linear factors) when that part has positive degree, which signals that
    the conductor is too small for this polynomial.
    """
    p = poly_trim(list(p))
    if not p:
        raise ValueError("cannot factor the zero polynomial")
    if field is None:
        field = p[0].field
    p = poly_monic(p)
    if len(p) == 1:
        return []
    g = poly_gcd(p, _derivative(p))
    q, _ = poly_divmod(p, g)
    result = []
    for root in _roots_of_squarefree(q, field):
        # p = q * g, so a root of q has one more than its multiplicity in g
        mult, linear = 1, [-root, field.one]
        while True:
            quotient, remainder = poly_divmod(g, linear)
            if remainder:
                break
            g, mult = quotient, mult + 1
        result.append((root, mult))
    if len(result) < len(q) - 1:
        raise NotSplitError(poly_to_string(poly_divmod(p, poly_from_roots(field, result))[0]))
    result.sort(key=lambda rm: rm[0].sort_key())
    return result

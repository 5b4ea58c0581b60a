import math
import pickle
import time

import pytest
from hypothesis import given, settings, strategies as st

from hopflab import scalars
from hopflab.errors import NotSplitError
from hopflab.scalars import (
    QQ,
    CyclotomicField,
    cyclotomic_polynomial,
    _sympy_linear_factors,
    as_rational,
    factor_into_linears,
    parse_scalar,
    poly_divmod,
    poly_from_roots,
    poly_gcd,
    poly_mul,
    poly_to_string,
    scalar_to_string,
)

Q = CyclotomicField(1)
Q3 = CyclotomicField(3)
Q4 = CyclotomicField(4)


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_rational_arithmetic():
    half = Q.scalar("1/2")
    assert half + half == 1
    assert (half * 2) == Q.one
    assert Q.scalar(3) - Q.scalar(5) == -2


def test_zeta_powers_multiply_to_one():
    z = Q3.zeta
    assert z * z**2 == 1
    assert z**3 == 1
    assert Q4.zeta ** 4 == 1
    assert Q4.zeta ** 2 == -1


def test_inverse_of_one_plus_zeta3():
    # 1 + zeta_3 = -zeta_3^2, so the inverse is -zeta_3; checked by
    # multiplying back.
    x = Q3.one + Q3.zeta
    inv = x.inverse()
    assert x * inv == 1
    assert inv == -Q3.zeta
    assert x == -(Q3.zeta ** 2)


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        Q3.zero.inverse()
    with pytest.raises(ZeroDivisionError):
        Q3.one / Q3.zero


def test_mixed_field_arithmetic_rejected():
    with pytest.raises(ValueError):
        Q3.one + Q4.one


def test_embed():
    Q12 = CyclotomicField(12)
    z3 = Q3.zeta.embed(Q12)
    assert z3 ** 3 == 1
    assert z3 != 1
    x = Q3.scalar("1/2") + Q3.zeta
    assert (x * x).embed(Q12) == x.embed(Q12) * x.embed(Q12)
    with pytest.raises(ValueError):
        Q4.zeta.embed(Q3)


def _scalars(field):
    rationals = st.builds(QQ, st.integers(-30, 30), st.integers(1, 9))
    return st.lists(rationals, min_size=field.degree, max_size=field.degree).map(
        lambda cs: field.from_coeffs(cs)
    )


@settings(max_examples=60, deadline=None)
@given(_scalars(Q3), _scalars(Q3), _scalars(Q3))
def test_field_axioms_zeta3(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a
    if not a.is_zero():
        assert a * a.inverse() == 1


@settings(max_examples=40, deadline=None)
@given(_scalars(Q4), _scalars(Q4))
def test_field_axioms_zeta4(a, b):
    assert a * b == b * a
    assert (a + b) - b == a
    if not b.is_zero():
        assert (a / b) * b == a


@settings(max_examples=60, deadline=None)
@given(_scalars(Q3))
def test_string_roundtrip_zeta3(a):
    assert parse_scalar(Q3, scalar_to_string(a)) == a


def test_string_forms():
    assert scalar_to_string(Q.scalar("1/2")) == "1/2"
    Q12 = CyclotomicField(12)
    s = Q12.from_coeffs([QQ(1, 2), QQ(0), QQ(1, 2)])
    assert scalar_to_string(s) == "1/2 + 1/2*z^2"
    assert parse_scalar(Q12, "1/2 + 1/2*z^2") == s
    assert scalar_to_string(Q3.one - Q3.zeta) == "1 - z"
    assert parse_scalar(Q3, "1 - z") == Q3.one - Q3.zeta
    assert parse_scalar(Q3, "-z^2") == -(Q3.zeta ** 2)
    assert scalar_to_string(Q3.zero) == "0"


def test_factor_quadratic_over_q():
    # x^2 - 1
    p = [Q.scalar(-1), Q.zero, Q.one]
    roots = factor_into_linears(p)
    assert sorted(r.integer_value() for r, _ in roots) == [-1, 1]


def test_factor_cube_roots_of_unity():
    p = [Q3.scalar(-1), Q3.zero, Q3.zero, Q3.one]  # x^3 - 1
    roots = factor_into_linears(p)
    assert {r for r, _ in roots} == {Q3.one, Q3.zeta, Q3.zeta ** 2}
    assert all(m == 1 for _, m in roots)


def test_factor_not_split_over_q():
    p = [Q.one, Q.one, Q.one]  # x^2 + x + 1, irreducible over Q
    with pytest.raises(NotSplitError):
        factor_into_linears(p)


def test_factor_multiplicities():
    # (x - 1)^2 (x + 2)
    p = poly_from_roots(Q, [(Q.one, 2), (Q.scalar(-2), 1)])
    roots = dict(factor_into_linears(p))
    assert roots[Q.one] == 2
    assert roots[Q.scalar(-2)] == 1


def test_factor_needs_full_factorization_fallback():
    # root 1 + 2*zeta_3 is not rational and not q*(root of unity):
    # its norm is (1+2z)(1+2z^2) = 3, not a rational square.
    alpha = Q3.one + 2 * Q3.zeta
    p = poly_from_roots(Q3, [(alpha, 1), (Q3.scalar(2), 1)])
    roots = dict(factor_into_linears(p))
    assert roots == {alpha: 1, Q3.scalar(2): 1}


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(-4, 4), min_size=1, max_size=4))
def test_factorization_reconstructs_polynomial(root_ints):
    roots = [(Q3.scalar(r), 1) for r in root_ints]
    p = poly_from_roots(Q3, roots)
    found = factor_into_linears(p)
    assert poly_from_roots(Q3, found) == p
    assert sum(m for _, m in found) == len(root_ints)


def test_operator_edge_paths():
    x = Q3.scalar("2/3")
    assert 1 / x == Q3.scalar("3/2")
    assert x ** -2 == Q3.scalar("9/4")
    assert 2 - x == Q3.scalar("4/3")
    assert (x * 0).is_zero()
    assert x == QQ(2, 3)
    assert Q3.zeta != 1
    assert bool(Q3.zero) is False and bool(Q3.one) is True


def test_a_rational_factor_skips_the_reduction(monkeypatch):
    # Phi_n reduction is only for products of two irrational scalars
    Q12 = CyclotomicField(12)
    irrationals = (Q3.scalar("1/2 - 3*z"), Q12.scalar("2 + z - 5/6*z^3"))
    calls = []
    reduce = CyclotomicField._reduce
    monkeypatch.setattr(CyclotomicField, "_reduce", lambda self, coeffs: calls.append(self) or reduce(self, coeffs))
    for x in irrationals:
        field = x.field
        for r in (field.one, -field.one, field.zero, field.from_rational(QQ(-4, 9)), field.from_rational(7)):
            assert x * r == r * x == x * r.coeffs[0]
            assert (x * r).coeffs == tuple(c * r.coeffs[0] for c in x.coeffs)
        assert x * field.one is x and field.one * x is x
        assert x + field.zero is x and field.zero + x is x and x - field.zero is x
    assert calls == []
    for x in irrationals:
        x * x
    assert calls == [Q3, Q12]


def test_text_rationals_are_p_or_p_over_q():
    assert [as_rational(t) for t in ("3", "-3/4", "+6/8")] == [QQ(3), QQ(-3, 4), QQ(3, 4)]
    assert parse_scalar(Q3, "-3/4*z^2 - z + 2") == Q3.from_coeffs([2, -1, QQ(-3, 4)])
    for text in ("0.5", "1_000", "1e10000000", "1/2e3", "--1", "٣", "inf", "nan"):
        with pytest.raises(ValueError):
            as_rational(text)
        with pytest.raises(ValueError):
            parse_scalar(Q3, text)


def test_parse_splits_terms_only_at_signs():
    assert parse_scalar(Q3, " - 1 +z^2 ") == parse_scalar(Q3, "-1 + z^2") == Q3.from_coeffs([-1, 0, 1])
    assert parse_scalar(Q3, "+z") == Q3.zeta
    for text in ("1 2", "+", "1+", "1++2", "1 + -z", "1/ 2", "*z", " "):
        with pytest.raises(ValueError):
            parse_scalar(Q3, text)


def test_parse_rejects_out_of_range_power():
    with pytest.raises(ValueError):
        parse_scalar(Q3, "z^5")
    with pytest.raises(ValueError):
        parse_scalar(Q3, "")


def test_not_split_carries_factor():
    p = [Q.one, Q.one, Q.one]
    try:
        factor_into_linears(p)
    except NotSplitError as err:
        assert "x" in err.factor
    else:
        raise AssertionError("expected NotSplitError")


def test_poly_divmod_and_gcd():
    a = poly_from_roots(Q3, [(Q3.one, 1), (Q3.zeta, 1)])
    b = [-Q3.one, Q3.one]  # x - 1
    q, r = poly_divmod(a, b)
    assert not r
    assert poly_mul(q, b) == a
    # gcd of (x-1)(x-z) and (x-z) is x-z, monic
    assert poly_gcd(a, [-Q3.zeta, Q3.one]) == [-Q3.zeta, Q3.one]
    # deg a < deg b: the first remainder is a itself
    a, b = [-Q.one, Q.one], poly_from_roots(Q, [(Q.scalar(2), 2)])  # x - 1, (x - 2)^2
    assert poly_divmod(a, b) == ([], a)
    assert poly_gcd(a, b) == poly_gcd(b, a) == [Q.one]
    a = poly_from_roots(Q3, [(Q3.one, 2), (Q3.zeta, 1)])
    assert poly_gcd([c * Q3.scalar(3) for c in a], [-Q3.zeta, Q3.one]) == [-Q3.zeta, Q3.one]
    assert poly_gcd(a, []) == poly_gcd([], a) == a and poly_gcd([], []) == []


def test_floats_are_refused():
    for field in (Q, Q3):
        with pytest.raises(TypeError):
            field.from_rational(0.5)
        with pytest.raises(TypeError):
            field.from_coeffs([1, 0.5])


# -- the integer-numerator form against a Fraction oracle ---------------------
# The oracle is the coefficient-tuple arithmetic scalars used before they
# were stored as integer numerators over one denominator: a value is a tuple
# of `degree` QQ coefficients, products are convolutions reduced modulo Phi_n.

ORACLE_CONDUCTORS = (1, 3, 4, 5, 8, 12)
# conductor -> the larger conductors its scalars are embedded into
ORACLE_EMBEDDINGS = {1: (3,), 3: (6, 12), 4: (8, 12)}


def _oracle_reduce(field, coeffs):
    d = field.degree
    coeffs = list(coeffs)
    zeta_d = tuple(-QQ(c) for c in cyclotomic_polynomial(field.conductor)[:-1])
    while len(coeffs) > d:
        top = coeffs.pop()
        if top:
            off = len(coeffs) - d
            for i, r in enumerate(zeta_d):
                if r:
                    coeffs[off + i] += top * r
    coeffs += [QQ(0)] * (d - len(coeffs))
    return tuple(coeffs)


def _oracle_mul(field, a, b):
    d = field.degree
    if d == 1:
        return (a[0] * b[0],)
    conv = [QQ(0)] * (2 * d - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    conv[i + j] += ai * bj
    return _oracle_reduce(field, conv)


def _assert_canonical(s):
    d = s.field.degree
    assert type(s.den) is int and s.den > 0
    assert len(s.num) == d and all(type(n) is int for n in s.num)
    assert math.gcd(s.den, *s.num) == 1
    if not any(s.num):
        assert (s.num, s.den) == ((0,) * d, 1)


@st.composite
def _oracle_case(draw):
    """A field, three scalars with their oracle coefficient tuples (built
    from lists up to `conductor` long, so from_coeffs reduces), an int and
    a QQ."""
    field = CyclotomicField(draw(st.sampled_from(ORACLE_CONDUCTORS)))
    rational = st.builds(QQ, st.integers(-10**12, 10**12), st.integers(1, 10**6))
    small = st.builds(QQ, st.integers(-6, 6), st.sampled_from([1, 1, 2, 3, 4, 6]))
    values = []
    for _ in range(3):
        coeffs = draw(st.lists(st.one_of(small, rational), min_size=1, max_size=field.conductor))
        values.append((field.from_coeffs(coeffs), _oracle_reduce(field, coeffs)))
    return field, values, draw(st.integers(-50, 50)), draw(small)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_oracle_case())
def test_arithmetic_matches_fraction_oracle(case):
    field, ((x, ox), (y, oy), (z, oz)), k, q = case
    d = field.degree
    zero = (QQ(0),) * d
    one = (QQ(1),) + zero[1:]
    as_const = lambda c: (QQ(c),) + zero[1:]
    results = {
        "x": (x, ox),
        "x + y": (x + y, tuple(a + b for a, b in zip(ox, oy))),
        "x - y": (x - y, tuple(a - b for a, b in zip(ox, oy))),
        "x - x": (x - x, zero),
        "-x": (-x, tuple(-a for a in ox)),
        "x * y": (x * y, _oracle_mul(field, ox, oy)),
        "x * (y + z)": (x * (y + z), _oracle_mul(field, ox, tuple(a + b for a, b in zip(oy, oz)))),
        "x * 0": (x * 0, zero),
        "x + k": (x + k, tuple(a + b for a, b in zip(ox, as_const(k)))),
        "k - x": (k - x, tuple(b - a for a, b in zip(ox, as_const(k)))),
        "q * x": (q * x, _oracle_mul(field, as_const(q), ox)),
        "x * q": (x * q, _oracle_mul(field, ox, as_const(q))),
        "x + q": (x + q, tuple(a + b for a, b in zip(ox, as_const(q)))),
    }
    # rational Scalar operands on both sides of *, and a zero Scalar on both
    # sides of + and -; R(shared)'s denominator is a multiple of x.den, and
    # R(den)'s numerator cancels it
    rationals = {
        "R(q)": field.from_rational(q), "R(k)": field.from_rational(k),
        "one": field.one, "-one": -field.one, "zero": field.zero,
        "R(shared)": field.from_rational(QQ(k or 1, 2 * x.den)),
        "R(den)": field.from_rational(QQ(x.den, 3)),
    }
    for label, r in rationals.items():
        c = r.coeffs[0]
        results[f"x * {label}"] = (x * r, _oracle_mul(field, ox, as_const(c)))
        results[f"{label} * x"] = (r * x, _oracle_mul(field, as_const(c), ox))
    results["x + 0"] = (x + field.zero, ox)
    results["0 + x"] = (field.zero + x, ox)
    results["x - 0"] = (x - field.zero, ox)
    results["0 - x"] = (field.zero - x, tuple(-a for a in ox))
    for name, (got, want) in results.items():
        _assert_canonical(got)
        assert got.coeffs == want, name
        assert all(isinstance(c, QQ) for c in got.coeffs), name
        assert got.is_zero() == (want == zero), name
        assert got.is_one() == (want == one), name
        assert got.is_rational() == (want[1:] == zero[1:]), name
    if any(ox):
        inv = x.inverse()
        _assert_canonical(inv)
        assert _oracle_mul(field, ox, inv.coeffs) == one
        assert (y / x).coeffs == _oracle_mul(field, oy, inv.coeffs)
    else:
        with pytest.raises(ZeroDivisionError):
            x.inverse()
    # equality with scalars, ints and QQ, and hashes of equal values
    assert (x == y) == (ox == oy)
    assert ((x + y) - y) == x and hash((x + y) - y) == hash(x)
    assert (x * 6) * QQ(1, 6) == x and hash((x * 6) * QQ(1, 6)) == hash(x)
    assert (x == k) == (ox == as_const(k))
    assert (x == q) == (ox == as_const(q))
    if x == k:
        assert hash(x) == hash(k)
    if x == q:
        assert hash(x) == hash(q)
    r = field.from_rational(q)
    assert r == q and r.coeffs == as_const(q) and (r == k) == (q == k)
    assert hash(r) == hash(q) and (r in {q}) and (q in {r})
    assert field.from_rational(k) == k and hash(field.from_rational(k)) == hash(field.scalar(str(k)))
    assert hash(field.from_rational(k)) == hash(k) and field.from_rational(k) in {k}
    # embed is a ring map, and agrees with spreading the oracle's coefficients
    for m in ORACLE_EMBEDDINGS.get(field.conductor, ()):
        target = CyclotomicField(m)
        step = m // field.conductor
        spread = [QQ(0)] * m
        for i, c in enumerate(ox):
            spread[i * step] = c
        ex, ey = x.embed(target), y.embed(target)
        _assert_canonical(ex)
        assert ex.coeffs == _oracle_reduce(target, spread)
        assert (x + y).embed(target) == ex + ey
        assert (x * y).embed(target) == ex * ey
        assert field.one.embed(target) == target.one
        assert field.zeta.embed(target) == target.zeta_power(step)
    # text and pickle round trips
    for s in (x, y, z, r, x * y):
        assert parse_scalar(field, scalar_to_string(s)) == s
        back = pickle.loads(pickle.dumps(s))
        assert back == s and back.field is field and hash(back) == hash(s)


# -- roots against the sympy factorization oracle -----------------------------

# extra factors, rootless over some of the fields and split over others:
# x^2 + x + 1 splits over Q(zeta_3) and Q(zeta_12), x^2 - 2 over Q(zeta_8),
# x^2 - 5 over Q(zeta_5), and x^3 - 2 over none of them
EXTRA_FACTORS = ((1, 1, 1), (-2, 0, 1), (-5, 0, 1), (-2, 0, 0, 1))


@st.composite
def _root_case(draw):
    """A field, distinct roots with multiplicities, and an optional extra
    factor from EXTRA_FACTORS."""
    field = CyclotomicField(draw(st.sampled_from(ORACLE_CONDUCTORS)))
    coeff = st.builds(QQ, st.integers(-6, 6), st.sampled_from([1, 1, 2, 3]))
    roots = draw(st.lists(st.lists(coeff, min_size=1, max_size=field.degree).map(field.from_coeffs),
                          min_size=0, max_size=3, unique=True))
    mults = [draw(st.integers(1, 3)) for _ in roots]
    extra = draw(st.one_of(st.none(), st.sampled_from(EXTRA_FACTORS)))
    return field, list(zip(roots, mults)), extra


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(_root_case())
def test_roots_match_sympy_oracle(case):
    field, roots, extra = case
    p = poly_from_roots(field, roots)
    if extra is not None:
        p = poly_mul(p, [field.scalar(c) for c in extra])
    if len(p) == 1:
        return
    want, leftovers = _sympy_linear_factors(p, field)
    want.sort(key=lambda rm: rm[0].sort_key())
    if leftovers:
        with pytest.raises(NotSplitError) as err:
            factor_into_linears(p)
        rootless, rem = poly_divmod(p, poly_from_roots(field, want))
        assert not rem
        assert err.value.factor == poly_to_string(rootless)
    else:
        assert factor_into_linears(p) == want


# a loose ceiling for the timed tests below: they run in well under a second,
# while a search exponential in the degree or the constant term takes hours
CEILING_S = 30


def test_roots_of_a_large_constant_term():
    # the rational root theorem would scan the divisors of 10^9
    p = poly_from_roots(Q, [(Q.scalar(10**9), 1), (Q.one, 1)])
    start = time.perf_counter()
    assert factor_into_linears(p) == [(Q.one, 1), (Q.scalar(10**9), 1)]
    assert time.perf_counter() - start < CEILING_S


def _degree_8_roots_over_zeta12():
    field = CyclotomicField(12)
    z = field.zeta
    roots = [z + 1, z**2 - 3 * z, field.scalar("1/2"), 2 * z**5 + z,
             7 - z**3, z**3 / 5, field.scalar(-1), z**7 + 3 * z**4]
    return field, sorted(roots, key=lambda r: r.sort_key())


def test_roots_of_a_split_degree_8_polynomial_over_zeta12():
    field, roots = _degree_8_roots_over_zeta12()
    p = poly_from_roots(field, [(r, 1) for r in roots])
    start = time.perf_counter()
    assert factor_into_linears(p) == [(r, 1) for r in roots]
    assert time.perf_counter() - start < CEILING_S


def test_not_split_degree_8_polynomial_over_zeta12_names_the_rootless_part():
    field, roots = _degree_8_roots_over_zeta12()
    x2_minus_5 = [field.scalar(-5), field.zero, field.one]
    p = poly_mul(poly_from_roots(field, [(r, 1) for r in roots[:6]]), x2_minus_5)
    start = time.perf_counter()
    with pytest.raises(NotSplitError) as err:
        factor_into_linears(p)
    assert err.value.factor == "x^2 + (-5)"
    assert time.perf_counter() - start < CEILING_S


def test_roots_of_unity_at_large_conductors(monkeypatch):
    # x^11 - 1 over Q(zeta_11) (phi = 10) and x^36 - 1 over Q(zeta_36)
    # (phi = 12): matching one root per embedding would mean 11^10 and 36^12
    # tuples, while each root here is one decoding of one root modulo p
    decoded = []
    nearest = scalars._nearest_in_coset
    monkeypatch.setattr(scalars, "_nearest_in_coset", lambda *args: decoded.append(args) or nearest(*args))
    for n in (11, 36):
        field = CyclotomicField(n)
        x_n_minus_1 = [field.scalar(-1)] + [field.zero] * (n - 1) + [field.one]
        start = time.perf_counter()
        roots = factor_into_linears(x_n_minus_1)
        assert time.perf_counter() - start < CEILING_S
        want = sorted(((field.zeta_power(k), 1) for k in range(n)), key=lambda rm: rm[0].sort_key())
        assert roots == want
    assert len(decoded) == 11 + 36


def test_roots_of_a_split_degree_8_polynomial_over_zeta36():
    # phi(36) = 12, with roots that are not roots of unity
    field = CyclotomicField(36)
    z = field.zeta
    roots = sorted([z + 1, z**2 - 3 * z, field.scalar("1/2"), 2 * z**5 + z, 7 - z**11,
                    z**9 / 5, z**7 + 3 * z**4 - z**10, field.scalar(-1)], key=lambda r: r.sort_key())
    p = poly_from_roots(field, [(r, 1 + i % 2) for i, r in enumerate(roots)])
    start = time.perf_counter()
    assert factor_into_linears(p) == [(r, 1 + i % 2) for i, r in enumerate(roots)]
    x3_minus_2 = [field.scalar(-2), field.zero, field.zero, field.one]
    with pytest.raises(NotSplitError) as err:
        factor_into_linears(poly_mul(p, x3_minus_2))
    assert err.value.factor == "x^3 + (-2)"
    assert time.perf_counter() - start < CEILING_S

"""Hopf algebras by exact structure constants.

A HopfAlgebra holds the multiplication and comultiplication 3-tensors, the
unit, counit and antipode over a fixed cyclotomic field.  Every structure
tensor holds only its nonzero entries: mult[i] = {j: {k: c}} for the j with
e_i e_j != 0, comult[i] = {(j, k): c}, antipode[i] = {j: c} and the R-matrix
{(i, j): c}; unit and counit are dense vectors.  Elements of H are
coefficient vectors over the canonical basis; functionals (elements of H*)
are vectors of values on that basis.  Everything downstream -- integrals,
character tables, grouplikes, coideal subalgebras -- is computed from these
tensors by exact linear algebra.  Characters come from the central primitive
idempotents and the regular trace, and the grouplikes are the degree-1
characters of H*; no primitive idempotent of a block is found.  The
integrals of H and H* are their regular characters, certified as
two-sided integrals (integrals()).

verify() compares the two sides of each tensor identity exactly on integer
structure constants: it converts each tensor once, into integer slices of
numerators of powers of zeta over one common denominator D of the whole
algebra (_IntegerTensors), and every check, associativity included, reads
those slices.  Both sides are summed as Python ints per output index and
power of zeta, and only a sum that does not vanish as it stands is reduced
modulo the cyclotomic polynomial Phi_n before it counts as a failure.  This
module is the only one that knows that format.  Associativity and the
algebra-map checks read only a generating set of H (see verify()).

Conventions (pinned; the verification report is the safety net):

    H* acting on H      b -> h = sum h1 <b, h2>        h <- b = sum <b, h1> h2
                        (H.act_left(b, h), H.act_right(h, b))
    hit actions         <a -> p, a'> = <p, a' a>      <p <- a, a'> = <p, a a'>
                        (H.dual().act_left(a, p), H.dual().act_right(p, a))
    adjoint             h ad a  = sum h1 a S(h2)
    coadjoint           <h coad p, a> = <p, h ad a>

H* is the cached Hopf algebra H.dual(), whose tensors are the transposes of
H's, so every H* operation is the matching operation of that object: the
product pq is H.dual().multiply(p, q), the unit of H* is H.counit and
s(p) = p o S is H.dual().antipode_of(p).
"""

from __future__ import annotations

import itertools
import math

from .errors import AxiomError, IntegralError, MissingRMatrixError, NotSemisimpleError
from .linalg import (
    AlgebraPresentation,
    Subspace,
    _cached,
    _central_blocks,
    _is_two_sided_integral,
    _regular_trace,
    _tensor_add,
    _combination,
    _to_dense,
    _to_sparse,
    basis_vector,
    mat_vec,
    vec_eq,
    vec_scale,
    zero_vector,
)
from .scalars import CyclotomicField


class AxiomCheck:
    __slots__ = ("name", "ok", "witness")

    def __init__(self, name, ok, witness=None):
        self.name = name
        self.ok = ok
        self.witness = witness

    def to_dict(self):
        d = {"axiom": self.name, "ok": self.ok}
        if self.witness is not None:
            d["witness"] = self.witness
        return d


class AxiomReport:
    """Outcome of verify(): one entry per axiom, with a counterexample
    basis index on failure."""

    def __init__(self, checks):
        self.checks = checks

    @property
    def ok(self):
        return all(c.ok for c in self.checks)

    def failures(self):
        return [c for c in self.checks if not c.ok]

    def to_dict(self):
        return {"ok": self.ok, "checks": [c.to_dict() for c in self.checks]}


class IntegralPair:
    """Idempotent two-sided integral of H and the dual integral of H*,
    normalized so that <dual_integral, integral> = 1."""

    __slots__ = ("integral", "dual_integral")

    def __init__(self, integral, dual_integral):
        self.integral = integral
        self.dual_integral = dual_integral


class CharacterTable:
    """Central primitive idempotents E_i, irreducible characters chi_i and
    degrees d_i of a semisimple algebra, with the integral's block first
    (E_0 = integral, chi_0 = counit).

    The characters come from the E_i and the regular trace alone, and
    restriction and induction of coideal characters read E_i / d_i where the
    paper reads a primitive idempotent t_i (see `hopflab.harmonic`).
    """

    def __init__(self, idempotents, degrees, characters):
        self.idempotents = idempotents
        self.degrees = degrees
        self.characters = characters

    def __len__(self):
        return len(self.characters)


class HopfAlgebra(AlgebraPresentation):
    """Finite-dimensional (semisimple) Hopf algebra over Q(zeta_n).

    Its algebra structure (field, dim, mult, unit) is the inherited
    AlgebraPresentation.  The tensors are not changed after construction;
    derived data (dual, integrals, character table, grouplikes, the rows of
    the ad(e_i) table) is computed on first use and stored whole in
    `_cache` through `_cached`, so instances are safe for concurrent
    readers: every reader of an entry gets the one object stored first.
    """

    def __init__(self, field, dim, mult, unit, comult, counit, antipode,
                 r_matrix=None, basis_labels=None, name=None):
        """Sparse tensors of nonzero entries only; unit and counit dense."""
        super().__init__(field, dim, mult, unit)  # mult[i]: {j: {k: c}}, e_i e_j != 0
        self.comult = comult          # comult[i]: {(j, k): c}
        self.counit = list(counit)
        self.antipode = [dict(row) for row in antipode]  # antipode[i] = S(e_i): {j: c}
        self.r_matrix = r_matrix      # {(i, j): c} or None
        self.basis_labels = list(basis_labels) if basis_labels else None
        self.name = name

    # -- basic helpers --------------------------------------------------------

    def zero(self):
        return zero_vector(self.field, self.dim)

    def basis(self, i):
        return basis_vector(self.field, self.dim, i)

    def label(self, i):
        return self.basis_labels[i] if self.basis_labels else f"e{i}"

    def index_of_label(self, label):
        if not self.basis_labels:
            raise KeyError(f"no basis labels attached; cannot resolve {label!r}")
        return self.basis_labels.index(label)

    def element(self, coeff_map):
        """Element from {label_or_index: scalar-like}."""
        v = self.zero()
        for key, c in coeff_map.items():
            i = key if isinstance(key, int) else self.index_of_label(key)
            v[i] = v[i] + self.field.scalar(c)
        return v

    def same_structure(self, other):
        return (self.dim == other.dim and self.field is other.field
                and self.mult == other.mult and self.comult == other.comult
                and self.antipode == other.antipode
                and vec_eq(self.unit, other.unit) and vec_eq(self.counit, other.counit))

    # -- algebra and coalgebra operations -------------------------------------

    # Bound in this class too, so that perfbench/tracer.py can wrap
    # HopfAlgebra.__dict__["multiply"] without touching AlgebraPresentation.
    multiply = AlgebraPresentation.multiply

    def comult_of(self, x):
        """Delta(x) as a sparse dict {(j, k): c}."""
        out = {}
        for i, xi in enumerate(x):
            if xi.is_zero():
                continue
            for jk, c in self.comult[i].items():
                _tensor_add(out, jk, xi * c)
        return out

    def counit_of(self, x):
        return self.pair(self.counit, x)

    def antipode_of(self, x):
        return _to_dense(_combination(self.antipode, _to_sparse(x)), self.dim, self.field)

    def pair(self, p, x):
        """<p, x> for a functional p and element x."""
        out = self.field.zero
        for pi, xi in zip(p, x):
            if not (pi.is_zero() or xi.is_zero()):
                out = out + pi * xi
        return out

    # -- the dual Hopf algebra -------------------------------------------------

    def dual(self) -> "HopfAlgebra":
        """H* with transposed tensors; dual(dual(H)) has identical tensors
        and is this object.  The one dual stored is the one returned, so
        the proven mark is put on it after the store."""
        dual = _cached(self, "dual", self._transposed)
        if self._cache.get("proven"):  # the Hopf axioms are self-dual
            dual._cache["proven"] = True
        return dual

    def _transposed(self):
        dim, field = self.dim, self.field
        mult = [{} for _ in range(dim)]
        for m, cell in enumerate(self.comult):
            for (i, j), c in cell.items():
                mult[i].setdefault(j, {})[m] = c
        comult = [{} for _ in range(dim)]
        for i, row in enumerate(self.mult):
            for j, cell in row.items():
                for k, c in cell.items():
                    comult[k][(i, j)] = c
        antipode = [{} for _ in range(dim)]
        for i, row in enumerate(self.antipode):
            for j, c in row.items():
                antipode[j][i] = c
        labels = [f"{l}*" for l in self.basis_labels] if self.basis_labels else None
        dual = HopfAlgebra(
            field, dim, mult, list(self.counit), comult, list(self.unit), antipode,
            basis_labels=labels, name=f"{self.name}*" if self.name else None,
        )
        dual._cache["dual"] = self  # dual of the dual is this object
        return dual

    # -- H* acting on H -------------------------------------------------------

    def act_left(self, b, h):
        """b -> h = sum h1 <b, h2> (H* acting on H from the left); on
        H.dual() this is the hit action a -> p, <a -> p, a'> = <p, a' a>."""
        out = self.zero()
        for (j, k), c in self.comult_of(h).items():
            bk = b[k]
            if not bk.is_zero():
                out[j] = out[j] + c * bk
        return out

    def act_right(self, h, b):
        """h <- b = sum <b, h1> h2; on H.dual() this is the hit action
        p <- a, <p <- a, a'> = <p, a a'>."""
        out = self.zero()
        for (j, k), c in self.comult_of(h).items():
            bj = b[j]
            if not bj.is_zero():
                out[k] = out[k] + c * bj
        return out

    # -- adjoint and coadjoint actions ------------------------------------------

    def _ad_operators(self):
        """The ad table: ad[i] = {m: e_i ad e_m} over the m with
        e_i ad e_m != 0, as sparse dicts {n: c}, like the rows of mult.
        The table is one cache entry; each row is built on first read
        (`_ad_row`) and stored whole, so a caller builds only the rows it
        reads.  A read costs a call: take ad[i] once per i, not once per
        (i, m)."""
        return _cached(self, "ad", lambda: _AdTable(self))

    def _ad_row(self, i, diagonal=False):
        """{m: e_i ad e_m} over the m with e_i ad e_m != 0, where
        e_i ad e_m = sum c e_j e_m S(e_k) over Delta(e_i); with diagonal,
        only the entry at n = m of each, for the trace of e_i ad -."""
        mult, antipode = self.mult, self.antipode
        row = {}
        for (j, k), c in self.comult[i].items():
            for m, cell in mult[j].items():
                out = row.setdefault(m, {})
                for p, d in cell.items():
                    cd = c * d
                    for q, s in antipode[k].items():
                        f = cd * s
                        terms = mult[p].get(q, {})
                        if diagonal:
                            if m in terms:
                                _tensor_add(out, m, f * terms[m])
                            continue
                        for n, e in terms.items():
                            _tensor_add(out, n, f * e)
        return {m: out for m, out in row.items() if out}

    def adjoint(self, h, a):
        """h ad a = sum h1 a S(h2), from the ad rows of the i with h_i != 0."""
        ops = self._ad_operators()
        out = self.zero()
        a_nz = [(m, am) for m, am in enumerate(a) if not am.is_zero()]
        for i, hi in enumerate(h):
            if hi.is_zero():
                continue
            ad_i = ops[i]
            for m, am in a_nz:
                f = hi * am
                for n, c in ad_i.get(m, {}).items():
                    out[n] = out[n] + f * c
        return out

    def coadjoint(self, h, p):
        """h coad p, the transpose of h ad - applied to p:
        (h coad p)[m] = sum_i h_i <p, e_i ad e_m>, from the ad rows of the i
        with h_i != 0."""
        ops = self._ad_operators()
        out = self.zero()
        for i, hi in enumerate(h):
            if hi.is_zero():
                continue
            for m, op in ops[i].items():
                acc = out[m]
                for n, c in op.items():
                    pn = p[n]
                    if not pn.is_zero():
                        acc = acc + hi * c * pn
                out[m] = acc
        return out

    # -- verification -----------------------------------------------------------

    def verify(self) -> AxiomReport:
        """Exact check of every Hopf axiom plus the involutive-antipode
        semisimplicity witness; quasitriangular identities when an R-matrix
        is attached.  Each failing check names its first failing basis
        index (or pair, or triple) in loop order.  A passing report marks
        the object (and its dual) proven, see AlgebraPresentation.

        Six checks hold on a subalgebra that holds 1, so they read only the
        generating set S (`generating_set`), each once the checks it rests
        on have passed:
          - associativity, with S in the middle, once the unit check has
            passed (Light's test, see `generating_set`);
          - Delta and eps as algebra maps, with S on the left, once
            associativity has passed: {a : Delta(a b) = Delta(a) Delta(b)
            for all b} is then closed under products, and holds 1 once
            Delta(1) = 1 (x) 1, which is checked first; likewise for eps;
          - the counit axiom, coassociativity and, with an R-matrix,
            Delta^op(h) R = R Delta(h), once both algebra-map checks have
            passed: (eps x id) Delta, (id x eps) Delta, (Delta x id) Delta
            and (id x Delta) Delta are then algebra maps, and
            Delta^op(h k) R = Delta^op(h) R Delta(k) = R Delta(h k).
        The two algebra-map checks run first; the report keeps its order.
        A failure over S proves the axiom false but need not be the first
        failure in loop order, so the full loop then runs to name it: only
        input that fails pays for it."""
        checks = []
        dim = self.dim
        tensors = _IntegerTensors(self)

        witness = self._unit_witness()
        checks.append(AxiomCheck("unit", witness is None, witness))
        gens = self.generating_set() if witness is None else range(dim)
        witness = _first_witness(tensors.associativity_witness, gens, dim)
        checks.append(AxiomCheck("associativity", witness is None, witness))
        if witness is not None:
            gens = range(dim)
        comult_map = _first_witness(tensors.comult_is_algebra_map_witness, gens, dim)
        counit_map = _first_witness(tensors.counit_is_algebra_map_witness, gens, dim)
        if comult_map is not None or counit_map is not None:
            gens = range(dim)

        for name, witness in (
                ("counit", _first_witness(tensors.counit_witness, gens, dim)),
                ("coassociativity", _first_witness(tensors.coassociativity_witness, gens, dim)),
                ("comult_is_algebra_map", comult_map),
                ("counit_is_algebra_map", counit_map),
                ("antipode", tensors.antipode_witness())):
            checks.append(AxiomCheck(name, witness is None, witness))

        witness = self._involution_witness()
        checks.append(AxiomCheck("antipode_involutive", witness is None, witness))

        if self.r_matrix is not None:
            checks.extend(tensors.quasitriangular_checks(gens))
        report = AxiomReport(checks)
        if report.ok:
            self._cache["proven"] = True
            if "dual" in self._cache:
                self._cache["dual"]._cache["proven"] = True
        return report

    def _unit_witness(self):
        """First i with 1 e_i != e_i or e_i 1 != e_i, else None."""
        unit = _to_sparse(self.unit)
        for i in range(self.dim):
            e = {i: self.field.one}
            if self.sparse_product(unit, e) != e or self.sparse_product(e, unit) != e:
                return i
        return None

    def _involution_witness(self):
        """First i with S(S(e_i)) != e_i, else None."""
        return next((i for i, row in enumerate(self.antipode)
                     if _combination(self.antipode, row) != {i: self.field.one}), None)

    def require_axioms(self):
        """Run verify(); raise AxiomError with its report unless every
        check holds."""
        report = self.verify()
        if not report.ok:
            raise AxiomError(report)

    # -- semisimple structure ----------------------------------------------------

    def integrals(self) -> IntegralPair:
        """Idempotent integral Lambda of H and the dual integral lambda with
        <lambda, Lambda> = 1, read off the regular traces: for semisimple H
        over characteristic 0, Lambda is the regular character of H*,
        Lambda_k ~ tr(L_{e^k}) = sum_l Delta(e_l)_(k, l), scaled so that
        eps(Lambda) = 1, and lambda that of H, lambda_k ~ tr(L_{e_k}) =
        sum_l c_kl^l (Larson-Radford).

        Each is certified as a two-sided integral, h x = x h = eps(h) x for
        every basis element, in H and in H*.  That makes it the only left
        integral up to scale: a left integral y satisfies
        y = Lambda y = eps(y) Lambda.  IntegralError when a check fails,
        since then the input is not semisimple.

        Once verify() has passed, the h that pass form a subalgebra
        (eps is an algebra map), so each certificate reads only the
        generating set of its own algebra, H's for Lambda and H*'s for
        lambda (`_test_indices`).  This method also runs on objects never
        verified, and then reads every basis element."""
        return _cached(self, "integrals", self._certified_integrals)

    def _certified_integrals(self):
        dual = self.dual()
        lam = _regular_trace(dual)
        eps_lam = self.counit_of(lam)
        if eps_lam.is_zero():
            raise IntegralError("regular character of H* has counit zero; input is not semisimple")
        lam = vec_scale(lam, eps_lam.inverse())
        dual_int = _regular_trace(self)
        pairing = self.pair(dual_int, lam)
        if pairing.is_zero():
            raise IntegralError("dual integral pairs to zero with the integral; "
                                "input is not semisimple")
        dual_int = vec_scale(dual_int, pairing.inverse())
        if not _is_two_sided_integral(self, lam, *_basis_and_counit(self)):
            raise IntegralError("regular character of H* is not a two-sided integral; "
                                "input is not semisimple")
        if not _is_two_sided_integral(dual, dual_int, *_basis_and_counit(dual)):
            raise IntegralError("regular character of H is not a two-sided integral of H*; "
                                "input is not semisimple")
        return IntegralPair(lam, dual_int)

    def character_table(self) -> CharacterTable:
        """Irreducible characters from the central primitive idempotents and
        the regular trace; block of the integral comes first so chi_0 is the
        counit."""
        return _cached(self, "characters", self._checked_character_table)

    def _checked_character_table(self):
        table = _character_table(self, self.integrals().integral)
        characters, degrees = table.characters, table.degrees
        if not vec_eq(characters[0], self.counit):
            raise NotSemisimpleError("character of the integral block is not the counit")
        # regular character identity: dual integral = sum d_i chi_i
        reg = mat_vec(characters, [self.field.from_rational(d) for d in degrees])
        if not vec_eq(reg, self.integrals().dual_integral):
            raise NotSemisimpleError("sum of d_i chi_i is not the dual integral")
        for i, chi_i in enumerate(characters):
            image = self._gram_image(chi_i)
            for j, chi_j in enumerate(characters):
                val = self.pair(chi_j, image)
                if val != (1 if i == j else 0):
                    raise NotSemisimpleError("irreducible characters are not orthonormal")
        return table

    def characters_subspace(self) -> Subspace:
        """R(H), the span of the irreducible characters."""
        return _cached(self, "r_space", lambda: Subspace.from_vectors(
            self.field, self.dim, self.character_table().characters))

    def bilinear_form(self, p, q):
        """(p|q) = <s(q) p, integral> -- the symmetric form making Irr(H)
        orthonormal -- as sum_a q_a (G p)_a (`_gram_image`)."""
        return self.pair(q, self._gram_image(p))

    def _gram_image(self, p):
        """G p, dense, for the sparse Gram matrix G[a][k] =
        sum_j Delta(integral)_(j, k) S(e_j)_a, built whole on first use and
        cached.  A caller pairing p with many q forms G p once."""
        gram = _cached(self, "gram", self._gram_matrix)
        zero = self.field.zero
        return [sum((g * p[k] for k, g in row.items() if not p[k].is_zero()), zero) for row in gram]

    def _gram_matrix(self):
        gram = [{} for _ in range(self.dim)]
        for (j, k), c in self.comult_of(self.integrals().integral).items():
            for a, s in self.antipode[j].items():
                _tensor_add(gram[a], k, c * s)
        return gram

    def grouplikes(self):
        """All g with Delta(g) = g x g and eps(g) = 1: the characters of the
        degree-1 blocks of the dual algebra, in the order of its center
        (an algebra map H* -> k is evaluation at a grouplike of H)."""
        return _cached(self, "grouplikes", self._checked_grouplikes)

    def _checked_grouplikes(self):
        _, degrees, characters = _central_blocks(self.dual())
        out = [g for g, d in zip(characters, degrees) if d == 1]
        for g in out:
            if self.comult_of(g) != _tensor2_of_pair(g, g, self.field) or not self.counit_of(g).is_one():
                raise NotSemisimpleError("dual line did not produce a grouplike")
        return out

    # -- quasitriangular helpers ---------------------------------------------------

    def f_r(self, p, transposed=False):
        """f_R(p) = sum <p, R1> R2 (or sum <p, R2> R1 when transposed)."""
        if self.r_matrix is None:
            raise MissingRMatrixError("no R-matrix attached")
        out = self.zero()
        for (i, j), c in self.r_matrix.items():
            if transposed:
                if not p[j].is_zero():
                    out[i] = out[i] + c * p[j]
            else:
                if not p[i].is_zero():
                    out[j] = out[j] + c * p[i]
        return out

    # -- field enlargement -----------------------------------------------------------

    def with_field(self, conductor: int) -> "HopfAlgebra":
        """Same structure constants embedded into Q(zeta_conductor)."""
        target = CyclotomicField(conductor)
        if target is self.field:
            return self
        emb = lambda s: s.embed(target)
        mult = [{j: {k: emb(c) for k, c in cell.items()} for j, cell in row.items()} for row in self.mult]
        comult = [{jk: emb(c) for jk, c in cell.items()} for cell in self.comult]
        r = {ij: emb(c) for ij, c in self.r_matrix.items()} if self.r_matrix else None
        return HopfAlgebra(
            target, self.dim, mult,
            [emb(c) for c in self.unit], comult, [emb(c) for c in self.counit],
            [{j: emb(c) for j, c in row.items()} for row in self.antipode],
            r_matrix=r, basis_labels=self.basis_labels, name=self.name,
        )

    def __repr__(self):
        tag = self.name or "HopfAlgebra"
        return f"<{tag}: dim {self.dim} over {self.field!r}>"


class _AdTable:
    """The rows ad[i] = hopf._ad_row(i), each built on first read and stored
    whole in the table's own `_cache`."""

    def __init__(self, hopf):
        self._hopf = hopf
        self._cache = {}

    def __getitem__(self, i):
        return _cached(self, i, lambda: self._hopf._ad_row(i))

    def __iter__(self):
        return (self[i] for i in range(self._hopf.dim))


# -- integer structure constants ------------------------------------------------
# The axiom checks contract structure tensors as Python ints.  With D a
# common denominator of every constant read, a constant c is an integer
# slice of terms (t, x) with c = sum x zeta^t / D over its terms; a product
# of r constants has denominator D^r, so the side of an identity with fewer
# factors is scaled by a power of D.  Both sides go into one dict
# {(output..., zeta power): int}, the left added and the right subtracted,
# and only where a sum is nonzero is it reduced modulo Phi_n.


def _int_terms(c, D):
    """[(t, x)] with c = sum x zeta^t / D, for D a multiple of c.den."""
    s = D // c.den
    return [(t, x * s) for t, x in enumerate(c.num) if x]


def _int_cell(cell, D):
    """{key: Scalar} as [(key, t, x)]."""
    return [(key, t, x) for key, c in cell.items() for t, x in _int_terms(c, D)]


def _first_nonzero(field, acc):
    """Least output key (a key of acc less its zeta power) whose integer
    polynomial sum_t acc[output + (t,)] zeta^t is nonzero, else None."""
    if not any(acc.values()):
        return None
    polys = {}
    for key, x in acc.items():
        if x:
            polys.setdefault(key[:-1], {})[key[-1]] = x
    for out in sorted(polys):
        terms = polys[out]
        coeffs = [0] * (max(terms) + 1)
        for t, x in terms.items():
            coeffs[t] = x
        if any(field._reduce(coeffs)):
            return out
    return None


class _IntegerTensors:
    """The tensors of a Hopf algebra as integer slices over one common
    denominator D of every constant (see _int_terms), read once for one
    verify() call.  Each check sums both sides of its identity into one
    integer dict per basis index (or pair) and returns the first index, in
    loop order, at which they differ, or None."""

    def __init__(self, hopf):
        r = hopf.r_matrix or {}
        self.field, self.dim = hopf.field, hopf.dim
        self.D = D = math.lcm(1, *{c.den for c in itertools.chain(
            (c for row in hopf.mult for cell in row.values() for c in cell.values()),
            (c for cell in hopf.comult for c in cell.values()),
            (c for row in hopf.antipode for c in row.values()),
            hopf.unit, hopf.counit, r.values())})
        self.mult = [{j: _int_cell(cell, D) for j, cell in row.items()}
                     for row in hopf.mult]                       # [i]: {j: [(k, t, x)]}
        self.comult = [[(j, k, t, x) for (j, k), t, x in _int_cell(cell, D)]
                       for cell in hopf.comult]                  # [i]: [(j, k, t, x)]
        self.unit = [_int_terms(c, D) for c in hopf.unit]        # [i]: [(t, x)]
        self.counit = [_int_terms(c, D) for c in hopf.counit]
        self.antipode = [_int_cell(row, D) for row in hopf.antipode]  # [i]: [(j, t, x)]
        self.r = [(i, j, t, x) for (i, j), t, x in _int_cell(r, D)]

    def _left_index(self, t1):
        """The terms (a, b, t, x) of t1 under each c with e_a e_c != 0:
        {c: [(b, t, x, mult[a][c])]}."""
        index = {}
        for a, b, t, x in t1:
            for c, ac in self.mult[a].items():
                index.setdefault(c, []).append((b, t, x, ac))
        return index

    def _add_product(self, acc, left, t2, sign):
        """acc += sign * t1 t2 in H (x) H, for left = _left_index(t1) and t2
        a list of (c, d, u, y); keys (m, n, zeta power).  Only the term
        pairs with e_a e_c != 0 are visited."""
        mult = self.mult
        for c, d, u, y in t2:
            for b, t, x, ac in left.get(c, ()):
                bd = mult[b].get(d)
                if bd is None:
                    continue
                xy, tu = sign * x * y, t + u
                for m, v, z in ac:
                    f, tuv = xy * z, tu + v
                    for n, w, e in bd:
                        key = (m, n, tuv + w)
                        acc[key] = acc.get(key, 0) + f * e

    def _sub_unit_tensor(self, acc, scale):
        """acc -= scale * 1 (x) 1; keys (a, b, zeta power)."""
        for a, terms_a in enumerate(self.unit):
            for t, x in terms_a:
                for b, terms_b in enumerate(self.unit):
                    for u, y in terms_b:
                        key = (a, b, t + u)
                        acc[key] = acc.get(key, 0) - scale * x * y

    def associativity_witness(self, middle):
        """First (i, j, k), for j in middle, with (e_i e_j) e_k !=
        e_i (e_j e_k): for each pair (i, j), sum_m c_ij^m c_mk^n -
        sum_m c_jk^m c_im^n for every k and n in one accumulation, visiting
        only nonzero structure constants."""
        mult = self.mult
        rows = [[(j, k, t, c) for j, cell in row.items() for k, t, c in cell] for row in mult]
        for i, mult_i in enumerate(mult):
            for j in middle:  # every j: at an empty cell the other side may not vanish
                acc = {}
                for m, t, c in mult_i.get(j, ()):  # (e_i e_j) e_k
                    for k, n, u, d in rows[m]:
                        key = (k, n, t + u)
                        acc[key] = acc.get(key, 0) + c * d
                for k, m, t, c in rows[j]:  # e_i (e_j e_k)
                    for n, u, d in mult_i.get(m, ()):
                        key = (k, n, t + u)
                        acc[key] = acc.get(key, 0) - c * d
                first = _first_nonzero(self.field, acc)
                if first is not None:
                    return i, j, first[0]
        return None

    def counit_witness(self, indices):
        """First i, for i in indices, with (eps x id) Delta(e_i) != e_i or
        (id x eps) Delta(e_i) != e_i; keys (side, n, zeta power)."""
        counit, D2 = self.counit, self.D ** 2
        for i in indices:
            acc = {(0, i, 0): -D2, (1, i, 0): -D2}  # e_i against two factors
            for j, k, t, x in self.comult[i]:
                for u, y in counit[j]:
                    key = (0, k, t + u)
                    acc[key] = acc.get(key, 0) + x * y
                for u, y in counit[k]:
                    key = (1, j, t + u)
                    acc[key] = acc.get(key, 0) + x * y
            if _first_nonzero(self.field, acc) is not None:
                return i
        return None

    def coassociativity_witness(self, indices):
        """First i, for i in indices, with (Delta x id) Delta(e_i) !=
        (id x Delta) Delta(e_i)."""
        comult = self.comult
        for i in indices:
            acc = {}
            for j, k, t, x in comult[i]:
                for a, b, u, y in comult[j]:
                    key = (a, b, k, t + u)
                    acc[key] = acc.get(key, 0) + x * y
                for a, b, u, y in comult[k]:
                    key = (j, a, b, t + u)
                    acc[key] = acc.get(key, 0) - x * y
            if _first_nonzero(self.field, acc) is not None:
                return i
        return None

    def comult_is_algebra_map_witness(self, left):
        """"unit" if Delta(1) != 1 (x) 1, else the first (i, j), for i in
        left, with Delta(e_i e_j) != Delta(e_i) Delta(e_j)."""
        comult, D2 = self.comult, self.D ** 2
        acc = {}
        for i, terms in enumerate(self.unit):
            for t, x in terms:
                for a, b, u, y in comult[i]:
                    key = (a, b, t + u)
                    acc[key] = acc.get(key, 0) + x * y
        self._sub_unit_tensor(acc, 1)
        if _first_nonzero(self.field, acc) is not None:
            return "unit"
        for i in left:
            mult_i, index = self.mult[i], self._left_index(comult[i])
            for j in range(self.dim):  # every j: at an empty cell the other side may not vanish
                acc = {}
                for k, t, x in mult_i.get(j, ()):  # two factors against four
                    x *= D2
                    for a, b, u, y in comult[k]:
                        key = (a, b, t + u)
                        acc[key] = acc.get(key, 0) + x * y
                self._add_product(acc, index, comult[j], -1)
                if _first_nonzero(self.field, acc) is not None:
                    return i, j
        return None

    def counit_is_algebra_map_witness(self, left):
        """"unit" if eps(1) != 1, else the first (i, j), for i in left, with
        eps(e_i e_j) != eps(e_i) eps(e_j)."""
        counit = self.counit
        acc = {(0,): -self.D ** 2}
        for i, terms in enumerate(self.unit):
            for t, x in terms:
                for u, y in counit[i]:
                    key = (t + u,)
                    acc[key] = acc.get(key, 0) + x * y
        if _first_nonzero(self.field, acc) is not None:
            return "unit"
        for i in left:
            mult_i, acc = self.mult[i], {}
            for j in range(self.dim):  # every j: at an empty cell the other side may not vanish
                for k, t, x in mult_i.get(j, ()):
                    for u, y in counit[k]:
                        key = (j, t + u)
                        acc[key] = acc.get(key, 0) + x * y
                for t, x in counit[i]:
                    for u, y in counit[j]:
                        key = (j, t + u)
                        acc[key] = acc.get(key, 0) - x * y
            first = _first_nonzero(self.field, acc)
            if first is not None:
                return i, first[0]
        return None

    def antipode_witness(self):
        """First i with S(e_i1) e_i2 != eps(e_i) 1 or e_i1 S(e_i2) != eps(e_i) 1;
        keys (side, n, zeta power)."""
        mult, antipode, D = self.mult, self.antipode, self.D
        for i, cell in enumerate(self.comult):
            acc = {}
            for j, k, t, x in cell:
                for q, u, y in antipode[j]:
                    xy, tu = x * y, t + u
                    for n, v, z in mult[q].get(k, ()):
                        key = (0, n, tu + v)
                        acc[key] = acc.get(key, 0) + xy * z
                for q, u, y in antipode[k]:
                    xy, tu = x * y, t + u
                    for n, v, z in mult[j].get(q, ()):
                        key = (1, n, tu + v)
                        acc[key] = acc.get(key, 0) + xy * z
            for t, x in self.counit[i]:  # two factors against three
                for n, terms in enumerate(self.unit):
                    for u, y in terms:
                        for side in (0, 1):
                            key = (side, n, t + u)
                            acc[key] = acc.get(key, 0) - D * x * y
            if _first_nonzero(self.field, acc) is not None:
                return i
        return None

    def quasitriangular_checks(self, indices):
        """The four identities of the attached R-matrix; only the last
        names a witness, read over indices as `_first_witness` reads."""
        field, D, R, comult, mult = self.field, self.D, self.r, self.comult, self.mult
        checks = []
        # invertibility via the standard inverse (S x id)R: five factors
        # against two
        acc = {}
        r_inv = [(m, j, t + u, x * y) for i, j, t, x in R for m, u, y in self.antipode[i]]
        r_left = self._left_index(R)
        self._add_product(acc, r_left, r_inv, 1)
        self._sub_unit_tensor(acc, D ** 3)
        checks.append(AxiomCheck("r_invertible", _first_nonzero(field, acc) is None))

        # (Delta x id)R = R13 R23 and (id x Delta)R = R13 R12: two factors
        # against three
        left, right = {}, {}
        for i, j, t, x in R:
            x *= D
            for a, b, u, y in comult[i]:
                key = (a, b, j, t + u)
                left[key] = left.get(key, 0) + x * y
            for a, b, u, y in comult[j]:
                key = (i, a, b, t + u)
                right[key] = right.get(key, 0) + x * y
        for a, b, t, x in R:
            for c, d, u, y in R:
                xy, tu = x * y, t + u
                for m, v, z in mult[b].get(d, ()):
                    key = (a, c, m, tu + v)
                    left[key] = left.get(key, 0) - xy * z
                for m, v, z in mult[a].get(c, ()):
                    key = (m, d, b, tu + v)
                    right[key] = right.get(key, 0) - xy * z
        checks.append(AxiomCheck("r_left_coproduct", _first_nonzero(field, left) is None))
        checks.append(AxiomCheck("r_right_coproduct", _first_nonzero(field, right) is None))

        witness = _first_witness(self.r_intertwines_coproduct_witness, indices, self.dim)
        checks.append(AxiomCheck("r_intertwines_coproduct", witness is None, witness))
        return checks

    def r_intertwines_coproduct_witness(self, indices):
        """First h, for h in indices, with Delta^op(e_h) R != R Delta(e_h)."""
        r_left = self._left_index(self.r)
        for h in indices:
            cell = self.comult[h]
            acc = {}
            self._add_product(acc, self._left_index([(k, j, t, x) for j, k, t, x in cell]), self.r, 1)
            self._add_product(acc, r_left, cell, -1)
            if _first_nonzero(self.field, acc) is not None:
                return h
        return None


def _first_witness(check, gens, dim):
    """check(gens), and, when it fails over a proper subset of the indices,
    check over every index, which names the first witness in loop order."""
    witness = check(gens)
    if witness is not None and len(gens) < dim:
        witness = check(range(dim))
    return witness


def _basis_and_counit(hopf):
    """The basis vectors e_i of hopf._test_indices() as sparse dicts, and
    their counit values, for the two-sided integral certificate."""
    gens = hopf._test_indices()
    return [{i: hopf.field.one} for i in gens], [hopf.counit[i] for i in gens]


def _tensor2_of_pair(x, y, field):
    out = {}
    for i, xi in enumerate(x):
        if xi.is_zero():
            continue
        for j, yj in enumerate(y):
            if not yj.is_zero():
                out[(i, j)] = xi * yj
    return out


def _character_table(algebra, integral) -> CharacterTable:
    """Characters from the central primitive idempotents and the regular
    trace, chi_i(x) = tr(L_{x E_i}) / d_i, with the block of the idempotent
    integral first; no primitive idempotent is found here.  Serves H
    (integral Lambda) and a coideal subalgebra N (Lambda_N)."""
    idempotents, degrees, characters = _central_blocks(algebra)
    order = next((idx for idx, e in enumerate(idempotents) if vec_eq(e, integral)), None)
    if order is None:
        raise NotSemisimpleError("integral is not a central primitive idempotent")
    perm = [order] + [i for i in range(len(idempotents)) if i != order]
    return CharacterTable(*([part[i] for i in perm] for part in (idempotents, degrees, characters)))

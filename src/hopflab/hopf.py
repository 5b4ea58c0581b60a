"""Hopf algebras by exact structure constants.

A HopfAlgebra holds the multiplication and comultiplication 3-tensors, the
unit, counit and antipode over a fixed cyclotomic field.  Elements of H are
coefficient vectors over the canonical basis; functionals (elements of H*)
are vectors of values on that basis.  Everything downstream -- integrals,
character tables, grouplikes, coideal subalgebras -- is computed from these
tensors by exact linear algebra.

Conventions (pinned; the verification report is the safety net):

    hit actions         <p <- a, a'> = <p, a a'>      <a -> p, a'> = <p, a' a>
    dual hit actions    b -> h = sum h1 <b, h2>        h <- b = sum <b, h1> h2
    adjoint             h ad a  = sum h1 a S(h2)
    coadjoint           <h coad p, a> = <p, h ad a>
"""

from __future__ import annotations

from .errors import IntegralError, MissingRMatrixError, NotSemisimpleError
from .linalg import (
    AlgebraPresentation,
    Subspace,
    WedderburnData,
    _left_ideal,
    _operator_on_subspace,
    _solve_integral,
    basis_vector,
    vec_add,
    vec_eq,
    vec_scale,
    wedderburn,
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
    """Central primitive idempotents E_i, irreducible characters chi_i,
    degrees d_i and block primitive idempotents t_i, with the integral's
    block first (E_0 = integral, chi_0 = counit)."""

    def __init__(self, idempotents, characters, degrees, block_idempotents):
        self.idempotents = idempotents
        self.characters = characters
        self.degrees = degrees
        self.block_idempotents = block_idempotents

    def __len__(self):
        return len(self.characters)


class HopfAlgebra(AlgebraPresentation):
    """Finite-dimensional (semisimple) Hopf algebra over Q(zeta_n).

    Its algebra structure (field, dim, mult, unit) is the inherited
    AlgebraPresentation.  Immutable after construction; derived data (dual,
    integrals, character table, grouplikes) is computed once and cached, so
    instances are safe for concurrent readers.
    """

    def __init__(self, field, dim, mult, unit, comult, counit, antipode,
                 r_matrix=None, basis_labels=None, name=None):
        super().__init__(field, dim, mult, unit)  # mult[i][j]: {k: c}
        self.comult = comult          # comult[i]: {(j, k): c}
        self.counit = list(counit)
        self.antipode = [list(row) for row in antipode]  # antipode[i] = S(e_i)
        self.r_matrix = r_matrix      # {(i, j): c} or None
        self.basis_labels = list(basis_labels) if basis_labels else None
        self.name = name
        self._cache = {}

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
        if self.dim != other.dim or self.field is not other.field:
            return False
        for i in range(self.dim):
            for j in range(self.dim):
                if self.mult[i][j] != other.mult[i][j]:
                    return False
            if self.comult[i] != other.comult[i]:
                return False
            if not vec_eq(self.antipode[i], other.antipode[i]):
                return False
        return vec_eq(self.unit, other.unit) and vec_eq(self.counit, other.counit)

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
                cur = out.get(jk)
                nv = xi * c if cur is None else cur + xi * c
                if nv.is_zero():
                    out.pop(jk, None)
                else:
                    out[jk] = nv
        return out

    def counit_of(self, x):
        out = self.field.zero
        for c, xi in zip(self.counit, x):
            if not (c.is_zero() or xi.is_zero()):
                out = out + c * xi
        return out

    def antipode_of(self, x):
        out = self.zero()
        for i, xi in enumerate(x):
            if not xi.is_zero():
                out = vec_add(out, vec_scale(self.antipode[i], xi))
        return out

    def pair(self, p, x):
        """<p, x> for a functional p and element x."""
        out = self.field.zero
        for pi, xi in zip(p, x):
            if not (pi.is_zero() or xi.is_zero()):
                out = out + pi * xi
        return out

    # -- the dual Hopf algebra -------------------------------------------------

    def dual_multiply(self, p, q):
        """Product in H*: <pq, e_m> = sum over Delta(e_m) of p(1st) q(2nd)."""
        out = self.zero()
        for m in range(self.dim):
            acc = self.field.zero
            for (j, k), c in self.comult[m].items():
                pj, qk = p[j], q[k]
                if not (pj.is_zero() or qk.is_zero()):
                    acc = acc + c * pj * qk
            out[m] = acc
        return out

    def dual_unit(self):
        return list(self.counit)

    def dual_antipode_of(self, p):
        """s(p) = p o S."""
        return [self.pair(p, self.antipode[i]) for i in range(self.dim)]

    def dual(self) -> "HopfAlgebra":
        """H* with transposed tensors; dual(dual(H)) has identical tensors."""
        if "dual" in self._cache:
            return self._cache["dual"]
        dim, field = self.dim, self.field
        mult = [[{} for _ in range(dim)] for _ in range(dim)]
        for m in range(dim):
            for (i, j), c in self.comult[m].items():
                mult[i][j][m] = c
        comult = [dict() for _ in range(dim)]
        for i in range(dim):
            for j in range(dim):
                for k, c in self.mult[i][j].items():
                    comult[k][(i, j)] = c
        antipode = [[self.antipode[j][i] for j in range(dim)] for i in range(dim)]
        labels = [f"{l}*" for l in self.basis_labels] if self.basis_labels else None
        dual = HopfAlgebra(
            field, dim, mult, list(self.counit), comult, list(self.unit), antipode,
            basis_labels=labels, name=f"{self.name}*" if self.name else None,
        )
        dual._cache["dual"] = self  # dual of the dual is this object
        self._cache["dual"] = dual
        return dual

    # -- hit actions -----------------------------------------------------------

    def hit_right(self, p, a):
        """p <- a with <p <- a, a'> = <p, a a'>."""
        return [self.pair(p, self.multiply(a, self.basis(i))) for i in range(self.dim)]

    def hit_left(self, a, p):
        """a -> p with <a -> p, a'> = <p, a' a>."""
        return [self.pair(p, self.multiply(self.basis(i), a)) for i in range(self.dim)]

    def act_left(self, b, h):
        """b -> h = sum h1 <b, h2> (H* acting on H from the left)."""
        out = self.zero()
        for (j, k), c in self.comult_of(h).items():
            bk = b[k]
            if not bk.is_zero():
                out[j] = out[j] + c * bk
        return out

    def act_right(self, h, b):
        """h <- b = sum <b, h1> h2."""
        out = self.zero()
        for (j, k), c in self.comult_of(h).items():
            bj = b[j]
            if not bj.is_zero():
                out[k] = out[k] + c * bj
        return out

    # -- adjoint and coadjoint actions ------------------------------------------

    def adjoint(self, h, a):
        """h ad a = sum h1 a S(h2)."""
        out = self.zero()
        for (j, k), c in self.comult_of(h).items():
            left = self.multiply(self.basis(j), a)
            term = self.multiply(left, self.antipode[k])
            out = vec_add(out, vec_scale(term, c))
        return out

    def coadjoint(self, h, p):
        """h coad p, the transpose of h ad - applied to p.

        The adjoint matrix of the integral is cached, since induction
        evaluates coad of the integral many times; no other is kept.
        """
        integrals = self._cache.get("integrals")
        is_integral = integrals is not None and vec_eq(h, integrals.integral)
        mat = self._cache.get("coad_integral") if is_integral else None
        if mat is None:
            mat = [self.adjoint(h, self.basis(m)) for m in range(self.dim)]
            if is_integral:
                self._cache["coad_integral"] = mat
        return [self.pair(p, row) for row in mat]

    # -- verification -----------------------------------------------------------

    def verify(self) -> AxiomReport:
        """Exact check of every Hopf axiom plus the involutive-antipode
        semisimplicity witness; quasitriangular identities when an R-matrix
        is attached."""
        checks = []
        field, dim = self.field, self.dim

        # validate's two halves run separately, so a unit failure still
        # reports whether associativity holds
        witness = self._unit_witness()
        checks.append(AxiomCheck("unit", witness is None, witness))
        witness = self._associativity_witness()
        checks.append(AxiomCheck("associativity", witness is None, witness))

        witness = None
        for i in range(dim):
            left = self.zero()
            right = self.zero()
            for (j, k), c in self.comult[i].items():
                left[k] = left[k] + c * self.counit[j]
                right[j] = right[j] + c * self.counit[k]
            e = self.basis(i)
            if not (vec_eq(left, e) and vec_eq(right, e)):
                witness = i
                break
        checks.append(AxiomCheck("counit", witness is None, witness))

        witness = None
        for i in range(dim):
            lhs, rhs = {}, {}
            for (j, k), c in self.comult[i].items():
                for (a, b), d in self.comult[j].items():
                    _tensor_add(lhs, (a, b, k), c * d)
                for (a, b), d in self.comult[k].items():
                    _tensor_add(rhs, (j, a, b), c * d)
            if lhs != rhs:
                witness = i
                break
        checks.append(AxiomCheck("coassociativity", witness is None, witness))

        witness = None
        if self.comult_of(self.unit) != _tensor2_of_pair(self.unit, self.unit, field):
            witness = "unit"
        else:
            for i in range(dim):
                for j in range(dim):
                    lhs = {}
                    for k, c in self.mult[i][j].items():
                        for jk, d in self.comult[k].items():
                            _tensor_add(lhs, jk, c * d)
                    rhs = self._tensor2_product(self.comult[i], self.comult[j])
                    if lhs != rhs:
                        witness = (i, j)
                        break
                if witness:
                    break
        checks.append(AxiomCheck("comult_is_algebra_map", witness is None, witness))

        witness = None
        if not self.counit_of(self.unit).is_one():
            witness = "unit"
        else:
            for i in range(dim):
                for j in range(dim):
                    lhs = field.zero
                    for k, c in self.mult[i][j].items():
                        lhs = lhs + c * self.counit[k]
                    if lhs != self.counit[i] * self.counit[j]:
                        witness = (i, j)
                        break
                if witness:
                    break
        checks.append(AxiomCheck("counit_is_algebra_map", witness is None, witness))

        witness = None
        for i in range(dim):
            left = self.zero()
            right = self.zero()
            for (j, k), c in self.comult[i].items():
                left = vec_add(left, vec_scale(self.multiply(self.antipode[j], self.basis(k)), c))
                right = vec_add(right, vec_scale(self.multiply(self.basis(j), self.antipode[k]), c))
            target = vec_scale(self.unit, self.counit[i])
            if not (vec_eq(left, target) and vec_eq(right, target)):
                witness = i
                break
        checks.append(AxiomCheck("antipode", witness is None, witness))

        witness = None
        for i in range(dim):
            if not vec_eq(self.antipode_of(self.antipode[i]), self.basis(i)):
                witness = i
                break
        checks.append(AxiomCheck("antipode_involutive", witness is None, witness))

        if self.r_matrix is not None:
            checks.extend(self._quasitriangular_checks())
        return AxiomReport(checks)

    def _tensor2_product(self, t1, t2):
        out = {}
        for (a, b), c in t1.items():
            for (x, y), d in t2.items():
                f = c * d
                for m, cm in self.mult[a][x].items():
                    for n, cn in self.mult[b][y].items():
                        _tensor_add(out, (m, n), f * cm * cn)
        return out

    def _quasitriangular_checks(self):
        checks = []
        R = self.r_matrix
        # invertibility via the standard inverse (S x id)R
        r_inv = {}
        for (i, j), c in R.items():
            for m, cm in enumerate(self.antipode[i]):
                if not cm.is_zero() and not c.is_zero():
                    _tensor_add(r_inv, (m, j), c * cm)
        prod = self._tensor2_product(R, r_inv)
        unit_tensor = _tensor2_of_pair(self.unit, self.unit, self.field)
        checks.append(AxiomCheck("r_invertible", prod == unit_tensor))

        # (Delta x id)R = R13 R23
        lhs, rhs = {}, {}
        for (i, j), c in R.items():
            for (a, b), d in self.comult[i].items():
                _tensor_add(lhs, (a, b, j), c * d)
        for (a, b), c in R.items():
            for (x, y), d in R.items():
                f = c * d
                for m, cm in self.mult[b][y].items():
                    _tensor_add(rhs, (a, x, m), f * cm)
        checks.append(AxiomCheck("r_left_coproduct", lhs == rhs))

        # (id x Delta)R = R13 R12
        lhs, rhs = {}, {}
        for (i, j), c in R.items():
            for (a, b), d in self.comult[j].items():
                _tensor_add(lhs, (i, a, b), c * d)
        for (a, b), c in R.items():  # R13
            for (x, y), d in R.items():  # R12
                f = c * d
                for m, cm in self.mult[a][x].items():
                    _tensor_add(rhs, (m, y, b), f * cm)
        checks.append(AxiomCheck("r_right_coproduct", lhs == rhs))

        witness = None
        for h in range(self.dim):
            flipped = {(k, j): c for (j, k), c in self.comult[h].items()}
            lhs = self._tensor2_product(flipped, R)
            rhs = self._tensor2_product(R, self.comult[h])
            if lhs != rhs:
                witness = h
                break
        checks.append(AxiomCheck("r_intertwines_coproduct", witness is None, witness))
        return checks

    # -- semisimple structure ----------------------------------------------------

    def integrals(self) -> IntegralPair:
        """Idempotent integral of H and the dual integral with
        <dual_integral, integral> = 1, by solving the defining linear
        systems (both solution spaces must be one-dimensional)."""
        if "integrals" in self._cache:
            return self._cache["integrals"]
        lam = _solve_integral(self, self.counit)
        dual_int = _solve_integral(self.dual(), self.unit)
        pairing = self.pair(dual_int, lam)
        if pairing.is_zero():
            raise IntegralError("dual integral pairs to zero with the integral")
        dual_int = vec_scale(dual_int, pairing.inverse())
        pair_obj = IntegralPair(lam, dual_int)
        self._cache["integrals"] = pair_obj
        return pair_obj

    def character_table(self) -> CharacterTable:
        """Irreducible characters via the Wedderburn decomposition;
        block of the integral comes first so chi_0 is the counit."""
        if "characters" in self._cache:
            return self._cache["characters"]
        table = _character_table(self, wedderburn(self), self.integrals().integral)
        characters, degrees = table.characters, table.degrees
        if not vec_eq(characters[0], self.counit):
            raise NotSemisimpleError("character of the integral block is not the counit")
        # regular character identity: dual integral = sum d_i chi_i
        reg = self.zero()
        for chi, d in zip(characters, degrees):
            reg = vec_add(reg, vec_scale(chi, self.field.from_rational(d)))
        if not vec_eq(reg, self.integrals().dual_integral):
            raise NotSemisimpleError("sum of d_i chi_i is not the dual integral")
        for i, chi_i in enumerate(characters):
            for j, chi_j in enumerate(characters):
                val = self.bilinear_form(chi_i, chi_j)
                if val != (1 if i == j else 0):
                    raise NotSemisimpleError("irreducible characters are not orthonormal")
        self._cache["characters"] = table
        return table

    def characters_subspace(self) -> Subspace:
        """R(H), the span of the irreducible characters."""
        if "r_space" not in self._cache:
            table = self.character_table()
            self._cache["r_space"] = Subspace.from_vectors(self.field, self.dim, table.characters)
        return self._cache["r_space"]

    def bilinear_form(self, p, q):
        """(p|q) = <s(q) p, integral> -- the symmetric form making Irr(H)
        orthonormal."""
        lam = self.integrals().integral
        return self.pair(self.dual_multiply(self.dual_antipode_of(q), p), lam)

    def grouplikes(self):
        """All g with Delta(g) = g x g and eps(g) = 1, read off from the
        one-dimensional blocks of the dual algebra (algebra characters of
        H* are grouplikes of H)."""
        if "grouplikes" in self._cache:
            return self._cache["grouplikes"]
        dual_alg = self.dual()
        data = wedderburn(dual_alg)
        out = []
        for e, d in zip(data.central_idempotents, data.degrees):
            if d != 1:
                continue
            pivot = next(m for m, c in enumerate(e) if not c.is_zero())
            inv = e[pivot].inverse()
            g = self.zero()
            for i in range(self.dim):
                # omega(p_i) where p_i e = omega(p_i) e in H*
                val = dual_alg.multiply(self.basis(i), list(e))[pivot] * inv
                g[i] = val
            if self.comult_of(g) != _tensor2_of_pair(g, g, self.field) or not self.counit_of(g).is_one():
                raise NotSemisimpleError("dual line did not produce a grouplike")
            out.append(g)
        self._cache["grouplikes"] = out
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
        mult = [[{k: emb(c) for k, c in cell.items()} for cell in row] for row in self.mult]
        comult = [{jk: emb(c) for jk, c in cell.items()} for cell in self.comult]
        r = {ij: emb(c) for ij, c in self.r_matrix.items()} if self.r_matrix else None
        return HopfAlgebra(
            target, self.dim, mult,
            [emb(c) for c in self.unit], comult, [emb(c) for c in self.counit],
            [[emb(c) for c in row] for row in self.antipode],
            r_matrix=r, basis_labels=self.basis_labels, name=self.name,
        )

    def __repr__(self):
        tag = self.name or "HopfAlgebra"
        return f"<{tag}: dim {self.dim} over {self.field!r}>"


def _tensor_add(t, key, val):
    """Add val at key of a sparse tensor (any arity), dropping zeros."""
    if val.is_zero():
        return
    cur = t.get(key)
    nv = val if cur is None else cur + val
    if nv.is_zero():
        t.pop(key, None)
    else:
        t[key] = nv


def _tensor2_of_pair(x, y, field):
    out = {}
    for i, xi in enumerate(x):
        if xi.is_zero():
            continue
        for j, yj in enumerate(y):
            if not yj.is_zero():
                out[(i, j)] = xi * yj
    return out


def _character_table(algebra, data: WedderburnData, integral) -> CharacterTable:
    """Characters from Wedderburn data, chi(x) = tr(x on A E) / d for each
    block A E of degree d, with the block of the idempotent integral first.
    Serves H (integral Lambda) and a coideal subalgebra N (Lambda_N)."""
    order = next((idx for idx, e in enumerate(data.central_idempotents) if vec_eq(e, integral)), None)
    if order is None:
        raise NotSemisimpleError("integral is not a central primitive idempotent")
    perm = [order] + [i for i in range(len(data)) if i != order]
    idempotents = [data.central_idempotents[i] for i in perm]
    degrees = [data.degrees[i] for i in perm]
    blocks = [data.block_primitive_idempotents[i] for i in perm]
    field = algebra.field
    characters = []
    for e, d in zip(idempotents, degrees):
        space = _left_ideal(algebra, e)
        inv_d = field.from_rational(d).inverse()
        chi = []
        for m in range(algebra.dim):
            op = _operator_on_subspace(algebra, basis_vector(field, algebra.dim, m), space)
            chi.append(sum((op[k][k] for k in range(space.dim)), field.zero) * inv_d)
        characters.append(chi)
    return CharacterTable(idempotents, characters, degrees, blocks)


def module_action_from_idempotent(hopf: HopfAlgebra, t):
    """Left-module matrices of the module H t (rows = images of the module
    basis), plus the module basis itself."""
    space = _left_ideal(hopf, t)
    return [_operator_on_subspace(hopf, hopf.basis(i), space) for i in range(hopf.dim)], space

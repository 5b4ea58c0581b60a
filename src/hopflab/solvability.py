"""Solvable series, nilpotency, and the integral-commutation machinery.

A chain N_0 < N_1 < ... < N_t of left coideal subalgebras is a solvable
series when, for each step,

    (i)  the integral of N_i is central in N_{i+1}, and
    (ii) (a ad b) Lambda_i = eps(a) b Lambda_i  for all a, b in N_{i+1},

and the chain runs from k to H.  Both conditions are linear in b, and
(ii) in a as well, so checking them on the echelon basis rows of N_{i+1},
and on their pairs, is exhaustive.  Normality of the chain members is not
required by the conditions themselves and is surfaced separately as a
diagnostic.

step_conditions evaluates both on sparse data that already exists.  (i)
compares b Lambda_i with Lambda_i b, summed from the products e_m Lambda_i
and Lambda_i e_m that the nonzero cells of mult give.  For (ii) it reads
e_i ad e_m from the cached ad table of H and, for each row a, forms
D_a[m] = (a ad e_m) Lambda_i - eps(a) e_m Lambda_i over the support of
N_{i+1}; since b = sum_m b_m e_m, the pair (a, b) fails exactly when
sum_m b_m D_a[m] != 0, the same identity as (a ad b) Lambda_i =
eps(a) b Lambda_i by linearity in b.

find_solvable_series searches the chains k < N < ... with N normal,
recursing through H//N.  Its candidates N are the lattice of left kernels:
the meet-closure of the left kernels of the irreducible modules, read off
their characters, which for semisimple H is every normal left coideal
subalgebra.  It returns check_solvable_series's own report on the series
it found, or the verdict "undecided" when no chain of that class exists,
never an unverified claim.
"""

from __future__ import annotations

from .coideal import (
    CoidealSubalgebra,
    coideal_closure,
    coideal_from_subspace,
    hopf_center,
    invariants_of,
    quotient,
)
from .coideal import _invariants, _require_own
from .errors import ChainError, HopfLabError, NotNormalError
from .hopf import HopfAlgebra
from .linalg import (
    Subspace,
    _combination,
    _is_two_sided_integral,
    _left_ideal,
    _products_with_basis,
    _subalgebra_generated,
    _tensor_add,
    _to_sparse,
    vec_eq,
    vec_scale,
)


class StepResult:
    """Outcome of the two conditions for one step of a chain."""

    def __init__(self, central, adjoint, witness=None):
        self.central = central
        self.adjoint = adjoint
        self.witness = witness

    @property
    def ok(self):
        return self.central and self.adjoint

    def to_dict(self):
        d = {"integral_central": self.central, "adjoint_condition": self.adjoint}
        if self.witness is not None:
            d["witness"] = self.witness
        return d


class SeriesReport:
    """A chain of coideal subalgebras with per-step condition results."""

    def __init__(self, chain, steps, verdict):
        self.chain = chain
        self.steps = steps
        self.verdict = verdict

    @property
    def ok(self):
        return self.verdict == "solvable_series"

    def to_dict(self):
        return {
            "verdict": self.verdict,
            "dims": [ctx.dim for ctx in self.chain],
            "normal_flags": [ctx.normal for ctx in self.chain],
            "steps": [s.to_dict() for s in self.steps],
        }


def step_conditions(prev: CoidealSubalgebra, nxt: CoidealSubalgebra) -> StepResult:
    """Check (i) and (ii) for one inclusion N_prev <= N_next on the pairs of
    echelon basis rows of N_next (see the module docstring); the witness is
    the first failing row, or pair in row-major order."""
    H = prev.hopf
    right, left = _products_with_basis(H, prev.integral)  # e_n Lambda, Lambda e_n
    rows = nxt.space.sparse_basis
    for r, b in enumerate(rows):
        if _combination(right, b) != _combination(left, b):
            return StepResult(False, True, ("central", r))
    ad = H._ad_operators()
    support = set().union(*rows)
    for r, a in enumerate(rows):
        eps_a = H.counit_of(nxt.space.basis[r])
        diffs = {}  # D_a[m] = (a ad e_m) Lambda - eps(a) e_m Lambda
        for m in support:
            shifted = _combination({i: ad[i].get(m, {}) for i in a}, a)  # a ad e_m
            _tensor_add(shifted, m, -eps_a)
            diffs[m] = _combination(right, shifted)
        for s, b in enumerate(rows):
            if _combination(diffs, b):
                return StepResult(True, False, ("adjoint", (r, s)))
    return StepResult(True, True)


def _verdict(steps):
    """The chain verdict from its steps: solvable_series, or fails_at
    naming the first failing step and condition."""
    for i, s in enumerate(steps):
        if not s.ok:
            return f"fails_at({i}, {'i' if not s.central else 'ii'})"
    return "solvable_series"


def _check_chain(hopf: HopfAlgebra, chain, require_normal=False):
    """Raise unless the chain is a nonempty increasing chain of coideal
    subalgebras of hopf (each normal, when required); member errors come
    before ordering errors."""
    if not chain:
        raise ChainError("empty chain")
    for ctx in chain:
        if ctx.hopf is not hopf:
            raise ChainError("chain entry belongs to a different Hopf algebra")
        if require_normal and not ctx.normal:
            raise NotNormalError("criterion requires normal chain members")
    for prev, nxt in zip(chain, chain[1:]):
        if not nxt.space.contains(prev.space):
            raise ChainError("chain is not increasing")


def check_solvable_series(hopf: HopfAlgebra, chain) -> SeriesReport:
    """Verify a chain; verdict is "solvable_series" only when every step
    passes and the chain runs from k to all of H."""
    _check_chain(hopf, chain)
    steps = [step_conditions(prev, nxt) for prev, nxt in zip(chain, chain[1:])]
    verdict = _verdict(steps)
    if verdict == "solvable_series":
        if chain[0].dim != 1 or chain[-1].dim != hopf.dim:
            verdict = "conditions_hold_but_endpoints_missing"
    return SeriesReport(list(chain), steps, verdict)


class CommutationResult:
    def __init__(self, commute, nl_is_integral, ln_is_integral, product_nl, product_ln, generated_dim):
        self.commute = commute
        self.nl_is_integral = nl_is_integral
        self.ln_is_integral = ln_is_integral
        self.product_nl = product_nl          # lambda_{B_N} lambda_{B_L}
        self.product_ln = product_ln          # lambda_{B_L} lambda_{B_N}
        self.generated_dim = generated_dim

    @property
    def product_is_integral(self):
        return self.nl_is_integral and self.ln_is_integral


def check_integral_commutation(hopf: HopfAlgebra, l_ctx, n_ctx) -> CommutationResult:
    """Do the dual integrals commute, and if so is their product the
    integral of the algebra they generate?"""
    _require_own(hopf, l_ctx, n_ctx)
    dual = hopf.dual()
    ln = dual.multiply(l_ctx.dual_integral, n_ctx.dual_integral)
    nl = dual.multiply(n_ctx.dual_integral, l_ctx.dual_integral)
    commute = vec_eq(ln, nl)
    generated = _subalgebra_generated(
        dual, l_ctx.invariants.sparse_basis + n_ctx.invariants.sparse_basis)
    nl_int = _is_dual_integral_for(hopf, generated, nl)
    ln_int = _is_dual_integral_for(hopf, generated, ln)
    if commute and not (nl_int and ln_int):
        raise HopfLabError("commuting integrals whose product is not an integral")
    return CommutationResult(commute, nl_int, ln_int, nl, ln, generated.dim)


def _is_dual_integral_for(hopf, subalgebra: Subspace, x):
    """x b = <b, 1> x = b x for all b in the subalgebra of H*."""
    if all(c.is_zero() for c in x):
        return False
    return _is_two_sided_integral(hopf.dual(), x, subalgebra.sparse_basis,
                                  [hopf.pair(b, hopf.unit) for b in subalgebra.basis])


class InjectivityResult:
    def __init__(self, injective, intersection_dim, kernel_overlap_dim, integrals_commute):
        self.injective = injective
        self.intersection_dim = intersection_dim
        self.kernel_overlap_dim = kernel_overlap_dim
        self.integrals_commute = integrals_commute


def check_projection_injectivity(hopf: HopfAlgebra, n_ctx, l_ctx) -> InjectivityResult:
    """Is the quotient projection H -> H//N injective on L?  Computed
    directly as L cap HN+ = 0; when L cap N = k and the dual integrals
    commute, injectivity is forced and cross-checked."""
    _require_own(hopf, n_ctx, l_ctx)
    if not n_ctx.normal:
        raise NotNormalError("projection requires a normal coideal subalgebra")
    one_minus = [a - b for a, b in zip(hopf.unit, n_ctx.integral)]
    kernel_space = _left_ideal(hopf, one_minus)
    overlap = l_ctx.space.intersect(kernel_space)
    injective = overlap.dim == 0
    cap = l_ctx.space.intersect(n_ctx.space)
    commute = check_integral_commutation(hopf, l_ctx, n_ctx).commute
    if cap.dim == 1 and commute and not injective:
        raise HopfLabError("projection should be injective when L cap N = k and integrals commute")
    return InjectivityResult(injective, cap.dim, overlap.dim, commute)


class NilpotencyReport:
    """Ascending central series: Z_1 = Hopf center, then successive lifts
    of the Hopf centers of the quotients."""

    def __init__(self, ascending_chain, is_nilpotent):
        self.ascending_chain = ascending_chain  # list of Subspaces
        self.is_nilpotent = is_nilpotent

    def to_dict(self):
        return {
            "dims": [s.dim for s in self.ascending_chain],
            "stabilized": True,  # the series always runs until it stops growing
            "is_nilpotent": self.is_nilpotent,
        }


def ascending_central_series(hopf: HopfAlgebra) -> NilpotencyReport:
    chain = []
    current = hopf_center(hopf)
    while True:
        chain.append(current)
        if current.dim == hopf.dim:
            return NilpotencyReport(chain, True)
        ctx = coideal_from_subspace(hopf, current)
        hq = quotient(hopf, ctx)
        center_bar = hopf_center(hq.quotient)
        if center_bar.dim <= 1:
            return NilpotencyReport(chain, False)
        lifted = hq.lift_coideal(center_bar)
        if lifted.dim <= current.dim:
            return NilpotencyReport(chain, False)
        current = lifted


def check_nilpotent_criterion(hopf: HopfAlgebra, chain):
    """N_{i+1} Lambda_i central in H Lambda_i for every step of a chain of
    normal coideal subalgebras from k to H."""
    _check_chain(hopf, chain, require_normal=True)
    if chain[0].dim != 1 or chain[-1].dim != hopf.dim:
        return False, ("endpoints", None)
    for i, (prev, nxt) in enumerate(zip(chain, chain[1:])):
        lam = _to_sparse(prev.integral)
        n_lam = [hopf.sparse_product(b, lam) for b in nxt.space.sparse_basis]
        h_lam = _products_with_basis(hopf, prev.integral)[0]
        for r, nv in enumerate(n_lam):
            for m, hv in enumerate(h_lam):
                if hopf.sparse_product(nv, hv) != hopf.sparse_product(hv, nv):
                    return False, (i, (r, m))
    return True, None


# -- search -----------------------------------------------------------------


def _normal_candidates(hopf: HopfAlgebra):
    """The proper nontrivial normal left coideal subalgebras of H, ordered
    by dim, then echelon basis.

    For semisimple H these are the left kernels of modules (Burciu), and
    LKer(V + W) = LKer V cap LKer W, so they are the meet-closure of the
    irreducible left kernels LKer(V_chi) = {h : chi -> h = <chi, 1> h}.
    """
    lattice = set()
    for chi in hopf.character_table().characters:
        kernel = _invariants(hopf, Subspace.from_vectors(hopf.field, hopf.dim, [chi]))
        if kernel not in lattice:
            lattice |= {kernel} | {kernel.intersect(member) for member in lattice}
    members = [space for space in lattice if 1 < space.dim < hopf.dim]
    zero = hopf.field.zero.sort_key()  # most entries are 0: read its key once
    return sorted(members, key=lambda space: (space.dim, tuple(
        tuple(zero if c.is_zero() else c.sort_key() for c in row) for row in space.basis)))


def find_solvable_series(hopf: HopfAlgebra) -> SeriesReport:
    """Recursive search for a solvable series: k < H, else k < N followed
    by the lift of a series of H//N found the same way, for each N in the
    lattice of left kernels (_normal_candidates).

    Returns check_solvable_series's own report on the chain found, or one
    with verdict "undecided" when no chain of that class passes.  That is
    not a claim that H is not solvable in the paper's sense: its series
    need not pass through normal coideal subalgebras of H.
    """
    report = _search(hopf)
    return report if report is not None else SeriesReport([], [], "undecided")


def _search(hopf: HopfAlgebra):
    """check_solvable_series's report on the first chain found that passes
    it, or None: k < H, else k < N followed by the lift of a series of
    H//N, for each candidate N whose step from k holds.  A candidate's
    context is built only when the loop reaches it."""
    k_ctx = coideal_closure(hopf, [])
    if hopf.dim == 1:
        return check_solvable_series(hopf, [k_ctx])
    full_ctx = coideal_from_subspace(hopf, Subspace.full(hopf.field, hopf.dim))
    report = check_solvable_series(hopf, [k_ctx, full_ctx])
    if report.ok:
        return report
    for space in _normal_candidates(hopf):
        cand = coideal_from_subspace(hopf, space)
        if not cand.normal:
            raise HopfLabError(f"left-kernel lattice member of dim {space.dim} is not normal")
        if not step_conditions(k_ctx, cand).ok:
            continue
        hq = quotient(hopf, cand)
        sub_report = _search(hq.quotient)
        if sub_report is None:
            continue
        report = check_solvable_series(hopf, [k_ctx] + hq.lift_chain(sub_report.chain))
        if report.ok:
            return report
    return None


# -- the counterexample demonstration ------------------------------------------


def skryabin_counterexample():
    """The commutative dual of the smallest nonabelian group algebra carries
    two 3-dimensional coideal subalgebras that intersect trivially while
    the projection along one is NOT injective on the other; their dual
    integrals do not commute.  Returns all computed facts."""
    from .builders import group_algebra, symmetric3_table

    table, labels = symmetric3_table()
    ks3 = group_algebra(table, conductor=3, labels=labels, name="kS3")
    H = ks3.dual()

    def span_of(names):
        return Subspace.from_vectors(
            ks3.field, 6, [ks3.basis(ks3.index_of_label(n)) for n in names]
        )

    b_n = span_of(["e", "(12)"])
    b_l = span_of(["e", "(13)"])
    n_ctx = coideal_from_subspace(H, invariants_of(H, b_n))
    l_ctx = coideal_from_subspace(H, invariants_of(H, b_l))

    # idempotent integrals of B_N, B_L themselves (coideal subalgebras of H*)
    bn_ctx = coideal_from_subspace(ks3, b_n)
    bl_ctx = coideal_from_subspace(ks3, b_l)
    prod_nl_scaled = vec_scale(
        ks3.multiply(bn_ctx.integral, bl_ctx.integral), ks3.field.from_rational(4)
    )
    prod_ln_scaled = vec_scale(
        ks3.multiply(bl_ctx.integral, bn_ctx.integral), ks3.field.from_rational(4)
    )

    commutation = check_integral_commutation(H, l_ctx, n_ctx)
    injectivity = check_projection_injectivity(H, n_ctx, l_ctx)

    expected_nl = ks3.element({"e": 1, "(12)": 1, "(13)": 1, "(132)": 1})
    expected_ln = ks3.element({"e": 1, "(12)": 1, "(13)": 1, "(123)": 1})

    return {
        "hopf": H,
        "group_algebra": ks3,
        "n_ctx": n_ctx,
        "l_ctx": l_ctx,
        "dim_n": n_ctx.dim,
        "dim_l": l_ctx.dim,
        "intersection_dim": l_ctx.space.intersect(n_ctx.space).dim,
        "n_is_hopf_subalgebra": n_ctx.hopf_subalgebra,
        "product_nl_scaled": prod_nl_scaled,
        "product_ln_scaled": prod_ln_scaled,
        "expected_products": (expected_nl, expected_ln),
        "products_equal": vec_eq(prod_nl_scaled, prod_ln_scaled),
        "context_product_nl": commutation.product_nl,
        "context_product_ln": commutation.product_ln,
        "integrals_commute": commutation.commute,
        "product_is_integral": commutation.product_is_integral,
        "generated_dim": commutation.generated_dim,
        "projection_injective": injectivity.injective,
        "kernel_overlap_dim": injectivity.kernel_overlap_dim,
    }

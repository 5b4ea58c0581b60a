"""Solvable series, nilpotency, and the integral-commutation machinery.

A chain N_0 < N_1 < ... < N_t of left coideal subalgebras is a solvable
series when, for each step,

    (i)  the integral of N_i is central in N_{i+1}, and
    (ii) (a ad b) Lambda_i = eps(a) b Lambda_i  for all a, b in N_{i+1},

and the chain runs from k to H.  Both conditions are bilinear, so checking
them on basis pairs is exhaustive.  Normality of the chain members is not
required by the conditions themselves and is surfaced separately as a
diagnostic.

find_solvable_series is a semi-decision procedure: it searches a
deterministic candidate pool (hints, Hopf center, commutator iterates,
left kernels of the irreducible modules) and recurses through quotients,
returning a fully verified series or the verdict "undecided", never an
unverified claim.
"""

from __future__ import annotations

from .coideal import (
    CoidealSubalgebra,
    coideal_closure,
    coideal_from_subspace,
    commutator_subalgebra,
    dual_subalgebra_generated,
    hopf_center,
    invariants_of,
    left_kernel,
    quotient,
)
from .errors import ChainError, HopfLabError, NotNormalError
from .harmonic import hopf_subalgebra_data
from .hopf import HopfAlgebra, module_action_from_idempotent
from .linalg import Subspace, vec_eq, vec_scale


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
    """Check (i) and (ii) for one inclusion N_prev <= N_next on basis pairs."""
    H = prev.hopf
    lam = prev.integral
    central = True
    witness = None
    for r, b in enumerate(nxt.space.basis):
        b = list(b)
        if not vec_eq(H.multiply(b, lam), H.multiply(lam, b)):
            central = False
            witness = ("central", r)
            break
    adjoint = True
    if central:
        basis = [list(b) for b in nxt.space.basis]
        right_lam = [H.multiply(b, lam) for b in basis]
        for r, a in enumerate(basis):
            eps_a = H.counit_of(a)
            for s, b in enumerate(basis):
                lhs = H.multiply(H.adjoint(a, b), lam)
                if not vec_eq(lhs, vec_scale(right_lam[s], eps_a)):
                    adjoint = False
                    witness = ("adjoint", (r, s))
                    break
            if not adjoint:
                break
    return StepResult(central, adjoint, witness)


def _verdict(steps):
    """The chain verdict from its steps: solvable_series, or fails_at
    naming the first failing step and condition."""
    for i, s in enumerate(steps):
        if not s.ok:
            return f"fails_at({i}, {'i' if not s.central else 'ii'})"
    return "solvable_series"


def check_solvable_series(hopf: HopfAlgebra, chain) -> SeriesReport:
    """Verify a chain; verdict is "solvable_series" only when every step
    passes and the chain runs from k to all of H."""
    if not chain:
        raise ChainError("empty chain")
    for ctx in chain:
        if ctx.hopf is not hopf:
            raise ChainError("chain entry belongs to a different Hopf algebra")
    for prev, nxt in zip(chain, chain[1:]):
        if not nxt.space.contains(prev.space):
            raise ChainError("chain is not increasing")
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
    ln = hopf.dual_multiply(l_ctx.dual_integral, n_ctx.dual_integral)
    nl = hopf.dual_multiply(n_ctx.dual_integral, l_ctx.dual_integral)
    commute = vec_eq(ln, nl)
    generated = dual_subalgebra_generated(
        hopf,
        [list(b) for b in l_ctx.invariants.basis] + [list(b) for b in n_ctx.invariants.basis],
    )
    nl_int = _is_dual_integral_for(hopf, generated, nl)
    ln_int = _is_dual_integral_for(hopf, generated, ln)
    if commute and not (nl_int and ln_int):
        raise HopfLabError("commuting integrals whose product is not an integral")
    return CommutationResult(commute, nl_int, ln_int, nl, ln, generated.dim)


def _is_dual_integral_for(hopf, subalgebra: Subspace, x):
    """x b = <b, 1> x = b x for all b in the subalgebra of H*."""
    if all(c.is_zero() for c in x):
        return False
    for b in subalgebra.basis:
        b = list(b)
        scale = hopf.pair(b, hopf.unit)
        target = vec_scale(x, scale)
        if not vec_eq(hopf.dual_multiply(x, b), target):
            return False
        if not vec_eq(hopf.dual_multiply(b, x), target):
            return False
    return True


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
    if not n_ctx.normal:
        raise NotNormalError("projection requires a normal coideal subalgebra")
    field = hopf.field
    one_minus = list(hopf.unit)
    one_minus = [a - b for a, b in zip(one_minus, n_ctx.integral)]
    kernel_space = Subspace.from_vectors(
        field, hopf.dim,
        [hopf.multiply(hopf.basis(i), one_minus) for i in range(hopf.dim)],
    )
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

    def __init__(self, ascending_chain, stabilized, is_nilpotent):
        self.ascending_chain = ascending_chain  # list of Subspaces
        self.stabilized = stabilized
        self.is_nilpotent = is_nilpotent

    def to_dict(self):
        return {
            "dims": [s.dim for s in self.ascending_chain],
            "stabilized": self.stabilized,
            "is_nilpotent": self.is_nilpotent,
        }


def ascending_central_series(hopf: HopfAlgebra) -> NilpotencyReport:
    chain = []
    current = hopf_center(hopf)
    while True:
        chain.append(current)
        if current.dim == hopf.dim:
            return NilpotencyReport(chain, True, True)
        ctx = coideal_from_subspace(hopf, current)
        hq = quotient(hopf, ctx)
        center_bar = hopf_center(hq.quotient)
        if center_bar.dim <= 1:
            return NilpotencyReport(chain, True, False)
        lifted = hq.lift_coideal(center_bar)
        if lifted.dim <= current.dim:
            return NilpotencyReport(chain, True, False)
        current = lifted


def ascending_chain_contexts(hopf: HopfAlgebra, report: NilpotencyReport):
    """The ascending chain as verified contexts, prefixed with k and (when
    nilpotent) ending at H."""
    chain = [coideal_closure(hopf, [])]
    for space in report.ascending_chain:
        if space.dim == 1:
            continue
        chain.append(coideal_from_subspace(hopf, space))
    return chain


def check_nilpotent_criterion(hopf: HopfAlgebra, chain):
    """N_{i+1} Lambda_i central in H Lambda_i for every step of a chain of
    normal coideal subalgebras from k to H."""
    for ctx in chain:
        if not ctx.normal:
            raise NotNormalError("criterion requires normal chain members")
    for prev, nxt in zip(chain, chain[1:]):
        if not nxt.space.contains(prev.space):
            raise ChainError("chain is not increasing")
    if chain[0].dim != 1 or chain[-1].dim != hopf.dim:
        return False, ("endpoints", None)
    for i, (prev, nxt) in enumerate(zip(chain, chain[1:])):
        lam = prev.integral
        n_lam = [hopf.multiply(list(b), lam) for b in nxt.space.basis]
        h_lam = [hopf.multiply(hopf.basis(m), lam) for m in range(hopf.dim)]
        for r, nv in enumerate(n_lam):
            for m, hv in enumerate(h_lam):
                if not vec_eq(hopf.multiply(nv, hv), hopf.multiply(hv, nv)):
                    return False, (i, (r, m))
    return True, None


def nilpotent_implies_solvable_check(hopf: HopfAlgebra, chain) -> SeriesReport:
    """A chain passing the nilpotency criterion must pass the solvable
    checker as well."""
    ok, witness = check_nilpotent_criterion(hopf, chain)
    if not ok:
        raise ChainError(f"chain does not satisfy the nilpotency criterion: {witness}")
    report = check_solvable_series(hopf, chain)
    if not report.ok:
        raise HopfLabError("nilpotent chain failed the solvability conditions")
    return report


def lift_series_through_quotient(hopf: HopfAlgebra, n_ctx: CoidealSubalgebra, quotient_chain):
    """Lift a verified series of H//N back to H through the lattice
    correspondence, yielding a chain starting at N."""
    hq = quotient(hopf, n_ctx)
    lifted = [n_ctx]
    for ctx_bar in quotient_chain:
        if ctx_bar.dim == 1:
            continue
        space = hq.lift_coideal(ctx_bar.space)
        lifted.append(coideal_from_subspace(hopf, space))
    return lifted


def check_quotient_lifting(hopf: HopfAlgebra, n_ctx, quotient_report: SeriesReport) -> SeriesReport:
    """Constructive test: a solvable series of H//N lifts to a chain of H
    starting at N whose steps satisfy the two conditions."""
    lifted = lift_series_through_quotient(hopf, n_ctx, quotient_report.chain)
    steps = [step_conditions(prev, nxt) for prev, nxt in zip(lifted, lifted[1:])]
    return SeriesReport(lifted, steps, _verdict(steps))


# -- search -----------------------------------------------------------------


def _normal_candidates(hopf: HopfAlgebra, hints=()):
    """Deterministic pool of proper nontrivial normal coideal subalgebras."""
    seen = {}

    def add(space):
        if space.dim <= 1 or space.dim >= hopf.dim:
            return
        if space in seen:
            return
        ctx = coideal_from_subspace(hopf, space)
        if ctx.normal:
            seen[space] = ctx

    for gens in hints:
        ctx = coideal_closure(hopf, gens)
        if 1 < ctx.dim < hopf.dim and ctx.normal:
            seen.setdefault(ctx.space, ctx)

    add(hopf_center(hopf))

    # derived series of commutator subalgebras, while they stay Hopf
    cur = commutator_subalgebra(hopf)
    for _ in range(hopf.dim):
        if cur.dim > 1:
            add(cur.space)
        if cur.dim == 1 or not cur.hopf_subalgebra:
            break
        sub = hopf_subalgebra_data(cur)
        inner = commutator_subalgebra(sub)
        space = Subspace.from_vectors(
            hopf.field, hopf.dim,
            [cur.to_ambient(list(b)) for b in inner.space.basis],
        )
        if space.dim == cur.dim:
            break
        cur = coideal_from_subspace(hopf, space)

    table = hopf.character_table()
    for t in table.block_idempotents:
        mats, _ = module_action_from_idempotent(hopf, t)
        add(left_kernel(hopf, mats))

    def sort_key(ctx):
        return (ctx.dim, tuple(tuple(c.sort_key() for c in row) for row in ctx.space.basis))

    return sorted(seen.values(), key=sort_key)


def find_solvable_series(hopf: HopfAlgebra, hints=()) -> SeriesReport:
    """Greedy recursive search for a solvable series from k to H.

    Returns a verified SeriesReport on success, or one with verdict
    "undecided" -- never a false negative claim.
    """
    chain = _search(hopf, hints)
    if chain is None:
        return SeriesReport([], [], "undecided")
    report = check_solvable_series(hopf, chain)
    if not report.ok:
        raise HopfLabError("search produced a chain that fails verification")
    return report


def _search(hopf: HopfAlgebra, hints=()):
    k_ctx = coideal_closure(hopf, [])
    if hopf.dim == 1:
        return [k_ctx]
    full_ctx = coideal_from_subspace(hopf, Subspace.full(hopf.field, hopf.dim))
    if step_conditions(k_ctx, full_ctx).ok:
        return [k_ctx, full_ctx]
    for cand in _normal_candidates(hopf, hints):
        if not step_conditions(k_ctx, cand).ok:
            continue
        hq = quotient(hopf, cand)
        sub_chain = _search(hq.quotient)
        if sub_chain is None:
            continue
        chain = [k_ctx, cand]
        for ctx_bar in sub_chain:
            if ctx_bar.dim == 1:
                continue
            space = hq.lift_coideal(ctx_bar.space)
            if space.dim == cand.dim:
                continue
            chain.append(coideal_from_subspace(hopf, space))
        if chain[-1].dim != hopf.dim:
            continue
        if all(step_conditions(p, n).ok for p, n in zip(chain, chain[1:])):
            return chain
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

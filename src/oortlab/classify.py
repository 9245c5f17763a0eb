"""Shape tests, cyclic-by-p subgroup enumeration, the two independent
verdict routes, and the structural audit reports.

A group G passes for the prime p when every cyclic-by-p subgroup (normal
Sylow p-subgroup with cyclic quotient) is cyclic, dihedral of order 2p^n,
or A4 (the last only for p = 2).  The definitional route enumerates those
subgroups outright; the criterion route decides from the Sylow p-subgroup
and a handful of normalizer/centralizer conditions.  The two routes are
independent implementations and the batch harness cross-checks them.

The definition route runs on element ids of G's store: the subgroups of
P and their G-classes are sorted id arrays conjugated through G's tables,
the coset walk over N_G(Q) labels each coset of Q by its least id
(``perm.coset_heads``) and forms the powers of all the heads at once,
and ``shape_of`` reads element orders from the store.  Permutations are
built only at the edges: the generators the witnesses print, sifted from
a candidate's own sorted rows when they are read.

Both routes read one Sylow p-subgroup of G (``analysis.sylow`` keeps it
on G), so P is grown once for both; each route computes its own
normalizers.  Where orders decide, the definition route skips its scans:
a subgroup of P alone in its order is its own class rep, and when
|N_G(Q):Q| is a power of p, Q is the only candidate over Q.

The criterion, the structure reports and the claim audit share one
:class:`Context` per (G, p), holding P, the p'-core, the criterion
verdict and the p-local subgroups they all read (the subgroups of a
cyclic P, as ``subgroups_of_p_group`` lists them, and the Klein fours of
P), each one object, so that the normalizers and centralizers memoized
by that object are computed once per request.
On a G of order at least KEYED_MIN_ORDER the criterion never lists G:
sylow, the normalizers and centralizers and the inversion test read G's
store.  Nor does the audit: the reports read element orders and
memberships from stores and ids, G/R is the coset action on G's ids, and
``basic1`` compares subgroups by their keys.  The definition route never
takes a context, and no report or claim runs it.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field as dc_field
from functools import cached_property, lru_cache
from typing import Iterator, Optional

import numpy as np

from .analysis import (
    center,
    centralizer,
    chief_series_within,
    derived_subgroup,
    factor_action,
    fixed_space_dim,
    id_orbit,
    is_abelian,
    is_nilpotent,
    is_simple,
    is_solvable,
    normalizer,
    o_p_prime,
    p_part,
    subgroups_of_p_group,
    sylow,
)
from .errors import PreconditionFailed
from .gf import MAX_Q, factorize, is_prime
from .perm import Group, coset_heads, quotient_by


# -- shapes -------------------------------------------------------------


@dataclass(frozen=True)
class ShapeVerdict:
    """One of Cyclic / Dihedral / A4 / Other, with the group order.

    Cyclic wins ties (C2 is Cyclic(2), not Dihedral); the Klein four group
    is Dihedral(4).
    """

    kind: str
    order: int

    @property
    def label(self) -> str:
        if self.kind == "Cyclic":
            return f"C{self.order}"
        if self.kind == "Dihedral":
            return f"D{self.order}"
        if self.kind == "A4":
            return "A4"
        return f"Other({self.order})"


def shape_of(H: Group) -> ShapeVerdict:
    """Classify H as Cyclic(n), Dihedral(n), A4, or Other from the orders
    of its elements.

    Dihedral(n = 2m), m >= 2, means an element x of order m and m + [m
    even] involutions: then every element outside <x> is an involution, so
    each inverts x, and conversely.  A4 is the unique group of order 12
    without an element of order 6 among those that are neither cyclic nor
    dihedral.
    """
    n = H.order()
    orders = H.element_orders()
    if n in orders:
        return ShapeVerdict("Cyclic", n)
    m = n // 2
    if n >= 4 and n % 2 == 0 and m in orders and orders.count(2) == m + (m % 2 == 0):
        return ShapeVerdict("Dihedral", n)
    if n == 12 and 6 not in orders:
        return ShapeVerdict("A4", 12)
    return ShapeVerdict("Other", n)


def allowed_shape(shape: ShapeVerdict, p: int) -> bool:
    """Whether the shape is permitted for the prime p: any cyclic group,
    D_{2p^n} with n >= 1, or A4 when p = 2."""
    if shape.kind == "Cyclic":
        return True
    if shape.kind == "A4":
        return p == 2
    if shape.kind == "Dihedral":
        m = shape.order // 2
        while m % p == 0:
            m //= p
        return m == 1
    return False


# -- cyclic-by-p subgroups ----------------------------------------------


def _sylow_subgroup_classes(G: Group, p: int) -> tuple[Group, list[Group]]:
    """One fixed Sylow p-subgroup P plus one representative per
    G-conjugacy class of subgroups of P: the first of its class in the
    order of :func:`subgroups_of_p_group`.

    Conjugate Q give conjugate families <Q, t>, so class representatives
    keep the stream conjugacy-representative-complete.  Conjugates have
    equal orders, so a subgroup of P alone in its order is its own class's
    only member in P.  Any other class is an orbit of sorted id arrays
    under G's conjugation tables, which are read only then.
    """
    P = sylow(G, p)
    if P.is_trivial():
        return P, [P]
    subs = subgroups_of_p_group(P, p)
    alone = {n for n, k in Counter(Q.order() for Q in subs).items() if k == 1}
    S = G.store()
    seen: set[bytes] = set()
    reps = []
    for Q in subs:
        if Q.order() not in alone:
            ids = np.sort(S.lookup(S.keys_of(Q)))
            if ids.tobytes() in seen:
                continue
            seen |= id_orbit(ids, G.conjugation_tables())
        reps.append(Q)
    return P, reps


def _cyclic_by_p_stream(G: Group, p: int) -> Iterator[Group]:
    """Candidates <Q, t> for Q a nontrivial p-subgroup class rep and t in
    N_G(Q) (:func:`_candidates_over`).  The Q = 1 family, all p'-cyclic
    subgroups, is always of allowed shape and is not listed."""
    P, reps = _sylow_subgroup_classes(G, p)
    for Q in reps:
        if not Q.is_trivial():
            yield from _candidates_over(G, Q, p)


def _candidates_over(G: Group, Q: Group, p: int) -> Iterator[Group]:
    """The cyclic-by-p subgroups <Q, t> with normal Sylow p-subgroup Q, for
    t in N = N_G(Q), which is computed here and dropped on return, before
    the stream computes the next class rep's.

    Since t normalizes Q, <Q, t> is the union of the cosets Q t^k, and it
    is cyclic-by-p exactly when the order m of Qt in N/Q is prime to p (Q
    is then the normal Sylow p-subgroup and the quotient is generated by
    the image of t).  The walk runs over N's ids, in N's element order:
    each coset Qt = tQ is labelled by its least id, its head
    (``perm.coset_heads``), every head t is tried in turn, and <Q, t> is
    emitted unless an earlier head gave the same cosets.  The powers of
    all heads are computed together.  When |N:Q| is a power of p, every
    coset but Q itself has order a power of p > 1 in N/Q, so Q is the only
    candidate and the walk is skipped.  A Q that is not a subgroup raises
    AssertionError instead of spinning: its heads number other than
    |N:Q|, or one of its cosets has not recurred after |N:Q| powers.
    """
    N = normalizer(G, Q)
    S, n = N.store(), N.order()
    index = n // Q.order()
    if p_part(index, {p}) == index:
        yield N.subgroup_of_ids(S.lookup(S.keys_of(Q)))
        return
    head = coset_heads(N, S.ids_of(Q.generators))  # Q's head is 0
    heads = np.flatnonzero(head == np.arange(n))
    if len(heads) != index:
        raise AssertionError(f"{len(heads)} cosets of Q, not |N:Q| = {index}")
    # powers[k - 1][j] is the head of the coset of heads[j]^k, until Q recurs
    powers = [heads]
    done = heads == 0
    cur = heads
    while not done.all():
        if len(powers) == index:  # no coset of a subgroup has a larger order in N/Q
            raise AssertionError(f"a coset of Q has order above |N:Q| = {index}")
        cur = S.mul(cur, heads)
        powers.append(head[cur])
        done |= powers[-1] == 0
    emitted: set[frozenset[int]] = set()
    for row in np.array(powers).T.tolist():
        m = row.index(0) + 1  # the order of Qt in N/Q
        if m % p == 0:
            continue
        key = frozenset(row[:m])
        if key in emitted:
            continue
        emitted.add(key)
        cosets = np.zeros(n, dtype=bool)
        cosets[row[:m]] = True
        yield N.subgroup_of_ids(np.flatnonzero(cosets[head]))


# -- verdicts -----------------------------------------------------------


@dataclass(frozen=True)
class Witness:
    subgroup: Group
    shape: ShapeVerdict


@dataclass(frozen=True)
class OortVerdict:
    is_o_group: bool
    route: str  # Definition | CriterionOdd | CriterionTwo
    branch: str
    witnesses: tuple[Witness, ...]

    def to_json(self) -> dict:
        return {
            "is_o_group": self.is_o_group,
            "route": self.route,
            "branch": self.branch,
            "witnesses": [
                {
                    "generators": [g.cycle_str() for g in w.subgroup.generators],
                    "order": w.subgroup.order(),
                    "shape": w.shape.label,
                }
                for w in self.witnesses
            ],
        }


def is_o_group_by_definition(G: Group, p: int) -> OortVerdict:
    """Enumerate cyclic-by-p subgroups and test each shape directly.

    The trivial-O_p family consists of cyclic groups of order prime to p,
    always allowed, so the scan starts from nontrivial p-cores.  Each
    distinct failing (kind, order) is recorded once, with generators.
    """
    found: dict[tuple[str, int], Witness] = {}
    for H in _cyclic_by_p_stream(G, p):
        sh = shape_of(H)
        if allowed_shape(sh, p):
            continue
        key = (sh.kind, sh.order)
        if key not in found:
            found[key] = Witness(H, sh)
    witnesses = tuple(found[k] for k in sorted(found))
    return OortVerdict(
        is_o_group=not witnesses,
        route="Definition",
        branch="enumeration",
        witnesses=witnesses,
    )


class Context:
    """The criterion-side quantities of one (G, p), each computed on first
    use: a Sylow p-subgroup P, its normalizer N and centralizer C in G,
    the p'-core R, ncq = |N/C|, the shape of P, the nontrivial subgroups
    of a cyclic P (:attr:`chain`), the Klein fours of P (:attr:`kleins`),
    and the criterion verdict.  Equal subgroups among P, the chain and the
    Klein fours are one object.  P lives on G, where the definition route
    finds it too; the normalizers and centralizers (:meth:`local`) and the
    rest die with the context."""

    def __init__(self, G: Group, p: int):
        self.G = G
        self.p = p
        self._memo: dict[tuple[str, Group], Group] = {}

    def local(self, name: str, H: Group) -> Group:
        """N_G(H) or C_G(H), as ``name`` says ("normalizer" or "centralizer"),
        memoized by the name and the subgroup object H (a ``Group`` hashes
        by identity), which is one of the context's own.  The function is
        this module's binding of that name at call time, so a rebinding (a
        test's counter, a tracer's wrapper) is the one that runs."""
        key = (name, H)
        if key not in self._memo:
            fn = {"normalizer": normalizer, "centralizer": centralizer}[name]
            self._memo[key] = fn(self.G, H)
        return self._memo[key]

    @cached_property
    def P(self) -> Group:
        return sylow(self.G, self.p)

    @cached_property
    def N(self) -> Group:
        return self.local("normalizer", self.P)

    @cached_property
    def C(self) -> Group:
        return self.local("centralizer", self.P)

    @cached_property
    def shape(self) -> ShapeVerdict:
        return shape_of(self.P)

    @cached_property
    def chain(self) -> list[Group]:
        """The nontrivial subgroups of a cyclic P, from P itself down to
        order p (:func:`~oortlab.analysis.subgroups_of_p_group`)."""
        return subgroups_of_p_group(self.P, self.p)[:0:-1]

    @cached_property
    def kleins(self) -> list[Group]:
        """All elementary abelian subgroups of order 4 in P: P itself when P
        is the Klein four, else each cut from P's store with the first pair
        of commuting involutions {x, y}, in P's element order, that
        generates it."""
        P = self.P
        if P.order() % 4:
            return []
        S = P.store()
        invs = np.flatnonzero(S.orders(np.arange(P.order())) == 2)
        if P.order() == 4 and len(invs) == 3:
            return [P]
        xy = S.mul(invs[:, None], invs[None, :])
        found: dict[frozenset[int], tuple[int, int]] = {}
        for i, j in zip(*np.nonzero(np.triu(xy == xy.T, 1))):
            found.setdefault(frozenset(map(int, (0, invs[i], invs[j], xy[i, j]))), (invs[i], invs[j]))
        return [
            P.subgroup_of_ids(np.array(sorted(ids)), [S.perm(g) for g in pair])
            for ids, pair in found.items()
        ]

    @cached_property
    def R(self) -> Group:
        return o_p_prime(self.G, self.p)

    @cached_property
    def ncq(self) -> int:
        return self.N.order() // self.C.order()

    @cached_property
    def verdict(self) -> OortVerdict:
        """Closed-form decision from the Sylow p-subgroup.

        p = 2: Sylow cyclic, or Sylow dihedral (Klein four included) with
        every Klein four subgroup of it self-centralizing in G.

        odd p: Sylow P cyclic, and either N_G(P) = C_G(P), or for the
        order-p subgroup Q of P the centralizer C_G(Q) is abelian and every
        element of N_G(Q) outside C_G(Q) is an involution inverting C_G(Q).
        """
        p, P = self.p, self.P
        if p == 2:
            sh = self.shape
            if sh.kind == "Cyclic":
                return OortVerdict(True, "CriterionTwo", "Sylow cyclic", ())
            if sh.kind != "Dihedral":
                return OortVerdict(False, "CriterionTwo", "Sylow neither cyclic nor dihedral", ())
            for K in self.kleins:
                if self.local("centralizer", K).order() != 4:
                    return OortVerdict(False, "CriterionTwo", "Klein four not self-centralizing", ())
            return OortVerdict(True, "CriterionTwo", "Sylow dihedral self-centralizing Kleins", ())
        if P.is_trivial():
            return OortVerdict(True, "CriterionOdd", "N=C", ())
        if self.shape.kind != "Cyclic":
            return OortVerdict(False, "CriterionOdd", "Sylow noncyclic", ())
        if self.ncq == 1:
            return OortVerdict(True, "CriterionOdd", "N=C", ())
        Q = self.chain[-1]
        CQ = self.local("centralizer", Q)
        if not is_abelian(CQ):
            return OortVerdict(False, "CriterionOdd", "C_G(Q) nonabelian", ())
        if not _inverting_outside(self.local("normalizer", Q), CQ):
            return OortVerdict(
                False, "CriterionOdd", "normalizer element is not an inverting involution", ()
            )
        return OortVerdict(True, "CriterionOdd", "index-2 inversion", ())


def is_o_group_by_criterion(G: Group, p: int) -> OortVerdict:
    """The criterion verdict for (G, p); see :attr:`Context.verdict`."""
    return Context(G, p).verdict


def _orders_outside(N: Group, C: Group) -> np.ndarray:
    """The orders of the elements of N outside its subgroup C, from N's
    store."""
    S = N.store()
    outside = np.ones(N.order(), dtype=bool)
    outside[S.lookup(S.keys_of(C))] = False
    return S.orders(np.flatnonzero(outside))


def _inverting_outside(N: Group, C: Group) -> bool:
    """Whether every element of N outside its subgroup C is an involution
    inverting C.  The involutions suffice: for y outside C and c in C, y c
    lies outside C too, so (y c)^2 = 1, which for an involution y is
    y c y = c^-1."""
    return bool((_orders_outside(N, C) == 2).all())


# -- quotient identification --------------------------------------------


@dataclass(frozen=True)
class _QuotientCandidate:
    name: str
    family: str  # "PSL2" | "PGL2" | "PSL3_4"
    q: int
    order: int
    simple: bool


@lru_cache(maxsize=None)
def _quotient_table() -> tuple[_QuotientCandidate, ...]:
    """The PSL/PGL(2,q) and PSL(3,4) candidates, built once: the table
    depends on no input."""
    out = []
    for q in range(4, MAX_Q + 1):
        fac = factorize(q)
        if len(fac) != 1:
            continue
        out.append(
            _QuotientCandidate(
                f"PSL(2,{q})", "PSL2", q, q * (q * q - 1) // math.gcd(2, q - 1), True
            )
        )
        if q % 2:
            out.append(_QuotientCandidate(f"PGL(2,{q})", "PGL2", q, q * (q * q - 1), False))
    out.append(_QuotientCandidate("PSL(3,4)", "PSL3_4", 4, 20160, True))
    return tuple(out)


# Orders where (order, simplicity) does not pin the isomorphism type at
# desk scale: 20160 is shared by two nonisomorphic simple groups, and 60
# carries two standard labels for the same group.
_AMBIGUOUS_ORDERS = {20160}


@dataclass(frozen=True)
class QuotientId:
    tag: str  # "isomorphic-to" | "consistent-with" | "unidentified"
    name: str
    family: Optional[str] = None
    q: Optional[int] = None

    @property
    def label(self) -> str:
        return f"{self.tag} {self.name}"


def _identify_quotient(Qbar: Group) -> QuotientId:
    """Match a quotient against the PSL/PGL(2,q) and PSL(3,4) table by
    (order, simplicity, Sylow-2 shape); never overclaims an isomorphism."""
    n = Qbar.order()
    cands = [c for c in _quotient_table() if c.order == n]
    if cands:
        simple = is_simple(Qbar)
        cands = [c for c in cands if c.simple == simple]
        if cands and not simple and shape_of(sylow(Qbar, 2)).kind != "Dihedral":
            cands = []  # PGL(2,q), q odd, has dihedral Sylow 2-subgroups
    if not cands:
        return QuotientId("unidentified", f"group of order {n}")
    # Prefer an odd-q label when the same order admits both (e.g. 60).
    chosen = max(cands, key=lambda c: (c.q % 2, -c.q))
    certain = len(cands) == 1 and chosen.simple and n not in _AMBIGUOUS_ORDERS
    tag = "isomorphic-to" if certain else "consistent-with"
    return QuotientId(tag, chosen.name, chosen.family, chosen.q)


# -- structure reports --------------------------------------------------


@dataclass
class StructureReport:
    p: int
    group_order: int
    r_order: int
    p_order: int
    ncq: int
    case: str
    quotient: str
    chief_factors: list[dict] = dc_field(default_factory=list)
    violations: list[str] = dc_field(default_factory=list)
    notes: list[str] = dc_field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "group_order": self.group_order,
            "r_order": self.r_order,
            "sylow_order": self.p_order,
            "ncq": self.ncq,
            "case": self.case,
            "quotient": self.quotient,
            "chief_factors": self.chief_factors,
            "violations": self.violations,
            "notes": self.notes,
        }


def _report(ctx: Context, case: str, quotient: str, **lists: list) -> StructureReport:
    return StructureReport(
        ctx.p, ctx.G.order(), ctx.R.order(), ctx.P.order(), ctx.ncq, case, quotient, **lists
    )


def odd_structure_report(ctx: Context) -> StructureReport:
    """Structural audit for an odd-p positive: consistency of the
    semidirect / N=C / per-subgroup-N=C equivalence, solvability of the
    p'-core when |N/C| = 2, and identification of G/R."""
    G, p = ctx.G, ctx.p
    if p == 2 or not is_prime(p):
        raise PreconditionFailed(f"odd prime required, got {p}")
    if not ctx.verdict.is_o_group:
        raise PreconditionFailed("group fails the odd-p criterion")
    P, R, ncq = ctx.P, ctx.R, ctx.ncq
    violations: list[str] = []
    notes: list[str] = []

    c_semi = R.order() * P.order() == G.order()
    c_sylow = ncq == 1
    c_all = all(
        ctx.local("normalizer", Q).order() == ctx.local("centralizer", Q).order()
        for Q in ctx.chain
    )
    if not (c_semi == c_sylow == c_all):
        violations.append(
            f"THEOREM-VIOLATION: equivalence broke: G=RP is {c_semi}, "
            f"N(P)=C(P) is {c_sylow}, all N(Q)=C(Q) is {c_all}"
        )

    if c_sylow:
        case = "G=RP"
        quotient = f"cyclic of order {P.order()}"
        if not c_semi:
            violations.append("THEOREM-VIOLATION: N=C but |G| != |R||P|")
    else:
        if ncq != 2:
            violations.append(f"THEOREM-VIOLATION: |N(P)/C(P)| = {ncq}, expected 2")
        if not is_solvable(R):
            violations.append("THEOREM-VIOLATION: p'-core not solvable")
        Qbar = G if R.is_trivial() else quotient_by(G, R)[0]
        sh = shape_of(Qbar)
        if sh.kind == "Dihedral" and Qbar.order() == 2 * P.order():
            case = "G=RD"
            quotient = f"dihedral of order {Qbar.order()}"
        else:
            case = "G/R almost simple"
            ident = _identify_quotient(Qbar)
            quotient = ident.label
            if ident.tag == "unidentified":
                notes.append("quotient matched neither a dihedral group nor the simple-type table")
    return _report(ctx, case, quotient, violations=violations, notes=notes)


def cyclic_sylow_report(ctx: Context) -> StructureReport:
    """Structural audit for p = 2 with a cyclic Sylow 2-subgroup P: the
    only structural content is the normal 2-complement R (G = RP) and its
    solvability.  N_G(P)/C_G(P) is trivial, since the automorphism group
    of a cyclic 2-group is a 2-group."""
    if ctx.verdict.branch != "Sylow cyclic":
        raise PreconditionFailed("Sylow 2-subgroup is not cyclic")
    P, R = ctx.P, ctx.R
    violations = []
    if R.order() * P.order() != ctx.G.order():
        violations.append("THEOREM-VIOLATION: cyclic Sylow but |G| != |R||P|")
    if not is_solvable(R):
        violations.append("THEOREM-VIOLATION: odd core not solvable")
    return _report(
        ctx, "G=RP (cyclic Sylow)", f"cyclic of order {P.order()}", violations=violations
    )


def _a4_embeds(ctx: Context) -> bool:
    """A4 <= G iff some Klein four subgroup of a fixed Sylow 2-subgroup is
    normalized but not centralized by an element of order 3 (sufficient by
    Sylow conjugacy)."""
    return any(
        (_orders_outside(ctx.local("normalizer", K), ctx.local("centralizer", K)) == 3).any()
        for K in ctx.kleins
    )


def even_structure_report(ctx: Context) -> StructureReport:
    """Structural audit for a p=2 positive with dihedral Sylow: nilpotent
    commutator of the odd core, fixed-point-freeness of Klein fours, case
    classification, and the chief-factor module checks."""
    if ctx.verdict.branch != "Sylow dihedral self-centralizing Kleins":
        raise PreconditionFailed("group does not pass the p=2 criterion with dihedral Sylow")
    G, P, R = ctx.G, ctx.P, ctx.R
    violations: list[str] = []
    notes: list[str] = []

    if not is_nilpotent(derived_subgroup(R)):
        violations.append("THEOREM-VIOLATION: [R,R] not nilpotent")
    S = G.store()
    in_r = np.zeros(G.order(), dtype=bool)
    in_r[S.lookup(S.keys_of(R))] = True
    for K in ctx.kleins:
        fixed = np.count_nonzero(in_r[S.lookup(S.keys_of(ctx.local("centralizer", K)))])
        if fixed != 1:
            violations.append(
                f"THEOREM-VIOLATION: a Klein four centralizes {fixed} odd-core elements"
            )

    Qbar = G if R.is_trivial() else quotient_by(G, R)[0]
    has_a4 = _a4_embeds(ctx)
    trace_prime_case = False
    if not has_a4:
        case = "1:G=RP"
        quotient = f"2-group of order {P.order()}"
        if R.order() * P.order() != G.order():
            violations.append("THEOREM-VIOLATION: no A4 subgroup but |G| != |R||P|")
    elif is_solvable(G):
        if Qbar.order() == 12 and shape_of(Qbar).kind == "A4":
            case = "2a:G=R.A4"
            quotient = "A4"
        elif Qbar.order() == 24 and center(Qbar).is_trivial():
            # S4 is the only group of order 24 with trivial center
            case = "2b:G=R.S4"
            quotient = "S4"
            trace_prime_case = True
        else:
            case = "unclassified"
            violations.append(
                f"THEOREM-VIOLATION: solvable with A4 subgroup but G/R has order {Qbar.order()}"
            )
            quotient = f"group of order {Qbar.order()}"
        if math.gcd(R.order(), Qbar.order()) == 1:
            notes.append("coprime orders: the extension over the odd core splits")
        else:
            notes.append("split structure not independently verified (non-coprime orders)")
    else:
        case = "2c:nonsolvable"
        if not is_nilpotent(R):
            violations.append("THEOREM-VIOLATION: nonsolvable case but odd core not nilpotent")
        ident = _identify_quotient(Qbar)
        quotient = ident.label
        if ident.family in ("PSL2", "PGL2") and ident.q is not None and ident.q % 2 and ident.q > 4:
            r_char = next(iter(factorize(ident.q)))
            if ident.q > 7 or ident.family == "PGL2":
                if not R.is_trivial() and set(factorize(R.order())) != {r_char}:
                    violations.append(
                        f"THEOREM-VIOLATION: odd core is not a {r_char}-group"
                    )
            else:
                notes.append(
                    f"odd core being a {r_char}-group is not asserted for this quotient type"
                )
        else:
            violations.append(
                f"THEOREM-VIOLATION: nonsolvable quotient not matched as PSL/PGL(2,q), "
                f"q odd > 4: {quotient}"
            )

    chief: list[dict] = []
    for X in chief_series_within(G, R):
        entry: dict = {"order": X.order(), "prime": X.prime, "rank": X.rank}
        if case.startswith("2"):
            if X.rank == 3:
                entry["dim3"] = "verified"
            elif X.rank % 3 == 0:
                entry["dim3"] = "NOT-VERIFIED (dimension taken over the prime field)"
            else:
                entry["dim3"] = "violated"
                violations.append(
                    f"THEOREM-VIOLATION: chief factor rank {X.rank} is not a multiple of 3"
                )
        fixed_dims = []
        for K in ctx.kleins:
            mats = [factor_action(G, X, g)[0] for g in K.generators]
            fixed_dims.append(fixed_space_dim(mats, X.prime))
        entry["klein_fixed_dims"] = fixed_dims
        if any(d != 0 for d in fixed_dims):
            violations.append(
                "THEOREM-VIOLATION: a Klein four has nonzero fixed space on a chief factor"
            )
        if trace_prime_case:
            traces = sorted(
                {factor_action(G, X, g)[1] for g in P.element_list() if g.order() == 4}
            )
            entry["order4_traces"] = traces
            if traces != [1 % X.prime]:
                violations.append(
                    f"THEOREM-VIOLATION: order-4 traces {traces} != 1 mod {X.prime}"
                )
        chief.append(entry)

    return _report(ctx, case, quotient, chief_factors=chief, violations=violations, notes=notes)


# -- literal per-claim audit --------------------------------------------


def _check_two_cases_odd(ctx: Context) -> bool:
    if ctx.shape.kind != "Cyclic" and not ctx.P.is_trivial():
        return False
    for Q in ctx.chain:
        N, C = ctx.local("normalizer", Q), ctx.local("centralizer", Q)
        if N.order() == C.order():
            continue
        if N.order() != 2 * C.order() or not is_abelian(C) or not _inverting_outside(N, C):
            return False
    return True


def _check_basic1(ctx: Context) -> bool:
    """N(Q) = N(P) and C(Q) = C(P) for every nontrivial Q <= P, C(P)
    abelian and inverted by every element of N(P) outside it, and every
    cyclic-by-p subgroup H of order divisible by p conjugate into N(P).
    The subgroups are compared by their sorted keys at G's base.  The last
    clause follows from the first by Sylow conjugacy: H's normal Sylow
    p-subgroup Q is nontrivial and some conjugate Q^g lies in P, so
    H^g <= N_G(Q^g) = N(P)."""
    NP, CP = ctx.N, ctx.C
    if not is_abelian(CP) or not _inverting_outside(NP, CP):
        return False
    S = ctx.G.store()

    def keys(H: Group) -> bytes:
        return np.sort(S.keys_of(H)).tobytes()

    # with N(Q) = N(P) and C(Q) = C(P) the inversion check above covers Q
    np_keys, cp_keys = keys(NP), keys(CP)
    for Q in ctx.chain:
        if keys(ctx.local("centralizer", Q)) != cp_keys or keys(ctx.local("normalizer", Q)) != np_keys:
            return False
    return True


def _check_nontrivial_center_2(G: Group, P: Group, R: Group, Z: Group) -> bool:
    if Z.order() not in (2, 4) or not is_solvable(G):
        return False
    if Z.order() == 4:
        return G.order() == 4 and shape_of(G) == ShapeVerdict("Dihedral", 4)
    if R.is_trivial():
        # then G = P and C_P(R) = P cannot have index 2: the claim is that
        # G itself is dihedral
        return shape_of(G).kind == "Dihedral"
    if not is_abelian(R) or R.order() * P.order() != G.order():
        return False
    rgens = R.generators
    cpr = [x for x in P.element_list() if all(x * r == r * x for r in rgens)]
    if 2 * len(cpr) != P.order():
        return False
    CPR = Group.from_element_set(P.degree, cpr)
    if shape_of(CPR).kind != "Cyclic":
        return False
    cpr_set = CPR.element_set()
    return all(
        all(x * r * x.inv() == r.inv() for r in rgens)
        for x in P.element_list()
        if x not in cpr_set
    )


def theorem_audit(ctx: Context) -> list[tuple[str, str]]:
    """Evaluate each structural claim literally on ctx's (G, p); claims whose
    hypotheses are unmet report not-applicable rather than being skipped.

    Claims: normalizer dichotomy for subgroups of a cyclic Sylow
    (two-cases-odd); the stable centralizer/normalizer picture when
    N(P) != C(P) (basic1); the odd-order equivalence (for-odd-odd);
    solvability of the p'-core (solvable-core); and for p = 2 the
    nontrivial-center and trivial-center restrictions.
    """
    results: list[tuple[str, str]] = []
    G, p, P = ctx.G, ctx.p, ctx.P
    positive = ctx.verdict.is_o_group

    def add(name: str, applicable: bool, check) -> None:
        if not applicable:
            results.append((name, "not-applicable"))
        else:
            results.append((name, "pass" if check() else "fail"))

    if p != 2:
        n_ne_c = ctx.ncq != 1
        add("two-cases-odd", positive, lambda: _check_two_cases_odd(ctx))
        add("basic1", positive and n_ne_c, lambda: _check_basic1(ctx))
        add(
            "for-odd-odd",
            G.order() % 2 == 1,
            lambda: positive
            == (ctx.shape.kind == "Cyclic" and ctx.ncq == 1)
            == (ctx.shape.kind == "Cyclic" and ctx.R.order() * P.order() == G.order()),
        )
        add("solvable-core", positive and n_ne_c, lambda: is_solvable(ctx.R))
        results.append(("nontrivial-center-2", "not-applicable"))
        results.append(("restrictions-trivial-center-1", "not-applicable"))
    else:
        results.append(("two-cases-odd", "not-applicable"))
        results.append(("basic1", "not-applicable"))
        results.append(("for-odd-odd", "not-applicable"))
        results.append(("solvable-core", "not-applicable"))
        noncyclic = ctx.shape.kind != "Cyclic"
        Z = center(G)
        add(
            "nontrivial-center-2",
            positive and noncyclic and not Z.is_trivial(),
            lambda: _check_nontrivial_center_2(G, P, ctx.R, Z),
        )
        add(
            "restrictions-trivial-center-1",
            positive and noncyclic and Z.is_trivial(),
            lambda: is_nilpotent(derived_subgroup(ctx.R)),
        )
    return results

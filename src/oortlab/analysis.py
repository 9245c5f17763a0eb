"""Structural subgroup computations: centralizers, normalizers, Sylow
subgroups, O_pi, derived/chief structure, chief-factor linear algebra.

Centralizers and normalizers filter the exhaustive element store (all
ambient groups here fit under ENUM_CAP).  The store (image rows, base-image
keys, ids) and the lazily derived generators of each subgroup all live in
:class:`~oortlab.perm.Group`.  The three filters on the criterion's path
read G's base columns only: ``centralizer`` compares g(h(b)) with h(g(b)),
``normalizer`` forms g h g^-1 at the base and looks its key up among H's
keys, and ``sylow`` computes the orders of a normalizer's elements
together, iterating g over the base points.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field as dc_field
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import NonSubgroup, NotNormal, NotPGroup, TooLarge
from .gf import factorize
from .perm import KEYED_MIN_ORDER, Group, Perm, identity, mulclose, orbit, quotient_by


# -- filters over the element store ------------------------------------


def _generator_rows(G: Group, H: Group) -> np.ndarray:
    """H's generators as image rows, after checking that they lie in G."""
    gens = H.generators
    for h in gens:
        if not G.contains(h):
            raise NonSubgroup("H is not a subgroup of G")
    rows = np.fromiter(itertools.chain.from_iterable(gens), np.int32, count=len(gens) * G.degree)
    return rows.reshape(len(gens), G.degree)


def _filtered(G: Group, mask: np.ndarray) -> Group:
    return Group.from_element_set(G.degree, list(itertools.compress(G.element_list(), mask.tolist())))


def centralizer(G: Group, H: Group) -> Group:
    """C_G(H) for a subgroup H of G.  g h and h g both lie in G, so they
    are equal exactly when their base images agree: g(h(b)) = h(g(b))."""
    hs = _generator_rows(G, H)
    S = G.store()
    gb = S.E[:, S.base]  # g(b)
    g_of_hb = np.take(S.E, hs[:, S.base], axis=1)  # [g, h, b] -> g(h(b))
    h_of_gb = hs[:, gb]  # [h, g, b] -> h(g(b))
    return _filtered(G, (g_of_hb == h_of_gb.transpose(1, 0, 2)).all(axis=(1, 2)))


def center(G: Group) -> Group:
    return centralizer(G, G)


def normalizer(G: Group, H: Group) -> Group:
    """N_G(H) = {g : g H g^-1 = H}.  Each conjugate g h g^-1 is formed at
    G's base columns only and looked up by its key among H's keys."""
    hs = _generator_rows(G, H)
    if H.is_trivial():
        return G
    S = G.store()
    hkeys = np.sort(S.key(S.base_images(H.element_list())))
    h_of_ginv_b = hs[:, S.inverse_base()]  # [h, g, b] -> h(g^-1(b))
    keys = S.key(S.E[np.arange(len(S.E))[:, None], h_of_ginv_b])  # of g h g^-1
    found = hkeys[np.searchsorted(hkeys, keys).clip(max=len(hkeys) - 1)] == keys
    return _filtered(G, found.all(axis=0))


# -- closures and conjugacy --------------------------------------------


def _with_inverses(G: Group) -> list[tuple[Perm, Perm]]:
    """(g, g^-1) for each generator of G, in generator order."""
    return [(g, g.inv()) for g in G.generators]


def conjugacy_class(G: Group, x: Perm) -> set[Perm]:
    return set(orbit(x, _with_inverses(G), lambda gg, y: gg[0] * y * gg[1]))


def normal_closure(G: Group, gens: Sequence[Perm], cap: Optional[int] = None) -> Optional[Group]:
    """<gens^G>.  With a cap, returns None as soon as the closure provably
    exceeds cap elements."""
    work = [Perm(g) for g in gens if not Perm(g).is_identity()]
    if not work:
        return Group(G.degree, [])
    pairs = _with_inverses(G)
    while True:
        els = mulclose(work, cap=cap)
        if els is None:
            return None
        new = []
        for w in work:
            for g, ginv in pairs:
                c = g * w * ginv
                if c not in els:
                    new.append(c)
        if not new:
            return Group.from_element_set(G.degree, els)
        work.extend(new)


def p_part(n: int, primes: Iterable[int]) -> int:
    out = 1
    for p, e in factorize(n).items():
        if p in primes:
            out *= p**e
    return out


def o_pi(G: Group, pi: Iterable[int]) -> Group:
    """O_pi(G), the largest normal pi-subgroup, via the normal-closure
    characterization: generated by all x whose normal closure is a pi-group.

    Scans one representative per conjugacy class (the closure is a class
    function) with the closure capped at the pi-part of |G|.
    """
    pi = frozenset(pi)
    cap = p_part(G.order(), pi)
    core: set[Perm] = {G.identity()}
    core_gens: list[Perm] = []
    decided: set[Perm] = {G.identity()}
    for x in G.element_list():
        if len(core) == cap:
            break
        if x in decided or x in core:
            continue
        if any(p not in pi for p in factorize(x.order())):
            continue
        decided |= conjugacy_class(G, x)
        nc = normal_closure(G, [x], cap=cap)
        if nc is None or any(p not in pi for p in factorize(nc.order())):
            continue
        core_gens += nc.generators
        joined = mulclose(core_gens, cap=cap)
        if joined is None:
            raise AssertionError("join of normal pi-subgroups exceeded the pi-part")
        core = joined
    return Group.from_element_set(G.degree, core)


def o_p(G: Group, p: int) -> Group:
    return o_pi(G, {p})


def o_p_prime(G: Group, p: int) -> Group:
    """O_{p'}(G); for p = 2 this is O(G)."""
    return o_pi(G, {q for q in factorize(G.order())} - {p})


# -- Sylow machinery ---------------------------------------------------


def _p_element_part(x: Perm, n: int, p: int) -> Perm:
    """The p-part of x, whose order is n."""
    return x ** (n // p_part(n, {p}))


def _with_orders(G: Group, xs: Sequence[Perm]) -> Iterable[tuple[Perm, int]]:
    """(x, order of x) for the elements xs of G.  On a group of order at
    least KEYED_MIN_ORDER the orders are computed together over G's base
    columns; on a smaller one ``Perm.order`` runs lazily, so a scan that
    stops early orders only what it has read."""
    if G.order() < KEYED_MIN_ORDER:
        return ((x, x.order()) for x in xs)
    S = G.store()
    return zip(xs, S.orders(S.lookup(S.key(S.base_images(xs)))).tolist())


def sylow(G: Group, p: int) -> Group:
    """A Sylow p-subgroup, grown through normalizers: a p-subgroup that is
    not yet Sylow has p-elements in its normalizer outside itself.

    The seed is the first element of G, in element-list order, whose order
    p divides, and each new generator is the p-part of the first such
    element of the normalizer, in its sorted order, whose p-part lies
    outside.  In a group large enough for the store, the orders of the
    normalizer's elements are computed together, so those of order prime
    to p cost no permutation work."""
    target = p_part(G.order(), {p})
    if target == 1:
        return Group(G.degree, [])
    for seed in G.element_list():
        n = seed.order()
        if n % p == 0:
            break
    gens = [_p_element_part(seed, n, p)]
    els = mulclose(gens)
    while len(els) < target:
        P = Group.from_element_set(G.degree, els)
        N = normalizer(G, P)
        for y, n in _with_orders(G, N.element_list()):
            if n % p:
                continue
            yp = _p_element_part(y, n, p)
            if yp not in els:
                gens.append(yp)
                els = mulclose(gens)
                break
        else:
            raise AssertionError("sylow growth stalled below the p-part")
    return Group.from_element_set(G.degree, els)


def is_p_group(H: Group, p: int) -> bool:
    return set(factorize(H.order())) <= {p}


def omega1(P: Group, p: int) -> Group:
    """Subgroup of a p-group generated by its elements of order p."""
    if not is_p_group(P, p):
        raise NotPGroup(f"group of order {P.order()} is not a {p}-group")
    gens = [x for x in P.element_list() if x.order() == p]
    if not gens:
        return Group(P.degree, [])
    return Group.from_element_set(P.degree, mulclose(gens))


def subgroups_of_p_group(P: Group, p: int) -> list[Group]:
    """All subgroups of a p-group, built layer by layer: each subgroup of
    order p^(k+1) is a union of p cosets of a maximal subgroup."""
    if not is_p_group(P, p):
        raise NotPGroup(f"group of order {P.order()} is not a {p}-group")
    pset = P.element_set()
    abelian = is_abelian(P)
    ppow = {x: x**p for x in pset}
    trivial = frozenset([P.identity()])
    layers: list[set[frozenset[Perm]]] = [{trivial}]
    out: list[frozenset[Perm]] = [trivial]
    while layers[-1]:
        nxt: set[frozenset[Perm]] = set()
        for a in layers[-1]:
            # any x inside an extension of a already built generates that
            # same extension, so track the union of extensions found so far
            covered: set[Perm] = set(a)
            for x in pset:
                if x in covered:
                    continue
                # x must normalize a and have x^p in a to extend by index p
                if ppow[x] not in a:
                    continue
                if not abelian:
                    xinv = x.inv()
                    if any(x * g * xinv not in a for g in a):
                        continue
                b = set(a)
                cur = x
                for _ in range(p - 1):
                    b.update(g * cur for g in a)
                    cur = cur * x
                covered |= b
                nxt.add(frozenset(b))
        layers.append(nxt)
        out.extend(sorted(nxt, key=lambda s: sorted(s)))
    return [Group.from_element_set(P.degree, s) for s in out]


# -- derived structure and predicates ----------------------------------


def _commutator(G: Group, H: Group) -> Group:
    """[G, H] for H normal in G: the normal closure in G of the commutators
    of generators."""
    comms = []
    for a in G.generators:
        for b in H.generators:
            c = a * b * a.inv() * b.inv()
            if not c.is_identity():
                comms.append(c)
    nc = normal_closure(G, comms)
    assert nc is not None
    return nc


def derived_subgroup(G: Group) -> Group:
    return _commutator(G, G)


def is_abelian(G: Group) -> bool:
    gens = G.generators
    return all(a * b == b * a for a in gens for b in gens)


def _descending_series(G: Group, step) -> list[Group]:
    """G, step(G), step(step(G)), ... until a term is trivial or repeats."""
    series = [G]
    while True:
        nxt = step(series[-1])
        if nxt.order() == series[-1].order():
            break
        series.append(nxt)
        if nxt.is_trivial():
            break
    return series


def derived_series(G: Group) -> list[Group]:
    return _descending_series(G, derived_subgroup)


def is_solvable(G: Group) -> bool:
    return derived_series(G)[-1].is_trivial()


def is_perfect(G: Group) -> bool:
    return not G.is_trivial() and derived_subgroup(G).order() == G.order()


def lower_central_series(G: Group) -> list[Group]:
    return _descending_series(G, lambda H: _commutator(G, H))


def is_nilpotent(G: Group) -> bool:
    return lower_central_series(G)[-1].is_trivial()


def predicates(G: Group) -> dict[str, bool]:
    return {
        "abelian": is_abelian(G),
        "solvable": is_solvable(G),
        "nilpotent": is_nilpotent(G),
        "perfect": is_perfect(G),
    }


def is_normal(G: Group, H: Group) -> bool:
    hset = H.element_set()
    for g in G.generators:
        ginv = g.inv()
        if any(g * h * ginv not in hset for h in H.generators):
            return False
    return True


def minimal_normal_subgroups(G: Group) -> list[Group]:
    """Inclusion-minimal nontrivial normal closures of single elements.

    Every minimal normal subgroup is the closure of each of its nontrivial
    elements, so scanning class representatives is exhaustive.
    """
    if G.is_trivial():
        return []
    seen_cls: set[Perm] = {G.identity()}
    candidates: dict[frozenset[Perm], Group] = {}
    half_cap = G.order() // 2
    for x in G.element_list():
        if x in seen_cls:
            continue
        seen_cls |= conjugacy_class(G, x)
        nc = normal_closure(G, [x], cap=half_cap)
        if nc is None:
            continue  # closure is all of G (order > |G|/2 must be |G|)
        candidates.setdefault(nc.element_set(), nc)
    if not candidates:
        return [G]  # simple group: the only nontrivial normal subgroup is G
    keys = list(candidates)
    minimal = [
        k for k in keys if not any(other < k for other in keys)
    ]
    return [candidates[k] for k in sorted(minimal, key=sorted)]


def is_simple(G: Group) -> bool:
    if G.order() <= 1:
        return False
    mns = minimal_normal_subgroups(G)
    return len(mns) == 1 and mns[0].order() == G.order()


# -- chief factors ------------------------------------------------------

FACTOR_CAP = 20_000


@dataclass
class ChiefFactor:
    """An elementary abelian G-chief factor H/N of order prime^rank, with a
    basis of coset representatives and a coset -> coordinate lookup."""

    lower: Group
    upper: Group
    prime: int
    rank: int
    basis: list[Perm]
    _coords: dict[Perm, tuple[int, ...]] = dc_field(repr=False, default_factory=dict)

    def order(self) -> int:
        return self.prime**self.rank

    def coset_key(self, h: Perm) -> Perm:
        return min(h * n for n in self.lower.element_list())

    def coords(self, h: Perm) -> tuple[int, ...]:
        c = self._coords.get(self.coset_key(h))
        if c is None:
            raise NonSubgroup("element does not lie in the factor's upper group")
        return c


def _build_chief_factor(G_degree: int, lower: Group, upper: Group) -> ChiefFactor:
    n = upper.order() // lower.order()
    fac = factorize(n)
    if len(fac) != 1:
        raise AssertionError(f"chief factor of non-prime-power order {n}")
    ((r, d),) = fac.items()
    if n > FACTOR_CAP:
        raise TooLarge(f"factor order {n} exceeds coordinateization cap {FACTOR_CAP}")
    nlist = lower.element_list()

    def key(h: Perm) -> Perm:
        return min(h * x for x in nlist)

    zero = key(identity(G_degree))
    coords: dict[Perm, tuple[int, ...]] = {zero: ()}
    basis: list[Perm] = []
    for h in upper.element_list():
        if len(coords) == n:
            break
        k = key(h)
        if k in coords:
            continue
        # extend every known coset by powers of the new basis rep
        new_coords: dict[Perm, tuple[int, ...]] = {}
        for rep_key, c in coords.items():
            cur = rep_key
            for j in range(r):
                new_coords[key(cur)] = c + (j,)
                cur = cur * h
        basis.append(h)
        coords = new_coords
    if len(coords) != n:
        raise AssertionError("factor coordinateization incomplete")
    coords = {k: tuple(c) + (0,) * (d - len(c)) for k, c in coords.items()}
    nset = lower.element_set()
    for i, a in enumerate(basis):
        if a**r not in nset:
            raise AssertionError("basis rep power escapes the lower term")
        for b in basis[i + 1 :]:
            if a * b * a.inv() * b.inv() not in nset:
                raise AssertionError("chief factor is not abelian")
    return ChiefFactor(lower=lower, upper=upper, prime=r, rank=d, basis=basis, _coords=coords)


def chief_series_within(G: Group, R: Group) -> list[ChiefFactor]:
    """Ascending G-chief series 1 = R_0 < ... < R_t = R, each step adjoining a
    minimal normal subgroup of G/R_i inside R/R_i.

    Minimal normal subgroups of the quotient are the images of the normal
    closures <x, R_i>^G for x in R, so the scan runs directly in G instead
    of materializing large coset actions.
    """
    if not is_normal(G, R):
        raise NotNormal("R is not normal in G")
    factors: list[ChiefFactor] = []
    current = Group(G.degree, [])
    while current.order() < R.order():
        candidates: dict[frozenset[Perm], Group] = {}
        seen: set[Perm] = set(current.element_list())
        for x in R.element_list():
            if x in seen:
                continue
            seen |= conjugacy_class(G, x)
            nc = normal_closure(G, [x] + list(current.generators))
            assert nc is not None
            candidates.setdefault(nc.element_set(), nc)
        keys = [k for k in candidates if not any(o < k for o in candidates)]
        chosen = min(keys, key=lambda k: (len(k), sorted(k)))
        upper = candidates[chosen]
        factors.append(_build_chief_factor(G.degree, current, upper))
        current = upper
    return factors


def factor_action(G: Group, X: ChiefFactor, g: Perm) -> tuple[np.ndarray, int, int]:
    """Matrix of conjugation by g on X in the stored basis, plus its trace
    in GF(r) and lifted to the symmetric residue range."""
    r = X.prime
    cols = []
    ginv = g.inv()
    for b in X.basis:
        cols.append(X.coords(g * b * ginv))
    mat = np.array(cols, dtype=np.int64).T % r
    tr = int(mat.trace()) % r
    tr_sym = tr - r if tr > r // 2 else tr
    return mat, tr, tr_sym


def fixed_space_dim(mats: Sequence[np.ndarray], r: int) -> int:
    """Dimension of the common fixed space of matrices over GF(r):
    nullity of the stacked (M - I) blocks, by Gaussian elimination."""
    if not mats:
        raise ValueError("need at least one matrix")
    d = mats[0].shape[0]
    rows = []
    for m in mats:
        rows.extend(((m - np.eye(d, dtype=np.int64)) % r).tolist())
    rank = 0
    rows = [row[:] for row in rows]
    for col in range(d):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col] % r), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col] % r, -1, r)
        rows[rank] = [v * inv % r for v in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col] % r:
                f = rows[i][col] % r
                rows[i] = [(v - f * w) % r for v, w in zip(rows[i], rows[rank])]
        rank += 1
    return d - rank

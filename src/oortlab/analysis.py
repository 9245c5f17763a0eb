"""Structural subgroup computations: centralizers, normalizers, Sylow
subgroups, O_pi, derived/chief structure, chief-factor linear algebra.

Centralizers and normalizers filter the exhaustive element store (all
ambient groups here fit under ENUM_CAP).  The store (image rows, base-image
keys, ids) and the lazily derived generators of each subgroup all live in
:class:`~oortlab.perm.Group`.  The three filters on the criterion's path
read G's base columns only: ``centralizer`` compares g(h(b)) with h(g(b)),
``normalizer`` forms g h g^-1 at the base and looks its key up among H's
keys, and ``sylow`` reads element orders from the base columns and grows
P as ids.  Their results are cut from G's store by id, so on a G of order
at least KEYED_MIN_ORDER none of them builds G's ``Perm`` list.  Orders
decide before any scan where they can: ``sylow`` returns G when |G| is a
power of p and grows each other Sylow subgroup once per (G, p), kept on G;
``normalizer`` returns G for a trivial H or one as large as G.

Conjugacy classes are read off G's class labels (``Group.class_labels``).
``o_pi`` and the one minimal-normal scan behind ``minimal_normal_subgroups``
and ``chief_series_within`` build unions of classes, masks over G's ids
closed under products by :func:`_close`; ``o_pi`` reads its class
representatives' orders from G's store, and the scan orders its masks by
the ranks of their ids in G's sorted rows, so none of them lists G.
``normal_closure`` grows one stabilizer chain and never lists G either.
:func:`id_orbit` walks the orbit of a subgroup held as sorted ids under
G's conjugation tables, and ``subgroups_of_p_group`` lists the subgroups
of a cyclic P from its element orders, one per order, and builds the
subgroup lattice of any other P over P's multiplication table of ids;
each subgroup keeps the generators it was built from.  A chief factor is
held on G's ids as well: its basis is ids, its coordinates are keyed by
its coset heads (``perm.coset_heads``), and conjugation on it reads the
conjugates' ids from G's store.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field as dc_field
from typing import Iterable, Optional, Sequence

import numpy as np

from . import perm
from .errors import CapExceeded, NonMember, NonSubgroup, NotNormal, NotPGroup, TooLarge
from .gf import factorize
from .perm import (
    Group,
    Perm,
    StabilizerChain,
    coset_heads,
    enum_cap,
    mulclose,
    sorting_order,
)


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
    return G.subgroup_of_ids(np.flatnonzero(mask))


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
    if H.is_trivial() or H.order() == G.order():
        return G
    S = G.store()
    hkeys = np.sort(S.keys_of(H))
    h_of_ginv_b = hs[:, S.inverse_base()]  # [h, g, b] -> h(g^-1(b))
    keys = S.key(S.E[np.arange(len(S.E))[:, None], h_of_ginv_b])  # of g h g^-1
    found = hkeys[np.searchsorted(hkeys, keys).clip(max=len(hkeys) - 1)] == keys
    return _filtered(G, found.all(axis=0))


# -- closures and conjugacy --------------------------------------------


def conjugacy_class(G: Group, x: Perm) -> set[Perm]:
    """The class of x in G: the elements whose class label (see
    ``Group.class_labels``) is x's.  Raises NonMember if x is not in G."""
    i = G.store().id_of(x)
    if i is None:
        raise NonMember(f"{Perm(x).cycle_str()} not in group")
    labels = G.class_labels()
    els = G.element_list()
    label = labels[i]
    return {els[i] for i in np.flatnonzero(labels == label).tolist()}


def _class_reps(G: Group) -> np.ndarray:
    """The ids of the first element of each conjugacy class, in
    element-list order: the ids that are their class's least id."""
    labels = G.class_labels()
    return np.flatnonzero(labels == np.arange(len(labels)))


def id_orbit(ids: np.ndarray, tables: Sequence[np.ndarray]) -> set[bytes]:
    """The orbit of a subgroup, held as a sorted id array, under
    conjugation by the generators whose tables are given, as the bytes of
    each sorted id array in it.  The walk is breadth-first, and a
    frontier's rows are conjugated together, ``np.sort(t[rows], axis=1)``."""
    ids = np.asarray(ids)
    seen = {ids.tobytes()}
    frontier = ids[None]
    width = ids.nbytes
    while len(frontier) and tables:
        images = np.sort(np.concatenate([t[frontier] for t in tables]), axis=1)
        raw = images.tobytes()
        new = []
        for j in range(len(images)):
            key = raw[j * width : (j + 1) * width]
            if key not in seen:
                seen.add(key)
                new.append(j)
        frontier = images[new]
    return seen


def _close(G: Group, ids, below, reps, cap: Optional[int] = None) -> Optional[np.ndarray]:
    """The normal subgroup of G generated by the normal subgroup ``below``
    and the classes of ``ids``, as a mask over G's ids; None past cap
    elements.  A union A of classes is closed under products once A c lies
    in A for one c per class inside (``reps``), as A c^g = g(g^-1 A g)c g^-1.
    A round multiplies what the last one added by those c and adds the
    products' classes; a c with a older than c's class is conjugate to c a,
    which a round covers (Holt, Eick & O'Brien, *Handbook of Computational
    Group Theory*, 2005).  The classes met so far are marked in an array
    indexed by class label."""
    S, labels = G.store(), G.class_labels()
    hit = np.zeros(len(labels), dtype=bool)  # hit[c]: class c is in the closure
    hit[labels[ids]] = True
    new = hit[labels] & ~below
    mask = below | new
    while new.any():
        if cap is not None and np.count_nonzero(mask) > cap:
            return None
        hit[labels[S.mul(np.flatnonzero(new)[:, None], reps[mask[reps]])]] = True
        grown = mask | hit[labels]
        new, mask = grown & ~mask, grown
    return mask


def normal_closure(G: Group, gens: Sequence[Perm], cap: Optional[int] = None) -> Optional[Group]:
    """<gens^G>, grown over one stabilizer chain so that G, which may be
    past ENUM_CAP, is never listed: each conjugate of a generator by one of
    G's that the closure so far lacks becomes a generator, and extends the
    chain, which thus is the chain of those generators.  Returns None once
    the closure exceeds cap elements; without a cap, raises CapExceeded
    past ENUM_CAP, like :func:`mulclose`.  Raises NonMember for a generator
    outside G."""
    work = [g for g in map(Perm, gens) if not g.is_identity()]
    if not all(map(G.contains, work)):
        raise NonMember("a generator of the normal closure is not in the group")
    if not work:
        return Group(G.degree, [])
    pairs = [(g, g.inv()) for g in G.generators]
    chain, found = StabilizerChain(G.degree, []), []
    for w in work:  # grows as conjugates are queued
        if chain.contains(w):
            continue
        chain.extend(w)
        found.append(w)
        if cap is not None and chain.order() > cap:
            return None
        if cap is None and chain.order() > enum_cap():
            raise CapExceeded(f"normal closure exceeds ENUM_CAP {enum_cap()}")
        work.extend(g * w * g_inv for g, g_inv in pairs)
    return Group.from_chain(chain, found)


def p_part(n: int, primes: Iterable[int]) -> int:
    out = 1
    for p, e in factorize(n).items():
        if p in primes:
            out *= p**e
    return out


def o_pi(G: Group, pi: Iterable[int]) -> Group:
    """O_pi(G), the largest normal pi-subgroup: the join of the normal
    closures that are pi-groups, so G itself when |G| is a pi-number and 1
    when it is a pi'-number.  Else each class of pi-elements outside the
    core (one id each, :func:`_class_reps`, its order read from G's store)
    joins it when the closure of the two (:func:`_close`, capped at the
    pi-part of |G|) is a pi-group."""
    pi = frozenset(pi)
    cap = p_part(G.order(), pi)
    if cap == G.order():
        return G
    if cap == 1:
        return Group(G.degree, [])
    core, reps = np.arange(G.order()) == 0, _class_reps(G)
    for x, n in zip(reps.tolist(), G.store().orders(reps).tolist()):
        if np.count_nonzero(core) == cap:
            break
        if core[x] or any(p not in pi for p in factorize(n)):
            continue
        joined = _close(G, [x], core, reps, cap)
        if joined is not None and all(p in pi for p in factorize(np.count_nonzero(joined))):
            core = joined
    return _filtered(G, core)


def o_p_prime(G: Group, p: int) -> Group:
    """O_{p'}(G); for p = 2 this is O(G)."""
    return o_pi(G, {q for q in factorize(G.order())} - {p})


# -- Sylow machinery ---------------------------------------------------


def _p_element_part(x: Perm, n: int, p: int) -> Perm:
    """The p-part of x, whose order is n."""
    return x ** (n // p_part(n, {p}))


def _extended(S, inside: np.ndarray, y: int, n: int) -> np.ndarray:
    """<K, y> for a subgroup K of the store's group, held as a mask over
    its ids, and an id y of order n normalizing K: the union of the cosets
    K y^k, up to the first power of y inside K."""
    row, at = S.E[y], [S.base]
    for _ in range(n - 1):
        at.append(row[at[-1]])  # the base images of y^k
    powers = S.lookup(S.key(np.array(at)))
    back = np.flatnonzero(inside[powers[1:]])
    k = back[0] + 1 if len(back) else n
    out = np.zeros_like(inside)
    out[S.mul(np.flatnonzero(inside)[:, None], powers[:k])] = True
    return out


def _p_parts(S, ids: np.ndarray, orders: np.ndarray, p: int) -> np.ndarray:
    """Ids of the p-parts of the elements with the given ids and orders:
    each to the power of the p'-part of its order, by repeated squaring.
    The p'-part is computed once per distinct order."""
    distinct, which = np.unique(orders, return_inverse=True)
    exps = np.array([n // p_part(n, {p}) for n in distinct.tolist()], dtype=np.int64)[which]
    out, base = np.zeros_like(ids), ids.copy()
    while exps.any():
        odd = (exps & 1).astype(bool)
        out[odd] = S.mul(out[odd], base[odd])
        exps >>= 1
        live = exps > 0
        base[live] = S.mul(base[live], base[live])
    return out


def sylow(G: Group, p: int) -> Group:
    """A Sylow p-subgroup: G itself when |G| is a power of p, else grown
    through normalizers (a p-subgroup that is not yet Sylow has p-elements
    in its normalizer outside itself) once per (G, p) and kept in G's
    ``_sylows``, so both verdict routes read the same P.

    The seed is the first element of G, in element-list order, whose order
    p divides, and each new generator is the p-part of the first such
    element of the normalizer, in its sorted order, whose p-part lies
    outside.  The result keeps those generators.  A G of order at least
    ``perm.KEYED_MIN_ORDER`` is read from its store
    (:func:`_sylow_by_ids`); a smaller G runs the same steps on its element
    list and :func:`mulclose`, which costs less there
    (:func:`_sylow_by_perms`)."""
    target = p_part(G.order(), {p})
    if target == G.order():
        return G
    if p not in G._sylows:
        if target == 1:
            P = Group(G.degree, [])
        elif G.order() < perm.KEYED_MIN_ORDER:
            P = _sylow_by_perms(G, p, target)
        else:
            P = _sylow_by_ids(G, p, target)
        G._sylows[p] = P
    return G._sylows[p]


def _sylow_by_ids(G: Group, p: int, target: int) -> Group:
    """:func:`sylow` on G's store: orders from the base columns, p-parts as
    ids, P grown by the cosets of each new generator's powers
    (:func:`_extended`) and cut from G by id, so no element of G becomes a
    permutation but the generators."""
    S = G.store()
    start, stop = 0, min(8, G.order())  # the seed is usually among the first ids: the generators
    while True:
        orders = S.orders(np.arange(start, stop))
        hits = np.flatnonzero(orders % p == 0)
        if len(hits):
            break
        start, stop = stop, min(8 * stop, G.order())
    n = p_part(int(orders[hits[0]]), {p})
    y = int(_p_parts(S, start + hits[:1], orders[hits[:1]], p)[0])
    inside = _extended(S, np.arange(G.order()) == 0, y, n)
    P = G.subgroup_of_ids(np.flatnonzero(inside), [S.perm(y)])
    while P.order() < target:
        N = normalizer(G, P)
        ys = S.lookup(S.keys_of(N))  # in N's sorted order
        orders = S.orders(ys)
        cand = np.flatnonzero(orders % p == 0)
        parts = _p_parts(S, ys[cand], orders[cand], p)
        fresh = np.flatnonzero(~inside[parts])
        if not len(fresh):
            raise AssertionError("sylow growth stalled below the p-part")
        y = int(parts[fresh[0]])
        inside = _extended(S, inside, y, p_part(int(orders[cand[fresh[0]]]), {p}))
        P = G.subgroup_of_ids(np.flatnonzero(inside), [*P.generators, S.perm(y)])
    return P


def _sylow_by_perms(G: Group, p: int, target: int) -> Group:
    """:func:`sylow` on G's element list, for G below KEYED_MIN_ORDER."""
    for seed in G.element_list():
        n = seed.order()
        if n % p == 0:
            break
    gens = [_p_element_part(seed, n, p)]
    els = mulclose(gens)
    while len(els) < target:
        P = Group.from_element_set(G.degree, els, gens)
        N = normalizer(G, P)
        for y, n in zip(N.element_list(), N.element_orders()):
            if n % p:
                continue
            yp = _p_element_part(y, n, p)
            if yp not in els:
                gens.append(yp)
                els = mulclose(gens)
                break
        else:
            raise AssertionError("sylow growth stalled below the p-part")
    return Group.from_element_set(G.degree, els, gens)


def is_p_group(H: Group, p: int) -> bool:
    return set(factorize(H.order())) <= {p}


def subgroups_of_p_group(P: Group, p: int) -> list[Group]:
    """All subgroups of a p-group, by order and, within an order, in the
    order of their sorted element lists.  A cyclic P (one with an element
    of order |P|) has one subgroup of each order k, its elements of order
    dividing k, generated by its first element of order k, and P itself at
    the top; any other P is built layer by layer
    (:func:`_subgroup_layers`)."""
    if not is_p_group(P, p):
        raise NotPGroup(f"group of order {P.order()} is not a {p}-group")
    S, n = P.store(), P.order()
    orders = S.orders(np.arange(n))
    if not (orders == n).any():
        return _subgroup_layers(P, p)
    out, k = [], 1
    while k < n:  # the orders are powers of p: one divides k when it is at most k
        gens = [S.perm(np.argmax(orders == k))] if k > 1 else []
        out.append(P.subgroup_of_ids(np.flatnonzero(orders <= k), gens))
        k *= p
    return out + [P]


def _subgroup_layers(P: Group, p: int) -> list[Group]:
    """All subgroups of a p-group P, built layer by layer: each subgroup of
    order p^(k+1) is the union of the cosets a x^j (0 <= j < p) of a
    subgroup a of order p^k, for an x outside a that normalizes it and has
    x^p in a.  The elements are numbered in sorted order and the layers are
    built over P's multiplication table of those numbers, one layer's
    subgroups together as the rows of an array, so each layer is listed in
    the order of its subgroups' sorted element lists."""
    S = P.store()
    srt = sorting_order(S.E)  # number i is the id srt[i]
    n = len(srt)
    number = np.empty(n, dtype=np.intp)
    number[srt] = np.arange(n)
    mul = number[S.mul(srt[:, None], srt)]  # mul[x, y]: the number of x y
    inv = (mul == 0).argmax(axis=1)  # 0 is the identity, the least permutation
    conj = mul[mul, inv[:, None]]  # conj[x, g]: the number of x g x^-1
    xp = np.arange(n)
    for _ in range(p - 1):
        xp = mul[xp, np.arange(n)]
    layer = np.zeros((1, 1), dtype=np.intp)
    gens: dict[tuple[int, ...], tuple[int, ...]] = {(0,): ()}  # numbers generating each subgroup
    out = [layer]
    while len(layer):
        rows = np.arange(len(layer))[:, None]
        inside = np.zeros((len(layer), n), dtype=bool)
        inside[rows, layer] = True
        normalizes = inside[rows[:, :, None], conj[:, layer].transpose(1, 0, 2)].all(axis=2)
        extends = ~inside & inside[rows, xp] & normalizes
        nxt: dict[tuple[int, ...], tuple[int, ...]] = {}
        # any x inside an extension of a already built generates that same
        # extension, so skip the union of a's extensions found so far
        for i, x in zip(*np.nonzero(extends)):
            if inside[i, x]:
                continue
            powers = [0]
            for _ in range(p - 1):
                powers.append(mul[powers[-1], x])
            b = np.sort(mul[layer[i][:, None], powers], axis=None)
            inside[i, b] = True
            nxt.setdefault(tuple(b.tolist()), (*gens[tuple(layer[i].tolist())], int(x)))
        gens.update(nxt)
        layer = np.array(sorted(nxt), dtype=np.intp).reshape(len(nxt), p * layer.shape[1])
        out.append(layer)
    rows = S.E[srt].tolist()
    return [
        P.subgroup_of_ids(srt[a], [Perm(rows[x]) for x in gens[tuple(a.tolist())]])
        for layer in out
        for a in layer
    ]


# -- derived structure and predicates ----------------------------------


def _commutator(G: Group, H: Group) -> Group:
    """[G, H] for H normal in G: the normal closure in G of the commutators
    of generators."""
    comms = []
    h_pairs = [(b, b.inv()) for b in H.generators]
    for a in G.generators:
        a_inv = a.inv()
        for b, b_inv in h_pairs:
            c = a * b * a_inv * b_inv
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


def _minimal_normal_above(G: Group, below, inside, cap: Optional[int] = None) -> list[np.ndarray]:
    """The minimal normal subgroups of G above ``below`` and inside
    ``inside`` (normal, as masks over G's ids), as masks sorted by element
    list.  Each is the closure (:func:`_close`) of ``below`` and any one
    class in it outside ``below``; closures past the cap are dropped.  Two
    or more are sorted by the sorted ranks of their ids in G's sorted row
    order (:func:`sorting_order`), which is the order of their sorted
    element lists."""
    reps = _class_reps(G)
    closures = [_close(G, [x], below, reps, cap) for x in reps[inside[reps] & ~below[reps]]]
    masks = list({m.tobytes(): m for m in closures if m is not None}.values())
    minimal = [m for m in masks if not any(o is not m and not (o & ~m).any() for o in masks)]
    if len(minimal) < 2:
        return minimal
    rank = np.empty(G.order(), dtype=np.intp)
    rank[sorting_order(G.store().E)] = np.arange(G.order())
    return sorted(minimal, key=lambda m: np.sort(rank[m]).tolist())


def minimal_normal_subgroups(G: Group) -> list[Group]:
    """The inclusion-minimal nontrivial normal subgroups of G, sorted by
    element list: the minimal normal closures of single classes, each
    capped at |G|/2, since a subgroup of more than half of G is G."""
    if G.is_trivial():
        return []
    one = np.arange(G.order()) == 0
    return [_filtered(G, m) for m in _minimal_normal_above(G, one, ~one, G.order() // 2)] or [G]


def is_simple(G: Group) -> bool:
    if G.order() <= 1:
        return False
    mns = minimal_normal_subgroups(G)
    return len(mns) == 1 and mns[0].order() == G.order()


# -- chief factors ------------------------------------------------------

FACTOR_CAP = 20_000


@dataclass
class ChiefFactor:
    """An elementary abelian G-chief factor H/N of order prime^rank, held on
    G's ids: ``head`` is the coset head (:func:`~oortlab.perm.coset_heads`)
    of every id of G modulo N, ``basis`` the ids of coset representatives
    of a basis, and ``coords`` the coordinates of each coset of N in H,
    keyed by its head."""

    lower: Group
    upper: Group
    prime: int
    rank: int
    basis: np.ndarray
    head: np.ndarray = dc_field(repr=False)
    coords: dict[int, tuple[int, ...]] = dc_field(repr=False)

    def order(self) -> int:
        return self.prime**self.rank


def _build_chief_factor(
    G: Group, lower: Group, lower_gens: Sequence[int], upper: Group, inside: np.ndarray
) -> ChiefFactor:
    """The factor upper/lower, upper given also as a mask over G's ids and
    lower also by the ids of generators.  Each new basis vector b is the
    first id of upper, in id order, whose coset has no coordinates yet; the
    cosets known so far times b^j get their coordinates extended by j, for
    j < prime, and times b^prime must come back to themselves (b^prime lies
    in lower)."""
    n = upper.order() // lower.order()
    fac = factorize(n)
    if len(fac) != 1:
        raise AssertionError(f"chief factor of non-prime-power order {n}")
    ((r, d),) = fac.items()
    if n > FACTOR_CAP:
        raise TooLarge(f"factor order {n} exceeds coordinateization cap {FACTOR_CAP}")
    S, head = G.store(), coset_heads(G, lower_gens)
    heads, coords, basis = np.zeros(1, dtype=np.intp), [()], []
    known = np.zeros(len(head), dtype=bool)  # known[h]: the coset with head h has coordinates
    while True:
        known[heads] = True
        fresh = np.flatnonzero(inside & ~known[head])
        if not len(fresh):
            break
        cur, steps = heads, [heads]
        for _ in range(r):
            cur = S.mul(cur, fresh[:1])
            steps.append(head[cur])
        if not np.array_equal(steps.pop(), heads):
            raise AssertionError("basis rep power escapes the lower term")
        heads = np.concatenate(steps)
        coords = [c + (j,) for j in range(r) for c in coords]
        basis.append(fresh[0])
    if len(heads) != n:
        raise AssertionError("factor coordinateization incomplete")
    basis = np.array(basis)
    ab = S.mul(basis[:, None], basis)
    if not np.array_equal(head[ab], head[ab.T]):
        raise AssertionError("chief factor is not abelian")
    return ChiefFactor(lower, upper, r, d, basis, head, dict(zip(heads.tolist(), coords)))


def chief_series_within(G: Group, R: Group) -> list[ChiefFactor]:
    """Ascending G-chief series 1 = R_0 < ... < R_t = R, each step adjoining a
    minimal normal subgroup of G/R_i inside R/R_i: the image of one of G
    above R_i inside R (:func:`_minimal_normal_above`, on G's ids, so no
    coset action is built), the smallest and then the least element list.
    The bases of the factors below R_i generate it, so R_i's cosets are
    numbered from their ids.  Raises NonSubgroup when R is not inside G,
    NotNormal when not normal.
    """
    if not all(map(G.contains, R.generators)):
        raise NonSubgroup("R is not a subgroup of G")
    if R.is_trivial():
        return []
    inside = np.zeros(G.order(), dtype=bool)
    S = G.store()
    inside[S.lookup(S.keys_of(R))] = True
    if not np.array_equal(inside[G.class_labels()], inside):
        raise NotNormal("R is not normal in G")
    factors, lower, below = [], Group(G.degree, []), np.arange(G.order()) == 0
    while lower.order() < R.order():
        below = min(_minimal_normal_above(G, below, inside), key=np.count_nonzero)
        upper = _filtered(G, below)
        factors.append(_build_chief_factor(G, lower, [b for X in factors for b in X.basis], upper, below))
        lower = upper
    return factors


def factor_action(G: Group, X: ChiefFactor, g: Perm) -> tuple[np.ndarray, int, int]:
    """Matrix of conjugation by g on X in the stored basis, plus its trace
    in GF(r) and lifted to the symmetric residue range.  The ids of the
    g b g^-1 come from G's store (``ElementStore.conjugation_table``) and
    are read by their coset heads.  Raises NonMember if g is not in G
    (``ElementStore.id_of``)."""
    if G.store().id_of(g) is None:
        raise NonMember(f"{Perm(g).cycle_str()} not in group")
    r = X.prime
    conj = G.store().conjugation_table(g, X.basis)
    mat = np.array([X.coords[h] for h in X.head[conj].tolist()], dtype=np.int64).T % r
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

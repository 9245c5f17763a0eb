"""Permutations and finitely generated permutation groups.

Points are 0-based.  The composition convention is (a * b)(x) = a(b(x)):
``a * b`` applies ``b`` first.

:class:`Group` owns its element store: the deterministic stabilizer chain
(base points chosen as the lowest moved point) for order and membership,
the exhaustive element list and set for desk-scale groups, the numpy
image/inverse tables built from that list, and a small generating set for
conjugation sweeps.  Each is filled on first use.  A group built from its
element set computes its generators and chain only when they are read.

:func:`mulclose` is the one closure routine and :func:`orbit` the one
orbit routine.

Every product goes through ``Perm.__mul__``, one ``itemgetter`` call.
The identity of each degree is one shared object, so ``is_identity`` is a
single tuple comparison.  :class:`StabilizerChain` is incremental: each
level stores the inverse of every transversal representative beside it,
adding a generator only extends the transversal, and only the Schreier
generators of the new (point, generator) pairs are sifted.
"""

from __future__ import annotations

import itertools
import math
import os
from functools import lru_cache
from operator import itemgetter
from typing import Callable, Hashable, Iterable, Iterator, Optional, Sequence

import numpy as np

from .errors import CapExceeded, DegreeMismatch, NonMember

DEFAULT_ENUM_CAP = 250_000


def enum_cap() -> int:
    """Current element-enumeration cap (env var OORTLAB_ENUM_CAP overrides)."""
    raw = os.environ.get("OORTLAB_ENUM_CAP")
    if raw is None:
        return DEFAULT_ENUM_CAP
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"OORTLAB_ENUM_CAP must be an integer, got {raw!r}") from None


class Perm(tuple):
    """A permutation of {0..n-1} stored as its image table.

    Subclasses tuple, so perms hash and compare for free and live happily
    in sets.  Construction does not re-validate bijectivity; use
    :func:`make_perm` for untrusted input.
    """

    __slots__ = ()

    @property
    def degree(self) -> int:
        return len(self)

    def __mul__(self, other):  # type: ignore[override]
        if len(self) != len(other):
            raise DegreeMismatch(f"degree {len(self)} vs {len(other)}")
        if len(self) < 2:  # the identity; itemgetter needs two indices for a tuple
            return self
        return Perm(itemgetter(*other)(self))

    def inv(self) -> "Perm":
        img = [0] * len(self)
        for i, j in enumerate(self):
            img[j] = i
        return Perm(img)

    def __pow__(self, n: int):  # type: ignore[override]
        if n < 0:
            return self.inv() ** (-n)
        result = identity(len(self))
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def is_identity(self) -> bool:
        return self == identity(len(self))

    def cycles(self) -> list[tuple[int, ...]]:
        """Nontrivial cycles, each starting at its least point."""
        seen = [False] * len(self)
        out = []
        for i in range(len(self)):
            if seen[i] or self[i] == i:
                seen[i] = True
                continue
            cyc = [i]
            seen[i] = True
            j = self[i]
            while j != i:
                cyc.append(j)
                seen[j] = True
                j = self[j]
            out.append(tuple(cyc))
        return out

    def order(self) -> int:
        return math.lcm(1, *(len(c) for c in self.cycles()))

    def cycle_str(self) -> str:
        cycs = self.cycles()
        if not cycs:
            return "()"
        return "".join("(" + " ".join(map(str, c)) + ")" for c in cycs)


@lru_cache(maxsize=None)
def identity(degree: int) -> Perm:
    """The identity of the given degree, one shared object per degree."""
    return Perm(range(degree))


def make_perm(images: Sequence[int]) -> Perm:
    """Validating constructor: images must be a bijection of {0..n-1}."""
    images = tuple(images)
    if sorted(images) != list(range(len(images))):
        raise ValueError(f"not a permutation of 0..{len(images) - 1}: {images}")
    return Perm(images)


def perm_from_cycles(degree: int, cycles: Iterable[Sequence[int]]) -> Perm:
    img = list(range(degree))
    for cyc in cycles:
        for a, b in zip(cyc, tuple(cyc[1:]) + (cyc[0],)):
            if not (0 <= a < degree):
                raise ValueError(f"point {a} out of range for degree {degree}")
            img[a] = b
    return make_perm(img)


def mulclose(gens: Iterable[Perm], cap: Optional[int] = None) -> Optional[dict[Perm, None]]:
    """Closure of gens under composition (a subgroup, since everything is
    finite), in breadth-first order from the identity.  The result is an
    insertion-ordered dict used as an ordered set.  Returns None if the
    closure grows past ``cap``; without a cap, raises CapExceeded once it
    grows past ENUM_CAP."""
    gens = list(gens)
    if not gens:
        raise ValueError("need at least one generator")
    limit = enum_cap() if cap is None else cap
    one = identity(len(gens[0]))
    els = {one: None}
    frontier = [one]
    while frontier:
        new = []
        for b in frontier:
            for a in gens:
                c = a * b
                if c not in els:
                    els[c] = None
                    new.append(c)
                    if len(els) > limit:
                        if cap is None:
                            raise CapExceeded(f"closure exceeds ENUM_CAP {limit}")
                        return None
        frontier = new
    return els


def orbit(
    seed: Hashable, gens: Sequence[Perm], act: Callable[[Perm, Hashable], Hashable]
) -> Iterator[Hashable]:
    """Yield the orbit of seed under the group generated by gens, each
    point once, breadth-first from seed; ``act(g, x)`` is the image of x
    under g.  Lazy, so a caller may stop at the first point it wants."""
    seen = {seed}
    frontier = [seed]
    yield seed
    while frontier:
        new = []
        for x in frontier:
            for g in gens:
                y = act(g, x)
                if y not in seen:
                    seen.add(y)
                    new.append(y)
                    yield y
        frontier = new


class _Level:
    __slots__ = ("base", "gens", "transversal", "inverses")

    def __init__(self, base: int, degree: int):
        self.base = base
        self.gens: dict[Perm, Perm] = {}  # generator -> its inverse
        # transversal[pt] maps base to pt; inverses[pt] is its inverse
        self.transversal: dict[int, Perm] = {base: identity(degree)}
        self.inverses: dict[int, Perm] = {base: identity(degree)}


class StabilizerChain:
    """Deterministic incremental Schreier-Sims stabilizer chain.

    Base points are always the lowest point moved by the first generator
    reaching that level, so identical generator lists give identical chains.

    Each level keeps its transversal and the inverse of every
    representative.  Adding a generator only extends the transversal, so
    representatives never change, and only the Schreier generators of new
    (point, generator) pairs are sifted: those of every old point with the
    new generator and of every new point with every generator.  Each
    Schreier generator is sifted once and stays in the next level's group
    (Seress, *Permutation Group Algorithms*, 2003, ch. 4).
    """

    def __init__(self, degree: int, gens: Iterable[Perm]):
        self.degree = degree
        self.levels: list[_Level] = []
        for g in gens:
            self._add(g, 0)

    def order(self) -> int:
        n = 1
        for level in self.levels:
            n *= len(level.transversal)
        return n

    def contains(self, g: Perm) -> bool:
        return self._sift_from(g, 0).is_identity()

    def _add(self, g: Perm, i: int) -> None:
        if g.is_identity():
            return
        if i == len(self.levels):
            base = min(p for p in range(self.degree) if g[p] != p)
            self.levels.append(_Level(base, self.degree))
        level = self.levels[i]
        if g in level.gens:
            return
        g_inv = level.gens[g] = g.inv()
        trans, invs = level.transversal, level.inverses
        # old points need only the new generator; new points need them all
        points = list(trans)
        n_old = len(points)
        for k, pt in enumerate(points):  # grows as the orbit is extended
            rep = trans[pt]
            for s, s_inv in level.gens.items() if k >= n_old else ((g, g_inv),):
                img = s[pt]
                moved = s * rep
                if img not in trans:
                    trans[img] = moved
                    invs[img] = invs[pt] * s_inv
                    points.append(img)
                    continue
                if moved == trans[img]:  # the Schreier generator is trivial
                    continue
                residue = self._sift_from(invs[img] * moved, i + 1)
                if not residue.is_identity():
                    self._add(residue, i + 1)

    def _sift_from(self, g: Perm, i: int) -> Perm:
        """Residue after stripping through levels i, i+1, ...; identity iff
        g lies in the stabilizer subgroup at level i."""
        for level in self.levels[i:]:
            rep_inv = level.inverses.get(g[level.base])
            if rep_inv is None:
                return g
            g = rep_inv * g
        return g


class Group:
    """A permutation group on a fixed point set, given by generators or by
    its element set.

    Immutable once built.  The chain, the element store and the tables
    derived from them are computed lazily but depend only on the
    generator list or the element set, so concurrent readers agree.
    """

    def __init__(self, degree: int, generators: Sequence[Perm], *, check: bool = True):
        self.degree = degree
        gens = []
        seen = set()
        for g in generators:
            g = Perm(g)
            if check and sorted(g) != list(range(degree)):
                raise ValueError(f"generator is not a permutation of degree {degree}: {g}")
            if len(g) != degree:
                raise DegreeMismatch(f"generator degree {len(g)} != {degree}")
            if g.is_identity() or g in seen:
                continue
            seen.add(g)
            gens.append(g)
        # None only for a group built from its element set, until read.
        self._generators: Optional[tuple[Perm, ...]] = tuple(gens)
        self._chain: Optional[StabilizerChain] = None
        self._order: Optional[int] = None if gens else 1  # no generators: trivial
        self._element_list: Optional[list[Perm]] = None
        self._element_set: Optional[frozenset[Perm]] = None
        self._element_arrays: Optional[tuple[np.ndarray, np.ndarray]] = None
        self._small_generators: Optional[tuple[Perm, ...]] = None

    def __repr__(self) -> str:
        return f"Group(degree={self.degree}, ngens={len(self.generators)}, order={self.order()})"

    @property
    def generators(self) -> tuple[Perm, ...]:
        if self._generators is None:
            assert self._element_list is not None
            self._generators = _sift_generators(self.degree, self._element_list)
        return self._generators

    @property
    def chain(self) -> StabilizerChain:
        if self._chain is None:
            self._chain = StabilizerChain(self.degree, self.generators)
        return self._chain

    def order(self) -> int:
        if self._order is None:
            if self._element_set is not None:
                self._order = len(self._element_set)
            else:
                self._order = self.chain.order()
        return self._order

    def is_trivial(self) -> bool:
        return self.order() == 1

    def identity(self) -> Perm:
        return identity(self.degree)

    def contains(self, g: Perm) -> bool:
        if len(g) != self.degree:
            raise DegreeMismatch(f"degree {len(g)} vs group degree {self.degree}")
        if self._element_set is not None:
            return Perm(g) in self._element_set
        return self.chain.contains(Perm(g))

    def element_list(self) -> list[Perm]:
        """All elements in deterministic order: breadth-first from the
        identity for a group given by generators, sorted for one built from
        its element set.  Raises CapExceeded when the group is larger than
        ENUM_CAP."""
        if self._element_list is None:
            n = self.order()
            if n > enum_cap():
                raise CapExceeded(f"group order {n} exceeds ENUM_CAP {enum_cap()}")
            els = list(mulclose(self.generators or [self.identity()]))
            if len(els) != n:
                raise AssertionError(
                    f"enumeration found {len(els)} elements, chain says {n}"
                )
            self._element_list = els
            self._element_set = frozenset(els)
        return self._element_list

    def element_set(self) -> frozenset[Perm]:
        if self._element_set is None:
            self.element_list()
        assert self._element_set is not None
        return self._element_set

    def element_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """(E, Einv): row k is the image table of ``element_list()[k]`` and
        of its inverse, for vectorized filters over the whole group."""
        if self._element_arrays is None:
            els = self.element_list()
            n, d = len(els), self.degree
            E = np.fromiter(itertools.chain.from_iterable(els), np.int32, count=n * d).reshape(n, d)
            self._element_arrays = (E, np.argsort(E, axis=1).astype(np.int32))
        return self._element_arrays

    def small_generators(self) -> tuple[Perm, ...]:
        """A small generating set for conjugation sweeps (constructors often
        hand over a dozen generators; two or three usually suffice)."""
        if len(self.generators) <= 3:
            return self.generators
        if self._small_generators is None:
            self._small_generators = _sift_generators(self.degree, sorted(self.element_set()))
        return self._small_generators

    @classmethod
    def from_element_set(cls, degree: int, els: Iterable[Perm]) -> "Group":
        """Group whose elements are already known (must be closed).

        Only the element set and the sorted element list are stored; the
        generators are sifted from the sorted list when first read.
        """
        G = cls(degree, (), check=False)
        G._generators = None
        G._element_set = frozenset(Perm(e) for e in els)
        G._element_list = sorted(G._element_set)
        G._order = len(G._element_set)
        return G

    def subgroup(self, gens: Sequence[Perm]) -> "Group":
        """Subgroup generated by gens, checked for membership."""
        for g in gens:
            if not self.contains(g):
                raise NonMember(f"generator {Perm(g).cycle_str()} not in group")
        return Group(self.degree, gens)

    def orbit(self, point: int) -> frozenset[int]:
        if not (0 <= point < self.degree):
            raise ValueError(f"point {point} out of range for degree {self.degree}")
        return frozenset(orbit(point, self.generators, lambda g, x: g[x]))

    def random_elements(self, k: int, seed: int = 0) -> list[Perm]:
        """Deterministic pseudo-random sample (with replacement) of elements."""
        import random

        rng = random.Random(seed)
        els = self.element_list()
        return [els[rng.randrange(len(els))] for _ in range(k)]


def _sift_generators(degree: int, els: Sequence[Perm]) -> tuple[Perm, ...]:
    """A small generating set of the group whose elements are ``els``:
    sifting them in the given order through an incremental chain, each one
    not yet in the chain becomes a generator, until the chain reaches the
    group order."""
    chain = StabilizerChain(degree, [])
    gens: list[Perm] = []
    for e in els:
        if chain.order() == len(els):
            break
        if not chain.contains(e):
            gens.append(e)
            chain._add(e, 0)
    return tuple(gens)


class QuotientMap:
    """The homomorphism G -> G/N realized by the left-coset action."""

    def __init__(self, G: Group, N: Group, reps: list[Perm], coset_index: dict[Perm, int]):
        self.domain = G
        self.kernel = N
        self.reps = reps
        self._coset_index = coset_index

    def coset_of(self, g: Perm) -> int:
        idx = self._coset_index.get(Perm(g))
        if idx is None:
            raise NonMember(f"{Perm(g).cycle_str()} not in the domain group")
        return idx

    def __call__(self, g: Perm) -> Perm:
        g = Perm(g)
        return Perm(self.coset_of(g * rep) for rep in self.reps)


def quotient_by(G: Group, N: Group) -> tuple[Group, QuotientMap]:
    """Permutation action of G on the left cosets of a normal subgroup N.

    The kernel of the action is exactly N, so the image is faithful for G/N.
    """
    from .errors import NotNormal

    nset = N.element_set()
    for a in G.generators:
        ainv = a.inv()
        for n in N.generators:
            if a * n * ainv not in nset:
                raise NotNormal("subgroup is not normal in the ambient group")
    els = G.element_list()
    reps: list[Perm] = []
    coset_index: dict[Perm, int] = {}
    for g in els:
        if g in coset_index:
            continue
        idx = len(reps)
        reps.append(g)
        for n in nset:
            coset_index[g * n] = idx
    qmap = QuotientMap(G, N, reps, coset_index)
    qgens = [qmap(a) for a in G.generators]
    Q = Group(len(reps), qgens, check=False)
    if Q.order() * N.order() != G.order():
        raise AssertionError("coset action order mismatch")
    return Q, qmap

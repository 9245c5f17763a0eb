"""Permutations and finitely generated permutation groups.

Points are 0-based.  The composition convention is (a * b)(x) = a(b(x)):
``a * b`` applies ``b`` first.

:class:`Group` owns its element store: the deterministic stabilizer chain
(base points chosen as the lowest moved point), the integer
:class:`ElementStore`, and one conjugation table per generator.  Each is
filled on first use.  The chain gives order and membership
unless a listing has them already: a listed group answers membership
from its element set, and :meth:`Group.has_order`, the constructors'
order check, lists a group of order below KEYED_MIN_ORDER with
:func:`mulclose` and builds no chain.  A group built from its element
set computes its generators and chain only when they are read, and its
chain is the one its generator sift built.

The store holds one numpy image row per element (its id is the row) and
an int64 key per element, sum g[b_i] * degree**i over the points b_i of a
base (the chain's, where the group has one), or where that overflows
int64, the bytes of the base images; the keys are sorted and ids are
found with ``searchsorted``.  A group of order at least
KEYED_MIN_ORDER is enumerated straight into it: the rows are the products
of the chain's transversals, and a breadth-first walk over one
left-multiplication id table per generator, a frontier at a time, orders
them as :func:`mulclose` would.  Filters that read only base columns
(keyed membership, products, commutation and element orders) then cost
O(|G| * |base|) instead of O(|G| * degree).

Subgroups are held as id arrays.  ``ElementStore.mul`` gives the ids of
products, and each group builds, on first use, one conjugation table per
generator (the id of g x g^-1 for every x), so conjugating a
subgroup is ``np.sort(table[ids])``.  From those tables each group also
builds, on first use, its class labels: for every id, the least id in
that element's conjugacy class, which is all the class sweeps read.
:meth:`Group.subgroup_of_ids` turns an id array back into a group whose
store is a slice of the parent's, keyed at the parent's base, sorted as
``sorted()`` sorts permutations (:func:`sorting_order`).  :func:`is_normal`
reads the conjugation tables, and :func:`coset_heads` labels every id with
the least id in its coset of a normal subgroup: :func:`quotient_by`
numbers the cosets by these heads, ``analysis`` keys the chief factors'
coordinates by them, and ``classify`` walks the cosets of Q in N_G(Q) by
them.  ``Perm`` lists exist only at the edges:
``Group.element_list`` and ``element_set`` build them from the store's
rows when read (constructors, witness and sifted generators, JSON), and a
group below KEYED_MIN_ORDER, where :func:`mulclose` costs less than numpy,
is listed first and stored from its list.

:func:`mulclose` is the one closure routine on permutations (orbits of
subgroups held as id arrays under the conjugation tables are
``analysis.id_orbit``).

A product of two ``Perm`` tuples is ``Perm.__mul__``, one ``itemgetter``
call; :func:`mulclose` on at most 256 points multiplies ``bytes`` with
``bytes.translate`` instead and builds each ``Perm`` once.  The identity
of each degree is one shared object, so ``is_identity`` is a single tuple
comparison.  :class:`StabilizerChain` is incremental: each level stores
the inverse of every transversal representative beside it, adding a
generator only extends the transversal, and only the Schreier generators
of the new (point, generator) pairs are sifted.  It has two kernels,
chosen by degree at ROWS_MIN_DEGREE (where a measured crossover put it):
below, one pair at a time on ``Perm`` tuples; from there up, the same
steps in batches on int32 image rows, which form a generation's
representatives and a call's Schreier generators with one gather each.
The two build the same chain from the same generators (same base points,
same representatives in the same order), so no store, key or output
depends on the choice.  A store enumerated from a chain also takes from
its inverse representatives the inverse images of the base points
(:meth:`ElementStore.inverse_base`), which the normalizer filter reads.
"""

from __future__ import annotations

import itertools
import math
import os
from functools import lru_cache
from operator import itemgetter
from typing import Collection, Iterable, Optional, Sequence

import numpy as np

from .errors import CapExceeded, DegreeMismatch, NonMember, NotNormal

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
    insertion-ordered dict used as an ordered set, whose first key is the
    shared ``identity``.  Returns None if the closure grows past ``cap``;
    without a cap, raises CapExceeded once it grows past ENUM_CAP.  Raises
    DegreeMismatch on generators of different degrees.

    On at most 256 points the walk holds elements as ``bytes``, which hash
    as they are: ``b.translate(bytes(a) + bytes(range(d, 256)))`` is
    a * b.  They become ``Perm`` tuples once, at the end.  On more points
    it multiplies ``Perm`` tuples."""
    gens = list(gens)
    if not gens:
        raise ValueError("need at least one generator")
    limit = enum_cap() if cap is None else cap
    d = len(gens[0])
    for a in gens:
        if len(a) != d:
            raise DegreeMismatch(f"degree {len(a)} vs {d}")
    one = identity(d)
    if d <= 256:
        tail = bytes(range(d, 256))
        acts, start, product = [bytes(a) + tail for a in gens], bytes(one), bytes.translate
    else:
        acts, start, product = gens, one, lambda b, a: a * b
    els = {start: None}
    frontier = [start]
    while frontier:
        new = []
        for b in frontier:
            for a in acts:
                c = product(b, a)
                if c not in els:
                    els[c] = None
                    new.append(c)
                    if len(els) > limit:
                        if cap is None:
                            raise CapExceeded(f"closure exceeds ENUM_CAP {limit}")
                        return None
        frontier = new
    if d > 256:
        return els
    return dict.fromkeys(itertools.chain((one,), map(Perm, itertools.islice(els, 1, None))))


class _Level:
    __slots__ = ("base", "gens", "transversal", "inverses")

    def __init__(self, base: int, degree: int):
        self.base = base
        self.gens: dict[Perm, Perm] = {}  # generator -> its inverse
        # transversal[pt] maps base to pt; inverses[pt] is its inverse
        self.transversal: dict[int, Perm] = {base: identity(degree)}
        self.inverses: dict[int, Perm] = {base: identity(degree)}

    @property
    def size(self) -> int:
        return len(self.transversal)

    def transversal_rows(self) -> np.ndarray:
        return np.array(list(self.transversal.values()), dtype=np.int32)

    def inverse_rows(self) -> np.ndarray:
        return np.array(list(self.inverses.values()), dtype=np.int32)


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

    Two kernels run this one algorithm, chosen here by degree: on fewer
    than ROWS_MIN_DEGREE points, :class:`_PermChain` holds the
    representatives as ``Perm`` tuples; on more, :class:`_RowChain` holds
    them as int32 numpy image rows and forms them, and the Schreier
    generators, in batches.  Both give the same chain from the same
    generators: the same base points, and the same representatives in the
    same order, so every store, key and output is the same under either.
    """

    def __new__(cls, degree: int, gens: Iterable[Perm]):
        if cls is StabilizerChain:
            cls = _RowChain if degree >= ROWS_MIN_DEGREE else _PermChain
        return super().__new__(cls)

    def __init__(self, degree: int, gens: Iterable[Perm]):
        self.degree = degree
        self.levels: list = []
        for g in gens:
            self._add(g, 0)

    def order(self) -> int:
        return math.prod(level.size for level in self.levels)

    def extend(self, g: Perm) -> None:
        """Add the generator g: the chain becomes the one built from the
        generators so far followed by g."""
        self._add(g, 0)

    def sift_generators(self, els, n: int) -> tuple[Perm, ...]:
        """A small generating set of the group of order n whose elements
        are ``els`` (``Perm`` tuples or int32 image rows): sifting them in
        the given order through this chain (empty at the start), each one
        not yet in the chain becomes a generator, until the chain reaches
        the group order.  The chain is left as the chain of the returned
        generators."""
        raise NotImplementedError


class _PermChain(StabilizerChain):
    """The kernel on ``Perm`` tuples: one (point, generator) pair at a
    time, sifting each Schreier generator as it is formed."""

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

    def sift_generators(self, els, n: int) -> tuple[Perm, ...]:
        if isinstance(els, np.ndarray):  # permutations built as the sift reads them
            rows = els
            els = (Perm(rows[k].tolist()) for k in range(len(rows)))
        gens: list[Perm] = []
        for e in els:
            if self.order() == n:
                break
            if not self.contains(e):
                gens.append(e)
                self._add(e, 0)
        return tuple(gens)


class _RowLevel:
    """A level of a :class:`_RowChain`.  Row k of ``reps`` maps the base
    to the k-th point of the orbit, in the order the orbit grew, and row k
    of ``inverses`` is its inverse; ``index[pt]`` is the row of pt, or -1
    off the orbit.  Rows past ``size`` are spare room."""

    __slots__ = ("base", "gens", "gen_inverses", "images", "points", "reps", "inverses", "index", "size")

    def __init__(self, base: int, ident: np.ndarray):
        self.base = base
        self.gens = ident[:0].reshape(0, len(ident))
        self.gen_inverses = self.gens
        self.images: list[list[int]] = []  # the generator rows as lists, for the walk
        self.points = [base]  # the orbit, point k at row k
        self.reps = ident[None].copy()
        self.inverses = ident[None].copy()
        self.index = np.full(len(ident), -1, dtype=np.intp)
        self.index[base] = 0
        self.size = 1

    def transversal_rows(self) -> np.ndarray:
        return self.reps[: self.size]

    def inverse_rows(self) -> np.ndarray:
        return self.inverses[: self.size]

    def append(self, reps: np.ndarray, inverses: np.ndarray) -> None:
        """Add the representatives of new orbit points, doubling the room
        when it runs out (an orbit has at most degree points)."""
        n, m = self.size, len(reps)
        if n + m > len(self.reps):
            room = min(max(2 * len(self.reps), n + m), self.reps.shape[1])
            self.reps = np.concatenate([self.reps[:n], np.empty((room - n, self.reps.shape[1]), np.int32)])
            self.inverses = np.concatenate([self.inverses[:n], np.empty_like(self.reps[n:])])
        self.reps[n : n + m] = reps
        self.inverses[n : n + m] = inverses
        self.size = n + m


# The Schreier generators of one call are formed and sifted in slices of
# at most this many entries: slices of 2^18 raised the benchmark set-up's
# peak RSS (the transients of the DELPERM:7:* chains it builds), and at
# 2^16 the chains build no slower (BENCH_12.json).
_SLICE_ENTRIES = 1 << 16


class _RowChain(StabilizerChain):
    """The kernel on int32 image rows.  One call of ``_add`` runs the
    :class:`_PermChain` steps in the same order, in batches:

    - the orbit grows by a breadth-first walk over points, a generation
      at a time, its pairs in the order point, then generator; a pair
      whose image is new and first in its generation is the tree edge
      that gives that point its representative, and every new point's
      representative and inverse come from one gather each;
    - the Schreier generators of every other pair are formed together
      (in slices of _SLICE_ENTRIES) and sifted through the lower levels
      together; the first with a nontrivial residue has that residue
      added one level down, and the rest are sifted again through the
      grown chain, as the one-at-a-time sift would have met them."""

    def __init__(self, degree: int, gens: Iterable[Perm]):
        self._ident = np.arange(degree, dtype=np.int32)
        super().__init__(degree, gens)

    def contains(self, g: Perm) -> bool:
        return bool((self._strip(np.array([g], dtype=np.int32), 0) == self._ident).all())

    def _add(self, g, i: int) -> None:
        g = np.asarray(g, dtype=np.int32)
        moved = np.flatnonzero(g != self._ident)
        if not len(moved):
            return
        if i == len(self.levels):
            self.levels.append(_RowLevel(int(moved[0]), self._ident))
        level = self.levels[i]
        row = g.tolist()
        if row in level.images:
            return
        level.images.append(row)
        g_inv = np.empty_like(g)
        g_inv[g] = self._ident
        level.gens = np.vstack([level.gens, g])
        level.gen_inverses = np.vstack([level.gen_inverses, g_inv])
        d, k, images, points = self.degree, len(level.gens), level.images, level.points
        index = level.index.tolist()
        flat_gens = level.gens.ravel()
        # old points with the new generator, then each generation's new
        # points with every generator
        todo, n_old = [(r, (k - 1,)) for r in range(len(points))], len(points)
        schreier: list[tuple[int, int, int]] = []  # (row of the point, generator, row of its image)
        while todo:
            tree: list[tuple[int, int]] = []
            start = len(points)
            for r, gens in todo:
                pt = points[r]
                for s in gens:
                    img = images[s][pt]
                    j = index[img]
                    if j < 0:
                        index[img] = len(points)
                        points.append(img)
                        tree.append((r, s))
                    else:
                        schreier.append((r, s, j))
            if tree:
                at, by = np.array(tree).T
                level.append(
                    flat_gens[by[:, None] * d + level.reps[at]],  # s * rep
                    level.inverses.ravel()[at[:, None] * d + level.gen_inverses[by]],  # rep^-1 * s^-1
                )
            todo = [(r, range(k)) for r in range(start, len(points))]
        level.index[points[n_old:]] = np.arange(n_old, len(points))
        if not schreier:
            return
        at, by, to = np.array(schreier).T
        flat_inverses = level.inverses.ravel()
        step = max(1, _SLICE_ENTRIES // d)
        for s in range(0, len(at), step):
            s_rep = flat_gens[by[s : s + step, None] * d + level.reps[at[s : s + step]]]
            moved = (s_rep != level.reps[to[s : s + step]]).any(axis=1)  # else trivial
            rows = flat_inverses[to[s : s + step][moved, None] * d + s_rep[moved]]  # trans[img]^-1 * s * rep
            self._sift_in(rows, i + 1)

    def _sift_in(self, rows: np.ndarray, i: int) -> None:
        """Sift the rows in order from level i; each nontrivial residue is
        added at level i, and the rows after it are sifted again."""
        while len(rows):
            residues = self._strip(rows, i)
            hits = np.flatnonzero((residues != self._ident).any(axis=1))
            if not len(hits):
                return
            self._add(residues[hits[0]], i)
            rows = rows[hits[0] + 1 :]

    def _strip(self, rows: np.ndarray, i: int) -> np.ndarray:
        """The residues of the rows after stripping through levels i,
        i+1, ...: a row stops at the first level whose orbit misses the
        image of its base point."""
        d = self.degree
        rows = rows.copy()
        live = np.arange(len(rows))
        for level in self.levels[i:]:
            to = level.index[rows[live, level.base]]
            live, to = live[to >= 0], to[to >= 0]
            rows[live] = level.inverses.ravel()[to[:, None] * d + rows[live]]
        return rows

    def sift_generators(self, els, n: int) -> tuple[Perm, ...]:
        gens: list[Perm] = []
        start, step = 0, 16  # a generating set is usually among the first elements
        while self.order() < n and start < len(els):
            rows = np.asarray(els[start : start + step], dtype=np.int32)
            hits = np.flatnonzero((self._strip(rows, 0) != self._ident).any(axis=1))
            if not len(hits):
                start, step = start + step, 2 * step
                continue
            gens.append(Perm(rows[hits[0]].tolist()))
            self._add(rows[hits[0]], 0)
            start += int(hits[0]) + 1
        return tuple(gens)


# Chains on at least this many points run on image rows (:class:`_RowChain`),
# smaller ones on `Perm` tuples.  Building each catalogue group's chain with
# both kernels, the rows lost at every degree up to 64 and won from 72 up;
# the catalogue has no degree between 80 and 120, and moving this line from
# 100 down to 72 moved no workload's requests/s by more than 0.2%
# (BENCH_12.json).
ROWS_MIN_DEGREE = 100


# Groups of smaller order are enumerated by mulclose, and fewer elements
# than this have their orders walked one at a time: below this size the
# fixed cost of the store's numpy calls exceeds the Python work it saves.
# Forcing either path on the catalogue, the store lost on most groups of
# order <= 72, was mixed at 80-120 and won on every group of order >= 144.
KEYED_MIN_ORDER = 128


class ElementStore:
    """The integer form of an enumerated group G.

    ``E`` holds one image row per element, in ``G.element_list()`` order;
    an element's id is its row.  The identity is id 0 in every store:
    :func:`mulclose` and :func:`_enumerate` list from it, and a sorted
    listing starts with it, the least permutation.  ``base`` holds the
    points of a base of G (its chain's, or that of the group a subgroup
    was cut from), and the key of g is the number sum g[b_i] * degree**i
    formed from its base images.  Only the identity of G fixes every base
    point, so the key determines an element of G, and membership of an
    element of G in a subgroup H is a key lookup among H's keys at this
    base.  Keys are int64 unless degree**len(base) overflows it; then the
    key is the fixed-width bytes of the int32 base images (a numpy void
    scalar), which sort and compare as well.  ``lookup`` finds ids with
    ``searchsorted`` in the sorted keys, sorted on first use.
    """

    __slots__ = ("E", "base", "radix", "keys", "ids", "_inverse_base")

    def __init__(self, E: np.ndarray, base: Sequence[int]):
        degree, b = E.shape[1], len(base)
        self.E = E
        self.base = np.array(base, dtype=np.intp)
        # None: keys are the bytes of the base images
        self.radix = np.array([degree**i for i in range(b)], dtype=np.int64) if degree**b < 2**63 else None
        self.keys: Optional[np.ndarray] = None  # sorted; ids[j] has key keys[j]
        self.ids: Optional[np.ndarray] = None
        self._inverse_base: Optional[np.ndarray] = None

    def key(self, images: np.ndarray) -> np.ndarray:
        """Keys of the elements whose base images run along the last axis."""
        if self.radix is None:
            images = np.ascontiguousarray(images, dtype=np.int32)
            return images.view(np.dtype((np.void, images.shape[-1] * 4)))[..., 0]
        return images @ self.radix

    def base_images(self, els: Collection[Perm]) -> np.ndarray:
        """The base images of the given permutations, one row each."""
        base = self.base.tolist()
        flat = np.fromiter((x[b] for x in els for b in base), np.int32, count=len(els) * len(base))
        return flat.reshape(len(els), len(base))

    def lookup(self, keys: np.ndarray) -> np.ndarray:
        """Ids of the elements of G with the given keys."""
        if self.keys is None:
            self._sort_keys()
        return self.ids[np.searchsorted(self.keys, keys)]

    def _sort_keys(self) -> None:
        keys_by_id = self.key(self.E[:, self.base])
        self.ids = np.argsort(keys_by_id)
        self.keys = keys_by_id[self.ids]

    def id_of(self, g: Perm) -> Optional[int]:
        """The id of g if g lies in G, else None: a key names at most one
        element of G, so g lies in G exactly when the row that its key
        names is g."""
        row = np.asarray(g, dtype=np.int32)
        if len(row) != self.E.shape[1]:
            raise DegreeMismatch(f"degree {len(row)} vs group degree {self.E.shape[1]}")
        if self.keys is None:
            self._sort_keys()
        at = np.searchsorted(self.keys, self.key(row[None, self.base]))[0]
        i = int(self.ids[min(at, len(self.ids) - 1)])
        return i if np.array_equal(self.E[i], row) else None

    def orders(self, ids: np.ndarray) -> np.ndarray:
        """Orders of the elements with the given ids.  Only the identity
        fixes every base point, so the order of g is the lcm of the lengths
        of its cycles through the base points.  Fewer than KEYED_MIN_ORDER
        elements are walked one at a time; more are iterated together,
        g^k(b) = g(g^(k-1)(b)) over the base columns, until g^k fixes every
        base point."""
        if len(ids) < KEYED_MIN_ORDER:
            base = self.base.tolist()
            out = []
            for row in self.E[ids].tolist():
                n = 1
                for b in base:
                    k, x = 1, row[b]
                    while x != b:
                        k, x = k + 1, row[x]
                    n = math.lcm(n, k)
                out.append(n)
            return np.array(out, dtype=np.int64)
        orders = np.zeros(len(ids), dtype=np.int64)
        todo = np.arange(len(ids))
        cur = self.E[ids[:, None], self.base]
        k = 1
        while len(todo):
            fixed = (cur == self.base).all(axis=1)
            orders[todo[fixed]] = k
            todo, cur = todo[~fixed], cur[~fixed]
            cur = self.E[ids[todo][:, None], cur]
            k += 1
        return orders

    def inverse_base(self) -> np.ndarray:
        """g^-1(b) for every element g (rows) and base point b (columns).
        A store enumerated from its chain has them from the inverse
        representatives (:func:`_enumerate`); any other finds, for each
        base point b, the point that each row maps to b."""
        if self._inverse_base is None:
            self._inverse_base = (self.E[:, None, :] == self.base[:, None]).argmax(axis=2)
        return self._inverse_base

    def restricted(self, ids: Sequence[int]) -> "ElementStore":
        """The store of the subgroup whose elements have the given ids, in
        that order, keyed at this store's base."""
        S = ElementStore.__new__(ElementStore)
        S.E, S.base, S.radix = self.E[ids], self.base, self.radix
        S.keys = S.ids = S._inverse_base = None
        return S

    def ids_of(self, els: Collection[Perm]) -> np.ndarray:
        """Ids of the given elements of G."""
        return self.lookup(self.key(self.base_images(els)))

    def perm(self, i: int) -> Perm:
        """The element of G with id i."""
        return Perm(self.E[i].tolist())

    def keys_of(self, H: "Group") -> np.ndarray:
        """Keys of the elements of a subgroup H of G, in H's element-list
        order, read from H's store when it has one, else from its element
        list."""
        if H._store is not None:
            return self.key(H._store.E[:, self.base])
        return self.key(self.base_images(H.element_list()))

    def mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Ids of the products a * b, elementwise with broadcasting: the
        base images of a * b are a(b(c)) at the base points c."""
        return self.lookup(self.key(self.E[a[..., None], self.E[b[..., None], self.base]]))

    def conjugation_table(self, g: Perm, ids=slice(None)) -> np.ndarray:
        """The id of g x g^-1 for every id x, or for the given ids, from its
        base images g(x(g^-1(c)))."""
        g_row = np.array(g, dtype=np.int32)
        return self.lookup(self.key(g_row[self.E[ids][:, np.argsort(g_row)[self.base]]]))


def _enumerate(chain: StabilizerChain, gens: Sequence[Perm]) -> ElementStore:
    """The store of the group generated by gens, whose chain is given.

    Its rows are the products u_1 u_2 ... u_k of one representative from
    each level's transversal, every element exactly once.  One table per
    generator a gives the id of a * g for every g, and a breadth-first walk
    over those tables from the identity puts the rows in :func:`mulclose`'s
    order: each frontier's products, scanned element by element and each
    element's generators in order, contribute their first occurrences that
    no earlier frontier holds.  The walk reaching every row proves that
    gens generate the chain's group."""
    d, base = chain.degree, [level.base for level in chain.levels]
    rows = np.arange(d, dtype=np.int32)[None]
    for level in reversed(chain.levels):
        rows = np.take(level.transversal_rows(), rows, axis=1).reshape(-1, d)  # reps[:, rows]
    # row (i_1, ..., i_k) is u_1 u_2 ... u_k, whose inverse maps b to
    # u_k^-1(... u_1^-1(b)): formed at the base points only
    inverse_base = np.array(base, dtype=np.int32)[None]
    for level in chain.levels:
        inverse_base = np.take(level.inverse_rows(), inverse_base, axis=1).swapaxes(0, 1).reshape(-1, len(base))
    S = ElementStore(rows, base)
    n = len(rows)
    at_base = np.ascontiguousarray(rows[:, S.base])
    succ = np.stack([S.lookup(S.key(np.take(np.array(a, dtype=np.int32), at_base))) for a in gens], axis=1)
    # succ[g, i]: the row of gens[i] * g
    frontier = S.lookup(S.key(S.base))[None]
    seen = np.zeros(n, dtype=bool)
    seen[frontier] = True
    first = np.empty(n, dtype=np.intp)  # first[x]: x's first position in the scan
    walk = [frontier]
    while len(frontier):
        scan = succ[frontier].ravel()
        scan = scan[~seen[scan]]
        at = np.arange(len(scan))
        first[scan] = len(scan)
        np.minimum.at(first, scan, at)
        frontier = scan[first[scan] == at]
        seen[frontier] = True
        walk.append(frontier)
    walk = np.concatenate(walk)
    if len(walk) != n:
        raise AssertionError(f"enumeration found {len(walk)} elements, chain says {n}")
    position = np.empty(n, dtype=np.intp)
    position[walk] = np.arange(n)
    S.E, S.ids, S._inverse_base = rows[walk], position[S.ids], inverse_base[walk]
    return S


class Group:
    """A permutation group on a fixed point set, given by generators or by
    its element set.

    Immutable once built.  Every cache is declared in ``__init__`` and
    filled on first use: the chain, the order, the element list and set
    (all three from one :func:`mulclose` listing when :meth:`has_order`
    lists a small group by generators, which then builds no chain),
    the store, the conjugation tables (one table per generator) and the
    class labels, which depend only on the generator list or the element
    set, so concurrent readers agree; and one memo that dies with the group,
    ``_sylows`` (p to the Sylow p-subgroup that ``analysis.sylow`` found),
    which both verdict routes read.
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
        self._store: Optional[ElementStore] = None
        self._conjugation_tables: Optional[list[np.ndarray]] = None
        self._class_labels: Optional[np.ndarray] = None
        self._sylows: dict[int, Group] = {}

    def __repr__(self) -> str:
        return f"Group(degree={self.degree}, ngens={len(self.generators)}, order={self.order()})"

    @property
    def generators(self) -> tuple[Perm, ...]:
        if self._generators is None:
            # the sift's chain is the chain of the sifted generators
            self._chain = StabilizerChain(self.degree, [])
            els = self._element_list if self._element_list is not None else self._store.E
            self._generators = self._chain.sift_generators(els, self.order())
        return self._generators

    @property
    def chain(self) -> StabilizerChain:
        if self._chain is None:
            gens = self.generators  # a group built from its element set sifts its chain here
            if self._chain is None:
                self._chain = StabilizerChain(self.degree, gens)
        return self._chain

    def order(self) -> int:
        if self._order is None:
            self._order = self.chain.order()
        return self._order

    def has_order(self, n: int) -> bool:
        """Whether the group has order n.  A group whose order is not known
        yet (one given by generators) is listed by :func:`mulclose` with cap
        n when n is below KEYED_MIN_ORDER and within ENUM_CAP: that costs
        less than a chain there, stops at n + 1 elements, and a complete
        listing keeps the element list, the set and the order.  Otherwise
        the chain decides."""
        if self._order is None and n < min(KEYED_MIN_ORDER, enum_cap() + 1):
            els = mulclose(self._generators, cap=n)
            if els is None:
                return False
            self._element_list = list(els)
            self._element_set = frozenset(els)
            self._order = len(els)
        return self.order() == n

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
        identity (:func:`mulclose`'s order) for a group given by
        generators, sorted for one built from its element set or cut from
        ids.  Raises CapExceeded when the group is larger than ENUM_CAP.

        A group of order below KEYED_MIN_ORDER that has no store runs
        :func:`mulclose`, which costs less than the numpy calls there; any
        other reads its store's rows back as permutations, which only the
        edges need (witness generators, sifted generators, reports)."""
        if self._element_list is None:
            n = self.order()
            if self._store is None and n < KEYED_MIN_ORDER:
                _check_cap(n)
                els = list(mulclose(self.generators or [self.identity()]))
                if len(els) != n:
                    raise AssertionError(f"enumeration found {len(els)} elements, chain says {n}")
                self._element_set = frozenset(els)  # cheap here; membership tests then skip the chain
            else:
                els = list(map(Perm, self.store().E.tolist()))
            self._element_list = els
        return self._element_list

    def element_set(self) -> frozenset[Perm]:
        if self._element_set is None:
            self._element_set = frozenset(self.element_list())
        return self._element_set

    def store(self) -> "ElementStore":
        """The integer form of the element list (see :class:`ElementStore`),
        keyed at the base of this group's chain, or for a group listed
        without one (built from its element set and not yet sifted, or
        listed by :meth:`has_order`), at a base read off its elements;
        a subgroup cut from ids is keyed at the base of the group it was cut
        from.  A group of order at least KEYED_MIN_ORDER with no element
        list is enumerated here (:func:`_enumerate`), listing no
        permutation.  Raises CapExceeded when the group is larger than
        ENUM_CAP."""
        if self._store is None:
            if self._element_list is None and self.order() >= KEYED_MIN_ORDER:
                _check_cap(self.order())
                self._store = _enumerate(self.chain, self.generators or [self.identity()])
            else:
                els = self.element_list()
                n, d = len(els), self.degree
                E = np.fromiter(itertools.chain.from_iterable(els), np.int32, count=n * d)
                base = _base_of(els) if self._chain is None else [lv.base for lv in self._chain.levels]
                self._store = ElementStore(E.reshape(n, d), base)
        return self._store

    def element_orders(self) -> list[int]:
        """The order of each element, in element-list order, from the
        store's base columns (:meth:`ElementStore.orders`)."""
        return self.store().orders(np.arange(self.order())).tolist()

    def conjugation_tables(self) -> list[np.ndarray]:
        """One id table per generator g, whose entry x is the id of g x g^-1:
        conjugating a subgroup held as ids is ``np.sort(t[ids])``."""
        if self._conjugation_tables is None:
            S = self.store()
            self._conjugation_tables = [S.conjugation_table(g) for g in self.generators]
        return self._conjugation_tables

    def class_labels(self) -> np.ndarray:
        """For every id, the least id in its element's conjugacy class: the
        least id joined to it by the conjugation tables
        (:func:`_least_labels`)."""
        if self._class_labels is None:
            self._class_labels = _least_labels(self.order(), self.conjugation_tables())
        return self._class_labels

    @classmethod
    def from_element_set(
        cls, degree: int, els: Iterable[Perm], generators: Optional[Sequence[Perm]] = None
    ) -> "Group":
        """Group whose elements are already known (must be closed).

        Only the element set and the sorted element list are stored; the
        generators, unless given (no identity, no repeats), are sifted from
        the sorted list when first read.
        """
        G = cls(degree, (), check=False)
        G._generators = None if generators is None else tuple(generators)
        G._element_set = frozenset(Perm(e) for e in els)
        G._element_list = sorted(G._element_set)
        G._order = len(G._element_set)
        return G

    @classmethod
    def from_chain(cls, chain: StabilizerChain, generators: Sequence[Perm]) -> "Group":
        """The group generated by the given generators (no identity, no
        repeats), whose chain, built from them in order, is given."""
        G = cls(chain.degree, generators, check=False)
        G._chain = chain
        return G

    def subgroup_of_ids(
        self, ids: Iterable[int], generators: Optional[Sequence[Perm]] = None
    ) -> "Group":
        """The subgroup whose elements have the given ids, which must be
        closed under products.  Like a group from :meth:`from_element_set`
        it lists its elements sorted (:func:`sorting_order`) and, unless
        they are given, sifts its generators in that order when they are
        read, from its rows unless it is listed.  Its store takes its rows
        from this group's store, keyed at this group's base; its
        permutations are built only when read."""
        S, els = self.store(), self._element_list
        H = Group(self.degree, (), check=False)
        H._generators = None if generators is None else tuple(generators)
        if els is not None:  # listed already: slicing costs less than building permutations
            ids = sorted(np.asarray(ids).tolist(), key=els.__getitem__)
            H._element_list = [els[i] for i in ids]
        else:
            ids = np.asarray(ids)
            ids = ids[sorting_order(S.E[ids])]
        H._order = len(ids)
        H._store = S.restricted(ids)
        return H

    def subgroup(self, gens: Sequence[Perm]) -> "Group":
        """Subgroup generated by gens, checked for membership."""
        for g in gens:
            if not self.contains(g):
                raise NonMember(f"generator {Perm(g).cycle_str()} not in group")
        return Group(self.degree, gens)

    def random_elements(self, k: int, seed: int = 0) -> list[Perm]:
        """Deterministic pseudo-random sample (with replacement) of elements."""
        import random

        rng = random.Random(seed)
        els = self.element_list()
        return [els[rng.randrange(len(els))] for _ in range(k)]


def _least_labels(n: int, tables: Sequence[np.ndarray]) -> np.ndarray:
    """For every x in range(n), the least id joined to x by the maps
    x -> t[x] (permutations of range(n)) of the given tables.  Each label
    starts as its own id; a round pushes labels both ways along every table
    and then to their own label's label, which keeps each in its orbit,
    until a round changes none."""
    labels = np.arange(n)
    while True:
        old = labels.copy()
        for t in tables:
            labels = np.minimum(labels, labels[t])
            labels[t] = np.minimum(labels[t], labels)
        labels = labels[labels]
        if np.array_equal(labels, old):
            return labels


def sorting_order(rows: np.ndarray) -> np.ndarray:
    """The order in which ``sorted()`` puts the permutations whose image
    rows are given: lexicographic, first point first.  The rows are
    compared as big-endian bytes, whose order on nonnegative integers is
    theirs, which numpy sorts much faster than ``np.lexsort`` of the
    columns."""
    rows = np.ascontiguousarray(rows, dtype=">i4")
    return np.argsort(rows.view(np.dtype((np.void, rows.shape[1] * 4)))[:, 0], kind="stable")


def _check_cap(n: int) -> None:
    if n > enum_cap():
        raise CapExceeded(f"group order {n} exceeds ENUM_CAP {enum_cap()}")


def _base_of(els: Sequence[Perm]) -> list[int]:
    """Points that no element of els but the identity fixes all of: the
    least point moved by the first element that fixes every point chosen
    so far, until none is left."""
    base: list[int] = []
    rest = [g for g in els if not g.is_identity()]
    while rest:
        g = rest[0]
        b = next(i for i, x in enumerate(g) if x != i)
        base.append(b)
        rest = [h for h in rest if h[b] == b]
    return base


def is_normal(G: Group, H: Group) -> bool:
    """Whether H is a normal subgroup of G: every generator of H lies in G
    (else ``ElementStore.lookup`` would name some other element), and
    conjugation by each generator of G, read from G's tables, keeps H's
    ids among them."""
    if not all(map(G.contains, H.generators)):
        return False
    S = G.store()
    ids = S.lookup(S.keys_of(H))
    inside = np.zeros(G.order(), dtype=bool)
    inside[ids] = True
    return all(inside[t[ids]].all() for t in G.conjugation_tables())


def coset_heads(G: Group, gen_ids: Sequence[int]) -> np.ndarray:
    """For every id x of G, the least id in the coset xN of the normal
    subgroup N of G generated by the elements with ids ``gen_ids``: the
    least id joined to x by right multiplication by those generators,
    x -> x n (:func:`_least_labels`).  Ids in one coset share their head,
    and the head of N itself is 0."""
    S, n = G.store(), G.order()
    return _least_labels(n, [S.mul(np.arange(n), h) for h in gen_ids])


def quotient_by(G: Group, N: Group) -> tuple[Group, np.ndarray]:
    """Permutation action of G on the left cosets of a normal subgroup N,
    and for every id x of G the number of the coset of x.

    The kernel of the action is exactly N, so the image is faithful for G/N.
    Cosets are numbered in the order of their heads (:func:`coset_heads`),
    the order in which G's element list meets them; the generators' action
    is read off the ids of their products with each head.  G's ``Perm``
    list is never built.
    """
    if not is_normal(G, N):
        raise NotNormal("subgroup is not normal in the ambient group")
    S = G.store()
    heads, coset = np.unique(coset_heads(G, S.ids_of(N.generators)), return_inverse=True)
    qgens = [Perm(row) for row in coset[S.mul(S.ids_of(G.generators)[:, None], heads)].tolist()]
    Q = Group(len(heads), qgens, check=False)
    if Q.order() * N.order() != G.order():
        raise AssertionError("coset action order mismatch")
    return Q, coset

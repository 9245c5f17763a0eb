"""A census of the subgroups of S_n, n <= 6, that shares no code with the
verdict routes: permutations are plain ``bytes`` (image of i at index i),
subgroups are frozensets of them, and nothing from ``oortlab`` is imported.
The routes are reached only through the command line, in a subprocess.

The subgroup classes are built by joining each class rep with every cyclic
subgroup, which reaches every class (each subgroup is the join of a proper
subgroup and a cyclic one, and conjugating the pair conjugates the join),
and deduplicated by walking each new class's conjugation orbit.  A literal
oracle then decides each class rep at every prime dividing its order, from
the definitions alone:

- cyclic-by-p: the p-elements form a subgroup P, and P<k> is the whole
  group for some element k;
- allowed: cyclic; or dihedral by definition (an element r of order m and
  an involution s outside <r> with s r s = r^-1), of order 2m with m = p^n,
  n >= 1; or A4 at p = 2 (order 12, three involutions, no element of
  order 6).

A group is an O-group at p when every cyclic-by-p subgroup of order divisible
by p is allowed (a cyclic-by-p subgroup of order prime to p is cyclic).

Two relations need no oracle: a subgroup of a positive is positive, since
the class is closed under subgroups, and relabelling a group's points and
padding it with fixed points changes none of the routes' answers.
"""

import functools
import itertools
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"


def _mul(a: bytes, b: bytes) -> bytes:
    """a * b, which applies b first."""
    return bytes(a[i] for i in b)


def _inv(a: bytes) -> bytes:
    out = bytearray(len(a))
    for i, x in enumerate(a):
        out[x] = i
    return bytes(out)


def _closure(gens, one: bytes) -> frozenset:
    """The group generated by gens, grown by left multiplication: with
    g's table (g, then the bytes n..255 fixed), x.translate(table) is g * x."""
    tables = [bytes(g) + bytes(range(len(one), 256)) for g in gens]
    els, frontier = {one}, [one]
    while frontier:
        new = []
        for x in frontier:
            for t in tables:
                y = x.translate(t)
                if y not in els:
                    els.add(y)
                    new.append(y)
        frontier = new
    return frozenset(els)


def _order(x: bytes, one: bytes) -> int:
    k, y = 1, x
    while y != one:
        y, k = _mul(y, x), k + 1
    return k


def _is_power_of(m: int, p: int) -> bool:
    while m % p == 0:
        m //= p
    return m == 1


def _census(n: int):
    """(class reps with the generators they were joined from, subgroup ->
    index of its class) for S_n."""
    one = bytes(range(n))
    cyclic = {}  # cyclic subgroup -> one generator of it
    for x in itertools.permutations(range(n)):
        cyclic.setdefault(_closure([bytes(x)], one), bytes(x))
    # a transposition and an n-cycle generate S_n; each with its inverse
    movers = [(g, _inv(g)) for g in (bytes([1, 0, *range(2, n)]), bytes([*range(1, n), 0]))] if n > 1 else []
    reps, classes = [], {}

    def add(H, gens):
        orbit, frontier = {H}, [H]
        while frontier:
            new = []
            for K in frontier:
                for g, g_inv in movers:
                    L = frozenset(_mul(_mul(g, x), g_inv) for x in K)
                    if L not in orbit:
                        orbit.add(L)
                        new.append(L)
            frontier = new
        classes.update(dict.fromkeys(orbit, len(reps)))
        reps.append((H, gens))

    add(frozenset([one]), ())
    for H, gens in reps:  # grows while it is walked
        for C, c in cyclic.items():
            if not C <= H:
                K = _closure((*gens, c), one)
                if K not in classes:
                    add(K, (*gens, c))
    return reps, classes


def _cyclic_by_p(H: frozenset, p: int, one: bytes) -> bool:
    P = frozenset(x for x in H if _is_power_of(_order(x, one), p))
    if any(_mul(x, y) not in P for x in P for y in P):
        return False
    return any(len({_mul(x, y) for x in P for y in _closure([k], one)}) == len(H) for k in H)


def _dihedral(H: frozenset, orders: dict, one: bytes) -> bool:
    """An element r of order m = |H|/2 and an involution s outside <r>
    with s r s = r^-1 (m > 1 given)."""
    m = len(H) // 2
    for r in (x for x in H if orders[x] == m):
        rotations = _closure([r], one)
        r_inv = _inv(r)
        if any(orders[s] == 2 and s not in rotations and _mul(_mul(s, r), s) == r_inv for s in H):
            return True
    return False


def _a4(orders: dict) -> bool:
    return len(orders) == 12 and list(orders.values()).count(2) == 3 and 6 not in orders.values()


def _allowed(H: frozenset, p: int, one: bytes) -> bool:
    n = len(H)
    orders = {x: _order(x, one) for x in H}
    if n in orders.values():
        return True
    m = n // 2
    if n % 2 == 0 and m > 1 and _is_power_of(m, p) and _dihedral(H, orders, one):
        return True
    return p == 2 and _a4(orders)


def _shape_label(H: frozenset, one: bytes) -> str:
    """The label of H's shape from the definitions: Cn when an element has
    order n = |H|, else Dn when H is dihedral, else A4, else Other(n)."""
    n = len(H)
    orders = {x: _order(x, one) for x in H}
    if n in orders.values():
        return f"C{n}"
    if n % 2 == 0 and n >= 4 and _dihedral(H, orders, one):
        return f"D{n}"
    return "A4" if _a4(orders) else f"Other({n})"


@functools.cache
def _oracle(n: int):
    """The census counts (classes, subgroups) of S_n; for each class rep R
    and each prime p dividing |R|, (R's class index, R's generators, p,
    whether R is an O-group at p); and for each class index, the indices
    of the classes with a member inside that class's rep."""
    one = bytes(range(n))
    reps, classes = _census(n)
    fails = {}  # (class index, p) -> the class is cyclic-by-p but not allowed

    def failing(K, p):
        key = (classes[K], p)
        if key not in fails:
            R = reps[key[0]][0]
            fails[key] = _cyclic_by_p(R, p, one) and not _allowed(R, p, one)
        return fails[key]

    decided, below = [], []
    for i, (R, gens) in enumerate(reps):
        subs = [K for K in classes if K <= R]
        below.append({classes[K] for K in subs})
        for p in (q for q in (2, 3, 5) if len(R) % q == 0):
            decided.append((i, gens, p, not any(len(K) % p == 0 and failing(K, p) for K in subs)))
    return (len(reps), len(classes)), decided, below


@pytest.mark.parametrize(
    "n, classes, subgroups", [(1, 1, 1), (2, 2, 2), (3, 4, 6), (4, 11, 30), (5, 19, 156), (6, 56, 1455)]
)
def test_census_counts_match_oeis(n, classes, subgroups):
    """Classes of subgroups of S_n (OEIS A000638) and subgroups (A005432)."""
    assert _oracle(n)[0] == (classes, subgroups)


ROUTES = """
import json, sys
import oortlab.perm as perm
from oortlab.classify import is_o_group_by_criterion, is_o_group_by_definition
from oortlab.perm import Group

row_chains = 0
row_chain_init = perm._RowChain.__init__


def counting(self, *args):
    global row_chains
    row_chains += 1
    row_chain_init(self, *args)


perm._RowChain.__init__ = counting
for line in sys.stdin:
    degree, gens, p = json.loads(line)
    G = Group(degree, gens)
    d, c = is_o_group_by_definition(G, p), is_o_group_by_criterion(G, p)
    shapes = sorted([w.shape.label, w.subgroup.order()] for w in d.witnesses + c.witnesses)
    gens = [[w.shape.label, w.subgroup.order(), w.subgroup.generators] for w in d.witnesses]
    print(json.dumps([d.is_o_group, c.is_o_group, c.branch, shapes, gens]))
print(json.dumps(row_chains))
"""


def _routes(requests):
    """Both routes on each (degree, generators, p), in one subprocess: for
    each, [definition verdict, criterion verdict, criterion branch, sorted
    witness (shape, order) pairs, (shape, order, generators) of each
    definition-route witness], then the number of row-kernel chains
    built."""
    proc = subprocess.run(
        [sys.executable, "-c", ROUTES],
        input="".join(json.dumps(r) + "\n" for r in requests),
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    *got, row_chains = [json.loads(line) for line in proc.stdout.splitlines()]
    assert len(got) == len(requests)
    return got, row_chains


@pytest.fixture(scope="module")
def census_routes():
    """{(n, class index, p): (the oracle's verdict, the routes' answer)}
    for every class rep of S_n, n <= 6, at every prime dividing its order."""
    cases = [(n, i, [list(g) for g in gens], p, v) for n in range(1, 7) for i, gens, p, v in _oracle(n)[1]]
    got, _ = _routes([[n, gens, p] for n, _, gens, p, _ in cases])
    return {(n, i, p): (v, routes) for (n, i, _, p, v), routes in zip(cases, got)}


def test_oracle_agrees_with_both_routes(census_routes):
    """Both routes decide every class rep of S_n, n <= 6, S_n and A_n among
    them, at every prime dividing its order, as the oracle does."""
    assert {v for v, _ in census_routes.values()} == {True, False}
    for key, (v, routes) in census_routes.items():
        assert routes[:2] == [v, v], key


def test_subgroups_of_positives_are_positive(census_routes):
    """The class is closed under subgroups: when a route calls a class rep
    R positive at p, it calls positive at p every class with a member
    inside R whose order p divides (the classes that have p among their
    primes)."""
    for route in (0, 1):
        positive = {key for key, (_, routes) in census_routes.items() if routes[route]}
        for n, i, p in positive:
            for j in _oracle(n)[2][i]:
                assert (n, j, p) not in census_routes or (n, j, p) in positive, (route, n, i, j, p)


def test_relabelled_and_padded_reps_keep_their_answers(census_routes):
    """Each class rep of S_5 and S_6 at each prime, its points relabelled at
    random and padded with fixed points to a degree of 101-120, gets the
    same two verdicts, criterion branch and witness (shape, order) pairs.
    The padding puts it on the row kernel (A_6 and S_6 are enumerated
    from a row-kernel chain) and moves the store's base."""
    rng = random.Random(5)
    keys, requests = [], []
    for n in (5, 6):
        for i, gens, p, _ in _oracle(n)[1]:
            degree = rng.randint(101, 120)
            relabel = rng.sample(range(degree), degree)
            padded = [[*g, *range(n, degree)] for g in gens]
            moved = []
            for g in padded:
                h = [0] * degree
                for x, y in enumerate(g):
                    h[relabel[x]] = relabel[y]
                moved.append(h)
            keys.append((n, i, p))
            requests.append([degree, moved, p])
    got, row_chains = _routes(requests)
    assert row_chains > 0
    for key, routes in zip(keys, got):
        assert routes[:4] == census_routes[key][1][:4], key


def test_witnesses_of_negatives_are_negative(census_routes):
    """Each witness that the definition route gives for a negative class
    rep of S_n, n <= 6, rebuilt from its generators as a group on n
    points, is negative at p under both routes, and the oracle finds it a
    cyclic-by-p group that is not allowed, of the printed order and
    shape."""
    negatives = {key: routes[4] for key, (v, routes) in census_routes.items() if not v}
    assert len(negatives) == 25 and all(negatives.values())
    cases = [(n, p, w) for (n, _, p), witnesses in negatives.items() for w in witnesses]
    got, _ = _routes([[n, gens, p] for n, p, (_, _, gens) in cases])
    for (n, p, (label, order, gens)), routes in zip(cases, got):
        one = bytes(range(n))
        H = _closure([bytes(g) for g in gens], one)
        assert routes[:2] == [False, False], (n, p, gens)
        assert _cyclic_by_p(H, p, one) and not _allowed(H, p, one), (n, p, gens)
        assert [label, order] == [_shape_label(H, one), len(H)], (n, p, gens)

"""A census of the subgroups of S_n, n <= 5, that shares no code with the
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
"""

import functools
import itertools
import json
import os
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
    els, frontier = {one}, [one]
    while frontier:
        new = []
        for x in frontier:
            for g in gens:
                y = _mul(x, g)
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


def _allowed(H: frozenset, p: int, one: bytes) -> bool:
    n = len(H)
    orders = {x: _order(x, one) for x in H}
    if n in orders.values():
        return True
    m = n // 2
    if n % 2 == 0 and m > 1 and _is_power_of(m, p):
        for r in (x for x in H if orders[x] == m):
            rotations = _closure([r], one)
            r_inv = _inv(r)
            if any(orders[s] == 2 and s not in rotations and _mul(_mul(s, r), s) == r_inv for s in H):
                return True
    return p == 2 and n == 12 and list(orders.values()).count(2) == 3 and 6 not in orders.values()


@functools.cache
def _oracle(n: int):
    """The census counts (classes, subgroups) of S_n, and for each class
    rep R and each prime p dividing |R|, (R's generators, p, whether R is
    an O-group at p)."""
    one = bytes(range(n))
    reps, classes = _census(n)
    fails = {}  # (class index, p) -> the class is cyclic-by-p but not allowed

    def failing(K, p):
        key = (classes[K], p)
        if key not in fails:
            R = reps[key[0]][0]
            fails[key] = _cyclic_by_p(R, p, one) and not _allowed(R, p, one)
        return fails[key]

    decided = []
    for R, gens in reps:
        subs = [K for K in classes if K <= R]
        for p in (q for q in (2, 3, 5) if len(R) % q == 0):
            decided.append((gens, p, not any(len(K) % p == 0 and failing(K, p) for K in subs)))
    return (len(reps), len(classes)), decided


@pytest.mark.parametrize("n, classes, subgroups", [(1, 1, 1), (2, 2, 2), (3, 4, 6), (4, 11, 30), (5, 19, 156)])
def test_census_counts_match_oeis(n, classes, subgroups):
    """Classes of subgroups of S_n (OEIS A000638) and subgroups (A005432)."""
    assert _oracle(n)[0] == (classes, subgroups)


ROUTES = """
import json, sys
from oortlab.classify import is_o_group_by_criterion, is_o_group_by_definition
from oortlab.perm import Group
for line in sys.stdin:
    degree, gens, p = json.loads(line)
    G = Group(degree, gens)
    print(json.dumps([is_o_group_by_definition(G, p).is_o_group, is_o_group_by_criterion(G, p).is_o_group]))
"""


def test_oracle_agrees_with_both_routes():
    """Both routes decide every class rep of S_n, n <= 5, S_n and A_n among
    them, at every prime dividing its order, as the oracle does."""
    cases = [(n, [list(g) for g in gens], p, v) for n in range(1, 6) for gens, p, v in _oracle(n)[1]]
    assert {v for *_, v in cases} == {True, False}
    proc = subprocess.run(
        [sys.executable, "-c", ROUTES],
        input="".join(json.dumps([n, gens, p]) + "\n" for n, gens, p, _ in cases),
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    got = [json.loads(line) for line in proc.stdout.splitlines()]
    assert len(got) == len(cases)
    for (n, gens, p, v), routes in zip(cases, got):
        assert routes == [v, v], (n, gens, p)

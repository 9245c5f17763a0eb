"""Permutation and group engine tests."""

import math
import os
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oortlab.analysis import centralizer, normal_closure
from oortlab.construct import build_group
from oortlab.errors import CapExceeded, DegreeMismatch, NonMember, NotNormal
from oortlab import perm
from oortlab.perm import (
    KEYED_MIN_ORDER,
    Group,
    Perm,
    StabilizerChain,
    identity,
    make_perm,
    mulclose,
    is_normal,
    perm_from_cycles,
    quotient_by,
)

perm7 = st.permutations(range(7)).map(Perm)


@given(perm7, perm7, st.integers(0, 6))
def test_composition_convention(a, b, x):
    # (a * b)(x) = a(b(x)): b applies first
    assert (a * b)[x] == a[b[x]]


@given(perm7)
def test_inverse(a):
    assert a * a.inv() == identity(7)
    assert a.inv() * a == identity(7)


@given(perm7, st.integers(-10, 10))
def test_pow_matches_repeated_product(a, n):
    expected = identity(7)
    step = a if n >= 0 else a.inv()
    for _ in range(abs(n)):
        expected = expected * step
    assert a**n == expected


@given(perm7)
def test_order_is_minimal_exponent(a):
    n = a.order()
    assert a**n == identity(7)
    for k in range(1, n):
        assert a**k != identity(7)


def test_cycles_and_str():
    p = perm_from_cycles(6, [(0, 1, 2), (4, 5)])
    assert p.cycles() == [(0, 1, 2), (4, 5)]
    assert p.cycle_str() == "(0 1 2)(4 5)"
    assert p.order() == 6
    assert identity(4).cycle_str() == "()"


def test_make_perm_validates():
    with pytest.raises(ValueError):
        make_perm([0, 0, 1])
    with pytest.raises(ValueError):
        perm_from_cycles(3, [(0, 5)])


def test_degree_mismatch():
    with pytest.raises(DegreeMismatch):
        identity(3) * identity(4)


def test_mulclose_s3():
    a = perm_from_cycles(3, [(0, 1, 2)])
    b = perm_from_cycles(3, [(0, 1)])
    assert len(mulclose([a, b])) == 6
    assert mulclose([a, b], cap=5) is None


@st.composite
def block_groups(draw):
    """1-4 generators of degree 5-9 that preserve one split of the points
    into two blocks of at most five, so the closure lies in a conjugate of
    S_m x S_(n-m) and stays small, and a few random permutations of the
    same degree (mostly non-members)."""
    n = draw(st.integers(5, 9))
    m = draw(st.integers(n - 5, 5))
    sigma = Perm(draw(st.permutations(range(n))))
    gens = []
    for _ in range(draw(st.integers(1, 4))):
        g = Perm(draw(st.permutations(range(m))) + draw(st.permutations(range(m, n))))
        gens.append(sigma * g * sigma.inv())
    probes = draw(st.lists(st.permutations(range(n)).map(Perm), min_size=1, max_size=10))
    return gens, probes


@given(block_groups())
@settings(max_examples=50, deadline=None)
def test_chain_order_matches_mulclose(case):
    gens, probes = case
    els = mulclose(gens)
    chain = StabilizerChain(len(gens[0]), gens)
    assert chain.order() == len(els)
    for e in els:
        assert chain.contains(e)
    for x in probes:
        assert chain.contains(x) == (x in els)


@pytest.mark.parametrize("spec", ["DELPERM:5:S4", "INV:15:16:klein", "PSL3_4"])
def test_chain_of_random_subgroups(spec):
    """Chains of subgroups generated by 1-3 random elements, and the chain
    grown one generator at a time by the generator sift of a group built
    from its element set."""
    G = build_group(spec)
    els = G.element_list()
    rng = random.Random(6)
    for _ in range(4):
        gens = rng.sample(els, rng.randint(1, 3))
        H = mulclose(gens)
        chain = StabilizerChain(G.degree, gens)
        assert chain.order() == len(H)
        for x in rng.sample(els, 100):
            assert chain.contains(x) == (x in H)
        sifted = Group.from_element_set(G.degree, H).generators
        assert Group(G.degree, sifted).order() == len(H)


# -- the two chain kernels ----------------------------------------------


def _kernel_parity(degree, gens, probes):
    """Both kernels, called directly, build the same chain from gens: the
    same base points, the same transversal rows in the same order and the
    same order, and they agree on the membership of every probe."""
    by_perms, by_rows = perm._PermChain(degree, gens), perm._RowChain(degree, gens)
    assert [lv.base for lv in by_perms.levels] == [lv.base for lv in by_rows.levels]
    for a, b in zip(by_perms.levels, by_rows.levels):
        assert np.array_equal(a.transversal_rows(), b.transversal_rows())
        assert np.array_equal(a.inverse_rows(), b.inverse_rows())
    assert by_perms.order() == by_rows.order()
    for x in probes:
        assert by_perms.contains(x) == by_rows.contains(x)
    return by_rows


def _word_elements(gens, rng, k):
    """k elements of the group generated by gens, as random words."""
    return [math.prod(rng.choices(gens, k=rng.randint(1, 12)), start=identity(len(gens[0]))) for _ in range(k)]


def _probes(degree, gens, rng):
    """Members of the group generated by gens (random words) and, mostly,
    non-members: random permutations, and members times a random
    transposition."""
    members = _word_elements(gens, rng, 20)
    strays = [Perm(rng.sample(range(degree), degree)) for _ in range(10)]
    for g in members[:10]:
        a, b = rng.sample(range(degree), 2)
        strays.append(g * perm_from_cycles(degree, [(a, b)]))
    return members, strays


WIDE_SPECS = [
    "C:48", "C:64", "INV:5:8:cyclic", "INV:5:8:klein", "INV:9:8:cyclic", "INV:15:8:klein",
    "INV:3:16:cyclic", "INV:5:16:klein", "INV:9:16:cyclic", "INV:9:16:klein", "INV:15:16:cyclic",
    "INV:15:16:klein", "DELPERM:5:A4", "DELPERM:5:S4", "DELPERM:5:S4:sign", "DELPERM:7:A4",
    "DELPERM:7:S4", "DELPERM:7:S4:sign",
]  # every catalogue spec of degree >= 40


@pytest.mark.parametrize("spec", WIDE_SPECS)
def test_kernels_build_the_same_chain(spec):
    G = build_group(spec)
    assert G.degree >= 40
    members, strays = _probes(G.degree, G.generators, random.Random(spec))
    chain = _kernel_parity(G.degree, G.generators, members + strays)
    assert chain.order() == G.order()
    assert all(chain.contains(x) for x in members)
    assert not any(chain.contains(x) for x in strays[:10])


def _left_regular_s5():
    S5 = build_group("S:5")
    els = S5.element_list()
    index = {x: i for i, x in enumerate(els)}
    return [Perm(index[s * x] for x in els) for s in S5.generators]


@st.composite
def wide_subgroups(draw):
    """1-3 random elements (words in the generators) of a group of degree
    120-343, and probes of the same degree."""
    spec = draw(st.sampled_from(["INV:15:16:klein", "DELPERM:5:S4", "DELPERM:7:A4", "S:5 left-regular"]))
    gens = _left_regular_s5() if spec == "S:5 left-regular" else list(build_group(spec).generators)
    rng = random.Random(draw(st.integers(0, 2**32)))
    return spec, _word_elements(gens, rng, draw(st.integers(1, 3))), rng


@given(wide_subgroups())
@settings(max_examples=12, deadline=None)
def test_kernels_agree_on_random_subgroups(case):
    spec, gens, rng = case
    degree = len(gens[0])
    members, strays = _probes(degree, gens, rng)
    chain = _kernel_parity(degree, gens, members + strays)
    assert all(chain.contains(x) for x in members)
    if chain.order() <= 1000:
        assert chain.order() == len(mulclose(gens))


def test_chain_picks_its_kernel_by_degree():
    assert type(StabilizerChain(perm.ROWS_MIN_DEGREE - 1, [])) is perm._PermChain
    assert type(StabilizerChain(perm.ROWS_MIN_DEGREE, [])) is perm._RowChain


def test_degrees_one_and_two():
    e1 = identity(1)
    assert e1 * e1 == e1 and e1.is_identity()
    assert list(mulclose([e1])) == [e1]
    e2, t = identity(2), Perm((1, 0))
    assert t * t == e2 and t * e2 == t and e2 * t == t
    assert e2.is_identity() and not t.is_identity()
    assert list(mulclose([t])) == [e2, t]
    assert list(mulclose([e2])) == [e2]


def _reference_mulclose(gens, cap):
    """mulclose as it ran before its bytes kernel: the same breadth-first
    walk, every product a ``Perm.__mul__`` call."""
    one = identity(len(gens[0]))
    els, frontier = {one: None}, [one]
    while frontier:
        new = []
        for b in frontier:
            for a in gens:
                c = a * b
                if c not in els:
                    els[c] = None
                    new.append(c)
                    if len(els) > cap:
                        return None
        frontier = new
    return els


def _assert_mulclose_matches_reference(gens, caps):
    """Same keys in the same order, all ``Perm`` tuples led by the shared
    identity, and None at the same caps."""
    for cap in caps:
        want, got = _reference_mulclose(gens, cap), mulclose(gens, cap=cap)
        if want is None:
            assert got is None, cap
            continue
        assert list(got) == list(want)
        assert all(type(g) is Perm for g in got)
        assert next(iter(got)) is identity(len(gens[0]))


def _dihedral_gens(n):
    return [Perm(tuple(range(1, n)) + (0,)), Perm(tuple((n - i) % n for i in range(n)))]


@pytest.mark.parametrize(
    "gens",
    [
        [perm_from_cycles(4, [(0, 1, 2, 3)]), perm_from_cycles(4, [(0, 1)])],
        [perm_from_cycles(12, [tuple(range(12))])],
        _dihedral_gens(256),  # the bytes kernel's largest degree
        _dihedral_gens(257),  # the first on Perm tuples
    ],
    ids=["S4", "C12", "degree-256", "degree-257"],
)
def test_mulclose_matches_the_reference_walk(gens, monkeypatch):
    n = len(_reference_mulclose(gens, math.inf))
    _assert_mulclose_matches_reference(gens, [math.inf, n, n - 1, 1, n // 2])
    assert list(mulclose(gens)) == list(_reference_mulclose(gens, math.inf))
    monkeypatch.setenv("OORTLAB_ENUM_CAP", str(n))
    assert len(mulclose(gens)) == n
    monkeypatch.setenv("OORTLAB_ENUM_CAP", str(n - 1))
    with pytest.raises(CapExceeded):
        mulclose(gens)


@st.composite
def small_generating_sets(draw):
    n = draw(st.integers(1, 9))
    return [Perm(draw(st.permutations(range(n)))) for _ in range(draw(st.integers(1, 3)))]


@given(small_generating_sets(), st.integers(1, 3000))
@settings(max_examples=60, deadline=None)
def test_mulclose_matches_the_reference_walk_on_random_generators(gens, cap):
    _assert_mulclose_matches_reference(gens, [cap, 3000])


def test_mulclose_rejects_mixed_degrees():
    with pytest.raises(DegreeMismatch):
        mulclose([identity(4), perm_from_cycles(5, [(0, 1)])])
    with pytest.raises(DegreeMismatch):
        mulclose([perm_from_cycles(4, [(0, 1)]), perm_from_cycles(5, [(0, 1)])], cap=1)


def test_group_membership_and_enumeration():
    G = Group(4, [perm_from_cycles(4, [(0, 1, 2, 3)]), perm_from_cycles(4, [(0, 1)])])
    assert G.order() == 24
    assert len(G.element_list()) == 24
    assert G.contains(perm_from_cycles(4, [(1, 3)]))
    H = Group(4, [perm_from_cycles(4, [(0, 1, 2, 3)])])
    with pytest.raises(NonMember):
        H.subgroup([perm_from_cycles(4, [(0, 1)])])


def test_from_element_set_round_trip():
    G = Group(5, [perm_from_cycles(5, [(0, 1, 2, 3, 4)]), perm_from_cycles(5, [(0, 1)])])
    H = Group.from_element_set(5, G.element_set())
    assert H.order() == 120
    assert H.element_set() == G.element_set()
    assert len(H.generators) <= 4


def test_enum_cap(monkeypatch):
    monkeypatch.setenv("OORTLAB_ENUM_CAP", "10")
    G = Group(4, [perm_from_cycles(4, [(0, 1, 2, 3)]), perm_from_cycles(4, [(0, 1)])])
    with pytest.raises(CapExceeded):
        G.element_list()


def test_enum_cap_before_the_store(monkeypatch):
    """A group enumerated through its store hits the cap before any row
    or table is built."""
    G = build_group("A:7")
    assert G.order() >= KEYED_MIN_ORDER
    monkeypatch.setenv("OORTLAB_ENUM_CAP", "1000")
    monkeypatch.setattr(perm, "_enumerate", lambda *a: pytest.fail("store built past the cap"))
    with pytest.raises(CapExceeded):
        G.element_list()
    assert G._store is None and G._element_list is None


def _s4():
    return Group(4, [perm_from_cycles(4, [(0, 1, 2, 3)]), perm_from_cycles(4, [(0, 1)])])


@pytest.fixture
def no_chain(monkeypatch):
    """Fails the test if a stabilizer chain is built; records each
    mulclose call's cap and whether it finished."""
    calls = []
    closure = perm.mulclose

    def recording(gens, cap=None):
        els = closure(gens, cap)
        calls.append((cap, els is not None))
        return els

    monkeypatch.setattr(perm, "mulclose", recording)
    monkeypatch.setattr(perm, "StabilizerChain", lambda *a: pytest.fail("chain built"))
    return calls


def test_has_order_lists_a_small_group_without_a_chain(no_chain):
    G = _s4()
    assert G.has_order(24)
    assert no_chain == [(24, True)]
    assert G.order() == 24 and G._chain is None
    assert G.element_list() == list(mulclose(G.generators))
    assert G.element_set() == frozenset(G.element_list())
    assert G.contains(perm_from_cycles(4, [(1, 3)]))


def test_has_order_stops_past_n_on_too_large_a_set(no_chain, monkeypatch):
    """mulclose with cap n returns None once it holds n + 1 elements; the
    order stays unknown, and only then does a chain read it."""
    G = _s4()
    assert not G.has_order(12)
    assert no_chain == [(12, False)]
    assert G._order is None and G._element_list is None and G._chain is None
    monkeypatch.undo()
    assert G.order() == 24


def test_has_order_keeps_the_listing_of_too_small_a_set(no_chain):
    G = Group(4, [perm_from_cycles(4, [(0, 1, 2, 3)])])
    assert not G.has_order(8)
    assert no_chain == [(8, True)]
    assert G.order() == 4 and G._chain is None and len(G.element_list()) == 4


@pytest.mark.parametrize("cap, listed", [(None, False), ("23", False), ("24", True)])
def test_has_order_leaves_large_orders_and_the_cap_to_the_chain(monkeypatch, cap, listed):
    """n at or past KEYED_MIN_ORDER, or past ENUM_CAP, is decided by the
    chain, and KEYED_MIN_ORDER is read from perm at call time."""
    if cap is None:
        monkeypatch.setattr(perm, "KEYED_MIN_ORDER", 24)
    else:
        monkeypatch.setenv("OORTLAB_ENUM_CAP", cap)
    G = _s4()
    assert G.has_order(24)
    assert (G._chain is None) == listed and (G._element_list is not None) == listed


def test_has_order_reads_a_known_order(no_chain):
    assert Group(4, []).has_order(1) and not Group(4, []).has_order(2)
    H = Group.from_element_set(4, mulclose(_s4().generators))
    no_chain.clear()
    assert H.has_order(24) and not H.has_order(12)
    assert no_chain == []


STORE_SPECS = ["C:2", "S:4", "A:7", "PGL2:9", "DELPERM:5:S4", "INV:15:16:klein", "PSL3_4"]


@pytest.mark.parametrize("spec", STORE_SPECS)
def test_element_list_is_mulclose_order(spec):
    """Enumeration keeps mulclose's breadth-first order on both sides of
    KEYED_MIN_ORDER, for the group and for subgroups generated by 1-3
    random elements."""
    G = build_group(spec)
    els = G.element_list()
    assert els == list(mulclose(G.generators))
    rng = random.Random(7)
    for _ in range(3):
        H = Group(G.degree, rng.choices(els, k=rng.randint(1, 3)))
        assert H.element_list() == list(mulclose(H.generators or [H.identity()]))


@pytest.mark.parametrize("spec", ["C:1", "C:2", "S:4", "D:10"])
def test_store_enumeration_of_small_groups(monkeypatch, spec):
    """The store's enumeration also holds below the size rule, down to
    the trivial group with its empty base."""
    monkeypatch.setattr(perm, "KEYED_MIN_ORDER", 1)
    G = build_group(spec)
    assert G.element_list() == list(mulclose(G.generators or [G.identity()]))
    assert G._store is not None


@pytest.mark.parametrize("spec", ["S:4", "A:7", "DELPERM:5:S4"])
def test_store_rows_keys_and_ids(spec):
    """Row k is element k; looking up each element's key gives its id."""
    G = build_group(spec)
    els = G.element_list()
    S = G.store()
    assert [Perm(r) for r in S.E.tolist()] == els
    assert S.lookup(S.key(S.base_images(els))).tolist() == list(range(len(els)))
    assert (S.keys[1:] > S.keys[:-1]).all()


def _v4_in_s4():
    s4 = build_group("S:4")
    return s4, s4.subgroup([perm_from_cycles(4, [(0, 1), (2, 3)]), perm_from_cycles(4, [(0, 2), (1, 3)])])


def _enumerated(spec, kernel):
    G = build_group(spec)
    assert G.order() >= KEYED_MIN_ORDER and type(G.chain) is kernel
    return G


def _cut(G):
    """The centralizer of G's last generator, cut from G's store by ids."""
    return centralizer(G, Group(G.degree, G.generators[-1:]))


def _from_shuffled_set():
    els = list(mulclose(build_group("S:4").generators))
    random.Random(2).shuffle(els)
    return Group.from_element_set(4, els)


STORE_BUILDS = {
    "listed": lambda: build_group("S:4"),
    "perm-chain": lambda: _enumerated("PSL2:13", perm._PermChain),
    "row-chain": lambda: _enumerated("DELPERM:5:A4", perm._RowChain),
    "cut-from-listed": lambda: _cut(build_group("S:4")),
    "cut-from-unlisted": lambda: _cut(_enumerated("PSL2:13", perm._PermChain)),
    "from-element-set": _from_shuffled_set,
    "quotient": lambda: quotient_by(*_v4_in_s4())[0],
    "normal-closure": lambda: normal_closure(build_group("S:5"), [perm_from_cycles(5, [(0, 1, 2)])]),
    "trivial": lambda: Group(5, []),
}


@pytest.mark.parametrize("build", STORE_BUILDS.values(), ids=STORE_BUILDS.keys())
def test_the_identity_is_id_0_of_every_store(build):
    """Every way a store is built puts the identity at id 0, which the
    coset heads, the masks that start the closures and the Klein fours
    read without looking it up."""
    G = build()
    S = G.store()
    assert Perm(S.E[0].tolist()).is_identity()
    assert S.lookup(S.key(S.base)) == 0


def _brute_force_class_labels(G: Group) -> list[int]:
    """The least id of {g x g^-1 : g in G} for every id x, one class at a
    time from Perm products."""
    els = G.element_list()
    index = {x: i for i, x in enumerate(els)}
    labels = [None] * len(els)
    for i, x in enumerate(els):
        if labels[i] is None:
            cls = [index[g * x * g.inv()] for g in els]
            for j in cls:
                labels[j] = min(cls)
    return labels


@pytest.mark.parametrize(
    "spec",
    ["C:1", "S:4", "D:10", "PGL2:5", "INV:15:8:klein", "PSL2:13", "PSL2:8", "PSL2:9", "PGL2:9", "DELPERM:5:A4"],
)
def test_class_labels_match_brute_force(spec):
    """One conjugation table per generator of G, however many there are."""
    G = build_group(spec)
    assert len(G.conjugation_tables()) == len(G.generators)
    assert G.class_labels().tolist() == _brute_force_class_labels(G)


def test_class_labels_of_groups_cut_by_ids_and_built_from_element_sets():
    from oortlab.analysis import normalizer, sylow

    G = build_group("PSL2:13")
    cut = normalizer(G, sylow(G, 3))  # dihedral of order 12, cut by ids
    listed = sylow(build_group("S:4"), 2)  # D8, from its element set
    for H in (cut, listed):
        assert len(H.generators) >= 2
        assert H.class_labels().tolist() == _brute_force_class_labels(H)


def test_keys_past_int64():
    """When degree**len(base) overflows int64 the keys are the bytes of
    the int32 base images, a fixed-width void type, and lookups still
    work: C_2^17 on 34 points."""
    gens = [perm_from_cycles(34, [(2 * i, 2 * i + 1)]) for i in range(17)]
    G = Group(34, gens)
    S = G.store()
    assert S.keys.dtype == np.dtype((np.void, 4 * 17))
    ids = random.Random(8).sample(range(G.order()), 50)
    sample = [Perm(S.E[i].tolist()) for i in ids]
    assert S.lookup(S.key(S.base_images(sample))).tolist() == ids


def test_quotient_by():
    s4 = Group(4, [perm_from_cycles(4, [(0, 1, 2, 3)]), perm_from_cycles(4, [(0, 1)])])
    v4 = s4.subgroup(
        [perm_from_cycles(4, [(0, 1), (2, 3)]), perm_from_cycles(4, [(0, 2), (1, 3)])]
    )
    Q, coset = quotient_by(s4, v4)
    assert Q.order() * v4.order() == s4.order()
    S = s4.store()
    # kernel of the map is exactly v4
    assert np.flatnonzero(coset == 0).tolist() == sorted(S.ids_of(v4.element_list()).tolist())
    rep_ids = np.unique(coset, return_index=True)[1]  # the least id of each coset

    def image(g):
        return Perm(coset[S.mul(S.ids_of([g]), rep_ids)].tolist())

    a, b = s4.element_list()[5], s4.element_list()[9]
    assert image(a * b) == image(a) * image(b)
    assert [image(g) for g in s4.generators] == list(Q.generators)


def test_quotient_requires_normal():
    s3 = Group(3, [perm_from_cycles(3, [(0, 1, 2)]), perm_from_cycles(3, [(0, 1)])])
    c2 = s3.subgroup([perm_from_cycles(3, [(0, 1)])])
    with pytest.raises(NotNormal):
        quotient_by(s3, c2)


def _is_normal_by_perms(G: Group, H: Group) -> bool:
    """is_normal as it conjugated H's generators by G's as `Perm`s."""
    hset = H.element_set()
    for g in G.generators:
        ginv = g.inv()
        if any(g * h * ginv not in hset for h in H.generators):
            return False
    return True


def _quotient_by_perms(G: Group, N: Group):
    """quotient_by as it scanned G's `Perm` list: the generators of the
    coset action, each coset's first element, and every element's coset."""
    nset = N.element_set()
    reps, coset_index = [], {}
    for g in G.element_list():
        if g in coset_index:
            continue
        reps.append(g)
        for n in nset:
            coset_index[g * n] = len(reps) - 1
    gens = [Perm(coset_index[a * r] for r in reps) for a in G.generators]
    return Group(len(reps), gens, check=False), reps, coset_index


def _normal_subgroups(G: Group) -> list:
    """G, 1, the centre, the derived subgroup, the minimal normal subgroups
    and O_pi for each prime and for its complement."""
    from oortlab.analysis import center, derived_subgroup, minimal_normal_subgroups, o_pi
    from oortlab.gf import factorize

    primes = set(factorize(G.order()))
    cores = [o_pi(G, pi) for p in sorted(primes) for pi in ({p}, primes - {p})]
    return [G, Group(G.degree, []), center(G), derived_subgroup(G), *minimal_normal_subgroups(G), *cores]


def _assert_quotients_match_the_perm_reference(G: Group):
    """is_normal on G's normal subgroups and on subgroups generated by
    random elements; quotient_by on every normal one of index at most 200:
    the same generators of G/N, coset representatives and coset of every
    element."""
    rng = random.Random(9)
    els = G.element_list()
    randoms = [Group(G.degree, rng.choices(els, k=rng.randint(1, 2))) for _ in range(4)]
    for N in _normal_subgroups(G) + randoms:
        normal = is_normal(G, N)
        assert normal == _is_normal_by_perms(G, N)
        if not normal:
            with pytest.raises(NotNormal):
                quotient_by(G, N)
            continue
        if G.order() // N.order() > 200:  # a coset action of high degree builds a slow chain
            continue
        Q, coset = quotient_by(G, N)
        Q_ref, reps, coset_index = _quotient_by_perms(G, N)
        assert Q.generators == Q_ref.generators and Q.order() == Q_ref.order()
        assert [els[i] for i in np.unique(coset, return_index=True)[1].tolist()] == reps
        assert coset.tolist() == [coset_index[g] for g in els]


@pytest.mark.parametrize("spec", ["S:4", "D:36", "PGL2:7", "INV:9:16:cyclic", "INV:15:8:klein", "DELPERM:5:A4"])
def test_quotients_match_the_perm_reference(spec):
    _assert_quotients_match_the_perm_reference(build_group(spec))


@st.composite
def random_subgroups(draw):
    """A subgroup generated by 1-3 elements of a catalogue group, drawn by
    position in its element list."""
    G = build_group(draw(st.sampled_from(["S:5", "D:36", "PGL2:7", "INV:15:16:cyclic"])))
    picks = draw(st.lists(st.integers(0, G.order() - 1), min_size=1, max_size=3))
    return Group(G.degree, [G.element_list()[i] for i in picks])


@given(random_subgroups())
@settings(max_examples=15, deadline=None, derandomize=True)
def test_quotients_match_the_perm_reference_on_random_subgroups(H):
    _assert_quotients_match_the_perm_reference(H)


def test_quotient_map_rejects_non_members_and_non_subgroups():
    """A transposition is not in A4, so the group it generates is not a
    normal subgroup of A4 and A4 has no quotient by it; nor is any other
    group not inside G, such as C4 = <(0 1 2 3)> beside A4 or S3 beside A7,
    whatever G's tables would make of the ids that lookup gives its
    elements."""
    a4 = build_group("A:4")
    v4 = a4.subgroup([perm_from_cycles(4, [(0, 1), (2, 3)]), perm_from_cycles(4, [(0, 2), (1, 3)])])
    t = Group(4, [perm_from_cycles(4, [(0, 1)])])
    assert not is_normal(a4, t)
    with pytest.raises(NotNormal):
        quotient_by(a4, t)
    assert is_normal(a4, v4)
    assert not is_normal(a4, Group(4, [perm_from_cycles(4, [(0, 1, 2, 3)])]))
    assert not is_normal(a4, build_group("S:4"))  # normalized by A4, but not inside it
    a7 = build_group("A:7")
    s3 = Group(7, [perm_from_cycles(7, [(0, 1)]), perm_from_cycles(7, [(0, 1, 2)])])
    assert not is_normal(a7, s3)
    with pytest.raises(NotNormal):
        quotient_by(a7, s3)


# -- subgroups cut from ids, sorted by their own rows --------------------


def _sift_generators_reference(degree, els):
    """The sift of a sorted element list as `Group.generators` ran it when
    every subgroup cut from ids held its `Perm` list: each element not yet
    in the chain becomes a generator until the chain has len(els)."""
    chain = perm._PermChain(degree, [])
    gens = []
    for e in els:
        if chain.order() == len(els):
            break
        if not chain.contains(e):
            gens.append(e)
            chain._add(e, 0)
    return tuple(gens)


@pytest.mark.parametrize("listed", [False, True], ids=["store-only", "listed"])
@pytest.mark.parametrize("spec", ["S:4", "D:10", "PGL2:5", "A:7", "PSL2:13", "DELPERM:5:A4", "INV:15:16:klein"])
def test_subgroup_of_ids_sorts_and_sifts_as_sorted_perms(spec, listed):
    """On both sides of KEYED_MIN_ORDER, and whether or not G has listed
    its elements: the cut lists its elements as sorted() lists them and
    sifts the generators the `Perm` sift gives (through the row kernel's
    batched sift on INV:15:16:klein), and cutting a store-only G lists
    nothing of G."""
    G, sampler = build_group(spec), build_group(spec)
    if listed:
        G.element_list()
    rng = random.Random(21)
    els = sampler.element_list()
    subgroups = [Group(G.degree, rng.choices(els, k=rng.randint(1, 3))) for _ in range(4)]
    for H in subgroups + [sampler]:
        ids = G.store().ids_of(H.element_list()).tolist()
        rng.shuffle(ids)
        cut = G.subgroup_of_ids(np.array(ids))
        expected = sorted(H.element_list())
        assert cut.element_list() == expected
        assert cut.generators == _sift_generators_reference(G.degree, expected)
    assert (G._element_list is None) == (not listed and G.order() >= KEYED_MIN_ORDER)


def test_subgroup_of_ids_sorts_rows_first_point_first():
    """The powers of a 300-cycle sort by their first point, not their last,
    and an image of 256 sorts after one of 1, as integers do (not as the
    bytes of a little-endian int32 do)."""
    cycle = perm_from_cycles(300, [range(300)])
    G = Group(300, [cycle])
    cut = G.subgroup_of_ids(np.arange(G.order()))
    assert cut.element_list() == sorted(G.element_list())


@pytest.mark.parametrize("spec", ["S:4", "A:7", "PSL2:13", "DELPERM:5:A4", "INV:15:16:klein"])
def test_inverse_base_matches_the_comparison(spec):
    """The inverse base images, from the chain's inverse representatives
    on an enumerated G and by comparison on a cut, are those of the full
    inverse rows scattered from each row."""
    from oortlab.analysis import normalizer, sylow

    G = build_group(spec)
    for S in (G.store(), normalizer(G, sylow(G, 2)).store()):
        n, d = S.E.shape
        inverse = np.empty_like(S.E)
        inverse[np.arange(n)[:, None], S.E] = np.arange(d)
        assert np.array_equal(S.inverse_base(), inverse[:, S.base])

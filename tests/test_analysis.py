"""Subgroup machinery tests, anchored to hand-checked values."""

import random

import numpy as np
import pytest

from oortlab.analysis import (
    _class_reps,
    _p_element_part,
    center,
    centralizer,
    chief_series_within,
    conjugacy_class,
    derived_series,
    derived_subgroup,
    factor_action,
    fixed_space_dim,
    is_abelian,
    is_nilpotent,
    is_normal,
    is_p_group,
    is_perfect,
    is_simple,
    is_solvable,
    minimal_normal_subgroups,
    normal_closure,
    normalizer,
    o_p,
    o_p_prime,
    o_pi,
    omega1,
    p_part,
    subgroups_of_p_group,
    sylow,
)
from oortlab.construct import build_group
from oortlab.errors import NonMember, NonSubgroup, NotPGroup
from oortlab.gf import factorize
from oortlab.perm import Group, mulclose, perm_from_cycles


S4 = build_group("S:4")


def test_centralizer_of_klein_in_s4():
    v4 = S4.subgroup(
        [perm_from_cycles(4, [(0, 1), (2, 3)]), perm_from_cycles(4, [(0, 2), (1, 3)])]
    )
    assert centralizer(S4, v4).order() == 4


def test_normalizer_of_c3_in_s4():
    c3 = S4.subgroup([perm_from_cycles(4, [(0, 1, 2)])])
    assert normalizer(S4, c3).order() == 6
    a4 = S4.subgroup([x for x in S4.element_list() if x.order() == 3][:2])
    with pytest.raises(NonSubgroup):
        normalizer(a4, S4.subgroup([perm_from_cycles(4, [(0, 1)])]))


def test_center_values():
    assert center(S4).is_trivial()
    assert center(build_group("D:8")).order() == 2
    # both inversion extensions keep the dihedral top's central involution
    assert center(build_group("INV:3:8:cyclic")).order() == 2
    assert center(build_group("INV:3:8:klein")).order() == 2


def test_conjugacy_class_sizes():
    assert len(conjugacy_class(S4, perm_from_cycles(4, [(0, 1)]))) == 6
    assert len(conjugacy_class(S4, perm_from_cycles(4, [(0, 1, 2, 3)]))) == 6


@pytest.mark.parametrize(
    "spec,cycles",
    [("A:4", [(0, 1)]), ("A:7", [(0, 1)]), ("A:7", [(5, 6)])],  # A:7 is past KEYED_MIN_ORDER
)
def test_conjugacy_class_of_a_non_member(spec, cycles):
    G = build_group(spec)
    with pytest.raises(NonMember):
        conjugacy_class(G, perm_from_cycles(G.degree, cycles))


@pytest.mark.parametrize("spec", ["S:4", "D:36", "PGL2:5", "A:7", "DELPERM:5:A4"])
def test_class_reps_are_first_in_element_list_order(spec):
    """One representative per class, each the first element of its class
    in G's element list (breadth-first, not sorted, in these groups)."""
    G = build_group(spec)
    seen, reps = set(), []
    for x in G.element_list():
        if x not in seen:
            reps.append(x)
            seen |= {g * x * g.inv() for g in G.element_list()}
    assert _class_reps(G) == reps


def test_normal_closure():
    a4 = build_group("A:4")
    assert normal_closure(a4, [perm_from_cycles(4, [(0, 1, 2)])]).order() == 12
    assert normal_closure(a4, [perm_from_cycles(4, [(0, 1), (2, 3)])]).order() == 4
    assert normal_closure(a4, [perm_from_cycles(4, [(0, 1, 2)])], cap=5) is None


def test_sylow_orders():
    assert sylow(S4, 2).order() == 8
    assert sylow(S4, 3).order() == 3
    assert sylow(build_group("D:18"), 3).order() == 9
    assert sylow(build_group("PSL2:7"), 7).order() == 7
    assert sylow(S4, 5).is_trivial()


# on both sides of KEYED_MIN_ORDER
KEYED_SPECS = ["DELPERM:5:S4", "PSL2:13", "INV:15:16:klein", "A:7", "D:10", "S:4"]


def _random_subgroups(G: Group, seed: int) -> list[Group]:
    """Three subgroups generated by 1-3 random elements of G."""
    els = G.element_list()
    rng = random.Random(seed)
    return [Group(G.degree, rng.choices(els, k=rng.randint(1, 3))) for _ in range(3)]


@pytest.mark.parametrize("spec", KEYED_SPECS)
def test_keyed_filters_match_brute_force(spec):
    G = build_group(spec)
    for H in _random_subgroups(G, 11) + [sylow(G, 2), Group(G.degree, [])]:
        hset = H.element_set()
        N = {g for g in G.element_list() if all(g * h * g.inv() in hset for h in H.generators)}
        C = {g for g in G.element_list() if all(g * h == h * g for h in H.generators)}
        assert normalizer(G, H).element_set() == N
        assert centralizer(G, H).element_set() == C


def test_centralizer_needs_a_subgroup():
    a4 = build_group("A:4")
    with pytest.raises(NonSubgroup):
        centralizer(a4, S4.subgroup([perm_from_cycles(4, [(0, 1)])]))


@pytest.mark.parametrize("spec", KEYED_SPECS)
def test_store_orders(spec):
    G = build_group(spec)
    els = G.element_list()
    assert G.store().orders(np.arange(len(els))).tolist() == [x.order() for x in els]
    ids = np.array(random.Random(12).sample(range(len(els)), min(len(els), 20)))
    assert G.store().orders(ids).tolist() == [els[i].order() for i in ids]


def _sylow_by_perm_order(G: Group, p: int) -> frozenset:
    """The Sylow subgroup grown with every order taken from Perm.order:
    the first element of G whose order p divides seeds it, and the first
    element of each normalizer, in sorted order, with a p-part outside
    adds its p-part."""
    target = p_part(G.order(), {p})
    if target == 1:
        return frozenset([G.identity()])
    seed = next(x for x in G.element_list() if x.order() % p == 0)
    gens = [_p_element_part(seed, seed.order(), p)]
    els = mulclose(gens)
    while len(els) < target:
        N = normalizer(G, Group.from_element_set(G.degree, els))
        parts = (_p_element_part(y, y.order(), p) for y in N.element_list() if y.order() % p == 0)
        gens.append(next(y for y in parts if y not in els))
        els = mulclose(gens)
    return frozenset(els)


@pytest.mark.parametrize("spec", KEYED_SPECS)
def test_sylow_keeps_its_choices(spec):
    G = build_group(spec)
    for p in (2, 3, 5, 7):
        assert sylow(G, p).element_set() == _sylow_by_perm_order(G, p), p


def test_o_pi_values():
    d18 = build_group("D:18")
    assert o_p(d18, 3).order() == 9
    assert o_p_prime(d18, 3).is_trivial()
    assert o_p_prime(S4, 2).is_trivial()
    assert o_p_prime(S4, 3).order() == 4  # the Klein four group
    assert o_p_prime(build_group("INV:3:8:klein"), 2).order() == 3
    assert o_pi(build_group("C:12"), {2, 3}).order() == 12


def _o_pi_by_joins(G: Group, pi) -> frozenset:
    """O_pi(G) as the join of the normal closures that are pi-groups,
    scanned over G's element list with classes found from Perm products
    and each join closed by mulclose over the closures' generators, as
    o_pi computed it before it scanned class labels."""
    pi = frozenset(pi)
    cap = p_part(G.order(), pi)
    core = {G.identity()}
    core_gens = []
    decided = {G.identity()}
    for x in G.element_list():
        if len(core) == cap:
            break
        if x in decided or x in core:
            continue
        if any(p not in pi for p in factorize(x.order())):
            continue
        decided |= {g * x * g.inv() for g in G.element_list()}
        nc = normal_closure(G, [x], cap=cap)
        if nc is None or any(p not in pi for p in factorize(nc.order())):
            continue
        core_gens += nc.generators
        core = mulclose(core_gens, cap=cap)
    return frozenset(core)


def _assert_o_pi_matches_joins(G: Group):
    for p in (2, 3, 5, 7):
        for pi in ({p}, set(factorize(G.order())) - {p}):
            assert o_pi(G, pi).element_set() == _o_pi_by_joins(G, pi), (p, pi)


# in S3 x C4 the normal closure of a transposition, S3, is no larger than
# the 2-part of the order but is not a 2-group
@pytest.mark.parametrize(
    "spec",
    ["S:4", "D:18", "D:36", "C:15", "INV:3:8:klein", "PGL2:5", "INV:15:8:klein", "DELPERM:5:A4", "PROD:(S:3)x(C:4)"],
)
def test_o_pi_matches_the_join_of_closures(spec):
    _assert_o_pi_matches_joins(build_group(spec))


@pytest.mark.parametrize("spec", ["S:4", "D:36", "A:7", "DELPERM:5:S4"])
def test_o_pi_matches_the_join_of_closures_on_random_subgroups(spec):
    for H in _random_subgroups(build_group(spec), 5):
        _assert_o_pi_matches_joins(H)


def test_o_pi_conjugation_invariant():
    g = S4.element_list()[7]
    core = o_p_prime(S4, 3)
    conj = {g * x * g.inv() for x in core.element_list()}
    assert conj == set(core.element_list())


def test_omega1():
    assert omega1(build_group("Q:8"), 2).order() == 2
    assert omega1(build_group("D:8"), 2).order() == 8
    assert omega1(build_group("C:9"), 3).order() == 3
    with pytest.raises(NotPGroup):
        omega1(build_group("C:6"), 2)


def test_subgroup_counts_of_p_groups():
    assert len(subgroups_of_p_group(build_group("D:8"), 2)) == 10
    assert len(subgroups_of_p_group(build_group("Q:8"), 2)) == 6
    assert len(subgroups_of_p_group(build_group("C:16"), 2)) == 5
    v4 = build_group("PROD:(C:2)x(C:2)")
    assert len(subgroups_of_p_group(v4, 2)) == 5


def test_subgroups_are_actual_subgroups():
    d16 = build_group("D:16")
    subs = subgroups_of_p_group(d16, 2)
    dset = d16.element_set()
    for H in subs:
        assert H.element_set() <= dset
        assert d16.order() % H.order() == 0
    assert len({H.element_set() for H in subs}) == len(subs)


def test_derived_and_predicates():
    assert derived_subgroup(S4).order() == 12
    assert [g.order() for g in derived_series(S4)] == [24, 12, 4, 1]
    assert is_solvable(S4)
    assert not is_nilpotent(S4)
    assert is_nilpotent(build_group("D:8"))
    psl = build_group("PSL2:5")
    assert is_perfect(psl) and not is_solvable(psl)
    assert is_abelian(build_group("C:12"))


def test_minimal_normal_subgroups():
    mns = minimal_normal_subgroups(S4)
    assert [m.order() for m in mns] == [4]
    mns6 = minimal_normal_subgroups(build_group("C:6"))
    assert sorted(m.order() for m in mns6) == [2, 3]
    assert is_simple(build_group("A:5"))
    assert not is_simple(build_group("A:4"))
    assert not is_simple(build_group("C:1"))


def test_p_part():
    assert p_part(360, {2}) == 8
    assert p_part(360, {2, 3}) == 72
    assert p_part(7, {2}) == 1


def test_is_normal():
    a4 = build_group("A:4")
    v4 = a4.subgroup(
        [perm_from_cycles(4, [(0, 1), (2, 3)]), perm_from_cycles(4, [(0, 2), (1, 3)])]
    )
    c3 = a4.subgroup([perm_from_cycles(4, [(0, 1, 2)])])
    assert is_normal(a4, v4)
    assert not is_normal(a4, c3)


# -- chief factors ------------------------------------------------------


def test_chief_series_of_module_construction():
    G = build_group("DELPERM:5:S4:sign")
    R = o_p_prime(G, 2)
    assert R.order() == 125
    series = chief_series_within(G, R)
    assert [(X.prime, X.rank) for X in series] == [(5, 3)]


def test_chief_series_of_mixed_core():
    G = build_group("INV:15:16:cyclic")
    R = o_p_prime(G, 2)
    assert R.order() == 15
    series = chief_series_within(G, R)
    assert sorted((X.prime, X.rank) for X in series) == [(3, 1), (5, 1)]


def test_factor_action_traces():
    G = build_group("DELPERM:5:S4:sign")
    R = o_p_prime(G, 2)
    X = chief_series_within(G, R)[0]
    P = sylow(G, 2)
    g4 = next(x for x in P.element_list() if x.order() == 4)
    mat, tr, tr_sym = factor_action(G, X, g4)
    assert tr == 1
    ident_mat, ident_tr, ident_sym = factor_action(G, X, G.identity())
    assert ident_tr == X.rank % X.prime  # identity has trace d
    assert np.array_equal(ident_mat, np.eye(3, dtype=np.int64))
    # homomorphism property on a few pairs
    for a, b in zip(G.random_elements(5, seed=1), G.random_elements(5, seed=2)):
        ma = factor_action(G, X, a)[0]
        mb = factor_action(G, X, b)[0]
        mab = factor_action(G, X, a * b)[0]
        assert np.array_equal(mab, (ma @ mb) % X.prime)


def test_untwisted_order4_trace_differs():
    G = build_group("DELPERM:5:S4")
    R = o_p_prime(G, 2)
    X = chief_series_within(G, R)[0]
    P = sylow(G, 2)
    g4 = next(x for x in P.element_list() if x.order() == 4)
    _, tr, tr_sym = factor_action(G, X, g4)
    assert tr == 4 and tr_sym == -1


def test_fixed_space_dim():
    m_id = np.eye(3, dtype=np.int64)
    assert fixed_space_dim([m_id], 5) == 3
    m_inv = (-m_id) % 5
    assert fixed_space_dim([m_inv], 5) == 0
    m_partial = np.diag([1, 1, 4]) % 5
    assert fixed_space_dim([m_partial], 5) == 2
    assert fixed_space_dim([m_partial, m_inv], 5) == 0

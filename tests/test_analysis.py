"""Subgroup machinery tests, anchored to hand-checked values."""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oortlab.analysis import (
    _class_reps,
    _subgroup_layers,
    _close,
    _minimal_normal_above,
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
    is_p_group,
    is_perfect,
    is_simple,
    is_solvable,
    lower_central_series,
    minimal_normal_subgroups,
    normal_closure,
    normalizer,
    o_p_prime,
    o_pi,
    p_part,
    subgroups_of_p_group,
    sylow,
)
from oortlab.cli import bundled_manifest_text, parse_manifest
from oortlab.construct import build_group
from oortlab.errors import CapExceeded, NonMember, NonSubgroup
from oortlab.gf import factorize
from oortlab.perm import Group, Perm, enum_cap, identity, is_normal, mulclose, perm_from_cycles


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


def _closure_of(G: Group, x):
    return normal_closure(G, [G.identity(), x])  # the identity is dropped first


def _chief_series_of_span(G: Group, x):
    return chief_series_within(G, Group(G.degree, [x]))


# A:7 is past KEYED_MIN_ORDER; ElementStore.lookup would map each of these
# permutations to some id of G
@pytest.mark.parametrize(
    "spec,cycles,call,error",
    [
        pytest.param("A:4", [(0, 1)], conjugacy_class, NonMember, id="A:4-cycles0"),
        pytest.param("A:7", [(0, 1)], conjugacy_class, NonMember, id="A:7-cycles1"),
        pytest.param("A:7", [(5, 6)], conjugacy_class, NonMember, id="A:7-cycles2"),
        pytest.param("A:4", [(0, 1)], _closure_of, NonMember, id="A:4-normal_closure"),
        pytest.param("A:7", [(0, 1)], _closure_of, NonMember, id="A:7-normal_closure"),
        pytest.param("A:4", [(0, 1)], _chief_series_of_span, NonSubgroup, id="A:4-chief_series"),
        pytest.param("A:7", [(5, 6)], _chief_series_of_span, NonSubgroup, id="A:7-chief_series"),
    ],
)
def test_conjugacy_class_of_a_non_member(spec, cycles, call, error):
    G = build_group(spec)
    with pytest.raises(error):
        call(G, perm_from_cycles(G.degree, cycles))


@pytest.mark.parametrize("spec", ["S:4", "D:36", "PGL2:5", "A:7", "DELPERM:5:A4"])
def test_class_reps_are_first_in_element_list_order(spec):
    """One representative id per class, each that of the first element of
    its class in G's element list (breadth-first, not sorted, in these
    groups)."""
    G = build_group(spec)
    assert [G.element_list()[i] for i in _class_reps(G)] == _class_reps_by_perms(G)


def _class_reps_by_perms(G: Group) -> list:
    """The first element of each class in G's element list, with classes
    found from Perm products."""
    seen, reps = set(), []
    for x in G.element_list():
        if x not in seen:
            reps.append(x)
            seen |= {g * x * g.inv() for g in G.element_list()}
    return reps


def test_normal_closure():
    a4 = build_group("A:4")
    assert normal_closure(a4, [perm_from_cycles(4, [(0, 1, 2)])]).order() == 12
    assert normal_closure(a4, [perm_from_cycles(4, [(0, 1), (2, 3)])]).order() == 4
    assert normal_closure(a4, [perm_from_cycles(4, [(0, 1, 2)])], cap=5) is None


def test_commutator_series_of_a_group_past_enum_cap(monkeypatch):
    """The derived and lower central series never list G, so they work on
    a G past ENUM_CAP whose terms fit: S3 x C400, of order 2400, has
    derived subgroup C3, and [G, C3] = C3."""
    monkeypatch.setenv("OORTLAB_ENUM_CAP", "1000")
    G = build_group("PROD:(S:3)x(C:400)")
    assert derived_subgroup(G).order() == 3
    assert [H.order() for H in lower_central_series(G)] == [2400, 3]
    assert [H.order() for H in derived_series(G)] == [2400, 3, 1]


def _normal_closure_by_perms(G: Group, gens, cap=None):
    """<gens^G> as an element set, or None past the cap, as normal_closure
    once computed it: mulclose over the generators and their conjugates by
    G's generators until conjugation adds nothing."""
    work = [x for x in gens if not x.is_identity()]
    if not work:
        return frozenset([G.identity()])
    pairs = [(g, g.inv()) for g in G.generators]
    while True:
        els = mulclose(work, cap=cap)
        if els is None:
            return None
        new = [c for w in work for g, ginv in pairs if (c := g * w * ginv) not in els]
        if not new:
            return frozenset(els)
        work.extend(new)


def _minimal_normal_by_perms(G: Group) -> list:
    """The element sets of the minimal normal subgroups, sorted, as
    minimal_normal_subgroups found them from the closures above."""
    reps = _class_reps_by_perms(G)[1:]
    found = {_normal_closure_by_perms(G, [x], G.order() // 2) for x in reps}
    found.discard(None)
    if not found:
        return [G.element_set()]
    return sorted((k for k in found if not any(o < k for o in found)), key=sorted)


def _chief_series_by_perms(G: Group, R: Group) -> list:
    """(order, prime, rank, upper element set) of each factor of the chief
    series, from the closures above: each step takes, among the minimal
    closures of the current term and one element of R outside it, the
    smallest and then the least sorted element list."""
    current, out = frozenset([G.identity()]), []
    reps = _class_reps_by_perms(G)
    while len(current) < R.order():
        outside = [x for x in reps if x not in current and R.contains(x)]
        found = {_normal_closure_by_perms(G, [x, *current]) for x in outside}
        minimal = [k for k in found if not any(o < k for o in found)]
        upper = min(minimal, key=lambda k: (len(k), sorted(k)))
        ((prime, rank),) = factorize(len(upper) // len(current)).items()
        out.append((prime**rank, prime, rank, upper))
        current = upper
    return out


def _assert_closures_match_perms(G: Group):
    """normal_closure, and _close from the identity over G's ids, against
    the reference; then the minimal normal subgroups."""
    reps = _class_reps_by_perms(G)
    pairs = [[reps[1], reps[-1]]] if len(reps) > 1 else []
    one, rep_ids, els = np.arange(G.order()) == 0, _class_reps(G), G.element_list()
    for gens in [[x] for x in reps[1:]] + pairs:
        want = _normal_closure_by_perms(G, gens)
        assert normal_closure(G, gens).element_set() == want
        assert normal_closure(G, gens, cap=len(want)).element_set() == want
        assert normal_closure(G, gens, cap=len(want) - 1) is None
        ids = G.store().ids_of(gens)
        mask = _close(G, ids, one, rep_ids, cap=len(want))
        assert {els[i] for i in np.flatnonzero(mask).tolist()} == want
        assert _close(G, ids, one, rep_ids, cap=len(want) - 1) is None
    got = [H.element_set() for H in minimal_normal_subgroups(G)]
    assert got == _minimal_normal_by_perms(G)


# S3 x C4 has two minimal normal subgroups, C3 and C2 (in C4)
CLOSURE_SPECS = ["S:4", "D:36", "PROD:(S:3)x(C:4)", "PGL2:5", "PSL2:13", "A:7", "DELPERM:5:A4"]


@pytest.mark.parametrize("spec", CLOSURE_SPECS)
def test_closures_match_the_perm_reference(spec):
    _assert_closures_match_perms(build_group(spec))


@pytest.mark.parametrize("spec", CLOSURE_SPECS)
def test_closures_match_the_perm_reference_on_random_subgroups(spec):
    for H in _random_subgroups(build_group(spec), 13):
        _assert_closures_match_perms(H)


@pytest.mark.parametrize("spec", ["D:36", "DELPERM:5:A4", "INV:15:8:klein"])
def test_chief_series_matches_the_perm_reference(spec):
    G = build_group(spec)
    R = o_p_prime(G, 2)
    got = [(X.order(), X.prime, X.rank, X.upper.element_set()) for X in chief_series_within(G, R)]
    assert got == _chief_series_by_perms(G, R)


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
    assert o_pi(d18, {3}).order() == 9
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


def _coset_key_reference(lower, h):
    """The least element of the coset h * lower, as ChiefFactor.coset_key
    named a coset when the factors ran on `Perm`s."""
    return min(h * n for n in lower.element_list())


def _build_chief_factor_reference(degree, lower, upper):
    """_build_chief_factor as it ran on `Perm`s: (prime, rank, basis,
    coordinates keyed by each coset's least element), the basis taken from
    upper's sorted element list."""
    n = upper.order() // lower.order()
    ((r, d),) = factorize(n).items()
    coords = {_coset_key_reference(lower, identity(degree)): ()}
    basis = []
    for h in upper.element_list():
        if len(coords) == n:
            break
        if _coset_key_reference(lower, h) in coords:
            continue
        new_coords = {}
        for rep_key, c in coords.items():
            cur = rep_key
            for j in range(r):
                new_coords[_coset_key_reference(lower, cur)] = c + (j,)
                cur = cur * h
        basis.append(h)
        coords = new_coords
    assert len(coords) == n
    return r, d, basis, coords


def _factor_action_reference(lower, r, basis, coords, g):
    """factor_action as it formed g b g^-1 as `Perm`s: (matrix, trace, symmetric trace)."""
    ginv = g.inv()
    mat = np.array([coords[_coset_key_reference(lower, g * b * ginv)] for b in basis], dtype=np.int64).T % r
    tr = int(mat.trace()) % r
    return mat, tr, tr - r if tr > r // 2 else tr


@pytest.mark.parametrize(
    "spec", ["D:36", "INV:15:16:cyclic", "DELPERM:5:A4", "DELPERM:5:S4:sign", "PROD:(PROD:(S:3)x(S:3))x(C:5)"]
)
def test_chief_factors_match_the_perm_reference(spec):
    """Each factor of the odd core's chief series, on G's ids, against the
    `Perm` reference: the same prime and rank, the same traces for sampled
    elements of G, and the same fixed-space dimension for each Klein four
    of the Sylow 2-subgroup (the two bases may differ).  The DELPERM
    factors have rank 3; the last group's top factor lies over a lower
    term with two generators."""
    from oortlab.classify import Context

    G = build_group(spec)
    series = chief_series_within(G, o_p_prime(G, 2))
    kleins = Context(G, 2).kleins
    assert series and kleins
    for X in series:
        r, d, basis, coords = _build_chief_factor_reference(G.degree, X.lower, X.upper)
        assert (X.prime, X.rank) == (r, d)
        for g in G.random_elements(8, seed=X.order()):
            assert factor_action(G, X, g)[1:] == _factor_action_reference(X.lower, r, basis, coords, g)[1:]
        for K in kleins:
            mats = [factor_action(G, X, g)[0] for g in K.generators]
            ref = [_factor_action_reference(X.lower, r, basis, coords, g)[0] for g in K.generators]
            assert fixed_space_dim(mats, r) == fixed_space_dim(ref, r)


def test_factor_action_rejects_a_non_member():
    """An element outside G raises NonMember instead of being read as
    whatever element of G its key lookup lands on."""
    G = build_group("DELPERM:5:A4")
    X = chief_series_within(G, o_p_prime(G, 2))[0]
    g = perm_from_cycles(G.degree, [(0, 1)])
    assert not G.contains(g)
    with pytest.raises(NonMember):
        factor_action(G, X, g)


def test_fixed_space_dim():
    m_id = np.eye(3, dtype=np.int64)
    assert fixed_space_dim([m_id], 5) == 3
    m_inv = (-m_id) % 5
    assert fixed_space_dim([m_inv], 5) == 0
    m_partial = np.diag([1, 1, 4]) % 5
    assert fixed_space_dim([m_partial], 5) == 2
    assert fixed_space_dim([m_partial, m_inv], 5) == 0


# -- sylow on store ids ------------------------------------------------


def _sylow_by_perms_reference(G, p):
    """sylow as it ran at every order on G's `Perm` list: its element set
    and the generators it grew."""
    target = p_part(G.order(), {p})
    if target == 1:
        return frozenset([G.identity()]), []
    for seed in G.element_list():
        n = seed.order()
        if n % p == 0:
            break
    gens = [_p_element_part(seed, n, p)]
    els = mulclose(gens)
    while len(els) < target:
        N = normalizer(G, Group.from_element_set(G.degree, els))
        for y in sorted(N.element_set()):
            n = y.order()
            if n % p == 0 and _p_element_part(y, n, p) not in els:
                gens.append(_p_element_part(y, n, p))
                els = mulclose(gens)
                break
    return frozenset(els), gens


@pytest.mark.parametrize("spec", ["S:4", "D:36", "PGL2:9", "A:7", "PSL2:13", "INV:15:16:klein", "DELPERM:5:S4"])
def test_sylow_matches_the_perm_reference(spec):
    """The same Sylow subgroup and generators as the `Perm` growth, on
    both sides of KEYED_MIN_ORDER; the generators generate it."""
    G = build_group(spec)
    for p in sorted(factorize(G.order())):
        P = sylow(G, p)
        els, gens = _sylow_by_perms_reference(G, p)
        assert P.element_set() == els and list(P.generators) == gens
        assert Group(G.degree, P.generators).order() == P.order()


@pytest.mark.parametrize("spec, p", [("S:4", 2), ("D:36", 3), ("PSL2:13", 2), ("DELPERM:5:A4", 5)])
def test_subgroups_of_p_group_keep_generators(spec, p):
    """Each subgroup of P keeps generators it was built from, which
    generate exactly it."""
    P = sylow(build_group(spec), p)
    for Q in subgroups_of_p_group(P, p):
        assert Group(P.degree, Q.generators).element_set() == Q.element_set()


# -- orders that decide before a scan ----------------------------------


def test_sylow_subgroups_list_what_the_layer_builder_lists():
    """On every nontrivial Sylow subgroup in the catalogue, cyclic or not,
    subgroups_of_p_group lists the same element sets, in the same order,
    as the layer builder that its cyclic branch bypasses, and each
    subgroup's generators generate it."""
    cyclic = 0
    for spec, primes, _ in parse_manifest(bundled_manifest_text()):
        G = build_group(spec)
        for p in primes:
            P = sylow(G, p)
            if P.is_trivial():
                continue
            got = subgroups_of_p_group(P, p)
            assert [Q.element_set() for Q in got] == [Q.element_set() for Q in _subgroup_layers(P, p)], (spec, p)
            for Q in got:
                assert Group(P.degree, Q.generators).element_set() == Q.element_set()
            cyclic += P.order() in P.element_orders()
    assert cyclic > 80  # 92 in the bundled catalogue


@pytest.mark.parametrize("spec, p", [("D:16", 2), ("Q:8", 2), ("C:9", 3), ("PROD:(C:2)x(C:2)", 2)])
def test_a_p_group_is_its_own_sylow_and_normalizer(spec, p):
    G = build_group(spec)
    assert sylow(G, p) is G
    assert normalizer(G, G) is G
    assert normalizer(G, Group(G.degree, G.generators)) is G


def test_normalizer_of_an_equal_order_non_subgroup_raises():
    """The |H| = |G| shortcut still checks that H lies in G."""
    c4 = Group(4, [perm_from_cycles(4, [(0, 1, 2, 3)])])
    v4 = Group(4, [perm_from_cycles(4, [(0, 1), (2, 3)]), perm_from_cycles(4, [(0, 2), (1, 3)])])
    with pytest.raises(NonSubgroup):
        normalizer(c4, v4)


@pytest.mark.parametrize("spec", ["S:4", "PSL2:13"])
def test_sylow_is_grown_once_per_group_and_prime(spec):
    """The second call returns the first call's subgroup, from G's memo;
    a fresh G grows its own."""
    G = build_group(spec)
    for p in (2, 3):
        P = sylow(G, p)
        assert sylow(G, p) is P and G._sylows[p] is P
        assert sylow(build_group(spec), p) is not P


# -- normal subgroups on element ids ----------------------------------------


def _close_with_isin(G: Group, ids, below, reps, cap=None):
    """_close as it marked the classes met with ``np.isin`` over the labels."""
    S, labels = G.store(), G.class_labels()
    new = np.isin(labels, labels[ids]) & ~below
    mask = below | new
    while new.any():
        if cap is not None and np.count_nonzero(mask) > cap:
            return None
        products = S.mul(np.flatnonzero(new)[:, None], reps[mask[reps]])
        grown = mask | np.isin(labels, labels[products])
        new, mask = grown & ~mask, grown
    return mask


def _o_pi_by_perm_orders(G: Group, pi) -> frozenset:
    """o_pi as it read each class representative's order from G's `Perm`
    list, over the np.isin closure."""
    pi = frozenset(pi)
    cap = p_part(G.order(), pi)
    if cap == G.order():
        return G.element_set()
    els, core, reps = G.element_list(), np.arange(G.order()) == 0, _class_reps(G)
    for x in reps.tolist():
        if np.count_nonzero(core) == cap:
            break
        if core[x] or any(p not in pi for p in factorize(els[x].order())):
            continue
        joined = _close_with_isin(G, [x], core, reps, cap)
        if joined is not None and all(p in pi for p in factorize(np.count_nonzero(joined))):
            core = joined
    return frozenset(els[i] for i in np.flatnonzero(core).tolist())


def _minimal_normal_above_by_perms(G: Group, below, inside, cap=None) -> list:
    """_minimal_normal_above as it sorted the masks by their sorted `Perm`
    lists, over the np.isin closure."""
    els, reps = G.element_list(), _class_reps(G)
    closures = [_close_with_isin(G, [x], below, reps, cap) for x in reps[inside[reps] & ~below[reps]]]
    masks = list({m.tobytes(): m for m in closures if m is not None}.values())
    minimal = [m for m in masks if not any(o is not m and not (o & ~m).any() for o in masks)]
    return sorted(minimal, key=lambda m: sorted(map(els.__getitem__, np.flatnonzero(m).tolist())))


def _assert_normal_subgroups_match_the_references(G: Group):
    """_close from 1 and from each minimal normal subgroup, with and
    without a cap just short of the closure; o_pi for each prime and its
    complement; and the minimal normal subgroups above 1 and above each
    minimal normal subgroup, in order."""
    one, reps = np.arange(G.order()) == 0, _class_reps(G)
    minimal = _minimal_normal_above_by_perms(G, one, ~one, G.order() // 2)
    assert [m.tobytes() for m in _minimal_normal_above(G, one, ~one, G.order() // 2)] == [
        m.tobytes() for m in minimal
    ]
    everything = np.ones(G.order(), dtype=bool)
    for below in [one, *minimal]:
        for x in reps[~below[reps]].tolist():
            want = _close_with_isin(G, [x], below, reps)
            assert np.array_equal(_close(G, [x], below, reps), want)
            cap = np.count_nonzero(want) - 1
            assert _close(G, [x], below, reps, cap) is None and _close_with_isin(G, [x], below, reps, cap) is None
        got = _minimal_normal_above(G, below, everything)
        assert [m.tobytes() for m in got] == [m.tobytes() for m in _minimal_normal_above_by_perms(G, below, everything)]
    for p in sorted(factorize(G.order())) + [11]:
        for pi in ({p}, set(factorize(G.order())) - {p}):
            assert o_pi(G, pi).element_set() == _o_pi_by_perm_orders(G, pi), (p, pi)


# minimal normal subgroups whose order by ids is not that of their sorted
# element lists: INV:15:16:cyclic (C5, C3, C2), PROD:(S:3)x(C:3) (two C3)
# and D:4 (three C2)
NORMAL_SPECS = ["S:4", "D:4", "D:36", "PROD:(S:3)x(C:3)", "PGL2:5", "INV:9:16:cyclic", "INV:15:16:cyclic", "PSL2:13"]


@pytest.mark.parametrize("spec", NORMAL_SPECS)
def test_normal_subgroups_match_the_references(spec):
    _assert_normal_subgroups_match_the_references(build_group(spec))


_BUILT: dict[str, Group] = {}


@st.composite
def random_subgroups(draw, specs):
    """A subgroup generated by 1-3 elements of one of the catalogue groups
    ``specs``, drawn by position in its element list."""
    spec = draw(st.sampled_from(specs))
    if spec not in _BUILT:
        _BUILT[spec] = build_group(spec)
    G = _BUILT[spec]
    picks = draw(st.lists(st.integers(0, G.order() - 1), min_size=1, max_size=3))
    return Group(G.degree, [G.element_list()[i] for i in picks])


@given(random_subgroups(["D:36", "PGL2:7", "INV:15:16:cyclic", "A:7", "DELPERM:5:A4"]))
@settings(max_examples=15, deadline=None, derandomize=True)
def test_normal_subgroups_match_the_references_on_random_subgroups(H):
    _assert_normal_subgroups_match_the_references(H)


@pytest.mark.parametrize("spec", ["D:4", "PROD:(S:3)x(C:3)", "INV:15:16:cyclic"])
def test_minimal_normal_order_is_not_id_order(spec):
    """These groups' minimal normal subgroups sort differently by ids and
    by sorted element lists, so the comparisons above tell the two apart."""
    G = build_group(spec)
    one = np.arange(G.order()) == 0
    masks = [m.tobytes() for m in _minimal_normal_above(G, one, ~one, G.order() // 2)]
    by_ids = sorted(masks, key=lambda m: np.flatnonzero(np.frombuffer(m, dtype=bool)).tolist())
    assert len(masks) >= 2 and by_ids != masks


def _normal_closure_rebuilt(G: Group, gens, cap=None):
    """normal_closure as it rebuilt the group, and so its chain, from all
    its generators for each generator it added, inverting G's generators
    for each one."""
    work = [g for g in map(Perm, gens) if not g.is_identity()]
    N = Group(G.degree, [])
    for w in work:
        if N.contains(w):
            continue
        N = Group(G.degree, [*N.generators, w])
        if cap is not None and N.order() > cap:
            return None
        if cap is None and N.order() > enum_cap():
            raise CapExceeded(f"normal closure exceeds ENUM_CAP {enum_cap()}")
        work.extend(g * w * g.inv() for g in G.generators)
    return N


def _chain_of(H: Group) -> list:
    return [(level.base, level.transversal_rows().tolist()) for level in H.chain.levels]


@pytest.mark.parametrize("spec", ["S:4", "A:7", "PSL2:13", "INV:15:16:klein", "DELPERM:5:A4", "S:9"])
def test_normal_closure_extends_one_chain_as_the_rebuilt_chains(spec):
    """On words of one to four of G's generators (G is never listed; S:9 is
    past ENUM_CAP): the same generators, order and chain (base points and
    transversals in order) as the closure rebuilt per generator; None with
    a cap just short of it; CapExceeded alike past ENUM_CAP."""
    G = build_group(spec)
    rng = random.Random(4)
    seen_cap = False
    for _ in range(5):
        w = G.identity()
        for g in rng.choices(G.generators, k=rng.randint(1, 4)):
            w = w * g
        try:
            want = _normal_closure_rebuilt(G, [w])
        except CapExceeded:
            with pytest.raises(CapExceeded):
                normal_closure(G, [w])
            seen_cap = True
            continue
        got = normal_closure(G, [w])
        assert got.generators == want.generators and got.order() == want.order()
        assert _chain_of(got) == _chain_of(want)
        if want.order() > 1:
            assert normal_closure(G, [w], cap=want.order() - 1) is None
            assert _normal_closure_rebuilt(G, [w], cap=want.order() - 1) is None
    assert seen_cap == (spec == "S:9")
    assert G._element_list is None or G.order() < 128

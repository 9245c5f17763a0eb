"""Shape classification, both verdict routes, reports, and audits."""

import gc
import random
import signal
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oortlab.classify as classify
from oortlab.analysis import (
    _subgroup_layers,
    center,
    centralizer,
    conjugacy_class,
    id_orbit,
    is_abelian,
    normalizer,
    o_p_prime,
    o_pi,
    p_part,
    sylow,
)
from oortlab.classify import (
    Context,
    OortVerdict,
    ShapeVerdict,
    Witness,
    _a4_embeds,
    _check_basic1,
    _check_nontrivial_center_2,
    _cyclic_by_p_stream,
    _identify_quotient,
    _sylow_subgroup_classes,
    allowed_shape,
    even_structure_report,
    is_o_group_by_criterion,
    is_o_group_by_definition,
    odd_structure_report,
    shape_of,
    theorem_audit,
)
from oortlab.cli import _audit_doc, bundled_manifest_text, parse_manifest
from oortlab.construct import alternating, build_group, pgl2, psl2, psl3_4, symmetric
from oortlab.errors import PreconditionFailed
from oortlab.gf import factorize
from oortlab.perm import KEYED_MIN_ORDER, Group, Perm, mulclose, perm_from_cycles


def dicyclic12():
    # C3 : C4 with the 4-element inverting; the other nonabelian order-12
    # group besides D12 and A4 (a single involution, so not dihedral)
    x = perm_from_cycles(7, [(0, 1, 2)])
    y = perm_from_cycles(7, [(0, 1), (3, 4, 5, 6)])
    return Group(7, [x, y])


# -- shapes -------------------------------------------------------------


@pytest.mark.parametrize(
    "spec,label",
    [
        ("C:12", "C12"),
        ("D:12", "D12"),
        ("A:4", "A4"),
        ("PROD:(C:2)x(C:6)", "Other(12)"),
        ("C:2", "C2"),
        ("D:4", "D4"),
        ("C:1", "C1"),
        ("Q:8", "Other(8)"),
    ],
)
def test_shape_labels(spec, label):
    assert shape_of(build_group(spec)).label == label


def test_dicyclic_is_other():
    G = dicyclic12()
    assert G.order() == 12
    assert shape_of(G).label == "Other(12)"


@pytest.mark.parametrize(
    "shape,p,ok",
    [
        (ShapeVerdict("Cyclic", 15), 7, True),
        (ShapeVerdict("Dihedral", 4), 2, True),
        (ShapeVerdict("Dihedral", 6), 3, True),
        (ShapeVerdict("Dihedral", 6), 2, False),
        (ShapeVerdict("Dihedral", 18), 3, True),
        (ShapeVerdict("A4", 12), 2, True),
        (ShapeVerdict("A4", 12), 3, False),
        (ShapeVerdict("Other", 8), 2, False),
    ],
)
def test_allowed_shape(shape, p, ok):
    assert allowed_shape(shape, p) is ok


# -- cyclic-by-p detection and enumeration ------------------------------


def test_enumeration_shapes_d18():
    G = build_group("D:18")
    labels = {shape_of(H).label for H in _cyclic_by_p_stream(G, 3)}
    assert labels == {"C3", "C9", "D6", "D18"}


def test_enumeration_members_are_cyclic_by_p():
    G = build_group("S:4")
    seen = 0
    for H in _cyclic_by_p_stream(G, 3):
        assert _is_cyclic_by_p_reference(H, 3)[0]
        seen += 1
    assert seen > 0


def test_enumeration_c6():
    G = build_group("C:6")
    orders = sorted(H.order() for H in _cyclic_by_p_stream(G, 3))
    assert orders == [3, 6]


# -- verdict routes -----------------------------------------------------


VERDICTS = [
    ("C:12", 2, True),
    ("D:18", 3, True),
    ("D:18", 2, True),
    ("Q:8", 2, False),
    ("A:7", 2, False),
    ("A:4", 2, True),
    ("A:4", 3, True),
    ("A:5", 5, True),
    ("A:6", 3, False),
    ("S:4", 2, True),
    ("S:5", 2, True),
    ("S:5", 5, False),
    ("PSL2:7", 2, True),
    ("PSL2:7", 7, False),
    ("INV:3:8:cyclic", 2, True),
    ("INV:3:8:klein", 3, False),
    ("DELPERM:5:S4:sign", 2, True),
    ("DELPERM:5:S4", 2, False),
]


@pytest.mark.parametrize("spec,p,expect", VERDICTS)
def test_routes_agree(spec, p, expect):
    G = build_group(spec)
    vd = is_o_group_by_definition(G, p)
    vc = is_o_group_by_criterion(G, p)
    assert vd.is_o_group is expect
    assert vc.is_o_group is expect
    if expect:
        assert not vd.witnesses
    else:
        assert vd.witnesses


def test_witnesses_are_genuine_counterexamples():
    G = build_group("S:5")
    vd = is_o_group_by_definition(G, 5)
    assert not vd.is_o_group
    for w in vd.witnesses:
        assert _is_cyclic_by_p_reference(w.subgroup, 5)[0]
        assert not allowed_shape(w.shape, 5)
        assert shape_of(w.subgroup) == w.shape
    # the order-20 Frobenius group is the canonical counterexample
    assert any(w.shape.order == 20 for w in vd.witnesses)


def test_verdict_json():
    j = is_o_group_by_definition(build_group("Q:8"), 2).to_json()
    assert j["is_o_group"] is False
    assert j["route"] == "Definition"
    assert j["witnesses"] and all("generators" in w for w in j["witnesses"])


def test_relabeling_invariance():
    G = build_group("S:4")
    c = perm_from_cycles(4, [(0, 2, 3)])
    H = Group(4, [c * g * c.inv() for g in G.generators])
    for p in (2, 3):
        assert (
            is_o_group_by_definition(H, p).is_o_group
            == is_o_group_by_definition(G, p).is_o_group
        )


@pytest.mark.parametrize(
    "spec,p,branch",
    [
        ("C:15", 3, "N=C"),
        ("D:18", 3, "index-2 inversion"),
        ("S:6", 3, "Sylow noncyclic"),
        ("A:7", 5, "normalizer element is not an inverting involution"),
        ("PROD:(S:3)x(D:10)", 5, "C_G(Q) nonabelian"),
        ("C:12", 2, "Sylow cyclic"),
        ("A:4", 2, "Sylow dihedral self-centralizing Kleins"),
        ("Q:8", 2, "Sylow neither cyclic nor dihedral"),
        ("A:7", 2, "Klein four not self-centralizing"),
    ],
)
def test_criterion_branches(spec, p, branch):
    assert is_o_group_by_criterion(build_group(spec), p).branch == branch


def test_trivial_sylow_is_positive():
    v = is_o_group_by_criterion(build_group("C:4"), 3)
    assert v.is_o_group and v.branch == "N=C"


# -- quotient identification --------------------------------------------


def test_identify_quotient():
    assert _identify_quotient(psl2(7)).label == "isomorphic-to PSL(2,7)"
    assert _identify_quotient(alternating(5)).label == "consistent-with PSL(2,5)"
    assert _identify_quotient(pgl2(5)).label == "consistent-with PGL(2,5)"
    assert _identify_quotient(psl3_4()).label == "consistent-with PSL(3,4)"
    assert _identify_quotient(symmetric(4)).tag == "unidentified"


# -- structure reports --------------------------------------------------


def test_odd_report_semidirect_case():
    rep = odd_structure_report(Context(build_group("C:15"), 3))
    assert rep.case == "G=RP" and rep.ncq == 1
    assert not rep.violations


def test_odd_report_dihedral_case():
    rep = odd_structure_report(Context(build_group("D:18"), 3))
    assert rep.case == "G=RD" and rep.ncq == 2
    assert rep.r_order == 1 and rep.p_order == 9
    assert not rep.violations
    rep2 = odd_structure_report(Context(build_group("S:4"), 3))
    assert rep2.case == "G=RD"
    assert rep2.quotient == "dihedral of order 6"
    assert not rep2.violations


def test_odd_report_almost_simple_case():
    rep = odd_structure_report(Context(build_group("PSL2:7"), 3))
    assert rep.case == "G/R almost simple"
    assert rep.quotient == "isomorphic-to PSL(2,7)"
    assert not rep.violations


def test_odd_report_preconditions():
    with pytest.raises(PreconditionFailed):
        odd_structure_report(Context(build_group("A:6"), 3))
    with pytest.raises(PreconditionFailed):
        odd_structure_report(Context(build_group("C:6"), 2))
    with pytest.raises(PreconditionFailed):
        odd_structure_report(Context(build_group("C:6"), 9))


def test_even_report_case1():
    rep = even_structure_report(Context(build_group("INV:3:8:cyclic"), 2))
    assert rep.case == "1:G=RP"
    assert rep.r_order == 3 and rep.p_order == 8
    assert not rep.violations


def test_even_report_case2a():
    rep = even_structure_report(Context(build_group("DELPERM:5:A4"), 2))
    assert rep.case == "2a:G=R.A4"
    assert rep.r_order == 125
    assert len(rep.chief_factors) == 1
    cf = rep.chief_factors[0]
    assert cf["dim3"] == "verified"
    assert set(cf["klein_fixed_dims"]) == {0}
    assert not rep.violations


def test_even_report_case2b_traces():
    rep = even_structure_report(Context(build_group("DELPERM:5:S4:sign"), 2))
    assert rep.case == "2b:G=R.S4"
    assert rep.chief_factors[0]["order4_traces"] == [1]
    assert not rep.violations


def test_even_report_case2c():
    rep = even_structure_report(Context(build_group("A:5"), 2))
    assert rep.case == "2c:nonsolvable"
    assert rep.quotient == "consistent-with PSL(2,5)"
    assert not rep.violations


def test_even_report_preconditions():
    with pytest.raises(PreconditionFailed):
        even_structure_report(Context(build_group("Q:8"), 2))
    with pytest.raises(PreconditionFailed):
        even_structure_report(Context(build_group("C:8"), 2))  # cyclic Sylow branch


# -- per-claim audit ----------------------------------------------------


def audit_map(spec, p):
    return dict(theorem_audit(Context(build_group(spec), p)))


def test_audit_d18():
    m = audit_map("D:18", 3)
    assert m["two-cases-odd"] == "pass"
    assert m["basic1"] == "pass"
    assert m["solvable-core"] == "pass"
    assert m["for-odd-odd"] == "not-applicable"  # even order
    assert m["nontrivial-center-2"] == "not-applicable"


def test_audit_odd_order_group():
    m = audit_map("C:15", 3)
    assert m["for-odd-odd"] == "pass"
    assert m["basic1"] == "not-applicable"  # N = C
    assert m["two-cases-odd"] == "pass"


def test_audit_p2_centers():
    m = audit_map("INV:3:8:cyclic", 2)
    assert m["nontrivial-center-2"] == "pass"
    assert m["restrictions-trivial-center-1"] == "not-applicable"
    m2 = audit_map("DELPERM:5:S4:sign", 2)
    assert m2["restrictions-trivial-center-1"] == "pass"
    assert m2["nontrivial-center-2"] == "not-applicable"
    assert m2["two-cases-odd"] == "not-applicable"
    # trivial odd core: G is its own Sylow 2-subgroup
    for spec in ("D:8", "D:16"):
        assert audit_map(spec, 2)["nontrivial-center-2"] == "pass", spec


def test_nontrivial_center_2_trivial_core_needs_dihedral():
    # Q8 has a centre of order 2 and a trivial odd core but is not dihedral
    G = build_group("Q:8")
    assert o_p_prime(G, 2).is_trivial() and center(G).order() == 2
    assert not _check_nontrivial_center_2(G, sylow(G, 2), o_p_prime(G, 2), center(G))


def test_audit_negative_group_all_na_or_honest():
    m = audit_map("Q:8", 2)
    assert m["nontrivial-center-2"] == "not-applicable"
    assert m["restrictions-trivial-center-1"] == "not-applicable"


# -- the definition route on ids against the permutation route -----------
#
# The reference below is the definition route as it ran on permutation
# tuples before it moved onto element ids: the subgroup lattice of P, the
# class representatives as orbits of element sets and the coset walk with
# Perm products.  The id route must give the same representatives and the
# same candidates, in the same order, since the first candidate of each
# failing (kind, order) is the printed witness.


def _ref_subgroups_of_p_group(P, p):
    pset = P.element_set()
    abelian = is_abelian(P)
    ppow = {x: x**p for x in pset}
    trivial = frozenset([P.identity()])
    layers = [{trivial}]
    out = [trivial]
    while layers[-1]:
        nxt = set()
        for a in layers[-1]:
            covered = set(a)
            for x in pset:
                if x in covered or ppow[x] not in a:
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
    return out


def _ref_conjugate_all(g, xs):
    ginv = g.inv()
    return type(xs)(g * x * ginv for x in xs)


def _ref_orbit(key, gens):
    """The orbit of a set of elements under conjugation by the group gens
    generate, breadth-first."""
    seen, frontier = {key}, [key]
    while frontier:
        new = []
        for x in frontier:
            for g in gens:
                y = _ref_conjugate_all(g, x)
                if y not in seen:
                    seen.add(y)
                    new.append(y)
        frontier = new
    return seen


def _ref_class_reps(G, p):
    P = sylow(G, p)
    subs = _ref_subgroups_of_p_group(P, p) if not P.is_trivial() else [P.element_set()]
    gens = G.generators
    seen, reps = set(), []
    for key in subs:
        if key in seen:
            continue
        reps.append(key)
        seen.update(_ref_orbit(key, gens))
    return reps


def _ref_stream(G, p):
    emitted = set()
    for qset in _ref_class_reps(G, p):
        if len(qset) == 1:
            continue
        qn = len(qset)
        N = normalizer(G, Group.from_element_set(G.degree, qset))
        seen_cosets = set()
        for t in N.element_list():
            if t in seen_cosets:
                continue
            seen_cosets.update(q * t for q in qset)
            hels = set(qset)
            cur = t
            while cur not in hels:
                hels.update(q * cur for q in qset)
                cur = cur * t
            if p_part(len(hels), {p}) != qn:
                continue
            key = frozenset(hels)
            if key not in emitted:
                emitted.add(key)
                yield key


def _ref_shape_label(H):
    """The shape label from Perm.order and Perm products alone."""
    els = H.element_list()
    n = len(els)
    orders = [x.order() for x in els]
    if n in orders:
        return f"C{n}"
    if n >= 4 and n % 2 == 0:
        for x, o in zip(els, orders):
            if o != n // 2:
                continue
            powers = set(mulclose([x]))
            xinv = x.inv()
            if any(o2 == 2 and y not in powers and y * x * y == xinv for y, o2 in zip(els, orders)):
                return f"D{n}"
    if n == 12 and 6 not in orders:
        return "A4"
    return f"Other({n})"


def _assert_matches_reference(G, p):
    _, reps = _sylow_subgroup_classes(G, p)
    assert [Q.element_set() for Q in reps] == _ref_class_reps(G, p)
    got = list(_cyclic_by_p_stream(G, p))
    assert [H.element_set() for H in got] == list(_ref_stream(G, p))
    for H in got:
        assert H.element_list() == sorted(H.element_set())
        assert shape_of(H).label == _ref_shape_label(H)


CATALOGUE_PRIMES = {
    spec: primes
    for spec, primes, _ in parse_manifest(bundled_manifest_text())
    if spec in ("D:64", "INV:15:8:klein", "INV:9:16:klein", "S:6", "A:7", "PGL2:9")
}


@pytest.mark.parametrize(
    "spec,p", [(s, p) for s, primes in CATALOGUE_PRIMES.items() for p in primes] + [("PGL2:7", 7)]
)
def test_id_route_matches_perm_reference_on_catalogue(spec, p):
    _assert_matches_reference(build_group(spec), p)


def test_reference_groups_lie_on_both_sides_of_the_size_rule():
    orders = [build_group(spec).order() for spec in CATALOGUE_PRIMES]
    assert len(orders) == 6 and min(orders) < KEYED_MIN_ORDER <= max(orders)


@pytest.mark.parametrize("spec", ["A:7", "PGL2:9", "INV:15:16:klein", "DELPERM:5:S4"])
def test_id_route_matches_perm_reference_on_random_subgroups(spec):
    G = build_group(spec)
    rng = random.Random(7)
    for k in (1, 2, 2, 3):  # orders 4 to 3000 over the four groups
        H = Group(G.degree, G.random_elements(k, seed=rng.randrange(1 << 30)))
        for p in (2, 3, 5, 7):
            _assert_matches_reference(H, p)


# -- the definition route's shortcuts against the scans they replace ---------


def _class_reps_by_orbits(G, p):
    """_sylow_subgroup_classes as it ran before orders decided: every
    subgroup of P from the layer builder, each looked up in G and kept
    unless an orbit under G's conjugation tables already holds it."""
    P = sylow(G, p)
    if P.is_trivial():
        return P, [P]
    S, tables = G.store(), G.conjugation_tables()
    seen, reps = set(), []
    for Q in _subgroup_layers(P, p):
        ids = np.sort(S.lookup(S.keys_of(Q)))
        if ids.tobytes() in seen:
            continue
        reps.append(Q)
        seen |= id_orbit(ids, tables)
    return P, reps


def _stream_by_walk(G, p):
    """_cyclic_by_p_stream as it ran before orders decided and before it
    labelled cosets with perm.coset_heads: over the reference class reps,
    each N_G(Q) computed afresh, every coset of Q in it walked, however
    |N:Q| factors, and each coset labelled by the least id among the
    products q t."""
    for Q in _class_reps_by_orbits(G, p)[1]:
        if Q.is_trivial():
            continue
        N = normalizer(G, Q)
        S, n = N.store(), N.order()
        q = S.lookup(S.keys_of(Q))
        t = np.arange(n)
        head = np.minimum.reduce([S.mul(np.full(n, x), t) for x in q.tolist()])
        heads = np.flatnonzero(head == t)
        q_head = int(head[q[0]])
        powers, done, cur = [heads], heads == q_head, heads
        while not done.all():
            cur = S.mul(cur, heads)
            powers.append(head[cur])
            done |= powers[-1] == q_head
        emitted = set()
        for row in np.array(powers).T.tolist():
            m = row.index(q_head) + 1
            key = frozenset(row[:m])
            if m % p == 0 or key in emitted:
                continue
            emitted.add(key)
            cosets = np.zeros(n, dtype=bool)
            cosets[row[:m]] = True
            yield N.subgroup_of_ids(np.flatnonzero(cosets[head]))


def _catalogue_pairs(max_order):
    for spec, primes, _ in parse_manifest(bundled_manifest_text()):
        if build_group(spec).order() <= max_order:
            yield from ((spec, p) for p in primes)


def _keys(G, H) -> bytes:
    return np.sort(G.store().keys_of(H)).tobytes()


def test_class_reps_match_the_orbit_scan_on_the_catalogue():
    """Subgroups alone in their order taken as their own class reps, on
    every catalogue pair of order <= 3000: the same reps, in order."""
    for spec, p in _catalogue_pairs(3000):
        G = build_group(spec)
        got = [_keys(G, Q) for Q in _sylow_subgroup_classes(G, p)[1]]
        assert got == [_keys(G, Q) for Q in _class_reps_by_orbits(G, p)[1]], (spec, p)


def test_stream_matches_the_full_coset_walk_on_the_catalogue():
    """Q alone when |N_G(Q):Q| is a power of p, N_G(Q) computed by the
    stream itself, and the cosets labelled by coset_heads, on every
    catalogue pair of order <= 3000 and on the two heavy DELPERM specs at
    p = 7, where the normalizers are largest: the same candidates, in
    order."""
    for spec, p in [*_catalogue_pairs(3000), ("DELPERM:7:A4", 7), ("DELPERM:7:S4", 7)]:
        G = build_group(spec)
        got = [_keys(G, H) for H in _cyclic_by_p_stream(G, p)]
        assert got == [_keys(G, H) for H in _stream_by_walk(G, p)], (spec, p)


def test_stream_raises_on_a_class_rep_that_is_not_a_subgroup(monkeypatch):
    """Q = {a, 1} with a of order 3, listed from a: coset_heads labels
    the cosets of <a>, 8 of them, not |N:Q| = 12, so the count guard
    raises before the power loop runs."""
    G = build_group("S:4")
    a = perm_from_cycles(4, [(0, 1, 2)])
    Q = Group.from_element_set(4, [a, G.identity()])
    Q._element_list = [a, G.identity()]
    monkeypatch.setattr(classify, "_sylow_subgroup_classes", lambda G, p: (None, [Q]))
    monkeypatch.setattr(classify, "normalizer", lambda G, H: G)

    def spun(*args):
        raise RuntimeError("the power loop spun for 5 s")

    signal.signal(signal.SIGALRM, spun)  # fail rather than hang the run
    signal.alarm(5)
    try:
        with pytest.raises(AssertionError, match=r"\|N:Q\| = 12"):
            list(_cyclic_by_p_stream(G, 3))
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


@pytest.mark.parametrize("spec, p", [("D:16", 2), ("S:4", 3), ("A:5", 2), ("PSL2:13", 7), ("PGL2:9", 3)])
def test_memos_die_with_the_group(spec, p):
    """G's Sylow memo holds no reference to G, so G is freed when the last
    outside reference goes, with no garbage collection."""
    G = build_group(spec)
    is_o_group_by_definition(G, p)
    is_o_group_by_criterion(G, p)
    assert G._sylows or G.order() == p_part(G.order(), {p})
    ref = weakref.ref(G)
    gc.disable()
    try:
        del G
        assert ref() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("spec, p", [("S:4", 3), ("A:5", 2), ("PSL2:13", 7), ("DELPERM:5:A4", 5)])
def test_normalizers_and_centralizers_die_with_their_route(monkeypatch, spec, p):
    """G keeps no normalizer or centralizer: every one but G itself is
    freed, with no garbage collection, when the definition route returns
    and when the criterion's context, with N_G(P) and C_G(P) read, is
    dropped."""
    G = build_group(spec)
    refs = []

    def keeping(fn):
        def wrapper(G, H):
            K = fn(G, H)
            if K is not G:
                refs.append(weakref.ref(K))
            return K

        return wrapper

    for name in ("normalizer", "centralizer"):
        monkeypatch.setattr(classify, name, keeping(getattr(classify, name)))
    gc.disable()
    try:
        is_o_group_by_definition(G, p)
        assert refs and all(r() is None for r in refs)
        refs.clear()
        ctx = Context(G, p)
        assert ctx.verdict and ctx.N and ctx.C and refs
        del ctx
        assert all(r() is None for r in refs)
    finally:
        gc.enable()
    assert not hasattr(G, "_locals")


@pytest.mark.parametrize("spec", ["D:12", "Q:16", "A:4", "S:5", "PGL2:9", "INV:15:8:klein", "PROD:(C:2)x(C:2)"])
def test_shape_of_matches_a_brute_force_label(spec):
    G = build_group(spec)
    assert shape_of(G).label == _ref_shape_label(G)
    for p in (2, 3):
        P = sylow(G, p)
        assert shape_of(P).label == _ref_shape_label(P)


@pytest.mark.parametrize("spec", ["S:4", "S:5", "INV:15:8:klein", "PSL2:13", "DELPERM:5:A4"])
def test_conjugacy_class_matches_a_perm_orbit(spec):
    G = build_group(spec)
    for x in G.element_list()[:12]:
        assert conjugacy_class(G, x) == {g * x * g.inv() for g in G.element_list()}


# -- the criterion on store ids -------------------------------------------


def _inverting_outside_reference(N, C):
    """The inversion test as it ran on `Perm`s at every order."""
    cset = C.element_set()
    return all(
        y.order() == 2 and all(y * c * y == c.inv() for c in C.generators)
        for y in N.element_list()
        if y not in cset
    )


def test_inverting_outside_matches_the_perm_loop():
    """For N = N_G(Q) and C = C_G(Q), Q running over subgroups of Sylow
    subgroups, and for (G, Z(G)): the same answer as the `Perm` loop, with
    passing and failing pairs on both sides of KEYED_MIN_ORDER."""
    from oortlab.analysis import subgroups_of_p_group
    from oortlab.classify import _inverting_outside

    seen = set()
    for spec in ["S:5", "PGL2:7", "PSL2:13", "A:7", "D:36", "INV:9:16:cyclic", "INV:15:16:klein", "DELPERM:5:S4"]:
        G = build_group(spec)
        pairs = [(G, center(G))]
        for p in sorted(factorize(G.order())):
            for Q in subgroups_of_p_group(sylow(G, p), p)[1:5]:
                pairs.append((normalizer(G, Q), centralizer(G, Q)))
        for N, C in pairs:
            got = _inverting_outside(N, C)
            assert got == _inverting_outside_reference(N, C), (spec, N.order(), C.order())
            seen.add((N.order() >= KEYED_MIN_ORDER, got))
    assert seen == {(False, False), (False, True), (True, False), (True, True)}


@pytest.mark.parametrize("spec, p", [("DELPERM:5:S4", 5), ("INV:15:16:klein", 3), ("PSL2:13", 7)])
def test_criterion_lists_no_element_of_g(spec, p):
    """The criterion runs on G's store: G's `Perm` list is never built."""
    G = build_group(spec)
    is_o_group_by_criterion(G, p)
    assert G.order() >= KEYED_MIN_ORDER and G._element_list is None


def _is_cyclic_by_p_reference(H, p):
    """Whether H is cyclic-by-p, with (O_p(H), |H/O_p(H)|): O_p(H) is
    Sylow and some element of H/O_p(H), built as the coset action, has the
    quotient's order."""
    from oortlab.perm import quotient_by

    Q = o_pi(H, {p})
    if Q.order() != p_part(H.order(), {p}):
        return False, None
    if Q.order() == H.order():
        return True, (Q, 1)
    Hq, _ = quotient_by(H, Q)
    if any(x.order() == Hq.order() for x in Hq.element_list()):
        return True, (Q, Hq.order())
    return False, None


# -- the audit on element ids ---------------------------------------------


def _check_basic1_by_orbits(ctx) -> bool:
    """_check_basic1 as it compared element sets and walked the conjugation
    orbit of each stream candidate, looking for a conjugate inside N(P)."""
    from oortlab.analysis import id_orbit
    from oortlab.classify import _inverting_outside

    G, p, NP, CP = ctx.G, ctx.p, ctx.N, ctx.C
    if not is_abelian(CP) or not _inverting_outside(NP, CP):
        return False
    for Q in ctx.chain:
        NQ, CQ = ctx.local("normalizer", Q), ctx.local("centralizer", Q)
        if CQ.element_set() != CP.element_set() or NQ.element_set() != NP.element_set():
            return False
    S = G.store()
    in_np = np.zeros(G.order(), dtype=bool)
    in_np[S.ids_of(NP.element_set())] = True
    tables = G.conjugation_tables()
    for H in _cyclic_by_p_stream(G, p):
        ids = np.sort(S.ids_of(H.element_set()))
        conjugates = np.frombuffer(b"".join(id_orbit(ids, tables)), dtype=ids.dtype)
        if not in_np[conjugates.reshape(-1, len(ids))].all(axis=1).any():
            return False
    return True


BASIC1_PAIRS = [
    (spec, p)
    for spec, primes, expect in parse_manifest(bundled_manifest_text())
    for p, e in zip(primes, expect)
    if p != 2 and e and spec != "PSL3_4"
]


def test_basic1_matches_the_orbit_walk_on_the_catalogue():
    """Every odd-p positive of the catalogue but PSL3_4 (the audit runs it;
    see test_golden), whether basic1 applies to it or not."""
    applied = 0
    for spec, p in BASIC1_PAIRS:
        ctx = Context(build_group(spec), p)
        if ctx.P.is_trivial():
            continue
        applied += ctx.ncq != 1
        assert _check_basic1(ctx) == _check_basic1_by_orbits(ctx), (spec, p)
    assert applied >= 30


def _chain_by_powers(ctx):
    """Context.chain as it listed the subgroups of a cyclic P itself: P,
    then for a generator x of P the closure of x^(n/k), cut from P's store
    with that generator, for each order k from n/p down to p."""
    P, n = ctx.P, ctx.P.order()
    S = P.store()
    x = Perm(S.E[np.flatnonzero(S.orders(np.arange(n)) == n)[0]].tolist())
    out, k = [P], n // ctx.p
    while k > 1:
        y = x ** (n // k)
        out.append(P.subgroup_of_ids(S.ids_of(list(mulclose([y]))), [y]))
        k //= ctx.p
    return out


def test_chain_matches_the_power_lister_on_the_catalogue():
    """On every odd-p catalogue pair with a nontrivial cyclic Sylow P, the
    chain read from subgroups_of_p_group holds the same subgroups, in the
    same order, as the power lister it replaced, and starts at P itself."""
    pairs = 0
    for spec, primes, _ in parse_manifest(bundled_manifest_text()):
        G = build_group(spec)
        for p in primes:
            ctx = Context(G, p)
            if p == 2 or ctx.P.is_trivial() or ctx.shape.kind != "Cyclic":
                continue
            pairs += 1
            assert ctx.chain[0] is ctx.P
            assert [_keys(G, Q) for Q in ctx.chain] == [_keys(G, Q) for Q in _chain_by_powers(ctx)], (spec, p)
    assert pairs == 72


@st.composite
def cyclic_sylow_contexts(draw):
    """(H, p) for H generated by 1-3 elements of a catalogue group and an
    odd prime p at which H has a nontrivial cyclic Sylow subgroup."""
    G = build_group(draw(st.sampled_from(["S:5", "D:36", "PGL2:7", "INV:15:16:cyclic", "A:7"])))
    picks = draw(st.lists(st.integers(0, G.order() - 1), min_size=1, max_size=3))
    H = Group(G.degree, [G.element_list()[i] for i in picks])
    p = draw(st.sampled_from([3, 5, 7]))
    return H, p


@given(cyclic_sylow_contexts())
@settings(max_examples=30, deadline=None, derandomize=True)
def test_basic1_matches_the_orbit_walk_on_random_subgroups(case):
    H, p = case
    ctx = Context(H, p)
    if ctx.P.is_trivial() or ctx.shape.kind != "Cyclic":
        return
    assert _check_basic1(ctx) == _check_basic1_by_orbits(ctx)


def test_basic1_fails_when_q_has_a_larger_centralizer_than_p():
    """C_2^2 x| C_9, the 9-cycle acting on the Klein four through its
    quotient C_3: x^3 is central, so C(Q) = G for Q = <x^3> while
    N(P) = C(P) = P.  The first clause holds and only the comparison over
    the chain fails."""
    v1, v2 = perm_from_cycles(13, [(0, 1), (2, 3)]), perm_from_cycles(13, [(0, 2), (1, 3)])
    x = perm_from_cycles(13, [(0, 1, 2), (4, 5, 6, 7, 8, 9, 10, 11, 12)])
    ctx = Context(Group(13, [v1, v2, x]), 3)
    assert ctx.G.order() == 36 and ctx.P.order() == 9 and len(ctx.chain) == 2
    assert not _check_basic1(ctx)
    assert not _check_basic1_by_orbits(ctx)


@pytest.mark.parametrize("spec, p", [("S:4", 3), ("D:18", 3), ("PSL2:13", 7)])
def test_basic1_walks_no_conjugates(monkeypatch, spec, p):
    """With the context's chain, N(P) and C(P) built, basic1 passes without
    walking an orbit of ids or reading G's conjugation tables: each stream
    candidate is tested for containment in N(P) itself."""
    G = build_group(spec)
    ctx = Context(G, p)
    assert ctx.chain and ctx.N and ctx.C and ctx.ncq != 1
    calls = []

    def counting(name, fn):
        def wrapper(*args):
            calls.append(name)
            return fn(*args)

        return wrapper

    monkeypatch.setattr(classify, "id_orbit", counting("id_orbit", classify.id_orbit))
    monkeypatch.setattr(G, "conjugation_tables", counting("tables", G.conjugation_tables))
    assert _check_basic1(ctx)
    assert calls == []


def test_audits_never_run_the_stream(monkeypatch):
    """The reports and the claim audit of every odd-p positive read only
    their context: the definition route's stream is never reached, and
    basic1 still passes wherever it applies."""

    def stream(G, p):
        raise AssertionError("the audit ran the cyclic-by-p stream")

    monkeypatch.setattr(classify, "_cyclic_by_p_stream", stream)
    applied = 0
    for spec, p in BASIC1_PAIRS:
        claims = {c["claim"]: c["status"] for c in _audit_doc(spec, build_group(spec), p)["claims"]}
        assert claims["basic1"] in ("pass", "not-applicable"), (spec, p)
        applied += claims["basic1"] == "pass"
    assert applied >= 30


@pytest.mark.parametrize("spec", ["A:4", "A:5", "PSL2:11"])
def test_a_klein_four_sylow_is_its_own_klein(monkeypatch, spec):
    """When P is the Klein four, kleins is [P], the same object, so the
    audit computes C_G(P) once, not once for P and once for the Klein
    four."""
    G = build_group(spec)
    ctx = Context(G, 2)
    assert len(ctx.kleins) == 1 and ctx.kleins[0] is ctx.P
    pset = ctx.P.element_set()
    calls = []

    def counting(G, H):
        calls.append(H.element_set() == pset)
        return centralizer(G, H)

    monkeypatch.setattr(classify, "centralizer", counting)
    _audit_doc(spec, build_group(spec), 2)
    assert calls.count(True) == 1


def _a4_embeds_by_perms(ctx) -> bool:
    """_a4_embeds as it scanned the normalizer's `Perm` list."""
    for K in ctx.kleins:
        cset = ctx.local("centralizer", K).element_set()
        for y in ctx.local("normalizer", K).element_list():
            if y.order() == 3 and y not in cset:
                return True
    return False


@pytest.mark.parametrize("spec", ["S:4", "A:4", "D:12", "PSL2:7", "INV:9:16:cyclic", "DELPERM:5:A4", "PGL2:9"])
def test_a4_embeds_matches_the_perm_scan(spec):
    ctx = Context(build_group(spec), 2)
    assert _a4_embeds(ctx) == _a4_embeds_by_perms(ctx)


@pytest.mark.parametrize("spec, p", [("PSL2:13", 3), ("PGL2:9", 5), ("INV:9:16:cyclic", 2)])
def test_audit_lists_no_element_of_g(spec, p):
    """The audit (reports and claims) runs on G's store: O_pi, the minimal
    normal subgroups, basic1, the even report and the quotient G/R never
    build G's `Perm` list."""
    G = build_group(spec)
    _audit_doc(spec, G, p)
    assert G.order() >= KEYED_MIN_ORDER and G._element_list is None

"""Acceptance run: one criterion per test, one printed pass/fail line each.

The pass/fail lines print outside pytest's capture, so a plain
`pytest tests/test_acceptance.py -v` shows them as the criteria
complete.  Criterion 1 is the heavyweight one (every bundled catalogue
group at every p in {2, 3, 5, 7}, both routes); the whole file stays
within a few minutes single-threaded.
"""

import time

import pytest

from oortlab.analysis import (
    centralizer,
    is_abelian,
    is_p_group,
    is_solvable,
    normal_closure,
    o_p_prime,
    o_pi,
    p_part,
    sylow,
)
from oortlab.classify import (
    Context,
    even_structure_report,
    is_o_group_by_criterion,
    is_o_group_by_definition,
    odd_structure_report,
)
from oortlab.cli import bundled_manifest_text, parse_manifest
from oortlab.construct import build_group
from oortlab.gf import factorize
from oortlab.perm import Group, StabilizerChain, mulclose

PRIMES = (2, 3, 5, 7)


def _report(capsys, num, name, ok, detail=""):
    line = f"ACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    with capsys.disabled():
        print(line)
    assert ok, line


@pytest.fixture(scope="module")
def catalogue():
    return parse_manifest(bundled_manifest_text())


@pytest.fixture(scope="module")
def groups(catalogue):
    return {spec: build_group(spec) for spec, _, _ in catalogue}


def test_criterion_1_route_equivalence(capsys, catalogue, groups):
    """Both verdict routes agree on every catalogue group at every prime in
    {2, 3, 5, 7}, and match the hand-derived expectations where listed."""
    t0 = time.perf_counter()
    disagreements = []
    mismatches = []
    for spec, primes, expect in catalogue:
        G = groups[spec]
        for p in PRIMES:
            vd = is_o_group_by_definition(G, p)
            vc = is_o_group_by_criterion(G, p)
            if vd.is_o_group != vc.is_o_group:
                disagreements.append((spec, p))
            if expect is not None and p in primes:
                if vd.is_o_group != expect[primes.index(p)]:
                    mismatches.append((spec, p))
    elapsed = time.perf_counter() - t0
    _report(
        capsys,
        1,
        "route equivalence over bundled catalogue",
        not disagreements and not mismatches,
        f"{len(catalogue)} groups x {len(PRIMES)} primes, "
        f"{len(disagreements)} disagreements, {len(mismatches)} "
        f"expectation mismatches, {elapsed:.0f}s",
    )


NAMED_VERDICTS = [
    ("D:18", 3, True),
    ("S:4", 2, True),
    ("S:4", 3, True),
    ("S:5", 5, False),
    ("A:6", 3, False),
    ("A:6", 5, True),
    ("A:5", 2, True),
    ("Q:8", 2, False),
    ("SD:16", 2, False),
    ("PSL2:7", 3, True),
    ("PSL2:7", 7, False),
    ("PGL2:5", 5, False),
    ("PSL3_4", 5, True),
    ("INV:3:8:klein", 2, False),
    ("INV:3:8:cyclic", 2, True),
    ("DELPERM:5:S4", 2, False),
    ("DELPERM:5:S4:sign", 2, True),
    ("DELPERM:5:A4", 2, True),
]


def test_criterion_2_named_verdicts(capsys):
    """Eighteen named verdicts via the definitional route, including the
    order-20 witness for the S5 negative at p = 5."""
    bad = []
    for spec, p, expect in NAMED_VERDICTS:
        v = is_o_group_by_definition(build_group(spec), p)
        if v.is_o_group is not expect:
            bad.append((spec, p))
        if spec == "S:5" and not any(w.subgroup.order() == 20 for w in v.witnesses):
            bad.append((spec, p, "missing order-20 witness"))
    _report(capsys, 2, "named verdict table", not bad, f"{len(NAMED_VERDICTS)} verdicts, bad={bad}")


def test_criterion_3_simple_group_sweep(capsys):
    """For the linear-group entries and every odd prime p dividing the
    order, the verdict equals the divisibility condition p | q^2 - 1.  The
    order-60 group carries both labels q = 4 and q = 5, so it is positive
    for p in {3, 5}; the order-20160 simple entry is positive only at 5."""
    sweep = (
        [("PSL2:%d" % q, {q}) for q in (7, 8, 9, 11, 13)]
        + [("PSL2:4", {4, 5}), ("PSL2:5", {4, 5})]
        + [("PGL2:%d" % q, {q}) for q in (5, 7, 9)]
    )
    bad = []
    checked = 0
    for spec, qs in sweep:
        G = build_group(spec)
        n = G.order()
        for p in (3, 5, 7, 11, 13):
            if n % p:
                continue
            want = any((q * q - 1) % p == 0 for q in qs)
            got = is_o_group_by_criterion(G, p).is_o_group
            checked += 1
            if got is not want:
                bad.append((spec, p))
    G = build_group("PSL3_4")
    for p in (3, 5, 7):
        checked += 1
        if is_o_group_by_criterion(G, p).is_o_group is not (p == 5):
            bad.append(("PSL3_4", p))
    _report(capsys, 3, "simple-type divisibility sweep", not bad, f"{checked} checks, bad={bad}")


def test_criterion_4_structure_audits(capsys, catalogue, groups):
    """Every criterion-positive catalogue entry yields a violation-free
    structure report: at p = 2 with dihedral Sylow the even report (module
    factors of the semidirect entries have order r^3, order-4 traces are 1
    in the R.S4 case); at odd p the odd report with a recognized case."""
    bad = []
    audited = 0
    for spec, primes, _ in catalogue:
        G = groups[spec]
        for p in primes:
            ctx = Context(G, p)
            v = ctx.verdict
            if not v.is_o_group:
                continue
            if p == 2:
                if v.branch != "Sylow dihedral self-centralizing Kleins":
                    continue
                rep = even_structure_report(ctx)
                audited += 1
                if rep.violations:
                    bad.append((spec, 2, rep.violations))
                if spec.startswith("DELPERM"):
                    r = int(spec.split(":")[1])
                    if [cf["order"] for cf in rep.chief_factors] != [r**3]:
                        bad.append((spec, 2, "chief factor order"))
                    if rep.case == "2b:G=R.S4" and any(
                        cf.get("order4_traces") != [1] for cf in rep.chief_factors
                    ):
                        bad.append((spec, 2, "order-4 trace"))
            else:
                rep = odd_structure_report(ctx)
                audited += 1
                if rep.violations:
                    bad.append((spec, p, rep.violations))
                if rep.case not in ("G=RP", "G=RD", "G/R almost simple"):
                    bad.append((spec, p, rep.case))
    _report(capsys, 4, "structure audits on positives", not bad, f"{audited} reports, bad={bad}")


def test_criterion_5_engine_properties(capsys, catalogue, groups):
    """Sylow orders, p-core characterization, quotient multiplicativity,
    and stabilizer-chain order agreement across all catalogue groups of
    order at most 5000, in under a minute."""
    t0 = time.perf_counter()
    bad = []
    small = [(s, G) for s, G in groups.items() if G.order() <= 5000]
    for spec, G in small:
        n = G.order()
        # chain vs enumeration
        if StabilizerChain(G.degree, G.generators).order() != len(G.element_list()):
            bad.append((spec, "chain order"))
        for p in PRIMES:
            P = sylow(G, p)
            if P.order() != p_part(n, {p}):
                bad.append((spec, p, "sylow order"))
        if n <= 500:
            for p in PRIMES:
                if n % p:
                    continue
                O = o_pi(G, {p})
                oset = O.element_set()
                ogens = list(O.generators)
                # x lies in the p-core iff adjoining its normal closure
                # still gives a p-group
                for x in G.random_elements(8, seed=n) + list(G.generators):
                    if x.order() == 1 or x.order() != p_part(x.order(), {p}):
                        continue  # only p-elements are informative
                    K = normal_closure(G, [x])
                    joined = mulclose(ogens + list(K.generators))
                    in_core = x in oset
                    should = is_p_group(Group.from_element_set(G.degree, frozenset(joined)), p)
                    if in_core is not should:
                        bad.append((spec, p, "p-core characterization"))
        # quotient multiplicativity via the p'-cores
        for p in (2, 3):
            R = o_p_prime(G, p)
            if not R.is_trivial() and R.order() != G.order():
                from oortlab.perm import quotient_by

                Q, _ = quotient_by(G, R)
                if Q.order() * R.order() != n:
                    bad.append((spec, p, "quotient order"))
    elapsed = time.perf_counter() - t0
    _report(
        capsys,
        5,
        "engine properties",
        not bad and elapsed < 60.0,
        f"{len(small)} groups, {elapsed:.1f}s, bad={bad}",
    )


# (overgroup spec, generators of G inside it described by a picker, picker
# for the coprime element t)
def _solvability_instances():
    """Instances (W, G, t): t in W normalizes G, gcd(|t|, |G|) = 1, and we
    check: fixed subgroup of t abelian implies G solvable."""
    out = []
    for n in (6, 10, 18, 50, 54):
        W = build_group(f"D:{n}")
        G = W.subgroup([next(x for x in W.element_list() if x.order() == n // 2)])
        t = next(x for x in W.element_list() if x.order() == 2 and x not in G.element_set())
        out.append((f"D:{n}", W, G, t))
    for m in (3, 5, 9, 15):
        for k in (8, 16):
            spec = f"INV:{m}:{k}:cyclic"
            W = build_group(spec)
            G = o_p_prime(W, 2)
            t = next(x for x in W.element_list() if x.order() == 2)
            out.append((spec, W, G, t))
    for spec in ("A:4", "S:4"):
        W = build_group(spec)
        G = o_p_prime(W, 3)
        t = next(x for x in W.element_list() if x.order() == 3)
        out.append((spec, W, G, t))
    for spec in (
        "DELPERM:5:A4",
        "DELPERM:5:S4",
        "DELPERM:5:S4:sign",
        "DELPERM:7:A4",
        "DELPERM:7:S4",
        "DELPERM:7:S4:sign",
    ):
        W = build_group(spec)
        G = o_p_prime(W, 2)
        t = next(x for x in W.random_elements(50, seed=3) if x.order() == 3)
        out.append((spec, W, G, t))
    return out


def test_criterion_6_coprime_fixed_points(capsys):
    """Sanity property: for each instance, t acts coprimely on G by
    conjugation; whenever the fixed subgroup C_G(t) is abelian, G is
    solvable.  At least 20 instances, all with the hypothesis satisfied."""
    instances = _solvability_instances()
    bad = []
    used = 0
    import math

    for name, W, G, t in instances:
        gset = G.element_set()
        assert math.gcd(t.order(), G.order()) == 1, name
        assert all(t * g * t.inv() in gset for g in G.generators), name
        fixed = [x for x in G.element_list() if t * x == x * t]
        C = Group.from_element_set(G.degree, frozenset(fixed))
        if not is_abelian(C):
            continue  # hypothesis not met; does not count
        used += 1
        if not is_solvable(G):
            bad.append(name)
    _report(
        capsys,
        6,
        "coprime abelian-fixed-points solvability",
        not bad and used >= 20,
        f"{used} qualifying instances of {len(instances)}, bad={bad}",
    )

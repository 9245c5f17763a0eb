"""An oracle that shares no code with oortlab's routes: for each catalogue
spec, |G|, solvability and |Z(G)|, and at each of its primes the number of
Sylow p-subgroups and |C_G(P)|, as sympy's ``PermutationGroup`` computes
them from the same generators."""

import pytest

from oortlab.analysis import center, centralizer, is_solvable, normalizer, sylow
from oortlab.cli import bundled_manifest_text, parse_manifest
from oortlab.construct import build_group

combinatorics = pytest.importorskip("sympy.combinatorics")

# Left out for time: sympy's side took over 0.3 s on each of these specs,
# and over 8 s on each spec of these families; the rest take a few seconds
# together.
SLOW = {"PSL3_4", "INV:9:8:cyclic", "INV:15:8:klein", "INV:3:16:cyclic", "INV:5:16:klein"}
SLOW_FAMILIES = ("INV:9:16:", "INV:15:16:", "DELPERM:")

CASES = [
    (spec, primes)
    for spec, primes, _ in parse_manifest(bundled_manifest_text())
    if spec not in SLOW and not spec.startswith(SLOW_FAMILIES)
]


def _sympy_group(G):
    gens = [combinatorics.Permutation(list(g)) for g in G.generators]
    return combinatorics.PermutationGroup(gens or [combinatorics.Permutation(list(range(G.degree)))])


def _sympy_sylow_count(Gs, P):
    """The size of P's orbit under conjugation by Gs's generators, each
    subgroup keyed by its element set."""

    def key(H):
        return frozenset(tuple(x.array_form) for x in H.generate())

    seen, frontier = {key(P)}, [P]
    while frontier:
        new = []
        for H in frontier:
            for g in Gs.generators:
                K = combinatorics.PermutationGroup([x ^ g for x in H.generators])
                k = key(K)
                if k not in seen:
                    seen.add(k)
                    new.append(K)
        frontier = new
    return len(seen)


@pytest.mark.parametrize("spec,primes", CASES, ids=[spec for spec, _ in CASES])
def test_orders_match_sympy(spec, primes):
    G = build_group(spec)
    Gs = _sympy_group(G)
    assert (G.order(), is_solvable(G), center(G).order()) == (Gs.order(), Gs.is_solvable, Gs.center().order())
    for p in primes:
        P, Ps = sylow(G, p), Gs.sylow_subgroup(p)
        ours = (G.order() // normalizer(G, P).order(), centralizer(G, P).order())
        assert ours == (_sympy_sylow_count(Gs, Ps), Gs.centralizer(Ps).order()), p

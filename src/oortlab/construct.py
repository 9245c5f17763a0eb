"""Concrete permutation constructions for every named group family.

Each constructor checks its output against the closed-form order
(:meth:`Group.has_order`) and raises ConstructionError on mismatch, so
generator choices are checked rather than trusted: a group of order below
KEYED_MIN_ORDER by listing it with :func:`mulclose`, which stops past the
expected order, and a larger one by its stabilizer chain.

Spec grammar (parse with :func:`build_group`):
  C:m  D:2n  Q:2^k  SD:2^k  A:n  S:n  PSL2:q  PGL2:q  PSL3_4
  INV:m:2^k:cyclic|klein   DELPERM:r:A4|S4[:sign]   PROD:(spec)x(spec)
"""

from __future__ import annotations

import math

from .errors import ConstructionError, TooLarge
from .gf import MAX_Q, Field, field, prime_power
from .perm import Group, Perm, make_perm, perm_from_cycles


def _checked(G: Group, expected_order: int, what: str) -> Group:
    if not G.has_order(expected_order):
        raise ConstructionError(f"{what}: chain order {G.chain.order()} != expected {expected_order}")
    return G


def cyclic(m: int) -> Group:
    if m < 1:
        raise ValueError(f"cyclic order must be >= 1, got {m}")
    if m == 1:
        return Group(1, [])
    g = Perm(tuple(range(1, m)) + (0,))
    return _checked(Group(m, [g]), m, f"C{m}")


def dihedral(two_n: int) -> Group:
    if two_n < 2 or two_n % 2:
        raise ValueError(f"dihedral order must be even >= 2, got {two_n}")
    if two_n == 2:
        return cyclic(2)
    if two_n == 4:
        # Klein four group, by this artifact's convention.
        G = Group(4, [perm_from_cycles(4, [(0, 1)]), perm_from_cycles(4, [(2, 3)])])
        return _checked(G, 4, "D4")
    n = two_n // 2
    rot = Perm(tuple(range(1, n)) + (0,))
    ref = Perm(tuple((n - i) % n for i in range(n)))
    return _checked(Group(n, [rot, ref]), two_n, f"D{two_n}")


def _two_part_params(two_k: int, minimum: int, what: str) -> int:
    if two_k < minimum or two_k & (two_k - 1):
        raise ValueError(f"{what} order must be a power of 2 >= {minimum}, got {two_k}")
    return two_k // 2


def quaternion(two_k: int) -> Group:
    """Generalized quaternion group of order 2^k >= 8, via its left-regular
    action on the points a^i b^e."""
    n = _two_part_params(two_k, 8, "quaternion")

    def idx(i: int, e: int) -> int:
        return i % n + (e % 2) * n

    a = Perm(tuple(idx(i + 1, e) for e in (0, 1) for i in range(n)))
    # b * a^i b^e = a^{-i} b^{e+1}, with b^2 = a^{n/2}.
    img = [0] * two_k
    for e in (0, 1):
        for i in range(n):
            if e == 0:
                img[idx(i, 0)] = idx(-i, 1)
            else:
                img[idx(i, 1)] = idx(-i + n // 2, 0)
    b = make_perm(img)
    return _checked(Group(two_k, [a, b]), two_k, f"Q{two_k}")


def semidihedral(two_k: int) -> Group:
    """Semidihedral group of order 2^k >= 16 (left-regular action)."""
    n = _two_part_params(two_k, 16, "semidihedral")
    t = n // 2 - 1  # b a b^-1 = a^t

    def idx(i: int, e: int) -> int:
        return i % n + (e % 2) * n

    a = Perm(tuple(idx(i + 1, e) for e in (0, 1) for i in range(n)))
    img = [0] * two_k
    for e in (0, 1):
        for i in range(n):
            img[idx(i, e)] = idx(i * t, 1 - e)
    b = make_perm(img)
    return _checked(Group(two_k, [a, b]), two_k, f"SD{two_k}")


def symmetric(n: int) -> Group:
    if n < 1:
        raise ValueError(f"symmetric degree must be >= 1, got {n}")
    if n == 1:
        return Group(1, [])
    gens = [perm_from_cycles(n, [(0, 1)]), perm_from_cycles(n, [tuple(range(n))])]
    return _checked(Group(n, gens), math.factorial(n), f"S{n}")


def alternating(n: int) -> Group:
    if n < 1:
        raise ValueError(f"alternating degree must be >= 1, got {n}")
    if n <= 2:
        return Group(max(n, 1), [])
    if n == 3:
        gens = [perm_from_cycles(3, [(0, 1, 2)])]
    elif n % 2:
        gens = [perm_from_cycles(n, [(0, 1, 2)]), perm_from_cycles(n, [tuple(range(n))])]
    else:
        gens = [perm_from_cycles(n, [(0, 1, 2)]), perm_from_cycles(n, [tuple(range(1, n))])]
    return _checked(Group(n, gens), math.factorial(n) // 2, f"A{n}")


# -- projective linear groups ------------------------------------------


def _proj_line_perm(F: Field, mat: tuple[int, int, int, int]) -> Perm:
    """Fractional-linear action of [[a,b],[c,d]] on P^1(F): x at index x,
    the point at infinity at index q."""
    a, b, c, d = mat
    q = F.q
    img = [0] * (q + 1)
    for x in range(q):
        num = F.add(F.mul(a, x), b)
        den = F.add(F.mul(c, x), d)
        img[x] = q if den == 0 else F.div(num, den)
    img[q] = F.div(a, c) if c != 0 else q
    return make_perm(img)


def _check_q(q: int) -> Field:
    r, _ = prime_power(q)
    if not (4 <= q <= MAX_Q):
        raise TooLarge(f"q must satisfy 4 <= q <= {MAX_Q}, got {q}")
    return field(q)


def psl2(q: int) -> Group:
    F = _check_q(q)
    basis = [F.char**i for i in range(F.deg)]
    gens = []
    for lam in basis:
        gens.append(_proj_line_perm(F, (1, lam, 0, 1)))
        gens.append(_proj_line_perm(F, (1, 0, lam, 1)))
    expected = q * (q * q - 1) // math.gcd(2, q - 1)
    return _checked(Group(q + 1, gens), expected, f"PSL(2,{q})")


def pgl2(q: int) -> Group:
    F = _check_q(q)
    gens = [g for g in psl2(q).generators]
    gens.append(_proj_line_perm(F, (F.primitive, 0, 0, 1)))
    return _checked(Group(q + 1, gens), q * (q * q - 1), f"PGL(2,{q})")


def _proj_plane_points(F: Field) -> tuple[list[tuple[int, int, int]], dict]:
    pts = set()
    for a in range(F.q):
        for b in range(F.q):
            for c in range(F.q):
                if a == b == c == 0:
                    continue
                v = (a, b, c)
                lead = next(x for x in v if x != 0)
                s = F.inv(lead)
                pts.add(tuple(F.mul(s, x) for x in v))
    ordered = sorted(pts)
    return ordered, {p: i for i, p in enumerate(ordered)}


def psl3_4() -> Group:
    """PSL(3,4) on the 21 points of the projective plane over GF(4)."""
    F = field(4)
    pts, index = _proj_plane_points(F)

    def elem_mat(i: int, j: int, lam: int) -> list[list[int]]:
        m = [[1 if a == b else 0 for b in range(3)] for a in range(3)]
        m[i][j] = lam
        return m

    def mat_perm(m: list[list[int]]) -> Perm:
        img = []
        for p in pts:
            v = tuple(
                F.add(F.add(F.mul(m[i][0], p[0]), F.mul(m[i][1], p[1])), F.mul(m[i][2], p[2]))
                for i in range(3)
            )
            lead = next(x for x in v if x != 0)
            s = F.inv(lead)
            img.append(index[tuple(F.mul(s, x) for x in v)])
        return make_perm(img)

    gens = [
        mat_perm(elem_mat(i, j, lam))
        for i in range(3)
        for j in range(3)
        if i != j
        for lam in (1, 2)
    ]
    return _checked(Group(21, gens), 20160, "PSL(3,4)")


# -- semidirect-product families ---------------------------------------


def abelian_by_dihedral_inversion(m: int, two_k: int, kernel: str) -> Group:
    """C_m : D_{2^j}, the dihedral group acting by inversion with the chosen
    index-2 subgroup (maximal cyclic, or a Klein-containing dihedral one)
    acting trivially.  Left-regular action on the m * 2^j group elements."""
    if m < 1 or m % 2 == 0:
        raise ValueError(f"m must be odd >= 1, got {m}")
    n = _two_part_params(two_k, 8, "dihedral part")
    kernel = kernel.lower()
    if kernel not in ("cyclic", "klein"):
        raise ValueError(f"kernel must be 'cyclic' or 'klein', got {kernel!r}")

    def chi(i: int, e: int) -> int:
        # +1/-1 character of D_{2n} with the chosen kernel.
        return (-1) ** e if kernel == "cyclic" else (-1) ** i

    def idx(a: int, i: int, e: int) -> int:
        return a % m + m * (i % n + n * (e % 2))

    degree = m * two_k
    imgs = {"a": [0] * degree, "r": [0] * degree, "s": [0] * degree}
    for a in range(m):
        for i in range(n):
            for e in (0, 1):
                p = idx(a, i, e)
                imgs["a"][p] = idx(a + 1, i, e)
                imgs["r"][p] = idx(chi(1, 0) * a, i + 1, e)
                imgs["s"][p] = idx(chi(0, 1) * a, -i, e + 1)
    gens = [make_perm(imgs[k]) for k in ("a", "r", "s") if not (k == "a" and m == 1)]
    return _checked(Group(degree, gens), degree, f"INV:{m}:{two_k}:{kernel}")


_TOP_GENS = {
    "A4": [[(0, 1, 2)], [(0, 1), (2, 3)]],
    "S4": [[(0, 1, 2, 3)], [(0, 1)]],
}


def _coord_perm_sign(cycles: list[tuple[int, ...]]) -> int:
    flips = sum(len(c) - 1 for c in cycles)
    return -1 if flips % 2 else 1


def deleted_perm_semidirect(r: int, top: str, sign_twist: bool = False) -> Group:
    """(C_r)^3 : top acting affinely on the r^3 zero-sum vectors of GF(r)^4.

    The linear part permutes coordinates (the deleted permutation module),
    multiplied by the sign character when sign_twist is set.
    """
    if r not in (5, 7, 11, 13):
        raise ValueError(f"r must be one of 5, 7, 11, 13, got {r}")
    top = top.upper()
    if top not in _TOP_GENS:
        raise ValueError(f"top must be A4 or S4, got {top!r}")
    if sign_twist and top != "S4":
        raise ValueError("sign twist is only meaningful for S4")

    def vec(code: int) -> tuple[int, ...]:
        x1, x2, x3 = code % r, (code // r) % r, code // (r * r)
        return (x1, x2, x3, (-(x1 + x2 + x3)) % r)

    def code(v: tuple[int, ...]) -> int:
        return v[0] + r * v[1] + r * r * v[2]

    degree = r**3
    gens: list[Perm] = []
    for basis in ((1, r - 1, 0, 0), (0, 1, r - 1, 0), (0, 0, 1, r - 1)):
        gens.append(
            make_perm([code(tuple((a + b) % r for a, b in zip(vec(p), basis))) for p in range(degree)])
        )
    for cycles in _TOP_GENS[top]:
        sigma_inv = perm_from_cycles(4, cycles).inv()
        eps = _coord_perm_sign(cycles) if sign_twist else 1
        img = []
        for p in range(degree):
            v = vec(p)
            w = tuple(eps * v[sigma_inv[i]] % r for i in range(4))
            img.append(code(w))
        gens.append(make_perm(img))
    top_order = 12 if top == "A4" else 24
    name = f"DELPERM:{r}:{top}{':sign' if sign_twist else ''}"
    return _checked(Group(degree, gens), degree * top_order, name)


def direct_product(G1: Group, G2: Group) -> Group:
    """Action on the disjoint union of the two point sets."""
    d1, d2 = G1.degree, G2.degree
    gens = [Perm(tuple(g) + tuple(range(d1, d1 + d2))) for g in G1.generators]
    gens += [Perm(tuple(range(d1)) + tuple(x + d1 for x in g)) for g in G2.generators]
    return _checked(Group(d1 + d2, gens), G1.order() * G2.order(), "direct product")


# -- spec grammar ------------------------------------------------------


def _split_product(body: str) -> tuple[str, str]:
    # body looks like "(spec)x(spec)" with possible nesting
    if not body.startswith("("):
        raise ValueError(f"malformed product spec: PROD:{body}")
    depth = 0
    for i, ch in enumerate(body):
        depth += ch == "("
        depth -= ch == ")"
        if depth == 0:
            left = body[1:i]
            rest = body[i + 1 :]
            if not rest.startswith("x(") or not rest.endswith(")"):
                raise ValueError(f"malformed product spec: PROD:{body}")
            return left, rest[2:-1]
    raise ValueError(f"unbalanced parentheses in product spec: PROD:{body}")


def build_group(spec: str) -> Group:
    """Parse a GroupSpec string and construct the group."""
    spec = spec.strip()
    if spec == "PSL3_4":
        return psl3_4()
    if spec.startswith("PROD:"):
        left, right = _split_product(spec[5:])
        return direct_product(build_group(left), build_group(right))
    parts = spec.split(":")
    kind = parts[0].upper()
    try:
        if kind == "C" and len(parts) == 2:
            return cyclic(int(parts[1]))
        if kind == "D" and len(parts) == 2:
            return dihedral(int(parts[1]))
        if kind == "Q" and len(parts) == 2:
            return quaternion(int(parts[1]))
        if kind == "SD" and len(parts) == 2:
            return semidihedral(int(parts[1]))
        if kind == "A" and len(parts) == 2:
            return alternating(int(parts[1]))
        if kind == "S" and len(parts) == 2:
            return symmetric(int(parts[1]))
        if kind == "PSL2" and len(parts) == 2:
            return psl2(int(parts[1]))
        if kind == "PGL2" and len(parts) == 2:
            return pgl2(int(parts[1]))
        if kind == "INV" and len(parts) == 4:
            return abelian_by_dihedral_inversion(int(parts[1]), int(parts[2]), parts[3])
        if kind == "DELPERM" and len(parts) in (3, 4):
            twist = len(parts) == 4
            if twist and parts[3].lower() != "sign":
                raise ValueError(f"unknown DELPERM modifier {parts[3]!r}")
            return deleted_perm_semidirect(int(parts[1]), parts[2], twist)
    except ValueError as exc:
        raise ValueError(f"bad group spec {spec!r}: {exc}") from exc
    raise ValueError(f"unrecognized group spec {spec!r}")

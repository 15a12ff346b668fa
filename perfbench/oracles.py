"""Reference answers computed without the code paths the benchmark times.

Cohomology answers come from classical integral homology through the
universal coefficient theorem, the Kuenneth formula for products, and the
periodic resolution of a cyclic group for twisted coefficients.  Cochain
values are re-evaluated tuple by tuple from the group table with the
defining formulas, in plain Python.
"""

from __future__ import annotations

import itertools
from math import gcd

# Integral homology H_0..H_3 of the base groups: (free rank, torsion orders).
_BASE_HOMOLOGY = {
    "S3": [(1, []), (0, [2]), (0, []), (0, [6])],
    "D4": [(1, []), (0, [2, 2]), (0, [2]), (0, [2, 2, 4])],
    "Q8": [(1, []), (0, [2, 2]), (0, []), (0, [8])],
}


def integral_homology(name: str, degree: int):
    """H_0..H_degree of a base group 'Z/k', 'S3', 'D4' or 'Q8'."""
    if name.startswith("Z/"):
        k = int(name[2:])
        return [(1, [])] + [(0, [k] if j % 2 else []) for j in range(1, degree + 1)]
    return _BASE_HOMOLOGY[name][: degree + 1]


def _tensor(a, b):
    fa, ta = a
    fb, tb = b
    tors = [x for x in ta for _ in range(fb)] + [x for x in tb for _ in range(fa)]
    tors += [gcd(x, y) for x in ta for y in tb]
    return fa * fb, tors


def _tor(a, b):
    return 0, [gcd(x, y) for x in a[1] for y in b[1]]


def product_homology(left, right, degree: int):
    """Kuenneth formula: integral homology of G x H from that of G and H."""
    out = []
    for n in range(degree + 1):
        free, tors = 0, []
        for i in range(n + 1):
            f, t = _tensor(left[i], right[n - i])
            free, tors = free + f, tors + t
        for i in range(n):
            _, t = _tor(left[i], right[n - 1 - i])
            tors += t
        out.append((free, tors))
    return out


def _prime_powers(x: int):
    p, out = 2, []
    while x > 1:
        if x % p == 0:
            q = 1
            while x % p == 0:
                x //= p
                q *= p
            out.append((p, q))
        p += 1
    return out


def invariant_factors(orders) -> tuple[int, ...]:
    """Invariant-factor form d_1 | d_2 | ... of a product of cyclic groups."""
    by_prime: dict[int, list[int]] = {}
    for x in orders:
        for p, q in _prime_powers(int(x)):
            by_prime.setdefault(p, []).append(q)
    length = max((len(v) for v in by_prime.values()), default=0)
    factors = [1] * length
    for powers in by_prime.values():
        for j, q in enumerate(sorted(powers, reverse=True)):
            factors[length - 1 - j] *= q
    return tuple(factors)


def cohomology_factors(homology, degree: int, module_orders) -> tuple[int, ...]:
    """H^degree(G, Z/m_1 + ... + Z/m_r) with trivial action, by universal coefficients."""
    orders = []
    for m in module_orders:
        free, tors = homology[degree]
        orders += [m] * free + [gcd(t, m) for t in tors]
        _, prev = homology[degree - 1]
        orders += [gcd(t, m) for t in prev]
    return invariant_factors([x for x in orders if x > 1])


def cyclic_twisted_factors(group_order: int, unit: int, modulus: int, degree: int) -> tuple[int, ...]:
    """H^degree(Z/k, Z/m) where the generator acts by multiplication by ``unit``.

    From the periodic resolution: H^0 = ker(u-1), H^even = ker(u-1)/N M and
    H^odd = ker N/(u-1) M with N = 1 + u + ... + u^(k-1).  A subquotient of a
    cyclic group is cyclic; |ker a| = gcd(a, m) and |b M| = m / gcd(b, m), so
    both positive degrees have order gcd(u-1, m) gcd(N, m) / m.
    """
    norm = sum(pow(unit, i, modulus) for i in range(group_order)) % modulus
    order = gcd(unit - 1, modulus)
    if degree > 0:
        order = order * gcd(norm, modulus) // modulus
    return (order,) if order > 1 else ()


# ---------------------------------------------------------------------------
# Tuple-by-tuple evaluation of cochain formulas from the group table.


def encode(tup, m: int) -> int:
    idx = 0
    for g in tup:
        idx = idx * m + int(g)
    return idx


def act(matrices, g, vec, orders):
    """Action of g on a module vector, reduced per coordinate."""
    if matrices is None:
        return [int(v) % o for v, o in zip(vec, orders)]
    mat = matrices[g]
    r = len(orders)
    return [sum(int(mat[u][v]) * int(vec[v]) for v in range(r)) % orders[u] for u in range(r)]


def differential_at(values, mul, matrices, orders, degree: int, tup):
    """df(g_1..g_{i+1}) evaluated directly from the signed formula."""
    m = len(mul)
    r = len(orders)
    acc = act(matrices, tup[0], values[encode(tup[1:], m)], orders)
    for k in range(1, degree + 1):
        merged = tup[: k - 1] + (int(mul[tup[k - 1]][tup[k]]),) + tup[k + 1 :]
        term = values[encode(merged, m)]
        acc = [acc[u] + (-1) ** k * int(term[u]) for u in range(r)]
    term = values[encode(tup[:degree], m)]
    acc = [acc[u] + (-1) ** (degree + 1) * int(term[u]) for u in range(r)]
    return [acc[u] % orders[u] for u in range(r)]


def cup_at(xv, yv, mul, matrices, orders, p: int, q: int, tup):
    """(x cup y)(g) = x(front) * (front product . y(back))."""
    m = len(mul)
    front, back = tup[:p], tup[p:]
    prefix = 0
    for g in front:
        prefix = int(mul[prefix][g])
    x = [int(v) for v in xv[encode(front, m)]]
    y = act(matrices, prefix, yv[encode(back, m)], orders)
    if len(x) == 1:
        return [(x[0] * v) % o for v, o in zip(y, orders)]
    return [(v * y[0]) % o for v, o in zip(x, orders)]


def conjugate_at(values, mul, inverse, matrices, orders, a: int, tup):
    """f^a(g) = a^{-1} . f(a g_1 a^{-1}, ...)."""
    m = len(mul)
    ainv = int(inverse[a])
    moved = tuple(int(mul[int(mul[a][g])][ainv]) for g in tup)
    return act(matrices, ainv, values[encode(moved, m)], orders)


def homotopy_at(values, mul, inverse, orders, avec, n_out: int, tup):
    """Shuffle-path homotopy h_{a_1..a_k, f} at one tuple, from its definition.

    A path is the set of positions of its k vertical steps among n + k; its
    sign is the parity of (horizontal step, later vertical step) pairs.  A
    vertical step at height t feeds a_{k-t}^{-1}; a horizontal step at
    height t feeds x_s conjugated by a_{k-t+1} ... a_k.
    """
    m = len(mul)
    k = len(avec)

    def op(x, y):
        return int(mul[x][y])

    conj = []
    for t in range(k + 1):
        c = 0
        for a in avec[k - t :]:
            c = op(c, a)
        conj.append(c)
    acc = [0] * len(orders)
    for vert in itertools.combinations(range(n_out + k), k):
        vset = set(vert)
        s = t = inversions = horizontals = 0
        args = []
        for pos in range(n_out + k):
            if pos in vset:
                args.append(int(inverse[avec[k - t - 1]]))
                inversions += horizontals
                t += 1
            else:
                c = conj[t]
                args.append(op(op(c, tup[s]), int(inverse[c])))
                horizontals += 1
                s += 1
        sign = -1 if inversions % 2 else 1
        term = values[encode(args, m)]
        acc = [acc[u] + sign * int(term[u]) for u in range(len(orders))]
    return [acc[u] % orders[u] for u in range(len(orders))]

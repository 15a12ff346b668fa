"""Finite groups given by multiplication tables, homomorphisms, and module actions.

Groups are presented by full tables with element 0 always the identity, so
that every downstream table (cochain values, differentials, serialized data)
indexes elements deterministically.  Profinite Galois groups are modelled by
finite quotients supplied as data; nothing here knows about number fields.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .zmod import ModuleOverZn, _element, _elements, _freeze


class NotAGroupError(ValueError):
    """Raised with a witness when a table fails the group axioms."""


class NotAHomError(ValueError):
    """Raised with a witness pair when a map fails the homomorphism law."""


class FiniteGroup:
    """A finite group of order m: an m x m table of element indices.

    Index 0 is the identity.  Immutable and hashable; two groups are equal
    exactly when their tables are.
    """

    __slots__ = ("mul", "inverse", "order")

    def __init__(self, mul: np.ndarray, inverse: np.ndarray):
        self.mul = _freeze(mul)
        self.inverse = _freeze(inverse)
        self.order = mul.shape[0]

    def __eq__(self, other):
        return isinstance(other, FiniteGroup) and np.array_equal(self.mul, other.mul)

    def __hash__(self):
        return hash(self.mul.tobytes())

    def __repr__(self):
        return f"FiniteGroup(order={self.order})"

    def op(self, a: int, b: int) -> int:
        return int(self.mul[a, b])

    def inv(self, a: int) -> int:
        return int(self.inverse[a])

    def elements(self) -> range:
        return range(self.order)

    def element_order(self, a: int) -> int:
        k, x = 1, a
        while x != 0:
            x = self.op(x, a)
            k += 1
        return k

    def is_abelian(self) -> bool:
        return bool(np.array_equal(self.mul, self.mul.T))

    def is_subgroup(self, subset) -> bool:
        s = _subset(subset)
        if not s or s[0] != 0 or any(not 0 <= x < self.order for x in s):
            return False
        inside = set(s)
        return all(self.op(a, b) in inside for a in s for b in s) and all(
            self.inv(a) in inside for a in s
        )

    def is_normal(self, subset) -> bool:
        if not self.is_subgroup(subset):
            return False
        inside = set(_subset(subset))
        return all(
            self.op(self.op(g, h), self.inv(g)) in inside
            for g in self.elements()
            for h in inside
        )

    def quotient_by(self, subset) -> tuple["FiniteGroup", "GroupHom"]:
        """Quotient by a normal subgroup; cosets ordered by minimal element."""
        inside = _subset(subset)
        if not self.is_normal(inside):
            raise NotAGroupError(f"subset {inside} is not a normal subgroup")
        coset_of = {g: tuple(sorted(self.op(g, h) for h in inside)) for g in self.elements()}
        cosets = sorted(set(coset_of.values()))  # the identity coset contains 0, so it is first
        quot = _table_group(cosets, lambda c, d: coset_of[self.op(c[0], d[0])])
        return quot, GroupHom(self, quot, [cosets.index(coset_of[g]) for g in self.elements()])


def _subset(subset) -> list[int]:
    """The distinct elements of ``subset`` in increasing order, each read by
    ``_element``, so a float or bool raises instead of being truncated."""
    return sorted({_element(x) for x in subset})


def make_group(mul_table) -> FiniteGroup:
    """Validate a multiplication table and build the group.

    Index 0 must be a two-sided identity, every element needs a two-sided
    inverse, and the table must be associative.  Failures raise NotAGroupError
    carrying a witness.
    """
    mul = _elements(mul_table, "table entry")
    if mul.ndim != 2 or mul.shape[0] != mul.shape[1]:
        raise NotAGroupError("multiplication table must be square")
    m = mul.shape[0]
    if m == 0:
        raise NotAGroupError("empty table")
    if mul.min() < 0 or mul.max() >= m:
        raise NotAGroupError("table entries out of range")
    idx = np.arange(m)
    if not (np.array_equal(mul[0], idx) and np.array_equal(mul[:, 0], idx)):
        bad = int(np.flatnonzero((mul[0] != idx) | (mul[:, 0] != idx))[0])
        raise NotAGroupError(f"element 0 is not a two-sided identity (witness {bad})")
    inverse = np.full(m, -1, dtype=np.int64)
    for a in range(m):
        hits = np.flatnonzero(mul[a] == 0)
        for b in hits:
            if mul[b, a] == 0:
                inverse[a] = b
                break
        if inverse[a] < 0:
            raise NotAGroupError(f"element {a} has no two-sided inverse")
    left = mul[mul, :]          # left[a, b, c] = (a*b)*c
    right = mul[:, mul]         # right[a, b, c] = a*(b*c)
    if not np.array_equal(left, right):
        a, b, c = (int(x) for x in np.argwhere(left != right)[0])
        raise NotAGroupError(f"associativity fails at witness ({a}, {b}, {c})")
    return FiniteGroup(mul.copy(), inverse)


def _table_group(elements, op) -> FiniteGroup:
    """The group on ``elements`` (identity first) under the law ``op``.

    The list order is the element order: ``elements[i]`` becomes index i.
    """
    pos = {e: i for i, e in enumerate(elements)}
    return make_group([[pos[op(a, b)] for b in elements] for a in elements])


class GroupHom:
    """A homomorphism dom -> cod stored as a length-|dom| table of cod indices."""

    __slots__ = ("dom", "cod", "map")

    def __init__(self, dom: FiniteGroup, cod: FiniteGroup, mapping: np.ndarray):
        self.dom = dom
        self.cod = cod
        self.map = _freeze(_elements(mapping, "map entry").copy())

    def __call__(self, g: int) -> int:
        return int(self.map[g])

    def __eq__(self, other):
        return (
            isinstance(other, GroupHom)
            and self.dom == other.dom
            and self.cod == other.cod
            and np.array_equal(self.map, other.map)
        )

    def __hash__(self):
        return hash((self.dom, self.cod, self.map.tobytes()))

    def __repr__(self):
        return f"GroupHom({self.map.tolist()})"

    def is_injective(self) -> bool:
        return len(set(self.map.tolist())) == self.dom.order

    def is_trivial(self) -> bool:
        return not self.map.any()

    def compose(self, inner: "GroupHom") -> "GroupHom":
        """self after inner: dom(inner) -> cod(self)."""
        if inner.cod != self.dom:
            raise NotAHomError("composition domains do not match")
        return GroupHom(inner.dom, self.cod, self.map[inner.map])


def make_hom(dom: FiniteGroup, cod: FiniteGroup, mapping) -> GroupHom:
    """Validate mapping(g*h) == mapping(g)*mapping(h) on all pairs."""
    mp = _elements(mapping, "map entry")
    if mp.shape != (dom.order,):
        raise NotAHomError("map table has the wrong length")
    if mp.min() < 0 or mp.max() >= cod.order:
        raise NotAHomError("map entries out of range")
    if mp[0] != 0:
        raise NotAHomError("identity is not sent to identity (witness (0, 0))")
    lhs = mp[dom.mul]
    rhs = cod.mul[np.ix_(mp, mp)]
    if not np.array_equal(lhs, rhs):
        g, h = (int(x) for x in np.argwhere(lhs != rhs)[0])
        raise NotAHomError(f"homomorphism law fails at witness pair ({g}, {h})")
    return GroupHom(dom, cod, mp)


def trivial_hom(dom: FiniteGroup, cod: FiniteGroup) -> GroupHom:
    return GroupHom(dom, cod, np.zeros(dom.order, dtype=np.int64))


def identity_hom(g: FiniteGroup) -> GroupHom:
    return GroupHom(g, g, np.arange(g.order, dtype=np.int64))


def conjugation_hom(g: FiniteGroup, a: int) -> GroupHom:
    """The inner automorphism x -> a x a^{-1}."""
    a = _element(a)
    if not 0 <= a < g.order:
        raise NotAHomError(f"element {a} out of range")
    cmap = g.mul[a][g.mul[:, g.inv(a)]]
    return GroupHom(g, g, cmap)


def inclusion_hom(sub_elements, g: FiniteGroup) -> GroupHom:
    """Embed the abstract group on ``sub_elements`` (a subgroup of g) into g."""
    elems = _subset(sub_elements)
    if not g.is_subgroup(elems):
        raise NotAGroupError(f"{elems} is not a subgroup")
    return make_hom(_table_group(elems, g.op), g, elems)


# ---------------------------------------------------------------------------
# Stock groups.  Element 0 is the identity in every construction.


def cyclic(n: int) -> FiniteGroup:
    idx = np.arange(n)
    return make_group((idx[:, None] + idx[None, :]) % n)


def direct_product(a: FiniteGroup, b: FiniteGroup) -> FiniteGroup:
    """Pairs (x, y) encoded as x * |b| + y."""
    pairs = [(x, y) for x in a.elements() for y in b.elements()]
    return _table_group(pairs, lambda p, q: (a.op(p[0], q[0]), b.op(p[1], q[1])))


def klein_four() -> FiniteGroup:
    return direct_product(cyclic(2), cyclic(2))


def symmetric3() -> FiniteGroup:
    """S3 as permutations of {0,1,2} in lexicographic order, composed left-first:
    (p*q)(x) = p(q(x))."""
    perms = [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]
    return _table_group(perms, lambda p, q: tuple(p[x] for x in q))


def s3_sign_hom(s3: FiniteGroup, target: FiniteGroup) -> GroupHom:
    """The sign character of symmetric3() into cyclic(2)."""
    return make_hom(s3, target, [0, 1, 1, 0, 0, 1])


def dihedral4() -> FiniteGroup:
    """D4, order 8: r^i s^a encoded as a*4 + i, with s r s = r^{-1}."""
    def law(x, y):
        # (r^i s^a)(r^j s^b) = r^{i + (-1)^a j} s^{a+b}
        (i, a), (j, b) = x, y
        return (i + (-j if a else j)) % 4, (a + b) % 2

    return _table_group([(i, a) for a in range(2) for i in range(4)], law)


def quaternion8() -> FiniteGroup:
    """Q8 with elements 1, i, j, k, -1, -i, -j, -k in that order."""
    basis_mul = {  # (b1, b2) -> (sign, basis) for b in {1, i, j, k} = {0, 1, 2, 3}
        (0, 0): (1, 0), (0, 1): (1, 1), (0, 2): (1, 2), (0, 3): (1, 3),
        (1, 0): (1, 1), (1, 1): (-1, 0), (1, 2): (1, 3), (1, 3): (-1, 2),
        (2, 0): (1, 2), (2, 1): (-1, 3), (2, 2): (-1, 0), (2, 3): (1, 1),
        (3, 0): (1, 3), (3, 1): (1, 2), (3, 2): (-1, 1), (3, 3): (-1, 0),
    }
    def law(x, y):
        s, b = basis_mul[(x[1], y[1])]
        return s * x[0] * y[0], b

    return _table_group([(s, b) for s in (1, -1) for b in range(4)], law)


# ---------------------------------------------------------------------------
# Module actions.


@dataclass(frozen=True)
class GModuleAction:
    """A left action of a group on a ModuleOverZn by automorphisms.

    ``matrices[g]`` is the r x r integer matrix of the automorphism action(g);
    entry (u, v) is a homomorphism Z/orders[v] -> Z/orders[u], so it must
    kill orders[v] modulo orders[u].
    """

    group: FiniteGroup
    module: ModuleOverZn
    matrices: np.ndarray

    def __post_init__(self):
        mats = _elements(self.matrices, "action matrix entry").copy()
        r = self.module.rank
        if mats.shape != (self.group.order, r, r):
            raise ValueError("need one r x r matrix per group element")
        orders = np.asarray(self.module.orders, dtype=np.int64)
        mats %= orders[None, :, None]  # reduce each row mod its target order
        eye = np.eye(r, dtype=np.int64) % orders[:, None]
        if not np.array_equal(mats[0] % orders[:, None], eye):
            raise ValueError("action of the identity must be the identity map")
        # well-defined on each cyclic factor
        if ((mats * orders[None, None, :]) % orders[None, :, None]).any():
            raise ValueError("action matrix does not respect the cyclic orders")
        # action(g*h) == action(g) action(h), which needs no check when every
        # matrix is the identity, as for most pulled-back scalar actions
        object.__setattr__(self, "_trivial", bool((mats == eye).all()))
        if not self._trivial:
            comp = np.einsum("guv,hvw->ghuw", mats, mats) % orders[None, None, :, None]
            table = mats[self.group.mul]
            if not np.array_equal(comp, table):
                g, h = (int(x) for x in np.argwhere((comp != table).any(axis=(2, 3)))[0])
                raise ValueError(f"action is not multiplicative at witness pair ({g}, {h})")
        # hence action(g) action(g^{-1}) == action(0) == id: every matrix is invertible
        object.__setattr__(self, "matrices", _freeze(mats))

    @property
    def modulus(self) -> int:
        return self.module.modulus

    def is_trivial(self) -> bool:
        return self._trivial

    def apply(self, g: int, values) -> np.ndarray:
        v = np.asarray(values, dtype=np.int64)
        return self.module.reduce(v @ self.matrices[g].T)

    def __eq__(self, other):
        return (
            isinstance(other, GModuleAction)
            and self.group == other.group
            and self.module == other.module
            and np.array_equal(self.matrices, other.matrices)
        )

    def __hash__(self):
        return hash((self.group, self.module, self.matrices.tobytes()))

    @classmethod
    def trivial(cls, group: FiniteGroup, module: ModuleOverZn) -> "GModuleAction":
        return cls.by_units(group, module, np.ones(group.order, dtype=np.int64))

    @classmethod
    def by_units(cls, group: FiniteGroup, module: ModuleOverZn, units) -> "GModuleAction":
        """Scalar action: element g acts as multiplication by units[g]."""
        units = _elements(units, "unit")
        eye = np.eye(module.rank, dtype=np.int64)
        return cls(group, module, units[:, None, None] * eye[None])

    @classmethod
    def by_character(cls, hom: GroupHom, module: ModuleOverZn, unit: int) -> "GModuleAction":
        """g acts as multiplication by unit**hom(g); hom targets a cyclic group."""
        units = [pow(_element(unit, "unit"), int(e), module.modulus) for e in hom.map]
        return cls.by_units(hom.dom, module, units)

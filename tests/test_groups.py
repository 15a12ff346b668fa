import hashlib
import itertools

import numpy as np
import pytest

from arithcs.groups import (
    GModuleAction,
    GroupHom,
    NotAGroupError,
    NotAHomError,
    conjugation_hom,
    cyclic,
    dihedral4,
    direct_product,
    identity_hom,
    inclusion_hom,
    klein_four,
    make_group,
    make_hom,
    quaternion8,
    s3_sign_hom,
    symmetric3,
    trivial_hom,
)
from arithcs.zmod import ModuleOverZn


def test_make_group_z2():
    g = make_group([[0, 1], [1, 0]])
    assert g.order == 2
    assert g.inv(1) == 1


def test_make_group_rejects_degenerate_table():
    # element 1 maps everything to itself; fails the axioms immediately
    with pytest.raises(NotAGroupError):
        make_group([[0, 1], [0, 1]])


def test_make_group_rejects_missing_inverse():
    # identity fine, but element 1's row never reaches 0
    with pytest.raises(NotAGroupError, match="inverse"):
        make_group([[0, 1, 2], [1, 2, 2], [2, 2, 2]])


def test_make_group_rejects_broken_associativity():
    # identity and inverses fine, associativity broken
    t = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3], [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]]
    with pytest.raises(NotAGroupError, match="witness"):
        make_group(t)


def test_make_group_requires_identity_at_zero():
    with pytest.raises(NotAGroupError, match="identity"):
        make_group([[1, 0], [0, 1]])


def test_s3_structure():
    s3 = symmetric3()
    assert s3.order == 6
    assert not s3.is_abelian()
    # brute-force associativity, and exactly three elements of order 2
    for a, b, c in itertools.product(s3.elements(), repeat=3):
        assert s3.op(s3.op(a, b), c) == s3.op(a, s3.op(b, c))
    assert sum(1 for a in s3.elements() if s3.element_order(a) == 2) == 3


@pytest.mark.parametrize(
    "factory,order,abelian",
    [
        (lambda: cyclic(6), 6, True),
        (klein_four, 4, True),
        (dihedral4, 8, False),
        (quaternion8, 8, False),
    ],
)
def test_stock_groups(factory, order, abelian):
    g = factory()
    assert g.order == order
    assert g.is_abelian() == abelian


def test_quaternion_has_unique_involution():
    q8 = quaternion8()
    assert [a for a in q8.elements() if q8.element_order(a) == 2] == [4]  # only -1


def test_make_hom_reduction_z4_to_z2():
    h = make_hom(cyclic(4), cyclic(2), [0, 1, 0, 1])
    for g1, g2 in itertools.product(range(4), repeat=2):
        assert h(h.dom.op(g1, g2)) == h.cod.op(h(g1), h(g2))


def test_make_hom_witness():
    with pytest.raises(NotAHomError, match=r"witness"):
        make_hom(cyclic(4), cyclic(2), [0, 1, 1, 0])


def test_trivial_and_identity_homs():
    g = cyclic(4)
    assert trivial_hom(g, cyclic(2)).is_trivial()
    assert identity_hom(g).is_injective()


def test_hom_composition_is_valid():
    red = make_hom(cyclic(4), cyclic(2), [0, 1, 0, 1])
    inc = make_hom(cyclic(2), cyclic(6), [0, 3])
    comp = inc.compose(red)
    # recheck the homomorphism law on the composite
    make_hom(comp.dom, comp.cod, comp.map)


def test_conjugation_identity_and_abelian():
    s3 = symmetric3()
    assert conjugation_hom(s3, 0) == identity_hom(s3)
    z6 = cyclic(6)
    for a in z6.elements():
        assert conjugation_hom(z6, a) == identity_hom(z6)


def test_conjugation_by_transposition_in_s3():
    s3 = symmetric3()
    transpositions = [a for a in s3.elements() if s3.element_order(a) == 2]
    threes = [a for a in s3.elements() if s3.element_order(a) == 3]
    t = transpositions[0]
    ad = conjugation_hom(s3, t)
    # conjugation by a transposition swaps the two 3-cycles
    assert ad(threes[0]) == threes[1] and ad(threes[1]) == threes[0]
    # and is an automorphism of order 2
    sq = ad.compose(ad)
    assert sq == identity_hom(s3)


@pytest.mark.parametrize("factory", [lambda: cyclic(8), klein_four, symmetric3, dihedral4, quaternion8])
def test_conjugation_is_multiplicative(factory):
    g = factory()
    if g.order > 8:
        pytest.skip("corpus bound")
    for a, b in itertools.product(g.elements(), repeat=2):
        lhs = conjugation_hom(g, a).compose(conjugation_hom(g, b))
        assert lhs == conjugation_hom(g, g.op(a, b))


def test_subgroup_and_quotient():
    z6 = cyclic(6)
    assert z6.is_subgroup([0, 3])
    assert z6.is_normal([0, 3])
    assert not z6.is_subgroup([0, 1])
    q, proj = z6.quotient_by([0, 3])
    assert q.order == 3
    assert proj(3) == 0 and proj(0) == 0
    make_hom(proj.dom, proj.cod, proj.map)  # revalidates


def test_quotient_of_nonnormal_fails():
    s3 = symmetric3()
    sub = [0, 1]  # generated by one transposition; not normal
    assert s3.is_subgroup(sub)
    assert not s3.is_normal(sub)
    with pytest.raises(NotAGroupError):
        s3.quotient_by(sub)


def test_inclusion_hom():
    z4 = cyclic(4)
    inc = inclusion_hom([0, 2], z4)
    assert inc.dom.order == 2
    assert inc.is_injective()
    assert inc(1) == 2


def test_tables_and_maps_read_entries_strictly():
    # numpy integer arrays pass; float and bool entries raise, in lists and arrays alike
    assert make_group(np.array([[0, 1], [1, 0]], dtype=np.uint8)) == cyclic(2)
    assert make_hom(cyclic(2), cyclic(2), np.array([0, 1], dtype=np.int32)) == identity_hom(cyclic(2))
    for table in ([[0.0, 1.0], [1.0, 0.2]], [[0, 1], [1, True]], np.array([[0.0, 1.0], [1.0, 0.0]])):
        with pytest.raises(ValueError, match="table entry"):
            make_group(table)
    assert GroupHom(cyclic(2), cyclic(2), np.array([0, 1], dtype=np.uint8)) == identity_hom(cyclic(2))
    for mapping in ([0, 1.5], [False, True], [0, True], np.array([0.0, 1.0]), np.array([False, True])):
        # the validating make_hom and the unvalidated constructor alike
        for build in (make_hom, GroupHom):
            with pytest.raises(ValueError, match="map entry"):
                build(cyclic(2), cyclic(2), mapping)


def test_subsets_read_elements_strictly():
    z4 = cyclic(4)
    assert z4.is_subgroup(np.array([0, 2])) and inclusion_hom((np.int64(2), 0), z4).map.tolist() == [0, 2]
    for subset in ([0, 2.5], [0, 2.9], [0, 2.0], [0, True]):
        for call in (z4.is_subgroup, z4.is_normal, z4.quotient_by, lambda s: inclusion_hom(s, z4)):
            with pytest.raises(ValueError, match="not an integer"):
                call(subset)


def test_sign_hom():
    s3 = symmetric3()
    sign = s3_sign_hom(s3, cyclic(2))
    assert sorted(sign.map.tolist()) == [0, 0, 0, 1, 1, 1]


def test_trivial_action():
    act = GModuleAction.trivial(cyclic(4), ModuleOverZn.cyclic(2))
    assert act.is_trivial()
    assert list(act.apply(3, [1])) == [1]


def test_negation_action_on_z4():
    s3 = symmetric3()
    sign = s3_sign_hom(s3, cyclic(2))
    act = GModuleAction.by_character(sign, ModuleOverZn.cyclic(4), 3)
    assert not act.is_trivial()
    t = next(a for a in s3.elements() if s3.element_order(a) == 2)
    assert list(act.apply(t, [1])) == [3]


def test_action_of_order_three_on_z9():
    z3 = cyclic(3)
    act = GModuleAction.by_character(identity_hom(z3), ModuleOverZn.cyclic(9), 4)
    assert not act.is_trivial()
    assert list(act.apply(1, [1])) == [4]
    assert list(act.apply(2, [1])) == [7]


def test_actions_read_units_strictly():
    z4, mod4 = cyclic(4), ModuleOverZn.cyclic(4)
    by_three = GModuleAction.by_character(identity_hom(z4), mod4, 3)
    assert GModuleAction.by_character(identity_hom(z4), mod4, np.int64(3)) == by_three
    assert GModuleAction.by_units(z4, mod4, np.array([1, 3, 1, 3], dtype=np.int8)) == by_three
    for unit in (3.7, 3.0, True):
        with pytest.raises(ValueError, match="unit"):
            GModuleAction.by_character(identity_hom(z4), mod4, unit)
    for units in ([1, 3.5, 1, 3.5], [1, 3, 1, True], np.array([1.0, 3.0, 1.0, 3.0])):
        with pytest.raises(ValueError, match="unit"):
            GModuleAction.by_units(z4, mod4, units)
    with pytest.raises(ValueError, match="action matrix entry"):
        GModuleAction(z4, mod4, np.ones((4, 1, 1)))


def test_action_rejects_nonmultiplicative_units():
    with pytest.raises(ValueError, match="multiplicative|identity"):
        GModuleAction.by_units(cyclic(2), ModuleOverZn.cyclic(5), [1, 2])  # 2*2 != 1 mod 5


def test_action_check_accepts_exactly_the_multiplicative_tables():
    # every table with the identity at 0 and reduced entries elsewhere: Z/2
    # and Z/3 acting on Z/2+Z/2 and Z/2+Z/4, 4432 tables in all.  The accepted
    # ones must be those that respect the orders and are multiplicative,
    # checked entry by entry; invertibility then follows and is not checked.
    def respects_orders(mat, orders):
        return all(mat[u][v] * orders[v] % orders[u] == 0 for u in range(2) for v in range(2))

    def product(x, y, orders):
        return tuple(
            tuple(sum(x[u][t] * y[t][v] for t in range(2)) % orders[u] for v in range(2))
            for u in range(2)
        )

    accepted, expected, total = set(), set(), 0
    for m, orders in itertools.product([2, 3], [(2, 2), (2, 4)]):
        group, module = cyclic(m), ModuleOverZn(max(orders), orders)
        reduced = [
            ((a, b), (c, d))
            for a, b in itertools.product(range(orders[0]), repeat=2)
            for c, d in itertools.product(range(orders[1]), repeat=2)
        ]
        identity = ((1, 0), (0, 1))
        for rest in itertools.product(reduced, repeat=m - 1):
            total += 1
            mats = (identity, *rest)
            key = (m, orders, mats)
            try:
                GModuleAction(group, module, np.array(mats))
                accepted.add(key)
            except ValueError:
                pass
            if all(respects_orders(x, orders) for x in mats) and all(
                product(mats[g], mats[h], orders) == mats[(g + h) % m]
                for g in range(m)
                for h in range(m)
            ):
                expected.add(key)
    assert total == 4432
    assert accepted == expected
    assert len(expected) == 14


def test_mixed_order_action():
    m = ModuleOverZn(4, (2, 4))
    z2 = cyclic(2)
    mats = np.array([np.eye(2, dtype=int), [[1, 0], [0, 3]]])
    act = GModuleAction(z2, m, mats)
    assert list(act.apply(1, [1, 2])) == [1, 2]  # 3*2 == 2 mod 4
    assert list(act.apply(1, [1, 1])) == [1, 3]


def _two_generated_subgroups(g):
    subs = set()
    for a, b in itertools.combinations_with_replacement(g.elements(), 2):
        sub, frontier = {0}, [0]
        while frontier:
            x = frontier.pop()
            for y in (g.op(x, a), g.op(x, b)):
                if y not in sub:
                    sub.add(y)
                    frontier.append(y)
        subs.add(tuple(sorted(sub)))
    return sorted(subs)


def _table_digest(g) -> str:
    """sha256 of g's tables and of every inclusion and quotient map of its
    subgroups on at most two generators."""
    h = hashlib.sha256()

    def add(a):
        h.update(repr(a.shape).encode() + np.ascontiguousarray(a, dtype=np.int64).tobytes())

    add(g.mul)
    add(g.inverse)
    for sub in _two_generated_subgroups(g):
        inc = inclusion_hom(sub, g)
        add(inc.map)
        add(inc.dom.mul)
        if g.is_normal(sub):
            quot, proj = g.quotient_by(sub)
            add(proj.map)
            add(quot.mul)
            add(quot.inverse)
    return h.hexdigest()


# The element order of a table defines every downstream index (cochain
# tuples, differentials, documents), so a change in how tables are built must
# keep these bytes.
GROUP_FACTORIES = {
    "cyclic6": lambda: cyclic(6),
    "klein_four": klein_four,
    "symmetric3": symmetric3,
    "dihedral4": dihedral4,
    "quaternion8": quaternion8,
    "q8_x_z3": lambda: direct_product(quaternion8(), cyclic(3)),
    "s3_x_z2": lambda: direct_product(symmetric3(), cyclic(2)),
    "z2_x_d4": lambda: direct_product(cyclic(2), dihedral4()),
    "z3_x_s3": lambda: direct_product(cyclic(3), symmetric3()),
}
TABLE_DIGESTS = {
    "cyclic6": "29f72395ceba1cca29d8ebf4fc7808fa27a7195b6f483bd9964fef57d79f520a",
    "klein_four": "cff7aa808b6c935910b426ede13cb807236888ed36b1db337200404237d9f0bb",
    "symmetric3": "e67f9c2b2997f15f3fb7d71e5af3f9915fbecbb5974e53be28bffcb207141390",
    "dihedral4": "963e9fc1883b7c06806bb73373c72e083667f6ad782cff2c9cdbe1ee5df2a3cd",
    "quaternion8": "cccf8d74db95431dcfbb827feb0c8f77d24e9c214dc0551aecc8279f827fd418",
    "q8_x_z3": "c1208f8bee8b5f7e35d9bb615fe3aa6d10f19f8dcd6a625c597d7fdd834acb31",
    "s3_x_z2": "97366e929f87e90a955a2d1e6cddaf56b9a73eac23c347e4aad2497485f897b2",
    "z2_x_d4": "f3ea645c9101d0e57e0b6039ff4407f0cdc0496614a2add86e18f630714802a8",
    "z3_x_s3": "315ea45149de3ddadb89149e88eeb33b5e6c36289fa09423ec2ddd9d5596392a",
}


@pytest.mark.parametrize("name", sorted(GROUP_FACTORIES))
def test_group_tables_are_pinned(name):
    assert _table_digest(GROUP_FACTORIES[name]()) == TABLE_DIGESTS[name]

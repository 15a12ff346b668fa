"""Acceptance criteria, one test per criterion, exact (tolerance-zero) checks.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.  Criteria 1-8 are correctness gates; criterion 9 bounds the
runtime of a degree-3 differential and of this whole module.
"""

import itertools
import time

import numpy as np
from arithcs.cochains import (
    Cochain,
    Coboundary,
    NontrivialClass,
    classify,
    cohomology,
    differential,
    pullback,
    _scaled_differential,
)
from arithcs.cstheory import cs_invariant, section_class, validate_global_datum
from arithcs.fixtures import (
    balanced_reciprocity_datum,
    broken_reciprocity_datum,
    quaternion_datum,
    quaternion_rho,
    toy_abelian_datum,
    toy_abelian_rho,
    toy_global_datum,
    toy_rho,
)
from arithcs.groups import (
    GModuleAction,
    conjugation_hom,
    cyclic,
    dihedral4,
    identity_hom,
    klein_four,
    make_hom,
    quaternion8,
    symmetric3,
)
from arithcs.ops import (
    carry_cocycle,
    conjugate,
    cup,
    cyclic_three_cocycle,
    homotopy,
    identity_character,
)
from arithcs.zmod import ModuleOverZn, right_kernel

_MODULE_START = time.perf_counter()


def _report(number: int, name: str):
    print(f"\nACCEPTANCE {number} ({name}): PASS")


def _corpus():
    return [
        ("Z/2", cyclic(2)),
        ("Z/3", cyclic(3)),
        ("Z/4", cyclic(4)),
        ("Z/2xZ/2", klein_four()),
        ("Z/6", cyclic(6)),
        ("S3", symmetric3()),
        ("D4", dihedral4()),
        ("Q8", quaternion8()),
    ]


def _nontrivial_action(group) -> GModuleAction:
    """A nontrivial coefficient action for each corpus group."""
    if group == cyclic(3):
        # Z/3 has no index-2 subgroup; act on Z/9 through a unit of order 3
        return GModuleAction.by_character(identity_hom(group), ModuleOverZn.cyclic(9), 4)
    characters = {
        cyclic(2): [0, 1],
        cyclic(4): [0, 1, 0, 1],
        klein_four(): [0, 0, 1, 1],
        cyclic(6): [0, 1, 0, 1, 0, 1],
        symmetric3(): [0, 1, 1, 0, 0, 1],
        dihedral4(): [0, 0, 0, 0, 1, 1, 1, 1],
        quaternion8(): [0, 1, 0, 1, 0, 1, 0, 1],
    }
    chi = make_hom(group, cyclic(2), characters[group])
    return GModuleAction.by_character(chi, ModuleOverZn.cyclic(4), 3)


def _actions(group):
    return [GModuleAction.trivial(group, ModuleOverZn.cyclic(4)), _nontrivial_action(group)]


def _random_cocycles(coeffs, degree, count, rng):
    kernel = right_kernel(_scaled_differential(coeffs, degree), coeffs.modulus)
    out = []
    for _ in range(count):
        coef = rng.integers(0, coeffs.modulus, size=kernel.shape[0])
        vals = (coef @ kernel) % coeffs.modulus
        out.append(Cochain(coeffs, degree, vals.reshape(-1, coeffs.module.rank)))
    return out


def test_criterion_1_differential_soundness():
    started = time.perf_counter()
    rng = np.random.default_rng(101)
    for name, group in _corpus():
        for coeffs in _actions(group):
            for degree in range(0, 4):
                for _ in range(100):
                    f = Cochain.random(coeffs, degree, rng)
                    dd = differential(differential(f, degree_cap=5), degree_cap=5)
                    assert dd.is_zero(), (name, degree)
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"criterion 1 took {elapsed:.1f}s"
    _report(1, f"d(d(f)) = 0 across the corpus, {elapsed:.1f}s")


def test_criterion_2_chain_homotopy_identity():
    started = time.perf_counter()
    rng = np.random.default_rng(102)
    for name, group in _corpus():
        coeffs = GModuleAction.trivial(group, ModuleOverZn.cyclic(4))
        for degree in (1, 2, 3):
            for _ in range(34):
                f = Cochain.random(coeffs, degree, rng)
                a = int(rng.integers(0, group.order))
                residual = (
                    homotopy([a], differential(f))
                    + differential(homotopy([a], f))
                    - (conjugate(f, a) - f)
                )
                assert residual.is_zero(), (name, degree, a)
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0, f"criterion 2 took {elapsed:.1f}s"
    _report(2, f"h(a,df) + d h(a,f) = f^a - f, 102 pairs per group, {elapsed:.1f}s")


def _small_groups():
    return [g for _, g in _corpus() if g.order <= 6]


_TESTED_TRIPLES: list = []


def test_criterion_3_second_order_homotopy_relation():
    rng = np.random.default_rng(103)
    for group in _small_groups():
        coeffs = GModuleAction.trivial(group, ModuleOverZn.cyclic(4))
        for f in _random_cocycles(coeffs, 3, 3, rng):
            assert differential(f).is_zero()
            for a, b in itertools.product(group.elements(), repeat=2):
                ab = group.op(a, b)
                lhs = homotopy([b], f) - homotopy([ab], f) + conjugate(homotopy([a], f), b)
                assert lhs == differential(-homotopy([a, b], f)), (group.order, a, b)
                _TESTED_TRIPLES.append((f, a, b))
    _report(3, "h_b - h_ab + (h_a)^b = d(-h_{a,b}) on all pairs, order <= 6")


def test_criterion_4_conjugation_compatibilities():
    rng = np.random.default_rng(104)
    for name, group in _corpus():
        for coeffs in _actions(group):
            for degree in (1, 2, 3):
                f = Cochain.random(coeffs, degree, rng)
                for a in group.elements():
                    assert conjugate(differential(f), a) == differential(conjugate(f, a))
    # the coboundary relation on every triple tested in criterion 3,
    # plus sampled pairs on the order-8 groups
    triples = list(_TESTED_TRIPLES)
    for group in (dihedral4(), quaternion8()):
        coeffs = GModuleAction.trivial(group, ModuleOverZn.cyclic(4))
        f = _random_cocycles(coeffs, 3, 1, rng)[0]
        pairs = {(int(a), int(b)) for a, b in rng.integers(0, 8, size=(12, 2))}
        triples += [(f, a, b) for a, b in pairs]
    assert triples
    for f, a, b in triples:
        group = f.group
        diff = homotopy([group.op(a, b)], f) - conjugate(homotopy([a], f), b) - homotopy([b], f)
        assert isinstance(classify(diff), Coboundary), (group.order, a, b)
    _report(4, "d and conjugation commute; h_ab - (h_a)^b - h_b is a coboundary")


def test_criterion_5_degree_three_structure():
    from math import gcd

    for n in (2, 3, 4):
        coeffs = GModuleAction.trivial(cyclic(n), ModuleOverZn.cyclic(n))
        h3 = cohomology(coeffs, 3)
        assert h3.invariant_factors == (n,), n
        res = classify(cyclic_three_cocycle(n))
        assert isinstance(res, NontrivialClass)
        assert gcd(res.coordinates[0], n) == 1, "class must generate"
    # exhaustive cross-check for n = 2: all 2^8 degree-3 tables and all
    # 2^4 degree-2 tables
    coeffs = GModuleAction.trivial(cyclic(2), ModuleOverZn.cyclic(2))
    cocycles = set()
    for vals in itertools.product(range(2), repeat=8):
        f = Cochain(coeffs, 3, np.array(vals).reshape(8, 1))
        if differential(f).is_zero():
            cocycles.add(vals)
    coboundaries = set()
    for vals in itertools.product(range(2), repeat=4):
        b = Cochain(coeffs, 2, np.array(vals).reshape(4, 1))
        coboundaries.add(tuple(differential(b).values.reshape(-1).tolist()))
    assert coboundaries <= cocycles
    assert len(cocycles) // len(coboundaries) == 2
    c = tuple(cyclic_three_cocycle(2).values.reshape(-1).tolist())
    assert c in cocycles and c not in coboundaries
    _report(5, "H^3(Z/n, Z/n) = Z/n generated by alpha cup delta(alpha), n = 2, 3, 4")


def test_criterion_6_sign_coherence_on_kummer_fixture():
    z4, z2 = cyclic(4), cyclic(2)
    f = make_hom(z4, z2, [0, 1, 0, 1])
    lift = make_hom(z4, z4, [0, 1, 2, 3])
    from arithcs.cstheory import kummer_trivialization

    b, t = kummer_trivialization(f, lift)
    assert b.values.reshape(-1).tolist() == [0, 0, 1, 1]
    assert differential(b) == pullback(f, carry_cocycle(2))
    assert t == -cup(pullback(f, identity_character(2)), b)
    assert differential(t) == pullback(f, cyclic_three_cocycle(2))
    _report(6, "d(-alpha cup b) = f*(alpha cup delta alpha) exactly on Z/4 -> Z/2")


def test_criterion_7_cs_well_definedness():
    cases = [
        (toy_global_datum(), toy_rho()),
        (toy_abelian_datum(), toy_abelian_rho()),
        (quaternion_datum(), quaternion_rho("i")),
    ]
    for datum, rho in cases:
        assert validate_global_datum(datum).passed
        base = cs_invariant(datum, rho)
        for a in datum.gauge_group.elements():
            conj = conjugation_hom(datum.gauge_group, a).compose(rho)
            assert cs_invariant(datum, conj) == base, a
        for seed in range(10):
            assert cs_invariant(datum, rho, solver_seed=seed) == base, seed
        assert section_class(datum, rho) == base
    assert cs_invariant(*cases[2]).numerator == 1  # the quaternion value is nonzero
    _report(7, "invariant stable under conjugation, re-solves; pipelines agree")


def test_criterion_8_reciprocity_gate():
    assert validate_global_datum(balanced_reciprocity_datum()).passed
    report = validate_global_datum(broken_reciprocity_datum())
    assert not report.passed
    fails = report.failures()
    assert any("reciprocity" in c.name for c in fails)
    witness = next(c.witness for c in fails if c.witness is not None)
    assert isinstance(witness, Cochain) and witness.degree == 2
    assert differential(witness).is_zero()
    _report(8, "broken fixture rejected with a witness 2-cocycle; balanced passes")


def test_criterion_9_performance():
    coeffs = GModuleAction.trivial(dihedral4(), ModuleOverZn.cyclic(4))
    f = Cochain.random(coeffs, 3, np.random.default_rng(109))
    started = time.perf_counter()
    differential(f)
    single = time.perf_counter() - started
    assert single < 1.0, f"degree-3 differential took {single:.3f}s"
    total = time.perf_counter() - _MODULE_START
    assert total < 300.0, f"acceptance suite took {total:.1f}s"
    _report(9, f"degree-3 differential {single * 1000:.1f}ms; suite total {total:.1f}s")

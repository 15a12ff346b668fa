import itertools
import os
import pathlib
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from arithcs.cochains import Cochain, differential, pullback
from arithcs.cstheory import (
    GlobalDatum,
    InvariantValue,
    LocallyNontrivialError,
    NoGlobalTrivializationError,
    NoLiftError,
    NotInGeneratedSummandError,
    NotUnramifiedTrivializableError,
    PlaceDatum,
    _generates_summand,
    cs_invariant,
    cs_section,
    element_in_fiber,
    h2_class_value,
    kummer_trivialization,
    local_invariant,
    local_pullbacks,
    pushout_value,
    scalar_coefficients,
    section_class,
    torsor_build,
    torsor_difference,
    torsor_map,
    unramified_basepoint,
    unramified_trivialization,
    validate_global_datum,
)
from arithcs.fixtures import (
    balanced_reciprocity_datum,
    broken_reciprocity_datum,
    one_place_fiber_datum,
    quaternion_datum,
    quaternion_rho,
    toy_abelian_datum,
    toy_abelian_rho,
    toy_global_datum,
    toy_rho,
)
from arithcs.groups import (
    GModuleAction,
    GroupHom,
    conjugation_hom,
    cyclic,
    identity_hom,
    inclusion_hom,
    make_group,
    make_hom,
    trivial_hom,
)
from arithcs.ops import carry_cocycle, cyclic_three_cocycle, homotopy
from arithcs.zmod import ModuleOverZn


def test_invariant_value_arithmetic():
    a = InvariantValue(3, 4)
    b = InvariantValue(2, 4)
    assert (a + b).numerator == 1
    assert (a - b).numerator == 1
    assert (-a).numerator == 1
    assert str(a) == "3/4"
    with pytest.raises(ValueError):
        a + InvariantValue(1, 5)


def test_invariant_value_reads_integers_strictly():
    v = InvariantValue(np.int64(5), np.int64(4))
    assert (type(v.numerator), type(v.modulus), str(v)) == (int, int, "1/4")
    for numerator, modulus in [(1.5, 2), (True, 2), (1, 2.0), (1, True), ("1", 2)]:
        with pytest.raises(ValueError, match="not an integer"):
            InvariantValue(numerator, modulus)
    for modulus in (0, -3):
        with pytest.raises(ValueError, match="modulus must be in"):
            InvariantValue(1, modulus)


def test_place_inertia_is_read_strictly():
    place = quaternion_datum().places[0]  # local group Z/2, all of it inertia
    fields = dict(local_group=place.local_group, embedding=place.embedding,
                  h2_generator=place.h2_generator, inv_normalization=place.inv_normalization)
    assert PlaceDatum(inertia=(np.int64(1), 0, 1), **fields).inertia == (0, 1)
    for inertia in ((0, 1.9), (0, 1.0), (0, True)):
        with pytest.raises(ValueError, match="inertia element"):
            PlaceDatum(inertia=inertia, **fields)


def test_datum_fields_are_read_strictly():
    datum = quaternion_datum()
    place = datum.places[0]
    fields = dict(local_group=place.local_group, embedding=place.embedding, inertia=place.inertia,
                  h2_generator=place.h2_generator)
    assert type(PlaceDatum(inv_normalization=np.int64(1), **fields).inv_normalization) is int
    for value in (True, 1.0):
        with pytest.raises(ValueError, match="inv_normalization .* not an integer"):
            PlaceDatum(inv_normalization=value, **fields)
    fields = dict(global_group=datum.global_group, places=datum.places, gauge_group=datum.gauge_group,
                  three_cocycle=datum.three_cocycle)
    assert type(GlobalDatum(modulus=np.int64(2), **fields).modulus) is int
    for value in (2.0, True):
        with pytest.raises(ValueError, match="modulus .* not an integer"):
            GlobalDatum(modulus=value, **fields)


def _generates_summand_by_search(factors, coords, n):
    """The class has order n and some f: Z/d_1 + ... -> Z/n sends it to 1."""
    order = next(k for k in itertools.count(1) if all(k * c % d == 0 for d, c in zip(factors, coords)))
    values = {0}  # f(class) over every f; f sends the j-th generator into (n/d_j)Z/n
    for d, c in zip(factors, coords):
        values = {(v + c * y) % n for v in values for y in range(0, n, n // d)}
    return order == n and 1 in values


def test_generates_summand_matches_search():
    cases = 0
    for n in range(2, 13):
        divisors = [d for d in range(2, n + 1) if n % d == 0]
        for rank in (1, 2, 3):
            for factors in itertools.product(divisors, repeat=rank):
                for coords in itertools.product(*(range(d) for d in factors)):
                    cases += 1
                    expected = _generates_summand_by_search(factors, coords, n)
                    assert _generates_summand(factors, coords, n) == expected, (factors, coords, n)
    assert cases == 34287


# ---------------------------------------------------------------------------
# local_invariant


def z3_identity_place(norm=1):
    z3 = cyclic(3)
    return PlaceDatum(z3, GroupHom(z3, z3, np.arange(3)), (0,), carry_cocycle(3), norm)


def test_local_invariant_of_generator_is_normalization():
    for norm in (1, 2):
        p = z3_identity_place(norm)
        assert local_invariant(p.h2_generator, p).numerator == norm


def test_local_invariant_of_coboundary_is_zero():
    p = z3_identity_place()
    beta = Cochain.random(p.h2_generator.coeffs, 1, np.random.default_rng(0))
    assert local_invariant(differential(beta), p).numerator == 0


def test_local_invariant_linearity():
    p = z3_identity_place()
    rng = np.random.default_rng(1)
    beta = Cochain.random(p.h2_generator.coeffs, 1, rng)
    x = 2 * p.h2_generator + differential(beta)
    assert local_invariant(x, p).numerator == 2


def test_local_invariant_rejects_outside_summand():
    # Klein four group: H^2 is (Z/2)^3; a single declared generator cannot
    # absorb every class
    from arithcs.groups import klein_four

    v4 = klein_four()
    coeffs = scalar_coefficients(v4, 2)
    from arithcs.cochains import cohomology

    h2 = cohomology(coeffs, 2)
    assert h2.invariant_factors == (2, 2, 2)
    place = PlaceDatum(v4, GroupHom(v4, v4, np.arange(4)), (0,), h2.generators[0], 1)
    with pytest.raises(NotInGeneratedSummandError):
        local_invariant(h2.generators[1], place)


def test_h2_class_value_matches_local_invariant():
    from arithcs.cochains import cohomology

    p = z3_identity_place(2)
    h2 = cohomology(p.h2_generator.coeffs, 2)
    rng = np.random.default_rng(2)
    for k in range(3):
        x = k * p.h2_generator + differential(Cochain.random(p.h2_generator.coeffs, 1, rng))
        via_cochain = local_invariant(x, p)
        via_coords = h2_class_value(p, h2.coordinates(x))
        assert via_cochain == via_coords


# ---------------------------------------------------------------------------
# validation


def test_empty_place_list_with_trivial_h2_passes():
    one = cyclic(2).quotient_by([0, 1])[0]
    datum = GlobalDatum(2, one, (), cyclic(2), cyclic_three_cocycle(2))
    assert validate_global_datum(datum).passed


def test_balanced_fixture_passes_and_broken_fails_with_witness():
    assert validate_global_datum(balanced_reciprocity_datum()).passed
    report = validate_global_datum(broken_reciprocity_datum())
    assert not report.passed
    fails = report.failures()
    assert len(fails) == 1 and "reciprocity" in fails[0].name
    witness = fails[0].witness
    assert isinstance(witness, Cochain) and witness.degree == 2
    assert differential(witness).is_zero()
    # the witness really does restrict nontrivially to both places
    brk = broken_reciprocity_datum()
    for p in brk.places:
        assert local_invariant(p.restrict(witness), p).numerator != 0


def test_validation_reports_bad_place_data():
    z4 = cyclic(4)
    bad_gen = Cochain.zero(scalar_coefficients(cyclic(2), 2), 2)
    emb = inclusion_hom([0, 2], z4)
    place = PlaceDatum(emb.dom, emb, (0, 1), bad_gen, 1)
    datum = GlobalDatum(2, z4, (place,), cyclic(2), cyclic_three_cocycle(2))
    report = validate_global_datum(datum)
    assert not report.passed
    assert any("summand" in c.name for c in report.failures())


def _place_off_scalar_coefficients(n):
    """A place on Z/2 whose h2_generator does not live on Z/n with the trivial action.

    For n = 2 it is (carry, 0) on Z/2 x Z/2, which generates an order-2
    summand of its own H^2; for n = 3 it is zero on Z/3 twisted by -1.
    """
    z2 = cyclic(2)
    if n == 2:
        carry = carry_cocycle(2).values
        gen = Cochain(GModuleAction.trivial(z2, ModuleOverZn(2, (2, 2))), 2, np.hstack([carry, 0 * carry]))
    else:
        gen = Cochain.zero(GModuleAction.by_units(z2, ModuleOverZn.cyclic(3), [1, 2]), 2)
    return PlaceDatum(z2, identity_hom(z2), (0,), gen, 1)


@pytest.mark.parametrize("n", [2, 3])
def test_validation_reports_generator_off_scalar_coefficients(n):
    # restrictions of global classes live on Z/n with the trivial action and
    # cannot be compared with such a generator; the place check fails
    # instead of local_invariant raising from the reciprocity loop
    datum = GlobalDatum(n, cyclic(2), (_place_off_scalar_coefficients(n),), cyclic(n), cyclic_three_cocycle(n))
    fails = validate_global_datum(datum).failures()
    assert [c.name for c in fails] == [f"place 0: h2_generator generates an order-{n} summand", "reciprocity"]
    assert fails[0].detail == f"coefficients are not Z/{n} with the trivial action"
    assert fails[1].detail == "skipped: place invariants failed"


def test_validation_reports_embedding_that_is_not_a_hom():
    place = PlaceDatum(cyclic(2), GroupHom(cyclic(2), cyclic(4), [0, 1]), (0, 1), carry_cocycle(2), 1)
    datum = GlobalDatum(2, cyclic(4), (place,), cyclic(2), cyclic_three_cocycle(2))
    report = validate_global_datum(datum)
    lines = report.format().splitlines()
    assert "FAIL place 0: embedding is a hom: homomorphism law fails at witness pair (1, 1)" in lines
    assert [c.name for c in report.failures()] == ["place 0: embedding is a hom", "reciprocity"]
    assert report.failures()[1].detail == "skipped: place invariants failed"


@pytest.mark.parametrize(
    "factory", [toy_global_datum, toy_abelian_datum, quaternion_datum]
)
def test_shipped_toys_validate(factory):
    assert validate_global_datum(factory()).passed


# ---------------------------------------------------------------------------
# unramified trivializations


def test_unramified_trivialization_on_toy_place():
    d2 = toy_abelian_datum()
    rho = make_hom(cyclic(4), cyclic(2), [0, 1, 0, 1])
    b_v = unramified_trivialization(d2, d2.places[0], rho)
    assert differential(b_v) == pullback(rho.compose(d2.places[0].embedding), d2.three_cocycle)


def test_unramified_requires_inertia_killing():
    # a totally ramified place with a representation that does not kill inertia
    z2 = cyclic(2)
    place = PlaceDatum(z2, GroupHom(z2, z2, np.arange(2)), (0, 1), carry_cocycle(2), 1)
    datum = GlobalDatum(2, z2, (place,), z2, cyclic_three_cocycle(2))
    ident = make_hom(z2, z2, [0, 1])
    with pytest.raises(NotUnramifiedTrivializableError, match="inertia"):
        unramified_trivialization(datum, place, ident)


def test_unramified_rejects_bad_quotient_cohomology():
    # place = Z/2 identity embedding with trivial inertia: quotient Z/2 has
    # nonvanishing H^2 mod 2
    fiber = one_place_fiber_datum()
    rho = trivial_hom(cyclic(2), cyclic(2))
    with pytest.raises(NotUnramifiedTrivializableError, match="H\\^"):
        unramified_trivialization(fiber, fiber.places[0], rho)


# ---------------------------------------------------------------------------
# cs_invariant


def test_trivial_rho_gives_zero():
    for datum in (toy_global_datum(), toy_abelian_datum(), quaternion_datum()):
        rho = trivial_hom(datum.global_group, datum.gauge_group)
        assert cs_invariant(datum, rho).numerator == 0


def test_invariant_constant_on_conjugation_orbit():
    datum = toy_global_datum()
    rho = toy_rho()
    values = set()
    for a in datum.gauge_group.elements():
        conj = conjugation_hom(datum.gauge_group, a).compose(rho)
        values.add(cs_invariant(datum, conj).numerator)
    assert len(values) == 1


def test_invariant_independent_of_solver_order():
    datum = quaternion_datum()
    rho = quaternion_rho("i")
    base = cs_invariant(datum, rho)
    for seed in range(10):
        assert cs_invariant(datum, rho, solver_seed=seed) == base


def test_quaternion_invariant_is_nonzero():
    datum = quaternion_datum()
    for which in ("i", "j", "k"):
        assert cs_invariant(datum, quaternion_rho(which)).numerator == 1


def test_no_global_trivialization():
    # on Z/2 itself the standard 3-cocycle generates H^3: no trivialization
    fiber = one_place_fiber_datum()
    ident = make_hom(cyclic(2), cyclic(2), [0, 1])
    with pytest.raises(NoGlobalTrivializationError):
        cs_invariant(fiber, ident)


def test_gluing_and_torsor_pipelines_agree():
    cases = [
        (toy_global_datum(), toy_rho()),
        (toy_abelian_datum(), toy_abelian_rho()),
        (quaternion_datum(), quaternion_rho("j")),
    ]
    for datum, rho in cases:
        assert cs_invariant(datum, rho) == section_class(datum, rho)


# ---------------------------------------------------------------------------
# torsor operations


def test_torsor_build_zero_cocycle_member():
    datum = toy_abelian_datum()
    rho_locals = local_pullbacks(datum, trivial_hom(datum.global_group, datum.gauge_group))
    member = torsor_build(datum, rho_locals)
    assert element_in_fiber(datum, rho_locals, member)
    for comp in member:
        assert comp.is_zero()  # canonical solve of d(x) = 0


def test_torsor_build_locally_nontrivial():
    fiber = one_place_fiber_datum()
    ident = make_hom(cyclic(2), cyclic(2), [0, 1])
    with pytest.raises(LocallyNontrivialError):
        torsor_build(fiber, (ident,))


def test_one_place_fiber_has_exactly_n_classes():
    # enumerate d^{-1}(0)/B^2 on Z/2 directly: |H^2(Z/2, Z/2)| = 2 classes
    fiber = one_place_fiber_datum()
    coeffs = scalar_coefficients(cyclic(2), 2)
    cocycles = []
    for vals in itertools.product(range(2), repeat=4):
        f = Cochain(coeffs, 2, np.array(vals).reshape(4, 1))
        if differential(f).is_zero():
            cocycles.append(f)
    coboundaries = set()
    for vals in itertools.product(range(2), repeat=2):
        b = Cochain(coeffs, 1, np.array(vals).reshape(2, 1))
        coboundaries.add(differential(b).values.tobytes())
    assert len(cocycles) // len(coboundaries) == 2


def test_torsor_difference_axioms():
    datum = toy_abelian_datum()
    rho = toy_abelian_rho()
    rho_locals = local_pullbacks(datum, rho)
    x = torsor_build(datum, rho_locals)
    # shift by a cocycle tuple to get other members
    coeffs = x[0].coeffs
    z = Cochain(coeffs, 2, carry_cocycle(2).values)
    y = tuple(c + z for c in x)
    w = tuple(c + z + z for c in x)
    zero = torsor_difference(datum, x, x)
    assert all(all(v == 0 for v in coords) for coords in zero)
    dxy = torsor_difference(datum, x, y)
    dyw = torsor_difference(datum, y, w)
    dxw = torsor_difference(datum, x, w)
    for a, b, c, place in zip(dxy, dyw, dxw, datum.places):
        from arithcs.cochains import cohomology

        h2 = cohomology(place.h2_generator.coeffs, 2)
        for u, v, t, d in zip(a, b, c, h2.invariant_factors):
            assert (u + v) % d == t


@pytest.mark.parametrize(
    "call",
    [
        lambda d, locs, x: torsor_build(d, locs[:1]),
        lambda d, locs, x: element_in_fiber(d, locs, ()),
        lambda d, locs, x: element_in_fiber(d, locs, x + x[:1]),
        lambda d, locs, x: torsor_map(d, [1], x, locs),
        lambda d, locs, x: torsor_map(d, [1, 1], x[:1], locs),
        lambda d, locs, x: torsor_difference(d, x, x[:1]),
        lambda d, locs, x: pushout_value(d, [(1,)]),
    ],
    ids=["build", "fiber_empty", "fiber_long", "map_avec", "map_member", "difference", "pushout"],
)
def test_torsor_functions_refuse_a_length_mismatch(call):
    # the toy datum has two places; a short or long tuple must not be zipped to fit
    datum = toy_global_datum()
    rho_locals = local_pullbacks(datum, toy_rho())
    with pytest.raises(ValueError):
        call(datum, rho_locals, torsor_build(datum, rho_locals))


def test_two_solver_outputs_differ_by_valid_h2s_element():
    datum = quaternion_datum()
    rho = quaternion_rho("i")
    s1 = cs_section(datum, rho)
    s2 = cs_section(datum, rho, solver_seed=3)
    diff = torsor_difference(datum, s1, s2)
    # pushing out accounts exactly for the difference of L-values
    v1 = pushout_value(datum, torsor_difference(datum, unramified_basepoint(datum, rho), s1))
    v2 = pushout_value(datum, torsor_difference(datum, unramified_basepoint(datum, rho), s2))
    assert v2 - v1 == pushout_value(datum, diff)


def test_torsor_map_lands_in_conjugated_fiber():
    datum = toy_global_datum()
    rho = toy_rho()
    rho_locals = local_pullbacks(datum, rho)
    member = torsor_build(datum, rho_locals)
    rng = np.random.default_rng(4)
    for _ in range(5):
        avec = [int(a) for a in rng.integers(0, 6, size=len(datum.places))]
        moved = torsor_map(datum, avec, member, rho_locals)
        conj_locals = tuple(
            conjugation_hom(datum.gauge_group, a).compose(rv)
            for a, rv in zip(avec, rho_locals)
        )
        assert element_in_fiber(datum, conj_locals, moved)


def test_torsor_map_identity_is_coboundary_shift():
    datum = toy_global_datum()
    rho = toy_rho()
    rho_locals = local_pullbacks(datum, rho)
    member = torsor_build(datum, rho_locals)
    moved = torsor_map(datum, [0] * len(datum.places), member, rho_locals)
    for coords in torsor_difference(datum, moved, member):
        assert all(v == 0 for v in coords)


def test_torsor_map_functoriality():
    datum = toy_global_datum()
    rho = toy_rho()
    rho_locals = local_pullbacks(datum, rho)
    member = torsor_build(datum, rho_locals)
    rng = np.random.default_rng(9)
    g = datum.gauge_group
    for _ in range(5):
        avec = [int(a) for a in rng.integers(0, 6, size=len(datum.places))]
        bvec = [int(b) for b in rng.integers(0, 6, size=len(datum.places))]
        abvec = [g.op(a, b) for a, b in zip(avec, bvec)]
        one_step = torsor_map(datum, abvec, member, rho_locals)
        b_locals = tuple(
            conjugation_hom(g, b).compose(rv) for b, rv in zip(bvec, rho_locals)
        )
        two_step = torsor_map(datum, avec, torsor_map(datum, bvec, member, rho_locals), b_locals)
        for coords in torsor_difference(datum, one_step, two_step):
            assert all(v == 0 for v in coords)


def test_automorphisms_fix_the_section_class():
    # for a in Aut(rho): h_a o rho is a global 2-cocycle whose local
    # invariants sum to zero by reciprocity
    datum = toy_global_datum()
    rho = toy_rho()
    g = datum.gauge_group
    auts = [
        a
        for a in g.elements()
        if conjugation_hom(g, a).compose(rho) == rho
    ]
    assert len(auts) > 1  # identity plus the transposition itself
    n = datum.modulus
    for a in auts:
        h = homotopy([a], datum.three_cocycle)
        pulled = pullback(rho, h)
        assert differential(pulled).is_zero()
        total = InvariantValue(0, n)
        for p in datum.places:
            total = total + local_invariant(p.restrict(pulled), p)
        assert total.numerator == 0


def test_section_of_locally_dead_pullback_is_zero():
    # c o rho vanishes identically => the canonical beta is zero, and the
    # section is the zero tuple
    datum = toy_abelian_datum()
    rho = trivial_hom(datum.global_group, datum.gauge_group)
    section = cs_section(datum, rho)
    assert all(comp.is_zero() for comp in section)


def test_section_choice_independence():
    datum = quaternion_datum()
    rho = quaternion_rho("k")
    base = section_class(datum, rho)
    for seed in range(5):
        assert section_class(datum, rho, solver_seed=seed) == base


def test_invariant_section_class_over_orbit():
    from arithcs.cstheory import invariant_section_class

    datum = toy_global_datum()
    assert invariant_section_class(datum, toy_rho()) == cs_invariant(datum, toy_rho())
    qd = quaternion_datum()
    assert invariant_section_class(qd, quaternion_rho("i")).numerator == 1


# ---------------------------------------------------------------------------
# kummer_trivialization


def test_kummer_explicit_identity_lift():
    f = make_hom(cyclic(4), cyclic(2), [0, 1, 0, 1])
    lift = make_hom(cyclic(4), cyclic(4), [0, 1, 2, 3])
    b, t = kummer_trivialization(f, lift)
    assert b.values.reshape(-1).tolist() == [0, 0, 1, 1]
    assert differential(t) == pullback(f, cyclic_three_cocycle(2))


def test_kummer_auto_lift():
    f = make_hom(cyclic(4), cyclic(2), [0, 1, 0, 1])
    b, t = kummer_trivialization(f)
    assert differential(b) == pullback(f, carry_cocycle(2))
    assert differential(t) == pullback(f, cyclic_three_cocycle(2))


def test_kummer_trivial_hom():
    f = trivial_hom(cyclic(4), cyclic(2))
    b, t = kummer_trivialization(f)
    assert b.is_zero() and t.is_zero()


def test_kummer_no_lift_for_identity_of_z2():
    f = make_hom(cyclic(2), cyclic(2), [0, 1])
    with pytest.raises(NoLiftError):
        kummer_trivialization(f)
    # oracle: none of the four maps Z/2 -> Z/4 is a lifting homomorphism
    z2, z4 = cyclic(2), cyclic(4)
    lifts = []
    for v in range(4):
        mp = np.array([0, v])
        if (2 * v) % 4 == 0 and v % 2 == 1:  # hom and reduces to identity
            lifts.append(v)
    assert not lifts


def test_kummer_mod3():
    f = make_hom(cyclic(9), cyclic(3), [0, 1, 2, 0, 1, 2, 0, 1, 2])
    b, t = kummer_trivialization(f)
    assert differential(t) == pullback(f, cyclic_three_cocycle(3))


def _relabeled_z4():
    # Z/4 with the elements 1 and 2 swapped: cyclic, but not the standard table
    perm = [0, 2, 1, 3]
    table = [[perm[(perm[a] + perm[b]) % 4] for b in range(4)] for a in range(4)]
    return make_group(table), perm


@pytest.mark.parametrize(
    "lift, match",
    [
        (lambda: make_hom(cyclic(2), cyclic(4), [0, 2]), "same domain"),
        (lambda: make_hom(cyclic(4), cyclic(8), [0, 2, 4, 6]), "same domain"),
        (lambda: make_hom(cyclic(4), cyclic(2), [0, 1, 0, 1]), "same domain"),
        (lambda: make_hom(cyclic(4), *_relabeled_z4()), "standard cyclic"),
        (lambda: make_hom(cyclic(4), cyclic(4), [0, 2, 0, 2]), "does not reduce to f"),
        (lambda: "auto", "GroupHom or None"),
        (lambda: 3, "GroupHom or None"),
    ],
    ids=["wrong_domain", "codomain_z8", "codomain_z2", "nonstandard_table", "not_reducing", "string", "int"],
)
def test_kummer_refuses_a_bad_lift(lift, match):
    f = make_hom(cyclic(4), cyclic(2), [0, 1, 0, 1])
    with pytest.raises(ValueError, match=match):
        kummer_trivialization(f, lift())


def test_kummer_identity_check_runs_under_python_O():
    # the identity d(b) == f*(carry) is checked by code, not by assert, so a
    # broken differential is caught even with assertions stripped
    script = textwrap.dedent(
        """
        import sys
        from arithcs import cstheory
        from arithcs.cochains import differential
        from arithcs.groups import cyclic, make_hom

        cstheory.differential = lambda f, **kw: 0 * differential(f, **kw)
        f = make_hom(cyclic(4), cyclic(2), [0, 1, 0, 1])
        lift = make_hom(cyclic(4), cyclic(4), [0, 1, 2, 3])
        try:
            cstheory.kummer_trivialization(f, lift)
        except cstheory.NoLiftError as exc:
            print(type(exc).__name__, sys.flags.optimize)
        """
    )
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["NoLiftError", "1"]

import itertools
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from arithcs import cochains, cstheory, dataio, zmod
from arithcs.cochains import (
    Cochain,
    Coboundary,
    _factored_differential,
    _row_scales,
    _scaled,
    _scaled_differential,
    DegreeBoundError,
    NonCocycle,
    NontrivialClass,
    classify,
    cohomology,
    differential,
    normalized_representative,
    pullback,
    solve_differential,
)
from arithcs.cstheory import _global_trivialization, cs_invariant, section_class
from arithcs.fixtures import quaternion_datum, quaternion_rho, toy_global_datum, toy_rho
from arithcs.groups import (
    GModuleAction,
    cyclic,
    identity_hom,
    klein_four,
    make_hom,
    s3_sign_hom,
    symmetric3,
    trivial_hom,
)
from arithcs.ops import carry_cocycle
from arithcs.zmod import ModuleOverZn, solve_linear

Z2 = cyclic(2)
Z3 = cyclic(3)
Z4 = cyclic(4)


def triv(group, n):
    return GModuleAction.trivial(group, ModuleOverZn.cyclic(n))


def small_corpus():
    s3 = symmetric3()
    sign = s3_sign_hom(s3, Z2)
    yield triv(Z2, 2)
    yield triv(Z3, 3)
    yield triv(Z4, 4)
    yield triv(klein_four(), 2)
    yield GModuleAction.by_character(identity_hom(Z2), ModuleOverZn.cyclic(4), 3)
    yield GModuleAction.by_character(sign, ModuleOverZn.cyclic(3), 2)
    yield GModuleAction.trivial(Z4, ModuleOverZn(4, (2, 4)))


def test_degree_zero_differential_trivial_action():
    f = Cochain(triv(Z4, 4), 0, [[3]])
    assert differential(f).is_zero()


def test_degree_one_character_is_cocycle():
    alpha = Cochain(triv(Z2, 2), 1, [[0], [1]])
    assert differential(alpha).is_zero()


def test_section_discrepancy_produces_carry():
    # d of the Z/9-lift of the identity character of Z/3, divided by 3,
    # is the carry table; computed here directly in Z/9
    lift = Cochain(triv(Z3, 9), 1, [[0], [1], [2]])
    d = differential(lift)
    carry = np.array([[0, 0, 0, 0, 0, 1, 0, 1, 1]]).reshape(9, 1) * 3
    assert np.array_equal(d.values, carry)


@pytest.mark.parametrize("coeffs", list(small_corpus()), ids=lambda c: f"|G|={c.group.order},M={c.module.orders}")
def test_d_squared_zero(coeffs):
    rng = np.random.default_rng(coeffs.group.order)
    for degree in range(0, 3):
        for _ in range(20):
            f = Cochain.random(coeffs, degree, rng)
            assert differential(differential(f)).is_zero()


def rank_two_action(n, block):
    """Z/2 acting on (Z/n)^2: the generator acts by ``block``."""
    return GModuleAction(Z2, ModuleOverZn(n, (n, n)), np.array([np.eye(2, dtype=np.int64), block]))


@pytest.mark.parametrize(
    "coeffs",
    [
        *small_corpus(),
        GModuleAction.trivial(symmetric3(), ModuleOverZn(4, (2, 4))),
        rank_two_action(4, [[0, 1], [1, 0]]),  # swaps the factors
        rank_two_action(2, [[1, 1], [0, 1]]),  # not symmetric: catches a transposed block
    ],
    ids=lambda c: f"|G|={c.group.order},M={c.module.orders}",
)
def test_matrix_agrees_with_gather(coeffs):
    n = coeffs.modulus
    rng = np.random.default_rng(coeffs.group.order)
    for degree in range(0, 3):
        a = _scaled_differential(coeffs, degree)
        scales = _row_scales(coeffs, degree + 1)
        for _ in range(5):
            f = Cochain.random(coeffs, degree, rng)
            gathered = scales * differential(f).values.reshape(-1)
            assert np.array_equal((a @ f.values.reshape(-1)) % n, gathered % n)


def test_call_rejects_elements_outside_the_group():
    f = Cochain.random(triv(Z4, 4), 2, np.random.default_rng(0))
    assert f(1, 3).tolist() == f.values[1 * 4 + 3].tolist()
    for args in [(0, 7), (-1, 0), (9, 9), (4, 0)]:
        with pytest.raises(ValueError, match="outside"):
            f(*args)


def test_call_reads_elements_strictly():
    # numpy integers are elements; a bool or a float is not, not even 1.0
    f = Cochain.random(triv(Z4, 4), 2, np.random.default_rng(0))
    assert f(np.int64(1), np.uint8(3)).tolist() == f(1, 3).tolist()
    for args in [(1.9, 2), (1.0, 2), (True, 2), (np.True_, 2), ("1", 2), (None, 2)]:
        with pytest.raises(ValueError, match="not an integer"):
            f(*args)


def test_scalar_multiples_read_the_scalar_strictly():
    f = carry_cocycle(3)
    assert (2 * f).values.tolist() == (f + f).values.tolist()
    assert np.int64(2) * f == 2 * f
    for scalar in (1.5, 1.0, True):
        with pytest.raises(ValueError, match="scalar"):
            scalar * f


def test_degrees_are_read_strictly():
    coeffs = triv(Z2, 2)
    assert Cochain(coeffs, np.int64(1), [0, 1]).degree == 1
    for degree in (True, 1.0):
        with pytest.raises(ValueError, match="degree"):
            Cochain(coeffs, degree, [0, 1])
    # the cache is typed: True == 1 as a key, yet it neither fills nor hits the degree-1 entry
    cohomology.cache_clear()
    for _ in range(2):
        with pytest.raises(ValueError, match="degree True is a bool"):
            cohomology(coeffs, True)
        h1 = cohomology(coeffs, 1)
        assert type(h1.degree) is int and all(type(g.degree) is int for g in h1.generators)
    dataio.serialize_object(h1.generators[0])
    with pytest.raises(ValueError, match="degree 1.0 is not an integer"):
        cohomology(coeffs, 1.0)


def test_degree_cap():
    f = Cochain.zero(triv(Z2, 2), 4)
    with pytest.raises(DegreeBoundError):
        differential(f)
    assert differential(f, degree_cap=5).degree == 5


def test_classify_coboundary_roundtrip():
    rng = np.random.default_rng(7)
    for coeffs in small_corpus():
        beta = Cochain.random(coeffs, 1, rng)
        f = differential(beta)
        res = classify(f)
        assert isinstance(res, Coboundary)
        assert differential(res.preimage) == f


def test_classify_carry_is_nontrivial():
    carry = Cochain.from_function(triv(Z3, 3), 2, lambda i, j: [1 if i + j >= 3 else 0])
    res = classify(carry)
    assert isinstance(res, NontrivialClass)
    assert any(c % 3 for c in res.coordinates)
    # oracle: no degree-1 table on Z/3 has this differential
    for vals in itertools.product(range(3), repeat=3):
        beta = Cochain(carry.coeffs, 1, np.array(vals).reshape(3, 1))
        assert differential(beta) != carry


def test_classify_non_cocycle_with_witness():
    f = Cochain(triv(Z2, 2), 1, [[0], [1]])
    g = Cochain(triv(Z2, 2), 1, [[1], [1]])  # f(0) = 1 breaks the cocycle law
    res = classify(g)
    assert isinstance(res, NonCocycle)
    assert len(res.witness) == 2


def test_classify_degree_zero():
    assert isinstance(classify(Cochain.zero(triv(Z2, 2), 0)), Coboundary)
    res = classify(Cochain(triv(Z2, 2), 0, [[1]]))
    assert isinstance(res, NontrivialClass)


def test_h_i_of_trivial_group_vanishes():
    one = cyclic(2).quotient_by([0, 1])[0]
    coeffs = triv(one, 4)
    for i in (1, 2, 3):
        assert cohomology(coeffs, i).is_trivial()
    assert cohomology(coeffs, 0).invariant_factors == (4,)


@pytest.mark.parametrize("p", [2, 3])
def test_h1_of_cyclic_p(p):
    h = cohomology(triv(cyclic(p), p), 1)
    assert h.invariant_factors == (p,)
    # oracle: count 1-cocycles among all p^p tables
    cocycles = 0
    for vals in itertools.product(range(p), repeat=p):
        f = Cochain(triv(cyclic(p), p), 1, np.array(vals).reshape(p, 1))
        if differential(f).is_zero():
            cocycles += 1
    assert cocycles == p  # B^1 = 0 here, so |H^1| = |Z^1| = p


@pytest.mark.parametrize("n", [2, 3, 4])
def test_h3_of_cyclic_n(n):
    h = cohomology(triv(cyclic(n), n), 3)
    assert h.invariant_factors == (n,)


def test_h2_of_klein_four_mod_2():
    # standard: H^2((Z/2)^2, Z/2) has dimension 3
    h = cohomology(triv(klein_four(), 2), 2)
    assert h.invariant_factors == (2, 2, 2)


def test_h1_with_mixed_module():
    m = ModuleOverZn(4, (2, 4))
    h = cohomology(GModuleAction.trivial(Z2, m), 1)
    assert h.invariant_factors == (2, 2)  # Hom(Z/2, Z/2 x Z/4)


def test_generators_hit_standard_basis():
    for coeffs, deg in [(triv(Z4, 4), 3), (triv(klein_four(), 2), 2)]:
        h = cohomology(coeffs, deg)
        for j, gen in enumerate(h.generators):
            assert differential(gen).is_zero()
            coords = h.coordinates(gen)
            expected = tuple(1 if t == j else 0 for t in range(len(h.generators)))
            assert coords == expected


def test_coboundaries_have_zero_coordinates():
    rng = np.random.default_rng(3)
    for coeffs in small_corpus():
        h = cohomology(coeffs, 2)
        for _ in range(10):
            beta = Cochain.random(coeffs, 1, rng)
            coords = h.coordinates(differential(beta))
            assert all(c == 0 for c in coords)


def test_pullback_identity_and_trivial():
    f = Cochain.random(triv(Z4, 4), 2, np.random.default_rng(0))
    assert pullback(identity_hom(Z4), f) == f
    g = pullback(trivial_hom(Z2, Z4), f)
    # factors through the trivial group, hence a coboundary once a cocycle
    fz = Cochain.from_function(triv(Z4, 4), 2, lambda i, j: [1 if i + j >= 4 else 0])
    res = classify(pullback(trivial_hom(Z2, Z4), fz))
    assert isinstance(res, Coboundary)


def test_pullback_of_alpha_along_reduction():
    red = make_hom(Z4, Z2, [0, 1, 0, 1])
    alpha = Cochain(triv(Z2, 2), 1, [[0], [1]])
    pulled = pullback(red, alpha)
    assert pulled.values.reshape(-1).tolist() == [0, 1, 0, 1]


def test_pullback_commutes_with_differential():
    rng = np.random.default_rng(11)
    red = make_hom(Z4, Z2, [0, 1, 0, 1])
    sign = s3_sign_hom(symmetric3(), Z2)
    for rho in (red, sign):
        coeffs = triv(rho.cod, 4)
        for deg in (1, 2):
            for _ in range(10):
                f = Cochain.random(coeffs, deg, rng)
                assert pullback(rho, differential(f)) == differential(pullback(rho, f))


def test_seeded_global_trivializations_reuse_the_factorization(monkeypatch):
    datum, rho = quaternion_datum(), quaternion_rho()
    c_rho = pullback(rho, datum.three_cocycle)
    base = _global_trivialization(datum, rho, None)
    invariant, section = cs_invariant(datum, rho), section_class(datum, rho)
    calls = []
    real = zmod._howell_rows

    def spy(mat, n):
        calls.append(mat.shape)
        return real(mat, n)

    monkeypatch.setattr(zmod, "_howell_rows", spy)
    seeded = [_global_trivialization(datum, rho, seed) for seed in range(5)]
    assert calls == []  # every seeded a' comes from the cached factorization
    for a in seeded:
        assert differential(a) == c_rho
    assert len({a.values.tobytes() for a in [base, *seeded]}) >= 2
    for seed in range(5):
        assert cs_invariant(datum, rho, solver_seed=seed) == invariant
        assert section_class(datum, rho, solver_seed=seed) == section
    # a seeded cs_invariant eliminates only what an unseeded warm one does,
    # which is nothing (see the next test), and solves on the global group once
    calls.clear()
    cs_invariant(datum, rho)
    unseeded = list(calls)
    calls.clear()
    solved_on = []
    real_solve = cstheory.solve_differential

    def solve_spy(coeffs, degree, target):
        solved_on.append(target.group)
        return real_solve(coeffs, degree, target)

    monkeypatch.setattr(cstheory, "solve_differential", solve_spy)
    cs_invariant(datum, rho, solver_seed=7)
    assert calls == unseeded
    assert solved_on.count(datum.global_group) == 1


@pytest.mark.parametrize(
    "datum, rho",
    [(quaternion_datum(), quaternion_rho()), (toy_global_datum(), toy_rho())],
    ids=["quaternion", "toy"],
)
def test_warm_invariants_eliminate_nothing(monkeypatch, datum, rho):
    # the local invariants solve against one cached factorization per place
    invariant = cs_invariant(datum, rho)
    calls = []
    real = zmod._howell_rows

    def spy(mat, n):
        calls.append(mat.shape)
        return real(mat, n)

    monkeypatch.setattr(zmod, "_howell_rows", spy)
    assert cs_invariant(datum, rho) == invariant
    assert cs_invariant(datum, rho, solver_seed=3) == invariant
    assert calls == []


def test_solve_differential_refuses_targets_on_other_coefficients():
    target = differential(Cochain.random(triv(Z4, 4), 1, np.random.default_rng(0)))
    twisted = GModuleAction.by_character(identity_hom(Z4), ModuleOverZn.cyclic(4), 3)
    for coeffs in (triv(Z4, 2), twisted):
        with pytest.raises(ValueError, match="other coefficients"):
            solve_differential(coeffs, 1, target)


# coefficient systems for the cache property test: n in {2, 3, 4, 6}, a mixed
# module, a twisted action, and n = 300 > 256 so that h is stored as uint16
CACHED_SOLVE_COEFFS = [
    triv(klein_four(), 2),
    GModuleAction.by_character(s3_sign_hom(symmetric3(), Z2), ModuleOverZn.cyclic(3), 2),
    GModuleAction.trivial(Z4, ModuleOverZn(4, (2, 4))),
    GModuleAction.by_character(identity_hom(Z2), ModuleOverZn.cyclic(4), 3),
    triv(symmetric3(), 6),
    triv(Z3, 300),
]


@given(
    case=st.sampled_from(CACHED_SOLVE_COEFFS),
    degree=st.integers(0, 2),
    coboundary=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=80, deadline=None)
def test_cached_solve_equals_dense_solve_linear(case, degree, coboundary, seed):
    rng = np.random.default_rng(seed)
    if coboundary:
        target = differential(Cochain.random(case, degree, rng))
    else:
        target = Cochain.random(case, degree + 1, rng)
    got = solve_differential(case, degree, target)
    n = case.modulus
    assert _factored_differential(case, degree).h.dtype == (np.uint8 if n <= 256 else np.uint16)
    want = solve_linear(_scaled_differential(case, degree), _scaled(target), n)
    assert (got is None) == (want is None)
    if coboundary:
        assert got is not None and differential(got) == target
    if got is not None:
        assert got.values.dtype == np.int64
        assert got.values.tobytes() == Cochain(case, degree, want.particular).values.tobytes()


def test_cohomology_and_solves_factor_each_differential_once(monkeypatch):
    coeffs = triv(Z4, 2)
    d2 = _scaled_differential(coeffs, 2)
    _factored_differential.cache_clear()
    cohomology.cache_clear()
    shapes = []
    howell_rows = zmod._howell_rows

    def counting(mat, n):
        shapes.append(mat.shape)
        return howell_rows(mat, n)

    monkeypatch.setattr(zmod, "_howell_rows", counting)
    assert cohomology(coeffs, 2).invariant_factors == (2,)
    rng = np.random.default_rng(4)
    for _ in range(2):
        target = differential(Cochain.random(coeffs, 2, rng))
        assert differential(solve_differential(coeffs, 2, target)) == target
    assert shapes.count(d2.T.shape) == 1


def test_factored_differential_keeps_no_dense_copy(monkeypatch):
    coeffs = triv(Z4, 2)
    _factored_differential.cache_clear()
    _scaled_differential.cache_clear()
    built = []
    build = cochains._differential_matrix

    def recording(*args):
        d = build(*args)
        built.append(weakref.ref(d))
        return d

    monkeypatch.setattr(cochains, "_differential_matrix", recording)
    k = _factored_differential(coeffs, 2).k
    assert len(built) == 1 and built[0]() is None
    assert _scaled_differential.cache_info().currsize == 0
    # the factorization is what stays cached
    assert _factored_differential(coeffs, 2).k is k and len(built) == 1


def test_normalized_representative():
    rng = np.random.default_rng(9)
    coeffs = triv(Z4, 4)
    beta = Cochain.random(coeffs, 1, rng)
    f = differential(beta)  # a 2-cocycle, in fact a coboundary
    g = normalized_representative(f)
    for i in range(4):
        assert not g(0, i).any()
        assert not g(i, 0).any()
    assert isinstance(classify(g - f), Coboundary)

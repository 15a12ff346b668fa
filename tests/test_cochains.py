import functools
import itertools
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from arithcs import cochains, cstheory, dataio, zmod
from arithcs.cochains import (
    Cochain,
    Coboundary,
    _coboundary,
    _differential_matrix,
    _extend,
    _factored_differential,
    _generating_set,
    _generator_rows,
    _generator_values,
    _row_scales,
    _scaled_differential,
    _tree,
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
from arithcs.cstheory import _global_trivialization, cs_invariant, scalar_coefficients, section_class, validate_global_datum
from arithcs.fixtures import quaternion_datum, quaternion_rho, toy_global_datum, toy_rho
from arithcs.groups import (
    GModuleAction,
    cyclic,
    dihedral4,
    direct_product,
    identity_hom,
    klein_four,
    make_group,
    make_hom,
    quaternion8,
    s3_sign_hom,
    symmetric3,
    trivial_hom,
)
from arithcs.ops import carry_cocycle
from arithcs.zmod import ModuleOverZn, factorize, howell_form, solve_linear

Z2 = cyclic(2)
Z3 = cyclic(3)
Z4 = cyclic(4)


def triv(group, n):
    return GModuleAction.trivial(group, ModuleOverZn.cyclic(n))


def full_scaled_differential(coeffs, degree):
    """Every row of the scaled d, the system that its generator rows stand for."""
    rows = coeffs.group.order ** (degree + 1)
    return _differential_matrix(coeffs, degree, np.arange(rows)) * _row_scales(coeffs, rows)[:, None] % coeffs.modulus


def full_scaled(f):
    """f's values on every tuple, scaled as the rows of ``full_scaled_differential``."""
    return f.values.reshape(-1) * _row_scales(f.coeffs, f.values.shape[0]) % f.coeffs.modulus


def spy_howell_rows(monkeypatch) -> list:
    """Record the shape of every elimination: each call of either engine,
    through ``_howell_rows`` or, for a Z/2 ``factorize``, of
    ``_howell_rows_gf2`` directly."""
    shapes = []
    int64_engine, gf2_engine = zmod._howell_rows_int64, zmod._howell_rows_gf2

    def counting_int64(mat, n):
        shapes.append(mat.shape)
        return int64_engine(mat, n)

    def counting_gf2(mat):
        shapes.append(mat.shape)
        return gf2_engine(mat)

    monkeypatch.setattr(zmod, "_howell_rows_int64", counting_int64)
    monkeypatch.setattr(zmod, "_howell_rows_gf2", counting_gf2)
    return shapes


def clear_cochain_caches():
    for cache in (cohomology, _factored_differential, _generator_rows, _tree):
        cache.cache_clear()


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
    # the full build against the gather, and the cached build is its generator rows
    n, r = coeffs.modulus, coeffs.module.rank
    rng = np.random.default_rng(coeffs.group.order)
    for degree in range(0, 3):
        full = full_scaled_differential(coeffs, degree)
        rows = _generator_rows(coeffs.group, degree + 1)
        # the cached build is unreduced: its readers reduce it
        assert np.array_equal(_scaled_differential(coeffs, degree) % n, full[(rows[:, None] * r + np.arange(r)).ravel()])
        for _ in range(5):
            f = Cochain.random(coeffs, degree, rng)
            assert np.array_equal((full @ f.values.reshape(-1)) % n, full_scaled(differential(f)))


def s3_sign_shear():
    """S3 acting on Z/2 x Z/4 through the sign, an odd element by (a, b) -> (a, b + 2a)."""
    s3 = symmetric3()
    shear = np.array([[[1, 0], [0, 1]], [[1, 0], [2, 1]]])
    return GModuleAction(s3, ModuleOverZn(4, (2, 4)), shear[s3_sign_hom(s3, Z2).map])


def scalar_differential(f, tuples):
    """df at each of ``tuples``, evaluated one face at a time from the module docstring's formula."""
    coeffs, i, op = f.coeffs, f.degree, f.group.op
    out = []
    for g in tuples:
        total = coeffs.apply(g[0], f(*g[1:]))
        for k in range(1, i + 1):
            total = total + (-1) ** k * f(*g[: k - 1], op(g[k - 1], g[k]), *g[k + 1 :])
        out.append(coeffs.module.reduce(total + (-1) ** (i + 1) * f(*g[:i])))
    return np.array(out, dtype=np.int64).reshape(len(tuples), coeffs.module.rank)


@pytest.mark.parametrize(
    "coeffs",
    [
        triv(symmetric3(), 3),
        GModuleAction.by_character(s3_sign_hom(symmetric3(), Z2), ModuleOverZn.cyclic(4), 3),
        s3_sign_shear(),
    ],
    ids=["trivial", "s3-sign", "rank-two-mixed"],
)
def test_differential_follows_the_face_formula(coeffs):
    # an independent reference for the one face generator that the gather and the matrix builds share
    m, r = coeffs.group.order, coeffs.module.rank
    rng = np.random.default_rng(11)
    for degree in range(4):
        f = Cochain.random(coeffs, degree, rng)
        tuples = list(itertools.product(range(m), repeat=degree + 1))
        expected = scalar_differential(f, tuples)
        assert np.array_equal(differential(f).values, expected)
        generator = _generator_rows(coeffs.group, degree + 1)
        degenerate = np.array([j for j, g in enumerate(tuples) if 0 in g])
        for rows in (np.arange(len(tuples)), generator, degenerate):
            d = _differential_matrix(coeffs, degree, rows)
            got = coeffs.module.reduce((d @ f.values.ravel()).reshape(-1, r) % coeffs.modulus)
            assert np.array_equal(got, expected[rows])


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


def test_values_are_read_strictly():
    # a float or bool value used to be truncated: [0.5, 2.7] stored [0, 2], [True, False] stored [1, 0]
    coeffs = triv(Z2, 3)
    assert Cochain(coeffs, 1, [np.int64(1), 2]).values.tolist() == [[1], [2]]
    assert Cochain(coeffs, 1, np.array([1, 2], dtype=np.uint8)).values.tolist() == [[1], [2]]
    # every integer dtype, negative entries included, equals the int64 construction
    z4 = triv(Z4, 7)
    for dtype in (np.int8, np.int16, np.int32, np.uint16, np.uint32):
        info = np.iinfo(dtype)
        values = np.array([int(info.min), -1, 5, int(info.max)]).astype(dtype)
        assert Cochain(z4, 1, values) == Cochain(z4, 1, values.astype(np.int64))
        assert Cochain(z4, 1, values).values.dtype == np.int64
    floats = (np.array([0.5, 2.7]), np.array([0.5, 2.7], dtype=np.float16), np.array([1, 2], dtype=np.float32))
    for values in ([0.5, 2.7], [1.0, 2], [True, False], *floats, np.array([True, False])):
        with pytest.raises(ValueError, match="cochain value"):
            Cochain(coeffs, 1, values)
    assert Cochain.from_function(coeffs, 1, lambda g: [g + 1]).values.tolist() == [[1], [2]]
    for fn in (lambda g: [g + 0.5], lambda g: g / 1, lambda g: [g == 1], lambda g: np.array([g], dtype=float)):
        with pytest.raises(ValueError, match="cochain value"):
            Cochain.from_function(coeffs, 1, fn)


def test_values_do_not_alias_the_callers_array():
    coeffs = triv(Z2, 3)
    for dtype in (np.int16, np.int32, np.int64):
        values = np.array([[1], [2]], dtype=dtype)
        f = Cochain(coeffs, 1, values)
        values[:] = 0
        assert f.values.tolist() == [[1], [2]]
        assert not f.values.flags.writeable


@pytest.mark.parametrize("dtype", [np.int16, np.int32])
@pytest.mark.parametrize("orders", [(2,), (3,), (2, 4), (181,), (32767,), (65536,)], ids=str)
def test_reduce_is_exact_on_narrow_dtypes(dtype, orders):
    # expected by Python-int %; an int16 array with order 65536 takes the int64 path
    info = np.iinfo(dtype)
    module = ModuleOverZn(max(orders), orders)
    rng = np.random.default_rng(7)
    edges = [info.min, info.min + 1, -2, -1, 0, 1, info.max - 1, info.max]
    column = np.concatenate([edges, rng.integers(info.min, info.max, size=300, endpoint=True)]).astype(dtype)
    values = np.stack([np.roll(column, j) for j in range(len(orders))], axis=-1)
    got = module.reduce(values)
    assert got.dtype == np.int64
    assert got.tolist() == [[int(v) % o for v, o in zip(row, orders)] for row in values.tolist()]
    if len(orders) == 1:  # a flat vector of a rank-1 module
        assert module.reduce(column).tolist() == [int(v) % orders[0] for v in column.tolist()]


def test_reduce_reads_values_strictly():
    module = ModuleOverZn.cyclic(4)
    assert module.reduce([5, -1]).tolist() == [1, 3]
    for values in ([1.5], [True], np.array([1.0, 2.0], dtype=np.float32)):
        with pytest.raises(ValueError, match="module value"):
            module.reduce(values)


def int_differential(f):
    """df from the module docstring's formula in Python ints, reduced by %."""
    m, i = f.group.order, f.degree
    mul, mats, orders, table = f.group.mul.tolist(), f.coeffs.matrices.tolist(), f.module.orders, f.values.tolist()

    def at(gs):
        return table[functools.reduce(lambda acc, g: acc * m + g, gs, 0)]

    out = []
    for g in itertools.product(range(m), repeat=i + 1):
        tail = at(g[1:])
        total = [sum(a * b for a, b in zip(row, tail)) for row in mats[g[0]]]
        faces = [((-1) ** k, at(g[: k - 1] + (mul[g[k - 1]][g[k]],) + g[k + 1 :])) for k in range(1, i + 1)]
        for sign, face in faces + [((-1) ** (i + 1), at(g[:i]))]:
            total = [t + sign * v for t, v in zip(total, face)]
        out.append([t % o for t, o in zip(total, orders)])
    return out


def extreme_cochain(coeffs, degree, rng):
    """A cochain whose values are mostly 0 or order - 1, so that sums of faces reach their bounds."""
    orders = np.array(coeffs.module.orders)
    size = (coeffs.group.order**degree, coeffs.module.rank)
    pick = rng.integers(0, 3, size=size)
    values = np.where(pick == 0, orders - 1, np.where(pick == 1, 0, rng.integers(0, orders, size=size)))
    return Cochain(coeffs, degree, values)


@pytest.mark.parametrize(
    "n, twisted, dtype",
    [
        # trivial: the bound (i + 2)·n of a degree-3 d crosses 2^15 between 6553 and 6554
        (6553, False, np.int16),
        (6554, False, np.int32),
        (20000, False, np.int32),
        (65535, False, np.int32),
        (65536, False, np.int32),
        # twisted by -1: face 0 is bounded by n², so n² + 4n crosses 2^15 and 2^31
        (179, True, np.int16),
        (180, True, np.int32),
        (46338, True, np.int32),
        (46339, True, np.int64),
        (65535, True, np.int64),
        (65536, True, np.int64),
    ],
)
def test_differential_at_the_narrow_dtype_boundaries(n, twisted, dtype):
    s3 = symmetric3()
    coeffs = (
        GModuleAction.by_character(s3_sign_hom(s3, Z2), ModuleOverZn.cyclic(n), n - 1) if twisted else triv(s3, n)
    )
    rng = np.random.default_rng(n)
    f = extreme_cochain(coeffs, 3, rng)
    assert _coboundary(f).dtype == dtype
    assert differential(f).values.tolist() == int_differential(f)


@pytest.mark.parametrize("twisted", [False, True])
@pytest.mark.parametrize("i", [0, 1, 2])
def test_differential_matrix_at_the_narrow_dtype_boundary(i, twisted):
    # face 0 adds an entry below n, the other i + 1 faces add ±1 each, so the
    # unreduced entries are bounded by n + i + 1, which crosses 2^15 here
    s3 = symmetric3()
    for n, dtype in [(2**15 - i - 2, np.int16), (2**15 - i - 1, np.int32)]:
        coeffs = (
            GModuleAction.by_character(s3_sign_hom(s3, Z2), ModuleOverZn.cyclic(n), n - 1) if twisted else triv(s3, n)
        )
        d = _differential_matrix(coeffs, i, np.arange(6 ** (i + 1)))
        assert d.dtype == dtype
        # column j is d of the j-th unit cochain, computed in int64 by the gather
        units = np.eye(6**i, dtype=np.int64)
        want = np.stack([differential(Cochain(coeffs, i, e)).values.ravel() for e in units], axis=1)
        assert np.array_equal(d.astype(np.int64) % n, want)


@pytest.mark.parametrize("n", [10922, 10923, 65535, 65536])
def test_solve_differential_at_the_narrow_dtype_boundaries(n):
    # d of a degree-1 cochain is bounded by 3n, which crosses 2^15 between 10922 and 10923
    coeffs = triv(symmetric3(), n)
    rng = np.random.default_rng(n)
    target = differential(extreme_cochain(coeffs, 1, rng))
    x = solve_differential(coeffs, 1, target)
    assert x is not None and differential(x) == target
    # one entry moved by n - 1 at first entry 3, outside S = {1, 2}: only the full check sees it
    values = target.values.copy()
    values[3 * 6 + 1] += n - 1
    assert solve_differential(coeffs, 1, Cochain(coeffs, 2, values)) is None


@pytest.mark.parametrize("n", [2, 181, 65536])
def test_cochain_arithmetic_matches_python_ints(n):
    coeffs = triv(symmetric3(), n)
    rng = np.random.default_rng(n)
    f, g = extreme_cochain(coeffs, 2, rng), extreme_cochain(coeffs, 2, rng)
    fs, gs = [v for (v,) in f.values.tolist()], [v for (v,) in g.values.tolist()]
    assert (f + g).values.tolist() == [[(a + b) % n] for a, b in zip(fs, gs)]
    assert (f - g).values.tolist() == [[(a - b) % n] for a, b in zip(fs, gs)]
    assert (-f).values.tolist() == [[-a % n] for a in fs]
    for scalar in (n - 1, -1, 3 * n + 2):
        assert (scalar * f).values.tolist() == [[scalar * a % n] for a in fs]


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
    g = Cochain(triv(Z2, 2), 1, [[1], [1]])  # g(0) = 1 breaks the cocycle law
    assert classify(g) == NonCocycle((0, 0))
    # a cocycle bumped at (2, 3): the witness is the first tuple, in lexicographic order, where df fails
    coeffs = s3_sign_shear()
    bump = np.zeros((6, 6, 2), dtype=np.int64)
    bump[2, 3, 1] = 1
    f = differential(Cochain.random(coeffs, 1, np.random.default_rng(3))) + Cochain(coeffs, 2, bump.reshape(36, 2))
    tuples = list(itertools.product(range(6), repeat=3))
    first = next(t for t, v in zip(tuples, scalar_differential(f, tuples)) if v.any())
    assert first == (1, 2, 3)
    assert classify(f) == NonCocycle(first)


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


SWEEP_GROUPS = {
    "Z/4": Z4,
    "Z/6": cyclic(6),
    "S3": symmetric3(),
    "V4": klein_four(),
    "Q8": quaternion8(),
    "D4": dihedral4(),
}
SWEEP_MODULES = {
    "Z/2": ModuleOverZn.cyclic(2),
    "Z/4": ModuleOverZn.cyclic(4),
    "Z/2+Z/4": ModuleOverZn(4, (2, 4)),
    "Z/6": ModuleOverZn.cyclic(6),
    "Z/2+Z/3+Z/6": ModuleOverZn(6, (2, 3, 6)),
}
# invariant factors of H^0, H^1, ... in degrees 0-3 (0-2 for groups of order
# 8), as the width-wide lattice presentation computed them before cohomology
# moved to the Howell rows of Z^i
SWEEP_FACTORS = {
    "Z/4;Z/2": [(2,), (2,), (2,), (2,)],
    "Z/4;Z/4": [(4,), (4,), (4,), (4,)],
    "Z/4;Z/2+Z/4": [(2, 4), (2, 4), (2, 4), (2, 4)],
    "Z/4;Z/6": [(6,), (2,), (2,), (2,)],
    "Z/4;Z/2+Z/3+Z/6": [(6, 6), (2, 2), (2, 2), (2, 2)],
    "Z/6;Z/2": [(2,), (2,), (2,), (2,)],
    "Z/6;Z/4": [(4,), (2,), (2,), (2,)],
    "Z/6;Z/2+Z/4": [(2, 4), (2, 2), (2, 2), (2, 2)],
    "Z/6;Z/6": [(6,), (6,), (6,), (6,)],
    "Z/6;Z/2+Z/3+Z/6": [(6, 6), (6, 6), (6, 6), (6, 6)],
    "S3;Z/2": [(2,), (2,), (2,), (2,)],
    "S3;Z/4": [(4,), (2,), (2,), (2,)],
    "S3;Z/2+Z/4": [(2, 4), (2, 2), (2, 2), (2, 2)],
    "S3;Z/6": [(6,), (2,), (2,), (6,)],
    "S3;Z/2+Z/3+Z/6": [(6, 6), (2, 2), (2, 2), (6, 6)],
    "V4;Z/2": [(2,), (2, 2), (2, 2, 2), (2, 2, 2, 2)],
    "V4;Z/4": [(4,), (2, 2), (2, 2, 2), (2, 2, 2, 2)],
    "V4;Z/2+Z/4": [(2, 4), (2, 2, 2, 2), (2, 2, 2, 2, 2, 2), (2, 2, 2, 2, 2, 2, 2, 2)],
    "V4;Z/6": [(6,), (2, 2), (2, 2, 2), (2, 2, 2, 2)],
    "V4;Z/2+Z/3+Z/6": [(6, 6), (2, 2, 2, 2), (2, 2, 2, 2, 2, 2), (2, 2, 2, 2, 2, 2, 2, 2)],
    "Q8;Z/2": [(2,), (2, 2), (2, 2)],
    "Q8;Z/4": [(4,), (2, 2), (2, 2)],
    "Q8;Z/2+Z/4": [(2, 4), (2, 2, 2, 2), (2, 2, 2, 2)],
    "Q8;Z/6": [(6,), (2, 2), (2, 2)],
    "Q8;Z/2+Z/3+Z/6": [(6, 6), (2, 2, 2, 2), (2, 2, 2, 2)],
    "D4;Z/2": [(2,), (2, 2), (2, 2, 2)],
    "D4;Z/4": [(4,), (2, 2), (2, 2, 2)],
    "D4;Z/2+Z/4": [(2, 4), (2, 2, 2, 2), (2, 2, 2, 2, 2, 2)],
    "D4;Z/6": [(6,), (2, 2), (2, 2, 2)],
    "D4;Z/2+Z/3+Z/6": [(6, 6), (2, 2, 2, 2), (2, 2, 2, 2, 2, 2)],
    "Z/6;Z/4 twisted": [(2,), (2,), (2,), (2,)],
}


def z6_twisted():
    """Z/6 acting on Z/4 by -1 through its quotient Z/2."""
    z6 = SWEEP_GROUPS["Z/6"]
    return GModuleAction.by_character(make_hom(z6, Z2, np.arange(6) % 2), ModuleOverZn.cyclic(4), 3)


def sweep():
    """(coefficients, degree, invariant factors) for every case of SWEEP_FACTORS."""
    for name, factors in SWEEP_FACTORS.items():
        group, module = name.split(";")
        if module == "Z/4 twisted":
            coeffs = z6_twisted()
        else:
            coeffs = GModuleAction.trivial(SWEEP_GROUPS[group], SWEEP_MODULES[module])
        for degree, expected in enumerate(factors):
            yield coeffs, degree, expected


def test_generators_hit_standard_basis():
    rng = np.random.default_rng(5)
    for coeffs, deg, factors in sweep():
        h = cohomology(coeffs, deg)
        assert h.invariant_factors == factors
        for j, gen in enumerate(h.generators):
            assert differential(gen).is_zero()
            expected = tuple(1 if t == j else 0 for t in range(len(h.generators)))
            assert h.coordinates(gen) == expected
            if deg:
                moved = gen + differential(Cochain.random(coeffs, deg - 1, rng))
                assert h.coordinates(moved) == expected


def test_coboundaries_have_zero_coordinates():
    rng = np.random.default_rng(3)
    cases = [(coeffs, 2, 10) for coeffs in small_corpus()]
    cases += [(coeffs, deg, 3) for coeffs, deg, _ in sweep() if deg]
    for coeffs, deg, count in cases:
        h = cohomology(coeffs, deg)
        for _ in range(count):
            beta = Cochain.random(coeffs, deg - 1, rng)
            coords = h.coordinates(differential(beta))
            assert all(c == 0 for c in coords)


def test_coordinates_refuse_non_cocycles():
    rng = np.random.default_rng(8)
    for coeffs, deg in [(triv(Z4, 2), 2), (GModuleAction.trivial(symmetric3(), ModuleOverZn(4, (2, 4))), 2),
                        (z6_twisted(), 3)]:
        h = cohomology(coeffs, deg)
        f = Cochain.random(coeffs, deg, rng)
        assert not differential(f).is_zero()
        for g in (f, f + h.generators[0]):
            with pytest.raises(ValueError, match="not a cocycle"):
                h.coordinates(g)


ROW_SPACE_CASES = [
    (GModuleAction.trivial(symmetric3(), ModuleOverZn(4, (2, 4))), 2),
    (GModuleAction.trivial(symmetric3(), ModuleOverZn.cyclic(3)), 3),
    (z6_twisted(), 3),
    (triv(cyclic(6), 6), 2),
    (triv(klein_four(), 2), 2),
]


def test_factored_kernel_depends_on_row_spaces_alone(monkeypatch):
    # another generating set of the rows of d: permuted rows, one row times a
    # unit, and one more row that is a combination of the others
    rng = np.random.default_rng(12)
    scaled = cochains._scaled_differential
    for coeffs, degree in ROW_SPACE_CASES:
        clear_cochain_caches()
        want_k = _factored_differential(coeffs, degree).k
        d, n = scaled(coeffs, degree), coeffs.modulus
        other = d[rng.permutation(len(d))]
        other[0] = other[0] * (n - 1) % n
        other = np.vstack([other, rng.integers(0, n, size=len(other)) @ other % n])
        monkeypatch.setattr(cochains, "_scaled_differential", lambda c, i: other if (c, i) == (coeffs, degree) else scaled(c, i))
        _factored_differential.cache_clear()
        factored = _factored_differential(coeffs, degree)
        monkeypatch.undo()
        # the factorization has one row per row of the d it factored
        assert factored.shape[0] == len(other) == len(d) + 1
        assert factored.k.shape == want_k.shape and factored.k.tobytes() == want_k.tobytes()
    clear_cochain_caches()


def test_cohomology_depends_on_row_spaces_alone(monkeypatch):
    # every non-identity element as S instead of the chosen set: other
    # unknowns, another spanning tree and more residual rows.  The invariant
    # factors, the k of d and every solution stay; the basis is in
    # S-coordinates, so it does not
    rng = np.random.default_rng(13)
    for coeffs, degree in ROW_SPACE_CASES:
        group = coeffs.group
        targets = [differential(Cochain.random(coeffs, degree, rng)) for _ in range(2)]
        clear_cochain_caches()
        want, want_k = cohomology(coeffs, degree), _factored_differential(coeffs, degree).k
        want_solutions = [solve_differential(coeffs, degree, t) for t in targets]
        chosen = len(_generating_set(group))
        shapes = spy_howell_rows(monkeypatch)
        monkeypatch.setattr(cochains, "_generating_set", lambda g: tuple(range(1, g.order)))
        clear_cochain_caches()
        got, k = cohomology(coeffs, degree), _factored_differential(coeffs, degree).k
        solutions = [solve_differential(coeffs, degree, t) for t in targets]
        # the generators are cocycles with unit coordinates, read on this S
        for j, gen in enumerate(got.generators):
            assert differential(gen).is_zero()
            assert got.coordinates(gen) == tuple(int(t == j) for t in range(len(got.generators)))
        monkeypatch.undo()
        clear_cochain_caches()
        # the patch took effect: the first sweep has |S| * |G|^(i-1) * r
        # unknown rows and one M^T column per non-tree pair, x and coordinate
        block, everything = group.order ** (degree - 1) * coeffs.module.rank, group.order - 1
        assert shapes[0][0] == everything * block > chosen * block
        assert shapes[0][1] == (everything * group.order - 1) * block
        assert got.invariant_factors == want.invariant_factors
        assert k.shape == want_k.shape and k.dtype == want_k.dtype and k.tobytes() == want_k.tobytes()
        assert [x.values.tobytes() for x in solutions] == [x.values.tobytes() for x in want_solutions]
        assert got.basis.shape[1] == everything * block != want.basis.shape[1]


def test_cohomology_is_presented_on_the_cocycles():
    # the basis has one row per Howell row of Z^2, not one per coordinate of
    # C^2, and one column per S-coordinate: |S| = 2 first entries times 24
    h = cohomology(triv(direct_product(quaternion8(), Z3), 2), 2)
    assert h.basis.shape == (24, 48)
    assert h.invariant_factors == (2, 2)


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
    calls = spy_howell_rows(monkeypatch)
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
    calls = spy_howell_rows(monkeypatch)
    assert cs_invariant(datum, rho) == invariant
    assert cs_invariant(datum, rho, solver_seed=3) == invariant
    assert calls == []


@pytest.mark.parametrize(
    "datum, rho",
    [(quaternion_datum(), quaternion_rho()), (toy_global_datum(), toy_rho())],
    ids=["quaternion", "toy"],
)
def test_validation_factors_the_global_differential(monkeypatch, datum, rho):
    # every invariant of a datum solves d a = c o rho against the global d^2,
    # whatever rho is, so validating the datum factors it
    d2 = _scaled_differential(scalar_coefficients(datum.global_group, datum.modulus), 2)
    clear_cochain_caches()
    assert validate_global_datum(datum).passed
    calls = spy_howell_rows(monkeypatch)
    _global_trivialization(datum, rho, None)
    assert d2.T.shape not in calls
    monkeypatch.undo()
    clear_cochain_caches()


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
    # packed words over Z/2, otherwise the narrowest unsigned dtype that holds n - 1
    assert _factored_differential(case, degree).h.dtype == (np.uint64 if n == 2 else np.uint8 if n <= 256 else np.uint16)
    # the generator-row solve must equal the canonical solve of the full system
    want = solve_linear(full_scaled_differential(case, degree), full_scaled(target), n)
    assert (got is None) == (want is None)
    if coboundary:
        assert got is not None and differential(got) == target
        assert classify(target) == Coboundary(got)
    if got is not None:
        assert got.values.dtype == np.int64
        assert got.values.tobytes() == Cochain(case, degree, want.particular).values.tobytes()


def test_solve_differential_refuses_a_non_cocycle_that_matches_on_generator_rows():
    # one entry of a coboundary flipped at (2, 1): the generator rows of Z/4,
    # those with first entry 1, still agree with it
    coeffs = triv(Z4, 4)
    assert _generating_set(Z4) == (1,)
    rng = np.random.default_rng(2)
    for _ in range(5):
        values = differential(Cochain.random(coeffs, 1, rng)).values.copy()
        values[2 * 4 + 1] += 1
        target = Cochain(coeffs, 2, values)
        assert _factored_differential(coeffs, 1).solve(_generator_values(target)) is not None
        assert solve_differential(coeffs, 1, target) is None
        assert isinstance(classify(target), NonCocycle)


def test_coordinates_refuse_a_non_cocycle_that_matches_on_generator_rows():
    # the same bump at (2, 1) on a class plus a coboundary: its S-values are
    # those of a cocycle, so only its differential tells it apart
    coeffs = triv(Z4, 4)
    h = cohomology(coeffs, 2)
    rng = np.random.default_rng(3)
    for _ in range(5):
        cocycle = h.generators[0] + differential(Cochain.random(coeffs, 1, rng))
        values = cocycle.values.copy()
        values[2 * 4 + 1] += 1
        f = Cochain(coeffs, 2, values)
        assert np.array_equal(_generator_values(f), _generator_values(cocycle))
        assert h.coordinates(cocycle) == (1,)
        with pytest.raises(ValueError, match="not a cocycle"):
            h.coordinates(f)


def test_generating_sets():
    # decreasing element order, ties by index, each pick outside the
    # subgroup of the earlier ones; returned sorted
    q8 = quaternion8()
    assert _generating_set(make_group([[0]])) == (0,)
    assert _generating_set(cyclic(5)) == (1,)
    assert _generating_set(q8) == (1, 2)
    assert _generating_set(direct_product(q8, Z3)) == (4, 7)
    assert _generating_set(direct_product(direct_product(q8, Z3), Z2)) == (8, 9, 14)
    assert _generating_set(direct_product(q8, Z2)) == (2, 3, 4)
    assert _generating_set(klein_four()) == (1, 2)
    assert _generating_set(symmetric3()) == (1, 3)
    assert _generating_set(dihedral4()) == (1, 4)
    # the trivial group's d keeps all its rows
    assert _generator_rows(make_group([[0]]), 3).tolist() == [0]
    assert _generator_rows(q8, 2).tolist() == list(range(8, 24))


def cocycle_form_cases():
    """(coefficients, degree) for every sweep case of degree >= 1, the trivial
    group, a rank-2 twisted module and S3 on Z/2+Z/4, and moduli whose
    ``_form_dtype`` cannot hold n itself (256) or is uint16 (300)."""
    yield from ((coeffs, degree) for coeffs, degree, _ in sweep() if degree)
    for coeffs in (triv(make_group([[0]]), 4), rank_two_action(4, [[0, 1], [1, 0]]), s3_sign_shear()):
        yield from ((coeffs, degree) for degree in (1, 2, 3))
    yield from ((triv(Z3, n), 2) for n in (256, 300))


def test_generator_row_kernels_equal_full_kernels():
    # k and the basis of cohomology are Howell forms, so equal bytes mean
    # equal row spaces: the generator rows of d, and the values at first
    # entries in S, lose no cocycle condition.  The basis is the Howell form
    # of the full k's columns at the S-coordinates, times the scales; in
    # degree 0 those are all r columns
    for coeffs, degree in [(coeffs, degree) for coeffs, degree, _ in sweep() if not degree] + list(cocycle_form_cases()):
        n, r = coeffs.modulus, coeffs.module.rank
        rows = len(_generator_rows(coeffs.group, degree + 1)) * r
        assert _scaled_differential(coeffs, degree).shape[0] == rows
        full = factorize(full_scaled_differential(coeffs, degree), n).k
        k = _factored_differential(coeffs, degree).k
        assert k.shape == full.shape and k.dtype == full.dtype and k.tobytes() == full.tobytes()
        tuples = _generator_rows(coeffs.group, degree) if degree else np.arange(1)
        cols = (tuples[:, None] * r + np.arange(r)).ravel()
        scaled = howell_form(full[:, cols] * _row_scales(coeffs, tuples.size), n)[0]
        cohomology.cache_clear()
        basis = cohomology(coeffs, degree).basis
        assert basis.shape == scaled.shape and basis.dtype == scaled.dtype and basis.tobytes() == scaled.tobytes()


def test_mixed_orders_sweep_no_rows_for_short_coordinates(monkeypatch):
    # cold H^3(S3; Z/2+Z/4): |S| = 2 times 6^2 tuples times rank 2 unknown
    # rows, and no row 2·e_t for each of the Z/2 coordinates; 8 non-tree
    # pairs of 6^2·2 columns of M^T.  Its kernel, 103 rows on the unscaled
    # unknowns, holds the rows 2·e_t, and one rescale sweep drops them:
    # Z^3 has 62 Howell rows in its 144 scaled S-coordinates
    coeffs = GModuleAction.trivial(symmetric3(), ModuleOverZn(4, (2, 4)))
    clear_cochain_caches()
    shapes = spy_howell_rows(monkeypatch)
    h = cohomology(coeffs, 3)
    monkeypatch.undo()
    assert shapes[:2] == [(144, 576), (103, 144)] and h.basis.shape == (62, 144)
    assert h.invariant_factors == (2, 2)
    clear_cochain_caches()


def z2_shear():
    """Z/2 acting on Z/2 x Z/4 by (x, y) -> (x, y + 2x)."""
    return GModuleAction(Z2, ModuleOverZn(4, (2, 4)), np.array([np.eye(2, dtype=np.int64), [[1, 0], [2, 1]]]))


# invariant factors of H^1, H^2, H^3 for modules with some order below n,
# as cohomology computed them on lifts, with rows o_t·e_t in Z^i and B^i
MIXED_ORDER_FACTORS = [
    (s3_sign_shear, [(2,), (2,), (2,)]),
    (z2_shear, [(2,), (2,), (2,)]),
    (lambda: GModuleAction.trivial(symmetric3(), ModuleOverZn(12, (4, 6))), [(2, 2), (2, 2), (2, 6)]),
    (lambda: GModuleAction.trivial(symmetric3(), ModuleOverZn(9, (3, 9))), [(), (), (3, 3)]),
    (lambda: GModuleAction.trivial(quaternion8(), ModuleOverZn(12, (4, 6))), [(2, 2, 2, 2), (2, 2, 2, 2), (2, 4)]),
    (lambda: GModuleAction.trivial(quaternion8(), ModuleOverZn(9, (3, 9))), [(), (), ()]),
]


@pytest.mark.parametrize("make, factors", MIXED_ORDER_FACTORS,
                         ids=["S3-sign-shear", "Z2-shear", "S3;Z/4+Z/6", "S3;Z/3+Z/9", "Q8;Z/4+Z/6", "Q8;Z/3+Z/9"])
def test_mixed_order_classes_under_actions(make, factors):
    coeffs = make()
    rng = np.random.default_rng(coeffs.group.order * coeffs.modulus)
    for degree, want in zip((1, 2, 3), factors):
        clear_cochain_caches()
        h = cohomology(coeffs, degree)
        assert h.invariant_factors == want
        for j, gen in enumerate(h.generators):
            assert differential(gen).is_zero()
            assert h.coordinates(gen) == tuple(int(t == j) for t in range(len(want)))
        for _ in range(3):
            c = [int(rng.integers(0, d)) for d in want]
            f = differential(Cochain.random(coeffs, degree - 1, rng))
            for cj, gen in zip(c, h.generators):
                f = f + cj * gen
            assert h.coordinates(f) == tuple(c)
            got = classify(f)
            if any(c):
                assert got == NontrivialClass(tuple(c))
            else:
                assert isinstance(got, Coboundary) and differential(got.preimage) == f
    clear_cochain_caches()


def test_cold_cohomology_builds_no_differential(monkeypatch):
    def refuse(*args):
        raise AssertionError("cohomology built or factored d")

    monkeypatch.setattr(cochains, "_scaled_differential", refuse)
    monkeypatch.setattr(cochains, "_factored_differential", refuse)
    for coeffs, degree in [(triv(quaternion8(), 4), 3), (z6_twisted(), 3), (s3_sign_shear(), 2),
                           (triv(make_group([[0]]), 2), 1)]:
        clear_cochain_caches()
        width = len(_generating_set(coeffs.group)) * coeffs.group.order ** (degree - 1) * coeffs.module.rank
        assert cohomology(coeffs, degree).basis.shape[1] == width
    monkeypatch.undo()
    clear_cochain_caches()


@pytest.mark.parametrize(
    "coeffs, degree",
    [(triv(quaternion8(), 4), 3), (s3_sign_shear(), 2),
     (GModuleAction.trivial(symmetric3(), ModuleOverZn(4, (2, 4))), 3), (triv(direct_product(quaternion8(), Z3), 2), 2)],
    ids=["Q8;Z/4", "S3-sign-shear", "S3;Z/2+Z/4", "Q8xZ/3;Z/2"],
)
def test_cold_cohomology_is_no_wider_than_its_s_coordinates(monkeypatch, coeffs, degree):
    # past the sweep of M^T, every elimination, back-substitution and
    # differential build is at most U = |S|·|G|^(i-1)·r wide, below the
    # |G|^i·r coordinates of C^i
    group, r = coeffs.group, coeffs.module.rank
    unknowns = len(_generating_set(group)) * group.order ** (degree - 1) * r
    assert unknowns < group.order**degree * r
    substituted, built = [], []
    back, build = cochains._back_substitute, cochains._differential_matrix

    def back_spy(h, vecs, n):
        substituted.append((h.shape, vecs.shape))
        return back(h, vecs, n)

    def build_spy(c, i, rows):
        d = build(c, i, rows)
        built.append(d.shape)
        return d

    clear_cochain_caches()
    shapes = spy_howell_rows(monkeypatch)
    monkeypatch.setattr(cochains, "_back_substitute", back_spy)
    monkeypatch.setattr(cochains, "_differential_matrix", build_spy)
    h = cohomology(coeffs, degree)
    monkeypatch.undo()
    clear_cochain_caches()
    left = np.count_nonzero(~_tree(group)[1]) * group.order ** (degree - 1) * r
    # the sweep of M^T alone, the rescale of its kernel for a mixed-order
    # module, then the left kernel of the basis
    mixed = min(coeffs.module.orders) < coeffs.modulus
    assert shapes[0] == (unknowns, left) and len(shapes) == 2 + mixed and shapes[-1] == h.basis.shape
    assert all(width == unknowns for _, width in shapes[1:])
    # the coboundaries: the U generator rows of d^(i-1), one column per unknown of C^(i-1)
    assert built == [(unknowns, group.order ** (degree - 1) * r)]
    assert substituted == [(h.basis.shape, built[0][::-1])]


@pytest.mark.parametrize(
    "group", [make_group([[0]]), Z4, symmetric3(), quaternion8(), direct_product(quaternion8(), Z3)],
    ids=lambda g: f"|G|={g.order}",
)
def test_tree_reaches_every_element_outside_s_once(group):
    gens = _generating_set(group)
    levels, edges = _tree(group)
    seen = set(gens)
    for t, a, h in levels:
        assert set(h.tolist()) <= seen  # each level extends the elements reached before it
        assert np.array_equal(group.mul[np.array(gens)[a], h], t)
        assert seen.isdisjoint(t.tolist()) and len(set(t.tolist())) == t.size
        seen |= set(t.tolist())
        assert edges[a, h].all()
    assert seen == set(range(group.order))
    assert edges.shape == (len(gens), group.order) and edges.sum() == group.order - len(gens)


@pytest.mark.parametrize(
    "coeffs",
    [triv(make_group([[0]]), 4), triv(Z4, 4), triv(quaternion8(), 2), z6_twisted(), s3_sign_shear(),
     rank_two_action(4, [[0, 1], [1, 0]])],
    ids=lambda c: f"|G|={c.group.order},M={c.module.orders}",
)
def test_extend_is_the_cocycle_identity(coeffs):
    # for any values at first entries in S, the extension agrees with them,
    # its d vanishes on the tree rows and equals the residual on the others
    group, n, r = coeffs.group, coeffs.modulus, coeffs.module.rank
    m, gens = group.order, np.array(_generating_set(group))
    orders = np.asarray(coeffs.module.orders)
    rng = np.random.default_rng(m)
    edges = _tree(group)[1]
    pairs = np.nonzero(~edges)
    for degree in (1, 2, 3):
        y = rng.integers(0, n, size=(gens.size,) + (m,) * (degree - 1) + (3, r))
        z, res = _extend(coeffs, degree, y)
        assert z.shape == (m,) * degree + (3, r) and res.shape == (len(pairs[0]),) + (m,) * (degree - 1) + (3, r)
        assert np.array_equal(z[gens], y)
        for b in range(3):
            dz = differential(Cochain(coeffs, degree, z[..., b, :].reshape(-1, r))).values
            dz = dz.reshape((m, m, m ** (degree - 1), r))
            assert not dz[gens][edges].any()
            assert np.array_equal(dz[gens][pairs], res[..., b, :].reshape(len(pairs[0]), -1, r) % orders)
        # a cocycle is its own extension, with no residual
        cocycle = differential(Cochain.random(coeffs, degree - 1, rng))
        values = cocycle.values.reshape((m,) * degree + (1, r))
        z, res = _extend(coeffs, degree, values[gens])
        assert np.array_equal(z % orders, values) and not (res % orders).any()


def test_cohomology_factors_no_differential_and_solves_factor_d2_once(monkeypatch):
    coeffs = triv(Z4, 2)
    d2 = _scaled_differential(coeffs, 2)
    clear_cochain_caches()
    shapes = spy_howell_rows(monkeypatch)
    assert cohomology(coeffs, 2).invariant_factors == (2,)
    assert d2.T.shape not in shapes and _factored_differential.cache_info().currsize == 0
    rng = np.random.default_rng(4)
    for _ in range(2):
        target = differential(Cochain.random(coeffs, 2, rng))
        assert differential(solve_differential(coeffs, 2, target)) == target
    assert shapes.count(d2.T.shape) == 1


def test_each_factorization_eliminates_once(monkeypatch):
    # a cold cohomology makes one sweep of M^T, whose left kernel is hZ, and
    # one of hZ, whose left kernel comes out of that sweep in Howell form
    coeffs = triv(quaternion8(), 4)
    d3 = _scaled_differential(coeffs, 3)
    clear_cochain_caches()
    shapes = spy_howell_rows(monkeypatch)
    h = cohomology(coeffs, 3)
    # S = {1, 2}: 2 * 8^2 unknowns; 8 - 2 tree edges leave 2 * 8 - 6 = 10
    # pairs, each 8^2 columns of M^T
    assert shapes == [(2 * 8**2, 10 * 8**2), h.basis.shape]
    shapes.clear()
    assert solve_linear(d3, d3 @ np.arange(d3.shape[1]) % 4, 4) is not None
    assert shapes == [d3.T.shape]
    monkeypatch.undo()
    clear_cochain_caches()


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


def test_z2_factorization_holds_packed_words_alone(monkeypatch):
    coeffs = triv(direct_product(quaternion8(), Z3), 2)
    clear_cochain_caches()
    unpacked = []
    unpack = zmod._unpack

    def recording(words, width, dtype=np.int64):
        unpacked.append(words.shape)
        return unpack(words, width, dtype)

    monkeypatch.setattr(zmod, "_unpack", recording)
    f = _factored_differential(coeffs, 2)
    monkeypatch.undo()
    rows, cols = f.shape
    # S has 2 elements: 2 * 24^2 generator rows, 24^2 unknowns, several words each
    assert (rows, cols) == (2 * 24**2, 24**2)
    assert f.h.dtype == f.u.dtype == np.uint64
    assert f.h.shape == (len(f.lead), -(-rows // 64)) and f.u.shape == (len(f.lead), -(-cols // 64))
    # factoring unpacks k, which is the kernel basis of every solution, and nothing else
    assert unpacked == [(f.k.shape[0], f.u.shape[1])]
    target = differential(Cochain.random(coeffs, 2, np.random.default_rng(2)))
    assert differential(solve_differential(coeffs, 2, target)) == target
    clear_cochain_caches()


def test_normalized_representative_builds_only_the_degenerate_rows(monkeypatch):
    coeffs = GModuleAction.trivial(symmetric3(), ModuleOverZn(4, (2, 4)))
    f = differential(Cochain.random(coeffs, 2, np.random.default_rng(6)))
    shapes = []
    build = cochains._differential_matrix

    def recording(*args):
        d = build(*args)
        shapes.append(d.shape)
        return d

    monkeypatch.setattr(cochains, "_differential_matrix", recording)
    g = normalized_representative(f)
    # 6^3 - 5^3 = 91 triples contain the identity, each with two coordinates
    assert shapes == [(91 * 2, 36 * 2)]
    vals = g.values.reshape(6, 6, 6, 2)
    assert not (vals[0].any() or vals[:, 0].any() or vals[:, :, 0].any())
    assert isinstance(classify(g - f), Coboundary)


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

import functools
import itertools
import math
import re

import numpy as np
import pytest

from arithcs.cochains import (
    Cochain,
    Coboundary,
    NonCocycle,
    _scaled_differential,
    classify,
    differential,
)
from arithcs.groups import (
    GModuleAction,
    NotAHomError,
    cyclic,
    dihedral4,
    klein_four,
    make_hom,
    quaternion8,
    s3_sign_hom,
    symmetric3,
)
from arithcs.ops import (
    IncompatiblePairingError,
    NotDivisibleError,
    ShufflePath,
    bockstein,
    carry_cocycle,
    conjugate,
    cup,
    cyclic_three_cocycle,
    homotopy,
    identity_character,
    shuffle_paths,
)
from arithcs.zmod import ModuleOverZn, right_kernel


def triv(group, n):
    return GModuleAction.trivial(group, ModuleOverZn.cyclic(n))


def random_cocycle(coeffs, degree, rng):
    k = right_kernel(_scaled_differential(coeffs, degree), coeffs.modulus)
    coef = rng.integers(0, coeffs.modulus, size=k.shape[0])
    vals = (coef @ k) % coeffs.modulus
    f = Cochain(coeffs, degree, vals.reshape(-1, coeffs.module.rank))
    assert differential(f).is_zero()
    return f


# ---------------------------------------------------------------------------
# cup


def test_cup_unit():
    rng = np.random.default_rng(0)
    coeffs = triv(cyclic(3), 3)
    one = Cochain(coeffs, 0, [[1]])
    for deg in (1, 2):
        x = Cochain.random(coeffs, deg, rng)
        assert cup(x, one) == x
        assert cup(one, x) == x


def test_cup_carry_value_on_z3():
    alpha = identity_character(3)
    beta = carry_cocycle(3)
    c = cup(alpha, beta)
    assert c(1, 1, 2).tolist() == [1]  # alpha(1) * carry(1, 2) = 1 * 1


@pytest.mark.parametrize("group", [cyclic(4), klein_four(), symmetric3()])
def test_leibniz_rule(group):
    rng = np.random.default_rng(group.order)
    coeffs = triv(group, 4)
    for p, q in [(1, 1), (1, 2), (2, 1)]:
        for _ in range(15):
            x = Cochain.random(coeffs, p, rng)
            y = Cochain.random(coeffs, q, rng)
            lhs = differential(cup(x, y))
            rhs = cup(differential(x), y) + (-1) ** p * cup(x, differential(y))
            assert lhs == rhs


def test_leibniz_with_module_valued_right_factor():
    s3 = symmetric3()
    act = GModuleAction.by_character(s3_sign_hom(s3, cyclic(2)), ModuleOverZn.cyclic(4), 3)
    scalar = triv(s3, 4)
    rng = np.random.default_rng(5)
    for _ in range(15):
        x = Cochain.random(scalar, 1, rng)
        y = Cochain.random(act, 1, rng)
        lhs = differential(cup(x, y))
        rhs = cup(differential(x), y) + (-1) * cup(x, differential(y))
        assert lhs == rhs


def s3_sign_shear():
    """S3 acting on Z/2 x Z/4 through the sign, an odd element by (a, b) -> (a, b + 2a)."""
    s3 = symmetric3()
    shear = np.array([[[1, 0], [0, 1]], [[1, 0], [2, 1]]])
    return GModuleAction(s3, ModuleOverZn(4, (2, 4)), shear[s3_sign_hom(s3, cyclic(2)).map])


def twisted_actions():
    s3 = symmetric3()
    return [
        GModuleAction.by_character(s3_sign_hom(s3, cyclic(2)), ModuleOverZn.cyclic(4), 3),
        s3_sign_shear(),
        GModuleAction.by_units(cyclic(4), ModuleOverZn.cyclic(5), [1, 2, 4, 3]),  # a and a^{-1} act apart
    ]


TWISTED_IDS = ["s3-sign", "rank-two-mixed", "z4-units-mod-5"]


def cup_reference(x, y, coeffs):
    """x cup y from its defining formula, one tuple at a time."""
    p, group = x.degree, x.group

    def value(*gs):
        prefix = functools.reduce(group.op, gs[:p], 0)
        return x(*gs[:p]) * y.coeffs.apply(prefix, y(*gs[p:]))

    return Cochain.from_function(coeffs, p + y.degree, value)


@pytest.mark.parametrize("act", twisted_actions(), ids=TWISTED_IDS)
def test_cup_matches_its_formula_pointwise(act):
    # degree-0 factors on either side, and twisted right factors after a prefix of two elements
    scalar = triv(act.group, act.modulus)
    rng = np.random.default_rng(12)
    for p, q in [(0, 0), (0, 2), (2, 0), (1, 1), (2, 1), (2, 2)]:
        x = Cochain.random(scalar, p, rng)
        y = Cochain.random(act, q, rng)
        assert cup(x, y) == cup_reference(x, y, act)
        # module value times scalar: the scalar factor's action is trivial
        assert cup(y, x) == cup_reference(y, x, act)


def test_cup_rejects_unpairable_coefficients():
    s3 = symmetric3()
    act = GModuleAction.by_character(s3_sign_hom(s3, cyclic(2)), ModuleOverZn.cyclic(4), 3)
    rng = np.random.default_rng(1)
    x = Cochain.random(act, 1, rng)
    y = Cochain.random(act, 1, rng)
    with pytest.raises(IncompatiblePairingError):
        cup(x, y)


def test_graded_commutativity_in_cohomology():
    for n in (2, 3, 4):
        alpha = identity_character(n)
        beta = carry_cocycle(n)
        diff = cup(alpha, beta) - cup(beta, alpha)
        assert isinstance(classify(diff), Coboundary)


# ---------------------------------------------------------------------------
# bockstein


def test_bockstein_of_zero():
    z = Cochain.zero(triv(cyclic(4), 4), 1)
    assert bockstein(z).is_zero()


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_carry_table_and_cocycle(n):
    beta = carry_cocycle(n)
    for i, j in itertools.product(range(n), repeat=2):
        assert beta(i, j).tolist() == [1 if i + j >= n else 0]
    assert differential(beta).is_zero()


def test_bockstein_carry_at_2_2_mod_3():
    assert carry_cocycle(3)(2, 2).tolist() == [1]


def test_bockstein_rejects_non_cocycle():
    coeffs = triv(cyclic(4), 4)
    f = Cochain(coeffs, 1, [[0], [1], [0], [0]])  # not a homomorphism
    with pytest.raises(NotDivisibleError):
        bockstein(f)


def test_bockstein_names_the_first_failing_tuple():
    carry = carry_cocycle(3)
    f = carry + Cochain(carry.coeffs, 2, np.eye(9, dtype=np.int64)[2 * 3 + 1, :, None])  # bumped at (2, 1)
    first = next(t for t in itertools.product(range(3), repeat=3) if differential(f)(*t).any())
    assert first == (1, 1, 1)
    assert classify(f) == NonCocycle(first)
    with pytest.raises(NotDivisibleError, match=re.escape(f"at tuple {first};")):
        bockstein(f)


def test_bockstein_commutes_with_pullback():
    from arithcs.cochains import pullback

    red = make_hom(cyclic(4), cyclic(2), [0, 1, 0, 1])
    alpha = identity_character(2)
    assert pullback(red, bockstein(alpha)) == bockstein(pullback(red, alpha))


# ---------------------------------------------------------------------------
# conjugate


def test_conjugate_by_identity_and_in_abelian():
    rng = np.random.default_rng(2)
    f = Cochain.random(triv(symmetric3(), 3), 2, rng)
    assert conjugate(f, 0) == f
    g = Cochain.random(triv(cyclic(6), 3), 2, rng)
    for a in range(6):
        assert conjugate(g, a) == g


def test_conjugate_indicator_of_three_cycle():
    s3 = symmetric3()
    threes = [a for a in s3.elements() if s3.element_order(a) == 3]
    t = next(a for a in s3.elements() if s3.element_order(a) == 2)
    coeffs = triv(s3, 3)
    indicator = Cochain.from_function(coeffs, 1, lambda g: [1 if g == threes[0] else 0])
    conj = conjugate(indicator, t)
    expected = Cochain.from_function(coeffs, 1, lambda g: [1 if g == threes[1] else 0])
    assert conj == expected


@pytest.mark.parametrize("act", twisted_actions(), ids=TWISTED_IDS)
def test_conjugate_matches_its_formula_pointwise(act):
    group = act.group
    rng = np.random.default_rng(13)
    for degree in (0, 2):
        f = Cochain.random(act, degree, rng)
        for a in group.elements():
            inv = group.inv(a)
            expected = Cochain.from_function(
                act, degree, lambda *gs: act.apply(inv, f(*(group.op(group.op(a, g), inv) for g in gs)))
            )
            assert conjugate(f, a) == expected


def test_conjugate_is_right_action():
    s3 = symmetric3()
    rng = np.random.default_rng(3)
    act = GModuleAction.by_character(s3_sign_hom(s3, cyclic(2)), ModuleOverZn.cyclic(4), 3)
    f = Cochain.random(act, 2, rng)
    for a, b in itertools.product(s3.elements(), repeat=2):
        assert conjugate(conjugate(f, a), b) == conjugate(f, s3.op(a, b))


@pytest.mark.parametrize("group", [cyclic(4), symmetric3(), dihedral4(), quaternion8()])
def test_conjugation_commutes_with_d(group):
    rng = np.random.default_rng(group.order + 1)
    coeffs = triv(group, 4)
    for deg in (1, 2, 3):
        f = Cochain.random(coeffs, deg, rng)
        for a in group.elements():
            assert conjugate(differential(f), a) == differential(conjugate(f, a))


# ---------------------------------------------------------------------------
# shuffle paths


def test_path_count_and_validation():
    for n, k in [(1, 1), (2, 1), (2, 2), (3, 2), (5, 4)]:
        paths = list(shuffle_paths(n, k))
        assert len(paths) == math.comb(n + k, k)
    with pytest.raises(ValueError):
        ShufflePath(2, 1, ("h", "v", "v"))


def test_sign_sum_is_gaussian_binomial_at_minus_one():
    # sum of signs equals the q = -1 Gaussian binomial: zero exactly when
    # n and k are both odd, else binom(floor((n+k)/2), floor(k/2))
    for n, k in itertools.product(range(1, 5), repeat=2):
        total = sum(p.sign for p in shuffle_paths(n, k))
        if n % 2 and k % 2:
            assert total == 0
        else:
            assert total == math.comb((n + k) // 2, k // 2)


def test_squares_above_is_inversion_count():
    # inversions: pairs of a horizontal step and a later vertical step
    for n, k in itertools.product(range(5), repeat=2):
        for path in shuffle_paths(n, k):
            pairs = itertools.combinations(path.steps, 2)
            assert path.squares_above() == sum(a == "h" and b == "v" for a, b in pairs)


def test_out_of_range_elements_are_rejected():
    f = carry_cocycle(3)
    for a in (-1, 3):
        with pytest.raises(NotAHomError):
            conjugate(f, a)
        with pytest.raises(ValueError):
            homotopy([a], f)


def test_homotopy_reads_elements_strictly():
    f = carry_cocycle(3)
    assert homotopy([np.int64(1)], f) == homotopy([1], f)
    for a in (1.5, 1.0, True, "1"):
        with pytest.raises(ValueError, match="not an integer"):
            homotopy([a], f)


def test_conjugate_reads_elements_strictly():
    f = carry_cocycle(3)
    assert conjugate(f, np.int64(1)) == conjugate(f, 1)
    for a in (True, 1.5):
        with pytest.raises(ValueError, match="not an integer"):
            conjugate(f, a)
    with pytest.raises(ValueError, match="out of range"):
        conjugate(f, -1)


def path_term_tuple(path: ShufflePath, avec, xs, group) -> tuple[int, ...]:
    """The (n+k)-tuple a single path feeds to f, built segment by segment.

    Scalar reference for what ``homotopy`` gathers: a vertical segment
    starting at height t yields a_{k-t}^{-1}; a horizontal one at height t
    yields x_s conjugated by a_{k-t+1} ... a_k.
    """
    k = len(avec)
    out = []
    for kind, s, t in path.segments():
        if kind == "v":
            out.append(group.inv(avec[k - t - 1]))
        else:
            c = 0
            for a in avec[k - t:]:
                c = group.op(c, a)
            out.append(group.op(group.op(c, xs[s]), group.inv(c)))
    return tuple(out)


def test_worked_grid_example_path():
    # the 5 x 4 grid path H H V H V H H V V: 15 squares above, negative sign
    steps = ("h", "h", "v", "h", "v", "h", "h", "v", "v")
    path = ShufflePath(5, 4, steps)
    assert path.squares_above() == 15
    assert path.sign == -1
    s3 = symmetric3()
    rng = np.random.default_rng(8)
    a1, a2, a3, a4 = (int(x) for x in rng.integers(0, 6, size=4))
    xs = [int(x) for x in rng.integers(0, 6, size=5)]
    got = path_term_tuple(path, [a1, a2, a3, a4], xs, s3)
    inv = s3.inv
    a34 = s3.op(a3, a4)
    expected = (
        xs[0],
        xs[1],
        inv(a4),
        s3.op(s3.op(a4, xs[2]), inv(a4)),
        inv(a3),
        s3.op(s3.op(a34, xs[3]), inv(a34)),
        s3.op(s3.op(a34, xs[4]), inv(a34)),
        inv(a2),
        inv(a1),
    )
    assert got == expected


def test_homotopy_matches_scalar_path_formula():
    # vectorized homotopy against the segment-by-segment tuple construction
    s3 = symmetric3()
    coeffs = triv(s3, 5)
    rng = np.random.default_rng(4)
    for n_out, k in [(1, 1), (0, 2), (1, 2), (2, 1)]:
        f = Cochain.random(coeffs, n_out + k, rng)
        avec = [int(x) for x in rng.integers(0, 6, size=k)]
        h = homotopy(avec, f)
        for xs in itertools.product(s3.elements(), repeat=n_out):
            total = np.zeros(1, dtype=np.int64)
            for path in shuffle_paths(n_out, k):
                term = path_term_tuple(path, avec, list(xs), s3)
                total = total + path.sign * f(*term)
            assert (total % 5 == h(*xs)).all()


# ---------------------------------------------------------------------------
# homotopy identities


def corpus_actions():
    out = []
    for g in (cyclic(2), cyclic(3), cyclic(4), klein_four(), cyclic(6), symmetric3()):
        out.append(triv(g, 4))
    s3 = symmetric3()
    out.append(GModuleAction.by_character(s3_sign_hom(s3, cyclic(2)), ModuleOverZn.cyclic(4), 3))
    return out


@pytest.mark.parametrize("coeffs", corpus_actions(), ids=lambda c: f"|G|={c.group.order},triv={c.is_trivial()}")
def test_chain_homotopy_identity(coeffs):
    rng = np.random.default_rng(coeffs.group.order + 17)
    g = coeffs.group
    for deg in (1, 2, 3):
        for _ in range(10):
            f = Cochain.random(coeffs, deg, rng)
            a = int(rng.integers(0, g.order))
            lhs = homotopy([a], differential(f)) + differential(homotopy([a], f))
            assert lhs == conjugate(f, a) - f


def test_homotopy_at_identity_element():
    # h_{e,f}(g_1..g_n) = sum_r (-1)^r f(g_1..g_r, e, g_{r+1}..g_n)
    g = symmetric3()
    coeffs = triv(g, 3)
    rng = np.random.default_rng(21)
    f = Cochain.random(coeffs, 2, rng)
    h = homotopy([0], f)
    for x in g.elements():
        expected = (f(0, x) - f(x, 0)) % 3
        assert (h(x) == expected).all()
    # for cocycles, d h_{e,f} = -h_{e,df} = 0
    z = random_cocycle(coeffs, 2, rng)
    assert differential(homotopy([0], z)) == Cochain.zero(coeffs, 2) - homotopy([0], differential(z))


def test_degree_one_homotopy_is_evaluation_at_inverse():
    # for a 1-cocycle c: h_{a,c} = c(a^{-1}) = -a^{-1} c(a), and d h matches c^a - c
    s3 = symmetric3()
    act = GModuleAction.by_character(s3_sign_hom(s3, cyclic(2)), ModuleOverZn.cyclic(4), 3)
    rng = np.random.default_rng(6)
    c = random_cocycle(act, 1, rng)
    for a in s3.elements():
        h = homotopy([a], c)
        assert h.degree == 0
        assert (h.values[0] == c(s3.inv(a))).all()
        minus = act.module.reduce(-act.apply(s3.inv(a), c(a)))
        assert (h.values[0] == minus).all()
        assert differential(h) == conjugate(c, a) - c


@pytest.mark.parametrize(
    "group", [cyclic(2), cyclic(3), cyclic(4), klein_four(), cyclic(6), symmetric3()]
)
def test_second_homotopy_coboundary_relation(group):
    # for 3-cocycles f: h_{b,f} - h_{ab,f} + (h_{a,f})^b = d(-h_{a,b,f})
    coeffs = triv(group, 4)
    rng = np.random.default_rng(group.order + 40)
    f = random_cocycle(coeffs, 3, rng)
    for a, b in itertools.product(group.elements(), repeat=2):
        ab = group.op(a, b)
        lhs = homotopy([b], f) - homotopy([ab], f) + conjugate(homotopy([a], f), b)
        assert lhs == differential(-homotopy([a, b], f))


def test_homotopy_cocycle_relation_up_to_coboundary():
    # h_{ab,f} - (h_{a,f})^b - h_{b,f} is a coboundary (and in fact d h_{a,b,f})
    group = symmetric3()
    coeffs = triv(group, 2)
    rng = np.random.default_rng(77)
    f = random_cocycle(coeffs, 3, rng)
    for a, b in itertools.product(group.elements(), repeat=2):
        diff = homotopy([group.op(a, b)], f) - conjugate(homotopy([a], f), b) - homotopy([b], f)
        assert differential(diff).is_zero()
        assert isinstance(classify(diff), Coboundary)


def test_kummer_sign_identity_d_of_minus_alpha_cup_b():
    # with db = f*(delta alpha) and d(f*alpha) = 0: d(-f*alpha cup b) = f*(alpha cup delta alpha)
    z4, z2 = cyclic(4), cyclic(2)
    red = make_hom(z4, z2, [0, 1, 0, 1])
    from arithcs.cochains import pullback

    alpha_p = pullback(red, identity_character(2))
    b = Cochain(triv(z4, 2), 1, [[0], [0], [1], [1]])
    assert differential(b) == pullback(red, carry_cocycle(2))
    t = -cup(alpha_p, b)
    assert differential(t) == pullback(red, cyclic_three_cocycle(2))

import itertools
from math import gcd

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from arithcs.zmod import (
    ModuleOverZn,
    _howell_rows_gf2,
    _howell_rows_int64,
    annihilator,
    diagonalize_mod,
    howell_form,
    lattice_basis,
    lattice_coordinates,
    left_kernel,
    right_kernel,
    solve_linear,
    unit_lift,
)


def brute_row_space(mat, n: int) -> set[tuple[int, ...]]:
    """All Z/n combinations of the rows, by exhaustive enumeration."""
    mat = np.asarray(mat, dtype=np.int64)
    space = set()
    for coeffs in itertools.product(range(n), repeat=mat.shape[0]):
        v = np.zeros(mat.shape[1], dtype=np.int64)
        for c, row in zip(coeffs, mat):
            v = (v + c * row) % n
        space.add(tuple(int(x) for x in v))
    return space


# the entries that read a matrix and a modulus, with a zero right-hand side
ENTRIES = [
    howell_form,
    left_kernel,
    right_kernel,
    lambda a, n: solve_linear(a, np.zeros(np.shape(a)[0], dtype=np.int64), n),
    diagonalize_mod,
]


def test_ring_validation():
    # entries are reduced into [0, n)
    h, _ = howell_form(np.array([[-1]]), 6)
    assert h.tolist() == [[1]]
    assert solve_linear(np.array([[1]]), [-1], 6).particular.tolist() == [5]
    for entry in ENTRIES:
        with pytest.raises(ValueError):
            entry(np.eye(2, dtype=np.int64), 1)
        with pytest.raises(ValueError):
            entry(np.eye(2, dtype=np.int64), 1 << 17)


def test_nested_lists_are_accepted():
    h, u = howell_form([[2, 0], [0, 3]], 6)
    assert isinstance(h, np.ndarray) and isinstance(u, np.ndarray)
    assert np.array_equal(u @ np.array([[2, 0], [0, 3]]) % 6, h)
    assert solve_linear([[2, 0], [0, 3]], [4, 3], 6).particular.tolist() == [2, 1]
    assert left_kernel([[2, 0], [0, 3]], 6).shape[1] == 2
    assert right_kernel([[2, 0], [0, 3]], 6).shape[1] == 2


def test_three_dimensional_input_is_rejected():
    cube = np.zeros((2, 2, 2), dtype=np.int64)
    for entry in ENTRIES:
        with pytest.raises(ValueError):
            entry(cube, 6)


def test_module_orders_must_divide():
    m = ModuleOverZn(4, (2, 4))
    assert m.rank == 2
    assert list(m.reduce([3, 5])) == [1, 1]
    with pytest.raises(ValueError):
        ModuleOverZn(4, (3,))


def test_integer_arguments_are_read_strictly():
    # a float or bool modulus or cyclic order is refused, not truncated
    with pytest.raises(ValueError, match="modulus 2.5 is not an integer"):
        howell_form([[1, 1]], 2.5)
    with pytest.raises(ValueError, match="cyclic order 2.5 is not an integer"):
        ModuleOverZn(4, (2.5,))
    with pytest.raises(ValueError, match="modulus 4.9 is not an integer"):
        ModuleOverZn(4.9, (2,))
    with pytest.raises(ValueError, match="cyclic order True is a bool"):
        ModuleOverZn(4, (True,))
    # numpy integers are integers, stored as ints
    m = ModuleOverZn(np.int64(4), (np.uint8(2),))
    assert m == ModuleOverZn(4, (2,)) and type(m.modulus) is int and type(m.orders[0]) is int
    assert howell_form([[1, 1]], np.int64(2))[0].tolist() == [[1, 1]]


@pytest.mark.parametrize("a,n", [(0, 6), (2, 4), (3, 6), (4, 6), (10, 12), (8, 12)])
def test_unit_lift(a, n):
    u = unit_lift(a, n)
    assert gcd(u, n) == 1
    assert (u * a) % n == gcd(a % n, n) % n if a % n else True


def test_annihilator():
    assert annihilator(2, 4) == 2
    assert annihilator(3, 4) == 0  # unit
    assert annihilator(0, 6) == 1


def test_howell_zero_matrix_over_z6():
    h, u = howell_form(np.array([[0]]), 6)
    assert h.shape == (0, 1)  # zero row space
    assert brute_row_space([[0]], 6) == {(0,)}


def test_howell_identity_is_fixed():
    m = np.eye(2, dtype=np.int64)
    h, u = howell_form(m, 4)
    assert np.array_equal(h, m)
    assert np.array_equal(u @ m % 4, h)


def test_howell_two_mod_four():
    # row space of [[2]] over Z/4 is {0, 2}
    m = np.array([[2]])
    h, u = howell_form(m, 4)
    assert np.array_equal(h, [[2]])
    assert brute_row_space(m, 4) == {(0,), (2,)}


@pytest.mark.parametrize("n", [2, 3, 4, 6])
def test_howell_preserves_row_space_exhaustive(n):
    rng = np.random.default_rng(n)
    for _ in range(25):
        rows, cols = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        m = rng.integers(0, n, size=(rows, cols))
        h, u = howell_form(m, n)
        assert np.array_equal(u @ m % n, h)
        assert brute_row_space(m, n) == brute_row_space(h, n)


@pytest.mark.parametrize("n", [4, 6])
def test_howell_is_canonical_for_equal_row_spaces(n):
    rng = np.random.default_rng(10 * n)
    for _ in range(25):
        m = rng.integers(0, n, size=(3, 3))
        h1, _ = howell_form(m, n)
        # mix rows by a random invertible combination plus a shuffle
        shuffled = m[rng.permutation(3)]
        extra = np.vstack([shuffled, (shuffled[0] + shuffled[1]) % n])
        h2, _ = howell_form(extra, n)
        assert np.array_equal(h1, h2)


def test_solve_identity():
    sol = solve_linear(np.eye(3, dtype=np.int64), [1, 2, 3], 5)
    assert sol is not None
    assert list(sol.particular) == [1, 2, 3]
    assert sol.kernel_basis.shape[0] == 0


def test_solve_without_equations_or_unknowns():
    # no equations: every x solves, the particular one is zero
    sol = solve_linear(np.zeros((0, 3), dtype=np.int64), [], 4)
    assert sol.particular.tolist() == [0, 0, 0] and sol.kernel_basis.shape == (3, 3)
    sol = solve_linear(np.zeros((0, 0), dtype=np.int64), [], 4)
    assert sol.particular.shape == (0,) and sol.kernel_basis.shape == (0, 0)
    # no unknowns: solvable exactly when b == 0
    assert solve_linear(np.zeros((2, 0), dtype=np.int64), [0, 4], 4).particular.shape == (0,)
    assert solve_linear(np.zeros((2, 0), dtype=np.int64), [1, 0], 4) is None


def test_solve_two_x_equals_one_mod_four_has_no_solution():
    assert solve_linear(np.array([[2]]), [1], 4) is None
    # oracle: enumerate all four candidates
    assert all((2 * x) % 4 != 1 for x in range(4))


def test_solve_two_x_equals_two_mod_four():
    sol = solve_linear(np.array([[2]]), [2], 4)
    assert sol is not None
    assert list(sol.particular) == [1]
    assert {tuple(r) for r in sol.kernel_basis} == {(2,)}


@pytest.mark.parametrize("n", [2, 3, 4])
def test_solve_matches_exhaustive_search(n):
    rng = np.random.default_rng(n + 100)
    for _ in range(40):
        rows, cols = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        a = rng.integers(0, n, size=(rows, cols))
        b = rng.integers(0, n, size=rows)
        all_solutions = {
            x
            for x in itertools.product(range(n), repeat=cols)
            if ((a @ np.array(x)) % n == b % n).all()
        }
        sol = solve_linear(a, b, n)
        if sol is None:
            assert not all_solutions
            continue
        assert tuple(sol.particular) in all_solutions
        # particular + span(kernel) covers every solution
        spanned = {
            tuple((sol.particular + v) % n)
            for v in brute_vectors(sol.kernel_basis, n, cols)
        }
        assert spanned == all_solutions


def brute_vectors(rows: np.ndarray, n: int, width: int) -> set:
    out = set()
    for coeffs in itertools.product(range(n), repeat=rows.shape[0]):
        v = np.zeros(width, dtype=np.int64)
        for c, row in zip(coeffs, rows):
            v = (v + c * row) % n
        out.add(tuple(v))
    return out


def test_kernels_annihilate():
    m = np.array([[2, 0], [0, 3]])
    k = left_kernel(m, 6)
    assert (k @ m % 6 == 0).all()
    rk = right_kernel(m, 6)
    assert (m @ rk.T % 6 == 0).all()


@given(
    n=st.sampled_from([2, 3, 4, 5, 6]),
    rows=st.integers(1, 3),
    cols=st.integers(1, 3),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_howell_row_space_property(n, rows, cols, data):
    entries = data.draw(
        st.lists(st.integers(0, n - 1), min_size=rows * cols, max_size=rows * cols)
    )
    m = np.array(entries).reshape(rows, cols)
    h, u = howell_form(m, n)
    assert np.array_equal(u @ m % n, h)
    assert brute_row_space(m, n) == brute_row_space(h, n)


@given(
    rows=st.integers(0, 12),
    cols=st.integers(0, 12),
    data=st.data(),
)
# sparse matrices whose shapes cross 64-bit word boundaries
@example(rows=5, cols=130, data=None)
@example(rows=70, cols=9, data=None)
@example(rows=66, cols=200, data=None)
@settings(max_examples=200, deadline=None)
def test_gf2_engine_equals_int64_engine(rows, cols, data):
    # entries outside [0, 2) check the packed engine's & 1 against % 2
    if data is None:
        rng = np.random.default_rng(rows * cols)
        m = rng.integers(-3, 4, size=(rows, cols)) * (rng.random((rows, cols)) < 0.3)
    else:
        entries = st.integers(0, 1) | st.integers(-5, 5) | st.sampled_from([-(1 << 40) - 1, 1 << 40])
        m = np.array(data.draw(st.lists(entries, min_size=rows * cols, max_size=rows * cols)), dtype=np.int64)
        m = m.reshape(rows, cols)
    packed, reference = _howell_rows_gf2(m), _howell_rows_int64(m, 2)
    for got, want in zip(packed, reference):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    h, u, k = packed
    assert np.array_equal(u @ m % 2, h)
    assert not (k @ m % 2).any()


def brute_span_with_n(rows, w, n) -> set:
    gens = [tuple(int(x) % n for x in r) for r in rows]
    span = set()
    for coeffs in itertools.product(range(n), repeat=len(gens)):
        v = np.zeros(w, dtype=np.int64)
        for c, g in zip(coeffs, gens):
            v = (v + c * np.array(g)) % n
        span.add(tuple(int(x) for x in v))
    return span


@pytest.mark.parametrize("n", [2, 3, 4, 6])
def test_diagonalize_mod_matches_enumeration(n):
    rng = np.random.default_rng(50 + n)
    for _ in range(30):
        w = int(rng.integers(1, 4))
        rows = rng.integers(0, n, size=(int(rng.integers(0, 4)), w))
        factors, v, vinv = diagonalize_mod(rows, n)
        span = brute_span_with_n(rows, w, n)
        size = 1
        for f in factors:
            size *= f
        assert size == n**w // len(span)
        nontrivial = [f for f in factors if f > 1]
        assert all(b % a == 0 for a, b in zip(nontrivial, nontrivial[1:]))
        assert ((v @ vinv) % n == np.eye(w, dtype=np.int64) % n).all()
        for x in itertools.product(range(n), repeat=w):
            moved = (np.array(x) @ v) % n
            via = all(moved[j] % factors[j] == 0 for j in range(w))
            assert via == (tuple(np.array(x) % n) in span)


@pytest.mark.parametrize("n", [2, 4, 9])
def test_lattice_basis_and_coordinates(n):
    rng = np.random.default_rng(70 + n)
    for _ in range(20):
        w = int(rng.integers(1, 4))
        rows = rng.integers(0, n, size=(int(rng.integers(0, 3)), w))
        basis = lattice_basis(rows, w, n)
        # triangular with pivots dividing n
        for j in range(w):
            assert n % int(basis[j, j] % n or n) == 0
            assert not basis[j, :j].any()
        span = brute_span_with_n(rows, w, n)  # nZ^w reduces away mod n
        for x in itertools.product(range(n), repeat=w):
            try:
                c = lattice_coordinates(basis, np.array([x]), n)[0]
                assert tuple((c @ basis) % n) == x
                member = True
            except ValueError:
                member = False
            assert member == (x in span)

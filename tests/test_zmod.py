import itertools
from math import gcd

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from arithcs.zmod import (
    MAX_MODULUS,
    LinearSolution,
    ModuleOverZn,
    _back_substitute,
    _form_dtype,
    _howell_rows,
    _howell_rows_int64,
    _leading,
    _xgcd,
    annihilator,
    diagonalize_mod,
    factorize,
    howell_form,
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


def test_matrix_entries_are_read_strictly():
    # a float or bool entry is refused, not truncated into another system
    for n in (2, 3):
        with pytest.raises(ValueError, match="matrix entry 1.9 is not an integer"):
            solve_linear([[1.9]], [1], n)
        with pytest.raises(ValueError, match="right-hand side entry 1.2 is not an integer"):
            solve_linear([[1]], [1.2], n)
        with pytest.raises(ValueError, match="right-hand side entry dtype float64"):
            factorize(np.eye(2, dtype=np.int64), n).solve(np.array([1.5, 0.0]))
    with pytest.raises(ValueError, match="matrix entry True is a bool"):
        howell_form([[True, 2.7]], 5)
    with pytest.raises(ValueError, match="matrix entry dtype bool"):
        left_kernel(np.eye(2, dtype=bool), 2)
    with pytest.raises(ValueError, match="matrix entry dtype float64"):
        diagonalize_mod(np.eye(2) * 2.5, 4)
    # integer arrays of any integer dtype are read as before
    assert solve_linear(np.eye(2, dtype=np.uint8), np.array([1, 3], dtype=np.int16), 5).particular.tolist() == [1, 3]


def same_bytes(got, want):
    """Arrays, tuples and lists of them, and LinearSolutions, equal in dtype, shape and bytes."""
    if isinstance(want, (tuple, list)):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            same_bytes(g, w)
    elif isinstance(want, LinearSolution):
        same_bytes((got.particular, got.kernel_basis), (want.particular, want.kernel_basis))
    elif isinstance(want, np.ndarray):
        assert got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()
    else:
        assert got == want


def factorization_fields(f):
    return f.h, f.u, f.k, f.modulus, f.shape, f.lead if f.lead is not None else np.zeros(0)


@pytest.mark.parametrize("dtype", [np.int8, np.int16, np.int32, np.uint8, np.uint16, np.uint32])
@pytest.mark.parametrize("n", [2, 3, 6, 181, 65536])
def test_every_integer_dtype_reads_like_int64(dtype, n):
    # matrices pass into the engines in their own dtype, uncopied; the results
    # must be those of the int64 input, for entries below 0 and at or above n
    info = np.iinfo(dtype)
    rng = np.random.default_rng(n)
    for shape in [(0, 3), (5, 7), (9, 4), (70, 66)]:
        a = rng.integers(max(info.min, -3 * n), min(info.max, 3 * n), size=shape, endpoint=True)
        a *= rng.random(shape) < 0.5
        if a.size:
            a.flat[0], a.flat[-1] = info.min, info.max
        narrow, wide = a.astype(dtype), a.astype(np.int64)
        b = wide @ rng.integers(0, n, size=shape[1]) % n
        for fn in (howell_form, left_kernel, right_kernel, diagonalize_mod):
            same_bytes(fn(narrow, n), fn(wide, n))
        same_bytes(factorization_fields(factorize(narrow, n)), factorization_fields(factorize(wide, n)))
        for rhs in (b, b + 1):
            got, want = solve_linear(narrow, rhs, n), solve_linear(wide, rhs, n)
            assert (got is None) == (want is None)
            if want is not None:
                same_bytes(got, want)
        assert np.array_equal(narrow, a.astype(dtype))  # the input is not modified


@pytest.mark.parametrize("n", [181, 251])
def test_diagonalize_mod_on_int16_entries_whose_products_overflow_int16(n):
    # entries near n: at n = 181 a product of two residues still fits int16
    # (180² < 2^15), at n = 251 it does not, and only the int64 copy that
    # diagonalize_mod makes of its input keeps the row and column operations exact
    rng = np.random.default_rng(n)
    for shape in [(6, 5), (12, 12), (20, 9)]:
        a = rng.integers(n // 2, n, size=shape)
        want = diagonalize_mod(a, n)
        got = diagonalize_mod(a.astype(np.int16), n)
        same_bytes(got, want)
        _, v, w = got
        assert np.array_equal(v @ w % n, np.eye(shape[1], dtype=np.int64))


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


@pytest.mark.parametrize("n", [2, 3, 4, 6, 8, 9, 12, 36, 300])
def test_solutions_do_not_depend_on_the_order_of_the_rows(n):
    # another elimination order (the rows of a permuted, so the columns of
    # a.T) must give the same canonical particular solution and kernel basis
    rng = np.random.default_rng(7000 + n)
    divisors = [d for d in range(1, n + 1) if n % d == 0]
    for _ in range(120):
        rows, cols = (int(x) for x in rng.integers(1, 9, size=2))
        if rng.random() < 0.5:
            # entries times divisors of n, so that zero divisors are common
            a = rng.integers(0, n, size=(rows, cols)) * rng.choice(divisors, size=(rows, cols))
        else:
            # low rank, so that the kernel is large
            rank = int(rng.integers(1, min(rows, cols) + 1))
            a = rng.integers(0, n, size=(rows, rank)) @ rng.integers(0, n, size=(rank, cols))
        b = a @ rng.integers(0, n, size=cols) if rng.random() < 0.7 else rng.integers(0, n, size=rows)
        perm = rng.permutation(rows)
        want, got = solve_linear(a, b, n), solve_linear(a[perm], b[perm], n)
        assert (got is None) == (want is None)
        if got is not None:
            assert got.particular.tobytes() == want.particular.tobytes()
            assert got.kernel_basis.shape == want.kernel_basis.shape
            assert got.kernel_basis.tobytes() == want.kernel_basis.tobytes()


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
    packed, reference = _howell_rows(m, 2), _howell_rows_int64(m, 2)
    for got, want in zip(packed, reference):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    h, u, k = packed
    assert np.array_equal(u @ m % 2, h)
    assert not (k @ m % 2).any()


# ---------------------------------------------------------------------------
# Reference copies of the row-by-row Howell elimination and of the
# diagonalization that rescans its trailing block for every pivot.  The
# library's engines must apply the same row operations in the same order, so
# their outputs, transforms and kernels included, must equal these bytewise.


def reference_howell_rows(mat: np.ndarray, n: int):
    """``_howell_rows`` on one int64 array per row [mat[i] | e_i]."""
    nrows, ncols = mat.shape
    rows = []
    for i in range(nrows):
        row = np.zeros(ncols + nrows, dtype=np.int64)
        row[:ncols] = mat[i] % n
        row[ncols + i] = 1
        rows.append(row)
    r = 0
    for c in range(ncols):
        pivot = next((j for j in range(r, len(rows)) if rows[j][c]), None)
        if pivot is None:
            continue
        if pivot != r:
            rows[r], rows[pivot] = rows[pivot], rows[r]
        for i in range(r + 1, len(rows)):
            if rows[i][c]:
                a, b = int(rows[r][c]), int(rows[i][c])
                if b % a == 0:
                    rows[i] = (rows[i] - (b // a) * rows[r]) % n
                else:
                    g, x, y = _xgcd(a, b)
                    rows[r], rows[i] = (
                        (x * rows[r] + y * rows[i]) % n,
                        ((-(b // g)) * rows[r] + (a // g) * rows[i]) % n,
                    )
        u = unit_lift(int(rows[r][c]), n)
        if u != 1:
            rows[r] = (u * rows[r]) % n
        p = int(rows[r][c])
        for i in range(r):
            q = int(rows[i][c]) // p
            if q:
                rows[i] = (rows[i] - q * rows[r]) % n
        t = annihilator(p, n)
        if t:
            rows.append((t * rows[r]) % n)
        r += 1
    h = np.array([row[:ncols] for row in rows[:r]], dtype=_form_dtype(n)).reshape(r, ncols)
    u = np.array([row[ncols:] for row in rows[:r]], dtype=np.int64).reshape(r, nrows)
    kernel = [row[ncols:] for row in rows[r:] if row[ncols:].any()]
    k = np.array(kernel, dtype=np.int64).reshape(len(kernel), nrows)
    return h, u, k


def reference_clear(a, k, n, v=None, w=None):
    """``zmod._clear`` updating whole rows."""
    mats = (a,) if v is None else (a, v)
    while True:
        col = a[k + 1 :, k]
        nz = np.flatnonzero(col)
        if nz.size == 0:
            return
        p = int(a[k, k])
        multiples = nz[col[nz] % p == 0]
        if multiples.size:
            rows = multiples + k + 1
            q = a[rows, k] // p
            for mat in mats:
                mat[rows] = (mat[rows] - q[:, None] * mat[k][None, :]) % n
            if w is not None:
                w[k] = (w[k] + q @ w[rows]) % n
            continue
        i = int(nz[0]) + k + 1
        b = int(a[i, k])
        g, x, y = _xgcd(p, b)
        z, t = -(b // g), p // g
        for mat in mats:
            mat[k], mat[i] = (x * mat[k] + y * mat[i]) % n, (z * mat[k] + t * mat[i]) % n
        if w is not None:
            w[k], w[i] = (t * w[k] - z * w[i]) % n, (-y * w[k] + x * w[i]) % n


def reference_diagonalize_mod(mat, n: int):
    """``diagonalize_mod`` rescanning the whole trailing block for each pivot."""
    a = np.asarray(mat, dtype=np.int64) % n
    a = a[a.any(axis=1)]
    m, width = a.shape
    v = np.eye(width, dtype=np.int64)
    w = np.eye(width, dtype=np.int64)
    for k in range(min(m, width)):
        while True:
            sub = a[k:, k:]
            masked = np.where(sub == 0, n, sub)
            i, j = divmod(int(masked.argmin()), masked.shape[1])
            if masked[i, j] == n:
                break
            i, j = i + k, j + k
            if i != k:
                a[[k, i]] = a[[i, k]]
            if j != k:
                a[:, [k, j]] = a[:, [j, k]]
                v[:, [k, j]] = v[:, [j, k]]
                w[[k, j]] = w[[j, k]]
            reference_clear(a, k, n)
            if a[k, k + 1 :].any():
                reference_clear(a.T, k, n, v.T, w)
                continue
            if a[k + 1 :, k].any():
                continue
            p = int(a[k, k])
            if p == 1:
                break
            rem = a[k + 1 :, k + 1 :] % p
            bad = np.argwhere(rem)
            if bad.size == 0:
                break
            a[k] = (a[k] + a[int(bad[0, 0]) + k + 1]) % n
    factors = [gcd(int(a[j, j]) if j < min(m, width) else 0, n) for j in range(width)]
    return factors, v % n, w % n


def assert_same_arrays(got, want):
    for x, y in zip(got, want, strict=True):
        assert x.dtype == y.dtype and x.shape == y.shape
        assert x.tobytes() == y.tobytes()


# up to MAX_MODULUS, so that the int64 headroom of every update is exercised
EXACT_MODULI = [3, 4, 6, 12, 36, 256, 257, 300, 65521, MAX_MODULUS]
# the smallest few divisors d with 1 < d < n
NON_UNITS = {n: [d for d in range(2, n) if n % d == 0][:8] for n in [2, *EXACT_MODULI]}


@st.composite
def sparse_matrices(draw, moduli=EXACT_MODULI):
    """A sparse matrix over Z/n, maybe scaled by a non-unit, with its n."""
    n = draw(st.sampled_from(moduli))
    rows, cols = draw(st.integers(0, 9)), draw(st.integers(0, 9))
    entries = st.integers(0, n - 1) | st.integers(-2 * n, 2 * n) | st.sampled_from([1, n - 1])
    # mostly zeros, as in a differential
    cells = st.one_of(st.just(0), st.just(0), st.just(0), entries)
    m = np.array(draw(st.lists(cells, min_size=rows * cols, max_size=rows * cols)), dtype=np.int64)
    # a non-unit scale makes non-unit pivots: gcd steps and annihilator rows
    scale = draw(st.sampled_from([1, *NON_UNITS[n]]))
    return m.reshape(rows, cols) * scale, n


def sparse_example(rows: int, cols: int, density: float, n: int, seed: int):
    rng = np.random.default_rng(seed)
    return rng.integers(0, n, size=(rows, cols)) * (rng.random((rows, cols)) < density), n


@given(sparse_matrices())
# batched updates of more rows than one int64 chunk holds, with non-unit pivots
@example(sparse_example(130, 2100, 0.5, 12, 3))
@settings(max_examples=300, deadline=None)
def test_int64_engine_replays_the_row_by_row_elimination(case):
    m, n = case
    got, (h, u, k) = _howell_rows_int64(m, n), reference_howell_rows(m, n)
    # the reference stops at mat's last column; the engine sweeps on through
    # the identity block, which leaves k in Howell form
    assert_same_arrays(got, (h, u, reference_howell_rows(k, n)[0].astype(np.int64)))
    assert got[0].dtype == _form_dtype(n)


@given(sparse_matrices([2, *EXACT_MODULI]))
# a gcd step between columns changes the smallest entry of rows other than k
@example(sparse_example(12, 10, 0.3, 12, 82))
@example(sparse_example(90, 60, 0.05, 4, 5))
@settings(max_examples=300, deadline=None)
def test_diagonalize_mod_replays_the_rescanning_search(case):
    m, n = case
    (factors, *got), (want_factors, *want) = diagonalize_mod(m, n), reference_diagonalize_mod(m, n)
    assert factors == want_factors
    assert_same_arrays(got, want)


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
    # ``cohomology`` takes the Howell form of the cocycles as its basis and
    # reads coordinates by back-substitution against it: by the Howell
    # property the remainder is zero exactly on the span, over Z/2 too
    rng = np.random.default_rng(70 + n)
    for _ in range(20):
        w = int(rng.integers(1, 4))
        rows = rng.integers(0, n, size=(int(rng.integers(0, 3)), w))
        basis, _ = howell_form(rows, n)
        # echelon, with pivots dividing n
        lead = _leading(basis)
        assert (np.diff(lead) > 0).all()
        assert all(n % int(basis[i, j]) == 0 for i, j in enumerate(lead))
        span = brute_span_with_n(rows, w, n)
        xs = np.array(list(itertools.product(range(n), repeat=w)), dtype=np.int64)
        coords, rem = _back_substitute(basis, xs, n)
        for x, c, r in zip(xs, coords, rem):
            assert ((c @ basis + r) % n == x).all()
            assert (not r.any()) == (tuple(x) in span)


# ---------------------------------------------------------------------------
# Reference copy of ``Factorization.solve`` by back-substitution against h
# and then against k, the path every modulus other than 2 takes.  Over Z/2
# the packed solve, with the reduction against k folded into its u, must
# give the same None-ness and the same particular bytes.


def reference_back_substitute(h: np.ndarray, vecs: np.ndarray, n: int):
    res = np.asarray(vecs, dtype=np.int64) % n
    coeffs = np.zeros((res.shape[0], h.shape[0]), dtype=np.int64)
    lead = (h != 0).argmax(axis=1) if h.size else np.zeros(0, dtype=np.intp)
    for i, j in enumerate(lead):
        q = res[:, j] // h[i, j]
        coeffs[:, i] = q
        nz = np.flatnonzero(q)
        if nz.size:
            res[nz] = (res[nz] - q[nz, None] * h[i][None, :]) % n
    return coeffs, res


def reference_solve(howell, b, n):
    """Solve a @ x == b by back-substitution against (h, u, k) = ``_howell_rows(a.T, n)``."""
    h, u, k = howell
    b = np.asarray(b, dtype=np.int64).ravel()
    coeff, rem = reference_back_substitute(h, b[None, :], n)
    if rem.any():
        return None
    return reference_back_substitute(k, coeff @ u, n)[1][0]


def assert_same_solution(f, howell, b):
    got, want = f.solve(b), reference_solve(howell, b, f.modulus)
    assert (got is None) == (want is None)
    if got is not None:
        assert got.particular.dtype == want.dtype and got.particular.shape == want.shape
        assert got.particular.tobytes() == want.tobytes()
        assert got.kernel_basis is f.k
    return got


# around the 64-bit word edges, and empty, so that ranks 0 occur
WORD_EDGE_SIZES = [0, 1, 63, 64, 65, 130]


@given(
    rows=st.sampled_from(WORD_EDGE_SIZES),
    cols=st.sampled_from(WORD_EDGE_SIZES),
    rank=st.sampled_from([None, 0, 1, 5, 70]),
    density=st.sampled_from([0.02, 0.1, 0.5]),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=150, deadline=None)
def test_packed_gf2_solve_equals_back_substitution(rows, cols, rank, density, seed):
    rng = np.random.default_rng(seed)
    if rank is None:
        a = rng.integers(-3, 4, size=(rows, cols)) * (rng.random((rows, cols)) < density)
    else:
        # a low-rank product, so that random targets are mostly unsolvable
        right = rng.integers(0, 2, size=(rank, cols)) * (rng.random((rank, cols)) < density)
        a = rng.integers(0, 2, size=(rows, rank)) @ right
    f, howell = factorize(a, 2), _howell_rows(a.T, 2)
    # u holds one bit per unknown, so cols >= 65 makes it wider than one word
    assert f.shape == (rows, cols) and f.u.shape[1] == -(-cols // 64)
    image = a @ rng.integers(0, 2, size=cols)
    for b in (image, rng.integers(0, 2, size=rows), np.zeros(rows, dtype=np.int64)):
        assert_same_solution(f, howell, b)
        # entries >= 2 and negative ones are read mod 2
        assert_same_solution(f, howell, b + 2 * rng.integers(-4, 5, size=rows))
        assert_same_solution(f, howell, -b)
    if rows and rank is not None and rank < rows:
        assert any(f.solve(rng.integers(0, 2, size=rows)) is None for _ in range(20))


def test_packed_gf2_solve_on_the_q8_times_z3_differential():
    from arithcs.cochains import Cochain, _differential_matrix, differential
    from arithcs.groups import GModuleAction, cyclic, direct_product, quaternion8

    coeffs = GModuleAction.trivial(direct_product(quaternion8(), cyclic(3)), ModuleOverZn.cyclic(2))
    # uncached: over a trivial Z/2 module d is its own scaled matrix
    d = _differential_matrix(coeffs, 2, np.arange(24**3))
    f, howell = factorize(d, 2), _howell_rows(d.T, 2)
    assert howell[0].shape == (552, 13824) and f.h.shape == (552, 13824 // 64)
    rng = np.random.default_rng(13)
    for _ in range(10):
        target = differential(Cochain.random(coeffs, 2, rng)).values.ravel()
        sol = assert_same_solution(f, howell, target)
        assert sol is not None and np.array_equal(d @ sol.particular % 2, target)
    for _ in range(10):
        assert assert_same_solution(f, howell, Cochain.random(coeffs, 3, rng).values.ravel()) is None

"""Exact linear algebra over Z/n.

Everything downstream (cocycle membership, trivialization solving, cohomology
group structure) reduces to the elimination steps implemented here, each
written once.  ``_howell_rows`` computes the row Howell form with its
transform and left kernel for ``howell_form`` and ``left_kernel``.  Howell
form is the unique canonical row form for Z/n-row spaces (Z/n is not a
field), so it is used wherever membership in a row space has to be decided.
The rows of the Howell form of [mat | I] that are zero on mat's columns are
the Howell form of the left kernel (Howell 1986; Storjohann and Mulders
1998), so one sweep over [mat | I] returns k in its final form; the rows
above k are not reduced against it.  For n == 2 it eliminates on bit-packed
rows (``_howell_rows_gf2``, whose words it unpacks), for any other n on rows
stored in the narrowest unsigned dtype that holds n - 1 (uint8 up to
n = 256, uint16 up to ``MAX_MODULUS``), updating only the columns where the
pivot row is nonzero, in int64 (``_howell_rows_int64``); the two give equal
results over Z/2.  Both return the form h in that dtype, the transform and
kernel in int64.

``factorize(a, n)`` keeps (h, u, k) of the sweep over a.T as a
``Factorization``, whose k is the Howell form of the right kernel and whose
``solve`` answers a @ x == b for one b without eliminating again;
``solve_linear`` is factorize-then-solve and ``right_kernel`` is its k, so a
caller that keeps the value (the cochain layer caches one per differential)
factors a matrix once for any number of solves.  The particular solution is
reduced against k, so it depends on the solution set alone, not on the rows
of a or the order of the row operations.  Over Z/2, h and u stay the GF(2)
engine's uint64 words, u with the reduction against k folded in, and a solve
XORs rows of them; over any other modulus a solve runs ``_back_substitute``
(a zero remainder means membership) against h and then k, as ``cohomology``
does against the Howell rows of the cocycles.  ``diagonalize_mod``, the
two-sided invariant-factor diagonalization of (Z/n)^w / rowspan, gives
``cohomology`` its invariant factors, generators and coordinates; ``_clear``
clears its pivot columns, and its pivot rows through the transposed view.

Matrices are 2-D integer arrays or array-likes, entries reduced or not, and
the modulus n comes last: ``howell_form(a, n)``, ``solve_linear(a, b, n)``,
``diagonalize_mod(a, n)``.  Only these routines reduce mod n: an integer
array enters in its own dtype, uncopied, and each reduces what it reads (the
delayed reduction of Dumas, Giorgi and Pernet, ACM TOMS 35(3), 2008), so a
caller builds a matrix in a narrow dtype and never reduces it;
``diagonalize_mod``, which works in place, makes its own int64 copy.  They
never modify their inputs and return new int64 arrays.  ``_element`` reads
integer arguments, and ``_elements`` other matrices, right-hand sides and
the group layer's tables; both refuse bools and floats instead of truncating
them.  All arithmetic is exact; there is no floating point in this package.

Cochain kernels are not matrices: they gather and sum module values in the
narrowest signed dtype that holds their bound (``_narrow_dtype``), and
``ModuleOverZn.reduce`` reduces an int16 or int32 array in its own dtype by
the floor identity of ``_floor_mod`` before converting it to int64.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from math import gcd

import numpy as np

MAX_MODULUS = 1 << 16


class ComputationError(ValueError):
    """Valid input on which the requested computation has no answer.

    Every such error derives from this class; the CLI exits 3 on it.
    """


class NotDivisibleError(ComputationError, ArithmeticError):
    """An exact division over Z/n is impossible.

    Raised by the Bockstein when the numerator is not divisible by n (the
    input was not a cocycle), and by checks of divisibility identities.
    """


def _element(x, what: str = "element") -> int:
    """An integer argument (a group element, a modulus, a cyclic order, a
    scalar) as an int: any integer, numpy ones included, but not a bool or a
    float, which would otherwise be truncated silently.  ``what`` names the
    value in the error."""
    if isinstance(x, bool):
        raise ValueError(f"{what} {x!r} is a bool, not an integer")
    try:
        return operator.index(x)
    except TypeError:
        raise ValueError(f"{what} {x!r} is not an integer") from None


def _elements(values, what: str) -> np.ndarray:
    """The array counterpart of ``_element``: integer entries as an int64
    array.  An array must have an integer dtype; a (nested) list is read
    entry by entry, because numpy would promote a bool among ints to an int.
    """
    if isinstance(values, np.ndarray):
        if values.size and values.dtype.kind not in "iu":
            raise ValueError(f"{what} dtype {values.dtype} is not an integer dtype")
    else:
        for x in np.asarray(values, dtype=object).flat:
            _element(x, what)
    return np.asarray(values, dtype=np.int64)


# the narrow dtypes of the cochain kernels and their iinfo.max, narrowest first
_NARROW_MAX = {np.int16: (1 << 15) - 1, np.int32: (1 << 31) - 1}


def _narrow_dtype(bound: int) -> type:
    """The narrowest of int16, int32 and int64 that holds every integer of
    absolute value below ``bound``.

    The cochain kernels gather, sum and reduce in it: a sum that wraps is
    wrong mod n, so each caller states the bound of its accumulation.
    """
    for dtype, top in _NARROW_MAX.items():
        if bound <= top:
            return dtype
    return np.int64


def _floor_mod(x: np.ndarray, n) -> np.ndarray:
    """x mod n as a new array of x's dtype, computed as x - x // n * n.

    ``n`` is a positive int or a sequence of them, broadcast along x's last
    axis, that x's dtype holds; it is cast to that dtype, so numpy 1.x (value
    casting) and numpy 2 (NEP 50) compute in the same dtype.  numpy
    floor-divides several times faster than it takes %, and in int16 or
    int32 several times faster than in int64.  The result is exact for every
    x of the dtype, ``iinfo.min`` included: x // n is exact, and (x // n) * n
    may wrap, but the true remainder lies in [0, n) and n is at most
    ``iinfo.max``, so the wrap cancels in the difference.
    """
    n = np.asarray(n, dtype=x.dtype)
    return x - x // n * n


def _check_modulus(n: int) -> int:
    n = _element(n, "modulus")
    if not 2 <= n <= MAX_MODULUS:
        raise ValueError(f"modulus must be in [2, {MAX_MODULUS}], got {n}")
    return n


@dataclass(frozen=True)
class ModuleOverZn:
    """A finite Z/n-module presented as Z/n_1 x ... x Z/n_r with n_i | n.

    Elements are integer vectors of length r with the i-th entry reduced
    mod ``orders[i]``.
    """

    modulus: int
    orders: tuple[int, ...]

    def __post_init__(self):
        n = _check_modulus(self.modulus)
        object.__setattr__(self, "modulus", n)
        orders = tuple(_element(d, "cyclic order") for d in self.orders)
        if not orders:
            raise ValueError("module needs at least one cyclic factor")
        for d in orders:
            if d < 1 or n % d != 0:
                raise ValueError(f"cyclic order {d} does not divide modulus {n}")
        object.__setattr__(self, "orders", orders)

    @property
    def rank(self) -> int:
        return len(self.orders)

    def reduce(self, values) -> np.ndarray:
        """``values`` with the i-th entry of each vector (the last axis)
        reduced mod ``orders[i]``, as a new int64 array.

        The rule is chosen by dtype alone, with no scan of the values.  An
        int16 or int32 array whose dtype holds every order, which is what the
        cochain kernels produce, is reduced by ``_floor_mod`` in that dtype
        and converted to int64 once: exact for every value of the dtype,
        ``iinfo.min`` included.  Every other input, lists, int64, unsigned
        and int8 arrays among them, is read by ``_elements``, which refuses
        bools and floats, and reduced by int64 ``%``.
        """
        top = _NARROW_MAX.get(values.dtype.type, 0) if isinstance(values, np.ndarray) else 0
        if max(self.orders) <= top:
            return _floor_mod(values, self.orders).astype(np.int64)
        return _elements(values, "module value") % np.asarray(self.orders, dtype=np.int64)

    @classmethod
    def cyclic(cls, n: int) -> "ModuleOverZn":
        return cls(n, (n,))


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _matrix(a, n: int) -> tuple[np.ndarray, int]:
    """``a`` as a 2-D integer array, an integer dtype kept, and ``n`` checked as a modulus."""
    n = _check_modulus(n)
    if not (isinstance(a, np.ndarray) and a.dtype.kind in "iu"):
        a = _elements(a, "matrix entry")
    if a.ndim != 2:
        raise ValueError(f"matrix entries must be two-dimensional, got {a.ndim} dimensions")
    return a, n


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, x, y) with x*a + y*b == g == gcd(a, b) >= 0."""
    x, nx, y, ny, g, ng = 1, 0, 0, 1, a, b
    while ng:
        q = g // ng
        x, nx = nx, x - q * nx
        y, ny = ny, y - q * ny
        g, ng = ng, g - q * ng
    if g < 0:
        x, y, g = -x, -y, -g
    return g, x, y


def unit_lift(a: int, n: int) -> int:
    """A unit u of Z/n with u*a == gcd(a, n) mod n."""
    a %= n
    if a == 0:
        return 1
    g = gcd(a, n)
    b, m = a // g, n // g
    u = pow(b, -1, m) if m > 1 else 1
    # some lift u + k*m, 0 <= k < g, is coprime to n
    for lift in range(u, n, m):
        if gcd(lift, n) == 1:
            return lift
    raise NotDivisibleError(f"no unit u of Z/{n} with u*{a} == {g}")


def annihilator(a: int, n: int) -> int:
    """Generator of {x : x*a == 0 mod n}; zero when a is a unit."""
    return (n // gcd(a % n, n)) % n


def _howell_rows(mat: np.ndarray, n: int):
    """Howell form of the row space of ``mat`` over Z/n.

    Returns (h, u, k): h is the Howell form without zero rows, u @ mat == h,
    and k is the Howell form of the left kernel {x : x @ mat == 0}.  One
    sweep over the columns of [mat | I] gives all three: h | u are the rows
    with a pivot in mat's columns and k those with one in I's columns; the
    sweep does not reduce h | u against k.  h has dtype ``_form_dtype(n)``,
    u and k are int64.  ``mat`` may have any integer dtype and any entries.
    Over Z/2 the words of ``_howell_rows_gf2`` are unpacked here, and any
    other modulus runs ``_howell_rows_int64``; both agree for n == 2.
    """
    if n != 2:
        return _howell_rows_int64(mat, n)
    h, u, k, _ = _howell_rows_gf2(mat)
    return _unpack(h, mat.shape[1], _form_dtype(2)), _unpack(u, len(mat)), _unpack(k, len(mat))


def _form_dtype(n: int) -> type:
    """The narrowest unsigned dtype holding every residue 0 .. n - 1."""
    return np.uint8 if n <= 256 else np.uint16


def _howell_rows_int64(mat: np.ndarray, n: int):
    """``_howell_rows`` for any modulus, with int64 arithmetic on narrow rows.

    The working rows [mat[i] | e_i] are one array of dtype ``_form_dtype(n)``
    with spare rows for annihilators, so a row operation updates a row and
    its transform together.  The sweep runs over all ncols + nrows columns;
    from column ncols on, where the ``top`` rows above hold h and u, it
    reduces only the rows from ``top`` down, which end as k.  Per pivot
    column, each run of rows whose entry the pivot divides is reduced in one
    batched ``_subtract``, and the gcd steps between runs are two-row
    operations: the operations and their order of a row-by-row sweep.  The
    columns with no pivot, most of them in a wide matrix, are skipped 64 at
    a time.
    """
    nrows, ncols = mat.shape
    work = np.zeros((nrows, ncols + nrows), dtype=_form_dtype(n))
    # reduce a few rows at a time, so that ``% n`` never copies the whole
    # matrix; in int64, because a narrow dtype may not hold n itself
    step = max(1, (1 << 18) // max(ncols, 1))
    for i in range(0, nrows, step):
        work[i : i + step, :ncols] = np.asarray(mat[i : i + step], dtype=np.int64) % n
    work[np.arange(nrows), ncols + np.arange(nrows)] = 1
    live, r, top = nrows, 0, 0
    for c in range(ncols + nrows):
        if c == ncols:
            top = r
        if c % 64 == 0:
            # every later operation combines rows r.., so a column that is zero
            # there now stays zero: read each run of 64 columns once
            busy = work[r:live, c : c + 64].any(axis=0)
        if not busy[c % 64]:
            continue
        vals = work[r:live, c].astype(np.int64)
        nz = np.flatnonzero(vals)
        if nz.size == 0:
            continue
        # rows r.. are zero left of c, so every operation below starts at c
        work[[r, r + nz[0]], c:] = work[[r + nz[0], r], c:]
        a, below, b = int(vals[nz[0]]), r + nz[1:], vals[nz[1:]]
        while (stop := np.flatnonzero(b % a)).size:
            i, bi = stop[0], int(b[stop[0]])
            _subtract(work, below[:i], b[:i] // a, r, c, n)
            g, x, y = _xgcd(a, bi)
            pair = work[[r, below[i]], c:].astype(np.int64)
            work[[r, below[i]], c:] = np.array([[x, y], [-(bi // g), a // g]]) @ pair % n
            a, below, b = g, below[i + 1 :], b[i + 1 :]
        _subtract(work, below, b // a, r, c, n)
        u = unit_lift(a, n)
        if u != 1:
            work[r, c:] = u * work[r, c:].astype(np.int64) % n
        q = work[top:r, c].astype(np.int64) // int(work[r, c])
        _subtract(work, top + np.flatnonzero(q), q[q != 0], r, c, n)
        if t := annihilator(int(work[r, c]), n):
            if live == len(work):
                work = np.concatenate([work, np.zeros_like(work[: live // 2 + 1])])
            work[live, c:] = t * work[r, c:].astype(np.int64) % n
            live += 1
        r += 1
    h, u, k = work[:top, :ncols], work[:top, ncols:], work[top:r, ncols:]
    return h.copy(), u.astype(np.int64), k.astype(np.int64)


def _subtract(work: np.ndarray, rows: np.ndarray, q: np.ndarray, r: int, c: int, n: int):
    """work[rows] -= q * work[r] mod n, where work[r] is zero left of column c."""
    # entries are in [0, n), so only the columns where work[r] is nonzero change
    cols = c + np.flatnonzero(work[r, c:])
    pivot = work[r, cols].astype(np.int64)
    # a few rows at a time, so that the int64 block stays small
    step = max(1, (1 << 18) // work.shape[1])
    for i in range(0, rows.size, step):
        block = work[rows[i : i + step]]
        x = block.take(cols, axis=1).astype(np.int64) - q[i : i + step, None] * pivot
        # x // n is a division by a constant, which numpy does much faster than x % n
        block[:, cols] = x - x // n * n
        work[rows[i : i + step]] = block


def _pack(bits: np.ndarray, width: int) -> np.ndarray:
    """Rows of ``bits`` mod 2 as little-endian uint64 words: bit c in word c // 64.

    The words hold ``width`` >= bits.shape[1] bits per row; the bits past
    bits.shape[1] are zero.
    """
    words = np.zeros((bits.shape[0], -(-width // 64) * 8), dtype=np.uint8)
    # pack a few rows at a time, so that ``& 1`` never copies the whole matrix
    step = max(1, (1 << 18) // max(width, 1))
    for i in range(0, bits.shape[0], step):
        chunk = np.ascontiguousarray(bits[i : i + step] & 1, dtype=np.uint8)
        words[i : i + step, : -(-bits.shape[1] // 8)] = np.packbits(chunk, axis=1, bitorder="little")
    return words.view("<u8")


def _unpack(words: np.ndarray, width: int, dtype=np.int64) -> np.ndarray:
    bits = np.unpackbits(words.view(np.uint8), axis=1, count=width, bitorder="little")
    return bits.astype(dtype, copy=False)


def _howell_rows_gf2(mat: np.ndarray):
    """``_howell_rows`` over Z/2 on bit-packed rows, equal to the int64 engine:
    h, u and k as ``_pack`` words, and the pivot column of each row, h's
    among mat's columns and k's among I's.

    Every pivot over GF(2) is 1, so the int64 engine's gcd step, unit
    scaling and annihilator rows never fire: each pivot column is one row
    swap plus XORs of the pivot row into every other row with a 1 there, the
    same operations in the same order.  Columns are cleared one pivot at a
    time on the packed [mat | I] rows, mat in the first words and I in the
    rest; no Four-Russians tables are built.  The pivot row is zero left of
    its pivot, so its XOR starts at the pivot's word.  In I's words the hits
    are searched from row ``top`` down, so h | u is not reduced against k.
    """
    nrows, ncols = mat.shape
    split = -(-ncols // 64)
    work = _pack(mat, 64 * split + nrows)
    i = np.arange(nrows)
    work[i, split + (i >> 6)] = np.uint64(1) << (i & 63).astype(np.uint64)
    lead = np.empty(nrows, dtype=np.intp)
    r = top = 0
    for w in range(work.shape[1]):
        if w == split:
            top = r
        done = 0  # the columns of word w below bit ``done`` are finished
        while r < nrows:
            # the next pivot column is the lowest bit at or above ``done``
            # set in some row at or below r
            live = int(np.bitwise_or.reduce(work[r:, w])) >> done << done
            if not live:
                break
            bit = (live & -live).bit_length() - 1
            hits = top + np.flatnonzero(work[top:, w] & np.uint64(1 << bit))
            p = int(hits[np.searchsorted(hits, r)])
            if p != r:
                work[[r, p]] = work[[p, r]]
            # p is the first hit at or below r, so row r had a 1 here only if
            # p == r: either way the rows to clear are the hits other than p
            others = hits[hits != p]
            if others.size:
                work[others, w:] ^= work[r, w:]
            lead[r] = 64 * w + bit
            r += 1
            done = bit + 1
    # [mat | I] has full rank, so every row ends as a pivot row
    lead[top:] -= 64 * split
    # copies, so that a factorization that keeps the words does not keep work
    return work[:top, :split].copy(), work[:top, split:].copy(), work[top:, split:].copy(), lead


def howell_form(a, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Canonical Howell form h of a's row space over Z/n, and u with u @ a == h.

    The form is unique for a given row space; zero rows are dropped, so the
    zero space has a 0 x cols form.
    """
    h, u, _ = _howell_rows(*_matrix(a, n))
    return h.astype(np.int64), u


def left_kernel(a, n: int) -> np.ndarray:
    """The Howell form of {x : x @ a == 0} over Z/n."""
    return _howell_rows(*_matrix(a, n))[2]


def right_kernel(a, n: int) -> np.ndarray:
    """The Howell form of {x : a @ x == 0} over Z/n, whose rows generate it."""
    return factorize(a, n).k


def _leading(h: np.ndarray) -> np.ndarray:
    """Column of the first nonzero entry of each (nonzero) row of h."""
    # argmax refuses an empty axis; a form without rows has no pivots
    return (h != 0).argmax(axis=1) if h.size else np.zeros(0, dtype=np.intp)


def _back_substitute(h: np.ndarray, vecs: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Reduce the rows of vecs against the echelon rows of h, top to bottom.

    Returns (coefficients, remainders) with vecs == coefficients @ h +
    remainders mod n.  h is a Howell form (that of a's column space in
    ``Factorization.solve`` for n != 2, that of the cocycles in
    ``cohomology``), so a row of vecs lies in the span exactly when its
    remainder is zero.
    """
    res = np.asarray(vecs, dtype=np.int64) % n
    coeffs = np.zeros((res.shape[0], h.shape[0]), dtype=np.int64)
    for i, j in enumerate(_leading(h)):
        q = res[:, j] // h[i, j]
        coeffs[:, i] = q
        nz = np.flatnonzero(q)
        if nz.size:
            res[nz] = (res[nz] - q[nz, None] * h[i][None, :]) % n
    return coeffs, res


@dataclass(frozen=True)
class LinearSolution:
    """Solution set of a @ x == b: one particular x plus kernel generators."""

    particular: np.ndarray
    kernel_basis: np.ndarray


@dataclass(frozen=True, eq=False)
class Factorization:
    """(h, u, k) of the sweep over a.T: a factored once, for many solves.

    h is the Howell form of a's column space, u @ a.T == h, and k (int64) is
    the Howell form of the right kernel of a, so k depends on that kernel
    alone, whichever rows of a generated it.  ``shape`` is a's.  Over Z/2, h
    and u are uint64 ``_pack`` words, u reduced against k (see
    ``factorize``), and ``lead`` holds h's pivot columns, which the words do
    not show; otherwise h is in ``_form_dtype(n)``, u in int64, and ``lead``
    is None.  The arrays are made read-only, so callers share one value.
    """

    h: np.ndarray
    u: np.ndarray
    k: np.ndarray
    modulus: int
    shape: tuple[int, int]
    lead: np.ndarray | None = None

    def __post_init__(self):
        for a in (self.h, self.u, self.k, self.lead):
            if a is not None:
                _freeze(a)

    def solve(self, b) -> LinearSolution | None:
        """Solve a @ x == b; None means no solution exists.

        The particular solution is canonical: a solution by back-reduction
        against h, then reduced against the Howell form k, which by the
        Howell property depends only on the solution set particular +
        span(kernel_basis), kernel_basis being k.  Any modulus but 2 runs
        ``_back_substitute`` twice.  Over Z/2, h is reduced row echelon, so
        the coefficients of that reduction are b's entries at h's pivot
        columns: the solve XORs the selected words of h, which must give b,
        and of u, which gives the solution, already reduced.
        """
        n = self.modulus
        b = _elements(b, "right-hand side entry").ravel()
        if b.shape[0] != self.shape[0]:
            raise ValueError("dimension mismatch between matrix and right-hand side")
        if n == 2:
            # & 1 is % 2 for negative entries too; every word operand is uint64
            bits = b & 1
            sel = np.flatnonzero(bits[self.lead])
            if (np.bitwise_xor.reduce(self.h[sel]) != _pack(bits[None, :], bits.size)[0]).any():
                return None
            x = np.bitwise_xor.reduce(self.u[sel])
            return LinearSolution(particular=_unpack(x[None, :], self.shape[1])[0], kernel_basis=self.k)
        coeff, rem = _back_substitute(self.h, b[None, :], n)
        if rem.any():
            return None
        particular = _back_substitute(self.k, coeff @ self.u, n)[1][0]
        return LinearSolution(particular=particular, kernel_basis=self.k)


def factorize(a, n: int) -> Factorization:
    """Factor a over Z/n once; ``solve`` then costs one packed XOR over Z/2
    and two back-substitutions over any other modulus.

    Over Z/2 only k is unpacked.  k is reduced row echelon, so reducing a
    vector against it XORs in the rows of k whose pivot holds a 1 in it;
    that linear map is folded into the words of u here, once.
    """
    a, n = _matrix(a, n)
    if n != 2:
        return Factorization(*_howell_rows(a.T, n), n, a.shape)
    h, u, k, lead = _howell_rows_gf2(a.T)
    for row, col in zip(k, lead[len(h) :]):
        # the rows of k are zero at each other's pivots, so the folds commute
        u[(u[:, col >> 6] >> np.uint64(col & 63) & np.uint64(1)) != 0] ^= row
    return Factorization(h, u, _unpack(k, a.shape[1]), n, a.shape, lead[: len(h)])


def solve_linear(a, b, n: int) -> LinearSolution | None:
    """Solve a @ x == b over Z/n; None means no solution exists.

    ``factorize(a, n).solve(b)``: see ``Factorization.solve`` for the
    canonical particular solution and the kernel basis.
    """
    return factorize(a, n).solve(b)


def _clear(a: np.ndarray, k: int, n: int, v: np.ndarray | None = None, w: np.ndarray | None = None):
    """Clear a[k+1:, k] by unimodular row operations on rows k and below.

    A row whose entry is a multiple of the pivot a[k, k] is reduced against
    row k; otherwise a gcd step on the pair shrinks the pivot to the gcd.
    The same row operations act on ``v`` when it is given, and w.T is kept
    the inverse of v.  ``diagonalize_mod`` clears a row of its matrix as a
    column of the transposed view, passing its v.T and w = v^{-1}.
    """
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
                # entries are in [0, n), so a zero entry of row k changes nothing
                cols = np.flatnonzero(mat[k])
                mat[rows[:, None], cols] = (mat[rows[:, None], cols] - q[:, None] * mat[k, cols]) % n
            if w is not None:
                # row k of w picks up q_i times each row i
                w[k] = (w[k] + q @ w[rows]) % n
            continue
        i = int(nz[0]) + k + 1
        b = int(a[i, k])
        g, x, y = _xgcd(p, b)
        z, t = -(b // g), p // g
        # rows (k, i) <- (x*k + y*i, z*k + t*i); det x*t - y*z == 1
        for mat in mats:
            mat[k], mat[i] = (x * mat[k] + y * mat[i]) % n, (z * mat[k] + t * mat[i]) % n
        if w is not None:
            w[k], w[i] = (t * w[k] - z * w[i]) % n, (-y * w[k] + x * w[i]) % n


def diagonalize_mod(mat: np.ndarray | list, n: int) -> tuple[list[int], np.ndarray, np.ndarray]:
    """Invariant factors of (Z/n)^w / rowspan(mat) with transforms.

    Returns (factors, v, w) where factors[j] | factors[j+1], all dividing n,
    the column transform v satisfies: x is in the row span iff (x @ v)[j] ==
    0 mod factors[j] for all j, and w = v^{-1} mod n recovers preimages.
    Equivalently these are the invariant factors of Z^w / (rowspan(mat) +
    n*Z^w), which is why every entry can stay reduced mod n.  Each pivot is
    the first smallest
    nonzero entry of a[k:, k:] in row-major order; rows k.. are zero left
    of column k, so it is found from ``least``, each row's smallest nonzero
    entry, which is recomputed only for the rows an operation touched.
    """
    a, n = _matrix(mat, n)
    # an int64 copy whatever a's dtype: the steps below multiply entries in place
    a = np.asarray(a, dtype=np.int64) % n
    a = a[a.any(axis=1)]
    m, width = a.shape
    v = np.eye(width, dtype=np.int64)
    w = np.eye(width, dtype=np.int64)
    # touched: every row at first, then the rows the last step changed
    least, touched = np.full(m, n), slice(None)
    k = 0
    while k < min(m, width):
        least[touched] = np.where(a[touched] == 0, n, a[touched]).min(axis=1, initial=n)
        i = k + int(least[k:].argmin())
        if least[i] == n:  # the trailing block is zero
            break
        j = int((a[i] == least[i]).argmax())
        if i != k:
            a[[k, i]] = a[[i, k]]
            least[[k, i]] = least[[i, k]]
        if j != k:
            a[:, [k, j]] = a[:, [j, k]]
            v[:, [k, j]] = v[:, [j, k]]
            w[[k, j]] = w[[j, k]]
        touched = k + np.flatnonzero(a[k:, k])
        _clear(a, k, n)
        if a[k, k + 1 :].any():
            # column operations on a are row operations on a.T; they touch
            # the rows with a nonzero in some column where row k has one
            touched = np.union1d(touched, k + np.flatnonzero(a[k:, a[k] != 0].any(axis=1)))
            _clear(a.T, k, n, v.T, w)
            continue
        p = int(a[k, k])
        # 1 divides every entry of the trailing block
        bad = np.argwhere(a[k + 1 :, k + 1 :] % p) if p != 1 else ()
        if len(bad):
            # row k, which this changes, is among the touched rows
            a[k] = (a[k] + a[int(bad[0, 0]) + k + 1]) % n
            continue
        k += 1
    factors = [gcd(int(a[j, j]) if j < min(m, width) else 0, n) for j in range(width)]
    return factors, v, w

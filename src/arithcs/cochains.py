"""Inhomogeneous cochain complexes C^i(G, M) with dense lexicographic tables.

A degree-i cochain stores one module value per tuple (g_1, ..., g_i).  Every
operation indexes those tuples one way, on the tensor view of shape
(|G|,) * i + (rank M,), with axis k - 1 holding g_k: faces, cups,
conjugations, pullbacks and homotopies are gathers along its axes.  The flat
(|G|^i, rank M) table, whose row is the index of a tuple in lexicographic
order with g_1 most significant, is that tensor's C-order ravel; the rows of
the matrix of d are numbered the same way.  The table is int64 with entries
reduced, but the kernels that compute one (d, ``pullback`` and the
operations of ``ops``) gather and sum a narrow copy of their inputs, in the
narrowest signed dtype that holds the bound of the sum (``_narrow_dtype``:
int16 for d of a degree-3 cochain up to n = 6553), and ``Cochain`` reduces
that in its own dtype before converting it to int64 once.  The differential
is the signed one:

    df(g_1, ..., g_{i+1}) = g_1 f(g_2, ..., g_{i+1})
        + sum_{k=1}^{i} (-1)^k f(g_1, ..., g_k g_{k+1}, ..., g_{i+1})
        + (-1)^{i+1} f(g_1, ..., g_i)

Some sources print the middle sum without its alternating signs; without them
d(df) = 0 fails for odd moduli, so the signed convention is the one used
throughout this package.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field

import numpy as np

from .groups import FiniteGroup, GModuleAction, GroupHom
from .zmod import (
    ComputationError,
    Factorization,
    _back_substitute,
    _element,
    _elements,
    _floor_mod,
    _form_dtype,
    _freeze,
    _howell_rows,
    _narrow_dtype,
    diagonalize_mod,
    factorize,
    left_kernel,
    solve_linear,
)

DEFAULT_DEGREE_CAP = 4


class DegreeBoundError(ComputationError):
    """Raised when an operation would exceed the configured degree cap."""


class Cochain:
    """A map G^i -> M as a dense (|G|^i, rank M) table, immutable."""

    __slots__ = ("coeffs", "degree", "values")

    def __init__(self, coeffs: GModuleAction, degree: int, values):
        degree = _element(degree, "degree")
        if degree < 0:
            raise ValueError("degree must be nonnegative")
        m = coeffs.group.order
        r = coeffs.module.rank
        if not (isinstance(values, np.ndarray) and values.dtype.kind in "iu"):
            values = _elements(values, "cochain value")
        # reshape before reducing: a flat vector of a rank-r module reduces per column
        vals = coeffs.module.reduce(values.reshape(m**degree, r))
        self.coeffs = coeffs
        self.degree = degree
        self.values = _freeze(vals)

    @property
    def group(self) -> FiniteGroup:
        return self.coeffs.group

    @property
    def module(self):
        return self.coeffs.module

    def __call__(self, *args) -> np.ndarray:
        if len(args) != self.degree:
            raise ValueError(f"expected {self.degree} arguments")
        m = self.group.order
        args = tuple(map(_element, args))
        for g in args:
            if not 0 <= g < m:
                raise ValueError(f"element {g} is outside [0, {m})")
        return _tensor(self)[args]

    def __eq__(self, other):
        return (
            isinstance(other, Cochain)
            and self.coeffs == other.coeffs
            and self.degree == other.degree
            and np.array_equal(self.values, other.values)
        )

    def __hash__(self):
        return hash((self.coeffs, self.degree, self.values.tobytes()))

    def __add__(self, other: "Cochain") -> "Cochain":
        self._check_compatible(other)
        return Cochain(self.coeffs, self.degree, self.values + other.values)

    def __sub__(self, other: "Cochain") -> "Cochain":
        self._check_compatible(other)
        return Cochain(self.coeffs, self.degree, self.values - other.values)

    def __neg__(self) -> "Cochain":
        return Cochain(self.coeffs, self.degree, -self.values)

    def __rmul__(self, scalar: int) -> "Cochain":
        return Cochain(self.coeffs, self.degree, _element(scalar, "scalar") * self.values)

    def _check_compatible(self, other: "Cochain"):
        if self.coeffs != other.coeffs or self.degree != other.degree:
            raise ValueError("cochains live in different groups")

    def is_zero(self) -> bool:
        return not self.values.any()

    def __repr__(self):
        return f"Cochain(degree={self.degree}, group_order={self.group.order})"

    @classmethod
    def zero(cls, coeffs: GModuleAction, degree: int) -> "Cochain":
        m, r = coeffs.group.order, coeffs.module.rank
        return cls(coeffs, degree, np.zeros((m**degree, r), dtype=np.int64))

    @classmethod
    def from_function(cls, coeffs: GModuleAction, degree: int, fn) -> "Cochain":
        """The cochain with value fn(g_1, ..., g_degree), each value read strictly."""
        tuples = itertools.product(range(coeffs.group.order), repeat=degree)
        return cls(coeffs, degree, [fn(*t) for t in tuples])

    @classmethod
    def random(cls, coeffs: GModuleAction, degree: int, rng: np.random.Generator) -> "Cochain":
        m, r = coeffs.group.order, coeffs.module.rank
        highs = np.asarray(coeffs.module.orders, dtype=np.int64)
        vals = rng.integers(0, highs[None, :], size=(m**degree, r), dtype=np.int64, endpoint=False)
        return cls(coeffs, degree, vals)


def _tensor(f: Cochain) -> np.ndarray:
    """f's values as a read-only view of shape (|G|,) * degree + (rank M,)."""
    return f.values.reshape((f.group.order,) * f.degree + (f.module.rank,))


def _faces(t: np.ndarray, i: int, mul: np.ndarray):
    """Yield (sign, face) for the faces 1, ..., i + 1 of d: C^i -> C^(i+1).

    The first i axes of ``t`` are the group axes g_1, ..., g_i.  Face k <= i
    reads t at g_k g_{k+1} in place of g_k: ``np.take(t, mul, axis=k - 1)``,
    whose first i + 1 axes are g_1, ..., g_{i+1}.  Face i + 1 ignores g_{i+1}:
    it is t reshaped with a new length-1 axis i, for the caller to broadcast.
    Face 0 needs the action and stays with the caller.  Each face is built
    only when the next one is requested.
    """
    for k in range(1, i + 1):
        yield (-1) ** k, np.take(t, mul, axis=k - 1)
    yield (-1) ** (i + 1), t.reshape(t.shape[:i] + (1,) + t.shape[i:])


def _coboundary(f: Cochain) -> np.ndarray:
    """df, unreduced, of shape (|G|,) * (i + 1) + (rank M,), in the
    narrowest signed dtype that holds it (``_narrow_dtype``).

    Each face is a view or one gather of a narrow copy of f's tensor: face 0
    broadcasts f over the new first axis (acted on by g_1 through one einsum
    unless the action is trivial), and ``_faces`` gives the others.  Values
    and action-matrix entries lie in [0, n), so face 0 lies in [0, n), or in
    [0, r·n²) when acted on, and each of the other i + 1 faces adds or
    subtracts less than n.  That bound, face 0's plus (i + 1)·n, is (i + 2)·n
    for a trivial action; it also holds df - target for a target in [0, n),
    as at most i + 1 faces are subtracted.
    """
    i, mul, n = f.degree, f.group.mul, f.coeffs.modulus
    trivial = f.coeffs.is_trivial()
    dtype = _narrow_dtype((n if trivial else f.module.rank * n * n) + (i + 1) * n)
    values = _tensor(f).astype(dtype)
    if trivial:
        acc = np.empty((mul.shape[0],) + values.shape, dtype=dtype)
        acc[...] = values
    else:
        acc = np.einsum("guv,...v->g...u", f.coeffs.matrices.astype(dtype), values)
    for sign, face in _faces(values, i, mul):
        if sign > 0:
            acc += face
        else:
            acc -= face
        del face  # free this face before the next one is built
    return acc


def differential(f: Cochain, *, degree_cap: int = DEFAULT_DEGREE_CAP) -> Cochain:
    """The signed inhomogeneous differential; d(df) == 0 always.

    Raising ``degree_cap`` past 4 is allowed but tables grow as |G|^degree.
    """
    i = f.degree
    if i + 1 > degree_cap:
        raise DegreeBoundError(f"differential output degree {i + 1} exceeds cap {degree_cap}")
    return Cochain(f.coeffs, i + 1, _coboundary(f))


def pullback(rho: GroupHom, f: Cochain) -> Cochain:
    """(rho* f)(g_1, ..., g_i) = f(rho g_1, ..., rho g_i), with the induced action."""
    if rho.cod != f.group:
        raise ValueError("pullback target group does not match the cochain's group")
    induced = GModuleAction(rho.dom, f.module, f.coeffs.matrices[rho.map])
    values = _tensor(f).astype(_narrow_dtype(f.module.modulus))  # values lie in [0, n)
    return Cochain(induced, f.degree, values[np.ix_(*[rho.map] * f.degree)])


# ---------------------------------------------------------------------------
# The differential as an explicit matrix, and solving d x = target.


def _differential_matrix(coeffs: GModuleAction, i: int, rows: np.ndarray) -> np.ndarray:
    """The rows of d: C^i -> C^{i+1} at the flat (i+1)-tuple indices
    ``rows``, in that order, on flattened coordinates, unreduced.

    ``np.arange(|G|^(i+1))`` gives the whole matrix.  The column blocks of a
    row are the flat i-tuple indices its faces read: ``_faces`` of the index
    tensor ``arange(|G|^i)`` shaped (|G|,) * i, broadcast to (|G|,) * (i + 1),
    raveled and taken at the rows.  Face 0 reads the tail of the row's tuple,
    ``rows % |G|^i``, acted on by its first entry ``rows // |G|^i``.
    Face 0 adds an action entry below n and the other i + 1 faces ±1 each,
    so the matrix is built in ``_narrow_dtype(n + i + 1)`` and left
    unreduced for its readers to reduce.  Uncached, like
    ``_scaled_differential``: only factorizations of d are kept.
    """
    m = coeffs.group.order
    r = coeffs.module.rank
    count = rows.size
    dtype = _narrow_dtype(coeffs.modulus + i + 1)
    out = np.zeros((count, r, m**i, r), dtype=dtype)
    block = np.arange(count)
    first, tail = np.divmod(rows, m**i)
    out[block, :, tail, :] = coeffs.matrices[first]
    eye = np.eye(r, dtype=dtype)
    index = np.arange(m**i, dtype=np.int64).reshape((m,) * i)
    # within one face each row has one column block, so += never collides
    for sign, face in _faces(index, i, coeffs.group.mul):
        out[block, :, np.broadcast_to(face, (m,) * (i + 1)).ravel()[rows], :] += sign * eye
    return out.reshape(count * r, m**i * r)


def _row_scales(coeffs: GModuleAction, tuples: int) -> np.ndarray:
    """Scale factor n / order(coordinate) for each flattened coordinate of
    ``tuples`` module values (|G|^degree of them for all of C^degree)."""
    n = coeffs.modulus
    per = np.array([n // d for d in coeffs.module.orders], dtype=np.int64)
    return np.tile(per, tuples)


def _scaled(f: Cochain, rows: np.ndarray | slice) -> np.ndarray:
    """f's values at the flat tuple indices ``rows``, flattened, each
    coordinate t times n / o_t as in ``_scaled_differential``, so below n.

    This map of C^i into (Z/n)^(|G|^i·r) is injective, as o_t·(n / o_t) = n;
    ``_generator_values`` reads cocycles by it, and ``normalized_representative``
    its targets.
    """
    return (f.values[rows] * _row_scales(f.coeffs, 1)).ravel()


def _scaled_rows(coeffs: GModuleAction, i: int, rows: np.ndarray) -> np.ndarray:
    """``_differential_matrix(coeffs, i, rows)`` with row s times n / order(s),
    so congruence mod n in each row is congruence mod the coordinate's order.

    The scales are all 1 unless some order is below n, which is rare; only
    then is d multiplied, in int64, which holds (n + i + 1)·n / 2.
    """
    d = _differential_matrix(coeffs, i, rows)
    if min(coeffs.module.orders) < coeffs.modulus:
        d = d * _row_scales(coeffs, rows.size)[:, None]
    return d


@functools.lru_cache(maxsize=None)
def _generating_set(group: FiniteGroup) -> tuple[int, ...]:
    """A small generating set S of ``group``, in increasing order.

    The elements are walked in decreasing element order, ties broken by
    index, and each one outside the subgroup that the earlier picks generate
    joins S; an element of largest order generates the largest cyclic
    subgroup to start from.  (1,) for a cyclic group, (1, 2) for
    ``quaternion8``, (4, 7) for Q8 x Z/3, and (0,) for the trivial group,
    whose d has only rows with first entry e.
    """
    m = group.order
    # power[g] runs through g^k; g's order is the first k with g^k = e
    orders = np.zeros(m, dtype=np.int64)
    power = np.arange(m)
    k = 1
    while not orders.all():
        orders[(power == 0) & (orders == 0)] = k
        power = group.mul[power, np.arange(m)]
        k += 1
    inside = np.zeros(m, dtype=bool)
    inside[0] = True
    gens: list[int] = []
    for g in sorted(range(1, m), key=lambda g: (-orders[g], g)):
        if inside[g]:
            continue
        gens.append(g)
        # in a finite group the positive words in S reach all of <S>
        new = np.flatnonzero(inside)
        while new.size:
            new = np.unique(group.mul[np.ix_(new, gens)])
            new = new[~inside[new]]
            inside[new] = True
    return tuple(sorted(gens)) or (0,)


@functools.lru_cache(maxsize=None)
def _generator_rows(group: FiniteGroup, degree: int) -> np.ndarray:
    """Flat indices of the degree-tuples whose first entry lies in
    ``_generating_set(group)``, in increasing order."""
    index = np.arange(group.order**degree, dtype=np.int64).reshape(group.order, -1)
    return _freeze(index[list(_generating_set(group))].ravel())


def _generator_values(f: Cochain) -> np.ndarray:
    """f's scaled values (``_scaled``) at ``_generator_rows(f.group,
    f.degree)``, flattened: the one form in which solves and ``cohomology``
    read a cochain, U = |S|·|G|^(i-1)·r of them.  They fix a cocycle, but
    say nothing of whether f is one.  In degree 0, which has no first entry,
    they are f's own r values, scaled.
    """
    return _scaled(f, _generator_rows(f.group, f.degree) if f.degree else slice(None))


@functools.lru_cache(maxsize=None)
def _tree(group: FiniteGroup) -> tuple[tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...], np.ndarray]:
    """A breadth-first spanning tree of the Cayley graph of ``group`` over S.

    Returns (levels, edges).  A level holds arrays (t, a, h): t = S[a]·h is
    reached first from an h of the level before, or of S for the first
    level.  Every element outside S, the identity included, is a t exactly
    once, because every element is a positive word in S.  edges[a, h] marks
    the tree edges (S[a], h).  The trivial group, whose S is {e}, has no
    level and no edge.
    """
    gens = np.array(_generating_set(group))
    reached = np.zeros(group.order, dtype=bool)
    reached[gens] = True
    edges = np.zeros((gens.size, group.order), dtype=bool)
    levels = []
    frontier = gens
    while True:
        a, h = np.divmod(np.arange(gens.size * frontier.size), frontier.size)
        h = frontier[h]
        t = group.mul[gens[a], h]
        new, first = np.unique(t, return_index=True)
        first = first[~reached[new]]
        if not first.size:
            return tuple(levels), _freeze(edges)
        frontier, a, h = t[first], a[first], h[first]
        reached[frontier] = True
        edges[a, h] = True
        levels.append((_freeze(frontier), _freeze(a), _freeze(h)))


def _extend(coeffs: GModuleAction, i: int, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Extend values at first entries in S to degree-i cochains along ``_tree``.

    ``y`` is a batch of B values y[a, x] = z(S[a], x) for x in G^(i-1), of
    shape (|S|,) + (|G|,) * (i - 1) + (B, r) with entries in [0, n).  With
    T(s; h, x) the terms of dz(s, h, x) whose first entry is s, which are
    minus the signed ``_faces`` of y_s in degree i - 1, the cocycle identity
    0 = dz(s, h, x) = s·z(h, x) - z(sh, x) + T(s; h, x) fixes z level by
    level: z(t, x) = s·z(h, x) + T(s; h, x) on each tree edge.  Returns z,
    of shape (|G|,) * i + (B, r), and the residual s·z(h, x) + T(s; h, x) -
    z(sh, x), which is dz(s, h, x), at the pairs (s, h) that are not tree
    edges, in the order of ``np.nonzero(~edges)``, of shape (pairs,) +
    (|G|,) * (i - 1) + (B, r).  On tree edges dz vanishes by construction.
    Both are int32 in [0, n): with n <= 2^16 a sum of a few entries stays
    far inside int32, which moves half the bytes of int64, and the action's
    products are taken in int64 and reduced.  T is built only for the s
    whose values are not all zero, so a batch supported on one s costs one T.
    """
    group, n = coeffs.group, coeffs.modulus
    gens = np.array(_generating_set(group))
    levels, edges = _tree(group)
    tails = []
    for ys in y:
        tail = None
        if ys.any():
            tail = np.zeros((group.order,) * i + ys.shape[i - 1 :], dtype=np.int32)
            for sign, face in _faces(ys, i - 1, group.mul):
                if sign > 0:
                    tail -= face
                else:
                    tail += face
                del face
        tails.append(tail)

    def step(a: np.ndarray, h: np.ndarray) -> np.ndarray:
        """s·z(h, x) + T(s; h, x) for s = S[a], unreduced."""
        v = z[h]
        if not coeffs.is_trivial():
            v = _floor_mod(np.einsum("puv,p...v->p...u", coeffs.matrices[gens[a]], v), n).astype(np.int32)
        for b, tail in enumerate(tails):
            if tail is not None:
                sel = np.flatnonzero(a == b)
                v[sel] += tail[h[sel]]
        return v

    z = np.empty((group.order,) + y.shape[1:], dtype=np.int32)
    z[gens] = y
    for t, a, h in levels:
        z[t] = _floor_mod(step(a, h), n)
    a, h = np.nonzero(~edges)
    res = step(a, h)
    res -= z[group.mul[gens[a], h]]
    return z, _floor_mod(res, n)


# maxsize=0 caches nothing; it keeps cache_info(), whose misses perfbench's tracer counts as dense builds
@functools.lru_cache(maxsize=0)
def _scaled_differential(coeffs: GModuleAction, i: int) -> np.ndarray:
    """The generator rows of d: C^i -> C^(i+1) as a Z/n matrix whose kernel
    is Z^i exactly.

    Only the rows of the (i+1)-tuples whose first entry lies in the
    generating set S of ``_generating_set`` are built: |S|·|G|^i·r rows, not
    |G|^(i+1)·r.  That loses no cocycle condition.  The cocycle identity
    writes z(gh, ...) as g·z(h, ...) plus terms whose first entry is g, so a
    cocycle z that vanishes at first entries g and h vanishes at gh, and
    every element is a positive word in S.  df is a cocycle, so df = 0
    exactly when its S rows vanish (Brown, *Cohomology of Groups*, on
    inhomogeneous cochains).  For a target that is not a cocycle the S rows
    say nothing, which is why ``solve_differential`` checks d x on all rows.
    Solves and ``_factored_with_generator`` build it through this name;
    ``cohomology`` builds the same rows of d^(i-1) for its coboundaries
    through ``_scaled_rows``, and its ``_cocycle_form`` builds d^i only in
    degree 0, through ``_factored_differential``.
    Built by ``_scaled_rows``, for the ``zmod`` routines with n =
    ``coeffs.modulus``; only the caller keeps it.
    """
    return _scaled_rows(coeffs, i, _generator_rows(coeffs.group, i + 1))


@functools.lru_cache(maxsize=None)
def _factored_differential(coeffs: GModuleAction, i: int) -> Factorization:
    """``factorize`` of ``_scaled_differential(coeffs, i)``, cached.

    The one cached form of d, whose dense generator rows are dropped once
    factored; over Z/2 it holds h and u as packed words alone.  Its k is the
    Howell form of Z^i on lifts, which seeded global trivializations sample
    from, and which ``_cocycle_form`` reads Z^0 from (in degree >= 1 it finds
    Z^i without d); its ``solve`` serves every ``solve_differential``, so
    each d is built and eliminated once however many targets follow.
    """
    return factorize(_scaled_differential(coeffs, i), coeffs.modulus)


@functools.lru_cache(maxsize=None)
def _factored_with_generator(generator: Cochain) -> Factorization:
    """``factorize`` of the generator rows of the differential into
    ``generator``'s degree with the same rows of the scaled ``generator`` as
    one more column, cached per generator.

    Solving it against the generator rows of a scaled cocycle x writes
    x = d(beta) + k * generator, on every row, because both sides are
    cocycles; so the generator must be one.  ``local_invariant`` refuses an
    x that is not a cocycle and solves against the factorization of its
    place's generator, so each place's matrix is built and eliminated once
    however many invariants follow.  The column is appended in d's dtype.
    """
    coeffs = generator.coeffs
    if not differential(generator).is_zero():
        raise ValueError("the generator is not a cocycle")
    d = _scaled_differential(coeffs, generator.degree - 1)
    d = np.hstack([d, _generator_values(generator)[:, None].astype(d.dtype)])
    return factorize(d, coeffs.modulus)


def solve_differential(coeffs: GModuleAction, degree: int, target: Cochain) -> Cochain | None:
    """Solve d x = target for x in C^degree; None when no solution exists.

    The returned solution is the canonical one: ``Factorization.solve`` of
    the cached ``_factored_differential`` (packed XORs over Z/2,
    back-substitutions otherwise) on the target's generator rows, which is
    the representative of x + Z^degree reduced against the Howell form of
    Z^degree.  It depends on the solution set alone, so it equals the
    solution of the full system d x = target.  Only the first solve on a
    differential eliminates d.  Every other solution is x plus a combination
    of the rows of that factorization's k.  The generator rows decide
    solvability only for a cocycle target, so x is returned only if d x ==
    target holds on every row, checked by one differential of x.  The target
    must be a cochain on ``coeffs`` of degree ``degree + 1``.
    """
    if target.degree != degree + 1:
        raise ValueError("target degree must be degree + 1")
    if target.coeffs != coeffs:
        raise ValueError("target lives on other coefficients than the ones solved over")
    sol = _factored_differential(coeffs, degree).solve(_generator_values(target))
    if sol is None:
        return None
    x = Cochain(coeffs, degree, sol.particular)
    # in _coboundary's dtype, whose bound holds d x - target
    diff = _coboundary(x).reshape(target.values.shape)
    diff -= target.values.astype(diff.dtype)
    if _floor_mod(diff, coeffs.module.orders).any():
        return None
    return x


# ---------------------------------------------------------------------------
# Classification of cochains and cohomology groups.


@dataclass(frozen=True)
class NonCocycle:
    """df != 0; the witness is the first tuple where it fails."""

    witness: tuple[int, ...]


@dataclass(frozen=True)
class Coboundary:
    """f = d(preimage); the preimage is the canonical solver output.

    ``preimage`` is None only in degree 0, where B^0 = 0.
    """

    preimage: Cochain | None


@dataclass(frozen=True)
class NontrivialClass:
    """Coordinates of [f] in the invariant-factor decomposition of H^i."""

    coordinates: tuple[int, ...]


Classification = NonCocycle | Coboundary | NontrivialClass


def classify(f: Cochain) -> Classification:
    """Total classification of a cochain: non-cocycle, coboundary, or class."""
    df = differential(f)
    if not df.is_zero():
        bad = _tensor(df).any(axis=-1)
        return NonCocycle(tuple(int(g) for g in np.unravel_index(np.flatnonzero(bad)[0], bad.shape)))
    if f.degree == 0:
        if f.is_zero():
            return Coboundary(None)
        return NontrivialClass(cohomology(f.coeffs, 0)._coordinates(f))
    pre = solve_differential(f.coeffs, f.degree - 1, f)
    if pre is not None:
        return Coboundary(pre)
    return NontrivialClass(cohomology(f.coeffs, f.degree)._coordinates(f))


@dataclass(frozen=True, eq=False)
class CohomologyGroup:
    """H^i(G, M) with invariant factors, generating cocycles, and coordinates.

    ``basis`` and ``transform`` are in S-coordinates (``_generator_values``:
    a cochain's values at its tuples whose first entry lies in S, coordinate
    t times n / o_t), so both depend on S; in degree 0 they are the r
    values, scaled.  ``basis`` is ``_cocycle_form``'s hZ in every degree.
    The coordinates of a cocycle are the coefficients of its S-values over
    ``basis``, the Howell rows of Z^i in S-coordinates, by
    back-substitution, followed by the columns of the transform that
    diagonalizes the coboundary relations mod n, one per invariant factor,
    so they are zero exactly on coboundaries and the published generators
    map to the standard basis vectors.
    """

    coeffs: GModuleAction = field(repr=False)
    degree: int
    invariant_factors: tuple[int, ...]
    generators: tuple[Cochain, ...] = field(repr=False)
    basis: np.ndarray = field(repr=False)  # hZ, the Howell form of Z^i in S-coordinates
    transform: np.ndarray = field(repr=False)  # columns of diagonalize_mod's v, one per factor

    def is_trivial(self) -> bool:
        return not self.invariant_factors

    def coordinates(self, f: Cochain) -> tuple[int, ...]:
        """Coordinates of a cocycle in the ⊕ Z/d_j decomposition.

        The S-values of a cocycle lie in the span of ``basis``, but so may
        those of a non-cocycle, so f is checked by its differential too.
        """
        coords = self._coordinates(f)
        if not differential(f).is_zero():
            raise ValueError("not a cocycle")
        return coords

    def _coordinates(self, f: Cochain) -> tuple[int, ...]:
        """``coordinates`` less the cocycle check, for a caller that made it."""
        if f.coeffs != self.coeffs or f.degree != self.degree:
            raise ValueError("cochain does not live in this cohomology group")
        c = _back_substitute(self.basis, _generator_values(f)[None, :], self.coeffs.modulus)[0]
        # each invariant factor divides n
        return tuple(int(x) % d for x, d in zip(c[0] @ self.transform, self.invariant_factors))


def _cocycle_form(coeffs: GModuleAction, i: int) -> np.ndarray:
    """hZ, the Howell form of Z^i in S-coordinates, for every i >= 0.

    In degree i >= 1 a cocycle is fixed by its values y at first entries in
    S, and ``_extend`` of y is a cocycle exactly when its residual M y
    vanishes.  The identity batch, one s at a time, gives M^T with U =
    |S|·|G|^(i-1)·r rows, in ``_form_dtype``, whose left kernel, the y of
    the cocycles, is the k of its ``_howell_rows``: no d^i is built.  In
    degree 0 the kernel is the k of ``_factored_differential(coeffs, 0)``.
    M y is held scaled, coordinate t times n / o_t as in ``_generator_values``,
    but y is not: when some order o_t is below n the kernel holds the rows
    o_t·e_t, and one more ``_howell_rows``, of the kernel times the scales,
    drops them.  A row space has one Howell form, so hZ is the Howell form
    of the k of ``_factored_differential(coeffs, i)`` read at the
    S-coordinates and scaled.
    """
    n, r = coeffs.modulus, coeffs.module.rank
    # the scales are 1 unless some order is below n; a value below n = 2^16
    # times a scale of at most n / 2 stays inside int32
    scales = _row_scales(coeffs, 1).astype(np.int32) if min(coeffs.module.orders) < n else None
    if i:
        group, gens = coeffs.group, _generating_set(coeffs.group)
        block = group.order ** (i - 1) * r  # the unknowns of one s
        left = np.count_nonzero(~_tree(group)[1]) * block  # the columns of M^T
        w = np.empty((len(gens) * block, left), dtype=_form_dtype(n))
        eye = np.eye(block, dtype=np.int32).reshape((group.order,) * (i - 1) + (r, block)).swapaxes(-1, -2)
        y = np.zeros((len(gens),) + eye.shape, dtype=np.int32)
        for a in range(len(gens)):
            y[a] = eye
            res = _extend(coeffs, i, y)[1]
            y[a] = 0
            if scales is not None:
                res = _floor_mod(res * scales, n)
            # narrowed first, the transposing copy moves a quarter of the bytes
            w[a * block : (a + 1) * block] = np.moveaxis(res.astype(w.dtype), i, 0).reshape(block, -1)
            del res
        k = _howell_rows(w, n)[2]
    else:
        k = _factored_differential(coeffs, 0).k
    if scales is not None:
        # an order-1 coordinate has scale n, which the sweep reduces to 0
        k = _howell_rows(k * _row_scales(coeffs, k.shape[1] // r), n)[0].astype(np.int64)
    return k


@functools.lru_cache(maxsize=None, typed=True)
def cohomology(coeffs: GModuleAction, degree: int) -> CohomologyGroup:
    """Compute H^degree(G, M) = ker d / im d by canonical forms, in S-coordinates.

    Every cochain is read by ``_generator_values``: its values at the tuples
    whose first entry lies in S, coordinate t times n / o_t, U =
    |S|·|G|^(i-1)·r of them.  That map is injective on Z^i, so H^i is Z^i
    modulo B^i, both in S-coordinates, and neither carries a row o_t·e_t.
    hZ, their Howell form for Z^i, comes from ``_cocycle_form`` in every
    degree (in degree 0, where no first entry exists, the coordinates are
    the r values); only B^i and the extension of the generators depend on
    the degree.  H is presented
    on the z rows of hZ: (Z/n)^z maps onto Z^i by c -> c @ hZ, with kernel
    the left kernel of hZ, and the coboundaries, the columns of the
    generator rows of d^(i-1) with its rows scaled (built by ``_scaled_rows``,
    uncached), pull back to their hZ-coordinates, which back-substitution
    finds exactly (the Howell property).  ``diagonalize_mod`` of these
    z-wide relations gives the invariant factors, the column transform
    behind ``coordinates``, and the inverse transform that yields the
    generators: their S-values, divided by the scales and extended to
    cocycles by ``_extend``.  Every input is a Howell form or is read off
    one, so for a given S the result depends on row spaces alone.  The cache
    is typed, so a bool or float degree, equal to an int as a key, misses it
    and is refused.
    """
    degree = _element(degree, "degree")
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    if degree + 1 > DEFAULT_DEGREE_CAP:
        raise DegreeBoundError(f"cohomology in degree {degree} needs d up to {degree + 1} > cap {DEFAULT_DEGREE_CAP}")
    n = coeffs.modulus
    group = coeffs.group
    r = coeffs.module.rank

    basis = _cocycle_form(coeffs, degree)
    if degree:
        # the coboundaries' S-values: the columns of the generator rows of d^(i-1), rows scaled
        b_rows = _scaled_rows(coeffs, degree - 1, _generator_rows(group, degree)).T
        coords, rem = _back_substitute(basis, b_rows, n)
        if rem.any():
            raise ValueError("a coboundary is not in the span of the cocycles")
    else:
        coords = np.zeros((0, basis.shape[0]), dtype=np.int64)  # B^0 = 0
    diag, v, w = diagonalize_mod(np.vstack([coords, left_kernel(basis, n)]), n)
    kept = [j for j, d in enumerate(diag) if d > 1]
    invariant_factors = tuple(diag[j] for j in kept)

    # each entry of a scaled cocycle is a multiple of its coordinate's scale
    values = (w[kept] @ basis) % n // _row_scales(coeffs, basis.shape[1] // r)
    if degree:
        # from S-values to cocycles; _extend takes the batch axis next to last
        shape = (len(kept), len(_generating_set(group))) + (group.order,) * (degree - 1) + (r,)
        z, res = _extend(coeffs, degree, np.moveaxis(values.reshape(shape), 0, -2).astype(np.int32))
        if _floor_mod(res, coeffs.module.orders).any():
            raise ValueError("a generator's S-values do not extend to a cocycle")
        values = np.moveaxis(z, -2, 0).astype(np.int64)
    generators = tuple(Cochain(coeffs, degree, vec) for vec in values)
    return CohomologyGroup(coeffs, degree, invariant_factors, generators, basis, v[:, kept])


def normalized_representative(f: Cochain) -> Cochain:
    """A cohomologous cochain vanishing whenever some argument is the identity.

    Never applied implicitly; cochains in this package are not assumed
    normalized.  Works for cocycles (where the normalized subcomplex is
    quasi-isomorphic); raises ValueError if no normalized representative
    exists in f + B.
    """
    i = f.degree
    if i == 0:
        return f
    # only the rows of d^(i-1) at the i-tuples with the identity in some position
    degenerate = np.flatnonzero((np.indices((f.group.order,) * i) == 0).any(axis=0))
    sol = solve_linear(_scaled_rows(f.coeffs, i - 1, degenerate), _scaled(f, degenerate), f.coeffs.modulus)
    if sol is None:
        raise ValueError("no normalized representative in the coboundary class")
    return f - differential(Cochain(f.coeffs, i - 1, sol.particular))

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
    _leading,
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


def _differential_matrix(coeffs: GModuleAction, i: int, rows: np.ndarray | None = None) -> np.ndarray:
    """Matrix of d: C^i -> C^{i+1} on flattened coordinates, entries in [0, n).

    With ``rows``, an array of flat (i+1)-tuple indices, only those tuples'
    rows are built, in that order.  The column blocks of a row are the flat
    i-tuple indices its faces read: ``_faces`` of the index tensor
    ``arange(|G|^i)`` shaped (|G|,) * i, broadcast to (|G|,) * (i + 1),
    raveled and taken at the rows.  Face 0 reads the tail of the row's tuple,
    ``rows % |G|^i``, acted on by its first entry ``rows // |G|^i``.
    Uncached, like ``_scaled_differential``: only factorizations of d are
    kept.
    """
    m = coeffs.group.order
    r = coeffs.module.rank
    tuples = np.arange(m ** (i + 1), dtype=np.int64) if rows is None else rows
    count = tuples.size
    out = np.zeros((count, r, m**i, r), dtype=np.int64)
    block = np.arange(count)
    first, tail = np.divmod(tuples, m**i)
    out[block, :, tail, :] = coeffs.matrices[first]
    eye = np.eye(r, dtype=np.int64)
    index = np.arange(m**i, dtype=np.int64).reshape((m,) * i)
    # within one face each row has one column block, so += never collides
    for sign, face in _faces(index, i, coeffs.group.mul):
        out[block, :, np.broadcast_to(face, (m,) * (i + 1)).ravel()[tuples], :] += sign * eye
    out %= coeffs.modulus
    return out.reshape(count * r, m**i * r)


def _row_scales(coeffs: GModuleAction, tuples: int) -> np.ndarray:
    """Scale factor n / order(coordinate) for each flattened coordinate of
    ``tuples`` module values (|G|^degree of them for all of C^degree)."""
    n = coeffs.modulus
    per = np.array([n // d for d in coeffs.module.orders], dtype=np.int64)
    return np.tile(per, tuples)


def _scaled(f: Cochain, rows: np.ndarray) -> np.ndarray:
    """f's values at the flat tuple indices ``rows``, flattened, each
    coordinate scaled as in ``_scaled_differential``."""
    return (f.values[rows] * _row_scales(f.coeffs, 1)).ravel() % f.coeffs.modulus


@functools.lru_cache(maxsize=None)
def _generating_set(group: FiniteGroup) -> tuple[int, ...]:
    """The greedy generating set S of ``group``: in element order, each
    element outside the subgroup generated by the earlier ones joins S.

    {1} for a cyclic group, {1, 2} for ``quaternion8``, and {e} for the
    trivial group, whose d has only rows with first entry e.
    """
    inside = np.zeros(group.order, dtype=bool)
    inside[0] = True
    gens: list[int] = []
    for g in range(1, group.order):
        if inside[g]:
            continue
        gens.append(g)
        # in a finite group the positive words in S reach all of <S>
        new = np.flatnonzero(inside)
        while new.size:
            new = np.unique(group.mul[np.ix_(new, gens)])
            new = new[~inside[new]]
            inside[new] = True
    return tuple(gens) or (0,)


@functools.lru_cache(maxsize=None)
def _generator_rows(group: FiniteGroup, degree: int) -> np.ndarray:
    """Flat indices of the degree-tuples whose first entry lies in
    ``_generating_set(group)``, in increasing order."""
    index = np.arange(group.order**degree, dtype=np.int64).reshape(group.order, -1)
    return _freeze(index[list(_generating_set(group))].ravel())


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
    The same identity also cuts the columns: ``_cocycle_form`` finds Z^i
    from a cocycle's values at first entries in S, so ``cohomology`` never
    builds this matrix; solves and ``_factored_with_generator`` do.

    An int64 array with entries in [0, n), to be passed to the ``zmod``
    routines together with n = ``coeffs.modulus``.  Row s is multiplied by
    n / order(s), so congruence mod n in each row is congruence mod the
    coordinate's cyclic order.  Scaling and reduction happen in place, so
    building d holds one copy of it, which only the caller keeps.
    """
    rows = _generator_rows(coeffs.group, i + 1)
    d = _differential_matrix(coeffs, i, rows)
    d *= _row_scales(coeffs, rows.size)[:, None]
    d %= coeffs.modulus
    return d


@functools.lru_cache(maxsize=None)
def _factored_differential(coeffs: GModuleAction, i: int) -> Factorization:
    """``factorize`` of ``_scaled_differential(coeffs, i)``, cached.

    The one cached form of d, whose dense generator rows are dropped once
    factored.  Its k is the Howell form of Z^i, which seeded global
    trivializations sample from (``cohomology`` finds the same k by
    ``_cocycle_form``, without d, except in degree 0), and its ``solve``
    serves every ``solve_differential`` on the target's generator rows, so
    each d is built and eliminated once however many targets are solved
    against it.
    Its h, with one row per pivot and one column per generator-row
    coordinate of C^(i+1), is in ``zmod._form_dtype``.
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
    however many invariants follow; the dense d is freed before the
    elimination.
    """
    coeffs = generator.coeffs
    if not differential(generator).is_zero():
        raise ValueError("the generator is not a cocycle")
    rows = _generator_rows(coeffs.group, generator.degree)
    d = np.hstack([_scaled_differential(coeffs, generator.degree - 1), _scaled(generator, rows)[:, None]])
    return factorize(d, coeffs.modulus)


def solve_differential(coeffs: GModuleAction, degree: int, target: Cochain) -> Cochain | None:
    """Solve d x = target for x in C^degree; None when no solution exists.

    The returned solution is the canonical one: ``Factorization.solve`` of
    the cached ``_factored_differential`` (packed XORs over Z/2,
    back-substitutions otherwise) on the target's generator rows, which is
    the representative of x + Z^degree reduced against the Howell form of
    Z^degree.  It depends on the solution set alone, so it equals the
    solution of the full system d x = target.  Only the first solve on a
    differential (or a ``cohomology`` before it) eliminates d.  Every other
    solution is x plus a cocycle, a combination of the rows of that
    factorization's k.  The generator rows decide solvability only for a
    cocycle target, so x is returned only if d x == target holds on every
    row, checked by one differential of x.  The target must be a cochain on
    ``coeffs`` of degree ``degree + 1``.
    """
    if target.degree != degree + 1:
        raise ValueError("target degree must be degree + 1")
    if target.coeffs != coeffs:
        raise ValueError("target lives on other coefficients than the ones solved over")
    rows = _generator_rows(coeffs.group, degree + 1)
    sol = _factored_differential(coeffs, degree).solve(_scaled(target, rows))
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
        return NontrivialClass(cohomology(f.coeffs, 0).coordinates(f))
    pre = solve_differential(f.coeffs, f.degree - 1, f)
    if pre is not None:
        return Coboundary(pre)
    return NontrivialClass(cohomology(f.coeffs, f.degree).coordinates(f))


@dataclass(frozen=True, eq=False)
class CohomologyGroup:
    """H^i(G, M) with invariant factors, generating cocycles, and coordinates.

    The coordinates of a cocycle are its coefficients over ``basis``, the
    Howell rows of Z^i, by back-substitution, followed by the columns of the
    transform that diagonalizes the coboundary relations mod n, one per
    invariant factor, so they are zero exactly on coboundaries and the
    published generators map to the standard basis vectors.
    """

    coeffs: GModuleAction = field(repr=False)
    degree: int
    invariant_factors: tuple[int, ...]
    generators: tuple[Cochain, ...] = field(repr=False)
    basis: np.ndarray = field(repr=False)  # hZ, the Howell form of the cocycles Z^i
    transform: np.ndarray = field(repr=False)  # columns of diagonalize_mod's v, one per factor

    def is_trivial(self) -> bool:
        return not self.invariant_factors

    def coordinates(self, f: Cochain) -> tuple[int, ...]:
        """Coordinates of a cocycle in the ⊕ Z/d_j decomposition."""
        if f.coeffs != self.coeffs or f.degree != self.degree:
            raise ValueError("cochain does not live in this cohomology group")
        n = self.coeffs.modulus
        c, rem = _back_substitute(self.basis, f.values.reshape(1, -1), n)
        if rem.any():
            raise ValueError("not a cocycle")
        moved = (c[0] @ self.transform) % n
        return tuple(int(x) % d for x, d in zip(moved, self.invariant_factors))


def _cocycle_form(coeffs: GModuleAction, i: int) -> np.ndarray:
    """hZ, the Howell form of Z^i for i >= 1, without building d^i.

    A cocycle is fixed by its values y at first entries in S, and every y
    extends to a cochain E y by ``_extend``, which is a cocycle exactly when
    its residual M y vanishes.  So over Z/n lifts, with the row scales of
    ``_scaled_differential`` on M and O the rows o_t e_t of the coordinates
    whose order o_t is below n, Z^i = E(ker M) + span(O).  The identity
    batch, one s at a time, gives M^T and E(I) with U = |S|·|G|^(i-1)·r
    rows, and one ``_howell_rows`` of [[M^T | E(I)]; [0 | O]], stored in
    ``_form_dtype``, does the rest: by the Howell property its rows with a
    pivot in the E(I) block, restricted to that block, are the Howell form
    of the row space's intersection with 0 + (Z/n)^(|G|^i·r), which is
    0 + Z^i.  A row space has one Howell form, so hZ equals the k of
    ``_factored_differential(coeffs, i)`` byte for byte.
    """
    group, n, r = coeffs.group, coeffs.modulus, coeffs.module.rank
    m, gens = group.order, _generating_set(group)
    block = m ** (i - 1) * r  # the unknowns of one s
    left = np.count_nonzero(~_tree(group)[1]) * block  # the columns of M^T
    orders = n // _row_scales(coeffs, m**i)
    short = np.flatnonzero(orders < n)
    w = np.zeros((len(gens) * block + short.size, left + m**i * r), dtype=_form_dtype(n))
    eye = np.eye(block, dtype=np.int32).reshape((m,) * (i - 1) + (r, block)).swapaxes(-1, -2)
    y = np.zeros((len(gens),) + eye.shape, dtype=np.int32)
    for a in range(len(gens)):
        y[a] = eye
        z, res = _extend(coeffs, i, y)
        y[a] = 0
        if short.size:  # the scales are 1 unless some order is below n
            res = res * _row_scales(coeffs, 1) % n
        # narrowed first, the transposing copies move a quarter of the bytes
        w[a * block : (a + 1) * block, :left] = np.moveaxis(res.astype(w.dtype), i, 0).reshape(block, -1)
        w[a * block : (a + 1) * block, left:] = np.moveaxis(z.astype(w.dtype), i, 0).reshape(block, -1)
        del z, res
    w[len(gens) * block + np.arange(short.size), left + short] = orders[short]
    h = _howell_rows(w, n)[0]
    return h[_leading(h) >= left, left:].astype(np.int64)


@functools.lru_cache(maxsize=None, typed=True)
def cohomology(coeffs: GModuleAction, degree: int) -> CohomologyGroup:
    """Compute H^degree(G, M) = ker d / im d by canonical forms.

    hZ, the Howell form of the cocycles Z^i, comes from ``_cocycle_form``,
    which eliminates a system in a cocycle's values at first entries in S
    and never builds d^i; in degree 0, where no first entry exists, it is
    the k of ``_factored_differential(coeffs, 0)``.  A ``solve_differential``
    on the same d after it factors d itself.
    H is presented on the z rows of hZ: (Z/n)^z maps onto Z^i
    by c -> c @ hZ, with kernel the left kernel of hZ, and the coboundaries
    pull back to their hZ-coordinates, which back-substitution finds exactly
    (the Howell property).  ``diagonalize_mod`` of these z-wide relations
    gives the invariant factors, the column transform behind
    ``coordinates``, and the inverse transform that yields the generators.
    Every input is a Howell form or is read off one, so the result depends
    on row spaces alone.  The cache is typed, so a bool or float degree,
    equal to an int as a key, misses it and is refused.
    """
    degree = _element(degree, "degree")
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    if degree + 1 > DEFAULT_DEGREE_CAP:
        raise DegreeBoundError(f"cohomology in degree {degree} needs d up to {degree + 1} > cap {DEFAULT_DEGREE_CAP}")
    n = coeffs.modulus
    m = coeffs.group.order
    r = coeffs.module.rank
    width = m**degree * r
    orders = n // _row_scales(coeffs, m**degree)

    basis = _cocycle_form(coeffs, degree) if degree else _factored_differential(coeffs, 0).k

    # coboundaries: the columns of d^(k-1) (none in degree 0), built uncached,
    # plus o_t e_t where o_t < n (the rest are zero mod n), in hZ-coordinates
    short = np.flatnonzero(orders < n)
    b_rows = np.vstack([
        _differential_matrix(coeffs, degree - 1).T if degree else np.zeros((0, width), dtype=np.int64),
        orders[short, None] * (short[:, None] == np.arange(width)),
    ])
    coords, rem = _back_substitute(basis, b_rows, n)
    if rem.any():
        raise ValueError("a coboundary is not in the span of the cocycles")
    diag, v, w = diagonalize_mod(np.vstack([coords, left_kernel(basis, n)]), n)
    kept = [j for j, d in enumerate(diag) if d > 1]
    invariant_factors = tuple(diag[j] for j in kept)

    generators = tuple(Cochain(coeffs, degree, vec.reshape(m**degree, r)) for vec in (w[kept] @ basis) % n)
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
    a = _differential_matrix(f.coeffs, i - 1, degenerate)
    a *= _row_scales(f.coeffs, degenerate.size)[:, None]
    sol = solve_linear(a, _scaled(f, degenerate), f.coeffs.modulus)
    if sol is None:
        raise ValueError("no normalized representative in the coboundary class")
    return f - differential(Cochain(f.coeffs, i - 1, sol.particular))

"""Inhomogeneous cochain complexes C^i(G, M) with dense lexicographic tables.

A degree-i cochain stores one module value per tuple (g_1, ..., g_i), flattened
in lexicographic order with g_1 most significant.  The differential is the
signed one:

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
    _element,
    _freeze,
    diagonalize_mod,
    factorize,
    lattice_basis,
    lattice_coordinates,
    left_kernel,
    solve_linear,
)

DEFAULT_DEGREE_CAP = 4


class DegreeBoundError(ComputationError):
    """Raised when an operation would exceed the configured degree cap."""


@functools.lru_cache(maxsize=None)
def _digits(m: int, i: int) -> tuple[np.ndarray, ...]:
    """Digit arrays of all m-ary tuples of length i, lexicographic order."""
    count = m**i
    ar = np.arange(count, dtype=np.int64)
    return tuple((ar // m ** (i - 1 - j)) % m for j in range(i))


def _encode(parts, m: int, count: int) -> np.ndarray:
    """Flat index of tuples given per-position digit arrays (or constants)."""
    idx = np.zeros(count, dtype=np.int64)
    for p in parts:
        idx *= m
        idx += p
    return idx


def _faces(group: FiniteGroup, i: int):
    """Yield (sign, index) for each of the i+2 faces of d: C^i -> C^{i+1}.

    ``index[t]`` is the flat C^i index that the face reads for the (i+1)-tuple
    t.  Face 0 comes first, and its values must still be acted on by the first
    digit of t.  Each index is built only when the next face is requested.
    """
    m = group.order
    count = m ** (i + 1)
    digits = _digits(m, i + 1)
    yield 1, _encode(digits[1:], m, count)
    for k in range(1, i + 1):
        parts = itertools.chain(digits[: k - 1], [group.mul[digits[k - 1], digits[k]]], digits[k + 1 :])
        yield (-1) ** k, _encode(parts, m, count)
    yield (-1) ** (i + 1), _encode(digits[:i], m, count)


def decode_index(idx: int, m: int, i: int) -> tuple[int, ...]:
    out = []
    for j in range(i):
        out.append((idx // m ** (i - 1 - j)) % m)
    return tuple(out)


class Cochain:
    """A map G^i -> M as a dense (|G|^i, rank M) table, immutable."""

    __slots__ = ("coeffs", "degree", "values")

    def __init__(self, coeffs: GModuleAction, degree: int, values):
        degree = _element(degree, "degree")
        if degree < 0:
            raise ValueError("degree must be nonnegative")
        m = coeffs.group.order
        r = coeffs.module.rank
        # reshape before reducing: a flat vector of a rank-r module reduces per column
        vals = coeffs.module.reduce(np.asarray(values, dtype=np.int64).reshape(m**degree, r))
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
        idx = 0
        for g in map(_element, args):
            if not 0 <= g < m:
                raise ValueError(f"element {g} is outside [0, {m})")
            idx = idx * m + g
        return self.values[idx]

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
        m, r = coeffs.group.order, coeffs.module.rank
        vals = np.zeros((m**degree, r), dtype=np.int64)
        for idx in range(m**degree):
            vals[idx] = np.asarray(fn(*decode_index(idx, m, degree)), dtype=np.int64).reshape(r)
        return cls(coeffs, degree, vals)

    @classmethod
    def random(cls, coeffs: GModuleAction, degree: int, rng: np.random.Generator) -> "Cochain":
        m, r = coeffs.group.order, coeffs.module.rank
        highs = np.asarray(coeffs.module.orders, dtype=np.int64)
        vals = rng.integers(0, highs[None, :], size=(m**degree, r), dtype=np.int64, endpoint=False)
        return cls(coeffs, degree, vals)


def _act_batch(coeffs: GModuleAction, gs: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Apply action(gs[t]) to values[t] for all t at once."""
    if coeffs.is_trivial():
        return values
    mats = coeffs.matrices[gs]
    return np.einsum("nuv,nv->nu", mats, values)


def differential(f: Cochain, *, degree_cap: int = DEFAULT_DEGREE_CAP) -> Cochain:
    """The signed inhomogeneous differential; d(df) == 0 always.

    Raising ``degree_cap`` past 4 is allowed but tables grow as |G|^degree.
    """
    i = f.degree
    if i + 1 > degree_cap:
        raise DegreeBoundError(f"differential output degree {i + 1} exceeds cap {degree_cap}")
    faces = _faces(f.group, i)
    first = _digits(f.group.order, i + 1)[0]
    acc = _act_batch(f.coeffs, first, f.values[next(faces)[1]]).astype(np.int64)
    for sign, idx in faces:
        acc += sign * f.values[idx]
        del idx  # free this face's index before the next one is built
    return Cochain(f.coeffs, i + 1, acc)


def pullback(rho: GroupHom, f: Cochain) -> Cochain:
    """(rho* f)(g_1, ..., g_i) = f(rho g_1, ..., rho g_i), with the induced action."""
    if rho.cod != f.group:
        raise ValueError("pullback target group does not match the cochain's group")
    induced = GModuleAction(rho.dom, f.module, f.coeffs.matrices[rho.map])
    m = rho.dom.order
    i = f.degree
    idx = _encode((rho.map[d] for d in _digits(m, i)), f.group.order, m**i)
    return Cochain(induced, i, f.values[idx])


# ---------------------------------------------------------------------------
# The differential as an explicit matrix, and solving d x = target.


def _differential_matrix(coeffs: GModuleAction, i: int) -> np.ndarray:
    """Matrix of d: C^i -> C^{i+1} on flattened coordinates, entries in [0, n).

    Uncached: ``_scaled_differential`` keeps the one cached copy.
    """
    m = coeffs.group.order
    r = coeffs.module.rank
    count = m ** (i + 1)
    out = np.zeros((count, r, m**i, r), dtype=np.int64)
    rows = np.arange(count, dtype=np.int64)
    faces = _faces(coeffs.group, i)
    out[rows, :, next(faces)[1], :] = coeffs.matrices[_digits(m, i + 1)[0]]
    eye = np.eye(r, dtype=np.int64)
    # within one face each row has one column block, so += never collides
    for sign, idx in faces:
        out[rows, :, idx, :] += sign * eye
        del idx
    out %= coeffs.modulus
    return out.reshape(count * r, m**i * r)


def _row_scales(coeffs: GModuleAction, degree: int) -> np.ndarray:
    """Scale factor n / order(coordinate) for each flattened coordinate of C^degree."""
    n = coeffs.modulus
    m = coeffs.group.order
    per = np.array([n // d for d in coeffs.module.orders], dtype=np.int64)
    return np.tile(per, m**degree)


def _scaled(f: Cochain) -> np.ndarray:
    """f's flattened values with each row scaled as in ``_scaled_differential``."""
    return (f.values.reshape(-1) * _row_scales(f.coeffs, f.degree)) % f.coeffs.modulus


@functools.lru_cache(maxsize=None)
def _scaled_differential(coeffs: GModuleAction, i: int) -> np.ndarray:
    """d as a Z/n matrix whose kernel/image encode the mixed-order module exactly.

    A read-only int64 array with entries in [0, n), to be passed to the
    ``zmod`` routines together with n = ``coeffs.modulus``.  Row s is
    multiplied by n / order(s), so congruence mod n in each row is congruence
    mod the coordinate's cyclic order.  Scaling and reduction happen in
    place, so building d holds one copy of it.  This is the only cached dense
    copy of d.  ``_factored_differential`` factors it once for
    ``solve_differential`` and ``cohomology``, and ``_factored_with_generator``
    once per local generator with one extra column;
    ``normalized_representative`` eliminates a row subset of it.
    """
    d = _differential_matrix(coeffs, i)
    d *= _row_scales(coeffs, i + 1)[:, None]
    d %= coeffs.modulus
    return _freeze(d)


@functools.lru_cache(maxsize=None)
def _factored_differential(coeffs: GModuleAction, i: int) -> Factorization:
    """``factorize`` of ``_scaled_differential(coeffs, i)``, cached.

    Its k is the right kernel that ``cohomology`` reads and that seeded global
    trivializations sample from, and its ``solve`` serves every
    ``solve_differential``, so each d is eliminated once however many targets
    are solved against it.  Its h, with one row per pivot and one column per
    coordinate of C^(i+1), is stored in the narrow dtype of
    ``zmod._form_dtype``.
    """
    return factorize(_scaled_differential(coeffs, i), coeffs.modulus)


@functools.lru_cache(maxsize=None)
def _factored_with_generator(generator: Cochain) -> Factorization:
    """``factorize`` of the differential into ``generator``'s degree with
    ``_scaled(generator)`` as one more column, cached per generator.

    Solving it against ``_scaled(x)`` writes x = d(beta) + k * generator.
    ``local_invariant`` solves against the one of its place's generator, so
    each place's matrix is eliminated once however many invariants follow.
    """
    coeffs = generator.coeffs
    d = _scaled_differential(coeffs, generator.degree - 1)
    return factorize(np.hstack([d, _scaled(generator)[:, None]]), coeffs.modulus)


def solve_differential(coeffs: GModuleAction, degree: int, target: Cochain) -> Cochain | None:
    """Solve d x = target for x in C^degree; None when no solution exists.

    The returned solution is the canonical one under leftmost-pivot solving,
    read off the cached ``_factored_differential`` by its ``solve`` (packed
    XORs over Z/2, a back-substitution otherwise), so only the first solve
    on a differential (or a ``cohomology`` before it) eliminates d.  Every
    other solution is x plus a cocycle, a combination of the rows of that
    factorization's k.  The target must be a cochain on
    ``coeffs`` of degree ``degree + 1``.
    """
    if target.degree != degree + 1:
        raise ValueError("target degree must be degree + 1")
    if target.coeffs != coeffs:
        raise ValueError("target lives on other coefficients than the ones solved over")
    sol = _factored_differential(coeffs, degree).solve(_scaled(target))
    return None if sol is None else Cochain(coeffs, degree, sol.particular)


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
        flat = int(np.flatnonzero(df.values.any(axis=1))[0])
        return NonCocycle(decode_index(flat, f.group.order, f.degree + 1))
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

    Coordinates are computed through a fixed triangular basis of the cocycle
    lattice followed by the columns of the transform that diagonalizes the
    coboundary relations mod n, one per invariant factor, so they are zero
    exactly on coboundaries and the published generators map to the
    standard basis vectors.
    """

    coeffs: GModuleAction = field(repr=False)
    degree: int
    invariant_factors: tuple[int, ...]
    generators: tuple[Cochain, ...] = field(repr=False)
    basis: np.ndarray = field(repr=False)  # triangular basis of the cocycle lattice
    transform: np.ndarray = field(repr=False)  # columns of diagonalize_mod's v, one per factor

    def is_trivial(self) -> bool:
        return not self.invariant_factors

    def coordinates(self, f: Cochain) -> tuple[int, ...]:
        """Coordinates of a cocycle in the ⊕ Z/d_j decomposition."""
        if f.coeffs != self.coeffs or f.degree != self.degree:
            raise ValueError("cochain does not live in this cohomology group")
        n = self.coeffs.modulus
        try:
            c = lattice_coordinates(self.basis, f.values.reshape(1, -1), n)[0]
        except ValueError:
            raise ValueError("not a cocycle") from None
        moved = (c @ self.transform) % n
        return tuple(int(x) % d for x, d in zip(moved, self.invariant_factors))


@functools.lru_cache(maxsize=None, typed=True)
def cohomology(coeffs: GModuleAction, degree: int) -> CohomologyGroup:
    """Compute H^degree(G, M) = ker d / im d by canonical forms.

    Kernel generators are the k of the cached ``_factored_differential``
    (the Howell-form right kernel of d over Z/n), so a later
    ``solve_differential`` on the same d reuses this elimination; and
    ``lattice_basis`` turns them into a triangular basis of the cocycle
    lattice.  ``diagonalize_mod`` of the coboundary relations written in that
    basis gives the invariant factors, the column transform behind
    ``coordinates``, and the inverse transform that yields the generators.
    The cache is typed, so a bool or float degree, equal to an int as a key,
    misses it and is refused.
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
    orders = np.array([coeffs.module.orders[t % r] for t in range(width)], dtype=np.int64)

    # Z-basis of the cocycle lattice (the lattice contains n*Z^width, which
    # keeps all entries reduced mod n throughout)
    kernel = _factored_differential(coeffs, degree).k
    basis = lattice_basis(kernel, width, n)

    # coboundary lattice generators in basis coordinates: columns of the
    # previous differential plus the coordinate relations m_t e_t; the
    # n*Z^width part contributes through the mod-n kernel of the basis
    # (coefficient vectors c with c @ basis == 0 mod n)
    if degree > 0:
        dmat = _differential_matrix(coeffs, degree - 1)
        b_rows = np.vstack([dmat.T % n, np.diag(orders) % n])
    else:
        b_rows = np.diag(orders) % n
    nker = left_kernel(basis, n).reshape(-1, width)
    cmat = np.vstack([lattice_coordinates(basis, b_rows, n), nker])
    diag, v, w = diagonalize_mod(cmat, n)
    kept = [j for j in range(width) if diag[j] > 1]
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
    m = f.group.order
    r = f.module.rank
    degenerate = [
        idx for idx in range(m**i) if 0 in decode_index(idx, m, i)
    ]
    a = _scaled_differential(f.coeffs, i - 1)
    sel = np.array([t for idx in degenerate for t in range(idx * r, idx * r + r)], dtype=np.int64)
    b = _scaled(f)
    sol = solve_linear(a[sel], b[sel], f.coeffs.modulus)
    if sol is None:
        raise ValueError("no normalized representative in the coboundary class")
    return f - differential(Cochain(f.coeffs, i - 1, sol.particular))

"""Cup products, the Bockstein map, conjugation of cochains, and the
chain homotopies h_{a_1,...,a_k,f} for the conjugation action.

Each operation is a gather or a broadcast on the tensor view of its cochains
(``cochains._tensor``, one axis per argument g_k), the one indexing scheme
of ``cochains``: a cup is a broadcast product, a conjugation a gather along
every axis, and each term of a homotopy one gather of f.

The homotopies are computed by the shuffle-path formula: for f of degree
n + k and elements a_1, ..., a_k,

    h(x_0, ..., x_{n-1}) = sum over monotone paths P from (0,0) to (n,k)
                           of (-1)^{|P|} f(x^P)

where a vertical segment starting at height t contributes a_{k-t}^{-1}, a
horizontal segment at height t contributes x_s conjugated by a_{k-t+1}...a_k
(empty product at t = 0), and |P| is the number of grid squares above the
path.  The k = 1 case is the classical cylinder homotopy, satisfying

    h_{a,df} + d(h_{a,f}) = f^a - f.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .cochains import DEFAULT_DEGREE_CAP, Cochain, DegreeBoundError, _coboundary, _tensor
from .groups import GModuleAction, conjugation_hom, cyclic
from .zmod import (
    MAX_MODULUS,
    ComputationError,
    ModuleOverZn,
    NotDivisibleError,
    _element,
    _floor_mod,
    _narrow_dtype,
)


class IncompatiblePairingError(ComputationError):
    """Cup factors whose coefficients admit no canonical pairing."""


def _is_scalar(f: Cochain) -> bool:
    """Rank-1 coefficients of full order n with trivial action."""
    return f.module.orders == (f.module.modulus,) and f.coeffs.is_trivial()


def cup(x: Cochain, y: Cochain) -> Cochain:
    """Front-face/back-face cup product.

    (x cup y)(g_1..g_{p+q}) = x(g_1..g_p) * ((g_1...g_p) . y(g_{p+1}..g_{p+q})),
    pairing by scalar multiplication: at least one factor must take values in
    Z/n with trivial action, and both must share the ambient modulus.
    Satisfies the Leibniz rule d(x cup y) = dx cup y + (-1)^p x cup dy.

    The product broadcasts x's tensor over q new axes against y's.  For a
    twisted y the prefix product g_1...g_p is a (|G|,) * p tensor of group
    elements, built by p lookups in the multiplication table, and its action
    on y is one broadcast matmul.  Both tensors are narrow copies
    (``_narrow_dtype``) of values in [0, n): a product lies below n², and
    below r·n³ when y is acted on by rank-r matrices with entries in [0, n).
    """
    if x.group != y.group:
        raise IncompatiblePairingError("cup factors live on different groups")
    if x.module.modulus != y.module.modulus:
        raise IncompatiblePairingError("cup factors have different ambient moduli")
    if _is_scalar(x):
        out_coeffs = y.coeffs  # scalar times module value
    elif _is_scalar(y):
        out_coeffs = x.coeffs  # module value times scalar
    else:
        raise IncompatiblePairingError(
            "no canonical pairing: neither factor is a trivially-acted Z/n scalar"
        )
    m, p, q, n = x.group.order, x.degree, y.degree, x.module.modulus
    twisted = not y.coeffs.is_trivial()
    dtype = _narrow_dtype(n * n * (y.module.rank * n if twisted else 1))
    yv = _tensor(y).astype(dtype)
    if twisted:
        prefix = np.zeros((), dtype=np.int64)  # the identity, the empty product
        for _ in range(p):
            prefix = x.group.mul[prefix]
        r = y.module.rank
        action = y.coeffs.matrices.astype(dtype)[prefix]
        yv = (action.reshape((m,) * p + (1,) * q + (r, r)) @ yv[..., None])[..., 0]
    xv = _tensor(x).astype(dtype).reshape((m,) * p + (1,) * q + (x.module.rank,))
    return Cochain(out_coeffs, p + q, xv * yv)


def bockstein(f: Cochain) -> Cochain:
    """Connecting map of 0 -> Z/n -> Z/n^2 -> Z/n -> 0 on the cochain level.

    Lifts values through the standard section (i mod n -> i mod n^2), applies
    d over Z/n^2, and divides by n.  On the identity character of Z/n this is
    the carry cocycle [i + j >= n].  The lift's values lie in [0, n), so its
    d over Z is ``_coboundary(f)``, unreduced, in a dtype that holds its
    bound (i + 2)·n.  For D that d, divisible by n, (D mod n^2) / n = D / n
    mod n, so D is tested and divided by n there, with no lift and no
    reduction mod n^2.
    """
    if not _is_scalar(f):
        raise IncompatiblePairingError("bockstein needs Z/n coefficients with trivial action")
    n = f.module.modulus
    if n * n > MAX_MODULUS:
        raise ValueError(f"bockstein needs n^2 <= {MAX_MODULUS}")
    if f.degree + 1 > DEFAULT_DEGREE_CAP:
        raise DegreeBoundError(f"bockstein output degree {f.degree + 1} exceeds cap {DEFAULT_DEGREE_CAP}")
    db = _coboundary(f)
    bad = _floor_mod(db, n).any(axis=-1)
    if bad.any():
        witness = tuple(int(g) for g in np.unravel_index(np.flatnonzero(bad)[0], bad.shape))
        raise NotDivisibleError(
            f"d of the lift is not divisible by {n} at tuple {witness}; the input is not a cocycle"
        )
    return Cochain(f.coeffs, f.degree + 1, db // db.dtype.type(n))


def conjugate(f: Cochain, a: int) -> Cochain:
    """The right action f^a = a^{-1} . f(a g_1 a^{-1}, ..., a g_i a^{-1}).

    Commutes with the differential and satisfies (f^a)^b = f^{ab}.  One
    gather of a narrow copy of f's tensor at the conjugation map along every
    axis, as in ``pullback``, then the action of a^{-1} unless it is trivial.
    Values lie in [0, n), and acted on by a rank-r matrix with entries in
    [0, n) below r·n².
    """
    cmap = conjugation_hom(f.group, a).map
    n, r = f.module.modulus, f.module.rank
    twisted = not f.coeffs.is_trivial()
    dtype = _narrow_dtype(r * n * n if twisted else n)
    vals = _tensor(f).astype(dtype)[np.ix_(*[cmap] * f.degree)]
    if twisted:
        vals = vals @ f.coeffs.matrices[f.group.inv(a)].T.astype(dtype)
    return Cochain(f.coeffs, f.degree, vals)


# ---------------------------------------------------------------------------
# Shuffle paths and the homotopy cochains.


@dataclass(frozen=True)
class ShufflePath:
    """A monotone path from (0,0) to (n,k): n horizontal and k vertical steps.

    The sign is the parity of the number of grid squares above the path,
    which equals the inversion count of the corresponding (k,n)-shuffle.
    """

    n: int
    k: int
    steps: tuple[str, ...]  # entries "h" or "v"

    def __post_init__(self):
        if len(self.steps) != self.n + self.k:
            raise ValueError("a path needs n + k steps")
        if self.steps.count("h") != self.n or self.steps.count("v") != self.k:
            raise ValueError("a path needs exactly n horizontal and k vertical steps")

    def squares_above(self) -> int:
        total, height = 0, 0
        for s in self.steps:
            if s == "v":
                height += 1
            else:
                total += self.k - height
        return total

    @property
    def sign(self) -> int:
        return -1 if self.squares_above() % 2 else 1

    def segments(self):
        """Yield (kind, s, t): the step kind and the coordinates it starts at."""
        s = t = 0
        for kind in self.steps:
            yield kind, s, t
            if kind == "h":
                s += 1
            else:
                t += 1


def shuffle_paths(n: int, k: int):
    """All binomial(n+k, k) monotone paths in the n x k grid."""
    for vertical_positions in itertools.combinations(range(n + k), k):
        steps = ["h"] * (n + k)
        for p in vertical_positions:
            steps[p] = "v"
        yield ShufflePath(n, k, tuple(steps))


def homotopy(avec, f: Cochain) -> Cochain:
    """The cochain h_{a_1,...,a_k,f} of degree deg(f) - k.

    For k = 1 this is the cylinder homotopy witnessing that conjugation acts
    trivially on cohomology: h_{a,df} + d(h_{a,f}) = f^a - f.  For higher k
    the h's satisfy the coboundary relations tying h_{ab,f} to h_{a,f} and
    h_{b,f}.

    Each path's term is one gather of f's tensor, indexed by one entry per
    step: a vertical step's element a_{k-t}^{-1} as a scalar, and a
    horizontal step's conjugation map reshaped onto its output axis s, so
    the entries broadcast to the (|G|,) * (deg(f) - k) output tuples.  The
    terms are gathered from a narrow copy of f's tensor and summed in it:
    each of the binomial(deg(f), k) paths adds or subtracts a value in
    [0, n).
    """
    avec = [_element(a) for a in avec]
    k = len(avec)
    if k < 1:
        raise ValueError("need at least one group element")
    n_out = f.degree - k
    if n_out < 0:
        raise DegreeBoundError(f"degree of f must be at least k = {k}")
    g = f.group
    m = g.order
    for a in avec:
        if not 0 <= a < m:
            raise ValueError(f"element {a} out of range")

    # conjugator at height t is a_{k-t+1} ... a_k (empty product at t = 0)
    conj_maps = [np.arange(m, dtype=np.int64)]
    prod = 0  # identity
    for t in range(1, k + 1):
        prod = g.op(avec[k - t], prod)
        conj_maps.append(conjugation_hom(g, prod).map)

    dtype = _narrow_dtype(math.comb(f.degree, k) * f.module.modulus)
    values = _tensor(f).astype(dtype)
    acc = np.zeros((m,) * n_out + (f.module.rank,), dtype=dtype)
    for path in shuffle_paths(n_out, k):
        index = tuple(
            g.inv(avec[k - t - 1]) if kind == "v" else conj_maps[t].reshape((m,) + (1,) * (n_out - 1 - s))
            for kind, s, t in path.segments()
        )
        if path.sign > 0:
            acc += values[index]
        else:
            acc -= values[index]
    return Cochain(f.coeffs, n_out, acc)


# ---------------------------------------------------------------------------
# Standard classes on cyclic groups.


def identity_character(n: int) -> Cochain:
    """alpha: the identity 1-cocycle on Z/n with Z/n coefficients."""
    coeffs = GModuleAction.trivial(cyclic(n), ModuleOverZn.cyclic(n))
    return Cochain(coeffs, 1, np.arange(n, dtype=np.int64).reshape(n, 1))


def carry_cocycle(n: int) -> Cochain:
    """delta(alpha): the carry 2-cocycle [i + j >= n] on Z/n."""
    return bockstein(identity_character(n))


def cyclic_three_cocycle(n: int) -> Cochain:
    """alpha cup delta(alpha): the standard generator of H^3(Z/n, Z/n)."""
    return cup(identity_character(n), carry_cocycle(n))

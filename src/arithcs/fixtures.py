"""Shipped toy data: small global/local configurations built in code.

The gluing pipeline needs every place to carry a canonical unramified
trivialization, which at a finite scale forces the inertia-free quotient of
each local group to have order prime to n.  The gluing toys therefore use
totally ramified places (inertia equal to the whole local group Z/2,
quotient trivial).  ``toy_global_datum`` and ``toy_abelian_datum`` put two
of them inside a Z/4 global group; reciprocity holds because the two places
are identical and n = 2, so their contributions cancel.
``toy_global_datum`` uses the nonabelian gauge group S3, giving the
conjugation action on representations real content; ``toy_abelian_datum`` is
the same global/local picture with gauge group Z/2.  ``quaternion_datum``
has one totally ramified place, at the center of Q8.

The other data use unramified identity places: the local group Z/n mapped
identically onto the global group, with trivial inertia.  The reciprocity
pair (``balanced_reciprocity_datum`` / ``broken_reciprocity_datum``) has two
of them mod 3, where +1 and -1 normalizations actually differ, and
``one_place_fiber_datum`` has one on Z/2.
"""

from __future__ import annotations

from .cochains import pullback
from .cstheory import GlobalDatum, PlaceDatum
from .groups import (
    GroupHom,
    cyclic,
    identity_hom,
    inclusion_hom,
    make_hom,
    quaternion8,
    s3_sign_hom,
    symmetric3,
)
from .ops import carry_cocycle, cyclic_three_cocycle


def order_two_place(global_group, image_of_generator: int) -> PlaceDatum:
    """A totally ramified place: local group Z/2 embedded in the global group.

    Inertia is all of Z/2 (quotient trivial, so unramified trivializations
    are canonical for every inertia-killing representation); the declared
    H^2 generator is the carry cocycle, normalized to 1/2.
    """
    emb = inclusion_hom([0, image_of_generator], global_group)
    return PlaceDatum(
        local_group=emb.dom,
        embedding=emb,
        inertia=(0, 1),
        h2_generator=carry_cocycle(2),
        inv_normalization=1,
    )


def toy_global_datum() -> GlobalDatum:
    """Gauge group S3, 3-cocycle pulled back along the sign character.

    Global group Z/4 with two identical order-2 places at the element 2.
    The representation Z/4 -> S3 sending 1 to a transposition has a
    six-element conjugation orbit, all with the same invariant.
    """
    z4 = cyclic(4)
    s3 = symmetric3()
    sign = s3_sign_hom(s3, cyclic(2))
    c = pullback(sign, cyclic_three_cocycle(2))
    places = (order_two_place(z4, 2), order_two_place(z4, 2))
    return GlobalDatum(2, z4, places, s3, c)


def toy_rho() -> GroupHom:
    """Z/4 -> S3 sending the generator to a transposition."""
    datum_group = cyclic(4)
    s3 = symmetric3()
    t = next(a for a in s3.elements() if s3.element_order(a) == 2)
    return make_hom(datum_group, s3, [0, t, 0, t])


def toy_abelian_datum() -> GlobalDatum:
    """Gauge group Z/2, the standard 3-cocycle, same places as the S3 toy."""
    z4 = cyclic(4)
    places = (order_two_place(z4, 2), order_two_place(z4, 2))
    return GlobalDatum(2, z4, places, cyclic(2), cyclic_three_cocycle(2))


def toy_abelian_rho() -> GroupHom:
    """The reduction Z/4 -> Z/2."""
    return make_hom(cyclic(4), cyclic(2), [0, 1, 0, 1])


def _identity_place(n: int, normalization: int) -> PlaceDatum:
    """An unramified place: local group Z/n mapped identically onto itself."""
    zn = cyclic(n)
    return PlaceDatum(
        local_group=zn,
        embedding=identity_hom(zn),
        inertia=(0,),
        h2_generator=carry_cocycle(n),
        inv_normalization=normalization,
    )


def balanced_reciprocity_datum() -> GlobalDatum:
    """Two identity places on Z/3 with opposite normalizations: +1 and -1.

    Every global 2-class restricts identically to both places, so the
    invariants cancel and reciprocity holds.
    """
    z3 = cyclic(3)
    places = (_identity_place(3, 1), _identity_place(3, 2))
    return GlobalDatum(3, z3, places, z3, cyclic_three_cocycle(3))


def broken_reciprocity_datum() -> GlobalDatum:
    """The deliberately broken twin: both normalizations +1.

    The carry generator of H^2(Z/3, Z/3) restricts nontrivially to both
    places and 1 + 1 != 0 mod 3, so validation must reject this datum.
    """
    z3 = cyclic(3)
    places = (_identity_place(3, 1), _identity_place(3, 1))
    return GlobalDatum(3, z3, places, z3, cyclic_three_cocycle(3))


def quaternion_datum() -> GlobalDatum:
    """Global group Q8 with one totally ramified place at the center.

    Every class of H^2(Q8, Z/2) restricts to zero on the center, so
    reciprocity holds with a single place; the cube of each nontrivial
    character of Q8 is a coboundary, so the gluing applies.  The resulting
    invariant is 1/2 for all three surjections Q8 -> Z/2: the global
    trivialization of the pulled-back 3-cocycle restricts to the nonzero
    class on the center.
    """
    q8 = quaternion8()
    place = order_two_place(q8, 4)  # the center {1, -1}
    return GlobalDatum(2, q8, (place,), cyclic(2), cyclic_three_cocycle(2))


def quaternion_rho(which: str = "i") -> GroupHom:
    """The character of Q8 detecting i, j, or k."""
    maps = {
        "i": [0, 1, 0, 1, 0, 1, 0, 1],
        "j": [0, 0, 1, 1, 0, 0, 1, 1],
        "k": [0, 1, 1, 0, 0, 1, 1, 0],
    }
    return make_hom(quaternion8(), cyclic(2), maps[which])


def one_place_fiber_datum() -> GlobalDatum:
    """A single identity place on Z/2, used for fiber-counting demonstrations.

    Not reciprocity-balanced; torsor_build does not require validation.
    """
    place = _identity_place(2, 1)
    z2 = place.local_group
    return GlobalDatum(2, z2, (place,), z2, cyclic_three_cocycle(2))

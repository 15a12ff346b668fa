"""Arithmetic Chern-Simons invariants on finite global/local Galois data.

A GlobalDatum is a simulated arithmetic scheme: a finite global group (the
role of the fundamental group of the punctured ring of integers), a list of
places, each with a local group, an embedding into the global group, an
inertia subgroup, and a declared degree-2 generator with its local invariant
normalization, plus a gauge group A and a 3-cocycle c on it.

Two invariant pipelines are implemented independently:

* the gluing pipeline (``cs_invariant``): canonical unramified local
  trivializations through the inertia-free quotients, one ramified global
  trivialization, and the sum of local invariants of the discrepancies;
* the torsor pipeline (``cs_section`` plus ``section_class``): the global
  section restricted to the places, compared against the unramified
  basepoint inside the fiber torsor and pushed out through the declared
  invariant maps via cohomology coordinates.

Well-definedness of both rests on the reciprocity law, which is validated,
never assumed.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

import numpy as np

from .cochains import (
    Cochain,
    NonCocycle,
    NontrivialClass,
    classify,
    cohomology,
    differential,
    pullback,
    solve_differential,
    _factored_differential,
    _factored_with_generator,
    _generator_values,
)
from .groups import FiniteGroup, GModuleAction, GroupHom, NotAHomError, conjugation_hom, cyclic, make_hom
from .ops import carry_cocycle, cup, cyclic_three_cocycle, homotopy, identity_character
from .zmod import MAX_MODULUS, ComputationError, ModuleOverZn, _check_modulus, _element, solve_linear


class NotInGeneratedSummandError(ComputationError):
    """A class has a component outside the place's declared cyclic summand."""


class NotUnramifiedTrivializableError(ComputationError):
    """Restriction does not kill inertia, or the inertia-free quotient has
    nonvanishing H^2 or H^3, so no canonical trivialization exists."""


class NoGlobalTrivializationError(ComputationError):
    """The pulled-back 3-cocycle is nontrivial on the global group."""


class LocallyNontrivialError(ComputationError):
    """Some local pullback of the 3-cocycle is not even locally a coboundary."""


class NoLiftError(ComputationError):
    """No lift to Z/m^2 exists; the obstruction class is nontrivial."""


@dataclass(frozen=True)
class InvariantValue:
    """An element numerator/n of the n-torsion of Q/Z, stored mod n."""

    numerator: int
    modulus: int

    def __post_init__(self):
        numerator, modulus = _element(self.numerator, "numerator"), _check_modulus(self.modulus)
        object.__setattr__(self, "numerator", numerator % modulus)
        object.__setattr__(self, "modulus", modulus)

    def __add__(self, other: "InvariantValue") -> "InvariantValue":
        self._check(other)
        return InvariantValue(self.numerator + other.numerator, self.modulus)

    def __sub__(self, other: "InvariantValue") -> "InvariantValue":
        self._check(other)
        return InvariantValue(self.numerator - other.numerator, self.modulus)

    def __neg__(self) -> "InvariantValue":
        return InvariantValue(-self.numerator, self.modulus)

    def _check(self, other):
        if self.modulus != other.modulus:
            raise ValueError("invariant values with different moduli")

    def __str__(self):
        return f"{self.numerator}/{self.modulus}"


def scalar_coefficients(group: FiniteGroup, n: int) -> GModuleAction:
    """Z/n with the trivial action, the coefficients of every CS cochain."""
    return GModuleAction.trivial(group, ModuleOverZn.cyclic(n))


@dataclass(frozen=True)
class PlaceDatum:
    """One simulated place: local group, embedding, inertia, declared H^2 data.

    ``inv_normalization`` is the declared value n * inv(h2_generator), a unit
    mod n: it normalizes the isomorphism H^2(G_v, Z/n) ⊇ <[h2_generator]> with
    the n-torsion of Q/Z.
    """

    local_group: FiniteGroup
    embedding: GroupHom
    inertia: tuple[int, ...]
    h2_generator: Cochain
    inv_normalization: int

    def __post_init__(self):
        object.__setattr__(self, "inertia", tuple(sorted({_element(x, "inertia element") for x in self.inertia})))
        object.__setattr__(self, "inv_normalization", _element(self.inv_normalization, "inv_normalization"))
        if self.embedding.dom != self.local_group:
            raise ValueError("embedding must start at the local group")
        if self.h2_generator.group != self.local_group or self.h2_generator.degree != 2:
            raise ValueError("h2_generator must be a degree-2 cochain on the local group")
        if any(not 0 <= x < self.local_group.order for x in self.inertia):
            raise ValueError("inertia elements out of range")

    @property
    def modulus(self) -> int:
        return self.h2_generator.module.modulus

    def restrict(self, f: Cochain) -> Cochain:
        """Pull a cochain on the global group back along the embedding."""
        return pullback(self.embedding, f)


@dataclass(frozen=True)
class GlobalDatum:
    """Simulated global arithmetic: global group, places, gauge data."""

    modulus: int
    global_group: FiniteGroup
    places: tuple[PlaceDatum, ...]
    gauge_group: FiniteGroup
    three_cocycle: Cochain

    def __post_init__(self):
        object.__setattr__(self, "modulus", _element(self.modulus, "modulus"))
        object.__setattr__(self, "places", tuple(self.places))
        if self.three_cocycle.group != self.gauge_group or self.three_cocycle.degree != 3:
            raise ValueError("three_cocycle must be a degree-3 cochain on the gauge group")
        if self.three_cocycle.module.modulus != self.modulus:
            raise ValueError("three_cocycle modulus must match the datum modulus")
        for p in self.places:
            if p.embedding.cod != self.global_group:
                raise ValueError("place embedding must land in the global group")
            if p.modulus != self.modulus:
                raise ValueError("place modulus must match the datum modulus")


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""
    witness: object = None


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[CheckResult]:
        return [c for c in self.checks if not c.passed]

    def format(self) -> str:
        lines = []
        for c in self.checks:
            status = "PASS" if c.passed else "FAIL"
            lines.append(f"{status} {c.name}" + (f": {c.detail}" if c.detail else ""))
        lines.append("result: " + ("valid" if self.passed else "INVALID"))
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Local invariants.  Pipeline A solves on the cochain level, never touching
# cohomology coordinates; pipeline B (h2_class_value) goes through them.


def local_invariant(x: Cochain, place: PlaceDatum) -> InvariantValue:
    """Value of a local 2-cocycle class under the place's declared invariant.

    Writes [x] = k [h2_generator] by solving d(beta) + k h2_generator = x
    exactly, against the place's cached ``_factored_with_generator``, so
    only the first call on a place eliminates.  The solve reads only x's
    generator rows, which decide it because x and the generator are both
    cocycles.  k is unique mod n because the declared generator has order
    n.  Returns k * inv_normalization / n.
    """
    n = place.modulus
    if x.coeffs != place.h2_generator.coeffs or x.degree != 2:
        raise ValueError("expected a degree-2 cochain on the place's local group")
    if not differential(x).is_zero():
        raise ValueError("local invariants are defined on cocycles only")
    sol = _factored_with_generator(place.h2_generator).solve(_generator_values(x))
    if sol is None:
        raise NotInGeneratedSummandError(
            "class lies outside the cyclic summand generated by the declared h2_generator"
        )
    k = int(sol.particular[-1])
    return InvariantValue(k * place.inv_normalization, n)


def h2_class_value(place: PlaceDatum, coords: tuple[int, ...]) -> InvariantValue:
    """Invariant of an H^2 class given by coordinates (the torsor pipeline).

    Solves k * coords(generator) == coords componentwise in the invariant
    factor decomposition of H^2(G_v, Z/n).
    """
    n = place.modulus
    h2 = cohomology(place.h2_generator.coeffs, 2)
    gen_coords = h2.coordinates(place.h2_generator)
    if len(coords) != len(gen_coords):
        raise ValueError("coordinate length mismatch")
    if not gen_coords:
        return InvariantValue(0, n)
    rows = np.array(
        [[(n // d) * g] for d, g in zip(h2.invariant_factors, gen_coords)], dtype=np.int64
    )
    rhs = np.array(
        [(n // d) * y for d, y in zip(h2.invariant_factors, coords)], dtype=np.int64
    )
    sol = solve_linear(rows, rhs, n)
    if sol is None:
        raise NotInGeneratedSummandError(
            "coordinates lie outside the declared cyclic summand"
        )
    return InvariantValue(int(sol.particular[0]) * place.inv_normalization, n)


def _generates_summand(factors: tuple[int, ...], coords: tuple[int, ...], n: int) -> bool:
    """Whether the class generates a cyclic direct summand of order n.

    True iff some homomorphism f onto Z/n sends the class to 1, i.e.
    gcd_j(coords_j * n / d_j) is coprime to n; such an f retracts onto the
    class and forces its order to be n.
    """
    return gcd(n, *((c % d) * (n // d) for d, c in zip(factors, coords))) == 1


def validate_global_datum(datum: GlobalDatum) -> ValidationReport:
    """Check every PlaceDatum invariant and the reciprocity law.

    Total: failures are reported, not raised.  Reciprocity is checked on
    every generator of H^2 of the global group: the local invariants of its
    restrictions must sum to zero.
    """
    checks: list[CheckResult] = []
    n = datum.modulus

    dcoc = differential(datum.three_cocycle)
    checks.append(
        CheckResult(
            "gauge three_cocycle is a cocycle",
            dcoc.is_zero(),
        )
    )

    for i, place in enumerate(datum.places):
        tag = f"place {i}"
        try:
            make_hom(place.embedding.dom, place.embedding.cod, place.embedding.map)
        except NotAHomError as exc:
            checks.append(CheckResult(f"{tag}: embedding is a hom", False, str(exc)))
        else:
            checks.append(CheckResult(f"{tag}: embedding is an injective hom", place.embedding.is_injective()))
        checks.append(
            CheckResult(
                f"{tag}: inertia is a subgroup",
                place.local_group.is_subgroup(place.inertia),
                detail=str(list(place.inertia)),
            )
        )
        checks.append(
            CheckResult(
                f"{tag}: inertia is normal (needed for the unramified quotient)",
                place.local_group.is_normal(place.inertia),
            )
        )
        # local invariants compare restrictions of global classes, which
        # live on Z/n with the trivial action, with the generator
        coeffs = place.h2_generator.coeffs
        if coeffs.module != ModuleOverZn.cyclic(n) or not coeffs.is_trivial():
            ok, detail = False, f"coefficients are not Z/{n} with the trivial action"
        elif not isinstance(gen_class := classify(place.h2_generator), NontrivialClass):
            ok = False
            detail = f"classified as {type(gen_class).__name__}" + (
                f" with witness {gen_class.witness}" if isinstance(gen_class, NonCocycle) else ""
            )
        else:
            h2 = cohomology(coeffs, 2)
            ok = _generates_summand(h2.invariant_factors, gen_class.coordinates, n)
            detail = f"H^2 factors {h2.invariant_factors}, coordinates {gen_class.coordinates}"
        checks.append(CheckResult(f"{tag}: h2_generator generates an order-{n} summand", ok, detail=detail))
        checks.append(
            CheckResult(
                f"{tag}: inv_normalization is a unit mod {n}",
                gcd(place.inv_normalization, n) == 1,
                detail=str(place.inv_normalization),
            )
        )

    if all(c.passed for c in checks):
        coeffs = scalar_coefficients(datum.global_group, n)
        h2_glob = cohomology(coeffs, 2)
        # every invariant of the datum solves d a = c o rho on these
        # coefficients, whatever rho is, so the datum's d^2 is factored here
        _factored_differential(coeffs, 2)
        for i, z in enumerate(h2_glob.generators):
            try:
                values = [local_invariant(p.restrict(z), p) for p in datum.places]
            except NotInGeneratedSummandError as exc:
                checks.append(
                    CheckResult(
                        f"reciprocity on H^2 generator {i}",
                        False,
                        detail=f"restriction escapes a declared summand: {exc}",
                        witness=z,
                    )
                )
                continue
            total = sum((v.numerator for v in values), 0) % n
            checks.append(
                CheckResult(
                    f"reciprocity on H^2 generator {i}",
                    total == 0,
                    detail=f"local invariants {[str(v) for v in values]} sum to {total}/{n}",
                    witness=z if total else None,
                )
            )
    else:
        checks.append(
            CheckResult("reciprocity", False, detail="skipped: place invariants failed")
        )

    return ValidationReport(tuple(checks))


# ---------------------------------------------------------------------------
# Torsor fiber machinery.  A fiber member is a tuple of degree-2 cochains, one
# per place in ``datum.places`` order.


def local_pullbacks(datum: GlobalDatum, rho: GroupHom) -> tuple[GroupHom, ...]:
    """The per-place local homomorphisms rho composed with the embeddings."""
    return tuple(rho.compose(p.embedding) for p in datum.places)


def torsor_build(datum: GlobalDatum, rho_locals) -> tuple[Cochain, ...]:
    """The canonical member of the fiber over (c o rho_v)_v.

    One degree-2 cochain per place, in ``datum.places`` order: the canonical
    solver output of d(x_v) = c o rho_v.  The fiber is a torsor under the
    product of the places' H^2 groups.  LocallyNontrivialError if some place
    pullback is not a coboundary.
    """
    members = []
    for place, rho_v in zip(datum.places, rho_locals, strict=True):
        if rho_v.dom != place.local_group or rho_v.cod != datum.gauge_group:
            raise ValueError("local homomorphism does not match the place")
        c_v = pullback(rho_v, datum.three_cocycle)
        x = solve_differential(c_v.coeffs, 2, c_v)
        if x is None:
            raise LocallyNontrivialError(
                "the 3-cocycle pullback is not a coboundary on the local group"
            )
        members.append(x)
    return tuple(members)


def element_in_fiber(datum: GlobalDatum, rho_locals, x: tuple[Cochain, ...]) -> bool:
    """Membership in d^{-1}(c o rho_S): d of each component matches exactly."""
    per_place = zip(datum.places, rho_locals, x, strict=True)
    # a list, not a generator, so that a length mismatch raises even past a failed component
    return all([differential(comp) == pullback(rho_v, datum.three_cocycle) for _, rho_v, comp in per_place])


def torsor_map(datum: GlobalDatum, avec, x: tuple[Cochain, ...], rho_locals) -> tuple[Cochain, ...]:
    """The action of a = (a_v) in A^S: x_v -> x_v + h_{a_v} o rho_v.

    h_{a_v} is the conjugation homotopy of the 3-cocycle, so the output lies
    in the fiber over (c o Ad_{a_v} o rho_v)_v; composition holds up to local
    coboundaries.
    """
    return tuple(
        comp + pullback(rho_v, homotopy([a_v], datum.three_cocycle))
        for a_v, _, rho_v, comp in zip(avec, datum.places, rho_locals, x, strict=True)
    )


def torsor_difference(datum: GlobalDatum, x: tuple[Cochain, ...], y: tuple[Cochain, ...]):
    """The H^2_S element moving y to x: per-place class coordinates of x_v - y_v.

    Both arguments must lie in the same fiber; the difference of components
    is then a cocycle, classified through H^2 of each local group.
    """
    out = []
    for place, a, b in zip(datum.places, x, y, strict=True):
        diff = a - b
        if not differential(diff).is_zero():
            raise ValueError("torsor elements do not lie in the same fiber")
        h2 = cohomology(place.h2_generator.coeffs, 2)
        out.append(h2._coordinates(diff))
    return tuple(out)


def pushout_value(datum: GlobalDatum, coords_per_place) -> InvariantValue:
    """Sum map composed with the declared invariants on an H^2_S element."""
    total = InvariantValue(0, datum.modulus)
    for place, coords in zip(datum.places, coords_per_place, strict=True):
        total = total + h2_class_value(place, coords)
    return total


# ---------------------------------------------------------------------------
# The gluing pipeline.


def unramified_trivialization(datum: GlobalDatum, place: PlaceDatum, rho: GroupHom) -> Cochain:
    """The canonical b_v: trivialize c o rho_v through the inertia-free quotient.

    Requires rho o i_v to kill the inertia subgroup and the quotient to have
    vanishing H^2 and H^3 mod n, which is what makes the class of b_v
    canonical; otherwise NotUnramifiedTrivializableError.
    """
    n = datum.modulus
    rho_v = rho.compose(place.embedding)
    if any(rho_v(h) != 0 for h in place.inertia):
        raise NotUnramifiedTrivializableError(
            "the restriction does not kill inertia, so it has no unramified factorization"
        )
    if not place.local_group.is_normal(place.inertia):
        raise NotUnramifiedTrivializableError("inertia is not normal in the local group")
    quot, proj = place.local_group.quotient_by(place.inertia)
    bar_map = np.zeros(quot.order, dtype=np.int64)
    bar_map[proj.map] = rho_v.map
    rho_bar = make_hom(quot, datum.gauge_group, bar_map)
    qcoeffs = scalar_coefficients(quot, n)
    for deg in (2, 3):
        if not cohomology(qcoeffs, deg).is_trivial():
            raise NotUnramifiedTrivializableError(
                f"H^{deg} of the inertia-free quotient does not vanish mod {n}, "
                "so no canonical trivialization exists"
            )
    c_q = pullback(rho_bar, datum.three_cocycle)
    b_bar = solve_differential(qcoeffs, 2, c_q)
    if b_bar is None:  # H^3 = 0 makes every 3-cocycle a coboundary
        raise NotUnramifiedTrivializableError(
            "the pulled-back 3-cocycle is not a coboundary on the inertia-free quotient"
        )
    return pullback(proj, b_bar)


def unramified_basepoint(datum: GlobalDatum, rho: GroupHom) -> tuple[Cochain, ...]:
    """The tuple of canonical unramified trivializations (b_v)_v."""
    return tuple(unramified_trivialization(datum, p, rho) for p in datum.places)


def _global_trivialization(datum: GlobalDatum, rho: GroupHom, solver_seed) -> Cochain:
    """A global a with da = c o rho: the canonical solution, plus, with a
    ``solver_seed``, a uniform element of Z^2 made from the rows of the
    cached factorization's kernel k (one small product, no elimination)."""
    if rho.dom != datum.global_group or rho.cod != datum.gauge_group:
        raise ValueError("rho must map the global group to the gauge group")
    cpull = pullback(rho, datum.three_cocycle)
    coeffs = cpull.coeffs
    a = solve_differential(coeffs, 2, cpull)
    if a is None:
        raise NoGlobalTrivializationError(
            "the pulled-back 3-cocycle is nontrivial on the global group"
        )
    if solver_seed is not None:
        k = _factored_differential(coeffs, 2).k
        c = np.random.default_rng(solver_seed).integers(0, coeffs.modulus, len(k))
        a = a + Cochain(coeffs, 2, c @ k)
    return a


def cs_invariant(datum: GlobalDatum, rho: GroupHom, *, solver_seed: int | None = None) -> InvariantValue:
    """The Chern-Simons invariant by local-vs-global gluing.

    Pulls the 3-cocycle back along rho, trivializes it globally (da = c o rho)
    and canonically at each place through the inertia-free quotient (b_v),
    then sums the local invariants of b_v - r_v(a).  The result does not
    depend on the choice of a (reciprocity, validated separately) and is
    constant on conjugation orbits of rho.

    ``solver_seed`` adds a seeded element of Z^2 (a global 2-cocycle) to the
    canonical a, so it picks another global trivialization; the value must
    not change.
    """
    a = _global_trivialization(datum, rho, solver_seed)
    total = InvariantValue(0, datum.modulus)
    for place in datum.places:
        b_v = unramified_trivialization(datum, place, rho)
        total = total + local_invariant(b_v - place.restrict(a), place)
    return total


# ---------------------------------------------------------------------------
# The torsor pipeline.


def cs_section(datum: GlobalDatum, rho: GroupHom, *, solver_seed: int | None = None) -> tuple[Cochain, ...]:
    """The global section: solve d(beta) = c o rho, restrict to every place.

    Its class in the pushout torsor does not depend on the choice of beta:
    two choices differ by a global 2-cocycle, whose restrictions have local
    invariants summing to zero by reciprocity.  ``solver_seed`` adds a seeded
    element of Z^2 to the canonical beta, which changes the components but
    not that class.
    """
    beta = _global_trivialization(datum, rho, solver_seed)
    return tuple(p.restrict(beta) for p in datum.places)


def section_class(datum: GlobalDatum, rho: GroupHom, *, solver_seed: int | None = None) -> InvariantValue:
    """The section's class in the pushout, written at the unramified basepoint.

    Computed entirely through the torsor machinery (fiber difference and
    cohomology coordinates), independently of the gluing pipeline; on data
    where both apply the two agree.
    """
    return _section_value(datum, rho, cs_section(datum, rho, solver_seed=solver_seed))


def _section_value(datum: GlobalDatum, rho: GroupHom, section: tuple[Cochain, ...]) -> InvariantValue:
    """The pushout class of ``section`` written at the unramified basepoint."""
    base = unramified_basepoint(datum, rho)
    return pushout_value(datum, torsor_difference(datum, base, section))


def invariant_section_class(datum: GlobalDatum, rho: GroupHom) -> InvariantValue:
    """The class as an element of the invariant-section torsor over the orbit.

    Finite-scale reading of the inverse limit over the conjugation orbit of
    rho: computes the section class at every conjugate and demands they all
    agree, returning the common value.  A disagreement (impossible on data
    satisfying reciprocity) raises.
    """
    values = {
        section_class(datum, conjugation_hom(datum.gauge_group, a).compose(rho))
        for a in datum.gauge_group.elements()
    }
    if len(values) != 1:
        raise ValueError(f"section classes disagree along the orbit: {sorted(str(v) for v in values)}")
    return values.pop()


# ---------------------------------------------------------------------------
# Kummer-style trivializations.


def _require_standard_cyclic(group: FiniteGroup, what: str) -> int:
    m = group.order
    if group != cyclic(m):
        raise ValueError(f"{what} must be the standard cyclic group table of order {m}")
    return m


def kummer_trivialization(f: GroupHom, lift: GroupHom | None = None) -> tuple[Cochain, Cochain]:
    """Trivialize f*(alpha cup delta alpha) from a lift of f to Z/m^2.

    f must land in the standard cyclic group Z/m.  With lift=None a lift
    f~: dom -> Z/m^2 of f is found by solving d(u) = -f*(delta alpha) (the
    lift exists iff that obstruction class is a coboundary; otherwise
    NoLiftError, which is meaningful: the obstruction is the pulled-back
    Bockstein class).  Returns

        b = s o f - f~   (valued in ker(Z/m^2 -> Z/m), identified with Z/m)
        t = -f*(alpha) cup b   with   d(t) = f*(alpha cup delta alpha)

    both equalities exact on the nose.
    """
    m = _require_standard_cyclic(f.cod, "the codomain of f")
    if m * m > MAX_MODULUS:
        raise ValueError(f"need m^2 <= {MAX_MODULUS}")
    dom = f.dom
    coeffs = scalar_coefficients(dom, m)
    carry_pull = pullback(f, carry_cocycle(m))
    if lift is None:
        u = solve_differential(coeffs, 1, Cochain(coeffs, 2, -carry_pull.values))
        if u is None:
            raise NoLiftError(
                f"no lift of f to Z/{m * m} exists: the pulled-back Bockstein "
                "class is nontrivial"
            )
        lift_map = (f.map + m * u.values.reshape(-1)) % (m * m)
        lift = make_hom(dom, cyclic(m * m), lift_map)
    elif not isinstance(lift, GroupHom):
        raise ValueError("lift must be a GroupHom or None")
    else:
        _require_standard_cyclic(lift.cod, "the codomain of the lift")
        if lift.cod.order != m * m or lift.dom != dom:
            raise ValueError(f"lift must map the same domain into Z/{m * m}")
        if ((lift.map % m) != f.map).any():
            raise ValueError("lift does not reduce to f")
    # lift.map % m == f.map (checked above, or by construction), so m divides diff
    diff = (f.map - lift.map) % (m * m)
    b = Cochain(coeffs, 1, (diff // m).reshape(-1, 1))
    if differential(b) != carry_pull:
        raise NoLiftError("d(b) != f*(carry): the lift is not a homomorphism lifting f")
    t = -cup(pullback(f, identity_character(m)), b)
    if differential(t) != pullback(f, cyclic_three_cocycle(m)):
        raise NoLiftError("d(t) != f*(alpha cup delta alpha) for the trivialization from the lift")
    return b, t

"""Chern-Simons invariants of finite global/local data, both pipelines.

The invariant of a representation rho of the global group measures the
discrepancy between the canonical unramified trivializations of the
pulled-back 3-cocycle at the places and one ramified global trivialization.
Reciprocity (validated, never assumed) makes the number independent of
every choice involved.
"""

from arithcs import (
    classify,
    cohomology,
    conjugation_hom,
    cs_invariant,
    cs_section,
    cyclic,
    make_hom,
    section_class,
    torsor_build,
    torsor_difference,
    trivial_hom,
    unramified_basepoint,
    validate_global_datum,
)
from arithcs.cstheory import NoGlobalTrivializationError, local_pullbacks, pushout_value
from arithcs.fixtures import (
    one_place_fiber_datum,
    quaternion_datum,
    quaternion_rho,
    toy_global_datum,
    toy_rho,
)

# --- the quaternion datum: a nonzero invariant -----------------------------
# Global group Q8, one totally ramified place at the center {1, -1}, gauge
# group Z/2 with the standard 3-cocycle.  Every H^2 class of Q8 restricts to
# zero on the center, so reciprocity holds with a single place.
datum = quaternion_datum()
report = validate_global_datum(datum)
print("quaternion datum valid:", report.passed)

for which in ("i", "j", "k"):
    rho = quaternion_rho(which)
    value = cs_invariant(datum, rho)
    print(f"  CS invariant of the character detecting {which}: {value}")

# The value is well-defined: conjugation and the choice of global
# trivialization (solver_seed adds a seeded global 2-cocycle) cannot move it.
rho = quaternion_rho("i")
print("  stable under re-solves:", {str(cs_invariant(datum, rho, solver_seed=s)) for s in range(5)})
print("  torsor pipeline agrees:", section_class(datum, rho) == cs_invariant(datum, rho))
print("  trivial representation gives:", cs_invariant(datum, trivial_hom(datum.global_group, datum.gauge_group)))

# --- the S3 toy: a genuine conjugation orbit --------------------------------
toy = toy_global_datum()
rho = toy_rho()
orbit = [conjugation_hom(toy.gauge_group, a).compose(rho) for a in toy.gauge_group.elements()]
distinct = {tuple(r.map.tolist()) for r in orbit}
values = {str(cs_invariant(toy, r)) for r in orbit}
print(f"\nS3 toy: {len(distinct)} distinct conjugates of rho, invariant values {values}")

# The section itself is a tuple of local restrictions of one global
# trivialization; its class in the pushout torsor is measured against the
# canonical unramified basepoint.
section = cs_section(toy, rho)
base = unramified_basepoint(toy, rho)
print("section class:", pushout_value(toy, torsor_difference(toy, base, section)))

# The fiber over (c o rho_v)_v is a torsor under the product of local H^2
# groups; torsor_build returns its canonical member, one cochain per place,
# and the acting group is read off each place's H^2.
member = torsor_build(toy, local_pullbacks(toy, rho))
factors = tuple(cohomology(p.h2_generator.coeffs, 2).invariant_factors for p in toy.places)
print("H^2_S invariant factors per place:", factors)

# --- the closed-case boundary ------------------------------------------------
# When the pulled-back 3-cocycle is NOT globally trivial, the gluing does not
# apply: this models the closed situation, where the invariant would have to
# be read off from places jointly detecting degree-3 classes.  The library
# refuses rather than guessing:
fiber = one_place_fiber_datum()
ident = make_hom(cyclic(2), cyclic(2), [0, 1])
print("\npullback on Z/2 classifies as:", type(classify(fiber.three_cocycle)).__name__)
try:
    cs_invariant(fiber, ident)
except NoGlobalTrivializationError as exc:
    print("cs_invariant correctly refuses:", exc)

"""Self-check battery behind the `verify` subcommand.

Runs the package's structural identities on randomized inputs with a fixed
seed and reports one line per check.  Exact arithmetic throughout: every
comparison is on-the-nose equality, never a tolerance.
"""

from __future__ import annotations

from math import gcd

import numpy as np

from .cochains import Cochain, classify, cohomology, differential, pullback
from .cstheory import (
    cs_invariant,
    kummer_trivialization,
    section_class,
    validate_global_datum,
)
from .fixtures import (
    balanced_reciprocity_datum,
    broken_reciprocity_datum,
    quaternion_datum,
    quaternion_rho,
    toy_abelian_datum,
    toy_abelian_rho,
    toy_global_datum,
    toy_rho,
)
from .groups import (
    GModuleAction,
    conjugation_hom,
    cyclic,
    dihedral4,
    klein_four,
    make_hom,
    quaternion8,
    symmetric3,
)
from .ops import carry_cocycle, conjugate, cup, cyclic_three_cocycle, homotopy
from .zmod import ModuleOverZn


def _corpus():
    return [
        ("Z/2", cyclic(2)),
        ("Z/3", cyclic(3)),
        ("Z/4", cyclic(4)),
        ("Z/2xZ/2", klein_four()),
        ("Z/6", cyclic(6)),
        ("S3", symmetric3()),
        ("D4", dihedral4()),
        ("Q8", quaternion8()),
    ]


def run_checks(seed: int):
    """Yield (name, passed, detail) triples; deterministic for a given seed."""
    rng = np.random.default_rng(seed)
    samples = 10

    for name, group in _corpus():
        coeffs = GModuleAction.trivial(group, ModuleOverZn.cyclic(4))
        ok = True
        for degree in range(0, 4):
            for _ in range(samples):
                f = Cochain.random(coeffs, degree, rng)
                if not differential(differential(f, degree_cap=5), degree_cap=5).is_zero():
                    ok = False
        yield f"d(d(f)) = 0 on {name}", ok, f"{samples} random cochains per degree 0..3"

    for name, group in _corpus():
        coeffs = GModuleAction.trivial(group, ModuleOverZn.cyclic(4))
        ok = True
        for degree in (1, 2, 3):
            for _ in range(samples):
                f = Cochain.random(coeffs, degree, rng)
                a = int(rng.integers(0, group.order))
                lhs = homotopy([a], differential(f)) + differential(homotopy([a], f))
                if lhs != conjugate(f, a) - f:
                    ok = False
        yield f"homotopy identity on {name}", ok, "h(a,df) + d h(a,f) = f^a - f"

    ok = True
    for _, group in _corpus()[:6]:
        coeffs = GModuleAction.trivial(group, ModuleOverZn.cyclic(4))
        for _ in range(samples):
            p, q = [(1, 1), (1, 2), (2, 1)][int(rng.integers(0, 3))]
            x = Cochain.random(coeffs, p, rng)
            y = Cochain.random(coeffs, q, rng)
            if differential(cup(x, y)) != cup(differential(x), y) + (-1) ** p * cup(x, differential(y)):
                ok = False
    yield "Leibniz rule for cup products", ok, ""

    ok = all(
        carry_cocycle(n)(i, j).tolist() == [1 if i + j >= n else 0]
        for n in (2, 3, 4, 5)
        for i in range(n)
        for j in range(n)
    )
    yield "Bockstein of the identity character is the carry table", ok, "n = 2..5"

    ok = True
    for n in (2, 3, 4):
        h3 = cohomology(GModuleAction.trivial(cyclic(n), ModuleOverZn.cyclic(n)), 3)
        cls = classify(cyclic_three_cocycle(n))
        if h3.invariant_factors != (n,) or gcd(cls.coordinates[0], n) != 1:
            ok = False
    yield "H^3(Z/n, Z/n) generated by alpha cup delta(alpha)", ok, "n = 2, 3, 4"

    f = make_hom(cyclic(4), cyclic(2), [0, 1, 0, 1])
    b, t = kummer_trivialization(f, make_hom(cyclic(4), cyclic(4), [0, 1, 2, 3]))
    ok = (
        b.values.reshape(-1).tolist() == [0, 0, 1, 1]
        and differential(t) == pullback(f, cyclic_three_cocycle(2))
    )
    yield "Kummer trivialization signs", ok, "d(-alpha cup b) = pullback of alpha cup delta(alpha)"

    datum = toy_global_datum()
    report = validate_global_datum(datum)
    yield "toy datum validates", report.passed, ""
    rho = toy_rho()
    base = cs_invariant(datum, rho)
    ok = all(
        cs_invariant(datum, conjugation_hom(datum.gauge_group, a).compose(rho)) == base
        for a in datum.gauge_group.elements()
    )
    yield "invariant constant on the conjugation orbit", ok, f"value {base}"
    ok = section_class(datum, rho) == base
    yield "gluing and torsor pipelines agree (toy)", ok, ""

    qd = quaternion_datum()
    yield "quaternion datum validates", validate_global_datum(qd).passed, ""
    qrho = quaternion_rho("i")
    qv = cs_invariant(qd, qrho)
    ok = qv.numerator == 1 and all(
        cs_invariant(qd, qrho, solver_seed=s) == qv for s in range(5)
    )
    yield "quaternion invariant is 1/2 for seeded global trivializations", ok, ""
    yield "quaternion pipelines agree", section_class(qd, qrho) == qv, ""

    ad = toy_abelian_datum()
    ok = validate_global_datum(ad).passed and cs_invariant(ad, toy_abelian_rho()) == section_class(
        ad, toy_abelian_rho()
    )
    yield "abelian toy datum consistent", ok, ""

    yield "balanced reciprocity fixture passes", validate_global_datum(balanced_reciprocity_datum()).passed, ""
    rep = validate_global_datum(broken_reciprocity_datum())
    ok = not rep.passed and any(c.witness is not None for c in rep.failures())
    yield "broken reciprocity fixture rejected with a witness", ok, ""


def run_verification(seed: int) -> bool:
    all_ok = True
    for name, ok, detail in run_checks(seed):
        status = "ok" if ok else "FAIL"
        line = f"{status:4s} {name}"
        if detail:
            line += f" ({detail})"
        print(line)
        all_ok = all_ok and ok
    print("verification " + ("passed" if all_ok else "FAILED"))
    return all_ok

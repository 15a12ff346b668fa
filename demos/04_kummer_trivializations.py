"""Kummer-style trivializations from lifts mod m^2.

For a character f: N -> Z/m, any homomorphism lift f~: N -> Z/m^2 of f
yields b = s o f - f~ with d(b) = f*(delta alpha), and then
t = -f*(alpha) cup b trivializes f*(alpha cup delta alpha) exactly.
When no lift exists the obstruction is the pulled-back Bockstein class;
the library reports that as NoLiftError rather than failing silently.
"""

from arithcs import (
    carry_cocycle,
    classify,
    cyclic,
    cyclic_three_cocycle,
    differential,
    kummer_trivialization,
    make_hom,
    pullback,
    trivial_hom,
)
from arithcs.cstheory import NoLiftError

# The reduction Z/4 -> Z/2 lifts (the identity of Z/4 is a lift), so the
# trivialization exists; under ker(Z/4 -> Z/2) = Z/2 the cochain b is
# (0, 0, 1, 1):
f = make_hom(cyclic(4), cyclic(2), [0, 1, 0, 1])
b, t = kummer_trivialization(f, make_hom(cyclic(4), cyclic(4), [0, 1, 2, 3]))
print("b =", b.values.reshape(-1).tolist())
print("d(b) = f*(delta alpha):", differential(b) == pullback(f, carry_cocycle(2)))
print("d(t) = f*(alpha cup delta alpha):", differential(t) == pullback(f, cyclic_three_cocycle(2)))

# The automatic search solves d(u) = -f*(delta alpha) and assembles the lift:
b_auto, t_auto = kummer_trivialization(f)
print("auto-lifted b =", b_auto.values.reshape(-1).tolist())
print("auto t still works:", differential(t_auto) == pullback(f, cyclic_three_cocycle(2)))

# The identity Z/2 -> Z/2 does not lift to Z/4: the obstruction
# f*(delta alpha) is the nontrivial class of H^2(Z/2, Z/2).
ident = make_hom(cyclic(2), cyclic(2), [0, 1])
print("\nobstruction class:", classify(pullback(ident, carry_cocycle(2))))
try:
    kummer_trivialization(ident)
except NoLiftError as exc:
    print("no lift, as it must be:", exc)

# Trivial characters lift trivially:
b0, t0 = kummer_trivialization(trivial_hom(cyclic(6), cyclic(3)))
print("\ntrivial character gives b = 0, t = 0:", b0.is_zero() and t0.is_zero())

# The same works at odd primes; here mod 3 with domain Z/9:
f9 = make_hom(cyclic(9), cyclic(3), [0, 1, 2, 0, 1, 2, 0, 1, 2])
b9, t9 = kummer_trivialization(f9)
print("mod 3 trivialization checks:", differential(t9) == pullback(f9, cyclic_three_cocycle(3)))

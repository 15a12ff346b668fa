"""The benchmark's workloads: inputs made from the seed, the operations of one
pass, and an independent check of every answer.

Each workload builds its inputs in ``__init__`` (timed as set-up), may warm
caches in ``warm`` (also set-up), and lists the operations of one pass in
``ops``.  An operation is a closure; ``check`` re-verifies its first-pass
answer without the code path that produced it, and later passes must give
answers with the same fingerprint.  The library is always reached through
module attributes looked up at call time (``A.cochains.differential``), so
the tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import os
import subprocess
import sys
import traceback

import numpy as np

import oracles


class Mismatch(Exception):
    """An answer that disagrees with its independent check."""


class Op:
    __slots__ = ("name", "run", "check", "malformed")

    def __init__(self, name, run, check, malformed=False):
        self.name = name
        self.run = run
        self.check = check
        self.malformed = malformed


def expect(cond, message):
    if not cond:
        raise Mismatch(message)


def fingerprint(x):
    """A hashable digest of an answer, used to compare passes bit for bit."""
    if isinstance(x, np.ndarray):
        return (x.shape, hashlib.blake2b(np.ascontiguousarray(x).data, digest_size=16).digest())
    if hasattr(x, "values") and hasattr(x, "degree"):
        return ("cochain", x.degree, fingerprint(x.values))
    if hasattr(x, "invariant_factors") and hasattr(x, "generators"):
        return ("cohomology", tuple(x.invariant_factors), tuple(fingerprint(g) for g in x.generators))
    if isinstance(x, (tuple, list)):
        return tuple(fingerprint(v) for v in x)
    if isinstance(x, (str, bytes, int, float, bool)) or x is None:
        return x
    return str(x)


def relabel(A, group, rng):
    """The group with its non-identity elements renamed by a seeded permutation.

    Returns (new group, new_of_old) where new_of_old[x] is the new name of
    the old element x.
    """
    m = group.order
    old_of_new = np.concatenate([[0], 1 + rng.permutation(m - 1)]).astype(np.int64)
    new_of_old = np.argsort(old_of_new)
    mul = new_of_old[np.asarray(group.mul)[np.ix_(old_of_new, old_of_new)]]
    return A.groups.make_group(mul), new_of_old


def all_homs(A, dom, cod):
    """Every homomorphism dom -> cod, by images of a generating set."""
    gens, span = [], {0}
    for x in range(dom.order):
        if x in span:
            continue
        gens.append(x)
        span = {0}
        frontier = [0]
        while frontier:
            y = frontier.pop()
            for g in gens:
                z = dom.op(y, g)
                if z not in span:
                    span.add(z)
                    frontier.append(z)
    out = []
    for images in itertools.product(range(cod.order), repeat=len(gens)):
        mp, frontier, ok = {0: 0}, [0], True
        while frontier and ok:
            y = frontier.pop()
            for g, a in zip(gens, images):
                z, v = dom.op(y, g), cod.op(mp[y], a)
                if z not in mp:
                    mp[z] = v
                    frontier.append(z)
                elif mp[z] != v:
                    ok = False
                    break
        if not ok:
            continue
        try:
            out.append(A.groups.make_hom(dom, cod, [mp[i] for i in range(dom.order)]))
        except A.groups.NotAHomError:
            continue
    return out


def lru_caches(A):
    """Every functools.lru_cache object defined in the package."""
    found = {}
    for name, mod in sorted(sys.modules.items()):
        if name != "arithcs" and not name.startswith("arithcs."):
            continue
        for obj in vars(mod).values():
            wrapped = getattr(obj, "__wrapped__", None)
            if hasattr(obj, "cache_clear") and getattr(wrapped, "__module__", "").startswith("arithcs"):
                found[id(obj)] = obj
    return list(found.values())


class CacheStats:
    """Hits and lookups of the package's lru caches, kept across cache_clear."""

    def __init__(self, caches):
        self.caches = caches
        self.hits = self.lookups = 0
        self.rebase()

    def rebase(self):
        self.base = [c.cache_info() for c in self.caches]

    def collect(self):
        for cache, base in zip(self.caches, self.base):
            info = cache.cache_info()
            self.hits += info.hits - base.hits
            self.lookups += info.hits + info.misses - base.hits - base.misses
        self.rebase()

    def reset(self):
        self.hits = self.lookups = 0
        self.rebase()


class Workload:
    cache_policy = "warm after set-up"
    nominal_pass_s: float  # seconds of one pass, measured on a 2-core machine
    min_passes = 1

    def __init__(self, A, seed, root):
        self.A = A
        self.rng = np.random.default_rng([seed, self.seed_tag])
        self.seed = seed
        self.root = root
        self.caches = lru_caches(A)
        self.cache_stats = CacheStats(self.caches)

    def warm(self):
        pass

    def before_op(self, op):
        pass

    def clear_caches(self):
        """Empty every lru_cache of the package, keeping the hit counts."""
        self.cache_stats.collect()
        for cache in self.caches:
            cache.cache_clear()
        self.cache_stats.rebase()

    @contextlib.contextmanager
    def first_pass(self):
        yield

    def close(self):
        pass


# ---------------------------------------------------------------------------
# cohomology_cold


class CohomologyCold(Workload):
    """H^i(G, M) on a fixed list of cases, with every lru_cache cleared first.

    The groups keep the library's own element order and the seed only
    orders the cases: renaming the elements changes the elimination's cost
    by up to 25% on one case, which would make the workload measure the
    labelling instead of the code.  The expected invariant factors come
    from classical integral homology.
    """

    nominal_pass_s = 9.0
    seed_tag = 1
    cache_policy = "cold: every lru_cache cleared before each case"

    def __init__(self, A, seed, root):
        super().__init__(A, seed, root)
        G = A.groups
        Zn = A.zmod.ModuleOverZn
        base = {
            "Z/4": G.cyclic(4), "S3": G.symmetric3(), "Z/6": G.cyclic(6), "D4": G.dihedral4(),
            "Q8": G.quaternion8(), "Z/8": G.cyclic(8),
        }
        cases = []
        for name, modulus in (("Z/4", 4), ("S3", 3), ("Z/6", 6), ("D4", 2), ("Q8", 4), ("Z/8", 2)):
            group = base[name]
            expected = oracles.cohomology_factors(oracles.integral_homology(name, 3), 3, [modulus])
            cases.append((f"H3({name};Z/{modulus})", G.GModuleAction.trivial(group, Zn.cyclic(modulus)), 3, expected))
        for left, right, modulus in (("Q8", "Z/2", 2), ("D4", "Z/2", 4), ("S3", "Z/3", 3)):
            group = G.direct_product(base[left], G.cyclic(int(right[2:])))
            homology = oracles.product_homology(
                oracles.integral_homology(left, 2), oracles.integral_homology(right, 2), 2
            )
            expected = oracles.cohomology_factors(homology, 2, [modulus])
            cases.append((f"H2({left}x{right};Z/{modulus})", G.GModuleAction.trivial(group, Zn.cyclic(modulus)), 2, expected))
        # Z/6 acting on Z/4 through Z/6 -> Z/2, the generator acting by -1
        hom = G.make_hom(base["Z/6"], G.cyclic(2), np.arange(6) % 2)
        twisted = G.GModuleAction.by_character(hom, Zn.cyclic(4), 3)
        cases.append(("H3(Z/6;Z/4 twisted)", twisted, 3, oracles.cyclic_twisted_factors(6, 3, 4, 3)))
        # mixed orders: Z/2 + Z/4 with trivial action
        mixed = G.GModuleAction.trivial(base["S3"], Zn(4, (2, 4)))
        expected = oracles.cohomology_factors(oracles.integral_homology("S3", 3), 3, [2, 4])
        cases.append(("H3(S3;Z/2+Z/4)", mixed, 3, expected))
        self.cases = [cases[i] for i in self.rng.permutation(len(cases))]

    def before_op(self, op):
        self.clear_caches()

    def ops(self):
        A = self.A
        out = []
        for name, coeffs, degree, expected in self.cases:
            def run(coeffs=coeffs, degree=degree):
                return A.cochains.cohomology(coeffs, degree)

            def check(h, expected=expected, name=name):
                got = tuple(sorted(int(d) for d in h.invariant_factors))
                expect(got == tuple(sorted(expected)), f"{name}: invariant factors {got}, classical {expected}")
                expect(len(h.generators) == len(got), f"{name}: {len(h.generators)} generators for {len(got)} factors")
                for j, gen in enumerate(h.generators):
                    expect(A.cochains.differential(gen, degree_cap=5).is_zero(), f"{name}: generator {j} is not a cocycle")

            out.append(Op(name, run, check))
        return out


# ---------------------------------------------------------------------------
# cs_sweep


class CsSweep(Workload):
    """A sweep over representations of two scaled data, caches warm.

    Datum 24: Q8 x Z/3 with one totally ramified place at the center,
    gauge group Z/2; the invariant is 1/2 on the i, j, k characters and 0 on
    the trivial one.  Datum 16: Q8 x Z/2 with two identical places at the
    center, gauge group Z/2; the places cancel, so every invariant is 0,
    and rho^*(alpha cup delta alpha) = chi^3 is a coboundary exactly when
    chi is trivial on the Z/2 factor (Kuenneth), otherwise the library must
    refuse with NoGlobalTrivializationError.

    As in cohomology_cold the groups keep the library's element order; the
    seed orders the sweep and picks the rerun, its solver seed and the
    orbit representation.
    """

    nominal_pass_s = 18.5
    # ten calls on the order-24 datum take 1.4 s or more, so with one pass
    # op_tail_ms (the 11th largest latency) would rest on a single call
    min_passes = 2
    seed_tag = 2
    cache_policy = "warm: each datum validated once during set-up"

    def __init__(self, A, seed, root):
        super().__init__(A, seed, root)
        G = A.groups
        gauge = G.cyclic(2)
        c = A.ops.cyclic_three_cocycle(2)
        place = A.fixtures.order_two_place
        self.data = []
        # datum 24: center (-1, 0) of Q8 x Z/3 is element 4 * 3 + 0
        g24 = G.direct_product(G.quaternion8(), G.cyclic(3))
        d24 = A.cstheory.GlobalDatum(2, g24, (place(g24, 12),), gauge, c)
        homs = all_homs(A, g24, gauge)
        self.data.append(("Q8xZ3", d24, [(h, "1/2" if h.map.any() else "0/2") for h in homs]))
        # datum 16: center (-1, 0) of Q8 x Z/2 is element 8; (1, z) is element 1
        g16 = G.direct_product(G.quaternion8(), G.cyclic(2))
        d16 = A.cstheory.GlobalDatum(2, g16, (place(g16, 8), place(g16, 8)), gauge, c)
        homs = all_homs(A, g16, gauge)
        self.data.append(("Q8xZ2", d16, [(h, "refused" if h(1) else "0/2") for h in homs]))
        self.plans = []
        for name, datum, rhos in self.data:
            order = [rhos[i] for i in self.rng.permutation(len(rhos))]
            solvable = [r for r in order if r[1] != "refused"]
            rerun = solvable[int(self.rng.integers(len(solvable)))]
            orbit = solvable[int(self.rng.integers(len(solvable)))]
            self.plans.append((name, datum, order, rerun, orbit, int(self.rng.integers(1, 1 << 30))))
        self.captured: list = []
        self.current = None

    def warm(self):
        for _, datum, *_ in self.data:
            self.A.cstheory.validate_global_datum(datum)

    @contextlib.contextmanager
    def first_pass(self):
        """Keep each global solve of the first pass, to check da == c o rho."""
        cst = self.A.cstheory
        inner = cst.solve_differential
        self.captured = []

        def capture(coeffs, degree, target, **kwargs):
            result = inner(coeffs, degree, target, **kwargs)
            self.captured.append((self.current, target, result))
            return result

        cst.solve_differential = capture
        try:
            yield
        finally:
            cst.solve_differential = inner

    def before_op(self, op):
        self.current = op.name

    def _call(self, fn, *args, **kwargs):
        try:
            return str(fn(*args, **kwargs))
        except self.A.cstheory.NoGlobalTrivializationError:
            return "refused"

    def ops(self):
        A = self.A
        cst = A.cstheory
        out = []
        for name, datum, order, rerun, orbit, solver_seed in self.plans:
            def validate(datum=datum):
                return cst.validate_global_datum(datum).format()

            def check_valid(report, name=name):
                expect(report.endswith("result: valid"), f"{name}: datum failed validation:\n{report}")

            out.append(Op(f"{name}:validate", validate, check_valid))
            for k, (rho, expected) in enumerate(order):
                for fn in ("cs_invariant", "section_class"):
                    op_name = f"{name}:{fn}:{k}"

                    def run(fn=fn, datum=datum, rho=rho):
                        return self._call(getattr(cst, fn), datum, rho)

                    out.append(Op(op_name, run, self._checker(op_name, datum, rho, expected)))
            rho, expected = rerun

            def run_seeded(datum=datum, rho=rho, s=solver_seed):
                return self._call(cst.cs_invariant, datum, rho, solver_seed=s)

            op_name = f"{name}:cs_invariant:seeded"
            out.append(Op(op_name, run_seeded, self._checker(op_name, datum, rho, expected)))
            rho, expected = orbit

            def run_orbit(datum=datum, rho=rho):
                return self._call(cst.invariant_section_class, datum, rho)

            out.append(Op(f"{name}:invariant_section_class", run_orbit, self._checker(None, datum, rho, expected)))
        return out

    def _checker(self, op_name, datum, rho, expected):
        A = self.A

        def check(got):
            expect(got == expected, f"{op_name or 'orbit'}: got {got}, expected {expected}")
            if op_name is None:
                return
            m = datum.global_group.order
            c = datum.three_cocycle.values
            r = rho.map
            g1, g2, g3 = np.meshgrid(np.arange(m), np.arange(m), np.arange(m), indexing="ij")
            k = datum.gauge_group.order
            c_rho = c[(r[g1.ravel()] * k + r[g2.ravel()]) * k + r[g3.ravel()]]
            solves = [(t, a) for who, t, a in self.captured if who == op_name and t.group == datum.global_group]
            expect(len(solves) == 1, f"{op_name}: {len(solves)} global solves")
            target, a = solves[0]
            expect(np.array_equal(target.values, c_rho), f"{op_name}: solved against something other than c o rho")
            if expected == "refused":
                expect(a is None, f"{op_name}: a trivialization exists where Kuenneth says none does")
            else:
                expect(a is not None and np.array_equal(A.cochains.differential(a).values, c_rho),
                       f"{op_name}: da != c o rho")

        return check


# ---------------------------------------------------------------------------
# cochain_ops


class CochainOps(Workload):
    """Table-gather cochain operations on groups of order 12 to 24.

    No operation here reaches zmod.  The seed renames group elements and
    picks the cochains, moduli and group elements.
    """

    nominal_pass_s = 0.14
    seed_tag = 3
    cache_policy = "warm: one untimed pass during set-up"
    spot = 48  # tuples re-evaluated from the defining formula per answer

    def __init__(self, A, seed, root):
        super().__init__(A, seed, root)
        G = A.groups
        Zn = A.zmod.ModuleOverZn
        rng = self.rng
        s3, q8 = G.symmetric3(), G.quaternion8()
        sign = [0, 1, 1, 0, 0, 1]
        # (name, G/Z_k, k, a character G -> Z/k as a function of the old
        # element q * k + z)
        specs = [
            ("S3xZ2", s3, 2, lambda x: sign[x // 2]),
            ("Q8xZ2", q8, 2, lambda x: x % 2),
            ("S3xZ3", s3, 3, lambda x: x % 3),
            ("Q8xZ3", q8, 3, lambda x: x % 3),
        ]
        self.items = []
        for name, quot, k, character in specs:
            group, new_of_old = relabel(A, G.direct_product(quot, G.cyclic(k)), rng)
            m = group.order
            old_of_new = np.argsort(new_of_old)
            n = int(rng.choice([2, 3, 4, 5, 6]))
            coeffs = G.GModuleAction.trivial(group, Zn.cyclic(n))
            chi = G.make_hom(group, G.cyclic(k), [character(int(old_of_new[g])) for g in range(m)])
            proj = G.make_hom(group, quot, [int(old_of_new[g]) // k for g in range(m)])
            top = 4 if m == 12 else 3
            f = {d: A.cochains.Cochain.random(coeffs, d, rng) for d in range(1, top + 1)}
            item = dict(name=name, group=group, coeffs=coeffs, f=f, chi=chi, proj=proj,
                        quotient_cochain=A.cochains.Cochain.random(
                            G.GModuleAction.trivial(quot, Zn.cyclic(n)), 3, rng),
                        elements=[int(x) for x in rng.integers(1, m, size=3)])
            if m == 12:
                # Z/4 on which the sign of S3 (chi) acts by -1
                twist = G.GModuleAction.by_character(chi, Zn.cyclic(4), 3)
                item["twisted"] = {d: A.cochains.Cochain.random(twist, d, rng) for d in range(1, 5)}
                item["scalar4"] = A.cochains.Cochain.random(G.GModuleAction.trivial(group, Zn.cyclic(4)), 1, rng)
            self.items.append(item)
        self.spot_rng = np.random.default_rng([seed, self.seed_tag, 1])

    def warm(self):
        for op in self.ops():
            op.run()

    def ops(self):
        A = self.A
        C, O = A.cochains, A.ops
        out = []
        for it in self.items:
            name, f = it["name"], it["f"]
            a, b, c = it["elements"]
            for d in sorted(f):
                out.append(Op(f"{name}:d{d}", lambda x=f[d]: C.differential(x, degree_cap=5),
                              self._check_differential(f[d])))
            for p, q in ((1, 2), (2, 1)):
                out.append(Op(f"{name}:cup{p}{q}", lambda x=f[p], y=f[q]: O.cup(x, y),
                              self._check_cup(f[p], f[q])))
            alpha = C.pullback(it["chi"], O.identity_character(it["chi"].cod.order))
            carry = C.pullback(it["chi"], O.carry_cocycle(it["chi"].cod.order))
            out.append(Op(f"{name}:bockstein1", lambda x=alpha: O.bockstein(x), self._check_carry(it["chi"])))
            out.append(Op(f"{name}:bockstein2", lambda x=carry: O.bockstein(x), self._check_bockstein(carry)))
            for d, e in ((2, a), (3, b)):
                out.append(Op(f"{name}:conj{d}", lambda x=f[d], e=e: O.conjugate(x, e),
                              self._check_conjugate(f[d], e, c)))
            for k, avec in ((1, [a]), (2, [a, b]), (3, [a, b, c])):
                out.append(Op(f"{name}:homotopy{k}", lambda x=f[3], v=avec: O.homotopy(v, x),
                              self._check_homotopy(f[3], avec)))
            g = it["quotient_cochain"]
            out.append(Op(f"{name}:pullback", lambda r=it["proj"], x=g: C.pullback(r, x),
                          self._check_pullback(it["proj"], g)))
            if "twisted" in it:
                t = it["twisted"]
                for d in sorted(t):
                    out.append(Op(f"{name}:twisted:d{d}", lambda x=t[d]: C.differential(x, degree_cap=5),
                                  self._check_differential(t[d])))
                out.append(Op(f"{name}:twisted:conj3", lambda x=t[3], e=a: O.conjugate(x, e),
                              self._check_conjugate(t[3], a, b)))
                out.append(Op(f"{name}:twisted:homotopy1", lambda x=t[3], v=[a]: O.homotopy(v, x),
                              self._check_homotopy(t[3], [a])))
                out.append(Op(f"{name}:twisted:homotopy2", lambda x=t[3], v=[a, b]: O.homotopy(v, x),
                              self._check_homotopy(t[3], [a, b])))
                out.append(Op(f"{name}:twisted:cup12", lambda x=it["scalar4"], y=t[2]: O.cup(x, y),
                              self._check_cup(it["scalar4"], t[2])))
        return out

    # -- checks -------------------------------------------------------------

    def _table(self, f):
        mats = None if f.coeffs.is_trivial() else np.asarray(f.coeffs.matrices).tolist()
        return f.values.tolist(), np.asarray(f.group.mul).tolist(), mats, list(f.module.orders)

    def _tuples(self, m, degree):
        return [tuple(int(x) for x in self.spot_rng.integers(0, m, size=degree)) for _ in range(self.spot)]

    def _check_differential(self, f):
        C = self.A.cochains

        def check(df):
            values, mul, mats, orders = self._table(f)
            m = len(mul)
            for tup in self._tuples(m, f.degree + 1):
                want = oracles.differential_at(values, mul, mats, orders, f.degree, tup)
                expect(df(*tup).tolist() == want, f"d f differs from the formula at {tup}")
            if m ** (f.degree + 2) <= 2_000_000:
                expect(C.differential(df, degree_cap=6).is_zero(), "d(d f) != 0")

        return check

    def _check_cup(self, x, y):
        C, O = self.A.cochains, self.A.ops

        def check(xy):
            xv, mul, _, _ = self._table(x)
            yv, _, mats, orders = self._table(y)
            for tup in self._tuples(len(mul), x.degree + y.degree):
                want = oracles.cup_at(xv, yv, mul, mats, orders, x.degree, y.degree, tup)
                expect(xy(*tup).tolist() == want, f"cup differs from the formula at {tup}")
            sign = -1 if x.degree % 2 else 1
            lhs = C.differential(xy, degree_cap=5)
            rhs = O.cup(C.differential(x), y) + sign * O.cup(x, C.differential(y))
            expect(lhs == rhs, "Leibniz rule fails")

        return check

    def _check_carry(self, chi):
        def check(beta):
            n = chi.cod.order
            v = np.asarray(chi.map)
            carry = (v[:, None] + v[None, :] >= n).astype(np.int64).reshape(-1, 1)
            expect(np.array_equal(beta.values, carry), "Bockstein of chi^* alpha is not the carry table")

        return check

    def _check_bockstein(self, f):
        def check(beta):
            n = f.module.modulus
            values, mul, _, _ = self._table(f)
            for tup in self._tuples(len(mul), f.degree + 1):
                lifted = oracles.differential_at(values, mul, None, [n * n], f.degree, tup)[0]
                expect(lifted % n == 0 and beta(*tup).tolist() == [lifted // n],
                       f"Bockstein differs from (d lift)/n at {tup}")

        return check

    def _check_conjugate(self, f, a, b):
        O = self.A.ops

        def check(fa):
            values, mul, mats, orders = self._table(f)
            inverse = np.asarray(f.group.inverse).tolist()
            for tup in self._tuples(len(mul), f.degree):
                want = oracles.conjugate_at(values, mul, inverse, mats, orders, a, tup)
                expect(fa(*tup).tolist() == want, f"f^a differs from the formula at {tup}")
            ab = f.group.op(a, b)
            expect(O.conjugate(fa, b) == O.conjugate(f, ab), "(f^a)^b != f^(ab)")

        return check

    def _check_homotopy(self, f, avec):
        C, O = self.A.cochains, self.A.ops

        def check(h):
            values, mul, _, orders = self._table(f)
            inverse = np.asarray(f.group.inverse).tolist()
            n_out = f.degree - len(avec)
            tuples = self._tuples(len(mul), n_out) if n_out else [()]
            if f.coeffs.is_trivial():
                for tup in tuples:
                    want = oracles.homotopy_at(values, mul, inverse, orders, avec, n_out, tup)
                    expect(h(*tup).tolist() == want, f"homotopy differs from the shuffle-path formula at {tup}")
            if len(avec) == 1:
                a = avec[0]
                lhs = O.homotopy([a], C.differential(f)) + C.differential(h)
                expect(lhs == O.conjugate(f, a) - f, "h_{a,df} + d h_{a,f} != f^a - f")

        return check

    def _check_pullback(self, rho, f):
        C = self.A.cochains

        def check(pf):
            m = rho.dom.order
            for tup in self._tuples(m, f.degree):
                expect(pf(*tup).tolist() == f(*(rho(g) for g in tup)).tolist(),
                       f"pullback differs from f(rho g) at {tup}")
            expect(C.differential(pf) == C.pullback(rho, C.differential(f)), "d does not commute with pullback")

        return check


# ---------------------------------------------------------------------------
# cli


MALFORMED_OK = {2, 3, 4}


def _has_traceback(stderr: str) -> bool:
    return "Traceback (most recent call last)" in stderr


class Cli(Workload):
    """One fresh ``python -m arithcs.cli`` process per request.

    A fixed mix over the shipped fixtures and seed-made cochain documents,
    plus three malformed requests whose documented outcome is exit code 2,
    3 or 4 without a traceback.
    """

    nominal_pass_s = 4.0
    seed_tag = 4
    cache_policy = "cold: a fresh process per request"

    def __init__(self, A, seed, root, workdir, env):
        super().__init__(A, seed, root)
        self.env = env
        G, C, O, D = A.groups, A.cochains, A.ops, A.dataio
        Zn = A.zmod.ModuleOverZn
        rng = self.rng
        os.makedirs(workdir, exist_ok=True)
        self.workdir = workdir

        def write(name, obj):
            path = os.path.join(workdir, name + ".json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(D.serialize_object(obj))
            return os.path.relpath(path, root)

        def group(base, k=None):
            g = base if k is None else G.direct_product(base, G.cyclic(k))
            return relabel(A, g, rng)

        d4, _ = group(G.dihedral4())
        g24, new24 = group(G.quaternion8(), 3)
        g18, _ = group(G.symmetric3(), 3)
        g12, _ = group(G.symmetric3(), 2)
        scalar = lambda g, n: G.GModuleAction.trivial(g, Zn.cyclic(n))
        n = int(rng.choice([2, 3, 4]))
        old_of_new = np.argsort(new24)
        chi = G.make_hom(g24, G.cyclic(3), [int(old_of_new[x]) % 3 for x in range(24)])
        bock_in = C.pullback(chi, O.carry_cocycle(3)) + C.differential(
            C.Cochain.random(scalar(g24, 3), 1, rng))
        files = {
            "group": write("group", d4),
            "cup_left": write("cup_left", C.Cochain.random(scalar(g24, n), 1, rng)),
            "cup_right": write("cup_right", C.Cochain.random(scalar(g24, n), 2, rng)),
            "bockstein": write("bockstein", bock_in),
            "conjugate": write("conjugate", C.Cochain.random(scalar(g24, n), 3, rng)),
            "homotopy": write("homotopy", C.Cochain.random(scalar(g18, n), 3, rng)),
            "coboundary": write("coboundary", C.differential(C.Cochain.random(scalar(g12, n), 1, rng))),
        }
        fx = lambda name: os.path.join("fixtures", name + ".json")
        e24 = int(rng.integers(1, 24))
        e18 = [int(x) for x in rng.integers(1, 18, size=2)]
        self.requests = [
            (["invariant", "--datum", fx("toy_datum"), "--rho", fx("toy_rho")], 0),
            (["invariant", "--datum", fx("quaternion_datum"), "--rho", fx("quaternion_rho_i"),
              "--seed", str(int(rng.integers(0, 1000)))], 0),
            (["section", "--datum", fx("toy_abelian_datum"), "--rho", fx("toy_abelian_rho")], 0),
            (["validate", "--datum", fx("balanced_reciprocity")], 0),
            (["validate", "--datum", fx("broken_reciprocity")], 2),
            (["cohomology", "--group", files["group"], "--modulus", "2", "--degree", "2"], 0),
            (["classify", "--cochain", fx("three_cocycle_mod2")], 0),
            (["classify", "--cochain", fx("carry_mod3")], 0),
            (["classify", "--cochain", files["coboundary"]], 0),
            (["cup", "--left", files["cup_left"], "--right", files["cup_right"]], 0),
            (["bockstein", "--cochain", files["bockstein"]], 0),
            (["conjugate", "--cochain", files["conjugate"], "--element", str(e24)], 0),
            (["homotopy", "--cochain", files["homotopy"], "--elements", ",".join(map(str, e18))], 0),
            (["kummer", "--hom", fx("z4_to_z2")], 0),
            (["cohomology", "--group", files["group"], "--modulus", "1", "--degree", "2"], None),
            (["conjugate", "--cochain", files["conjugate"], "--element", "99"], None),
            (["invariant", "--datum", fx("toy_datum"), "--rho", fx("quaternion_rho_i")], None),
        ]
        self.in_process_mode = False
        self.reference: dict = {}

    def before_op(self, op):
        # in-process requests start from empty caches, as a fresh process does
        if self.in_process_mode:
            self.clear_caches()

    def close(self):
        for name in os.listdir(self.workdir):
            os.remove(os.path.join(self.workdir, name))
        os.rmdir(self.workdir)

    def subprocess_call(self, argv):
        """(exit code, stdout, traceback on stderr) of one fresh CLI process."""
        proc = subprocess.run([sys.executable, "-m", "arithcs.cli", *argv], cwd=self.root, env=self.env,
                              capture_output=True, text=True, timeout=120)
        return proc.returncode, proc.stdout, _has_traceback(proc.stderr)

    def in_process_call(self, argv):
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.A.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:  # noqa: BLE001 - an uncaught error is what a user would see as a traceback
            traceback.print_exc(file=err)
            code = 1
        return code, out.getvalue(), _has_traceback(err.getvalue())

    def ops(self):
        call = self.in_process_call if self.in_process_mode else self.subprocess_call
        out = []
        for k, (argv, code) in enumerate(self.requests):
            out.append(Op(f"{k}:{argv[0]}", lambda argv=argv: call(argv), self._checker(k, argv, code),
                          malformed=code is None))
        return out

    def _checker(self, k, argv, code):
        def check(got):
            # the reference is the same request made the other way:
            # in-process for a subprocess answer and the reverse
            if k not in self.reference:
                other = self.subprocess_call if self.in_process_mode else self.in_process_call
                self.reference[k] = other(argv)
            ref = self.reference[k]
            rc, stdout, tb = got
            if code is None:
                expect(rc in MALFORMED_OK and not tb,
                       f"malformed request {' '.join(argv)}: exit {rc}, traceback={tb}")
                return
            expect(rc == code and not tb, f"{' '.join(argv)}: exit {rc}, expected {code}, traceback={tb}")
            expect(stdout == ref[1] and rc == ref[0], f"{' '.join(argv)}: stdout differs between a fresh process and in-process")

        return check


def make(name, A, seed, root, workdir, env):
    if name == "cohomology_cold":
        return CohomologyCold(A, seed, root)
    if name == "cs_sweep":
        return CsSweep(A, seed, root)
    if name == "cochain_ops":
        return CochainOps(A, seed, root)
    if name == "cli":
        return Cli(A, seed, root, workdir, env)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("cohomology_cold", "cs_sweep", "cochain_ops", "cli")

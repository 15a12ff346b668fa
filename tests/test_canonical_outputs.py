"""Byte-identity gate for the canonical outputs of the elimination layer.

Every test hashes deterministic outputs with sha256 and compares the digest
with one recorded from the reference implementation: the Howell and
diagonal forms with their transforms, the particular solutions and kernel
bases of the solvers, the triangular lattice bases with the coordinates of
their members (and which vectors lie outside), cohomology generators and
coordinates, the preimage that ``classify`` reports for a coboundary, and
the CLI's stdout on the shipped fixtures.  A refactor of ``zmod`` or
``cochains`` must keep every digest.  A change that alters a canonical
output on purpose updates the digest here and says so in the change log."""

import hashlib
import pathlib
from math import gcd

import numpy as np
import pytest

from arithcs.cli import main
from arithcs.cochains import Coboundary, Cochain, classify, cohomology, differential, solve_differential
from arithcs.groups import GModuleAction, cyclic, make_hom, symmetric3
from arithcs.zmod import (
    ModuleOverZn,
    _howell_rows,
    diagonalize_mod,
    lattice_basis,
    lattice_coordinates,
    solve_linear,
)

FIX = pathlib.Path(__file__).resolve().parent.parent / "fixtures"

MODULI = (2, 3, 4, 6, 8, 9, 12, 30, 64, 65536)


class Digest:
    """sha256 over a sequence of integer arrays, shapes included."""

    def __init__(self):
        self._h = hashlib.sha256()

    def add(self, *items):
        for item in items:
            if item is None:
                self._h.update(b"None;")
                continue
            a = np.ascontiguousarray(np.asarray(item, dtype=np.int64))
            self._h.update(repr(a.shape).encode())
            self._h.update(a.tobytes())
        return self

    def hexdigest(self) -> str:
        return self._h.hexdigest()


def random_matrices(n: int, count: int, seed: int):
    """Seeded matrices with 0-8 rows and 1-8 columns, some with dependent rows."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        rows, cols = int(rng.integers(0, 9)), int(rng.integers(1, 9))
        mat = rng.integers(0, n, size=(rows, cols))
        if rows > 1 and rng.random() < 0.3:
            mat[-1] = (mat[0] * int(rng.integers(0, n))) % n
        yield mat


HOWELL = {
    2: "eea8e86f1d842bdb8c19b398371490d48e672f4cd95cdbf3621aa67cbee4134f",
    3: "ccbf532ae3b80cf6b96938ed57305060114b763f07319e32b0dee1542f753469",
    4: "1b3dbecaf229942fd760d02f8fd2aead31b6071a358b19464dd7e593faed8f72",
    6: "8277f80ab5e155036bc4a241a86e5f3956e77e66d5675111d0cb9032ae92936d",
    8: "aacf0edba1a7cb190ea51b74c0ae3a2b97f23ac503d0b7f8c86634c1233a403b",
    9: "5b95ad9fa03933ea6d82addf2b2654f97270fc8be6859814143e818a9bf947e9",
    12: "27a825e1407812b48901e735576763d567f0365a9da5528a264ea78b86b56c84",
    30: "f8dc6d82eb687e3c0a62862ab4e5a070290bbd813c13023378c89ffb9edcad33",
    64: "b7626c54c24e079d75f53b90ecd0778b81730f55815f14b914291d1aeaadeb2c",
    65536: "c2d147d82aeed94d1b831f9a8f96c239fdc29e29ece11fa77732311d8fff8a6b",
}


@pytest.mark.parametrize("n", MODULI)
def test_howell_rows_digest(n):
    d = Digest()
    nonunit_pivots = 0
    for mat in random_matrices(n, 60, seed=1000 + n):
        h, u, k = _howell_rows(mat, n)
        assert (u @ mat % n == h).all()
        d.add(h, u, k)
        # a pivot that is not a unit makes the elimination append its
        # annihilator multiple as an extra row
        nonunit_pivots += sum(gcd(int(row[row != 0][0]), n) > 1 for row in h)
    assert nonunit_pivots or n in (2, 3)
    assert d.hexdigest() == HOWELL[n]


DIAGONAL = {
    2: "32c863f9f037ce66bb265f468ed0a720d203df310bc6b21afcf8fb86ab19f880",
    3: "35e7ea4b30e00609a6c2c8643baaa12a158e487c749e4afdb137747920afa614",
    4: "36352a6d26b70730d22fe197a12ae592c7c40272ac3bdb1580feab5cfbbc8023",
    6: "daff8c4782301a147e971a8addf045a79b40b16a7697b1313c552f4945bc3f74",
    8: "0025e625eae5392e9d8a60589affb9ded5e8c956dbf9778961fe1fd28b760d5a",
    9: "63e6667efa76b099c1242d282d9540e4235ce9a76d141718dc08c2ad22cad746",
    12: "d3ed30a5c3f79f27b0401322a68fd282669a2666e6f657293d4994b7df452d30",
    30: "9b3a3f245444cdf83d23b0222b74acc7562c3746dd9745bb0d1aeea55387166b",
    64: "36d96300678848e5da752ee7aba0806ed0b8f844c13d3768c1fb6698846d7c00",
    65536: "f37cb3feb1c824a70b14f7b9db3e05cd2c18e480db57bfdbc58ad19b8f599bdd",
}


@pytest.mark.parametrize("n", MODULI)
def test_diagonalize_mod_digest(n):
    d = Digest()
    for mat in random_matrices(n, 60, seed=2000 + n):
        factors, v, w = diagonalize_mod(mat, n)
        d.add(factors, v, w)
    assert d.hexdigest() == DIAGONAL[n]


SOLVE = {
    2: "0defc46d34d876ee9ea76620f1d4a160b98c44f21369ce78b85b85bbe833dd90",
    3: "10dc3b0a8ba9b3523eb0cab891d9015d2af656a8ac8100e78aac8929a7a1f6e1",
    4: "12de54c6721c241346e52f63df7761e6344e77cd620b6f56ae3cfd3ccb27f79b",
    6: "924cfc8fee094a1563f76d4ea66fede10b7aa50046b8ebc6ac34577965071b5b",
    8: "9de1775f872ad796b912ed3d2ed40306439e2960cbeebdb0d05a19b059971c41",
    9: "c5e674b2aa8b4f5aa71e651b8ec20c307d23981c21c3e1a923c82db1fc669caa",
    12: "42cfb9a969122a493e9b81c021cdd01d84be73f3261a195d79a1f3971bee6ace",
    30: "7a8093054edd3778dc93e424dafbb8902a1e28f2079adcb81e775b2e98928f58",
    64: "bdd9882e58a0b2c1a32cf54ae1f39dcfda269dc87877df794beb7cf85e284efc",
    65536: "9e255a8f671b9aa1df1291d5728a62543a8e0bb75a99eb435846b6bb7522fca0",
}


@pytest.mark.parametrize("n", MODULI)
def test_solve_linear_digest(n):
    rng = np.random.default_rng(3000 + n)
    d = Digest()
    for mat in random_matrices(n, 60, seed=3000 + n):
        if mat.shape[0] == 0:
            continue
        x0 = rng.integers(0, n, size=mat.shape[1])
        # half the right-hand sides are solvable by construction
        b = mat @ x0 % n if rng.random() < 0.5 else rng.integers(0, n, size=mat.shape[0])
        sol = solve_linear(mat, b, n)
        if sol is None:
            d.add(None)
        else:
            d.add(sol.particular, sol.kernel_basis)
    assert d.hexdigest() == SOLVE[n]


LATTICE = {
    2: "86732908f635783ce7f180b66883f2cd0d7bc2a2694663b4499d69f8b0db12fc",
    3: "3016d2f953feeabea58b312fff092a04b119bc584a730a5402055e5f55c40f09",
    4: "03ff959d9d86e87130b7d995c9f20d4c08df2b3443c986ae5c14bc876791b722",
    6: "275bc4a008bb0b133a3706ac4d21001e5a276fa795d574cab34718452c1a8f69",
    8: "52510537f91e10650e3dfdbcc7eb05baf88e2061bef1a39e3ab7f9738cf06329",
    9: "8ca07b5227d74df826c530c5233a81e56c76677fc3463e1d192fced36e64969d",
    12: "a93a5218a4e5aca1a9f1d24853c1b5f222c64cc7d4c0c81cb7a18825126df2d6",
    30: "11cc09c0a3fecf9fd3d8ae6894f33b6e639b69950e27dbb1afd70923bb615d1f",
    64: "127ead50c901b5fa408c9a83d1d776020147f1eda72abc21795e7257a2c2d295",
    65536: "c312612ec615d89f5c4348fa64b3d56bf9b8507444a2b520c0c117da59cb82eb",
}


@pytest.mark.parametrize("n", MODULI)
def test_lattice_basis_and_coordinates_digest(n):
    rng = np.random.default_rng(6000 + n)
    d = Digest()
    for mat in random_matrices(n, 60, seed=6000 + n):
        width = mat.shape[1]
        basis = lattice_basis(mat, width, n)
        # members of the lattice, then random vectors, most of them outside it
        members = rng.integers(0, n, size=(3, width)) @ basis % n
        d.add(basis, lattice_coordinates(basis, members, n))
        for x in rng.integers(0, n, size=(3, width)):
            try:
                d.add(lattice_coordinates(basis, x[None, :], n))
            except ValueError:
                d.add(None)
    assert d.hexdigest() == LATTICE[n]


def cohomology_cases():
    z6 = cyclic(6)
    s3 = symmetric3()
    return {
        "H3(Z/4;Z/4)": (GModuleAction.trivial(cyclic(4), ModuleOverZn.cyclic(4)), 3),
        "H3(S3;Z/3)": (GModuleAction.trivial(s3, ModuleOverZn.cyclic(3)), 3),
        "H3(Z/6;Z/6)": (GModuleAction.trivial(z6, ModuleOverZn.cyclic(6)), 3),
        "H3(Z/6;Z/4 twisted)": (
            GModuleAction.by_character(make_hom(z6, cyclic(2), np.arange(6) % 2), ModuleOverZn.cyclic(4), 3),
            3,
        ),
        "H3(S3;Z/2+Z/4)": (GModuleAction.trivial(s3, ModuleOverZn(4, (2, 4))), 3),
        "H0(Z/4;Z/4)": (GModuleAction.trivial(cyclic(4), ModuleOverZn.cyclic(4)), 0),
        **{
            f"H{degree}(S3;Z/2+Z/4)": (GModuleAction.trivial(s3, ModuleOverZn(4, (2, 4))), degree)
            for degree in (0, 1, 2)
        },
    }


COHOMOLOGY = {
    "H3(Z/4;Z/4)": "b5245266aaebe40bb7b436f3f1b70fac1adc08cc23abf39917976b17fb37a359",
    "H3(S3;Z/3)": "a70b604f9172dc38778fabd99a98543b592bd4e4905c358818034052bec434a5",
    "H3(Z/6;Z/6)": "77e921166ffa8455d9a7541f08ce476e607225299e6adfde9ef9e46362405425",
    "H3(Z/6;Z/4 twisted)": "ac6cce54de1d174cd6256ed99fc1434abed97fa4ce2766e26450864b8a4fa611",
    "H3(S3;Z/2+Z/4)": "d1ac3904c931d3a47398a727f6c5cafb56b9ace4c58b243c385d4de506c56f76",
    "H0(Z/4;Z/4)": "c537dfbda32d7534fd072cc813cde99c95ff6fbbe829719d9d053d055e2a2c9f",
    "H0(S3;Z/2+Z/4)": "84080453c04bb01a02527f4cea492055e99b8f46b2034477914a45794b054a95",
    "H1(S3;Z/2+Z/4)": "2742011e46546fe89b036220a4ce76e26f2afb53687c59614a90087154f7387d",
    "H2(S3;Z/2+Z/4)": "444408cc925da12100b21242468828df3da7de4a11a094b167d80eac2f8549c3",
}


@pytest.mark.parametrize("name", list(cohomology_cases()))
def test_cohomology_generators_and_coordinates(name):
    coeffs, degree = cohomology_cases()[name]
    h = cohomology(coeffs, degree)
    d = Digest().add(h.invariant_factors)
    for g in h.generators:
        d.add(g.values)
    # coordinates of random combinations of the generators plus a coboundary,
    # which in degree 0 is zero
    rng = np.random.default_rng(4000)
    n = coeffs.modulus
    for _ in range(3):
        if degree == 0:
            f = Cochain.zero(coeffs, 0)
        else:
            shape = (coeffs.group.order ** (degree - 1), coeffs.module.rank)
            f = differential(Cochain(coeffs, degree - 1, rng.integers(0, n, size=shape)))
        for g in h.generators:
            f = f + int(rng.integers(0, n)) * g
        d.add(h.coordinates(f))
    assert d.hexdigest() == COHOMOLOGY[name]


DIFFERENTIAL = {
    "S3;Z/3": "dd3ea63510e86fd1e1e79f3886dc7393976075693270b292ed7cff0c1ad350dd",
    "Z/6;Z/4 twisted": "a7753b2478b9ea29270bdb70f00a6ce4d983a586c579908a15bf75eed2c3ff77",
}


@pytest.mark.parametrize("name", ["S3;Z/3", "Z/6;Z/4 twisted"])
def test_solve_differential_and_classify_preimage(name):
    if name == "S3;Z/3":
        coeffs = GModuleAction.trivial(symmetric3(), ModuleOverZn.cyclic(3))
    else:
        z6 = cyclic(6)
        coeffs = GModuleAction.by_character(make_hom(z6, cyclic(2), np.arange(6) % 2), ModuleOverZn.cyclic(4), 3)
    rng = np.random.default_rng(5000)
    n, m, r = coeffs.modulus, coeffs.group.order, coeffs.module.rank
    d = Digest()
    for degree in (1, 2):
        x = Cochain(coeffs, degree, rng.integers(0, n, size=(m**degree, r)))
        target = differential(x)
        plain = solve_differential(coeffs, degree, target)
        assert differential(plain) == target
        d.add(plain.values)
        result = classify(target)
        assert isinstance(result, Coboundary)
        d.add(result.preimage.values)
    assert d.hexdigest() == DIFFERENTIAL[name]


CLI_REQUESTS = {
    "cohomology": (["cohomology", "--group", "z2_group.json", "--modulus", "4", "--degree", "3"], 0),
    "invariant-quaternion": (["invariant", "--datum", "quaternion_datum.json", "--rho", "quaternion_rho_i.json"], 0),
    "invariant-toy-seed": (["invariant", "--datum", "toy_datum.json", "--rho", "toy_rho.json", "--seed", "7"], 0),
    "invariant-abelian": (["invariant", "--datum", "toy_abelian_datum.json", "--rho", "toy_abelian_rho.json"], 0),
    "section": (["section", "--datum", "toy_datum.json", "--rho", "toy_rho.json"], 0),
    "section-toy-seed": (["section", "--datum", "toy_datum.json", "--rho", "toy_rho.json", "--seed", "7"], 0),
    "validate-balanced": (["validate", "--datum", "balanced_reciprocity.json"], 0),
    "validate-broken": (["validate", "--datum", "broken_reciprocity.json"], 2),
    "classify-carry": (["classify", "--cochain", "carry_mod3.json"], 0),
    "classify-three-cocycle": (["classify", "--cochain", "three_cocycle_mod2.json"], 0),
    "bockstein": (["bockstein", "--cochain", "carry_mod3.json"], 0),
    "homotopy": (["homotopy", "--cochain", "carry_mod3.json", "--elements", "1,2"], 0),
    "kummer": (["kummer", "--hom", "z4_to_z2.json"], 0),
}

CLI = {
    "cohomology": "3cdab1964833c79368027ef54569305d6be02324bcee5c0065e827171862b722",
    "invariant-quaternion": "9ff7c92621af17933613f592673024f3eacbb7361daac8ca973a12d1834d5e0d",
    "invariant-toy-seed": "3d81deed66227af7764d6b00d042cffa7a3b1040179d3b164023802dcc5ec453",
    "invariant-abelian": "3d81deed66227af7764d6b00d042cffa7a3b1040179d3b164023802dcc5ec453",
    "section": "729ff809b819933be9d1176cea322b80e11d54c88fe935b8d2fe6364f4f357ac",
    "section-toy-seed": "c3bfbd79ef8d961c69781e1d6af30631f36bc50efc1a32ae34429d8b9cade0d6",
    "validate-balanced": "ed02d95c70fef79fba9edacc6853c1621dad3c537d54f9d8878b52f34664cb7e",
    "validate-broken": "6bd7eb5e75b518a46ce3826e62f5d82dc35682540ee2fe17a9fdfa0a9a2bfa38",
    "classify-carry": "116ae832bef0aae39a6e9a3a52c853e8ac681101a0339b5194bfd536cb359708",
    "classify-three-cocycle": "116ae832bef0aae39a6e9a3a52c853e8ac681101a0339b5194bfd536cb359708",
    "bockstein": "01ae8b15e4f0cf069358744b995d957a57b1997bc00ffc4632eb0d87aa1a5984",
    "homotopy": "4c07be90f500011779ad964c8844eca29eee553c98a9288863b70cd83017e87f",
    "kummer": "09a8c137967a059bb84e2633094f6b90d8bbdc03b6f93721c620df866a50e9e9",
}


@pytest.mark.parametrize("name", list(CLI_REQUESTS))
def test_cli_stdout(name, capsys):
    argv, expected_code = CLI_REQUESTS[name]
    argv = [str(FIX / a) if a.endswith(".json") else a for a in argv]
    code = main(argv)
    out = capsys.readouterr().out
    assert code == expected_code
    assert hashlib.sha256(out.encode()).hexdigest() == CLI[name]

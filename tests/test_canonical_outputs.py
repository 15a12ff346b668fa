"""Byte-identity gate for the canonical outputs of the elimination layer.

Every test hashes deterministic outputs with sha256 and compares the digest
with one recorded from the reference implementation: the Howell and
diagonal forms with their transforms, the particular solutions and kernel
bases of the solvers, the coordinates of vectors over a Howell form by
back-substitution (and which vectors lie outside its span), cohomology
generators and coordinates, the preimage that ``classify`` reports for a
coboundary, normalized representatives, and the CLI's stdout on the
shipped fixtures.  A refactor of ``zmod`` or
``cochains`` must keep every digest.  A change that alters a canonical
output on purpose updates the digest here and says so in the change log."""

import hashlib
import pathlib
from math import gcd

import numpy as np
import pytest

from arithcs.cli import main
from arithcs.cochains import (
    Coboundary,
    _factored_differential,
    Cochain,
    classify,
    cohomology,
    differential,
    normalized_representative,
    solve_differential,
)
from arithcs.groups import GModuleAction, cyclic, make_hom, symmetric3
from arithcs.zmod import (
    ModuleOverZn,
    _back_substitute,
    _howell_rows,
    _howell_rows_int64,
    diagonalize_mod,
    howell_form,
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
    2: "401623f94dfca74581658b902dbba6e0206817a5d8776e3206f503cb900629d5",
    3: "dd0cb180084273d5c43cf66f7c105be18b28ea42f361de16851ce9ddfe140e3b",
    4: "df29778b09a31f97ac45eef86e406290f602f886804c632f0050b7c523ad4041",
    6: "b7cd9d80db750a0baf1f37ed4e0550003b518cc322e479c639f689772b850d5c",
    8: "6cf7968c25687b7fc44f299a3122d9e174ca7bacb5f13aca629ae064220c68c9",
    9: "4dafd29e307de241bbbb461f37f0a020f07c8e1a59ffc884cf2ea81b3e284949",
    12: "9441fd1abf1ddb023335d103a1dbc457d2dafa1cb0d6e3c5cec43bde6d638b33",
    30: "727bc559288fb0fe2f47dd85fbf322b6a2d3b81f20028dcd7a2f383dd7582ecd",
    64: "84ee9c95ce006e31e1ca081509685bfed8ea3e8c05d4f326d0e8aedcb7abacfc",
    65536: "4eec73714a3ffd73e1ee96a19ba74516632e841ae688e6ae22c77523b800dddb",
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


@pytest.mark.parametrize("n", MODULI)
def test_howell_rows_returns_the_kernel_in_howell_form(n):
    # the sweep runs on through the identity block of [mat | I], so k is
    # already the Howell form of the left kernel: eliminating it again is a no-op
    engines = [lambda mat: _howell_rows(mat, n)]
    if n == 2:
        engines.append(lambda mat: _howell_rows_int64(mat, 2))
    for engine in engines:
        for mat in random_matrices(n, 60, seed=2000 + n):
            k = engine(mat)[2]
            assert k.dtype == np.int64 and not (k @ mat % n).any()
            again = _howell_rows(k, n)[0].astype(np.int64)
            assert again.shape == k.shape and again.tobytes() == k.tobytes()


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
    2: "1f2e4ba4f6415fa5587443d145c75f846e9133e09d799f572d9c1654a87f544f",
    3: "0332420fb155e04155fdeaa06f87edd7a43125a5d7e6e4ef10b7558f3f8b5611",
    4: "8c6bccf99f7bb6b37b29011b679d36beeea9ea9521bbdd063cc05c3d9a2350b4",
    6: "88671d7c7c3ffd479af3aeab0b787bf2b965388681c0fdea2ace86731d3e5986",
    8: "ccb6f127c11d9d41518cbdd88e55100ec3e6c7fd51c0dcf93dc87615c25cd0de",
    9: "1083d3889ea3718375d5b8d77b3ecca3e07685df4e037bb057367830cc9e1dc7",
    12: "aa149a64d308b2165b344b96222a242bd3b760777c56de1fb372b7a9c41fc223",
    30: "6e5a752f105492efefdb0273b8de4e82a711f9ef6eb8d8887bcb2c5df377e81c",
    64: "e21df845014d8cfb612fb12d31b49e0931557b9c5f476f7d6fba219b6013cfd3",
    65536: "cb5110f1c23b403b85f96f1c7b917f36b645cf563c3781c2369f5aa15b8b5fa4",
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
    2: "1afb4b25ac73bb6aa8926c0e0eeb507532b93c27f9d6b2e7c51ccfa730ffb1fa",
    3: "fde57f6a4cfcca603e91344bc7ff90f20f0e00044aeb071666f0624352f4c40f",
    4: "2792beddb78500cf62f6e5848af2863a2c26269d1c0b66f4c13769ad1d5b4239",
    6: "4464e7d37c381e4a3684fc481309e617543cd7dfb78e2e7cb70a324c42dfea1c",
    8: "96b7e3a338e9faf7e9e356f418769607dedd9bbdc70ae2965d7986a86763040f",
    9: "5825c801a442afc02113408d567ffdb3127d2ef6531c28b7dffa02a42032ee9d",
    12: "c21010fc585ae5f52e78ca06a6d87e23592b608c51935458092672b4522321b5",
    30: "fb70086529559be5b605c50e8663f58e932d4cb497058566c1c0deb4e6ed3752",
    64: "52a7ce2fb971646707ab7094120a3cf7dfb53fe531262d6921584c7d862d2ec6",
    65536: "2eafceb747ee9846e20e42d62b9c2726b7161e6b13cae51c3881755c5eaa1ff7",
}


@pytest.mark.parametrize("n", MODULI)
def test_lattice_basis_and_coordinates_digest(n):
    # the lattice basis is a Howell form, as in ``cohomology``, and the
    # coordinates come from back-substitution against it
    rng = np.random.default_rng(6000 + n)
    d = Digest()
    for mat in random_matrices(n, 60, seed=6000 + n):
        basis = howell_form(mat, n)[0]
        # members of the span, then random vectors, most of them outside it
        members = rng.integers(0, n, size=(3, basis.shape[0])) @ basis % n
        coords, rem = _back_substitute(basis, members, n)
        assert not rem.any()
        d.add(basis, coords)
        for x in rng.integers(0, n, size=(3, mat.shape[1])):
            coords, rem = _back_substitute(basis, x[None, :], n)
            d.add(None if rem.any() else coords)
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
    "H3(S3;Z/3)": "8d0bb8f6297926cc61c9e53f375246adbd55efd082920039f6a25b41414e78ac",
    "H3(Z/6;Z/6)": "77e921166ffa8455d9a7541f08ce476e607225299e6adfde9ef9e46362405425",
    "H3(Z/6;Z/4 twisted)": "ed943890ccc441c15dd173c391cff652c4be1f36b9846363a2e441eb824d20a5",
    "H3(S3;Z/2+Z/4)": "fbbfff811fa38a1ffca427cd37ca56af64ca8bdc213ee800fa8a60705636992c",
    "H0(Z/4;Z/4)": "c537dfbda32d7534fd072cc813cde99c95ff6fbbe829719d9d053d055e2a2c9f",
    "H0(S3;Z/2+Z/4)": "84080453c04bb01a02527f4cea492055e99b8f46b2034477914a45794b054a95",
    "H1(S3;Z/2+Z/4)": "2742011e46546fe89b036220a4ce76e26f2afb53687c59614a90087154f7387d",
    "H2(S3;Z/2+Z/4)": "61903acddf1ff13eefb905c2fdf06599d9688536c3e9efa7f23d1e360b33d906",
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
    "S3;Z/3": "2f8b7701999e63d2400f3a5fb89b072a1ca4f3c0a90f51a6447beb44daba2b24",
    "Z/6;Z/4 twisted": "5258fdd26e8fcddd90738e53bde367fcc6f1db497b41dbe2de6175505cff214f",
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


NORMALIZED = {
    "S3;Z/2+Z/4": (2, "54843b678ceb78ac50ec4aed50f4beb5e1562daf74ab215ae8abbc076bb87a51"),
    "Z/4;Z/4": (3, "ac626d5972217a7890c7c0b0abd68e9ea0a73648a5b7649a8071f7278172d4fb"),
}


@pytest.mark.parametrize("name", list(NORMALIZED))
def test_normalized_representative_digest(name):
    if name == "S3;Z/2+Z/4":
        coeffs = GModuleAction.trivial(symmetric3(), ModuleOverZn(4, (2, 4)))
    else:
        coeffs = GModuleAction.trivial(cyclic(4), ModuleOverZn.cyclic(4))
    degree, want = NORMALIZED[name]
    rng = np.random.default_rng(10 + degree)
    # random cocycles, most in nontrivial classes: combinations of the rows of d's kernel
    k = _factored_differential(coeffs, degree).k
    shape = (coeffs.group.order**degree, coeffs.module.rank)
    d = Digest()
    for _ in range(3):
        f = Cochain(coeffs, degree, (rng.integers(0, coeffs.modulus, size=len(k)) @ k).reshape(shape))
        d.add(normalized_representative(f).values)
    assert d.hexdigest() == want


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
    "kummer": "3e82c82a6ed7efe75c6e38f4167a5a43c26116f45431dd49de0760d76d9bbb11",
}


@pytest.mark.parametrize("name", list(CLI_REQUESTS))
def test_cli_stdout(name, capsys):
    argv, expected_code = CLI_REQUESTS[name]
    argv = [str(FIX / a) if a.endswith(".json") else a for a in argv]
    code = main(argv)
    out = capsys.readouterr().out
    assert code == expected_code
    assert hashlib.sha256(out.encode()).hexdigest() == CLI[name]

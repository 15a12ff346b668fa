import json
import pathlib

import numpy as np
import pytest

from arithcs import cli, cochains, dataio
from arithcs.cli import main
from arithcs.cochains import Cochain, DegreeBoundError, pullback
from arithcs.cstheory import (
    GlobalDatum,
    LocallyNontrivialError,
    NoGlobalTrivializationError,
    NoLiftError,
    NotInGeneratedSummandError,
    NotUnramifiedTrivializableError,
    PlaceDatum,
)
from arithcs.fixtures import one_place_fiber_datum, order_two_place
from arithcs.groups import GModuleAction, cyclic, identity_hom, make_hom
from arithcs.ops import IncompatiblePairingError, NotDivisibleError, carry_cocycle, cyclic_three_cocycle
from arithcs.zmod import ComputationError, ModuleOverZn

ROOT = pathlib.Path(__file__).resolve().parent.parent
FIX = ROOT / "fixtures"


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cohomology_subcommand(capsys):
    code, out, _ = run(
        capsys, "cohomology", "--group", FIX / "z2_group.json", "--modulus", 2, "--degree", 3
    )
    assert code == 0
    assert "invariant_factors: [2]" in out


def test_invariant_deterministic(capsys):
    args = ("invariant", "--datum", FIX / "quaternion_datum.json", "--rho", FIX / "quaternion_rho_i.json")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    assert "cs_invariant: 1/2" in out1


def test_section_subcommand(capsys):
    code, out, _ = run(
        capsys, "section", "--datum", FIX / "toy_datum.json", "--rho", FIX / "toy_rho.json"
    )
    assert code == 0
    assert "class_at_unramified_basepoint: 0/2" in out


def test_section_solves_the_global_system_once(capsys, monkeypatch):
    from arithcs import cstheory

    solves = []
    real = cstheory.solve_differential

    def spy(coeffs, degree, *args, **kwargs):
        solves.append((coeffs.group.order, degree))
        return real(coeffs, degree, *args, **kwargs)

    monkeypatch.setattr(cstheory, "solve_differential", spy)
    code, _, _ = run(capsys, "section", "--datum", FIX / "toy_datum.json", "--rho", FIX / "toy_rho.json")
    assert code == 0
    assert solves == [(4, 2), (1, 2), (1, 2)]  # one global solve, one per place on its quotient


def test_section_prints_nothing_when_the_basepoint_class_fails(capsys, tmp_path):
    # the section exists, but no canonical unramified trivialization does
    z4 = cyclic(4)
    c = pullback(make_hom(z4, cyclic(2), [0, 1, 0, 1]), cyclic_three_cocycle(2))
    datum, rho = tmp_path / "datum.json", tmp_path / "rho.json"
    dataio.dump_path(dataio.document_for(GlobalDatum(2, z4, (order_two_place(z4, 2),), z4, c)), datum)
    dataio.dump_path(dataio.document_for(identity_hom(z4)), rho)
    code, out, err = run(capsys, "section", "--datum", datum, "--rho", rho)
    assert code == 3
    assert out == ""
    assert err.startswith("error: NotUnramifiedTrivializable: ")


def test_validate_pass_and_fail(capsys):
    code, out, _ = run(capsys, "validate", "--datum", FIX / "balanced_reciprocity.json")
    assert code == 0 and "result: valid" in out
    code, out, _ = run(capsys, "validate", "--datum", FIX / "broken_reciprocity.json")
    assert code == 2 and "result: INVALID" in out
    assert "reciprocity" in out


def test_validate_reports_generator_off_scalar_coefficients(capsys, tmp_path):
    z2 = cyclic(2)
    carry = carry_cocycle(2).values
    gen = Cochain(GModuleAction.trivial(z2, ModuleOverZn(2, (2, 2))), 2, np.hstack([carry, 0 * carry]))
    place = PlaceDatum(z2, identity_hom(z2), (0,), gen, 1)
    path = tmp_path / "datum.json"
    dataio.dump_path(dataio.document_for(GlobalDatum(2, z2, (place,), z2, cyclic_three_cocycle(2))), path)
    code, out, err = run(capsys, "validate", "--datum", path)
    assert code == 2 and err == ""
    assert (
        "FAIL place 0: h2_generator generates an order-2 summand: "
        "coefficients are not Z/2 with the trivial action"
    ) in out
    assert out.endswith("FAIL reciprocity: skipped: place invariants failed\nresult: INVALID\n")


def test_classify_and_bockstein_roundtrip(capsys, tmp_path):
    code, out, _ = run(capsys, "classify", "--cochain", FIX / "carry_mod3.json")
    assert code == 0
    assert "nontrivial_class" in out
    code, out, _ = run(capsys, "bockstein", "--cochain", FIX / "carry_mod3.json")
    # carry is a 2-cocycle mod 3; its bockstein is a 3-cochain document
    assert code == 0
    doc = dataio.parse(out)
    assert doc.resolve_main().degree == 3


def test_cup_conjugate_homotopy(capsys, tmp_path):
    alpha_path = tmp_path / "alpha.json"
    from arithcs.ops import identity_character

    dataio.dump_path(dataio.document_for(identity_character(3)), alpha_path)
    code, out, _ = run(capsys, "cup", "--left", alpha_path, "--right", FIX / "carry_mod3.json")
    assert code == 0
    cup_doc = tmp_path / "cup.json"
    cup_doc.write_text(out)
    code, out, _ = run(capsys, "classify", "--cochain", cup_doc)
    assert code == 0 and "nontrivial_class" in out

    code, out, _ = run(capsys, "conjugate", "--cochain", FIX / "carry_mod3.json", "--element", 1)
    assert code == 0  # abelian group: unchanged
    assert dataio.parse(out).resolve_main() == dataio.load_path(FIX / "carry_mod3.json").resolve_main()

    code, out, _ = run(capsys, "homotopy", "--cochain", FIX / "carry_mod3.json", "--elements", "1")
    assert code == 0
    assert dataio.parse(out).resolve_main().degree == 1


def test_kummer_subcommand_and_no_lift(capsys, tmp_path):
    code, out, _ = run(capsys, "kummer", "--hom", FIX / "z4_to_z2.json")
    assert code == 0 and out.startswith("b:")
    ident = tmp_path / "ident.json"
    dataio.dump_path(dataio.document_for(make_hom(cyclic(2), cyclic(2), [0, 1])), ident)
    code, out, err = run(capsys, "kummer", "--hom", ident)
    assert code == 3
    assert "NoLift" in err


def test_kummer_lift_that_does_not_reduce_exits_2(capsys, tmp_path):
    lift = tmp_path / "lift.json"
    dataio.dump_path(dataio.document_for(make_hom(cyclic(4), cyclic(4), [0, 2, 0, 2])), lift)
    code, out, err = run(capsys, "kummer", "--hom", FIX / "z4_to_z2.json", "--lift", lift)
    assert code == 2
    assert out == ""
    assert "does not reduce to f" in err


def test_invariant_computation_error_exit_code(capsys, tmp_path):
    fiber = tmp_path / "fiber.json"
    rho = tmp_path / "rho.json"
    dataio.dump_path(dataio.document_for(one_place_fiber_datum()), fiber)
    dataio.dump_path(dataio.document_for(make_hom(cyclic(2), cyclic(2), [0, 1])), rho)
    code, out, err = run(capsys, "invariant", "--datum", fiber, "--rho", rho)
    assert code == 3
    assert "NoGlobalTrivialization" in err


def _computation_errors(cls=ComputationError):
    yield cls
    for sub in cls.__subclasses__():
        yield from _computation_errors(sub)


def test_computation_errors_cover_every_exit_3_error():
    old_exit_3 = {
        DegreeBoundError,
        IncompatiblePairingError,
        NotDivisibleError,
        NotInGeneratedSummandError,
        NotUnramifiedTrivializableError,
        NoGlobalTrivializationError,
        LocallyNontrivialError,
        NoLiftError,
    }
    assert old_exit_3 <= set(_computation_errors())


@pytest.mark.parametrize("error", list(_computation_errors()), ids=lambda cls: cls.__name__)
def test_every_computation_error_exits_3(capsys, monkeypatch, error):
    def fail(coeffs, degree):
        raise error("no answer")

    monkeypatch.setattr(cli, "cohomology", fail)
    code, out, err = run(capsys, "cohomology", "--group", FIX / "z2_group.json", "--modulus", 2, "--degree", 1)
    assert code == 3
    assert out == ""
    assert err == f"error: {error.__name__.removesuffix('Error')}: no answer\n"


def test_out_of_memory_exits_3_without_traceback(capsys, monkeypatch):
    # the dense builds are replaced, so nothing is really allocated
    def fail(coeffs, i, rows):
        raise MemoryError("Unable to allocate 4.27 TiB for an array")

    cochains.cohomology.cache_clear()
    cochains._factored_differential.cache_clear()
    monkeypatch.setattr(cochains, "_differential_matrix", fail)
    code, out, err = run(capsys, "cohomology", "--group", FIX / "z2_group.json", "--modulus", 2, "--degree", 3)
    assert code == 3
    assert out == ""
    assert err == "error: Memory: Unable to allocate 4.27 TiB for an array\n"


def test_parse_error_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, out, err = run(capsys, "validate", "--datum", bad)
    assert code == 4
    assert "ParseError" in err


def test_validation_error_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(
        '{"format_version": 1, "objects": {"g": {"type": "group", "order": 2, "mul": [0, 1, 0, 1]}}}'
    )
    code, out, err = run(capsys, "cohomology", "--group", bad, "--modulus", 2, "--degree", 1)
    assert code == 2


def test_verify_subcommand_quick(capsys):
    # full battery runs in the acceptance suite; here just check wiring
    code, out, _ = run(capsys, "verify", "--seed", 42)
    assert code == 0
    assert "verification passed" in out


CARRY = ("--cochain", FIX / "carry_mod3.json")
Z2_GROUP = ("--group", FIX / "z2_group.json")
MALFORMED = {
    "modulus_one": ("cohomology", *Z2_GROUP, "--modulus", 1, "--degree", 1),
    "negative_degree": ("cohomology", *Z2_GROUP, "--modulus", 2, "--degree", -1),
    "element_too_large": ("conjugate", *CARRY, "--element", 99),
    "negative_element": ("conjugate", *CARRY, "--element", -1),
    "elements_too_large": ("homotopy", *CARRY, "--elements", 7),
    "elements_not_integers": ("homotopy", *CARRY, "--elements", "a"),
    "mismatched_rho": ("invariant", "--datum", FIX / "toy_datum.json", "--rho", FIX / "quaternion_rho_i.json"),
    "directory_path": ("validate", "--datum", FIX),
}


@pytest.mark.parametrize("argv", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_request_exit_code(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code in (2, 3, 4)
    assert out == ""
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("main", [None, "group1"])
def test_an_object_picked_by_type_must_be_unique(capsys, tmp_path, main):
    # two cochains and no main cochain: classify must not pick one by name
    doc = json.loads((FIX / "carry_mod3.json").read_text())
    doc["objects"]["cochain2"] = dict(doc["objects"]["cochain1"], values=[0] * 9)
    if main is None:
        del doc["main"]
    else:
        doc["main"] = main
    path = tmp_path / "two.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "classify", "--cochain", path)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "cochain1, cochain2" in err
    # with one cochain left, the object of the wanted type is read as before
    del doc["objects"]["cochain2"]
    path.write_text(json.dumps(doc))
    assert run(capsys, "classify", "--cochain", path)[0] == 0


def test_out_of_range_value_exits_2_without_traceback(capsys, tmp_path):
    doc = json.loads((FIX / "carry_mod3.json").read_text())
    cochain = next(v for v in doc["objects"].values() if v["type"] == "cochain")
    cochain["values"][0] = 1e30
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "classify", "--cochain", path)
    assert code == 2
    assert out == ""
    assert err.startswith("error: Validation: ") and "Traceback" not in err

import json
import pathlib
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from arithcs import dataio
from arithcs.cochains import Cochain
from arithcs.cstheory import GlobalDatum, validate_global_datum
from arithcs.fixtures import (
    balanced_reciprocity_datum,
    broken_reciprocity_datum,
    quaternion_datum,
    quaternion_rho,
    toy_abelian_datum,
    toy_abelian_rho,
    toy_global_datum,
    toy_rho,
)
from arithcs.groups import GModuleAction, cyclic, s3_sign_hom, symmetric3
from arithcs.ops import carry_cocycle, cyclic_three_cocycle
from arithcs.zmod import ModuleOverZn

FIX = pathlib.Path(__file__).resolve().parent.parent / "fixtures"

FIXTURES = [
    toy_global_datum,
    toy_abelian_datum,
    quaternion_datum,
    balanced_reciprocity_datum,
    broken_reciprocity_datum,
    toy_rho,
]


@pytest.mark.parametrize("factory", FIXTURES, ids=lambda f: f.__name__)
def test_roundtrip_on_fixtures(factory):
    obj = factory()
    doc = dataio.document_for(obj)
    text = dataio.serialize(doc)
    again = dataio.parse(text)
    assert again.objects == doc.objects
    assert dataio.serialize(again) == text
    assert again.resolve_main() == obj


def test_serialize_is_deterministic():
    a = dataio.serialize(dataio.document_for(toy_global_datum()))
    b = dataio.serialize(dataio.document_for(toy_global_datum()))
    assert a == b


def test_minimal_group_document_loads():
    text = json.dumps(
        {
            "format_version": 1,
            "objects": {"g": {"type": "group", "order": 2, "mul": [0, 1, 1, 0]}},
            "main": "g",
        }
    )
    doc = dataio.parse(text)
    assert doc.resolve_main().order == 2


def test_nonassociative_table_gives_validation_error_with_witness():
    mul = [0, 1, 2, 3, 4, 1, 0, 3, 4, 2, 2, 4, 0, 1, 3, 3, 2, 4, 0, 1, 4, 3, 1, 2, 0]
    text = json.dumps(
        {
            "format_version": 1,
            "objects": {"g": {"type": "group", "order": 5, "mul": mul}},
        }
    )
    with pytest.raises(dataio.ValidationError, match="witness"):
        dataio.parse(text)


def test_parse_error_carries_position():
    with pytest.raises(dataio.ParseError) as err:
        dataio.parse('{"format_version": 1, "objects": {,}}')
    assert err.value.line == 1
    assert err.value.column > 0


def test_unknown_reference_and_bad_version():
    with pytest.raises(dataio.ValidationError, match="unknown object"):
        dataio.parse(
            json.dumps(
                {
                    "format_version": 1,
                    "objects": {
                        "h": {"type": "hom", "dom": "nope", "cod": "nope", "map": [0]}
                    },
                }
            )
        )
    with pytest.raises(dataio.ValidationError, match="format_version"):
        dataio.parse(json.dumps({"format_version": 99, "objects": {}}))


def test_cochain_length_is_checked():
    doc = dataio.document_for(carry_cocycle(2))
    bad = json.loads(dataio.serialize(doc))
    name = next(k for k, v in bad["objects"].items() if v["type"] == "cochain")
    bad["objects"][name]["values"] = [0, 1]
    with pytest.raises(dataio.ValidationError, match="values"):
        dataio.parse(json.dumps(bad))


def test_declared_generator_must_be_cocycle():
    doc = dataio.document_for(toy_abelian_datum())
    bad = json.loads(dataio.serialize(doc))
    name = next(k for k, v in bad["objects"].items() if v["type"] == "cochain" and v["degree"] == 2)
    bad["objects"][name]["values"] = [0, 1, 0, 0]  # not a cocycle on Z/2
    with pytest.raises(dataio.ValidationError, match="cocycle"):
        dataio.parse(json.dumps(bad))


def test_shipped_fixture_files_load_and_validate(tmp_path):
    import pathlib

    root = pathlib.Path(__file__).resolve().parent.parent / "fixtures"
    doc = dataio.load_path(root / "toy_datum.json")
    datum = doc.resolve_main()
    assert isinstance(datum, GlobalDatum)
    assert validate_global_datum(datum).passed
    assert datum == toy_global_datum()
    broken = dataio.load_path(root / "broken_reciprocity.json").resolve_main()
    assert not validate_global_datum(broken).passed


SHIPPED = {
    "balanced_reciprocity": balanced_reciprocity_datum,
    "broken_reciprocity": broken_reciprocity_datum,
    "carry_mod3": partial(carry_cocycle, 3),
    "quaternion_datum": quaternion_datum,
    "quaternion_rho_i": partial(quaternion_rho, "i"),
    "three_cocycle_mod2": partial(cyclic_three_cocycle, 2),
    "toy_abelian_datum": toy_abelian_datum,
    "toy_abelian_rho": toy_abelian_rho,
    "toy_datum": toy_global_datum,
    "toy_rho": toy_rho,
    "z2_group": partial(cyclic, 2),
    "z4_to_z2": toy_abelian_rho,
}


def test_every_shipped_fixture_file_is_listed():
    assert sorted(p.stem for p in FIX.glob("*.json")) == sorted(SHIPPED)


@pytest.mark.parametrize("stem", sorted(SHIPPED))
def test_shipped_fixture_file_equals_code(stem):
    assert (FIX / f"{stem}.json").read_text(encoding="utf-8") == dataio.serialize_object(SHIPPED[stem]())


def _sign_action():
    s3 = symmetric3()
    return GModuleAction.by_character(s3_sign_hom(s3, cyclic(2)), ModuleOverZn.cyclic(4), 3)


def _trivial_group_cochain(degree=2):
    """A one-value cochain on the order-1 group."""
    return Cochain.zero(GModuleAction.trivial(cyclic(1), ModuleOverZn.cyclic(2)), degree)


def test_degree_bound_keeps_every_storable_degree():
    # the bound is 63 for every group order; cup writes degree 5-6 documents
    for f in (_trivial_group_cochain(63), Cochain.zero(GModuleAction.trivial(cyclic(2), ModuleOverZn.cyclic(2)), 6)):
        text = dataio.serialize_object(f)
        assert dataio.parse(text).resolve_main() == f
    with pytest.raises(dataio.ValidationError, match="'degree' is 64"):
        dataio.parse(dataio.serialize_object(_trivial_group_cochain(64)))


def test_nontrivial_action_roundtrip():
    f = Cochain.random(_sign_action(), 2, np.random.default_rng(0))
    doc = dataio.document_for(f)
    again = dataio.parse(dataio.serialize(doc))
    assert again.resolve_main() == f


@given(
    n=st.sampled_from([2, 3, 4, 6]),
    degree=st.integers(0, 2),
    data=st.data(),
)
@settings(max_examples=25, deadline=None)
def test_roundtrip_property_random_cochains(n, degree, data):
    group = cyclic(n)
    coeffs = GModuleAction.trivial(group, ModuleOverZn.cyclic(n))
    count = n**degree
    vals = data.draw(
        st.lists(st.integers(0, n - 1), min_size=count, max_size=count)
    )
    f = Cochain(coeffs, degree, np.array(vals).reshape(count, 1))
    text = dataio.serialize(dataio.document_for(f))
    assert dataio.parse(text).resolve_main() == f
    assert dataio.serialize(dataio.parse(text)) == text


CARRY3 = partial(carry_cocycle, 3)  # a group, a module, a trivial action and a cochain
# (document of, type of the object to change (None: the document), field, new value)
NOT_STRICT_INTEGERS = {
    "mul_float": (partial(cyclic, 2), "group", "mul", [0, 1, 1, 0.5]),
    "order_bool": (partial(cyclic, 1), "group", "order", True),
    "values_str": (CARRY3, "cochain", "values", ["1"] + [0] * 8),
    "values_nested": (CARRY3, "cochain", "values", [[0] * 9]),
    "values_1e30": (CARRY3, "cochain", "values", [1e30] + [0] * 8),
    "values_2_pow_63": (CARRY3, "cochain", "values", [2**63] + [0] * 8),
    "degree_float": (CARRY3, "cochain", "degree", 2.7),
    "degree_negative": (CARRY3, "cochain", "degree", -1),
    "degree_huge": (CARRY3, "cochain", "degree", 10**6),
    "degree_huge_order_one": (_trivial_group_cochain, "cochain", "degree", 200000),
    "orders_float": (CARRY3, "module", "orders", [3.0]),
    "modulus_str": (CARRY3, "module", "modulus", "3"),
    "trivial_str": (CARRY3, "action", "trivial", "yes"),
    "trivial_false": (CARRY3, "action", "trivial", False),
    # a trivial action with matrices as well would drop the matrices silently
    "trivial_with_matrices": (CARRY3, "action", "matrices", [[1], [2], [1]]),
    "map_float": (toy_abelian_rho, "hom", "map", [0, 1, 0, 1.5]),
    "map_bool": (toy_abelian_rho, "hom", "map", [0, True, 0, True]),
    "matrices_float": (_sign_action, "action", "matrices", [[1]] * 3 + [[3.0]] * 2 + [[1]]),
    "matrices_flat": (_sign_action, "action", "matrices", [1, 1, 1, 3, 3, 1]),
    "inertia_float": (toy_abelian_datum, "place", "inertia", [0, 1.0]),
    "inv_normalization_bool": (toy_abelian_datum, "place", "inv_normalization", True),
    "datum_modulus_float": (toy_abelian_datum, "global_datum", "modulus", 2.0),
    "format_version_bool": (partial(cyclic, 2), None, "format_version", True),
    "format_version_float": (partial(cyclic, 2), None, "format_version", 1.0),
}


@pytest.mark.parametrize("case", NOT_STRICT_INTEGERS.values(), ids=NOT_STRICT_INTEGERS.keys())
def test_integer_fields_are_read_strictly(case):
    factory, kind, key, value = case
    payload = json.loads(dataio.serialize_object(factory()))
    if kind is None:
        payload[key], owner = value, "the document"
    else:
        name = next(k for k, v in sorted(payload["objects"].items()) if v["type"] == kind)
        payload["objects"][name][key], owner = value, f"object '{name}'"
    with pytest.raises(dataio.ValidationError) as err:
        dataio.parse(json.dumps(payload))
    assert str(err.value).startswith(owner) and f"'{key}'" in str(err.value)

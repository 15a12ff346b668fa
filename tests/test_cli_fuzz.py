"""Mutated copies of the shipped fixtures never crash the CLI.

Each request runs ``cli.main`` in-process on one shipped fixture with one
mutation: an integer leaf becomes another int, a bool, a float, a string or
a value outside int64; a field is deleted; or a reference to another object
is renamed.  The exit code must be a documented one, no exception may
escape ``main``, and a second run must print the same stdout.
"""

import contextlib
import io
import json
import pathlib
import tempfile

from hypothesis import example, given, settings, strategies as st

from arithcs.cli import main

FIX = pathlib.Path(__file__).resolve().parent.parent / "fixtures"
INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1

# (argv, index of the fixture argument that is mutated); every shipped
# fixture feeds at least one request
REQUESTS = [
    (["cohomology", "--group", "z2_group.json", "--modulus", "4", "--degree", "2"], 2),
    (["classify", "--cochain", "carry_mod3.json"], 2),
    (["bockstein", "--cochain", "carry_mod3.json"], 2),
    (["homotopy", "--cochain", "carry_mod3.json", "--elements", "1,2"], 2),
    (["classify", "--cochain", "three_cocycle_mod2.json"], 2),
    (["kummer", "--hom", "z4_to_z2.json"], 2),
    (["invariant", "--datum", "quaternion_datum.json", "--rho", "quaternion_rho_i.json"], 2),
    (["invariant", "--datum", "quaternion_datum.json", "--rho", "quaternion_rho_i.json"], 4),
    (["invariant", "--datum", "toy_abelian_datum.json", "--rho", "toy_abelian_rho.json"], 2),
    (["invariant", "--datum", "toy_abelian_datum.json", "--rho", "toy_abelian_rho.json"], 4),
    (["section", "--datum", "toy_datum.json", "--rho", "toy_rho.json"], 2),
    (["section", "--datum", "toy_datum.json", "--rho", "toy_rho.json"], 4),
    (["validate", "--datum", "balanced_reciprocity.json"], 2),
    (["validate", "--datum", "broken_reciprocity.json"], 2),
]

NEW_LEAF = st.one_of(
    st.integers(-3, 40),
    st.integers(INT64_MIN, INT64_MAX),
    st.booleans(),
    st.floats(),
    st.text(max_size=3),
    st.integers(INT64_MAX + 1, 2**80),
    st.integers(-(2**80), INT64_MIN - 1),
)


def _nodes(node, path=()):
    """(path, value) of every node below the root, containers included."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        yield path + (key,), value
        yield from _nodes(value, path + (key,))


_DELETE = object()


def _set(payload, path, value):
    """Put value at path, or delete the field there when value is _DELETE."""
    for key in path[:-1]:
        payload = payload[key]
    if value is _DELETE:
        del payload[path[-1]]
    else:
        payload[path[-1]] = value


@st.composite
def mutated_requests(draw):
    argv, target = draw(st.sampled_from(REQUESTS))
    payload = json.loads((FIX / argv[target]).read_text())
    nodes = list(_nodes(payload))
    names = sorted(payload["objects"])
    ints = [p for p, v in nodes if type(v) is int]
    fields = [p for p, _ in nodes if isinstance(p[-1], str)]
    refs = [p for p, v in nodes if isinstance(v, str) and v in names and p[-1] != "type"]
    kind = draw(st.sampled_from(["int", "delete", "reference"]))
    if kind == "int":
        path, value = draw(st.sampled_from(ints)), draw(NEW_LEAF)
    elif kind == "delete":
        path, value = draw(st.sampled_from(fields)), _DELETE
    else:
        path, value = draw(st.sampled_from(refs)), draw(st.one_of(st.sampled_from(names), st.text(max_size=3)))
    return argv, target, path, value


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue()


CLASSIFY, VALIDATE, QUATERNION = REQUESTS[1], REQUESTS[12], REQUESTS[6]
CONJUGATE = (["conjugate", "--cochain", "carry_mod3.json", "--element", "0"], 2)
# carry_mod3.json's objects moved to the order-1 group, with one value
ORDER_ONE = {
    "group1": {"type": "group", "order": 1, "mul": [0]},
    "module1": {"type": "module", "modulus": 3, "orders": [3]},
    "action1": {"type": "action", "group": "group1", "module": "module1", "trivial": True},
    "cochain1": {"type": "cochain", "action": "action1", "degree": 200000, "values": [1]},
}


@given(mutated_requests())
# references naming an object of the wrong type used to escape as AttributeError
@example((*CLASSIFY, ("objects", "cochain1", "action"), "group1"))
@example((*CLASSIFY, ("objects", "action1", "module"), "group1"))
@example((*CLASSIFY, ("objects", "action1", "group"), "module1"))
@example((*QUATERNION, ("objects", "hom1", "dom"), "module1"))
@example((*VALIDATE, ("objects", "datum1", "places", 0), "group1"))
# a non-list places and a non-string main used to escape as TypeError
@example((*VALIDATE, ("objects", "datum1", "places"), 5))
@example((*CLASSIFY, ("main",), [1]))
# a huge degree on the order-1 group used to load, and the ops looped over it
@example((*CONJUGATE, ("objects",), ORDER_ONE))
@settings(max_examples=300, deadline=None, derandomize=True)
def test_mutated_fixtures_exit_with_documented_codes(case):
    argv, target, path, value = case
    payload = json.loads((FIX / argv[target]).read_text())
    _set(payload, path, value)
    with tempfile.TemporaryDirectory() as tmp:
        mutated = pathlib.Path(tmp) / argv[target]
        mutated.write_text(json.dumps(payload))
        args = [str(FIX / a) if a.endswith(".json") else a for a in argv]
        args[target] = str(mutated)
        code, out = _run(args)
        assert code in {0, 2, 3, 4}
        assert _run(args) == (code, out)

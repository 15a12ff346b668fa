"""On-disk document format: JSON with named, cross-referencing objects.

A document is a JSON object

    {"format_version": 1,
     "objects": {name: {"type": ..., ...}, ...},
     "main": name}

where entries reference each other by name.  Serialization is deterministic
(sorted keys, fixed list order, two-space indent), so parse(serialize(x))
round-trips and identical inputs produce byte-identical files.  Everything
is validated while loading: integer fields (JSON integers inside int64;
never a bool, float or string), references (each names an object of the
type the field needs), group axioms, homomorphism laws, action axioms, and
cocycle conditions where the format declares them (place generators and
gauge 3-cocycles).

``document_for`` names each object ``<kind><k>`` (``group1``, ``hom2``;
``datum<k>`` for a global_datum), numbering every kind from 1 in the order a
depth-first walk from the main object, through fields in entry order, first
reaches its objects; an object reached twice is stored once.

Cochain values are stored flattened in lexicographic tuple order, module
coordinates fastest; groups are stored as row-major multiplication tables
whose element order defines every other table in the document.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .cochains import Cochain, differential
from .cstheory import GlobalDatum, PlaceDatum
from .groups import FiniteGroup, GModuleAction, GroupHom, make_group, make_hom
from .zmod import ModuleOverZn

FORMAT_VERSION = 1
# 2**63 tuples fill int64, so no group of order >= 2 has a larger degree
# that can be stored; the bound also covers the order-1 group, where one
# value fits every degree but the operations loop over the degree
MAX_COCHAIN_DEGREE = 63
_INT64_MIN, _INT64_MAX = int(np.iinfo(np.int64).min), int(np.iinfo(np.int64).max)


class ParseError(ValueError):
    """Syntax-level failure, carrying line and column when known."""

    def __init__(self, message: str, line: int = 0, column: int = 0):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class ValidationError(ValueError):
    """Semantic failure while resolving a document, carrying a witness text."""


@dataclass
class Document:
    """Raw JSON-level entries plus their resolved, validated counterparts."""

    raw: dict[str, dict] = field(default_factory=dict)
    objects: dict[str, object] = field(default_factory=dict)
    main: str | None = None

    def resolve_main(self):
        if self.main is None:
            if len(self.objects) == 1:
                return next(iter(self.objects.values()))
            raise ValidationError("document has no 'main' and more than one object")
        if self.main not in self.objects:
            raise ValidationError(f"main points at unknown object {self.main!r}")
        return self.objects[self.main]

    def only_of_type(self, cls):
        names = sorted(name for name, obj in self.objects.items() if isinstance(obj, cls))
        if len(names) != 1:
            raise ValidationError(f"no main {cls.__name__} and {len(names)} candidates: {', '.join(names) or 'none'}")
        return self.objects[names[0]]


# ---------------------------------------------------------------------------
# Encoding.


def _fields(obj, ref) -> dict:
    """The entry of ``obj`` without its name; ``ref(part)`` names a part."""
    if isinstance(obj, FiniteGroup):
        return {"type": "group", "order": obj.order, "mul": obj.mul.reshape(-1).tolist()}
    if isinstance(obj, ModuleOverZn):
        return {"type": "module", "modulus": obj.modulus, "orders": list(obj.orders)}
    if isinstance(obj, GroupHom):
        return {"type": "hom", "dom": ref(obj.dom), "cod": ref(obj.cod), "map": obj.map.tolist()}
    if isinstance(obj, GModuleAction):
        entry = {"type": "action", "group": ref(obj.group), "module": ref(obj.module)}
        if obj.is_trivial():
            entry["trivial"] = True
        else:
            entry["matrices"] = obj.matrices.reshape(obj.group.order, -1).tolist()
        return entry
    if isinstance(obj, Cochain):
        return {
            "type": "cochain",
            "action": ref(obj.coeffs),
            "degree": obj.degree,
            "values": obj.values.reshape(-1).tolist(),
        }
    if isinstance(obj, PlaceDatum):
        return {
            "type": "place",
            "local_group": ref(obj.local_group),
            "embedding": ref(obj.embedding),
            "inertia": list(obj.inertia),
            "h2_generator": ref(obj.h2_generator),
            "inv_normalization": obj.inv_normalization,
        }
    if isinstance(obj, GlobalDatum):
        return {
            "type": "global_datum",
            "modulus": obj.modulus,
            "global_group": ref(obj.global_group),
            "places": [ref(p) for p in obj.places],
            "gauge_group": ref(obj.gauge_group),
            "three_cocycle": ref(obj.three_cocycle),
        }
    raise ValidationError(f"cannot serialize object of type {type(obj).__name__}")


def document_for(obj) -> Document:
    """Build a self-contained document around one main object."""
    names: dict[int, str] = {}
    raw: dict[str, dict] = {}
    counts: dict[str, int] = {}

    def name(part) -> str:
        if id(part) not in names:
            # a part is numbered after its own parts; no kind refers to its
            # own kind, so the numbers equal those of naming it first
            entry = _fields(part, name)
            kind = "datum" if entry["type"] == "global_datum" else entry["type"]
            counts[kind] = counts.get(kind, 0) + 1
            names[id(part)] = f"{kind}{counts[kind]}"
            raw[names[id(part)]] = entry
        return names[id(part)]

    main = name(obj)
    return Document(raw=raw, objects=_resolve_all(raw), main=main)


def serialize(doc: Document) -> str:
    """Canonical text form: sorted keys, fixed indentation, trailing newline."""
    payload: dict = {"format_version": FORMAT_VERSION, "objects": doc.raw}
    if doc.main is not None:
        payload["main"] = doc.main
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def serialize_object(obj) -> str:
    return serialize(document_for(obj))


# ---------------------------------------------------------------------------
# Decoding.


def _require(entry: dict, key: str, name: str):
    if key not in entry:
        raise ValidationError(f"object {name!r} is missing field {key!r}")
    return entry[key]


def _ints(entry: dict, key: str, name: str | None, depth: int = 0):
    """Field ``key`` of object ``name`` (None: the document itself), read strictly.

    The field must be a JSON integer (depth 0), a list of them (depth 1) or a
    list of such lists (depth 2), every integer inside int64.  A bool, float
    or string, any other nesting, or a value outside int64 is a
    ValidationError naming the object and the field.  Returns the value as
    given.
    """
    owner = "the document" if name is None else f"object {name!r}"
    if key not in entry:
        raise ValidationError(f"{owner} is missing field {key!r}")
    value = entry[key]
    leaves = [value]
    for _ in range(depth):
        if not all(type(v) is list for v in leaves):
            raise ValidationError(f"{owner}: field {key!r} must nest lists {depth} deep")
        leaves = [x for v in leaves for x in v]
    for x in leaves:
        if type(x) is not int:  # bool is a subclass of int
            raise ValidationError(f"{owner}: field {key!r} must hold integers, got {x!r}")
        if not _INT64_MIN <= x <= _INT64_MAX:
            raise ValidationError(f"{owner}: field {key!r} holds {x}, outside int64")
    return value


def _resolve_all(raw_objects: dict) -> dict[str, object]:
    resolved: dict[str, object] = {}
    resolving: set[str] = set()

    def resolve(name: str):
        if not isinstance(name, str):
            raise ValidationError(f"references must be strings, got {name!r}")
        if name in resolved:
            return resolved[name]
        if name not in raw_objects:
            raise ValidationError(f"reference to unknown object {name!r}")
        if name in resolving:
            raise ValidationError(f"circular reference through {name!r}")
        resolving.add(name)
        entry = raw_objects[name]
        if not isinstance(entry, dict):
            raise ValidationError(f"object {name!r} is not a JSON object")
        kind = _require(entry, "type", name)
        try:
            obj = _build(kind, entry, name, resolve)
        except ValidationError:
            raise
        except ValueError as exc:
            raise ValidationError(f"object {name!r}: {exc}") from exc
        resolving.discard(name)
        resolved[name] = obj
        return obj

    for name in sorted(raw_objects):
        resolve(name)
    return resolved


_KINDS = {
    FiniteGroup: "group",
    ModuleOverZn: "module",
    GroupHom: "hom",
    GModuleAction: "action",
    Cochain: "cochain",
    PlaceDatum: "place",
    GlobalDatum: "global_datum",
}


def _build(kind: str, entry: dict, name: str, resolve):
    def ref(key: str, cls: type, target=None):
        """The object that field ``key`` (or ``target``, one of its items) names."""
        target = _require(entry, key, name) if target is None else target
        obj = resolve(target)
        if not isinstance(obj, cls):
            raise ValidationError(f"object {name!r}: field {key!r} must name a {_KINDS[cls]}, got {target!r}")
        return obj

    if kind == "group":
        order = _ints(entry, "order", name)
        mul = np.array(_ints(entry, "mul", name, 1), dtype=np.int64)
        if mul.size != order * order:
            raise ValidationError(f"object {name!r}: mul table must have {order * order} entries")
        return make_group(mul.reshape(order, order))
    if kind == "module":
        return ModuleOverZn(_ints(entry, "modulus", name), tuple(_ints(entry, "orders", name, 1)))
    if kind == "hom":
        return make_hom(ref("dom", FiniteGroup), ref("cod", FiniteGroup), _ints(entry, "map", name, 1))
    if kind == "action":
        group = ref("group", FiniteGroup)
        module = ref("module", ModuleOverZn)
        if "trivial" in entry:
            if entry["trivial"] is not True:
                raise ValidationError(f"object {name!r}: field 'trivial' must be true, got {entry['trivial']!r}")
            if "matrices" in entry:
                raise ValidationError(f"object {name!r}: field 'trivial' excludes field 'matrices'")
            return GModuleAction.trivial(group, module)
        mats = _ints(entry, "matrices", name, 2)
        r = module.rank
        if len(mats) != group.order or any(len(m) != r * r for m in mats):
            raise ValidationError(f"object {name!r}: field 'matrices' needs {group.order} lists of {r * r} integers")
        return GModuleAction(group, module, np.array(mats, dtype=np.int64).reshape(group.order, r, r))
    if kind == "cochain":
        action = ref("action", GModuleAction)
        degree = _ints(entry, "degree", name)
        values = np.array(_ints(entry, "values", name, 1), dtype=np.int64)
        if not 0 <= degree <= MAX_COCHAIN_DEGREE:
            raise ValidationError(f"object {name!r}: field 'degree' is {degree}, outside [0, {MAX_COCHAIN_DEGREE}]")
        expected = action.group.order**degree * action.module.rank
        if values.size != expected:
            raise ValidationError(
                f"object {name!r}: cochain of degree {degree} needs {expected} values, got {values.size}"
            )
        return Cochain(action, degree, values.reshape(-1, action.module.rank))
    if kind == "place":
        gen = ref("h2_generator", Cochain)
        place = PlaceDatum(
            local_group=ref("local_group", FiniteGroup),
            embedding=ref("embedding", GroupHom),
            inertia=tuple(_ints(entry, "inertia", name, 1)),
            h2_generator=gen,
            inv_normalization=_ints(entry, "inv_normalization", name),
        )
        if not differential(gen).is_zero():
            raise ValidationError(f"object {name!r}: declared h2_generator is not a cocycle")
        return place
    if kind == "global_datum":
        places = _require(entry, "places", name)
        if type(places) is not list:
            raise ValidationError(f"object {name!r}: field 'places' must be a list, got {places!r}")
        datum = GlobalDatum(
            modulus=_ints(entry, "modulus", name),
            global_group=ref("global_group", FiniteGroup),
            places=tuple(ref("places", PlaceDatum, p) for p in places),
            gauge_group=ref("gauge_group", FiniteGroup),
            three_cocycle=ref("three_cocycle", Cochain),
        )
        if not differential(datum.three_cocycle).is_zero():
            raise ValidationError(f"object {name!r}: declared three_cocycle is not a cocycle")
        return datum
    raise ValidationError(f"object {name!r} has unknown type {kind!r}")


def parse(text: str) -> Document:
    """Parse and validate a document; every referenced object is resolved."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, exc.lineno, exc.colno) from exc
    if not isinstance(payload, dict):
        raise ValidationError("top level must be a JSON object")
    version = _ints(payload, "format_version", None)
    if version != FORMAT_VERSION:
        raise ValidationError(f"unsupported format_version {version!r}")
    raw = payload.get("objects", {})
    if not isinstance(raw, dict):
        raise ValidationError("'objects' must be a JSON object")
    main = payload.get("main")
    if main is not None and not isinstance(main, str):
        raise ValidationError(f"'main' must name an object, got {main!r}")
    return Document(raw=raw, objects=_resolve_all(raw), main=main)


def load_path(path) -> Document:
    with open(path, "r", encoding="utf-8") as fh:
        return parse(fh.read())


def dump_path(doc: Document, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize(doc))

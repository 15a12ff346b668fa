"""Command-line interface.

Every computation is scriptable: inputs are document files (see dataio),
outputs are canonical serialized documents or fixed-format text, so repeated
runs with identical inputs are byte-identical.

Exit codes: 0 success, 2 validation failure, 3 computation error (any
``ComputationError``, or running out of memory), 4 parse error or unreadable
file.  Every failure prints one ``error: ...`` line on stderr.
"""

from __future__ import annotations

import argparse
import sys

from . import dataio
from .cochains import Coboundary, Cochain, NonCocycle, classify, cohomology
from .cstheory import (
    GlobalDatum,
    _section_value,
    cs_invariant,
    cs_section,
    kummer_trivialization,
    scalar_coefficients,
    validate_global_datum,
)
from .groups import FiniteGroup, GroupHom
from .ops import bockstein, conjugate, cup, homotopy
from .verify import run_verification
from .zmod import ComputationError

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_COMPUTATION = 3
EXIT_PARSE = 4

SEED_HELP = (
    "add a seeded element of Z^2 (a global 2-cocycle) to the global trivialization; "
    "invariants must not change"
)


def _load_main(path, cls):
    """The document's main object if of the wanted type, else its only object of that type."""
    doc = dataio.load_path(path)
    if doc.main is not None:
        obj = doc.resolve_main()
        if isinstance(obj, cls):
            return obj
    return doc.only_of_type(cls)


def _emit(text: str):
    sys.stdout.write(text)
    if not text.endswith("\n"):
        sys.stdout.write("\n")


def _cmd_cohomology(args) -> int:
    group = _load_main(args.group, FiniteGroup)
    coeffs = scalar_coefficients(group, args.modulus)
    h = cohomology(coeffs, args.degree)
    _emit(f"degree: {args.degree}")
    _emit(f"invariant_factors: {list(h.invariant_factors)}")
    for i, gen in enumerate(h.generators):
        _emit(f"generator {i}: {gen.values.reshape(-1).tolist()}")
    return EXIT_OK


def _cmd_classify(args) -> int:
    f = _load_main(args.cochain, Cochain)
    res = classify(f)
    if isinstance(res, NonCocycle):
        _emit(f"non_cocycle witness: {list(res.witness)}")
    elif isinstance(res, Coboundary):
        _emit("coboundary")
        if res.preimage is not None:
            _emit(f"preimage: {res.preimage.values.reshape(-1).tolist()}")
    else:
        _emit(f"nontrivial_class coordinates: {list(res.coordinates)}")
    return EXIT_OK


def _cmd_cup(args) -> int:
    x = _load_main(args.left, Cochain)
    y = _load_main(args.right, Cochain)
    _emit(dataio.serialize_object(cup(x, y)))
    return EXIT_OK


def _cmd_bockstein(args) -> int:
    f = _load_main(args.cochain, Cochain)
    _emit(dataio.serialize_object(bockstein(f)))
    return EXIT_OK


def _cmd_conjugate(args) -> int:
    f = _load_main(args.cochain, Cochain)
    _emit(dataio.serialize_object(conjugate(f, args.element)))
    return EXIT_OK


def _cmd_homotopy(args) -> int:
    f = _load_main(args.cochain, Cochain)
    elements = [int(x) for x in args.elements.split(",") if x != ""]
    _emit(dataio.serialize_object(homotopy(elements, f)))
    return EXIT_OK


def _cmd_invariant(args) -> int:
    datum = _load_main(args.datum, GlobalDatum)
    rho = _load_main(args.rho, GroupHom)
    value = cs_invariant(datum, rho, solver_seed=args.seed)
    _emit(f"cs_invariant: {value}")
    return EXIT_OK


def _cmd_section(args) -> int:
    datum = _load_main(args.datum, GlobalDatum)
    rho = _load_main(args.rho, GroupHom)
    section = cs_section(datum, rho, solver_seed=args.seed)
    value = _section_value(datum, rho, section)  # may raise: print nothing before it
    for i, comp in enumerate(section):
        _emit(f"component {i}: {comp.values.reshape(-1).tolist()}")
    _emit(f"class_at_unramified_basepoint: {value}")
    return EXIT_OK


def _cmd_kummer(args) -> int:
    f = _load_main(args.hom, GroupHom)
    lift = None if args.lift is None else _load_main(args.lift, GroupHom)
    b, t = kummer_trivialization(f, lift)
    _emit(f"b: {b.values.reshape(-1).tolist()}")
    _emit(f"t: {t.values.reshape(-1).tolist()}")
    return EXIT_OK


def _cmd_validate(args) -> int:
    datum = _load_main(args.datum, GlobalDatum)
    report = validate_global_datum(datum)
    _emit(report.format())
    return EXIT_OK if report.passed else EXIT_VALIDATION


def _cmd_verify(args) -> int:
    ok = run_verification(args.seed)
    return EXIT_OK if ok else EXIT_COMPUTATION


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="arithcs",
        description="Exact group cohomology over Z/n and arithmetic Chern-Simons invariants",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cohomology", help="invariant factors and generators of H^i(G, Z/n)")
    p.add_argument("--group", required=True, help="document with a group")
    p.add_argument("--modulus", required=True, type=int)
    p.add_argument("--degree", required=True, type=int)
    p.set_defaults(func=_cmd_cohomology)

    p = sub.add_parser("classify", help="non-cocycle / coboundary / class coordinates")
    p.add_argument("--cochain", required=True)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("cup", help="cup product of two cochains")
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p.set_defaults(func=_cmd_cup)

    p = sub.add_parser("bockstein", help="connecting map for 0 -> Z/n -> Z/n^2 -> Z/n -> 0")
    p.add_argument("--cochain", required=True)
    p.set_defaults(func=_cmd_bockstein)

    p = sub.add_parser("conjugate", help="the conjugation action f^a")
    p.add_argument("--cochain", required=True)
    p.add_argument("--element", required=True, type=int)
    p.set_defaults(func=_cmd_conjugate)

    p = sub.add_parser("homotopy", help="the shuffle-path homotopy h_{a_1..a_k, f}")
    p.add_argument("--cochain", required=True)
    p.add_argument("--elements", required=True, help="comma-separated element indices")
    p.set_defaults(func=_cmd_homotopy)

    p = sub.add_parser("invariant", help="Chern-Simons invariant by local-vs-global gluing")
    p.add_argument("--datum", required=True)
    p.add_argument("--rho", required=True)
    p.add_argument("--seed", type=int, default=None, help=SEED_HELP)
    p.set_defaults(func=_cmd_invariant)

    p = sub.add_parser("section", help="global section restricted to the places")
    p.add_argument("--datum", required=True)
    p.add_argument("--rho", required=True)
    p.add_argument("--seed", type=int, default=None, help=SEED_HELP)
    p.set_defaults(func=_cmd_section)

    p = sub.add_parser("kummer", help="trivialization from a lift to Z/m^2")
    p.add_argument("--hom", required=True)
    p.add_argument("--lift", default=None, help="document with the lift; omitted = search")
    p.set_defaults(func=_cmd_kummer)

    p = sub.add_parser("validate", help="check place invariants and reciprocity")
    p.add_argument("--datum", required=True)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("verify", help="run the property-check battery")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except dataio.ParseError as exc:
        print(f"error: ParseError: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ComputationError as exc:
        print(f"error: {type(exc).__name__.removesuffix('Error')}: {exc}", file=sys.stderr)
        return EXIT_COMPUTATION
    except MemoryError as exc:  # numpy's message says how much it asked for
        print(f"error: Memory: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_COMPUTATION
    except OSError as exc:
        print(f"error: {type(exc).__name__.removesuffix('Error')}: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ValueError as exc:  # a rejected input: ValidationError, NotAGroupError, NotAHomError, ...
        print(f"error: {type(exc).__name__.removesuffix('Error')}: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())

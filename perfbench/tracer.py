"""Span recorder that wraps the library's functions from outside the package.

``Tracer.install`` replaces each listed function at every place it is bound
(its own module, every ``arithcs`` module that imported it, and the package
namespace), so calls between modules pass through the wrapper; ``uninstall``
puts the originals back.  A span is (name, layer, start, end, parent,
request).  Spans stay in memory and are written out as JSON lines when the
run ends.  Work the tracer itself does inside a span (hashing a matrix to
spot repeats) is recorded as a child span of layer ``trace``, so it is not
charged to any layer's self time.
"""

from __future__ import annotations

import functools
import hashlib
import json
import sys
import time

import numpy as np

# The functions wrapped in each layer.  Scalar helpers called once per pivot
# or per tuple (unit_lift, decode_index, FiniteGroup.op) are left out: their
# cost stays in the caller's self time.  Generator functions are left out
# because their work happens after they return.
LAYERS = {
    "zmod": [
        "howell_form", "left_kernel", "right_kernel", "row_space_contains", "solve_linear",
        "lattice_basis", "lattice_coordinates", "diagonalize_mod", "smith_normal_form",
    ],
    "groups": [
        "make_group", "make_hom", "conjugation_hom", "inclusion_hom", "direct_product", "cyclic",
        "FiniteGroup.quotient_by", "FiniteGroup.is_normal", "FiniteGroup.is_subgroup",
        "GroupHom.compose", "GModuleAction.trivial", "GModuleAction.by_units",
        "GModuleAction.by_character",
    ],
    "cochains": [
        "differential", "pullback", "differential_matrix", "_scaled_differential",
        "solve_differential", "classify", "cohomology", "normalized_representative",
        "CohomologyGroup.coordinates",
    ],
    "ops": ["cup", "bockstein", "conjugate", "homotopy", "identity_character", "carry_cocycle",
            "cyclic_three_cocycle"],
    "cstheory": [
        "scalar_coefficients", "local_invariant", "h2_class_value", "validate_global_datum",
        "local_pullbacks", "torsor_build", "element_in_fiber", "torsor_map", "torsor_difference",
        "pushout_value", "unramified_trivialization", "unramified_basepoint",
        "_global_trivialization", "cs_invariant", "cs_section", "section_class",
        "invariant_section_class", "kummer_trivialization",
    ],
    "dataio": ["parse", "serialize", "serialize_object", "document_for", "load_path", "dump_path"],
    "cli": ["main"],
}

# Per-function time metrics: inclusive time of the outermost span among the
# listed names.
FUNCTION_TIMES = {
    "zmod.solve_linear_s": ("zmod", {"solve_linear"}),
    "zmod.kernel_s": ("zmod", {"left_kernel", "right_kernel", "howell_form"}),
    "zmod.diagonalize_s": ("zmod", {"diagonalize_mod", "smith_normal_form"}),
    "zmod.lattice_s": ("zmod", {"lattice_basis", "lattice_coordinates"}),
    "cochains.dmatrix_s": ("cochains", {"differential_matrix", "_scaled_differential"}),
    "cochains.differential_s": ("cochains", {"differential"}),
    "ops.homotopy_s": ("ops", {"homotopy"}),
    "ops.cup_s": ("ops", {"cup"}),
}

# zmod entries that eliminate a matrix; lattice_coordinates only
# back-substitutes against a triangular basis.
ELIMINATIONS = {
    "howell_form", "left_kernel", "right_kernel", "row_space_contains", "solve_linear",
    "lattice_basis", "diagonalize_mod", "smith_normal_form",
}

INVARIANT_RETURNING = {"cs_invariant", "section_class", "invariant_section_class"}


def _matrix_array(x):
    """The entries of a matrix argument (a MatZn or an array), or None."""
    if hasattr(x, "a") and isinstance(x.a, np.ndarray):
        return x.a
    if isinstance(x, np.ndarray):
        return x
    return None


def _gathers(name, args, result):
    """Source-table entries an ops call gathers to build its output."""
    size = int(getattr(getattr(result, "values", None), "size", 0))
    if name == "cup":
        return 2 * size
    if name == "homotopy":
        from math import comb

        k = len(args[0])
        return size * comb(result.degree + k, k)
    return size


class Tracer:
    def __init__(self, package):
        self.package = package
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.request = -1
        self.counts: dict[str, float] = {}
        self.seen: set = set()
        self._undo: list = []

    # -- installation -------------------------------------------------------

    def _modules(self):
        return [m for k, m in sorted(sys.modules.items()) if k == "arithcs" or k.startswith("arithcs.")]

    def install(self):
        modules = self._modules()
        for layer, names in LAYERS.items():
            home = getattr(self.package, layer)
            for name in names:
                if "." in name:
                    self._wrap_method(layer, home, name)
                    continue
                orig = home.__dict__.get(name)
                if orig is None:
                    continue
                wrapper = self._wrapper(layer, name, orig)
                for mod in modules:
                    for key, val in list(mod.__dict__.items()):
                        if val is orig:
                            self._undo.append((mod, key, orig))
                            setattr(mod, key, wrapper)

    def _wrap_method(self, layer, home, dotted):
        cls_name, meth = dotted.split(".")
        cls = home.__dict__.get(cls_name)
        if cls is None or meth not in cls.__dict__:
            return
        orig = cls.__dict__[meth]
        if isinstance(orig, classmethod):
            new = classmethod(self._wrapper(layer, dotted, orig.__func__))
        else:
            new = self._wrapper(layer, dotted, orig)
        self._undo.append((cls, meth, orig))
        setattr(cls, meth, new)

    def uninstall(self):
        for owner, key, orig in reversed(self._undo):
            setattr(owner, key, orig)
        self._undo.clear()

    # -- recording ----------------------------------------------------------

    def _wrapper(self, layer, name, fn):
        spans, stack = self.spans, self.stack
        pre, post = self._hooks(layer, name, fn)
        perf = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            rec = [name, layer, 0.0, 0.0, parent, self.request]
            idx = len(spans)
            spans.append(rec)
            stack.append(idx)
            state = pre(args, parent) if pre else None
            rec[2] = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = perf()
                stack.pop()
            if post:
                post(args, result, state, rec)
            return result

        return wrapper

    def _add(self, key, value):
        self.counts[key] = self.counts.get(key, 0) + value

    def _zmod_pre(self, name, args, parent):
        """At an entry into an elimination: count its cells and spot a repeat.

        A repeat is the same routine on a matrix with the same modulus, shape
        and entries as an earlier entry in this pass; the right-hand side of
        ``solve_linear`` is not part of the key, because the elimination
        does not depend on it.
        """
        if name not in ELIMINATIONS or (parent >= 0 and self.spans[parent][1] == "zmod"):
            return None
        start = time.perf_counter()
        arr = _matrix_array(args[0])
        if arr is None:
            arr = np.asarray(args[0], dtype=np.int64)
        modulus = getattr(args[0], "modulus", None) or args[-1]
        digest = hashlib.blake2b(np.ascontiguousarray(arr).data, digest_size=16).digest()
        key = (name, modulus, arr.shape, digest)
        self._add("zmod.eliminations", 1)
        self._add("zmod.cells", int(arr.size))
        self._add("zmod.repeats", int(key in self.seen))
        self.seen.add(key)
        self.spans.append(["hash", "trace", start, time.perf_counter(), parent, self.request])
        return None

    def _hooks(self, layer, name, fn):
        """(pre, post) callbacks that record the counts of one wrapped function."""
        if layer == "zmod":
            return (lambda args, parent: self._zmod_pre(name, args, parent)), None
        if name in ("differential_matrix", "_scaled_differential"):
            info = fn.cache_info

            def built(args, result, misses_before, _rec):
                if info().misses != misses_before:
                    self._add("cochains.dense_bytes", int(_matrix_array(result).nbytes))

            return (lambda args, parent: info().misses), built
        return None, self._post_hook(layer, name)

    def _post_hook(self, layer, name):
        if name == "solve_differential":
            return lambda args, result, state, rec: self._add("cochains.solves", 1)
        if layer == "cstheory" and name in INVARIANT_RETURNING:
            # only invariants handed back to the caller, not those computed
            # inside invariant_section_class
            def value(args, result, state, rec):
                if rec[4] < 0 or self.spans[rec[4]][1] != "cstheory":
                    self._add("cstheory.values", 1)

            return value
        if layer == "ops" and name in {"cup", "bockstein", "conjugate", "homotopy"}:
            return lambda args, result, state, rec: self._add("ops.entries", _gathers(name, args, result))
        if layer == "dataio" and name == "parse":
            return lambda args, result, state, rec: self._add("dataio.bytes_in", len(args[0].encode()))
        if layer == "dataio" and name == "serialize":
            return lambda args, result, state, rec: self._add("dataio.bytes_out", len(result.encode()))
        return None

    # -- passes and metrics -------------------------------------------------

    def begin_pass(self):
        """Start a pass: counts and the repeat detector start from zero."""
        self.counts = {}
        self.seen = set()
        return len(self.spans)

    def layer_metrics(self, first_span: int) -> dict[str, float]:
        """Per-layer metrics of the spans recorded since ``first_span``."""
        spans = self.spans[first_span:]
        base = first_span
        child = [0.0] * len(spans)
        for rec in spans:
            if rec[4] >= base:
                child[rec[4] - base] += rec[3] - rec[2]
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = 0.0
            out[f"{layer}.calls"] = 0
        for i, rec in enumerate(spans):
            layer = rec[1]
            if layer == "trace":
                continue
            out[f"{layer}.self_s"] += (rec[3] - rec[2]) - child[i]
            parent = rec[4]
            if parent < base or self.spans[parent][1] != layer:
                out[f"{layer}.calls"] += 1
        for metric, (layer, names) in FUNCTION_TIMES.items():
            total = 0.0
            for rec in spans:
                if rec[1] != layer or rec[0] not in names:
                    continue
                parent = rec[4]
                nested = False
                while parent >= base:
                    prec = self.spans[parent]
                    if prec[1] == layer and prec[0] in names:
                        nested = True
                        break
                    parent = prec[4]
                if not nested:
                    total += rec[3] - rec[2]
            out[metric] = total
        c = self.counts
        entries = c.get("zmod.eliminations", 0)
        out["zmod.cells"] = int(c.get("zmod.cells", 0))
        out["zmod.repeat_ratio"] = c.get("zmod.repeats", 0) / entries if entries else 0.0
        out["cochains.dense_bytes"] = int(c.get("cochains.dense_bytes", 0))
        out["ops.entries"] = int(c.get("ops.entries", 0))
        values = c.get("cstheory.values", 0)
        out["cstheory.solves_per_value"] = c.get("cochains.solves", 0) / values if values else 0.0
        out["dataio.bytes_in"] = int(c.get("dataio.bytes_in", 0))
        out["dataio.bytes_out"] = int(c.get("dataio.bytes_out", 0))
        return out

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, layer, start, end, parent, request) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": f"{layer}.{name}", "start": start, "end": end,
                                     "parent": parent, "request": request}) + "\n")

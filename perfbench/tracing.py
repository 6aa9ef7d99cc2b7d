"""Spans around the public functions of theta2's layers, recorded from
outside the package.

`install(recorder)` replaces each target function (and each target method
on its class) with a wrapper that records one span per call: name, field,
parent span, start and end.  A module-level function is replaced in every
``theta2.*`` namespace that holds it, because ``thetaring`` and ``cli``
import engine names with ``from .groebner import ...``.  Spans stay in
memory; `Recorder.write` dumps them as JSON lines when the run ends.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time

# (module, attribute path, extra-metric hook).  Names follow
# "<layer>.<attribute path>", e.g. "groebner.EngineBasis.normal_form".
TARGETS = [
    ("cli", "cmd_structure", None),
    ("cli", "cmd_verify", None),
    ("thetaring", "RelationOracle.__init__", "fields"),
    ("thetaring", "all_relations", None),
    ("thetaring", "sextets", None),
    ("thetaring", "StructurePipeline.kernel_seed", "size"),
    ("thetaring", "StructurePipeline.total_kernel", "size"),
    ("thetaring", "StructurePipeline.catalog_span", "size"),
    ("thetaring", "StructurePipeline.m_pair", "size"),
    ("thetaring", "StructurePipeline.chi5_m", "size"),
    ("thetaring", "StructurePipeline.gradient_span", "size"),
    ("thetaring", "StructurePipeline.orbit_extr_h", "size"),
    ("thetaring", "StructurePipeline.generated_module", "size"),
    ("thetaring", "StructurePipeline.module_series", None),
    ("thetaring", "StructurePipeline.structure_report", None),
    ("thetaring", "bracket_modules", None),
    ("groebner", "buchberger_engine", "rows"),
    ("groebner", "module_quotient_engine", None),
    ("groebner", "intersect_engine", None),
    ("groebner", "intersect_pair_engine", "useful"),
    ("groebner", "EngineBasis.normal_form", None),
    ("groebner", "hilbert_series_engine", None),
    ("groebner", "BasisCache.load", "load"),
    ("groebner", "BasisCache.store", "store"),
    ("symbolic", "element_to_text", None),
    ("symbolic", "element_from_text", None),
    ("numerics", "theta_values", None),
    ("numerics", "grad_values", None),
    ("numerics", "relation_residual", None),
    ("numerics", "dtable_ratios", None),
    ("numerics", "second_kind_checks", None),
]


def metric_name(module: str, attr: str) -> str:
    """'RelationOracle.__init__' is reported as 'thetaring.RelationOracle'."""
    if attr.endswith(".__init__"):
        attr = attr[: -len(".__init__")]
    return f"{module}.{attr}"


class Recorder:
    """Spans of one process.  Each span is a dict with id, parent, name,
    field, start, end (perf_counter seconds), nested (an ancestor has the
    same name) and any extra counts the wrapper attaches."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[dict] = []
        self._active: dict[str, int] = {}
        self._field_names: dict[int, str] = {}

    def field_of(self, args, kwargs) -> str | None:
        for a in list(args) + list(kwargs.values()):
            name = self._field_names.get(id(a))
            if name:
                return name
        if args:
            name = self._field_names.get(id(getattr(args[0], "field", None)))
            if name:
                return name
        return self._stack[-1]["field"] if self._stack else None

    def wrap(self, name: str, fn, hook: str | None):
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = rec._stack[-1] if rec._stack else None
            span = {"id": len(rec.spans), "parent": parent["id"] if parent else None,
                    "name": name, "field": rec.field_of(args, kwargs),
                    "nested": rec._active.get(name, 0) > 0}
            rec.spans.append(span)
            rec._stack.append(span)
            rec._active[name] = rec._active.get(name, 0) + 1
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                rec._stack.pop()
                rec._active[name] -= 1
            if hook:
                _HOOKS[hook](rec, span, args, result)
            return result

        return wrapper

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s, sort_keys=True) + "\n")


def _hook_size(rec, span, args, result):
    span["size"] = len(result)


def _hook_rows(rec, span, args, result):
    span["rows"] = len(result)


def _hook_useful(rec, span, args, result):
    # a step is useful when its result differs from the running basis
    span["useful"] = int(result != args[0])


def _hook_fields(rec, span, args, result):
    # the oracle learns its fields inside __init__, after the span opened
    names = [rec._field_names.get(id(f), "?") for f in args[0].fields]
    span["field"] = "+".join(names)


def _file_size(cache, key) -> int:
    try:
        return os.path.getsize(cache.path(key))
    except (OSError, TypeError):
        return 0


def _hook_load(rec, span, args, result):
    span["hit"] = int(result is not None)
    span["bytes"] = _file_size(args[0], args[1]) if result is not None else 0


def _hook_store(rec, span, args, result):
    span["bytes"] = _file_size(args[0], args[1]) if args[0].directory else 0


_HOOKS = {"fields": _hook_fields, "size": _hook_size, "rows": _hook_rows,
          "useful": _hook_useful, "load": _hook_load, "store": _hook_store}


def install(recorder: Recorder) -> None:
    """Wrap every target; the theta2 package must be importable."""
    import importlib

    from theta2 import groebner

    for short, field in groebner.FIELDS.items():
        recorder._field_names[id(field)] = short
    for module_name, _, _ in TARGETS:
        importlib.import_module(f"theta2.{module_name}")
    modules = [m for name, m in list(sys.modules.items())
               if name == "theta2" or name.startswith("theta2.")]
    for module_name, attr, hook in TARGETS:
        module = sys.modules[f"theta2.{module_name}"]
        name = metric_name(module_name, attr)
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            setattr(cls, meth, recorder.wrap(name, cls.__dict__[meth], hook))
            continue
        original = getattr(module, attr)
        wrapped = recorder.wrap(name, original, hook)
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is original:
                    setattr(m, key, wrapped)


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------

def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the part covered by its child spans."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = {}
    for s in spans:
        covered = 0.0
        cur_start = cur_end = None
        for a, b in sorted(children.get(s["id"], [])):
            a, b = max(a, s["start"]), min(b, s["end"])
            if b <= a:
                continue
            if cur_end is None or a > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = a, b
            else:
                cur_end = max(cur_end, b)
        if cur_end is not None:
            covered += cur_end - cur_start
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


LAYERS = ("cli", "thetaring", "groebner", "symbolic", "numerics")


def aggregate(spans: list[dict]) -> dict[str, float]:
    """Per-name metrics summed over fields: calls, s (inclusive, outermost
    spans of a name only, so recursion is not counted twice), self_s, the
    extra counts the hooks attached, and per layer the summed self time
    ("<layer>.self_s", the time that layer's own code was busy)."""
    selfs = self_times(spans)
    out: dict[str, float] = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    for module, attr, _ in TARGETS:
        name = metric_name(module, attr)
        out.update({f"{name}.calls": 0, f"{name}.s": 0.0, f"{name}.self_s": 0.0})
    useful: dict[str, list[int]] = {}
    for s in spans:
        n = s["name"]
        layer = n.split(".")[0]
        out[f"{layer}.self_s"] = out.get(f"{layer}.self_s", 0.0) + selfs[s["id"]]
        out[f"{n}.calls"] = out.get(f"{n}.calls", 0) + 1
        if not s["nested"]:
            out[f"{n}.s"] = out.get(f"{n}.s", 0.0) + s["end"] - s["start"]
        out[f"{n}.self_s"] = out.get(f"{n}.self_s", 0.0) + selfs[s["id"]]
        if "size" in s:
            out[f"{n}.size"] = max(out.get(f"{n}.size", 0), s["size"])
        if "rows" in s:
            out[f"{n}.rows_out"] = out.get(f"{n}.rows_out", 0) + s["rows"]
        if "useful" in s:
            useful.setdefault(n, []).append(s["useful"])
        if "hit" in s:
            key = "hits" if s["hit"] else "misses"
            out[f"{n}.{key}"] = out.get(f"{n}.{key}", 0) + 1
        if "bytes" in s:
            out[f"{n}.bytes"] = out.get(f"{n}.bytes", 0) + s["bytes"]
    for n, flags in useful.items():
        out[f"{n}.useful_ratio"] = sum(flags) / len(flags)
    return out


def stage_time(spans: list[dict], name: str, minus: tuple[str, ...] = ()) -> float:
    """Inclusive time of the outermost `name` spans minus the outermost
    descendant spans named in `minus`: the stage's own work without the
    earlier stages it triggers lazily."""
    by_id = {s["id"]: s for s in spans}

    def ancestors(s):
        p = s["parent"]
        while p is not None:
            yield by_id[p]
            p = by_id[p]["parent"]

    total = 0.0
    for s in spans:
        if s["name"] != name or s["nested"]:
            continue
        total += s["end"] - s["start"]
    for s in spans:
        if s["name"] not in minus:
            continue
        chain = list(ancestors(s))
        stage = next((a for a in chain if a["name"] == name and not a["nested"]), None)
        if stage is None:
            continue
        # skip spans already inside another subtracted span below the stage
        below = chain[: chain.index(stage)]
        if any(a["name"] in minus for a in below):
            continue
        total -= s["end"] - s["start"]
    return total


# (row label, span name, subtracted descendant spans); the rows of the
# per-stage table, in pipeline order
STAGES = [
    ("oracle (both primes)", "thetaring.RelationOracle", ()),
    ("sextets", "thetaring.sextets", ("thetaring.RelationOracle",)),
    ("kernel seed", "thetaring.StructurePipeline.kernel_seed", ()),
    ("colon kernel", "thetaring.StructurePipeline.total_kernel",
     ("thetaring.StructurePipeline.kernel_seed",)),
    ("catalog span", "thetaring.StructurePipeline.catalog_span",
     ("thetaring.RelationOracle", "thetaring.all_relations",
      "thetaring.StructurePipeline.total_kernel")),
    ("15 m_pair bases", "thetaring.StructurePipeline.m_pair",
     ("thetaring.StructurePipeline.total_kernel",)),
    ("chi5_m intersection fold", "thetaring.StructurePipeline.chi5_m",
     ("thetaring.StructurePipeline.m_pair",
      "thetaring.StructurePipeline.total_kernel")),
    ("gradient span", "thetaring.StructurePipeline.gradient_span",
     ("thetaring.StructurePipeline.total_kernel",)),
    ("orbit", "thetaring.StructurePipeline.orbit_extr_h",
     ("thetaring.StructurePipeline.chi5_m",)),
    ("generated module", "thetaring.StructurePipeline.generated_module",
     ("thetaring.StructurePipeline.orbit_extr_h",
      "thetaring.StructurePipeline.total_kernel")),
    ("series", "thetaring.StructurePipeline.module_series",
     ("thetaring.StructurePipeline.total_kernel",
      "thetaring.StructurePipeline.chi5_m")),
]


def stage_table(spans: list[dict]) -> list[tuple[str, float]]:
    return [(label, stage_time(spans, name, minus))
            for label, name, minus in STAGES]

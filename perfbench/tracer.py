"""Outside-in tracer for the traced pass, and the per-layer ledger.

The tracer wraps every public function of each orbitrank module, plus the
``MPoly`` methods the estimator uses, at every place callers look them up:
the defining module, each module that imported the name, and the package
namespace. Nothing inside the program changes. Each call becomes a span
(name, start, end, parent, input); spans stay in memory until the pass ends.

Each span is charged to one of ROADMAP item 1's seven stages. A span whose
layer serves several stages (Sturm counting, exact linear algebra) is
charged to the stage of its caller. ``glue`` spans (argument parsing and
``report.analyze_algebra``, which sequences the stages) count as
unattributed.
"""

from __future__ import annotations

import functools
import sys
import types
from time import perf_counter

PACKAGE = "orbitrank"
MODULES = (
    "cli", "report", "lieio", "catalog", "liealg", "linalg",
    "sturm", "poly", "coadjoint", "invariants", "inference",
)
# MPoly methods traced as poly.<method>
MPOLY_METHODS = ("evaluate", "restrict_to_segment", "render")
STAGES = ("parse", "structure", "screen", "p_polynomial", "estimate", "inference", "render")
INHERIT = "inherit"
GLUE = "glue"

MODULE_STAGE = {
    "cli": GLUE,
    "report": GLUE,
    "lieio": "parse",
    "catalog": "parse",
    "liealg": "structure",
    "linalg": INHERIT,
    "sturm": INHERIT,
    "poly": INHERIT,
    "coadjoint": INHERIT,
    "invariants": "structure",
    "inference": "inference",
}
SPAN_STAGE = {
    "cli.cmd_analyze": "render",
    "cli.cmd_infer": "render",
    "report.analyze_source": "parse",
    "report.report_json": "render",
    "report.render_text": "render",
    "lieio.render_bracket_terms": "render",
    "liealg.validate": "parse",
    "liealg.exponentiality_check": "screen",
    "liealg.bracket_vectors": INHERIT,
    "liealg.ad_matrix": INHERIT,
    "linalg.charpoly": "screen",
    "poly.sym_pfaffian": "p_polynomial",
    "poly.evaluate": "estimate",
    "poly.restrict_to_segment": "estimate",
    "poly.render": "render",
    "coadjoint.b_matrix_sym": "p_polynomial",
    "coadjoint.p_polynomial": "p_polynomial",
    "coadjoint.has_open_orbits": "p_polynomial",
    "coadjoint.estimate_open_orbit_components": "estimate",
    "invariants.projection_verdict": GLUE,
    "inference.load_filtration": "parse",
    "inference.parse_filtration": "parse",
}


def stage_of(name: str) -> str:
    return SPAN_STAGE.get(name, MODULE_STAGE[name.split(".", 1)[0]])


def _bits(x) -> int:
    return max(x.numerator.bit_length(), x.denominator.bit_length())


# What a span records from its arguments and result. A measure that no longer
# fits the program's types records nothing instead of failing the pass.
MEASURES = {
    "sturm.sturm_root_count": lambda args, res: {
        "degree": args[0].degree(),
        "bits": max((_bits(c) for c in args[0].coeffs), default=0),
    },
    "poly.evaluate": lambda args, res: {"zero": int(res == 0)},
    "coadjoint.estimate_open_orbit_components": lambda args, res: {"edges": len(res.certificates)},
    "coadjoint.p_polynomial": lambda args, res: {"terms": len(res.terms)},
    "report.report_json": lambda args, res: {"bytes": len(res.encode("utf-8"))},
    "inference.infer": lambda args, res: {"trace": len(res.trace)},
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        # (name index, start, end, parent span or -1, input index, outermost, attrs)
        self.spans: list = []
        self.stack: list[int] = []
        self.depth: dict[int, int] = {}
        self.input = -1
        self.wrapped: list[str] = []

    def wrap(self, name: str, fn):
        tracer = self
        nid = len(self.names)
        self.names.append(name)
        self.depth[nid] = 0
        measure = MEASURES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(tracer.spans)
            parent = tracer.stack[-1] if tracer.stack else -1
            tracer.spans.append(None)
            tracer.stack.append(idx)
            outer = tracer.depth[nid] == 0
            tracer.depth[nid] += 1
            start = perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                tracer.depth[nid] -= 1
                tracer.stack.pop()
                attrs = None
                if measure is not None and result is not None:
                    try:
                        attrs = measure(args, result)
                    except (AttributeError, TypeError, IndexError):
                        pass
                tracer.spans[idx] = (nid, start, end, parent, tracer.input, outer, attrs)

        return traced

    def install(self) -> None:
        """Replace each public function and traced method by a wrapper,
        everywhere it is looked up."""
        replace: dict[int, object] = {}
        for short in MODULES:
            mod = sys.modules.get(f"{PACKAGE}.{short}")
            if mod is None:
                continue
            for attr, value in list(vars(mod).items()):
                if (
                    isinstance(value, types.FunctionType)
                    and not attr.startswith("_")
                    and value.__module__ == mod.__name__
                ):
                    replace[id(value)] = self.wrap(f"{short}.{attr}", value)
                    self.wrapped.append(f"{short}.{attr}")
        poly = sys.modules.get(f"{PACKAGE}.poly")
        mpoly = getattr(poly, "MPoly", None)
        for method in MPOLY_METHODS:
            fn = getattr(mpoly, method, None) if mpoly is not None else None
            if isinstance(fn, types.FunctionType):
                setattr(mpoly, method, self.wrap(f"poly.{method}", fn))
                self.wrapped.append(f"poly.{method}")
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == PACKAGE or modname.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(mod).items()):
                wrapper = replace.get(id(value))
                if wrapper is not None:
                    setattr(mod, attr, wrapper)


def ledger(names: list[str], spans: list) -> dict:
    """Per-span-name calls, inclusive and self time, stage totals and the
    aggregated work counters of one traced pass."""
    n = len(spans)
    child = [0.0] * n
    for nid, start, end, parent, _, _, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    stage = [""] * n
    stats: dict[str, dict] = {}
    stages = {s: 0.0 for s in STAGES}
    counters = {
        "segment_degree_max": 0, "segment_coeff_bits_max": 0, "samples_rejected": 0,
        "certified_edges": 0, "json_bytes": 0, "trace_length": 0,
    }
    p_terms: dict[int, int] = {}
    for i, (nid, start, end, parent, inp, outer, attrs) in enumerate(spans):
        name = names[nid]
        own = stage_of(name)
        if own == INHERIT:
            own = stage[parent] if parent >= 0 else GLUE
        stage[i] = own
        dur = end - start
        self_t = dur - child[i]
        st = stats.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        st["calls"] += 1
        st["self_s"] += self_t
        if outer:
            st["total_s"] += dur
        if own != GLUE:
            stages[own] += self_t
        if attrs:
            if name == "sturm.sturm_root_count" and own == "estimate":
                counters["segment_degree_max"] = max(counters["segment_degree_max"], attrs["degree"])
                counters["segment_coeff_bits_max"] = max(counters["segment_coeff_bits_max"], attrs["bits"])
            elif name == "poly.evaluate" and own == "estimate":
                counters["samples_rejected"] += attrs["zero"]
            elif name == "coadjoint.estimate_open_orbit_components":
                counters["certified_edges"] += attrs["edges"]
            elif name == "coadjoint.p_polynomial":
                p_terms[inp] = max(p_terms.get(inp, 0), attrs["terms"])
            elif name == "report.report_json":
                counters["json_bytes"] += attrs["bytes"]
            elif name == "inference.infer":
                counters["trace_length"] += attrs["trace"]
    counters["p_terms"] = sum(p_terms.values())
    return {"stats": stats, "stages": stages, "counters": counters}

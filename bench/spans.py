"""Spans around the public functions of each foulkes layer.

The package is not changed: ``install`` wraps functions from outside.
The modules import these functions by name, so a wrapper replaces every
binding of the function object in every loaded ``foulkes.*`` module.
Spans are kept in memory and written out by ``dump`` when a session
ends; ``session_metrics`` turns one session's spans into the per-layer
numbers.

A span is ``[name, start, end, parent, query, attrs]`` where parent is
the index of the enclosing span (or None) and attrs holds counters
taken from arguments and results.
"""

from __future__ import annotations

import json
import sys
import time

import queries

# span name -> (module, function names). The layer is the first dotted
# component of the span name.
TARGETS = {
    "cli.main": ("foulkes.cli", ("main",)),
    "formulas.phi": (
        "foulkes.formulas",
        (
            "phi_one_row",
            "phi_one_column",
            "phi_hook_depth1_closed",
            "phi_two_one_column_closed",
            "table_multiplicity",
            "table_row_class",
            "omega_dual",
            "induce_product",
        ),
    ),
    # The three alternating sums: their LR products are the intermediate
    # mass, their results the final mass.
    "formulas.alternating": (
        "foulkes.formulas",
        ("phi_two_row", "phi_two_column", "phi_hook"),
    ),
    "lr.schur_multiply": ("foulkes.lr", ("schur_multiply",)),
    "lr.lr_coefficient": ("foulkes.lr", ("lr_coefficient",)),
    "oracle.plethysm": ("foulkes.oracle", ("oracle_plethysm_s2", "oracle_plethysm_e2")),
    "expansions.powersum_to_schur": ("foulkes.expansions", ("powersum_to_schur",)),
    "expansions.schur_to_powersum": ("foulkes.expansions", ("schur_to_powersum",)),
    "partitions.generate": (
        "foulkes.partitions",
        ("generate_partitions", "generate_distinct_partitions"),
    ),
}

# Process-global functools memos read through cache_info().
MEMOS = {
    "lr.product_terms": ("foulkes.lr", "_product_terms"),
    "expansions.chi": ("foulkes.expansions", "_chi"),
    "partitions.bounded": ("foulkes.partitions", "_bounded"),
}


def _mass(expansion) -> int:
    return sum(mult for _, mult in expansion.items())


def _attrs(name: str, args: tuple, result) -> dict | None:
    if name == "lr.schur_multiply":
        return {"pairs": len(args[0]) * len(args[1]), "mass": _mass(result)}
    if name == "formulas.alternating":
        return {"mass": _mass(result)}
    if name == "expansions.powersum_to_schur":
        n = args[0].degree or 0
        terms = len(args[0])
        return {"terms": terms, "pairs": len(queries.partitions(n)) * terms}
    return None


class Recorder:
    """In-memory span list for one process."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.query: object = None
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            span = [name, clock(), None, stack[-1] if stack else None, self.query, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            span[5] = _attrs(name, args, result)
            return result

        return wrapper


def install(recorder: Recorder) -> None:
    """Wrap every target in every loaded foulkes module."""
    modules = [
        mod
        for modname, mod in list(sys.modules.items())
        if mod is not None and (modname == "foulkes" or modname.startswith("foulkes."))
    ]
    for name, (modname, functions) in TARGETS.items():
        for fname in functions:
            original = getattr(sys.modules[modname], fname)
            wrapper = recorder.wrap(name, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)


def memo_counters() -> dict[str, dict | None]:
    """hits, misses and size of each memo; None when the memo is absent."""
    out: dict[str, dict | None] = {}
    for name, (modname, attr) in MEMOS.items():
        memo = getattr(sys.modules.get(modname), attr, None)
        info = getattr(memo, "cache_info", None)
        if info is None:
            out[name] = None
            continue
        i = info()
        out[name] = {"hits": i.hits, "misses": i.misses, "size": i.currsize}
    return out


def dump(recorder: Recorder, path: str, import_s: float) -> None:
    """Write one session's spans and memo counters as one JSON document."""
    doc = {"import_s": import_s, "memos": memo_counters(), "spans": recorder.spans}
    with open(path, "w") as fh:
        json.dump(doc, fh)


# What session_metrics reports; the run adds the ratios and the
# tracing overhead.
SESSION_METRICS = (
    "cli.import_s",
    "cli.busy_s",
    "cli.self_s",
    "cli.calls",
    "formulas.busy_s",
    "formulas.self_s",
    "formulas.calls",
    "formulas.intermediate_mass",
    "formulas.final_mass",
    "lr.schur_multiply.busy_s",
    "lr.schur_multiply.calls",
    "lr.schur_multiply.pairs",
    "lr.product_terms.hits",
    "lr.product_terms.misses",
    "lr.product_terms.size",
    "lr.lr_coefficient.busy_s",
    "lr.lr_coefficient.calls",
    "oracle.busy_s",
    "oracle.self_s",
    "oracle.calls",
    "oracle.powersum_terms",
    "expansions.powersum_to_schur.busy_s",
    "expansions.powersum_to_schur.pairs",
    "expansions.schur_to_powersum.busy_s",
    "expansions.chi.hits",
    "expansions.chi.misses",
    "expansions.chi.size",
    "partitions.generate.busy_s",
    "partitions.generate.calls",
    "partitions.bounded.size",
)


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def span_times(spans: list[list]) -> tuple[list[float], list[bool], list[bool]]:
    """Per span: self time (duration minus direct children), whether it
    is outermost among spans of its name, and among spans of its layer."""
    n = len(spans)
    self_s = [s[2] - s[1] for s in spans]
    ancestors: list[frozenset] = [frozenset()] * n
    for i, (name, start, end, parent, _, _) in enumerate(spans):
        if parent is not None:
            self_s[parent] -= end - start
            pname = spans[parent][0]
            ancestors[i] = ancestors[parent] | {pname, _layer(pname)}
    top_name = [s[0] not in ancestors[i] for i, s in enumerate(spans)]
    top_layer = [_layer(s[0]) not in ancestors[i] for i, s in enumerate(spans)]
    return self_s, top_name, top_layer


def session_metrics(doc: dict) -> dict[str, float]:
    """Per-layer metrics of one session document written by ``dump``."""
    spans = doc["spans"]
    self_s, top_name, top_layer = span_times(spans)
    m: dict[str, float] = dict.fromkeys(SESSION_METRICS, 0)
    m["cli.import_s"] = doc["import_s"]

    def add(key: str, value: float) -> None:
        if key in m:
            m[key] += value

    for i, (name, start, end, parent, _, attrs) in enumerate(spans):
        layer = _layer(name)
        duration = end - start
        if layer in ("cli", "formulas", "oracle"):
            add(f"{layer}.self_s", self_s[i])
            add(f"{layer}.calls", 1)
            if top_layer[i]:
                add(f"{layer}.busy_s", duration)
        else:
            add(f"{name}.calls", 1)
            if top_name[i]:
                add(f"{name}.busy_s", duration)
        if name == "formulas.alternating":
            add("formulas.final_mass", attrs["mass"])
        elif name == "lr.schur_multiply":
            add("lr.schur_multiply.pairs", attrs["pairs"])
            if parent is not None and spans[parent][0] == "formulas.alternating":
                add("formulas.intermediate_mass", attrs["mass"])
        elif name == "expansions.powersum_to_schur":
            add("expansions.powersum_to_schur.pairs", attrs["pairs"])
            p = parent
            while p is not None and _layer(spans[p][0]) != "oracle":
                p = spans[p][3]
            if p is not None:
                add("oracle.powersum_terms", attrs["terms"])

    for memo, counts in doc["memos"].items():
        for stat in ("hits", "misses", "size"):
            add(f"{memo}.{stat}", counts[stat] if counts else 0)
    return m


def absent_memos(doc: dict) -> list[str]:
    return [name for name, counts in doc["memos"].items() if counts is None]

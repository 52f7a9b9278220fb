"""Boundary tracing of skewtab's layers from outside the package.

`Tracer.install()` replaces each layer's entry functions with timed wrappers
in every module namespace that binds them (modules import helpers by name, so
patching only the defining module would miss those calls), and
`Tracer.uninstall()` puts the originals back. Each wrapped call records a
span (name, start, end, parent) in flat in-memory arrays plus per-function
counts. Generator layers are timed only inside each `next()`, so the time a
consumer spends between items is not charged to them.

A layer's self time is the total duration of its spans minus the part of
those intervals covered by their child spans. Work done in methods that are
not wrapped (`Partition.part`, dataclass constructors and the like) is
charged to the layer of the nearest wrapped caller.
"""

from __future__ import annotations

import importlib
from array import array
from time import perf_counter_ns

LAYERS = ("shapes", "tableaux", "insertion", "involution", "symfunc", "rules", "cli")

# Per layer: the entry functions that are wrapped, with how each is timed.
# "call" records one span per call; "iter" records one span per next() on the
# returned iterator. A "Class.method" name is patched on the class.
ENTRY_POINTS = {
    "shapes": {
        "enumerate_outer_strips": "call",
        "enumerate_inner_strips": "call",
        "partitions_of_size": "call",
        "subpartitions_of_size": "call",
        "superpartitions": "call",
        "star": "call",
        "parse_shape": "call",
        "SkewShape.is_strip": "call",
    },
    "tableaux": {
        "enumerate_ssyt": "call",
        "enumerate_fillings": "iter",
        "lr_fillings": "iter",
        "validate": "call",
        "reverse_reading_word": "call",
        "is_yamanouchi": "call",
        "parse_tableau": "call",
    },
    "insertion": {
        "_bump_in": "call",
        "_reverse_from": "call",
    },
    "involution": {
        "SlideContext.__post_init__": "call",
        "phi": "call",
        "downward_slide": "call",
        "upward_slide": "call",
        "downward_path": "call",
        "upward_path": "call",
        "is_fixed_point": "call",
        "fixed_point_to_star": "call",
        "star_to_fixed_point": "call",
        "enumerate_contexts": "iter",
        "verify_involution": "call",
    },
    "symfunc": {
        "_lr_pairs": "call",
        "lr_expand": "call",
        "lr_coefficient": "call",
        "_basis_product": "call",
        "schur_product": "call",
        "skew_to_schur": "call",
        "skew_expansion_to_schur": "call",
        "perp": "call",
        "perp_identity_failures": "call",
        "expansion_to_json": "call",
    },
    "rules": {
        "skew_pieri": "call",
        "skew_lr_product": "call",
        "skew_lr_pairs": "iter",
        "_signed_pairs": "iter",
        "verify_skew_lr": "call",
        "verify_perp_range": "call",
    },
    "cli": {
        "run": "call",
        "build_parser": "call",
        "_cmd_expand": "call",
        "_cmd_product": "call",
        "_cmd_trace": "call",
        "term_lines": "call",
    },
}

# The lru caches whose cache_info() the per-layer metrics read.
CACHES = {"lr": "_lr_pairs", "product": "_basis_product", "monomial": "_monomial_pairs"}

# Per-call counts read off a function's result: how many items it produced
# (partitions, tableaux, terms, or the cells of a bumping path) ...
_ITEMS = {
    "shapes.enumerate_outer_strips": len,
    "shapes.enumerate_inner_strips": len,
    "shapes.partitions_of_size": len,
    "shapes.subpartitions_of_size": len,
    "shapes.superpartitions": len,
    "tableaux.enumerate_ssyt": len,
    "rules.skew_pieri": len,
    "insertion._bump_in": len,
    "insertion._reverse_from": lambda result: len(result[0]),
}
# ... and whether a call that returned still failed (a nonzero exit status).
_FAILED = {"cli.run": lambda code: code != 0}


def modules() -> list:
    """The package and each layer module, imported."""
    return [importlib.import_module("skewtab")] + [
        importlib.import_module(f"skewtab.{layer}") for layer in LAYERS
    ]


def cache_info() -> dict[str, dict[str, int]]:
    symfunc = importlib.import_module("skewtab.symfunc")
    out = {}
    for key, name in CACHES.items():
        info = getattr(symfunc, name).cache_info()
        out[key] = {"hits": info.hits, "misses": info.misses, "size": info.currsize}
    return out


class Tracer:
    """Spans and counts for one traced run; install, run, uninstall, summarize."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("i")
        self.calls: list[int] = []
        self.items: list[int] = []
        self.errors: list[int] = []
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []
        self._installed = False

    # -- recording ---------------------------------------------------------

    def _open(self, nid: int) -> int:
        idx = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1])
        self.span_end.append(0)
        self._stack.append(idx)
        self.span_start.append(perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.span_end[idx] = perf_counter_ns()
        self._stack.pop()

    def _name_id(self, name: str) -> int:
        self.names.append(name)
        self.calls.append(0)
        self.items.append(0)
        self.errors.append(0)
        return len(self.names) - 1

    def _wrap_call(self, fn, name: str):
        nid = self._name_id(name)
        items = _ITEMS.get(name)
        failed = _FAILED.get(name)

        def traced(*args, **kwargs):
            self.calls[nid] += 1
            idx = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._close(idx)
                self.errors[nid] += 1
                raise
            self._close(idx)
            if items is not None:
                self.items[nid] += items(result)
            if failed is not None and failed(result):
                self.errors[nid] += 1
            return result

        return traced

    def _wrap_iter(self, fn, name: str):
        nid = self._name_id(name)

        def resume(args, kwargs):
            it = None
            while True:
                idx = self._open(nid)
                try:
                    if it is None:
                        it = iter(fn(*args, **kwargs))
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self._close(idx)
                self.items[nid] += 1
                yield item

        def traced(*args, **kwargs):
            self.calls[nid] += 1
            return resume(args, kwargs)

        return traced

    def wrap(self, fn, name: str):
        """fn with a span per call, for code of the benchmark's own. A name
        outside LAYERS counts in no layer's self time, and its spans are
        subtracted from their parents' as any child span is."""
        return self._wrap_call(fn, name)

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        """Wrap every entry function in every namespace that binds it."""
        if self._installed:
            raise RuntimeError("a Tracer is installed once; make a new one per run")
        self._installed = True
        mods = modules()
        by_layer = {m.__name__.rpartition(".")[2]: m for m in mods[1:]}
        for layer, entries in ENTRY_POINTS.items():
            home = by_layer[layer]
            for attr, mode in entries.items():
                name = f"{layer}.{attr}"
                cls_name, _, meth = attr.rpartition(".")
                if cls_name:
                    cls = getattr(home, cls_name)
                    original = cls.__dict__[meth]
                    wrapper = self._wrap_call(original, name)
                    self._patches.append((cls, meth, original))
                    setattr(cls, meth, wrapper)
                    continue
                original = getattr(home, attr)
                wrap = self._wrap_iter if mode == "iter" else self._wrap_call
                wrapper = wrap(original, name)
                for mod in mods:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patches.append((mod, key, original))
                            setattr(mod, key, wrapper)
        self._patch_parse_args(by_layer["cli"])

    def _patch_parse_args(self, cli) -> None:
        """Time argument parsing too: the parser is built per request, so the
        wrapped build_parser hands back a parser whose parse_args is timed."""
        nid = self._name_id("cli.parse_args")
        traced_build = cli.build_parser

        def build(*args, **kwargs):
            parser = traced_build(*args, **kwargs)
            plain = parser.parse_args

            def parse_args(*a, **kw):
                self.calls[nid] += 1
                idx = self._open(nid)
                try:
                    return plain(*a, **kw)
                finally:
                    self._close(idx)

            parser.parse_args = parse_args
            return parser

        self._patches.append((cli, "build_parser", traced_build))
        cli.build_parser = build

    def uninstall(self) -> None:
        """Restore every patched binding, latest first."""
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    # -- summary -----------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Seconds of self time per layer: span time minus child-span time."""
        n = len(self.span_name)
        child = [0] * n
        starts, ends, parents = self.span_start, self.span_end, self.span_parent
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        layer_of = [name.partition(".")[0] for name in self.names]
        totals = dict.fromkeys(LAYERS, 0)
        names = self.span_name
        for i in range(n):
            layer = layer_of[names[i]]
            if layer in totals:
                totals[layer] += ends[i] - starts[i] - child[i]
        return {layer: ns / 1e9 for layer, ns in totals.items()}

    def write_spans(self, path) -> None:
        """Write the spans as a header line of names, then one line per span:
        name index, start ns, end ns, parent span index (-1 for a root)."""
        with open(path, "w", encoding="utf-8") as out:
            out.write("\t".join(self.names) + "\n")
            for row in zip(self.span_name, self.span_start, self.span_end, self.span_parent):
                out.write("%d\t%d\t%d\t%d\n" % row)

    def stat(self, kind: str, *names: str) -> int:
        table = getattr(self, kind)
        return sum(table[self.names.index(name)] for name in names)

    def layer_calls(self, layer: str) -> int:
        return sum(c for name, c in zip(self.names, self.calls) if name.startswith(layer + "."))

    def metrics(self, caches: dict[str, dict[str, int]]) -> dict[str, float]:
        """The per-layer metrics of one traced run."""
        self_s = self.self_times()
        stat = self.stat

        def ratio(a: int, b: int) -> float:
            return a / b if b else 0.0

        def hit_ratio(key: str) -> float:
            c = caches[key]
            return ratio(c["hits"], c["hits"] + c["misses"])

        built = stat("items", "rules._signed_pairs")
        admitted = stat("items", "rules.skew_lr_pairs")
        out = {
            "shapes.calls": self.layer_calls("shapes"),
            "shapes.partitions_out": stat(
                "items",
                "shapes.enumerate_outer_strips", "shapes.enumerate_inner_strips",
                "shapes.partitions_of_size", "shapes.subpartitions_of_size",
                "shapes.superpartitions",
            ),
            "tableaux.calls": self.layer_calls("tableaux"),
            "tableaux.fillings_out": stat("items", "tableaux.enumerate_ssyt", "tableaux.enumerate_fillings"),
            "tableaux.lr_fillings_out": stat("items", "tableaux.lr_fillings"),
            "tableaux.validate_calls": stat("calls", "tableaux.validate"),
            "insertion.calls": self.layer_calls("insertion"),
            "insertion.reverse_calls": stat("calls", "insertion._reverse_from"),
            "insertion.bump_calls": stat("calls", "insertion._bump_in"),
            "insertion.bump_cells": stat("items", "insertion._bump_in", "insertion._reverse_from"),
            "insertion.errors": stat("errors", "insertion._bump_in", "insertion._reverse_from"),
            "involution.phi_calls": stat("calls", "involution.phi"),
            "involution.down_slides": stat("calls", "involution.downward_slide"),
            "involution.up_slides": stat("calls", "involution.upward_slide"),
            "involution.contexts_built": stat("calls", "involution.SlideContext.__post_init__"),
            "symfunc.calls": self.layer_calls("symfunc"),
            "symfunc.lr_cache_hits": caches["lr"]["hits"],
            "symfunc.lr_cache_misses": caches["lr"]["misses"],
            "symfunc.lr_cache_hit_ratio": hit_ratio("lr"),
            "symfunc.lr_cache_size": caches["lr"]["size"],
            "symfunc.product_cache_hits": caches["product"]["hits"],
            "symfunc.product_cache_misses": caches["product"]["misses"],
            "symfunc.product_cache_hit_ratio": hit_ratio("product"),
            "symfunc.product_cache_size": caches["product"]["size"],
            "symfunc.monomial_cache_hit_ratio": hit_ratio("monomial"),
            "rules.calls": self.layer_calls("rules"),
            "rules.pairs_built": built,
            "rules.pairs_admitted": admitted,
            "rules.admit_ratio": ratio(admitted, built),
            "rules.pieri_terms": stat("items", "rules.skew_pieri"),
            "cli.requests": stat("calls", "cli.run"),
            "cli.parse_s": self._span_seconds("cli.build_parser", "cli.parse_args"),
            "cli.errors": stat("errors", "cli.run"),
        }
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self_s[layer]
        return out

    def _span_seconds(self, *names: str) -> float:
        ids = {self.names.index(name) for name in names}
        total = 0
        for nid, s, e in zip(self.span_name, self.span_start, self.span_end):
            if nid in ids:
                total += e - s
        return total / 1e9

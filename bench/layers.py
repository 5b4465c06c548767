"""Spans and counters around opturan's layer functions, from outside src/.

`from .x import f` copies the binding, so wrapping `opturan.x.f` alone
would miss the copies. Tracer.install replaces every module-level binding
of each listed function in every loaded opturan module with a wrapper that
records a span (name, start, end, parent, op id) and updates counters.
Spans stay in memory; self time is a span's duration minus its direct
children's, computed once the traced pass is over.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict

# span name -> (defining module, function name)
LAYERS = {
    "cli.main": ("opturan.cli", "main"),
    "graph.parse": ("opturan.graph", "graph_from_text"),
    "graph.make_graph": ("opturan.graph", "make_graph"),
    "graph.biconnected": ("opturan.graph", "biconnected_decomposition"),
    "graph.subgraph": ("opturan.graph", "subgraph_on_edges"),
    "graph.find_cycle": ("opturan.graph", "find_cycle_in_edges"),
    "embedding.recognize": ("opturan.embedding", "recognize_outerplanar"),
    "embedding.faces": ("opturan.embedding", "inner_faces"),
    "embedding.spectrum": ("opturan.embedding", "cycle_length_set"),
    "embedding.edge_maximal": ("opturan.embedding", "is_edge_maximal"),
    "embedding.contract": ("opturan.embedding", "contract_outer_edge"),
    "dual.weak_dual": ("opturan.dual", "weak_dual"),
    "dual.triangular_blocks": ("opturan.dual", "triangular_blocks"),
    "dual.classify_terminal": ("opturan.dual", "classify_terminal"),
    "dual.reducible_face": ("opturan.dual", "find_reducible_face"),
    "turan.bound": ("opturan.turan", "upper_bound"),
    "construct.build_chain": ("opturan.construct", "build_chain"),
    "oracle.exact_ex": ("opturan.oracle", "exact_ex"),
    "oracle.enumerate": ("opturan.oracle", "triangulations"),
    "certify.build": ("opturan.certify", "build_certificate"),
    "certify.verify": ("opturan.certify", "verify_certificate"),
    "certify.to_json": ("opturan.certify", "certificate_to_json"),
}

CERT_KINDS = ("edgeless", "base", "cut_split", "big_face_split", "terminal_peel", "maximal_leaf")

COUNTS = (
    ["embedding.recognize.vertices", "oracle.triangulations.yielded", "oracle.bnb_nodes"]
    + [f"certify.nodes.{kind}" for kind in CERT_KINDS]
    + ["certify.depth.max"]
)


class Tracer:
    def __init__(self) -> None:
        # (span id, name, start ns, end ns, parent span id, op id)
        self.spans: list[tuple[int, str, int, int, int, int]] = []
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.bnb_cycle_free = 0
        self.op = -1
        self._stack = [-1]
        self._next_id = 0
        self._restore: list[tuple[object, str, object]] = []

    # -- installing --------------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items()) if name.split(".")[0] == "opturan"]
        for span, (mod_name, attr) in LAYERS.items():
            original = getattr(sys.modules[mod_name], attr)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        wrapper = self._wrap(span, original, module.__name__)
                        self._restore.append((module, name, original))
                        setattr(module, name, wrapper)

    def uninstall(self) -> None:
        for module, name, original in reversed(self._restore):
            setattr(module, name, original)
        self._restore.clear()

    def begin_op(self, op_id: int) -> None:
        self.op = op_id
        self._stack[:] = [-1]

    # -- wrappers ------------------------------------------------------------
    # Bookkeeping between a push and its pop uses only builtins, so a
    # RecursionError raised by the wrapped call cannot unbalance the stack.

    def _wrap(self, span: str, fn, caller: str):
        if span == "oracle.enumerate":
            return self._wrap_generator(span, fn)
        post = None
        if span == "embedding.recognize":
            post = self._after_recognize
        elif span == "certify.build":
            post = self._after_build
        elif span == "graph.find_cycle" and caller == "opturan.oracle":
            post = self._after_bnb_node
        spans, stack, calls, clock = self.spans, self._stack, self.calls, time.perf_counter_ns

        def wrapper(*args, **kwargs):
            calls[span] += 1
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, span, start, end, parent, self.op))
            if post is not None:
                post(args, result)
            return result

        return wrapper

    def _wrap_generator(self, span: str, fn):
        tracer, stack, spans, clock = self, self._stack, self.spans, time.perf_counter_ns

        def wrapper(*args, **kwargs):
            tracer.calls[span] += 1
            inner = fn(*args, **kwargs)
            while True:
                sid = tracer._next_id
                tracer._next_id = sid + 1
                parent = stack[-1]
                stack.append(sid)
                start = clock()
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    end = clock()
                    stack.pop()
                    spans.append((sid, span, start, end, parent, tracer.op))
                tracer.counts["oracle.triangulations.yielded"] += 1
                yield item

        return wrapper

    def _after_recognize(self, args, result) -> None:
        self.counts["embedding.recognize.vertices"] += args[0].n

    def _after_bnb_node(self, args, result) -> None:
        self.counts["oracle.bnb_nodes"] += 1
        if result is None:
            self.bnb_cycle_free += 1

    def _after_build(self, args, cert) -> None:
        stack = [(cert.root, 1)]
        deepest = 0
        while stack:
            node, depth = stack.pop()
            self.counts[f"certify.nodes.{node.kind}"] += 1
            deepest = max(deepest, depth)
            stack.extend((child, depth + 1) for child in node.children)
        self.counts["certify.depth.max"] = max(self.counts["certify.depth.max"], deepest)

    # -- results -------------------------------------------------------------

    def self_seconds(self) -> dict[str, float]:
        child_ns: dict[int, int] = defaultdict(int)
        for _, _, start, end, parent, _ in self.spans:
            child_ns[parent] += end - start
        own: dict[str, int] = defaultdict(int)
        for sid, name, start, end, _, _ in self.spans:
            own[name] += end - start - child_ns[sid]
        return {name: own[name] / 1e9 for name in LAYERS}

    def metrics(self) -> dict[str, tuple[float, str]]:
        out: dict[str, tuple[float, str]] = {}
        own = self.self_seconds()
        for name in LAYERS:
            out[f"{name}.calls"] = (self.calls[name], "count")
            out[f"{name}.self_s"] = (own[name], "s")
        for name in COUNTS:
            out[name] = (self.counts[name], "count")
        nodes = self.counts["oracle.bnb_nodes"]
        out["oracle.bnb_useful_ratio"] = (self.bnb_cycle_free / nodes if nodes else 0.0, "ratio")
        return out

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for sid, name, start, end, parent, op in self.spans:
                fh.write(
                    json.dumps(
                        {"id": sid, "name": name, "start_ns": start, "end_ns": end, "parent": parent, "op": op},
                        separators=(",", ":"),
                    )
                    + "\n"
                )

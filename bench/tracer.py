"""Span tracer that treats every cross-module call in ``signed_spectra`` as a
layer boundary, installed from outside the package.

``install`` replaces, in each layer module's namespace, every function that
module imported from another layer module with a wrapper that records a
span.  Calls inside one module resolve through that module's own globals,
so they stay untraced, except for the named entry points in ``ENTRY_POINTS``:
those are also wrapped in their defining module so that intra-module calls
to them (``compute_invariant_report`` -> ``edge_bipartiteness``) are spans
too.  An entry point that no longer exists is reported as missing.

A span is ``[name, start, end, parent, work]``; ``name`` is
``<layer>.<function>`` with the layer being the callee's module, and
``parent`` indexes the enclosing span (-1 for a root).  Self time is the
span's duration minus its children's durations; calls run on one thread,
so children never overlap.
"""

from __future__ import annotations

import functools
import time

LAYERS = ("cli", "search", "bounds", "spectral", "invariants", "switching", "graph")

ENTRY_POINTS = (
    ("cli", "run_cli"),
    ("search", "search_counterexamples"),
    ("bounds", "evaluate_all"),
    ("bounds", "evaluations_to_json"),
    ("spectral", "eigen_decomposition"),
    ("spectral", "ms_index_search"),
    ("invariants", "frustration_index_exact"),
    ("invariants", "edge_bipartiteness"),
    ("invariants", "r_frustration_index"),
    ("invariants", "_max_balanced_clique"),
    ("invariants", "walk_census"),
    ("switching", "is_switching_equivalent"),
    ("graph", "parse_signed_graph"),
    ("graph", "adjacency_matrix"),
)


def _switchings(args, kwargs) -> int:
    """Switchings a kernel call enumerates: 2^(n-1) unless it returns early."""
    g = args[0] if args else kwargs["g"]
    r = args[1] if len(args) > 1 else kwargs.get("r", 2)
    if g.n == 0 or g.m == 0 or r == 1:
        return 0
    return 1 << (g.n - 1)


#: Exhaustive switching-class kernels; their work is counted at the
#: outermost kernel span only, so a kernel calling another is not counted twice.
KERNEL_WORK = {
    "invariants.frustration_index_exact": _switchings,
    "invariants.edge_bipartiteness": _switchings,
    "invariants.r_frustration_index": _switchings,
}


class Tracer:
    """Records spans in memory; ``aggregate`` folds them per name and layer."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.missing: list[str] = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        work = KERNEL_WORK.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, 0]
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if work is not None:
                span[4] = work(args, kwargs)
            return result

        return traced

    def install(self, modules: dict, entry_points=ENTRY_POINTS) -> None:
        """Wrap cross-module bindings and entry points in ``modules``.

        ``modules`` maps layer name to module object.  Must run before the
        timed region and at most once per process.
        """
        layer_of = {mod.__name__: layer for layer, mod in modules.items()}
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if isinstance(obj, type) or not callable(obj):
                    continue
                home = layer_of.get(getattr(obj, "__module__", None))
                if home is None or home == layer:
                    continue
                setattr(mod, attr, self.wrap(f"{home}.{obj.__name__}", obj))
        for layer, attr in entry_points:
            mod = modules.get(layer)
            obj = getattr(mod, attr, None) if mod is not None else None
            if obj is None or not callable(obj):
                self.missing.append(f"{layer}.{attr}")
                continue
            setattr(mod, attr, self.wrap(f"{layer}.{attr}", obj))

    def aggregate(self, upto: int | None = None) -> dict:
        """Per-name and per-layer ``[calls, self_s]``, kernel work, root time.

        Only the first ``upto`` spans count, so spans recorded after the timed
        region (by output checks) are left out.
        """
        spans = self.spans[: len(self.spans) if upto is None else upto]
        child_s = [0.0] * len(spans)
        root_s = 0.0
        for name, start, end, parent, _ in spans:
            if parent < 0:
                root_s += end - start
            else:
                child_s[parent] += end - start
        by_name: dict[str, list] = {}
        by_layer: dict[str, list] = {layer: [0, 0.0] for layer in LAYERS}
        switchings = 0
        for idx, (name, start, end, parent, work) in enumerate(spans):
            self_s = end - start - child_s[idx]
            for key, table in ((name, by_name), (name.split(".", 1)[0], by_layer)):
                entry = table.setdefault(key, [0, 0.0])
                entry[0] += 1
                entry[1] += self_s
            if work and not self._inside_kernel(spans, parent):
                switchings += work
        return {
            "by_name": by_name,
            "by_layer": by_layer,
            "root_s": root_s,
            "switchings": switchings,
            "spans": len(spans),
            "missing": list(self.missing),
        }

    @staticmethod
    def _inside_kernel(spans, parent: int) -> bool:
        while parent >= 0:
            if spans[parent][0] in KERNEL_WORK:
                return True
            parent = spans[parent][3]
        return False

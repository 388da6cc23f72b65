"""In-memory span tracing around signedbpo's public call sites.

The package itself is not instrumented.  ``install`` replaces module
attributes and methods at run time with wrappers that record one span per
call: (name, parent, start, end, attributes).  Spans stay in memory and
``layer_metrics`` turns them into per-layer self times and counts; a
layer's self time is its spans' durations minus the time covered by their
child spans.

``relax`` imports ``solve``, ``solve_cutting_plane``, ``minimize_nns`` and
the selector-family functions by name, so those are wrapped on
``signedbpo.relax``; ``signedbpo.simplex.solve`` is wrapped as well because
the cutting-plane loop calls it directly for every master solve.
"""

from __future__ import annotations

import json
import time

# (name, unit, better) of every per-layer metric, in report order.
LAYER_METRICS = (
    ("relax.build_s", "s", "lower"),
    ("relax.rows", "count", "lower"),
    ("relax.cols", "count", "lower"),
    ("relax.nnz", "count", "lower"),
    ("relax.master_s", "s", "lower"),
    ("relax.oracle_s", "s", "lower"),
    ("relax.oracle_calls", "count", "lower"),
    ("relax.cuts", "count", "lower"),
    ("extensions.s", "s", "lower"),
    ("extensions.selectors", "count", "lower"),
    ("mincut.s", "s", "lower"),
    ("mincut.calls", "count", "lower"),
    ("mincut.violated_frac", "ratio", "higher"),
    ("simplex.exact_s", "s", "lower"),
    ("simplex.exact_calls", "count", "lower"),
    ("simplex.float_s", "s", "lower"),
    ("simplex.float_calls", "count", "lower"),
    ("simplex.cutplane_s", "s", "lower"),
    ("simplex.rounds", "count", "lower"),
    ("simplex.round_s", "s", "lower"),
    ("lpmodel.copy_s", "s", "lower"),
    ("lpmodel.mps_s", "s", "lower"),
    ("lpmodel.mps_bytes", "B", "lower"),
    ("bound.gap_sgm", "ratio", "lower"),
    ("trace.units", "count", "higher"),
    ("trace.unit_s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
)


class Tracer:
    """Records nested spans of the calls made through patched attributes."""

    def __init__(self):
        self.spans: list[list] = []  # [name, parent index, start, end, attrs]
        self.active = True
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def call(self, name, fn, args, kwargs, attrs=None):
        """Run ``fn`` inside a span; ``attrs(args, kwargs, result)`` is
        evaluated after the span has ended, so its cost is not counted."""
        if not self.active:
            return fn(*args, **kwargs)
        idx = len(self.spans)
        span = [name, self._stack[-1] if self._stack else -1, 0.0, 0.0, None]
        self.spans.append(span)
        self._stack.append(idx)
        span[2] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[3] = time.perf_counter()
            self._stack.pop()
        if attrs is not None:
            span[4] = attrs(args, kwargs, result)
        return result

    def patch(self, owner, attr: str, name: str, attrs=None) -> None:
        original = getattr(owner, attr)

        def traced(*args, **kwargs):
            return self.call(name, original, args, kwargs, attrs)

        self.replace(owner, attr, traced)

    def replace(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(
                {"fields": ["name", "parent", "start", "end", "attrs"], "spans": self.spans},
                fh,
            )


def _model_size(args, kwargs, rm):
    rows = rm.model.rows()
    return {
        "rows": len(rows),
        "cols": rm.model.num_cols,
        "nnz": sum(len(row.coeffs) for row in rows),
    }


def _arithmetic(args, kwargs, result):
    return {"arithmetic": args[1] if len(args) > 1 else kwargs.get("arithmetic", "exact")}


def install(tracer: Tracer) -> None:
    """Wrap the call sites of the currently imported signedbpo modules."""
    from signedbpo import lpmodel, relax, simplex

    tracer.patch(relax, "build_level_relaxation", "relax.build", _model_size)
    tracer.patch(relax, "sherali_adams_1", "relax.build", _model_size)
    tracer.patch(relax.RelaxationModel, "master_model", "relax.build")
    for family in ("all_standard_selectors", "relaxed_lovasz_set"):
        tracer.patch(relax, family, "extensions", lambda a, k, r: {"selectors": len(r)})
    tracer.patch(relax, "minimize_nns", "mincut", lambda a, k, r: {"violated": r[1] < 0})
    tracer.patch(relax, "solve", "simplex.solve", _arithmetic)
    tracer.patch(simplex, "solve", "simplex.solve", _arithmetic)
    tracer.patch(relax, "solve_cutting_plane", "simplex.cutplane")
    tracer.patch(lpmodel.LpModel, "copy", "lpmodel.copy")
    tracer.patch(lpmodel, "mps_string", "lpmodel.mps", lambda a, k, r: {"bytes": len(r[0].encode())})

    make_oracle = relax.RelaxationModel.separation_oracle

    def separation_oracle(rm, *args, **kwargs):
        oracle = make_oracle(rm, *args, **kwargs)
        return lambda sol: tracer.call(
            "relax.oracle", oracle, (sol,), {}, lambda a, k, cuts: {"cuts": len(cuts)}
        )

    tracer.replace(relax.RelaxationModel, "separation_oracle", separation_oracle)


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer self times and counts, keyed by the names in LAYER_METRICS
    (the ``bound.*`` and ``trace.*`` entries are filled in by the caller)."""
    covered = [0.0] * len(spans)
    for name, parent, start, end, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    m = {name: 0.0 if unit in ("s", "ratio") else 0 for name, unit, _ in LAYER_METRICS}
    violated = 0
    for idx, (name, parent, start, end, attrs) in enumerate(spans):
        self_s = end - start - covered[idx]
        attrs = attrs or {}
        if name == "relax.build":
            m["relax.build_s"] += self_s
            for key in ("rows", "cols", "nnz"):
                m[f"relax.{key}"] += attrs.get(key, 0)
        elif name == "relax.oracle":
            m["relax.oracle_s"] += self_s
            m["relax.oracle_calls"] += 1
            m["relax.cuts"] += attrs.get("cuts", 0)
        elif name == "extensions":
            m["extensions.s"] += self_s
            m["extensions.selectors"] += attrs.get("selectors", 0)
        elif name == "mincut":
            m["mincut.s"] += self_s
            m["mincut.calls"] += 1
            violated += bool(attrs.get("violated"))
        elif name == "simplex.solve":
            kind = "exact" if attrs.get("arithmetic") == "exact" else "float"
            m[f"simplex.{kind}_s"] += self_s
            m[f"simplex.{kind}_calls"] += 1
            if parent >= 0 and spans[parent][0] == "simplex.cutplane":
                m["simplex.rounds"] += 1
                m["relax.master_s"] += end - start
        elif name == "simplex.cutplane":
            m["simplex.cutplane_s"] += self_s
        elif name == "lpmodel.copy":
            m["lpmodel.copy_s"] += self_s
        elif name == "lpmodel.mps":
            m["lpmodel.mps_s"] += self_s
            m["lpmodel.mps_bytes"] += attrs.get("bytes", 0)
    if m["mincut.calls"]:
        m["mincut.violated_frac"] = violated / m["mincut.calls"]
    if m["simplex.rounds"]:
        m["simplex.round_s"] = m["relax.master_s"] / m["simplex.rounds"]
    return m

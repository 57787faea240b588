"""Spans around the calls into each layer of cktlab, recorded from outside.

A traced worker wraps every module binding of the functions in ``LAYERS``
(several are imported by name into other modules, and a call through a
binding left unwrapped would be missed).  Spans stay in memory as
``[name, start, end, parent, run_id]`` and are written out when the run
ends; ``self_times`` turns them into per-function calls and self time.
"""

from __future__ import annotations

import functools
import os
import sys
import time

# layer (module) -> public functions traced in it
LAYERS = {
    "polyharm": ("harmonic_basis",),
    "connalg": ("harmonic_mult_blocks",),
    "symtensor": ("tracefree_basis",),
    "symbolcheck": ("check_dstar_uniform", "uniform_span"),
    "torusmodel": ("assemble", "assemble_via_D", "connection_plus_matrix", "ckt_kernel",
                   "xminus_kernel_basis", "second_variation_predict", "lambda_scan"),
    "spectral": ("spectral_window", "lambda_derivatives", "conjugation_check",
                 "resolvent_identity_check"),
    "holonomy": ("transport", "opacity_probe", "invariance_defect"),
    "textio": ("load_fourier_connection", "parse_config", "write_csv"),
    "cli": ("run",),
}

# work counted at a layer boundary: metric -> (function, unit, count(args, result))
COUNTERS = {
    "torusmodel.assemble.nnz": ("torusmodel.assemble", "count",
                                lambda args, asm: asm.xplus.nnz + asm.xminus.nnz),
    "spectral.spectral_window.nodes": ("spectral.spectral_window", "count",
                                       lambda args, w: w.quadrature_nodes),
    "textio.write_csv.bytes": ("textio.write_csv", "B",
                               lambda args, _: os.path.getsize(args[0])),
}

# functions whose lru_cache hit ratio is reported
CACHED = ("polyharm.harmonic_basis", "connalg.harmonic_mult_blocks")

FUNCTIONS = tuple(f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns)


class Tracer:
    """Records a span per call of each wrapped function, in one thread."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.originals = {}
        self._stack = []

    def wrap(self, name, fn):
        counters = [(metric, count) for metric, (target, _, count) in COUNTERS.items()
                    if target == name]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, time.perf_counter(), None,
                    self._stack[-1] if self._stack else None, self.run_id]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            for metric, count in counters:
                self.counts[metric] += count(args, result)
            return result

        return traced

    def install(self, package):
        """Wrap each traced function in every imported module of ``package``
        that binds it."""
        modules = {name: module for name, module in sys.modules.items()
                   if name.startswith(f"{package}.") and module is not None}
        for name in FUNCTIONS:
            layer, fn_name = name.split(".")
            original = getattr(modules[f"{package}.{layer}"], fn_name)
            self.originals[name] = original
            wrapped = self.wrap(name, original)
            for module in modules.values():
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapped)

    def hit_ratios(self):
        out = {}
        for name in CACHED:
            info = self.originals[name].cache_info()
            lookups = info.hits + info.misses
            out[f"{name}.hit_ratio"] = info.hits / lookups if lookups else 0.0
        return out


def _covered(intervals):
    """Total length of the union of (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def self_times(spans):
    """{function: (calls, self seconds)}: a span's duration minus the part of
    its interval covered by its child spans."""
    children = {}
    for span in spans:
        if span[3] is not None:
            children.setdefault(span[3], []).append(span)
    out = {}
    for i, (name, start, end, _, _) in enumerate(spans):
        inner = [(max(s, start), min(e, end)) for _, s, e, _, _ in children.get(i, ())]
        calls, busy = out.get(name, (0, 0.0))
        out[name] = (calls + 1, busy + (end - start) - _covered(inner))
    return out

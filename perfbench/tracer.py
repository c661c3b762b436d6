"""Per-layer spans and counters recorded from outside the monoext package.

Each target is a public monoext function.  While a :class:`Tracer` is
installed, every attribute of every loaded ``monoext`` module that is bound
to a target (found by object identity) is replaced by a wrapper that records
one span per call: function, start, end and parent span.  Calls made inside
the package through module globals (``solve_max`` -> ``solve_min``) are
therefore nested spans as well.  Spans stay in memory until :meth:`report`.
"""

from __future__ import annotations

import functools
import inspect
import sys
from array import array
from time import perf_counter

# layer -> exported names.  Only names exported from ``monoext`` (plus
# ``monoext.cli.main`` and its ``load_*`` helpers) are used, so a refactor of
# private helpers cannot silently drop a layer.
LAYERS = {
    "poset.closure": ("build_poset", "grid_poset"),
    "values.scale": ("scale_from_m",),
    "solver.search": ("solve_min", "solve_max"),
    "solver.witness": ("build_witness",),
    "solver.closed_form": ("chain_bounds", "disjoint_bound", "column_chain_bound"),
    "oracle.enum": ("brute_min_max",),
    "func1d.quad": ("integrate",),
    "continuous.surface": ("eval_extremal_surface",),
    "continuous.membership": ("verify_membership",),
    "continuous.grid_exp": ("grid_experiment",),
    "process.bound": ("expectation_bound", "simplified_bound", "make_extremal_process"),
    "process.mc": ("expectation_at_tau",),
    "process.membership": ("verify_process_membership",),
    "cli.load": ("cli.load_poset", "cli.load_scale", "cli.load_query",
                 "cli.load_map", "cli.load_samples"),
    "cli.io": ("cli.main",),
}

# Counters that must repeat exactly for the same code and inputs.
EXACT_COUNTS = (
    "poset.closure_elements",
    "solver.search_calls",
    "solver.witness_elements",
    "oracle.extensions",
    "func1d.quad_evals",
    "continuous.surface_evals",
    "process.mc_draws",
    "cli.bytes_out",
)


def _resolve(monoext, name):
    if name.startswith("cli."):
        return getattr(monoext.cli, name[4:])
    if name not in monoext.__all__:
        raise LookupError(f"{name} is no longer exported from monoext")
    return getattr(monoext, name)


class Tracer:
    """Installs wrappers on :meth:`start`, removes them on :meth:`stop`."""

    def __init__(self, monoext):
        self.monoext = monoext
        self.funcs = []        # function index -> (layer, name)
        self.func = array("i")
        self.parent = array("i")
        self.start_t = array("d")
        self.end_t = array("d")
        self.counts = {k: 0 for k in EXACT_COUNTS}
        self._stack = []
        self._patched = []     # (module, attribute, original)
        self._targets = []
        for layer, names in LAYERS.items():
            for name in names:
                self.funcs.append((layer, name))
                self._targets.append(_resolve(monoext, name))

    def start(self) -> None:
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "monoext" or n.startswith("monoext."))]
        for fid, orig in enumerate(self._targets):
            wrapper = self._wrap(fid, orig)
            bound = 0
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, orig))
                        bound += 1
            if not bound:
                raise LookupError(f"{self.funcs[fid][1]} is bound in no module")

    def stop(self) -> None:
        for mod, attr, orig in reversed(self._patched):
            setattr(mod, attr, orig)
        self._patched.clear()

    def _wrap(self, fid, orig):
        func, parent, start_t, end_t = self.func, self.parent, self.start_t, self.end_t
        stack = self._stack
        prepare, after = self._hooks(self.funcs[fid][1], orig)

        def wrapper(*args, **kwargs):
            if prepare is not None:
                args, kwargs = prepare(args, kwargs)
            idx = len(func)
            func.append(fid)
            parent.append(stack[-1] if stack else -1)
            end_t.append(0.0)
            stack.append(idx)
            start_t.append(perf_counter())
            try:
                result = orig(*args, **kwargs)
            finally:
                end_t[idx] = perf_counter()
                stack.pop()
            if after is not None:
                after(result, idx)
            return result

        return functools.wraps(orig)(wrapper)

    def _hooks(self, name, orig):
        """(prepare(args, kwargs), after(result, span)) for the counters."""
        counts = self.counts

        def bump(key, amount=1):
            counts[key] += amount

        if name == "integrate":
            signature = inspect.signature(orig)
            step_function = self.monoext.StepFunction1D

            def count_integrand(args, kwargs):
                bound = signature.bind(*args, **kwargs)
                g = bound.arguments["g"]
                if callable(g) and not isinstance(g, step_function):
                    def counted(x):
                        counts["func1d.quad_evals"] += 1
                        return g(x)
                    bound.arguments["g"] = counted
                return bound.args, bound.kwargs
            return count_integrand, None
        if name == "expectation_at_tau":
            signature = inspect.signature(orig)

            def count_draws(args, kwargs):
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                if bound.arguments["mode"] == "montecarlo":
                    bump("process.mc_draws", int(bound.arguments["trials"]))
                return args, kwargs
            return count_draws, None
        if name == "build_witness":
            def count_witness(result, span):
                # Max mode recurses into min mode: count the outermost call.
                p = self.parent[span]
                if p < 0 or self.funcs[self.func[p]][1] != name:
                    bump("solver.witness_elements", len(result.ranks))
            return None, count_witness
        after = {
            "build_poset": lambda result, span: bump("poset.closure_elements", result.n),
            "brute_min_max": lambda result, span: bump("oracle.extensions", result[2]),
            "solve_min": lambda result, span: bump("solver.search_calls"),
            "solve_max": lambda result, span: bump("solver.search_calls"),
            "eval_extremal_surface":
                lambda result, span: bump("continuous.surface_evals"),
        }.get(name)
        return None, after

    def report(self, t0: float, t1: float) -> dict:
        """Per-layer self times and counts for spans inside [t0, t1].

        A span's self time is its duration minus the durations of its
        direct children; the harness time is the part of [t0, t1] that no
        top-level span covers.  The two add up to ``t1 - t0``.
        """
        n = len(self.func)
        dur = [self.end_t[i] - self.start_t[i] for i in range(n)]
        self_t = list(dur)
        covered = 0.0
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                self_t[p] -= dur[i]
            else:
                covered += dur[i]
        layer_s = {layer: 0.0 for layer in LAYERS}
        func_s = {}
        for i in range(n):
            layer, name = self.funcs[self.func[i]]
            layer_s[layer] += self_t[i]
            func_s[name] = func_s.get(name, 0.0) + self_t[i]
        return {
            "layer_self_s": layer_s,
            "function_self_s": func_s,
            "counts": dict(self.counts),
            "harness_s": (t1 - t0) - covered,
            "spans": n,
        }

    def span_arrays(self) -> dict:
        return {"func": self.func, "parent": self.parent,
                "start": self.start_t, "end": self.end_t}

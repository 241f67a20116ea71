"""Outside-in tracing of the shiftkms layers.

Each module of the package is one layer.  `Tracer.install` replaces every
public function of a layer, in every ``shiftkms`` namespace that bound it by
name (the defining module, the package root, and modules that did
``from .x import f``), with a wrapper that records a span: its duration, the
layer, and whether it raised.  A span's self time is its duration minus the
durations of the spans it directly contains, so the self times of all layers
add up to the time spent inside top-level spans.

Helpers that run once per inner-loop step are counted, not spanned, because a
span costs more than they do (see ``COUNTED``).  Work counts named by the
benchmark are taken from the arguments and results of the spanned calls
(``_HOOKS``); nothing inside the package is edited.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
from collections import Counter
from time import perf_counter

LAYERS = ("spectral", "subshift", "beta", "krieger", "tracespace", "equilibrium", "cli")

# layer -> helper names (function or Class.method) that are counted, not spanned
COUNTED = {
    "spectral": ("residual_noise_floor",),
    "subshift": ("Automaton.step",),
}


def _perron(c, args, result, dt):
    c["spectral.perron_solves"] += 1


def _perron_vectors(c, args, result, dt):
    c["spectral.perron_solves"] += 1
    c["spectral.power_iterations"] += result.iterations


def _build_automaton(c, args, result, dt):
    c["subshift.automaton_builds"] += 1
    c["subshift.automaton_states"] += len(result.states)


def _expansion(c, args, result, dt):
    c["beta.expansions"] += 1
    c["beta.digits"] += len(result.greedy)


def _family(field):
    def hook(c, args, result, dt):
        c["krieger.family_builds"] += 1
        c["krieger.class_counts"] += len(getattr(result, field)) if field else 1

    return hook


def _variational(c, args, result, dt):
    c["equilibrium.variational_s"] += dt
    c["equilibrium.samples"] += result.n_samples


# (layer, function name) -> hook(counters, args, result, duration), run on success
_HOOKS = {
    ("spectral", "strongly_connected_components"): lambda c, a, r, dt: c.update(
        {"spectral.scc_passes": 1}
    ),
    ("spectral", "spectral_radius"): _perron,
    ("spectral", "perron_vectors"): _perron_vectors,
    ("spectral", "column_sum_powers"): lambda c, a, r, dt: c.update({"spectral.column_sums_s": dt}),
    ("subshift", "build_automaton"): _build_automaton,
    ("subshift", "automaton_for"): lambda c, a, r, dt: c.update({"subshift.automaton_lookups": 1}),
    ("beta", "beta_expansion_of_one"): _expansion,
    ("krieger", "sofic_check"): _family("counts"),
    ("krieger", "entropy_bracket"): _family("dims"),
    ("krieger", "dim_q"): _family(None),
    ("equilibrium", "variational_scan"): _variational,
}


class Tracer:
    """Span recorder; aggregates per layer in memory while the spans run."""

    def __init__(self):
        self.active = True
        self._open: list[list[float]] = []  # child-duration accumulator of each open span
        self.self_s = Counter()
        self.calls = Counter()
        self.errors = Counter()
        self.counters = Counter()

    def _span(self, layer, name, fn):
        hook = _HOOKS.get((layer, name))
        open_spans = self._open

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            children = [0.0]
            open_spans.append(children)
            t0 = perf_counter()
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                dt = perf_counter() - t0
                open_spans.pop()
                if open_spans:
                    open_spans[-1][0] += dt
                self.self_s[layer] += dt - children[0]
                self.calls[layer] += 1
                if not ok:
                    self.errors[layer] += 1
                elif hook is not None:
                    hook(self.counters, args, result, dt)

        return wrapper

    def _counted(self, key, fn):
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.active:
                counters[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    @contextlib.contextmanager
    def suspended(self):
        """Calls made inside (the benchmark's own checks) are neither spanned nor counted."""
        self.active = False
        try:
            yield
        finally:
            self.active = True

    def install(self, package_name="shiftkms"):
        """Wrap the public functions of every layer in every namespace that holds them."""
        namespaces = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == package_name or n.startswith(package_name + "."))
        ]
        for layer in LAYERS:
            module = sys.modules[f"{package_name}.{layer}"]
            counted = COUNTED.get(layer, ())
            for name, fn in list(vars(module).items()):
                if name.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != module.__name__:
                    continue  # imported from another layer; wrapped there
                if name in counted:
                    wrapped = self._counted(f"{layer}.{name}_calls", fn)
                else:
                    wrapped = self._span(layer, name, fn)
                for ns in namespaces:
                    if vars(ns).get(name) is fn:
                        setattr(ns, name, wrapped)
            for cls_name, cls in list(vars(module).items()):
                if not inspect.isclass(cls) or cls.__module__ != module.__name__:
                    continue
                for name, fn in list(vars(cls).items()):
                    if name.startswith("_") or not inspect.isfunction(fn):
                        continue
                    qual = f"{cls_name}.{name}"
                    if qual in counted:
                        key = f"{layer}.{cls_name.lower()}_{name}_calls"
                        setattr(cls, name, self._counted(key, fn))
                    else:
                        setattr(cls, name, self._span(layer, qual, fn))

    def metrics(self, src_lines, traced_wall_s, untraced_wall_s, report_bytes):
        """Per-layer metrics as {name: (value, unit)}."""
        c = self.counters
        out = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = (self.self_s[layer], "s")
            out[f"{layer}.calls"] = (self.calls[layer], "count")
            out[f"{layer}.errors"] = (self.errors[layer], "count")
            out[f"{layer}.src_lines"] = (src_lines[layer], "lines")
        for key in ("scc_passes", "perron_solves", "power_iterations"):
            out[f"spectral.{key}"] = (c[f"spectral.{key}"], "count")
        out["spectral.column_sums_s"] = (c["spectral.column_sums_s"], "s")
        out["spectral.residual_noise_floor_calls"] = (c["spectral.residual_noise_floor_calls"], "count")
        lookups = c["subshift.automaton_lookups"]
        builds = c["subshift.automaton_builds"]
        out["subshift.automaton_builds"] = (builds, "count")
        out["subshift.automaton_hit_ratio"] = (1.0 - builds / lookups if lookups else 0.0, "ratio")
        out["subshift.automaton_states"] = (c["subshift.automaton_states"], "count")
        out["subshift.automaton_step_calls"] = (c["subshift.automaton_step_calls"], "count")
        out["beta.expansions"] = (c["beta.expansions"], "count")
        out["beta.digits"] = (c["beta.digits"], "count")
        out["krieger.family_builds"] = (c["krieger.family_builds"], "count")
        out["krieger.class_counts"] = (c["krieger.class_counts"], "count")
        out["equilibrium.variational_s"] = (c["equilibrium.variational_s"], "s")
        out["equilibrium.samples"] = (c["equilibrium.samples"], "count")
        out["cli.report_bytes"] = (report_bytes, "bytes")
        out["trace.wall_s"] = (traced_wall_s, "s")
        out["trace.overhead_s"] = (traced_wall_s - untraced_wall_s, "s")
        return out

    def automaton_base(self):
        """(builds, lookups): the base of subshift.automaton_hit_ratio."""
        return self.counters["subshift.automaton_builds"], self.counters["subshift.automaton_lookups"]

"""Spans around the calls into hankelbound's modules, for the traced run.

``Tracer.install`` replaces each public function listed in ``WRAPPED`` at
the module attribute through which the program (or the benchmark) calls
it, so no program file changes.  A span records its name, start, end, the
span that caused it and the operation it belongs to.  Totals per name are
kept for every span, self time being a span's duration minus the part its
child spans cover; the raw spans are kept in memory up to ``SPAN_CAP`` and
written out when the run ends.
"""

from __future__ import annotations

import functools
import types
from time import perf_counter

# (module, attribute, span name).  The series engine is reached from targets
# through the names targets imported, so those calls are the series layer's
# spans; verify reaches bounds and classes the same way.
WRAPPED = (
    ("targets", "custom", "targets.custom"),
    ("targets", "preset", "targets.preset"),
    ("targets", "preset_series", "targets.preset_series"),
    ("targets", "compose", "series.compose"),
    ("targets", "div", "series.div"),
    ("targets", "elementary", "series.elementary"),
    ("classes", "starlike", "classes.starlike"),
    ("classes", "convex", "classes.convex"),
    ("classes", "r_gamma_tau", "classes.r_gamma_tau"),
    ("classes", "g_alpha", "classes.g_alpha"),
    ("bounds", "second_hankel_bound", "bounds.second_hankel_bound"),
    ("bounds", "profile", "bounds.profile"),
    ("bounds", "certified_quadratic", "bounds.certified_quadratic"),
    ("verify", "second_hankel_bound", "bounds.second_hankel_bound"),
    ("verify", "coefficient_arrays", "classes.coefficient_arrays"),
    ("verify", "empirical_sup", "verify.empirical_sup"),
    ("verify", "check_mu_monotone", "verify.check_mu_monotone"),
    ("verify", "check_caratheodory_bounds", "verify.check_caratheodory_bounds"),
    ("cli", "main", "cli.main"),
)

# The series engine sits behind the presets, so it is part of the targets layer.
LAYER_OF = {"targets": "targets", "series": "targets", "classes": "classes", "bounds": "bounds",
            "verify": "verify", "cli": "cli"}
LAYERS = ("targets", "classes", "bounds", "verify", "cli")
SPEC_BUILDERS = ("classes.starlike", "classes.convex", "classes.r_gamma_tau", "classes.g_alpha")
SPAN_CAP = 20_000
DEFAULT_GRID = (64, 32, 64)  # verify.DEFAULT_GRID, for calls that leave the grid out


def program_modules() -> types.SimpleNamespace:
    """The hankelbound modules, imported from wherever sys.path finds them."""
    import hankelbound.cli as cli
    from hankelbound import bounds, classes, targets, verify

    return types.SimpleNamespace(targets=targets, classes=classes, bounds=bounds, verify=verify, cli=cli)


def _count_elements(tracer, args, kwargs) -> None:
    tracer.counts["coefficient_arrays_elements"] += max(getattr(v, "size", 1) for v in args[1:4])


def _count_grid_points(tracer, args, kwargs) -> None:
    n_c, n_r, n_t = args[1] if len(args) > 1 else kwargs.get("grid", DEFAULT_GRID)
    tracer.counts["grid_points"] += n_c * n_r * n_t * n_t  # c x (rings x angles) x z circle


COUNTERS = {"classes.coefficient_arrays": _count_elements, "verify.empirical_sup": _count_grid_points}


class Tracer:
    """Span totals per name, counts, and the first SPAN_CAP raw spans."""

    def __init__(self) -> None:
        # name -> [calls, total s, self s, calls with child spans, total s of those]
        self.stats: dict[str, list] = {}
        self.counts = {"coefficient_arrays_elements": 0, "grid_points": 0}
        self.spans: list[tuple] = []  # (span id, parent id, op, name, start, end)
        self.span_count = 0
        self.op = 0
        self._stack: list[list] = []
        self._saved: list[tuple] = []

    def install(self, modules: types.SimpleNamespace) -> None:
        for module_name, attr, name in WRAPPED:
            module = getattr(modules, module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _wrap(self, name: str, fn):
        stack, spans = self._stack, self.spans
        stat = self.stats.setdefault(name, [0, 0.0, 0.0, 0, 0.0])
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.span_count += 1
            parent = stack[-1] if stack else None
            frame = [0.0, 0, self.span_count]  # child time, child spans, span id
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                if parent is not None:
                    parent[0] += duration
                    parent[1] += 1
                stat[0] += 1
                stat[1] += duration
                stat[2] += duration - frame[0]
                if frame[1]:
                    stat[3] += 1
                    stat[4] += duration
                if counter is not None:
                    counter(self, args, kwargs)
                if len(spans) < SPAN_CAP:
                    spans.append((frame[2], parent[2] if parent else 0, self.op, name, start, end))

        return traced

    def export(self) -> dict:
        return {"stats": self.stats, "counts": self.counts, "spans": self.spans, "span_count": self.span_count}

    def _calls(self, name: str) -> int:
        return self.stats.get(name, [0])[0]

    def _mean(self, name: str, index: int = 1, calls_index: int = 0) -> float:
        stat = self.stats.get(name)
        return stat[index] / stat[calls_index] if stat and stat[calls_index] else 0.0

    def layer_metrics(self, ops: int) -> dict:
        """Per-layer figures; per-call means, and per-operation totals over ``ops``."""
        self_s = dict.fromkeys(LAYERS, 0.0)
        for name, stat in self.stats.items():
            self_s[LAYER_OF[name.split(".")[0]]] += stat[2]
        builds = [self.stats[n] for n in SPEC_BUILDERS if n in self.stats]
        build_calls = sum(s[0] for s in builds)
        sup = self.stats.get("verify.empirical_sup", [0, 0.0])
        ms, us = 1e3, 1e6
        return {
            "targets.self_ms": (self_s["targets"] / ops * ms, "ms/op"),
            "targets.preset_us": (self._mean("targets.preset") * us, "us/call"),
            "targets.preset_series_us": (self._mean("targets.preset_series") * us, "us/call"),
            "targets.preset_fresh_us": (self._mean("targets.preset_series", 4, 3) * us, "us/call"),
            "targets.preset_calls": (self._calls("targets.preset") / ops, "count/op"),
            "targets.preset_fresh_calls": (self.stats.get("targets.preset_series", [0] * 5)[3] / ops, "count/op"),
            "classes.self_ms": (self_s["classes"] / ops * ms, "ms/op"),
            "classes.spec_build_us": (sum(s[1] for s in builds) / build_calls * us if build_calls else 0.0, "us/call"),
            "classes.coefficient_arrays_ms": (self._mean("classes.coefficient_arrays") * ms, "ms/call"),
            "classes.coefficient_arrays_calls": (self._calls("classes.coefficient_arrays") / ops, "count/op"),
            "classes.coefficient_arrays_elements": (self.counts["coefficient_arrays_elements"] / ops, "count/op"),
            "bounds.self_ms": (self_s["bounds"] / ops * ms, "ms/op"),
            "bounds.second_hankel_bound_us": (self._mean("bounds.second_hankel_bound") * us, "us/call"),
            "bounds.profile_us": (self._mean("bounds.profile") * us, "us/call"),
            "bounds.certified_quadratic_us": (self._mean("bounds.certified_quadratic") * us, "us/call"),
            "bounds.calls": (self._calls("bounds.second_hankel_bound") / ops, "count/op"),
            "verify.self_ms": (self_s["verify"] / ops * ms, "ms/op"),
            "verify.empirical_sup_ms": (self._mean("verify.empirical_sup") * ms, "ms/call"),
            "verify.empirical_sup_self_ms": (self._mean("verify.empirical_sup", 2) * ms, "ms/call"),
            "verify.grid_points": (self.counts["grid_points"] / ops, "count/op"),
            "verify.points_per_s": (self.counts["grid_points"] / sup[1] if sup[1] else 0.0, "1/s"),
            "verify.check_mu_monotone_us": (self._mean("verify.check_mu_monotone") * us, "us/call"),
            "verify.check_caratheodory_bounds_ms": (self._mean("verify.check_caratheodory_bounds") * ms, "ms/call"),
            "cli.main_self_ms": (self._mean("cli.main", 2) * ms, "ms/call"),
        }

"""Spans around the public functions of each linsys module.

The tracer wraps functions from outside the package (no edit to the
source): each wrapped call while tracing is on becomes a span (name,
layer, parent span, start, end) kept in memory; a few very hot functions
are only counted.  A name is replaced in every linsys module that holds
it, so ``from .kernel import kernel_moments`` aliases are traced too.
Names missing from the package are skipped and reported, so a refactor
shows as a zero metric rather than a crash.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

# (module, attribute path): a span per call.  The layer is the module.
SPANNED = [
    ("cli", "main"),
    ("engine", "run_ensemble"),
    ("engine", "init_state"),
    ("engine", "observables"),
    ("engine", "trajectory_records"),
    ("engine", "ProcessState.advance"),
    ("engine", "ProcessState.site_array"),
    ("kernel", "kernel_moments"),
    ("kernel", "validate_kernel"),
    ("walk", "green"),
    ("walk", "green_box"),
    ("walk", "simulate_walk"),
    ("walk", "survival_criterion"),
    ("walk", "h_of_x"),
    ("feynman_kac", "oracle_two_point"),
    ("feynman_kac", "_integrate"),
    ("feynman_kac", "fk3_estimate"),
    ("feynman_kac", "fk3_limit_estimate"),
    ("feynman_kac", "GammaTable.negative_offdiag"),
    ("stats", "default_battery"),
    ("stats", "martingale_check"),
    ("stats", "clt_check"),
    ("stats", "covariance_limit_check"),
    ("stats", "overlap_decay_check"),
]

# called up to millions of times per round: counted, their time stays
# with the caller
COUNTED = [
    ("kernel", "Kernel.correlation"),
    ("kernel", "Kernel.cross_moment"),
    ("feynman_kac", "GammaTable.x_jump_rates"),
]

LAYERS = ("cli", "engine", "kernel", "walk", "feynman_kac", "stats")


class Tracer:
    def __init__(self):
        self.active = False
        self.spans = []       # [name, layer, parent index, start, end]
        self.stack = []
        self.counts = {}
        self.events = 0
        self.missing = []
        self._restore = []

    # -- installation -----------------------------------------------------

    def install(self):
        for mod, path in SPANNED:
            self._replace(mod, path, self._span_wrapper)
        for mod, path in COUNTED:
            self._replace(mod, path, self._count_wrapper)
        if self.missing:
            sys.stderr.write("tracing: not found, reported as 0: "
                             + ", ".join(self.missing) + "\n")

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore = []

    def _replace(self, mod, path, make):
        module = importlib.import_module(f"linsys.{mod}")
        name = f"{mod}.{path}"
        owner, _, attr = path.rpartition(".")
        if owner:
            cls = getattr(module, owner, None)
            original = getattr(cls, "__dict__", {}).get(attr)
            if original is None:
                self.missing.append(name)
                return
            self._restore.append((cls, attr, original))
            setattr(cls, attr, make(original, name, mod))
            return
        original = getattr(module, attr, None)
        if original is None:
            self.missing.append(name)
            return
        wrapped = make(original, name, mod)
        for m in list(sys.modules.values()):
            if not getattr(m, "__name__", "").startswith("linsys"):
                continue
            for key, val in list(vars(m).items()):
                if val is original:
                    self._restore.append((m, key, original))
                    setattr(m, key, wrapped)

    def _span_wrapper(self, fn, name, layer):
        counts_events = name == "engine.ProcessState.advance"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            rec = [name, layer, self.stack[-1] if self.stack else -1,
                   time.perf_counter(), 0.0]
            self.stack.append(len(self.spans))
            self.spans.append(rec)
            before = getattr(args[0], "_events", 0) if counts_events else 0
            try:
                return fn(*args, **kwargs)
            finally:
                rec[4] = time.perf_counter()
                self.stack.pop()
                if counts_events:
                    self.events += getattr(args[0], "_events", 0) - before
        return wrapper

    def _count_wrapper(self, fn, name, layer):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.active:
                counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    # -- per-round aggregation ----------------------------------------------

    def mark(self):
        """Start of a round: reset counters, remember where spans begin."""
        self.counts.clear()
        self.events = 0
        return len(self.spans)

    def round_metrics(self, start):
        spans = self.spans[start:]
        child = [0.0] * len(spans)
        for rec in spans:
            if rec[2] >= start:
                child[rec[2] - start] += rec[4] - rec[3]
        self_time, calls, incl = {}, {}, {}
        layer_self = {layer: 0.0 for layer in LAYERS}
        integrate_in_oracle = 0.0
        for i, (name, layer, parent, t0, t1) in enumerate(spans):
            own = (t1 - t0) - child[i]
            self_time[name] = self_time.get(name, 0.0) + own
            incl[name] = incl.get(name, 0.0) + (t1 - t0)
            calls[name] = calls.get(name, 0) + 1
            layer_self[layer] += own
            if (name == "feynman_kac._integrate" and parent >= start
                    and self.spans[parent][0] == "feynman_kac.oracle_two_point"):
                integrate_in_oracle += t1 - t0

        def s(name):
            return self_time.get(name, 0.0)

        advance = s("engine.ProcessState.advance")
        out = {
            "engine.advance_s": advance,
            "engine.events": self.events,
            "engine.events_per_s": self.events / advance if advance > 0 else 0.0,
            "engine.observables_s": s("engine.observables"),
            "engine.site_array_s": s("engine.ProcessState.site_array"),
            # the whole second pass of simulate --output-dir, children included
            "engine.trajectory_records_s": incl.get("engine.trajectory_records", 0.0),
            "engine.init_state_s": s("engine.init_state"),
            "kernel.kernel_moments_calls": calls.get("kernel.kernel_moments", 0),
            # whole validation, GammaTable.negative_offdiag included
            "kernel.validate_kernel_s": incl.get("kernel.validate_kernel", 0.0),
            "kernel.correlation_calls": self.counts.get("kernel.Kernel.correlation", 0),
            "kernel.cross_moment_calls": self.counts.get("kernel.Kernel.cross_moment", 0),
            "feynman_kac.x_jump_rates_calls":
                self.counts.get("feynman_kac.GammaTable.x_jump_rates", 0),
            "feynman_kac.oracle_assemble_s":
                incl.get("feynman_kac.oracle_two_point", 0.0) - integrate_in_oracle,
            "feynman_kac.oracle_integrate_s": integrate_in_oracle,
            "feynman_kac.fk3_limit_estimate_s": s("feynman_kac.fk3_limit_estimate"),
            "feynman_kac.fk3_estimate_s": s("feynman_kac.fk3_estimate"),
            "walk.green_s": s("walk.green"),
            "walk.green_calls": calls.get("walk.green", 0),
            "walk.green_box_s": s("walk.green_box"),
            "walk.green_box_calls": calls.get("walk.green_box", 0),
            "walk.simulate_walk_s": s("walk.simulate_walk"),
            "trace.spans": len(spans),
        }
        for layer in LAYERS:
            out[f"{layer}.self_s"] = layer_self[layer]
        return out

    def dump(self, path):
        with open(path, "w") as fh:
            for i, (name, layer, parent, t0, t1) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "layer": layer,
                                     "parent": parent, "start": t0,
                                     "end": t1}) + "\n")

"""Outside-in layer tracing.

The package is not instrumented.  ``Tracer`` wraps the public functions
each layer calls and puts the wrapper at every lookup site: module
globals (including names bound by ``from .x import y`` in the calling
module), module-level dispatch tables such as ``simulate._SELECTOR_FNS``
and ``cli._SELECTORS``, and the ``CircularSample.trig_moments`` method.
``remove()`` puts the originals back and checks that none is left
wrapped.

A span is (name, start, end, parent span, op id), kept in memory and
written out at the end.  A span's self time is its duration minus the
durations of its direct children; calls within one process nest, so the
children never overlap.
"""

import functools
import sys
import time
from collections import defaultdict
from dataclasses import replace

import numpy as np

# layer module -> public functions wrapped in it
LAYER_FUNCTIONS = {
    "special": ("find_root", "inv_bessel_ratio"),
    "kernels": ("kernel_value", "derivative_weights", "concentration_from_bandwidth"),
    "estimators": ("kde_values", "psi_hat", "kde", "kde_deriv"),
    "mixture": ("select_aic", "fit_em", "psi_from_model"),
    "selectors": ("select_rt", "select_dpi", "select_ste", "select_lcv", "select_gold"),
    "simulate": ("realized_ise", "run_monte_carlo"),
    "cli": ("read_angles", "cmd_select", "cmd_density", "cmd_modes"),
}
OP = "op"


class Tracer:
    def __init__(self, pkg):
        self.pkg = pkg
        self.names = [OP]
        self.spans = []
        self.op = -1
        self.counts = defaultdict(float)
        self.op_max = defaultdict(dict)
        self.missing = []
        self._stack = []
        self._sites = []
        self._plan()

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, name, fn, post=None, pre=None):
        nid = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            token = pre(args, kwargs) if pre else None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (nid, t0, t1, parent, tracer.op)
            if post:
                post(token, args, kwargs, result)
            return result

        return traced

    def _hooks(self):
        count, op_max = self._count, self._op_max

        def evals(_token, args, kwargs, _result):
            theta = args[1] if len(args) > 1 else kwargs["theta"]
            count("kernels.kernel_value.evals", np.size(theta))

        def weights(_token, _args, _kwargs, result):
            op_max("kernels.derivative_weights.J_max", len(result))

        def em(_token, _args, _kwargs, result):
            count("mixture.fit_em.iterations", result.iterations)

        def selection(_token, _args, _kwargs, result):
            count("selectors.calls", 1)
            count("selectors.fallbacks", bool(result.fallback_uniform))

        hooks = {
            "kernels.kernel_value": evals,
            "kernels.derivative_weights": weights,
            "mixture.fit_em": em,
        }
        for method in ("rt", "dpi", "ste", "lcv", "gold"):
            hooks[f"selectors.select_{method}"] = selection
        return hooks

    def _trig_moments_hooks(self):
        count = self._count

        def pre(args, _kwargs):
            cached = getattr(args[0], "_moments", {})
            return cached.get("J", 0) if isinstance(cached, dict) else 0

        def post(have, args, kwargs, _result):
            sample = args[0]
            max_order = args[1] if len(args) > 1 else kwargs["max_order"]
            count("estimators.trig_moments.calls", 1)
            count("estimators.trig_moments.hits", max_order <= have)
            count("estimators.trig_moments.terms", sample.n * max(0, max_order - have))

        return pre, post

    def _plan(self):
        """Wrap each listed function once and find every site that holds it."""
        hooks = self._hooks()
        wrappers = {}
        for layer, functions in LAYER_FUNCTIONS.items():
            module = getattr(self.pkg, layer)
            for fname in functions:
                fn = getattr(module, fname, None)
                if fn is None:
                    self.missing.append(f"{layer}.{fname}")
                    continue
                name = f"{layer}.{fname}"
                wrappers[id(fn)] = (fn, self._wrap(name, fn, post=hooks.get(name)))

        modules = [m for key, m in sorted(sys.modules.items()) if key.split(".")[0] == "circkde"]
        for module in modules:
            for attr, value in vars(module).items():
                if id(value) in wrappers and wrappers[id(value)][0] is value:
                    self._sites.append((module, attr, value, wrappers[id(value)][1], False))
                elif isinstance(value, dict) and not attr.startswith("__"):
                    for key, item in value.items():
                        if id(item) in wrappers and wrappers[id(item)][0] is item:
                            self._sites.append((value, key, item, wrappers[id(item)][1], True))

        cls = self.pkg.estimators.CircularSample
        original = vars(cls).get("trig_moments")
        if original is None:
            self.missing.append("estimators.trig_moments")
        else:
            pre, post = self._trig_moments_hooks()
            wrapped = self._wrap("estimators.trig_moments", original, post=post, pre=pre)
            self._sites.append((cls, "trig_moments", original, wrapped, False))

    def wrap_models(self, models):
        """Add the Monte-Carlo models' samplers as sites: while installed,
        ``models`` maps each name to a copy whose sampler is wrapped."""
        for name, model in models.items():
            wrapped = replace(model, sampler=self._wrap("simulate.sampler", model.sampler))
            self._sites.append((models, name, model, wrapped, True))

    def install(self):
        for container, key, _original, wrapper, is_item in self._sites:
            if is_item:
                container[key] = wrapper
            else:
                setattr(container, key, wrapper)

    def remove(self):
        for container, key, original, _wrapper, is_item in self._sites:
            if is_item:
                container[key] = original
            else:
                setattr(container, key, original)
        left = [
            key
            for container, key, original, _w, is_item in self._sites
            if (container[key] if is_item else vars(container)[key]) is not original
        ]
        if left:
            raise RuntimeError(f"trace wrappers left installed at {left}")

    @property
    def site_count(self):
        return len(self._sites)

    # -- recording --------------------------------------------------------

    def _count(self, key, value):
        self.counts[key] += value

    def _op_max(self, key, value):
        per_op = self.op_max[key]
        per_op[self.op] = max(per_op.get(self.op, 0), value)

    def begin_op(self, op_id):
        if self._stack:
            raise RuntimeError("op started inside another span")
        self.op = op_id
        self._stack.append(len(self.spans))
        self.spans.append((0, time.perf_counter(), None, -1, op_id))

    def end_op(self):
        idx = self._stack.pop()
        nid, t0, _, parent, op_id = self.spans[idx]
        self.spans[idx] = (nid, t0, time.perf_counter(), parent, op_id)
        self.op = -1

    # -- results ----------------------------------------------------------

    def arrays(self):
        table = np.array(self.spans, dtype=float).reshape(-1, 5)
        return {
            "name": table[:, 0].astype(np.int32),
            "start": table[:, 1],
            "end": table[:, 2],
            "parent": table[:, 3].astype(np.int64),
            "op": table[:, 4].astype(np.int64),
        }

    def save(self, path):
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())

    def summary(self):
        """Per-op means of calls, total and self time for every span name,
        coverage of op time by layer spans, and the recorded counts."""
        a = self.arrays()
        name, parent = a["name"], a["parent"]
        dur = a["end"] - a["start"]
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        self_time = dur - child
        is_op = name == 0
        n_ops = int(np.sum(is_op))
        per_name = {}
        for nid, label in enumerate(self.names):
            mask = name == nid
            if nid == 0 or not np.any(mask):
                continue
            entry = per_name.setdefault(label, {"calls": 0.0, "total_ms": 0.0, "self_ms": 0.0})
            entry["calls"] += float(np.sum(mask)) / n_ops
            entry["total_ms"] += 1e3 * float(np.sum(dur[mask])) / n_ops
            entry["self_ms"] += 1e3 * float(np.sum(self_time[mask])) / n_ops

        # psi_hat calls made inside select_ste (prescan, bracket and root)
        ste_ids = {i for i, label in enumerate(self.names) if label == "selectors.select_ste"}
        psi_ids = {i for i, label in enumerate(self.names) if label == "estimators.psi_hat"}
        inside = np.zeros(len(name), dtype=bool)
        psi_in_ste = 0
        for i in range(len(name)):
            p = parent[i]
            inside[i] = name[i] in ste_ids or (p >= 0 and inside[p])
            if name[i] in psi_ids and p >= 0 and inside[p]:
                psi_in_ste += 1

        op_ms = float(np.sum(dur[is_op])) * 1e3
        return {
            "ops": n_ops,
            "per_name": per_name,
            "op_ms_total": op_ms,
            "coverage": float(np.sum(child[is_op])) * 1e3 / op_ms if op_ms else 0.0,
            "counts": {k: v / n_ops for k, v in self.counts.items()} if n_ops else {},
            "op_max_median": {
                k: float(np.median(list(v.values()))) for k, v in self.op_max.items() if v
            },
            "ste_psi_hat_calls": psi_in_ste / n_ops if n_ops else 0.0,
        }

"""Out-of-program tracing of the dropattack modules.

:class:`Tracer` wraps every public function of the package's modules (the
names in each module's ``__all__`` that are plain functions defined there)
and installs the wrapper in the defining module and in every dropattack
module that imported the function by name, so calls between modules are
seen too.  Each call becomes a span (function, start, end, parent span,
size label) kept in flat in-memory arrays; nothing is written until
:meth:`Tracer.dump`.  :meth:`Tracer.remove` puts the originals back.
"""

import functools
import importlib
import time
import types
from array import array
from collections import Counter

import numpy as np

MODULES = (
    "model", "controller", "channel", "attack_iid", "attack_qp",
    "costs", "simulate", "config", "cli",
)


def _decision_size(args):
    """d = N*m of the first argument (a prediction ensemble or a box QP)."""
    first = args[0] if args else None
    if hasattr(first, "horizon") and hasattr(first, "m"):
        return first.horizon * first.m
    if hasattr(first, "c"):
        return int(first.c.size)
    return 0


def _episode_steps(args):
    return int(getattr(args[0], "T", 0)) if args else 0


def _rollout_bytes(args):
    """Bytes of the float64 sample arrays ``empirical_increase`` builds.

    Computed from its argument shapes, not measured: noise draws and their
    stacked image (S x N*n each), two uniform stacks (S x N*m each), and
    per channel law the delivery mask, delivered inputs and state stack,
    doubled for the tcp-like bridge draw.
    """
    if len(args) < 6:
        return 0
    ens, gain, samples = args[0], args[2], int(args[5])
    nn, nm = ens.horizon * ens.n, ens.horizon * ens.m
    per_law = 2 * nm + nn
    if gain.protocol.value == "tcp":
        per_law *= 2
    return 8 * samples * (2 * nn + 2 * nm + 2 * per_law)


# size label recorded per span: decision size d = N*m, realization-steps of
# an episode, or bytes computed by a horizon rollout
LABELERS = {
    "controller.control_gain": _decision_size,
    "attack_qp.solve_box_qp_max": _decision_size,
    "simulate.run_episode": _episode_steps,
    "simulate.empirical_increase": _rollout_bytes,
}


class Tracer:
    """Spans of every wrapped call made while installed."""

    def __init__(self):
        self.names = []
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.func = array("i")
        self.label = array("i")
        self.op_marks = []  # span count at the start of each operation
        self.winners = Counter()
        self._stack = []
        self._patches = []

    # ---------------------------------------------------------- install

    def install(self):
        if not self._patches:
            self._patches = self._find_patches()
        for holder, key, _, wrapper in self._patches:
            setattr(holder, key, wrapper)

    def remove(self):
        for holder, key, fn, _ in reversed(self._patches):
            setattr(holder, key, fn)

    def _find_patches(self):
        """(module, name, original, wrapper) for every place to patch."""
        package = importlib.import_module("dropattack")
        modules = [importlib.import_module(f"dropattack.{name}") for name in MODULES]
        holders = [package] + modules
        patches = []
        for short, module in zip(MODULES, modules):
            for attr in module.__all__:
                fn = getattr(module, attr)
                if not isinstance(fn, types.FunctionType) or fn.__module__ != module.__name__:
                    continue
                wrapper = self._wrap(f"{short}.{attr}", fn)
                for holder in holders:
                    for key, value in vars(holder).items():
                        if value is fn:
                            patches.append((holder, key, fn, wrapper))
        return patches

    def _wrap(self, qualname, fn):
        fid = len(self.names)
        self.names.append(qualname)
        start, end, parent = self.start, self.end, self.parent
        func, label, stack = self.func, self.label, self._stack
        labeler = LABELERS.get(qualname)
        winners = self.winners if qualname == "attack_qp.solve_box_qp_max" else None
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(start)
            parent.append(stack[-1] if stack else -1)
            func.append(fid)
            label.append(labeler(args) if labeler else 0)
            end.append(0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if winners is not None:
                winners[result.winner] += 1
            return result

        return wrapper

    def mark_operation(self):
        self.op_marks.append(len(self.start))

    # ---------------------------------------------------------- results

    def arrays(self):
        """Spans as numpy arrays, with self time and operation index."""
        start = np.frombuffer(self.start, dtype=np.int64)
        end = np.frombuffer(self.end, dtype=np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = end - start
        child = np.zeros_like(dur)
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        marks = np.asarray(self.op_marks + [len(start)])
        op = np.repeat(np.arange(len(self.op_marks)), np.diff(marks))
        return {
            "start_ns": start,
            "end_ns": end,
            "parent": parent,
            "func": np.frombuffer(self.func, dtype=np.int32),
            "label": np.frombuffer(self.label, dtype=np.int32),
            "op": op,
            "dur_ns": dur,
            "self_ns": dur - child,
        }

    def dump(self, path, spans):
        np.savez(path, names=np.array(self.names), **spans)


# Winner tags of solve_box_qp_max; item names of the per-layer report.
WINNERS = ("vertex", "gradient", "iid", "nominal", "interior")
COUNTED = (
    "attack_qp.solve_box_qp_max",
    "simulate.run_episode",
    "simulate.resolve_attack",
    "channel.update_monitor",
    "channel.philox_stream",
    "simulate.empirical_increase",
)
P50_MS = (
    "config.load_experiment",
    "model.build_prediction_ensemble",
    "controller.control_gain",
    "attack_iid.attack_context",
    "attack_qp.solve_iid_constrained",
    "simulate.resolve_attack",
    "simulate.empirical_increase",
)
SIZED = ("controller.control_gain", "attack_qp.solve_box_qp_max")


def summarize(tracer, spans, slowdowns):
    """Per-function table and the named per-layer metrics.

    ``slowdowns`` holds the host slowdown measured around each traced
    operation; every span's time is divided by its operation's, as the
    end-to-end times are.  Each metric is ``{"value", "unit"}``.  Times
    are medians over calls unless named otherwise; ``.calls`` and winners
    are counts per operation.  A layer the workload never reaches reports
    no time.
    """
    names = tracer.names
    n_ops = len(slowdowns)
    fid = {name: i for i, name in enumerate(names)}
    func, label = spans["func"], spans["label"]
    scale = 1e6 * np.asarray(slowdowns)[spans["op"]]
    dur = spans["dur_ns"] / scale
    own = spans["self_ns"] / scale

    functions = {}
    for i, name in enumerate(names):
        sel = func == i
        if sel.any():
            functions[name] = {
                "calls": int(sel.sum()),
                "total_ms": float(dur[sel].sum()),
                "self_ms": float(own[sel].sum()),
                "p50_ms": float(np.median(dur[sel])),
                "p50_self_ms": float(np.median(own[sel])),
            }

    def select(*qualnames):
        return np.isin(func, [fid[q] for q in qualnames])

    metrics = {}

    def put(key, value, unit):
        metrics[key] = {"value": float(value), "unit": unit}

    def p50(key, sel, values, unit="ms", scale=1.0):
        if sel.any():
            put(key, np.median(values[sel]) * scale, unit)

    for name in COUNTED:
        put(f"{name}.calls", np.sum(func == fid[name]) / n_ops, "calls/op")
    for tag in WINNERS:
        put(f"attack_qp.winner.{tag}", tracer.winners.get(tag, 0) / n_ops, "count/op")

    p50("cli.main.self_ms", select("cli.main"), own)
    for name in P50_MS:
        p50(f"{name}.ms", select(name), dur)
    p50("attack_iid.optimal_alpha.ms",
        select("attack_iid.optimal_alpha_udp", "attack_iid.optimal_alpha_tcp"), dur)
    p50("attack_qp.solve_box_qp_max.self_ms", select("attack_qp.solve_box_qp_max"), own)
    p50("channel.in_safe_region.us", select("channel.in_safe_region"), dur, "us", 1e3)
    # per decision size d: solve_box_qp_max in self time (its nested iid
    # solve excluded), control_gain inclusive
    for name in SIZED:
        sel = select(name)
        values = own if name == "attack_qp.solve_box_qp_max" else dur
        for d in sorted(set(label[sel].tolist())):
            p50(f"{name}.ms.d{d}", sel & (label == d), values)

    episodes = select("simulate.run_episode")
    if episodes.any():
        steps = label[episodes].sum()
        put("simulate.run_episode.step_us", own[episodes].sum() / steps * 1e3, "us")
    p50("simulate.empirical_increase.bytes_computed",
        select("simulate.empirical_increase"), label, "B/call")

    # costs regimes: per-operation time in the costs module's entry points,
    # counting only the outermost of nested costs calls
    costs = np.array([n.startswith("costs.") for n in names])[func]
    parent = spans["parent"]
    outer = costs & ~((parent >= 0) & costs[np.maximum(parent, 0)])
    if outer.any():
        per_op = np.bincount(spans["op"][outer], weights=dur[outer])
        put("costs.regimes.ms", np.median(per_op[per_op > 0]), "ms/op")
    return {"functions": functions, "metrics": metrics}

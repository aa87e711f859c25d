"""In-memory span tracing of the probanet layers, installed from outside.

`Tracer.install()` replaces every public function of the ten layer
modules, and every public method of their classes, by a wrapper that
records one span per call: name, start, end, parent span, and an
optional work count (draws, MACs, evaluations, picks).  A function is
replaced in every namespace that looks it up, so `sample_minibatch`
is wrapped both in `sim` and in `training`, which imported it, and the
check functions are wrapped inside `gradcheck.CHECKS` too.
`Tracer.uninstall()` puts every original back.  Nothing under `src/`
changes.

Spans stay in flat arrays until the run ends; self time (a span's
duration minus the time its direct children cover) is derived from
them afterwards.
"""

from __future__ import annotations

import importlib
import inspect
import time
from array import array

import numpy as np

PACKAGE = "probanet"
LAYERS = (
    "cli", "config", "training", "gate", "tensor",
    "sim", "rng", "artifacts", "netpbm", "gradcheck",
)


def _conv_macs(x, p) -> float:
    h, w, c = x.shape
    return float(h * w * c * p.out_channels)


# Work recorded with a span, computed from the call's arguments and result.
WORK = {
    "rng.SplitMix64.u64": lambda args, res: float(args[1]),
    "sim.sample_minibatch": lambda args, res: float(res.size),
    "tensor.conv1x1_forward": lambda args, res: _conv_macs(args[0], args[1]),
    # input, weight and bias gradients: two matrix products of the forward's size
    "tensor.conv1x1_backward": lambda args, res: 2.0 * _conv_macs(args[0], args[1]),
    "tensor.finite_diff_gradient": lambda args, res: 2.0 * np.size(args[1]),
}

# Spans whose name carries the variant of the call.
TAGS = {
    "training.train_step": lambda args: (
        "baseline" if args[0].gate is None else "gated"
    ),
}


class Tracer:
    """Spans of every traced call, in order of entry, plus the patches
    that install the wrappers."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.work = array("d")
        self._stack = [-1]
        self._patches: list[tuple] = []  # (holder, key, original, setter)

    def _id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, name: str, fn):
        tag = TAGS.get(name)
        work = WORK.get(name)
        plain_id = self._id(name)
        now = time.perf_counter_ns
        stack = self._stack
        name_id, parent, start, end, work_arr = (
            self.name_id, self.parent, self.start, self.end, self.work
        )

        def traced(*args, **kwargs):
            nid = plain_id if tag is None else self._id(f"{name}.{tag(args)}")
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            start.append(0)
            end.append(0)
            work_arr.append(0.0)
            stack.append(idx)
            t0 = now()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = now()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if work is not None:
                work_arr[idx] = work(args, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every public function and method defined in a layer
        module, in every namespace and dict of the package that holds it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS]
        wrappers = {}  # original function -> its wrapper
        for layer, mod in zip(LAYERS, modules):
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrappers[obj] = self._wrap(f"{layer}.{attr}", obj)
                elif inspect.isclass(obj):
                    for m_name, m in list(vars(obj).items()):
                        if not m_name.startswith("_") and inspect.isfunction(m):
                            wrapped = self._wrap(f"{layer}.{attr}.{m_name}", m)
                            self._patch(obj, m_name, wrapped, setattr)
        for mod in [importlib.import_module(PACKAGE), *modules]:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patch(mod, attr, wrappers[obj], setattr)
                elif isinstance(obj, dict):
                    for k, v in list(obj.items()):
                        if inspect.isfunction(v) and v in wrappers:
                            self._patch(obj, k, wrappers[v], dict.__setitem__)

    def _patch(self, holder, key, value, setter) -> None:
        original = holder[key] if isinstance(holder, dict) else vars(holder)[key]
        self._patches.append((holder, key, original, setter))
        setter(holder, key, value)

    def uninstall(self) -> None:
        for holder, key, original, setter in reversed(self._patches):
            setter(holder, key, original)
        self._patches.clear()

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start_ns": np.frombuffer(self.start, dtype=np.int64).copy(),
            "end_ns": np.frombuffer(self.end, dtype=np.int64).copy(),
            "work": np.frombuffer(self.work, dtype=np.float64).copy(),
        }

    def save(self, path: str) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())


def aggregate(tracer: Tracer) -> dict[str, dict]:
    """Per span name: calls, total seconds, self seconds, work, and the
    work of its direct children by child name."""
    a = tracer.arrays()
    n = len(tracer.names)
    ids = a["name_id"]
    dur = (a["end_ns"] - a["start_ns"]).astype(np.float64) * 1e-9
    has_parent = a["parent"] >= 0
    parents = a["parent"][has_parent]
    child = np.zeros_like(dur)
    np.add.at(child, parents, dur[has_parent])
    calls = np.bincount(ids, minlength=n)
    total = np.bincount(ids, weights=dur, minlength=n)
    self_s = np.bincount(ids, weights=dur - child, minlength=n)
    work = np.bincount(ids, weights=a["work"], minlength=n)
    pair = ids[parents].astype(np.int64) * n + ids[has_parent]
    pair_work = np.bincount(pair, weights=a["work"][has_parent], minlength=n * n)
    pair_work = pair_work.reshape(n, n)
    return {
        name: {
            "calls": float(calls[i]),
            "total_s": float(total[i]),
            "self_s": float(self_s[i]),
            "work": float(work[i]),
            "child_work": {
                tracer.names[j]: float(pair_work[i, j])
                for j in np.flatnonzero(pair_work[i])
            },
        }
        for i, name in enumerate(tracer.names)
    }

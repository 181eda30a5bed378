"""Span tracing by module-attribute wrappers, plus per-layer micro-sweeps.

Tracer.install() replaces each layer entry point listed in LAYERS with a
wrapper that records one span per call: layer id, parent span, start and
end in ns, and a per-span flag (matrix-valued result for functions.apply,
skipped frame for envs.frameskip). Spans stay in compact arrays until the
run ends; a layer's self time is its span's duration minus its children's.
restore() puts every original attribute back.
"""

from __future__ import annotations

import time
from array import array

import numpy as np

from pixelcgp import bridge, envs, evolution, functions, genome, values

import workloads


def _is_matrix(result) -> bool:
    return isinstance(result, np.ndarray)


def _skipped(result) -> bool:
    return result[3]


# layer name -> (owner, attribute, per-span flag or None)
LAYERS = {
    "evolution.mutate": (evolution, "mutate", None),
    "evolution.evaluate": (evolution, "evaluate", None),
    "genome.decode": (evolution, "decode", None),
    "envs.run_episode": (envs, "run_episode", None),
    "envs.frameskip": (envs.FrameSkip, "step", _skipped),
    "envs.catch_step": (envs.Catch, "step", None),
    "game.pong_step": (workloads.PongEnv, "step", None),
    "genome.select_action": (envs, "select_action", None),
    "genome.step": (genome.Program, "step", None),
    "functions.apply": (functions, "apply", _is_matrix),
    "bridge.session_start": (bridge.BridgeSession, "__init__", None),
    "bridge.act": (bridge.BridgeSession, "act", None),
    "bridge.session_close": (bridge.BridgeSession, "close", None),
}


class Tracer:
    def __init__(self):
        self.layer = array("b")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.flag = array("b")
        self._stack = [-1]
        self._patches = []

    def install(self) -> None:
        for lid, (name, (owner, attr, flag_fn)) in enumerate(LAYERS.items()):
            original = getattr(owner, attr)
            setattr(owner, attr, self._wrapper(lid, original, flag_fn))
            self._patches.append((owner, attr, original))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _wrapper(self, lid, fn, flag_fn):
        layer, parent, start, end, flag = (
            self.layer, self.parent, self.start, self.end, self.flag)
        stack = self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            sid = len(start)
            layer.append(lid)
            parent.append(stack[-1])
            end.append(0)
            flag.append(0)
            stack.append(sid)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()
            if flag_fn is not None and flag_fn(result):
                flag[sid] = 1
            return result

        return traced

    def arrays(self) -> dict:
        return dict(
            layer=np.frombuffer(self.layer, dtype=np.int8),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.int64),
            end=np.frombuffer(self.end, dtype=np.int64),
            flag=np.frombuffer(self.flag, dtype=np.int8))

    def summary(self) -> dict:
        """Per layer: calls, inclusive and self seconds, flagged calls."""
        a = self.arrays()
        n, k = len(a["start"]), len(LAYERS)
        dur = (a["end"] - a["start"]).astype(np.float64)
        nested = a["parent"] >= 0
        child = np.bincount(a["parent"][nested], weights=dur[nested],
                            minlength=n)
        calls = np.bincount(a["layer"], minlength=k)
        total = np.bincount(a["layer"], weights=dur, minlength=k) / 1e9
        own = np.bincount(a["layer"], weights=dur - child, minlength=k) / 1e9
        flagged = np.bincount(a["layer"], weights=a["flag"], minlength=k)
        return {name: dict(calls=int(calls[i]), seconds=float(total[i]),
                           self_seconds=float(own[i]),
                           flagged=int(flagged[i]))
                for i, name in enumerate(LAYERS)}

    def save(self, path: str) -> None:
        np.savez(path, layer_names=np.array(list(LAYERS)), **self.arrays())


def _per_call_us(fn, args, calls: int, repeats: int = 5) -> float:
    """Median over repeats of the mean time of one call, after warm-up."""
    for _ in range(2):
        fn(*args)
    clock = time.perf_counter_ns
    samples = []
    for _ in range(repeats):
        start = clock()
        for _ in range(calls):
            fn(*args)
        samples.append((clock() - start) / calls / 1e3)
    return float(np.median(samples))


SWEEP_SHAPES = {"scalar": None, "m12": (12, 12), "m210": (210, 160)}
SWEEP_CALLS = {"scalar": 200, "m12": 100, "m210": 3}


def sweep() -> dict:
    """functions.apply per function and shape, values.constrain per shape."""
    rng = np.random.default_rng(0)
    out = {}
    p = float(rng.uniform(-1, 1))
    for label, shape in SWEEP_SHAPES.items():
        def operand():
            if shape is None:
                return float(rng.uniform(-1, 1))
            return rng.uniform(-1, 1, shape)
        x, y = operand(), operand()
        calls = SWEEP_CALLS[label]
        per_fn = {}
        for spec in functions.FUNCTIONS:
            per_fn[spec.name] = _per_call_us(functions.apply,
                                             (spec, x, y, p), calls)
        if label == "m210":
            for fname, us in per_fn.items():
                out[f"functions.apply_us.{fname}.m210"] = us
        out[f"functions.apply_us.all.{label}"] = float(np.mean(list(per_fn.values())))
        raw = x * 3.0
        if shape is not None:
            raw[0, 0], raw[-1, -1] = np.inf, np.nan
        out[f"values.constrain_us.{label}"] = _per_call_us(
            values.constrain, (raw,), calls * 5 if shape is None else calls)
    return out

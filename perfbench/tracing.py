"""Spans around calls into qcorrkit's modules, recorded from outside.

The traced run replaces public functions on the qcorrkit modules with
wrappers that record a span (name, start, end, parent, operation id) in
memory.  Code that reaches a function through its module attribute is
traced; that includes a module's calls to its own public functions.  A call
to a name a module imported from another module stays inside the caller's
span.  Nothing in the program is changed on disk, and ``uninstall`` puts the
original functions back.
"""

from __future__ import annotations

import functools
import os
from collections import defaultdict
from time import perf_counter

LAYERS = ("seesaw", "separating", "strategy", "correlation", "analysis", "cli")

# layer -> attributes on that module ("Class.method" for methods)
TRACED = {
    "seesaw": ["optimize"],
    "separating": ["ideal_truncated_strategy", "exact_pstar", "printed_table", "truncation_distance"],
    "strategy": ["validate", "induce", "restrict_questions", "Strategy.to_json", "Strategy.from_json"],
    "correlation": ["distance", "block_structure_check", "restrict",
                    "Correlation.to_json", "Correlation.from_json", "Correlation.to_csv"],
    "analysis": ["schmidt", "descent_chain", "verify_y4_relations",
                 "verify_schmidt_bijections", "strategy_block_decompose"],
    "cli": ["run"],
}

# busy-time metrics reported per round, named <layer>.<function>_s
TIMED = {
    "seesaw": ["optimize"],
    "separating": ["ideal_truncated_strategy", "exact_pstar"],
    "strategy": ["validate", "induce", "to_json", "from_json"],
    "analysis": ["schmidt", "descent_chain", "verify_y4_relations",
                 "verify_schmidt_bijections", "strategy_block_decompose"],
    "correlation": ["distance", "block_structure_check"],
    "cli": ["truncate", "induce", "schmidt", "verify", "chain", "tables", "distance"],
}


def _seesaw_note(args, kwargs, result):
    return {"iters": sum(t.iterations for t in result.traces), "restarts": len(result.traces)}


def _json_note(args, kwargs, result):
    return {"bytes": len(result)}


def _cli_note(args, kwargs, code):
    argv = list(args[0])
    written = 0
    for flag in ("--out", "--trace-out"):
        if flag in argv[:-1]:
            path = argv[argv.index(flag) + 1]
            written += os.path.getsize(path) if os.path.exists(path) else 0
    return {"bytes": written, "error": code != 0}


NOTES = {"seesaw.optimize": _seesaw_note, "strategy.to_json": _json_note, "cli.run": _cli_note}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.op = "setup"
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def install(self, modules: dict) -> None:
        for layer, names in TRACED.items():
            for dotted in names:
                owner = modules[layer]
                *cls, attr = dotted.split(".")
                if cls:
                    owner = getattr(owner, cls[0])
                raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
                note = NOTES.get(f"{layer}.{attr}")
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(layer, attr, raw.__func__, note))
                else:
                    wrapped = self._wrap(layer, attr, raw, note)
                setattr(owner, attr, wrapped)
                self._undo.append((owner, attr, raw))

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._undo):
            setattr(owner, attr, raw)
        self._undo.clear()

    def _wrap(self, layer: str, attr: str, fn, note):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = f"cli.{args[0][0]}" if layer == "cli" else f"{layer}.{attr}"
            span = {"name": name, "layer": layer, "op": tracer.op,
                    "parent": tracer._stack[-1] if tracer._stack else None, "error": False}
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span["start"] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span["error"] = True
                raise
            finally:
                span["end"] = perf_counter()
                tracer._stack.pop()
            if note is not None:
                span.update(note(args, kwargs, result))
            return result

        return traced

    def layer_metrics(self, rounds: int) -> dict[str, tuple[float, str]]:
        """Per-round busy time, self time, calls and failures from timed spans."""
        timed = [s for s in self.spans if s["op"] != "setup"]
        child = defaultdict(float)
        for s in timed:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        busy = defaultdict(float)
        layer = {k: defaultdict(float) for k in ("calls", "failed", "self_s")}
        iters = restarts = json_bytes = cli_bytes = 0
        for idx, s in enumerate(self.spans):
            if s["op"] == "setup":
                continue
            dur = s["end"] - s["start"]
            busy[s["name"]] += dur
            layer["calls"][s["layer"]] += 1
            layer["failed"][s["layer"]] += s["error"]
            layer["self_s"][s["layer"]] += dur - child[idx]
            iters += s.get("iters", 0)
            restarts += s.get("restarts", 0)
            if s["name"] == "strategy.to_json":
                json_bytes += s["bytes"]
            elif s["layer"] == "cli":
                cli_bytes += s["bytes"]
        per = 1.0 / rounds
        out: dict[str, tuple[float, str]] = {}
        for lay, fns in TIMED.items():
            for fn in fns:
                out[f"{lay}.{fn}_s"] = (busy[f"{lay}.{fn}"] * per, "s")
        out["seesaw.iter_ms"] = (1e3 * busy["seesaw.optimize"] / iters if iters else 0.0, "ms")
        out["seesaw.outer_iters"] = (iters * per, "count")
        out["seesaw.restarts"] = (restarts * per, "count")
        out["strategy.json_mb"] = (json_bytes * per / 1e6, "MB")
        out["cli.bytes_written"] = (cli_bytes * per, "bytes")
        for lay in LAYERS:
            out[f"{lay}.calls"] = (layer["calls"][lay] * per, "count")
            out[f"{lay}.failed"] = (layer["failed"][lay] * per, "count")
            out[f"{lay}.self_s"] = (layer["self_s"][lay] * per, "s")
        return out

"""Outside-in tracer for the mzv package.

The tracer replaces functions of the already-imported ``mzv`` modules with
wrappers that record a span per call: name, start, end and the index of the
enclosing span.  Nothing under ``src/`` is edited; the wrappers are installed
in the worker process only, after its imports and before the command runs.

Every public module-level function of every ``mzv`` module gets a span of
its own (``<module>.<function>``), so that the self time of one layer never
absorbs the work of a function in another.  The operator methods and the few
private functions named by a per-layer metric are wrapped as well.
``words.Word`` construction is counted without a span: it runs millions of
times and only its count is reported.

Spans are kept in memory and written when the command ends; the per-name
aggregates (calls, total, self time) are kept alongside so the worker can
return them without a second pass over the spans.
"""

from __future__ import annotations

import functools
import inspect
import json
import time

# Per-layer metric base name -> span names it sums.  Span names are
# "<module>.<attribute path>" inside the mzv package.
_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__", "__rmul__",
        "__truediv__", "__rtruediv__", "__pow__")
GROUPS = {
    "series.mul": ["series.NCSeries.__mul__", "series.NCSeries.__rmul__"],
    "series.invert": ["series.NCSeries.invert"],
    "series.substitute": ["series.NCSeries.substitute"],
    "series.character_series": ["series.character_series"],
    "series.exp_log": ["series.NCSeries.exp", "series.NCSeries.log"],
    "symbols.mul": ["symbols.SymbolPoly.__mul__", "symbols.SymbolPoly.__rmul__"],
    "symbols.substitute": ["symbols.SymbolPoly.substitute"],
    "symbols.formal_derivative": ["symbols.formal_derivative"],
    "ratfunc.ops": [f"ratfunc.RatFunc.{op}" for op in _OPS if op != "__pow__"],
    "associator.solve_twisted": ["associator._solve_twisted"],
    "associator.zeta_table": ["associator._zeta_substitution_table"],
    "associator.canonicalize": ["associator.canonicalize_li_symbols"],
    "braid.mul": ["braid.BraidElement.__mul__"],
    "braid.reduce": ["braid.reduce_monomial_dict"],
    "braid.evaluate_series": ["braid.evaluate_series"],
    "shufflealg.generate": ["shufflealg.generate_double_shuffle"],
    "shufflealg.regularize": ["shufflealg.shuffle_regularized", "shufflealg.stuffle_regularized"],
    "shufflealg.reduce": ["shufflealg.reduce_relations"],
    "shufflealg.shuffle_words": ["shufflealg.shuffle_words"],
    "arch_eval.mzv_numeric": ["arch_eval.mzv_numeric"],
    "arch_eval.polylog": ["arch_eval.polylog", "arch_eval.polylog2"],
    "padic_eval.polylog": ["padic_eval.padic_polylog"],
    "padics.ops": [f"padics.PadicNumber.{op}" for op in _OPS],
    "serialize": ["serialize." + name for name in
                  ("ring_tag", "ring_from_tag", "series_to_dict", "series_to_json",
                   "series_from_dict", "series_from_json")],
}
ROOT = "cli"
WORD_INIT = "words.Word.__init__"


class Tracer:
    """Span recorder for one command (one worker process)."""

    def __init__(self, cmd_id: str):
        self.cmd_id = cmd_id
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[tuple[int, float, float, int] | None] = []
        self._stack: list[list] = []  # [span index, time covered by children]
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.counters: dict[str, int] = {WORD_INIT: 0}
        self.solve_keys: set = set()
        self.rows = 0
        self.columns = 0

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.stats[name] = [0, 0.0, 0.0]
        return self._name_ids[name]

    def wrap(self, name: str, fn, on_call=None):
        """Return `fn` wrapped in a span named `name`.  `on_call(args, result)`
        runs after a successful call, inside the span."""
        name_id = self._name_id(name)
        spans, stack, stat, clock = self.spans, self._stack, self.stats[name], time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [len(spans), 0.0]
            parent = stack[-1][0] if stack else -1
            spans.append(None)
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if on_call is not None:
                    on_call(args, result)
                return result
            finally:
                end = clock()
                stack.pop()
                spans[frame[0]] = (name_id, start, end, parent)
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                stat[0] += 1
                stat[1] += duration
                stat[2] += duration - frame[1]

        return traced

    def count(self, name: str, fn):
        counters = self.counters

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counters[name] += 1
            return fn(*args, **kwargs)

        return counted

    # -- results -------------------------------------------------------

    def aggregate(self) -> dict:
        """Per-name [calls, total_s, self_s], the counters and the hook counts."""
        return {"stats": {n: list(v) for n, v in self.stats.items() if v[0]},
                "counters": dict(self.counters),
                "solve_twisted_distinct": len(self.solve_keys),
                "shufflealg_rows": self.rows,
                "shufflealg_columns": self.columns,
                "spans": len(self.spans)}

    def write_spans(self, path: str) -> None:
        """Write every span as [name, start, end, parent] with the command id."""
        with open(path, "w") as fh:
            json.dump({"cmd_id": self.cmd_id, "names": self.names,
                       "fields": ["name", "start", "end", "parent"],
                       "spans": [s for s in self.spans if s is not None]}, fh, separators=(",", ":"))


def _on_solve(tracer: Tracer):
    def hook(args, result):
        phi, scale = args[0], args[1]
        tracer.solve_keys.add((phi.truncation, str(scale)))
    return hook


def _on_generate(tracer: Tracer):
    def hook(args, result):
        tracer.rows += len(result)
    return hook


def _on_reduce(tracer: Tracer):
    def hook(args, result):
        tracer.columns += result.rank + len(result.basis)
    return hook


def install(tracer: Tracer, package) -> None:
    """Wrap the functions of every imported module of `package` (mzv)."""
    import sys

    prefix = package.__name__ + "."
    modules = {name[len(prefix):]: mod for name, mod in sys.modules.items()
               if name.startswith(prefix) and mod is not None}
    hooks = {"associator._solve_twisted": _on_solve(tracer),
             "shufflealg.generate_double_shuffle": _on_generate(tracer),
             "shufflealg.reduce_relations": _on_reduce(tracer)}
    named = {span for spans in GROUPS.values() for span in spans}

    # Module-level functions: every public one, plus the private ones a metric names.
    replaced: dict[int, object] = {}  # id(original) -> wrapper
    for mod_name, mod in sorted(modules.items()):
        for attr, obj in list(vars(mod).items()):
            if not inspect.isfunction(obj) and not hasattr(obj, "cache_info"):
                continue
            if getattr(obj, "__module__", None) != mod.__name__:
                continue  # imported from elsewhere; wrapped where it is defined
            span = f"{mod_name}.{attr}"
            if attr.startswith("_") and span not in named:
                continue
            if inspect.isgeneratorfunction(getattr(obj, "__wrapped__", obj)):
                continue  # a span would cover only the generator's creation
            replaced[id(obj)] = tracer.wrap(span, obj, hooks.get(span))
    # Rebind every module-level reference, including `from x import f` copies.
    for mod in modules.values():
        for attr, obj in list(vars(mod).items()):
            if id(obj) in replaced and (inspect.isfunction(obj) or hasattr(obj, "cache_info")):
                setattr(mod, attr, replaced[id(obj)])

    # Methods named by a metric.
    for span in sorted(named):
        mod_name, _, rest = span.partition(".")
        if "." not in rest:
            continue
        cls_name, meth = rest.split(".")
        cls = getattr(modules[mod_name], cls_name)
        if meth in vars(cls):
            setattr(cls, meth, tracer.wrap(span, vars(cls)[meth], hooks.get(span)))
    word = modules["words"].Word
    word.__init__ = tracer.count(WORD_INIT, word.__init__)


def layer_metrics(agg: dict) -> dict[str, float]:
    """Per-layer metric values of one command from its aggregate."""
    stats = agg["stats"]

    def total(group: str, field: int) -> float:
        return sum(stats.get(span, (0, 0.0, 0.0))[field] for span in GROUPS[group])

    out: dict[str, float] = {"words.Word.calls": agg["counters"].get(WORD_INIT, 0)}
    for group in GROUPS:
        out[f"{group}.calls"] = total(group, 0)
        out[f"{group}.self_s"] = total(group, 2)
    out["cli.self_s"] = stats.get(ROOT, (0, 0.0, 0.0))[2]
    out["associator.solve_twisted.distinct"] = agg["solve_twisted_distinct"]
    out["shufflealg.rows"] = agg["shufflealg_rows"]
    out["shufflealg.columns"] = agg["shufflealg_columns"]
    return out

"""Layer spans for the traced run, recorded from outside the package.

``Tracer`` replaces public entry points of the package's modules with
wrappers that time each call, attribute it to a layer and count what the
call produced, then puts the originals back. Spans are aggregated per layer
in memory (calls, total, self and longest time); self time is a span's
duration minus the time of the spans it caused.
"""

from __future__ import annotations

import importlib
from collections import Counter
from dataclasses import dataclass
from time import perf_counter

from workloads import count_nodes


@dataclass
class SpanStats:
    calls: int = 0
    total: float = 0.0
    self_time: float = 0.0
    longest: float = 0.0


def _vcgen(counts, args, result):
    nodes = [count_nodes(ob.goal) for ob in result]
    counts["vcgen.obligations"] += len(nodes)
    counts["vcgen.goal_nodes"] += sum(nodes)
    counts["vcgen.max_goal_nodes"] = max([counts["vcgen.max_goal_nodes"], *nodes])


def _simplify(counts, args, result):
    counts["simplify.nodes_in"] += count_nodes(args[0])
    counts["simplify.nodes_out"] += count_nodes(result)


def _prover(counts, args, result):
    counts["prover." + {"proved-internal": "proved"}.get(result.status, result.status)] += 1


def _export(counts, args, result):
    counts["export.docs"] += 1
    counts["export.bytes"] += len(result.text.encode("utf-8"))


def _exec(counts, args, result):
    counts["interp.checks"] += result.checks_passed
    counts["interp.violations"] += result.status == "contract-violation"
    counts["interp.trace_snapshots"] += len(result.trace or ())


def _trace(counts, args, result):
    for r in result.results:
        counts["vcgen.trace." + r.verdict.replace("-", "_")] += 1


# (module, attribute, layer, counter hook). Modules that import a name from
# another module hold their own binding, so each binding is wrapped.
BOUNDARIES = (
    ("miniwhy.parser", "parse", "parser", None),
    ("miniwhy.parser", "tokenize", "lexer", None),
    ("miniwhy.typecheck", "typecheck", "typecheck", None),
    ("miniwhy.vcgen", "generate_obligations", "vcgen", _vcgen),
    ("miniwhy.vcgen", "instantiate_on_trace", "vcgen.trace", _trace),
    ("miniwhy.vcgen", "eval_formula", "interp.eval_formula", None),
    ("miniwhy.prover", "prove_internal", "prover", _prover),
    ("miniwhy.prover", "simplify", "simplify", _simplify),
    ("miniwhy.prover", "eval_formula", "interp.eval_formula", None),
    ("miniwhy.export", "export_smtlib", "export", _export),
    ("miniwhy.export", "export_sexp", "export", _export),
    ("miniwhy.export", "export_xml", "export", _export),
    ("miniwhy.export", "validate", "export.validate", None),
    ("miniwhy.interp", "exec_method", "interp.exec", _exec),
    ("miniwhy.interp", "compile_unit", "interp.compile_unit", None),
    ("miniwhy.interp", "eval_formula", "interp.eval_formula", None),
)


class Tracer:
    """Context manager: wraps every boundary on entry, restores on exit. It
    can be entered again; the spans and counts add up."""

    def __init__(self):
        self.spans = {}
        self.counts = Counter()
        self._stack = []        # child time accumulated by each open span
        self._saved = []

    def __enter__(self):
        for modname, attr, layer, hook in BOUNDARIES:
            mod = importlib.import_module(modname)
            fn = getattr(mod, attr)
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(layer, fn, hook))
        return self

    def __exit__(self, *exc):
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()
        return False

    def _wrap(self, layer, fn, hook):
        stats = self.spans.setdefault(layer, SpanStats())
        stack = self._stack
        counts = self.counts

        def traced(*args, **kwargs):
            child = [0.0]
            stack.append(child)
            t0 = perf_counter()
            try:
                try:
                    result = fn(*args, **kwargs)
                finally:
                    took = perf_counter() - t0
                    stack.pop()
                    stats.calls += 1
                    stats.total += took
                    stats.self_time += took - child[0]
                    stats.longest = max(stats.longest, took)
                if hook is not None:
                    hook(counts, args, result)
                return result
            finally:
                if stack:
                    # the caller's self time excludes this span and its counting
                    stack[-1][0] += perf_counter() - t0
        return traced

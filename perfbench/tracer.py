"""Call tracing installed from outside the engine.

Each traced public function is replaced, in its defining module or class
and in every hopflab module that imported it by name, by a wrapper that
records a span.  Spans are aggregated in memory per (function, parent
function): calls, cumulative seconds (outermost activations only, so
recursion is not counted twice) and self seconds (span minus the spans of
traced callees).  Nothing is written per call.
"""
import importlib
import os
import sys
from time import perf_counter

# metric prefix -> (module, attribute path); the prefix's first part is the
# layer.  Resolved only by install(), so the orchestrator can import this
# module without importing the engine.
TARGETS = {
    "scalars.pgcd": ("hopflab.scalars", "pgcd"),
    "scalars.pdivmod": ("hopflab.scalars", "pdivmod"),
    "scalars.pmul": ("hopflab.scalars", "pmul"),
    "ncpoly.nf_word": ("hopflab.ncpoly", "Presentation.nf_word"),
    "ncpoly.mul": ("hopflab.ncpoly", "Presentation.mul"),
    "hopf.act_left": ("hopflab.hopf", "act_left"),
    "hopf.act_right": ("hopflab.hopf", "act_right"),
    "linalg.echelon_insert": ("hopflab.bimodlab.linalg", "Echelon.insert"),
    "linalg.echelon_reduce": ("hopflab.bimodlab.linalg", "Echelon.reduce"),
    "linalg.echelon_coords": ("hopflab.bimodlab.linalg", "Echelon.coords"),
    "linalg.rref": ("hopflab.bimodlab.linalg", "rref"),
    "linalg.kernel": ("hopflab.bimodlab.linalg", "kernel"),
    "core.closure": ("hopflab.bimodlab.core", "closure"),
    "core.matrix_span": ("hopflab.bimodlab.core", "matrix_span"),
    "core.decompose_left": ("hopflab.bimodlab.core", "decompose_left"),
    "core.is_simple": ("hopflab.bimodlab.core", "is_simple"),
    "suites.verify_identities": ("hopflab.bimodlab.suites",
                                 "verify_identities"),
    "suites.relation_annihilation_check": ("hopflab.bimodlab.suites",
                                           "relation_annihilation_check"),
    "suites.verify_action_lemmas": ("hopflab.bimodlab.suites",
                                    "verify_action_lemmas"),
    "cli.parse_expr": ("hopflab.cli", "parse_expr"),
    "cli.format_poly": ("hopflab.cli", "format_poly"),
    "cli.scalar_text": ("hopflab.cli", "scalar_text"),
    "store.save_module": ("hopflab.store", "save_module"),
    "store.load_module": ("hopflab.store", "load_module"),
}

LAYERS = ("scalars", "ncpoly", "hopf", "linalg", "core", "suites", "cli",
          "store")

# the per-layer metrics a traced run reports, in order
PER_LAYER = (
    "scalars.pgcd.calls", "scalars.pgcd.s", "scalars.pdivmod.calls",
    "scalars.pdivmod.s", "scalars.pmul.calls", "scalars.pmul.s",
    "scalars.self_s",
    "ncpoly.nf_word.calls", "ncpoly.nf_word.miss", "ncpoly.nf_word.hit_ratio",
    "ncpoly.rewrite_steps", "ncpoly.memo_words", "ncpoly.mul.calls",
    "ncpoly.mul.s", "ncpoly.self_s",
    "hopf.act_left.calls", "hopf.act_left.s", "hopf.act_right.calls",
    "hopf.act_right.s", "hopf.memo_entries", "hopf.self_s",
    "linalg.echelon_insert.calls", "linalg.echelon_insert.s",
    "linalg.echelon_insert.useful_ratio", "linalg.echelon_reduce.s",
    "linalg.echelon_coords.calls", "linalg.echelon_coords.s",
    "linalg.rref.calls", "linalg.rref.s", "linalg.kernel.calls",
    "linalg.self_s",
    "core.closure.calls", "core.closure.s", "core.closure.dim_sum",
    "core.matrix_span.calls", "core.matrix_span.s", "core.decompose_left.s",
    "core.is_simple.s", "core.self_s",
    "suites.records", "suites.verify_identities.s",
    "suites.relation_annihilation_check.s", "suites.verify_action_lemmas.s",
    "suites.self_s",
    "cli.parse_expr.calls", "cli.parse_expr.s", "cli.format_poly.calls",
    "cli.format_poly.s", "cli.scalar_text.calls", "cli.self_s",
    "store.save_module.s", "store.load_module.s", "store.archive_bytes",
    "store.self_s",
    "trace.wall_s", "trace.untraced_wall_s", "trace.overhead_s",
)


def unit(metric):
    if metric.endswith("_ratio"):
        return "ratio"
    if metric.endswith("_bytes"):
        return "bytes"
    if metric.endswith(".s") or metric.endswith("_s"):
        return "s"
    return "count"


def _on_insert(counters, res, args):
    if res:
        counters["linalg.echelon_insert.useful"] += 1


def _on_closure(counters, res, args):
    counters["core.closure.dim_sum"] += res.dim


def _on_suite(counters, res, args):
    counters["suites.records"] += res.total


def _on_save(counters, res, args):
    counters["store.archive_bytes"] += os.path.getsize(args[1])


RESULT_HOOKS = {
    "linalg.echelon_insert": _on_insert,
    "core.closure": _on_closure,
    "suites.verify_identities": _on_suite,
    "suites.relation_annihilation_check": _on_suite,
    "suites.verify_action_lemmas": _on_suite,
    "store.save_module": _on_save,
}

COUNTER_NAMES = ("linalg.echelon_insert.useful", "core.closure.dim_sum",
                 "suites.records", "store.archive_bytes")


class Tracer:
    def __init__(self):
        self.spans = {}      # (name, parent) -> [calls, cum_s, self_s]
        self.counters = dict.fromkeys(COUNTER_NAMES, 0)
        self._stack = []     # open spans: [name, child seconds]
        self._active = dict.fromkeys(TARGETS, 0)

    def wrap(self, name, fn):
        spans, stack, active = self.spans, self._stack, self._active
        counters, hook = self.counters, RESULT_HOOKS.get(name)

        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            active[name] += 1
            t0 = perf_counter()
            try:
                res = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                stack.pop()
                active[name] -= 1
                rec = spans.get((name, parent))
                if rec is None:
                    rec = spans[(name, parent)] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[2] += dur - frame[1]
                if not active[name]:
                    rec[1] += dur
                if stack:
                    stack[-1][1] += dur
            if hook is not None:
                hook(counters, res, args)
            return res

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self):
        """Patch every binding of every target in the loaded hopflab
        modules (``core`` imports ``act_left`` by name, ``store`` imports
        ``format_poly`` and friends, and so on)."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "hopflab" or n.startswith("hopflab.")]
        for name, (modname, path) in TARGETS.items():
            owner = importlib.import_module(modname)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            orig = getattr(owner, attr)
            wrapped = self.wrap(name, orig)
            setattr(owner, attr, wrapped)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, key, wrapped)


def memo_sizes():
    """Sizes of the process-global memos, read from outside."""
    from hopflab import hopf, ncpoly
    pres = ncpoly.PRESENTATIONS.values()
    return {
        "nf_words": sum(len(p._nf) for p in pres),
        "rewrite_steps": sum(p._steps for p in pres),
        "hopf_entries": (len(hopf._left_cache) + len(hopf._right_cache)
                         + len(hopf._pair_cache)),
    }


def layer_metrics(tracer, before, after):
    """Per-layer metrics of one traced process."""
    calls, cum, self_s = {}, {}, dict.fromkeys(LAYERS, 0.0)
    for (name, _parent), (n, c, s) in tracer.spans.items():
        calls[name] = calls.get(name, 0) + n
        cum[name] = cum.get(name, 0.0) + c
        self_s[name.split(".")[0]] += s
    out = {}
    for name in TARGETS:
        out[name + ".calls"] = calls.get(name, 0)
        out[name + ".s"] = cum.get(name, 0.0)
    for layer in LAYERS:
        out[layer + ".self_s"] = self_s[layer]
    out.update(tracer.counters)
    out["ncpoly.nf_word.miss"] = after["nf_words"] - before["nf_words"]
    out["ncpoly.rewrite_steps"] = (after["rewrite_steps"]
                                   - before["rewrite_steps"])
    out["ncpoly.memo_words"] = after["nf_words"]
    out["hopf.memo_entries"] = after["hopf_entries"]
    return out


def span_table(tracer):
    """The aggregated spans as JSON-ready rows."""
    return [{"fn": name, "parent": parent, "calls": n, "cum_s": c,
             "self_s": s}
            for (name, parent), (n, c, s) in sorted(
                tracer.spans.items(), key=lambda kv: (kv[0][0], kv[0][1] or ""))]

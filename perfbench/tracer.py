"""Spans around monadlab's layer functions, installed from outside.

Each target is wrapped at every name a caller looks it up by: a module
attribute bound to the original function (`nogo.check_property`,
`hierarchy.verdict`, `terms.enumerate_terms`, ...) or the class attribute
`FinMonad.enumerate`. A call records a span (name, start, end, parent)
in memory; counts come from the returned reports. Nothing under `src/`
is changed.
"""

import json
import sys
import time

# span name -> (module defining it, attribute); `FinMonad.enumerate` is a method
TARGETS = {
    "theories.check_property": ("monadlab.theories", "check_property"),
    "terms.decide_eq": ("monadlab.terms", "decide_eq"),
    "terms.eq_bounded": ("monadlab.terms", "eq_bounded"),
    "terms.enumerate_terms": ("monadlab.terms", "enumerate_terms"),
    "nogo.verdict": ("monadlab.nogo", "verdict"),
    "nogo.plotkin_refute_bounded": ("monadlab.nogo", "plotkin_refute_bounded"),
    "distlaws.check_beck": ("monadlab.distlaws", "check_beck"),
    "monads.enumerate": ("monadlab.monads", "FinMonad.enumerate"),
    "monads.check_monad_laws": ("monadlab.monads", "check_monad_laws"),
    "monads.free_model_iso_check": ("monadlab.monads", "free_model_iso_check"),
    "lawsearch.search_distlaw_bounded": ("monadlab.lawsearch", "search_distlaw_bounded"),
    "hierarchy.build_table": ("monadlab.hierarchy", "build_table"),
    "hierarchy.diff_table": ("monadlab.hierarchy", "diff_table"),
}
GENERATORS = {"terms.enumerate_terms"}


def _count_result(counts, name, res):
    """Outcome counters read from the report a layer function returned."""
    def add(key, n=1):
        counts[key] = counts.get(key, 0) + n

    if name == "theories.check_property":
        add("theories.certs")
        if res.status.value == "HoldsBounded":
            add("theories.certs_bounded")
    elif name == "nogo.verdict":
        add({"NoDistLaw": "nogo.status.no", "Exists": "nogo.status.yes"}.get(
            res.status, "nogo.status.unknown"))
    elif name == "distlaws.check_beck":
        add("distlaws.check_beck.cases", sum(res.checked.values()))
        add("distlaws.check_beck.pool_values", sum(res.pool_sizes.values()))
    elif name == "monads.enumerate":
        add("monads.enumerate.values", len(res))
    elif name == "monads.check_monad_laws":
        add("monads.check_monad_laws.cases", sum(res.checked.values()))
    elif name == "monads.free_model_iso_check":
        add("monads.free_model_iso_check.terms", res.term_count)
        add("monads.free_model_iso_check.classes", res.class_count)
    elif name == "lawsearch.search_distlaw_bounded":
        add("lawsearch.variables", res.variables)
        add("lawsearch.forced", res.forced)
        add({"NoLawInFragment": "lawsearch.outcome.no_law",
             "Candidates": "lawsearch.outcome.candidates"}.get(
            res.outcome, "lawsearch.outcome.inconclusive"))
    elif name == "hierarchy.diff_table":
        add("hierarchy.mismatches", len(res))


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.stack = []
        self.counts = {}
        self._patched = []  # (owner, attribute, original)

    def _open(self, name):
        self.spans.append([name, time.perf_counter(), None,
                           self.stack[-1] if self.stack else -1])
        self.stack.append(len(self.spans) - 1)

    def _close(self):
        self.spans[self.stack.pop()][2] = time.perf_counter()

    def _wrap(self, name, orig):
        if name in GENERATORS:
            def wrapper(*args, **kwargs):
                # the span runs from the first item to exhaustion; callers
                # drain these generators into lists, so no caller work is inside
                n = 0
                self._open(name)
                try:
                    for item in orig(*args, **kwargs):
                        n += 1
                        yield item
                finally:
                    self._close()
                    self.counts["terms.enumerate_terms.terms"] = (
                        self.counts.get("terms.enumerate_terms.terms", 0) + n)
        else:
            def wrapper(*args, **kwargs):
                self._open(name)
                try:
                    res = orig(*args, **kwargs)
                finally:
                    self._close()
                _count_result(self.counts, name, res)
                return res
        return wrapper

    def install(self):
        import monadlab.cli  # noqa: F401  load every module that binds a target

        for name, (module, attr) in TARGETS.items():
            owner = sys.modules[module]
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
                orig = owner.__dict__[attr]
                self._patch(owner, attr, orig, self._wrap(name, orig))
                continue
            orig = getattr(owner, attr)
            wrapper = self._wrap(name, orig)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.startswith("monadlab"):
                    for key, value in list(vars(mod).items()):
                        if value is orig:
                            self._patch(mod, key, orig, wrapper)

    def _patch(self, owner, attr, orig, wrapper):
        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, orig))

    def uninstall(self):
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched.clear()

    def layer_metrics(self):
        """Raw sums for this process: per span name `.calls`, `.s` (inclusive,
        outermost spans of that name only) and `.self_s` (minus direct
        wrapped children), plus the outcome counters."""
        out = dict(self.counts)
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        for i, (name, start, end, parent) in enumerate(self.spans):
            dur = end - start
            out[name + ".calls"] = out.get(name + ".calls", 0) + 1
            out[name + ".self_s"] = out.get(name + ".self_s", 0.0) + dur - child_time[i]
            p = parent
            while p >= 0 and self.spans[p][0] != name:
                p = self.spans[p][3]
            if p < 0:
                out[name + ".s"] = out.get(name + ".s", 0.0) + dur
        return out

    def write_spans(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"], "spans": self.spans}, fh)

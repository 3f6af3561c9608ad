"""One benchmark operation in a fresh interpreter.

Usage: python3 perfbench/worker.py '<op json>'

The op is a JSON object with a "kind" and its arguments, plus "cap_mb"
(address-space cap, set here with setrlimit so it binds this process only)
and an optional "trace" path. The worker imports monadlab from the
checkout's `src/`, runs the op the way the CLI would, and prints one JSON
line: the outcome ("ok" or the exception's type name), a small summary of
the result for the reference check, the in-process time and the peak RSS.
With a trace path it wraps the layer functions first (see tracer.py) and
writes the spans there.

The kind "setup" only imports the CLI and builds the registries; the
parent times it to give `setup_s`.
"""

import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _summaries():
    """kind -> (function running the op from its args, summary of its result)."""
    from monadlab import distlaws, hierarchy, lawsearch, monads, nogo, theories

    def table(op):
        t = hierarchy.build_table(op["variant"], op["depth"], op["num_vars"])
        diffs = hierarchy.diff_table(t, hierarchy.golden_path(op["variant"]))
        return {"cells": len(t.cells), "mismatches": len(diffs), "counts": t.counts()}

    def verdict(op):
        v = nogo.verdict(theories.lookup_theory(op["s"]), theories.lookup_theory(op["t"]),
                         op["depth"], op["num_vars"])
        return {"mark": v.mark, "content": sorted(hierarchy.cell_content(v))}

    def monad_laws(op):
        r = monads.check_monad_laws(monads.monad_for(op["monad"]), op["carrier"], op["bound"])
        return {"ok": r.ok, "violated": sorted({v[0] for v in r.violations}),
                "cases": sum(r.checked.values())}

    def beck(op):
        r = distlaws.check_beck(distlaws.law_for(op["law"]), carrier_size=op["carrier"],
                                bound=op["bound"])
        return {"ok": r.ok, "violated": sorted({v[0] for v in r.violations}),
                "cases": sum(r.checked.values())}

    def free_model(op):
        r = monads.free_model_iso_check(op["theory"], op["monad"], labels=tuple(op["labels"]),
                                        bound=op["bound"], depth=op["depth"])
        return {"ok": r.ok, "unreachable": any("unreachable" in p for p in r.problems),
                "terms": r.term_count, "classes": r.class_count}

    def plotkin(op):
        r = nogo.plotkin_refute_bounded()
        return {"candidates": r.candidates, "survivors": len(r.survivors)}

    def search(op):
        r = lawsearch.search_distlaw_bounded(op["s"], op["t"])
        return {"outcome": r.outcome}

    return {
        "table": table,
        "verdict": verdict,
        "monad_laws": monad_laws,
        "beck": beck,
        "free_model": free_model,
        "plotkin": plotkin,
        "search": search,
    }


def main(argv):
    op = json.loads(argv[1])
    cap = op["cap_mb"] << 20
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
    sys.path.insert(0, os.path.join(ROOT, "src"))

    import monadlab.cli  # noqa: F401  the CLI's import cost is part of every op
    from monadlab import distlaws, monads, theories

    theories.registry()
    monads.monad_ids()
    distlaws.law_ids()
    if op["kind"] == "setup":
        print(json.dumps({"outcome": "ok"}))
        return

    tracer = None
    if op.get("trace"):
        import tracer as tracer_mod

        tracer = tracer_mod.Tracer()
        tracer.install()
    run = _summaries()[op["kind"]]
    start = time.perf_counter()
    result = {"outcome": "ok"}
    try:
        result["summary"] = run(op)
    except MemoryError:
        result = {"outcome": "MemoryError"}
    except Exception as exc:  # the op's failure is the measurement; keep going
        result = {"outcome": type(exc).__name__, "error": str(exc)[:200]}
    result["op_s"] = time.perf_counter() - start
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.layer_metrics()
        tracer.write_spans(op["trace"])
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv)

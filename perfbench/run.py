"""monadlab benchmark: cold CLI-equivalent operations, checked and timed.

    python3 perfbench/run.py --workload table|verdicts|laws|search \
        --seed N --seconds S --trace 0|1

Run from the root of a monadlab checkout (it imports `src/monadlab`; there
is nothing to build). Every operation runs in a fresh interpreter
(worker.py) with a wall-time limit and an address-space cap that the child
sets on itself, one at a time, pinned to one CPU. The operations of a
workload form a pass, drawn from the seed. The same pass repeats, as
rounds, until S seconds have passed (a round is never cut, so a long pass
runs once).

Times are scaled to a reference CPU speed. On a shared host the same cold
process can take up to twice as long while a neighbour is busy, in
stretches of seconds to minutes, and the CPU time it is charged grows with
it. A low-priority probe on the ops' CPU (SpeedProbe) measures how fast
that CPU runs during each op; an op's scaled time is its CPU seconds times
the probe's speed over PROBE_REF_RATE, which reads as seconds on a quiet
host. Per op the median over the rounds is taken: `wall_s` is their sum
over the pass, `op_p50_s` their median and `op_tail_s` their highest
percentile with ten samples beyond it. `setup_s` is the median over
SETUP_PER_ROUND cold imports before each round and after the last one.
Raw wall and CPU seconds are in the run record.

--trace 0 prints the end-to-end metrics. --trace 1 runs one untraced and
one traced pass and prints the per-layer metrics of the traced one, plus
the tracing overhead (traced minus untraced pass, in scaled seconds).

An operation fails when it raises, times out, hits the memory cap, or
gives an output that disagrees with its reference. Known defects (list
over list search runs out of memory; check_beck at carrier 3 raises
TypeError on 12 laws) are recorded in the reference as expected failures:
they lower `ok_share` but leave the run correct. The last stdout line is
{"correct", "attempted", "failed", "metrics"}, where `failed` counts
operations whose outcome contradicts the reference (0 when correct). The
full run record (commit, nproc, Python, seed, every operation's outcome
and time) goes to perfbench/out/.
"""

import argparse
import ctypes
import json
import mmap
import os
import platform
import random
import resource
import signal
import statistics
import struct
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
OUT = os.path.join(HERE, "out")
WORKLOADS = ("table", "verdicts", "laws", "search")
SETUP_PER_ROUND = 3
PR_SET_PDEATHSIG = 1  # prctl(2)
# The probe speed (iterations per CPU second) that scaled seconds are taken
# at: about its speed in the quiet stretches of the 2-core Xeon host the
# benchmark was written on, where it ranged over 5-10e6, so that scaled
# seconds read as seconds on that host when nothing else runs.
PROBE_REF_RATE = 1.0e7
# Certificates for the table and the point queries are searched at depth 3
# with 3 variables (`monadlab boom-table full --vars 3`, `monadlab nogo S T
# --vars 3`; the CLI default is 4). The full table still agrees with the
# golden CSV on all 256 cells, in about 6 s instead of 30 s, so a run can
# repeat it.
DEPTH, NUM_VARS = 3, 3

# per-op limits: (wall seconds, address space MB). 1 GB stops a blow-up
# within seconds without crowding the host.
LIMITS = {"table": (150, 1536), "verdicts": (60, 1024), "laws": (60, 1024),
          "search": (10, 1024)}

with open(os.path.join(HERE, "reference.json")) as _fh:
    REFERENCE = json.load(_fh)

# Boom pairs joining a unital and a nonunital theory. Which theories a pass
# builds class maps for sets its cost and peak RSS (T's map is the largest),
# so the pairs are fixed and the seed draws their orientation.
BOOM_PAIRS = (("T", "AI+"), ("I", "L+"), ("P", "M+"))
HEAVY_OTHERS = ("abgroup", "convex")
LIGHT_OTHERS = ("pointed", "exception:{a}", "exception:{a,b}", "reader:2")
UNITAL_BOOM = ("T", "I", "C", "CI", "L", "AI", "M", "P")


# ---------------------------------------------------------------------------
# passes


def _oriented(rng, a, b):
    return (a, b) if rng.random() < 0.5 else (b, a)


def plan(workload, seed):
    """The operations of one pass; the same seed gives the same pass."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "table":
        return [{"kind": "table", "variant": "full", "depth": DEPTH, "num_vars": NUM_VARS}]
    if workload == "verdicts":
        # Strata: each heavy theory (its class maps are built only here)
        # meets two light ones, the Boom pairs above in a seeded
        # orientation, and one unital Boom theory over exception:{a,b}, the
        # one kind of non-Boom pair with a decided verdict (No).
        pairs = [_oriented(rng, h, t) for h in HEAVY_OTHERS
                 for t in rng.sample(LIGHT_OTHERS, 2)]
        pairs += [_oriented(rng, u, n) for u, n in BOOM_PAIRS]
        pairs.append((rng.choice(UNITAL_BOOM), "exception:{a,b}"))
        ops = [{"kind": "verdict", "s": s, "t": t, "depth": DEPTH, "num_vars": NUM_VARS}
               for s, t in pairs]
    elif workload == "laws":
        ops = _laws_plan(rng)
    else:
        # Outcome-class strata, split by measured cost so that a pass costs
        # about the same for every seed. Most searches finish in well under a
        # second, so fast Candidates are the majority and set op_p50_s;
        # list/list, the blow-up every pass holds, sets the tail and peak RSS.
        # Pairs that timed out when recorded are not drawn: each would cost
        # the whole op limit, and whether they finish depends on that limit.
        def pool(cls, lo, hi):
            return sorted(k for k, (c, secs) in REFERENCE["search"].items()
                          if c == cls and lo <= secs < hi and k != "list|list")

        keys = ["list|list"]
        for cls, lo, hi, n in (("NoLawInFragment", 0, 99, 1), ("Candidates", 0, 0.005, 7),
                               ("Candidates", 1.4, 1.6, 1), ("Inconclusive", 0.3, 0.5, 1)):
            keys += rng.sample(pool(cls, lo, hi), n)
        ops = [dict(zip(("s", "t"), k.split("|")), kind="search") for k in keys]
    rng.shuffle(ops)
    return ops


# Laws ops that cost clearly more than an interpreter start (about 0.2 s),
# by (kind, carrier). Each group is drawn from members of about the same
# cost, so that a pass costs about the same for every seed; the heaviest
# (ring at carrier 2, mm-nel-1 at carrier 3) are in every pass.
LAWS_HEAVY = {("beck", 2): ("choice:tree:multiset", "choice:tree:powerset"),
              ("beck", 3): ("mm-nel-2", "mm-nel-3"),
              ("monad_laws", 2): ("dist", "narytree:3")}


def _laws_plan(rng):
    """Every pass: the three negative controls (faulty-list-exception, the
    convex/dist free model, the Plotkin replay), all twelve carrier-3
    check_beck calls that raise TypeError (a known defect), the heaviest
    Beck checks, and exception-over:narytree:3, whose Beck check holds the
    workload's peak RSS (about 80 MB against at most 35 MB for any other
    op). Drawn: from each check family a few light ops and one heavy one."""
    laws, monads = REFERENCE["laws"], REFERENCE["monads"]
    crash3 = REFERENCE["beck_carrier3_typeerror"]
    free = {th: (th, m, labels, b, d) for th, m, labels, b, d in REFERENCE["free_model_pairs"]}

    def beck(law, carrier):
        return {"kind": "beck", "law": law, "carrier": carrier, "bound": 3}

    def monad(m):
        return {"kind": "monad_laws", "monad": m, "carrier": 2, "bound": 3}

    def free_model(th):
        _, m, labels, b, d = free[th]
        return {"kind": "free_model", "theory": th, "monad": m, "labels": labels,
                "bound": b, "depth": d}

    fixed2 = ("faulty-list-exception", "exception-over:narytree:3", "ring")
    fixed3 = ("mm-nel-1",)
    heavy2, heavy3, heavy_m = (LAWS_HEAVY[k] for k in (("beck", 2), ("beck", 3),
                                                      ("monad_laws", 2)))
    light2 = [l for l in laws if l not in heavy2 + fixed2]
    light3 = [l for l in laws if l not in heavy3 + fixed3 + fixed2 and l not in crash3]
    # narytree-theory:3 (about 2 s) is not drawn; convex/dist (about 3 s)
    # is the free-model negative control and in every pass
    light_free = [th for th in free if th not in ("convex", "narytree-theory:3")]
    ops = [beck(law, 2) for law in fixed2] + [beck(law, 3) for law in fixed3 + tuple(crash3)]
    ops += [free_model("convex"), {"kind": "plotkin"}]
    ops += [beck(rng.choice(heavy2), 2)] + [beck(l, 2) for l in rng.sample(light2, 2)]
    ops += [beck(rng.choice(heavy3), 3)] + [beck(l, 3) for l in rng.sample(light3, 2)]
    ops += [monad(rng.choice(heavy_m))] + [
        monad(m) for m in rng.sample([m for m in monads if m not in heavy_m], 3)]
    ops += [free_model(th) for th in rng.sample(light_free, 2)]
    return ops


# ---------------------------------------------------------------------------
# references


def _golden_cells():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from monadlab import hierarchy

    _, _, cells = hierarchy.parse_golden(hierarchy.golden_path("full").read_text())
    return cells


def expected_failure(op):
    """The recorded failure kind of a known defect, or None."""
    if op["kind"] == "beck" and op["carrier"] == 3:
        return "TypeError" if op["law"] in REFERENCE["beck_carrier3_typeerror"] else None
    if op["kind"] == "search":
        cls = REFERENCE["search"][f"{op['s']}|{op['t']}"][0]
        return cls if cls == "MemoryError" else None
    return None


def agrees(op, outcome, summary, golden):
    """Does the op's outcome agree with its reference?

    A known defect may stay or be fixed; a fixed one must then give a
    correct output. A claim may get stronger, never weaker or flipped.
    """
    if outcome != "ok":
        return outcome == expected_failure(op)
    kind = op["kind"]
    if kind == "table":
        return summary == {"cells": 256, "mismatches": 0,
                           "counts": {"N": 80, "Y": 41, "?": 135}}
    if kind == "verdict":
        if (op["s"], op["t"]) in golden:
            mark, content = golden[(op["s"], op["t"])]
            return (summary["mark"], set(summary["content"])) == (mark, set(content))
        want = REFERENCE["verdicts_other"][f"{op['s']}|{op['t']}"]
        return want == "?" or summary["mark"] == want
    if kind == "monad_laws":
        return summary["ok"] and summary["cases"] > 0
    if kind == "beck":
        if op["law"] == "faulty-list-exception":
            return "mult-s" in summary["violated"]
        return summary["ok"] and summary["cases"] > 0
    if kind == "free_model":
        if op["theory"] == "convex":
            return summary["unreachable"]
        return summary["ok"]
    if kind == "plotkin":
        return summary == {"candidates": 1024, "survivors": 0}
    recorded = REFERENCE["search"][f"{op['s']}|{op['t']}"][0]
    if recorded in ("NoLawInFragment", "Candidates"):
        return summary["outcome"] == recorded
    return True


# ---------------------------------------------------------------------------
# running


class SpeedProbe:
    """How fast the ops' CPU runs, measured while they run.

    A forked child, pinned to the CPU the ops are pinned to and at nice 19,
    spins a small dict loop and keeps (iterations, its own CPU seconds) in
    shared memory. While an op runs the probe gets only the scheduler's
    crumbs (about 2 % of the CPU), spread over the op's whole interval, so
    iterations per probe CPU second over that interval is the CPU's speed
    during the op. The child exits by itself once its parent is gone.
    """

    CHUNK = 200

    def __init__(self, cpu):
        self.cpu = cpu
        self.shm = mmap.mmap(-1, 16)
        self.last_rate = None
        parent = os.getpid()
        self.pid = os.fork()
        if self.pid == 0:
            try:
                self._spin(parent)
            finally:
                os._exit(0)

    def _spin(self, parent):
        os.sched_setaffinity(0, {self.cpu})
        os.nice(19)
        n, scratch, clock = 0, {}, time.process_time
        while os.getppid() == parent:
            for _ in range(50):
                for i in range(self.CHUNK):
                    scratch[i & 63] = (i, n)
                    n += 1
                struct.pack_into("dd", self.shm, 0, n, clock())

    def read(self):
        """(iterations, probe CPU seconds), read until two reads agree."""
        while True:
            a, b = self.shm[:16], self.shm[:16]
            if a == b:
                return struct.unpack("dd", a)

    def rate(self, since):
        """Iterations per probe CPU second since an earlier read(); the
        previous rate when the probe had under a millisecond in between."""
        (n0, t0), (n1, t1) = since, self.read()
        if t1 - t0 >= 1e-3 or self.last_rate is None and t1 > t0:
            self.last_rate = (n1 - n0) / (t1 - t0)
        return self.last_rate

    def stop(self):
        os.kill(self.pid, signal.SIGKILL)
        os.waitpid(self.pid, 0)


def _pin_and_tie(cpu):
    """In the op's child before exec: pin it to the probe's CPU and have the
    kernel kill it if this process dies without reaping it."""
    os.sched_setaffinity(0, {cpu})
    ctypes.CDLL(None, use_errno=True).prctl(PR_SET_PDEATHSIG, signal.SIGKILL)


def spawn(op, limit_s, probe):
    """Run one op in a fresh interpreter on the probe's CPU.

    Returns its wall seconds, its CPU seconds, its scaled seconds (CPU
    seconds times the probe's speed relative to PROBE_REF_RATE: the op's
    cost on the reference CPU, whatever the neighbours did meanwhile) and
    the child's result.
    """
    mark = probe.read()
    cpu0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    start = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, WORKER, json.dumps(op)], cwd=ROOT,
                              capture_output=True, text=True, timeout=limit_s,
                              preexec_fn=lambda: _pin_and_tie(probe.cpu))
        res = None
    except subprocess.TimeoutExpired:  # run() has killed and reaped the child
        res = {"outcome": "timeout"}
    wall = time.perf_counter() - start
    cpu1 = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = cpu1.ru_utime + cpu1.ru_stime - cpu0.ru_utime - cpu0.ru_stime
    times = {"wall_s": wall, "cpu_s": cpu, "scaled_s": cpu * probe.rate(mark) / PROBE_REF_RATE}
    if res is not None:
        return times, res
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-1:] or [""]
        return times, {"outcome": f"exit{proc.returncode}", "error": tail[0][:200]}
    return times, json.loads(lines[-1])


def run_pass(workload, ops, golden, probe, trace_dir=None):
    limit_s, cap_mb = LIMITS[workload]
    records = []
    for i, op in enumerate(ops):
        op = dict(op, cap_mb=cap_mb)
        if trace_dir:
            op["trace"] = os.path.join(trace_dir, f"op{i:03d}.json")
        times, res = spawn(op, limit_s, probe)
        rec = {"op": {k: v for k, v in op.items() if k not in ("cap_mb", "trace")},
               **times, **res}
        rec["agrees"] = agrees(op, res["outcome"], res.get("summary"), golden)
        records.append(rec)
    return records


def tail_percentile(values):
    """(value, percentile): the highest percentile with at least ten samples
    beyond it, or the maximum while that percentile would be below p90."""
    xs = sorted(values)
    if len(xs) < 110:
        return xs[-1], 100.0
    i = len(xs) - 11
    return xs[i], 100.0 * (i + 1) / len(xs)


def layer_metrics(records, layers):
    """Sum the children's raw layer numbers and derive the shares."""
    raw = {}
    for rec in records:
        for k, v in rec.get("layers", {}).items():
            raw[k] = raw.get(k, 0) + v
    raw["theories.cert_bounded_share"] = (
        raw.get("theories.certs_bounded", 0) / raw["theories.certs"]
        if raw.get("theories.certs") else 0.0)
    raw["lawsearch.forced_share"] = (
        raw.get("lawsearch.forced", 0) / raw["lawsearch.variables"]
        if raw.get("lawsearch.variables") else 0.0)
    return {m["name"]: {"value": raw.get(m["name"], 0), "unit": m["unit"]} for m in layers}


def commit_id():
    """HEAD of the checkout when it is a git work tree of its own, else None."""
    try:
        proc = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return None
    return lines[1]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "monadlab", "cli.py")):
        sys.exit(f"no monadlab source under {os.path.join(ROOT, 'src')}; "
                 "run from the root of a checkout")
    # SIGTERM unwinds like sys.exit, so the running op and the probe are
    # killed and reaped on the way out
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    probe = SpeedProbe(max(os.sched_getaffinity(0)))
    try:
        mark = probe.read()
        time.sleep(0.2)
        probe.rate(mark)  # a first rate, in case the first op leaves it no time
        measure(args, probe)
    finally:
        probe.stop()


def measure(args, probe):
    with open(os.path.join(HERE, "layers.json")) as fh:
        layers = json.load(fh)
    golden = _golden_cells()
    setup = []

    def sample_setup():
        for _ in range(SETUP_PER_ROUND):
            times, res = spawn({"kind": "setup", "cap_mb": 1024}, 60, probe)
            if res["outcome"] != "ok":
                sys.exit(f"setup failed: {res}")
            setup.append(times)

    ops = plan(args.workload, args.seed)
    passes = []
    start = time.perf_counter()
    if args.trace:
        sample_setup()
        passes.append(run_pass(args.workload, ops, golden, probe))
        trace_dir = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}")
        os.makedirs(trace_dir, exist_ok=True)
        passes.append(run_pass(args.workload, ops, golden, probe, trace_dir))
    else:
        while not passes or time.perf_counter() - start < args.seconds:
            sample_setup()
            passes.append(run_pass(args.workload, ops, golden, probe))
    sample_setup()
    records = [rec for recs in passes for rec in recs]
    attempted = len(records)
    broken = sum(1 for rec in records if rec["outcome"] != "ok")
    disagree = sum(1 for rec in records if not rec["agrees"])
    # each op's median scaled time over the rounds, in pass order
    per_op = [statistics.median(recs[i]["scaled_s"] for recs in passes)
              for i in range(len(ops))]
    tail, tail_pct = tail_percentile(per_op)
    peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024

    if args.trace:
        metrics = layer_metrics(passes[1], layers["per_layer"])
        metrics["trace.overhead_s"] = {
            "value": sum(r["scaled_s"] for r in passes[1]) - sum(r["scaled_s"] for r in passes[0]),
            "unit": "s"}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(t["scaled_s"] for t in setup), "unit": "s"},
            "wall_s": {"value": sum(per_op), "unit": "s"},
            "op_p50_s": {"value": statistics.median(per_op), "unit": "s"},
            "op_tail_s": {"value": tail, "unit": "s"},
            "ok_share": {"value": (attempted - broken) / attempted, "unit": "share"},
            "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
        }

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "commit": commit_id(), "nproc": os.cpu_count(),
        "python": platform.python_version(), "limits": LIMITS[args.workload],
        "probe_cpu": probe.cpu, "probe_ref_rate": PROBE_REF_RATE, "setup_samples": setup,
        "drawn": [rec["op"] for rec in passes[0]],
        "passes": [{"wall_s": sum(r["wall_s"] for r in recs),
                    "scaled_s": sum(r["scaled_s"] for r in recs), "ops": recs}
                   for recs in passes],
        "op_scaled_s": per_op, "op_samples": len(per_op), "op_tail_percentile": tail_pct,
        "failed_share": broken / attempted, "metrics": metrics,
    }
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w") as fh:
        json.dump(record, fh, indent=1, default=str)

    for rec in records:
        if rec["outcome"] != "ok" or not rec["agrees"]:
            note = "recorded defect" if rec["agrees"] else "disagrees with reference"
            print(f"FAILED {rec['op']}: {rec['outcome']} ({note}) {rec.get('error', '')}")
    print(f"{args.workload}: {len(passes)} round(s), {attempted} ops, "
          f"{broken} failed ({broken / attempted:.3f}), {disagree} disagree with reference; "
          f"op_p50_s over {len(per_op)} ops (median of {len(passes)} rounds each), "
          f"op_tail_s is p{tail_pct:.0f} of {len(per_op)}")
    print(json.dumps({"correct": disagree == 0, "attempted": attempted,
                      "failed": disagree, "metrics": metrics}))


if __name__ == "__main__":
    main()

"""The benchmark worker's entry points, one op of each kind on tiny
arguments: the worker calls monadlab's layer functions with positional
arguments, so a changed signature shows here and not only in a benchmark
run."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

WORKER = Path(__file__).resolve().parents[1] / "perfbench" / "worker.py"

OPS = {
    "setup": {"kind": "setup"},
    "table": {"kind": "table", "variant": "original", "depth": 2, "num_vars": 2},
    "verdict": {"kind": "verdict", "s": "L", "t": "L", "depth": 2, "num_vars": 2},
    "monad_laws": {"kind": "monad_laws", "monad": "list", "carrier": 1, "bound": 1},
    "beck": {"kind": "beck", "law": "mm-nel-1", "carrier": 1, "bound": 2},
    "free_model": {"kind": "free_model", "theory": "boom:UA--", "monad": "list",
                   "labels": ["a"], "bound": 1, "depth": 1},
    "plotkin": {"kind": "plotkin"},
    "search": {"kind": "search", "s": "lift", "t": "lift"},
}


def _work(op):
    res = subprocess.run([sys.executable, str(WORKER), json.dumps(dict(op, cap_mb=1024))],
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    return json.loads(res.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("kind", OPS)
def test_every_op_kind_runs(kind):
    out = _work(OPS[kind])
    assert out["outcome"] == "ok", out


def test_traced_op_counts_layers(tmp_path):
    trace = tmp_path / "spans.json"
    out = _work(dict(OPS["verdict"], trace=str(trace)))
    assert out["outcome"] == "ok", out
    layers = out["layers"]
    assert layers["nogo.verdict.calls"] == 1 and layers["nogo.status.no"] == 1
    assert layers["terms.decide_eq.calls"] > 0
    spans = json.loads(trace.read_text())["spans"]
    assert spans[0][0] == "nogo.verdict"

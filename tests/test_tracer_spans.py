"""Every perfbench span target must exist where the tracer wraps it.

perfbench/tracer.py is loaded by path (importing it does not import
bisq); each SPANS target must resolve the way ``tracer.install`` reads
it: a module attribute, or for "Class.method" an entry in the owning
class's own ``__dict__``, so a method that a class only inherits fails.
perfbench/run.py is loaded by path too, read-only, for its workloads:
each workload that BENCHMARK.json lists runs once under the tracer
itself, with its own flags on a tiny graph, and must enter every span
that perfbench requires of it, so a span the benchmark would miss, or a
probe that no longer fits what a span returns, fails here rather than
in a benchmark.
"""
import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "perfbench" / "tracer.py"


def _load(path, name):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module      # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


# run.py imports the tracer by its plain module name; both entries leave
# sys.modules again when the block ends
with mock.patch.dict(sys.modules):
    _TRACER = _load(TRACER, "tracer")
    WORKLOADS = _load(ROOT / "perfbench" / "run.py", "perfbench_run").WORKLOADS
SPANS = _TRACER.SPANS
LISTED = [w["name"] for w in
          json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.parametrize("name, module_name, path", SPANS,
                         ids=[name for name, _, _ in SPANS])
def test_span_target_resolves(name, module_name, path):
    owner = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    target = owner.__dict__.get(attr) if outer else getattr(owner, attr, None)
    assert callable(target), f"{name}: {module_name}.{path} is not defined"


# tiny graphs for the listed workloads: connectivity reaches both rounds
# and the supernode oracle, estimate the NS sketch
_TINY_GEN = {
    "estimate-gnp1024": "gnp:n=64,p=0.1,seed=1",
    "connectivity-cliques768": "components:k=3,size=6,inner=clique",
}


@pytest.mark.parametrize("workload", LISTED,
                         ids=lambda workload: workload.split("-")[0])
def test_traced_command_enters_its_spans(workload, tmp_path):
    cli = list(WORKLOADS[workload].args(0))
    cli[cli.index("--gen") + 1] = _TINY_GEN[workload]
    trace_path = tmp_path / "trace.json"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, str(TRACER), str(trace_path), "--", *cli,
         "--out", str(tmp_path / "report.jsonl")],
        capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    trace = json.loads(trace_path.read_text())
    spans = trace["spans"]
    assert set(spans) == {name for name, _, _ in SPANS}
    required = WORKLOADS[workload].spans
    assert required
    assert [name for name in required if not spans[name]["calls"]] == []
    assert {name: s["errors"] for name, s in spans.items()
            if s["errors"]} == {}
    if workload.startswith("connectivity"):
        # the recovery probes read result.size of SidesSubsampleBlock.evaluate
        # and NeighborRecovery.decode_pool: both results are pools, and the
        # tiny cliques recover neighbors
        counters = trace["counters"]
        assert counters["sides.queries"] > 0
        assert counters["ser_pool_entries"] > 0

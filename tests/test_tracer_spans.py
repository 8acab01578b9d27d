"""Every perfbench span target must exist where the tracer wraps it.

perfbench/tracer.py is loaded by path (importing it does not import
bisq); each SPANS target must resolve the way ``tracer.install`` reads
it: a module attribute, or for "Class.method" an entry in the owning
class's own ``__dict__``, so a method that a class only inherits fails.
Two tiny commands then run under the tracer itself, so a probe that no
longer fits what a span returns fails here rather than in a benchmark.
"""
import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SPANS = _load_tracer().SPANS


@pytest.mark.parametrize("name, module_name, path", SPANS,
                         ids=[name for name, _, _ in SPANS])
def test_span_target_resolves(name, module_name, path):
    owner = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    target = owner.__dict__.get(attr) if outer else getattr(owner, attr, None)
    assert callable(target), f"{name}: {module_name}.{path} is not defined"


# tiny commands: connectivity reaches both rounds, estimate the NS sketch;
# each lists the spans it must enter, by name or by a "module." prefix
_TRACED = {
    "connectivity": (["connectivity", "--gen",
                      "components:k=3,size=6,inner=clique", "--seed", "1",
                      "--cT", "8", "--c2", "1", "--clambda", "16",
                      "--pool-scale", "4", "--cnb", "2", "--with-truth"],
                     ("connectivity.", "edge_sampler.")),
    # estimate enters every span perfbench requires of estimate-gnp1024
    "estimate": (["estimate", "--gen", "gnp:n=64,p=0.1,seed=1", "--seed",
                  "1", "--cT", "8", "--c2", "4", "--clambda", "4",
                  "--with-truth"],
                 ("cli.main", "cli.cmd_estimate", "cli.parse_gen_spec",
                  "cli._dump", "cli._emit", "graph.gen_gnp",
                  "graph.Graph.__init__", "edge_estimator.",
                  "degree_est.estimate_degrees", "nbr_size.",
                  "bitset.nested_rate_masks", "oracle.BisOracle.submit",
                  "oracle.QueryPlan.validate", "oracle.DenseBlock.evaluate",
                  "oracle.SharedSubsampleBlock.")),
}


@pytest.mark.parametrize("command", sorted(_TRACED))
def test_traced_command_enters_its_spans(command, tmp_path):
    cli, keys = _TRACED[command]
    trace_path = tmp_path / "trace.json"
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, str(TRACER), str(trace_path), "--", *cli,
         "--out", str(tmp_path / "report.jsonl")],
        capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    spans = json.loads(trace_path.read_text())["spans"]
    assert set(spans) == {name for name, _, _ in SPANS}
    expected = [name for name in spans
                if any(name == key or key.endswith(".")
                       and name.startswith(key) for key in keys)]
    assert expected
    for name in expected:
        assert spans[name]["calls"] > 0, name
    assert {name: s["errors"] for name, s in spans.items()
            if s["errors"]} == {}

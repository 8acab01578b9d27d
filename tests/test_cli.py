import hashlib
import json
import subprocess
import sys

import pytest

from bisq.cli import main, parse_gen_spec


def run_cli(args):
    from io import StringIO
    import contextlib
    buf = StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(args)
    return code, buf.getvalue()


def test_generate_star(tmp_path):
    out = tmp_path / "star.txt"
    code, _ = run_cli(["generate", "star", "--n", "5", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "# n=5"
    assert len(lines) == 5   # header + 4 edges


def test_generate_gnp_header(tmp_path):
    out = tmp_path / "g.txt"
    code, _ = run_cli(["generate", "gnp", "--n", "64", "--p", "0.05",
                       "--seed", "7", "--out", str(out)])
    assert code == 0
    assert out.read_text().startswith("# n=64")


def test_generate_components(tmp_path):
    out = tmp_path / "c.txt"
    code, _ = run_cli(["generate", "components", "--k", "3", "--size", "4",
                       "--out", str(out)])
    assert code == 0
    from bisq import load_edge_list, exact_connected
    g = load_edge_list(out.read_text())
    ok, comps = exact_connected(g)
    assert not ok and len(comps) == 3


def test_generate_matches_gen_spec(tmp_path):
    # --p 0 is a probability like any other, not a missing value
    from bisq import load_edge_list
    for p in ("0", "0.4"):
        out = tmp_path / f"c{p}.txt"
        code, _ = run_cli(["generate", "components", "--k", "2", "--size",
                           "6", "--inner", "gnp", "--p", p, "--seed", "3",
                           "--out", str(out)])
        assert code == 0
        g = load_edge_list(out.read_text())
        spec = parse_gen_spec(f"components:k=2,size=6,inner=gnp,p={p},seed=3")
        assert g.n == spec.n == 12
        assert sorted(g.edges()) == sorted(spec.edges())
        assert (g.m == 0) == (p == "0")


def test_gen_spec_parsing():
    g = parse_gen_spec("components:k=2,sizes=4+6,inner=path")
    assert g.n == 10
    g2 = parse_gen_spec("gnp:n=32,p=0.1,seed=3")
    assert g2.n == 32


def test_estimate_empty_graph(tmp_path):
    graph = tmp_path / "empty.txt"
    graph.write_text("# n=64\n")
    out = tmp_path / "rep.jsonl"
    code, _ = run_cli(["estimate", "--graph", str(graph), "--epsilon", "0.25",
                       "--seed", "1", "--trials", "1", "--with-truth",
                       "--cT", "4", "--out", str(out)])
    assert code == 0
    lines = [json.loads(l) for l in out.read_text().splitlines()]
    assert lines[0]["m_hat"] == 0.0
    assert lines[0]["m_true"] == 0
    assert lines[0]["rounds"] == 1
    assert "refine_trace" in lines[0]
    summary = lines[-1]
    assert summary["command"] == "estimate"


def test_reports_byte_identical_across_runs(tmp_path):
    graph = tmp_path / "g.txt"
    run_cli(["generate", "gnp", "--n", "48", "--p", "0.05", "--seed", "2",
             "--out", str(graph)])
    outs = []
    for name in ("a", "b"):
        out = tmp_path / f"{name}.jsonl"
        code, _ = run_cli(["estimate", "--graph", str(graph), "--epsilon",
                           "0.3", "--seed", "5", "--trials", "2",
                           "--cT", "4", "--c2", "4", "--out", str(out)])
        assert code == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


# SHA-256 of small reports of every command: report bytes are part of
# the CLI contract, so a digest changes only with a declared report change
_PINNED_REPORTS = {
    "estimate": (["estimate", "--gen", "gnp:n=48,p=0.06,seed=1", "--seed",
                  "9", "--cT", "4", "--c2", "4", "--with-truth"],
                 "70e7a5c8d758cb8fba876aedc20f8c27"
                 "c39274bbd7e3190a87b7d10a12e51252"),
    "sample": (["sample", "--gen", "gnp:n=32,p=0.1,seed=3", "--count", "20",
                "--seed", "4", "--cT", "4", "--c2", "1", "--pool-scale", "2",
                "--with-truth"],
               "2e49b3a6e79e8021675bd708c1f9630d"
               "e80471cd960e57ddc73adc2f44fa4a9a"),
    "connectivity": (["connectivity", "--gen",
                      "components:k=2,size=12,inner=clique", "--seed", "6",
                      "--cT", "4", "--cnb", "2", "--cR", "2", "--with-truth"],
                     "1b4bdcd7c2685b16c659c7e3c92b3185"
                     "b65ddffbab427c074b14feb80d1581bf"),
    "csv": (["estimate", "--gen", "star:n=16", "--seed", "2", "--cT", "4",
             "--csv", "--with-truth"],
            "2fd06c871c14250150743ade65517f63"
            "0f1f46e984fb172ac0c1389713c84c90"),
    "trials": (["sample", "--gen", "gnp:n=24,p=0.2,seed=5", "--count", "10",
                "--seed", "3", "--trials", "2", "--cT", "4", "--c2", "1",
                "--pool-scale", "2", "--with-truth"],
               "a1ca7056761cf759b1448307789ec819"
               "cf96cbf9c0dc591f896cf2124704cb78"),
    "audit": (["audit"],
              "0ef31f21e76d7dd788a56200aee937f1"
              "392625ab315a5e311a73b2adc679e1ef"),
    "generate-gnp": (["generate", "gnp", "--n", "64", "--p", "0.05",
                      "--seed", "7"],
                     "06c99dcccfc0997a122e5cf917ce8564"
                     "8c0bf9222a452b42e1b3e24f32910ad7"),
    "generate-components": (["generate", "components", "--k", "3", "--size",
                             "5", "--inner", "cycle"],
                            "bc4971972d3310e9c205592cb44a1828"
                            "5a54c5f7f563f14dfa4e361461a63d23"),
}


@pytest.mark.parametrize("name", sorted(_PINNED_REPORTS))
def test_reports_are_pinned(name, tmp_path):
    args, digest = _PINNED_REPORTS[name]
    out = tmp_path / "report"
    code, _ = run_cli(args + ["--out", str(out)])
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_sample_command_summary(tmp_path):
    graph = tmp_path / "g.txt"
    run_cli(["generate", "gnp", "--n", "64", "--p", "0.05", "--seed", "3",
             "--out", str(graph)])
    out = tmp_path / "s.jsonl"
    code, _ = run_cli(["sample", "--graph", str(graph), "--count", "50",
                       "--seed", "4", "--with-truth", "--cT", "4",
                       "--c2", "1", "--pool-scale", "2", "--out", str(out)])
    assert code == 0
    lines = [json.loads(l) for l in out.read_text().splitlines()]
    total = lines[-1]
    assert total["command"] == "sample"
    assert total.get("non_edges", 0) == 0
    sample_lines = [l for l in lines if "sample_index" in l]
    assert len(sample_lines) == 50


def test_connectivity_command(tmp_path):
    graph = tmp_path / "c.txt"
    run_cli(["generate", "components", "--k", "2", "--size", "12",
             "--inner", "clique", "--out", str(graph)])
    out = tmp_path / "v.jsonl"
    code, _ = run_cli(["connectivity", "--graph", str(graph), "--seed", "6",
                       "--with-truth", "--cT", "4", "--cnb", "2",
                       "--cR", "2", "--out", str(out)])
    assert code == 0
    lines = [json.loads(l) for l in out.read_text().splitlines()]
    rec = lines[0]
    assert rec["verdict"] == "disconnected"
    assert rec["truth"] == "disconnected"
    assert rec["rounds"] <= 2
    assert "p_supernodes" in rec


def test_audit_command(tmp_path):
    out = tmp_path / "a.jsonl"
    code, _ = run_cli(["audit", "--epsilon", "0.25", "--delta", "0.1",
                       "--n-grid", "256,1024,4096", "--out", str(out)])
    assert code == 0
    lines = [json.loads(l) for l in out.read_text().splitlines()]
    kinds = {l.get("audit") for l in lines}
    assert kinds == {"ns", "estimator", "ser", "summary"}
    summary = lines[-1]
    assert summary["estimator_ratio_band"] <= 4.0


def test_csv_flattener(tmp_path):
    graph = tmp_path / "g.txt"
    run_cli(["generate", "star", "--n", "16", "--out", str(graph)])
    out = tmp_path / "r.jsonl"
    code, _ = run_cli(["estimate", "--graph", str(graph), "--seed", "2",
                       "--cT", "4", "--csv", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    # last two lines: csv header + row
    assert "," in lines[-1] and "," in lines[-2]


def test_bad_arguments_exit_nonzero():
    code, _ = run_cli(["estimate", "--gen", "gnp:n=16,p=0.1",
                       "--epsilon", "0.9"])
    assert code == 2
    code2, _ = run_cli(["estimate"])   # no graph source
    assert code2 == 2


def test_bad_inputs_exit_cleanly(tmp_path, capsys):
    # bad graph inputs give one "bisq: ..." line and exit 2, no traceback
    bad = tmp_path / "bad.txt"
    bad.write_text("0 1\nx y\n")
    cases = [["--gen", "gnp:p=0.1"], ["--gen", "gnp:n=16,q=3"],
             ["--gen", "star:n=5,seed=1,colour=red"], ["--graph", str(bad)]]
    for source in cases:
        code, _ = run_cli(["estimate"] + source)
        assert code == 2, source
        err = capsys.readouterr().err
        assert err.startswith("bisq: ") and err.count("\n") == 1, err
    with pytest.raises(ValueError, match="missing n"):
        parse_gen_spec("gnp:p=0.1")


@pytest.mark.parametrize("flag", [["--c1", "1"], ["--delta", "0.1"],
                                  ["--profile", "paper"],
                                  ["--profile", "fast"]])
def test_removed_flags_are_usage_errors(flag, capsys):
    # c1 was read by nothing, only audit reads --delta, and every run
    # plans at the fast profile (the paper one is audited, not run)
    for command in ("estimate", "sample", "connectivity"):
        with pytest.raises(SystemExit) as exc:
            main([command, "--gen", "gnp:n=16,p=0.1"] + flag)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: bisq ")
        assert err.splitlines()[-1] == (
            "bisq: error: unrecognized arguments: " + " ".join(flag))


@pytest.mark.parametrize("flag", [
    ["--profile", "fast"], ["--csv"], ["--seed", "7"], ["--trials", "3"],
    ["--gen", "star:n=4"], ["--graph", "g.txt"], ["--with-truth"]])
def test_audit_refuses_flags_it_does_not_read(flag, capsys):
    # the audit plans from epsilon, delta, the constants and the grid
    # alone, so a run flag would be silently ignored
    with pytest.raises(SystemExit) as exc:
        main(["audit", "--n-grid", "256"] + flag)
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1] == (
        "bisq: error: unrecognized arguments: " + " ".join(flag))


def test_audit_delta_is_read_and_checked(capsys):
    grid = ["--n-grid", "256"]
    _, loose = run_cli(["audit", "--delta", "0.2"] + grid)
    _, tight = run_cli(["audit", "--delta", "0.01"] + grid)
    assert loose != tight
    code, _ = run_cli(["audit", "--delta", "0.7"] + grid)
    assert code == 2
    assert capsys.readouterr().err == "bisq: --delta must lie in (0, 0.5]\n"


def test_nonpositive_constants_are_refused(capsys):
    for flag in (["--clambda", "0"], ["--pool-scale", "-3"],
                 ["--pool-scale", "0"]):
        code, _ = run_cli(["estimate", "--gen", "gnp:n=16,p=0.1"] + flag)
        assert code == 2, flag
        err = capsys.readouterr().err
        assert err.startswith("bisq: constant ") and "positive" in err, err


_CONSTANT_FLAGS = ["--c2", "--cT", "--clambda", "--cR", "--cnb", "--cse",
                   "--pool-scale"]


@pytest.mark.parametrize("command, flag, value", [
    *[("estimate", flag, value) for flag in _CONSTANT_FLAGS
      for value in ("inf", "nan")],
    ("estimate", "--cT", "-inf"),
    ("connectivity", "--cnb", "inf"), ("connectivity", "--c2", "nan"),
    ("audit", "--cR", "inf")])
def test_nonfinite_constants_are_refused(command, flag, value, capsys):
    # inf used to end in an OverflowError traceback, and nan ran to a
    # report; both are refused before any work
    source = (["--n-grid", "256"] if command == "audit"
              else ["--gen", "gnp:n=16,p=0.1"])
    code, out = run_cli([command, *source, f"{flag}={value}"])
    assert code == 2 and out == ""
    err = capsys.readouterr().err
    assert err.startswith("bisq: constant ") and \
        "finite and positive" in err and err.count("\n") == 1, err


def test_generate_gnp_without_n_exits_cleanly(capsys):
    code, out = run_cli(["generate", "gnp", "--p", "0.1"])
    assert code == 2 and out == ""
    assert capsys.readouterr().err == "bisq: generate gnp: missing --n\n"


def test_out_of_memory_exits_cleanly(monkeypatch, capsys):
    # numpy raises a MemoryError subclass when an array cannot be allocated
    def refuse(*args, **kwargs):
        raise MemoryError("Unable to allocate 298. GiB for an array")

    monkeypatch.setattr("bisq.cli.gen_gnp", refuse)
    for args in (["estimate", "--gen", "gnp:n=200000,p=0.1"],
                 ["generate", "gnp", "--n", "200000"]):
        code, _ = run_cli(args)
        assert code == 2, args
        err = capsys.readouterr().err
        assert err.startswith("bisq: Unable to allocate") and \
            err.count("\n") == 1, err


@pytest.mark.parametrize("args", [
    ["audit", "--n-grid", "1"], ["audit", "--n-grid", "2"],
    ["audit", "--n-grid", "0"], ["audit", "--n-grid=-4"],
    ["audit", "--n-grid", "256,2"]])
def test_paper_profile_below_three_vertices_exits_cleanly(args, capsys):
    # the paper profile's epsilon scale divides by log log2 n, 0 at n <= 2
    code, out = run_cli(args)
    assert code == 2 and out == ""
    err = capsys.readouterr().err
    assert err.startswith("bisq: the paper profile needs n >= 3") and \
        err.count("\n") == 1, err


def test_audit_accepts_three_vertices():
    code, out = run_cli(["audit", "--n-grid", "3"])
    assert code == 0 and '"audit":"estimator","n":3' in out


def test_negative_gnp_size_exits_cleanly(capsys):
    for args in (["connectivity", "--gen", "gnp:n=-3"],
                 ["generate", "gnp", "--n", "-3"]):
        code, out = run_cli(args)
        assert code == 2 and out == "", args
        assert capsys.readouterr().err == "bisq: n must be >= 0\n", args


def test_negative_header_exits_cleanly(tmp_path, capsys):
    graph = tmp_path / "neg.txt"
    graph.write_text("# n=-5\n")
    code, out = run_cli(["connectivity", "--graph", str(graph)])
    assert code == 2 and out == ""
    assert capsys.readouterr().err == "bisq: line 1: bad header '# n=-5'\n"


def test_console_entry_point():
    proc = subprocess.run([sys.executable, "-m", "bisq.cli", "generate",
                           "path", "--n", "4"], capture_output=True,
                          text=True)
    assert proc.returncode == 0
    assert "0 1" in proc.stdout


def test_worker_pool_matches_serial(tmp_path, monkeypatch):
    graph = tmp_path / "g.txt"
    run_cli(["generate", "gnp", "--n", "48", "--p", "0.06", "--seed", "1",
             "--out", str(graph)])
    args = ["estimate", "--graph", str(graph), "--seed", "9", "--trials",
            "3", "--cT", "4", "--c2", "4"]
    out_a = tmp_path / "serial.jsonl"
    code, _ = run_cli(args + ["--out", str(out_a)])
    assert code == 0
    monkeypatch.setenv("BISQ_THREADS", "2")
    out_b = tmp_path / "pool.jsonl"
    code, _ = run_cli(args + ["--out", str(out_b)])
    assert code == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def test_cli_import_leaves_out_the_worker_pool():
    # only a multi-trial run with BISQ_THREADS > 1 imports the process
    # pool (test_worker_pool_matches_serial runs that path)
    code = ("import sys, bisq.cli; print([m for m in ('multiprocessing', "
            "'concurrent.futures.process') if m in sys.modules])")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def _statuses(report):
    return [rec["status"] for rec in map(json.loads, report.splitlines())
            if "status" in rec]


def test_sample_reports_no_edges_only_on_edgeless_graphs():
    # on path:n=2 the coarse bootstrap sees no edge (m0 = 2) at 7 of these
    # seeds, but the degree tables hold a positive estimate, so a draw
    # with nothing to draw from is a failure there; an edgeless graph
    # still reports no_edges
    for seed in range(13):
        code, out = run_cli(["sample", "--gen", "path:n=2", "--seed",
                             str(seed)])
        assert code == 0
        statuses = _statuses(out)
        assert len(statuses) == 1 and statuses != ["no_edges"]
    code, out = run_cli(["sample", "--gen", "gnp:n=32,p=0,seed=1",
                         "--seed", "3"])
    assert code == 0
    assert _statuses(out) == ["no_edges"]


@pytest.mark.parametrize("argv", [
    ["estimate", "--gen", "gnp:n=128,p=0.05,seed=1", "--epsilon", "0.5",
     "--seed", "1", "--cT", "2", "--c2", "4", "--clambda", "1",
     "--with-truth"],
    ["sample", "--gen", "gnp:n=64,p=0.05,seed=1", "--count", "50",
     "--seed", "1", "--with-truth"],
    ["connectivity", "--gen", "components:k=3,size=10,inner=clique",
     "--seed", "1", "--with-truth"]], ids=lambda argv: argv[0])
def test_estimate_leaves_out_numpy_ma(argv):
    # plain np.unique imports numpy.ma (about 0.6 MiB and 8-13 ms); no
    # call on the path of a command may reach it
    code = ("import io, sys, contextlib, bisq.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    bisq.cli.main({argv!r})\n"
            "print('numpy.ma' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"

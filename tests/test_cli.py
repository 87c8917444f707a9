import csv
import hashlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import tncg
from tncg.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_gen_hypercube(tmp_path, capsys):
    host = tmp_path / "cube.tg"
    prof = tmp_path / "cube.tsp"
    code, out, _ = run(capsys, "gen", "hypercube", "--dim", "3",
                       "-o", str(host), "--profile", str(prof))
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] == 8
    assert payload["arcs"] == 12
    assert host.exists() and prof.exists()


def test_gen_t2family_and_check_stable(tmp_path, capsys):
    host = tmp_path / "t2.tg"
    prof = tmp_path / "t2.tsp"
    code, _, _ = run(capsys, "gen", "t2family", "--n", "7",
                     "-o", str(host), "--profile", str(prof))
    assert code == 0
    for mode in ("ne", "ge"):
        code, out, _ = run(capsys, "check", "--host", str(host),
                           "--profile", str(prof), "--mode", mode)
        assert code == 0
        assert json.loads(out)["stable"] is True


def test_gen_brcycle_schedule_and_dynamics(tmp_path, capsys):
    host = tmp_path / "cyc.tg"
    prof = tmp_path / "cyc.tsp"
    sched = tmp_path / "cyc.sched"
    trace = tmp_path / "trace.json"
    code, _, _ = run(capsys, "gen", "brcycle", "-o", str(host),
                     "--profile", str(prof), "--schedule-out", str(sched))
    assert code == 0
    assert sched.read_text().split() == ["0", "2", "4", "0", "2", "4"]
    # loop the schedule so the revisit actually happens
    sched.write_text(sched.read_text() * 4)
    code, out, _ = run(capsys, "dynamics", "--host", str(host),
                       "--profile", str(prof), "--rule", "exact",
                       "--schedule", f"file:{sched}", "-o", str(trace))
    assert code == 0
    payload = json.loads(out)
    assert payload["outcome"] == "cycle-detected"
    assert payload["period"] == 6
    data = json.loads(trace.read_text())
    assert len(data["moves"]) == 6
    sched.write_text("0 1 x\n")
    code, out, err = run(capsys, "dynamics", "--host", str(host),
                         "--schedule", f"file:{sched}")
    assert code == 2 and out == ""
    assert one_error_line(err) == f"error: schedule file {sched}: agent 'x' is not an integer"
    sched.write_text("")
    code, out, err = run(capsys, "dynamics", "--host", str(host),
                         "--schedule", f"file:{sched}")
    assert code == 2 and out == ""
    assert one_error_line(err) == "error: schedule is empty"


def test_gen_random_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.tg", tmp_path / "b.tg"
    run(capsys, "gen", "random", "--n", "6", "--t", "3", "--seed", "5", "-o", str(a))
    run(capsys, "gen", "random", "--n", "6", "--t", "3", "--seed", "5", "-o", str(b))
    assert a.read_text() == b.read_text()


def test_reduce_ne_alias_and_unstable_check(tmp_path, capsys):
    sc = tmp_path / "inst.sc"
    # set 3 alone covers, so the supplied 2-set cover is not minimum
    sc.write_text("2 3\n1\n2\n1 2\ncover: 1 2\n")
    host = tmp_path / "red.tg"
    prof = tmp_path / "red.tsp"
    code, out, _ = run(capsys, "reduce-ne", "--setcover", str(sc),
                       "-o", str(host), "--profile", str(prof))
    assert code == 0
    assert "layout" in json.loads(out)
    code, out, _ = run(capsys, "check", "--host", str(host),
                       "--profile", str(prof), "--mode", "ne")
    assert code == 1
    payload = json.loads(out)
    assert payload["stable"] is False
    assert payload["witness"]["agent"] == 0  # agent x improves via the true cover


def test_reduce_br_alias(tmp_path, capsys):
    sc = tmp_path / "inst.sc"
    sc.write_text("3 2\n1 2\n2 3\n")
    host = tmp_path / "red.tg"
    prof = tmp_path / "red.tsp"
    code, out, _ = run(capsys, "reduce-br", "--setcover", str(sc),
                       "-o", str(host), "--profile", str(prof))
    assert code == 0
    layout = json.loads(out)["layout"]
    assert layout["x"] == 0
    code, out, _ = run(capsys, "br", "--host", str(host),
                       "--profile", str(prof), "--agent", "0", "--exact")
    assert code == 0
    # smallest cover has both sets, so the best response buys two arcs
    assert len(json.loads(out)["strategy"]) == 2


@pytest.mark.parametrize("reduction", ["reduce-br", "reduce-ne"])
def test_both_spellings_of_a_reduction_agree(tmp_path, capsys, reduction):
    sc = tmp_path / "inst.sc"
    sc.write_text("2 3\n1\n2\n1 2\ncover: 1 2\n")
    host = tmp_path / "red.tg"
    prof = tmp_path / "red.tsp"
    outcomes = []
    for spelling in ([reduction], ["gen", reduction]):
        result = run(capsys, *spelling, "--setcover", str(sc), "-o", str(host), "--profile", str(prof))
        outcomes.append((*result, host.read_bytes(), prof.read_bytes()))
        host.unlink()
        prof.unlink()
    assert outcomes[0][0] == 0
    assert outcomes[0] == outcomes[1]


def test_br_greedy_default(tmp_path, capsys):
    host = tmp_path / "h.tg"
    prof = tmp_path / "p.tsp"
    run(capsys, "gen", "hypercube", "--dim", "3", "-o", str(host), "--profile", str(prof))
    code, out, _ = run(capsys, "br", "--host", str(host),
                       "--profile", str(prof), "--agent", "0")
    assert code == 0
    payload = json.loads(out)
    assert payload["rule"] == "greedy"
    assert payload["improving"] is False
    assert payload["cost"]["numeric"] == payload["cost_before"]["numeric"]


def one_error_line(err):
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), err
    return lines[0]


@pytest.mark.parametrize("argv", [
    ["br", "--agent", "-1"],
    ["br", "--agent", "8"],
    ["dynamics", "--max-steps", "0"],
    ["dynamics", "--max-steps", "-5"],
    ["gen", "random", "--n", "0", "--t", "1"],
    ["gen", "random", "--n", "1", "--t", "1"],
])
def test_out_of_range_arguments_are_exit_2(tmp_path, capsys, argv):
    host = tmp_path / "h.tg"
    prof = tmp_path / "p.tsp"
    if argv[0] == "gen":
        files = ["-o", str(host)]
    else:
        run(capsys, "gen", "hypercube", "--dim", "3", "-o", str(host), "--profile", str(prof))
        files = ["--host", str(host), "--profile", str(prof)]
    code, out, err = run(capsys, *argv, *files)
    assert code == 2 and out == ""
    line = one_error_line(err)
    assert {"br": "out of range", "dynamics": "max_steps", "gen": "need n >= 2"}[argv[0]] in line
    assert argv[0] != "gen" or list(tmp_path.iterdir()) == []


def test_spanner_modes(tmp_path, capsys):
    host = tmp_path / "h.tg"
    out_tg = tmp_path / "span.tg"
    run(capsys, "gen", "hypercube", "--dim", "3", "-o", str(host))
    code, out, _ = run(capsys, "spanner", "--host", str(host), "--exact", "-o", str(out_tg))
    assert code == 0
    assert json.loads(out)["size"] == 7
    assert out_tg.exists()
    code, out, _ = run(capsys, "spanner", "--host", str(host))
    assert code == 0
    assert json.loads(out)["mode"] == "minimal"


def test_poa_stable_and_unstable(tmp_path, capsys):
    host = tmp_path / "h.tg"
    prof = tmp_path / "p.tsp"
    run(capsys, "gen", "hypercube", "--dim", "3", "-o", str(host), "--profile", str(prof))
    for mode in ("ne", "ge"):
        code, out, _ = run(capsys, "poa", "--host", str(host), "--profile", str(prof),
                           "--mode", mode)
        assert code == 0
        payload = json.loads(out)
        assert payload["poa"] == {"num": 12, "den": 7}
        assert payload["optimum"] == 7 and payload["poa_status"] == "exact"
    # empty profile is wildly unstable
    empty = tmp_path / "empty.tsp"
    empty.write_text("")
    code, out, _ = run(capsys, "poa", "--host", str(host), "--profile", str(empty))
    assert code == 1
    assert json.loads(out)["stable"] is False


def test_budgeted_spanner_search_names_its_bracket(tmp_path, capsys):
    # no label class spans and the minimal spanner's 5 edges exceed the root
    # bound of 4, so the search branches and a zero budget gives up on [4, 5]
    host = tmp_path / "h.tg"
    prof = tmp_path / "p.tsp"
    host.write_text("4 3\n0 1 1\n0 2 3\n0 3 3\n1 2 1\n1 3 2\n2 3 3\n")
    code, out, _ = run(capsys, "spanner", "--host", str(host), "--exact")
    assert code == 0 and json.loads(out)["size"] == 5
    code, out, err = run(capsys, "spanner", "--host", str(host), "--exact", "--budget", "0")
    assert code == 2 and out == ""
    assert one_error_line(err).endswith("optimum in [4, 5]")
    trace = tncg.run_dynamics(tncg.load_host(host), tncg.empty_profile(4))
    assert trace.outcome == "converged-GE"
    tncg.save_profile(tncg.final_profile(trace), prof)
    code, out, err = run(capsys, "poa", "--host", str(host), "--profile", str(prof),
                         "--mode", "ge", "--budget", "0")
    assert code == 0 and err == ""
    got = json.loads(out)
    assert (got["poa_status"], got["opt_lower"], got["opt_upper"]) == ("bounded", 4, 5)
    assert got["optimum"] is None and got["poa"] is None
    code, out, _ = run(capsys, "poa", "--host", str(host), "--profile", str(prof), "--mode", "ge")
    got = json.loads(out)
    assert code == 0 and (got["poa_status"], got["opt_lower"], got["optimum"], got["opt_upper"]) == (
        "exact", 5, 5, 5)
    assert Fraction(got["poa"]["num"], got["poa"]["den"]) == Fraction(got["edges"], 5)


def test_deep_spanner_search_is_exit_2(tmp_path, capsys):
    # 1,035 edges and no spanning class: the search nests deeper than the
    # default recursion limit and must still end on its bracket
    host = tmp_path / "h.tg"
    run(capsys, "gen", "random", "--n", "46", "--t", "1035", "--seed", "0", "-o", str(host))
    code, out, err = run(capsys, "spanner", "--host", str(host), "--exact", "--budget", "5000")
    assert code == 2 and out == ""
    assert one_error_line(err).endswith("optimum in [49, 102]")


def test_poa_on_one_node_host_is_exit_2(tmp_path, capsys):
    host = tmp_path / "one.tg"
    prof = tmp_path / "one.tsp"
    host.write_text("1 0\n")
    prof.write_text("")
    code, out, err = run(capsys, "poa", "--host", str(host), "--profile", str(prof))
    assert code == 2 and out == ""
    assert "undefined" in one_error_line(err)


def test_experiment_subcommand(tmp_path, capsys):
    code, out, _ = run(capsys, "experiment", "--scenario", "hypercube-poa",
                       "--set", "dims=[3]", "--out-dir", str(tmp_path))
    assert code == 0
    payload = json.loads(out)
    assert payload["summary"]["pass"] is True
    assert (tmp_path / "hypercube-poa.report.json").exists()
    assert (tmp_path / "hypercube-poa.instances.csv").exists()
    code, out, _ = run(capsys, "experiment", "--scenario", "br-cycle",
                       "--set", "seed=3", "--out-dir", str(tmp_path))
    assert code == 0
    report = json.loads((tmp_path / "br-cycle.report.json").read_text())
    assert report["seed"] == 3


@pytest.mark.parametrize(
    "scenario, settings, key",
    [
        ("random-ge-sweep", ["instances=0"], "instances"),
        ("random-ge-sweep", ["instances=-1"], "instances"),
        ("random-ge-sweep", ["instances=abc"], "instances"),
        ("random-ge-sweep", ["instances=true"], "instances"),
        ("random-ge-sweep", ["instances=2.5"], "instances"),
        ("random-ge-sweep", ["n_min=13"], "n_min"),
        ("reduction-audit", ["k_min=9"], "k_min"),
        ("hypercube-poa", ["dims=[]"], "dims"),
        ("hypercube-poa", ["dims=3"], "dims"),
        ("hypercube-poa", ['dims=[3, "4"]'], "dims"),
        ("t2-tightness", ["n_values=[]"], "n_values"),
        ("large-node-audit", ["instances=0", "below_arcs=[]"], "below_arcs"),
        ("br-cycle", ["seed=true"], "seed"),
        ("br-cycle", ["seed=abc"], "seed"),
        ("br-cycle", ["seed=1.5"], "seed"),
        ("br-cycle", ["seed=-1"], "seed"),
        ("random-ge-sweep", ["n_min=1", "n_max=1", "instances=2"], "t_max"),
        ("random-ge-sweep", ["n_min=3", "n_max=3", "t_min=0", "t_max=0"], "t_min"),
        ("random-ge-sweep", ["n_min=2", "n_max=2"], "t_max"),
        ("freeze-relabel-audit", ["n_min=2", "n_max=2"], "t_max"),
        ("hypercube-poa", ["dims=[1]"], "dims"),
        ("hypercube-poa", ["dims=[3, 2]"], "dims"),
        ("t2-tightness", ["n_values=[1]"], "n_values"),
        ("t2-existence-sweep", ["n_min=2", "n_max=2"], "n_min"),
        ("t2-existence-sweep", ["exhaustive_n=0"], "exhaustive_n"),
        ("large-node-audit", ["t=0"], "'t'"),
        ("large-node-audit", ["arcs=5000"], "arcs"),
        ("large-node-audit", ["below_arcs=[500, 1261]"], "below_arcs"),
        ("reduction-audit", ["k_min=1", "k_max=1"], "k_max"),
        ("reduction-audit", ["m_min=1", "m_max=1"], "m_max"),
        ("large-node-audit", ["arcs=500", "instances=2"], "arcs"),
        ("large-node-audit", ["below_arcs=[600]", "instances=1"], "below_arcs"),
        ("t2-existence-sweep", ["exhaustive_n=7"], "exhaustive_n"),
        ("hypercube-poa", ["dims=[3, 9]"], "dims"),
        ("freeze-relabel-audit", ["retries=0"], "retries"),
    ],
)
def test_experiment_rejects_bad_config(tmp_path, capsys, scenario, settings, key):
    argv = ["experiment", "--scenario", scenario, "--out-dir", str(tmp_path)]
    for setting in settings:
        argv += ["--set", setting]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert key in err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [
    ["check", "--profile", "P", "--threads", "7"],
    ["check", "--profile", "P", "--out-dir", "/nonexistent"],
    ["check", "--profile", "P", "--seed", "4"],
    ["br", "--profile", "P", "--agent", "0", "--greedy"],
    ["spanner", "--minimal"],
    ["spanner", "--profile", "P"],
    ["validate", "P", "--budget", "5"],
])
def test_flags_only_where_read(tmp_path, capsys, argv):
    host = tmp_path / "h.tg"
    prof = tmp_path / "p.tsp"
    run(capsys, "gen", "hypercube", "--dim", "3", "-o", str(host), "--profile", str(prof))
    with pytest.raises(SystemExit) as exc:
        main([str(prof) if a == "P" else a for a in argv] + ["--host", str(host)])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("threads", ["0", "-4"])
def test_experiment_rejects_threads_below_one(tmp_path, capsys, threads):
    code, out, err = run(capsys, "experiment", "--scenario", "hypercube-poa",
                         "--threads", threads, "--out-dir", str(tmp_path))
    assert code == 2 and out == ""
    assert "threads" in one_error_line(err)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("content", ['[["scenario", "br-cycle"]]', "[1, 2]", '"br-cycle"'])
def test_experiment_config_must_be_an_object(tmp_path, capsys, content):
    config = tmp_path / "f.json"
    config.write_text(content)
    code, out, err = run(capsys, "experiment", "--config", str(config),
                         "--out-dir", str(tmp_path))
    assert code == 2 and out == ""
    assert str(config) in one_error_line(err)
    assert list(tmp_path.iterdir()) == [config]


def test_gen_random_profile_request_writes_nothing(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["gen", "random", "--n", "5", "--t", "3", "-o", str(tmp_path / "r.tg"),
              "--profile", str(tmp_path / "r.tsp")])
    assert exc.value.code == 2
    assert "--profile" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_validate_exit_codes(tmp_path, capsys):
    good = tmp_path / "g.tg"
    good.write_text("2 1\n0 1 1\n")
    code, out, _ = run(capsys, "validate", str(good))
    assert code == 0
    bad = tmp_path / "b.tsp"
    bad.write_text("0: 0\n")
    code, out, _ = run(capsys, "validate", str(good), str(bad))
    assert code == 2
    reports = json.loads(out)
    assert [r["ok"] for r in reports] == [True, False]
    code, out, err = run(capsys, "validate")
    assert code == 2 and out == ""
    assert "nothing to validate" in one_error_line(err)


def test_validate_profile_against_host(tmp_path, capsys):
    host = tmp_path / "h.tg"
    host.write_text("3 1\n0 1 1\n0 2 1\n1 2 1\n")
    prof = tmp_path / "p.tsp"
    prof.write_text("0: 9\n")
    code, out, _ = run(capsys, "validate", "--host", str(host), str(prof))
    assert code == 2
    reports = json.loads(out)
    assert reports[0]["ok"] is True  # the host itself
    assert "out of range" in reports[1]["errors"][0]["message"]
    # labels 1..3 under a header that claims lifetime 5
    host.write_text("3 5\n0 1 1\n0 2 2\n1 2 3\n")
    prof.write_text("0: 1 2\n")
    code, out, _ = run(capsys, "validate", "--host", str(host))
    assert code == 2
    assert json.loads(out)[0]["errors"][0] == {
        "line": 1, "message": "host lifetime 5 must equal the largest label 3"}
    code, out, err = run(capsys, "check", "--host", str(host), "--profile", str(prof))
    assert code == 2 and out == ""
    assert "lifetime 5" in one_error_line(err)


def test_missing_file_is_exit_2(capsys):
    code, _, err = run(capsys, "check", "--host", "/nonexistent.tg",
                       "--profile", "/nonexistent.tsp")
    assert code == 2
    assert "error:" in err


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "tncg" in capsys.readouterr().out


def test_csv_format(tmp_path, capsys):
    host = tmp_path / "h.tg"
    code, out, _ = run(capsys, "gen", "random", "--n", "5", "--t", "2",
                       "--seed", "1", "-o", str(host), "--format", "csv")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 1
    assert rows[0]["n"] == "5"


@pytest.mark.parametrize("argv", [
    ["dynamics", "--budget", "-5"],
    ["dynamics", "--rule", "exact", "--budget", "-1"],
    ["br", "--profile", "P", "--agent", "0", "--budget", "-1"],
    ["check", "--profile", "P", "--mode", "ge", "--budget", "-1"],
    ["spanner", "--budget", "-1"],
    ["poa", "--profile", "P", "--mode", "ge", "--budget", "-1"],
])
def test_negative_budget_is_exit_2(tmp_path, capsys, argv):
    host = tmp_path / "h.tg"
    prof = tmp_path / "p.tsp"
    run(capsys, "gen", "random", "--n", "6", "--t", "4", "-o", str(host))
    prof.write_text("")
    argv = [str(prof) if a == "P" else a for a in argv]
    code, out, err = run(capsys, *argv, "--host", str(host))
    assert code == 2 and out == ""
    assert "budget_cap must be >= 0" in one_error_line(err)


def test_python_dash_m_runs_the_cli(tmp_path):
    src = Path(tncg.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
    host = tmp_path / "h.tg"
    done = subprocess.run(
        [sys.executable, "-m", "tncg", "gen", "random", "--n", "4", "--t", "2", "-o", str(host)],
        capture_output=True, text=True, env=env, check=False,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["n"] == 4 and host.exists()


def test_failed_trace_write_leaves_nothing_behind(tmp_path, capsys, monkeypatch):
    host = tmp_path / "h.tg"
    run(capsys, "gen", "random", "--n", "5", "--t", "3", "-o", str(host))
    old = tmp_path / "old.json"
    assert run(capsys, "dynamics", "--host", str(host), "-o", str(old))[0] == 0
    before = old.read_bytes()
    # a trace the encoder cannot encode fails the write midway
    monkeypatch.setattr(tncg.DynamicsTrace, "as_dict", lambda self: {"moves": [object()]})
    for out in (old, tmp_path / "new.json"):
        with pytest.raises(TypeError, match="not JSON serializable"):
            main(["dynamics", "--host", str(host), "-o", str(out)])
    assert old.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["h.tg", "old.json"]


def test_cli_outputs_match_golden_digest(tmp_path, capsys, monkeypatch):
    """The bytes of trace files, audited checks and validation reports, in
    JSON and CSV: a trace file keeps its keys unsorted and CSV writes its
    columns in key order, so both pin the key order as well as the values."""
    monkeypatch.chdir(tmp_path)  # validate reports name files as given
    Path("inst.sc").write_text("2 3\n1\n2\n1 2\ncover: 1 2\n")
    Path("good.tg").write_text("2 1\n0 1 1\n")
    Path("bad.tsp").write_text("0: 0\n")
    setup = [
        ["gen", "hypercube", "--dim", "3", "-o", "cube.tg", "--profile", "cube.tsp"],
        ["gen", "brcycle", "-o", "cyc.tg", "--profile", "cyc.tsp", "--schedule-out", "cyc.sched"],
        ["gen", "random", "--n", "7", "--t", "3", "--seed", "2", "-o", "rand.tg"],
        ["reduce-ne", "--setcover", "inst.sc", "-o", "red.tg", "--profile", "red.tsp"],
    ]
    for argv in setup:
        assert run(capsys, *argv)[0] == 0
    Path("cyc.sched").write_text(Path("cyc.sched").read_text() * 4)
    runs = [
        ["dynamics", "--host", "cyc.tg", "--profile", "cyc.tsp", "--rule", "exact",
         "--schedule", "file:cyc.sched", "-o", "cycle.json"],
        ["dynamics", "--host", "rand.tg", "--rule", "exact", "-o", "exact.json"],
        ["dynamics", "--host", "rand.tg", "--schedule", "random", "--seed", "3", "-o", "random.json"],
    ]
    for fmt in ("json", "csv"):
        for host, prof in (("cube.tg", "cube.tsp"), ("red.tg", "red.tsp")):
            runs.append(["check", "--host", host, "--profile", prof, "--audit", "--format", fmt])
        runs.append(["validate", "good.tg", "bad.tsp", "notes.txt", "--format", fmt])
    digest = hashlib.sha256()
    codes = []
    for argv in runs:
        code, out, _ = run(capsys, *argv)
        codes.append(code)
        digest.update(f"{argv}\n{code}\n{out}".encode())
    for name in ("cycle.json", "exact.json", "random.json"):
        digest.update(Path(name).read_bytes())
    assert codes == [0, 0, 0, 0, 1, 2, 0, 1, 2]
    assert digest.hexdigest() == "b940b3d2363050df01dcf4cec69c72f0e1f94a6a136ba39fb54316bc1e356f35"

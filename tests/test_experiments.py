import csv
import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import jsonschema
import pytest

import tncg.experiments as experiments
from tncg import SCENARIO_DEFAULTS, minimum_spanner, run_experiment

SCHEMA = json.loads(
    (Path(experiments.__file__).parent / "schemas" / "report_schema.json").read_text()
)

TINY = {
    "hypercube-poa": {"dims": [3]},
    "t2-tightness": {"n_values": [5, 6]},
    "br-cycle": {},
    "reduction-audit": {"instances": 3, "k_min": 2, "k_max": 4, "m_min": 2, "m_max": 3},
    "random-ge-sweep": {"instances": 6, "n_min": 4, "n_max": 6, "poa_budget": 2000},
    "freeze-relabel-audit": {"instances": 3, "n_min": 4, "n_max": 6},
    "t2-existence-sweep": {"exhaustive_n": 4, "random_instances": 5, "n_min": 5, "n_max": 6},
    "large-node-audit": {"instances": 2, "below_arcs": [500]},
}


@pytest.mark.parametrize("scenario", sorted(TINY))
def test_scenario_passes_and_validates(scenario, tmp_path):
    config = {"scenario": scenario, "seed": 7, **TINY[scenario]}
    result = run_experiment(config, out_dir=tmp_path)
    assert result.exit_code == 0
    assert result.report["summary"]["falsifications"] == 0
    jsonschema.validate(result.report, SCHEMA)
    on_disk = json.loads(result.json_path.read_text())
    assert on_disk == result.report
    with open(result.csv_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == result.report["summary"]["instances"]
    assert len(result.report["instances"]) == len(rows)


def test_reports_are_byte_deterministic(tmp_path):
    for scenario in sorted(TINY):
        config = {"scenario": scenario, "seed": 11, **TINY[scenario]}
        a = run_experiment(dict(config), out_dir=tmp_path / scenario / "a")
        b = run_experiment(dict(config), out_dir=tmp_path / scenario / "b")
        c = run_experiment(dict(config), out_dir=tmp_path / scenario / "c", threads=2)
        for other in (b, c):
            assert other.json_path.read_bytes() == a.json_path.read_bytes(), scenario
            assert other.csv_path.read_bytes() == a.csv_path.read_bytes(), scenario


def test_missing_seed_runs_as_seed_0(tmp_path):
    for scenario in sorted(TINY):
        config = {"scenario": scenario, **TINY[scenario]}
        a = run_experiment(config, out_dir=tmp_path / scenario / "a")
        b = run_experiment({**config, "seed": 0}, out_dir=tmp_path / scenario / "b")
        assert a.json_path.read_bytes() == b.json_path.read_bytes(), scenario
        assert a.csv_path.read_bytes() == b.csv_path.read_bytes(), scenario


# SHA-256 of the seed-0 reports at default config.  Any change to these bytes
# is a change of results and must be deliberate.
GOLDEN_SHA256 = {
    "hypercube-poa": (
        "7251aaf73068a15f5e383d51ae6bf115b0d44aa27bb3b41509a34a723f8e6770",
        "00360802eddd5c6f41b93d2a82ed2abfc12758c2e34183fa3b9ae4b49ee568c2",
    ),
    "t2-tightness": (
        "f04fb24ebabd13f1a64b21b03ad74977d1443b8edcd93041f6d795793de7833f",
        "fcb27879b435050f3bfe5156df76bf6a015dbd1dd46a822fe9eca969d1c67155",
    ),
    "br-cycle": (
        "adcc7ffaea1aadb07e2d73cc1a46d00c42e73168d2cc082e33db67f3b112cb7c",
        "c5968152b681926afbe97b7024a70aff303977954c2344b5ada5715b6460eb4a",
    ),
    "reduction-audit": (
        "cc1e0fbd0c35b1dec0326ccf49d681ff37e99bd0e0e26d727d07ae69bd1a4b2a",
        "60413bf230be186ea87d2dcbb91a8f20e8e01acc5e932b521bd1d4ef31f14902",
    ),
    "random-ge-sweep": (
        "a7046a2874965192eeeb62162e5e2e14f48175df76c8b21ea3fc1cc1d5db77c0",
        "460ea58e1789d194a6fd035f50df9b8029bfd77c6f94840efea1cb242b294a96",
    ),
    "freeze-relabel-audit": (
        "02b7e73bd7bf60a77c5c60b5d74c413f33d9663096dafb037223119eaad0c50f",
        "cfd9d4c35f6e1aaffead59e055d66c39e0fd286e5cebe66f72d8394d81ef4cf4",
    ),
    "t2-existence-sweep": (
        "77d71e782a9553354e32572066c398bfb3967924d459834e5e39c95572fdf499",
        "84e2c5379a721bf6fa0fd6e0b3cc12e9a9221b4d7c936f318078f2e72ee96055",
    ),
    "large-node-audit": (
        "bc36d0f6fb257b053ee7ccab4400546845c16a94f228660f5a349581a0dc88b4",
        "341472a0e41f77289e479b7ab4870e4b6514bf3be7457b92100b8281e06082bd",
    ),
}


def test_seed0_default_reports_match_golden_digests(tmp_path):
    assert set(GOLDEN_SHA256) == set(SCENARIO_DEFAULTS)
    for scenario, (report_sha, csv_sha) in GOLDEN_SHA256.items():
        result = run_experiment({"scenario": scenario, "seed": 0}, out_dir=tmp_path)
        assert hashlib.sha256(result.json_path.read_bytes()).hexdigest() == report_sha, scenario
        assert hashlib.sha256(result.csv_path.read_bytes()).hexdigest() == csv_sha, scenario


def test_ge_sweep_brackets_every_converged_row(tmp_path):
    # no label class spans most of these hosts, so a zero budget leaves
    # their optima bracketed; seed 0 gives rows of all three statuses
    config = {"scenario": "random-ge-sweep", "seed": 0, "instances": 8, "n_min": 6, "n_max": 6,
              "t_min": 6, "t_max": 12, "poa_budget": 0}
    result = run_experiment(config, out_dir=tmp_path)
    jsonschema.validate(result.report, SCHEMA)
    rows = result.report["instances"]
    for row in rows:
        assert (row["poa_status"] == "n/a") == (row["outcome"] != "converged-GE")
        if row["poa_status"] == "exact":
            assert row["opt_lower"] == row["opt_size"] == row["opt_upper"]
            assert Fraction(row["poa_num"], row["poa_den"]) == Fraction(row["edges"], row["opt_size"])
        else:
            assert row["opt_size"] is row["poa_num"] is row["poa_den"] is None
        if row["poa_status"] == "bounded":
            host, _ = experiments._greedy_run(row["seed"], {**SCENARIO_DEFAULTS["random-ge-sweep"], **config})
            assert row["opt_lower"] <= minimum_spanner(host)[1] <= row["opt_upper"]
    statuses = [row["poa_status"] for row in rows]
    summary = result.report["summary"]
    assert summary["poa_status"] == {s: statuses.count(s) for s in ("exact", "bounded", "n/a")}
    assert summary["poa_budget_exceeded"] == statuses.count("bounded")
    assert set(statuses) == {"exact", "bounded", "n/a"}


def test_config_limits_name_their_reason(tmp_path):
    with pytest.raises(ValueError, match=r"'exhaustive_n' = 7: .* 2\^21 hosts"):
        run_experiment({"scenario": "t2-existence-sweep", "exhaustive_n": 7}, out_dir=tmp_path)
    with pytest.raises(ValueError, match=r"'arcs' = 565: must be >= 566, .* at n = 36"):
        run_experiment({"scenario": "large-node-audit", "arcs": 565}, out_dir=tmp_path)
    with pytest.raises(ValueError, match=r"'below_arcs' = \[500, 566\]: every entry must be < 566"):
        run_experiment({"scenario": "large-node-audit", "below_arcs": [500, 566]}, out_dir=tmp_path)
    assert not list(tmp_path.iterdir())


def test_seed_changes_the_digest_and_data(tmp_path):
    base = {"scenario": "random-ge-sweep", "instances": 4, "n_min": 4, "n_max": 6}
    a = run_experiment({**base, "seed": 1}, out_dir=tmp_path / "a")
    b = run_experiment({**base, "seed": 2}, out_dir=tmp_path / "b")
    assert a.report["config_digest"] != b.report["config_digest"]
    assert a.report["instances"] != b.report["instances"]


def test_unknown_scenario_and_key(tmp_path):
    with pytest.raises(ValueError):
        run_experiment({"scenario": "mystery"}, out_dir=tmp_path)
    with pytest.raises(ValueError):
        run_experiment({"scenario": "br-cycle", "bogus_knob": 3}, out_dir=tmp_path)
    with pytest.raises(ValueError):
        run_experiment({}, out_dir=tmp_path)


def test_defaults_cover_every_scenario():
    assert set(TINY) == set(SCENARIO_DEFAULTS)
    for scenario, defaults in SCENARIO_DEFAULTS.items():
        assert set(TINY[scenario]) <= set(defaults), scenario


def test_failed_report_write_leaves_nothing_behind(tmp_path, monkeypatch):
    # a summary the encoder cannot encode fails the report write midway
    old = run_experiment({"scenario": "br-cycle"}, out_dir=tmp_path / "old")
    before = {p.name: p.read_bytes() for p in (tmp_path / "old").iterdir()}
    spec = experiments._SCENARIOS["br-cycle"]
    monkeypatch.setitem(experiments._SCENARIOS, "br-cycle",
                        dataclasses.replace(spec, summary=lambda rows: {"bad": object()}))
    for out in (tmp_path / "old", tmp_path / "new"):
        with pytest.raises(TypeError, match="not JSON serializable"):
            run_experiment({"scenario": "br-cycle"}, out_dir=out)
    assert {p.name: p.read_bytes() for p in (tmp_path / "old").iterdir()} == before
    assert old.json_path.name in before
    assert not list((tmp_path / "new").iterdir())


def test_failed_csv_write_replaces_neither_file(tmp_path, monkeypatch):
    # the report and the CSV replace the older pair only once both are whole,
    # so a failed run under another config leaves no report beside a stale CSV
    old = run_experiment({"scenario": "t2-tightness", "n_values": [5, 6]}, out_dir=tmp_path / "old")
    before = {p.name: p.read_bytes() for p in (tmp_path / "old").iterdir()}

    class FailingWriter(csv.DictWriter):
        def writerow(self, row):
            if row["index"] == 1:
                raise OSError("disk full")
            return super().writerow(row)

    monkeypatch.setattr(experiments.csv, "DictWriter", FailingWriter)
    for out in (tmp_path / "old", tmp_path / "new"):
        with pytest.raises(OSError, match="disk full"):
            run_experiment({"scenario": "t2-tightness", "n_values": [5, 6, 7]}, out_dir=out)
    assert {p.name: p.read_bytes() for p in (tmp_path / "old").iterdir()} == before
    assert sorted(before) == sorted([old.json_path.name, old.csv_path.name])
    assert not list((tmp_path / "new").iterdir())


def test_freeze_audit_needs_a_retry(tmp_path):
    # with no retry an instance attempts nothing, so the run would pass vacuously
    with pytest.raises(ValueError, match=r"'retries' = 0: must be >= 1"):
        run_experiment({"scenario": "freeze-relabel-audit", "retries": 0}, out_dir=tmp_path)
    assert not list(tmp_path.iterdir())


def test_import_leaves_multiprocessing_unloaded():
    # only a run with threads > 1 imports the process pool
    src = Path(experiments.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
    probe = "import sys, tncg; print(sorted(m for m in sys.modules if m.startswith(('multiprocessing', 'concurrent'))))"
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=False)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"

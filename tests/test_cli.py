import ast
import copy
import dataclasses
import importlib.util
import inspect
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import maxfilter_lab
from maxfilter_lab import (FAMILIES, FiniteGroup, build_family, cli, generate_group,
                          proven_chi, save_group, voronoi, voronoi_characteristic)
from maxfilter_lab.cli import (ExperimentConfig, build_parser, load_config,
                               main, run)
from maxfilter_lab.errors import BUDGETS, ConfigError
from maxfilter_lab.reporting import write_csv
from maxfilter_lab.streams import STREAMS

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def write_config(tmp_path, payload, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return str(p)


SF2_BOUNDS = {
    "group_spec": {"family": "sign_flips", "param": 2},
    "templates": {"sampler": "gaussian", "n": 3},
    "n_pairs": 50,
    "seed": 7,
}

C3_DISTORTION = {
    "group_spec": {"family": "cyclic_rotation_2d", "param": 3},
    "templates": {"sampler": "gaussian", "n": 16},
    "n_trials": 2, "n_pairs": 50, "seed": 3,
}

# the top-level keys every report carries, whatever the subcommand
ENVELOPE = {"subcommand", "config", "seed_provenance", "results",
            "assertions", "passed", "timings"}


def strip_timings(report: dict) -> dict:
    out = copy.deepcopy(report)
    out.pop("timings", None)
    return out


# ---------------------------------------------------------------------------
# happy paths


def test_bounds_golden_config_passes(tmp_path, capsys):
    code = run("bounds", str(CONFIGS / "bounds_golden.json"),
               out=str(tmp_path))
    assert code == 0
    report = json.loads((tmp_path / "bounds_report.json").read_text())
    assert report["passed"] is True
    assert report["subcommand"] == "bounds"
    assert report["seed_provenance"]["source"] == "config"
    assert report["config"] == json.loads(
        (CONFIGS / "bounds_golden.json").read_text())
    for a in report["assertions"]:
        assert set(a) >= {"name", "claim", "passed", "value", "tolerance"}
        assert a["passed"] is True
    assert (tmp_path / "bounds_pairs.csv").exists()
    outtext = capsys.readouterr().out
    assert "[PASS]" in outtext and "[FAIL]" not in outtext


def test_seed_flag_overrides_config(tmp_path):
    cfg = write_config(tmp_path, SF2_BOUNDS)
    assert run("bounds", cfg, seed=99, out=str(tmp_path / "a")) == 0
    report = json.loads((tmp_path / "a" / "bounds_report.json").read_text())
    assert report["seed_provenance"] == {
        "seed": 99, "source": "flag",
        "streams": report["seed_provenance"]["streams"]}
    assert report["seed_provenance"]["streams"]  # stream map is recorded


@pytest.mark.parametrize("sub,payload,csvname", [
    # kernel writes no CSV: it samples nothing per pair or trial
    ("kernel", {"group_spec": {"family": "cyclic_rotation_2d", "param": 5},
                "n_trials": 20, "seed": 3}, None),
    ("maxfilter", {"group_spec": {"family": "circular_shifts", "param": 4},
                   "n_pairs": 10, "seed": 3},
     "maxfilter_pairs.csv"),
    ("chi", {"group_spec": {"family": "permutations", "param": 3},
             "expected_chi": 1, "expected_saturated": False, "seed": 3},
     "chi_samples.csv"),
    ("injectivity", {"group_spec": {"family": "cyclic_rotation_2d",
                                    "param": 5},
                     "n_pairs": 2000, "seed": 3},
     "injectivity_pairs.csv"),
])
def test_subcommands_small_runs(tmp_path, sub, payload, csvname):
    cfg = write_config(tmp_path, payload)
    assert run(sub, cfg, out=str(tmp_path / "out")) == 0
    report = json.loads((tmp_path / "out" / f"{sub}_report.json").read_text())
    assert set(report) == ENVELOPE
    assert report["passed"] is True
    written = {p.name for p in (tmp_path / "out").iterdir()}
    assert written == {f"{sub}_report.json"} | ({csvname} if csvname else set())
    assert "write_csv" in report["timings"]


def test_distortion_small_run(tmp_path):
    cfg = write_config(tmp_path, C3_DISTORTION)
    assert run("distortion", cfg, out=str(tmp_path / "out")) == 0
    report = json.loads(
        (tmp_path / "out" / "distortion_report.json").read_text())
    assert set(report) == ENVELOPE
    assert report["passed"] is True
    assert report["results"]["n_trials"] == 2
    assert report["results"]["fraction_within_bound"] == 1.0
    assert report["results"]["uncertified_trials"] == []


def test_stream_tags_are_unique_and_recorded(tmp_path):
    assert len(set(STREAMS.values())) == len(STREAMS)
    payload = {"group_spec": {"family": "circular_shifts", "param": 4},
               "n_pairs": 5, "seed": 3}
    cfg = write_config(tmp_path, payload)
    assert run("maxfilter", cfg, out=str(tmp_path / "out")) == 0
    report = json.loads((tmp_path / "out" / "maxfilter_report.json").read_text())
    assert report["seed_provenance"]["streams"] == STREAMS


def test_reports_are_deterministic(tmp_path):
    payload = {"group_spec": {"family": "cyclic_rotation_2d", "param": 5},
               "n_trials": 20, "seed": 3}
    cfg = write_config(tmp_path, payload)
    for d in ("r1", "r2"):
        assert run("kernel", cfg, out=str(tmp_path / d)) == 0
        assert [p.name for p in (tmp_path / d).iterdir()] == ["kernel_report.json"]
    r1 = json.loads((tmp_path / "r1" / "kernel_report.json").read_text())
    r2 = json.loads((tmp_path / "r2" / "kernel_report.json").read_text())
    assert strip_timings(r1) == strip_timings(r2)
    assert "chi" not in r1["results"]
    assert r1["results"]["is_reflection_group"] is False


def test_run_all_runs_every_shipped_config():
    script = (CONFIGS.parent / "scripts" / "run_all.sh").read_text()
    listed = set(re.findall(r"configs/(\w+\.json)", script))
    assert listed == {p.name for p in CONFIGS.glob("*.json")}
    for name in sorted(listed):
        load_config(CONFIGS / name)   # a key the config no longer takes raises


def test_cli_import_loads_no_scipy():
    # scipy is a test-only dependency, for the HiGHS referee in oracles.py
    src = Path(maxfilter_lab.__file__).resolve().parents[1]
    code = ("import sys, maxfilter_lab.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": str(src)})
    assert out.stdout.strip() == "[]"


def test_only_cli_and_the_package_import_kernels():
    # whether G is a reflection group is a fact about G, so its rule lives in
    # groups, and no layer below the CLI imports the kernel audits
    kernels = {".kernels", "maxfilter_lab.kernels"}
    importers = set()
    for path in Path(maxfilter_lab.__file__).resolve().parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = {a.name for a in node.names}
            elif isinstance(node, ast.ImportFrom):
                base = "." * node.level + (node.module or "")
                sep = "" if base.endswith(".") else "."
                names = {base, *(base + sep + a.name for a in node.names)}
            else:
                continue
            if names & kernels:
                importers.add(path.stem)
    assert importers == {"cli", "__init__"}


def _load_diff_reports():
    path = CONFIGS.parent / "scripts" / "diff_reports.py"
    spec = importlib.util.spec_from_file_location("diff_reports", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_diff_reports_ignores_only_timings(tmp_path, capsys):
    diff_reports = _load_diff_reports()
    report = {"results": {"beta": 1.5, "flags": [True, 2]}, "timings": {"bounds": 0.1}}
    for side, seconds in (("a", 0.1), ("b", 9.0)):
        (tmp_path / side / "cfg").mkdir(parents=True)
        (tmp_path / side / "cfg" / "bounds_report.json").write_text(
            json.dumps(dict(report, timings={"bounds": seconds})))
        (tmp_path / side / "cfg" / "pairs.csv").write_text("pair,ratio\n0,1.5\n")
    a, b = tmp_path / "a", tmp_path / "b"
    assert diff_reports.main([str(a), str(b)]) == 0

    changes = [
        ("cfg/bounds_report.json", json.dumps(dict(report, results={"beta": 1.5, "flags": [True, 3]}))),
        ("cfg/bounds_report.json", json.dumps(dict(report, results={"beta": 1.5, "flags": [1, 2]}))),
        ("cfg/pairs.csv", "pair,ratio\n0,1.6\n"),
        ("cfg/pairs.csv", None),
    ]
    for rel, text in changes:
        original = (b / rel).read_text()
        if text is None:
            (b / rel).unlink()
        else:
            (b / rel).write_text(text)
        capsys.readouterr()
        assert diff_reports.main([str(a), str(b)]) == 1
        assert "cfg" in capsys.readouterr().out
        (b / rel).write_text(original)
    assert diff_reports.main([str(a), str(b)]) == 0


def test_diff_reports_gives_the_size_of_a_number_difference(tmp_path, capsys):
    diff_reports = _load_diff_reports()
    a, b = tmp_path / "a", tmp_path / "b"
    for root, at, kind in ((a, 0.25, "x"), (b, 0.25 + 1e-13, "y")):
        root.mkdir()
        (root / "bounds_report.json").write_text(
            json.dumps({"results": {"alpha_tilde": at, "flag": kind == "x"}}))
        (root / "trials.csv").write_text(f"trial,alpha_tilde,kind\n0,{at!r},{kind}\n")
    assert diff_reports.main([str(a), str(b)]) == 1
    assert capsys.readouterr().out.splitlines()[:-1] == [
        "bounds_report.json: $.results.alpha_tilde: 0.25 != 0.2500000000001 (abs 1e-13, rel 4e-13)",
        "bounds_report.json: $.results.flag: true != false",
        "trials.csv: line 2, alpha_tilde: 0.25 != 0.2500000000001 (abs 1e-13, rel 4e-13)",
        "trials.csv: line 2, kind: x != y",
    ]
    # CSV files of different shapes are compared as bytes only
    (b / "trials.csv").write_text("trial,alpha_tilde\n0,0.25\n")
    assert diff_reports.main([str(a), str(b)]) == 1
    assert "trials.csv: bytes differ" in capsys.readouterr().out


def test_injectivity_scan_with_no_separated_pair(tmp_path, monkeypatch):
    # every pair is closer than the scan's quotient distance, so none is scanned
    monkeypatch.setattr(cli, "_MIN_QUOTIENT_DISTANCE", 1e9)
    payload = {"group_spec": {"family": "cyclic_rotation_2d", "param": 5},
               "n_pairs": 200, "seed": 1}
    cfg = write_config(tmp_path, payload)
    assert run("injectivity", cfg, out=str(tmp_path / "out")) == 0
    report = json.loads((tmp_path / "out" / "injectivity_report.json").read_text())
    runs = report["results"]["runs"]
    assert list(runs) == ["n=3", "n=4"]
    for summary in runs.values():
        assert (summary["separated_pairs"], summary["collisions"]) == (0, 0)
        assert summary["min_image_distance"] == summary["min_ratio"] == "inf"
    assert (tmp_path / "out" / "injectivity_pairs.csv").read_text() == (
        "n_templates,pair,quotient_distance,image_distance,ratio\n")
    sandwich = [a for a in report["assertions"] if a["name"].startswith("sandwich_lower")]
    assert [(a["name"], a["passed"], a["value"]) for a in sandwich] == [
        ("sandwich_lower_n3", True, "inf"), ("sandwich_lower_n4", True, "inf")]


def test_injectivity_checks_alpha_tilde_against_its_scan(tmp_path, monkeypatch):
    # C5 has chi = 2; a chi of 1 makes the pigeonhole subsets too large,
    # and the scan finds pairs that contract below that alpha_tilde
    monkeypatch.setattr(cli, "proven_chi", lambda *a: (1, "reflection_group"))
    payload = dict(json.loads((CONFIGS / "injectivity_c5.json").read_text()), n_pairs=20000)
    assert run("injectivity", write_config(tmp_path, payload), out=str(tmp_path / "out")) == 1
    report = json.loads((tmp_path / "out" / "injectivity_report.json").read_text())
    checks = {a["name"]: a["passed"] for a in report["assertions"]}
    assert checks["sandwich_lower_n2"] is checks["sandwich_lower_n4"] is False
    assert checks["alpha_tilde_positive_n2"] is True


def test_injectivity_on_an_untagged_group_matches_the_tagged_run(tmp_path):
    # chi is proven from the elements, so C5 loaded without its tag keeps
    # chi = 2 and its threshold run at n = 3, where the order bound chi = 5 gave n = 6
    payload = dict(json.loads((CONFIGS / "injectivity_c5.json").read_text()), n_pairs=2000)
    results = {}
    for name, spec in (("tagged", payload["group_spec"]),
                       ("untagged", untagged_group_spec(tmp_path, "cyclic_rotation_2d", 5))):
        cfg = write_config(tmp_path, dict(payload, group_spec=spec), name=f"{name}.json")
        assert run("injectivity", cfg, out=str(tmp_path / name)) == 0
        report = json.loads((tmp_path / name / "injectivity_report.json").read_text())
        results[name] = report["results"]
    tagged, untagged = results["tagged"], results["untagged"]
    assert untagged["chi"] == tagged["chi"] == {"chi": 2, "source": "planar_sectors"}
    alphas = {k: r["alpha_tilde"] for k, r in tagged["runs"].items()}
    assert {k: r["alpha_tilde"] for k, r in untagged["runs"].items()} == alphas
    assert list(alphas) == ["n=3", "n=4"] and None not in alphas.values()


# ---------------------------------------------------------------------------
# the CSV writer


def test_write_csv_prints_each_cell_as_its_builtin(tmp_path):
    # a float is its shortest round-trip repr, signed zero and the
    # non-finite values included; whether a column is an array or a list
    # of builtins does not change a byte
    floats = [0.1, 1 / 3, 1e-05, 1e16, -0.0, math.nan, math.inf, -math.inf]
    table = {"i": np.array([7], dtype=np.int64), "b": np.array([True]),
             **{f"f{k}": np.array([v]) for k, v in enumerate(floats)}}
    expected = ("i,b,f0,f1,f2,f3,f4,f5,f6,f7\n"
                "7,True,0.1,0.3333333333333333,1e-05,1e+16,-0.0,nan,inf,-inf\n")
    path = tmp_path / "new" / "t.csv"
    assert write_csv(path, table) == path
    assert path.read_text() == expected
    lists = tmp_path / "lists.csv"
    write_csv(lists, {k: col.tolist() for k, col in table.items()})
    assert lists.read_text() == expected


def test_write_csv_streams_its_rows(tmp_path):
    # the traced peak stays below a quarter of the columns' bytes; a writer
    # that joined every line before writing read 8.1x, and one that
    # converted each whole column at once 4.2x
    rng = np.random.default_rng(0)
    n = 200_000
    table = {"pair": np.arange(n), **{f"x{k}": rng.standard_normal(n) for k in range(4)}}
    nbytes = sum(col.nbytes for col in table.values())
    tracemalloc.start()
    try:
        write_csv(tmp_path / "big.csv", table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < nbytes / 4


# ---------------------------------------------------------------------------
# exit codes


def test_exit_one_on_failed_assertion(tmp_path, capsys):
    payload = {"group_spec": {"family": "permutations", "param": 3},
               "expected_chi": 3, "seed": 3}
    cfg = write_config(tmp_path, payload)
    assert run("chi", cfg, out=str(tmp_path / "out")) == 1
    assert "[FAIL]" in capsys.readouterr().out
    report = json.loads((tmp_path / "out" / "chi_report.json").read_text())
    assert report["passed"] is False


def test_exit_two_missing_seed(tmp_path):
    payload = {k: v for k, v in SF2_BOUNDS.items() if k != "seed"}
    cfg = write_config(tmp_path, payload)
    assert main(["bounds", "--config", cfg]) == 2


def test_exit_two_unknown_key(tmp_path):
    payload = dict(SF2_BOUNDS, typo_field=1)
    cfg = write_config(tmp_path, payload)
    assert main(["bounds", "--config", cfg]) == 2


def test_exit_two_bad_family(tmp_path):
    payload = dict(SF2_BOUNDS, group_spec={"family": "icosahedral", "param": 1})
    cfg = write_config(tmp_path, payload)
    assert main(["bounds", "--config", cfg]) == 2


def test_exit_two_missing_config_file(tmp_path):
    assert main(["bounds", "--config", str(tmp_path / "nope.json")]) == 2


def test_exit_two_malformed_json(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    assert main(["bounds", "--config", str(p)]) == 2
    # an integer of more than 4300 digits, which Python refuses to parse
    p.write_text('{"seed": ' + "9" * 5000 + "}")
    assert main(["bounds", "--config", str(p)]) == 2


@pytest.mark.parametrize("make", [
    pytest.param(lambda p: p.mkdir(), id="directory"),
    pytest.param(lambda p: p.write_bytes(b'{"seed": "\xff"}'), id="not_utf8"),
])
def test_exit_two_unreadable_config(tmp_path, capsys, make):
    p = tmp_path / "cfg.json"
    make(p)
    assert main(["bounds", "--config", str(p), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert not (tmp_path / "out").exists()


# n=4 templates with chi=2, d=2 gives lambda=1 < lambda0 = 4
C3_BELOW_LAMBDA0 = dict(C3_DISTORTION, templates={"sampler": "gaussian", "n": 4},
                        n_trials=1, n_pairs=20)


def test_exit_two_lambda_below_floor(tmp_path, capsys):
    cfg = write_config(tmp_path, C3_BELOW_LAMBDA0)
    assert main(["distortion", "--config", cfg, "--out", str(tmp_path / "d")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "below lambda0" in err and "Traceback" not in err


def test_bounds_reports_a_bound_out_of_its_domain_as_null(tmp_path):
    # bounds keeps its report when the closed-form bound has no value
    cfg = write_config(tmp_path, C3_BELOW_LAMBDA0)
    assert run("bounds", cfg, out=str(tmp_path / "b")) == 0
    report = json.loads((tmp_path / "b" / "bounds_report.json").read_text())
    bound = report["results"]["theoretical_bound"]
    assert bound["value"] is None and "below lambda0" in bound["reason"]


def untagged_group_spec(tmp_path, family, param):
    """group_spec naming a file of the family's elements without its tag,
    so the exact bound takes the LP route that the lp_solves cap binds."""
    path = tmp_path / f"{family}_{param}_untagged.json"
    save_group(FiniteGroup.from_matrices(build_family(family, param).stack), path)
    return {"path": str(path)}


def test_exit_three_tiny_lp_budget(tmp_path, monkeypatch, capsys):
    monkeypatch.setitem(BUDGETS, "lp_solves", 2)
    cfg = write_config(tmp_path, dict(
        SF2_BOUNDS, group_spec=untagged_group_spec(tmp_path, "sign_flips", 2)))
    assert run("bounds", cfg, out=str(tmp_path / "out")) == 3
    report = json.loads((tmp_path / "out" / "bounds_report.json").read_text())
    prov = report["results"]["stability"]["provenance"]
    assert prov["beta_exact_certified"] is False


def test_exit_two_when_a_margin_lp_is_undecided(tmp_path, monkeypatch, capsys):
    # Wolfe's weights settle no block of the untagged C3 bank's LP route, so
    # the run stops before any report: beta_exact is never reported, let
    # alone as certified
    def first_row(stack):
        # lambda on each block's first row, and lambda @ R as the witness
        L = np.zeros(stack.shape[:2])
        L[:, 0] = 1.0
        return stack[:, 0], L

    monkeypatch.setattr(voronoi, "_FINDERS", (*voronoi._FINDERS[:2], first_row))
    cfg = write_config(tmp_path, dict(
        SF2_BOUNDS, group_spec=untagged_group_spec(tmp_path, "cyclic_rotation_2d", 3)))
    assert main(["bounds", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert "margin LP undecided" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_exit_three_distortion_budget_keeps_the_report(tmp_path, monkeypatch, capsys):
    # each trial's exact search needs more than 5 LPs, so both trials
    # stop with a partial (here absent) beta and count as not within
    monkeypatch.setitem(BUDGETS, "lp_solves", 5)
    cfg = write_config(tmp_path, dict(
        C3_DISTORTION, group_spec=untagged_group_spec(tmp_path, "cyclic_rotation_2d", 3)))
    assert run("distortion", cfg, out=str(tmp_path / "run")) == 3
    assert main(["distortion", "--config", cfg,
                 "--out", str(tmp_path / "main")]) == 3
    assert "budget exceeded" in capsys.readouterr().err
    for d in ("run", "main"):
        report = json.loads(
            (tmp_path / d / "distortion_report.json").read_text())
        assert set(report) == ENVELOPE
        assert report["results"]["uncertified_trials"] == [0, 1]
        assert report["results"]["fraction_within_bound"] == 0.0
        checks = {a["name"]: a for a in report["assertions"]}
        assert checks["certified_fraction"]["passed"] is False
        # no trial is certified, so none is checked against its partial kappa
        assert checks["empirical_le_certified"]["passed"] is True
        assert checks["empirical_le_certified"]["value"] == 0
        rows = (tmp_path / d / "distortion_trials.csv").read_text().splitlines()
        assert len(rows) == 3
        assert all(r.split(",")[5] == "0" for r in rows[1:])


def test_exit_three_injectivity_budget_keeps_the_report(tmp_path, monkeypatch):
    # one subset evaluation cannot finish alpha_tilde at n = 3 or n = 4
    monkeypatch.setitem(BUDGETS, "alpha_tilde_evals", 1)
    payload = {"group_spec": {"family": "cyclic_rotation_2d", "param": 5},
               "n_pairs": 200, "seed": 1}
    cfg = write_config(tmp_path, payload)
    assert run("injectivity", cfg, out=str(tmp_path / "out")) == 3
    report = json.loads((tmp_path / "out" / "injectivity_report.json").read_text())
    assert set(report) == ENVELOPE
    runs = report["results"]["runs"]
    assert list(runs) == ["n=3", "n=4"]
    assert all(r["alpha_tilde"] is None for r in runs.values())
    # the collision scans still ran; only the alpha_tilde check is absent
    assert [a["name"] for a in report["assertions"]] == ["no_collisions_n3", "no_collisions_n4"]
    rows = (tmp_path / "out" / "injectivity_pairs.csv").read_text().splitlines()
    assert len(rows) > 1


def _budget_case(sub, key, value, flag):
    # the id names the subcommand, budget key and flag, not the value
    return pytest.param(sub, key, value, flag, id=f"{sub}-{key}-{flag}")


@pytest.mark.parametrize("sub,key,value,flag", [
    _budget_case("bounds", "tuple_leaves", 1, "beta_relaxed_certified"),
    _budget_case("bounds", "alpha_tilde_evals", 1, "alpha_tilde_certified"),
    # every nice pair has at least one choice assignment
    _budget_case("bounds", "choice_cap", 0, "alpha_sharp_certified"),
    _budget_case("distortion", "alpha_tilde_evals", 1, None),
])
def test_exit_three_on_each_exhaustible_budget(tmp_path, monkeypatch, sub, key, value, flag):
    # the cap cannot finish the search it bounds; the run still
    # writes its report and CSV and names what is not certified
    monkeypatch.setitem(BUDGETS, key, value)
    cfg = write_config(tmp_path, SF2_BOUNDS if sub == "bounds" else C3_DISTORTION)
    assert run(sub, cfg, out=str(tmp_path / "out")) == 3
    report = json.loads((tmp_path / "out" / f"{sub}_report.json").read_text())
    assert set(report) == ENVELOPE
    csv = "bounds_pairs.csv" if sub == "bounds" else "distortion_trials.csv"
    rows = (tmp_path / "out" / csv).read_text().splitlines()
    if sub == "bounds":
        # an uncertified value takes no part in the ordering audit, so
        # nothing fails: the miss shows in the exit code and the flags only
        assert report["passed"] is True
        assert all(a["passed"] for a in report["assertions"])
        prov = report["results"]["stability"]["provenance"]
        flags = {k: v for k, v in prov.items() if k.endswith("_certified")}
        assert flags == {k: k != flag for k in flags}
        assert len(flags) == 4
        assert len(rows) == SF2_BOUNDS["n_pairs"] + 1
        if key == "choice_cap":
            stab = report["results"]["stability"]
            assert stab["alpha_sharp"] == "nan"
            assert stab["witnesses"]["alpha_sharp_pair"] is None
    else:
        assert report["results"]["uncertified_trials"] == [0, 1]
        assert len(rows) == C3_DISTORTION["n_trials"] + 1
        assert all(r.split(",")[2] == "nan" for r in rows[1:])   # no partial alpha_tilde


def test_bounds_checks_kappa_only_when_both_factors_are_certified(tmp_path, monkeypatch):
    # 30 evaluations stop alpha_tilde on this bank with a finite partial
    # value, so kappa_certified is finite but certifies nothing
    monkeypatch.setitem(BUDGETS, "alpha_tilde_evals", 30)
    cfg = write_config(tmp_path, {"group_spec": {"family": "sign_flips", "param": 3},
                                  "templates": {"sampler": "gaussian", "n": 5},
                                  "n_pairs": 50, "seed": 1})
    assert run("bounds", cfg, out=str(tmp_path / "out")) == 3
    report = json.loads((tmp_path / "out" / "bounds_report.json").read_text())
    stab = report["results"]["stability"]
    assert stab["provenance"]["alpha_tilde_certified"] is False
    assert math.isfinite(stab["alpha_tilde"]) and math.isfinite(stab["kappa_certified"])
    assert "kappa_empirical_le_certified" not in {a["name"] for a in report["assertions"]}


# each run takes the first rule that proves a chi
P3_BOUNDS = {"group_spec": {"family": "permutations", "param": 3},
             "templates": {"sampler": "gaussian", "n": 3}, "n_pairs": 50, "seed": 7}
NO_CHI_RUNS = [
    pytest.param("distortion", C3_DISTORTION, 2, "planar_sectors", id="planar_sectors_distortion"),
    pytest.param("injectivity", {"group_spec": {"family": "cyclic_rotation_2d", "param": 5},
                                 "n_pairs": 2000, "seed": 3},
                 2, "planar_sectors", id="planar_sectors_injectivity"),
    # circular_shifts(4) is neither a reflection group nor planar
    pytest.param("bounds", {"group_spec": {"family": "circular_shifts", "param": 4},
                            "templates": {"sampler": "gaussian", "n": 10},
                            "n_pairs": 50, "seed": 1},
                 4, "order_bound", id="order_bound"),
    pytest.param("bounds", P3_BOUNDS, 1, "reflection_group", id="reflection_family"),
    # S3 closed from two transpositions and loaded by path carries no family tag
    pytest.param("bounds", dict(P3_BOUNDS, group_spec={"path": "s3.json"}),
                 1, "reflection_group", id="untagged_reflection_group"),
    # so does C3 stored without its tag; the rule reads that it moves one plane
    pytest.param("bounds", dict(P3_BOUNDS, group_spec={"path": "c3.json"}),
                 2, "planar_sectors", id="untagged_planar_group"),
]


@pytest.mark.parametrize("sub,payload,chi,source", NO_CHI_RUNS)
def test_only_a_proven_chi_certifies_alpha_tilde(tmp_path, monkeypatch, sub, payload, chi, source):
    # the resolver samples nothing, so every alpha_tilde it feeds is certified
    def no_sampling(*args, **kwargs):
        raise AssertionError("chi was sampled")
    monkeypatch.setattr(cli, "voronoi_characteristic", no_sampling)
    monkeypatch.chdir(tmp_path)
    save_group(generate_group([np.eye(3)[[1, 0, 2]], np.eye(3)[[0, 2, 1]]]), "s3.json")
    save_group(FiniteGroup.from_matrices(build_family("cyclic_rotation_2d", 3).stack), "c3.json")
    assert run(sub, write_config(tmp_path, payload), out="out") == 0
    results = json.loads((tmp_path / "out" / f"{sub}_report.json").read_text())["results"]
    assert results["chi"] == {"chi": chi, "source": source}
    if sub == "bounds":
        assert results["stability"]["provenance"]["alpha_tilde_certified"] is True
    elif sub == "distortion":
        assert results["uncertified_trials"] == []
    else:
        assert None not in [r["alpha_tilde"] for r in results["runs"].values()]


def _chi_rule_cases():
    for name in FAMILIES:
        for param in range(1, 7 if name in ("cyclic_rotation_2d", "axis_rotation_3d",
                                            "dihedral_2d") else 5):
            yield pytest.param(build_family(name, param), id=f"{name}-{param}")
    # the rules read the elements only, so untagged closures take the tagged rules
    for name, param in [("cyclic_rotation_2d", 3), ("cyclic_rotation_2d", 7),
                        ("axis_rotation_3d", 4), ("dihedral_2d", 4)]:
        yield pytest.param(FiniteGroup.from_matrices(build_family(name, param).stack),
                           id=f"untagged_{name}-{param}")
    # C5 conjugated by a random rotation of R^3, so its axis is no coordinate axis
    Q, _ = np.linalg.qr(np.random.default_rng(4).standard_normal((3, 3)))
    stack = Q @ build_family("axis_rotation_3d", 5).stack @ Q.T
    yield pytest.param(FiniteGroup.from_matrices(stack), id="untagged_rotated_axis_rotation_3d-5")


@pytest.mark.parametrize("g", list(_chi_rule_cases()))
def test_no_sample_exceeds_the_resolved_chi(g):
    # a sampled S-set is a lower bound on chi, so one above the proven
    # value would disprove its rule; the rules for reflection groups and
    # planar rotations are exact, so there the samples reach them
    chi, rule = proven_chi(g)
    est = voronoi_characteristic(g, 50, seed=11)
    assert est.chi_lower <= chi, (rule, est.witness_x, est.witness_y)
    if rule != "order_bound":
        assert est.chi_lower == chi


@pytest.mark.parametrize("name", ["fraction_slack", "min_quotient_distance", "tolerances",
                                  "budgets", "out", "chi", "lambda0", "dims",
                                  "chi_samples", "points_per_trial"])
def test_former_config_constants_are_unknown_keys(tmp_path, capsys, name):
    cfg = write_config(tmp_path, dict(SF2_BOUNDS, **{name: 0.1}))
    assert main(["bounds", "--config", cfg]) == 2
    assert f"unknown config keys: ['{name}']" in capsys.readouterr().err


def test_no_public_callable_takes_a_tolerance_or_cap():
    # the thresholds live in tolerances.DEFAULT_TOL, the order cap in
    # groups.MAX_ORDER and the search caps in errors.BUDGETS; no call may pass its own
    callables = {}
    for name in maxfilter_lab.__all__:
        obj = getattr(maxfilter_lab, name)
        if inspect.isclass(obj):
            # Python-level methods only: the builtin ones of exceptions have no signature
            methods = inspect.getmembers(obj, lambda f: inspect.isfunction(f) or inspect.ismethod(f))
            callables.update({f"{name}.{m}": f for m, f in methods if not m.startswith("_")})
        elif callable(obj):
            callables[name] = obj
    callables.update({n: f for n, f in vars(cli).items() if n.startswith("cmd_")})
    assert len(callables) > 40
    taking = sorted(n for n, f in callables.items()
                    if {"tol", "max_order", "max_lp_solves", "max_leaves", "budget", "budgets",
                        "cap"} & set(inspect.signature(f).parameters))
    assert taking == []


def test_settable_value_count_ratchet():
    # every parameter of the public API (callables in __all__, the public
    # methods of exported classes), the init fields of exported
    # dataclasses, the ExperimentConfig fields and the 3 CLI flags; a new
    # knob must raise this number and say why
    count = len(dataclasses.fields(ExperimentConfig)) + 3
    for name in maxfilter_lab.__all__:
        obj = getattr(maxfilter_lab, name)
        if inspect.isclass(obj):
            if dataclasses.is_dataclass(obj):
                count += sum(f.init for f in dataclasses.fields(obj))
            methods = inspect.getmembers(obj, lambda f: inspect.isfunction(f) or inspect.ismethod(f))
            callables = [f for m, f in methods if not m.startswith("_")]
        else:
            callables = [obj] if callable(obj) else []
        count += sum(p not in ("self", "cls")
                     for f in callables for p in inspect.signature(f).parameters)
    assert count <= 157


# ---------------------------------------------------------------------------
# config validation units


# outside files a config may name, malformed; every case below runs among them
C3_FILE = {"dim": 2, "family": "cyclic_rotation_2d", "param": 3,
           "generators": build_family("cyclic_rotation_2d", 3).stack.reshape(3, -1).tolist()}
OUTSIDE_FILES = {
    "no_generators.json": '{"dim": 2}',
    # C3's three elements stored under the tag of C4
    "c3_tagged_as_c4.json": json.dumps(dict(C3_FILE, param=4)),
    # numbers that int() would truncate or take as 1, loading C3, a 2-D or a 1-D group
    "param_float.json": json.dumps(dict(C3_FILE, param=3.7)),
    "dim_float.json": json.dumps(dict(C3_FILE, dim=2.9)),
    "dim_bool.json": json.dumps({"dim": True, "generators": [[-1.0]]}),
    "not_numeric.csv": "1.0,x\n",
    "not_finite.csv": "1.0,nan\n0.5,0.25\n",
    "nan_generator.json": json.dumps({"dim": 2, "generators": [[math.nan, 0.0, 0.0, 1.0]]}),
}


@pytest.mark.parametrize("change,flags", [
    pytest.param({"group_spec": {"family": "sign_flips", "param": 0}}, [], id="param_zero"),
    pytest.param({"group_spec": {"family": "sign_flips", "param": "x"}}, [], id="param_string"),
    pytest.param({"group_spec": {"family": "sign_flips"}}, [], id="param_missing"),
    pytest.param({"group_spec": {"family": "permutations", "param": 2000}}, [],
                 id="param_order_too_large"),
    pytest.param({"group_spec": {"family": "circular_shifts", "param": 1000}}, [],
                 id="param_dim_too_large"),
    pytest.param({"n_pairs": cli._MAX_PAIRS + 1}, [], id="n_pairs_above_cap"),
    pytest.param({"seed": -1}, [], id="seed_negative"),
    pytest.param({"seed": 1.5}, [], id="seed_float"),
    pytest.param({"templates": {"sampler": "gaussian", "n": 3, "seed": 4}}, [],
                 id="templates_seed"),
    pytest.param({"group_spec": {"family": "sign_flips", "param": 2, "generators": []}}, [],
                 id="group_spec_extra_key"),
    pytest.param({"templates": {"path": str(CONFIGS / "golden_templates.csv"), "n": 3}}, [],
                 id="template_path_with_count"),
    pytest.param({}, ["--seed", "-1"], id="seed_flag_negative"),
    pytest.param({"expected_chi": "1"}, [], id="expected_chi_string"),
    pytest.param({"expected_saturated": "no"}, [], id="expected_saturated_string"),
    pytest.param({"group_spec": {"path": "no_generators.json"}}, [],
                 id="group_file_without_generators"),
    pytest.param({"group_spec": {"path": "c3_tagged_as_c4.json"}}, [],
                 id="group_file_differs_from_its_family"),
    pytest.param({"templates": {"path": "missing.csv"}}, [], id="template_file_missing"),
    pytest.param({"templates": {"path": 5}}, [], id="template_path_int"),
    pytest.param({"templates": {"path": ["a"]}}, [], id="template_path_list"),
    pytest.param({"group_spec": {"path": 5}}, [], id="group_path_int"),
    pytest.param({"group_spec": {"path": ["a"]}}, [], id="group_path_list"),
    pytest.param({"templates": {"path": "not_numeric.csv"}}, [], id="template_file_not_numeric"),
    pytest.param({"templates": {"path": "not_finite.csv"}, "group_spec":
                  {"family": "cyclic_rotation_2d", "param": 3}}, [], id="template_file_not_finite"),
    pytest.param({"group_spec": {"path": "nan_generator.json"}}, [], id="group_file_nan_generator"),
    pytest.param({"group_spec": {"path": "param_float.json"}}, [], id="group_file_param_float"),
    pytest.param({"group_spec": {"path": "dim_float.json"}}, [], id="group_file_dim_float"),
    pytest.param({"group_spec": {"path": "dim_bool.json"}}, [], id="group_file_dim_bool"),
])
def test_exit_two_on_malformed_config_value(tmp_path, monkeypatch, capsys, change, flags):
    monkeypatch.chdir(tmp_path)
    for name, text in OUTSIDE_FILES.items():
        (tmp_path / name).write_text(text)
    cfg = write_config(tmp_path, dict(SF2_BOUNDS, **change))
    assert main(["bounds", "--config", cfg, "--out", "out", *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("group_spec", [
    pytest.param({"family": "circular_shifts", "param": 1000}, id="dim_too_large"),
    pytest.param({"path": "missing.json"}, id="group_file_missing"),
])
def test_maxfilter_exits_two_on_a_group_spec_that_fails_to_build(
        tmp_path, monkeypatch, capsys, group_spec):
    # maxfilter filters its signals without the group, but run builds the
    # config's group for every subcommand, so a bad group_spec is an error
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path, {"group_spec": group_spec, "n_pairs": 5, "seed": 3})
    assert main(["maxfilter", "--config", cfg, "--out", "out"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_maxfilter_exits_two_above_the_pair_cap_before_allocating(tmp_path, monkeypatch, capsys):
    # the signals of cap + 1 pairs at d = 256 would take 410 MB
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path, {"group_spec": {"family": "sign_flips", "param": 2},
                                  "n_pairs": cli._MAX_PAIRS + 1, "seed": 3})
    tracemalloc.start()
    try:
        status = main(["maxfilter", "--config", cfg, "--out", "out"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert status == 2
    assert peak < 2 ** 20
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "n_pairs" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_config_rejects_bad_counts():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(dict(SF2_BOUNDS, n_pairs=0))


def test_config_rejects_double_template_source():
    bad = dict(SF2_BOUNDS,
               templates={"path": "x.csv", "sampler": "gaussian", "n": 3})
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(bad)


def test_config_rejects_non_gaussian_sampler():
    bad = dict(SF2_BOUNDS, templates={"sampler": "uniform", "n": 3})
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(bad)


@pytest.mark.parametrize("templates", [5, ["path"]], ids=["int", "list"])
def test_config_rejects_templates_not_an_object(templates):
    with pytest.raises(ConfigError, match="templates must be an object"):
        ExperimentConfig.from_dict(dict(SF2_BOUNDS, templates=templates))


def test_config_rejects_group_spec_without_source():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(dict(SF2_BOUNDS, group_spec={}))


def test_load_config_round_trips_raw(tmp_path):
    cfg_path = write_config(tmp_path, SF2_BOUNDS)
    config, raw = load_config(cfg_path)
    assert raw == SF2_BOUNDS
    assert config.n_pairs == 50
    assert config.seed == 7


# ---------------------------------------------------------------------------
# argparse surface


def test_parser_requires_subcommand():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_parser_requires_config():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["bounds"])


def test_parser_accepts_all_subcommands():
    parser = build_parser()
    for sub in ("bounds", "distortion", "injectivity", "kernel",
                "maxfilter", "chi"):
        ns = parser.parse_args([sub, "--config", "c.json", "--seed", "4"])
        assert ns.subcommand == sub
        assert ns.seed == 4

"""The benchmark's tracer wraps clipreg functions by name and reads their
budget by position; a decompose under it must still give one span per call.
Its set-up probe reads the config fields and calls the cli names it times.

The benchmark runs these wraps only with --trace 1, so this is their guard.
"""

import ast
import json
import subprocess
import sys
from pathlib import Path

import pytest

from clipreg import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))
import run  # noqa: E402
import tracer  # noqa: E402

# growing (2^(k-1)*2 | k) stages at n = 2, small enough to run in a second
CONFIG = {
    "domain": {"n": 2, "q": 1.0},
    "dict": {"d": 2, "r": 1},
    "epsilon": 0.4,
    "quadrature": {"scheme": "low-discrepancy", "size": 2048, "seed": 5},
    "solver": {"restarts": 8, "iterations": 30, "step0": 0.5, "decay": 0.97, "seed": 11},
    "target": {"name": "sign-product", "params": {}},
    "stage_dict": "growing",
}


def test_decompose_spans_per_stage(tmp_path, capsys):
    report_path = tmp_path / "report.json"
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({**CONFIG, "output": {
        "report": str(report_path), "trace": str(tmp_path / "trace.csv"),
        "witness": str(tmp_path / "witness.json")}}))
    with tracer.Tracer().installed() as t:
        assert cli.main(["decompose", "--config", str(cfg_path)]) == 0
    capsys.readouterr()

    report = json.loads(report_path.read_text())
    levels = [report["trace"]["t0"]] + [p["t_after"] for p in report["trace"]["picks"]]
    # the loop searches a stage it then rejects unless it stopped on its
    # budget or on an energy left of at most eps^2 (decomposer._ENERGY_STOP_MARGIN)
    rejected = (not report["budget_exhausted"]
                and levels[-1] > report["epsilon"] ** 2 * (1 - 1e-9))
    attempted = report["m_prime"] + rejected
    assert report["m_prime"] >= 1 and attempted >= 2

    by_name = {}
    for span in t.spans:
        by_name.setdefault(span.name, []).append(span)
    solves = by_name.get("decomposer.stage_solve", [])
    assert len(solves) == attempted
    for name in ("adversary.stage_ascend", "adversary.polish"):
        spans = by_name.get(name, [])
        assert len(spans) == attempted, name
        assert [s.parent for s in spans] == [s.id for s in solves], name
    assert len(by_name.get("adversary.audit", [])) == 1
    for name in ("adversary.stage_ascend", "adversary.polish", "adversary.audit"):
        for span in by_name[name]:
            iters = span.attrs.get("entry_iters")
            assert isinstance(iters, int) and iters > 0, (name, span.attrs)


@pytest.mark.parametrize("epsilon", [0.4, 1.0], ids=["picks", "no-picks"])
def test_verify_fails_on_the_tampered_report(tmp_path, capsys, epsilon):
    # run.tamper alters pick 1, or appends the audit witness as pick 1 to a
    # report without picks; both stay in stage 1's dictionary, so verify
    # must find a failed check (exit 1), not a malformed report (exit 2)
    cfg = {**CONFIG, "epsilon": epsilon}
    report_path = tmp_path / "report.json"
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({**cfg, "output": {
        "report": str(report_path), "trace": str(tmp_path / "trace.csv"),
        "witness": str(tmp_path / "witness.json")}}))
    assert cli.main(["decompose", "--config", str(cfg_path)]) == 0
    report = json.loads(report_path.read_text())
    assert (report["m_prime"] > 0) == (epsilon < 1)
    report_path.write_text(json.dumps(run.tamper(report, cfg)))
    verify = ["verify", "--report", str(report_path), "--config", str(cfg_path)]
    assert cli.main(verify) == 1
    capsys.readouterr()


def test_replay_imports_nothing_from_clipreg():
    # certify_split shares its definitions with decompose; the replay is the
    # one check that shares none, so a fault in them still shows there
    tree = ast.parse((PERFBENCH / "replay.py").read_text())
    modules = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names]
    modules += [node.module or "" for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    assert modules and not [m for m in modules if m.split(".")[0] == "clipreg"], modules


def test_setup_probe_reads_the_config(tmp_path):
    # run.setup_probe's call: the probe imports clipreg.cli, loads the config
    # and builds its quadrature from cfg.domain and cfg.quadrature
    cfg_path = tmp_path / "setup_config.json"
    cfg_path.write_text(json.dumps(run.make_config("fixed-n2", 0, 0)))
    out = subprocess.run([sys.executable, str(PERFBENCH / "setup_probe.py"), str(cfg_path)],
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert set(json.loads(out.stdout)) == {
        "setup.import_s", "config.load_config_s", "measure.build_quadrature_s"}

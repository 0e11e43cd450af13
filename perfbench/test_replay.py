"""The replay checker accepts a real report and rejects altered copies.

    python3 -m pytest perfbench/test_replay.py -q
"""

import contextlib
import copy
import io
import json
import sys
from pathlib import Path

import pytest

import replay
import run

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
from clipreg import cli  # noqa: E402

# small enough to run in a few seconds, large enough to accept a pick
CONFIG = {
    "domain": {"n": 2, "q": 1.0},
    "dict": {"d": 2, "r": 1},
    "epsilon": 0.5,
    "quadrature": {"scheme": "low-discrepancy", "size": 2048, "seed": 5},
    "solver": {"restarts": 8, "iterations": 30, "step0": 0.5, "decay": 0.97, "seed": 11},
    "target": {"name": "sign-product", "params": {}},
}


@pytest.fixture(scope="module")
def decomposition(tmp_path_factory):
    d = tmp_path_factory.mktemp("run")
    cfg = dict(CONFIG, output={"report": str(d / "report.json"),
                               "trace": str(d / "trace.csv"),
                               "witness": str(d / "witness.json")})
    (d / "config.json").write_text(json.dumps(cfg))
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["decompose", "--config", str(d / "config.json")]) == 0
    report = json.loads((d / "report.json").read_text())
    assert report["m_prime"] >= 1, "the fixture config must accept a pick"
    X = replay.sobol_nodes(2, 2048, 5)
    return report, json.loads((d / "witness.json").read_text()), X, (d / "trace.csv").read_text()


def problems(report, witness, X):
    return replay.check_report(report, witness, CONFIG, X, replay.sign_product(X))


def test_honest_report_replays(decomposition):
    report, witness, X, trace_text = decomposition
    assert problems(report, witness, X) == []
    assert replay.check_trace_csv(trace_text, report) == []


def scale_pick_1(key, factor):
    def alter(report):
        report["trace"]["picks"][0][key] *= factor
    return alter


def scale_g_output_weight(report):
    report["g"]["layers"][-1][0]["w"][0] *= 0.99


@pytest.mark.parametrize("alter", [scale_pick_1("gain", 1.01), scale_pick_1("lambda", 0.99),
                                   scale_g_output_weight],
                         ids=["gain", "lambda", "g-output-weight"])
def test_altered_report_is_rejected(decomposition, alter):
    report, witness, X, _ = decomposition
    bad = copy.deepcopy(report)
    alter(bad)
    assert problems(bad, witness, X)


def test_benchmark_tamper_is_rejected(decomposition):
    report, witness, X, _ = decomposition
    bad = run.tamper(report, CONFIG)
    assert bad["trace"]["picks"][0]["gain"] > CONFIG["epsilon"] ** 2
    assert problems(bad, bad["audit"]["result"], X)

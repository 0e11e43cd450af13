import csv
import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import clipreg
from clipreg.cli import main
from clipreg.config import ConfigError, load_config, parse_config
from clipreg.measure import build_quadrature, oracle_from_net
from clipreg.netcore import DomainSpec, RepCert
from clipreg.zoo import ZOO, ZooError, planted_net, zoo


def base_config(**overrides):
    cfg = {
        "domain": {"n": 2, "q": 1.0},
        "dict": {"d": 2, "r": 1},
        "epsilon": 0.5,
        "quadrature": {"scheme": "low-discrepancy", "size": 1024, "seed": 3},
        "solver": {"restarts": 8, "iterations": 60, "step0": 0.5,
                   "decay": 0.97, "seed": 7},
        "target": {"name": "step", "params": {"theta": 0.0}},
    }
    cfg.update(overrides)
    return cfg


def write_config(tmp_path, name="cfg.json", **overrides):
    path = tmp_path / name
    path.write_text(json.dumps(base_config(**overrides)))
    return str(path)


def solver(**changes):
    return {**base_config()["solver"], **changes}


# (field the error must name, config overrides)
BAD_FIELDS = [
    pytest.param("domain.n", {"domain": {"n": True, "q": 1.0}}, id="n-true"),
    pytest.param("dict.d", {"dict": {"d": True, "r": 1}}, id="d-true"),
    pytest.param("solver.restarts", {"solver": solver(restarts=True)}, id="restarts-true"),
    pytest.param("solver.seed", {"solver": solver(seed=False)}, id="seed-false"),
    pytest.param("solver.step0", {"solver": solver(step0=math.nan)}, id="step0-nan"),
    pytest.param("solver.step0", {"solver": solver(step0=math.inf)}, id="step0-inf"),
    pytest.param("domain.q", {"domain": {"n": 2, "q": math.inf}}, id="q-inf"),
    pytest.param("domain.q", {"domain": {"n": 2, "q": 0.5}}, id="q-below-one"),
    pytest.param("domain.q", {"domain": {"n": 2, "q": 10 ** 400}}, id="q-int-beyond-float"),
    pytest.param("epsilon", {"epsilon": 1.5}, id="epsilon-above-one"),
    pytest.param("target.params", {"target": {"name": "sine", "params": [1]}},
                 id="params-list"),
    pytest.param("target.params.kappa",
                 {"target": {"name": "sine", "params": {"kappa": math.nan}}}, id="kappa-nan"),
    pytest.param("target.params.theta",
                 {"target": {"name": "step", "params": {"theta": 2.0}}}, id="theta-range"),
    pytest.param("target.name", {"target": {"name": "chirp"}}, id="unknown-target"),
    pytest.param("quadrature.scheme",
                 {"domain": {"n": 8, "q": 1.0},
                  "quadrature": {"scheme": "tensor-grid", "size": 4, "seed": 0}},
                 id="tensor-grid-n8"),
    pytest.param("quadrature.scheme", {"domain": {"n": 30000, "q": 1.0}},
                 id="low-discrepancy-beyond-table"),
    pytest.param("quadrature.size",
                 {"quadrature": {"scheme": "tensor-grid", "size": 100000, "seed": 0}},
                 id="tensor-grid-over-2pow30-nodes"),
    pytest.param("quadrature.size",
                 {"domain": {"n": 1, "q": 1.0},
                  "quadrature": {"scheme": "tensor-grid", "size": 100000, "seed": 0}},
                 id="tensor-grid-n1-companion"),
    pytest.param("stage_dict", {"stage_dict": "shrinking"}, id="unknown-stage-dict"),
    pytest.param("output.trace", {"output": {"trace": 5}}, id="trace-int"),
    pytest.param("epsilon", {"epsilon": 1e-200}, id="epsilon-square-underflows"),
    pytest.param("epsilon", {"epsilon": 1e-160}, id="epsilon-stage-budget-inf"),
    pytest.param("quadrature.seed",
                 {"quadrature": {"scheme": "low-discrepancy", "size": 1024, "seed": -1}},
                 id="quadrature-seed-negative"),
    pytest.param("solver.seed", {"solver": solver(seed=-8000)}, id="solver-seed-negative"),
    *(pytest.param("target.params.seed", {"target": {"name": name, "params": params}},
                   id=f"{name}-seed-negative")
      for name, params in (("planted-net", {"seed": -2}), ("linear", {"seed": -2}),
                           ("random-grid", {"k": 2, "seed": -2}))),
    pytest.param("target.params.k", {"target": {"name": "random-grid", "params": {"k": 2.5}}},
                 id="random-grid-k-fractional"),
    pytest.param("target.params.seed",
                 {"target": {"name": "random-grid", "params": {"seed": 2.9}}},
                 id="random-grid-seed-fractional"),
    pytest.param("target.params.d", {"target": {"name": "planted-net", "params": {"d": 1.5}}},
                 id="planted-net-d-fractional"),
    pytest.param("target.params.r", {"target": {"name": "planted-net", "params": {"r": 0.5}}},
                 id="planted-net-r-fractional"),
]


class TestZoo:
    def test_registry_names(self):
        assert set(ZOO) == {"linear", "step", "ball", "sign-product",
                            "random-grid", "planted-net", "sine"}

    def test_all_targets_bounded(self, dom2, quad2):
        params = {"linear": {"seed": 1}, "step": {"theta": 0.0},
                  "ball": {"rho": 0.8}, "sign-product": {},
                  "random-grid": {"k": 2, "seed": 2},
                  "planted-net": {"d": 1, "r": 0, "seed": 3},
                  "sine": {"kappa": 2.0}}
        for name in ZOO:
            f = zoo(name, params[name], dom2)
            vals = f.values(quad2)
            assert np.all(np.abs(vals) <= 1.0), name

    def test_unknown_name(self, dom2):
        with pytest.raises(ZooError):
            zoo("chirp", {}, dom2)

    def test_unknown_param_rejected(self, dom2):
        with pytest.raises(ZooError):
            zoo("step", {"theta": 0.0, "amplitude": 2.0}, dom2)

    def test_out_of_range_param_rejected(self, dom2):
        with pytest.raises(ZooError):
            zoo("random-grid", {"k": 17, "seed": 1}, dom2)

    def test_integral_float_params_accepted(self, dom2, quad2):
        # only a fractional part is rejected: 2.0 is the integer 2
        for name, params in (("random-grid", {"k": 2, "seed": 3}),
                             ("planted-net", {"d": 2, "r": 1, "seed": 3}),
                             ("linear", {"seed": 3})):
            as_floats = {key: float(v) for key, v in params.items()}
            assert np.array_equal(zoo(name, as_floats, dom2).values(quad2),
                                  zoo(name, params, dom2).values(quad2)), name

    def test_planted_net_cert_and_determinism(self, dom2, quad2):
        a = planted_net(dom2, 2, 1, seed=9)
        b = planted_net(dom2, 2, 1, seed=9)
        assert a.satisfies(RepCert(2, 1))
        assert np.array_equal(oracle_from_net(a).values(quad2),
                              oracle_from_net(b).values(quad2))

    def test_random_grid_piecewise_constant(self, dom2):
        f = zoo("random-grid", {"k": 1, "seed": 4}, dom2)
        quad = build_quadrature(dom2, "seeded-uniform", 512, seed=1)
        vals = f.values(quad)
        # k=1 gives a 2x2 grid: at most 4 distinct values over the square
        assert len(np.unique(vals)) <= 4

    def test_step_matches_formula(self, dom2, quad2):
        f = zoo("step", {"theta": 0.25}, dom2)
        expected = np.sign(quad2.nodes[:, 0] - 0.25)
        got = f.values(quad2)
        assert np.array_equal(got[expected != 0], expected[expected != 0])


class TestConfig:
    def test_parse_round_trip(self):
        cfg = parse_config(base_config())
        assert cfg.domain == DomainSpec(2, 1.0)
        assert cfg.dict_spec.d == 2 and cfg.dict_spec.r == 1
        assert cfg.epsilon == 0.5
        assert cfg.stage_dict == "fixed"
        assert cfg.output.report == "report.json"

    def test_domain_is_the_dictionary_domain(self):
        # one stored domain: a run on another dimension replaces dict_spec only
        cfg = parse_config(base_config())
        run = replace(cfg, dict_spec=replace(cfg.dict_spec, domain=DomainSpec(4, 1.0)))
        assert run.domain.n == 4

    def test_echo_is_stable(self):
        cfg = parse_config(base_config())
        assert json.dumps(cfg.echo()) == json.dumps(parse_config(base_config()).echo())

    def test_unknown_top_level_field_named(self):
        with pytest.raises(ConfigError) as exc:
            parse_config(base_config(extra_knob=1))
        assert "extra_knob" in str(exc.value)

    def test_missing_field_named(self):
        bad = base_config()
        del bad["solver"]
        with pytest.raises(ConfigError) as exc:
            parse_config(bad)
        assert "solver" in str(exc.value)

    @pytest.mark.parametrize("field_name, overrides", BAD_FIELDS)
    def test_bad_field_named(self, tmp_path, monkeypatch, capsys, field_name, overrides):
        monkeypatch.chdir(tmp_path)
        rc = main(["decompose", "--config", write_config(tmp_path, **overrides)])
        err = capsys.readouterr().err
        assert rc == 2
        assert f"config field {field_name!r}" in err
        assert "Traceback" not in err

    def test_adversary_names_negative_solver_seed(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        rc = main(["adversary", "--config", write_config(tmp_path, solver=solver(seed=-1))])
        err = capsys.readouterr().err
        assert rc == 2
        assert "config field 'solver.seed'" in err
        assert "Traceback" not in err

    def test_seed_must_be_integer(self):
        bad = base_config()
        bad["quadrature"] = {"scheme": "low-discrepancy", "size": 64, "seed": 1.5}
        with pytest.raises(ConfigError) as exc:
            parse_config(bad)
        assert "quadrature.seed" in str(exc.value)

    def test_load_config(self, tmp_path):
        path = write_config(tmp_path)
        cfg = load_config(path)
        assert cfg.target.name == "step"


class TestCliDecompose:
    def test_end_to_end(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, output={
            "report": str(tmp_path / "report.json"),
            "trace": str(tmp_path / "trace.csv"),
            "witness": str(tmp_path / "witness.json"),
        })
        assert main(["decompose", "--config", cfg_path, "--verify"]) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["schema_version"] == 1
        assert report["m_prime"] <= report["m_budget"] == 4
        with open(tmp_path / "trace.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["k", "t_after", "lambda", "gain"]
        assert len(rows) == report["m_prime"] + 1
        assert (tmp_path / "witness.json").exists()

    def test_byte_identical_reruns(self, tmp_path):
        out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (out_a, out_b):
            cfg_path = write_config(tmp_path, output={
                "report": str(out),
                "trace": str(tmp_path / "t.csv"),
                "witness": str(tmp_path / "w.json"),
            })
            assert main(["decompose", "--config", cfg_path]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_missing_config_exit_code(self, tmp_path, capsys):
        assert main(["decompose", "--config", str(tmp_path / "nope.json")]) == 2

    def test_invalid_config_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(base_config(epsilon=-1.0)))
        assert main(["decompose", "--config", str(path)]) == 2
        assert "epsilon" in capsys.readouterr().err

    def test_report_bytes_at_any_blas_thread_count(self, tmp_path):
        # every float64 node sum runs in one fixed order, not in OpenBLAS,
        # whose dot products sum in an order that follows its thread count
        src = str(Path(clipreg.__file__).resolve().parents[1])
        reports = []
        for blas_threads in ("1", "2"):
            out = tmp_path / blas_threads
            out.mkdir()
            cfg_path = write_config(
                out, epsilon=0.3, target={"name": "sign-product", "params": {}},
                quadrature={"scheme": "low-discrepancy", "size": 2 ** 14, "seed": 3},
                solver=solver(iterations=30),
                output={name: str(out / name) for name in ("report", "trace", "witness")})
            env = {**os.environ, "OPENBLAS_NUM_THREADS": blas_threads,
                   "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
            run = subprocess.run([sys.executable, "-m", "clipreg.cli", "decompose",
                                  "--config", cfg_path], env=env, capture_output=True, text=True)
            assert run.returncode == 0, run.stderr
            reports.append((out / "report").read_bytes())
        assert reports[0] == reports[1]


NET = {"n": 2, "q": 1.0, "layers": [[{"w": [0.0, 0.0], "b": 0.0}]]}
# every field certify_split reads, each of the right JSON type
SHAPED_REPORT = {
    "config_echo": {}, "g": NET, "residual_l2_sq": 0.0, "residual_l1": 0.0, "m_prime": 0,
    "m_budget": 4, "budget_exhausted": False, "epsilon": 0.5,
    "trace": {"t0": 0.0, "picks": []},
    "conservative_cert": {"d": 2, "r": 1}, "constructive_cert": {"d": 1, "r": 0},
    "audit": {"invisible_up_to_budget": True, "note": "no witness found at this budget",
              "result": {"value": 0.0, "witness": NET}},
}


def shaped(**changes):
    return json.dumps({**SHAPED_REPORT, **changes})


class TestCliVerify:
    def test_verify_written_report(self, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        cfg_path = write_config(tmp_path, output={
            "report": str(report_path),
            "trace": str(tmp_path / "t.csv"),
            "witness": str(tmp_path / "w.json"),
        })
        assert main(["decompose", "--config", cfg_path]) == 0
        capsys.readouterr()
        assert main(["verify", "--report", str(report_path),
                     "--config", cfg_path]) == 0
        out = capsys.readouterr().out
        assert "g_from_picks: ok" in out
        assert "FAILED" not in out

    def test_verify_flags_tampering(self, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        cfg_path = write_config(tmp_path, output={
            "report": str(report_path),
            "trace": str(tmp_path / "t.csv"),
            "witness": str(tmp_path / "w.json"),
        })
        assert main(["decompose", "--config", cfg_path]) == 0
        obj = json.loads(report_path.read_text())
        obj["residual_l2_sq"] = 0.999
        report_path.write_text(json.dumps(obj))
        assert main(["verify", "--report", str(report_path),
                     "--config", cfg_path]) == 1

    def test_verify_holds_the_report_to_the_config_epsilon(self, tmp_path, capsys):
        # a report that claims a larger epsilon would loosen the gain and
        # audit thresholds it is checked against
        report_path = tmp_path / "report.json"
        cfg_path = write_config(tmp_path, output={
            "report": str(report_path),
            "trace": str(tmp_path / "t.csv"),
            "witness": str(tmp_path / "w.json"),
        })
        assert main(["decompose", "--config", cfg_path]) == 0
        obj = json.loads(report_path.read_text())
        obj["epsilon"] = 0.7
        report_path.write_text(json.dumps(obj))
        capsys.readouterr()
        assert main(["verify", "--report", str(report_path),
                     "--config", cfg_path]) == 1
        assert "epsilon: FAILED" in capsys.readouterr().out

    def test_verify_recomputes_t0(self, tmp_path, capsys):
        # a lower target energy would claim a smaller trace than the target has
        report_path = tmp_path / "report.json"
        cfg_path = write_config(tmp_path, output={
            "report": str(report_path),
            "trace": str(tmp_path / "t.csv"),
            "witness": str(tmp_path / "w.json"),
        })
        assert main(["decompose", "--config", cfg_path]) == 0
        obj = json.loads(report_path.read_text())
        obj["trace"]["t0"] *= 0.9
        report_path.write_text(json.dumps(obj))
        capsys.readouterr()
        assert main(["verify", "--report", str(report_path),
                     "--config", cfg_path]) == 1
        assert "trace.t0: FAILED" in capsys.readouterr().out

    @pytest.mark.parametrize("text, named", [
        ("{}", "'g'"),
        ('{"config_echo": {}}', "'g'"),
        ("{", "invalid JSON"),
        ("[]", "not a JSON object"),
        ('{"config_echo": {}, "g": []}', "'g'"),
        ('{"config_echo": {}, "g": {"n": 2, "q": 1.0, "layers": "ab"}}', "'g.layers'"),
        (shaped(g={**NET, "layers": [[{"w": "x", "b": 0.0}]]}), "'g.layers[0][0].w'"),
        (shaped(m_prime=True), "'m_prime'"),
        (shaped(budget_exhausted=0), "'budget_exhausted'"),
        (shaped(epsilon=math.nan), "'epsilon'"),
        (shaped(trace={"t0": 0.0, "picks": {}}), "'trace.picks'"),
        (shaped(trace={"t0": 0.0, "picks": [{"k": 1, "t_after": 0.0, "gain": "big"}]}),
         "'trace.picks[0].gain'"),
        (shaped(trace={"t0": 0.0, "picks": [{"k": 1, "t_after": 0.0, "gain": 0.5, "lambda": "x",
                                             "element": NET}]}), "'trace.picks[0].lambda'"),
        (shaped(constructive_cert={"d": 1}), "'constructive_cert.r'"),
        (shaped(audit={"result": {"value": None, "witness": NET}}), "'audit.result.value'"),
        (shaped(residual_l1="0"), "'residual_l1'"),
        (shaped(audit={**SHAPED_REPORT["audit"], "invisible_up_to_budget": 0}),
         "'audit.invisible_up_to_budget'"),
        (shaped(audit={**SHAPED_REPORT["audit"], "note": None}), "'audit.note'"),
        (shaped(g={**NET, "n": 3}), "'g.n'"),
        (shaped(constructive_cert={"d": 0, "r": 0}), "'constructive_cert.d'"),
        (shaped(g={**NET, "layers": [[{"w": [5.0, 0.0], "b": 0.0}]]}), "'g.layers'"),
        (shaped(g={**NET, "layers": [[{"w": [0.0, 0.0], "b": 0.0}, {"w": [0.0], "b": 0.0}],
                                     [{"w": [0.0, 0.0], "b": 0.0}]]}), "'g.layers'"),
        (shaped(g={**NET, "q": 5.0, "layers": [[{"w": [5.0, 0.0], "b": 0.0}]]}), "'g.q'"),
        (shaped(trace={"t0": 0.0, "picks": [{"k": 1, "t_after": 0.0, "gain": 0.5, "lambda": 1.0,
                                             "element": {**NET, "layers": [[{"w": [5.0, 0.0],
                                                                            "b": 0.0}]]}}]}),
         "'trace.picks[0].element.layers'"),
        # NET has no hidden layer, and the config's dictionary is (2|1)
        (shaped(), "'audit.result.witness'"),
    ], ids=["empty", "no-g", "bad-json", "list", "g-list", "layers-string", "unit-w-string",
            "m-prime-bool", "exhausted-int", "epsilon-nan", "picks-object", "gain-string", "lambda-string", "cert-no-r", "audit-value-null",
            "l1-string", "invisible-int", "note-null",
            "g-n-mismatch", "cert-d-zero", "weight-outside-q", "ragged-w-rows",
            "g-q-mismatch", "element-weight-outside-q", "witness-not-of-the-dictionary"])
    def test_malformed_report_exit_code(self, tmp_path, capsys, text, named):
        report_path = tmp_path / "report.json"
        report_path.write_text(text)
        assert main(["verify", "--report", str(report_path),
                     "--config", write_config(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and named in err
        assert "Traceback" not in err


class TestCliSweep:
    def test_sweep_csv(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, target={"name": "ball",
                                                  "params": {"rho": 0.8}})
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--config", cfg_path, "--n", "2,4",
                     "--out", str(out)]) == 0
        with open(out) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["n", "m_prime", "residual_l2_sq", "audit_value"]
        assert [r[0] for r in rows[1:]] == ["2", "4"]
        for row in rows[1:]:
            assert int(row[1]) <= 4

    def test_sweep_keeps_rows_before_a_rejected_dimension(self, tmp_path, capsys):
        # the tensor grid is rejected above n = 4, after the n = 2 run
        cfg_path = write_config(tmp_path, quadrature={"scheme": "tensor-grid", "size": 16,
                                                      "seed": 0})
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--config", cfg_path, "--n", "2,30", "--out", str(out)]) == 2
        assert "quadrature.scheme" in capsys.readouterr().err
        with open(out) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["n", "m_prime", "residual_l2_sq", "audit_value"]
        assert [r[0] for r in rows[1:]] == ["2"]

    # --n is parsed by argparse, which exits 2 before any run
    def test_sweep_bad_dims(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--config", cfg_path, "--n", "2,x",
                  "--out", str(tmp_path / "s.csv")])
        assert exc.value.code == 2

    def test_sweep_rejects_dimension_zero(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path)
        out = tmp_path / "s.csv"
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--config", cfg_path, "--n", "2,0", "--out", str(out)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--n" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("dims", [",", ""])
    def test_sweep_rejects_no_dimension(self, tmp_path, capsys, dims):
        cfg_path = write_config(tmp_path)
        out = tmp_path / "s.csv"
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--config", cfg_path, "--n", dims, "--out", str(out)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--n" in err and "Traceback" not in err
        assert not out.exists()


class TestCliMisc:
    def test_zoo_list(self, capsys):
        assert main(["zoo", "list"]) == 0
        out = capsys.readouterr().out
        for name in ZOO:
            assert name in out

    def test_zoo_unknown_action(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["zoo", "nope"])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_adversary_subcommand(self, tmp_path, capsys):
        out = tmp_path / "adv.json"
        cfg_path = write_config(tmp_path, output={
            "report": str(out),
            "trace": str(tmp_path / "t.csv"),
            "witness": str(tmp_path / "w.json"),
        })
        assert main(["adversary", "--config", cfg_path]) == 0
        obj = json.loads(out.read_text())
        assert obj["lower_bound_only"] is True
        assert 0.0 <= obj["value"] <= 1.0

    def test_threads_do_not_change_output(self, tmp_path):
        outs = []
        for threads, name in ((1, "t1.json"), (8, "t8.json")):
            out = tmp_path / name
            cfg_path = write_config(tmp_path, output={
                "report": str(out),
                "trace": str(tmp_path / "t.csv"),
                "witness": str(tmp_path / "w.json"),
            })
            assert main(["decompose", "--config", cfg_path,
                         "--threads", str(threads)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("command", ["decompose", "adversary", "sweep"])
    def test_threads_below_one_rejected(self, tmp_path, capsys, command):
        argv = [command, "--config", write_config(tmp_path), "--threads", "0"]
        with pytest.raises(SystemExit) as exc:
            main(argv + (["--n", "2"] if command == "sweep" else []))
        assert exc.value.code == 2
        assert "--threads" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["decompose", "verify"])
    def test_long_integer_literal_exit_code(self, tmp_path, monkeypatch, capsys, command):
        # json.load raises a plain ValueError for an integer literal past
        # Python's 4300-digit int-string limit; it is invalid JSON, exit 2
        monkeypatch.chdir(tmp_path)
        digits = "9" * 5000
        config = json.dumps(base_config())
        assert config.count('"seed": 7') == 1
        (tmp_path / "long.json").write_text(config.replace('"seed": 7', f'"seed": {digits}'))
        (tmp_path / "report.json").write_text(shaped().replace('"m_prime": 0',
                                                               f'"m_prime": {digits}'))
        write_config(tmp_path)
        argv = (["decompose", "--config", "long.json"] if command == "decompose" else
                ["verify", "--report", "report.json", "--config", "cfg.json"])
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "invalid JSON" in err and "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["decompose", "--config", "dir"],
        ["decompose", "--config", "latin1.json"],
        ["verify", "--report", "dir", "--config", "cfg.json"],
        ["verify", "--report", "latin1.json", "--config", "cfg.json"],
        ["decompose", "--config", "to_dir.json"],
    ], ids=["config-dir", "config-not-utf8", "report-dir", "report-not-utf8", "output-dir"])
    def test_unreadable_input_exit_code(self, tmp_path, monkeypatch, capsys, argv):
        # exit 1 is verify's "a check failed"; a path that cannot be read is bad input
        monkeypatch.chdir(tmp_path)
        (tmp_path / "dir").mkdir()
        (tmp_path / "latin1.json").write_bytes(b'{"caf\xe9": 1}')
        write_config(tmp_path)
        write_config(tmp_path, "to_dir.json", output={"report": "dir"})
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

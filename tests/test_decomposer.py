import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clipreg import decomposer
from clipreg.config import QuadratureSpec, RunConfig, TargetSpec
from clipreg.adversary import (AdversaryResult, Budget, DictSpec, ascend, audit_verdict,
                               best_gain_element)
from clipreg.decomposer import (
    _STAGE_SEED_STRIDE,
    DecomposeError,
    certify_split,
    decompose,
    m_budget_for,
    stage_solve,
)
from clipreg.measure import FunctionOracle, MeasureError, build_quadrature, oracle_from_net
from clipreg.netcore import (DomainSpec, RepCert, compose_parallel, net_from_dict, net_to_dict,
                             pad_depth, zero_net)
from clipreg.zoo import planted_net, zoo
from conftest import clamped_step, const_oracle, node_major_values

FAST = Budget(restarts=16, iterations=120)
EPS = 0.4


@pytest.fixture(scope="module")
def run_step():
    """One fully solved decomposition, shared across the checks below."""
    dom = DomainSpec(2, 1.0)
    quad = build_quadrature(dom, "low-discrepancy", 4096, seed=3)
    f = zoo("step", {"theta": 0.0}, dom)
    report = decompose(quad, DictSpec(2, 1, dom), f, epsilon=EPS,
                       budget=FAST, seed=42)
    return dom, quad, f, report


def _run_config(dom, stage_dict="fixed"):
    """run_step's config: its dictionary, epsilon, budget and solver seed."""
    return RunConfig(DictSpec(2, 1, dom), EPS, QuadratureSpec("low-discrepancy", 4096, 3), FAST,
                     42, TargetSpec("step", {"theta": 0.0}), stage_dict)


def _certify(report: dict, run_step, stage_dict="fixed"):
    """certify_split against run_step's own config, or that config with
    another stage_dict."""
    dom, quad, f, _ = run_step
    return certify_split(report, quad, f, _run_config(dom, stage_dict))


class TestMBudget:
    def test_pinned_values(self):
        # [TRIVIAL] ceil(1/eps^2)
        assert m_budget_for(1.0) == 1
        assert m_budget_for(0.5) == 4
        assert m_budget_for(0.1) == 100

    def test_general(self):
        for eps in (0.9, 0.35, 0.3, 0.25):
            assert m_budget_for(eps) == math.ceil(1.0 / eps ** 2)

    def test_rejects_out_of_range(self):
        for eps in (0.0, -0.5, 1.5):
            with pytest.raises(DecomposeError):
                m_budget_for(eps)

    @pytest.mark.parametrize("eps", [1e-200, 1e-160, 5e-324])
    def test_rejects_non_finite_budget(self, eps):
        # eps^2 underflows to 0, or 1/eps^2 overflows to inf
        with pytest.raises(DecomposeError) as exc:
            m_budget_for(eps)
        assert exc.value.param == "epsilon"

    @given(st.floats(min_value=1e-3, max_value=1.0))
    @settings(max_examples=50, deadline=None)
    def test_budget_property(self, eps):
        m = m_budget_for(eps)
        assert m >= 1.0 / eps ** 2 - 1e-9
        assert m - 1 < 1.0 / eps ** 2


class TestStageSolve:
    # the growing dictionary's stage specs at k = 2, 3 from (2|1)
    @pytest.mark.parametrize("d, r", [(4, 2), (8, 3)])
    def test_values_are_net_values_bits(self, dom2, quad2, d, r):
        f = zoo("sign-product", {}, dom2)
        element, values, _, _ = stage_solve(quad2, DictSpec(d, r, dom2), f.values(quad2),
                                            Budget(8, 30), seed=d)
        assert np.array_equal(values, element.eval_batch(quad2.nodes))
        np.testing.assert_allclose(values, node_major_values(element, quad2.nodes),
                                   rtol=0, atol=1e-12)

    @pytest.mark.parametrize("seed", [0, 7])
    def test_element_is_polish_winner(self, dom2, quad2, seed):
        f = zoo("sign-product", {}, dom2)
        spec, budget = DictSpec(2, 1, dom2), Budget(16, 100)
        fv, w = f.values(quad2), quad2.weights
        element, values, lam, gain = stage_solve(quad2, spec, fv, budget, seed=seed)
        witness = ascend(quad2, spec, fv, budget, seed, prune=True).witness
        winner = best_gain_element(quad2, spec, fv, replace(budget, restarts=8), seed + 1,
                                   warm_start=witness)
        assert net_to_dict(element) == net_to_dict(winner)
        assert (lam, gain) == clamped_step(values, w, fv, 1.0)
        assert gain >= clamped_step(witness.eval_batch(quad2.nodes), w, fv, 1.0)[1] - 1e-12


class TestDecompose:
    def test_stage_bound_holds(self, run_step):
        _, _, _, report = run_step
        assert report.m_prime <= report.m_budget == m_budget_for(0.4)

    def test_trace_monotone_and_starts_below_one(self, run_step):
        _, _, _, report = run_step
        assert report.trace.t0 <= 1.0 + 1e-9
        assert report.trace.is_monotone()

    def test_gains_strictly_exceed_threshold(self, run_step):
        _, _, _, report = run_step
        for pick in report.trace.picks:
            assert pick.gain > 0.4 ** 2

    def test_split_is_exact(self, run_step):
        _, quad, f, report = run_step
        gvals = oracle_from_net(report.g).values(quad)
        fvals = f.values(quad)
        rvals = fvals - gvals
        assert np.max(np.abs(fvals - (gvals + rvals))) <= 1e-12
        assert quad.integral(rvals * rvals) == pytest.approx(
            report.residual_l2_sq, abs=1e-10)

    def test_certificates(self, run_step):
        _, _, _, report = run_step
        m = report.m_prime
        assert report.conservative_cert == RepCert(2 ** m * 2, 1 + m)
        assert report.conservative_cert.dominates(report.constructive_cert)
        assert report.g.cert == report.constructive_cert

    def test_certify_split_passes(self, run_step):
        _, _, _, report = run_step
        verdict = _certify(report.to_dict(), run_step)
        assert verdict["ok"], verdict["details"]

    def test_zero_function_needs_no_stages(self, dom2, quad2):
        report = decompose(quad2, DictSpec(2, 1, dom2), const_oracle(0),
                           epsilon=0.5, budget=Budget(4, 30), seed=1)
        assert report.m_prime == 0
        assert report.residual_l2_sq == pytest.approx(0.0, abs=1e-12)
        assert report.g.cert == RepCert(1, 0)

    def test_already_invisible_function_untouched(self, dom2, quad2):
        # odd, high-frequency-ish target with tiny correlation against the
        # very small (1|0) family at a loose threshold
        f = FunctionOracle(lambda X: np.sin(6 * np.pi * X[:, 0]) * 0.9, "hf")
        report = decompose(quad2, DictSpec(1, 0, dom2), f, epsilon=0.9,
                           budget=FAST, seed=8)
        assert report.m_prime == 0

    def test_deterministic(self, dom2, quad2):
        f = zoo("sign-product", {}, dom2)
        spec = DictSpec(2, 1, dom2)
        a = decompose(quad2, spec, f, 0.5, FAST, seed=10)
        b = decompose(quad2, spec, f, 0.5, FAST, seed=10)
        assert json.dumps(a.to_dict(), sort_keys=True) == json.dumps(
            b.to_dict(), sort_keys=True)

    def test_planted_is_recovered(self, dom2):
        quad = build_quadrature(dom2, "low-discrepancy", 4096, seed=3)
        f = oracle_from_net(planted_net(dom2, 1, 0, seed=77))
        report = decompose(quad, DictSpec(1, 0, dom2), f, epsilon=0.3,
                           budget=Budget(32, 300), seed=5)
        assert report.m_prime <= 2
        assert report.residual_l2_sq <= 0.01

    def test_growing_dictionary_expands_cert(self, dom2, quad2):
        f = zoo("step", {"theta": 0.25}, dom2)
        report = decompose(quad2, DictSpec(1, 1, dom2), f, epsilon=0.45,
                           budget=FAST, seed=12, stage_dict="growing")
        for pick in report.trace.picks:
            k = pick.k
            assert pick.element.satisfies(RepCert(2 ** (k - 1) * 1, 1 + (k - 1)))

    def test_rejects_unknown_stage_dict(self, dom2, quad2):
        with pytest.raises(DecomposeError):
            decompose(quad2, DictSpec(1, 0, dom2), const_oracle(0), 0.5,
                      Budget(2, 10), seed=1, stage_dict="shrinking")

    def test_rejects_a_target_outside_the_unit_interval(self, run_step):
        # 1.5 at a few nodes, with t0 still below 1; certify_split reads the
        # target by the same check
        dom, quad, _, report = run_step
        f = FunctionOracle(lambda X: np.where(X[:, 0] > 0.995, 1.5, 0.5), "spike")
        assert 0 < np.sum(f.values(quad) > 1) < 20 and quad.integral(f.values(quad) ** 2) < 1
        for run in (lambda: decompose(quad, DictSpec(2, 1, dom), f, EPS, FAST, seed=42),
                    lambda: certify_split(report.to_dict(), quad, f, _run_config(dom))):
            with pytest.raises(DecomposeError) as exc:
                run()
            assert exc.value.param == "target"

    def test_non_finite_target_rejected(self, dom2, quad2):
        f = FunctionOracle(lambda X: np.where(X[:, 0] > 0.5, np.nan, 0.5), "nan")
        with pytest.raises(MeasureError):
            decompose(quad2, DictSpec(1, 0, dom2), f, 0.5, Budget(2, 10), seed=1)

    def test_lambda_within_weight_box(self, run_step):
        dom, _, _, report = run_step
        for pick in report.trace.picks:
            assert abs(pick.lam) <= dom.q + 1e-12


@pytest.fixture
def stage_gains(monkeypatch):
    """The gain of every stage_solve call that decompose makes, in order."""
    gains = []

    def counted(*args, **kwargs):
        out = stage_solve(*args, **kwargs)
        gains.append(out[3])
        return out

    monkeypatch.setattr(decomposer, "stage_solve", counted)
    return gains


# runs that end below eps^2, each after a few accepted stages, and one that
# ends above it: (target, params, epsilon, stage_dict, budget)
ENERGY_STOPS = {
    "fixed": ("step", {"theta": 0.0}, 0.45, "fixed", Budget(8, 40)),
    "growing": ("sign-product", {}, 0.5, "growing", Budget(16, 60)),
}
SEARCH_STOP = ("sign-product", {}, 0.3, "fixed", Budget(8, 40))
STOP_SEED = 3


def _run(dom2, quad2, case):
    name, params, eps, stage_dict, budget = case
    return decompose(quad2, DictSpec(2, 1, dom2), zoo(name, params, dom2), eps, budget,
                     seed=STOP_SEED, stage_dict=stage_dict)


class TestEnergyStop:
    """The loop stops without a search once the level is at most eps^2: no
    gain exceeds the energy left, so that search could not be accepted."""

    @pytest.mark.parametrize("stage_dict", ["fixed", "growing"])
    def test_no_stage_after_the_level_reaches_eps_sq(self, dom2, quad2, stage_gains,
                                                    stage_dict):
        report = _run(dom2, quad2, ENERGY_STOPS[stage_dict])
        assert 1 <= report.m_prime < report.m_budget
        assert report.trace.levels()[-1] <= report.epsilon ** 2
        assert not report.budget_exhausted
        assert len(stage_gains) == report.m_prime
        assert all(g > report.epsilon ** 2 for g in stage_gains)

    @pytest.mark.parametrize("stage_dict", ["fixed", "growing"])
    def test_skipped_stage_would_be_rejected(self, dom2, quad2, stage_dict):
        name, params, eps, _, budget = ENERGY_STOPS[stage_dict]
        report = _run(dom2, quad2, ENERGY_STOPS[stage_dict])
        # the loop's residual after its last pick, and the stage it skipped
        resvals = zoo(name, params, dom2).values(quad2)
        for p in report.trace.picks:
            resvals = resvals - p.lam * p.element.eval_batch(quad2.nodes)
        k = report.m_prime + 1
        spec = (DictSpec(2 ** (k - 1) * 2, 1 + k - 1, dom2) if stage_dict == "growing"
                else DictSpec(2, 1, dom2))
        _, _, _, gain = stage_solve(quad2, spec, resvals, budget,
                                    STOP_SEED + _STAGE_SEED_STRIDE * k)
        assert gain <= quad2.integral(resvals * resvals) * (1 + 1e-12)
        assert gain <= eps ** 2

    def test_low_energy_target_searches_nothing(self, dom2, quad2, stage_gains):
        # t0 = 0.09 <= eps^2 = 0.25
        report = decompose(quad2, DictSpec(2, 1, dom2), const_oracle(0.3), epsilon=0.5,
                           budget=Budget(4, 30), seed=1)
        assert stage_gains == []
        assert report.m_prime == 0 and not report.budget_exhausted
        assert net_to_dict(report.g) == net_to_dict(zero_net(dom2))
        assert report.trace.levels() == [pytest.approx(0.09, abs=1e-12)]

    @pytest.mark.parametrize("stage_dict", ["fixed", "growing"])
    def test_report_equals_the_loop_without_the_stop(self, dom2, quad2, monkeypatch,
                                                     stage_dict):
        stopped = _run(dom2, quad2, ENERGY_STOPS[stage_dict])
        monkeypatch.setattr(decomposer, "_ENERGY_STOP_MARGIN", math.inf)  # never fires
        searched = _run(dom2, quad2, ENERGY_STOPS[stage_dict])
        assert stopped.to_dict() == searched.to_dict()

    def test_level_above_eps_sq_still_searches(self, dom2, quad2, stage_gains):
        report = _run(dom2, quad2, SEARCH_STOP)
        assert report.trace.levels()[-1] > report.epsilon ** 2
        assert report.m_prime < report.m_budget and not report.budget_exhausted
        assert len(stage_gains) == report.m_prime + 1
        assert stage_gains[-1] <= report.epsilon ** 2


class TestReportRoundTrip:
    def test_dict_round_trip(self, run_step):
        dom, quad, _, report = run_step
        clone = json.loads(json.dumps(report.to_dict()))
        assert clone["m_prime"] == report.m_prime
        assert clone["residual_l2_sq"] == report.residual_l2_sq
        trace = clone["trace"]
        assert [trace["t0"]] + [p["t_after"] for p in trace["picks"]] == report.trace.levels()
        gv = oracle_from_net(report.g).values(quad)
        cv = oracle_from_net(net_from_dict(clone["g"], dom)).values(quad)
        assert np.array_equal(gv, cv)
        verdict = _certify(clone, run_step)
        assert verdict["ok"], verdict["details"]

    def test_schema_version_present(self, run_step):
        _, _, _, report = run_step
        assert report.to_dict()["schema_version"] == 1

    def test_audit_is_the_search_result(self, run_step):
        # the verdict is derived from the stored value, as certify_split derives it
        _, _, _, report = run_step
        assert isinstance(report.audit, AdversaryResult)
        assert report.to_dict()["audit"] == {**audit_verdict(report.audit.value, EPS),
                                             "result": report.audit.to_dict()}


@pytest.fixture(scope="module")
def two_picks(dom2, quad2):
    """A fixed and a growing run of two accepted picks each, by stage_dict:
    (report, quad, target, the run's config)."""
    runs = {}
    for name, params, eps, stage_dict, budget in (SEARCH_STOP, ENERGY_STOPS["growing"]):
        report = _run(dom2, quad2, (name, params, eps, stage_dict, budget))
        assert report.m_prime == 2
        cfg = RunConfig(DictSpec(2, 1, dom2), eps, QuadratureSpec("low-discrepancy", 2048, 3),
                        budget, STOP_SEED, TargetSpec(name, params), stage_dict)
        runs[stage_dict] = report, quad2, zoo(name, params, dom2), cfg
    return runs


def _check(verdict, name):
    return next(c for c in verdict["details"] if c["check"] == name)


class TestCertifySplit:
    def test_flags_tampered_residual(self, run_step):
        _, _, _, report = run_step
        broken = report.to_dict()
        broken["residual_l2_sq"] = report.residual_l2_sq + 0.5
        verdict = _certify(broken, run_step)
        assert not verdict["ok"]
        assert not _check(verdict, "residual_l2_sq")["ok"]

    def test_flags_tampered_trace(self, run_step):
        _, _, _, report = run_step
        broken = report.to_dict()
        broken["trace"]["t0"] = 1.5
        verdict = _certify(broken, run_step)
        assert not verdict["ok"]
        assert not _check(verdict, "trace.t0")["ok"]

    def test_flags_g_not_built_from_picks(self, run_step):
        _, _, _, report = run_step
        assert report.m_prime >= 1
        assert _check(_certify(report.to_dict(), run_step), "g_from_picks")["ok"]
        broken = report.to_dict()
        broken["trace"]["picks"][0]["lambda"] /= 2.0
        verdict = _certify(broken, run_step)
        assert not verdict["ok"]
        assert not _check(verdict, "g_from_picks")["ok"]

    def test_flags_m_prime_not_the_pick_count(self, run_step):
        _, _, _, report = run_step
        assert report.m_prime >= 1
        assert _check(_certify(report.to_dict(), run_step), "m_prime")["ok"]
        broken = report.to_dict()
        broken["m_prime"] = 0
        verdict = _certify(broken, run_step)
        assert not verdict["ok"]
        assert not _check(verdict, "m_prime")["ok"]

    @pytest.mark.parametrize("field, value, check", [
        ("epsilon", 0.45, "epsilon"),
        ("m_budget", 1000, "m_budget"),
        ("conservative_cert", {"d": 999, "r": 999}, "conservative_cert"),
        ("budget_exhausted", True, "budget_exhausted"),
        ("residual_l1", 0.0, "residual_l1"),
        ("audit.invisible_up_to_budget", False, "audit.invisible_up_to_budget"),
        ("audit.note", "witness exceeds threshold", "audit.note"),
        ("audit.result.value", 0.0, "audit.result.value"),
        ("audit.result.witness.layers.0.0.b", lambda b: b / 2.0, "audit.result.value"),
        ("trace.picks.0.k", 5, "trace.picks.k"),
        ("trace.t0", lambda t0: t0 * 0.9, "trace.t0"),
        # still dominated by the conservative certificate and satisfied by g
        ("constructive_cert", lambda c: {**c, "d": c["d"] + 1}, "constructive_cert"),
        # the run's identity: its solver seed, the audit's seed and budget
        ("seed", 0, "seed"),
        ("audit.result.seed", 1, "audit.result.seed"),
        ("audit.result.budget.iterations", 1, "audit.result.budget"),
        ("schema_version", 7, "schema_version"),
    ], ids=["epsilon", "m-budget", "conservative-cert", "budget-exhausted", "residual-l1",
            "audit-flag", "audit-note", "audit-value-zero", "witness-bias-halved", "pick-k",
            "t0", "constructive-cert", "seed", "audit-seed", "audit-budget",
            "schema-version"])
    def test_flags_report_not_of_the_config(self, run_step, field, value, check):
        # `field` is a dotted path into the report, a number indexing a list;
        # a callable `value` maps the field's value to the tampered one
        _, _, _, report = run_step
        assert _check(_certify(report.to_dict(), run_step), check)["ok"]
        broken = report.to_dict()
        *path, key = (int(name) if name.isdecimal() else name for name in field.split("."))
        parent = broken
        for name in path:
            parent = parent[name]
        if callable(value):
            value = value(parent[key])
        assert parent[key] != value  # the edit changes the report
        parent[key] = value
        verdict = _certify(broken, run_step)
        assert not verdict["ok"]
        assert not _check(verdict, check)["ok"]

    def test_rejects_a_stored_q_off_the_domain(self, run_step):
        _, _, _, report = run_step
        broken = report.to_dict()
        broken["trace"]["picks"][0]["element"]["q"] = 5.0
        with pytest.raises(DecomposeError) as exc:
            _certify(broken, run_step)
        assert exc.value.param == "trace.picks[0].element.q"

    @pytest.mark.parametrize("stage_dict", ["fixed", "growing"])
    def test_rejects_an_identity_padded_pick(self, two_picks, stage_dict):
        # pick 1 with hidden widths (2, 1) in a (2|1) run computes the same
        # values, and g and its certificate are recomposed to match
        report, quad, f, cfg = two_picks[stage_dict]
        picks = (replace(report.trace.picks[0],
                         element=pad_depth(report.trace.picks[0].element, 1)),
                 *report.trace.picks[1:])
        g = compose_parallel([p.element for p in picks], [p.lam for p in picks], cfg.domain)
        broken = replace(report, g=g, trace=replace(report.trace, picks=picks),
                         constructive_cert=g.cert).to_dict()
        assert certify_split(report.to_dict(), quad, f, cfg)["ok"]
        with pytest.raises(DecomposeError) as exc:
            certify_split(broken, quad, f, cfg)
        assert exc.value.param == "trace.picks[0].element"

    @pytest.mark.parametrize("stage_dict, swapped", [("fixed", "growing"), ("growing", "fixed")])
    def test_rejects_picks_of_another_stage_dict(self, two_picks, stage_dict, swapped):
        report, quad, f, cfg = two_picks[stage_dict]
        with pytest.raises(DecomposeError) as exc:
            certify_split(report.to_dict(), quad, f, replace(cfg, stage_dict=swapped))
        assert exc.value.param == "trace.picks[1].element"

    def test_rejects_an_unknown_stage_dict(self, run_step):
        _, _, _, report = run_step
        with pytest.raises(DecomposeError) as exc:
            _certify(report.to_dict(), run_step, stage_dict="bogus")
        assert exc.value.param == "stage_dict"

    def test_check_names_are_unique(self, run_step):
        _, _, _, report = run_step
        names = [c["check"] for c in _certify(report.to_dict(), run_step)["details"]]
        assert len(names) == len(set(names))

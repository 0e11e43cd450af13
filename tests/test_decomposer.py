import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clipreg.adversary import Budget, DictSpec, _stage_ascend, best_gain_element
from clipreg.decomposer import (
    DecomposeError,
    certify_split,
    decompose,
    m_budget_for,
    stage_solve,
)
from clipreg.measure import FunctionOracle, MeasureError, build_quadrature, oracle_from_net
from clipreg.netcore import DomainSpec, RepCert, net_from_dict, net_to_dict
from clipreg.zoo import planted_net, zoo
from conftest import clamped_step, const_oracle

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


def _certify(report: dict, run_step):
    """certify_split against run_step's own epsilon and dictionary."""
    dom, quad, f, _ = run_step
    return certify_split(report, quad, f, EPS, DictSpec(2, 1, dom))


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
    def test_values_are_eval_batch_bits(self, dom2, quad2, d, r):
        f = zoo("sign-product", {}, dom2)
        element, values, _, _ = stage_solve(quad2, DictSpec(d, r, dom2), f,
                                            Budget(8, 30), seed=d)
        assert np.array_equal(values, element.eval_batch(quad2.nodes))

    @pytest.mark.parametrize("seed", [0, 7])
    def test_element_is_polish_winner(self, dom2, quad2, seed):
        f = zoo("sign-product", {}, dom2)
        spec, budget = DictSpec(2, 1, dom2), Budget(16, 100)
        element, values, lam, gain = stage_solve(quad2, spec, f, budget, seed=seed)
        witness = _stage_ascend(quad2, spec, f, budget, seed).witness
        winner = best_gain_element(quad2, spec, f, replace(budget, restarts=8), seed + 1,
                                   warm_start=witness)
        assert net_to_dict(element) == net_to_dict(winner)
        fv, w = f.values(quad2), quad2.weights
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
        assert float(np.dot(quad.weights, rvals * rvals)) == pytest.approx(
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

    def test_non_finite_target_rejected(self, dom2, quad2):
        f = FunctionOracle(lambda X: np.where(X[:, 0] > 0.5, np.nan, 0.5), "nan")
        with pytest.raises(MeasureError):
            decompose(quad2, DictSpec(1, 0, dom2), f, 0.5, Budget(2, 10), seed=1)

    def test_lambda_within_weight_box(self, run_step):
        dom, _, _, report = run_step
        for pick in report.trace.picks:
            assert abs(pick.lam) <= dom.q + 1e-12


class TestReportRoundTrip:
    def test_dict_round_trip(self, run_step):
        _, quad, _, report = run_step
        clone = json.loads(json.dumps(report.to_dict()))
        assert clone["m_prime"] == report.m_prime
        assert clone["residual_l2_sq"] == report.residual_l2_sq
        trace = clone["trace"]
        assert [trace["t0"]] + [p["t_after"] for p in trace["picks"]] == report.trace.levels()
        gv = oracle_from_net(report.g).values(quad)
        cv = oracle_from_net(net_from_dict(clone["g"])).values(quad)
        assert np.array_equal(gv, cv)
        verdict = _certify(clone, run_step)
        assert verdict["ok"], verdict["details"]

    def test_schema_version_present(self, run_step):
        _, _, _, report = run_step
        assert report.to_dict()["schema_version"] == 1


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
        assert not _check(verdict, "trace_t0")["ok"]

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
        assert _check(_certify(report.to_dict(), run_step), "m_prime_picks")["ok"]
        broken = report.to_dict()
        broken["m_prime"] = 0
        verdict = _certify(broken, run_step)
        assert not verdict["ok"]
        assert not _check(verdict, "m_prime_picks")["ok"]

    @pytest.mark.parametrize("field, value, check", [
        ("epsilon", 0.45, "epsilon"),
        ("m_budget", 1000, "m_budget"),
        ("conservative_cert", {"d": 999, "r": 999}, "cert_conservative"),
    ], ids=["epsilon", "m-budget", "conservative-cert"])
    def test_flags_report_not_of_the_config(self, run_step, field, value, check):
        _, _, _, report = run_step
        assert _check(_certify(report.to_dict(), run_step), check)["ok"]
        broken = report.to_dict()
        broken[field] = value
        verdict = _certify(broken, run_step)
        assert not verdict["ok"]
        assert not _check(verdict, check)["ok"]

import numpy as np
import pytest

from clipreg.adversary import (
    _CHUNK,
    _SEARCH_NODES,
    AdversaryError,
    Budget,
    DictSpec,
    _ascend_chunk,
    _backward,
    _buffers,
    _forward,
    _forward_all,
    _mirror,
    _objective_linear,
    ascend,
    best_gain_element,
    invisibility_audit,
    sigma_dr,
)
from clipreg.measure import (
    FunctionOracle,
    build_quadrature,
    inner,
    l2_norm_sq,
    oracle_from_net,
    oracle_from_values,
    sigma_l1,
)
from clipreg.netcore import DomainSpec, Layer, RepCert, RepNet
from clipreg.zoo import planted_net
from conftest import const_oracle, reference_step

SMALL = Budget(restarts=16, iterations=150)


class TestDictSpec:
    def test_arch(self, dom2):
        assert DictSpec(3, 2, dom2).arch() == [2, 3, 3, 1]

    def test_depth_zero(self, dom2):
        assert DictSpec(5, 0, dom2).arch() == [2, 1]

    def test_rejects_bad_width(self, dom2):
        with pytest.raises(AdversaryError):
            DictSpec(0, 1, dom2)

    def test_rejects_negative_depth(self, dom2):
        with pytest.raises(AdversaryError):
            DictSpec(2, -1, dom2)


class TestCorrelation:
    def test_constant_pair(self, dom1, quad1):
        net = RepNet(dom1, (Layer(np.zeros((1, 1)), np.array([1.0])),))
        assert inner(quad1, oracle_from_net(net), const_oracle(1)) == pytest.approx(1.0)

    def test_sign_flip(self, dom1, quad1):
        net = RepNet(dom1, (Layer(np.zeros((1, 1)), np.array([1.0])),))
        assert inner(quad1, oracle_from_net(net), const_oracle(-1)) == pytest.approx(-1.0)


class TestAscend:
    def test_deterministic(self, dom2, quad2):
        f = FunctionOracle(lambda X: np.sign(X[:, 0]), "step")
        a = ascend(quad2, DictSpec(2, 1, dom2), f, SMALL, seed=11)
        b = ascend(quad2, DictSpec(2, 1, dom2), f, SMALL, seed=11)
        assert a.value == b.value
        assert np.array_equal(a.witness.layers[0].W, b.witness.layers[0].W)

    def test_value_matches_full_quad_rescore(self, dom2, quad2):
        f = FunctionOracle(lambda X: np.sign(X[:, 0] * X[:, 1]), "sp")
        res = ascend(quad2, DictSpec(2, 1, dom2), f, SMALL, seed=3)
        assert res.value == pytest.approx(
            abs(inner(quad2, oracle_from_net(res.witness), f)), abs=1e-12)

    def test_per_restart_bounded_by_value(self, dom2, quad2):
        f = FunctionOracle(lambda X: X[:, 0] ** 2 - 0.5, "par")
        res = ascend(quad2, DictSpec(2, 1, dom2), f, SMALL, seed=9)
        assert res.restarts_run == SMALL.restarts
        assert len(res.per_restart_values) == SMALL.restarts
        assert max(res.per_restart_values) == pytest.approx(res.value)

    def test_recovers_planted_self_correlation(self, dom2, quad2):
        net = planted_net(dom2, 1, 0, seed=21)
        f = oracle_from_net(net)
        res = ascend(quad2, DictSpec(1, 0, dom2), f, Budget(32, 250), seed=5)
        # the planted element itself achieves <f,f> = ||f||^2
        assert res.value >= l2_norm_sq(quad2, f) - 0.01

    def test_matches_brute_force_grid(self):
        # oracle: exhaustive (a, c) grid at resolution 0.005 over the
        # one-dimensional (1|0) family clip(a*w + c) against sin(8*pi*w);
        # best achievable correlation ~ 1/(8*pi).
        dom = DomainSpec(1, 1.0)
        quad = build_quadrature(dom, "low-discrepancy", 4096, seed=3)
        f = FunctionOracle(lambda X: np.sin(8 * np.pi * X[:, 0]), "hf")
        grid_value = 0.039788859319036946
        res = ascend(quad, DictSpec(1, 0, dom), f, Budget(64, 400), seed=2)
        assert res.value == pytest.approx(grid_value, abs=0.01)

    def test_warm_start_never_hurts(self, dom2, quad2):
        f = FunctionOracle(lambda X: np.sign(X[:, 0]), "step")
        spec = DictSpec(2, 1, dom2)
        tiny = Budget(restarts=2, iterations=20)
        cold = ascend(quad2, spec, f, Budget(32, 250), seed=7)
        warm = ascend(quad2, spec, f, tiny, seed=99, warm_start=cold.witness)
        # the injected witness is iterate 0 of entry 0 and is always scored
        assert warm.value >= cold.value - 1e-12

    def test_warm_start_scored_exactly(self, dom2, quad2):
        # each net is both target and warm start, and a 1e-9 step cannot move
        # it: the float32 search sees it rounded, so only the float64 rescore
        # of its exact params keeps its own score
        rng = np.random.default_rng(0)
        spec = DictSpec(2, 1, dom2)
        for trial in range(40):
            net = RepNet(dom2, (Layer(rng.uniform(-1, 1, (2, 2)), rng.uniform(-1, 1, 2)),
                                Layer(rng.uniform(-1, 1, (1, 2)), rng.uniform(-1, 1, 1))))
            f = oracle_from_net(net)
            res = ascend(quad2, spec, f, Budget(1, 1, step0=1e-9), seed=trial, warm_start=net)
            assert res.value >= abs(inner(quad2, f, f)) - 1e-12

    def test_weights_inside_box_when_q_not_float32(self, quad2):
        # float32(1.1) > 1.1: the float32 search must not leak it into a witness
        dom = DomainSpec(2, 1.1)
        f = FunctionOracle(lambda X: np.sign(X[:, 0] * X[:, 1]), "sp")
        res = ascend(quad2, DictSpec(2, 1, dom), f, Budget(8, 60), seed=3)
        assert max(np.abs(layer.W).max() for layer in res.witness.layers) <= dom.q
        assert max(np.abs(layer.W).max() for layer in res.witness.layers) == dom.q

    def test_witness_respects_arch(self, dom2, quad2):
        f = FunctionOracle(lambda X: X[:, 0], "lin")
        res = ascend(quad2, DictSpec(3, 2, dom2), f, Budget(4, 30), seed=1)
        assert res.witness.satisfies(RepCert(3, 2))
        assert abs(res.witness.layers[-1].b[0]) <= dom2.bias_bound(3)

    def test_result_serializes(self, dom2, quad2):
        f = FunctionOracle(lambda X: X[:, 1], "lin")
        res = ascend(quad2, DictSpec(1, 0, dom2), f, Budget(4, 30), seed=1)
        d = res.to_dict()
        assert d["lower_bound_only"] is True
        assert d["value"] == res.value
        assert d["budget"]["restarts"] == 4


class TestBestGainElement:
    def test_gain_never_below_correlation_pick(self, dom2, quad2):
        f = FunctionOracle(lambda X: np.sign(X[:, 0]), "step")
        spec = DictSpec(2, 1, dom2)
        corr = ascend(quad2, spec, f, SMALL, seed=13)
        net = best_gain_element(quad2, spec, f, SMALL, seed=14,
                                warm_start=corr.witness)

        def realized_gain(h):
            hv = oracle_from_net(h).values(quad2)
            fv = f.values(quad2)
            c = float(np.dot(quad2.weights, hv * fv))
            h2 = max(float(np.dot(quad2.weights, hv * hv)), 1e-14)
            return c * c / h2

        assert realized_gain(net) >= realized_gain(corr.witness) - 1e-9

    def test_witnesses_are_float64(self, dom2, quad2):
        f = FunctionOracle(lambda X: np.sign(X[:, 0]), "step")
        spec = DictSpec(2, 1, dom2)
        corr = ascend(quad2, spec, f, Budget(4, 30), seed=1).witness
        gain = best_gain_element(quad2, spec, f, Budget(4, 30), seed=2, warm_start=corr)
        for net in (corr, gain):
            for layer in net.layers:
                assert layer.W.dtype == layer.b.dtype == np.float64

    def test_deterministic(self, dom2, quad2):
        f = FunctionOracle(lambda X: X[:, 0] * X[:, 1], "prod")
        spec = DictSpec(1, 0, dom2)
        a = best_gain_element(quad2, spec, f, SMALL, seed=4)
        b = best_gain_element(quad2, spec, f, SMALL, seed=4)
        assert np.array_equal(a.layers[0].W, b.layers[0].W)


class TestSigmaDr:
    def test_zero_on_identical(self, dom2, quad2):
        f = FunctionOracle(lambda X: X[:, 0], "lin")
        res = sigma_dr(quad2, DictSpec(2, 1, dom2), f, f, Budget(4, 30), seed=1)
        assert res.value == pytest.approx(0.0, abs=1e-12)

    def test_symmetric_exactly(self, dom2, quad2):
        f = FunctionOracle(lambda X: np.sign(X[:, 0]), "step")
        g = const_oracle(0)
        spec = DictSpec(2, 1, dom2)
        ab = sigma_dr(quad2, spec, f, g, SMALL, seed=6)
        ba = sigma_dr(quad2, spec, g, f, SMALL, seed=6)
        assert ab.value == ba.value

    def test_bounded_by_twice_l1(self, dom2, quad2):
        rng = np.random.default_rng(31)
        spec = DictSpec(2, 1, dom2)
        for trial in range(5):
            f = oracle_from_values(quad2, rng.uniform(-1, 1, quad2.size))
            g = oracle_from_values(quad2, rng.uniform(-1, 1, quad2.size))
            res = sigma_dr(quad2, spec, f, g, Budget(8, 60), seed=trial)
            assert res.value <= 2.0 * sigma_l1(quad2, f, g) + 1e-9


class TestInvisibilityAudit:
    def test_visible_function_flagged(self, dom2, quad2):
        audit = invisibility_audit(quad2, DictSpec(2, 1, dom2), const_oracle(1),
                                   epsilon=0.3, budget=SMALL, seed=2)
        assert audit["invisible_up_to_budget"] is False
        assert audit["note"] == "witness exceeds threshold"
        assert audit["result"].value > 0.3

    def test_zero_function_invisible(self, dom2, quad2):
        audit = invisibility_audit(quad2, DictSpec(2, 1, dom2), const_oracle(0),
                                   epsilon=0.3, budget=Budget(4, 30), seed=2)
        assert audit["invisible_up_to_budget"] is True
        assert audit["note"] == "no witness found at this budget"


def kernel_step(X, Ws, bs, Gc):
    """One forward and backward pass of the adversary kernel, on fresh buffers
    of the dtype of X."""
    Zs, As, dZs, Gs, masks = _buffers(Ws, len(X), X.dtype)
    gWs, gbs = [np.empty_like(W) for W in Ws], [np.empty_like(b) for b in bs]
    h = _forward(X, Ws, bs, Zs, As).copy()
    _backward(X, Ws, Zs, As, Gc, gWs, gbs, masks, dZs, Gs)
    return h, gWs, gbs


def random_stack(rng, widths, B):
    Ws = [rng.uniform(-1.0, 1.0, (B, d_out, d_in)) for d_in, d_out in zip(widths, widths[1:])]
    bs = [rng.uniform(-1.0, 1.0, (B, d_out)) for d_out in widths[1:]]
    return Ws, bs


class TestKernel:
    WIDTHS = [[2, 2, 1], [8, 2, 1], [2, 4, 4, 1], [2, 8, 8, 8, 1]]

    @pytest.mark.parametrize("widths", WIDTHS, ids=str)
    def test_step_matches_reference(self, widths):
        rng = np.random.default_rng(sum(widths))
        B, N = 6, 300
        X = rng.uniform(-1.0, 1.0, (N, widths[0]))
        Ws, bs = random_stack(rng, widths, B)
        Gc = rng.uniform(-1.0, 1.0, (B, N))
        h_ref, gWs_ref, gbs_ref = reference_step(X, Ws, bs, Gc)
        h, gWs, gbs = kernel_step(X, Ws, bs, Gc)
        np.testing.assert_allclose(h, h_ref, rtol=0, atol=1e-12)
        for got, ref in zip(gWs + gbs, gWs_ref + gbs_ref):
            np.testing.assert_allclose(got, ref, rtol=1e-9, atol=1e-12)

    @pytest.mark.parametrize("widths", WIDTHS, ids=str)
    def test_float32_step_matches_reference(self, widths):
        # the search runs the kernel in float32; the reference runs in
        # float64 on the same float32-rounded inputs
        rng = np.random.default_rng(sum(widths))
        B, N = 6, 300
        X = rng.uniform(-1.0, 1.0, (N, widths[0])).astype(np.float32)
        Ws, bs = ([a.astype(np.float32) for a in p] for p in random_stack(rng, widths, B))
        Gc = rng.uniform(-1.0, 1.0, (B, N)).astype(np.float32)
        h_ref, gWs_ref, gbs_ref = reference_step(
            X.astype(np.float64), [W.astype(np.float64) for W in Ws],
            [b.astype(np.float64) for b in bs], Gc.astype(np.float64))
        h, gWs, gbs = kernel_step(X, Ws, bs, Gc)
        for got in [h] + gWs + gbs:
            assert got.dtype == np.float32
        np.testing.assert_allclose(h, h_ref, rtol=0, atol=1e-5)
        for got, ref in zip(gWs + gbs, gWs_ref + gbs_ref):
            np.testing.assert_allclose(got, ref, rtol=0, atol=1e-5 * max(1.0, np.abs(ref).max()))

    @pytest.mark.parametrize("widths", WIDTHS, ids=str)
    def test_mirrored_start_retraces_negated_target(self, widths):
        # the mirror computes -h, so ascending <h, t> from it retraces the
        # ascent of <h, -t> from the start: ascend relies on this in place of
        # a sign objective
        rng = np.random.default_rng(sum(widths))
        B, N = 6, 300
        X = rng.uniform(-1.0, 1.0, (N, widths[0])).astype(np.float32)
        Ws, bs = ([a.astype(np.float32) for a in p] for p in random_stack(rng, widths, B))
        weights, t = np.full(N, 1.0 / N), rng.uniform(-1.0, 1.0, N)
        dom = DomainSpec(widths[0], 1.0)
        bounds = [dom.bias_bound(d_in) for d_in in widths[:-1]]
        budget = Budget(1, 40)

        def start():  # _ascend_chunk updates its params in place
            return [W.copy() for W in Ws], [b.copy() for b in bs]

        bufs = _buffers(Ws, N, np.float32)
        obj, best_Ws, best_bs = _ascend_chunk(
            X, _objective_linear(weights, -t), *start(), bufs, dom.q, bounds, budget)
        m_obj, m_Ws, m_bs = _ascend_chunk(
            X, _objective_linear(weights, t), *_mirror(*start()), bufs, dom.q, bounds, budget)
        assert np.array_equal(obj, m_obj)
        mirrored_Ws, mirrored_bs = _mirror(m_Ws, m_bs)
        for got, ref in zip(mirrored_Ws + mirrored_bs, best_Ws + best_bs):
            assert np.array_equal(got, ref)
        assert not np.array_equal(best_Ws[0], Ws[0])  # the ascent moved

    @pytest.mark.parametrize("widths", WIDTHS, ids=str)
    def test_forward_all_matches_eval_batch(self, widths):
        rng = np.random.default_rng(len(widths))
        X = rng.uniform(-1.0, 1.0, (500, widths[0]))
        Ws, bs = random_stack(rng, widths, 5)
        h = _forward_all(X, Ws, bs)
        dom = DomainSpec(widths[0], 1.0)
        for e in range(len(h)):
            net = RepNet(dom, tuple(Layer(W[e], b[e]) for W, b in zip(Ws, bs)))
            np.testing.assert_allclose(h[e], net.eval_batch(X), rtol=0, atol=1e-12)


class TestThreads:
    """Runs of several chunks give the same bits on one thread and on two."""

    def test_ascend_multi_chunk(self, dom2, quad2):
        f = FunctionOracle(lambda X: np.sign(X[:, 0] * X[:, 1]), "sp")
        budget = Budget(restarts=_CHUNK // 2 + 8, iterations=30)  # two entries per restart
        a, b = (ascend(quad2, DictSpec(2, 1, dom2), f, budget, seed=5, threads=t)
                for t in (1, 2))
        assert a.value == b.value
        assert a.per_restart_values == b.per_restart_values
        for la, lb in zip(a.witness.layers, b.witness.layers):
            assert np.array_equal(la.W, lb.W) and np.array_equal(la.b, lb.b)

    def test_best_gain_element_multi_chunk(self, dom2, quad2):
        f = FunctionOracle(lambda X: np.sign(X[:, 0]) * X[:, 1], "mix")
        budget = Budget(restarts=_CHUNK + 8, iterations=30)  # one entry per restart
        a, b = (best_gain_element(quad2, DictSpec(2, 1, dom2), f, budget, seed=5, threads=t)
                for t in (1, 2))
        for la, lb in zip(a.layers, b.layers):
            assert np.array_equal(la.W, lb.W) and np.array_equal(la.b, lb.b)

    def test_ascend_on_drawn_subsample(self, dom2):
        # above _SEARCH_NODES seeded-uniform nodes the search runs on a random
        # subsample; the value is still the full-quadrature score
        quad = build_quadrature(dom2, "seeded-uniform", 2 * _SEARCH_NODES, seed=4)
        f = FunctionOracle(lambda X: np.sign(X[:, 0] * X[:, 1]), "sp")
        budget = Budget(restarts=_CHUNK // 2 + 8, iterations=30)
        a, b = (ascend(quad, DictSpec(2, 1, dom2), f, budget, seed=5, threads=t)
                for t in (1, 2))
        assert a.value == pytest.approx(
            abs(inner(quad, oracle_from_net(a.witness), f)), abs=1e-12)
        assert a.value == b.value
        assert a.per_restart_values == b.per_restart_values
        for la, lb in zip(a.witness.layers, b.witness.layers):
            assert np.array_equal(la.W, lb.W) and np.array_equal(la.b, lb.b)

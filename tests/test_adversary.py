import math
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from clipreg import adversary
from clipreg.adversary import (
    _CHUNK,
    _CORRELATION,
    _SEARCH_NODES,
    AdversaryError,
    Budget,
    DictSpec,
    _ascend_chunk,
    _backward,
    _box,
    _buffers,
    _forward,
    _forward_blocks,
    _gain,
    _multistart,
    _objective_fit,
    _objective_linear,
    _rescore,
    _rungs,
    _starts,
    _views,
    ascend,
    best_gain_element,
    fit,
    invisibility_audit,
    sigma_dr,
)
from clipreg.measure import (
    NODE_BLOCK,
    FunctionOracle,
    build_quadrature,
    inner,
    l2_norm_sq,
    node_sum,
    oracle_from_net,
    oracle_from_values,
    sigma_l1,
)
from clipreg.decomposer import decompose, stage_solve
from clipreg.netcore import DomainSpec, Layer, NetError, RepCert, RepNet
from clipreg.zoo import planted_net, zoo
from conftest import clamped_step, const_oracle, reference_step

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
        a = ascend(quad2, DictSpec(2, 1, dom2), f.values(quad2), SMALL, seed=11)
        b = ascend(quad2, DictSpec(2, 1, dom2), f.values(quad2), SMALL, seed=11)
        assert a.value == b.value
        assert np.array_equal(a.witness.layers[0].W, b.witness.layers[0].W)

    def test_value_matches_full_quad_rescore(self, dom2, quad2):
        f = FunctionOracle(lambda X: np.sign(X[:, 0] * X[:, 1]), "sp")
        res = ascend(quad2, DictSpec(2, 1, dom2), f.values(quad2), SMALL, seed=3)
        assert res.value == pytest.approx(
            abs(inner(quad2, oracle_from_net(res.witness), f)), abs=1e-12)

    def test_per_restart_bounded_by_value(self, dom2, quad2):
        f = FunctionOracle(lambda X: X[:, 0] ** 2 - 0.5, "par")
        res = ascend(quad2, DictSpec(2, 1, dom2), f.values(quad2), SMALL, seed=9)
        assert res.budget.restarts == SMALL.restarts
        assert len(res.per_restart_values) == SMALL.restarts
        assert max(res.per_restart_values) == pytest.approx(res.value)

    def test_recovers_planted_self_correlation(self, dom2, quad2):
        net = planted_net(dom2, 1, 0, seed=21)
        f = oracle_from_net(net)
        res = ascend(quad2, DictSpec(1, 0, dom2), f.values(quad2), Budget(32, 250), seed=5)
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
        res = ascend(quad, DictSpec(1, 0, dom), f.values(quad), Budget(64, 400), seed=2)
        assert res.value == pytest.approx(grid_value, abs=0.01)

    def test_warm_start_never_hurts(self, dom2, quad2):
        f = FunctionOracle(lambda X: np.sign(X[:, 0]), "step")
        spec = DictSpec(2, 1, dom2)
        tiny = Budget(restarts=2, iterations=20)
        cold = ascend(quad2, spec, f.values(quad2), Budget(32, 250), seed=7)
        warm = ascend(quad2, spec, f.values(quad2), tiny, seed=99, warm_start=cold.witness)
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
            res = ascend(quad2, spec, f.values(quad2), Budget(1, 1, step0=1e-9), seed=trial,
                         warm_start=net)
            assert res.value >= abs(inner(quad2, f, f)) - 1e-12

    def test_weights_inside_box_when_q_not_float32(self, quad2):
        # float32(1.1) > 1.1: the float32 search must not leak it into a witness
        dom = DomainSpec(2, 1.1)
        f = FunctionOracle(lambda X: np.sign(X[:, 0] * X[:, 1]), "sp")
        res = ascend(quad2, DictSpec(2, 1, dom), f.values(quad2), Budget(8, 60), seed=3)
        assert max(np.abs(layer.W).max() for layer in res.witness.layers) <= dom.q
        assert max(np.abs(layer.W).max() for layer in res.witness.layers) == dom.q

    @pytest.mark.parametrize("d, r", [(1, 1), (2, 0), (3, 1), (2, 2)])
    def test_warm_start_of_other_architecture_rejected(self, dom2, quad2, d, r):
        f = FunctionOracle(lambda X: X[:, 0], "lin")
        with pytest.raises(AdversaryError):
            ascend(quad2, DictSpec(2, 1, dom2), f.values(quad2), Budget(2, 5), seed=0,
                   warm_start=planted_net(dom2, d, r, seed=1))

    def test_witness_respects_arch(self, dom2, quad2):
        f = FunctionOracle(lambda X: X[:, 0], "lin")
        res = ascend(quad2, DictSpec(3, 2, dom2), f.values(quad2), Budget(4, 30), seed=1)
        assert res.witness.satisfies(RepCert(3, 2))
        assert abs(res.witness.layers[-1].b[0]) <= dom2.bias_bound(3)

    def test_result_serializes(self, dom2, quad2):
        f = FunctionOracle(lambda X: X[:, 1], "lin")
        res = ascend(quad2, DictSpec(1, 0, dom2), f.values(quad2), Budget(4, 30), seed=1)
        d = res.to_dict()
        assert d["lower_bound_only"] is True
        assert d["value"] == res.value
        assert d["budget"]["restarts"] == 4


class TestStarts:
    @pytest.mark.parametrize("d, r", [(2, 1), (8, 3)])
    def test_starts_are_seeded_draws(self, d, r):
        # restart i draws W then b per layer from default_rng(seed ^ i); the
        # report bytes depend on this order
        dom = DomainSpec(2, 1.5)
        spec, seed = DictSpec(d, r, dom), 1234
        Ws, bs = _views(_starts(spec, Budget(restarts=5), seed, None), spec.arch())
        assert all(len(a) == 5 for a in Ws + bs)
        for i in range(5):
            rng = np.random.default_rng(seed ^ i)
            for W, b, (d_in, d_out) in zip(Ws, bs, zip(spec.arch(), spec.arch()[1:])):
                assert np.array_equal(W[i], rng.uniform(-dom.q, dom.q, (d_out, d_in)))
                assert np.array_equal(b[i], rng.uniform(-1.0, 1.0, d_out))
            ref = planted_net(dom, d, r, seed ^ i)
            for W, b, want in zip(Ws, bs, ref.layers):
                assert np.array_equal(W[i], want.W) and np.array_equal(b[i], want.b)

    def test_negative_seed_rejected(self, dom2, quad2):
        # restart i starts from seed ^ i, negative exactly when seed is
        f = FunctionOracle(lambda X: X[:, 0], "lin")
        with pytest.raises(NetError) as exc:
            ascend(quad2, DictSpec(2, 1, dom2), f.values(quad2), Budget(2, 5), seed=-1)
        assert exc.value.param == "seed"

    def test_warm_start_takes_restart_zero(self, dom2):
        spec = DictSpec(2, 1, dom2)
        warm = planted_net(dom2, 2, 1, seed=77)
        (cold_Ws, cold_bs), (hot_Ws, hot_bs) = (
            _views(_starts(spec, Budget(restarts=3), 9, w), spec.arch()) for w in (None, warm))
        for W, b, layer in zip(hot_Ws, hot_bs, warm.layers):
            assert np.array_equal(W[0], layer.W) and np.array_equal(b[0], layer.b)
        for hot, cold in zip(hot_Ws + hot_bs, cold_Ws + cold_bs):
            assert np.array_equal(hot[1:], cold[1:])


class TestFit:
    def test_matches_scalar_formula(self, quad2):
        rng = np.random.default_rng(0)
        values = rng.uniform(-1, 1, quad2.size)
        h = np.clip(rng.uniform(-3, 3, (6, 1)) * values + rng.normal(0, 0.3, (6, quad2.size)),
                    -1, 1)
        lam, gain = fit(h, quad2.weights, values, 1.0)
        for row, l, g in zip(h, lam, gain):
            assert (l, g) == pytest.approx(clamped_step(row, quad2.weights, values, 1.0),
                                           rel=1e-12, abs=1e-15)
        # one net's values: the same bits as the scalar formula
        one = fit(h[0], quad2.weights, values, 1.0)
        assert (float(one[0]), float(one[1])) == clamped_step(h[0], quad2.weights, values, 1.0)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_clamps_at_q(self, quad2, sign):
        values = np.sign(quad2.nodes[:, 0])
        h = sign * 0.1 * values  # unclamped lambda = 10 * sign
        lam, gain = fit(h, quad2.weights, values, 0.75)
        assert lam == sign * 0.75
        assert (float(lam), float(gain)) == clamped_step(h, quad2.weights, values, 0.75)
        assert gain < 0.1 ** 2 / 0.01  # the unclamped gain overstates the step

    @pytest.mark.parametrize("scale", [0.0, 1e-9])
    def test_vanishing_h_takes_no_step(self, quad2, scale):
        values = np.ones(quad2.size)
        lam, gain = fit(np.full((2, quad2.size), scale), quad2.weights, values, 1.0)
        assert np.array_equal(lam, [0.0, 0.0]) and np.array_equal(gain, [0.0, 0.0])


# entries of h and values: 0 or of magnitude in [1e-100, 1], so that no
# product in fit or in the energy underflows below the normal numbers
_UNIT = st.one_of(st.just(0.0), st.floats(1e-100, 1.0), st.floats(-1.0, -1e-100))


@st.composite
def _fit_cases(draw):
    """(kind, h, weights, values, q, sign): h is one (N,) net's values or an
    (E, N) stack of `kind` "free" (any), "aligned" (h = sign * values /
    max|values|, Cauchy-Schwarz's equality case), "clamped" (h = sign * t *
    values with t < 1/(2q), so lam clamps to sign * q) or "vanishing"
    (||h||^2 < 1e-14)."""
    N = draw(st.integers(1, 64))
    weights = draw(arrays(np.float64, N, elements=st.floats(1e-3, 1.0)))
    weights = weights / weights.sum()
    values = draw(arrays(np.float64, N, elements=_UNIT))
    q = draw(st.sampled_from([0.25, 1.0, 4.0]))
    kind = draw(st.sampled_from(["free", "aligned", "clamped", "vanishing"]))
    sign = draw(st.sampled_from([1.0, -1.0]))
    E = draw(st.sampled_from([None, 1, 3]))
    rows = []
    for _ in range(E or 1):
        if kind == "free":
            row = draw(arrays(np.float64, N, elements=_UNIT))
        elif kind == "aligned":
            assume(np.any(values))
            row = sign * values / np.max(np.abs(values))
        elif kind == "clamped":
            row = sign * draw(st.floats(1e-3, 0.5 / q)) * values
            assume(float(np.dot(weights, row * row)) >= 1e-13)
        else:
            row = 1e-8 * draw(arrays(np.float64, N, elements=_UNIT))
        rows.append(row)
    h = rows[0] if E is None else np.stack(rows)
    return kind, h, weights, values, q, sign


class TestFitBound:
    @given(_fit_cases())
    @settings(max_examples=400, deadline=None)
    def test_gain_at_most_the_energy(self, case):
        """The energy stop in `decompose` rests on this bound."""
        kind, h, weights, values, q, sign = case
        lam, gain = fit(h, weights, values, q)
        assert lam.shape == gain.shape == h.shape[:-1]
        energy = float(np.dot(weights, values * values))
        assert np.all(gain <= energy * (1 + 1e-12))
        if kind == "clamped":
            assert np.all(lam == sign * q)
        if kind == "vanishing":
            assert np.all(lam == 0.0) and np.all(gain == 0.0)


class TestObjectiveFit:
    """The polish climbs `fit`'s clamped gain: run in float64 here, on
    weights and values that float32 holds exactly, so the objective's float32
    copies of them change no bit."""

    Q = 0.75

    @pytest.fixture
    def rows(self):
        # row 0: lam interior; rows 1 and 2: lam clamps at +q and at -q
        rng = np.random.default_rng(8)
        N = 64
        values = rng.uniform(-1.0, 1.0, N).astype(np.float32).astype(np.float64)
        weights = np.full(N, 1.0 / N)
        h = np.stack([np.clip(1.6 * values + rng.normal(0, 0.2, N), -1, 1),
                      0.2 * values + rng.normal(0, 0.02, N),
                      -0.2 * values + rng.normal(0, 0.02, N)])
        lam = fit(h, weights, values, self.Q)[0]
        assert abs(lam[0]) < self.Q and lam[1] == self.Q and lam[2] == -self.Q
        return h, weights, values

    def test_value_is_fit_gain(self, rows):
        h, weights, values = rows
        gain, _, _ = _objective_fit(weights, values, self.Q)(h)
        assert gain.dtype == np.float64
        assert np.array_equal(gain, fit(h, weights, values, self.Q)[1])

    def test_gradient_matches_central_difference(self, rows):
        h, weights, values = rows
        _, grad, _ = _objective_fit(weights, values, self.Q)(h)
        delta = 1e-6
        for b, row in enumerate(h):
            step = delta * np.eye(len(row))
            diff = (fit(row + step, weights, values, self.Q)[1]
                    - fit(row - step, weights, values, self.Q)[1]) / (2 * delta)
            np.testing.assert_allclose(grad[b], diff, rtol=1e-6, atol=1e-10)

    def test_float32_search_dtype(self, rows):
        h, weights, values = rows
        gain, grad, _ = _objective_fit(weights, values, self.Q)(h.astype(np.float32))
        assert gain.dtype == grad.dtype == np.float32


class TestBestGainElement:
    # on sign-product the coefficient clamps at q, so the polish climbs and
    # ranks by the clamped gain, the decrease a pick achieves
    def test_gain_never_below_correlation_pick(self, dom2, quad2):
        spec = DictSpec(2, 1, dom2)
        for f in (FunctionOracle(lambda X: np.sign(X[:, 0]), "step"),
                  zoo("sign-product", {}, dom2)):
            fv = f.values(quad2)

            def realized_gain(net):
                return clamped_step(oracle_from_net(net).values(quad2), quad2.weights, fv,
                                    1.0)[1]

            for budget in (SMALL, Budget(8, 60)):
                for seed in range(5):
                    corr = ascend(quad2, spec, f.values(quad2), budget, seed=seed)
                    net = best_gain_element(quad2, spec, fv, budget, seed=seed + 1,
                                            warm_start=corr.witness)
                    assert realized_gain(net) >= realized_gain(corr.witness) - 1e-9, \
                        (f.descriptor, budget, seed)

    def test_warm_start_takes_one_quadrature_pass(self, dom2, quad2, monkeypatch):
        # the warm start's exact row is rescored as one more row of the
        # restarts' rescore, not in a second pass over the quadrature
        passes, forward_blocks = [], adversary._forward_blocks

        def counted(X, Ws, bs):
            passes.append(len(bs[0]))
            return forward_blocks(X, Ws, bs)

        monkeypatch.setattr(adversary, "_forward_blocks", counted)
        spec, fv = DictSpec(2, 1, dom2), zoo("sign-product", {}, dom2).values(quad2)
        warm = ascend(quad2, spec, fv, SMALL, seed=1).witness
        passes.clear()
        best_gain_element(quad2, spec, fv, SMALL, seed=2, warm_start=warm)
        assert passes == [SMALL.restarts + 1]

    def test_witnesses_are_float64(self, dom2, quad2):
        f = FunctionOracle(lambda X: np.sign(X[:, 0]), "step")
        spec = DictSpec(2, 1, dom2)
        corr = ascend(quad2, spec, f.values(quad2), Budget(4, 30), seed=1).witness
        gain = best_gain_element(quad2, spec, f.values(quad2), Budget(4, 30), seed=2,
                                 warm_start=corr)
        for net in (corr, gain):
            for layer in net.layers:
                assert layer.W.dtype == layer.b.dtype == np.float64

    def test_deterministic(self, dom2, quad2):
        f = FunctionOracle(lambda X: X[:, 0] * X[:, 1], "prod")
        spec = DictSpec(1, 0, dom2)
        a = best_gain_element(quad2, spec, f.values(quad2), SMALL, seed=4)
        b = best_gain_element(quad2, spec, f.values(quad2), SMALL, seed=4)
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
    """One forward and backward pass of the adversary kernel at the nodes X
    (N, n), on fresh buffers of the dtype of X."""
    XT = np.ascontiguousarray(X.T)
    Zs, As, masks = _buffers(Ws, len(X), X.dtype)
    gWs, gbs = [np.empty_like(W) for W in Ws], [np.empty_like(b) for b in bs]
    h = _forward(XT, Ws, bs, Zs, As, masks).copy()
    _backward(XT, Ws, As, masks, Gc, gWs, gbs)
    return h, gWs, gbs


def strided_step(X, Ws, bs, Gc):
    """The kernel's arithmetic on the slow forms: the forward pass reads the
    strided view X.T, layer 0's dW is dZ @ X, and every W^T dZ is a batched
    matmul."""
    A, inputs, Zs, As = X.T, [], [], []
    for W, b in zip(Ws, bs):
        inputs.append(A)
        Z = np.matmul(W, A)
        Z += b[:, :, None]
        A = np.clip(Z, -1.0, 1.0)
        Zs.append(Z)
        As.append(A)
    G = Gc[:, None, :]
    gWs, gbs = [None] * len(Ws), [None] * len(Ws)
    for l in range(len(Ws) - 1, -1, -1):
        dZ = G * (Zs[l] == As[l])
        gbs[l] = np.sum(dZ, axis=2)
        gWs[l] = np.matmul(dZ, inputs[l].swapaxes(-1, -2))
        if l > 0:
            G = np.matmul(Ws[l].transpose(0, 2, 1), dZ)
    return A[:, 0], gWs, gbs


def assert_blocks_equal(blocks, h_ref):
    """The blocks (nodes, h) that `_forward_blocks` yields cover the nodes
    of h_ref (E, N) in order, each with the bits of its slice."""
    at = 0
    for nodes, h in blocks:
        assert nodes.start == at and np.array_equal(h, h_ref[:, nodes])
        at = nodes.stop
    assert at == h_ref.shape[1]


def random_stack(rng, widths, B):
    Ws = [rng.uniform(-1.0, 1.0, (B, d_out, d_in)) for d_in, d_out in zip(widths, widths[1:])]
    bs = [rng.uniform(-1.0, 1.0, (B, d_out)) for d_out in widths[1:]]
    return Ws, bs


def rows_of(Ws, bs):
    """The parameter rows (B, P) of the stacks Ws, bs: each layer's W,
    row-major, then its b, layer 0 first."""
    return np.concatenate([a.reshape(len(a), -1) for W, b in zip(Ws, bs) for a in (W, b)],
                          axis=1)


def climb(XT, objective, theta, bufs, widths, box, budget, stops):
    """`_ascend_chunk` from a copy of the rows theta (it updates them in
    place) through the iterations range(0, stops[0]), range(stops[0],
    stops[1]), ..., each resumed where the one before left off.  Returns
    copies of the best [obj, rows] after each range."""
    theta = theta.copy()
    best = [np.full(len(theta), -np.inf, XT.dtype), theta.copy()]
    snapshots, step, lo = [], budget.step0, 0
    for hi in stops:
        step = _ascend_chunk(XT, objective, theta, best, bufs, widths, box, budget,
                             range(lo, hi), step)
        snapshots.append([best[0].copy(), best[1].copy()])
        lo = hi
    return snapshots


class TestKernel:
    WIDTHS = [[2, 2, 1], [8, 2, 1], [2, 4, 4, 1], [2, 8, 8, 8, 1]]
    # (1|r) nets: every layer, hidden ones too, takes W^T dZ as an outer product
    ONE_UNIT = [[2, 1, 1, 1], [8, 1, 1]]

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
    def test_contiguous_nodes_give_the_strided_bits(self, widths):
        # the kernel reads one contiguous (n, N) node matrix and takes k = 1
        # layers as a broadcast product only to stay on numpy's fast paths;
        # the search runs it forward and backward in float32
        rng = np.random.default_rng(sum(widths))
        B, N = 64, 2048
        X = rng.uniform(-1.0, 1.0, (N, widths[0])).astype(np.float32)
        Ws, bs = ([a.astype(np.float32) for a in p] for p in random_stack(rng, widths, B))
        Gc = rng.uniform(-1.0, 1.0, (B, N)).astype(np.float32)
        (h, gWs, gbs), (h_ref, gWs_ref, gbs_ref) = (
            step(X, Ws, bs, Gc) for step in (kernel_step, strided_step))
        for got, ref in zip([h] + gWs + gbs, [h_ref] + gWs_ref + gbs_ref):
            assert got.dtype == np.float32 and np.array_equal(got, ref)

    @pytest.mark.parametrize("widths", WIDTHS, ids=str)
    def test_forward_all_gives_the_strided_bits(self, widths):
        # the float64 rescore runs the forward pass alone, on a contiguous
        # copy of each node block of the full quadrature
        rng = np.random.default_rng(sum(widths))
        X = rng.uniform(-1.0, 1.0, (4096, widths[0]))
        Ws, bs = random_stack(rng, widths, 64)
        h_ref = strided_step(X, Ws, bs, np.zeros((64, len(X))))[0]
        assert_blocks_equal(_forward_blocks(X, Ws, bs), h_ref)

    @pytest.mark.parametrize("N", [2 * NODE_BLOCK + 77, NODE_BLOCK // 2 + 3])
    @pytest.mark.parametrize("widths", WIDTHS, ids=str)
    def test_forward_all_blocks_give_the_strided_bits(self, widths, N):
        # the rescore runs in node blocks of NODE_BLOCK; a last block that
        # is short, or one block smaller than NODE_BLOCK, keeps the bits
        rng = np.random.default_rng(sum(widths) + N)
        X = rng.uniform(-1.0, 1.0, (N, widths[0]))
        Ws, bs = random_stack(rng, widths, 16)
        h_ref = strided_step(X, Ws, bs, np.zeros((16, N)))[0]
        assert_blocks_equal(_forward_blocks(X, Ws, bs), h_ref)

    @pytest.mark.parametrize("N", [2 * NODE_BLOCK + 77, NODE_BLOCK // 2 + 3])
    @pytest.mark.parametrize("widths", WIDTHS, ids=str)
    def test_streamed_rescore_has_the_whole_row_bits(self, widths, N):
        # the rescore reduces each node block as it is made; every score has
        # the bits of node_sum over the whole row, for the stack and each row
        rng = np.random.default_rng(sum(widths) + N)
        quad = build_quadrature(DomainSpec(widths[0], 1.0), "seeded-uniform", N, seed=5)
        Ws, bs = random_stack(rng, widths, 16)
        theta, values = rows_of(Ws, bs), rng.uniform(-1.0, 1.0, N)
        h = strided_step(quad.nodes, Ws, bs, np.zeros((16, N)))[0]
        for score, whole in ((_CORRELATION, np.abs(node_sum(h * (quad.weights * values)))),
                             (_gain(1.0), fit(h, quad.weights, values, 1.0)[1])):
            assert np.array_equal(_rescore(quad, theta, widths, values, score), whole)
            alone = [_rescore(quad, row[None], widths, values, score)[0] for row in theta]
            assert np.array_equal(alone, whole)

    def test_search_memory_is_bounded_by_the_block(self, dom2):
        # (d, r, restarts, nodes, bound on the traced peak): one (E, w, N)
        # float64 rescore buffer pair at (8|3), 16 restarts and 2^14 nodes
        # alone took 2 x 16.8 MB; the rescore's h, (E, N), at (2|1), 64
        # restarts and 2^17 nodes alone took 64 MB.  The blocked, streamed
        # rescore and the float32 search scratch together stay below both
        rows = [(8, 3, 16, 2 ** 14, 2 * 16 * 8 * 2 ** 14 * 8),
                (2, 1, 64, 2 ** 17, 64 * 2 ** 17 * 8 // 4)]
        quads = [build_quadrature(dom2, "low-discrepancy", N, seed=3) for *_, N, _ in rows]
        f = FunctionOracle(lambda X: np.sign(X[:, 0] * X[:, 1]), "sp")
        for (d, r, restarts, N, bound), quad in zip(rows, quads):
            tracemalloc.start()
            try:
                ascend(quad, DictSpec(d, r, dom2), f.values(quad), Budget(restarts, 2), seed=1)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < bound, (d, r, restarts, N)

    @pytest.mark.parametrize("widths", WIDTHS, ids=str)
    def test_negated_target_climbs_the_same_bits(self, widths):
        # the objective is |<h, t>|, so ascending it on t and on -t from the
        # same starts takes the same steps: one climb per restart covers both
        # signs, and sigma_dr's f/g symmetry is exact
        rng = np.random.default_rng(sum(widths))
        B, N = 6, 300
        X = rng.uniform(-1.0, 1.0, (N, widths[0])).astype(np.float32)
        Ws, bs = ([a.astype(np.float32) for a in p] for p in random_stack(rng, widths, B))
        weights, t = np.full(N, 1.0 / N), rng.uniform(-1.0, 1.0, N)
        bound = _box(DictSpec(widths[1], len(widths) - 2, DomainSpec(widths[0], 1.0)))
        box = (-bound.astype(np.float32), bound.astype(np.float32))
        bufs, XT = _buffers(Ws, N, np.float32), np.ascontiguousarray(X.T)
        budget = Budget(1, 40)
        (obj, best), (n_obj, n_best) = (
            climb(XT, _objective_linear(weights, target), rows_of(Ws, bs), bufs, widths, box,
                  budget, [budget.iterations + 1])[0]
            for target in (t, -t))
        assert np.array_equal(obj, n_obj)
        (best_Ws, best_bs), (n_Ws, n_bs) = _views(best, widths), _views(n_best, widths)
        for got, ref in zip(n_Ws + n_bs, best_Ws + best_bs):
            assert np.array_equal(got, ref)
        assert not np.array_equal(best_Ws[0], Ws[0])  # the ascent moved

    @pytest.mark.parametrize("widths", ONE_UNIT, ids=str)
    def test_one_unit_layers_give_the_matmul_bits(self, widths):
        # the kernel takes W^T dZ through a layer of one unit as einsum's
        # products; the reference takes batched matmuls and reads the same
        # contiguous (n, N) node matrix.  On the strided X.T a one-unit first
        # layer has other bits: its one-row matmul is a gemv, whose order
        # follows the layout
        rng = np.random.default_rng(sum(widths))
        B, N = 64, 2048
        X = rng.uniform(-1.0, 1.0, (N, widths[0])).astype(np.float32)
        Ws, bs = ([a.astype(np.float32) for a in p] for p in random_stack(rng, widths, B))
        Gc = rng.uniform(-1.0, 1.0, (B, N)).astype(np.float32)
        h, gWs, gbs = kernel_step(X, Ws, bs, Gc)
        h_ref, gWs_ref, gbs_ref = strided_step(np.ascontiguousarray(X.T).T, Ws, bs, Gc)
        for got, ref in zip([h] + gWs + gbs, [h_ref] + gWs_ref + gbs_ref):
            assert got.dtype == np.float32 and np.array_equal(got, ref)
        assert all(np.any(gW) for gW in gWs)

    @pytest.mark.parametrize("widths", WIDTHS + ONE_UNIT[:1], ids=str)
    def test_folded_sign_climbs_the_unfolded_bits(self, widths):
        # `_objective_linear` backpropagates c once for every entry and
        # scales each entry's parameter gradient by sign(<h, c>); a climb on
        # the explicit subgradient sign(<h, c>) * c takes the same steps.  On
        # a zero target the sign is 0 and no row moves
        rng = np.random.default_rng(sum(widths))
        B, N = 6, 300
        X = rng.uniform(-1.0, 1.0, (N, widths[0])).astype(np.float32)
        Ws, bs = ([a.astype(np.float32) for a in p] for p in random_stack(rng, widths, B))
        weights, t = np.full(N, 1.0 / N), rng.uniform(-1.0, 1.0, N)
        bound = _box(DictSpec(widths[1], len(widths) - 2, DomainSpec(widths[0], 1.0)))
        box = (-bound.astype(np.float32), bound.astype(np.float32))
        bufs, XT = _buffers(Ws, N, np.float32), np.ascontiguousarray(X.T)
        budget, theta = Budget(1, 40), rows_of(Ws, bs)

        def unfolded(weights, values):
            c = (weights * values).astype(np.float32)

            def eval_obj(h):
                corr = np.einsum("bn,n->b", h, c)
                return np.abs(corr), np.sign(corr)[:, None] * c, None
            return eval_obj

        for target in (t, -t, np.zeros(N)):
            (obj, best), (ref_obj, ref_best) = (
                climb(XT, make(weights, target), theta, bufs, widths, box, budget,
                      [budget.iterations + 1])[0]
                for make in (_objective_linear, unfolded))
            assert np.array_equal(obj, ref_obj) and np.array_equal(best, ref_best)
            assert np.array_equal(best, theta) == (not target.any())
        still = theta.copy()
        _ascend_chunk(XT, _objective_linear(weights, np.zeros(N)), still,
                      [np.full(B, -np.inf, np.float32), theta.copy()], bufs, widths, box,
                      budget, range(budget.iterations + 1), budget.step0)
        assert np.array_equal(still, theta)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("widths", WIDTHS, ids=str)
    def test_projection_matches_per_layer_reference(self, widths, dtype):
        # one `_ascend_chunk` step scales and clips whole rows against the
        # box; the reference does it layer by layer.  q = 1.1 is not a
        # float32 value.  The step exceeds every bound, so each start lies
        # within one step of a box edge; starts near an edge would saturate
        # every unit and leave no gradient, so they are drawn as the search
        # draws its own
        rng = np.random.default_rng(sum(widths))
        B, N, step = 6, 300, 16.0
        dom = DomainSpec(widths[0], 1.1)
        spec = DictSpec(widths[1], len(widths) - 2, dom)
        edges = [(dom.q, dom.bias_bound(d_in)) for d_in in widths[:-1]]
        assert step > max(bound for _, bound in edges)
        Ws = [rng.uniform(-dom.q, dom.q, (B, d_out, d_in)).astype(dtype)
              for d_in, d_out in zip(widths, widths[1:])]
        bs = [rng.uniform(-1.0, 1.0, (B, d_out)).astype(dtype) for d_out in widths[1:]]
        X = rng.uniform(-1.0, 1.0, (N, widths[0])).astype(dtype)
        Gc = rng.uniform(-1.0, 1.0, (B, N)).astype(dtype)
        _, gWs, gbs = kernel_step(X, Ws, bs, Gc)

        sq = sum(np.einsum("boi,boi->b", gW, gW) + np.einsum("bo,bo->b", gb, gb)
                 for gW, gb in zip(gWs, gbs))
        scale = step / np.maximum(np.sqrt(sq), 1e-12)
        moved_Ws = [W + gW * scale[:, None, None] for W, gW in zip(Ws, gWs)]
        moved_bs = [b + gb * scale[:, None] for b, gb in zip(bs, gbs)]
        ref_Ws = [np.clip(W, -q, q) for W, (q, _) in zip(moved_Ws, edges)]
        ref_bs = [np.clip(b, -bound, bound) for b, (_, bound) in zip(moved_bs, edges)]
        # the clip binds on the weights of every layer and on some biases,
        # and leaves other entries as the step put them
        clipped = [moved != ref for moved, ref in zip(moved_Ws + moved_bs, ref_Ws + ref_bs)]
        assert all(c.any() for c in clipped[:len(Ws)]) and any(c.any() for c in clipped[len(Ws):])
        assert not all(c.all() for c in clipped)

        theta, bound = rows_of(Ws, bs), _box(spec).astype(dtype)
        best = [np.full(B, -np.inf, dtype), theta.copy()]
        _ascend_chunk(np.ascontiguousarray(X.T), lambda h: (np.zeros(B, dtype), Gc, None), theta,
                      best, _buffers(Ws, N, dtype), widths, (-bound, bound),
                      Budget(1, 1, step0=step), range(1), step)
        got_Ws, got_bs = _views(theta, widths)
        for got, ref in zip(got_Ws + got_bs, ref_Ws + ref_bs):
            assert got.dtype == dtype and np.array_equal(got, ref)

    @pytest.mark.parametrize("widths", WIDTHS, ids=str)
    def test_forward_all_matches_eval_batch(self, widths):
        rng = np.random.default_rng(len(widths))
        X = rng.uniform(-1.0, 1.0, (500, widths[0]))
        Ws, bs = random_stack(rng, widths, 5)
        dom = DomainSpec(widths[0], 1.0)
        nets = [RepNet(dom, tuple(Layer(W[e], b[e]) for W, b in zip(Ws, bs))) for e in range(5)]
        ref = np.stack([net.eval_batch(X) for net in nets])
        for nodes, h in _forward_blocks(X, Ws, bs):
            np.testing.assert_allclose(h, ref[:, nodes], rtol=0, atol=1e-12)


class TestViews:
    """A search's parameters are (E, P) rows; `_views` gives each layer's W
    and b as views of them, which the kernel writes through.  Were a view a
    copy, the kernel would step the copy and the search would not move."""

    @pytest.mark.parametrize("d, r", [(2, 1), (4, 2), (8, 3)])
    def test_views_write_through(self, dom2, d, r):
        spec = DictSpec(d, r, dom2)
        widths, starts = spec.arch(), _starts(spec, Budget(restarts=6), 5, None)
        keep = np.array([True, False, True, True, False, True])
        # a search's start block, a chunk of it and the entries kept by pruning
        for theta in (starts.copy(), starts.copy()[1:4], starts[keep]):
            before = theta.copy()
            Ws, bs = _views(theta, widths)
            views = Ws + bs
            for k, view in enumerate(views):
                assert np.shares_memory(view, theta)
                view[...] = 10.0 + k
            # the writes show in theta, each parameter in exactly one view
            for k, view in enumerate(views):
                assert np.count_nonzero(theta == 10.0 + k) == view.size
            assert not np.any(theta == before)

    @pytest.mark.parametrize("d, r", [(2, 1), (4, 2), (8, 3)])
    def test_views_of_a_net_row_give_its_layers(self, dom2, d, r):
        spec, net = DictSpec(d, r, dom2), planted_net(dom2, d, r, seed=17)
        Ws, bs = _views(_starts(spec, Budget(restarts=2), 5, net)[:1], spec.arch())
        for W, b, layer in zip(Ws, bs, net.layers):
            assert np.array_equal(W[0], layer.W) and np.array_equal(b[0], layer.b)


class TestThreads:
    """Runs of several chunks give the same bits on one thread and on more."""

    def test_ascend_three_uneven_chunks(self, dom2, quad2):
        f = FunctionOracle(lambda X: np.sign(X[:, 0] * X[:, 1]), "sp")
        budget = Budget(restarts=2 * _CHUNK + 8, iterations=10)  # chunks 64, 64, 8
        # a stage's ascent halves the 136 running entries to 68 after
        # iteration 2 and to 34 after 5, re-chunked as 64 + 4, then as one
        for prune in (False, True):
            a, *others = (ascend(quad2, DictSpec(2, 1, dom2), f.values(quad2), budget, seed=5,
                                 threads=t, prune=prune)
                          for t in (1, 2, 3))
            for b in others:
                assert a.per_restart_values == b.per_restart_values
                for la, lb in zip(a.witness.layers, b.witness.layers):
                    assert np.array_equal(la.W, lb.W) and np.array_equal(la.b, lb.b)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_buffer_sets_capped_at_threads(self, dom2, quad2, monkeypatch, threads):
        # chunks take turns on min(threads, chunks) buffer sets, not one each
        calls, real = [], adversary._buffers
        monkeypatch.setattr(adversary, "_buffers", lambda *args: calls.append(args) or real(*args))
        f = FunctionOracle(lambda X: np.sign(X[:, 0] * X[:, 1]), "sp")
        ascend(quad2, DictSpec(2, 1, dom2), f.values(quad2),
               Budget(restarts=2 * _CHUNK + 8, iterations=2), seed=5, threads=threads)
        assert len(calls) == threads

    @pytest.mark.parametrize("threads", [1, 2, 8])
    def test_one_chunk_starts_no_thread(self, dom2, quad2, monkeypatch, threads):
        # a search of at most _CHUNK restarts runs on the calling thread
        starts, real = [], threading.Thread.start
        monkeypatch.setattr(threading.Thread, "start",
                            lambda thread: starts.append(thread) or real(thread))
        fv, spec = np.sign(quad2.nodes[:, 0] * quad2.nodes[:, 1]), DictSpec(2, 1, dom2)
        budget = Budget(restarts=_CHUNK, iterations=4)
        ascend(quad2, spec, fv, budget, seed=5, threads=threads)
        stage_solve(quad2, spec, fv, budget, seed=5, threads=threads)  # pruned ascent, polish
        assert starts == []

    def test_first_chunk_on_calling_thread(self, dom2, quad2, monkeypatch):
        # chunks 64, 64, 8 on three threads: restart 0's chunk runs on the caller
        spec, budget = DictSpec(2, 1, dom2), Budget(restarts=2 * _CHUNK + 8, iterations=2)
        first = _starts(spec, budget, 5, None)[0].astype(np.float32)
        idents, real = [], adversary._ascend_chunk

        def recording(XT, objective, theta, *args):
            if np.array_equal(theta[0], first):
                idents.append(threading.get_ident())
            return real(XT, objective, theta, *args)

        monkeypatch.setattr(adversary, "_ascend_chunk", recording)
        ascend(quad2, spec, np.sign(quad2.nodes[:, 0] * quad2.nodes[:, 1]), budget, seed=5,
               threads=3)
        assert idents == [threading.get_ident()]

    def test_ascend_multi_chunk(self, dom2, quad2):
        f = FunctionOracle(lambda X: np.sign(X[:, 0] * X[:, 1]), "sp")
        budget = Budget(restarts=_CHUNK + 8, iterations=30)  # one entry per restart
        a, b = (ascend(quad2, DictSpec(2, 1, dom2), f.values(quad2), budget, seed=5, threads=t)
                for t in (1, 2))
        assert a.value == b.value
        assert a.per_restart_values == b.per_restart_values
        for la, lb in zip(a.witness.layers, b.witness.layers):
            assert np.array_equal(la.W, lb.W) and np.array_equal(la.b, lb.b)

    def test_best_gain_element_multi_chunk(self, dom2, quad2):
        f = FunctionOracle(lambda X: np.sign(X[:, 0]) * X[:, 1], "mix")
        budget = Budget(restarts=_CHUNK + 8, iterations=30)  # one entry per restart
        a, b = (best_gain_element(quad2, DictSpec(2, 1, dom2), f.values(quad2), budget, seed=5,
                                  threads=t)
                for t in (1, 2))
        for la, lb in zip(a.layers, b.layers):
            assert np.array_equal(la.W, lb.W) and np.array_equal(la.b, lb.b)

    def test_ascend_on_drawn_subsample(self, dom2):
        # above _SEARCH_NODES seeded-uniform nodes the search runs on a random
        # subsample; the value is still the full-quadrature score
        quad = build_quadrature(dom2, "seeded-uniform", 2 * _SEARCH_NODES, seed=4)
        f = FunctionOracle(lambda X: np.sign(X[:, 0] * X[:, 1]), "sp")
        budget = Budget(restarts=_CHUNK + 8, iterations=30)  # one entry per restart
        a, b = (ascend(quad, DictSpec(2, 1, dom2), f.values(quad), budget, seed=5, threads=t)
                for t in (1, 2))
        assert a.value == pytest.approx(
            abs(inner(quad, oracle_from_net(a.witness), f)), abs=1e-12)
        assert a.value == b.value
        assert a.per_restart_values == b.per_restart_values
        for la, lb in zip(a.witness.layers, b.witness.layers):
            assert np.array_equal(la.W, lb.W) and np.array_equal(la.b, lb.b)


class TestSuccessiveHalving:
    """A stage's correlation ascent halves its running entries after the
    iterations `_rungs` gives; the entries that go on take the very steps of
    an unpruned run, and every other search runs each restart to the end."""

    def test_rungs(self):
        assert ([_rungs(i) for i in (1, 2, 3, 4, 7, 8, 80)]
                == [[], [1], [1], [1, 2], [1, 3], [2, 4], [20, 40]])

    @pytest.mark.parametrize("restarts, iterations, tied", [
        (12, 40, False), (7, 9, False), (12, 1, False), (12, 2, False), (12, 3, False),
        (1, 40, False), (6, 40, True)])
    def test_survivors_resume_bit_for_bit(self, dom2, quad2, restarts, iterations, tied):
        spec, budget = DictSpec(4, 2, dom2), Budget(restarts, iterations)
        starts = _starts(spec, budget, 3, None)
        if tied:  # every entry ties with every other at every rung
            starts[1:] = starts[0]
        values = np.sign(quad2.nodes[:, 0] * quad2.nodes[:, 1])
        objective = _objective_linear(quad2.weights, values)
        rungs = _rungs(iterations)
        got = _multistart(quad2.nodes, spec, starts, objective, budget, 1, rungs)

        # the reference: one unpruned run of every entry, its best so far
        # taken at each rung, and the selection redone here
        widths, q = spec.arch(), dom2.q
        bounds = [dom2.bias_bound(w) for w in widths[:-1]]
        XT = np.ascontiguousarray(quad2.nodes.T, dtype=np.float32)
        theta = starts.astype(np.float32)
        bufs = _buffers(_views(theta, widths)[0], quad2.size, np.float32)
        box = (-_box(spec).astype(np.float32), _box(spec).astype(np.float32))
        stops = rungs + [iterations + 1]
        snaps = climb(XT, objective, theta, bufs, widths, box, budget, stops)
        whole = climb(XT, objective, theta, bufs, widths, box, budget, stops[-1:])[0]
        for resumed, ref in zip(snaps[-1], whole):
            assert np.array_equal(resumed, ref)
        for snap in snaps:
            snap[1:] = _views(snap[1], widths)  # [obj, Ws, bs]
        running, stopped_at = list(range(restarts)), {}
        for k in range(len(rungs)):
            obj = snaps[k][0]
            kept = sorted(running, key=lambda i: (-obj[i], i))[:math.ceil(len(running) / 2)]
            stopped_at.update((i, k) for i in running if i not in kept)
            running = sorted(kept)
        stopped_at.update((i, len(rungs)) for i in running)
        for l, (W, b) in enumerate(zip(*_views(got, widths))):
            for i, k in stopped_at.items():
                assert np.array_equal(W[i], np.clip(snaps[k][1][l][i].astype(np.float64), -q, q))
                assert np.array_equal(b[i], np.clip(snaps[k][2][l][i].astype(np.float64),
                                                    -bounds[l], bounds[l]))
        if restarts == 1 or iterations == 1:
            assert set(stopped_at.values()) == {len(rungs)}  # nothing pruned
        if tied:
            # ties go to the lower restart, and which one goes on shows
            assert stopped_at == {0: 2, 1: 2, 2: 1, 3: 0, 4: 0, 5: 0}
            assert not np.array_equal(snaps[0][1][0][0], snaps[-1][1][0][0])

    def test_step_size_carries_over(self, dom2, quad2, monkeypatch):
        # each phase starts from the step size the phase before left, which
        # is not step0 * decay**t in the last bits
        calls, real = [], adversary._ascend_chunk

        def recording(*args):
            calls.append((args[-2], args[-1]))
            return real(*args)

        monkeypatch.setattr(adversary, "_ascend_chunk", recording)
        f = FunctionOracle(lambda X: np.sign(X[:, 0] * X[:, 1]), "sp")
        budget = Budget(4, 80)
        ascend(quad2, DictSpec(2, 1, dom2), f.values(quad2), budget, seed=1, prune=True)
        stops, step, expected = [0, 20, 40, 81], budget.step0, []
        for lo, hi in zip(stops, stops[1:]):
            expected.append((range(lo, hi), step))
            for _ in range(lo, hi):
                step *= budget.decay
        assert calls == expected
        assert expected[1][1] != budget.step0 * budget.decay ** 20

    def test_only_the_stage_ascent_prunes(self, dom2, quad2, monkeypatch):
        # entries x forward passes of the float32 search kernel
        passes, real = [0], adversary._forward

        def counting(XT, Ws, bs, Zs, As, masks=None):
            if masks is not None:
                passes[0] += len(bs[0])
            return real(XT, Ws, bs, Zs, As, masks)

        monkeypatch.setattr(adversary, "_forward", counting)
        f = FunctionOracle(lambda X: np.sign(X[:, 0] * X[:, 1]), "sp")
        fv, spec, budget = f.values(quad2), DictSpec(2, 1, dom2), Budget(16, 20)
        full = 16 * 21
        for search, expected in [
                (lambda: ascend(quad2, spec, f.values(quad2), budget, 1), full),
                (lambda: sigma_dr(quad2, spec, f, const_oracle(0), budget, 1), full),
                (lambda: invisibility_audit(quad2, spec, f, 0.3, budget, 1), full),
                (lambda: best_gain_element(quad2, spec, fv, budget, 1), full),
                # 16 entries to iteration 5, 8 to 10, 4 to the end
                (lambda: ascend(quad2, spec, fv, budget, 1, prune=True), 16 * 5 + 8 * 5 + 4 * 11),
                # and the polish from its witness: 8 restarts to the end
                (lambda: stage_solve(quad2, spec, fv, budget, 1), 164 + 8 * 21)]:
            passes[0] = 0
            search()
            assert passes[0] == expected

    @pytest.mark.parametrize("stage_dict", ["fixed", "growing"])
    def test_decompose_report_unchanged_without_rungs(self, dom2, quad2, monkeypatch,
                                                      stage_dict):
        f = zoo("sign-product", {}, dom2)
        spec, budget = DictSpec(2, 1, dom2), Budget(32, 40)
        passes, real = [0], adversary._ascend_chunk

        def counting(XT, objective, theta, *args):
            passes[0] += len(theta) * len(args[-2])
            return real(XT, objective, theta, *args)

        monkeypatch.setattr(adversary, "_ascend_chunk", counting)
        reports = []
        for rungs in (adversary._RUNGS, ()):
            monkeypatch.setattr(adversary, "_RUNGS", rungs)
            passes[0] = 0
            report = decompose(quad2, spec, f, 0.5, budget, seed=7, stage_dict=stage_dict)
            reports.append((report.to_dict(), passes[0]))
        (pruned, pruned_passes), (whole, whole_passes) = reports
        assert pruned["m_prime"] >= 1
        assert pruned == whole
        assert pruned_passes < whole_passes

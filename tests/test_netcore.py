import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clipreg.netcore import (
    NODE_BLOCK,
    DomainSpec,
    Layer,
    NetError,
    RepCert,
    RepNet,
    beta,
    compose_parallel,
    net_from_dict,
    net_to_dict,
    pad_depth,
    zero_net,
)
from conftest import random_net


class TestBeta:
    def test_identity_region(self):
        assert beta(0.5) == 0.5

    def test_upper_clip(self):
        assert beta(3.2) == 1.0

    def test_odd(self):
        assert beta(-7.0) == -1.0

    def test_rejects_non_finite(self):
        with pytest.raises(NetError):
            beta(float("nan"))
        with pytest.raises(NetError):
            beta(float("inf"))

    @given(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6))
    def test_one_lipschitz(self, a, b):
        assert abs(beta(a) - beta(b)) <= abs(a - b) + 1e-15

    @given(st.floats(-1e6, 1e6))
    def test_oddness_and_range(self, z):
        assert beta(-z) == -beta(z)
        assert -1.0 <= beta(z) <= 1.0


def eval_at(net, w):
    """The net's value at one point, through eval_batch on a (1, n) batch."""
    return float(net.eval_batch(np.asarray(w, dtype=np.float64)[None, :])[0])


def unit_net(weights, bias):
    """One clip unit w -> beta(<weights, w> + bias) as a single-layer net."""
    return RepNet(DomainSpec(len(weights), 1.0),
                  (Layer(np.array([weights], dtype=np.float64), np.array([bias])),))


class TestEvalUnit:
    def test_projection(self):
        assert eval_at(unit_net((1.0, 0.0), 0.0), [0.3, 0.9]) == pytest.approx(0.3)

    def test_clips_large_argument(self):
        assert eval_at(unit_net((1.0, 1.0), 0.5), [0.4, 0.4]) == 1.0

    def test_constant_unit(self):
        assert eval_at(unit_net((0.0, 0.0), -0.25), [0.7, -0.2]) == -0.25

    def test_dimension_mismatch(self):
        with pytest.raises(NetError):
            eval_at(unit_net((1.0,), 0.0), [0.1, 0.2])

    def test_lipschitz_bound(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            w = rng.uniform(-1, 1, 3)
            u = unit_net(tuple(w), float(rng.uniform(-1, 1)))
            a, b = rng.uniform(-1, 1, (2, 3))
            bound = np.sum(np.abs(w)) * np.max(np.abs(a - b))
            assert abs(eval_at(u, a) - eval_at(u, b)) <= bound + 1e-12


def straight_line_eval(net, w):
    # independent oracle: unrolls the chain unit by unit, summing each unit's
    # inputs in a fixed order
    vec = [float(x) for x in w]
    for layer in net.layers:
        out = []
        for weights, bias in zip(layer.W, layer.b):
            acc = 0.0
            for wi, xi in zip(weights, vec):
                acc += wi * xi
            out.append(min(1.0, max(-1.0, acc + bias)))
        vec = out
    return vec[0]


class TestEvalNet:
    def test_projection_chain(self, dom2):
        net = RepNet(dom2, (Layer(np.array([[1.0, 0.0]]), np.zeros(1)),))
        assert eval_at(net, [0.7, -0.3]) == pytest.approx(0.7)

    def test_constant_propagation(self, dom2):
        # constant first layer, pass-through second layer
        net = RepNet(dom2, (
            Layer(np.zeros((1, 2)), np.array([0.4])),
            Layer(np.array([[1.0]]), np.zeros(1)),
        ))
        for w in ([0.0, 0.0], [0.9, -0.9]):
            assert eval_at(net, w) == pytest.approx(0.4)

    def test_matches_straight_line_oracle(self):
        rng = np.random.default_rng(42)
        dom = DomainSpec(4, 1.0)
        for _ in range(25):
            net = random_net(rng, dom)
            w = rng.uniform(-1, 1, 4)
            assert eval_at(net, w) == pytest.approx(straight_line_eval(net, w), abs=1e-12)

    def test_dimension_mismatch(self, dom2):
        net = zero_net(dom2)
        with pytest.raises(NetError):
            net.eval_batch(np.array([[0.1, 0.2, 0.3]]))

    @pytest.mark.parametrize("N", [0, 2 * NODE_BLOCK + 3])
    def test_batch_of_any_size(self, N):
        # an empty batch gives no values; a batch of more than one node
        # block gives each point the value it has alone
        rng = np.random.default_rng(N)
        net = random_net(rng, DomainSpec(3, 1.0))
        X = rng.uniform(-1, 1, (N, 3))
        got = net.eval_batch(X)
        assert got.shape == (N,)
        np.testing.assert_allclose(got, [straight_line_eval(net, w) for w in X],
                                   rtol=0, atol=1e-12)

    def test_range_bound(self):
        rng = np.random.default_rng(7)
        dom = DomainSpec(3, 2.0)
        for _ in range(20):
            net = random_net(rng, dom)
            X = rng.uniform(-1, 1, (200, 3))
            assert np.max(np.abs(net.eval_batch(X))) <= 1.0


class TestPadDepth:
    def test_zero_extra_is_noop(self, dom2):
        net = zero_net(dom2)
        assert pad_depth(net, 0) is net

    def test_pointwise_identical(self):
        rng = np.random.default_rng(11)
        dom = DomainSpec(3, 1.0)
        net = random_net(rng, dom)
        padded = pad_depth(net, 1)
        X = rng.uniform(-1, 1, (10_000, 3))
        assert np.max(np.abs(net.eval_batch(X) - padded.eval_batch(X))) <= 1e-15

    def test_certificate_bookkeeping(self):
        rng = np.random.default_rng(12)
        net = random_net(rng, DomainSpec(2, 1.0))
        base = net.cert
        padded = pad_depth(net, 3)
        assert padded.cert == RepCert(base.d, base.r + 3)

    def test_negative_extra_rejected(self, dom2):
        with pytest.raises(NetError):
            pad_depth(zero_net(dom2), -1)


class TestComposeParallel:
    def test_certificate_arithmetic(self):
        rng = np.random.default_rng(5)
        dom = DomainSpec(2, 1.0)
        f1 = random_net(rng, dom, max_width=3, max_depth=1)
        while f1.cert != RepCert(3, 1):
            f1 = random_net(rng, dom, max_width=3, max_depth=1)
        f2 = random_net(rng, dom, max_width=2, max_depth=2)
        while f2.cert != RepCert(2, 2):
            f2 = random_net(rng, dom, max_width=2, max_depth=2)
        g = compose_parallel([f1, f2], [0.5, -0.5], dom)
        assert g.cert == RepCert(5, 3)

    def test_single_summand_identity(self):
        rng = np.random.default_rng(6)
        dom = DomainSpec(3, 1.0)
        net = random_net(rng, dom)
        g = compose_parallel([net], [1.0], dom)
        X = rng.uniform(-1, 1, (4096, 3))
        assert np.max(np.abs(g.eval_batch(X) - net.eval_batch(X))) <= 1e-15

    def test_matches_direct_sum_oracle(self):
        rng = np.random.default_rng(9)
        dom = DomainSpec(3, 1.0)
        X = rng.uniform(-1, 1, (10_000, 3))
        for _ in range(20):
            m = int(rng.integers(1, 6))
            nets = [random_net(rng, dom) for _ in range(m)]
            lams = rng.uniform(-1, 1, m)
            g = compose_parallel(nets, lams, dom)
            direct = np.clip(sum(l * n.eval_batch(X) for l, n in zip(lams, nets)), -1, 1)
            assert np.max(np.abs(g.eval_batch(X) - direct)) <= 1e-12

    def test_lambda_out_of_box_rejected(self, dom2):
        with pytest.raises(NetError):
            compose_parallel([zero_net(dom2)], [1.5], dom2)

    def test_input_dim_mismatch_rejected(self, dom2):
        other = zero_net(DomainSpec(3, 1.0))
        with pytest.raises(NetError):
            compose_parallel([zero_net(dom2), other], [0.5, 0.5], dom2)


class TestCertificates:
    def test_monotonicity(self):
        rng = np.random.default_rng(13)
        net = random_net(rng, DomainSpec(2, 1.0))
        c = net.cert
        for dd in range(3):
            for dr in range(3):
                assert net.satisfies(RepCert(c.d + dd, c.r + dr))

    def test_declared_must_fit_structure(self, dom2):
        layer = Layer(np.zeros((2, 2)), np.zeros(2))
        out = Layer(np.zeros((1, 2)), np.zeros(1))
        with pytest.raises(NetError):
            RepNet(dom2, (layer, out), declared_cert=RepCert(1, 1))


class TestValidation:
    def test_weight_box(self, dom2):
        with pytest.raises(NetError):
            RepNet(dom2, (Layer(np.array([[1.5, 0.0]]), np.zeros(1)),))

    def test_bias_clamp(self, dom2):
        # |c| <= n*q + 1 = 3 for n=2, q=1
        with pytest.raises(NetError):
            RepNet(dom2, (Layer(np.zeros((1, 2)), np.array([3.5])),))

    @pytest.mark.parametrize("W, b", [([[math.nan, 0.0]], [0.0]), ([[0.0, 0.0]], [math.nan])],
                             ids=["nan-weight", "nan-bias"])
    def test_nan_outside_box(self, dom2, W, b):
        with pytest.raises(NetError):
            RepNet(dom2, (Layer(np.array(W), np.array(b)),))

    def test_empty_layer_rejected(self):
        with pytest.raises(NetError):
            Layer(np.zeros((0, 2)), np.zeros(0))

    def test_q_below_one_rejected(self):
        with pytest.raises(NetError):
            DomainSpec(2, 0.5)


class TestLayerOwnsItsArrays:
    def test_caller_arrays_stay_writable(self):
        W, b = np.zeros((1, 2)), np.zeros(1)
        layer = Layer(W, b)
        assert W.flags.writeable and b.flags.writeable
        assert not (layer.W.flags.writeable or layer.b.flags.writeable)

    def test_layer_from_a_view_keeps_its_value(self, dom2):
        base = np.zeros((3, 2))
        net = RepNet(dom2, (Layer(base[1:2], np.zeros(1)),))
        base[:] = 5.0  # outside [-q, q], after the box check
        assert np.array_equal(net.layers[0].W, np.zeros((1, 2)))

    def test_fortran_ordered_input_stored_c_ordered(self):
        layer = Layer(np.asfortranarray(np.arange(6.0).reshape(2, 3)), np.zeros(2))
        assert layer.W.flags.c_contiguous and not layer.W.flags.writeable
        assert np.array_equal(layer.W, np.arange(6.0).reshape(2, 3))


class TestSerialization:
    def test_round_trip_bit_exact(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            net = random_net(rng, DomainSpec(3, 1.0))
            back = net_from_dict(json.loads(json.dumps(net_to_dict(net))))
            assert back.domain == net.domain
            assert len(back.layers) == len(net.layers)
            for a, b in zip(net.layers, back.layers):
                assert np.array_equal(a.W, b.W)
                assert np.array_equal(a.b, b.b)

    def test_awkward_floats_survive(self, dom2):
        vals = [math.pi / 4, 1e-300, -0.1, 1.0 / 3.0]
        net = RepNet(dom2, (Layer(np.array([[vals[0], vals[1]]]), np.array([vals[2]])),))
        back = net_from_dict(json.loads(json.dumps(net_to_dict(net))))
        assert np.array_equal(back.layers[0].W, net.layers[0].W)
        assert np.array_equal(back.layers[0].b, net.layers[0].b)

    def test_nan_from_dict_names_layers(self, dom2):
        obj = net_to_dict(zero_net(dom2))
        obj["layers"][0][0]["w"][1] = math.nan
        with pytest.raises(NetError) as err:
            net_from_dict(obj)
        assert err.value.param == "layers"


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 31), st.integers(1, 4))
def test_net_lipschitz_sampled_pairs(seed, n):
    rng = np.random.default_rng(seed)
    dom = DomainSpec(n, 1.0)
    net = random_net(rng, dom)
    const = 1.0
    for layer in net.layers:
        const *= np.max(np.sum(np.abs(layer.W), axis=1))
    a, b = rng.uniform(-1, 1, (2, n))
    lhs = abs(eval_at(net, a) - eval_at(net, b))
    assert lhs <= const * np.max(np.abs(a - b)) + 1e-10

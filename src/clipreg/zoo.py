"""Built-in target functions on the hypercube, all bounded by 1."""

from __future__ import annotations

import numpy as np

from clipreg.netcore import ClipregError, DomainSpec, Layer, RepNet
from clipreg.measure import FunctionOracle


class ZooError(ClipregError):
    pass


def planted_net(domain: DomainSpec, d: int, r: int, seed: int) -> RepNet:
    """Seeded random network with architecture n -> d^r -> 1."""
    rng = np.random.default_rng(seed)
    widths = [domain.n] + [d] * r + [1]
    layers = []
    for d_in, d_out in zip(widths[:-1], widths[1:]):
        W = rng.uniform(-domain.q, domain.q, size=(d_out, d_in))
        b = rng.uniform(-1.0, 1.0, size=d_out)
        layers.append(Layer(W, b))
    return RepNet(domain, tuple(layers))


def _check_params(name, params, allowed):
    unknown = set(params) - set(allowed)
    if unknown:
        raise ZooError(f"target {name!r}: unknown parameter(s) {sorted(unknown)}",
                       f"params.{sorted(unknown)[0]}")


def _linear(domain, params):
    _check_params("linear", params, {"seed"})
    seed = int(params.get("seed", 0))
    rng = np.random.default_rng(seed)
    xi0 = rng.uniform(-domain.q, domain.q, size=domain.n)
    c = float(rng.uniform(-1.0, 1.0))
    return FunctionOracle(lambda X: np.clip(X @ xi0 + c, -1.0, 1.0), f"linear(seed={seed})")


def _step(domain, params):
    _check_params("step", params, {"theta"})
    theta = float(params.get("theta", 0.0))
    if not -1.0 <= theta <= 1.0:
        raise ZooError(f"target 'step': theta must lie in [-1,1], got {theta}", "params.theta")
    return FunctionOracle(lambda X: np.where(X[:, 0] >= theta, 1.0, -1.0), f"step(theta={theta})")


def _ball(domain, params):
    _check_params("ball", params, {"rho"})
    rho = float(params.get("rho", 1.0))
    if rho < 0:
        raise ZooError(f"target 'ball': rho must be >= 0, got {rho}", "params.rho")
    return FunctionOracle(
        lambda X: np.where(np.linalg.norm(X, axis=1) <= rho, 1.0, -1.0),
        f"ball(rho={rho})")


def _sign_product(domain, params):
    _check_params("sign-product", params, {})
    return FunctionOracle(lambda X: np.prod(np.where(X >= 0, 1.0, -1.0), axis=1), "sign-product")


def _random_grid(domain, params):
    _check_params("random-grid", params, {"k", "seed"})
    k = int(params.get("k", 2))
    seed = int(params.get("seed", 0))
    if not 1 <= k <= 16:
        raise ZooError(f"target 'random-grid': k must lie in [1,16], got {k}", "params.k")
    cells = 2 ** k

    def fn(X):
        bins = np.clip(((X + 1.0) / 2.0 * cells).astype(np.int64), 0, cells - 1)
        uniq, inv = np.unique(bins, axis=0, return_inverse=True)
        # one seeded value per occupied cell, keyed by the cell index vector
        vals = np.array([np.random.default_rng([seed, *cell]).uniform(-1.0, 1.0)
                         for cell in uniq])
        return vals[inv]

    return FunctionOracle(fn, f"random-grid(k={k},seed={seed})")


def _planted_net(domain, params):
    _check_params("planted-net", params, {"d", "r", "seed"})
    d = int(params.get("d", 1))
    r = int(params.get("r", 0))
    seed = int(params.get("seed", 0))
    if d < 1:
        raise ZooError(f"target 'planted-net': need d >= 1, got {d}", "params.d")
    if r < 0:
        raise ZooError(f"target 'planted-net': need r >= 0, got {r}", "params.r")
    net = planted_net(domain, d, r, seed)
    return FunctionOracle(net.eval_batch, f"planted-net(d={d},r={r},seed={seed})")


def _sine(domain, params):
    _check_params("sine", params, {"kappa"})
    kappa = float(params.get("kappa", 1.0))
    return FunctionOracle(lambda X: np.sin(np.pi * kappa * X[:, 0]), f"sine(kappa={kappa})")


ZOO = {
    "linear": (_linear, "planted rectified affine unit; params: seed"),
    "step": (_step, "sign(w1 - theta); params: theta in [-1,1]"),
    "ball": (_ball, "2*indicator(|w|_2 <= rho) - 1; params: rho >= 0"),
    "sign-product": (_sign_product, "product of coordinate signs; no params"),
    "random-grid": (_random_grid, "piecewise constant on a 2^k per-axis grid; params: k, seed"),
    "planted-net": (_planted_net, "seeded random network; params: d, r, seed"),
    "sine": (_sine, "sin(pi*kappa*w1); params: kappa"),
}


def zoo(name: str, params: dict, domain: DomainSpec) -> FunctionOracle:
    if name not in ZOO:
        raise ZooError(f"unknown target {name!r}; known: {sorted(ZOO)}", "name")
    builder, _ = ZOO[name]
    return builder(domain, dict(params or {}))

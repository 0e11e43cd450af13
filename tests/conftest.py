import numpy as np
import pytest

from clipreg.netcore import DomainSpec, Layer, RepNet
from clipreg.measure import FunctionOracle, build_quadrature


def random_net(rng, domain, max_width=3, max_depth=3):
    """Random valid net with mixed widths and depth <= max_depth."""
    r = int(rng.integers(0, max_depth + 1))
    widths = [domain.n] + [int(rng.integers(1, max_width + 1)) for _ in range(r)] + [1]
    layers = []
    for d_in, d_out in zip(widths[:-1], widths[1:]):
        layers.append(Layer(rng.uniform(-domain.q, domain.q, (d_out, d_in)),
                            rng.uniform(-1.0, 1.0, d_out)))
    return RepNet(domain, tuple(layers))


def clamped_step(hv, weights, values, q):
    """The clamped step's (lambda, gain) for one net's node values, in
    scalars.  Each weighted node sum adds every block of 2048 nodes with
    np.add.reduce, then the block partials, the order of `fit` in float64."""
    def node_sum(x):
        return float(np.add.reduce([np.add.reduce(x[lo:lo + 2048])
                                    for lo in range(0, len(x), 2048)]))
    c = node_sum(hv * values * weights)
    h2 = node_sum(hv * hv * weights)
    if h2 < 1e-14:
        return 0.0, 0.0
    lam = float(np.clip(c / h2, -q, q))
    return lam, 2.0 * lam * c - lam * lam * h2


def node_major_values(net, X):
    """A net's values at the points X (N, n) by a node-major loop, one
    (N, d_in) @ (d_in, d_out) product per layer: an independent reference
    for `RepNet.eval_batch`'s node-block pass, which sums in another order,
    so the two agree to rounding, not bit for bit."""
    A = X
    for layer in net.layers:
        A = np.clip(A @ layer.W.T + layer.b, -1.0, 1.0)
    return A[:, 0]


def const_oracle(value):
    return FunctionOracle(lambda X: np.full(len(X), float(value)), f"const({value})")


@pytest.fixture(scope="session")
def dom1():
    return DomainSpec(1, 1.0)


@pytest.fixture(scope="session")
def dom2():
    return DomainSpec(2, 1.0)


@pytest.fixture(scope="session")
def quad1(dom1):
    return build_quadrature(dom1, "low-discrepancy", 2048, seed=3)


@pytest.fixture(scope="session")
def quad2(dom2):
    return build_quadrature(dom2, "low-discrepancy", 2048, seed=3)


def reference_step(X, Ws, bs, Gc):
    """One ascent step in the (B, N, d) layout, as a batched matmul per layer.

    Ws[l]: (B, out, in); bs[l]: (B, out); X: (N, n); Gc = dJ/dh: (B, N).
    Returns the output h (B, N) and the gradients gWs, gbs shaped like Ws, bs.
    """
    acts, masks = [], []
    A = X[None]
    for W, b in zip(Ws, bs):
        Z = np.matmul(A, np.swapaxes(W, 1, 2)) + b[:, None, :]
        acts.append(A)
        A = np.clip(Z, -1.0, 1.0)
        masks.append(Z == A)
    G = Gc[:, :, None]
    gWs, gbs = [None] * len(Ws), [None] * len(Ws)
    for l in range(len(Ws) - 1, -1, -1):
        dZ = G * masks[l]
        gWs[l] = np.matmul(np.swapaxes(dZ, 1, 2), acts[l])
        gbs[l] = dZ.sum(axis=1)
        if l > 0:
            G = np.matmul(dZ, Ws[l])
    return A[:, :, 0], gWs, gbs

"""Clipped affine networks: construction, evaluation, structural composition.

A network is a chain of layers of rectified affine units
w -> beta(<w, xi0> + c) with weights constrained to [-q, q].  All values are
immutable after construction; evaluation is pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

_WEIGHT_TOL = 1e-12


class ClipregError(ValueError):
    """Base of clipreg's errors.  ``param`` names the argument that a range
    check rejected, so that a caller can point at the input it came from."""

    def __init__(self, message: str, param: str | None = None):
        super().__init__(message)
        self.param = param


class NetError(ClipregError):
    pass


@dataclass(frozen=True)
class DomainSpec:
    """The hypercube [-1,1]^n with a weight box bound q >= 1."""

    n: int
    q: float = 1.0

    def __post_init__(self):
        if not (isinstance(self.n, int) and not isinstance(self.n, bool) and self.n >= 1):
            raise NetError(f"input dimension n must be a positive integer, got {self.n}", "n")
        if not (math.isfinite(self.q) and self.q >= 1.0):
            # q >= 1 is load-bearing: the stopping argument needs eps/||h|| <= q.
            raise NetError(f"weight bound q must be >= 1, got {self.q}", "q")

    def bias_bound(self, width: int) -> float:
        # |<w, xi0>| <= width*q on the hypercube, so |c| > width*q + 1 is
        # indistinguishable from c = +-(width*q + 1).
        return width * self.q + 1.0


def beta(z):
    """Saturating identity: -1 below -1, identity on [-1,1], 1 above."""
    z = np.asarray(z, dtype=np.float64)
    if not np.all(np.isfinite(z)):
        raise NetError("beta: non-finite input")
    out = np.clip(z, -1.0, 1.0)
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class Layer:
    """Dense layer of clip units: weight matrix (d_out, d_in), bias (d_out,)."""

    W: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        # C-ordered copies: freezing them leaves the caller's arrays alone
        W = np.array(self.W, dtype=np.float64, order="C")
        b = np.array(self.b, dtype=np.float64, order="C")
        if W.ndim != 2 or b.ndim != 1 or W.shape[0] != b.shape[0]:
            raise NetError(f"layer shape mismatch: W {W.shape}, b {b.shape}")
        if W.size == 0:
            raise NetError(f"empty layer: W {W.shape}")
        W.setflags(write=False)
        b.setflags(write=False)
        object.__setattr__(self, "W", W)
        object.__setattr__(self, "b", b)

    @property
    def d_in(self) -> int:
        return self.W.shape[1]

    @property
    def d_out(self) -> int:
        return self.W.shape[0]


@dataclass(frozen=True)
class RepCert:
    """(d|r) representability certificate: depth <= r, all hidden widths <= d."""

    d: int
    r: int

    def __post_init__(self):
        for param, ok in (("d", self.d >= 1), ("r", self.r >= 0)):
            if not ok:
                raise NetError(f"invalid certificate ({self.d}|{self.r})", param)

    def dominates(self, other: "RepCert") -> bool:
        return self.d >= other.d and self.r >= other.r


@dataclass(frozen=True)
class RepNet:
    """Layered clipped affine network W_n -> [-1,1] with width-1 output.

    ``layers[i]`` maps width d_i to d_{i+1}; d_0 = n, the last width is 1.
    A net with hidden widths (d_1, ..., d_r) carries the certificate
    (max_i d_i | r).
    """

    domain: DomainSpec
    layers: tuple = field(default=())
    declared_cert: RepCert | None = None  # bookkeeping cert from a construction

    def __post_init__(self):
        layers = tuple(self.layers)
        if not layers:
            raise NetError("a net needs at least the output layer")
        object.__setattr__(self, "layers", layers)
        prev = self.domain.n
        for i, layer in enumerate(layers):
            if layer.d_in != prev:
                raise NetError(
                    f"layer {i}: input width {layer.d_in} != previous width {prev}")
            # written so that NaN fails the box, as it fails every <=
            if not np.all(np.abs(layer.W) <= self.domain.q + _WEIGHT_TOL):
                raise NetError(f"layer {i}: weight outside [-q, q]")
            if not np.all(np.abs(layer.b) <= self.domain.bias_bound(layer.d_in) + _WEIGHT_TOL):
                raise NetError(f"layer {i}: bias outside clamp range")
            prev = layer.d_out
        if prev != 1:
            raise NetError(f"output width must be 1, got {prev}")
        if self.declared_cert is not None and not self.satisfies(self.declared_cert):
            raise NetError(f"structure does not fit declared certificate {self.declared_cert}")

    @property
    def n(self) -> int:
        return self.domain.n

    @property
    def widths(self) -> tuple:
        """Hidden type signature (d_1, ..., d_r); empty for a single unit."""
        return tuple(layer.d_out for layer in self.layers[:-1])

    @property
    def depth(self) -> int:
        return len(self.layers) - 1

    @property
    def cert(self) -> RepCert:
        """Declared certificate if one was attached, else the structural one."""
        if self.declared_cert is not None:
            return self.declared_cert
        return RepCert(max(self.widths, default=1), self.depth)

    def satisfies(self, cert: RepCert) -> bool:
        return self.depth <= cert.r and max(self.widths, default=1) <= cert.d

    def eval_batch(self, X: np.ndarray) -> np.ndarray:
        """Evaluate at a batch of points, shape (N, n) -> (N,), by
        `_forward_blocks` as a stack of one net: the pass of every rescore,
        so a net has the bits here of its row in any stack.  At a
        quadrature's nodes X.T is `Quadrature.XT`, and no node is copied."""
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.n:
            raise NetError(f"expected points of shape (N, {self.n}), got {X.shape}")
        out = np.empty(len(X))
        for nodes, h in _forward_blocks(np.ascontiguousarray(X.T),
                                        [layer.W[None] for layer in self.layers],
                                        [layer.b[None] for layer in self.layers]):
            out[nodes] = h[0]
        return out


# every float64 node sum and forward pass takes the nodes in blocks of this
# many (`node_blocks`)
NODE_BLOCK = 2048


def node_blocks(N: int) -> list:
    """The slices of N nodes into the blocks of every node sum and forward
    pass: NODE_BLOCK nodes each from node 0 on, the last block the rest."""
    return [slice(lo, min(lo + NODE_BLOCK, N)) for lo in range(0, N, NODE_BLOCK)]


def _forward(XT, Ws, bs, Zs, As, masks=None):
    """Forward pass of B stacked nets at the nodes XT, a contiguous (n, N)
    matrix, for the search and the rescore alike; activations are unit-major.

    Ws[l]: (B, out, in); bs[l]: (B, out), as `adversary._views` gives.
    Writes layer l's pre-activation into Zs[l] and its clipped output into
    As[l], both (B, out, N), and, when `masks` is given, the clip masks
    Zs[l] == As[l] into masks[l] for `adversary._backward`.  Zs[l] may be
    As[l] (an in-place clip) or a view of one scratch that every layer
    overwrites.  Returns h = As[-1][:, 0], (B, N)."""
    A = XT
    for l, (W, b, Z, A_out) in enumerate(zip(Ws, bs, Zs, As)):
        np.matmul(W, A, out=Z)
        Z += b[:, :, None]
        A = np.clip(Z, -1.0, 1.0, out=A_out)
        if masks is not None:
            # Z == A exactly where the clip is inactive, kinks included;
            # the subgradient there is 1 (the interior value), 0 outside
            np.equal(Z, A, out=masks[l])
    return A[:, 0]


def _forward_blocks(XT, Ws, bs):
    """The float64 forward pass of a stack of parameter sets at the nodes
    XT, a C-ordered (n, N) array, in the blocks of `node_blocks`: yields
    (nodes, h) per block, the block's slice of the N nodes and h (E, block)
    the outputs there, in scratch that the next block overwrites.

    Each block runs on its column slice of XT, which BLAS reads in place,
    so no node is copied.  Each layer clips in place and reads only the
    layer before it, so two block-sized buffers take turns: even layers use
    one, odd layers the other.
    """
    E, widths, N = len(bs[0]), [b.shape[1] for b in bs], XT.shape[1]
    pair = [np.empty(E * max(widths[k::2], default=0) * min(N, NODE_BLOCK)) for k in (0, 1)]
    for nodes in node_blocks(N):
        cols = XT[:, nodes]
        bufs = [pair[l % 2][:E * w * cols.shape[1]].reshape(E, w, -1) for l, w in enumerate(widths)]
        yield nodes, _forward(cols, Ws, bs, bufs, bufs)


def _identity_layer(width: int) -> Layer:
    return Layer(np.eye(width), np.zeros(width))


def pad_depth(net: RepNet, extra: int) -> RepNet:
    """Append identity layers; pointwise identical since beta|[-1,1] = id."""
    if extra < 0:
        raise NetError("extra must be non-negative")
    if extra == 0:
        return net
    out_width = net.layers[-1].d_out
    pads = tuple(_identity_layer(out_width) for _ in range(extra))
    cert = RepCert(net.cert.d, net.cert.r + extra)
    return RepNet(net.domain, net.layers + pads, declared_cert=cert)


def zero_net(domain: DomainSpec) -> RepNet:
    """The constant-zero function as a single unit."""
    return RepNet(domain, (Layer(np.zeros((1, domain.n)), np.zeros(1)),))


def check_seed(seed: int) -> int:
    """A seed for numpy's generators, which take no negative integer."""
    if seed < 0:
        raise NetError(f"seed must be >= 0, got {seed}", "seed")
    return seed


def seeded_params(domain: DomainSpec, d: int, r: int, seed: int) -> list:
    """The (W, b) pairs of a seeded random network with architecture
    n -> d^r -> 1: weights uniform in [-q, q], drawn W then b layer by layer.
    Biases start in [-1, 1]: inside the clamp box, away from the dead
    all-saturated region that large |c| produces."""
    rng = np.random.default_rng(check_seed(seed))
    widths = [domain.n] + [d] * r + [1]
    return [(rng.uniform(-domain.q, domain.q, size=(d_out, d_in)),
             rng.uniform(-1.0, 1.0, size=d_out))
            for d_in, d_out in zip(widths[:-1], widths[1:])]


def planted_net(domain: DomainSpec, d: int, r: int, seed: int) -> RepNet:
    """The `seeded_params` net as a RepNet."""
    return RepNet(domain, tuple(Layer(W, b) for W, b in seeded_params(domain, d, r, seed)))


def compose_parallel(nets, lambdas, domain: DomainSpec | None = None) -> RepNet:
    """Build one net computing w -> beta(sum_i lambda_i f_i(w)) exactly.

    All nets are padded to common depth, stacked block-diagonally (zero
    cross-weights), and summed by a final width-1 unit with weights lambda.
    The certificate is (sum_i d_i | 1 + max_i r_i).
    """
    nets = list(nets)
    lambdas = [float(l) for l in lambdas]
    if not nets:
        raise NetError("compose_parallel needs at least one net")
    if len(nets) != len(lambdas):
        raise NetError("one coefficient per net required")
    if domain is None:
        domain = nets[0].domain
    for net in nets:
        if net.n != domain.n:
            raise NetError("all nets must share the input dimension")
    for l in lambdas:
        if abs(l) > domain.q + _WEIGHT_TOL:
            raise NetError(f"coefficient {l} outside [-q, q]")

    depth = max(net.depth for net in nets)
    padded = [pad_depth(net, depth - net.depth) for net in nets]
    n_layers = depth + 1

    stacked = []
    for j in range(n_layers):
        blocks = [p.layers[j] for p in padded]
        if j == 0:
            W = np.vstack([blk.W for blk in blocks])
        else:
            ins = [blk.d_in for blk in blocks]
            outs = [blk.d_out for blk in blocks]
            W = np.zeros((sum(outs), sum(ins)))
            ro = co = 0
            for blk in blocks:
                W[ro:ro + blk.d_out, co:co + blk.d_in] = blk.W
                ro += blk.d_out
                co += blk.d_in
        b = np.concatenate([blk.b for blk in blocks])
        stacked.append(Layer(W, b))
    stacked.append(Layer(np.array([lambdas]), np.zeros(1)))
    cert = RepCert(sum(net.cert.d for net in nets), 1 + max(net.cert.r for net in nets))
    return RepNet(domain, tuple(stacked), declared_cert=cert)


# ---------------------------------------------------------------------------
# JSON serialization: {n, q, layers: [[{w: [...], b: ...}, ...], ...]}.
# Python float repr is the shortest round-trip decimal, so the round trip is
# bit-exact for 64-bit values.

def net_to_dict(net: RepNet) -> dict:
    return {
        "n": net.n,
        "q": net.domain.q,
        "layers": [
            [{"w": [float(x) for x in layer.W[j]], "b": float(layer.b[j])}
             for j in range(layer.d_out)]
            for layer in net.layers
        ],
    }


def net_from_dict(obj: dict, domain: DomainSpec) -> RepNet:
    """Build a net on `domain` from its dict; a stored n or q other than the
    domain's, or a value out of range, raises a NetError whose ``param``
    names the key of ``obj`` at fault."""
    for key, want in (("n", domain.n), ("q", domain.q)):
        if obj[key] != want:
            raise NetError(f"net stored with {key}={obj[key]}, the run's {key} is {want}", key)
    try:
        layers = [Layer([u["w"] for u in units], [u["b"] for u in units])
                  for units in obj["layers"]]
        return RepNet(domain, tuple(layers))
    except ValueError as e:  # ragged or empty rows, widths, weight and bias ranges
        raise NetError(str(e), "layers") from e


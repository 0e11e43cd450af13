"""Witness search: estimate the observer metric by maximizing the correlation
of a small clipped network against a target.

The search is multi-start projected subgradient ascent over the network
parameter box.  Every reported value is a LOWER bound on the true supremum
over the infinite dictionary; results say "no witness found at this budget",
never "invisible".
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from clipreg.netcore import (ClipregError, DomainSpec, Layer, RepCert, RepNet, net_to_dict,
                             pad_depth)
from clipreg.measure import FunctionOracle, Quadrature, oracle_from_values

# Restarts are processed in fixed-size chunks so the arithmetic (and hence the
# result bytes) are identical for any worker count.
_CHUNK = 64


class AdversaryError(ClipregError):
    pass


@dataclass(frozen=True)
class DictSpec:
    """The dictionary F(d,r): all (d|r)-representable functions on W_n."""

    d: int
    r: int
    domain: DomainSpec

    def __post_init__(self):
        if self.d < 1:
            raise AdversaryError(f"dictionary width d must be >= 1, got {self.d}", "d")
        if self.r < 0:
            raise AdversaryError(f"dictionary depth r must be >= 0, got {self.r}", "r")

    @property
    def cert(self) -> RepCert:
        return RepCert(self.d, self.r)

    def arch(self) -> list:
        """Layer widths [n, d, ..., d, 1] with r hidden layers."""
        return [self.domain.n] + [self.d] * self.r + [1]


@dataclass(frozen=True)
class Budget:
    restarts: int = 64
    iterations: int = 400
    step0: float = 0.5
    decay: float = 0.97

    def __post_init__(self):
        for param, ok in (("restarts", self.restarts >= 1), ("iterations", self.iterations >= 1),
                          ("step0", 0 < self.step0 < math.inf), ("decay", 0 < self.decay <= 1)):
            if not ok:
                raise AdversaryError(f"{param} out of range in {self}", param)

    def to_dict(self) -> dict:
        return {"restarts": self.restarts, "iterations": self.iterations,
                "step0": self.step0, "decay": self.decay}


@dataclass(frozen=True)
class AdversaryResult:
    value: float                 # best |<h, target>| found (lower bound)
    witness: RepNet
    restarts_run: int
    per_restart_values: tuple
    seed: int
    budget: Budget

    def to_dict(self) -> dict:
        return {
            "value": self.value,
            "lower_bound_only": True,
            "witness": net_to_dict(self.witness),
            "restarts_run": self.restarts_run,
            "per_restart_values": list(self.per_restart_values),
            "seed": self.seed,
            "budget": self.budget.to_dict(),
        }


def _init_params(spec: DictSpec, restart: int, seed: int):
    rng = np.random.default_rng(seed ^ restart)
    q = spec.domain.q
    widths = spec.arch()
    Ws, bs = [], []
    for d_in, d_out in zip(widths[:-1], widths[1:]):
        Ws.append(rng.uniform(-q, q, size=(d_out, d_in)))
        # biases start in [-1,1]: inside the clamp box, away from the dead
        # all-saturated region that large |c| produces
        bs.append(rng.uniform(-1.0, 1.0, size=d_out))
    return Ws, bs


def _embed_params(net: RepNet, spec: DictSpec):
    """Zero-pad a net satisfying (d|r) into the search architecture exactly."""
    if not net.satisfies(spec.cert):
        raise AdversaryError("warm-start net does not satisfy the dictionary certificate")
    padded = pad_depth(net, spec.r - net.depth)
    widths = spec.arch()
    Ws, bs = [], []
    for l, layer in enumerate(padded.layers):
        W = np.zeros((widths[l + 1], widths[l]))
        b = np.zeros(widths[l + 1])
        W[: layer.d_out, : layer.d_in] = layer.W
        b[: layer.d_out] = layer.b
        Ws.append(W)
        bs.append(b)
    return Ws, bs


def _objective_linear(weights, values):
    """J_b = <h_b, c> with c = weights * values, a weighted correlation whose
    gradient dJ/dh is c itself, shared by every entry."""
    c = (weights * values).astype(np.float32)

    def eval_obj(h):
        return np.einsum("bn,n->b", h, c), c
    return eval_obj


def _objective_gain(weights, values):
    """J_b = <h,res>^2 / ||h||^2: the exact energy decrease of the optimally
    scaled (unclamped) pick; both quantities under the quadrature weights."""
    weights = weights.astype(np.float32)
    wres = weights * values.astype(np.float32)

    def eval_obj(h):
        c = h @ wres
        h2 = np.maximum((h * h) @ weights, 1e-12)
        obj = c * c / h2
        G = (2.0 * c / h2)[:, None] * wres[None, :] \
            - ((c / h2) ** 2)[:, None] * (2.0 * weights[None, :] * h)
        return obj, G
    return eval_obj


def _gain(h, weights, values):
    """<h, values>^2 / ||h||^2 per entry, the float64 score of `_objective_gain`."""
    c = h @ (weights * values)
    return c * c / np.maximum((h * h) @ weights, 1e-14)


def _forward(X, Ws, bs, Zs, As):
    """Forward pass of B stacked nets at the nodes X (N, n), unit-major.

    Ws[l]: (B, out, in); bs[l]: (B, out).  Writes layer l's pre-activation
    into Zs[l] and its clipped output into As[l], both (B, out, N).  Returns
    h = As[-1][:, 0]: (B, N).
    """
    A = X.T
    for W, b, Z, A_out in zip(Ws, bs, Zs, As):
        np.matmul(W, A, out=Z)
        Z += b[:, :, None]
        A = np.clip(Z, -1.0, 1.0, out=A_out)
    return A[:, 0]


def _backward(X, Ws, Zs, As, Gc, gWs, gbs, masks, dZs, Gs):
    """Backpropagate dJ/dh = Gc, (B, N) or one (N,) row for every entry,
    through the pass `_forward` left in Zs and As, writing dJ/dW into gWs and
    dJ/db into gbs.  masks, dZs and Gs are scratch buffers shaped like Zs."""
    inputs = [X.T] + As[:-1]
    G = Gc[..., None, :]
    for l in range(len(Ws) - 1, -1, -1):
        # Z == A exactly where the clip is inactive, kinks included;
        # the subgradient there is 1 (the interior value), 0 outside
        np.equal(Zs[l], As[l], out=masks[l])
        dZ = np.multiply(G, masks[l], out=dZs[l])
        np.sum(dZ, axis=2, out=gbs[l])
        np.matmul(dZ, inputs[l].swapaxes(-1, -2), out=gWs[l])
        if l > 0:
            G = np.matmul(Ws[l].transpose(0, 2, 1), dZ, out=Gs[l - 1])


def _buffers(Ws, N: int, dtype):
    """The kernel's scratch for the stack Ws at N nodes: per layer Zs, As,
    dZs and Gs, each (B, out, N), and the clip masks."""
    Zs, As, dZs, Gs = ([np.empty((len(W), W.shape[1], N), dtype) for W in Ws] for _ in range(4))
    return Zs, As, dZs, Gs, [np.empty(Z.shape, dtype=bool) for Z in Zs]


def _ascend_chunk(X, objective, Ws, bs, bufs, q, bias_bounds, budget: Budget):
    """Ascend a chunk of parameter sets on a batched objective of h.

    Ws[l]: (B, out, in); bs[l]: (B, out), updated in place; bufs: the
    chunk's `_buffers`.  `objective(h)` returns the per-entry value (B,) and
    its gradient coefficients dJ/dh, (B, N) or one (N,) row for every entry.
    Returns per-entry best objective and the parameters achieving it.  No
    two chunks share a buffer, so chunks can run concurrently; every array
    takes the dtype of X, which the parameters and objective share.
    """
    B = len(bs[0])
    Zs, As, dZs, Gs, masks = bufs
    gWs, gbs = [np.empty_like(W) for W in Ws], [np.empty_like(b) for b in bs]
    best_obj = np.full(B, -np.inf, X.dtype)
    best_Ws, best_bs = [W.copy() for W in Ws], [b.copy() for b in bs]
    step = budget.step0
    for it in range(budget.iterations + 1):
        obj, Gc = objective(_forward(X, Ws, bs, Zs, As))
        improved = obj > best_obj
        np.copyto(best_obj, obj, where=improved)
        for W, b, best_W, best_b in zip(Ws, bs, best_Ws, best_bs):
            np.copyto(best_W, W, where=improved[:, None, None])
            np.copyto(best_b, b, where=improved[:, None])
        if it == budget.iterations:
            break
        _backward(X, Ws, Zs, As, Gc, gWs, gbs, masks, dZs, Gs)
        # normalized subgradient step, then projection onto the boxes
        sq = sum(np.einsum("boi,boi->b", gW, gW) + np.einsum("bo,bo->b", gb, gb)
                 for gW, gb in zip(gWs, gbs))
        scale = step / np.maximum(np.sqrt(sq), 1e-12)
        for W, b, gW, gb, bound in zip(Ws, bs, gWs, gbs, bias_bounds):
            gW *= scale[:, None, None]
            np.clip(np.add(W, gW, out=W), -q, q, out=W)
            gb *= scale[:, None]
            np.clip(np.add(b, gb, out=b), -bound, bound, out=b)
        step *= budget.decay
    return best_obj, best_Ws, best_bs


# The search itself runs on a strided subsample of at most this many nodes;
# every reported quantity (correlations, gains, audit values) is recomputed on
# the full shared quadrature, so the exact inequalities are unaffected.
_SEARCH_NODES = 2048


def _search_sample(quad: Quadrature):
    """The search nodes X, their weights (renormalized when subsampled) and
    the index `idx` that picks their values out of full-quadrature values."""
    if quad.size <= _SEARCH_NODES:
        return quad.nodes, quad.weights, slice(None)
    if quad.scheme_id == "low-discrepancy":
        # digital-sequence prefixes stay balanced; strides do not
        idx = np.arange(_SEARCH_NODES)
    else:
        rng = np.random.default_rng(quad.seed)
        idx = np.sort(rng.choice(quad.size, size=_SEARCH_NODES, replace=False))
    w = quad.weights[idx]
    return quad.nodes[idx], w / w.sum(), idx


def _multistart(X, spec: DictSpec, entry_inits, objective, budget: Budget, threads: int):
    """Run chunked multi-start ascent of `objective` at the search nodes X;
    returns per-entry best params stacked.

    The search runs in float32: it only chooses which nets get rescored in
    float64 on the full quadrature.  The returned params are float64, clipped
    again to the boxes, since float32(q) may exceed q.  Chunks have a fixed
    size, so results are byte-identical for any worker count.
    """
    widths = spec.arch()
    L = len(widths) - 1
    q = spec.domain.q
    bias_bounds = [spec.domain.bias_bound(widths[l]) for l in range(L)]
    X = X.astype(np.float32)
    Ws0, bs0 = ([np.stack([init[k][l] for init in entry_inits], dtype=np.float32)
                 for l in range(L)] for k in (0, 1))

    parts = [slice(lo, lo + _CHUNK) for lo in range(0, len(entry_inits), _CHUNK)]
    # each chunk's buffers come from the calling thread: glibc keeps what a
    # worker thread frees in that thread's arena, where the rescore that
    # follows cannot reuse it
    bufs = [_buffers([W[part] for W in Ws0], len(X), np.float32) for part in parts]

    def run_chunk(part, buf):
        return _ascend_chunk(X, objective, [W[part] for W in Ws0], [b[part] for b in bs0], buf,
                             q, bias_bounds, budget)

    with ThreadPoolExecutor(max_workers=threads) as pool:
        chunks = list(pool.map(run_chunk, parts, bufs))
    Ws_all = [np.clip(np.concatenate([c[1][l] for c in chunks], dtype=np.float64), -q, q)
              for l in range(L)]
    bs_all = [np.clip(np.concatenate([c[2][l] for c in chunks], dtype=np.float64),
                      -bound, bound)
              for l, bound in enumerate(bias_bounds)]
    return Ws_all, bs_all


def _forward_all(X, Ws, bs):
    """Full-quadrature forward pass for a stack of parameter sets: (E, N).

    Each layer clips in place and reads only the layer before it, so two
    buffers take turns: even layers use one, odd layers the other.
    """
    E, N = len(bs[0]), len(X)
    widths = [b.shape[1] for b in bs]
    pair = [np.empty(E * max(widths[k::2], default=0) * N) for k in (0, 1)]
    bufs = [pair[l % 2][:E * w * N].reshape(E, w, N) for l, w in enumerate(widths)]
    return _forward(X, Ws, bs, bufs, bufs)


def _starts(spec: DictSpec, budget: Budget, seed: int, warm_start: RepNet | None):
    """One start per restart, the warm start's exact params in restart 0's
    place, and those params (None without a warm start)."""
    starts = [_init_params(spec, i, seed) for i in range(budget.restarts)]
    warm = None if warm_start is None else _embed_params(warm_start, spec)
    if warm is not None:
        starts[0] = warm
    return starts, warm


def _mirror(Ws, bs):
    """The same params with the output unit negated: since the clip is odd
    and the boxes are symmetric, the mirrored net computes -h."""
    return Ws[:-1] + [-Ws[-1]], bs[:-1] + [-bs[-1]]


def _search(quad: Quadrature, spec: DictSpec, values, objective, score, entry_inits, warm,
            budget: Budget, threads: int):
    """The search core: ascend `objective(weights, values)` from every entry
    on the search subsample, score each entry's best iterate with
    `score(h, weights, values)` on the full quadrature, and return the scores
    (E,) and the first best entry's net.

    The float32 search sees a warm start rounded, so its exact float64
    params `warm` (the start of entry 0) are scored too and, when they score
    strictly higher, replace entry 0's best.
    """
    X, ws, idx = _search_sample(quad)
    Ws, bs = _multistart(X, spec, entry_inits, objective(ws, values[idx]), budget, threads)
    scores = score(_forward_all(quad.nodes, Ws, bs), quad.weights, values)
    if warm is not None:
        h = _forward_all(quad.nodes, *([a[None] for a in p] for p in warm))
        own = score(h, quad.weights, values)[0]
        if own > scores[0]:
            scores[0] = own
            for A, a in zip(Ws + bs, warm[0] + warm[1]):
                A[0] = a
    e = int(np.argmax(scores))
    return scores, RepNet(spec.domain, tuple(Layer(W[e], b[e]) for W, b in zip(Ws, bs)))


def ascend(quad: Quadrature, spec: DictSpec, target: FunctionOracle,
           budget: Budget, seed: int, threads: int = 1,
           warm_start: RepNet | None = None) -> AdversaryResult:
    """Maximize |<h_theta, target>| over the (d|r) parameter box.

    The dictionary is closed under negation, so every restart ascends
    <h, target> from a start and from its mirror; ties across restarts go to
    the higher value, then the lower restart index.  Deterministic given seed.
    """
    starts, warm = _starts(spec, budget, seed, warm_start)
    # entries: restart 0, its mirror, restart 1, its mirror, ...
    entry_inits = [p for start in starts for p in (start, _mirror(*start))]
    # |<h, target>| scores a net and its mirror alike, so entry 0 alone
    # carries a warm start, and a tie goes to the start before its mirror
    scores, witness = _search(quad, spec, target.values(quad), _objective_linear,
                              lambda h, w, v: np.abs(h @ (w * v)), entry_inits, warm, budget,
                              threads)
    return AdversaryResult(
        value=float(scores.max()),
        witness=witness,
        restarts_run=budget.restarts,
        per_restart_values=tuple(float(v) for v in scores.reshape(-1, 2).max(axis=1)),
        seed=seed,
        budget=budget,
    )


def best_gain_element(quad: Quadrature, spec: DictSpec, residual: FunctionOracle,
                      budget: Budget, seed: int, threads: int = 1,
                      warm_start: RepNet | None = None) -> RepNet:
    """Maximize the single-pick energy gain <h,res>^2 / ||h||^2 directly.

    Polishes the plain correlation maximizer for the decomposition stages:
    the gain objective prefers elements that also FIT the residual, not just
    point in its direction.  A start and its mirror ascend the same gain, so
    each restart runs from its start alone.
    """
    starts, warm = _starts(spec, budget, seed, warm_start)
    return _search(quad, spec, residual.values(quad), _objective_gain, _gain, starts, warm,
                   budget, threads)[1]


def sigma_dr(quad: Quadrature, spec: DictSpec, f: FunctionOracle, g: FunctionOracle,
             budget: Budget, seed: int, threads: int = 1,
             warm_start: RepNet | None = None) -> AdversaryResult:
    """Lower-bound estimate of the observer metric between f and g.

    Symmetric in (f, g): every restart ascends from a start and its mirror,
    and swapping f and g swaps the two.
    """
    diff = oracle_from_values(quad, f.values(quad) - g.values(quad), "difference")
    return ascend(quad, spec, diff, budget, seed, threads=threads, warm_start=warm_start)


def invisibility_audit(quad: Quadrature, spec: DictSpec, h: FunctionOracle,
                       epsilon: float, budget: Budget, seed: int,
                       threads: int = 1) -> dict:
    """Report whether any found dictionary element correlates above epsilon.

    A True verdict means "no witness found at this budget" and is not a proof.
    """
    result = ascend(quad, spec, h, budget, seed, threads=threads)
    invisible = result.value <= epsilon
    return {
        "invisible_up_to_budget": invisible,
        "result": result,
        "note": ("no witness found at this budget"
                 if invisible else "witness exceeds threshold"),
    }

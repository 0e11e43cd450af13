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


def _objective_linear(C):
    """J_b = sum_n C[b,n] h_b(x_n): plain weighted correlation."""
    def eval_obj(h):
        return np.einsum("bn,bn->b", C, h), C
    return eval_obj


def _objective_gain(weights, resvals):
    """J_b = <h,res>^2 / ||h||^2: the exact energy decrease of the optimally
    scaled (unclamped) pick; both quantities under the quadrature weights."""
    wres = weights * resvals

    def eval_obj(h):
        c = h @ wres
        h2 = np.maximum((h * h) @ weights, 1e-12)
        obj = c * c / h2
        G = (2.0 * c / h2)[:, None] * wres[None, :] \
            - ((c / h2) ** 2)[:, None] * (2.0 * weights[None, :] * h)
        return obj, G
    return eval_obj


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
    """Backpropagate dJ/dh = Gc (B, N) through the pass `_forward` left in Zs
    and As, writing dJ/dW into gWs and dJ/db into gbs.  masks, dZs and Gs
    are scratch buffers shaped like Zs."""
    inputs = [X.T] + As[:-1]
    G = Gc[:, None, :]
    for l in range(len(Ws) - 1, -1, -1):
        # Z == A exactly where the clip is inactive, kinks included;
        # the subgradient there is 1 (the interior value), 0 outside
        np.equal(Zs[l], As[l], out=masks[l])
        dZ = np.multiply(G, masks[l], out=dZs[l])
        np.sum(dZ, axis=2, out=gbs[l])
        np.matmul(dZ, inputs[l].swapaxes(-1, -2), out=gWs[l])
        if l > 0:
            G = np.matmul(Ws[l].transpose(0, 2, 1), dZ, out=Gs[l - 1])


def _ascend_chunk(X, objective, Ws, bs, q, bias_bounds, budget: Budget):
    """Ascend a chunk of parameter sets on a batched objective of h.

    Ws[l]: (B, out, in); bs[l]: (B, out), updated in place.  `objective(h)`
    returns the per-entry value (B,) and its gradient coefficients dJ/dh
    (B, N).  Returns per-entry best objective and the parameters achieving
    it.  Every buffer belongs to this call, so chunks can run concurrently,
    and takes the dtype of X, which the parameters and objective share.
    """
    B, N = len(bs[0]), len(X)
    Zs, As, dZs, Gs = ([np.empty((B, W.shape[1], N), X.dtype) for W in Ws] for _ in range(4))
    masks = [np.empty(Z.shape, dtype=bool) for Z in Zs]
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


def _multistart(X, spec: DictSpec, entry_inits, make_objective, budget: Budget,
                threads: int):
    """Run chunked multi-start ascent at the search nodes X; returns per-entry
    best params stacked.

    The search runs in float32: it only chooses which nets get rescored in
    float64 on the full quadrature.  The returned params are float64, clipped
    again to the boxes, since float32(q) may exceed q.  `make_objective(lo,
    hi)` builds the float32 objective for entries [lo, hi).  Chunks have a
    fixed size, so results are byte-identical for any worker count.
    """
    widths = spec.arch()
    L = len(widths) - 1
    q = spec.domain.q
    bias_bounds = [spec.domain.bias_bound(widths[l]) for l in range(L)]
    n_entries = len(entry_inits)
    n_chunks = (n_entries + _CHUNK - 1) // _CHUNK
    X = X.astype(np.float32)
    Ws0 = [np.stack([init[0][l] for init in entry_inits], dtype=np.float32) for l in range(L)]
    bs0 = [np.stack([init[1][l] for init in entry_inits], dtype=np.float32) for l in range(L)]

    def run_chunk(ci):
        lo = ci * _CHUNK
        hi = min(lo + _CHUNK, n_entries)
        return ci, _ascend_chunk(X, make_objective(lo, hi), [W[lo:hi] for W in Ws0],
                                 [b[lo:hi] for b in bs0], q, bias_bounds, budget)

    if threads > 1 and n_chunks > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = dict(pool.map(run_chunk, range(n_chunks)))
    else:
        results = dict(run_chunk(ci) for ci in range(n_chunks))
    Ws_all = [np.clip(np.concatenate([results[ci][1][l] for ci in range(n_chunks)],
                                     dtype=np.float64), -q, q)
              for l in range(L)]
    bs_all = [np.clip(np.concatenate([results[ci][2][l] for ci in range(n_chunks)],
                                     dtype=np.float64), -bound, bound)
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


def _rescore(quad: Quadrature, Ws, bs, score, warm):
    """Full-quadrature scores `score(h)` of every searched entry.

    The float32 search sees a warm start rounded, so its exact float64
    params `warm` (the start of entry 0) are scored too and, when they score
    strictly higher, replace entry 0's best in Ws and bs.
    """
    scores = score(_forward_all(quad.nodes, Ws, bs))
    if warm is not None:
        own = score(_forward_all(quad.nodes, *([a[None] for a in p] for p in warm)))[0]
        if own > scores[0]:
            scores[0] = own
            for A, a in zip(Ws + bs, warm[0] + warm[1]):
                A[0] = a
    return scores


def _entry_net(spec: DictSpec, Ws, bs, e: int) -> RepNet:
    layers = tuple(Layer(Ws[l][e], bs[l][e]) for l in range(len(Ws)))
    return RepNet(spec.domain, layers)


def ascend(quad: Quadrature, spec: DictSpec, target: FunctionOracle,
           budget: Budget, seed: int, threads: int = 1,
           warm_start: RepNet | None = None) -> AdversaryResult:
    """Maximize |<h_theta, target>| over the (d|r) parameter box.

    Per restart both sign objectives run; ties across restarts go to the
    higher value, then the lower restart index.  Deterministic given seed.
    """
    tvals = target.values(quad)
    R = budget.restarts

    # batch entries: (restart 0, +), (restart 0, -), (restart 1, +), ...
    inits = [_init_params(spec, i, seed) for i in range(R)]
    warm = None if warm_start is None else _embed_params(warm_start, spec)
    if warm is not None:
        inits[0] = warm
    signs = np.array([+1.0, -1.0] * R, dtype=np.float32)
    entry_inits = [inits[e // 2] for e in range(2 * R)]

    X, ws, idx = _search_sample(quad)
    base_c = (ws * tvals[idx]).astype(np.float32)

    def make_objective(lo, hi):
        return _objective_linear(signs[lo:hi, None] * base_c[None, :])

    Ws, bs = _multistart(X, spec, entry_inits, make_objective, budget, threads)

    # score every entry's best iterate on the full quadrature; the warm start
    # scores the same under both signs, so entry 0 alone carries it
    wt = quad.weights * tvals
    scores = _rescore(quad, Ws, bs, lambda h: np.abs(h @ wt), warm)
    per_restart = tuple(float(max(scores[2 * i], scores[2 * i + 1])) for i in range(R))
    winner = int(np.argmax(scores))  # first max: lower restart index, then +
    witness = _entry_net(spec, Ws, bs, winner)
    return AdversaryResult(
        value=float(scores[winner]),
        witness=witness,
        restarts_run=R,
        per_restart_values=per_restart,
        seed=seed,
        budget=budget,
    )


def best_gain_element(quad: Quadrature, spec: DictSpec, residual: FunctionOracle,
                      budget: Budget, seed: int, threads: int = 1,
                      warm_start: RepNet | None = None) -> RepNet:
    """Maximize the single-pick energy gain <h,res>^2 / ||h||^2 directly.

    Polishes the plain correlation maximizer for the decomposition stages:
    the gain objective prefers elements that also FIT the residual, not just
    point in its direction.  Sign-invariant, so restarts are not duplicated.
    """
    rv = residual.values(quad)
    X, ws, idx = _search_sample(quad)
    objective = _objective_gain(ws.astype(np.float32), rv[idx].astype(np.float32))

    inits = [_init_params(spec, i, seed) for i in range(budget.restarts)]
    warm = None if warm_start is None else _embed_params(warm_start, spec)
    if warm is not None:
        inits[0] = warm

    Ws, bs = _multistart(X, spec, inits, lambda lo, hi: objective, budget, threads)

    wr = quad.weights * rv

    def gain(h):
        c = h @ wr
        return c * c / np.maximum((h * h) @ quad.weights, 1e-14)

    gains = _rescore(quad, Ws, bs, gain, warm)
    winner = int(np.argmax(gains))
    return _entry_net(spec, Ws, bs, winner)


def sigma_dr(quad: Quadrature, spec: DictSpec, f: FunctionOracle, g: FunctionOracle,
             budget: Budget, seed: int, threads: int = 1,
             warm_start: RepNet | None = None) -> AdversaryResult:
    """Lower-bound estimate of the observer metric between f and g.

    Symmetric in (f, g) because both sign objectives run for every restart.
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

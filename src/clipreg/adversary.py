"""Witness search: estimate the observer metric by maximizing the correlation
of a small clipped network against a target.

The search is multi-start projected subgradient ascent over the network
parameter box.  Every reported value is a LOWER bound on the true supremum
over the infinite dictionary; results say "no witness found at this budget",
never "invisible".
"""

from __future__ import annotations

import math
import queue
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from clipreg.netcore import ClipregError, DomainSpec, Layer, RepNet, net_to_dict, seeded_params
from clipreg.measure import FunctionOracle, Quadrature, oracle_from_values

# Restarts are processed in fixed-size chunks so the arithmetic (and hence the
# result bytes) are identical for any worker count.
_CHUNK = 64

# Successive halving (Jamieson & Talwalkar, AISTATS 2016) of a decomposition
# stage's correlation ascent: after iteration I // k of its I, for each k
# here, the better half of the entries still running continue and the rest
# stop.  See `_rungs` and `_multistart`.
_RUNGS = (4, 2)


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


def _objective_linear(weights, values):
    """J_b = |<h_b, c>| with c = weights * values, a weighted correlation of
    either sign, and its subgradient dJ/dh = sign(<h_b, c>) * c.  Negating
    `values` negates c exactly, so the climb is bit-for-bit the same."""
    c = (weights * values).astype(np.float32)

    def eval_obj(h):
        corr = np.einsum("bn,n->b", h, c)
        return np.abs(corr), np.sign(corr)[:, None] * c
    return eval_obj


def _objective_fit(weights, values, q: float):
    """J_b = `fit`'s clamped gain of h_b toward `values`, and its gradient
    dJ/dh = 2*lam*weights*(values - lam*h) at the clamped lam.  By the
    envelope theorem lam's own change drops out: lam maximizes the gain where
    it is interior and stays at -q or q where it clamps."""
    weights, values = weights.astype(np.float32), values.astype(np.float32)

    def eval_obj(h):
        lam, gain = fit(h, weights, values, q)
        return gain, 2.0 * lam[:, None] * weights * (values - lam[:, None] * h)
    return eval_obj


def fit(h, weights, values, q: float):
    """The best single step lam*h toward `values`, per entry of h, (E, N) or
    (N,), under the quadrature weights: lam = clip(<h, values>/||h||^2, -q, q),
    0 where ||h||^2 < 1e-14, and its gain 2*lam*<h, values> - lam^2*||h||^2,
    the exact decrease of ||values - lam*h||^2.  Returns (lam, gain)."""
    c = (h * values) @ weights
    h2 = (h * h) @ weights
    lam = np.where(h2 < 1e-14, 0.0, np.clip(c / np.maximum(h2, 1e-14), -q, q))
    return lam, 2.0 * lam * c - lam * lam * h2


def _forward(XT, Ws, bs, Zs, As, masks=None):
    """Forward pass of B stacked nets at the nodes XT, a contiguous (n, N)
    matrix, unit-major.

    Ws[l]: (B, out, in); bs[l]: (B, out).  Writes layer l's pre-activation
    into Zs[l] and its clipped output into As[l], both (B, out, N), and,
    when `masks` is given, the clip masks Zs[l] == As[l] into masks[l] for
    `_backward`.  Zs[l] may be As[l] (the clip then runs in place) or a view
    of a scratch that every layer overwrites.  Returns h = As[-1][:, 0]: (B, N).
    """
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


def _backward(XT, Ws, As, masks, Gc, gWs, gbs, Ds):
    """Backpropagate dJ/dh = Gc, (B, N), through the pass `_forward` left in
    As and masks from the nodes XT (n, N), writing dJ/dW into gWs and dJ/db
    into gbs.  Ds[l], shaped like As[l], takes layer l's dJ/dZ."""
    inputs = [XT] + As[:-1]
    dZ = np.multiply(Gc[:, None, :], masks[-1], out=Ds[-1])
    for l in range(len(Ws) - 1, -1, -1):
        np.sum(dZ, axis=2, out=gbs[l])
        np.matmul(dZ, inputs[l].swapaxes(-1, -2), out=gWs[l])
        if l > 0:
            # through a layer of one unit W^T dZ is an outer product, which
            # numpy's batched matmul runs off BLAS; broadcast gives its bits
            Wt = Ws[l].transpose(0, 2, 1)
            G = (np.multiply if Wt.shape[2] == 1 else np.matmul)(Wt, dZ, out=Ds[l - 1])
            dZ = np.multiply(G, masks[l - 1], out=G)


def _buffers(Ws, N: int, dtype):
    """The kernel's scratch for the stack Ws at N nodes: the pre-activations
    Zs, one view per layer of a single scratch that each layer overwrites,
    and per layer As and Ds, each (B, out, N), and the clip masks."""
    shapes = [(len(W), W.shape[1], N) for W in Ws]
    Z = np.empty(max(map(math.prod, shapes)), dtype)
    As, Ds = ([np.empty(s, dtype) for s in shapes] for _ in range(2))
    return ([Z[:math.prod(s)].reshape(s) for s in shapes], As, Ds,
            [np.empty(s, dtype=bool) for s in shapes])


def _ascend_chunk(XT, objective, Ws, bs, best, bufs, q, bias_bounds, budget: Budget,
                  its: range, step: float) -> float:
    """Ascend a chunk of parameter sets on a batched objective of h at the
    nodes XT, a contiguous (n, N) matrix, over the iterations `its` of
    range(budget.iterations + 1), from the step size `step`.

    Ws[l]: (B, out, in); bs[l]: (B, out), updated in place; best: the
    per-entry best objective so far (B,) and the params achieving it,
    [best_obj, best_Ws, best_bs], also updated in place; bufs: a `_buffers`
    set for at least B entries, of which the chunk uses the first B.
    `objective(h)` returns the per-entry value (B,) and its gradient
    coefficients dJ/dh, (B, N).  Iteration `it` scores the params after `it`
    steps and, below budget.iterations, takes step `it` + 1.  Returns the
    step size as the loop leaves it, so a run resumed from the returned
    state and step takes the very steps of one uninterrupted run.  Chunks
    that run concurrently need distinct buffer sets; every array takes the
    dtype of XT, which the parameters and objective share.
    """
    B = len(bs[0])
    Zs, As, Ds, masks = ([a[:B] for a in buf] for buf in bufs)
    gWs, gbs = [np.empty_like(W) for W in Ws], [np.empty_like(b) for b in bs]
    best_obj, best_Ws, best_bs = best
    for it in its:
        obj, Gc = objective(_forward(XT, Ws, bs, Zs, As, masks))
        improved = obj > best_obj
        np.copyto(best_obj, obj, where=improved)
        for W, b, best_W, best_b in zip(Ws, bs, best_Ws, best_bs):
            np.copyto(best_W, W, where=improved[:, None, None])
            np.copyto(best_b, b, where=improved[:, None])
        if it == budget.iterations:
            break
        _backward(XT, Ws, As, masks, Gc, gWs, gbs, Ds)
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
    return step


# The search itself runs on a strided subsample of at most this many nodes;
# every reported quantity (correlations, gains, audit values) is recomputed on
# the full shared quadrature, so the exact inequalities are unaffected.  The
# rescore's forward pass runs in blocks of as many nodes, so its scratch does
# not grow with the quadrature.
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


def _rungs(iterations: int) -> list:
    """The iterations after which a pruned search halves its running
    entries: iterations // k for k in _RUNGS, skipping a rung at 0 and one
    that repeats the rung before."""
    rungs = []
    for t in (iterations // k for k in _RUNGS):
        if t > 0 and rungs[-1:] != [t]:
            rungs.append(t)
    return rungs


def _multistart(X, spec: DictSpec, starts, objective, budget: Budget, threads: int,
                rungs=()):
    """Run chunked multi-start ascent of `objective` at the search nodes X
    (N, n) from the stacked params `starts` (`_starts`); returns per-entry
    best params stacked.

    The search runs in float32: it only chooses which nets get rescored in
    float64 on the full quadrature.  The returned params are float64, clipped
    again to the boxes, since float32(q) may exceed q.  Chunks have a fixed
    size, so results are byte-identical for any worker count.  Every chunk
    reads one contiguous (n, N) copy of the nodes: numpy's matmul leaves
    BLAS on the strided view X.T.  At most `threads` chunks run at once, so
    the search holds min(threads, chunks) buffer sets, each sized for the
    first (largest) chunk, and a chunk takes a free set from a queue.

    Successive halving: after each iteration t in `rungs` (ascending, each
    in 1..budget.iterations - 1), once every chunk has returned, the entries
    still running are ranked by their best objective so far, ties to the
    lower restart (a stable sort), and the better ceil(E/2) of the E go on.
    They resume from their current params and best so far, with the step
    size as the loop left it, so each takes the very steps of an unpruned
    run; they are re-chunked in restart order, so the result is still the
    same for any worker count.  The others stop, and their best params so
    far are returned.
    """
    widths = spec.arch()
    L = len(widths) - 1
    q = spec.domain.q
    bias_bounds = [spec.domain.bias_bound(widths[l]) for l in range(L)]
    XT = np.ascontiguousarray(X.T, dtype=np.float32)
    Ws, bs = ([a.astype(np.float32) for a in p] for p in starts)
    best_obj = np.full(len(bs[0]), -np.inf, np.float32)
    best_Ws, best_bs = [W.copy() for W in Ws], [b.copy() for b in bs]
    # float64 best params by restart, written as entries stop
    out_Ws, out_bs = [np.empty(W.shape) for W in Ws], [np.empty(b.shape) for b in bs]
    run = np.arange(len(best_obj))  # the restart of each running entry

    # the buffers come from the calling thread: glibc keeps what a worker
    # thread frees in that thread's arena, where the rescore that follows
    # cannot reuse it
    free = queue.SimpleQueue()
    for _ in range(min(threads, math.ceil(len(run) / _CHUNK))):
        free.put(_buffers([W[:_CHUNK] for W in Ws], XT.shape[1], np.float32))

    def run_chunk(part):
        # a chunk of the running entries, over the current phase's `its`
        buf = free.get()
        try:
            return _ascend_chunk(XT, objective, [W[part] for W in Ws], [b[part] for b in bs],
                                 [best_obj[part], [W[part] for W in best_Ws],
                                  [b[part] for b in best_bs]],
                                 buf, q, bias_bounds, budget, its, step)
        finally:
            free.put(buf)

    step, lo = budget.step0, 0
    with ThreadPoolExecutor(max_workers=threads) as pool:
        for hi in [*rungs, budget.iterations + 1]:
            its = range(lo, hi)
            parts = [slice(s, s + _CHUNK) for s in range(0, len(run), _CHUNK)]
            step, lo = list(pool.map(run_chunk, parts))[0], hi
            if hi > budget.iterations:
                break
            keep = np.zeros(len(run), dtype=bool)
            keep[np.argsort(-best_obj, kind="stable")[:(len(run) + 1) // 2]] = True
            for out, best in zip(out_Ws + out_bs, best_Ws + best_bs):
                out[run[~keep]] = best[~keep]
            run, best_obj = run[keep], best_obj[keep]
            Ws, bs, best_Ws, best_bs = ([a[keep] for a in p] for p in (Ws, bs, best_Ws, best_bs))
    for out, best in zip(out_Ws + out_bs, best_Ws + best_bs):
        out[run] = best
    return ([np.clip(W, -q, q, out=W) for W in out_Ws],
            [np.clip(b, -bound, bound, out=b) for b, bound in zip(out_bs, bias_bounds)])


def _forward_all(X, Ws, bs):
    """Full-quadrature forward pass for a stack of parameter sets at the
    nodes X (N, n): h, (E, N).

    The pass runs over blocks of at most _SEARCH_NODES nodes, each on a
    contiguous (n, block) copy of its rows of X, and writes each block's
    output into h; a node's value does not depend on the other nodes of its
    block, so the bits are those of one pass over all N.  Each layer clips
    in place and reads only the layer before it, so two block-sized buffers
    take turns: even layers use one, odd layers the other.
    """
    E, N = len(bs[0]), len(X)
    widths = [b.shape[1] for b in bs]
    block = min(N, _SEARCH_NODES)
    pair = [np.empty(E * max(widths[k::2], default=0) * block) for k in (0, 1)]
    h = np.empty((E, N))
    for lo in range(0, N, block):
        XT = np.ascontiguousarray(X[lo:lo + block].T)
        bufs = [pair[l % 2][:E * w * XT.shape[1]].reshape(E, w, -1) for l, w in enumerate(widths)]
        h[:, lo:lo + block] = _forward(XT, Ws, bs, bufs, bufs)
    return h


def _starts(spec: DictSpec, budget: Budget, seed: int, warm_start: RepNet | None):
    """The start params, stacked: Ws[l] (restarts, out, in) and bs[l]
    (restarts, out), float64.  Restart i holds `seeded_params(..., seed ^ i)`,
    the warm start restart 0's place.  A warm start must have the search
    architecture exactly."""
    if warm_start is not None and (warm_start.domain != spec.domain
                                   or warm_start.widths != (spec.d,) * spec.r):
        raise AdversaryError(f"warm start with hidden widths {warm_start.widths} on "
                             f"{warm_start.domain} does not have the search "
                             f"architecture {spec.arch()} on {spec.domain}")
    widths = spec.arch()
    Ws = [np.empty((budget.restarts, d_out, d_in)) for d_in, d_out in zip(widths, widths[1:])]
    bs = [np.empty((budget.restarts, d_out)) for d_out in widths[1:]]
    for i in range(budget.restarts):
        for W, b, (W_i, b_i) in zip(Ws, bs, seeded_params(spec.domain, spec.d, spec.r, seed ^ i)):
            W[i], b[i] = W_i, b_i
    if warm_start is not None:
        for W, b, layer in zip(Ws, bs, warm_start.layers):
            W[0], b[0] = layer.W, layer.b
    return Ws, bs


def _search(quad: Quadrature, spec: DictSpec, values, objective, score, budget: Budget,
            seed: int, warm_start: RepNet | None, threads: int, rungs=()):
    """The search core: ascend `objective(weights, values)` on the search
    subsample from `_starts`, one entry per restart, halving the entries
    after each iteration in `rungs` (`_multistart`), score each best iterate
    with `score(h, weights, values)` on the full quadrature, and return the
    scores (restarts,) and the first best entry's net.

    The float32 search sees a warm start rounded, so its exact float64
    params (the start of entry 0) are scored too and, when they score
    strictly higher, replace entry 0's best.
    """
    X, ws, idx = _search_sample(quad)
    Ws, bs = _multistart(X, spec, _starts(spec, budget, seed, warm_start),
                         objective(ws, values[idx]), budget, threads, rungs)
    # scored on all of h at once: a product over a block of h's rows sums in
    # another order and can change the last bits
    scores = score(_forward_all(quad.nodes, Ws, bs), quad.weights, values)
    if warm_start is not None:
        h = _forward_all(quad.nodes, [layer.W[None] for layer in warm_start.layers],
                         [layer.b[None] for layer in warm_start.layers])
        own = score(h, quad.weights, values)[0]
        if own > scores[0]:
            scores[0] = own
            for W, b, layer in zip(Ws, bs, warm_start.layers):
                W[0], b[0] = layer.W, layer.b
    e = int(np.argmax(scores))
    return scores, RepNet(spec.domain, tuple(Layer(W[e], b[e]) for W, b in zip(Ws, bs)))


def _correlation(quad: Quadrature, spec: DictSpec, target: FunctionOracle, budget: Budget,
                 seed: int, threads: int, warm_start: RepNet | None, rungs) -> AdversaryResult:
    scores, witness = _search(quad, spec, target.values(quad), _objective_linear,
                              lambda h, w, v: np.abs(h @ (w * v)), budget, seed, warm_start,
                              threads, rungs)
    return AdversaryResult(
        value=float(scores.max()),
        witness=witness,
        restarts_run=budget.restarts,
        per_restart_values=tuple(scores.tolist()),
        seed=seed,
        budget=budget,
    )


def ascend(quad: Quadrature, spec: DictSpec, target: FunctionOracle,
           budget: Budget, seed: int, threads: int = 1,
           warm_start: RepNet | None = None) -> AdversaryResult:
    """Maximize |<h_theta, target>| over the (d|r) parameter box.

    The dictionary is closed under negation, so one climb of |<h, target>|
    per restart covers both signs; ties across restarts go to the lower
    restart index.  Every restart runs all the iterations.  Deterministic
    given seed.
    """
    return _correlation(quad, spec, target, budget, seed, threads, warm_start, ())


def _stage_ascend(quad: Quadrature, spec: DictSpec, residual: FunctionOracle,
                  budget: Budget, seed: int, threads: int = 1) -> AdversaryResult:
    """A decomposition stage's correlation search: `ascend` with successive
    halving after the iterations `_rungs(budget.iterations)`.

    Its witness is only the polish's warm start, which `best_gain_element`
    climbs again and ranks by the exact gain.  Each entry that runs to the
    end takes the very steps it takes in `ascend`, and an entry that stops
    early keeps its best iterate so far, which is rescored with the rest.
    """
    return _correlation(quad, spec, residual, budget, seed, threads, None,
                        _rungs(budget.iterations))


def best_gain_element(quad: Quadrature, spec: DictSpec, residual: FunctionOracle,
                      budget: Budget, seed: int, threads: int = 1,
                      warm_start: RepNet | None = None) -> RepNet:
    """The net of highest clamped gain (`fit`) against the residual.

    Polishes the plain correlation maximizer for the decomposition stages:
    every restart climbs `fit`'s gain, which prefers elements that also FIT
    the residual, not just point in its direction, and the best iterates,
    the warm start's exact params among them, are ranked by that gain on the
    full quadrature, as the loop accepts on it.  It searches the same entries
    as `ascend`, one per restart.
    """
    q = spec.domain.q
    return _search(quad, spec, residual.values(quad), lambda w, v: _objective_fit(w, v, q),
                   lambda h, w, v: fit(h, w, v, q)[1], budget, seed, warm_start, threads)[1]


def sigma_dr(quad: Quadrature, spec: DictSpec, f: FunctionOracle, g: FunctionOracle,
             budget: Budget, seed: int, threads: int = 1,
             warm_start: RepNet | None = None) -> AdversaryResult:
    """Lower-bound estimate of the observer metric between f and g.

    Symmetric in (f, g) bit for bit: f - g and g - f are exact negatives,
    and `ascend` climbs |<h, f - g>|, which negation leaves unchanged.
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

"""Witness search: estimate the observer metric by maximizing the correlation
of a small clipped network against a target.

The search is multi-start projected subgradient ascent over the network
parameter box.  Every reported value is a LOWER bound on the true supremum
over the infinite dictionary; results say that no witness was found at this
budget, never "invisible".
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass

import numpy as np

from clipreg.netcore import (ClipregError, DomainSpec, Layer, RepNet, _forward, _forward_blocks,
                             net_to_dict, seeded_params)
from clipreg.measure import FunctionOracle, Quadrature, block_total, node_sum

# Restarts run in chunks of this fixed size, so the result bytes are the same
# for any worker count, and threads split only searches of more restarts.
_CHUNK = 64

# Successive halving (Jamieson & Talwalkar, AISTATS 2016) of a decomposition
# stage's correlation ascent (`ascend(..., prune=True)`): after iteration I // k
# of its I, for each k here, the better half of the running entries go on
# (`_rungs`, `_multistart`).  No other search prunes: a pruned audit reported
# lower values, a pruned polish other picks.
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

    def holds(self, net: RepNet) -> bool:
        """Whether `net` has this dictionary's architecture exactly."""
        return net.domain == self.domain and net.widths == (self.d,) * self.r


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


@dataclass(frozen=True)
class AdversaryResult:
    value: float                 # best score found (lower bound)
    witness: RepNet
    per_restart_values: tuple
    seed: int
    budget: Budget

    def to_dict(self) -> dict:
        return {
            "value": self.value,
            "lower_bound_only": True,
            "witness": net_to_dict(self.witness),
            "restarts_run": self.budget.restarts,
            "per_restart_values": list(self.per_restart_values),
            "seed": self.seed,
            "budget": asdict(self.budget),
        }


def _objective_linear(weights, values):
    """J_b = |<h_b, c>| with c = weights * values, a weighted correlation of
    either sign.  Its subgradient dJ/dh = sign(<h_b, c>) * c comes folded, as
    (value, c as one (1, N) row, sign(<h_b, c>) (B,)): `_backward` takes the
    one row through every entry and `_ascend_chunk` scales each entry's
    parameter gradient by its sign.  A factor of +-1 or 0 commutes exactly
    with every product, mask and sum of the backward pass, so each step has
    the bits of the unfolded gradient's.  Negating `values` negates c
    exactly, so the climb is bit-for-bit the same."""
    c = (weights * values).astype(np.float32)

    def eval_obj(h):
        corr = np.einsum("bn,n->b", h, c)
        return np.abs(corr), c[None], np.sign(corr)
    return eval_obj


def _objective_fit(weights, values, q: float):
    """J_b = `fit`'s clamped gain of h_b toward `values`, and its gradient
    dJ/dh = 2*lam*weights*(values - lam*h) at the clamped lam, as (value,
    dJ/dh (B, N), None): no row sign to fold (`_objective_linear`).  By the
    envelope theorem lam's own change drops out: lam maximizes the gain where
    it is interior and stays at -q or q where it clamps."""
    weights, values = weights.astype(np.float32), values.astype(np.float32)

    def eval_obj(h):
        lam, gain = fit(h, weights, values, q)
        return gain, 2.0 * lam[:, None] * weights * (values - lam[:, None] * h), None
    return eval_obj


def fit(h, weights, values, q: float):
    """The best single step lam*h toward `values`, per entry of h, (E, N) or
    (N,), under the quadrature weights: lam = clip(<h, values>/||h||^2, -q, q),
    0 where ||h||^2 < 1e-14, and its gain 2*lam*<h, values> - lam^2*||h||^2,
    the exact decrease of ||values - lam*h||^2.  Returns (lam, gain).

    In float64 the two node sums are `node_sum`s of `_fit_terms`, whose bits
    no BLAS thread count moves.  The float32 search's sums are BLAS gemvs:
    they only steer the search, and other sums there would move its picks.

    The gain is at most the energy sum(weights * values**2): by Cauchy-Schwarz
    no lam does better than <h, values>^2/||h||^2.  In float64, with entries
    of h and values in [-1, 1] whose products stay normal numbers, the
    computed gain exceeds the computed energy by less than 1e-12 relative;
    `decompose` stops on this bound once the energy left is at most eps^2."""
    if np.result_type(h, weights, values) == np.float32:
        return _clamped((h * values) @ weights, (h * h) @ weights, q)
    return _clamped(*map(node_sum, _fit_terms(h, weights, values)), q)


def _fit_terms(h, weights, values):
    """The summands of `fit`'s float64 node sums <h, values> and ||h||^2."""
    return h * values * weights, h * h * weights


def _clamped(c, h2, q: float):
    """`fit`'s (lam, gain) from the sums c = <h, values> and h2 = ||h||^2."""
    lam = np.where(h2 < 1e-14, 0.0, np.clip(c / np.maximum(h2, 1e-14), -q, q))
    return lam, 2.0 * lam * c - lam * lam * h2


def _views(theta, widths):
    """Views Ws[l] (E, out, in) and bs[l] (E, out) of the parameter rows theta
    (E, P) of nets with layer widths [n, d, ..., 1].  A row holds layer 0's W,
    row-major, then its b, then layer 1's, and so on (`seeded_params`' order).
    The views share theta's memory, so the kernel's per-layer writes land in
    the rows; a search copies, steps, clips and prunes whole rows."""
    Ws, bs, at = [], [], 0
    for d_in, d_out in zip(widths, widths[1:]):
        Ws.append(theta[:, at:at + d_out * d_in].reshape(len(theta), d_out, d_in, copy=False))
        at += d_out * d_in
        bs.append(theta[:, at:at + d_out])
        at += d_out
    return Ws, bs


def _row(pairs):
    """The parameter row of per-layer (W, b) pairs, the inverse of `_views`."""
    return np.concatenate([np.ravel(a) for pair in pairs for a in pair])


def _box(spec: DictSpec):
    """Each parameter's bound, (P,): q, or bias_bound(d_in) for a bias."""
    widths, dom = spec.arch(), spec.domain
    return _row((np.full((d_out, d_in), dom.q), np.full(d_out, dom.bias_bound(d_in)))
                for d_in, d_out in zip(widths, widths[1:]))


def _backward(XT, Ws, As, masks, Gc, gWs, gbs):
    """Backpropagate dJ/dh = Gc, (B, N), or one (1, N) row for every entry,
    through the pass `netcore._forward` left in As and masks from the nodes XT (n,
    N), writing dJ/dW into gWs and dJ/db into gbs.  Layer l's dJ/dZ
    overwrites As[l], last read by layer l + 1's dW (As[-1], h, by the
    objective that gave Gc)."""
    inputs = [XT] + As[:-1]
    dZ = np.multiply(Gc[:, None, :], masks[-1], out=As[-1])
    for l in range(len(Ws) - 1, -1, -1):
        np.add.reduce(dZ, axis=2, out=gbs[l])
        np.matmul(dZ, inputs[l].swapaxes(-1, -2), out=gWs[l])
        if l > 0:
            if Ws[l].shape[1] == 1:
                # through a layer of one unit W^T dZ is an outer product, which
                # numpy's batched matmul runs off BLAS; each of einsum's
                # outputs is one product, the bits of matmul's
                G = np.einsum("bi,bn->bin", Ws[l][:, 0], dZ[:, 0], out=As[l - 1])
            else:
                G = np.matmul(Ws[l].transpose(0, 2, 1), dZ, out=As[l - 1])
            dZ = np.multiply(G, masks[l - 1], out=G)


def _buffers(Ws, N: int, dtype):
    """The kernel's scratch for the stack Ws at N nodes: the pre-activations
    Zs, one view per layer of a single scratch that each layer overwrites,
    and per layer As, each (B, out, N), also `_backward`'s dJ/dZ, and the clip masks."""
    shapes = [(len(W), W.shape[1], N) for W in Ws]
    Z = np.empty(max(map(math.prod, shapes)), dtype)
    return ([Z[:math.prod(s)].reshape(s) for s in shapes],
            [np.empty(s, dtype) for s in shapes], [np.empty(s, dtype=bool) for s in shapes])


def _ascend_chunk(XT, objective, theta, best, bufs, widths, box, budget: Budget,
                  its: range, step: float) -> float:
    """Ascend the parameter rows theta (B, P) of nets with layer widths
    `widths`, in place, on a batched objective of h at the nodes XT (n, N),
    over the iterations `its` of range(budget.iterations + 1) from the step
    size `step`.  best = [best_obj (B,), best_theta (B, P)], the best so far,
    is updated in place; box = (lo, hi), each (P,); bufs: a `_buffers` set for
    at least B entries.  `objective(h)` returns the value (B,), Gc and a row
    sign (B,) or None: dJ/dh is Gc, (B, N) or one (1, N) row for every entry,
    times the row sign where one is given (`_objective_linear`), which scales
    each row's parameter gradient after `_backward`.  Iteration `it` scores
    the rows after `it` steps and, below budget.iterations, steps: the
    gradient scaled to length `step`, then clipped into the box.  Returns
    the step size as the loop leaves it, so a resumed run takes the very
    steps of an uninterrupted one.  Concurrent chunks need distinct buffer
    sets; every array takes XT's dtype.
    """
    B = len(theta)
    Zs, As, masks = ([a[:B] for a in buf] for buf in bufs)
    Ws, bs = _views(theta, widths)
    grad = np.empty_like(theta)
    gWs, gbs = _views(grad, widths)
    best_obj, best_theta = best
    for it in its:
        obj, Gc, sign = objective(_forward(XT, Ws, bs, Zs, As, masks))
        improved = obj > best_obj
        np.copyto(best_obj, obj, where=improved)
        np.copyto(best_theta, theta, where=improved[:, None])
        if it == budget.iterations:
            break
        _backward(XT, Ws, As, masks, Gc, gWs, gbs)
        # normalized subgradient step, then projection onto the box; the
        # squared norm sums per layer, W before b, which fixes its bits
        sq = sum(np.einsum("boi,boi->b", gW, gW) + np.einsum("bo,bo->b", gb, gb)
                 for gW, gb in zip(gWs, gbs))
        scale = step / np.maximum(np.sqrt(sq), 1e-12)
        if sign is not None:
            # the row sign joins the scale: (g * s) * k == g * (s * k) for s
            # in {-1, 0, 1}, and sq is the same for g and -g
            scale *= sign
        grad *= scale[:, None]
        np.clip(np.add(theta, grad, out=theta), *box, out=theta)
        step *= budget.decay
    return step


# The search itself runs on at most this many nodes, a Sobol prefix or a
# seeded random subset of the quadrature (`_search_sample`); every reported
# quantity (correlations, gains, audit values) is recomputed on the full
# shared quadrature, so the exact inequalities are unaffected.  The rescore
# runs in the node blocks of `netcore`, so its scratch does not grow with
# the quadrature.
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
    (N, n) from the rows `starts` (`_starts`); returns each entry's best row.

    The search runs in float32: it only chooses which nets get rescored in
    float64.  The returned rows are float64, clipped again to the box, since
    float32(q) may exceed q.  Chunks have a fixed size, so results are
    byte-identical for any worker count.  Every chunk reads one contiguous
    (n, N) copy of the nodes: on the strided X.T numpy's matmul leaves BLAS,
    a third of the kernel's time.  There are min(threads, chunks) buffer
    sets, sized for the first chunk.  In each phase, with k = min(buffer
    sets, chunks), buffer set g ascends chunks g, g + k, ... in turn: group 0
    on the calling thread, groups 1 to k - 1 on a pool, so a phase of one
    chunk starts no thread.

    Successive halving: after each iteration t in `rungs` (ascending, each
    in 1..budget.iterations - 1), once every chunk has returned, the better
    ceil(E/2) of the E running entries by best objective so far, ties to the
    lower restart, go on from their current rows, best so far and step size,
    so each takes the very steps of an unpruned run; re-chunked in restart
    order, they give the same result for any worker count.  The others stop,
    and their best rows so far are returned.
    """
    widths, bound = spec.arch(), _box(spec)
    box = (-bound.astype(np.float32), bound.astype(np.float32))
    XT = np.ascontiguousarray(X.T, dtype=np.float32)
    theta = starts.astype(np.float32)
    best_obj, best = np.full(len(theta), -np.inf, np.float32), theta.copy()
    out = np.empty(starts.shape)  # float64 best rows by restart, written as entries stop
    run = np.arange(len(theta))  # the restart of each running entry

    # the buffers come from the calling thread: glibc keeps what a worker
    # thread frees in that thread's arena, where the rescore that follows
    # cannot reuse it
    sets = [_buffers(_views(theta[:_CHUNK], widths)[0], XT.shape[1], np.float32)
            for _ in range(min(threads, math.ceil(len(run) / _CHUNK)))]

    def run_group(buf, parts, its, step):
        # chunks of the running entries in turn on one buffer set, over the
        # phase's `its` from its `step`; each chunk returns the same step
        for part in parts:
            last = _ascend_chunk(XT, objective, theta[part], [best_obj[part], best[part]],
                                 buf, widths, box, budget, its, step)
        return last

    step, lo = budget.step0, 0
    with ThreadPoolExecutor(max_workers=len(sets)) as pool:
        for hi in [*rungs, budget.iterations + 1]:
            its = range(lo, hi)
            parts = [slice(s, s + _CHUNK) for s in range(0, len(run), _CHUNK)]
            k = min(len(sets), len(parts))
            others = [pool.submit(run_group, sets[g], parts[g::k], its, step)
                      for g in range(1, k)]
            step, lo = run_group(sets[0], parts[::k], its, step), hi
            for group in others:
                group.result()
            if hi > budget.iterations:
                break
            keep = np.zeros(len(run), dtype=bool)
            keep[np.argsort(-best_obj, kind="stable")[:(len(run) + 1) // 2]] = True
            out[run[~keep]] = best[~keep]
            run, best_obj, theta, best = run[keep], best_obj[keep], theta[keep], best[keep]
    out[run] = best
    return np.clip(out, -bound, bound, out=out)


def _rescore(quad: Quadrature, theta, widths, values, score):
    """The float64 scores (E,) of the parameter rows theta (E, P) against
    the target's (N,) node values on the full quadrature.

    score = (terms, finish): terms(h, weights, values) gives the summands,
    each (E, block), of the node sums that a score needs at one block's h
    and the block's weights and values, and finish(*sums) the scores.  Each
    block that `_forward_blocks` makes is reduced as it is made, and only
    its partials go on to `block_total`, so no (E, N) array is held and
    every sum has the bits of `node_sum` over the whole row, for any number
    of rows."""
    terms, finish = score
    return finish(*block_total([
        [np.add.reduce(t, axis=-1) for t in terms(h, quad.weights[nodes], values[nodes])]
        for nodes, h in _forward_blocks(quad.XT, *_views(theta, widths))]))


# `_rescore`'s scores: the correlation |<h, values>| of `ascend`, and `fit`'s
# gain at the bound q of `best_gain_element`
_CORRELATION = (lambda h, weights, values: [h * (weights * values)], np.abs)


def _gain(q: float):
    return _fit_terms, lambda c, h2: _clamped(c, h2, q)[1]


def correlation(quad: Quadrature, net: RepNet, values) -> float:
    """|<h, values>| of one net against (N,) node values, as `ascend`
    rescores it.  A rescored row does not depend on the rows beside it, so
    a search's witness gets the bits of the search's value."""
    return float(np.abs(node_sum(net.eval_batch(quad.nodes) * (quad.weights * values))))


def _starts(spec: DictSpec, budget: Budget, seed: int, warm_start: RepNet | None):
    """The start rows, (restarts, P), float64 (`_views`).  Restart i holds
    `seeded_params(..., seed ^ i)`, the warm start restart 0's place.  A
    warm start must have the search architecture exactly."""
    if warm_start is not None and not spec.holds(warm_start):
        raise AdversaryError(f"warm start with hidden widths {warm_start.widths} on "
                             f"{warm_start.domain} does not have the search "
                             f"architecture {spec.arch()} on {spec.domain}")
    theta = np.stack([_row(seeded_params(spec.domain, spec.d, spec.r, seed ^ i))
                      for i in range(budget.restarts)])
    if warm_start is not None:
        theta[0] = _row((layer.W, layer.b) for layer in warm_start.layers)
    return theta


def _search(quad: Quadrature, spec: DictSpec, values, objective, score, budget: Budget,
            seed: int, warm_start: RepNet | None, threads: int, rungs=()):
    """The search core: ascend `objective(weights, values)`, `values` the
    target's (N,) node values, on the search subsample from `_starts`, one
    entry per restart, halving the entries after each iteration in `rungs`
    (`_multistart`), score each best iterate by `score` on the full
    quadrature (`_rescore`), and return the search's record: the best
    score, the first entry that scores it and every entry's score.

    The float32 search sees a warm start rounded, so its exact float64 row
    is scored too, as one more row of the same rescore, and, when it scores
    strictly higher, replaces entry 0's.
    """
    X, ws, idx = _search_sample(quad)
    widths, starts = spec.arch(), _starts(spec, budget, seed, warm_start)
    theta = _multistart(X, spec, starts, objective(ws, values[idx]), budget, threads, rungs)
    rows = theta if warm_start is None else np.concatenate([theta, starts[:1]])
    scores = _rescore(quad, rows, widths, values, score)
    if warm_start is not None and scores[-1] > scores[0]:
        scores[0], theta[0] = scores[-1], starts[0]
    scores = scores[:len(theta)]
    e = int(np.argmax(scores))
    witness = RepNet(spec.domain, tuple(Layer(W[e], b[e]) for W, b in zip(*_views(theta, widths))))
    return AdversaryResult(value=float(scores[e]), witness=witness,
                           per_restart_values=tuple(scores.tolist()), seed=seed, budget=budget)


def ascend(quad: Quadrature, spec: DictSpec, values, budget: Budget, seed: int,
           threads: int = 1, warm_start: RepNet | None = None,
           prune: bool = False) -> AdversaryResult:
    """The correlation search: maximize |<h_theta, target>| over the (d|r)
    parameter box, `values` the target's (N,) node values.

    The dictionary is closed under negation, so one climb of |<h, target>|
    per restart covers both signs; ties across restarts go to the lower
    restart index.  Every restart runs all the iterations, unless `prune`:
    a decomposition stage's search halves its entries after the iterations
    `_rungs` gives (`_multistart`).  An entry that runs to the end takes the
    very steps it takes unpruned, and one that stops early keeps its best
    iterate so far, which is rescored with the rest.  Deterministic given
    seed.
    """
    return _search(quad, spec, values, _objective_linear, _CORRELATION, budget, seed,
                   warm_start, threads, _rungs(budget.iterations) if prune else ())


def best_gain_element(quad: Quadrature, spec: DictSpec, residual, budget: Budget, seed: int,
                      threads: int = 1, warm_start: RepNet | None = None) -> RepNet:
    """The net of highest clamped gain (`fit`) against the residual's (N,)
    node values.

    Polishes the plain correlation maximizer for the decomposition stages:
    every restart climbs `fit`'s gain, which prefers elements that also FIT
    the residual, not just point in its direction, and the best iterates,
    the warm start's exact params among them, are ranked by that gain on the
    full quadrature, as the loop accepts on it.  It searches the same entries
    as `ascend`, one per restart.
    """
    q = spec.domain.q
    return _search(quad, spec, residual, lambda w, v: _objective_fit(w, v, q), _gain(q),
                   budget, seed, warm_start, threads).witness


def sigma_dr(quad: Quadrature, spec: DictSpec, f: FunctionOracle, g: FunctionOracle,
             budget: Budget, seed: int, threads: int = 1,
             warm_start: RepNet | None = None) -> AdversaryResult:
    """Lower-bound estimate of the observer metric: `ascend` on f - g's node values.

    Symmetric in (f, g) bit for bit: f - g and g - f are exact negatives,
    and the search climbs |<h, f - g>|, which negation leaves unchanged.
    """
    return ascend(quad, spec, f.values(quad) - g.values(quad), budget, seed, threads,
                  warm_start)


def audit_verdict(value: float, epsilon: float) -> dict:
    """An audit's verdict on its value: invisible up to the budget when no
    witness correlates above epsilon, and the note that says so."""
    invisible = value <= epsilon
    return {"invisible_up_to_budget": invisible,
            "note": "no witness found at this budget" if invisible else "witness exceeds threshold"}


def invisibility_audit(quad: Quadrature, spec: DictSpec, h: FunctionOracle,
                       epsilon: float, budget: Budget, seed: int,
                       threads: int = 1) -> dict:
    """Report whether any found dictionary element correlates above epsilon.
    A True verdict holds only up to the search budget; it is not a proof."""
    result = ascend(quad, spec, h.values(quad), budget, seed, threads=threads)
    return {**audit_verdict(result.value, epsilon), "result": result}
